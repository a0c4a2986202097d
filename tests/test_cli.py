import hashlib
import json
import random

import pytest

from weyltype import (
    BlockMatrix,
    Character,
    InnerExp,
    NormalFormAut,
    ShiftV,
    TauAut,
    element_from_dict,
)
from weyltype.automorphisms import (
    MODE_ASSOC,
    MODE_LIE,
    FunctionalAut,
    Sigma1,
    decompose_automorphism,
    generator_element,
    generator_keys,
    random_normal_form_aut,
    verify_automorphism,
)
from weyltype.cli import run_command
from weyltype.sampling import desk_signature


DESK_CONFIG = {
    "ell1": 1,
    "ell2": 1,
    "gamma_generators": [["1", "0"], ["0", "1"], ["1/2", "1/2"]],
}


# sha256 of `weyl aut compose --json` on the twisted pairs of
# TestAut.test_compose_twisted_json_output_is_stable, as printed when the
# twist was composed through the generator images and decompose_automorphism
TWISTED_COMPOSE_SHA256 = {
    (0, 1): "18d40ca4425f814c074341af66545e0b495fab05bae0380efefaa60f92d891a3",
    (1, 0): "21529e8abde6d9e91e0041f4d7adb28024ea9a0c343396e7ac9a5579a411167a",
    (1, 1): "4a6966c08f4458014feb2d5590c553932d2ddbe1b6b0715021896d5b65c6fb2e",
}


@pytest.fixture()
def config_file(tmp_path):
    path = tmp_path / "desk.json"
    path.write_text(json.dumps(DESK_CONFIG))
    return str(path)


class TestEval:
    def test_round_trip(self, config_file, capsys):
        assert run_command(["eval", "--config", config_file, "d1"]) == 0
        assert capsys.readouterr().out == "d1\n"

    def test_canonicalizes(self, config_file, capsys):
        code = run_command(["eval", "--config", config_file,
                            "d1 * x[(1,0);(0,0)]"])
        assert code == 0
        out = capsys.readouterr().out.strip()
        assert out == "x[(1,0);(0,0)] + x[(1,0);(0,0)] * d1"

    def test_missing_config_is_usage_error(self, capsys):
        assert run_command(["eval", "d1"]) == 2
        assert "config" in capsys.readouterr().err

    def test_malformed_expression_exits_2(self, config_file, capsys):
        assert run_command(["eval", "--config", config_file, "d1 *"]) == 2
        assert "expected" in capsys.readouterr().err

    def test_lattice_errors_print_rational_points(self, config_file, capsys):
        assert run_command(["eval", "--config", config_file, "x[(1/3,0);(0,0)]"]) == 2
        err = capsys.readouterr().err
        assert "(1/3, 0) is not a point of the lattice" in err
        assert "Fraction(" not in err
        assert run_command(["eval", "--config", config_file, "x[(1,0);(0,1)]"]) != 0
        err = capsys.readouterr().err
        assert "alpha (1, 0), i (0, 1), mu (0, 0) extends past slot 1" in err
        assert "Monomial(" not in err and "Fraction(" not in err

    def test_polynomial_index_past_l1_exits_2(self, config_file, capsys):
        assert run_command(["eval", "--config", config_file, "x[(1,0);(0,1)]"]) == 2
        err = capsys.readouterr().err
        assert err == ("parse error: line 1, column 9: polynomial index of the monomial "
                       "with alpha (1, 0), i (0, 1), mu (0, 0) extends past slot 1\n")

    def test_wrong_dimension_exits_2(self, config_file, capsys):
        assert run_command(["eval", "--config", config_file, "x[(1)]"]) == 2
        capsys.readouterr()

    def test_byte_identical_reruns(self, config_file, capsys):
        argv = ["eval", "--config", config_file, "[d1, x[(1,0)]] + 2/3 * d2^2"]
        assert run_command(argv) == 0
        first = capsys.readouterr().out
        assert run_command(argv) == 0
        assert capsys.readouterr().out == first

    def test_json_output(self, config_file, capsys):
        assert run_command(["eval", "--config", config_file, "--json", "d1"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert payload["text"] == "d1"
        sig = desk_signature()
        assert element_from_dict(payload["element"]) == sig.d(1)


class TestBracket:
    def test_bracket_command(self, config_file, capsys):
        code = run_command(["bracket", "--config", config_file,
                            "d2", "x[(1,0);(0,0)]"])
        assert code == 0
        # the second derivation grades by the second ambient coordinate, 0 here
        assert capsys.readouterr().out.strip() == "0"
        code = run_command(["bracket", "--config", config_file,
                            "d1", "x[(1,0);(0,0)]"])
        assert code == 0
        assert capsys.readouterr().out.strip() == "x[(1,0);(0,0)]"


class TestExport:
    def test_export_json_round_trips(self, config_file, capsys):
        code = run_command(["export", "--config", config_file,
                            "--format", "json", "d1 + x[(0,1);(1,0)]"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        sig = desk_signature()
        assert element_from_dict(payload) == sig.d(1) + sig.x((0, 1), i=(1, 0))

    def test_unknown_format_is_usage_error(self, config_file, capsys):
        assert run_command(["export", "--config", config_file,
                            "--format", "xml", "d1"]) == 2
        capsys.readouterr()


class TestAut:
    def test_apply_normal_form(self, tmp_path, config_file, capsys):
        sig = desk_signature()
        rng = random.Random(3)
        nf = random_normal_form_aut(sig, rng)
        aut_path = tmp_path / "aut.json"
        aut_path.write_text(json.dumps(nf.to_dict()))
        code = run_command(["aut", "apply", "--config", config_file,
                            "--aut", str(aut_path), "d1"])
        assert code == 0
        out = capsys.readouterr().out.strip()
        from weyltype import format_element
        assert out == format_element(nf.apply(sig.d(1)))

    def test_compose_files(self, tmp_path, capsys):
        sig = desk_signature()
        rng = random.Random(4)
        a = random_normal_form_aut(sig, rng)
        b = random_normal_form_aut(sig, rng)
        pa, pb = tmp_path / "a.json", tmp_path / "b.json"
        pa.write_text(json.dumps(a.to_dict()))
        pb.write_text(json.dumps(b.to_dict()))
        code = run_command(["aut", "compose", "--a", str(pa), "--b", str(pb)])
        assert code == 0
        composed = NormalFormAut.from_dict(json.loads(capsys.readouterr().out))
        for key in generator_keys(sig):
            g = generator_element(sig, key)
            assert composed.apply(g) == a.apply(b.apply(g))

    def test_compose_twisted_files_uses_functional_route(self, tmp_path, capsys):
        sig = desk_signature()
        rng = random.Random(8)
        a = random_normal_form_aut(sig, rng)
        a = NormalFormAut(a.tau, a.u, a.v, 1)
        b = random_normal_form_aut(sig, rng)
        b = NormalFormAut(b.tau, b.u, b.v, 0)
        pa, pb = tmp_path / "a.json", tmp_path / "b.json"
        pa.write_text(json.dumps(a.to_dict()))
        pb.write_text(json.dumps(b.to_dict()))
        code = run_command(["aut", "compose", "--a", str(pa), "--b", str(pb)])
        assert code == 0
        out = capsys.readouterr().out
        # the functional route: the composite's generator images, decomposed
        images = {key: a.apply(b.apply(generator_element(sig, key)))
                  for key in generator_keys(sig)}
        reference = decompose_automorphism(FunctionalAut(sig, MODE_LIE, images))
        assert out == json.dumps(reference.to_dict(), indent=2) + "\n"
        assert NormalFormAut.from_dict(json.loads(out)).eps == 1

    @pytest.mark.parametrize("eps_a, eps_b", sorted(TWISTED_COMPOSE_SHA256))
    def test_compose_twisted_json_output_is_stable(self, tmp_path, capsys, eps_a, eps_b):
        sig = desk_signature()
        rng = random.Random(30 + 2 * eps_a + eps_b)
        a, b = (random_normal_form_aut(sig, rng) for _ in range(2))
        pa, pb = tmp_path / "a.json", tmp_path / "b.json"
        pa.write_text(json.dumps(NormalFormAut(a.tau, a.u, a.v, eps_a).to_dict()))
        pb.write_text(json.dumps(NormalFormAut(b.tau, b.u, b.v, eps_b).to_dict()))
        code = run_command(["aut", "compose", "--json", "--a", str(pa), "--b", str(pb)])
        assert code == 0
        digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert digest == TWISTED_COMPOSE_SHA256[(eps_a, eps_b)]

    def test_decompose_round_trip(self, tmp_path, capsys):
        sig = desk_signature()
        rng = random.Random(5)
        nf = random_normal_form_aut(sig, rng)
        phi = FunctionalAut.from_aut(nf)
        path = tmp_path / "phi.json"
        path.write_text(json.dumps(phi.to_dict()))
        code = run_command(["aut", "decompose", "--aut", str(path)])
        assert code == 0
        recovered = NormalFormAut.from_dict(json.loads(capsys.readouterr().out))
        assert recovered.same_data(nf)

    def test_decompose_rejects_corrupt_data_with_exit_1(self, tmp_path, capsys):
        sig = desk_signature()
        phi = FunctionalAut.from_aut(Sigma1(sig), mode=MODE_LIE)
        data = phi.to_dict()
        data["images"]["one"]["terms"][0]["coeff"] = "2"
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        assert run_command(["aut", "decompose", "--aut", str(path)]) == 1
        assert "NotAnAutomorphism" in capsys.readouterr().err

    def test_broken_group_law_exits_1_with_json_envelope(self, tmp_path, capsys,
                                                          monkeypatch):
        sig = desk_signature()
        a = random_normal_form_aut(sig, random.Random(4))
        b = NormalFormAut(TauAut(sig, BlockMatrix.identity(1, 1),
                                 Character(sig.lattice, [2, 3])),
                          InnerExp.identity(sig), ShiftV.identity(sig))
        pa, pb = tmp_path / "a.json", tmp_path / "b.json"
        pa.write_text(json.dumps(a.to_dict()))
        pb.write_text(json.dumps(b.to_dict()))
        # a composite tau that drops b's character breaks the group law check
        monkeypatch.setattr(TauAut, "compose", lambda self, other: self)
        code = run_command(["aut", "compose", "--json", "--a", str(pa), "--b", str(pb)])
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is False
        assert payload["error"].startswith("InvariantViolation: group law violated")

    def test_apply_functional_form_file(self, tmp_path, config_file, capsys):
        sig = desk_signature()
        rng = random.Random(9)
        nf = random_normal_form_aut(sig, rng)
        phi = FunctionalAut.from_aut(nf)
        path = tmp_path / "phi.json"
        path.write_text(json.dumps(phi.to_dict()))
        code = run_command(["aut", "apply", "--config", config_file,
                            "--aut", str(path), "x[(1,0);(0,0)]"])
        assert code == 0
        from weyltype import format_element
        expected = format_element(nf.apply(sig.x((1, 0))))
        assert capsys.readouterr().out.strip() == expected

    def test_missing_file_exits_2(self, config_file, capsys):
        assert run_command(["aut", "apply", "--config", config_file,
                            "--aut", "/nonexistent.json", "d1"]) == 2
        capsys.readouterr()


class TestIso:
    def test_impossible_prints_certificate_and_exits_0(self, tmp_path, capsys):
        src = tmp_path / "src.json"
        dst = tmp_path / "dst.json"
        src.write_text(json.dumps(DESK_CONFIG))
        dst.write_text(json.dumps({"ell1": 2, "ell2": 0,
                                   "gamma_generators": [["1", "0"], ["0", "1"]]}))
        code = run_command(["iso", "--src", str(src), "--dst", str(dst)])
        assert code == 0
        out = capsys.readouterr().out
        assert out == "IMPOSSIBLE\n(l1, l2) = (1, 1) != (2, 0)\n"

    @pytest.fixture()
    def scaled_pair(self, tmp_path):
        src = tmp_path / "src.json"
        dst = tmp_path / "dst.json"
        src.write_text(json.dumps({"ell1": 0, "ell2": 2,
                                   "gamma_generators": [["1", "0"], ["0", "1"]]}))
        dst.write_text(json.dumps({"ell1": 0, "ell2": 2,
                                   "gamma_generators": [["1/2", "0"], ["0", "1"]]}))
        return ["--src", str(src), "--dst", str(dst)]

    def test_found_reports_matrix(self, scaled_pair, capsys):
        code = run_command(["iso", *scaled_pair, "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["status"] == "found"
        assert payload["tried"] == 1
        assert payload["reason"] == ""
        assert payload["G"] == [["2", "0"], ["0", "1"]]
        assert payload["certificate"] == {"G": payload["G"], "f": ["1", "1"]}

    def test_found_text(self, scaled_pair, capsys):
        assert run_command(["iso", *scaled_pair]) == 0
        assert capsys.readouterr().out == "FOUND\nG = 2,0; 0,1\n"

    def test_failed_product_law_prints_replayable_counterexample(self, scaled_pair, capsys,
                                                                 monkeypatch):
        """With a defect injected into the map (images of level >= 2
        doubled), the --json error envelope keeps the trial and the elements,
        and a, b read back from it reproduce the printed mismatch."""
        maps = []
        original = TauAut.apply

        def defective(self, w):
            maps.append(self)
            image = original(self, w)
            return image.scale(2) if (w.max_level() or 0) >= 2 else image

        monkeypatch.setattr(TauAut, "apply", defective)
        assert run_command(["iso", *scaled_pair, "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is False
        assert payload["error"].startswith("InvariantViolation: adapted-basis certificate")
        ce = payload["counterexample"]
        assert set(ce) == {"trial", "a", "b", "lhs", "rhs"}
        a, b = element_from_dict(ce["a"]), element_from_dict(ce["b"])
        phi = maps[-1]
        lhs, rhs = phi.apply(a * b), phi.apply(a) * phi.apply(b)
        assert lhs != rhs
        assert lhs == element_from_dict(ce["lhs"])
        assert rhs == element_from_dict(ce["rhs"])
        # the trial number replays the same pair from the check's seed
        report = verify_automorphism(phi, ce["trial"], seed=0, mode=MODE_ASSOC)
        assert report.counterexample["trial"] == ce["trial"]
        assert (report.counterexample["a"], report.counterexample["b"]) == (a, b)

    def test_bound_flag_is_usage_error(self, scaled_pair, capsys):
        assert run_command(["iso", "--bound", "1", *scaled_pair]) == 2
        capsys.readouterr()


class TestSelftest:
    def test_single_suite(self, capsys):
        code = run_command(["selftest", "--suite", "parser", "--seed", "7"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("PASS parser")

    def test_json_mode(self, capsys):
        code = run_command(["selftest", "--suite", "faithfulness", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert payload["suites"][0]["name"] == "faithfulness"

    def test_env_seed_fallback(self, capsys, monkeypatch):
        monkeypatch.setenv("WEYL_SEED", "11")
        assert run_command(["selftest", "--suite", "parser"]) == 0
        first = capsys.readouterr().out
        assert run_command(["selftest", "--suite", "parser", "--seed", "11"]) == 0
        assert capsys.readouterr().out == first

    def test_iso_suite_without_derivation_slots(self, tmp_path, capsys):
        # the suite's invariant-mismatch target must have another shape than
        # the algebra, here (0, 2) for W(2, 0, Gamma)
        cfg = tmp_path / "w20.json"
        cfg.write_text(json.dumps({"ell1": 2, "ell2": 0,
                                   "gamma_generators": [["1", "0"], ["0", "1/2"]]}))
        assert run_command(["selftest", "--suite", "iso", "--config", str(cfg)]) == 0
        assert capsys.readouterr().out.startswith("PASS iso")

    def test_unknown_suite_is_usage_error(self, capsys):
        assert run_command(["selftest", "--suite", "nope"]) == 2
        capsys.readouterr()


def _nf_file(edit):
    """The identity normal form on the desk algebra, as JSON data, after
    ``edit`` rewrites one field of it."""
    sig = desk_signature()
    data = NormalFormAut(TauAut.identity(sig), InnerExp(sig.x_poly(1)),
                         ShiftV.identity(sig)).to_dict()
    edit(data)
    return data


def _set(path, value):
    def edit(data):
        for key in path[:-1]:
            data = data[key]
        data[path[-1]] = value
    return edit


def _functional_file(edit):
    """The identity automorphism of the desk algebra in functional form, as
    JSON data, after ``edit`` rewrites one field of it."""
    data = FunctionalAut.from_aut(NormalFormAut.identity(desk_signature())).to_dict()
    edit(data)
    return data


# (config data, automorphism data or None): each is malformed at the JSON
# level, or names no lattice, and must be refused as bad input, never read by
# truncation
MALFORMED_FILES = {
    "float-generator": ({**DESK_CONFIG, "gamma_generators": [[0.5, 0], [0, 1]]}, None),
    "top-level-list": ([DESK_CONFIG], None),
    "float-ell1": ({**DESK_CONFIG, "ell1": 1.5}, None),
    "bool-ell2": ({**DESK_CONFIG, "ell2": True}, None),
    "ragged-generator": ({**DESK_CONFIG, "gamma_generators": [["1", "0"], ["0"]]}, None),
    "float-in-G": (DESK_CONFIG, _nf_file(_set(("tau", "G", 0, 0), 1.0))),
    "fractional-eps": (DESK_CONFIG, _nf_file(_set(("eps",), 0.7))),
    "float-mu": (DESK_CONFIG, _nf_file(_set(("u", "terms", 0, "mu"), [0.0, 0]))),
    "float-coeff": (DESK_CONFIG, _nf_file(_set(("u", "terms", 0, "coeff"), 0.5))),
    "aut-top-level-list": (DESK_CONFIG, [_nf_file(lambda data: None)]),
    # a JSON value of the wrong container type in each object or list field
    "gamma-generators-not-list": ({**DESK_CONFIG, "gamma_generators": 5}, None),
    "tau-not-object": (DESK_CONFIG, _nf_file(_set(("tau",), []))),
    "G-not-list": (DESK_CONFIG, _nf_file(_set(("tau", "G"), 5))),
    "u-not-object": (DESK_CONFIG, _nf_file(_set(("u",), []))),
    "terms-not-list": (DESK_CONFIG, _nf_file(_set(("u", "terms"), 5))),
    "term-not-object": (DESK_CONFIG, _nf_file(_set(("u", "terms", 0), [1]))),
    "alpha-not-list": (DESK_CONFIG, _nf_file(_set(("u", "terms", 0, "alpha"), 1))),
    "images-not-object": (DESK_CONFIG, _functional_file(_set(("images",), []))),
    "image-not-object": (DESK_CONFIG, _functional_file(_set(("images", "d1"), 3))),
    "signature-not-object": (DESK_CONFIG, _functional_file(_set(("signature",), []))),
    "lattice-not-object": (DESK_CONFIG, _functional_file(_set(("signature", "lattice"), 5))),
    "generators-not-list": (DESK_CONFIG, _functional_file(
        _set(("signature", "lattice", "generators"), 5))),
    # well-formed JSON that builds no lattice or signature
    "rank-deficient-generators": ({**DESK_CONFIG, "gamma_generators": [[1, 0], [2, 0]]}, None),
    "no-generators": ({**DESK_CONFIG, "gamma_generators": []}, None),
    "zero-dimension": ({"ell1": 0, "ell2": 0, "gamma_generators": []}, None),
    "negative-ell1": ({"ell1": -1, "ell2": 2, "gamma_generators": [[1]]}, None),
}


class TestMalformedFiles:
    @pytest.fixture(params=sorted(MALFORMED_FILES))
    def argv(self, request, tmp_path):
        config, aut = MALFORMED_FILES[request.param]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        if aut is None:
            return ["eval", "--config", str(cfg), "d1"]
        path = tmp_path / "aut.json"
        path.write_text(json.dumps(aut))
        return ["aut", "apply", "--config", str(cfg), "--aut", str(path), "d1"]

    def test_exits_2_as_bad_input(self, argv, capsys):
        assert run_command(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("bad input: ")
        for text in (captured.out, captured.err):
            assert "Traceback" not in text and "Fraction(" not in text

    def test_json_envelope(self, argv, capsys):
        assert run_command(argv + ["--json"]) == 2
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is False
        assert payload["error"].startswith("bad input: ")
        assert "Fraction(" not in payload["error"]

    @pytest.mark.parametrize("json_flag", [[], ["--json"]])
    def test_iso_target_without_lattice(self, tmp_path, capsys, json_flag):
        src, dst = tmp_path / "src.json", tmp_path / "dst.json"
        src.write_text(json.dumps({"ell1": 1, "ell2": 1,
                                   "gamma_generators": [[1, 0], [0, 1]]}))
        dst.write_text(json.dumps({"ell1": 1, "ell2": 1,
                                   "gamma_generators": [[1, 0], [2, 0]]}))
        assert run_command(["iso", "--src", str(src), "--dst", str(dst), *json_flag]) == 2
        captured = capsys.readouterr()
        message = f"bad input: {dst}: generators span a subspace of rank 1 < 2"
        assert captured.err == message + "\n"
        if json_flag:
            assert json.loads(captured.out) == {"ok": False, "error": message}
        else:
            assert captured.out == ""

    @pytest.mark.parametrize("old, new, keep", [
        ("x-1", "x*1", False),
        ("d1", "d+1", False),
        ("xi1", "xi 1", False),
        ("x+1", "xq", False),
        # a second label for the image of x^{-b_1}
        ("x-1", "x*1", True),
    ])
    def test_unknown_generator_label(self, tmp_path, capsys, old, new, keep):
        def relabel(data):
            images = data["images"]
            images[new] = images[old] if keep else images.pop(old)

        path = tmp_path / "phi.json"
        path.write_text(json.dumps(_functional_file(relabel)))
        assert run_command(["aut", "decompose", "--aut", str(path)]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (
            "", f"bad input: unknown generator label {new!r}\n")

    def test_well_formed_files_still_read(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(DESK_CONFIG))
        path = tmp_path / "aut.json"
        path.write_text(json.dumps(_nf_file(lambda data: None)))
        assert run_command(["aut", "apply", "--config", str(cfg), "--aut", str(path),
                            "d1"]) == 0
        assert capsys.readouterr().out == "-1 + d1\n"
