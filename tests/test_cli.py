import hashlib
import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import weyltype
from weyltype import (
    BlockMatrix,
    Character,
    InnerExp,
    NormalFormAut,
    ShiftV,
    TauAut,
    element_from_dict,
    element_to_dict,
)
from weyltype import automorphisms
from weyltype.automorphisms import (
    MODE_ASSOC,
    MODE_LIE,
    FunctionalAut,
    apply_sigma1,
    decompose_automorphism,
    generator_element,
    generator_keys,
    random_normal_form_aut,
)
from weyltype.cli import _signature_from_file, run_command
from weyltype.expressions import MAX_NESTING, MAX_POWER, format_element, parse_and_eval
from weyltype.rationals import rational_str
from weyltype.sampling import desk_signature
from weyltype.selftest import SUITES


DESK_CONFIG = {
    "ell1": 1,
    "ell2": 1,
    "gamma_generators": [["1", "0"], ["0", "1"], ["1/2", "1/2"]],
}


# sha256 of `weyl aut compose --json` on the twisted pairs of
# TestAut.test_compose_twisted_json_output_is_stable, drawn by the
# adapted-basis random_aut2; each output is byte for byte the one printed when
# the pair is composed through the generator images and decompose_automorphism
TWISTED_COMPOSE_SHA256 = {
    (0, 1): "73ebaaa4ec656fe37733ac349548d473a3bf41122aad2ef42fcc6c9cb48fe668",
    (1, 0): "bd8047cb24a1e8cf67ea36520f13ea75586ffdf73b7f8726e6254e1058c3ee26",
    (1, 1): "b37ee53a08d8dd2caf2fa9aacacfec129f01624b89ca94e529e8bfb3a8e4cbdc",
}


def _twisted_draw() -> NormalFormAut:
    """The first normal form with eps = 1 drawn on the desk algebra from seed 3."""
    rng = random.Random(3)
    while True:
        nf = random_normal_form_aut(desk_signature(), rng)
        if nf.eps:
            return nf


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

    def test_usage_error_prints_json_envelope(self, config_file, capsys):
        # argparse reads "-1/2" as an unknown option, so the expression is missing
        assert run_command(["eval", "--config", config_file, "--json", "-1/2"]) == 2
        captured = capsys.readouterr()
        message = "weyl eval: error: the following arguments are required: expr"
        assert json.loads(captured.out) == {"ok": False, "error": message}
        assert captured.err.startswith("usage: weyl eval ")
        assert captured.err.endswith("\n" + message + "\n")

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


    @pytest.mark.parametrize("opener, closer", [("(", ")"), ("[d1, ", "]")])
    def test_deep_nesting_exits_2(self, config_file, capsys, opener, closer):
        expr = opener * 10_000 + "d1" + closer * 10_000
        column = len(opener) * MAX_NESTING + 1
        message = (f"parse error: line 1, column {column}: expected at most "
                   f"{MAX_NESTING} nested brackets, found '{opener[0]}'")
        assert run_command(["eval", "--config", config_file, expr]) == 2
        assert capsys.readouterr() == ("", message + "\n")
        assert run_command(["eval", "--config", config_file, "--json", expr]) == 2
        captured = capsys.readouterr()
        assert json.loads(captured.out) == {"ok": False, "error": message}
        assert captured.err == message + "\n"


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

    def test_json_envelope(self, config_file, capsys):
        assert run_command(["export", "--config", config_file, "--format", "json",
                            "--json", "d1"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert (payload["ok"], payload["text"]) == (True, "d1")
        assert element_from_dict(payload["element"]) == desk_signature().d(1)

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
        # the twist's images from apply_sigma1, independent of any table
        images = {key: apply_sigma1(sig, generator_element(sig, key))
                  for key in generator_keys(sig)}
        phi = FunctionalAut(sig, MODE_LIE, images)
        data = phi.to_dict()
        data["images"]["one"]["terms"][0]["coeff"] = "2"
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        assert run_command(["aut", "decompose", "--aut", str(path)]) == 1
        assert "NotAnAutomorphism" in capsys.readouterr().err

    @pytest.mark.parametrize("key, extra, message", [
        (("xi", 1), "d1", "image of x^{1_[1]} has stray terms d1"),
        (("d", 2), "x[(1,0)]", "normal form disagrees on generator d2"),
        (("xi", 1), "x[(0,0);(1,0)]", "normal form disagrees on generator xi1"),
    ], ids=["stray-terms", "generator-label", "linear-part"])
    def test_decompose_errors_use_file_notation(self, tmp_path, capsys, key, extra, message):
        sig = desk_signature()
        images = dict(FunctionalAut.from_aut(NormalFormAut.identity(sig)).images)
        images[key] = images[key] + parse_and_eval(extra, sig)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(FunctionalAut(sig, MODE_LIE, images).to_dict()))
        assert run_command(["aut", "decompose", "--aut", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"NotAnAutomorphism: {message}\n"
        assert "Monomial(" not in captured.err and "('" not in captured.err

    def test_apply_past_the_recursion_limit(self, tmp_path, config_file, capsys):
        power = sys.getrecursionlimit() + 100
        path = tmp_path / "id.json"
        path.write_text(json.dumps(NormalFormAut.identity(desk_signature()).to_dict()))
        expr = f"x[(0,0);({power},0)]"
        assert run_command(["aut", "apply", "--config", config_file,
                            "--aut", str(path), expr]) == 0
        assert capsys.readouterr().out.strip() == expr

    def test_decompose_refuses_a_high_power_before_expanding_it(self, tmp_path, capsys):
        """An x^{1_[1]} image d1^3000 is refused by its shape; a G with a
        nonzero lower-left block would mix d1 and d2 in its pull-back."""
        sig = desk_signature()
        G = BlockMatrix(1, 1, [[1, 0], [2, 1]])
        nf = NormalFormAut(TauAut(sig, G, Character.trivial(sig.lattice)),
                           InnerExp.identity(sig), ShiftV.identity(sig))
        data = FunctionalAut.from_aut(nf).to_dict()
        data["images"]["xi1"] = element_to_dict(sig.d(1, power=3000))
        path = tmp_path / "phi.json"
        path.write_text(json.dumps(data))
        start = time.perf_counter()
        assert run_command(["aut", "decompose", "--aut", str(path)]) == 1
        assert time.perf_counter() - start < 1
        assert capsys.readouterr().err == (
            "NotAnAutomorphism: image of x^{1_[1]} has stray terms d1^3000\n")

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
        assert payload["error"] == "InvariantViolation: group law violated on generator x+1"

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

    @pytest.mark.parametrize("command", ["apply", "decompose", "compose"])
    def test_twisted_images_in_assoc_mode_exit_1(self, tmp_path, config_file, capsys,
                                                 command):
        """The images file and the normal-form file of a twisted map, with the
        mode from --mode or from the file's "mode": one exit code, one message."""
        nf = _twisted_draw()
        path = tmp_path / "aut.json"
        argv = {"apply": ["apply", "--config", config_file, "--aut", str(path), "d1"],
                "decompose": ["decompose", "--aut", str(path)],
                "compose": ["compose", "--a", str(path), "--b", str(path)]}[command]
        for form, data in (("images", FunctionalAut.from_aut(nf).to_dict()),
                           ("normal form", nf.to_dict())):
            for flag, mode in ((["--mode", "assoc"], MODE_LIE), ([], MODE_ASSOC)):
                path.write_text(json.dumps({**data, "mode": mode}))
                context = (form, flag)
                assert run_command(["aut", *argv, *flag]) == 1, context
                assert capsys.readouterr() == ("", "NotAnAutomorphism: associative-mode data "
                                                   "decomposes with the order-2 twist\n"), context

    @pytest.mark.parametrize("option", [["--mode", "assoc"], ["--mode=assoc"], ["--json"],
                                        ["--seed", "3"]], ids=" ".join)
    def test_options_before_the_subcommand_are_refused(self, tmp_path, capsys, option):
        # decomposed in lie mode, the twisted images file would exit 0
        path = tmp_path / "phi.json"
        path.write_text(json.dumps(FunctionalAut.from_aut(_twisted_draw()).to_dict()))
        assert run_command(["aut", *option, "decompose", "--aut", str(path)]) == 2
        captured = capsys.readouterr()
        assert "error: " in captured.err
        if "--json" in option:
            assert json.loads(captured.out)["ok"] is False
        else:
            assert captured.out == ""

    @pytest.mark.parametrize("form", ["normal-form", "images"])
    def test_config_of_another_algebra_is_refused(self, tmp_path, capsys, form):
        """Every aut subcommand checks --config against the files' algebra."""
        sig = desk_signature()
        nf = random_normal_form_aut(sig, random.Random(6))
        data = nf.to_dict() if form == "normal-form" else FunctionalAut.from_aut(nf).to_dict()
        aut = tmp_path / "aut.json"
        aut.write_text(json.dumps(data))
        rank3 = tmp_path / "rank3.json"
        rank3.write_text(json.dumps({"ell1": 1, "ell2": 2, "gamma_generators": [
            ["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"], ["1/2", "1/2", "0"]]}))
        desk = tmp_path / "desk.json"
        desk.write_text(json.dumps(DESK_CONFIG))
        commands = (["apply", "--aut", str(aut), "d1"],
                    ["compose", "--a", str(aut), "--b", str(aut)],
                    ["decompose", "--aut", str(aut)])
        for command in commands:
            assert run_command(["aut", command[0], "--config", str(rank3), *command[1:]]) == 1
            assert capsys.readouterr().err == \
                "WeylError: automorphism file and --config disagree on the algebra\n"
            assert run_command(["aut", command[0], "--config", str(desk), *command[1:]]) == 0
            capsys.readouterr()

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
        """With a defect injected into the table (every d-image doubled), the
        --json error envelope names the failed defining relation and keeps
        its two generator images as a and b with both sides, and
        ``weyl bracket`` on a, b in the target algebra reproduces the
        printed left side."""
        real = automorphisms._tau_table

        def doubled_d(tau):
            x_image, x1_images, d_images = real(tau)
            return x_image, x1_images, [d.scale(2) for d in d_images]

        monkeypatch.setattr(automorphisms, "_tau_table", doubled_d)
        assert run_command(["iso", *scaled_pair, "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is False
        assert payload["error"] == ("InvariantViolation: adapted-basis certificate rejected: "
                                    "HomomorphismCounterexample: relation [d1, x+1] fails")
        ce = payload["counterexample"]
        assert set(ce) == {"a", "b", "lhs", "rhs"}
        a, b, lhs, rhs = (element_from_dict(ce[name]) for name in ("a", "b", "lhs", "rhs"))
        assert a.bracket(b) == lhs != rhs
        dst = scaled_pair[scaled_pair.index("--dst") + 1]
        assert run_command(["bracket", "--json", "--config", dst,
                            format_element(a), format_element(b)]) == 0
        replayed = json.loads(capsys.readouterr().out)
        assert element_from_dict(replayed["element"]) == lhs

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

    @pytest.mark.parametrize("json_flag", ([], ["--json"]))
    def test_bad_env_seed_is_usage_error(self, capsys, monkeypatch, json_flag):
        monkeypatch.setenv("WEYL_SEED", "abc")
        assert run_command(["selftest", "--suite", "parser", *json_flag]) == 2
        captured = capsys.readouterr()
        assert captured.err.strip() == "WEYL_SEED must be an integer, got 'abc'"
        if json_flag:
            assert json.loads(captured.out) == {"ok": False, "error": captured.err.strip()}
        else:
            assert captured.out == ""

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
        err = capsys.readouterr().err
        assert "weyl selftest: error: argument --suite: invalid choice: 'nope' (choose " in err
        assert all(repr(name) in err for name in SUITES)


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
    "G-one-row": (DESK_CONFIG, _nf_file(_set(("tau", "G"), [["1", "0"]]))),
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


def _drop(path):
    def edit(data):
        for key in path[:-1]:
            data = data[key]
        del data[path[-1]]
    return edit


def _without_images(*labels):
    def edit(data):
        for label in labels:
            del data["images"][label]
    return edit


# (config data, automorphism data or None, message): each file lacks a field,
# and the message names the object and the field, or the generator labels
MISSING_FIELDS = {
    "config-as-normal-form": (DESK_CONFIG, DESK_CONFIG, "normal form has no field 'u'"),
    "normal-form-without-u": (DESK_CONFIG, _nf_file(_drop(("u",))),
                              "normal form has no field 'u'"),
    "tau-without-f": (DESK_CONFIG, _nf_file(_drop(("tau", "f"))), "tau has no field 'f'"),
    "term-without-coeff": (DESK_CONFIG, _nf_file(_drop(("u", "terms", 0, "coeff"))),
                           "term has no field 'coeff'"),
    "config-without-ell2": ({"ell1": 1, "gamma_generators": DESK_CONFIG["gamma_generators"]},
                            None, "config has no field 'ell2'"),
    "images-without-d2": (DESK_CONFIG, _functional_file(_without_images("d2")),
                          "images has no entry for d2"),
    "images-without-d1-and-xi1": (DESK_CONFIG, _functional_file(_without_images("d1", "xi1")),
                                  "images has no entry for xi1, d1"),
    "signature-without-lattice": (DESK_CONFIG, _functional_file(_drop(("signature", "lattice"))),
                                  "signature has no field 'lattice'"),
}


class TestMissingFields:
    @pytest.fixture(params=sorted(MISSING_FIELDS))
    def case(self, request, tmp_path):
        config, aut, message = MISSING_FIELDS[request.param]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        if aut is None:
            return ["eval", "--config", str(cfg), "d1"], message
        path = tmp_path / "aut.json"
        path.write_text(json.dumps(aut))
        return ["aut", "apply", "--config", str(cfg), "--aut", str(path), "d1"], message

    def test_names_the_object_and_the_field(self, case, capsys):
        argv, message = case
        assert run_command(argv) == 2
        assert capsys.readouterr().err == f"bad input: {message}\n"

    def test_json_envelope(self, case, capsys):
        argv, message = case
        assert run_command(argv + ["--json"]) == 2
        assert json.loads(capsys.readouterr().out) == {"ok": False,
                                                      "error": f"bad input: {message}"}


def _repeated_label_file():
    """The identity automorphism in functional form with a second "x-1" label,
    holding the image of x^{+b_1}, ahead of the real one."""
    data = _functional_file(lambda data: None)
    head = '"images": {'
    return json.dumps(data).replace(head, head + f'"x-1": {json.dumps(data["images"]["x+1"])}, ', 1)


class TestFileBoundary:
    """Files that json.load reads without complaint, or paths open() cannot
    read: each is refused with exit 2 and no traceback."""

    @pytest.fixture(params=["repeated-config-key", "repeated-image-label", "deep-nesting",
                            "directory"])
    def case(self, request, tmp_path):
        cfg = tmp_path / "cfg.json"
        if request.param == "repeated-config-key":
            cfg.write_text('{"ell1": 0, "ell1": 1, "ell2": 1, '
                           '"gamma_generators": [["1", "0"], ["0", "1"]]}')
            return ["eval", "--config", str(cfg), "d1"], f"bad input: {cfg} repeats key 'ell1'"
        if request.param == "repeated-image-label":
            path = tmp_path / "phi.json"
            path.write_text(_repeated_label_file())
            return (["aut", "decompose", "--aut", str(path)],
                    f"bad input: {path} repeats key 'x-1'")
        if request.param == "deep-nesting":
            cfg.write_text("[" * 100_000)
            return ["eval", "--config", str(cfg), "d1"], f"bad input: {cfg} nests JSON too deeply"
        return ["eval", "--config", str(tmp_path), "d1"], f"cannot read {tmp_path}"

    def test_exits_2_without_traceback(self, case, capsys):
        argv, message = case
        assert run_command(argv) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", message + "\n")

    def test_json_envelope(self, case, capsys):
        argv, message = case
        assert run_command(argv + ["--json"]) == 2
        captured = capsys.readouterr()
        assert json.loads(captured.out) == {"ok": False, "error": message}
        assert "Traceback" not in captured.err

    def test_repeated_label_file_is_otherwise_valid(self):
        # json.loads keeps the last "x-1", so only the repeat check refuses it
        data = json.loads(_repeated_label_file())
        assert decompose_automorphism(FunctionalAut.from_dict(data)).same_data(
            NormalFormAut.identity(desk_signature()))


RANK3_CONFIG = {
    "ell1": 1,
    "ell2": 2,
    "gamma_generators": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"],
                         ["1/2", "1/2", "0"]],
}


def _fuzz_expression(rng: random.Random, sig) -> str:
    """A short expression over sig, well formed or broken at one spot: an
    off-lattice point, a vector of the wrong length, a polynomial entry past
    l1, a derivation index outside 1..l, a zero denominator, an unbalanced or
    stray character, a power past MAX_POWER, or nesting past MAX_NESTING."""
    ell, ell1 = sig.ell, sig.ell1

    def vector(entries) -> str:
        return "(" + ",".join(entries) + ")"

    def point() -> str:
        roll = rng.random()
        if roll < 0.08:
            return vector(["1/3"] + ["0"] * (ell - 1))
        if roll < 0.12:
            return vector(["1"] * (ell + 1))
        # both lattices hold Z^l and (1/2, 1/2, 0, ...)
        half = Fraction(rng.randint(0, 1), 2)
        return vector(rational_str(rng.randint(-1, 1) + (half if p < 2 else 0))
                      for p in range(ell))

    def index() -> str:
        if rng.random() < 0.08:
            return vector(["1"] * ell)
        return vector(str(rng.randint(0, 2)) if p < ell1 else "0" for p in range(ell))

    def scalar() -> str:
        return rng.choice(["2", "-1", "3/2", "0", "1/0", "-5/3"])

    def factor(depth: int) -> str:
        roll = rng.random()
        if roll < 0.35:
            return f"x[{point()};{index()}]" if rng.random() < 0.7 else f"x[{point()}]"
        if roll < 0.7 or depth >= 2:
            power = f"^{rng.randint(0, 3)}" if rng.random() < 0.3 else ""
            return f"d{rng.randint(0, ell + 1)}{power}"
        if roll < 0.85:
            return f"[{element(depth + 1)}, {element(depth + 1)}]"
        return f"({element(depth + 1)})"

    def term(depth: int) -> str:
        factors = [factor(depth) for _ in range(rng.randint(1, 2))]
        if rng.random() < 0.3:
            factors.insert(0, scalar())
        return " * ".join(factors)

    def element(depth: int) -> str:
        out = term(depth)
        for _ in range(rng.randint(0, 2)):
            out += rng.choice([" + ", " - "]) + term(depth)
        return out

    roll = rng.random()
    if roll < 0.04:
        # refused before any product: under `aut apply`, even d1^25 takes seconds
        power = rng.choice([MAX_POWER + 1, 10 ** 30])
        return f"d{rng.randint(1, ell)}^{power} * x[{point()}]"
    if roll < 0.08:
        opener, closer = rng.choice([("(", ")"), ("[d1, ", "]")])
        depth = rng.choice([MAX_NESTING, MAX_NESTING + 1, 10_000])
        return opener * depth + "d1" + closer * depth
    src = element(0)
    if roll < 0.4:
        k = rng.randrange(len(src) + 1)
        edit = rng.choice(["drop", "insert", "truncate"])
        if edit == "drop":
            src = src[:k] + src[k + 1:]
        elif edit == "insert":
            src = src[:k] + rng.choice("[]()+-*/;,^xdq0 ") + src[k:]
        else:
            src = src[:k]
    return src


class TestFuzz:
    """argv drawn from a fixed-seed grammar of valid and broken inputs, each run
    in process: every run exits 0, 1 or 2 and prints no traceback, and under
    --json stdout is one JSON object with an "ok" key."""

    @pytest.fixture(scope="class")
    def files(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("fuzz")

        def write(name, data) -> str:
            path = root / name
            path.write_text(json.dumps(data))
            return str(path)

        rng = random.Random(11)
        out = {}
        for name, config in (("desk", DESK_CONFIG), ("rank3", RANK3_CONFIG)):
            path = write(f"{name}.json", config)
            sig = _signature_from_file(path)
            drawn = [random_normal_form_aut(sig, rng) for _ in range(2)]
            nf = [NormalFormAut(n.tau, n.u, n.v, eps) for eps, n in enumerate(drawn)]
            out[name] = {
                "sig": sig,
                "config": path,
                "auts": [write(f"{name}-nf{k}.json", n.to_dict()) for k, n in enumerate(nf)]
                + [write(f"{name}-phi{k}.json", FunctionalAut.from_aut(n).to_dict())
                   for k, n in enumerate(nf)],
            }
        twisted = write("twisted.json", FunctionalAut.from_aut(_twisted_draw()).to_dict())
        out["desk"]["auts"].append(twisted)
        shapes = sorted(MALFORMED_FILES)
        out["bad-configs"] = [write(f"bad-cfg-{k}.json", MALFORMED_FILES[k][0])
                              for k in shapes if MALFORMED_FILES[k][1] is None][::2]
        out["bad-auts"] = [write(f"bad-aut-{k}.json", MALFORMED_FILES[k][1])
                           for k in shapes if MALFORMED_FILES[k][1] is not None][::3]
        return out

    def draw(self, rng: random.Random, files) -> list[str]:
        name = rng.choice(["desk", "rank3"])
        own = files[name]
        sig = own["sig"]
        config = (rng.choice(files["bad-configs"]) if rng.random() < 0.05
                  else own["config"])
        auts = files["desk"]["auts"] + files["rank3"]["auts"]
        aut = (rng.choice(files["bad-auts"]) if rng.random() < 0.1
               else rng.choice(own["auts"]) if rng.random() < 0.8 else rng.choice(auts))
        command = rng.choice(["eval", "bracket", "export", "apply", "decompose", "compose"])
        if command == "eval":
            argv = ["eval", "--config", config, _fuzz_expression(rng, sig)]
        elif command == "bracket":
            argv = ["bracket", "--config", config, _fuzz_expression(rng, sig),
                    _fuzz_expression(rng, sig)]
        elif command == "export":
            argv = ["export", "--config", config, "--format", "json",
                    _fuzz_expression(rng, sig)]
        elif command == "apply":
            argv = ["aut", "apply", "--config", config, "--aut", aut,
                    _fuzz_expression(rng, sig)]
        elif command == "decompose":
            argv = ["aut", "decompose", "--aut", aut]
        else:
            argv = ["aut", "compose", "--a", aut, "--b", rng.choice(own["auts"])]
        # drawn for every command, so the stream of draws stays the same, and
        # given only to the aut commands, the ones that read it
        mode = rng.choice([MODE_LIE, MODE_ASSOC]) if rng.random() < 0.3 else None
        if mode and argv[0] == "aut":
            argv += ["--mode", mode]
        if rng.random() < 0.5:
            argv.append("--json")
        return argv

    def test_every_run_exits_cleanly(self, files, capsys):
        rng = random.Random(2024)
        codes = []
        for trial in range(400):
            argv = self.draw(rng, files)
            code = run_command(argv)
            captured = capsys.readouterr()
            context = f"trial {trial}: {argv!r}"
            assert code in (0, 1, 2), context
            assert "Traceback" not in captured.out + captured.err, context
            if "--json" in argv:
                payload = json.loads(captured.out)
                assert isinstance(payload, dict) and "ok" in payload, context
            codes.append(code)
        # the grammar reaches every outcome
        assert set(codes) == {0, 1, 2}


# ---------------------------------------------------------------------------
# the `weyl` process: what each command loads, and a stdout that fails
# ---------------------------------------------------------------------------

SRC_DIR = str(Path(weyltype.__file__).parents[1])
# runs `weyl` as the console script does, then prints the loaded module names
# on stderr; -S keeps site-packages hooks from loading modules of their own
WEYL_PROBE = ("import json, sys\nfrom weyltype.cli import main\ntry:\n    main()\n"
              "finally:\n    sys.stderr.write('\\n' + json.dumps(sorted(sys.modules)))\n")


def _weyl(argv, stdout=subprocess.PIPE, unbuffered=None):
    """Run `weyl argv` in a fresh interpreter: (exit code, stdout, stderr, the
    set of loaded module names).  ``unbuffered`` sets (True) or unsets
    (False) PYTHONUNBUFFERED; None keeps the caller's."""
    env = {**os.environ, "PYTHONPATH": SRC_DIR}
    if unbuffered is not None:
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
    proc = subprocess.run([sys.executable, "-S", "-c", WEYL_PROBE, *argv], env=env,
                          stdin=subprocess.DEVNULL, stdout=stdout, stderr=subprocess.PIPE,
                          text=True, timeout=120)
    err, _, modules = proc.stderr.rpartition("\n")
    return proc.returncode, proc.stdout, err, set(json.loads(modules))


@pytest.fixture()
def desk_files(tmp_path, config_file):
    """The desk config and the identity normal form, for argv templates."""
    aut = tmp_path / "id.json"
    aut.write_text(json.dumps(NormalFormAut.identity(desk_signature()).to_dict()))
    return {"cfg": config_file, "aut": str(aut)}


class TestStartup:
    @pytest.mark.parametrize("command, argv, loaded, absent", [
        ("eval", ["eval", "--config", "{cfg}", "d1"], ["algebra", "expressions"],
         ["automorphisms", "classification", "sampling", "selftest"]),
        ("aut", ["aut", "apply", "--config", "{cfg}", "--aut", "{aut}", "d1"],
         ["automorphisms"], ["classification", "selftest"]),
        ("iso", ["iso", "--src", "{cfg}", "--dst", "{cfg}"], ["classification"], ["selftest"]),
        ("missing-config", ["eval", "d1"], [], ["algebra"]),
    ])
    def test_each_command_loads_only_what_it_runs(self, desk_files, command, argv, loaded,
                                                  absent):
        code, _, err, modules = _weyl([arg.format(**desk_files) for arg in argv])
        assert code == (2 if command == "missing-config" else 0), err
        assert {f"weyltype.{m}" for m in loaded} <= modules
        assert not {f"weyltype.{m}" for m in absent} & modules
        assert not {"dataclasses", "inspect"} & modules

    def test_mode_names_are_the_automorphism_modes(self):
        from weyltype import cli

        assert cli.MODES == (MODE_LIE, MODE_ASSOC)


class TestOutputFailure:
    """A stdout that refuses writes is reported on stderr alone, with exit 3."""

    def test_closed_pipe(self, config_file):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            code, _, err, _ = _weyl(["eval", "--config", config_file, "d1"], stdout=write_end)
        finally:
            os.close(write_end)
        assert (code, err) == (3, "cannot write output: Broken pipe\n")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("json_flag", ([], ["--json"]))
    def test_full_device(self, config_file, json_flag):
        with open("/dev/full", "w") as full:
            code, _, err, _ = _weyl(["eval", "--config", config_file, "d1", *json_flag],
                                    stdout=full)
        assert (code, err) == (3, "cannot write output: No space left on device\n")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("unbuffered", (False, True), ids=("buffered", "unbuffered"))
    @pytest.mark.parametrize("argv", (["--help"], ["eval", "--help"], ["aut", "apply", "--help"]),
                             ids=" ".join)
    def test_help_into_full_device(self, argv, unbuffered):
        """argparse drops a refused write of the help text; with unbuffered
        stdout the write fails inside it, and must still exit 3."""
        with open("/dev/full", "w") as full:
            code, _, err, _ = _weyl(argv, stdout=full, unbuffered=unbuffered)
        assert (code, err) == (3, "cannot write output: No space left on device\n")


# each subcommand takes exactly the options it reads: these are the ones it
# does not, each refused like any unknown option
UNREAD_OPTIONS = [
    (["iso", "--src", "{cfg}", "--dst", "{cfg}"], option)
    for option in (["--config", "{cfg}"], ["--mode", "lie"], ["--seed", "3"])
] + [
    (command, option)
    for command in (["eval", "--config", "{cfg}", "d1"],
                    ["bracket", "--config", "{cfg}", "d1", "d2"],
                    ["export", "--config", "{cfg}", "--format", "json", "d1"])
    for option in (["--mode", "lie"], ["--seed", "3"])
] + [
    (["aut", "apply", "--config", "{cfg}", "--aut", "{aut}", "d1"], ["--seed", "3"]),
    (["aut", "compose", "--a", "{aut}", "--b", "{aut}"], ["--seed", "3"]),
    (["aut", "decompose", "--aut", "{aut}"], ["--seed", "3"]),
    (["selftest", "--suite", "parser"], ["--mode", "lie"]),
]


class TestOptions:
    @pytest.mark.parametrize("argv, option", UNREAD_OPTIONS,
                             ids=[" ".join([*(w for w in a[:2] if w[0] != "-"), o[0]])
                                  for a, o in UNREAD_OPTIONS])
    def test_unread_option_is_refused(self, desk_files, capsys, argv, option):
        argv = [arg.format(**desk_files) for arg in argv + ["--json"]]
        option = [arg.format(**desk_files) for arg in option]
        assert run_command(argv) == 0
        assert json.loads(capsys.readouterr().out)["ok"] is True
        assert run_command(argv + option) == 2
        captured = capsys.readouterr()
        message = json.loads(captured.out)
        assert message["ok"] is False
        assert message["error"].endswith("error: unrecognized arguments: " + " ".join(option))
        assert captured.err.endswith(message["error"] + "\n")
