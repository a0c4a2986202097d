import itertools
import math
import random
from fractions import Fraction

import pytest

from weyltype import (
    BlockMatrix,
    Character,
    InnerExp,
    IsoCandidate,
    Lattice,
    NormalFormAut,
    ShiftV,
    Signature,
    TauAut,
    act_on_A,
    classify_ad_behavior,
    faithfulness_witness,
    growth_probe,
    iso_search_bounded,
    iso_verify,
    signature_invariants,
)
from weyltype import automorphisms, classification, linalg
from weyltype.algebra import Element, Monomial, unit_index
from weyltype.automorphisms import generator_element, generator_keys
from weyltype.automorphisms import MODE_ASSOC, verify_automorphism
from weyltype.errors import (
    BlockShapeViolation,
    HomomorphismCounterexample,
    InvariantViolation,
    LatticeNotMapped,
    NondegenerateViolation,
    SignatureMismatch,
    WeylError,
    ZeroElement,
)
from weyltype.sampling import random_aut2, random_character, random_element, random_fd_element

from conftest import fraction_inverse, oracle_act, simplex_probes


class TestSignatureInvariants:
    def test_distinguishes_shapes(self, z2):
        other = Signature(2, 0, Lattice(2, [(1, 0), (0, 1)]))
        assert signature_invariants(z2)[:2] != signature_invariants(other)[:2]

    def test_same_shape_same_rank_passes(self):
        a = Signature(0, 2, Lattice(2, [(1, 0), (0, 1)]))
        b = Signature(0, 2, Lattice(2, [(Fraction(1, 2), 0), (0, 1)]))
        assert signature_invariants(a)[:2] == signature_invariants(b)[:2]
        assert signature_invariants(a)[2] != signature_invariants(b)[2]

    def test_reflexive(self, desk):
        assert signature_invariants(desk) == signature_invariants(desk)


class TestIsoVerify:
    def test_integer_transvection(self, z2):
        cand = IsoCandidate(BlockMatrix(1, 1, [[1, 0], [1, 1]]),
                            Character.trivial(z2.lattice))
        iso = iso_verify(z2, z2, cand, trials=30)
        table = iso.generator_table()
        assert set(table) == {"x+1", "x+2", "xi1", "d1", "d2"}

    def test_identity_candidate(self, desk):
        cand = IsoCandidate(BlockMatrix.identity(1, 1),
                            Character.trivial(desk.lattice))
        iso = iso_verify(desk, desk, cand, trials=10)
        rng = random.Random(0)
        w = random_element(desk, rng)
        assert iso.apply(w) == w

    def test_lattice_not_mapped(self, z2):
        cand = IsoCandidate(BlockMatrix(1, 1, [[2, 0], [0, 1]]),
                            Character.trivial(z2.lattice))
        with pytest.raises(LatticeNotMapped):
            iso_verify(z2, z2, cand, trials=5)

    def test_rejection_builds_no_images(self, z2, monkeypatch):
        monkeypatch.setattr(automorphisms, "_tau_table", None)
        cand = IsoCandidate(BlockMatrix(1, 1, [[1, 0], [0, 2]]),
                            Character.trivial(z2.lattice))
        with pytest.raises(LatticeNotMapped):
            iso_verify(z2, z2, cand, trials=5)

    def test_self_map_equals_sigma_tau(self, desk):
        # an iso map of an algebra to itself is sigma_tau
        rng = random.Random(2)
        for t in range(10):
            G, f = random_aut2(desk, rng), random_character(desk.lattice, rng)
            iso = iso_verify(desk, desk, IsoCandidate(G, f), trials=5, seed=t)
            tau = TauAut(desk, G, f)
            for _ in range(5):
                w = random_element(desk, rng)
                assert iso.apply(w) == tau.apply(w)

    def test_block_shape_enforced_by_constructor(self):
        with pytest.raises(BlockShapeViolation):
            BlockMatrix(1, 1, [[1, 1], [0, 1]])

    def test_invariant_mismatch(self, z2):
        other = Signature(2, 0, Lattice(2, [(1, 0), (0, 1)]))
        cand = IsoCandidate(BlockMatrix(1, 1, [[1, 0], [0, 1]]),
                            Character.trivial(z2.lattice))
        with pytest.raises(SignatureMismatch):
            iso_verify(z2, other, cand, trials=5)

    def test_round_trip_with_random_candidates(self, desk):
        rng = random.Random(1)
        for t in range(5):
            cand = IsoCandidate(random_aut2(desk, rng),
                                random_character(desk.lattice, rng))
            iso = iso_verify(desk, desk, cand, trials=20, seed=t)
            a, b = random_element(desk, rng), random_element(desk, rng)
            assert iso.apply(a * b) == iso.apply(a) * iso.apply(b)


def _random_lattice(rng, ell):
    while True:
        gens = [[Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(ell)]
                for _ in range(ell + 1)]
        try:
            return Lattice(ell, gens)
        except NondegenerateViolation:
            continue


_TAU_TABLE = automorphisms._tau_table
THIRD = Signature(1, 1, Lattice(2, [(1, 0), (0, Fraction(1, 3))]))
# the dense (4, 0) pair of the CI step "Dense rank-4 iso": two draws of
# _random_lattice(random.Random(DENSE_SEED), 4); 20 sampled products on its
# map take seconds, the relation certificate milliseconds
DENSE_SEED = 4


class TestIsoSearch:
    def test_scaled_lattice_found(self):
        a = Signature(0, 2, Lattice(2, [(1, 0), (0, 1)]))
        b = Signature(0, 2, Lattice(2, [(Fraction(1, 2), 0), (0, 1)]))
        result = iso_search_bounded(a, b)
        assert result.status == "found"
        assert result.tried == 1
        assert result.iso is not None

    def test_shape_mismatch_impossible(self, z2):
        other = Signature(2, 0, Lattice(2, [(1, 0), (0, 1)]))
        result = iso_search_bounded(z2, other)
        assert result.status == "impossible"
        assert result.tried == 0
        assert result.candidate is None

    def test_self_search_found(self, desk):
        result = iso_search_bounded(desk, desk)
        assert result.status == "found"
        assert result.candidate.G == BlockMatrix.identity(desk.ell1, desk.ell2)

    def test_block_constraint_pair_found(self):
        # dst meets Q x 0 in Z(2,0) and src in Z(1,0), so every block
        # certificate rescales the first axis and has an entry of size 2
        src = Signature(1, 1, Lattice(2, [(1, 0), (0, 1)]))
        dst = Signature(1, 1, Lattice(2, [(1, Fraction(1, 2)), (0, 1)]))
        result = iso_search_bounded(src, dst)
        assert result.status == "found"
        iso_verify(src, dst, result.candidate, trials=20, seed=3)

    def test_cross_lattice_with_polynomial_slot(self):
        src = Signature(1, 1, Lattice(2, [(1, 0), (0, 1)]))
        dst = Signature(1, 1, Lattice(2, [(1, 0), (0, Fraction(1, 2))]))
        result = iso_search_bounded(src, dst)
        assert result.status == "found"

    def test_random_pairs_every_split(self):
        rng = random.Random(2000)
        splits = [(ell1, ell - ell1) for ell in range(1, 5) for ell1 in range(ell + 1)]
        for n in range(60):
            ell1, ell2 = splits[n % len(splits)]
            src = Signature(ell1, ell2, _random_lattice(rng, ell1 + ell2))
            dst = Signature(ell1, ell2, _random_lattice(rng, ell1 + ell2))
            # the decision is certified by the defining relations alone; the
            # product law is re-checked once per pair (one random product at
            # l1 = 4 can take seconds when the M block is dense)
            result = iso_search_bounded(src, dst)
            assert result.status == "found", (n, src.lattice, dst.lattice)
            assert result.tried == 1
            iso_verify(src, dst, result.candidate, trials=1, seed=n + 1)

    def test_presentation_invariance(self, desk):
        rng = random.Random(9)
        expected = iso_search_bounded(desk, THIRD).candidate.G
        assert expected != BlockMatrix.identity(desk.ell1, desk.ell2)
        for _ in range(5):
            gens = list(desk.lattice.generators)
            rng.shuffle(gens)
            a, b = gens[0], gens[1]
            k = rng.randint(-3, 3)
            gens[0] = tuple(x + k * y for x, y in zip(a, b))
            gens.append(tuple(x - y for x, y in zip(a, b)))
            remixed = Signature(1, 1, Lattice(2, gens))
            assert iso_search_bounded(remixed, THIRD).candidate.G == expected


def _raising_builder(*args):
    raise LatticeNotMapped("builder defect")


def _wrong_d_builder(*args):
    x_image, x1_images, d_images = _TAU_TABLE(*args)
    return x_image, x1_images, [d.scale(2) for d in d_images]


BROKEN_BUILDERS = pytest.mark.parametrize(
    "builder", [_raising_builder, _wrong_d_builder], ids=["raises", "wrong-d-image"])


class TestBrokenCertificate:
    """A defect in the table builder must fail loudly, never read as a
    rejected candidate."""

    @BROKEN_BUILDERS
    def test_search_raises(self, desk, monkeypatch, builder):
        monkeypatch.setattr(automorphisms, "_tau_table", builder)
        with pytest.raises(InvariantViolation):
            iso_search_bounded(desk, THIRD)

    @BROKEN_BUILDERS
    def test_cli_exits_1_with_json_envelope(self, tmp_path, monkeypatch, capsys, builder):
        import json
        from weyltype.cli import run_command

        monkeypatch.setattr(automorphisms, "_tau_table", builder)
        files = []
        for name, gens in (("desk", [["1", "0"], ["0", "1"], ["1/2", "1/2"]]),
                           ("third", [["1", "0"], ["0", "1/3"]])):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps({"ell1": 1, "ell2": 1, "gamma_generators": gens}))
            files.append(str(path))
        code = run_command(["iso", "--json", "--src", files[0], "--dst", files[1]])
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is False
        assert "InvariantViolation" in payload["error"]


def _x_off_character(tau):
    """x^a -> f(a) x^{2 a G^{-1}}: multiplicative, but the d-images act on
    each x-image by twice the character (b_k)_p of its source point."""
    x_image, x1_images, d_images = _TAU_TABLE(tau)

    def doubled_point(al):
        den, num = x_image(al)
        return den, {Monomial(tuple(2 * n for n in m.alpha), m.i, m.mu): c
                     for m, c in num.items()}

    return doubled_point, x1_images, d_images


def _x_not_inverse(tau):
    """x^a -> 2 f(a) x^{a G^{-1}} for a != 0, so x(b) x(-b) = 4."""
    x_image, x1_images, d_images = _TAU_TABLE(tau)

    def doubled_coefficient(al):
        den, num = x_image(al)
        return den, ({m: 2 * c for m, c in num.items()} if any(al) else num)

    return doubled_coefficient, x1_images, d_images


def _xi_with_d(tau):
    x_image, x1_images, d_images = _TAU_TABLE(tau)
    return x_image, [x1_images[0] + d_images[0]] + x1_images[1:], d_images


def _d_not_commuting(tau):
    """d1 -> tau(d1) + tau(x^{b_1}), which d2 moves on desk, as (b_1)_2 = 1/2."""
    x_image, x1_images, d_images = _TAU_TABLE(tau)
    den, num = x_image(unit_index(tau.signature.ell, 1))
    x = Element(tau.target, {m: Fraction(c, den) for m, c in num.items()})
    return x_image, x1_images, [d_images[0] + x] + d_images[1:]


def _d_scaled(tau):
    x_image, x1_images, d_images = _TAU_TABLE(tau)
    return x_image, x1_images, d_images[:-1] + [d_images[-1].scale(2)]


MUTATED_RELATIONS = pytest.mark.parametrize("builder, message", [
    (_x_off_character, r"relation \[d1, x\+1\] fails"),
    (_x_not_inverse, r"relation x\+1 \* x-1 = 1 fails"),
    (_xi_with_d, r"image of xi1 is not in A"),
    (_d_not_commuting, r"relation \[d1, d2\] fails"),
    (_d_scaled, r"relation \[d2, x\+1\] fails"),
], ids=["x-off-character", "x-not-inverse", "xi-with-d", "d-not-commuting", "d-scaled"])


class TestRelationCertificate:
    """The decision's certificate is the presentation: each relation family,
    broken in the table, is refused with no sampled product, and on valid
    candidates it agrees with the sampled product law."""

    @pytest.fixture()
    def candidate(self, desk):
        return iso_search_bounded(desk, THIRD).candidate

    @MUTATED_RELATIONS
    def test_refused_without_trials(self, desk, candidate, monkeypatch, builder, message):
        monkeypatch.setattr(automorphisms, "_tau_table", builder)
        with pytest.raises(HomomorphismCounterexample, match=f"^{message}$") as info:
            iso_verify(desk, THIRD, candidate, trials=0)
        assert info.value.a is not None and info.value.trial is None
        with pytest.raises(InvariantViolation) as info:
            iso_search_bounded(desk, THIRD)
        assert isinstance(info.value.__cause__, HomomorphismCounterexample)
        # the sampled product law refuses the same table
        with pytest.raises(WeylError):
            verify_automorphism(TauAut(desk, candidate.G, candidate.f, THIRD), 20, 0, MODE_ASSOC)

    @pytest.mark.parametrize("name", ["desk", "rank3", "rank4"])
    def test_agrees_with_sampled_law_on_valid_candidates(self, name, request):
        sig = request.getfixturevalue(name)
        rng = random.Random(80)
        for t in range(3):
            cand = IsoCandidate(random_aut2(sig, rng), random_character(sig.lattice, rng))
            iso = iso_verify(sig, sig, cand)
            verify_automorphism(iso, 20, t, MODE_ASSOC)

    def test_decision_runs_no_sampled_product(self, desk, monkeypatch):
        def refuse(*args):
            raise AssertionError("the decision sampled a product")

        monkeypatch.setattr(classification, "verify_automorphism", refuse)
        monkeypatch.setattr(automorphisms, "verify_automorphism", refuse)
        rng = random.Random(DENSE_SEED)
        dense = [Signature(4, 0, _random_lattice(rng, 4)) for _ in range(2)]
        for src, dst in ((desk, THIRD), dense):
            assert iso_search_bounded(src, dst).status == "found"


class TestCrossSignatureTau:
    """An iso map is sigma_tau with a target algebra: its inverse maps back,
    and its group law checks which algebra each side lives on."""

    @pytest.fixture()
    def iso(self, desk):
        G = iso_search_bounded(desk, THIRD).candidate.G
        f = random_character(desk.lattice, random.Random(70))
        return iso_verify(desk, THIRD, IsoCandidate(G, f), trials=1)

    def test_inverse_undoes_apply(self, desk, iso):
        back = iso.inverse()
        assert (back.signature, back.target) == (THIRD, desk)
        assert back.f.lattice == THIRD.lattice
        rng = random.Random(71)
        for _ in range(10):
            w = random_element(desk, rng)
            image = iso.apply(w)
            assert image.signature == THIRD
            assert back.apply(image) == w

    def test_inverse_derives_G_inverse(self, iso):
        back = iso.inverse()
        assert back.G.entries == fraction_inverse(iso.G.entries)
        block_m = tuple(row[:1] for row in iso.G.entries[:1])
        den, mt_inv = iso.scaled_mt_inverse
        assert tuple(tuple(Fraction(x, den) for x in row) for row in mt_inv) == \
            fraction_inverse(linalg.transpose(block_m))
        assert back.inverse() == iso and back.inverse().G == iso.G

    def test_round_trips_are_identities_on_generators(self, desk, iso):
        for loop, sig in ((iso.inverse().compose(iso), desk),
                          (iso.compose(iso.inverse()), THIRD)):
            assert (loop.signature, loop.target) == (sig, sig)
            assert loop == TauAut.identity(sig)
            for key in generator_keys(sig):
                gen = generator_element(sig, key)
                assert loop.apply(gen) == gen

    def test_mismatched_compose_raises(self, desk, iso):
        with pytest.raises(SignatureMismatch):
            iso.compose(iso)
        with pytest.raises(SignatureMismatch):
            TauAut.identity(desk).compose(iso)
        assert iso.compose(TauAut.identity(desk)) == iso

    def test_normal_form_rejects_cross_signature_tau(self, desk, iso):
        with pytest.raises(SignatureMismatch):
            NormalFormAut(iso, InnerExp.identity(desk), ShiftV.identity(desk))

    def test_product_law_failure_is_reported(self, desk, iso, monkeypatch):
        real = automorphisms._hom_extend

        def perturbed(out_sig, *table):
            image = real(out_sig, *table)

            def perturbed_image(w):
                out = image(w)
                if any(sum(mu) >= 2 for _, _, mu in out.terms):
                    out = out + out_sig.one()
                return out

            return perturbed_image

        monkeypatch.setattr(automorphisms, "_hom_extend", perturbed)
        cand = IsoCandidate(iso.G, iso.f)
        # the relation certificate reads the generator table and still passes
        iso_verify(desk, THIRD, cand, trials=0)
        with pytest.raises(HomomorphismCounterexample,
                           match=r"^product law fails at trial \d+ \(mode=assoc, seed=5\)$") as info:
            iso_verify(desk, THIRD, cand, trials=20, seed=5)
        exc = info.value
        assert exc.a.signature == exc.b.signature == desk
        assert exc.lhs.signature == exc.rhs.signature == THIRD
        assert exc.lhs != exc.rhs


class TestFaithfulnessWitness:
    def test_single_derivation(self, w01):
        assert faithfulness_witness(w01, w01.d(1)) == (1,)

    def test_vandermonde_roots_skipped(self, w01):
        u = w01.d(1, 2) - w01.d(1)
        alpha = faithfulness_witness(w01, u)
        assert alpha == (2,)
        assert act_on_A(u, w01.x(alpha)) == w01.x(alpha, coeff=2)

    def test_constants_hit_origin(self, w01):
        assert faithfulness_witness(w01, w01.one()) == (0,)

    def test_zero_rejected(self, w01):
        with pytest.raises(ZeroElement):
            faithfulness_witness(w01, w01.zero())

    def test_mixed_elements_witnessed(self, request):
        """Elements with an A-part, alone or beside a derivation polynomial,
        get a witness too: the first simplex point, in the search order, on
        which the independent oracle sees them act."""
        for name in ("desk", "rank3", "rank4"):
            sig = request.getfixturevalue(name)
            rng = random.Random(5)
            for _ in range(10):
                a_part = sig.zero()
                while not any(any(m.alpha) or any(m.i) for m in a_part.terms):
                    a_part = random_element(sig, rng, max_terms=5, max_level=4)
                for u in (a_part, a_part + random_fd_element(sig, rng)):
                    ((n, _),) = next(probe for probe in simplex_probes(sig.ell, u.max_level())
                                     if oracle_act(u, probe))
                    assert faithfulness_witness(sig, u) == sig.lattice.ambient(n)

    def test_dual_basis_polynomial(self, desk):
        # d = 2 d_1 pairs to 1 with the first canonical row (1/2, 1/2) and to 0
        # with the second, (0, 1), so it acts on x^{n . basis} by n_1
        assert desk.lattice.basis == ((Fraction(1, 2), Fraction(1, 2)), (0, 1))
        d = desk.d(1, coeff=2)
        u = d * d - d
        alpha = faithfulness_witness(desk, u)
        coords = desk.lattice.coordinates(alpha)
        assert coords is not None and all(0 <= n <= 2 for n in coords)


def _grid_witness(sig, u):
    """The scan faithfulness_witness replaced: sort the whole (L+1)^l grid by
    (|n|, n) and return the first point where u acts nontrivially."""
    zero = (0,) * sig.ell
    grid = sorted(itertools.product(range(u.max_level() + 1), repeat=sig.ell),
                  key=lambda n: (sum(n), n))
    for n in grid:
        if act_on_A(u, Element(sig, {Monomial(n, zero, zero): Fraction(1)})):
            return sig.lattice.ambient(n)
    pytest.fail("no witness on the grid")


class TestSimplexWitness:
    @pytest.mark.parametrize("name", ["desk", "rank3"])
    def test_matches_grid_scan(self, name, request):
        sig = request.getfixturevalue(name)
        rng = random.Random(50)
        for _ in range(40):
            u = random_fd_element(sig, rng, max_degree=4, max_terms=5)
            # without its constant term u no longer acts at the origin
            for w in (u, u.without_constant()):
                if w:
                    assert faithfulness_witness(sig, w) == _grid_witness(sig, w)

    def test_probe_count_within_simplex(self, monkeypatch):
        ell = bound = 8
        sig = Signature(0, ell, Lattice(ell, [unit_index(ell, k) for k in range(1, ell + 1)]))
        # d1 (d1 - 1) ... (d1 - 7) vanishes unless n_1 >= 8: the witness is
        # the last point of the simplex, (8, 0, ..., 0)
        u = sig.one()
        for k in range(bound):
            u = u * (sig.d(1) - sig.scalar(k))
        probes = []

        def counting(w, a):
            probes.append(a)
            return act_on_A(w, a)

        monkeypatch.setattr(classification, "act_on_A", counting)
        assert faithfulness_witness(sig, u) == (bound,) + (0,) * (ell - 1)
        assert len(probes) == math.comb(bound + ell, ell)

    def test_exhausted_simplex_names_its_bound(self, desk, monkeypatch):
        monkeypatch.setattr(classification, "act_on_A", lambda w, a: desk.zero())
        with pytest.raises(InvariantViolation, match=r"simplex n >= 0, \|n\| <= 2"):
            faithfulness_witness(desk, desk.d(1, 2))


class TestClassifyAdBehavior:
    def test_derivation_plus_lattice_point(self, w01):
        w = w01.d(1) + w01.x((2,))
        assert classify_ad_behavior(w).tag == "in_D_plus_A"

    def test_commutative_part(self, desk):
        w = desk.x((Fraction(1, 2), Fraction(1, 2)), i=(1, 0))
        assert classify_ad_behavior(w).tag == "in_A"

    def test_wild_with_growth_trace(self, w01):
        w = w01.x((1,)) * w01.d(1, 2)
        behavior = classify_ad_behavior(w)
        assert behavior.tag == "wild"
        gammas = [row[2] for row in behavior.trace]
        assert all(g is not None for g in gammas)
        assert all(b > a for a, b in zip(gammas, gammas[1:]))

    def test_level_one_with_lattice_part_is_wild(self, w01):
        w = w01.x((1,)) * w01.d(1)
        assert classify_ad_behavior(w).tag == "wild"


class TestGrowthProbe:
    def test_commutative_element_annihilates(self, w01):
        w = w01.x((1,))
        probe = w01.x((2,)) * w01.d(1, 2)
        rows = growth_probe(w, probe, steps=3)
        assert rows[0][1] == 2
        assert rows[3][1] is None

    def test_semisimple_derivation_scales(self, w01):
        alpha = (2,)
        rows = growth_probe(w01.d(1), w01.x(alpha), steps=4)
        assert [r[1] for r in rows] == [0, 0, 0, 0, 0]
        cur = w01.x(alpha)
        for s in range(1, 5):
            cur = w01.d(1).bracket(cur)
            assert cur == w01.x(alpha, coeff=Fraction(2) ** s)

    def test_case_two_degree_law(self, w01):
        # w of top lattice degree beta against the probe x^{2 beta}:
        # (ad w)^s has degree (s + 2) beta exactly
        beta = (1,)
        w = w01.x(beta) * w01.d(1, 2)
        probe = w01.x((2 * beta[0],))
        rows = growth_probe(w, probe, steps=5)
        for s, level, gamma in rows:
            assert gamma == ((s + 2) * beta[0],)

    def test_rejects_nonpositive_steps(self, w01):
        with pytest.raises(ValueError):
            growth_probe(w01.d(1), w01.x((1,)), steps=0)


class TestJsonReports:
    def test_search_result_certificate(self, desk):
        import json

        result = iso_search_bounded(desk, desk)
        blob = json.dumps(result.to_dict())
        data = json.loads(blob)
        assert data["status"] == "found"
        assert data["certificate"]["f"] == ["1", "1"]

    def test_ad_behavior_trace_serializes(self, w01):
        import json

        behavior = classify_ad_behavior(w01.x((1,)) * w01.d(1, 2))
        data = json.loads(json.dumps(behavior.to_dict()))
        assert data["tag"] == "wild"
        assert data["trace"][0]["step"] == 0
        assert all(row["gamma_degree"] is not None for row in data["trace"])
