import random
from fractions import Fraction

import pytest

from weyltype import (
    BlockMatrix,
    Character,
    IsoCandidate,
    Lattice,
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
from weyltype import classification
from weyltype.errors import (
    BlockShapeViolation,
    LatticeNotMapped,
    NotInFD,
    SignatureMismatch,
    ZeroElement,
)
from weyltype.sampling import random_aut2, random_character, random_element


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
        monkeypatch.setattr(classification, "_tau_table", None)
        cand = IsoCandidate(BlockMatrix(1, 1, [[1, 0], [0, 2]]),
                            Character.trivial(z2.lattice))
        with pytest.raises(LatticeNotMapped):
            iso_verify(z2, z2, cand, trials=5)

    def test_self_map_equals_sigma_tau(self, desk):
        # IsoMap and TauAut build their tables with the same code
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


class TestIsoSearch:
    def test_scaled_lattice_found(self):
        a = Signature(0, 2, Lattice(2, [(1, 0), (0, 1)]))
        b = Signature(0, 2, Lattice(2, [(Fraction(1, 2), 0), (0, 1)]))
        result = iso_search_bounded(a, b, bound=1)
        assert result.status == "found"
        assert result.iso is not None

    def test_shape_mismatch_impossible(self, z2):
        other = Signature(2, 0, Lattice(2, [(1, 0), (0, 1)]))
        result = iso_search_bounded(z2, other, bound=3)
        assert result.status == "impossible"
        assert result.tried == 0

    def test_self_search_found(self, desk):
        result = iso_search_bounded(desk, desk, bound=1)
        assert result.status == "found"

    def test_block_constraint_needs_larger_bound(self):
        # the only coordinate changes aligning these lattices with the block
        # shape have an entry of size 2, so bound 1 must give up cleanly
        src = Signature(1, 1, Lattice(2, [(1, 0), (0, 1)]))
        dst = Signature(1, 1, Lattice(2, [(1, Fraction(1, 2)), (0, 1)]))
        narrow = iso_search_bounded(src, dst, bound=1)
        assert narrow.status == "unknown"
        assert narrow.tried > 0
        wide = iso_search_bounded(src, dst, bound=2)
        assert wide.status == "found"
        assert wide.iso is not None

    def test_cross_lattice_with_polynomial_slot(self):
        src = Signature(1, 1, Lattice(2, [(1, 0), (0, 1)]))
        dst = Signature(1, 1, Lattice(2, [(1, 0), (0, Fraction(1, 2))]))
        result = iso_search_bounded(src, dst, bound=1)
        assert result.status == "found"


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

    def test_non_fd_rejected(self, w01):
        with pytest.raises(NotInFD):
            faithfulness_witness(w01, w01.x((1,)))

    def test_dual_basis_polynomial(self, desk):
        # d dual to the canonical rows acts on x^{n . basis} by n directly
        from weyltype import change_D_basis, dual_derivation_basis
        from weyltype.linalg import transpose

        dual = dual_derivation_basis(desk.lattice, desk.lattice.basis)
        C = transpose(dual)
        u = change_D_basis(desk, C, desk.d(1, 2) - desk.d(1))
        alpha = faithfulness_witness(desk, u)
        coords = desk.lattice.coordinates(alpha)
        assert coords is not None and all(0 <= n <= 2 for n in coords)


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

        result = iso_search_bounded(desk, desk, bound=1)
        blob = json.dumps(result.to_dict())
        data = json.loads(blob)
        assert data["status"] == "found"
        assert data["certificate"]["f"] == ["1", "1"]

    def test_witness_report(self, w01):
        import json
        from weyltype.classification import witness_report

        report = witness_report(w01, w01.d(1, 2) - w01.d(1))
        data = json.loads(json.dumps(report))
        assert data["alpha"] == ["2"]
        assert data["coords"] == [2]
        assert data["value"]["terms"][0]["coeff"] == "2"

    def test_ad_behavior_trace_serializes(self, w01):
        import json

        behavior = classify_ad_behavior(w01.x((1,)) * w01.d(1, 2))
        data = json.loads(json.dumps(behavior.to_dict()))
        assert data["tag"] == "wild"
        assert data["trace"][0]["step"] == 0
        assert all(row["gamma_degree"] is not None for row in data["trace"])
