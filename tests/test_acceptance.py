"""Acceptance gate: one test per top-level criterion, all checks exact.

Default desk algebra: W(1, 1, Gamma) with Gamma generated by (1,0), (0,1),
(1/2,1/2); random elements with <= 3 terms, derivation level <= 3,
polynomial index <= 3, lattice coordinates in [-2, 2].  Every test prints
one PASS/FAIL line; run with ``pytest -s tests/test_acceptance.py`` to see
them all.
"""

import random

import pytest

from weyltype import apply_sigma1
from weyltype.sampling import desk_signature, random_element
from weyltype.selftest import SUITES

SEED = 0


@pytest.fixture(scope="module")
def desk_sig():
    return desk_signature()


def _run(name: str, sig) -> None:
    result = SUITES[name](sig, SEED)
    print(result.line())
    assert result.passed, result.detail


def test_criterion_associativity(desk_sig):
    """Associativity of the product on 200 random triples, exact equality."""
    _run("associativity", desk_sig)


def test_criterion_lie_axioms(desk_sig):
    """Alternation and Jacobi on 200 random triples; scalars central."""
    _run("lie-axioms", desk_sig)


def test_criterion_reordering_and_binomial_identity(desk_sig):
    """The reordering identity for all levels <= 3 against 20 random
    commutative monomials; the alternating binomial sum equals the
    Kronecker delta on the full grid up to (3, 3)."""
    _run("reordering", desk_sig)


def test_criterion_sigma1(desk_sig):
    """The order-2 twist: bracket-mode verification on 100 pairs, square
    equals identity on 100 elements, associative-mode counterexample on a
    squared derivation recorded."""
    _run("sigma1", desk_sig)
    d1 = desk_sig.d(1)
    assert apply_sigma1(desk_sig, d1 * d1) == -(d1 * d1)


def test_criterion_exp_ad_nilpotency(desk_sig):
    """(ad u)^{level+1} kills each monomial for 100 random pairs, and
    exp(ad u) verifies in both modes."""
    _run("exp-nilpotency", desk_sig)


def test_criterion_group_laws(desk_sig):
    """Conjugation of a shift through a lattice symmetry and symbolic
    composition agree with sequential application on every generator,
    50 random instances each."""
    _run("group-laws", desk_sig)


def test_criterion_decomposition_round_trip(desk_sig):
    """50 random factored automorphisms (twisted ones included) survive
    functional form -> decomposition with identical data, the inner part
    compared modulo constants."""
    _run("decomposition", desk_sig)


def test_criterion_iso_construction(desk_sig):
    """20 random (lattice symmetry, character) candidates verify as
    isomorphisms with exact product preservation (100 products on the
    first); the (l1, l2) invariant rejects mismatched shapes instantly."""
    _run("iso", desk_sig)


def test_criterion_faithfulness(desk_sig):
    """100 random nonzero derivation polynomials of degree <= 4 with <= 5
    terms admit a witness lattice point with all coordinates <= 4."""
    _run("faithfulness", desk_sig)


def test_criterion_adjoint_probes(desk_sig):
    """Commutative elements annihilate probes at the exact step bound, the
    two wild shapes grow strictly for 5 steps, and the bracket filtration
    laws hold on 100 random pairs."""
    _run("probes", desk_sig)


def test_criterion_parser_round_trip(desk_sig):
    """parse . print is the identity on 200 random elements and rendering
    is byte-identical under a fixed seed."""
    _run("parser", desk_sig)


@pytest.mark.parametrize("name", ["group-laws", "decomposition", "iso"])
@pytest.mark.parametrize("sig_name", ["rank3", "rank4"])
def test_aut2_suites_at_ranks_3_and_4(name, sig_name, request):
    """The suites that draw lattice symmetries pass beyond the desk algebra."""
    _run(name, request.getfixturevalue(sig_name))


def test_sampling_profile_matches_desk_scale(desk_sig):
    """The shared sampler respects the advertised desk-scale bounds."""
    rng = random.Random(SEED)
    for _ in range(200):
        e = random_element(desk_sig, rng)
        assert 1 <= len(e.terms) <= 3
        for m in e.terms:
            assert sum(m.mu) <= 3
            assert all(0 <= x <= 3 for x in m.i)
            assert all(-2 <= c <= 2 for c in m.alpha)
