"""Named property suites run by the CLI selftest and the acceptance tests.

Every suite is exact (zero tolerance) and fully determined by its seed.
The default algebra is W(1, 1, Gamma) with Gamma generated by
(1,0), (0,1), (1/2,1/2).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import product as _cartesian

from . import linalg
from .algebra import (
    Element,
    Monomial,
    Signature,
    act_on_A,
    alternating_binomial_sum,
    derivation_apply,
    filtration_data,
    multi_binomial,
    unit_index,
)
from .automorphisms import (
    MODE_ASSOC,
    MODE_LIE,
    FunctionalAut,
    InnerExp,
    ShiftV,
    Sigma1,
    TauAut,
    apply_sigma1,
    compose_normal_forms,
    conjugated_shift,
    decompose_automorphism,
    generator_element,
    generator_keys,
    random_normal_form_aut,
    verify_automorphism,
)
from .classification import (
    classify_ad_behavior,
    faithfulness_witness,
    growth_probe,
    iso_search_bounded,
    iso_verify,
    IsoCandidate,
)
from .errors import InvariantViolation, WeylError
from .expressions import format_element, parse_and_eval
from .lattice import Lattice
from .sampling import (
    desk_signature,
    random_A_element,
    random_aut2,
    random_character,
    random_element,
    random_fd_element,
    random_monomial,
    random_shift_vector,
)


@dataclass
class SuiteResult:
    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status} {self.name} ({self.detail})"


def _fail(name: str, message: str) -> SuiteResult:
    return SuiteResult(name, False, message)


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------

def suite_associativity(sig: Signature, seed: int) -> SuiteResult:
    rng = random.Random(seed)
    trials = 200
    for t in range(trials):
        a, b, c = (random_element(sig, rng) for _ in range(3))
        if (a * b) * c != a * (b * c):
            return _fail("associativity", f"triple {t} breaks associativity")
    one = sig.one()
    for t in range(20):
        w = random_element(sig, rng)
        if one * w != w or w * one != w:
            return _fail("associativity", f"unit law fails at {t}")
    return SuiteResult("associativity", True, f"{trials} triples")


def suite_lie_axioms(sig: Signature, seed: int) -> SuiteResult:
    rng = random.Random(seed)
    trials = 200
    zero = sig.zero()
    for t in range(trials):
        a, b, c = (random_element(sig, rng) for _ in range(3))
        if a.bracket(a) != zero:
            return _fail("lie-axioms", f"alternation fails at {t}")
        jacobi = (a.bracket(b.bracket(c)) + b.bracket(c.bracket(a))
                  + c.bracket(a.bracket(b)))
        if jacobi != zero:
            return _fail("lie-axioms", f"Jacobi fails at {t}")
    for t in range(50):
        w = random_element(sig, rng)
        c = sig.scalar(Fraction(rng.randint(-5, 5), rng.randint(1, 3)))
        if c.bracket(w) != zero or w.bracket(c) != zero:
            return _fail("lie-axioms", f"centrality fails at {t}")
    return SuiteResult("lie-axioms", True, f"{trials} triples, scalars central")


def suite_reordering(sig: Signature, seed: int) -> SuiteResult:
    rng = random.Random(seed)
    ell = sig.ell
    zero = (0,) * ell
    mus = [mu for mu in _cartesian(range(4), repeat=ell) if sum(mu) <= 3]
    probes = [random_monomial(sig, rng, max_level=0) for _ in range(20)]
    checked = 0
    for mu in mus:
        minus_d = Element(sig, {Monomial(zero, zero, mu): Fraction((-1) ** sum(mu))})
        for probe in probes:
            lhs = sig.zero()
            for lam in _cartesian(*(range(m + 1) for m in mu)):
                coeff = multi_binomial(mu, lam)
                rest = tuple(m - l for m, l in zip(mu, lam))
                sign = Fraction((-1) ** sum(rest))
                d_rest = Element(sig, {Monomial(zero, zero, rest): sign})
                lhs = lhs + (d_rest * derivation_apply(sig, lam, probe)).scale(coeff)
            rhs = probe * minus_d
            if lhs != rhs:
                return _fail("reordering", f"identity fails at mu={mu}")
            checked += 1
    for mu in _cartesian(range(4), repeat=2):
        for nu in _cartesian(range(4), repeat=2):
            expected = 1 if not any(nu) else 0
            if alternating_binomial_sum(mu, nu) != expected:
                return _fail("reordering", f"binomial sum wrong at {mu}, {nu}")
    return SuiteResult("reordering", True,
                       f"{checked} reorderings, binomial sum on 16x16 grid")


def suite_sigma1(sig: Signature, seed: int) -> SuiteResult:
    rng = random.Random(seed)
    twist = Sigma1(sig)
    report = verify_automorphism(twist, trials=100, seed=seed, mode=MODE_LIE)
    if not report.passed:
        return _fail("sigma1", "bracket check failed: " + report.describe())
    for t in range(100):
        w = random_element(sig, rng)
        if apply_sigma1(sig, apply_sigma1(sig, w)) != w:
            return _fail("sigma1", f"order-2 fails at {t}")
    d1 = sig.d(1)
    lhs = apply_sigma1(sig, d1 * d1)
    rhs = apply_sigma1(sig, d1) * apply_sigma1(sig, d1)
    if lhs == rhs or lhs != -(d1 * d1):
        return _fail("sigma1", "expected counterexample sigma1(d1^2) = -d1^2 missing")
    assoc = verify_automorphism(twist, trials=100, seed=seed, mode=MODE_ASSOC)
    if assoc.passed:
        return _fail("sigma1", "associative-mode check unexpectedly passed")
    return SuiteResult("sigma1", True,
                       "100 bracket pairs, order 2 on 100 elements, "
                       "associative counterexample recorded")


def suite_exp_nilpotency(sig: Signature, seed: int) -> SuiteResult:
    rng = random.Random(seed)
    zero = sig.zero()
    for t in range(100):
        u = random_A_element(sig, rng)
        m = random_monomial(sig, rng)
        lvl = m.max_level() or 0
        # term runs through (ad u)^k(m) / k!, series sums the truncated exp(ad u)(m)
        term = series = m
        for k in range(1, lvl + 2):
            term = u.bracket(term) / k
            series = series + term
        if term != zero:
            return _fail("exp-nilpotency", f"(ad u)^{lvl + 1}(m) != 0 at {t}")
        if InnerExp(u).apply(m) != series:
            return _fail("exp-nilpotency", f"exp(ad u)(m) differs from the ad-series at {t}")
    sigma_u = InnerExp(random_A_element(sig, rng))
    for mode in (MODE_LIE, MODE_ASSOC):
        report = verify_automorphism(sigma_u, trials=100, seed=seed, mode=mode)
        if not report.passed:
            return _fail("exp-nilpotency", f"exp(ad u) fails {mode}: {report.describe()}")
    return SuiteResult("exp-nilpotency", True,
                       "100 (u, m) pairs at the exact bound, each matching the "
                       "ad-series, both-mode verification")


def suite_group_laws(sig: Signature, seed: int) -> SuiteResult:
    rng = random.Random(seed)
    gens = [generator_element(sig, key) for key in generator_keys(sig)]
    for t in range(50):
        tau = TauAut(sig, random_aut2(sig, rng), random_character(sig.lattice, rng))
        shift = ShiftV(sig, random_shift_vector(sig, rng))
        inner, moved = conjugated_shift(tau, shift)
        tau_inv = tau.inverse()
        for g in gens:
            lhs = tau_inv.apply(shift.apply(tau.apply(g)))
            rhs = inner.apply(moved.apply(g))
            if lhs != rhs:
                return _fail("group-laws", f"conjugation law fails at {t}")
    twisted = 0
    for t in range(50):
        a = random_normal_form_aut(sig, rng)
        b = random_normal_form_aut(sig, rng)
        twisted += a.eps | b.eps
        try:
            composed = compose_normal_forms(a, b)
        except InvariantViolation as exc:
            return _fail("group-laws", f"composition law fails at {t}: {exc}")
        for g in gens:
            if composed.apply(g) != a.apply(b.apply(g)):
                return _fail("group-laws", f"composition disagrees at {t}")
    return SuiteResult("group-laws", True, f"50 conjugations, 50 compositions, "
                       f"{twisted} with the order-2 twist")


def suite_decomposition(sig: Signature, seed: int) -> SuiteResult:
    rng = random.Random(seed)
    twisted = 0
    for t in range(50):
        nf = random_normal_form_aut(sig, rng)
        twisted += nf.eps
        phi = FunctionalAut.from_aut(nf, mode=MODE_LIE)
        try:
            recovered = decompose_automorphism(phi)
        except WeylError as exc:
            return _fail("decomposition", f"trial {t} raised: {exc}")
        if not recovered.same_data(nf):
            return _fail("decomposition", f"trial {t} recovered different data")
    if twisted == 0:
        return _fail("decomposition", "sampler produced no twisted instances")
    return SuiteResult("decomposition", True,
                       f"50 round trips, {twisted} with the order-2 twist")


def suite_iso(sig: Signature, seed: int) -> SuiteResult:
    rng = random.Random(seed)
    for t in range(20):
        cand = IsoCandidate(random_aut2(sig, rng), random_character(sig.lattice, rng))
        trials = 100 if t == 0 else 10
        try:
            iso_verify(sig, sig, cand, trials=trials, seed=seed + t)
        except WeylError as exc:
            return _fail("iso", f"candidate {t} rejected: {exc}")
    shape = (0, sig.ell) if sig.ell2 == 0 else (sig.ell, 0)
    other = Signature(*shape, Lattice(sig.ell, linalg.identity(sig.ell)))
    # on desk, <(1,0),(0,1/3)>: a target whose certificate is not the identity
    axes = [list(row) for row in linalg.identity(sig.ell)]
    axes[-1][-1] = Fraction(1, 3)
    third = Signature(sig.ell1, sig.ell2, Lattice(sig.ell, axes))
    try:
        statuses = [iso_search_bounded(sig, dst).status for dst in (other, sig, third)]
    except InvariantViolation as exc:
        return _fail("iso", f"certificate rejected: {exc}")
    if statuses != ["impossible", "found", "found"]:
        return _fail("iso", f"decisions {statuses}, expected impossible, found, found")
    return SuiteResult("iso", True,
                       "20 candidates verified (100 products on the first), "
                       "invariant rejection instant, certified self and "
                       "cross-lattice maps")


def suite_faithfulness(sig: Signature, seed: int) -> SuiteResult:
    rng = random.Random(seed)
    for t in range(100):
        u = random_fd_element(sig, rng, max_degree=4, max_terms=5)
        alpha = faithfulness_witness(sig, u)
        coords = sig.lattice.coordinates(alpha)
        if coords is None or any(n < 0 or n > 4 for n in coords):
            return _fail("faithfulness", f"witness outside the grid at {t}")
        zero = (0,) * sig.ell
        probe = Element(sig, {Monomial(coords, zero, zero): Fraction(1)})
        if not act_on_A(u, probe):
            return _fail("faithfulness", f"claimed witness acts trivially at {t}")
    return SuiteResult("faithfulness", True, "100 witnesses, all n_q <= 4")


def suite_probes(sig: Signature, seed: int) -> SuiteResult:
    rng = random.Random(seed)
    for t in range(20):
        u = random_A_element(sig, rng)
        probe = random_monomial(sig, rng)
        lvl = probe.max_level() or 0
        rows = growth_probe(u, probe, steps=lvl + 1)
        if rows[-1][1] is not None:
            return _fail("probes", f"nilpotency bound missed at {t}")
    zero = (0,) * sig.ell
    top = unit_index(sig.ell, sig.ell, 2)
    i_part = unit_index(sig.ell, 1) if sig.ell1 else zero
    case1 = Element(sig, {Monomial(zero, i_part, top): Fraction(1)})
    behavior = classify_ad_behavior(case1, steps=5)
    if behavior.tag != "wild":
        return _fail("probes", "case-1 element not classified wild")
    levels = [r[1] for r in behavior.trace]
    if any(l is None for l in levels) or any(levels[s + 1] <= levels[s] for s in range(5)):
        return _fail("probes", "case-1 probe does not grow in level")
    beta = (1,) + (0,) * (sig.ell - 1)
    ambient = sig.lattice.ambient(beta)
    q0 = next(q for q in range(sig.ell) if ambient[q] != 0)
    case2 = Element(sig, {Monomial(beta, zero, unit_index(sig.ell, q0 + 1, 2)):
                          Fraction(1)})
    behavior2 = classify_ad_behavior(case2, steps=5)
    if behavior2.tag != "wild":
        return _fail("probes", "case-2 element not classified wild")
    gammas = [r[2] for r in behavior2.trace]
    if any(g is None for g in gammas) or any(gammas[s + 1] <= gammas[s] for s in range(5)):
        return _fail("probes", "case-2 probe does not grow in lattice degree")
    for t in range(100):
        w1 = random_element(sig, rng)
        w2 = random_element(sig, rng)
        br = w1.bracket(w2)
        if br.is_zero:
            continue
        d1, d2, db = filtration_data(w1), filtration_data(w2), filtration_data(br)
        bound = tuple(x + y for x, y in zip(d1.gamma_degree, d2.gamma_degree))
        if db.gamma_degree > bound:
            return _fail("probes", f"lattice-degree additivity fails at {t}")
        if d1.level >= 1 and d2.level >= 1 and db.level > d1.level + d2.level - 1:
            return _fail("probes", f"level inequality fails at {t}")
    return SuiteResult("probes", True,
                       "20 nilpotency bounds, monotone wild growth, "
                       "100 filtration pairs")


def suite_parser(sig: Signature, seed: int) -> SuiteResult:
    def render(run_seed: int) -> list[str]:
        rng = random.Random(run_seed)
        return [format_element(random_element(sig, rng)) for _ in range(200)]

    rng = random.Random(seed)
    for t in range(200):
        e = random_element(sig, rng)
        text = format_element(e)
        back = parse_and_eval(text, sig)
        if back != e:
            return _fail("parser", f"round trip fails at {t}: {text}")
    if render(seed) != render(seed):
        return _fail("parser", "rendering is not deterministic under a fixed seed")
    return SuiteResult("parser", True, "200 round trips, byte-identical reruns")


SUITES = {
    "associativity": suite_associativity,
    "lie-axioms": suite_lie_axioms,
    "reordering": suite_reordering,
    "sigma1": suite_sigma1,
    "exp-nilpotency": suite_exp_nilpotency,
    "group-laws": suite_group_laws,
    "decomposition": suite_decomposition,
    "iso": suite_iso,
    "faithfulness": suite_faithfulness,
    "probes": suite_probes,
    "parser": suite_parser,
}


def run_suites(sig: Signature | None = None, names=None, seed: int = 0) -> list[SuiteResult]:
    sig = sig if sig is not None else desk_signature()
    if names is None:
        names = list(SUITES)
    results = []
    for name in names:
        if name not in SUITES:
            raise KeyError(f"unknown suite {name!r}; known: {', '.join(SUITES)}")
        results.append(SUITES[name](sig, seed))
    return results
