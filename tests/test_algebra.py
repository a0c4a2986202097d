import json
import random
from fractions import Fraction
from itertools import product as cartesian
from math import comb

import pytest

from weyltype import (
    Element,
    Lattice,
    Signature,
    act_on_A,
    alternating_binomial_sum,
    derivation_apply,
    element_from_dict,
    element_to_dict,
    filtration_data,
    multi_binomial,
    total_order_cmp,
)
from weyltype import algebra
from weyltype.algebra import Monomial, act_each_on_A, unit_index
from weyltype.errors import (
    DimensionMismatch,
    NotInA,
    NotMember,
    SignatureMismatch,
)
from weyltype.automorphisms import apply_sigma1, random_normal_form_aut
from weyltype.sampling import random_element, random_fd_element

from conftest import key_parts_shared, oracle_bracket_is, oracle_product_is


class TestMultiBinomial:
    def test_componentwise_product(self):
        assert multi_binomial((2, 1), (1, 0)) == 2

    def test_equal_indices(self):
        assert multi_binomial((3, 2), (3, 2)) == 1

    def test_vanishes_when_lower_exceeds_upper(self):
        assert multi_binomial((1, 0), (0, 2)) == 0

    def test_length_mismatch(self):
        with pytest.raises(DimensionMismatch):
            multi_binomial((1,), (1, 0))


class TestTotalOrder:
    def test_level_ties_break_on_first_coordinate(self):
        assert total_order_cmp((1, 0), (0, 1)) == 1

    def test_level_dominates(self):
        assert total_order_cmp((0, 2), (1, 0)) == 1

    def test_equal(self):
        assert total_order_cmp((2, 1), (2, 1)) == 0


class TestAlternatingBinomialSum:
    def test_empty_case(self):
        assert alternating_binomial_sum((0,), (0,)) == 1

    def test_cancellation(self):
        assert alternating_binomial_sum((2,), (1,)) == 0

    def test_single_variable(self):
        assert alternating_binomial_sum((1,), (0,)) == 1

    def test_kronecker_delta_exhaustive(self):
        for mu in cartesian(range(4), repeat=2):
            for nu in cartesian(range(4), repeat=2):
                expected = 1 if nu == (0, 0) else 0
                assert alternating_binomial_sum(mu, nu) == expected


class TestDerivationApply:
    def test_polynomial_generator_drops_to_unit(self, w10):
        out = derivation_apply(w10, (1,), w10.x_poly(1))
        assert out == w10.one()

    def test_grading_eigenvalue(self, w01):
        alpha = (3,)
        out = derivation_apply(w01, (1,), w01.x(alpha))
        assert out == w01.x(alpha, coeff=3)

    def test_second_derivative_mixes_grades(self, w10):
        target = w10.x((1,), i=(2,))
        out = derivation_apply(w10, (2,), target)
        expected = (w10.x((1,), i=(2,)) + w10.x((1,), i=(1,), coeff=4)
                    + w10.x((1,), coeff=2))
        assert out == expected

    def test_rejects_derivation_part(self, w10):
        with pytest.raises(NotInA):
            derivation_apply(w10, (1,), w10.d(1))

    def test_rejects_a_target_in_another_algebra(self, desk, z2):
        with pytest.raises(SignatureMismatch):
            derivation_apply(desk, (1, 0), z2.x((1, 0)))

    def test_rejects_lam_of_the_wrong_length(self, desk):
        for lam in ((1,), (1, 0, 0)):
            with pytest.raises(DimensionMismatch):
                derivation_apply(desk, lam, desk.x((1, 0)))

    def test_rejects_a_negative_entry(self, desk):
        with pytest.raises(ValueError):
            derivation_apply(desk, (1, -1), desk.x((1, 0)))


class TestProduct:
    def test_derivation_past_polynomial_generator(self, w10):
        lhs = w10.d(1) * w10.x_poly(1)
        assert lhs == w10.x_poly(1) * w10.d(1) + w10.one()

    def test_weyl_relation_with_lattice_part(self, w01):
        w = w01.x((1,)) * w01.d(1)
        out = w * w01.x((2,))
        assert out == w01.monomial(alpha=(3,), mu=(1,)) + w01.x((3,), coeff=2)

    def test_two_sided_identity(self, desk):
        rng = random.Random(0)
        one = desk.one()
        for _ in range(10):
            w = random_element(desk, rng)
            assert one * w == w
            assert w * one == w

    def test_associativity_sample(self, desk):
        rng = random.Random(1)
        for _ in range(40):
            a, b, c = (random_element(desk, rng) for _ in range(3))
            assert (a * b) * c == a * (b * c)

    def test_signature_mismatch(self, w10, w01):
        with pytest.raises(SignatureMismatch):
            w10.one() * w01.one()


# The Fraction product the integer kernel replaced, kept as the reference:
# one Fraction multiply and add per (term pair, lam, table entry).

def _ref_derive_A_terms(sig, terms, p):
    out = {}
    for (al, i), c in terms.items():
        grade = sig.lattice.ambient(al)[p]
        if grade:
            out[(al, i)] = out.get((al, i), Fraction(0)) + c * grade
        if p < sig.ell1 and i[p] > 0:
            low = list(i)
            low[p] -= 1
            key = (al, tuple(low))
            out[key] = out.get(key, Fraction(0)) + c * i[p]
    return {k: v for k, v in out.items() if v != 0}


def _ref_mul(a, b):
    sig = a.signature
    out, memo = {}, {}

    def derived(mkey, lam):
        entry = memo.get((mkey, lam))
        if entry is None:
            if not any(lam):
                entry = {mkey: Fraction(1)}
            else:
                p = next(idx for idx, v in enumerate(lam) if v)
                prev = list(lam)
                prev[p] -= 1
                entry = _ref_derive_A_terms(sig, derived(mkey, tuple(prev)), p)
            memo[(mkey, lam)] = entry
        return entry

    for (al1, i1, mu1), c1 in a.terms.items():
        for (al2, i2, mu2), c2 in b.terms.items():
            amb2 = sig.lattice.ambient(al2)
            bounds = tuple(
                mu1[p] if amb2[p] != 0
                else (min(mu1[p], i2[p]) if p < sig.ell1 else 0)
                for p in range(sig.ell))
            for lam in cartesian(*(range(b + 1) for b in bounds)):
                mu_out = tuple(m1 + m2 - l for m1, m2, l in zip(mu1, mu2, lam))
                base = c1 * c2 * multi_binomial(mu1, lam)
                for (al, i), q in derived((al2, i2), lam).items():
                    key = Monomial(tuple(x + y for x, y in zip(al1, al)),
                                   tuple(x + y for x, y in zip(i1, i)), mu_out)
                    out[key] = out.get(key, Fraction(0)) + base * q
    return Element(sig, out)


def _ref_act_on_A(w, a):
    sig = w.signature
    out = {}
    zero = (0,) * sig.ell
    for (al, i, mu), c in w.terms.items():
        derived = {(m.alpha, m.i): q for m, q in a.terms.items()}
        for p, k in enumerate(mu):
            for _ in range(k):
                derived = _ref_derive_A_terms(sig, derived, p)
        for (al2, i2), q in derived.items():
            key = Monomial(tuple(x + y for x, y in zip(al, al2)),
                           tuple(x + y for x, y in zip(i, i2)), zero)
            out[key] = out.get(key, Fraction(0)) + c * q
    return Element(sig, out)


F = Fraction
KERNEL_CASES = {
    # (l1, l2), generators, lattice denominator
    "z2-(1,1)-D1": (1, 1, [(1, 0), (0, 1)], 1),
    "rank3-(1,2)-D2": (1, 2, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (F(1, 2), F(1, 2), 0)], 2),
    "(2,1)-D12": (2, 1, [(F(1, 3), 0, 0), (0, 1, F(1, 4)), (0, 0, 1)], 12),
    "(0,2)-D35": (0, 2, [(1, 0), (F(1, 5), F(1, 7))], 35),
    "(2,0)-D35": (2, 0, [(1, 0), (F(1, 5), F(1, 7))], 35),
    "(2,0)-D2": (2, 0, [(F(1, 2), 0), (0, 1)], 2),
}


def _same(got, want):
    assert got == want
    assert all(type(c) is Fraction for c in got.terms.values())


class TestIntegerKernel:
    """Product, bracket, derivation_apply and act_on_A against the Fraction
    reference on seeded random elements of levels 0..5."""

    @pytest.fixture(params=sorted(KERNEL_CASES), scope="class")
    def case(self, request):
        ell1, ell2, gens, den = KERNEL_CASES[request.param]
        sig = Signature(ell1, ell2, Lattice(ell1 + ell2, gens))
        assert sig.lattice.denominator == den
        rng = random.Random(sorted(KERNEL_CASES).index(request.param))
        elems = [sig.zero(), sig.one(), sig.scalar(F(-3, 4))]
        elems += [random_element(sig, rng, max_terms=rng.randint(1, 3),
                                 max_level=rng.randint(0, 5)) for _ in range(14)]
        elems.append(random_element(sig, rng, max_terms=2, max_level=5))
        return sig, elems

    def test_product_and_bracket(self, case):
        sig, elems = case
        rng = random.Random(20)
        for a in elems:
            for b in rng.sample(elems, 6) + [elems[0], elems[2]]:
                ab, ba = _ref_mul(a, b), _ref_mul(b, a)
                _same(a * b, ab)
                assert list((a * b).terms) == list(ab.terms)
                _same(a.bracket(b), ab - ba)

    def test_action_and_derivation_apply(self, case):
        sig, elems = case
        rng = random.Random(21)
        targets = [sig.zero(), sig.scalar(F(5, 2))] + [
            random_element(sig, rng, max_level=0) for _ in range(6)]
        for w in elems:
            for a in targets:
                _same(act_on_A(w, a), _ref_act_on_A(w, a))
        for a in targets:
            for _ in range(4):
                lam = tuple(rng.randint(0, 5) for _ in range(sig.ell))
                d_lam = Element(sig, {Monomial((0,) * sig.ell, (0,) * sig.ell, lam): 1})
                _same(derivation_apply(sig, lam, a), _ref_act_on_A(d_lam, a))

    def test_action_of_many_in_one_pass(self, case):
        """act_each_on_A, which shares each d^lam table across its elements,
        gives each action with the terms in act_on_A's order."""
        sig, elems = case
        rng = random.Random(22)
        targets = [sig.zero(), sig.scalar(F(5, 2))] + [
            random_element(sig, rng, max_level=0) for _ in range(6)]
        for a in targets:
            ws = rng.sample(elems, 5) + [elems[0]]
            for got, w in zip(act_each_on_A(ws, a), ws):
                want = act_on_A(w, a)
                _same(got, want)
                assert list(got.num) == list(want.num)

    def test_level_zero_left_terms(self, case):
        """Left terms with mu = 0 take the kernel's convolution path: a wholly
        in A, a mixing level-0 and higher terms in either order, and the
        action of such a w."""
        sig, elems = case
        rng = random.Random(22)
        in_A = [a for a in (random_element(sig, rng, max_level=0) for _ in range(8)) if a][:4]
        raised = [random_element(sig, rng, max_level=4) * sig.d(sig.ell) for _ in range(4)]
        mixed = [lo + hi for lo, hi in zip(in_A, raised)] + [hi + lo for lo, hi in zip(in_A, raised)]
        assert all(any(not any(m.mu) for m in a.terms) and not a.in_A() for a in mixed)
        for a in in_A + mixed:
            for b in elems:
                ab = _ref_mul(a, b)
                _same(a * b, ab)
                assert list((a * b).terms) == list(ab.terms)
                _same(a.bracket(b), ab - _ref_mul(b, a))
                _same(b.bracket(a), _ref_mul(b, a) - ab)
        targets = [sig.zero(), sig.scalar(F(2, 3))] + in_A
        for w in in_A + mixed:
            for a in targets:
                _same(act_on_A(w, a), _ref_act_on_A(w, a))

    def test_derivation_polynomial_right_factors(self, case):
        """Right terms in F[D] (alpha = 0, i = 0) take the kernel's d^nu
        path: b wholly in F[D], b mixing such terms with others in either
        order, and action targets with a constant term."""
        sig, elems = case
        rng = random.Random(23)
        in_FD = [random_fd_element(sig, rng, max_degree=3, max_terms=3) for _ in range(4)]
        others = [a for a in (random_element(sig, rng, max_level=3) for _ in range(12))
                  if any(any(m.alpha) or any(m.i) for m in a.terms)][:4]
        mixed = [d + o for d, o in zip(in_FD, others)] + [o + d for d, o in zip(in_FD, others)]
        assert all(any(any(m.alpha) or any(m.i) for m in b.terms)
                   and any(not any(m.alpha) and not any(m.i) for m in b.terms)
                   for b in mixed)
        for b in in_FD + mixed:
            for a in elems:
                ab = _ref_mul(a, b)
                _same(a * b, ab)
                assert list((a * b).terms) == list(ab.terms)
                _same(a.bracket(b), ab - _ref_mul(b, a))
        targets = [sig.scalar(F(7, 3))] + [
            sig.scalar(F(-1, 2)) + random_element(sig, rng, max_level=0) for _ in range(4)]
        for w in elems + in_FD + mixed:
            for a in targets:
                _same(act_on_A(w, a), _ref_act_on_A(w, a))
            for lam in (unit_index(sig.ell, 1), unit_index(sig.ell, sig.ell, 2)):
                d_lam = Element(sig, {Monomial((0,) * sig.ell, (0,) * sig.ell, lam): 1})
                _same(derivation_apply(sig, lam, targets[-1]), _ref_act_on_A(d_lam, targets[-1]))


WIDE_CASES = {
    # (l1, l2), generators, lattice denominator
    "(2,2)-D2": (2, 2, [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1),
                        (F(1, 2), 0, F(1, 2), 0)], 2),
    "(0,3)-D3": (0, 3, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (F(1, 3), F(1, 3), F(1, 3))], 3),
}
# (|a|, |b|, highest level) on both sides of algebra.PACKED_PAIRS, for the
# product and the bracket; the largest shape at a lower level keeps it fast
WIDE_SHAPES = ((1, 1, 8), (1, 20, 8), (3, 5, 8), (4, 4, 8), (5, 7, 8), (6, 6, 8), (20, 20, 3))


# The operator oracle's cost grows as its probe count C(L + l, l), L the sum
# of the two levels, times |a| * |b|; a wide pair up to this bound is also
# checked against it, the rest against the Fraction reference alone
ORACLE_WORK = 4000


def _oracle_agrees(path, a, b, product, bracket) -> bool:
    """a . b = product and [a, b] = bracket by the operator oracle, on the
    tuple and the packed path for a pair within ORACLE_WORK; True without a
    check otherwise (the default path repeats one of the two on the same
    pairs)."""
    level = (a.max_level() or 0) + (b.max_level() or 0)
    if (path == "default"
            or comb(level + a.signature.ell, level) * len(a.num) * len(b.num) > ORACLE_WORK):
        return True
    return oracle_product_is(a, b, product) and oracle_bracket_is(a, b, bracket)


def _wide_element(sig, rng, terms, coord=2 ** 40, max_i=40, max_level=8):
    """Exactly ``terms`` terms with lattice coordinates in [-coord, coord]
    (a third of them at +-coord), polynomial indices up to ``max_i`` and
    levels up to ``max_level``."""
    num = {}
    while len(num) < terms:
        alpha = tuple(rng.choice((coord, -coord)) if rng.random() < 0.3
                      else rng.randint(-coord, coord) for _ in range(sig.ell))
        i = tuple(rng.randint(0, max_i) if p < sig.ell1 else 0 for p in range(sig.ell))
        mu = [0] * sig.ell
        for _ in range(rng.randint(0, max_level)):
            mu[rng.randrange(sig.ell)] += 1
        num[Monomial(alpha, i, tuple(mu))] = F(rng.choice((-1, 1)) * rng.randint(1, 9),
                                               rng.randint(1, 4))
    return Element(sig, num)


class TestPackedKernel:
    """The kernel on wide integers: lattice coordinates up to 2^40 (packed
    fields wider than a machine word, keys of hundreds of bits), polynomial
    indices up to 40 and levels up to 8, against the Fraction reference, on
    the tuple path, the packed path and the default cut-over between them,
    and against the operator oracle where its probes run quickly
    (``ORACLE_WORK``)."""

    @pytest.fixture(params=("tuple", "packed", "default"))
    def path(self, request, monkeypatch):
        if request.param != "default":
            monkeypatch.setattr(algebra, "PACKED_PAIRS",
                                10 ** 9 if request.param == "tuple" else 0)
        return request.param

    @pytest.fixture(params=sorted(WIDE_CASES), scope="class")
    def wide(self, request):
        """The signature, per shape in WIDE_SHAPES a pair (a, b) with its
        reference products a . b and b . a, and a seed for further draws."""
        ell1, ell2, gens, den = WIDE_CASES[request.param]
        sig = Signature(ell1, ell2, Lattice(ell1 + ell2, gens))
        assert sig.lattice.denominator == den
        rng = random.Random(sorted(WIDE_CASES).index(request.param))
        pairs = []
        for na, nb, level in WIDE_SHAPES:
            a = _wide_element(sig, rng, na, max_level=level)
            b = _wide_element(sig, rng, nb, max_level=level)
            pairs.append((a, b, _ref_mul(a, b), _ref_mul(b, a)))
        return sig, pairs, rng.randrange(10 ** 6)

    def test_product_bracket_and_term_order(self, wide, path):
        _, pairs, _ = wide
        for a, b, ab, ba in pairs:
            got = a * b
            _same(got, ab)
            assert list(got.num) == list(ab.num)
            diff = ab - ba
            _same(a.bracket(b), diff)
            _same(b.bracket(a), -diff)
            assert _oracle_agrees(path, a, b, got, a.bracket(b))

    def test_extreme_coordinates_fill_the_field(self, wide, path):
        """Terms at +2^40 and -2^40 in every slot: the products reach alpha
        = +-2^41 and the widest i and mu, the edges of the field range."""
        sig, _, seed = wide
        rng = random.Random(seed + 1)
        ell = sig.ell
        top_i = tuple(40 if p < sig.ell1 else 0 for p in range(ell))
        num = {}
        for sign in (1, -1):
            for p in range(ell):
                mu = unit_index(ell, p + 1, 8)
                num[Monomial((sign * 2 ** 40,) * ell, top_i, mu)] = F(sign, p + 2)
        a = Element(sig, num)
        b = a + _wide_element(sig, rng, 3)
        for x, y in ((a, a), (a, b), (b, a)):
            want, got = _ref_mul(x, y), x * y
            _same(got, want)
            assert list(got.num) == list(want.num)
            _same(x.bracket(y), want - _ref_mul(y, x))
            assert _oracle_agrees(path, x, y, got, x.bracket(y))

    def test_level_zero_left_and_fd_right_terms(self, wide, path):
        """Left terms with mu = 0 (the convolution) and right terms in F[D],
        which the bracket leaves out as lam = 0 terms, alone and mixed with
        general terms."""
        sig, _, seed = wide
        rng = random.Random(seed + 2)
        zero = (0,) * sig.ell
        in_A = _wide_element(sig, rng, 6, max_level=0)
        in_FD = Element(sig, {Monomial(zero, zero, m.mu): F(k + 1, 2)
                              for k, m in enumerate(_wide_element(sig, rng, 6, max_level=5).num)})
        assert in_A.in_A() and not any(any(m.alpha) or any(m.i) for m in in_FD.terms)
        general = _wide_element(sig, rng, 5, max_level=4)
        for a in (in_A, in_A + general, in_FD):
            for b in (in_FD, general + in_FD, in_A):
                ab, ba, got = _ref_mul(a, b), _ref_mul(b, a), a * b
                _same(got, ab)
                assert list(got.num) == list(ab.num)
                _same(a.bracket(b), ab - ba)
                assert _oracle_agrees(path, a, b, got, a.bracket(b))

    def test_single_field_wider_than_64_bits(self, wide, path):
        sig, _, seed = wide
        rng = random.Random(seed + 3)
        a = _wide_element(sig, rng, 6, coord=2 ** 66, max_i=3, max_level=3)
        b = _wide_element(sig, rng, 7, coord=2 ** 66, max_i=3, max_level=3)
        _same(a * b, _ref_mul(a, b))
        _same(a.bracket(b), _ref_mul(a, b) - _ref_mul(b, a))
        assert _oracle_agrees(path, a, b, a * b, a.bracket(b))

    def test_brackets_that_cancel(self, wide, path):
        sig, _, seed = wide
        rng = random.Random(seed + 4)
        zero = sig.zero()
        for n in (1, 6, 20):
            a = _wide_element(sig, rng, n)
            assert a.bracket(a) == zero
            for c in (sig.scalar(F(-7, 3)), sig.one()):
                assert c.bracket(a) == zero
                assert a.bracket(c) == zero
        assert zero.den == 1 and zero.num == {}

    def test_action_and_derivation_apply(self, wide, path):
        """Neither reads PACKED_PAIRS; on each kernel path the action must
        equal the mu = 0 part of the product w . a (its lam = mu terms)."""
        sig, _, seed = wide
        rng = random.Random(seed + 5)
        for nw, na in ((1, 1), (4, 4), (8, 6)):
            w = _wide_element(sig, rng, nw, max_level=4)
            a = _wide_element(sig, rng, na, max_level=0) + sig.scalar(F(5, 2))
            want = _ref_act_on_A(w, a)
            _same(act_on_A(w, a), want)
            product = (w * a).terms
            _same(Element(sig, {m: c for m, c in product.items() if not any(m.mu)}), want)
            lam = tuple(rng.randint(0, 2) for _ in range(sig.ell))
            d_lam = Element(sig, {Monomial((0,) * sig.ell, (0,) * sig.ell, lam): 1})
            _same(derivation_apply(sig, lam, a), _ref_act_on_A(d_lam, a))


@pytest.fixture(params=("tuple", "packed"))
def path(request, monkeypatch):
    """Each kernel path in turn, whatever the size of the product."""
    monkeypatch.setattr(algebra, "PACKED_PAIRS", 10 ** 9 if request.param == "tuple" else 0)
    return request.param


# (pairs, highest level) per fixture; a pair of level-2 elements already
# needs C(4 + l, l) probes, 70 at rank 4
ORACLE_DRAWS = {"desk": (100, 3), "rank3": (100, 2), "rank4": (40, 2)}


class TestOperatorOracle:
    """The kernel against the operator oracle of conftest, which decides a
    product or a bracket through the action on A alone, on both kernel
    paths."""

    @pytest.mark.parametrize("sig_name", sorted(ORACLE_DRAWS))
    def test_products_and_brackets(self, sig_name, path, request):
        sig = request.getfixturevalue(sig_name)
        pairs, level = ORACLE_DRAWS[sig_name]
        rng = random.Random(sorted(ORACLE_DRAWS).index(sig_name))
        for _ in range(pairs):
            a, b = (random_element(sig, rng, max_level=level) for _ in range(2))
            assert oracle_product_is(a, b, a * b)
            assert oracle_bracket_is(a, b, a.bracket(b))

    @pytest.mark.parametrize("sig_name", sorted(ORACLE_DRAWS))
    def test_every_one_coefficient_mutant_is_caught(self, sig_name, request):
        """Each term of a product or a bracket, moved by one or dropped, and
        one term added where there was none: the oracle refuses each."""
        sig = request.getfixturevalue(sig_name)
        _, level = ORACLE_DRAWS[sig_name]
        rng = random.Random(10 + sorted(ORACLE_DRAWS).index(sig_name))
        mutants = 0
        for _ in range(10):
            a, b = (random_element(sig, rng, max_level=level) for _ in range(2))
            for holds, c in ((oracle_product_is, a * b), (oracle_bracket_is, a.bracket(b))):
                terms = c.terms
                fresh = next(m for m in random_element(sig, rng, max_level=level).terms
                             if m not in terms)
                changed = [{**terms, fresh: Fraction(1)}]
                for m, q in terms.items():
                    changed.append({**terms, m: q + 1})
                    changed.append({k: v for k, v in terms.items() if k != m})
                for num in changed:
                    assert not holds(a, b, Element(sig, num)), num
                mutants += len(changed)
        assert mutants >= 100


class TestSharedKeyParts:
    """A result's keys share their parts: within one kernel call each
    distinct alpha, i and mu tuple is built once, on both kernel paths and in
    the action."""

    @pytest.mark.parametrize("sig_name", ["desk", "rank3", "rank4"])
    def test_products_and_brackets(self, sig_name, path, request):
        sig = request.getfixturevalue(sig_name)
        rng = random.Random(70)
        for _ in range(10):
            a, b = (random_element(sig, rng, max_terms=4, max_level=2) for _ in range(2))
            for got in (a * b, a.bracket(b), (a * b) * (b * a)):
                assert key_parts_shared(got)

    @pytest.mark.parametrize("sig_name", ["desk", "rank3", "rank4"])
    def test_action_of_many_in_one_pass(self, sig_name, request):
        sig = request.getfixturevalue(sig_name)
        rng = random.Random(71)
        ws = [random_element(sig, rng, max_terms=4, max_level=2) for _ in range(3)]
        a = random_element(sig, rng, max_terms=5, max_level=0)
        for got in act_each_on_A(ws, a):
            assert key_parts_shared(got)


def _cold(sig):
    """An equal signature with its own, empty d^lam cache."""
    return Signature(sig.ell1, sig.ell2, sig.lattice)


def _cache_size(sig) -> int:
    return sum(len(tables) for _, _, tables in sig._tables.entries.values())


def _fill_until_evicted(sig):
    """Act with every d^mu, |mu| <= 4, on batches of right factors the cache
    has never seen, until it empties once; it never holds more than its
    bound meanwhile."""
    zero = (0,) * sig.ell
    w = Element(sig, {Monomial(zero, zero, mu): 1
                      for mu in cartesian(range(5), repeat=sig.ell) if sum(mu) <= 4})
    start = sig._tables.entries
    for batch in range(algebra.D_LAM_TABLES):
        a = Element(sig, {Monomial((1000 + 40 * batch + k,) + (7,) * (sig.ell - 1),
                                   tuple(k % 3 if p < sig.ell1 else 0 for p in range(sig.ell)),
                                   zero): 1 for k in range(40)})
        act_each_on_A([w], a)
        assert sig._tables.size <= algebra.D_LAM_TABLES
        assert _cache_size(sig) <= sig._tables.size
        if sig._tables.entries is not start:
            return
    pytest.fail("the cache never emptied")


def _ref_sigma1(w):
    """apply_sigma1 on the Fraction reference: the sum of
    -(-1)^|mu| c d^mu . x^{al,i} over the terms c x^{al,i} d^mu of w."""
    sig, zero = w.signature, (0,) * w.signature.ell
    out = sig.zero()
    for (al, i, mu), c in w.terms.items():
        d_mu = Element(sig, {Monomial(zero, zero, mu): c if sum(mu) % 2 else -c})
        out = out + _ref_mul(d_mu, Element(sig, {Monomial(al, i, zero): 1}))
    return out


class TestTableCache:
    """The d^lam tables shared by every kernel call on one Signature: a
    bounded cache whose state never shows in a result."""

    def test_never_holds_more_than_its_bound(self, desk):
        sig = _cold(desk)
        _fill_until_evicted(sig)
        assert _cache_size(sig) <= sig._tables.size <= algebra.D_LAM_TABLES

    def test_signatures_keep_their_value_semantics(self, desk):
        sig = _cold(desk)
        _fill_until_evicted(sig)
        assert sig == desk and hash(sig) == hash(desk) and repr(sig) == repr(desk)
        assert sig.to_dict() == desk.to_dict()

    @pytest.mark.parametrize("sig_name", ["desk", "rank3", "rank4"])
    def test_cold_warm_and_evicted_caches_agree(self, sig_name, path, request, monkeypatch):
        """Products, brackets, act_each_on_A and apply_sigma1 on a cold cache,
        checked against the oracles, then repeated on the warm cache, after
        an eviction and with a bound of two tables, which empties the cache
        inside every call: equal Elements with the same term order."""
        sig = _cold(request.getfixturevalue(sig_name))
        rng = random.Random(70 + sorted(ORACLE_DRAWS).index(sig_name))
        pairs = [tuple(random_element(sig, rng, max_terms=6, max_level=2) for _ in range(2))
                 for _ in range(4)]
        targets = [random_element(sig, rng, max_terms=4, max_level=0) for _ in range(3)]
        ws = [a for a, _ in pairs]

        def run():
            out = []
            for a, b in pairs:
                out += [a * b, a.bracket(b), apply_sigma1(sig, a)]
            for x in targets:
                out += act_each_on_A(ws, x)
            return out

        cold = run()
        for k, (a, b) in enumerate(pairs):
            ab, bracket, twisted = cold[3 * k:3 * k + 3]
            assert oracle_product_is(a, b, ab)
            assert oracle_bracket_is(a, b, bracket)
            _same(twisted, _ref_sigma1(a))
        acted = iter(cold[3 * len(pairs):])
        for x in targets:
            for w in ws:
                got, wx = next(acted), w * x
                assert oracle_product_is(w, x, wx)
                _same(got, Element(sig, {m: c for m, c in wx.terms.items() if not any(m.mu)}))
        warm = run()
        _fill_until_evicted(sig)
        evicted = run()
        monkeypatch.setattr(algebra, "D_LAM_TABLES", 2)
        tiny = run()
        for results in (warm, evicted, tiny):
            assert results == cold
            assert [list(e.num) for e in results] == [list(e.num) for e in cold]

    def test_consumers_leave_tables_unchanged(self, rank3):
        """Snapshot the cache, run products, brackets, actions, the twist and
        normal-form applies on both kernel paths: every table is an
        immutable tuple, and each snapshot table, whether still cached or
        since evicted, is still the one its {lam: table} holds."""
        sig = _cold(rank3)
        rng = random.Random(80)
        draw = [random_element(sig, rng, max_terms=8, max_level=3) for _ in range(6)]
        for a, b in zip(draw, draw[1:]):
            a * b, a.bracket(b), apply_sigma1(sig, a)
        snapshot = {(key, lam): (tables, table)
                    for key, (_, _, tables) in sig._tables.entries.items()
                    for lam, table in tables.items()}
        assert snapshot
        nf = random_normal_form_aut(sig, rng)
        for a in draw + [random_element(sig, rng, max_terms=2, max_level=3) for _ in range(6)]:
            for b in draw:
                a * b, a.bracket(b), b * a
            apply_sigma1(sig, a)
            nf.apply(a)
            act_each_on_A(draw, random_element(sig, rng, max_terms=5, max_level=0))
        for (_, lam), (tables, table) in snapshot.items():
            assert tables[lam] is table
        for key, (_, _, tables) in sig._tables.entries.items():
            for lam, table in tables.items():
                assert type(table) is tuple and all(type(pair) is tuple for pair in table)
                if (key, lam) in snapshot:
                    assert table is snapshot[key, lam][1]


class TestBracket:
    def test_derivation_against_lattice_point(self, desk):
        alpha = (Fraction(1, 2), Fraction(3, 2))
        for p in (1, 2):
            out = desk.d(p).bracket(desk.x(alpha))
            assert out == desk.x(alpha, coeff=alpha[p - 1])

    def test_alternating(self, desk):
        rng = random.Random(2)
        for _ in range(20):
            w = random_element(desk, rng)
            assert w.bracket(w).is_zero

    def test_polynomial_pairing(self, w10):
        assert w10.d(1).bracket(w10.x_poly(1)) == w10.one()

    def test_jacobi_sample(self, desk):
        rng = random.Random(3)
        zero = desk.zero()
        for _ in range(25):
            a, b, c = (random_element(desk, rng) for _ in range(3))
            total = (a.bracket(b.bracket(c)) + b.bracket(c.bracket(a))
                     + c.bracket(a.bracket(b)))
            assert total == zero

    def test_scalars_central(self, desk):
        rng = random.Random(4)
        c = desk.scalar(Fraction(7, 3))
        for _ in range(10):
            w = random_element(desk, rng)
            assert c.bracket(w).is_zero


class TestActOnA:
    def test_shifted_grading(self, w01):
        w = w01.x((2,)) * w01.d(1)
        out = act_on_A(w, w01.x((3,)))
        assert out == w01.x((5,), coeff=3)

    def test_identity_acts_trivially(self, desk):
        rng = random.Random(5)
        for _ in range(10):
            a = random_element(desk, rng, max_level=0)
            assert act_on_A(desk.one(), a) == a

    def test_vandermonde_value(self, w01):
        u = w01.d(1, 2) - w01.d(1)
        out = act_on_A(u, w01.x((2,)))
        assert out == w01.x((2,), coeff=2)

    def test_action_is_homomorphism(self, desk):
        rng = random.Random(6)
        for _ in range(15):
            w1 = random_element(desk, rng)
            w2 = random_element(desk, rng)
            a = random_element(desk, rng, max_level=0)
            assert act_on_A(w1 * w2, a) == act_on_A(w1, act_on_A(w2, a))

    def test_rejects_derivation_part(self, desk):
        with pytest.raises(NotInA):
            act_on_A(desk.one(), desk.d(1))


class TestFiltrationData:
    def test_level(self, w01):
        w = w01.x((1,)) * w01.d(1, 2) + w01.d(1)
        assert filtration_data(w).level == 2

    def test_zero_sentinels(self, desk):
        data = filtration_data(desk.zero())
        assert data == (None, None, None)

    def test_componentwise_polynomial_max(self, z2):
        w = (z2.x((1, 0), i=(2, 0)) * z2.d(1)) + z2.x((0, 1), i=(1, 0))
        assert filtration_data(w).i_degree == (2, 0)

    def test_gamma_degree_is_lex_max_of_coordinates(self, desk):
        w = desk.x((1, 0)) + desk.x((Fraction(1, 2), Fraction(1, 2)))
        assert filtration_data(w).gamma_degree == desk.lattice.coordinates((1, 0))

    def test_bracket_filtration_laws(self, desk):
        rng = random.Random(9)
        seen = 0
        for _ in range(60):
            w1, w2 = random_element(desk, rng), random_element(desk, rng)
            br = w1.bracket(w2)
            if br.is_zero:
                continue
            seen += 1
            d1, d2, db = filtration_data(w1), filtration_data(w2), filtration_data(br)
            assert db.gamma_degree <= tuple(a + b for a, b in
                                            zip(d1.gamma_degree, d2.gamma_degree))
            if d1.level >= 1 and d2.level >= 1:
                assert db.level <= d1.level + d2.level - 1
        assert seen > 30

    def test_polynomial_filtration_law(self, desk):
        # [d^mu, x^i] only produces strictly smaller polynomial indices
        rng = random.Random(10)
        for _ in range(30):
            mu = (rng.randint(0, 3), rng.randint(0, 3))
            i = (rng.randint(1, 3), 0)
            br = desk.monomial(mu=mu).bracket(desk.monomial(i=i))
            for m in br.terms:
                assert (sum(m.i), m.i) < (sum(i), i)


class TestElementBasics:
    def test_zero_coefficients_pruned(self, desk):
        e = desk.x((1, 0)) - desk.x((1, 0))
        assert e.is_zero
        assert e.terms == {}

    def test_monomial_outside_j1_rejected(self, desk):
        with pytest.raises(DimensionMismatch):
            desk.monomial(i=(0, 1))

    def test_alpha_outside_lattice_rejected(self, desk):
        with pytest.raises(NotMember):
            desk.x((Fraction(1, 3), 0))

    def test_scalar_division(self, desk):
        assert desk.d(1) / 2 == desk.d(1, coeff=Fraction(1, 2))

    @pytest.mark.parametrize("name", ["desk", "rank3"])
    def test_generators_skip_coordinates(self, name, request, monkeypatch):
        # alpha = 0 has zero coordinates in every lattice; no solve is needed
        sig = request.getfixturevalue(name)
        zero = (0,) * sig.ell

        def no_solve(self, v):
            raise AssertionError("coordinates solved for alpha = 0")

        monkeypatch.setattr(type(sig.lattice), "coordinates", no_solve)
        for k in (1, 3):
            for q in range(1, sig.ell + 1):
                expected = Element(sig, {Monomial(zero, zero, unit_index(sig.ell, q, k)): 2})
                assert sig.d(q, k, coeff=2) == expected
            for p in range(1, sig.ell1 + 1):
                expected = Element(sig, {Monomial(zero, unit_index(sig.ell, p, k), zero): 1})
                assert sig.x_poly(p, k) == expected


class TestElementJson:
    def test_round_trip_bit_exact(self, desk):
        rng = random.Random(11)
        for _ in range(25):
            e = random_element(desk, rng)
            blob = json.dumps(element_to_dict(e))
            back = element_from_dict(json.loads(blob))
            assert back == e
            assert json.dumps(element_to_dict(back)) == blob

    def test_terms_serialized_in_canonical_order(self, desk):
        e = desk.d(2) + desk.d(1) + desk.x((1, 0))
        data = element_to_dict(e)
        keys = [(tuple(t["alpha"]), tuple(t["i"]), tuple(t["mu"])) for t in data["terms"]]
        assert keys == sorted(keys, key=lambda k: (
            tuple(desk.lattice.coordinates([Fraction(x) if "/" not in x else
                                            Fraction(int(x.split("/")[0]), int(x.split("/")[1]))
                                            for x in k[0]])),
            (sum(k[1]), k[1]), (sum(k[2]), k[2])))

    def test_alpha_serialized_as_ambient_strings(self, desk):
        e = desk.x((Fraction(1, 2), Fraction(1, 2)))
        data = element_to_dict(e)
        assert data["terms"][0]["alpha"] == ["1/2", "1/2"]
        assert data["terms"][0]["coeff"] == "1"


class TestReorderingIdentity:
    def test_exhaustive_small_levels(self, desk):
        # sum over lam <= mu of binom(mu,lam) (-d)^(mu-lam) . d^lam(x) = x (-d)^mu
        rng = random.Random(12)
        zero = (0, 0)
        mus = [mu for mu in cartesian(range(3), repeat=2) if sum(mu) <= 2]
        for mu in mus:
            for _ in range(5):
                probe = random_element(desk, rng, max_terms=1, max_level=0)
                ((mono, _),) = probe.terms.items()
                probe = Element(desk, {mono: Fraction(1)})
                lhs = desk.zero()
                for lam in cartesian(range(mu[0] + 1), range(mu[1] + 1)):
                    rest = (mu[0] - lam[0], mu[1] - lam[1])
                    sign = Fraction((-1) ** sum(rest))
                    d_rest = Element(desk, {Monomial(zero, zero, rest): sign})
                    lhs = lhs + (d_rest * derivation_apply(desk, lam, probe)).scale(
                        multi_binomial(mu, lam))
                minus_d = Element(desk, {Monomial(zero, zero, mu):
                                         Fraction((-1) ** sum(mu))})
                assert lhs == probe * minus_d


def test_unit_index_helper():
    assert unit_index(3, 2) == (0, 1, 0)
    assert unit_index(2, 1, 5) == (5, 0)
