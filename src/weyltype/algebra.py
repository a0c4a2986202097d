"""The Weyl-type algebra W(l1, l2, Gamma): monomials, sparse elements, product.

Basis symbols are x^{alpha,i} d^mu with alpha a lattice point, i a polynomial
multi-index supported on the first l1 slots, and mu a derivation multi-index.
Elements are sparse rational linear combinations keyed by
(alpha-coordinates, i, mu); the alpha key holds integer coordinates with
respect to the lattice's canonical basis, so term keys are pure integer data.

The product is the bilinear extension of

    u d^mu . v d^nu = sum_lam binom(mu, lam) u d^lam(v) d^{mu+nu-lam}

with d_p acting on the commutative part as grading by the p-th ambient
coordinate plus, for p <= l1, lowering of the polynomial index.

An element is stored as integer numerators over one positive denominator,
with no common factor, so the stored form is canonical and equality is
plain data equality.  ``Element(sig, terms)`` is the validated constructor
taking rational coefficients, and ``Element.terms`` builds the Fraction view
on each read; ``Fraction`` is the type at the API boundary only.

The product runs on integers. Grading eigenvalues lie in (1/D)Z with
D = lattice.denominator, so the d^lam tables hold numerators over D^|lam|
and every coefficient of a . b is an integer over a.den * b.den * D^top,
where top is the highest level in a.  The action on A and
derivation_apply are the level-0 part of the same kernel.

A left term with mu = 0 needs no Leibniz sum: u . v d^nu = (uv) d^nu, so
the kernel attaches it by a plain convolution of numerators (``_convolve``),
the same loop the homomorphic extension of ``automorphisms`` uses.  A right
term in F[D] is the mirror case, u d^mu . d^nu = u d^{mu+nu}, which makes
every product of derivation polynomials a plain convolution.  The
bracket runs a . b and b . a, the latter with the opposite sign, in one
pass over one numerator dict over a.den * b.den * D^max(top_a, top_b).
Their lam = 0 terms, u v d^{mu+nu} in both orders, cancel exactly, so the
bracket leaves out every lam = 0 contribution: the convolutions of mu = 0
left terms, the attachment of F[D] right terms and the lam = 0 Leibniz term.

Large products run on packed keys (Monagan and Pearce's packed exponent
vectors).  A monomial becomes one integer, its 3l fields (alpha + bias, i,
mu) side by side in bit fields of one width, set per call so that every
output field fits: with h the largest |entry| of the two inputs, output
entries lie in [-2h, 2h], so the bias is 2h and the width the bit length of
4h.  The output key of a Leibniz term is then key(a-term) + key(b-term) -
key(lam) + the packed lowering of i, one integer add, and the sum is one
update of an int-keyed dict; each right term's d^lam tables are packed once
per call and each distinct mu of the left factor gets one plan of
(binom(mu, lam) * D^(top-|lam|), packed table) steps.  A Monomial is decoded
once per distinct output term.  The packed and tuple paths visit the terms
in the same order, so they give the same Element with the same term order;
a product whose term pairs (|a| * |b|, twice for a bracket) number fewer
than ``PACKED_PAIRS`` keeps the tuple path, where packing and decoding cost
more than they save.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, islice, product as _cartesian
from math import comb, gcd, lcm, prod
from operator import add, lshift, sub
from typing import NamedTuple

from .errors import (
    DimensionMismatch,
    NotInA,
    NotMember,
    SignatureMismatch,
)
from .lattice import Lattice
from .rationals import (as_fraction, int_from_json, list_from_json, object_from_json, point_str,
                        rational_from_json, rational_str)


# ---------------------------------------------------------------------------
# multi-indices
# ---------------------------------------------------------------------------

def multi_binomial(mu, nu) -> int:
    """Product of componentwise binomials; 0 as soon as some nu_p > mu_p."""
    if len(mu) != len(nu):
        raise DimensionMismatch("multi-indices of different length")
    out = 1
    for m, n in zip(mu, nu):
        if n < 0 or n > m:
            return 0
        out *= comb(m, n)
    return out


def multi_index_key(mu):
    """Sort key realizing the level-then-lexicographic total order."""
    return (sum(mu), tuple(mu))


def total_order_cmp(mu, nu) -> int:
    """-1, 0 or 1 according to the level-first total order on multi-indices."""
    if len(mu) != len(nu):
        raise DimensionMismatch("multi-indices of different length")
    a, b = multi_index_key(mu), multi_index_key(nu)
    return (a > b) - (a < b)


def alternating_binomial_sum(mu, nu) -> int:
    """sum over lam <= mu of (-1)^|lam| binom(mu, nu-lam) binom(mu+lam-nu, lam).

    Evaluates to 1 when nu = 0 and to 0 otherwise; the tests check that
    instead of assuming it.
    """
    if len(mu) != len(nu):
        raise DimensionMismatch("multi-indices of different length")
    total = 0
    for lam in _bounded_multi_indices(mu):
        first = multi_binomial(mu, tuple(n - l for n, l in zip(nu, lam)))
        if first == 0:
            continue
        second = multi_binomial(tuple(m + l - n for m, l, n in zip(mu, lam, nu)), lam)
        if second == 0:
            continue
        total += (-1) ** sum(lam) * first * second
    return total


def _bounded_multi_indices(bound):
    """All multi-indices lam with 0 <= lam <= bound componentwise."""
    return _cartesian(*(range(b + 1) for b in bound))


def unit_index(ell: int, p: int, value: int = 1) -> tuple[int, ...]:
    """The multi-index with ``value`` in 1-based slot p and zeros elsewhere."""
    out = [0] * ell
    out[p - 1] = value
    return tuple(out)


# ---------------------------------------------------------------------------
# signature and monomials
# ---------------------------------------------------------------------------

class Monomial(NamedTuple):
    alpha: tuple[int, ...]  # coordinates w.r.t. the canonical lattice basis
    i: tuple[int, ...]      # polynomial part, zero past slot l1
    mu: tuple[int, ...]     # derivation exponents


def monomial_sort_key(m: Monomial):
    return (m.alpha, multi_index_key(m.i), multi_index_key(m.mu))


@dataclass(frozen=True)
class Signature:
    """The triple (l1, l2, Gamma) identifying one algebra."""

    ell1: int
    ell2: int
    lattice: Lattice

    def __post_init__(self):
        if self.ell1 < 0 or self.ell2 < 0 or self.ell1 + self.ell2 < 1:
            raise DimensionMismatch("need l1, l2 >= 0 with l1 + l2 >= 1")
        if self.lattice.ambient_dim != self.ell1 + self.ell2:
            raise DimensionMismatch("lattice ambient dimension must equal l1 + l2")

    @property
    def ell(self) -> int:
        return self.ell1 + self.ell2

    def check_monomial(self, m: Monomial):
        ell = self.ell
        if len(m.alpha) != ell or len(m.i) != ell or len(m.mu) != ell:
            raise DimensionMismatch(
                f"monomial with {self._monomial_text(m)} does not match l = {ell}")
        if any(x < 0 for x in m.i) or any(x < 0 for x in m.mu):
            raise ValueError(f"negative exponent in the monomial with {self._monomial_text(m)}")
        if any(m.i[p] for p in range(self.ell1, ell)):
            raise DimensionMismatch(f"polynomial index of the monomial with "
                                    f"{self._monomial_text(m)} extends past slot {self.ell1}")

    def _monomial_text(self, m: Monomial) -> str:
        """alpha as a lattice point (its coordinates if their count is off), i and mu."""
        if len(m.alpha) == self.ell:
            alpha = point_str(self.lattice.ambient(m.alpha))
        else:
            alpha = f"at lattice coordinates {point_str(m.alpha)}"
        return f"alpha {alpha}, i {point_str(m.i)}, mu {point_str(m.mu)}"

    # -- element constructors ------------------------------------------------

    def zero(self) -> "Element":
        return _from_ints(self, 1, {})

    def one(self) -> "Element":
        z = (0,) * self.ell
        return _from_ints(self, 1, {Monomial(z, z, z): 1})

    def scalar(self, c) -> "Element":
        z = (0,) * self.ell
        c = as_fraction(c)
        return _from_ints(self, c.denominator, {Monomial(z, z, z): c.numerator})

    def monomial(self, alpha=None, i=None, mu=None, coeff=1) -> "Element":
        """Build coeff * x^{alpha,i} d^mu from an ambient lattice point alpha."""
        ell = self.ell
        coords = (0,) * ell if alpha is None else self.lattice.coordinates(alpha)
        if coords is None:
            raise NotMember(f"{point_str(alpha)} is not a point of the lattice")
        i = tuple(i) if i is not None else (0,) * ell
        mu = tuple(mu) if mu is not None else (0,) * ell
        m = Monomial(coords, i, mu)
        self.check_monomial(m)
        coeff = as_fraction(coeff)
        return _from_ints(self, coeff.denominator, {m: coeff.numerator})

    def x(self, alpha, i=None, coeff=1) -> "Element":
        return self.monomial(alpha=alpha, i=i, coeff=coeff)

    def d(self, q: int, power: int = 1, coeff=1) -> "Element":
        """The derivation generator d_q (1-based), raised to ``power``."""
        if not 1 <= q <= self.ell:
            raise DimensionMismatch(f"derivation index {q} outside 1..{self.ell}")
        return self.monomial(mu=unit_index(self.ell, q, power), coeff=coeff)

    def x_poly(self, p: int, power: int = 1, coeff=1) -> "Element":
        """The polynomial generator x^{1_[p]} (1-based p <= l1), raised to ``power``."""
        if not 1 <= p <= self.ell1:
            raise DimensionMismatch(f"polynomial index {p} outside 1..{self.ell1}")
        return self.monomial(i=unit_index(self.ell, p, power), coeff=coeff)

    def to_dict(self) -> dict:
        return {"ell1": self.ell1, "ell2": self.ell2, "lattice": self.lattice.to_dict()}

    @classmethod
    def from_dict(cls, data: dict) -> "Signature":
        data = object_from_json(data, "signature")
        return cls(int_from_json(data["ell1"], "ell1"), int_from_json(data["ell2"], "ell2"),
                   Lattice.from_dict(data["lattice"]))


# ---------------------------------------------------------------------------
# elements
# ---------------------------------------------------------------------------

class Element:
    """A sparse rational combination of basis monomials of one algebra.

    Stored as integer numerators ``num`` ({Monomial: nonzero int}) over one
    positive denominator ``den`` with gcd(den, *num.values()) == 1: the
    coefficient of m is num[m] / den.  The form is canonical, so equality
    compares (signature, den, num).  ``terms`` is the Fraction view.
    """

    __slots__ = ("signature", "den", "num")

    def __init__(self, signature: Signature, terms):
        """The validated constructor: every coefficient goes through
        ``as_fraction`` and every monomial through ``check_monomial``."""
        coeffs = {}
        for m, c in terms.items():
            c = as_fraction(c)
            if c == 0:
                continue
            if not isinstance(m, Monomial):
                m = Monomial(tuple(m[0]), tuple(m[1]), tuple(m[2]))
            signature.check_monomial(m)
            coeffs[m] = c
        den = lcm(*(c.denominator for c in coeffs.values()))
        self.signature = signature
        self.den = den
        self.num = {m: c.numerator * (den // c.denominator) for m, c in coeffs.items()}

    # -- basics ---------------------------------------------------------------

    @property
    def terms(self) -> dict:
        """{monomial: Fraction coefficient}, built on each read; changing the
        returned dict leaves the element unchanged."""
        den = self.den
        return {m: Fraction(n, den) for m, n in self.num.items()}

    @property
    def is_zero(self) -> bool:
        return not self.num

    def __bool__(self) -> bool:
        return bool(self.num)

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: monomial_sort_key(kv[0]))

    def _require_same(self, other: "Element"):
        if self.signature != other.signature:
            raise SignatureMismatch("elements belong to different algebras")

    def __eq__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        return (self.den == other.den and self.num == other.num
                and self.signature == other.signature)

    def _combine(self, other: "Element", sign: int) -> "Element":
        """self + sign * other over the least common denominator."""
        self._require_same(other)
        g = gcd(self.den, other.den)
        fa, fb = other.den // g, sign * (self.den // g)
        out = dict(self.num) if fa == 1 else {m: n * fa for m, n in self.num.items()}
        for m, n in other.num.items():
            out[m] = out.get(m, 0) + n * fb
        return _from_ints(self.signature, self.den * fa, out)

    def __add__(self, other: "Element") -> "Element":
        return self._combine(other, 1)

    def __sub__(self, other: "Element") -> "Element":
        return self._combine(other, -1)

    def __neg__(self) -> "Element":
        return _from_ints(self.signature, self.den, {m: -n for m, n in self.num.items()})

    def scale(self, c) -> "Element":
        c = as_fraction(c)
        p = c.numerator
        return _from_ints(self.signature, self.den * c.denominator,
                          {m: n * p for m, n in self.num.items()})

    def __mul__(self, other):
        if isinstance(other, Element):
            return _mul_elements(self, other)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def __truediv__(self, other):
        return self.scale(Fraction(1) / as_fraction(other))

    def bracket(self, other: "Element") -> "Element":
        """The commutator self . other - other . self, in one kernel pass."""
        return _mul_elements(self, other, bracket=True)

    # -- structure queries ------------------------------------------------------

    def max_level(self):
        return max((sum(m.mu) for m in self.num), default=None)

    def in_A(self) -> bool:
        return not any(any(m.mu) for m in self.num)

    def in_FD(self) -> bool:
        return not any(any(m.alpha) or any(m.i) for m in self.num)

    def constant_coefficient(self) -> Fraction:
        z = (0,) * self.signature.ell
        return Fraction(self.num.get(Monomial(z, z, z), 0), self.den)

    def without_constant(self) -> "Element":
        z = (0,) * self.signature.ell
        out = dict(self.num)
        out.pop(Monomial(z, z, z), None)
        return _from_ints(self.signature, self.den, out)

    def __repr__(self):
        if self.is_zero:
            return "Element(0)"
        bits = []
        for m, c in self.sorted_terms():
            bits.append(f"{rational_str(c)}*x{m.alpha}{m.i}d{m.mu}")
        return "Element(" + " + ".join(bits) + ")"


def _from_ints(sig: Signature, den: int, num: dict) -> Element:
    """The element with coefficients num[m] / den for a positive int den:
    zero numerators dropped and the common factor divided out, with no
    per-term check and no Fraction.  Term order is kept."""
    num = {m: n for m, n in num.items() if n}
    g = gcd(den, *num.values())
    if g != 1:
        den //= g
        num = {m: n // g for m, n in num.items()}
    e = object.__new__(Element)
    e.signature = sig
    e.den = den
    e.num = num
    return e


# ---------------------------------------------------------------------------
# derivation actions and the product
# ---------------------------------------------------------------------------

def _d_lam(sig: Signature, memo: dict, grade, i0, lam) -> dict:
    """d^lam(x^{al,i0}) as {i: n}, the coefficient of x^{al,i} being n / D^|lam|.

    With ``grade`` = D * ambient(al), d_p multiplies n by grade[p] and lowers
    i_p with the factor i_p * D.  ``memo`` holds the tables of this one
    x^{al,i0}, keyed by lam."""
    table = memo.get(lam)
    if table is not None:
        return table
    if not any(lam):
        table = {i0: 1}
    else:
        p = next(idx for idx, v in enumerate(lam) if v)
        prev = _d_lam(sig, memo, grade, i0, lam[:p] + (lam[p] - 1,) + lam[p + 1:])
        g, lowers, D = grade[p], p < sig.ell1, sig.lattice.denominator
        table = {}
        for i, n in prev.items():
            if g:
                table[i] = table.get(i, 0) + n * g
            if lowers and i[p]:
                low = i[:p] + (i[p] - 1,) + i[p + 1:]
                table[low] = table.get(low, 0) + n * i[p] * D
        table = {i: n for i, n in table.items() if n}
    memo[lam] = table
    return table


def _convolve(out: dict, al, i, n: int, terms) -> None:
    """Add n * x^{al,i} . t for every (t, n_t) in ``terms`` to ``out``.

    Left multiplication by an element of A has no Leibniz part:
    x^{al,i} . x^{al2,i2} d^mu = x^{al+al2, i+i2} d^mu, so the numerators
    just multiply.  The product kernel and ``_hom_extend`` both attach
    their A-parts through this one loop."""
    for (al2, i2, mu2), n2 in terms:
        key = Monomial(tuple(map(add, al, al2)), tuple(map(add, i, i2)), mu2)
        out[key] = out.get(key, 0) + n * n2


def _right_term(sig: Signature, memo: dict, al, i, top: int, action: bool) -> tuple:
    """(grade, caps, d^lam tables) of a right factor x^{al,i} outside F[D].

    ``memo`` maps (al, i) to the tables shared by both passes of a bracket.
    d_p^k(x^{al,i}) vanishes past the polynomial index when the grading
    eigenvalue is zero, so the expansion is capped there (the action takes
    lam = mu alone and needs no caps)."""
    grade = sig.lattice.grades(al)
    caps = None if action else tuple(top if g else (i[p] if p < sig.ell1 else 0)
                                     for p, g in enumerate(grade))
    return grade, caps, memo.setdefault((al, i), {})


def _accumulate(out: dict, memo: dict, sig: Signature, a_num: dict, b_num: dict,
                powers: list, action: bool, bracket: bool, scale: int = 1) -> None:
    """Add scale * a . b, or with ``action`` its level-0 part, to ``out`` as
    numerators over D^top (top = len(powers) - 1, at least the level of a).

    A left term with mu = 0 is a convolution; the others run the Leibniz
    sum, each lam scaled by binom(mu, lam) * D^(top - |lam|).  A right term
    in F[D] (alpha = 0, i = 0) is the mirror case: d^lam kills it unless
    lam = 0, so x^{al,i} d^mu . d^nu = x^{al,i} d^{mu+nu} is attached
    directly, without grades, caps or d^lam tables, and in action mode it
    contributes nothing.  With ``bracket`` every lam = 0 term is left out,
    the two cases above included, since those cancel between a . b and
    b . a."""
    top = len(powers) - 1
    b_terms = None
    for (al1, i1, mu1), n1 in a_num.items():
        n1 *= scale
        if not any(mu1):
            if not bracket:
                _convolve(out, al1, i1, n1 * powers[top], b_num.items())
            continue
        if b_terms is None:
            b_terms = []
            for (al, i, mu), n in b_num.items():
                if not any(al) and not any(i):
                    if not (action or bracket):
                        b_terms.append((al, i, mu, n, None, None, None))
                    continue
                b_terms.append((al, i, mu, n, *_right_term(sig, memo, al, i, top, action)))
        for al2, i2, mu2, n2, grade, caps, tables in b_terms:
            mu12 = tuple(map(add, mu1, mu2))
            n12 = n1 * n2
            if grade is None:
                key = Monomial(al1, i1, mu12)
                out[key] = out.get(key, 0) + n12 * powers[top]
                continue
            alpha = tuple(map(add, al1, al2))
            if action:
                lams = (mu1,)
            else:
                lams = islice(_bounded_multi_indices(map(min, mu1, caps)), bracket, None)
            for lam in lams:
                table = _d_lam(sig, tables, grade, i2, lam)
                if not table:
                    continue
                mu_out = tuple(map(sub, mu12, lam))
                base = n12 * prod(map(comb, mu1, lam)) * powers[top - sum(lam)]
                for i, n in table.items():
                    key = Monomial(alpha, tuple(map(add, i1, i)), mu_out)
                    out[key] = out.get(key, 0) + base * n


def _packed_accumulate(out: dict, memo: dict, sig: Signature, a_num: dict, b_num: dict,
                       powers: list, action: bool, bracket: bool, shifts: range, bias: int,
                       scale: int = 1) -> None:
    """``_accumulate`` on packed keys: ``out`` maps packed monomials to numerators.

    A monomial packs to sum(v << s) over its fields (alpha, i, mu) and the
    field offsets ``shifts``; left keys carry ``bias`` in every alpha field.
    Each right term's d^lam tables are packed once, as (packed
    x^{al2,i} d^{mu2-lam}, n2 * n), and each distinct mu1 gets one plan, the
    (binom(mu1, lam) * D^(top-|lam|), packed table) of each right term and
    lam.  A left term adds its key to the offsets of its plan, in the order
    of the tuple path."""
    ell = sig.ell
    top = len(powers) - 1
    i_shifts, mu_shifts = shifts[ell:2 * ell], shifts[2 * ell:]
    right = [(sum(map(lshift, chain(*m), shifts)), n, m) for m, n in b_num.items()]
    prepared: list = []
    plans: dict = {}

    def plan_for(mu1) -> list:
        """[(factor, packed table), ...] over the right terms and lams for mu1."""
        if not any(mu1):
            return [] if bracket else [(powers[top], ((k2, n2),)) for k2, n2, _ in right]
        if not prepared:
            for k2, n2, (al2, i2, _) in right:
                if not any(al2) and not any(i2):
                    prepared.append((k2, n2, None, None, None, None, None))
                else:
                    prepared.append((k2 - sum(map(lshift, i2, i_shifts)), n2, i2,
                                     *_right_term(sig, memo, al2, i2, top, action), {}))
        plan = []
        lam_lists: dict = {}
        for k2, n2, i2, grade, caps, tables, packed in prepared:
            if grade is None:
                if not (bracket or action):
                    plan.append((powers[top], ((k2, n2),)))
                continue
            if action:
                lams = ((mu1, powers[top - sum(mu1)]),)
            else:
                lams = lam_lists.get(caps)
                if lams is None:
                    lams = lam_lists[caps] = [
                        (lam, prod(map(comb, mu1, lam)) * powers[top - sum(lam)])
                        for lam in _bounded_multi_indices(map(min, mu1, caps))][bracket:]
            for lam, f in lams:
                table = packed.get(lam)
                if table is None:
                    base = k2 - sum(map(lshift, lam, mu_shifts))
                    table = packed[lam] = [
                        (base + sum(map(lshift, i, i_shifts)), n2 * n)
                        for i, n in _d_lam(sig, tables, grade, i2, lam).items()]
                plan.append((f, table))
        return plan

    get = out.get
    for m, n1 in a_num.items():
        k1 = sum(map(lshift, chain(*m), shifts)) + bias
        n1 *= scale
        plan = plans.get(m.mu)
        if plan is None:
            plan = plans[m.mu] = plan_for(m.mu)
        for f, table in plan:
            f *= n1
            for off, n in table:
                k = k1 + off
                out[k] = get(k, 0) + f * n


# Term pairs a kernel call visits (|a| * |b|, twice for a bracket) from which
# it runs on packed keys.  Below this the per-call packing and decoding cost
# more than they save: on the desk selftest's calls (CPython 3.11) the packed
# path takes about 2x the tuple path's time at 1-3 pairs, breaks even near
# 24-48 pairs for a product and half that for a bracket, and takes about half
# the time past 48.
PACKED_PAIRS = 32


def _mul_elements(a: Element, b: Element, action: bool = False,
                  bracket: bool = False) -> Element:
    """a . b; with ``action`` (b in A) its level-0 part, the lam = mu terms,
    which make up the action of a on b; with ``bracket`` a . b - b . a in one
    pass, over a.den * b.den * D^max(top_a, top_b) and with one d^lam memo."""
    a._require_same(b)
    sig = a.signature
    if not a.num or not b.num:
        return sig.zero()
    top = max(a.max_level(), b.max_level()) if bracket else a.max_level()
    powers = [sig.lattice.denominator ** k for k in range(top + 1)]
    out: dict = {}
    memo: dict = {}
    if len(a.num) * len(b.num) * (1 + bracket) < PACKED_PAIRS:
        _accumulate(out, memo, sig, a.num, b.num, powers, action, bracket)
        if bracket:
            _accumulate(out, memo, sig, b.num, a.num, powers, action, bracket, scale=-1)
        return _from_ints(sig, a.den * b.den * powers[top], out)
    ell = sig.ell
    # every output field lies in [-2 hi, 2 hi] (alpha) or [0, 2 hi] (i, mu)
    hi = max(map(abs, chain.from_iterable(chain.from_iterable(chain(a.num, b.num)))))
    width = max((4 * hi).bit_length(), 1)
    shifts = range(0, 3 * ell * width, width)
    bias = sum((2 * hi) << s for s in shifts[:ell])
    _packed_accumulate(out, memo, sig, a.num, b.num, powers, action, bracket, shifts, bias)
    if bracket:
        _packed_accumulate(out, memo, sig, b.num, a.num, powers, action, bracket, shifts, bias,
                           scale=-1)
    return _from_ints(sig, a.den * b.den * powers[top],
                      _unpack(out, ell, width, 2 * hi))


_new_tuple = tuple.__new__  # builds a Monomial without NamedTuple's Python-level __new__


def _unpack(out: dict, ell: int, width: int, offset: int) -> dict:
    """{Monomial: n} from packed keys, zero numerators dropped, order kept.

    The alpha fields (low bits, stored with ``offset`` added), the i fields
    and the mu fields are three groups, each decoded once per distinct value."""
    low = ell * width
    mask, field = (1 << low) - 1, (1 << width) - 1
    alphas: dict = {}
    indices: dict = {}
    mus: dict = {}

    def decode(seen: dict, key: int, off: int) -> tuple:
        t = seen[key] = tuple(((key >> s) & field) - off for s in range(0, low, width))
        return t

    num = {}
    for k, n in out.items():
        if n:
            ka, ki, km = k & mask, (k >> low) & mask, k >> 2 * low
            num[_new_tuple(Monomial, (alphas.get(ka) or decode(alphas, ka, offset),
                                      indices.get(ki) or decode(indices, ki, 0),
                                      mus.get(km) or decode(mus, km, 0)))] = n
    return num


def derivation_apply(sig: Signature, lam, target: Element) -> Element:
    """Apply d^lam to an element of A; the result stays in A."""
    zero = (0,) * sig.ell
    m = Monomial(zero, zero, tuple(lam))
    sig.check_monomial(m)
    return act_on_A(_from_ints(sig, 1, {m: 1}), target)


def act_on_A(w: Element, a: Element) -> Element:
    """The natural action: each term u d^mu of w sends a to u . d^mu(a)."""
    w._require_same(a)
    if not a.in_A():
        raise NotInA("the acted-on element must lie in A")
    return _mul_elements(w, a, action=True)


# ---------------------------------------------------------------------------
# filtration data
# ---------------------------------------------------------------------------

class FiltrationData(NamedTuple):
    gamma_degree: tuple[int, ...] | None  # lex-max basis coordinates over support
    i_degree: tuple[int, ...] | None      # componentwise max polynomial index
    level: int | None                     # max |mu|


def filtration_data(w: Element) -> FiltrationData:
    """Componentwise maxima over the support; all None for the zero element."""
    if w.is_zero:
        return FiltrationData(None, None, None)
    gamma = max(m.alpha for m in w.num)
    i_deg = tuple(max(m.i[p] for m in w.num) for p in range(w.signature.ell))
    lev = w.max_level()
    return FiltrationData(gamma, i_deg, lev)


# ---------------------------------------------------------------------------
# JSON-facing serialization
# ---------------------------------------------------------------------------

def element_to_dict(e: Element) -> dict:
    lattice = e.signature.lattice
    terms = []
    for m, c in e.sorted_terms():
        terms.append({
            "alpha": [rational_str(x) for x in lattice.ambient(m.alpha)],
            "i": list(m.i),
            "mu": list(m.mu),
            "coeff": rational_str(c),
        })
    return {"signature": e.signature.to_dict(), "terms": terms}


def element_from_dict(data: dict, signature: Signature | None = None) -> Element:
    data = object_from_json(data, "element")
    sig = signature if signature is not None else Signature.from_dict(data["signature"])
    out: dict = {}
    for t in list_from_json(data["terms"], "terms"):
        t = object_from_json(t, "term")
        term = sig.monomial(
            alpha=[rational_from_json(x) for x in list_from_json(t["alpha"], "alpha")],
            i=[int_from_json(x, "i") for x in list_from_json(t["i"], "i")],
            mu=[int_from_json(x, "mu") for x in list_from_json(t["mu"], "mu")],
            coeff=rational_from_json(t["coeff"]),
        )
        for m, c in term.terms.items():
            out[m] = out.get(m, Fraction(0)) + c
    return Element(sig, out)
