"""Automorphism families of the algebra, their normal form and decomposition.

Four families generate everything:

* ``TauAut``       -- lattice symmetry plus character twist, tau = (G, f);
* ``InnerExp``     -- exp(ad u) for u in the commutative part A;
* ``ShiftV``       -- affine shift of the polynomial and derivation generators;
* ``Sigma1``       -- the order-2 twist x^{a,i} d^mu -> -(-d)^mu . x^{a,i},
                      a bracket automorphism only.

The first three are algebra homomorphisms fixed by the images of x^alpha,
x^{1_[p]} and d_q.  Each applies its generator table through the one
extension ``_hom_extend``.  Every table sends x^alpha and x^{1_[p]} into A,
so the image of x^{alpha,i} d^mu factors as A(alpha,i) . D(mu), an element of
A times the product of the d_q-image powers; the extension builds each D(mu)
once per call and attaches the A-part by an integer convolution.  sigma_tau
and sigma_v keep their table from the first apply on.  exp(ad u) is the table
d_q -> d_q + [u, d_q] with A fixed, not a series.

``TauAut`` is the only (G, f) map; with another target algebra it is the
isomorphism W(l1, l2, Gamma) -> W(l1, l2, Gamma . G^{-1}) that
``classification.iso_verify`` certifies.  Its group law is integer algebra
on the lattice matrices N and N^{-1}; the lattice check
``lattice.lattice_motion``, which derives both from G by fraction-free
integer elimination, runs only for a G given from outside (a constructor
call, a normal-form file, decomposition step (1), the samplers, the iso
decision).  The tables and the extension run on the integer form of the
elements.

A ``NormalFormAut`` is the composite sigma_tau . sigma_u . sigma_v . sigma_1^eps.
``compose_normal_forms`` is the one group law: it composes any two normal
forms symbolically, the twist included, since conjugation by sigma_1 maps
each family to itself.  ``decompose_automorphism`` recovers the factored
form from the images of the generating set alone, by peeling one family at a
time and reassembling the factors through that law.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm

from . import linalg
from .algebra import (
    Element,
    Monomial,
    Signature,
    _accumulate,
    _convolve,
    _from_ints,
    derivation_apply,
    element_from_dict,
    element_to_dict,
    unit_index,
)
from .errors import (
    BlockShapeViolation,
    DimensionMismatch,
    InvariantViolation,
    LatticeNotMapped,
    NotAnAutomorphism,
    NotInA,
    SignatureMismatch,
    SingularMatrix,
)
from .lattice import BlockMatrix, Character, lattice_motion
from .rationals import (as_fraction, int_from_json, list_from_json, object_from_json,
                        rational_str, vector_from_json)
from .sampling import random_element

MODE_LIE = "lie"
MODE_ASSOC = "assoc"


# ---------------------------------------------------------------------------
# generating set
# ---------------------------------------------------------------------------

def generator_keys(sig: Signature) -> list[tuple]:
    """Keys of the extensional generating set: the unit, x^{+-b_k} for the
    canonical basis rows, the polynomial generators, and the derivations."""
    keys: list[tuple] = [("one",)]
    for k in range(1, sig.ell + 1):
        keys.append(("x", k, 1))
        keys.append(("x", k, -1))
    for p in range(1, sig.ell1 + 1):
        keys.append(("xi", p))
    for q in range(1, sig.ell + 1):
        keys.append(("d", q))
    return keys


def generator_element(sig: Signature, key: tuple) -> Element:
    kind = key[0]
    zero = (0,) * sig.ell
    if kind == "one":
        m = Monomial(zero, zero, zero)
    elif kind == "x":
        m = Monomial(unit_index(sig.ell, key[1], key[2]), zero, zero)
    elif kind == "xi":
        m = Monomial(zero, unit_index(sig.ell, key[1]), zero)
    elif kind == "d":
        m = Monomial(zero, zero, unit_index(sig.ell, key[1]))
    else:
        raise KeyError(key)
    return _from_ints(sig, 1, {m: 1})


def _gen_label(key: tuple) -> str:
    kind = key[0]
    if kind == "one":
        return "one"
    if kind == "x":
        return f"x{'+' if key[2] > 0 else '-'}{key[1]}"
    if kind == "xi":
        return f"xi{key[1]}"
    return f"d{key[1]}"


# ---------------------------------------------------------------------------
# homomorphic extension from a generator table
# ---------------------------------------------------------------------------

def _hom_extend(w: Element, out_sig: Signature, x_image, x1_images, d_images) -> Element:
    """Extend generator images multiplicatively over w.

    The table is ``x_image``, a function from lattice coordinates alpha to
    the image of x^alpha as integer parts (den, num), plus the image lists
    of x^{1_[p]} and d_q.  The image of x^{alpha,i} d^mu is A(alpha,i) . D(mu):
    A(alpha,i) is the image of x^alpha times the ascending powers of the
    x^{1_[p]} images, an element of A, and D(mu) the ascending powers of the
    d_q images multiplied left to right, built once per distinct mu.  Left
    multiplication by an element of A is a convolution, so every A-part is
    built and attached on integer numerators over one common denominator.
    By associativity this is the ordered product of the images.  It needs
    the x- and xi-images in A and raises InvariantViolation otherwise.
    """
    sig = w.signature
    zero = (0,) * sig.ell
    powers: dict = {}
    xi_parts: dict = {}
    d_parts: dict = {zero: out_sig.one()}

    def power(tag, base: Element, k: int) -> Element:
        cached = powers.get((tag, k))
        if cached is None:
            cached = base if k == 1 else power(tag, base, k - 1) * base
            powers[(tag, k)] = cached
        return cached

    def require_A(num: dict, gen: tuple) -> None:
        if any(any(m.mu) for m in num):
            raise InvariantViolation(f"the table's image of generator {gen} is not in A")

    parts = []
    for (al, i, mu), n in w.num.items():
        den, a_num = x_image(al)
        require_A(a_num, ("x", al))
        for p in range(sig.ell1):
            if i[p]:
                xi = xi_parts.get((p, i[p]))
                if xi is None:
                    xi = xi_parts[(p, i[p])] = power(("xi", p), x1_images[p], i[p])
                    require_A(xi.num, ("xi", p + 1))
                prod_num: dict = {}
                for (al1, i1, _), n1 in a_num.items():
                    _convolve(prod_num, al1, i1, n1, xi.num.items())
                den, a_num = den * xi.den, prod_num
        d_mu = d_parts.get(mu)
        if d_mu is None:
            for q in range(sig.ell):
                if mu[q]:
                    d_q = power(("d", q), d_images[q], mu[q])
                    d_mu = d_q if d_mu is None else d_mu * d_q
            d_parts[mu] = d_mu
        parts.append((n, den * d_mu.den, a_num, d_mu.num))
    common = lcm(*(den for _, den, _, _ in parts))
    out: dict = {}
    for n, den, a_num, d_num in parts:
        scale = n * (common // den)
        for (al, i, _), n_a in a_num.items():
            _convolve(out, al, i, scale * n_a, d_num.items())
    return _from_ints(out_sig, w.den * common, out)


def _fixed_x_image(sig: Signature):
    """The x-part of a table that fixes every x^alpha."""
    zero = (0,) * sig.ell
    return lambda al: (1, {Monomial(al, zero, zero): 1})


def _moved_coords(coord_map: tuple, alpha_coords) -> tuple[int, ...]:
    """Coordinates of alpha . G^{-1} from those of alpha."""
    out = [0] * len(coord_map)
    for k, n in enumerate(alpha_coords):
        if n:
            for j, x in enumerate(coord_map[k]):
                out[j] += n * x
    return tuple(out)


def _tau_table(tau: "TauAut"):
    """Generator table of tau = (G, f): x^a -> f(a) x^{a G^{-1}}, the
    polynomial row times (M^t)^{-1}, the derivation row times G."""
    dst, f, coord_map = tau.target, tau.f, tau.N
    ell = dst.ell
    zero = (0,) * ell

    def x_image(alpha_coords) -> tuple[int, dict]:
        num, den = f.evaluate_ratio(alpha_coords)
        return den, {Monomial(_moved_coords(coord_map, alpha_coords), zero, zero): num}

    den, mt_inv = tau.scaled_mt_inverse
    x1_images = [_from_ints(dst, den, {Monomial(zero, unit_index(ell, r + 1), zero): mt_inv[r][p]
                                       for r in range(dst.ell1)})
                 for p in range(dst.ell1)]
    den, g = tau.scaled_G
    d_images = [_from_ints(dst, den, {Monomial(zero, zero, unit_index(ell, p + 1)): g[p][q]
                                      for p in range(ell)})
                for q in range(ell)]
    return x_image, x1_images, d_images


# ---------------------------------------------------------------------------
# the four families
# ---------------------------------------------------------------------------

class TauAut:
    """sigma_tau for tau = (G, f): x^a -> f(a) x^{a G^{-1}}, derivation row
    times G, polynomial row times (M^t)^{-1}.

    It maps W(signature) to W(target), by default the same algebra; with
    Gamma . G^{-1} = Gamma' it is an isomorphism onto W(l1, l2, Gamma').

    The primary data are the integer unimodular matrices N and N^{-1} of the
    lattice motion in canonical coordinates (row k of N holds the target
    coordinates of b_k . G^{-1}, so star(n) = n . N) and the character f on
    the source lattice.  ``compose`` multiplies the N and the N^{-1},
    ``inverse`` swaps them and reads the inverse character off the rows of
    N^{-1}, and ``identity`` takes N = I.  G = B_dst^{-1} N^{-1} B_src and
    (M^t)^{-1}, the transposed top-left l1 block of G^{-1} = B_src^{-1} N B_dst,
    are derived on first use by integer products over one denominator from
    the lattice bases B.  Only a G supplied from outside goes through the
    lattice check ``lattice_motion``, which derives N and N^{-1} together.
    """

    __slots__ = ("signature", "target", "f", "N", "N_inv", "_G", "_scaled_G", "_scaled_mt_inv",
                 "_images")

    def __init__(self, signature: Signature, G: BlockMatrix, f: Character,
                 target: Signature | None = None):
        target = signature if target is None else target
        if (target.ell1, target.ell2) != (signature.ell1, signature.ell2):
            raise SignatureMismatch("(l1, l2) invariants differ")
        if (G.ell1, G.ell2) != (signature.ell1, signature.ell2):
            raise DimensionMismatch("block sizes differ from the signature")
        if f.lattice != signature.lattice:
            raise DimensionMismatch("character lives on a different lattice")
        self.N, self.N_inv = lattice_motion(signature.lattice, target.lattice, G)
        self.signature = signature
        self.target = target
        self.f = f
        self._G = G
        self._scaled_G = self._scaled_mt_inv = self._images = None

    @classmethod
    def _from_motion(cls, signature: Signature, target: Signature, f: Character,
                     N: tuple, N_inv: tuple) -> "TauAut":
        """The map with lattice matrices N and N^{-1}; G is derived on first use."""
        tau = object.__new__(cls)
        tau.signature, tau.target, tau.f, tau.N, tau.N_inv = signature, target, f, N, N_inv
        tau._G = tau._scaled_G = tau._scaled_mt_inv = tau._images = None
        return tau

    @property
    def G(self) -> BlockMatrix:
        if self._G is None:
            den, g = self.scaled_G
            self._G = BlockMatrix(self.signature.ell1, self.signature.ell2,
                                  [[Fraction(x, den) for x in row] for row in g])
        return self._G

    @property
    def scaled_G(self) -> tuple[int, tuple]:
        """G = B_dst^{-1} N^{-1} B_src as (den, K), an integer matrix K over one
        denominator."""
        if self._scaled_G is None:
            src = self.signature.lattice
            self._scaled_G = linalg.integer_product(self.target.lattice.scaled_inverse,
                                                    (1, self.N_inv),
                                                    (src.denominator, src.integer_basis))
        return self._scaled_G

    @property
    def scaled_mt_inverse(self) -> tuple[int, tuple]:
        """(M^t)^{-1}, the matrix acting on the polynomial generator row: the
        transposed top-left l1 block of G^{-1} = B_src^{-1} N B_dst, as (den, K)."""
        if self._scaled_mt_inv is None:
            ell1 = self.signature.ell1
            e_src, b_src_inv = self.signature.lattice.scaled_inverse
            dst = self.target.lattice
            den, block = linalg.integer_product(
                (e_src, b_src_inv[:ell1]), (1, self.N),
                (dst.denominator, [row[:ell1] for row in dst.integer_basis]))
            self._scaled_mt_inv = den, tuple(zip(*block))
        return self._scaled_mt_inv

    def _table(self):
        if self._images is None:
            self._images = _tau_table(self)
        return self._images

    def apply(self, w: Element) -> Element:
        if w.signature != self.signature:
            raise SignatureMismatch("element belongs to a different algebra")
        return _hom_extend(w, self.target, *self._table())

    def generator_table(self) -> dict:
        """Images of x^{b_k}, x^{1_[p]} and d_q, keyed x+k, xi<p>, d<q>."""
        x_image, x1_images, d_images = self._table()
        ell = self.signature.ell
        table = {f"x+{k}": _from_ints(self.target, *x_image(unit_index(ell, k)))
                 for k in range(1, ell + 1)}
        table.update((f"xi{p}", e) for p, e in enumerate(x1_images, 1))
        table.update((f"d{q}", e) for q, e in enumerate(d_images, 1))
        return table

    def inverse(self) -> "TauAut":
        """(G^{-1}, f') from target to signature: N and N^{-1} swap, the rows
        of N^{-1} are the coordinates of c_k . G for the target basis rows
        c_k, and f'(c_k) = 1 / f(c_k . G)."""
        values = [1 / self.f.evaluate_coords(row) for row in self.N_inv]
        return TauAut._from_motion(self.target, self.signature,
                                   Character(self.target.lattice, values), self.N_inv, self.N)

    def compose(self, other: "TauAut") -> "TauAut":
        """tau_self after tau_other: N multiplies right-to-left, N^{-1}
        left-to-right, and the character picks up the other's lattice motion."""
        if other.target != self.signature:
            raise SignatureMismatch("the inner map does not land in the outer map's algebra")
        values = [v * self.f.evaluate_coords(moved)
                  for v, moved in zip(other.f.values, other.N)]
        return TauAut._from_motion(other.signature, self.target,
                                   Character(other.signature.lattice, values),
                                   linalg.mat_mul(other.N, self.N),
                                   linalg.mat_mul(self.N_inv, other.N_inv))

    def is_identity(self) -> bool:
        return (self.target == self.signature and self.f.is_trivial()
                and self.N == linalg.integer_identity(self.signature.ell))

    @classmethod
    def identity(cls, sig: Signature) -> "TauAut":
        return cls.from_character(sig, Character.trivial(sig.lattice))

    @classmethod
    def from_character(cls, sig: Signature, f: Character) -> "TauAut":
        """(I, f), the character alone, with N = N^{-1} = I."""
        if f.lattice != sig.lattice:
            raise DimensionMismatch("character lives on a different lattice")
        eye = linalg.integer_identity(sig.ell)
        return cls._from_motion(sig, sig, f, eye, eye)

    def __eq__(self, other):
        if not isinstance(other, TauAut):
            return NotImplemented
        return ((self.signature, self.target, self.N, self.f)
                == (other.signature, other.target, other.N, other.f))

    def __repr__(self):
        return f"TauAut(G={self.G.entries}, f={self.f})"


class InnerExp:
    """sigma_u = exp(ad u) for u in A, stored with its constant term dropped
    (sigma_{u+c} = sigma_u).

    Its table fixes A and sends d_q to d_q + [u, d_q] = d_q - d_q(u): that
    bracket lies in A, so (ad u)^2 kills d_q and the series stops there.
    """

    __slots__ = ("signature", "u")

    def __init__(self, u: Element):
        if not u.in_A():
            raise NotInA("exp(ad u) requires u with no derivation part")
        self.signature = u.signature
        self.u = u.without_constant()

    def apply(self, w: Element) -> Element:
        if w.signature != self.signature:
            raise SignatureMismatch("element belongs to a different algebra")
        sig = self.signature
        # built per call and only for the d_q that occur in w: a derivation
        # pass over u is cheap, while a kept table would hold every d_q(u)
        # for as long as the automorphism lives
        used = {q for m in w.num for q, k in enumerate(m.mu) if k}
        d_images = [generator_element(sig, ("d", q + 1))
                    - derivation_apply(sig, unit_index(sig.ell, q + 1), self.u)
                    if q in used else None for q in range(sig.ell)]
        x1_images = [generator_element(sig, ("xi", p)) for p in range(1, sig.ell1 + 1)]
        return _hom_extend(w, sig, _fixed_x_image(sig), x1_images, d_images)

    def inverse(self) -> "InnerExp":
        return InnerExp(-self.u)

    def is_identity(self) -> bool:
        return self.u.is_zero

    @classmethod
    def identity(cls, sig: Signature) -> "InnerExp":
        return cls(sig.zero())

    def __eq__(self, other):
        if not isinstance(other, InnerExp):
            return NotImplemented
        return self.u == other.u

    def __repr__(self):
        return f"InnerExp({self.u!r})"


class ShiftV:
    """sigma_v: fixes every x^a, shifts the polynomial generator row by the
    first l1 slots of v and the derivation row by the last l2 slots."""

    __slots__ = ("signature", "v", "_images")

    def __init__(self, signature: Signature, v):
        vv = tuple(as_fraction(x) for x in v)
        if len(vv) != signature.ell:
            raise DimensionMismatch("shift vector length differs from l")
        self.signature = signature
        self.v = vv
        self._images = None

    def apply(self, w: Element) -> Element:
        if w.signature != self.signature:
            raise SignatureMismatch("element belongs to a different algebra")
        sig = self.signature
        if self._images is None:
            x1_images = [generator_element(sig, ("xi", p + 1)) + sig.scalar(self.v[p])
                         for p in range(sig.ell1)]
            d_images = [generator_element(sig, ("d", q + 1)) + sig.scalar(self.v[q])
                        if q >= sig.ell1 else generator_element(sig, ("d", q + 1))
                        for q in range(sig.ell)]
            self._images = (_fixed_x_image(sig), x1_images, d_images)
        return _hom_extend(w, sig, *self._images)

    def inverse(self) -> "ShiftV":
        return ShiftV(self.signature, tuple(-x for x in self.v))

    def is_identity(self) -> bool:
        return all(x == 0 for x in self.v)

    @classmethod
    def identity(cls, sig: Signature) -> "ShiftV":
        return cls(sig, (Fraction(0),) * sig.ell)

    def __eq__(self, other):
        if not isinstance(other, ShiftV):
            return NotImplemented
        return (self.signature, self.v) == (other.signature, other.v)

    def __repr__(self):
        return f"ShiftV({', '.join(map(rational_str, self.v))})"


def apply_sigma1(sig: Signature, w: Element) -> Element:
    """x^{a,i} d^mu -> -(-d)^mu . x^{a,i}, extended linearly.

    Preserves the bracket, squares to the identity, and is not an
    automorphism of the associative product.
    """
    if w.signature != sig:
        raise SignatureMismatch("element belongs to a different algebra")
    if w.is_zero:
        return w
    zero = (0,) * sig.ell
    top = w.max_level()
    powers = [sig.lattice.denominator ** k for k in range(top + 1)]
    out: dict = {}
    memo: dict = {}
    for (al, i, mu), n in w.num.items():
        # -(-1)^|mu| d^mu . x^{al,i}, over D^top with the other terms
        sign = 1 if sum(mu) % 2 else -1
        _accumulate(out, memo, sig, {Monomial(zero, zero, mu): sign * n},
                    {Monomial(al, i, zero): 1}, powers, False, False)
    return _from_ints(sig, w.den * powers[top], out)


class Sigma1:
    """Callable wrapper so the twist composes uniformly with the families."""

    __slots__ = ("signature",)

    def __init__(self, signature: Signature):
        self.signature = signature

    def apply(self, w: Element) -> Element:
        return apply_sigma1(self.signature, w)


# ---------------------------------------------------------------------------
# normal form and the group law
# ---------------------------------------------------------------------------

@dataclass
class NormalFormAut:
    """The factored automorphism sigma_tau . sigma_u . sigma_v . sigma_1^eps."""

    tau: TauAut
    u: InnerExp
    v: ShiftV
    eps: int = 0
    mode: str = MODE_LIE

    def __post_init__(self):
        sig = self.tau.signature
        if self.tau.target != sig:
            raise SignatureMismatch("sigma_tau of a normal form must map the algebra to itself")
        if self.u.signature != sig or self.v.signature != sig:
            raise SignatureMismatch("normal form factors disagree on the algebra")
        if self.eps not in (0, 1):
            raise ValueError("eps must be 0 or 1")
        if self.mode not in (MODE_LIE, MODE_ASSOC):
            raise ValueError("mode must be 'lie' or 'assoc'")
        if self.eps == 1 and self.mode == MODE_ASSOC:
            raise ValueError("the order-2 twist is not associative-mode")

    @property
    def signature(self) -> Signature:
        return self.tau.signature

    def apply(self, w: Element) -> Element:
        if self.eps:
            w = apply_sigma1(self.signature, w)
        return self.tau.apply(self.u.apply(self.v.apply(w)))

    @classmethod
    def identity(cls, sig: Signature, mode: str = MODE_LIE) -> "NormalFormAut":
        return cls(TauAut.identity(sig), InnerExp.identity(sig),
                   ShiftV.identity(sig), 0, mode)

    def is_identity(self) -> bool:
        return (self.tau.is_identity() and self.u.is_identity()
                and self.v.is_identity() and self.eps == 0)

    def same_data(self, other: "NormalFormAut") -> bool:
        """Equality of the factored data (mode is metadata and ignored)."""
        return (self.tau == other.tau and self.u == other.u
                and self.v == other.v and self.eps == other.eps)

    def to_dict(self) -> dict:
        return {
            "tau": {
                "G": [[rational_str(x) for x in row] for row in self.tau.G.entries],
                "f": [rational_str(x) for x in self.tau.f.values],
            },
            "u": element_to_dict(self.u.u),
            "v": [rational_str(x) for x in self.v.v],
            "eps": self.eps,
            "mode": self.mode,
        }

    @classmethod
    def from_dict(cls, data: dict, signature: Signature | None = None) -> "NormalFormAut":
        data = object_from_json(data, "normal form")
        u_elem = element_from_dict(data["u"], signature)
        sig = u_elem.signature
        tau = object_from_json(data["tau"], "tau")
        G = BlockMatrix(sig.ell1, sig.ell2,
                        [vector_from_json(row, sig.ell, "G row")
                         for row in list_from_json(tau["G"], "G")])
        f = Character(sig.lattice, vector_from_json(tau["f"], sig.ell, "f"))
        v = ShiftV(sig, vector_from_json(data["v"], sig.ell, "v"))
        return cls(TauAut(sig, G, f), InnerExp(u_elem), v,
                   int_from_json(data.get("eps", 0), "eps"), data.get("mode", MODE_LIE))


def conjugated_shift(tau: TauAut, v: ShiftV) -> tuple[InnerExp, ShiftV]:
    """sigma_tau^{-1} . sigma_v . sigma_tau as an inner-exp then a shift.

    The shift vector is v . ((M^t)^{-1} (+) Q); the inner part is
    -(v's derivation slots) P applied to the polynomial generators.  P and Q
    are read off the last l2 rows of G's integer form ``scaled_G``.
    """
    sig = tau.signature
    ell1, ell2 = sig.ell1, sig.ell2
    v1, v2 = v.v[:ell1], v.v[ell1:]
    den, mt_inv = tau.scaled_mt_inverse
    moved1 = tuple(x / den for x in linalg.vec_mat(v1, mt_inv)) if ell1 else ()
    moved2 = ()
    inner = sig.zero()
    if ell2:
        den, g = tau.scaled_G
        # v2 . (P | Q), the last l2 rows of G
        lower = [x / den for x in linalg.vec_mat(v2, g[ell1:])]
        moved2 = tuple(lower[ell1:])
        for p in range(ell1):
            if lower[p]:
                inner = inner + sig.x_poly(p + 1, coeff=-lower[p])
    return InnerExp(inner), ShiftV(sig, moved1 + moved2)


def compose_normal_forms(a: NormalFormAut, b: NormalFormAut,
                         _verify: bool = True) -> NormalFormAut:
    """The normal form of a after b, computed symbolically for every eps.

    Without the twist, a . b = tau_a u_a v_a tau_b u_b v_b is regrouped as
    tau_a tau_b . (tau_b^{-1} u_a tau_b) (tau_b^{-1} v_a tau_b) u_b v_b: the
    first conjugate is sigma_{tau_b^{-1}(u_a)}, the second an inner part and
    a moved shift (``conjugated_shift``), the moved shift carries u_b to
    sigma_{shift(u_b)}, and the inner parts add since A is commutative.

    The twist reduces to that law.  sigma_1 = -S, where S is the
    anti-automorphism of the product that fixes A pointwise and sends d_q to
    -d_q (S(x^{a,i} d^mu) = S(d)^mu S(x^{a,i}) = (-d)^mu x^{a,i}).  For an
    automorphism phi, sigma_1 phi sigma_1 = S phi S is again an
    automorphism, so it is fixed by the generator images.  If phi maps A
    into A, then S phi S = phi on A; if phi(d_q) = D_q + c_q with D_q in the
    span of the d_p and c_q in A, then S phi S(d_q) = -S(D_q + c_q) =
    D_q - c_q.  Hence:

    * sigma_1 sigma_tau sigma_1 = sigma_tau, as sigma_tau(d_q) has c_q = 0;
    * sigma_1 sigma_u sigma_1 = sigma_{-u}, as sigma_u fixes A and
      sigma_u(d_q) = d_q - d_q(u);
    * sigma_1 sigma_v sigma_1 = sigma_{v'}, where v' keeps the first l1 slots
      of v and negates the last l2, as sigma_v moves x^{1_[p]} within A and
      sends d_q to d_q + v_q for q > l1.

    With sigma_1^2 = 1, a . b is the twist-free law applied to a and to b,
    with b's u and v conjugated when a.eps = 1, followed by
    sigma_1^(a.eps xor b.eps).  The result is checked against sequential
    application on the generating set.
    """
    if a.signature != b.signature:
        raise SignatureMismatch("normal forms belong to different algebras")
    sig = a.signature
    u_b, v_b = b.u.u, b.v.v
    if a.eps:
        u_b = -u_b
        v_b = v_b[:sig.ell1] + tuple(-x for x in v_b[sig.ell1:])
    tau = a.tau.compose(b.tau)
    inner_conj, moved_shift = conjugated_shift(b.tau, a.v)
    u_elem = (b.tau.inverse().apply(a.u.u)
              + moved_shift.apply(u_b)
              + inner_conj.u)
    v = ShiftV(sig, tuple(x + y for x, y in zip(moved_shift.v, v_b)))
    mode = a.mode if a.mode == b.mode else MODE_LIE
    result = NormalFormAut(tau, InnerExp(u_elem), v, a.eps ^ b.eps, mode)
    if _verify:
        for key in generator_keys(sig):
            gen = generator_element(sig, key)
            if result.apply(gen) != a.apply(b.apply(gen)):
                raise InvariantViolation(f"group law violated on generator {key}")
    return result


# ---------------------------------------------------------------------------
# extensional presentation
# ---------------------------------------------------------------------------

class FunctionalAut:
    """An automorphism given by its images on the generating set.

    The stored images cover the unit, x^{+-b_k} for each canonical basis row,
    the polynomial generators and the derivations.  Application to arbitrary
    elements goes through decomposition into normal form.
    """

    __slots__ = ("signature", "mode", "images", "_normal_form")

    def __init__(self, signature: Signature, mode: str, images: dict):
        if mode not in (MODE_LIE, MODE_ASSOC):
            raise ValueError("mode must be 'lie' or 'assoc'")
        expected = set(generator_keys(signature))
        if set(images) != expected:
            missing = expected - set(images)
            extra = set(images) - expected
            raise KeyError(f"generator images missing={missing} extra={extra}")
        for key, e in images.items():
            if e.signature != signature:
                raise SignatureMismatch(f"image of {key} lives in another algebra")
        if mode == MODE_ASSOC:
            one = signature.one()
            for k in range(1, signature.ell + 1):
                prod = images[("x", k, 1)] * images[("x", k, -1)]
                if prod != one:
                    raise NotAnAutomorphism(
                        f"images of x^{{+-b_{k}}} do not multiply to 1")
        self.signature = signature
        self.mode = mode
        self.images = dict(images)
        self._normal_form = None

    @classmethod
    def from_aut(cls, aut, mode: str | None = None) -> "FunctionalAut":
        sig = aut.signature
        mode = mode if mode is not None else getattr(aut, "mode", MODE_LIE)
        images = {key: aut.apply(generator_element(sig, key))
                  for key in generator_keys(sig)}
        return cls(sig, mode, images)

    def as_normal_form(self) -> NormalFormAut:
        if self._normal_form is None:
            self._normal_form = decompose_automorphism(self, _force_lie=True)
        return self._normal_form

    def apply(self, w: Element) -> Element:
        return self.as_normal_form().apply(w)

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "signature": self.signature.to_dict(),
            "images": {_gen_label(k): element_to_dict(e)
                       for k, e in sorted(self.images.items(), key=lambda kv: _gen_label(kv[0]))},
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FunctionalAut":
        data = object_from_json(data, "automorphism")
        sig = Signature.from_dict(data["signature"])
        keys = {_gen_label(k): k for k in generator_keys(sig)}
        images = {}
        for label, e in object_from_json(data["images"], "images").items():
            if label not in keys:
                raise ValueError(f"unknown generator label {label!r}")
            images[keys[label]] = element_from_dict(e, sig)
        return cls(sig, data.get("mode", MODE_LIE), images)


# ---------------------------------------------------------------------------
# randomized verification
# ---------------------------------------------------------------------------

@dataclass
class VerifyReport:
    passed: bool
    mode: str
    trials: int
    seed: int
    counterexample: dict | None = field(default=None, repr=False)

    def describe(self) -> str:
        if self.passed:
            return f"pass ({self.trials} random pairs, mode={self.mode}, seed={self.seed})"
        ce = self.counterexample
        return (f"fail at trial {ce['trial']} (mode={self.mode}, seed={self.seed}): "
                f"phi(a op b) != phi(a) op phi(b)")


def verify_automorphism(phi, trials: int, seed: int, mode: str | None = None) -> VerifyReport:
    """Sample element pairs and check the homomorphism law in the given mode."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    sig = phi.signature
    mode = mode if mode is not None else getattr(phi, "mode", MODE_LIE)
    rng = random.Random(seed)
    for trial in range(1, trials + 1):
        a = random_element(sig, rng)
        b = random_element(sig, rng)
        if mode == MODE_ASSOC:
            lhs = phi.apply(a * b)
            rhs = phi.apply(a) * phi.apply(b)
        else:
            lhs = phi.apply(a.bracket(b))
            rhs = phi.apply(a).bracket(phi.apply(b))
        if lhs != rhs:
            return VerifyReport(False, mode, trials, seed,
                                {"trial": trial, "a": a, "b": b,
                                 "lhs": lhs, "rhs": rhs})
    return VerifyReport(True, mode, trials, seed)


# ---------------------------------------------------------------------------
# decomposition into normal form
# ---------------------------------------------------------------------------

def _solve_d_preimage(sig: Signature, q: int, al, i, c) -> dict:
    """Terms of u with d_q(u) = c x^{al,i}, valid when ambient alpha_q != 0.

    Repeatedly divides by the grading eigenvalue and pushes the lowering
    remainder down in i_q; terminates after i_q + 1 steps.
    """
    aq = sig.lattice.ambient(al)[q]
    out: dict = {}
    cur_c, cur_i = c, i
    while True:
        key = (al, cur_i)
        out[key] = out.get(key, Fraction(0)) + cur_c / aq
        if q >= sig.ell1 or cur_i[q] == 0:
            return out
        lowered = list(cur_i)
        lowered[q] -= 1
        cur_c = -cur_c * cur_i[q] / aq
        cur_i = tuple(lowered)


def decompose_automorphism(phi: FunctionalAut, _force_lie: bool = False) -> NormalFormAut:
    """Recover the normal form sigma_tau sigma_u sigma_v sigma_1^eps from
    generator images.

    Peels the factored form left to right: (1) the lattice matrix G off the
    derivation images, (2) the inner and shift corrections that straighten
    every derivation image (one coordinate at a time, integrating the graded
    part exactly and the degree-zero part either into a polynomial primitive
    or into a derivation shift), (3) the character and the sign c0 off the
    x-images and the unit image, (4) the twist when c0 = -1, and (5) the
    polynomial shift off the x^{1_[p]} images.  Raises NotAnAutomorphism as
    soon as any image violates the shape this factorization forces.
    """
    sig = phi.signature
    ell, ell1 = sig.ell, sig.ell1
    zero = (0,) * ell
    images = dict(phi.images)
    factors: list[NormalFormAut] = []

    def peel(aut, inverse_factor: NormalFormAut):
        if inverse_factor.is_identity():
            return
        for key in images:
            images[key] = aut.apply(images[key])
        factors.append(inverse_factor)

    # (1) the lattice matrix off the derivation images
    g_cols = []
    for q in range(1, ell + 1):
        image = images[("d", q)]
        col = [Fraction(0)] * ell
        for (al, i, mu), c in image.terms.items():
            lvl = sum(mu)
            if lvl > 1:
                raise NotAnAutomorphism(f"image of d{q} has a level-{lvl} term")
            if lvl == 1:
                if al != zero or any(i):
                    raise NotAnAutomorphism(f"image of d{q} is outside D + A")
                col[mu.index(1)] = c
        g_cols.append(col)
    entries = tuple(tuple(g_cols[q][p] for q in range(ell)) for p in range(ell))
    try:
        G = BlockMatrix(sig.ell1, sig.ell2, entries)
    except (BlockShapeViolation, DimensionMismatch, SingularMatrix) as exc:
        raise NotAnAutomorphism(f"derivation images give no block matrix: {exc}") from exc
    try:
        tau_g = TauAut(sig, G, Character.trivial(sig.lattice))
    except LatticeNotMapped as exc:
        raise NotAnAutomorphism("derivation images do not stabilize the lattice") from exc
    peel(tau_g.inverse(), NormalFormAut(tau_g, InnerExp.identity(sig),
                                        ShiftV.identity(sig)))

    # (2) straighten the derivation images one coordinate at a time
    for q0 in range(ell):
        q = q0 + 1
        w_q = images[("d", q)] - sig.d(q)
        if not w_q.in_A():
            raise NotAnAutomorphism(f"image of d{q} did not reduce to d{q} + A")
        graded = {}
        flat = {}
        for (al, i, mu), c in w_q.terms.items():
            if sig.lattice.ambient(al)[q0] != 0:
                graded[(al, i)] = c
            else:
                flat[(al, i)] = c
        if graded:
            u_terms: dict = {}
            for (al, i), c in graded.items():
                for key, val in _solve_d_preimage(sig, q0, al, i, c).items():
                    u_terms[key] = u_terms.get(key, Fraction(0)) + val
            u_prime = Element(sig, {Monomial(al, i, zero): c
                                    for (al, i), c in u_terms.items()})
            inner = InnerExp(u_prime)
            peel(inner, NormalFormAut(TauAut.identity(sig), inner.inverse(),
                                      ShiftV.identity(sig)))
        if flat:
            if q0 < ell1:
                u_terms = {}
                for (al, i), c in flat.items():
                    raised = list(i)
                    raised[q0] += 1
                    u_terms[Monomial(al, tuple(raised), zero)] = c / (i[q0] + 1)
                inner = InnerExp(Element(sig, u_terms))
                peel(inner, NormalFormAut(TauAut.identity(sig), inner.inverse(),
                                          ShiftV.identity(sig)))
            else:
                if set(flat) != {(zero, zero)}:
                    raise NotAnAutomorphism(
                        f"image of d{q} has a non-constant degree-0 part")
                c = flat[(zero, zero)]
                vec = [Fraction(0)] * ell
                vec[q0] = -c
                shift = ShiftV(sig, vec)
                peel(shift, NormalFormAut(TauAut.identity(sig),
                                          InnerExp.identity(sig), shift.inverse()))
        if images[("d", q)] != sig.d(q):
            raise NotAnAutomorphism(f"image of d{q} could not be straightened")

    # (3) the sign c0 and the character off the unit and x-images
    unit = images[("one",)]
    if set(unit.num) != {Monomial(zero, zero, zero)}:
        raise NotAnAutomorphism("image of the unit is not scalar")
    c0 = unit.constant_coefficient()
    if c0 not in (Fraction(1), Fraction(-1)):
        raise NotAnAutomorphism(f"unit scales by {c0}, expected +-1")
    f_values = []
    for k in range(1, ell + 1):
        coeffs = {}
        for s in (1, -1):
            image = images[("x", k, s)]
            expected = Monomial(unit_index(ell, k, s), zero, zero)
            if set(image.num) != {expected}:
                raise NotAnAutomorphism(
                    f"image of x^{{{'+' if s > 0 else '-'}b_{k}}} is not a scalar multiple")
            coeffs[s] = image.terms[expected]
        if coeffs[1] * coeffs[-1] != c0 * c0:
            raise NotAnAutomorphism(
                f"images of x^{{+-b_{k}}} violate multiplicativity")
        f_values.append(coeffs[1] / c0)
    f = Character(sig.lattice, f_values)
    tau_f = TauAut.from_character(sig, f)
    peel(tau_f.inverse(), NormalFormAut(tau_f, InnerExp.identity(sig),
                                        ShiftV.identity(sig)))

    # (4) the twist
    if c0 == -1:
        if not _force_lie and phi.mode == MODE_ASSOC:
            raise NotAnAutomorphism(
                "associative-mode data decomposes with the order-2 twist")
        peel(Sigma1(sig), NormalFormAut(TauAut.identity(sig), InnerExp.identity(sig),
                                        ShiftV.identity(sig), 1))

    # (5) the polynomial shift off the x^{1_[p]} images
    if ell1:
        shift_vec = [Fraction(0)] * ell
        for p in range(1, ell1 + 1):
            image = images[("xi", p)]
            gen_key = Monomial(zero, unit_index(ell, p), zero)
            extra = dict(image.terms)
            if extra.pop(gen_key, None) != Fraction(1):
                raise NotAnAutomorphism(
                    f"image of x^{{1_[{p}]}} has no unit x^{{1_[{p}]}} part")
            const = extra.pop(Monomial(zero, zero, zero), Fraction(0))
            if extra:
                raise NotAnAutomorphism(
                    f"image of x^{{1_[{p}]}} has stray terms {sorted(extra)}")
            shift_vec[p - 1] = const
        fix = ShiftV(sig, tuple(-x for x in shift_vec))
        peel(fix, NormalFormAut(TauAut.identity(sig), InnerExp.identity(sig),
                                fix.inverse()))

    for key in images:
        if images[key] != generator_element(sig, key):
            raise NotAnAutomorphism(f"residual map moves generator {key}")

    result = NormalFormAut.identity(sig)
    for factor in factors:
        result = compose_normal_forms(result, factor, _verify=False)
    result = NormalFormAut(result.tau, result.u, result.v, result.eps,
                           MODE_LIE if result.eps else phi.mode)
    for key in generator_keys(sig):
        if result.apply(generator_element(sig, key)) != phi.images[key]:
            raise NotAnAutomorphism(f"reassembled form disagrees on generator {key}")
    return result


def random_normal_form_aut(sig: Signature, rng: random.Random,
                           mode: str = MODE_LIE) -> NormalFormAut:
    """A random factored automorphism for round-trip and group-law checks."""
    from .sampling import (
        random_A_element,
        random_aut2,
        random_character,
        random_shift_vector,
    )

    tau = TauAut(sig, random_aut2(sig, rng), random_character(sig.lattice, rng))
    u = InnerExp(random_A_element(sig, rng))
    v = ShiftV(sig, random_shift_vector(sig, rng))
    eps = rng.randint(0, 1) if mode == MODE_LIE else 0
    return NormalFormAut(tau, u, v, eps, mode)
