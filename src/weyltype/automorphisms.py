"""Automorphism families of the algebra, their normal form and decomposition.

Three families and the order-2 twist generate everything:

* ``TauAut``       -- lattice symmetry plus character twist, tau = (G, f);
* ``InnerExp``     -- exp(ad u) for u in the commutative part A;
* ``ShiftV``       -- affine shift of the polynomial and derivation generators;
* ``apply_sigma1`` -- the order-2 twist x^{a,i} d^mu -> -(-d)^mu . x^{a,i},
                      a bracket automorphism only.

Every automorphism is a table map, ``_TableMap``: an algebra homomorphism
fixed by the images of x^alpha, x^{1_[p]} and d_q, after the twist when its
``eps`` is 1.  A family supplies only ``_table()``, its generator table (the
x-image function and the lists of the x^{1_[p]} and d_q images); the base
alone applies it.  Its ``image_function`` is the twist, if any, then the one
extension ``_hom_extend`` of the table, ``apply`` is that function on one
element, and ``generator_images`` reads the images of the generating set
off the table, with no extension.  The twist alone is the normal form with
identity factors and eps = 1.  Every table sends x^alpha and x^{1_[p]} into
A, so the image of x^{alpha,i} d^mu factors as A(alpha,i) . D(mu), an
element of A times the product of the d_q-image powers; an image function
builds each power and each D(mu) once for all the elements it maps, and
attaches the A-part by an integer convolution.  The product-law check
``verify_automorphism``, which raises HomomorphismCounterexample at the
first pair that breaks the law, and the group law's certificate each hold
one image function across their elements, and no object keeps one.
sigma_tau and the normal form keep their table from the first apply on.
exp(ad u) is the table d_q -> d_q + [u, d_q] with A fixed, not a series;
each of its tables is built in one pass of the d_q over u.

``TauAut`` is the only (G, f) map; with another target algebra it is the
isomorphism W(l1, l2, Gamma) -> W(l1, l2, Gamma . G^{-1}) that
``classification.iso_verify`` certifies.  Its group law is integer algebra
on the lattice matrices N and N^{-1}; the lattice check
``lattice.lattice_motion``, which derives both from G by fraction-free
integer elimination, runs only for a G given from outside (a constructor
call, a normal-form file, decomposition, the samplers, the iso
decision).  The tables and the extension run on the integer form of the
elements.

A ``NormalFormAut`` is the composite sigma_tau . sigma_u . sigma_v . sigma_1^eps.
After the twist it is one homomorphism: the form keeps one composite
generator table and applies it in one pass of the extension.
``compose_normal_forms`` is the one group law: it composes any two normal
forms symbolically, the twist included, since conjugation by sigma_1 maps
each family to itself.
``FunctionalAut`` is a presentation, the images of the generating set, and
does not apply.  ``decompose_automorphism`` is the one way from it to a map:
it recovers the factored form from those images alone, reads every factor
off them in closed form, with one pull-back for u, and checks the result's
table images on every generator.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import lcm

from . import linalg
from .algebra import (
    Element,
    Monomial,
    Signature,
    _antinormal,
    _convolve,
    _from_ints,
    act_each_on_A,
    element_from_dict,
    element_to_dict,
    unit_index,
)
from .errors import (
    BlockShapeViolation,
    DimensionMismatch,
    HomomorphismCounterexample,
    InvariantViolation,
    LatticeNotMapped,
    NotAnAutomorphism,
    NotInA,
    SignatureMismatch,
    SingularMatrix,
)
from .lattice import BlockMatrix, Character, lattice_motion
from .rationals import (as_fraction, field_from_json, int_from_json, list_from_json,
                        object_from_json, rational_str, vector_from_json)

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


def generator_label(key: tuple) -> str:
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

def _hom_extend(out_sig: Signature, x_image, x1_images, d_images):
    """The multiplicative extension of a generator table, as a function
    ``image(w)``: the one way every table map applies.

    The table is ``x_image``, a function from lattice coordinates alpha to
    the image of x^alpha as integer parts (den, num), and the lists of the
    x^{1_[p]} and the d_q images.  The image of x^{alpha,i} d^mu is
    A(alpha,i) . D(mu): A(alpha,i) is the image of x^alpha times the
    ascending powers of the x^{1_[p]} images, an element of A, and D(mu) the
    ascending powers of the d_q images multiplied left to right.  Left
    multiplication by an element of A is a convolution, so every A-part is
    built and attached on integer numerators over one common denominator.
    By associativity this is the ordered product of the images.  It needs
    the x- and xi-images in A and raises InvariantViolation otherwise.

    The x-images per lattice point, the image powers and each D(mu) are
    built once for every element the function is applied to, and live only
    as long as the caller holds the function.  Each image call passes one
    memo of key parts to all its convolutions and drops it on return, so the
    keys of one image share their alpha, i and mu tuples.
    """
    ell, ell1 = out_sig.ell, out_sig.ell1
    powers: dict = {}
    x_parts: dict = {}
    xi_parts: dict = {}
    d_parts: dict = {(0,) * ell: out_sig.one()}

    def power(tag, k: int, base: Element) -> Element:
        top = k
        while top > 1 and (tag, top) not in powers:
            top -= 1
        cached = powers[(tag, top)] if top > 1 else base
        for j in range(top + 1, k + 1):
            # the base on the left: a term of level <= 1 meets each term of
            # the power in at most two Leibniz terms, while the power on the
            # left would expand its high d-powers over the base's A-part
            cached = powers[(tag, j)] = base * cached
        return cached

    def require_A(num: dict, gen: tuple) -> None:
        if any(any(m.mu) for m in num):
            raise InvariantViolation(f"the table's image of generator {gen} is not in A")

    def image(w: Element) -> Element:
        seen: dict = {}
        parts = []
        for (al, i, mu), n in w.num.items():
            x = x_parts.get(al)
            if x is None:
                x = x_parts[al] = x_image(al)
                require_A(x[1], ("x", al))
            den, a_num = x
            for p in range(ell1):
                if i[p]:
                    xi = xi_parts.get((p, i[p]))
                    if xi is None:
                        xi = xi_parts[(p, i[p])] = power(("xi", p), i[p], x1_images[p])
                        require_A(xi.num, ("xi", p + 1))
                    prod_num: dict = {}
                    for (al1, i1, _), n1 in a_num.items():
                        _convolve(prod_num, al1, i1, n1, xi.num.items(), seen)
                    den, a_num = den * xi.den, prod_num
            d_mu = d_parts.get(mu)
            if d_mu is None:
                for q in range(ell):
                    if mu[q]:
                        d_q = power(("d", q), mu[q], d_images[q])
                        d_mu = d_q if d_mu is None else d_mu * d_q
                d_parts[mu] = d_mu
            parts.append((n, den * d_mu.den, a_num, d_mu.num))
        common = lcm(*(den for _, den, _, _ in parts))
        out: dict = {}
        for n, den, a_num, d_num in parts:
            scale = n * (common // den)
            for (al, i, _), n_a in a_num.items():
                _convolve(out, al, i, scale * n_a, d_num.items(), seen)
        return _from_ints(out_sig, w.den * common, out)

    return image


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


def _combinations(sig: Signature, scaled: tuple, elems: list) -> list[Element]:
    """sum_p K[p][q] elems[p] / den for each column q of a matrix (den, K),
    on integer numerators over one common denominator."""
    den, k = scaled
    common = lcm(*(e.den for e in elems))
    out = []
    for q in range(len(k[0])):
        num: dict = {}
        for row, e in zip(k, elems):
            c = row[q] * (common // e.den)
            if c:
                for m, n in e.num.items():
                    num[m] = num.get(m, 0) + c * n
        out.append(_from_ints(sig, den * common, num))
    return out


def _table_images(out_sig: Signature, table, sign: int) -> dict:
    """The images of the generating set read off a generator table, keyed
    in ``generator_keys`` order: the unit goes to ``sign``, x^{+-b_k} and
    x^{1_[p]} to ``sign`` times their entries and d_q to its entry."""
    x_image, x1_images, d_images = table
    ell = out_sig.ell
    images = {("one",): out_sig.scalar(1)}
    for k in range(1, ell + 1):
        for s in (1, -1):
            images[("x", k, s)] = _from_ints(out_sig, *x_image(unit_index(ell, k, s)))
    images.update((("xi", p), e) for p, e in enumerate(x1_images, 1))
    if sign < 0:
        images = {key: -e for key, e in images.items()}
    images.update((("d", q), e) for q, e in enumerate(d_images, 1))
    return images


# ---------------------------------------------------------------------------
# the twist and the one protocol of every automorphism
# ---------------------------------------------------------------------------

def apply_sigma1(sig: Signature, w: Element) -> Element:
    """x^{a,i} d^mu -> -(-d)^mu . x^{a,i}, extended linearly.

    Preserves the bracket, squares to the identity, and is not an
    automorphism of the associative product.
    """
    if w.signature != sig:
        raise SignatureMismatch("element belongs to a different algebra")
    return _antinormal(_from_ints(sig, w.den, {m: n if sum(m.mu) % 2 else -n
                                               for m, n in w.num.items()}))


class _TableMap:
    """sigma_1^eps followed by the homomorphism fixed by a generator table
    from ``signature`` into ``target``.  A family supplies only
    ``_table()``; ``image_function()`` extends the table, and ``apply`` is
    that function on one element.  The defaults eps = 0 and target =
    signature are overridden by the fields of the normal form and sigma_tau."""

    __slots__ = ()
    eps = 0

    @property
    def target(self) -> Signature:
        return self.signature

    def apply(self, w: Element) -> Element:
        if w.signature != self.signature:
            raise SignatureMismatch("element belongs to a different algebra")
        return self.image_function()(w)

    def image_function(self):
        """``image(w)``: the twist, if any, then the extension of the table."""
        extend = _hom_extend(self.target, *self._table())
        if not self.eps:
            return extend
        sig = self.signature
        return lambda w: extend(apply_sigma1(sig, w))

    def generator_images(self) -> dict:
        """The images of the generating set, keyed in ``generator_keys`` order
        and read off the table.  sigma_1 negates A and fixes each d_q, so the
        unit goes to (-1)^eps, x^{+-b_k} and x^{1_[p]} to (-1)^eps times their
        table entries, and d_q to its entry: each is what ``apply`` returns on
        that generator, with no extension."""
        return _table_images(self.target, self._table(), -1 if self.eps else 1)


class TauAut(_TableMap):
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

    def generator_table(self) -> dict:
        """Images of x^{b_k}, x^{1_[p]} and d_q, keyed x+k, xi<p>, d<q>."""
        # every key but the unit and the x^{-b_k}, whose last entry is -1
        return {generator_label(key): e for key, e in self.generator_images().items()
                if key != ("one",) and key[-1] != -1}

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

    @classmethod
    def identity(cls, sig: Signature) -> "TauAut":
        return cls.from_character(sig, Character.trivial(sig.lattice))

    @classmethod
    def from_character(cls, sig: Signature, f: Character) -> "TauAut":
        """(I, f), the character alone, with N = N^{-1} = I."""
        if f.lattice != sig.lattice:
            raise DimensionMismatch("character lives on a different lattice")
        eye = linalg.identity(sig.ell)
        return cls._from_motion(sig, sig, f, eye, eye)

    def __eq__(self, other):
        if not isinstance(other, TauAut):
            return NotImplemented
        return ((self.signature, self.target, self.N, self.f)
                == (other.signature, other.target, other.N, other.f))

    def __repr__(self):
        return f"TauAut(G={self.G.entries}, f={self.f})"


class InnerExp(_TableMap):
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

    def _table(self):
        """Built on each call, not kept: one pass of the d_q over u builds
        every d_q(u), as for a normal form's table."""
        sig = self.signature
        x1_images = [generator_element(sig, ("xi", p)) for p in range(1, sig.ell1 + 1)]
        d_gens = [generator_element(sig, ("d", q)) for q in range(1, sig.ell + 1)]
        d_images = [d - acted for d, acted in zip(d_gens, act_each_on_A(d_gens, self.u))]
        return _fixed_x_image(sig), x1_images, d_images

    @classmethod
    def identity(cls, sig: Signature) -> "InnerExp":
        return cls(sig.zero())

    def __eq__(self, other):
        if not isinstance(other, InnerExp):
            return NotImplemented
        return self.u == other.u

    def __repr__(self):
        return f"InnerExp({self.u!r})"


class ShiftV(_TableMap):
    """sigma_v: fixes every x^a, shifts the polynomial generator row by the
    first l1 slots of v and the derivation row by the last l2 slots."""

    __slots__ = ("signature", "v")

    def __init__(self, signature: Signature, v):
        vv = tuple(as_fraction(x) for x in v)
        if len(vv) != signature.ell:
            raise DimensionMismatch("shift vector length differs from l")
        self.signature = signature
        self.v = vv

    def _table(self):
        """The shifted generator table, built on each call."""
        sig = self.signature
        x1_images = [generator_element(sig, ("xi", p + 1)) + sig.scalar(self.v[p])
                     for p in range(sig.ell1)]
        d_images = [generator_element(sig, ("d", q + 1)) + sig.scalar(self.v[q])
                    if q >= sig.ell1 else generator_element(sig, ("d", q + 1))
                    for q in range(sig.ell)]
        return _fixed_x_image(sig), x1_images, d_images

    def inverse(self) -> "ShiftV":
        return ShiftV(self.signature, tuple(-x for x in self.v))

    @classmethod
    def identity(cls, sig: Signature) -> "ShiftV":
        return cls(sig, (Fraction(0),) * sig.ell)

    def __eq__(self, other):
        if not isinstance(other, ShiftV):
            return NotImplemented
        return (self.signature, self.v) == (other.signature, other.v)

    def __repr__(self):
        return f"ShiftV({', '.join(map(rational_str, self.v))})"


# ---------------------------------------------------------------------------
# normal form and the group law
# ---------------------------------------------------------------------------

def _normal_form_table(nf: "NormalFormAut"):
    """Generator table of the homomorphism sigma_tau . sigma_u . sigma_v.

    sigma_v sends x^{1_[p]} to x^{1_[p]} + v_p and d_q to d_q + v_q [q > l1],
    sigma_u fixes A and sends d_q to d_q - d_q(u), and both fix x^a, so

        x^a -> tau(x^a),  x^{1_[p]} -> tau(x^{1_[p]}) + v_p,
        d_q -> tau(d_q) - tau(d_q(u)) + v_q [q > l1].

    tau is a homomorphism, so tau(d_q(u)) = [tau(d_q), tau(u)] = e_q(tau(u))
    for the derivation e_q = tau(d_q): one extension, of u, serves every q,
    and one pass of the e_q over tau(u) builds each d^lam table of its terms
    once for all q.
    """
    tau, sig, v = nf.tau, nf.signature, nf.v.v
    x_image, x1_images, d_images = tau._table()
    tau_u = nf.tau_u()
    x1_images = [e + sig.scalar(v[p]) if v[p] else e for p, e in enumerate(x1_images)]
    d_images = [e - acted + sig.scalar(v[q]) if q >= sig.ell1 and v[q] else e - acted
                for q, (e, acted) in enumerate(zip(d_images, act_each_on_A(d_images, tau_u)))]
    return x_image, x1_images, d_images


class NormalFormAut(_TableMap):
    """The factored automorphism sigma_tau . sigma_u . sigma_v . sigma_1^eps.

    After the twist it is one algebra homomorphism, applied through one
    extension of its composite generator table (``_normal_form_table``),
    built on first use and kept, as is tau(u), the one extension the table
    needs.  The fields cannot be assigned, so what is kept always matches them.
    """

    __slots__ = ("tau", "u", "v", "eps", "mode", "_images", "_tau_u")

    def __init__(self, tau: TauAut, u: InnerExp, v: ShiftV, eps: int = 0, mode: str = MODE_LIE):
        sig = tau.signature
        if tau.target != sig:
            raise SignatureMismatch("sigma_tau of a normal form must map the algebra to itself")
        if u.signature != sig or v.signature != sig:
            raise SignatureMismatch("normal form factors disagree on the algebra")
        if eps not in (0, 1):
            raise ValueError("eps must be 0 or 1")
        if mode not in (MODE_LIE, MODE_ASSOC):
            raise ValueError("mode must be 'lie' or 'assoc'")
        if eps == 1 and mode == MODE_ASSOC:
            raise NotAnAutomorphism("associative-mode data decomposes with the order-2 twist")
        for name, value in zip(self.__slots__, (tau, u, v, eps, mode, None, None)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __eq__(self, other):
        if not isinstance(other, NormalFormAut):
            return NotImplemented
        return ((self.tau, self.u, self.v, self.eps, self.mode)
                == (other.tau, other.u, other.v, other.eps, other.mode))

    def __hash__(self):
        return hash((self.tau, self.u, self.v, self.eps, self.mode))

    def __repr__(self):
        return (f"NormalFormAut(tau={self.tau!r}, u={self.u!r}, v={self.v!r}, "
                f"eps={self.eps!r}, mode={self.mode!r})")

    @property
    def signature(self) -> Signature:
        return self.tau.signature

    def _table(self):
        if self._images is None:
            object.__setattr__(self, "_images", _normal_form_table(self))
        return self._images

    def tau_u(self) -> Element:
        """tau(u), an element of A: each d_q image subtracts a derivative of it."""
        if self._tau_u is None:
            object.__setattr__(self, "_tau_u", self.tau.apply(self.u.u))
        return self._tau_u

    @classmethod
    def identity(cls, sig: Signature, mode: str = MODE_LIE) -> "NormalFormAut":
        return cls(TauAut.identity(sig), InnerExp.identity(sig),
                   ShiftV.identity(sig), 0, mode)

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
        u_elem = element_from_dict(field_from_json(data, "u", "normal form"), signature)
        sig = u_elem.signature
        tau = object_from_json(field_from_json(data, "tau", "normal form"), "tau")
        rows = list_from_json(field_from_json(tau, "G", "tau"), "G")
        if len(rows) != sig.ell:
            raise ValueError(f"G has {len(rows)} rows, expected {sig.ell}")
        G = BlockMatrix(sig.ell1, sig.ell2,
                        [vector_from_json(row, sig.ell, "G row") for row in rows])
        f = Character(sig.lattice, vector_from_json(field_from_json(tau, "f", "tau"), sig.ell, "f"))
        v = ShiftV(sig, vector_from_json(field_from_json(data, "v", "normal form"), sig.ell, "v"))
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


def compose_normal_forms(a: NormalFormAut, b: NormalFormAut) -> NormalFormAut:
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
    sigma_1^(a.eps xor b.eps).

    The result is checked on the generating set: its table images must equal
    a(b(g)).  For the unit, x^{+-b_k} and x^{1_[p]}, b(g) is a scalar, a
    monomial or affine in the x^{1_[p]}, and a is applied to it.  For d_q,
    b(d_q) = sum_p G_b[p][q] (d_p - [d_p, T]) + v_q [q > l1] with
    T = tau_b(u_b) (``_normal_form_table``).  a is linear, preserves the
    bracket in both modes and sends 1 to (-1)^eps_a, so with W = a(T) in A,

        a(b(d_q)) = sum_p G_b[p][q] (a(d_p) - [a(d_p), W]) + (-1)^eps_a v_q [q > l1].

    a(d_p) is read off a's table; it is tau_a(d_p) plus an element of A,
    which commutes with W, so [a(d_p), W] = tau_a(d_p)(W).  The d-images
    thus cost one extension, of T (the size of u_b), and one pass of the l
    derivations tau_a(d_p) over W, not an extension of each b(d_q).
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

    a_image = a.image_function()
    expected = {key: a_image(image) for key, image in b.generator_images().items()
                if key[0] != "d"}
    # a(d_p) is a's table entry, as sigma_1 fixes d_p, and tau_a(d_p) its level-1
    # part; one combination takes G_b of the a(d_p) and -G_b of the brackets
    brackets = act_each_on_A(a.tau._table()[2], a_image(b.tau_u()))
    den, g_b = b.tau.scaled_G
    images = _combinations(sig, (den, g_b + tuple(tuple(-x for x in row) for row in g_b)),
                           list(a._table()[2]) + brackets)
    sign = -1 if a.eps else 1
    for q, image in enumerate(images):
        shift = sign * b.v.v[q] if q >= sig.ell1 else 0
        expected[("d", q + 1)] = image + sig.scalar(shift) if shift else image
    for key, image in result.generator_images().items():
        if image != expected[key]:
            raise InvariantViolation(f"group law violated on generator {generator_label(key)}")
    return result


# ---------------------------------------------------------------------------
# extensional presentation
# ---------------------------------------------------------------------------

class FunctionalAut:
    """An automorphism presented by its images on the generating set.

    The stored images cover the unit, x^{+-b_k} for each canonical basis row,
    the polynomial generators and the derivations.  A presentation does not
    apply: ``decompose_automorphism`` is the one way from the images to a
    map, the normal form, which applies as every table map does.
    """

    __slots__ = ("signature", "mode", "images")

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

    @classmethod
    def from_aut(cls, nf: NormalFormAut, mode: str | None = None) -> "FunctionalAut":
        """The presentation of a normal form, in its own mode by default."""
        return cls(nf.signature, nf.mode if mode is None else mode, nf.generator_images())

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "signature": self.signature.to_dict(),
            "images": {generator_label(k): element_to_dict(e)
                       for k, e in sorted(self.images.items(),
                                          key=lambda kv: generator_label(kv[0]))},
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FunctionalAut":
        data = object_from_json(data, "automorphism")
        sig = Signature.from_dict(field_from_json(data, "signature", "automorphism"))
        keys = {generator_label(k): k for k in generator_keys(sig)}
        given = object_from_json(field_from_json(data, "images", "automorphism"), "images")
        for label in given:
            if label not in keys:
                raise ValueError(f"unknown generator label {label!r}")
        missing = [label for label in keys if label not in given]
        if missing:
            raise ValueError(f"images has no entry for {', '.join(missing)}")
        images = {keys[label]: element_from_dict(e, sig) for label, e in given.items()}
        return cls(sig, data.get("mode", MODE_LIE), images)


# ---------------------------------------------------------------------------
# randomized verification
# ---------------------------------------------------------------------------

def verify_automorphism(phi, trials: int, seed: int, mode: str | None = None) -> None:
    """Sample element pairs and check the homomorphism law in the given mode,
    through one image function of phi for all the trials.  Raises
    HomomorphismCounterexample, with the trial, the pair and both sides, at
    the first pair that breaks it."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    from .sampling import random_element
    sig = phi.signature
    mode = mode if mode is not None else getattr(phi, "mode", MODE_LIE)
    rng = random.Random(seed)
    image = phi.image_function()
    for trial in range(1, trials + 1):
        a = random_element(sig, rng)
        b = random_element(sig, rng)
        if mode == MODE_ASSOC:
            lhs = image(a * b)
            rhs = image(a) * image(b)
        else:
            lhs = image(a.bracket(b))
            rhs = image(a).bracket(image(b))
        if lhs != rhs:
            raise HomomorphismCounterexample(
                f"product law fails at trial {trial} (mode={mode}, seed={seed})",
                a=a, b=b, lhs=lhs, rhs=rhs, trial=trial)


# ---------------------------------------------------------------------------
# decomposition into normal form
# ---------------------------------------------------------------------------

def _solve_d_preimage(sig: Signature, q: int, al, i, c):
    """Terms (key, coefficient) of u with d_q(u) = c x^{al,i}, valid when
    ambient alpha_q != 0: divide by the grading eigenvalue and push the
    lowering remainder down in i_q, i_q + 1 steps in all."""
    aq = sig.lattice.ambient(al)[q]
    while True:
        yield (al, i), c / aq
        if q >= sig.ell1 or i[q] == 0:
            return
        c = -c * i[q] / aq
        i = i[:q] + (i[q] - 1,) + i[q + 1:]


def decompose_automorphism(phi: FunctionalAut) -> NormalFormAut:
    """Recover the normal form sigma_tau sigma_u sigma_v sigma_1^eps, with
    tau = (G, f), from generator images, with one extension.

    G is the level-1 part of the derivation images.  sigma_1 fixes each d_q,
    so phi(d_q) = sum_p G[p][q] (d_p - d_p(U)) + v_q [q > l1] with U = tau(u).
    G has the block shape and d_p(U) has no alpha = 0 part for p > l1, so for
    q > l1 the alpha = 0 part of the A-part A_q of phi(d_q) is v_q.  Hence
    d_r(U) = -sum_q (G^{-1})[q][r] (A_q - v_q [q > l1]), with no alpha = 0
    term for r > l1, as (G^{-1})[q][r] = 0 for q <= l1 < r.  Each term
    c x^{al,i} of d_r(U) gives U:

    * al != 0: only in the first slot r where the ambient point of al is
      nonzero.  On the al block that d_r is a nonzero grading plus a
      nilpotent lowering, so it is injective and ``_solve_d_preimage`` fixes
      the block of U.  The other slots are consistency conditions;
    * al = 0, so r <= l1: the radial primitive c x^{0, i + e_r} / (|i| + 1).
      d_r is d/dt_r there, and by Euler's identity the sum over r inverts
      it on a closed polynomial form.

    The unit image c0 = (-1)^eps and the x^{+-b_k} images
    c0 f(+-b_k) x^{+-b_k G^{-1}} give eps and f; v_p is c0 times the constant
    term of phi(x^{1_[p]}), as c0 phi(x^{1_[p]}) - v_p = tau(x^{1_[p]}) is
    linear.  The one extension pulls U back to u' = tau_g^{-1}(U) = tau_f(u)
    (tau_g = (G, 1), tau_f = (I, f)); u is u' with x^{al,i} divided by f(al).
    Raises NotAnAutomorphism as soon as an image violates the shape this
    factorization forces, or when the form's own generator images, read off
    its table, differ from the given ones: that check is the certificate,
    and it also decides the consistency conditions.
    """
    sig = phi.signature
    ell, ell1 = sig.ell, sig.ell1
    zero = (0,) * ell

    # G off the level-1 part of the derivation images
    rows = [[Fraction(0)] * ell for _ in range(ell)]
    for q in range(1, ell + 1):
        for (al, i, mu), c in phi.images[("d", q)].terms.items():
            lvl = sum(mu)
            if lvl > 1:
                raise NotAnAutomorphism(f"image of d{q} has a level-{lvl} term")
            if lvl == 1:
                if al != zero or any(i):
                    raise NotAnAutomorphism(f"image of d{q} is outside D + A")
                rows[mu.index(1)][q - 1] = c
    try:
        G = BlockMatrix(sig.ell1, sig.ell2, rows)
    except (BlockShapeViolation, DimensionMismatch, SingularMatrix) as exc:
        raise NotAnAutomorphism(f"derivation images give no block matrix: {exc}") from exc
    try:
        tau_g = TauAut(sig, G, Character.trivial(sig.lattice))
    except LatticeNotMapped as exc:
        raise NotAnAutomorphism("derivation images do not stabilize the lattice") from exc
    back = tau_g.inverse()

    # the A-parts A_q = phi(d_q) - tau_g(d_q); for q > l1 their alpha = 0 part is v_q
    v = [Fraction(0)] * ell
    a_parts = []
    for q0, level_one in enumerate(tau_g._table()[2]):
        a_q = phi.images[("d", q0 + 1)] - level_one
        if q0 >= ell1:
            if any(m.alpha == zero and any(m.i) for m in a_q.num):
                raise NotAnAutomorphism(f"image of d{q0 + 1} has a non-constant degree-0 part")
            v[q0] = a_q.constant_coefficient()
        a_parts.append(a_q - sig.scalar(v[q0]))

    # U off d_r(U), combinations of the A-parts by G^{-1}; al != 0 in its first graded slot
    first = {al: next(k for k, g in enumerate(sig.lattice.grades(al)) if g)
             for al in {m.alpha for a in a_parts for m in a.num} if al != zero}
    u_terms: dict = {}
    for r, combination in enumerate(_combinations(sig, back.scaled_G, a_parts)):
        for (al, i, _), c in (-combination).terms.items():
            if al == zero:
                key = (zero, i[:r] + (i[r] + 1,) + i[r + 1:])
                u_terms[key] = u_terms.get(key, 0) + c / (sum(i) + 1)
            elif first[al] == r:
                for key, val in _solve_d_preimage(sig, r, al, i, c):
                    u_terms[key] = u_terms.get(key, 0) + val

    # the sign c0 = (-1)^eps and the character off the unit and x-images of
    # phi itself: tau_g fixes scalars and moves x^{+-b_k} to x^{+-b_k G^{-1}},
    # the lattice point with coordinates +-(row k of N)
    unit = phi.images[("one",)]
    if set(unit.num) != {Monomial(zero, zero, zero)}:
        raise NotAnAutomorphism("image of the unit is not scalar")
    c0 = unit.constant_coefficient()
    if c0 not in (Fraction(1), Fraction(-1)):
        raise NotAnAutomorphism(f"unit scales by {c0}, expected +-1")
    f_values = []
    for k in range(1, ell + 1):
        coeffs = {}
        for s in (1, -1):
            image = phi.images[("x", k, s)]
            expected = Monomial(tuple(s * n for n in tau_g.N[k - 1]), zero, zero)
            if set(image.num) != {expected}:
                raise NotAnAutomorphism(
                    f"image of x^{{{'+' if s > 0 else '-'}b_{k}}} is not a scalar multiple")
            coeffs[s] = image.terms[expected]
        if coeffs[1] * coeffs[-1] != c0 * c0:
            raise NotAnAutomorphism(f"images of x^{{+-b_{k}}} violate multiplicativity")
        f_values.append(coeffs[1] / c0)
    f = Character(sig.lattice, f_values)
    eps = 1 if c0 == -1 else 0

    # the polynomial shift off the constant terms of the affine x^{1_[p]} images
    for p in range(1, ell1 + 1):
        image = phi.images[("xi", p)]
        extra = {m: c for m, c in image.terms.items()
                 if m.alpha != zero or sum(m.i) > 1 or m.mu != zero}
        if extra:
            from .expressions import format_element
            raise NotAnAutomorphism(
                f"image of x^{{1_[{p}]}} has stray terms {format_element(Element(sig, extra))}")
        v[p - 1] = c0 * image.constant_coefficient()

    u_prime = back.apply(Element(sig, {Monomial(al, i, zero): c for (al, i), c in u_terms.items()}))
    u = Element(sig, {m: c / f.evaluate_coords(m.alpha) for m, c in u_prime.terms.items()})
    tau = TauAut._from_motion(sig, sig, f, tau_g.N, tau_g.N_inv)
    result = NormalFormAut(tau, InnerExp(u), ShiftV(sig, v), eps, phi.mode)
    for key, image in result.generator_images().items():
        if image != phi.images[key]:
            raise NotAnAutomorphism(f"normal form disagrees on generator {generator_label(key)}")
    return result


def random_normal_form_aut(sig: Signature, rng: random.Random) -> NormalFormAut:
    """A random factored automorphism for round-trip and group-law checks."""
    from .sampling import random_A_element, random_aut2, random_character, random_shift_vector
    tau = TauAut(sig, random_aut2(sig, rng), random_character(sig.lattice, rng))
    u = InnerExp(random_A_element(sig, rng))
    v = ShiftV(sig, random_shift_vector(sig, rng))
    return NormalFormAut(tau, u, v, rng.randint(0, 1))
