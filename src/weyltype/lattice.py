"""Finitely generated nondegenerate subgroups of Q^l and their symmetries.

A lattice is stored through a canonical basis: the Hermite normal form of
the integer matrix obtained by clearing denominators, scaled back down.
Two generator lists spanning the same subgroup therefore produce identical
``basis`` fields, so lattice equality is plain data equality.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from operator import mul

from . import linalg
from .errors import (
    BlockShapeViolation,
    DimensionMismatch,
    EmptyGenerators,
    LatticeNotMapped,
    NondegenerateViolation,
    SingularMatrix,
)
from .rationals import (as_fraction, field_from_json, int_from_json, list_from_json,
                        object_from_json, point_str, rational_str, vector_from_json, vector_strs)


class Lattice:
    """A rank-l subgroup of Q^l with a canonical Z-basis (rows of ``basis``)."""

    __slots__ = ("ambient_dim", "generators", "basis", "denominator",
                 "integer_basis", "scaled_inverse", "basis_inverse")

    def __init__(self, ambient_dim: int, generators):
        if ambient_dim < 1:
            raise DimensionMismatch("ambient dimension must be positive")
        gens = tuple(tuple(as_fraction(x) for x in g) for g in generators)
        if not gens:
            raise EmptyGenerators("at least one generator is required")
        for g in gens:
            if len(g) != ambient_dim:
                raise DimensionMismatch(
                    f"generator {point_str(g)} does not have length {ambient_dim}")
        scale, integer_rows = linalg.scaled_integer(gens)
        hnf = linalg.hermite_normal_form(integer_rows)
        if len(hnf) < ambient_dim:
            raise NondegenerateViolation(
                f"generators span a subspace of rank {len(hnf)} < {ambient_dim}")
        g = gcd(scale, *(x for row in hnf for x in row))
        denominator = scale // g
        self.ambient_dim = ambient_dim
        self.generators = gens
        self.denominator = denominator
        # the integer grading rows denominator * basis
        self.integer_basis = tuple(tuple(x // g for x in row) for row in hnf)
        self.basis = tuple(tuple(Fraction(x, denominator) for x in row)
                           for row in self.integer_basis)
        # basis^{-1} = denominator adj(integer_basis) / det over its least
        # denominator; det > 0, as the HNF is triangular with positive pivots
        det, adj = linalg.integer_det_adjugate(self.integer_basis)
        g = gcd(det, *(denominator * x for row in adj for x in row))
        inverse = tuple(tuple(denominator * x // g for x in row) for row in adj)
        self.scaled_inverse = det // g, inverse
        self.basis_inverse = tuple(tuple(Fraction(x, det // g) for x in row) for row in inverse)

    def coordinates(self, v):
        """Integer coordinates n with n . basis = v, or None when v is not in the lattice."""
        v = tuple(as_fraction(x) for x in v)
        if len(v) != self.ambient_dim:
            raise DimensionMismatch(
                f"vector of length {len(v)} in ambient dimension {self.ambient_dim}")
        den, (coords,) = linalg.integer_product(linalg.scaled_integer((v,)),
                                                self.scaled_inverse)
        if any(c % den for c in coords):
            return None
        return tuple(c // den for c in coords)

    def grades(self, coords) -> tuple[int, ...]:
        """denominator * the lattice point with the given integer basis coordinates."""
        if len(coords) != self.ambient_dim:
            raise DimensionMismatch(
                f"{len(coords)} coordinates in ambient dimension {self.ambient_dim}")
        return tuple(sum(map(mul, coords, column)) for column in zip(*self.integer_basis))

    def ambient(self, coords) -> tuple[Fraction, ...]:
        """The lattice point with the given integer basis coordinates."""
        return tuple(Fraction(n, self.denominator) for n in self.grades(coords))

    def __eq__(self, other):
        if not isinstance(other, Lattice):
            return NotImplemented
        return self.ambient_dim == other.ambient_dim and self.basis == other.basis

    def __hash__(self):
        return hash((self.ambient_dim, self.basis))

    def __repr__(self):
        rows = ", ".join("(" + ",".join(map(rational_str, r)) + ")" for r in self.basis)
        return f"Lattice(dim={self.ambient_dim}, basis=[{rows}])"

    def to_dict(self) -> dict:
        return {
            "ambient_dim": self.ambient_dim,
            "generators": [vector_strs(g) for g in self.generators],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Lattice":
        data = object_from_json(data, "lattice")
        dim = int_from_json(field_from_json(data, "ambient_dim", "lattice"), "ambient_dim")
        gens = list_from_json(field_from_json(data, "generators", "lattice"), "generators")
        return cls(dim, [vector_from_json(g, dim, "generator") for g in gens])


def adapted_basis(lattice: Lattice, ell1: int) -> tuple[tuple[int, ...], ...]:
    """The integer rows K of a Z-basis K / lattice.denominator of Gamma whose
    first ``ell1`` rows span Gamma ∩ (Q^l1 x 0): the row HNF of the
    column-reversed integer basis, with its last ``ell1`` rows (zero past
    slot l1) moved to the front."""
    ell = lattice.ambient_dim
    if not 0 <= ell1 <= ell:
        raise DimensionMismatch(f"l1 = {ell1} outside 0..{ell}")
    flipped = [row[::-1] for row in lattice.integer_basis]
    rows = [row[::-1] for row in linalg.hermite_normal_form(flipped)]
    return tuple(rows[ell - ell1:] + rows[:ell - ell1])


class BlockMatrix:
    """Invertible l x l rational matrix with vanishing upper-right l1 x l2 block;
    ``scaled`` is (den, K), K an integer matrix over the least denominator."""

    __slots__ = ("ell1", "ell2", "entries", "scaled")

    def __init__(self, ell1: int, ell2: int, entries):
        ell = ell1 + ell2
        rows = linalg.to_matrix(entries)
        if len(rows) != ell or any(len(r) != ell for r in rows):
            raise DimensionMismatch(f"expected a {ell}x{ell} matrix")
        for r in range(ell1):
            for c in range(ell1, ell):
                if rows[r][c] != 0:
                    raise BlockShapeViolation(
                        f"entry ({r + 1},{c + 1}) must vanish in block form")
        self.scaled = linalg.scaled_integer(rows)
        # the upper-right block vanishes, so det G = det M * det Q
        if not linalg.integer_det_adjugate(self.scaled[1])[0]:
            raise SingularMatrix("diagonal blocks must be invertible")
        self.ell1 = ell1
        self.ell2 = ell2
        self.entries = rows

    @property
    def ell(self) -> int:
        return self.ell1 + self.ell2

    @classmethod
    def identity(cls, ell1: int, ell2: int) -> "BlockMatrix":
        return cls(ell1, ell2, linalg.identity(ell1 + ell2))

    def __eq__(self, other):
        if not isinstance(other, BlockMatrix):
            return NotImplemented
        return (self.ell1, self.ell2, self.entries) == (other.ell1, other.ell2, other.entries)

    def __hash__(self):
        return hash((self.ell1, self.ell2, self.entries))

    def __repr__(self):
        return f"BlockMatrix(ell1={self.ell1}, ell2={self.ell2}, entries={self.entries})"


def lattice_motion(src: Lattice, dst: Lattice, G: BlockMatrix) -> tuple[tuple, tuple]:
    """(N, N^{-1}): row k of the integer matrix N holds the dst-coordinates of
    b_k . G^{-1} for the basis row b_k of src, so N = B_src G^{-1} B_dst^{-1}.

    Integers only: with G = K / e, its ``scaled`` form, G^{-1} = e adj(K) / det K
    from ``linalg.integer_det_adjugate``; the rows of N come from integer products
    over one denominator and are checked for integrality in order, then
    det N = +-1 with the same routine, which also gives N^{-1} = det N adj N.
    Raises LatticeNotMapped unless src . G^{-1} = dst, so it is the lattice
    check of every (G, f) map: sigma_tau, the isomorphism maps and Aut2
    membership.
    """
    e, K = G.scaled
    det_k, adj_k = linalg.integer_det_adjugate(K)  # nonzero: a BlockMatrix is invertible
    # row k of images, times e / img_den, is b_k . G^{-1}
    img_den, images = linalg.integer_product((src.denominator, src.integer_basis),
                                             (det_k, adj_k))
    den, moved = linalg.integer_product((img_den, images), dst.scaled_inverse)
    rows = []
    for b, image, row in zip(src.basis, images, moved):
        row = [e * x for x in row]
        if any(x % den for x in row):
            image = tuple(Fraction(e * x, img_den) for x in image)
            raise LatticeNotMapped(f"basis row {point_str(b)} . G^-1 = {point_str(image)} "
                                   "is not a point of the target lattice")
        rows.append(tuple(x // den for x in row))
    det_n, adj_n = linalg.integer_det_adjugate(rows)
    if abs(det_n) != 1:
        raise LatticeNotMapped("Gamma . G^-1 is a proper sublattice of the target")
    return tuple(rows), tuple(tuple(det_n * x for x in row) for row in adj_n)


def aut2_membership(lattice: Lattice, G: BlockMatrix) -> bool:
    """True iff Gamma . G = Gamma exactly, that is iff Gamma . G^{-1} = Gamma."""
    if G.ell != lattice.ambient_dim:
        raise DimensionMismatch("matrix size differs from ambient dimension")
    try:
        lattice_motion(lattice, lattice, G)
    except LatticeNotMapped:
        return False
    return True


class Character:
    """A multiplicative map Gamma -> Q*, stored by its values on the basis rows."""

    __slots__ = ("lattice", "values")

    def __init__(self, lattice: Lattice, values):
        vals = tuple(as_fraction(x) for x in values)
        if len(vals) != lattice.ambient_dim:
            raise DimensionMismatch("one value per canonical basis row")
        if any(v == 0 for v in vals):
            raise ValueError("character values must be nonzero")
        self.lattice = lattice
        self.values = vals

    @classmethod
    def trivial(cls, lattice: Lattice) -> "Character":
        return cls(lattice, (Fraction(1),) * lattice.ambient_dim)

    def evaluate_ratio(self, coords) -> tuple[int, int]:
        """f at the point with these basis coordinates as integers (num, den)
        with den > 0, not reduced."""
        num = den = 1
        for v, n in zip(self.values, coords):
            if n > 0:
                num *= v.numerator ** n
                den *= v.denominator ** n
            elif n < 0:
                num *= v.denominator ** -n
                den *= v.numerator ** -n
        return (-num, -den) if den < 0 else (num, den)

    def evaluate_coords(self, coords) -> Fraction:
        return Fraction(*self.evaluate_ratio(coords))

    def __eq__(self, other):
        if not isinstance(other, Character):
            return NotImplemented
        return self.lattice == other.lattice and self.values == other.values

    def __hash__(self):
        return hash((self.lattice, self.values))

    def __repr__(self):
        return f"Character({', '.join(map(rational_str, self.values))})"
