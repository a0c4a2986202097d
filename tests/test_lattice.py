import json
import random
from fractions import Fraction
from math import gcd

import pytest

from weyltype import (
    BlockMatrix,
    Character,
    Lattice,
    Signature,
    aut2_membership,
)
from weyltype.errors import (
    BlockShapeViolation,
    DimensionMismatch,
    EmptyGenerators,
    NondegenerateViolation,
    SingularMatrix,
)
from weyltype.lattice import adapted_basis
from weyltype.sampling import enumerate_aut2, random_aut2
from weyltype.linalg import (dot, hermite_normal_form, identity, integer_det_adjugate, mat_det,
                             mat_mul, scaled_integer, unimodular_matrices, vec_mat)

from conftest import fraction_inverse


# Gauss elimination on Fractions, and Gauss-Jordan from conftest: a reference
# for the fraction-free routine behind mat_det, the inverses and the lattice checks

def _fraction_det(m) -> Fraction:
    n = len(m)
    rows = [[Fraction(x) for x in row] for row in m]
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if rows[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            det = -det
        det *= rows[col][col]
        inv = 1 / rows[col][col]
        for r in range(col + 1, n):
            if rows[r][col]:
                factor = rows[r][col] * inv
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[col])]
    return det


def _lcm(a: int, b: int) -> int:
    return a * b // gcd(a, b)


def _reference_lattice_fields(gens):
    """(basis, denominator, integer_basis) by clearing and restoring
    denominators one lcm at a time, or None when the rank is deficient."""
    scale = 1
    for g in gens:
        for x in g:
            scale = _lcm(scale, x.denominator)
    hnf = hermite_normal_form([[int(x * scale) for x in g] for g in gens])
    if len(hnf) < len(gens[0]):
        return None
    basis = tuple(tuple(Fraction(x, scale) for x in row) for row in hnf)
    denominator = 1
    for row in basis:
        for x in row:
            denominator = _lcm(denominator, x.denominator)
    return basis, denominator, tuple(tuple(int(x * denominator) for x in row) for row in basis)


def _rows(lat):
    return tuple(tuple(x for x in row) for row in lat.basis)


class TestLatticeFromGenerators:
    def test_redundant_generators_reduce_to_identity(self):
        lat = Lattice(2, [(1, 0), (0, 1), (1, 1)])
        assert _rows(lat) == ((1, 0), (0, 1))

    def test_gcd_in_rank_one(self):
        lat = Lattice(1, [(2,), (3,)])
        assert _rows(lat) == ((1,),)

    def test_rank_deficiency_rejected(self):
        with pytest.raises(NondegenerateViolation):
            Lattice(2, [(1, 0)])

    def test_empty_generators_rejected(self):
        with pytest.raises(EmptyGenerators):
            Lattice(2, [])

    def test_wrong_length_generator_rejected(self):
        with pytest.raises(DimensionMismatch):
            Lattice(2, [(1, 0, 0), (0, 1, 0)])

    def test_half_integer_lattice(self):
        lat = Lattice(2, [(1, 0), (0, 1), (Fraction(1, 2), Fraction(1, 2))])
        assert _rows(lat) == ((Fraction(1, 2), Fraction(1, 2)), (0, 1))
        assert lat.denominator == 2

    def test_canonicity_under_unimodular_remix(self):
        rng = random.Random(5)
        base = Lattice(2, [(Fraction(1, 3), 0), (Fraction(1, 6), 1)])
        mixers = [m for _, m in zip(range(40), unimodular_matrices(2, 2))]
        for _ in range(25):
            mix = rng.choice(mixers)
            gens = [vec_mat(row, base.basis) for row in mix]
            extra = tuple(a + b for a, b in zip(gens[0], gens[1]))
            remixed = Lattice(2, gens + [extra])
            assert remixed.basis == base.basis
            assert remixed == base

    def test_fields_match_the_lcm_construction(self):
        rng = random.Random(13)
        deficient = 0
        for _ in range(1000):
            ell = rng.randint(1, 4)
            gens = [tuple(Fraction(rng.randint(-6, 6), rng.choice((1, 1, 2, 3, 4, 6, 10)))
                          for _ in range(ell)) for _ in range(rng.randint(ell, ell + 2))]
            want = _reference_lattice_fields(gens)
            if want is None:
                deficient += 1
                with pytest.raises(NondegenerateViolation):
                    Lattice(ell, gens)
                continue
            lat = Lattice(ell, gens)
            assert (lat.basis, lat.denominator, lat.integer_basis) == want
            assert all(type(x) is Fraction for row in lat.basis for x in row)
            assert all(type(x) is int for row in lat.integer_basis for x in row)
            inverse = fraction_inverse(want[0])
            assert lat.basis_inverse == inverse
            assert lat.scaled_inverse == scaled_integer(inverse)
            assert all(type(x) is int for row in lat.scaled_inverse[1] for x in row)
            # a lattice point, then a point off the lattice (or the same point
            # when the rational coordinates happen to be integers)
            n = tuple(rng.randint(-5, 5) for _ in range(ell))
            point = vec_mat(n, want[0])
            assert lat.coordinates(point) == n
            point = tuple(x + Fraction(rng.randint(-2, 2), rng.randint(1, 4)) for x in point)
            coords = vec_mat(point, inverse)
            want_coords = (tuple(int(c) for c in coords)
                           if all(c.denominator == 1 for c in coords) else None)
            assert lat.coordinates(point) == want_coords
        assert deficient < 100


ADAPTED_CASES = [
    (2, [(1, 0), (0, 1), (Fraction(1, 2), Fraction(1, 2))]),
    (2, [(1, Fraction(1, 2)), (0, 1)]),
    (3, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (Fraction(1, 2), Fraction(1, 2), 0)]),
    (3, [(Fraction(2, 3), 1, Fraction(-1, 2)), (0, Fraction(1, 4), 3), (1, 1, 1)]),
    (4, [(1, 2, 0, Fraction(1, 3)), (0, Fraction(1, 2), 1, 0), (Fraction(3, 4), 0, 1, 1),
         (0, 0, Fraction(1, 5), 2), (1, 1, 1, 1)]),
]


class TestAdaptedBasis:
    @pytest.mark.parametrize("ell, gens", ADAPTED_CASES)
    def test_first_rows_span_the_e1_part(self, ell, gens):
        lat = Lattice(ell, gens)
        for ell1 in range(ell + 1):
            rows = adapted_basis(lat, ell1)
            assert len(rows) == ell
            assert all(type(x) is int for row in rows for x in row)
            assert Lattice(ell, [[Fraction(x, lat.denominator) for x in row]
                                 for row in rows]) == lat
            for row in rows[:ell1]:
                assert all(x == 0 for x in row[ell1:])
            # an invertible trailing block on the other rows forces every
            # lattice point of Q^l1 x 0 into the span of the first l1 rows
            trailing = tuple(row[ell1:] for row in rows[ell1:])
            assert ell1 == ell or integer_det_adjugate(trailing)[0] != 0

    def test_e1_part_of_a_skew_lattice(self):
        # <(1,1/2),(0,1)> meets Q x 0 in Z(2,0); neither canonical row lies there
        lat = Lattice(2, [(1, Fraction(1, 2)), (0, 1)])
        assert lat.denominator == 2
        assert adapted_basis(lat, 1)[0] == (4, 0)

    def test_split_out_of_range(self):
        lat = Lattice(2, [(1, 0), (0, 1)])
        for ell1 in (-1, 3):
            with pytest.raises(DimensionMismatch):
                adapted_basis(lat, ell1)


class TestCoordinates:
    def test_identity_basis(self):
        lat = Lattice(2, [(1, 0), (0, 1)])
        assert lat.coordinates((3, -2)) == (3, -2)

    def test_scaled_basis(self):
        lat = Lattice(2, [(Fraction(1, 2), 0), (0, 1)])
        assert lat.coordinates((Fraction(3, 2), 1)) == (3, 1)

    def test_non_member(self):
        lat = Lattice(2, [(1, 0), (0, 1)])
        assert lat.coordinates((Fraction(1, 2), 0)) is None

    def test_dimension_mismatch(self):
        lat = Lattice(2, [(1, 0), (0, 1)])
        with pytest.raises(DimensionMismatch):
            lat.coordinates((1, 0, 0))

    def test_ambient_inverts_coordinates(self):
        lat = Lattice(2, [(1, 0), (0, 1), (Fraction(1, 2), Fraction(1, 2))])
        rng = random.Random(3)
        for _ in range(20):
            n = (rng.randint(-4, 4), rng.randint(-4, 4))
            assert lat.coordinates(lat.ambient(n)) == n

    def test_ambient_is_stateless(self):
        lat = Lattice(2, [(1, 0), (Fraction(1, 5), Fraction(1, 7))])
        assert "_ambient_cache" not in Lattice.__slots__
        assert lat.integer_basis == ((7, 5), (0, 25))
        state = {s: getattr(lat, s) for s in Lattice.__slots__}
        rng = random.Random(4)
        for _ in range(20):
            n = (rng.randint(-4, 4), rng.randint(-4, 4))
            point = lat.ambient(n)
            assert point == vec_mat(n, lat.basis)
            assert all(type(x) is Fraction for x in point)
            assert lat.grades(n) == tuple(x * lat.denominator for x in point)
        assert {s: getattr(lat, s) for s in Lattice.__slots__} == state

    def test_ambient_dimension_mismatch(self):
        lat = Lattice(2, [(1, 0), (0, 1)])
        with pytest.raises(DimensionMismatch):
            lat.ambient((1, 0, 0))


class TestPairing:
    def test_unit_vectors(self):
        assert dot((1, 0), (1, 0)) == 1

    def test_mixed(self):
        assert dot((2, 3), (1, -1)) == -1

    def test_zero(self):
        assert dot((0, 0), (5, -7)) == 0

    def test_bilinear_and_symmetric_roles(self):
        rng = random.Random(2)
        for _ in range(20):
            a = tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(3))
            b = tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(3))
            c = tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(3))
            assert dot(a, b) == dot(b, a)
            ab = tuple(x + y for x, y in zip(a, b))
            assert dot(ab, c) == dot(a, c) + dot(b, c)

    def test_length_mismatch(self):
        with pytest.raises(DimensionMismatch):
            dot((1, 0), (1, 0, 0))


class TestBlockMatrix:
    def test_shape_violation(self):
        with pytest.raises(BlockShapeViolation):
            BlockMatrix(1, 1, [[1, 1], [0, 1]])

    def test_singular_block(self):
        # a singular M, then a singular Q: one determinant of G catches both
        for entries in ([[0, 0], [1, 1]], [[1, 0], [1, 0]], [[1, 0, 0], [0, 1, 2], [0, 2, 4]]):
            with pytest.raises(SingularMatrix, match="^diagonal blocks must be invertible$"):
                BlockMatrix(1, len(entries) - 1, entries)

    def test_blocks(self):
        G = BlockMatrix(1, 1, [[2, 0], [3, 5]])
        assert fraction_inverse(G.entries) == ((Fraction(1, 2), 0),
                                               (Fraction(-3, 10), Fraction(1, 5)))
        assert G.scaled == (1, ((2, 0), (3, 5)))
        assert BlockMatrix(1, 1, [[Fraction(1, 2), 0], [Fraction(1, 3), 1]]).scaled == (
            6, ((3, 0), (2, 6)))


class TestIntegerDetAdjugate:
    def test_random_matrices_match_fraction_elimination(self):
        rng = random.Random(70)
        singular = 0
        for _ in range(300):
            n = rng.randint(1, 4)
            m = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
            forced = rng.random() < 0.25
            if forced:
                # row r becomes a multiple of row t (the zero row when r == t)
                r, t, c = rng.randrange(n), rng.randrange(n), rng.randint(-2, 2)
                m[r] = [c * x for x in m[t]] if r != t else [0] * n
            det, adj = integer_det_adjugate(m)
            assert type(det) is int and det == _fraction_det(m)
            assert not (forced and det)
            if det:
                assert all(type(x) is int for row in adj for x in row)
                assert (tuple(tuple(Fraction(x, det) for x in row) for row in adj)
                        == fraction_inverse(m))
            else:
                singular += 1
                assert adj is None
        assert 30 < singular < 200

    def test_rational_views_match_fraction_elimination(self):
        rng = random.Random(71)
        singular = 0
        for _ in range(3000):
            n = rng.randint(1, 4)
            m = [[Fraction(rng.randint(-5, 5), rng.randint(1, 6)) for _ in range(n)]
                 for _ in range(n)]
            if rng.random() < 0.25:
                r, t = rng.randrange(n), rng.randrange(n)
                c = Fraction(rng.randint(-2, 2), rng.randint(1, 3))
                m[r] = [c * x for x in m[t]] if r != t else [Fraction(0)] * n
            m = tuple(map(tuple, m))
            det = mat_det(m)
            assert type(det) is Fraction and det == _fraction_det(m)
            # m^{-1} = e adj(K) / det K for m = K / e
            e, k = scaled_integer(m)
            det_k, adj = integer_det_adjugate(k)
            try:
                want = fraction_inverse(m)
            except SingularMatrix:
                singular += 1
                assert det == det_k == 0 and adj is None
                continue
            assert tuple(tuple(Fraction(e * x, det_k) for x in row) for row in adj) == want
        assert 650 < singular < 1000

    def test_identity_is_integer(self):
        assert identity(3) == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
        assert all(type(x) is int for row in identity(3) for x in row)
        assert mat_det(identity(3)) == 1 and integer_det_adjugate(identity(3)) == (1, identity(3))

    def test_row_swaps_keep_the_sign(self):
        assert integer_det_adjugate([[0, 1], [1, 0]]) == (-1, ((0, -1), (-1, 0)))
        assert integer_det_adjugate([[0, 2, 0], [0, 0, 3], [5, 0, 0]]) == (
            30, ((0, 0, 6), (15, 0, 0), (0, 10, 0)))


class TestAut2Membership:
    def test_integer_transvection(self):
        lat = Lattice(2, [(1, 0), (0, 1)])
        assert aut2_membership(lat, BlockMatrix(1, 1, [[1, 0], [1, 1]]))

    def test_index_two_image_rejected(self):
        lat = Lattice(2, [(1, 0), (0, 1)])
        assert not aut2_membership(lat, BlockMatrix(1, 1, [[2, 0], [0, 1]]))

    def test_identity(self):
        lat = Lattice(2, [(1, 0), (0, 1), (Fraction(1, 2), Fraction(1, 2))])
        assert aut2_membership(lat, BlockMatrix.identity(1, 1))

    def test_group_closure(self, desk):
        members = enumerate_aut2(desk, bound=2)
        assert len(members) > 1
        rng = random.Random(9)
        lat = desk.lattice
        for _ in range(25):
            a, b = rng.choice(members), rng.choice(members)
            assert aut2_membership(lat, BlockMatrix(1, 1, mat_mul(a.entries, b.entries)))
            assert aut2_membership(lat, BlockMatrix(1, 1, fraction_inverse(a.entries)))


def _ref_aut2_membership(lattice, G):
    """The coordinate-row check: Gamma . G = Gamma iff each basis row times G
    has integer coordinates and those rows have determinant +-1."""
    basis_inverse = fraction_inverse(lattice.basis)
    coord_rows = []
    for row in lattice.basis:
        coords = vec_mat(vec_mat(row, G.entries), basis_inverse)
        if any(c.denominator != 1 for c in coords):
            return False
        coord_rows.append(coords)
    return abs(_fraction_det(coord_rows)) == 1


def _seeded_block_matrices(ell1, lattice, rng, count):
    """A^{-1} V A for the E1-adapted basis A and block lower-triangular V:
    unimodular integer V (members), V with a row doubled (index-2 images),
    the inverse of that (Gamma . G^{-1} is then a proper sublattice, which
    only the determinant test rejects), and V with a halved entry."""
    ell = lattice.ambient_dim
    A = adapted_basis(lattice, ell1)
    a_inv = fraction_inverse(A)
    out = []
    for n in range(count):
        V = [[int(r == c) for c in range(ell)] for r in range(ell)]
        for _ in range(rng.randint(2, 6)):
            r, t = rng.randrange(ell), rng.randrange(ell)
            if r == t:
                V[r] = [-x for x in V[r]]
            elif r >= ell1 or t < ell1:
                V[r] = [x + rng.choice((-1, 1)) * y for x, y in zip(V[r], V[t])]
        kind = n % 4
        if kind in (1, 2):
            r = rng.randrange(ell)
            V[r] = [2 * x for x in V[r]]
            if kind == 2:
                V = fraction_inverse(V)
        elif kind == 3:
            r = rng.randrange(ell)
            t = rng.randrange(ell1) if r < ell1 else rng.randrange(ell)
            V[r][t] += Fraction(1, 2)
        try:
            out.append(BlockMatrix(ell1, ell - ell1, mat_mul(a_inv, mat_mul(V, A))))
        except SingularMatrix:
            continue
    return out


class TestAut2MembershipAgreesWithCoordinateRows:
    SIGNATURES = {
        "desk": (1, [(1, 0), (0, 1), (Fraction(1, 2), Fraction(1, 2))]),
        "rank3": (1, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (Fraction(1, 2), Fraction(1, 2), 0)]),
        "rank4": (2, [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1),
                      (Fraction(1, 2), 0, Fraction(1, 3), Fraction(1, 2))]),
    }

    @pytest.mark.parametrize("name", sorted(SIGNATURES))
    def test_members_and_non_members(self, name):
        ell1, gens = self.SIGNATURES[name]
        lattice = Lattice(len(gens[0]), gens)
        matrices = _seeded_block_matrices(ell1, lattice, random.Random(name), 80)
        verdicts = [aut2_membership(lattice, G) for G in matrices]
        assert verdicts == [_ref_aut2_membership(lattice, G) for G in matrices]
        assert 10 < sum(verdicts) < len(verdicts) - 10


def _shape_signature(ell1, ell2):
    """W(l1, l2, Gamma), Gamma = Z^l plus one point off it: 1/2 in the first
    and the last slot and, from rank 3 on, 1/3 in the second."""
    ell = ell1 + ell2
    point = [Fraction(0)] * ell
    point[0] = point[-1] = Fraction(1, 2)
    if ell > 2:
        point[1] = Fraction(1, 3)
    return Signature(ell1, ell2, Lattice(ell, [*identity(ell), point]))


class TestRandomAut2:
    """The sampler against the block shape, both membership checks and the
    matrix scan it replaced."""

    SHAPES = [(ell1, ell - ell1) for ell in range(2, 7) for ell1 in sorted({0, 1, ell // 2, ell})]

    @pytest.mark.parametrize("ell1, ell2", SHAPES)
    def test_draws_are_block_shaped_members(self, ell1, ell2):
        sig = _shape_signature(ell1, ell2)
        ell = sig.ell
        rng = random.Random(10 * ell1 + ell2)
        draws = [random_aut2(sig, rng) for _ in range(40)]
        for G in draws:
            assert all(G.entries[r][c] == 0 for r in range(ell1) for c in range(ell1, ell))
            assert aut2_membership(sig.lattice, G)
            assert _ref_aut2_membership(sig.lattice, G)
        assert len(set(draws)) > 5
        if ell1 and ell2:
            # the transvections reach the lower-left block
            assert any(G.entries[r][c] for G in draws
                       for r in range(ell1, ell) for c in range(ell1))

    def test_desk_draws_cover_the_scan(self, desk):
        members = enumerate_aut2(desk, bound=2)
        rng = random.Random(0)
        draws = {random_aut2(desk, rng) for _ in range(300)}
        assert set(members) <= draws
        # and members past the scan's entry bound
        assert len(draws) > len(members)


class TestCharacter:
    def test_trivial(self):
        lat = Lattice(2, [(1, 0), (0, 1)])
        f = Character.trivial(lat)
        assert f.evaluate_coords((3, -5)) == 1

    def test_negative_power(self):
        lat = Lattice(1, [(1,)])
        f = Character(lat, [2])
        assert f.evaluate_coords((-3,)) == Fraction(1, 8)

    def test_two_values(self):
        lat = Lattice(2, [(1, 0), (0, 1)])
        f = Character(lat, [2, 3])
        assert f.evaluate_coords((1, 1)) == 6

    def test_multiplicative(self):
        rng = random.Random(4)
        lat = Lattice(2, [(1, 0), (0, 1), (Fraction(1, 2), Fraction(1, 2))])
        f = Character(lat, [Fraction(2, 3), -5])
        for _ in range(25):
            a = lat.ambient((rng.randint(-3, 3), rng.randint(-3, 3)))
            b = lat.ambient((rng.randint(-3, 3), rng.randint(-3, 3)))
            ab = tuple(x + y for x, y in zip(a, b))
            value = [f.evaluate_coords(lat.coordinates(point)) for point in (ab, a, b)]
            assert value[0] == value[1] * value[2]

    def test_zero_value_rejected(self):
        lat = Lattice(1, [(1,)])
        with pytest.raises(ValueError):
            Character(lat, [0])


class TestLatticeJson:
    def test_round_trip_bit_exact(self):
        lat = Lattice(2, [(1, 0), (0, 1), (Fraction(1, 2), Fraction(1, 2))])
        blob = json.dumps(lat.to_dict())
        back = Lattice.from_dict(json.loads(blob))
        assert back == lat
        assert json.dumps(back.to_dict()) == blob

    def test_string_forms(self):
        lat = Lattice(1, [(Fraction(-3, 2),)])
        assert lat.to_dict() == {"ambient_dim": 1, "generators": [["-3/2"]]}
