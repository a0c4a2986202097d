"""Exact linear algebra over the rationals and integer Hermite normal form.

Matrices are tuples of row tuples of Fraction; vectors act from the left
(row vector times matrix) throughout the package.  A rational matrix can
also travel as (den, K), an integer matrix K over one denominator, which
``integer_product`` multiplies without building a Fraction.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import mul

from .errors import DimensionMismatch, SingularMatrix

Matrix = tuple[tuple[Fraction, ...], ...]
Vector = tuple[Fraction, ...]


def to_matrix(rows) -> Matrix:
    out = tuple(tuple(Fraction(x) for x in row) for row in rows)
    if out and any(len(row) != len(out[0]) for row in out):
        raise DimensionMismatch("ragged matrix")
    return out


def identity(n: int) -> Matrix:
    return tuple(
        tuple(Fraction(1) if i == j else Fraction(0) for j in range(n)) for i in range(n)
    )


def integer_identity(n: int) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def transpose(m: Matrix) -> Matrix:
    return tuple(zip(*m)) if m else ()


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    if a and b and len(a[0]) != len(b):
        raise DimensionMismatch("inner dimensions differ")
    bt = transpose(b)
    return tuple(tuple(sum(map(mul, row, col)) for col in bt) for row in a)


def vec_mat(v: Vector, m: Matrix) -> Vector:
    if len(v) != len(m):
        raise DimensionMismatch("vector length differs from row count")
    return tuple(dot(v, column) for column in transpose(m))


def dot(u, v) -> Fraction:
    if len(u) != len(v):
        raise DimensionMismatch("vector lengths differ")
    return sum(map(mul, u, v))


def mat_det(m: Matrix) -> Fraction:
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


def mat_inverse(m: Matrix) -> Matrix:
    n = len(m)
    rows = [[Fraction(x) for x in row] + list(identity(n)[i])
            for i, row in enumerate(m)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if rows[r][col] != 0), None)
        if pivot is None:
            raise SingularMatrix("matrix is not invertible")
        rows[col], rows[pivot] = rows[pivot], rows[col]
        inv = 1 / rows[col][col]
        rows[col] = [a * inv for a in rows[col]]
        for r in range(n):
            if r != col and rows[r][col]:
                factor = rows[r][col]
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[col])]
    return tuple(tuple(row[n:]) for row in rows)


def integer_det_adjugate(m) -> tuple[int, tuple[tuple[int, ...], ...] | None]:
    """(det m, adj m) of a square integer matrix, or (0, None) when m is singular.

    Fraction-free (Bareiss) Gauss-Jordan elimination on [m | I]: after pivot
    step k every entry is a minor of order k + 1 of [m | I], so each division
    by the previous pivot is exact.  The left half ends as d I and the right
    half as d m^{-1}, with d = +-det m by the parity of the row swaps.
    """
    n = len(m)
    rows = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(m)]
    prev = sign = 1
    for k in range(n):
        if not rows[k][k]:
            pivot = next((r for r in range(k + 1, n) if rows[r][k]), None)
            if pivot is None:
                return 0, None
            rows[k], rows[pivot] = rows[pivot], rows[k]
            sign = -sign
        top = rows[k]
        p = top[k]
        for i, row in enumerate(rows):
            if i != k:
                f = row[k]
                rows[i] = [(p * a - f * b) // prev for a, b in zip(row, top)]
        prev = p
    return sign * prev, tuple(tuple(sign * x for x in row[n:]) for row in rows)


def scaled_integer(m: Matrix) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """(den, K) with K an integer matrix and m = K / den, den the least such."""
    den = lcm(*(x.denominator for row in m for x in row))
    return den, tuple(tuple(x.numerator * (den // x.denominator) for x in row) for row in m)


def integer_product(*factors) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """(den, P) with P / den the product of the matrices K / d, one (d, K) per
    factor, each K an integer matrix: integer products, one denominator."""
    den, out = factors[0]
    for d, m in factors[1:]:
        den *= d
        out = mat_mul(out, m)
    return den, out


def hermite_normal_form(rows) -> tuple[tuple[int, ...], ...]:
    """Row-style HNF of an integer matrix; returns the nonzero rows.

    Pivots are positive and entries above each pivot are reduced into
    [0, pivot), which makes the result a canonical basis of the row lattice.
    """
    m = [[int(x) for x in row] for row in rows]
    if not m:
        return ()
    nrows, ncols = len(m), len(m[0])
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        while True:
            pivot = None
            for i in range(r, nrows):
                if m[i][c] != 0 and (pivot is None or abs(m[i][c]) < abs(m[pivot][c])):
                    pivot = i
            if pivot is None:
                break
            m[r], m[pivot] = m[pivot], m[r]
            clean = True
            for i in range(r + 1, nrows):
                if m[i][c] != 0:
                    q = m[i][c] // m[r][c]
                    m[i] = [a - q * b for a, b in zip(m[i], m[r])]
                    if m[i][c] != 0:
                        clean = False
            if clean:
                break
        if pivot is None:
            continue
        if m[r][c] < 0:
            m[r] = [-a for a in m[r]]
        for i in range(r):
            q = m[i][c] // m[r][c]
            if q:
                m[i] = [a - q * b for a, b in zip(m[i], m[r])]
        r += 1
    return tuple(tuple(row) for row in m[:r])


def unimodular_matrices(n: int, bound: int):
    """Yield integer n x n matrices with entries in [-bound, bound] and det +-1.

    Deterministic lexicographic order over the flattened entries.
    """
    from itertools import product

    span = range(-bound, bound + 1)
    for flat in product(span, repeat=n * n):
        mat = tuple(tuple(Fraction(x) for x in flat[k * n:(k + 1) * n]) for k in range(n))
        if abs(mat_det(mat)) == 1:
            yield mat
