from fractions import Fraction

import pytest

from weyltype import Lattice, Signature
from weyltype.errors import SingularMatrix
from weyltype.sampling import desk_signature


def fraction_inverse(m):
    """Gauss-Jordan inversion on Fractions: the reference for the package's
    fraction-free inverses."""
    n = len(m)
    rows = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
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


@pytest.fixture(scope="session")
def desk():
    return desk_signature()


@pytest.fixture(scope="session")
def w10():
    """W(1, 0, Z): one locally finite derivation."""
    return Signature(1, 0, Lattice(1, [(1,)]))


@pytest.fixture(scope="session")
def w01():
    """W(0, 1, Z): one semisimple derivation."""
    return Signature(0, 1, Lattice(1, [(1,)]))


@pytest.fixture(scope="session")
def rank3():
    """W(1, 2, <e1, e2, e3, (1/2,1/2,0)>)."""
    half = Fraction(1, 2)
    return Signature(1, 2, Lattice(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (half, half, 0)]))


@pytest.fixture(scope="session")
def rank4():
    """W(2, 2, <e1, e2, e3, e4, (1/2,0,1/3,1/2)>)."""
    half, third = Fraction(1, 2), Fraction(1, 3)
    return Signature(2, 2, Lattice(4, [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1),
                                       (half, 0, third, half)]))


@pytest.fixture(scope="session")
def z2():
    """W(1, 1, Z^2)."""
    return Signature(1, 1, Lattice(2, [(1, 0), (0, 1)]))
