from fractions import Fraction

import pytest

from weyltype import Lattice, Signature
from weyltype.sampling import desk_signature


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
