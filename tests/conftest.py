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


# ---------------------------------------------------------------------------
# operator oracle: products and brackets decided through the action on A
# ---------------------------------------------------------------------------
#
# W acts faithfully on A, the term c x^{al,i} d^mu sending f to
# c x^{al,i} . d^mu(f), with d_p x^{b,j} = b_p x^{b,j} + j_p x^{b,j-e_p} for
# the lattice point b and the polynomial index j.  On a probe x^{beta,0},
# beta = n . B with n >= 0 the canonical coordinates, no d_p lowers, so an
# element E of level <= L gives sum_{al,i} x^{al+beta,i} P_{al,i}(n) with
# P_{al,i} = sum_mu c_{al,i,mu} beta^mu of degree <= L in n.  Distinct
# (al, i) give distinct monomials, and no nonzero polynomial of degree <= L
# vanishes on the simplex n >= 0, |n| <= L, so E = 0 exactly when E kills
# those C(L + l, l) probes (the simplex lemma).  Hence a . b = c exactly when
# a(b(f)) = c(f) on them, for L = max(level(a) + level(b), level(c)).  Only
# the Fraction view ``terms``, ``max_level``, the monomial fields and the
# lattice basis are read: nothing of the product kernel.

def _derive(point, poly: dict, p: int) -> dict:
    """d_p on a polynomial {(al, j): c} of A; ``point(al)`` is the lattice
    point b = al . B."""
    out: dict = {}
    for (al, j), c in poly.items():
        b_p = point(al)[p]
        if b_p:
            out[(al, j)] = out.get((al, j), 0) + c * b_p
        if j[p]:
            lower = j[:p] + (j[p] - 1,) + j[p + 1:]
            out[(al, lower)] = out.get((al, lower), 0) + c * j[p]
    return out


def oracle_act(w, poly: dict) -> dict:
    """w(f) for f = {(al, j): c}, zero coefficients dropped."""
    basis, points = w.signature.lattice.basis, {}

    def point(al):
        if al not in points:
            points[al] = [sum(n * row[p] for n, row in zip(al, basis))
                          for p in range(len(al))]
        return points[al]

    out: dict = {}
    for m, c in w.terms.items():
        derived = poly
        for p, k in enumerate(m.mu):
            for _ in range(k):
                derived = _derive(point, derived, p)
        for (al, j), q in derived.items():
            key = (tuple(x + y for x, y in zip(m.alpha, al)),
                   tuple(x + y for x, y in zip(m.i, j)))
            out[key] = out.get(key, 0) + c * q
    return {key: c for key, c in out.items() if c}


def simplex_probes(ell: int, bound: int):
    """The probes {(n, 0): 1} for n >= 0 in Z^ell with |n| <= bound."""
    def points(total, slots):
        if slots == 1:
            yield (total,)
            return
        for first in range(total + 1):
            for rest in points(total - first, slots - 1):
                yield (first,) + rest

    zero = (0,) * ell
    for total in range(bound + 1):
        for n in points(total, ell):
            yield {(n, zero): Fraction(1)}


def oracle_product_is(a, b, c) -> bool:
    """a . b == c, decided on the simplex probes."""
    bound = max((a.max_level() or 0) + (b.max_level() or 0), c.max_level() or 0)
    return all(oracle_act(a, oracle_act(b, f)) == oracle_act(c, f)
               for f in simplex_probes(a.signature.ell, bound))


def oracle_bracket_is(a, b, c) -> bool:
    """[a, b] == c, decided on the simplex probes."""
    bound = max((a.max_level() or 0) + (b.max_level() or 0), c.max_level() or 0)
    for f in simplex_probes(a.signature.ell, bound):
        diff = oracle_act(a, oracle_act(b, f))
        for key, q in oracle_act(b, oracle_act(a, f)).items():
            diff[key] = diff.get(key, 0) - q
        if {key: q for key, q in diff.items() if q} != oracle_act(c, f):
            return False
    return True
