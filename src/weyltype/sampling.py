"""Seeded random generators for desk-scale property checks.

Everything is driven by an explicit random.Random so that identical seeds
reproduce identical suites byte for byte.
"""

from __future__ import annotations

import random
from fractions import Fraction

from . import linalg
from .algebra import Element, Signature
from .errors import InvariantViolation
from .lattice import BlockMatrix, Character, Lattice, adapted_basis, aut2_membership

DEFAULT_GENERATORS = ((1, 0), (0, 1), (Fraction(1, 2), Fraction(1, 2)))


def desk_signature() -> Signature:
    """The default desk algebra W(1, 1, <(1,0), (0,1), (1/2,1/2)>)."""
    return Signature(1, 1, Lattice(2, DEFAULT_GENERATORS))


def random_coefficient(rng: random.Random) -> Fraction:
    return Fraction(rng.choice([-1, 1]) * rng.randint(1, 4), rng.randint(1, 3))


def random_multi_index(rng: random.Random, ell: int, max_total: int):
    total = rng.randint(0, max_total)
    out = [0] * ell
    for _ in range(total):
        out[rng.randrange(ell)] += 1
    return tuple(out)


def random_element(sig: Signature, rng: random.Random, max_terms: int = 3,
                   max_level: int = 3, max_i: int = 3, coord_bound: int = 2) -> Element:
    """A random element with <= max_terms terms, |mu| <= max_level, i <= max_i,
    and lattice coordinates in [-coord_bound, coord_bound]."""
    ell = sig.ell
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        alpha = tuple(rng.randint(-coord_bound, coord_bound) for _ in range(ell))
        i = tuple(rng.randint(0, max_i) if p < sig.ell1 else 0 for p in range(ell))
        mu = random_multi_index(rng, ell, max_level)
        key = (alpha, i, mu)
        terms[key] = terms.get(key, Fraction(0)) + random_coefficient(rng)
    return Element(sig, terms)


def random_A_element(sig: Signature, rng: random.Random, **kwargs) -> Element:
    return random_element(sig, rng, max_level=0, **kwargs)


def random_monomial(sig: Signature, rng: random.Random, max_level: int = 3,
                    max_i: int = 3, coord_bound: int = 2) -> Element:
    e = random_element(sig, rng, max_terms=1, max_level=max_level,
                       max_i=max_i, coord_bound=coord_bound)
    ((m, _),) = e.num.items()
    return Element(sig, {m: Fraction(1)})


def random_fd_element(sig: Signature, rng: random.Random, max_degree: int = 4,
                      max_terms: int = 5) -> Element:
    """A random nonzero pure derivation polynomial of level <= max_degree."""
    ell = sig.ell
    zero = (0,) * ell
    terms = {}
    while not terms:
        for _ in range(rng.randint(1, max_terms)):
            mu = random_multi_index(rng, ell, max_degree)
            key = (zero, zero, mu)
            terms[key] = terms.get(key, Fraction(0)) + random_coefficient(rng)
        terms = {k: v for k, v in terms.items() if v != 0}
    return Element(sig, terms)


def random_character(lattice: Lattice, rng: random.Random) -> Character:
    values = [Fraction(rng.choice([-1, 1]) * rng.randint(1, 3), rng.randint(1, 2))
              for _ in range(lattice.ambient_dim)]
    return Character(lattice, values)


def random_shift_vector(sig: Signature, rng: random.Random):
    return tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                 for _ in range(sig.ell))


def enumerate_aut2(sig: Signature, bound: int = 2) -> list[BlockMatrix]:
    """All members of Aut2(Gamma) of the form B^{-1} N B with N integer
    unimodular, entries of N in [-bound, bound], filtered to block shape: an
    exponential scan, kept as the reference for ``random_aut2``."""
    lattice = sig.lattice
    basis = lattice.basis
    basis_inv = lattice.basis_inverse
    found = []
    for n_mat in linalg.unimodular_matrices(sig.ell, bound):
        entries = linalg.mat_mul(linalg.mat_mul(basis_inv, n_mat), basis)
        if any(entries[r][c] != 0
               for r in range(sig.ell1) for c in range(sig.ell1, sig.ell)):
            continue
        G = BlockMatrix(sig.ell1, sig.ell2, entries)
        if not aut2_membership(lattice, G):
            raise InvariantViolation(f"B^-1 N B = {entries} does not stabilize the lattice")
        found.append(G)
    return found


def random_aut2(sig: Signature, rng: random.Random) -> BlockMatrix:
    """A^{-1} T A for the adapted basis A = K / e and T a product of 2l random
    +-1 transvections and sign flips of rows, a row r < l1 adding only rows
    s < l1: T is unimodular and block lower-triangular, so G = adj(K) T K / det K
    stabilizes Gamma and has the block shape, with no rejection."""
    ell, ell1 = sig.ell, sig.ell1
    K = adapted_basis(sig.lattice, ell1)
    T = [list(row) for row in linalg.identity(ell)]
    for _ in range(2 * ell):
        r = rng.randrange(ell)
        s = rng.randrange(ell1 if r < ell1 else ell)
        if s == r:
            T[r] = [-x for x in T[r]]
        else:
            sign = rng.choice((1, -1))
            T[r] = [x + sign * y for x, y in zip(T[r], T[s])]
    det, G = linalg.integer_product(linalg.integer_det_adjugate(K), (1, T), (1, K))
    return BlockMatrix(ell1, sig.ell2, [[Fraction(x, det) for x in row] for row in G])
