"""Isomorphism decision, the faithfulness witness, and adjoint-growth probes.

A finitely generated nondegenerate Gamma in Q^l is free of rank l, so two
algebras are isomorphic exactly when (l1, l2) agree.  The decision builds the
block matrix G that carries one E1-adapted lattice basis onto the other and
certifies it.  The isomorphism is sigma_tau between two algebras, a
``TauAut`` whose target is the second one.

The certificate is the presentation.  W(l1, l2, Gamma) is generated by
x^{+-b_k}, x^{1_[p]} and d_q, subject to: A is commutative,
x^{b_k} x^{-b_k} = 1, [d_p, d_q] = 0, [d_p, x^{1_[q]}] = delta_pq and
[d_p, x^{b_k}] = (b_k)_p x^{b_k}.  Take images D_p of the d_p, and images
of the x^alpha and x^{1_[p]} that lie in A, with a multiplicative x-image
(sigma_tau's x^a -> f(a) x^{a G^{-1}} is one by construction).  A is the
Laurent polynomials in the x^{b_k} times the polynomials in the x^{1_[p]},
and the images commute in A, so with x^{b_k} x^{-b_k} = 1 they define an
algebra map phi on A.  For each p, a -> [D_p, phi(a)] and
a -> phi(d_p(a)) are derivations along phi that the relations make agree
on the generators of A, so they agree on all of A.  W is free as a left
A-module on the d^mu, with d_p a = a d_p + d_p(a), so with commuting D_p
the ordered product a d^mu -> phi(a) D^mu, which is the extension
``_hom_extend``, is a homomorphism.  These O(l^2) relations, checked
exactly on the generator table, therefore prove the product law for every
pair of elements.  The lattice motion N of a ``TauAut`` is unimodular, so
the map has the inverse (G^{-1}, f') and is an isomorphism.  Random product
trials add nothing to this proof; ``iso_verify(..., trials=N)`` still runs
N of them through ``verify_automorphism``, as an independent oracle.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from . import linalg
from .algebra import (
    Element,
    Monomial,
    Signature,
    act_on_A,
    element_to_dict,
    filtration_data,
    unit_index,
)
from .automorphisms import MODE_ASSOC, TauAut, generator_label, verify_automorphism
from .errors import (
    HomomorphismCounterexample,
    InvariantViolation,
    SignatureMismatch,
    WeylError,
    ZeroElement,
)
from .lattice import BlockMatrix, Character, adapted_basis
from .rationals import rational_str


# ---------------------------------------------------------------------------
# invariants and the isomorphism verifier
# ---------------------------------------------------------------------------

def signature_invariants(sig: Signature):
    """(l1, l2), the complete isomorphism invariant, and the canonical basis."""
    return (sig.ell1, sig.ell2, sig.lattice.basis)


class IsoCandidate(NamedTuple):
    """A block matrix G plus a character on the source lattice."""

    G: BlockMatrix
    f: Character


def _certify_relations(src: Signature, dst: Signature, images: dict) -> None:
    """Check the defining relations of W(src) on the images of its
    generators (keyed as ``generator_keys``), with brackets in W(dst).

    Raises HomomorphismCounterexample at the first relation that fails,
    with the generator images it relates as a and b (a times b for the
    inverse pair, the bracket [a, b] otherwise) and both sides."""
    for key, image in images.items():
        if key[0] in ("x", "xi") and not image.in_A():
            raise HomomorphismCounterexample(f"image of {generator_label(key)} is not in A",
                                             a=image)
    one, zero = dst.one(), dst.zero()
    for k in range(1, src.ell + 1):
        a, b = images[("x", k, 1)], images[("x", k, -1)]
        lhs = a * b
        if lhs != one:
            raise HomomorphismCounterexample(
                f"relation x+{k} * x-{k} = 1 fails", a=a, b=b, lhs=lhs, rhs=one)
    for p in range(1, src.ell + 1):
        relations = [(("d", q), zero) for q in range(p + 1, src.ell + 1)]
        relations += [(("xi", q), one if p == q else zero) for q in range(1, src.ell1 + 1)]
        relations += [(("x", k, 1), images[("x", k, 1)].scale(row[p - 1]))
                      for k, row in enumerate(src.lattice.basis, 1)]
        a = images[("d", p)]
        for key, rhs in relations:
            b = images[key]
            lhs = a.bracket(b)
            if lhs != rhs:
                raise HomomorphismCounterexample(
                    f"relation [d{p}, {generator_label(key)}] fails", a=a, b=b, lhs=lhs, rhs=rhs)


def iso_verify(src: Signature, dst: Signature, cand: IsoCandidate,
               trials: int = 0, seed: int = 0) -> TauAut:
    """Build sigma_tau from src to dst for the candidate and certify it.

    The certificate is the defining relations of W(src) on the generator
    table (module docstring): they prove that the table's extension is a
    homomorphism, and the lattice check of ``TauAut`` that it is invertible.
    ``trials`` > 0 adds that many sampled products through
    ``verify_automorphism``.  Raises on any violation.
    """
    iso = TauAut(src, cand.G, cand.f, dst)
    _certify_relations(src, dst, iso.generator_images())
    if trials > 0:
        verify_automorphism(iso, trials, seed, MODE_ASSOC)
    return iso


class IsoSearchResult(NamedTuple):
    status: str                      # "found" (G certified) | "impossible" ((l1, l2) differ)
    candidate: IsoCandidate | None = None
    iso: TauAut | None = None
    reason: str = ""
    tried: int = 0                   # certificates verified: 1, or 0 for "impossible"

    def to_dict(self) -> dict:
        out = {"status": self.status, "tried": self.tried, "reason": self.reason}
        if self.candidate is not None:
            out["certificate"] = {
                "G": [[rational_str(x) for x in row]
                      for row in self.candidate.G.entries],
                "f": [rational_str(x) for x in self.candidate.f.values],
            }
        return out


def iso_search_bounded(src: Signature, dst: Signature) -> IsoSearchResult:
    """Decide isomorphism: ``impossible`` when (l1, l2) differ, else ``found``
    with G = A_dst^{-1} A_src from E1-adapted bases (so Gamma_src . G^{-1} =
    Gamma_dst), certified by the defining relations (``iso_verify`` with no
    sampled products); a rejected G raises InvariantViolation, chained to the
    check's error (``__cause__``), which keeps any counterexample."""
    if (src.ell1, src.ell2) != (dst.ell1, dst.ell2):
        return IsoSearchResult(
            "impossible",
            reason=f"(l1, l2) = {(src.ell1, src.ell2)} != {(dst.ell1, dst.ell2)}")
    # A = K / D for each adapted basis: G = D_dst adj(K_dst) K_src / (det K_dst D_src)
    det, adj = linalg.integer_det_adjugate(adapted_basis(dst.lattice, dst.ell1))
    k_src = adapted_basis(src.lattice, src.ell1)
    den, g = linalg.integer_product((det, adj), (src.lattice.denominator, k_src))
    try:
        G = BlockMatrix(src.ell1, src.ell2,
                        [[Fraction(dst.lattice.denominator * x, den) for x in row] for row in g])
        cand = IsoCandidate(G, Character.trivial(src.lattice))
        iso = iso_verify(src, dst, cand)
    except WeylError as exc:
        raise InvariantViolation(
            f"adapted-basis certificate rejected: {type(exc).__name__}: {exc}") from exc
    return IsoSearchResult("found", candidate=cand, iso=iso, tried=1)


# ---------------------------------------------------------------------------
# faithfulness witness
# ---------------------------------------------------------------------------

def _simplex(ell: int, bound: int):
    """The points n >= 0 of Z^ell with |n| <= bound, lazily in (|n|, n) order."""
    def parts(total: int, slots: int):
        if slots == 1:
            yield (total,)
            return
        for first in range(total + 1):
            for rest in parts(total - first, slots - 1):
                yield (first,) + rest

    for total in range(bound + 1):
        yield from parts(total, ell)


def faithfulness_witness(sig: Signature, u: Element):
    """A lattice point alpha with u(x^alpha) != 0 for any nonzero u.

    Walks alpha = sum n_q b_q over the simplex n >= 0, |n| <= level(u) in
    graded lexicographic order.  Group the terms of u by their A-monomial
    x^{al,i}.  On the probe x^{n.B} a group acts by a polynomial of degree
    at most L = level(u) in n times x^{al + n.B, i}, and at least one
    group's polynomial is nonzero.  Distinct groups land on distinct
    monomials, and no nonzero polynomial of degree at most L vanishes on
    that whole simplex, so at most C(L + l, l) points are probed.
    """
    if u.signature != sig:
        raise SignatureMismatch("element belongs to a different algebra")
    if u.is_zero:
        raise ZeroElement("the zero element acts trivially everywhere")
    degree = u.max_level()
    zero = (0,) * sig.ell
    for n in _simplex(sig.ell, degree):
        probe = Element(sig, {Monomial(n, zero, zero): Fraction(1)})
        if act_on_A(u, probe):
            return sig.lattice.ambient(n)
    raise InvariantViolation(f"no witness on the simplex n >= 0, |n| <= {degree}; "
                             "the element cannot be nonzero")


# ---------------------------------------------------------------------------
# adjoint behavior
# ---------------------------------------------------------------------------

class AdBehavior(NamedTuple):
    """Syntactic class of ad(w): locally nilpotent on A, locally finite on
    D + A, or wild, together with a probe trace for wild elements."""

    tag: str                         # "in_A" | "in_D_plus_A" | "wild"
    probe: Element | None = None
    trace: list | None = None

    def to_dict(self) -> dict:
        out: dict = {"tag": self.tag}
        if self.probe is not None:
            out["probe"] = element_to_dict(self.probe)
        if self.trace is not None:
            out["trace"] = [{"step": s, "level": lvl,
                             "gamma_degree": list(g) if g is not None else None}
                            for s, lvl, g in self.trace]
        return out


def _in_D_plus_A(w: Element) -> bool:
    zero = (0,) * w.signature.ell
    for (al, i, mu) in w.num:
        lvl = sum(mu)
        if lvl > 1:
            return False
        if lvl == 1 and (al != zero or any(i)):
            return False
    return True


def growth_probe(w: Element, probe: Element, steps: int) -> list:
    """Rows (step, level, gamma_degree) of the iterated bracket (ad w)^s(probe)."""
    if steps < 1:
        raise ValueError("steps must be >= 1")
    rows = []
    cur = probe
    for s in range(steps + 1):
        data = filtration_data(cur)
        rows.append((s, data.level, data.gamma_degree))
        if s < steps:
            cur = w.bracket(cur)
    return rows


def _wild_probe(w: Element) -> Element:
    """The probe the growth argument uses: a basis point when every top-level
    term sits at lattice degree zero, twice the extreme degree otherwise."""
    sig = w.signature
    ell = sig.ell
    zero = (0,) * ell
    top = w.max_level()
    support = [(al, i, mu) for (al, i, mu) in w.num if sum(mu) == top]
    gammas = {al for al, _, _ in support}
    if gammas == {zero}:
        lam = max((mu for al, i, mu in support if al == zero),
                  key=lambda mu: (sum(mu), mu))
        k = max(q for q in range(ell) if lam[q])
        coords = unit_index(ell, k + 1)
    else:
        beta = max(gammas)
        if beta == zero:
            beta = min(gammas)
        coords = tuple(2 * b for b in beta)
    return Element(sig, {Monomial(coords, zero, zero): Fraction(1)})


def classify_ad_behavior(w: Element, steps: int = 5) -> AdBehavior:
    """Classify ad(w) by the shape of the support; wild elements come with a
    growth trace on the argument's probe."""
    if w.in_A():
        return AdBehavior("in_A")
    if _in_D_plus_A(w):
        return AdBehavior("in_D_plus_A")
    probe = _wild_probe(w)
    return AdBehavior("wild", probe=probe, trace=growth_probe(w, probe, steps))
