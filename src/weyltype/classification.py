"""Isomorphism decision, the faithfulness witness, and adjoint-growth probes.

A finitely generated nondegenerate Gamma in Q^l is free of rank l, so two
algebras are isomorphic exactly when (l1, l2) agree.  The decision builds the
block matrix G that carries one E1-adapted lattice basis onto the other and
certifies it with the verifier.  The isomorphism is sigma_tau between two
algebras, a ``TauAut`` whose target is the second one; the verifier checks its
generator table and runs its product law through ``verify_automorphism``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .algebra import (
    Element,
    Monomial,
    Signature,
    act_on_A,
    filtration_data,
    unit_index,
)
from .automorphisms import MODE_ASSOC, TauAut, verify_automorphism
from .errors import (
    HomomorphismCounterexample,
    InvariantViolation,
    NotInFD,
    SignatureMismatch,
    WeylError,
    ZeroElement,
)
from .lattice import BlockMatrix, Character, adapted_basis


# ---------------------------------------------------------------------------
# invariants and the isomorphism verifier
# ---------------------------------------------------------------------------

def signature_invariants(sig: Signature):
    """(l1, l2), the complete isomorphism invariant, and the canonical basis."""
    return (sig.ell1, sig.ell2, sig.lattice.basis)


@dataclass(frozen=True)
class IsoCandidate:
    """A block matrix G plus a character on the source lattice."""

    G: BlockMatrix
    f: Character


def iso_verify(src: Signature, dst: Signature, cand: IsoCandidate,
               trials: int = 100, seed: int = 0) -> TauAut:
    """Build sigma_tau from src to dst for the candidate and check it exactly.

    Checks the duality relations on the generator table and, through
    ``verify_automorphism``, the multiplicative law on ``trials`` random
    products; raises on any violation.
    """
    iso = TauAut(src, cand.G, cand.f, dst)
    table = iso.generator_table()

    one = dst.one()
    for p in range(1, src.ell + 1):
        d_image = table[f"d{p}"]
        for q in range(1, src.ell1 + 1):
            acted = act_on_A(d_image, table[f"xi{q}"])
            expected = one.scale(1 if p == q else 0)
            if acted != expected:
                raise HomomorphismCounterexample(
                    f"duality fails on d{p}, x^(1_[{q}])",
                    lhs=acted, rhs=expected)
        for k in range(1, src.ell + 1):
            x_image = table[f"x+{k}"]
            lhs = act_on_A(d_image, x_image)
            grade = src.lattice.ambient(unit_index(src.ell, k))[p - 1]
            rhs = x_image.scale(grade)
            if lhs != rhs:
                raise HomomorphismCounterexample(
                    f"derivation action fails on d{p}, basis row {k}",
                    lhs=lhs, rhs=rhs)

    if trials > 0:
        verify_automorphism(iso, trials, seed, MODE_ASSOC)
    return iso


@dataclass
class IsoSearchResult:
    status: str                      # "found" (G certified) | "impossible" ((l1, l2) differ)
    candidate: IsoCandidate | None = None
    iso: TauAut | None = None
    reason: str = ""
    tried: int = 0                   # certificates verified: 1, or 0 for "impossible"

    def to_dict(self) -> dict:
        from .rationals import rational_str

        out = {"status": self.status, "tried": self.tried, "reason": self.reason}
        if self.candidate is not None:
            out["certificate"] = {
                "G": [[rational_str(x) for x in row]
                      for row in self.candidate.G.entries],
                "f": [rational_str(x) for x in self.candidate.f.values],
            }
        return out


def iso_search_bounded(src: Signature, dst: Signature,
                       trials: int = 20) -> IsoSearchResult:
    """Decide isomorphism: ``impossible`` when (l1, l2) differ, else ``found``
    with G = A_dst^{-1} A_src from E1-adapted bases (so Gamma_src . G^{-1} =
    Gamma_dst), certified by ``iso_verify``; a rejected G raises
    InvariantViolation, chained to the check's error (``__cause__``), which
    keeps any counterexample."""
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
        iso = iso_verify(src, dst, cand, trials=trials)
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
    """A lattice point alpha with u(x^alpha) != 0 for nonzero u in F[D].

    Walks alpha = sum n_q b_q over the simplex n >= 0, |n| <= level(u) in
    graded lexicographic order.  u acts on x^alpha by a nonzero polynomial
    of degree at most L = level(u) in n, and no such polynomial vanishes on
    that whole simplex, so at most C(L + l, l) points are probed.
    """
    if u.signature != sig:
        raise SignatureMismatch("element belongs to a different algebra")
    if u.is_zero:
        raise ZeroElement("the zero element acts trivially everywhere")
    if not u.in_FD():
        raise NotInFD("witness search expects a pure derivation polynomial")
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

@dataclass
class AdBehavior:
    """Syntactic class of ad(w): locally nilpotent on A, locally finite on
    D + A, or wild, together with a probe trace for wild elements."""

    tag: str                         # "in_A" | "in_D_plus_A" | "wild"
    probe: Element | None = None
    trace: list | None = None

    def to_dict(self) -> dict:
        from .algebra import element_to_dict

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
