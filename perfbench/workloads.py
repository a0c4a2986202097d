"""The four workloads: inputs made from a seed, the requests, and exact checks.

Inputs for ``rank3-automorphisms``, ``cli-session`` and ``iso-rank3`` are
built here from constructors only (``Element``, ``Character``, ``ShiftV``,
``BlockMatrix``), never through ``weyltype.sampling``, so that a change to
the library's samplers does not change what the benchmark feeds it.
``desk-selftest`` runs the library's own suites on purpose: that is the
user's ``weyl selftest`` command.

A request is one closed-loop call: the next one starts only after the
previous one returned. Requests reach library functions through the
``weyltype`` package attributes at call time, where the traced run's
wrappers are installed. Its ``check`` runs after the timed loop and decides
exactly whether the answer is right; its ``digest`` is the canonical text of
the answer that goes into the run's ``output_sha256``.
"""

from __future__ import annotations

import io
import json
import random
import subprocess
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import weyltype
from weyltype import (
    BlockMatrix,
    Character,
    Element,
    FunctionalAut,
    InnerExp,
    IsoCandidate,
    Lattice,
    NormalFormAut,
    ShiftV,
    Signature,
    TauAut,
    aut2_membership,
    element_from_dict,
    element_to_dict,
    iso_verify,
    parse_and_eval,
)
from weyltype.automorphisms import generator_element, generator_keys
from weyltype.errors import BlockShapeViolation, SingularMatrix, WeylError
from weyltype.selftest import SUITES, run_suites

HALF = Fraction(1, 2)
DESK_GENERATORS = ((1, 0), (0, 1), (HALF, HALF))
RANK3_GENERATORS = ((1, 0, 0), (0, 1, 0), (0, 0, 1), (HALF, HALF, 0))
# `weyl selftest` without --seed runs at seed 0. The selftest's cost depends on
# its seed through one random u in exp-nilpotency (4.6 s to 28 s for seeds
# 0..11 on a 2-core x86 VM), so a seed-varied job could not be steady within
# any bound; the job is the user's default command instead.
SELFTEST_SEED = 0
# what the `weyl` console script runs
WEYL_ENTRY = "import sys; from weyltype.cli import main; sys.exit(main())"


@dataclass
class Request:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], bool]
    digest: Callable[[object], str]


def build(workload: str, seed: int, workdir: Path, cli_runner=None) -> list[Request]:
    """The fixed request list of one job of ``workload`` at ``seed``.

    ``cli_runner(argv) -> (exit code, stdout)`` executes a ``weyl`` command;
    the CLI workloads need it, the API workloads ignore it.
    """
    if workload == "desk-selftest":
        return desk_selftest()
    if workload == "rank3-automorphisms":
        return rank3_automorphisms(seed)
    if workload == "cli-session":
        return cli_session(seed, workdir, cli_runner)
    if workload == "iso-rank3":
        return iso_rank3(seed, workdir, cli_runner)
    raise KeyError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# input construction
# ---------------------------------------------------------------------------

def rank3_signature() -> Signature:
    return Signature(1, 2, Lattice(3, RANK3_GENERATORS))


def desk_signature() -> Signature:
    return Signature(1, 1, Lattice(2, DESK_GENERATORS))


def rand_fraction(rng: random.Random, num: int = 3, den: int = 3) -> Fraction:
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, num), rng.randint(1, den))


def rand_element(sig: Signature, rng: random.Random, terms: int, level: int,
                 max_i: int = 2, coord: int = 1) -> Element:
    """``terms`` random terms (fewer when two coincide), each of derivation
    level exactly ``level``, with lattice coordinates in [-coord, coord] and
    polynomial index <= max_i. Fixed shapes keep the cost of one request
    within a narrow band, so a job of a few hundred requests is steady."""
    out = {}
    for _ in range(terms):
        alpha = tuple(rng.randint(-coord, coord) for _ in range(sig.ell))
        i = tuple(rng.randint(0, max_i) if p < sig.ell1 else 0 for p in range(sig.ell))
        mu = [0] * sig.ell
        for _ in range(level):
            mu[rng.randrange(sig.ell)] += 1
        out[(alpha, i, tuple(mu))] = rand_fraction(rng)
    return Element(sig, out)


def _mat_mul(a, b):
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in zip(*b))
                 for row in a)


def rand_aut2(sig: Signature, rng: random.Random) -> BlockMatrix:
    """A member of Aut2(Gamma) as B^-1 N B: N is a product of random elementary
    +-1 transvections and sign flips, kept when the result is block-shaped
    and stabilizes the lattice."""
    ell = sig.ell
    lattice = sig.lattice
    while True:
        n = [[int(r == c) for c in range(ell)] for r in range(ell)]
        for _ in range(rng.randint(3, 8)):
            r = rng.randrange(ell)
            if rng.random() < 0.25:
                n[r] = [-x for x in n[r]]
            else:
                s = rng.choice([c for c in range(ell) if c != r])
                sign = rng.choice((-1, 1))
                n[r] = [x + sign * y for x, y in zip(n[r], n[s])]
        entries = _mat_mul(_mat_mul(lattice.basis_inverse, n), lattice.basis)
        try:
            G = BlockMatrix(sig.ell1, sig.ell2, entries)
        except (BlockShapeViolation, SingularMatrix):
            continue
        if aut2_membership(lattice, G):
            return G


def rand_character(sig: Signature, rng: random.Random) -> Character:
    return Character(sig.lattice, [rand_fraction(rng, 3, 2) for _ in range(sig.ell)])


def rand_normal_form(sig: Signature, rng: random.Random, eps: int,
                     u_shape: dict, G: BlockMatrix) -> NormalFormAut:
    tau = TauAut(sig, G, rand_character(sig, rng))
    u = InnerExp(rand_element(sig, rng, level=0, **u_shape))
    v = ShiftV(sig, [Fraction(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(sig.ell)])
    return NormalFormAut(tau, u, v, eps)


def _element_text(e: Element) -> str:
    return json.dumps(element_to_dict(e), sort_keys=True)


def _nf_text(nf: NormalFormAut) -> str:
    return json.dumps(nf.to_dict(), sort_keys=True)


def _same_on_generators(sig: Signature, f, g) -> bool:
    return all(f(generator_element(sig, key)) == g(generator_element(sig, key))
               for key in generator_keys(sig))


# ---------------------------------------------------------------------------
# desk-selftest
# ---------------------------------------------------------------------------

def desk_selftest() -> list[Request]:
    """One request per suite, in the order `weyl selftest` runs them."""
    sig = desk_signature()

    def suite(name):
        return lambda: run_suites(sig, [name], seed=SELFTEST_SEED)[0]

    return [Request("suite", suite(name), lambda r: r.passed, lambda r: r.line())
            for name in SUITES]


# ---------------------------------------------------------------------------
# rank3-automorphisms
# ---------------------------------------------------------------------------

# requests per job of each kind, in a seed-shuffled order; 375 requests cut
# the seed-to-seed spread of the job's p50 and tail, and a job (requests plus
# checks, about 8 s) still fits twice in a 20 s run
RANK3_MIX = (("apply", 150), ("compose", 75), ("decompose", 75), ("iso_verify", 75))
# matrices drawn once per job; sampling one costs ~2 ms (5 % acceptance)
RANK3_G_POOL = 48
RANK3_U = {"terms": 2, "max_i": 2, "coord": 1}
RANK3_W = {"terms": 2, "level": 3, "max_i": 2, "coord": 1}
DESK_U = {"terms": 1, "max_i": 2, "coord": 1}


def rank3_automorphisms(seed: int) -> list[Request]:
    rng = random.Random(seed)
    sig = rank3_signature()
    kinds = [kind for kind, n in RANK3_MIX for _ in range(n)]
    rng.shuffle(kinds)
    keys = [key for key in generator_keys(sig) if key != ("one",)]
    pool = [rand_aut2(sig, rng) for _ in range(RANK3_G_POOL)]

    def normal_form(eps):
        return rand_normal_form(sig, rng, eps, RANK3_U, rng.choice(pool))

    requests = []
    for k, kind in enumerate(kinds):
        if kind == "apply":
            nf = normal_form(rng.randint(0, 1))
            w = rand_element(sig, rng, **RANK3_W)
            probe = generator_element(sig, rng.choice(keys))
            requests.append(Request(
                kind, lambda nf=nf, w=w: nf.apply(w),
                # the Lie law on a generator: phi([w, g]) = [phi(w), phi(g)]
                lambda r, nf=nf, w=w, g=probe:
                    nf.apply(w.bracket(g)) == r.bracket(nf.apply(g)),
                _element_text))
        elif kind == "compose":
            a = normal_form(0)
            b = normal_form(0)
            requests.append(Request(
                kind, lambda a=a, b=b: weyltype.compose_normal_forms(a, b),
                lambda r, a=a, b=b: _same_on_generators(
                    sig, r.apply, lambda g: a.apply(b.apply(g))),
                _nf_text))
        elif kind == "decompose":
            nf = normal_form(rng.randint(0, 1))
            requests.append(Request(
                kind, lambda nf=nf: weyltype.decompose_automorphism(
                    FunctionalAut.from_aut(nf)),
                lambda r, nf=nf: r.same_data(nf),
                _nf_text))
        else:
            cand = IsoCandidate(rng.choice(pool), rand_character(sig, rng))
            tau = TauAut(sig, cand.G, cand.f)
            requests.append(Request(
                kind, lambda cand=cand, k=k: weyltype.iso_verify(sig, sig, cand,
                                                                 trials=10, seed=k),
                # an independent construction of the same map
                lambda r, tau=tau: _same_on_generators(sig, r.apply, tau.apply),
                lambda r: json.dumps({name: element_to_dict(e)
                                      for name, e in r.generator_table().items()},
                                     sort_keys=True)))
    return requests


# ---------------------------------------------------------------------------
# the CLI workloads
# ---------------------------------------------------------------------------

def subprocess_runner(python: str, env: dict, timeout: float):
    """Run `weyl` as a user does: a fresh interpreter per command."""
    def run(argv):
        proc = subprocess.run([python, "-c", WEYL_ENTRY, *argv], env=env,
                              stdin=subprocess.DEVNULL, capture_output=True,
                              text=True, timeout=timeout)
        return proc.returncode, proc.stdout
    return run


def in_process_runner(argv):
    """Replay a `weyl` command through weyltype.cli.run_command (traced run)."""
    import weyltype.cli

    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = weyltype.cli.run_command(list(argv))
    return code, out.getvalue()


def _cli_request(kind: str, runner, argv: list[str], expect_code: int,
                 check: Callable[[str], bool]) -> Request:
    return Request(
        kind, lambda: runner(argv),
        lambda r: r[0] == expect_code and check(r[1]),
        lambda r: f"{r[0]}\n{r[1]}")


def _fraction_text(q) -> str:
    q = Fraction(q)
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _config(sig_shape, generators) -> dict:
    ell1, ell2 = sig_shape
    return {"ell1": ell1, "ell2": ell2,
            "gamma_generators": [[_fraction_text(x) for x in g] for g in generators]}


def _presentation(generators, rng: random.Random) -> list[tuple]:
    """Another generator list of the same subgroup: the rows mixed by random
    unimodular transvections, plus one redundant sum of two rows."""
    rows = [list(map(Fraction, g)) for g in generators]
    for _ in range(rng.randint(2, 4)):
        r, s = rng.sample(range(len(rows)), 2)
        sign = rng.choice((-1, 1))
        rows[r] = [x + sign * y for x, y in zip(rows[r], rows[s])]
    a, b = rng.sample(range(len(rows)), 2)
    rows.append([x + y for x, y in zip(rows[a], rows[b])])
    rng.shuffle(rows)
    return [tuple(r) for r in rows]


def _write_json(path: Path, data) -> str:
    path.write_text(json.dumps(data, indent=2), encoding="utf-8")
    return str(path)


def _element_expr(sig: Signature, rng: random.Random, terms: int, level: int) -> str:
    """Surface syntax of a random element: scalar * x[(alpha);(i)] * d1^k * d2^m."""
    parts = []
    for _ in range(rng.randint(1, terms)):
        coords = [rng.randint(-1, 1) for _ in range(sig.ell)]
        alpha = [sum(c * b[p] for c, b in zip(coords, sig.lattice.basis))
                 for p in range(sig.ell)]
        i = [rng.randint(0, 2) if p < sig.ell1 else 0 for p in range(sig.ell)]
        factors = [_fraction_text(abs(rand_fraction(rng))),
                   "x[(" + ",".join(map(_fraction_text, alpha)) + ");("
                   + ",".join(map(str, i)) + ")]"]
        for q in range(1, sig.ell + 1):
            k = rng.randint(0, level)
            if k:
                factors.append(f"d{q}^{k}" if k > 1 else f"d{q}")
        parts.append(" * ".join(factors))
    text = parts[0]
    for part in parts[1:]:
        text += rng.choice((" + ", " - ")) + part
    return text


def _iso_check(src: Signature, dst: Signature, status: str):
    """Accept any certificate that passes iso_verify; the candidate count in
    the output is ignored."""
    def check(stdout: str) -> bool:
        payload = json.loads(stdout)
        if payload.get("status") != status:
            return False
        if status != "found":
            return True
        try:
            G = BlockMatrix(src.ell1, src.ell2,
                            [[Fraction(x) for x in row] for row in payload["G"]])
            iso_verify(src, dst, IsoCandidate(G, Character.trivial(src.lattice)),
                       trials=20, seed=0)
        except WeylError:
            return False
        return True
    return check


def cli_session(seed: int, workdir: Path, runner) -> list[Request]:
    """The desk-algebra session: expressions, automorphism files, iso, a
    selftest suite and one usage error."""
    rng = random.Random(seed)
    sig = desk_signature()
    third_gens = ((1, 0), (0, Fraction(1, 3)))
    third = Signature(1, 1, Lattice(2, third_gens))
    flat = Signature(2, 0, Lattice(2, ((1, 0), (0, 1))))
    desk_cfg = _write_json(workdir / "desk.json", _config((1, 1), DESK_GENERATORS))
    third_cfg = _write_json(workdir / "third.json", _config((1, 1), third_gens))
    flat_cfg = _write_json(workdir / "flat.json", _config((2, 0), ((1, 0), (0, 1))))

    e1, e2 = (_element_expr(sig, rng, 2, 2) for _ in range(2))
    e3, e4 = (_element_expr(sig, rng, 2, 2) for _ in range(2))
    e5 = _element_expr(sig, rng, 3, 2)
    e6 = _element_expr(sig, rng, 2, 2)
    product_expr = f"({e1}) * ({e2})"
    nf_apply = rand_normal_form(sig, rng, rng.randint(0, 1), DESK_U, rand_aut2(sig, rng))
    nf_a = rand_normal_form(sig, rng, 0, DESK_U, rand_aut2(sig, rng))
    nf_b = rand_normal_form(sig, rng, 0, DESK_U, rand_aut2(sig, rng))
    nf_dec = rand_normal_form(sig, rng, rng.randint(0, 1), DESK_U, rand_aut2(sig, rng))
    apply_file = _write_json(workdir / "apply.json", nf_apply.to_dict())
    a_file = _write_json(workdir / "a.json", nf_a.to_dict())
    b_file = _write_json(workdir / "b.json", nf_b.to_dict())
    dec_file = _write_json(workdir / "phi.json", FunctionalAut.from_aut(nf_dec).to_dict())

    def text_is(expected_fn):
        return lambda out: parse_and_eval(out.strip(), sig) == expected_fn()

    def json_element_is(expected_fn, key=None):
        def check(out):
            data = json.loads(out)
            return element_from_dict(data[key] if key else data, sig) == expected_fn()
        return check

    def composed_ok(out):
        got = NormalFormAut.from_dict(json.loads(out)["aut"], sig)
        return _same_on_generators(sig, got.apply, lambda g: nf_a.apply(nf_b.apply(g)))

    def decomposed_ok(out):
        return NormalFormAut.from_dict(json.loads(out)["aut"], sig).same_data(nf_dec)

    c = ["--config", desk_cfg]
    return [
        _cli_request("eval", runner, ["eval", *c, product_expr], 0,
                     text_is(lambda: parse_and_eval(e1, sig) * parse_and_eval(e2, sig))),
        _cli_request("bracket", runner, ["bracket", "--json", *c, e3, e4], 0,
                     json_element_is(lambda: parse_and_eval(e3, sig).bracket(
                         parse_and_eval(e4, sig)), "element")),
        _cli_request("export", runner, ["export", *c, "--format", "json", e5], 0,
                     json_element_is(lambda: parse_and_eval(e5, sig))),
        _cli_request("aut-apply", runner, ["aut", "apply", *c, "--aut", apply_file, e6], 0,
                     text_is(lambda: nf_apply.apply(parse_and_eval(e6, sig)))),
        _cli_request("aut-compose", runner,
                     ["aut", "compose", "--json", "--a", a_file, "--b", b_file], 0,
                     composed_ok),
        _cli_request("aut-decompose", runner,
                     ["aut", "decompose", "--json", "--aut", dec_file], 0, decomposed_ok),
        _cli_request("iso", runner, ["iso", "--json", "--src", desk_cfg, "--dst", third_cfg],
                     0, _iso_check(sig, third, "found")),
        _cli_request("iso-impossible", runner,
                     ["iso", "--json", "--src", desk_cfg, "--dst", flat_cfg], 0,
                     _iso_check(sig, flat, "impossible")),
        _cli_request("selftest-parser", runner, ["selftest", "--suite", "parser"], 0,
                     lambda out: out.startswith("PASS parser")),
        _cli_request("usage-error", runner, ["eval", "d1"], 2, lambda out: out == ""),
    ]


# Two rank-3 pairs that answer FOUND at the default bound, and one (l1, l2)
# mismatch. The pairs are fixed lattices: the bounded search's cost is set by
# the pair (3825 and 7057 candidates here, 23193 for rank3 -> Z^3), so a
# seed-drawn pair would make the run-to-run spread exceed any bound. The seed
# varies each config's generator list, which the library canonicalizes.
ISO_PAIRS = (
    ("mismatch", (1, 2), RANK3_GENERATORS, (2, 1), ((1, 0, 0), (0, 1, 0), (0, 0, 1))),
    ("found-b", (1, 2), RANK3_GENERATORS, (1, 2),
     ((1, 0, 0), (0, 1, 0), (0, 0, 1), (HALF, 0, HALF))),
    ("found-self", (1, 2), RANK3_GENERATORS, (1, 2), RANK3_GENERATORS),
)


def iso_rank3(seed: int, workdir: Path, runner) -> list[Request]:
    rng = random.Random(seed)
    requests = []
    for name, src_shape, src_gens, dst_shape, dst_gens in ISO_PAIRS:
        files, sigs = [], []
        for role, shape, gens in (("src", src_shape, src_gens), ("dst", dst_shape, dst_gens)):
            shown = _presentation(gens, rng)
            canonical = Lattice(len(gens[0]), gens)
            if Lattice(len(gens[0]), shown).basis != canonical.basis:
                raise AssertionError("presentation changed the lattice")
            files.append(_write_json(workdir / f"{name}-{role}.json", _config(shape, shown)))
            sigs.append(Signature(shape[0], shape[1], canonical))
        status = "impossible" if name == "mismatch" else "found"
        requests.append(_cli_request(
            "iso-" + status, runner, ["iso", "--json", "--src", files[0], "--dst", files[1]],
            0, _iso_check(sigs[0], sigs[1], status)))
    return requests
