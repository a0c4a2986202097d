"""Command-line front end.

Exit codes: 0 success, 1 verification or computation failure, 2 usage or
parse errors.  ``WEYL_SEED`` is the seed fallback when --seed is absent.
Identical argv plus seed produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .algebra import Signature, element_to_dict
from .automorphisms import (
    MODE_ASSOC,
    MODE_LIE,
    FunctionalAut,
    NormalFormAut,
    compose_normal_forms,
    decompose_automorphism,
)
from .classification import iso_search_bounded
from .errors import (DimensionError, DimensionMismatch, EmptyGenerators, ExprSyntaxError,
                     HomomorphismCounterexample, NondegenerateViolation, NotMember, WeylError)
from .expressions import format_element, parse_and_eval
from .lattice import Lattice
from .rationals import int_from_json, list_from_json, vector_from_json
from .selftest import SUITES, run_suites
from .sampling import desk_signature

USAGE_ERROR = 2
CHECK_FAILED = 1


class CliUsageError(WeylError):
    """Bad invocation: missing config, unreadable files, malformed flags."""


def _read_json_object(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError(f"{path} holds a JSON {type(data).__name__}, expected an object")
    return data


def _signature_from_file(path: str) -> Signature:
    data = _read_json_object(path)
    ell1, ell2 = int_from_json(data["ell1"], "ell1"), int_from_json(data["ell2"], "ell2")
    gens = [vector_from_json(row, ell1 + ell2, "generator")
            for row in list_from_json(data["gamma_generators"], "gamma_generators")]
    try:
        return Signature(ell1, ell2, Lattice(ell1 + ell2, gens))
    except (NondegenerateViolation, EmptyGenerators, DimensionMismatch) as exc:
        # a config that names no lattice is bad input, not a failed computation
        raise CliUsageError(f"bad input: {path}: {exc}") from None


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("WEYL_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise WeylError(f"WEYL_SEED must be an integer, got {env!r}") from None
    return 0


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="FILE",
                        help="signature config JSON: ell1, ell2, gamma_generators")
    common.add_argument("--mode", choices=(MODE_LIE, MODE_ASSOC), default=None,
                        help="which homomorphism semantics automorphism "
                             "subcommands verify against")
    common.add_argument("--seed", type=int, default=None,
                        help="seed for randomized checks (fallback: WEYL_SEED, then 0)")
    common.add_argument("--json", action="store_true", dest="json_output",
                        help="machine-readable JSON on stdout")

    parser = argparse.ArgumentParser(prog="weyl",
                                     description="exact Weyl-type algebra calculator")
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", parents=[common],
                            help="evaluate an expression, print the canonical form")
    p_eval.add_argument("expr")

    p_br = sub.add_parser("bracket", parents=[common],
                          help="bracket of two expressions")
    p_br.add_argument("expr1")
    p_br.add_argument("expr2")

    p_aut = sub.add_parser("aut", parents=[common], help="automorphism operations")
    aut_sub = p_aut.add_subparsers(dest="aut_command", required=True)
    p_apply = aut_sub.add_parser("apply", parents=[common])
    p_apply.add_argument("--aut", required=True, metavar="FILE")
    p_apply.add_argument("expr")
    p_compose = aut_sub.add_parser("compose", parents=[common])
    p_compose.add_argument("--a", required=True, metavar="FILE")
    p_compose.add_argument("--b", required=True, metavar="FILE")
    p_decompose = aut_sub.add_parser("decompose", parents=[common])
    p_decompose.add_argument("--aut", required=True, metavar="FILE")

    p_iso = sub.add_parser("iso", parents=[common],
                           help="decide isomorphism between two configs")
    p_iso.add_argument("--src", required=True, metavar="CFG")
    p_iso.add_argument("--dst", required=True, metavar="CFG")

    p_self = sub.add_parser("selftest", parents=[common],
                            help="run the property suites")
    p_self.add_argument("--suite", choices=sorted(SUITES), default=None)

    p_export = sub.add_parser("export", parents=[common],
                              help="serialize an expression")
    p_export.add_argument("--format", choices=("json",), required=True)
    p_export.add_argument("expr")
    return parser


def _require_signature(args) -> Signature:
    if not args.config:
        raise CliUsageError(
            "this command needs --config FILE (no implicit default algebra)")
    return _signature_from_file(args.config)


def _load_automorphism(path: str, mode: str | None):
    data = _read_json_object(path)
    if "images" in data:
        aut = FunctionalAut.from_dict(data)
        if mode is not None and mode != aut.mode:
            aut = FunctionalAut(aut.signature, mode, aut.images)
        return aut
    nf = NormalFormAut.from_dict(data)
    if mode is not None and mode != nf.mode:
        nf = NormalFormAut(nf.tau, nf.u, nf.v, nf.eps, mode)
    return nf


def _as_normal_form(aut) -> NormalFormAut:
    if isinstance(aut, NormalFormAut):
        return aut
    return decompose_automorphism(aut)


def _emit(args, payload: dict, text: str) -> None:
    if args.json_output:
        print(json.dumps(payload, indent=2))
    else:
        print(text)


def run_command(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE_ERROR

    try:
        return _dispatch(args)
    except (ExprSyntaxError, DimensionError, NotMember) as exc:
        _print_error(args, f"parse error: {exc}")
        return USAGE_ERROR
    except CliUsageError as exc:
        _print_error(args, str(exc))
        return USAGE_ERROR
    except FileNotFoundError as exc:
        _print_error(args, f"cannot read {exc.filename}")
        return USAGE_ERROR
    except (json.JSONDecodeError, KeyError, ValueError) as exc:
        _print_error(args, f"bad input: {exc}")
        return USAGE_ERROR
    except WeylError as exc:
        _print_error(args, f"{type(exc).__name__}: {exc}", _counterexample(exc))
        return CHECK_FAILED


def _counterexample(exc: WeylError) -> dict | None:
    """The trial number and the elements of the failed check behind ``exc``
    (``iso_search_bounded`` chains it as the cause), each element in
    ``element_to_dict`` form."""
    ce = exc.__cause__
    if not isinstance(ce, HomomorphismCounterexample):
        return None
    out = {} if ce.trial is None else {"trial": ce.trial}
    for name in ("a", "b", "lhs", "rhs"):
        element = getattr(ce, name)
        if element is not None:
            out[name] = element_to_dict(element)
    return out


def _print_error(args, message: str, counterexample: dict | None = None) -> None:
    print(message, file=sys.stderr)
    if getattr(args, "json_output", False):
        payload = {"ok": False, "error": message}
        if counterexample is not None:
            payload["counterexample"] = counterexample
        print(json.dumps(payload))


def _dispatch(args) -> int:
    command = args.command
    if command == "eval":
        sig = _require_signature(args)
        result = parse_and_eval(args.expr, sig)
        _emit(args, {"ok": True, "element": element_to_dict(result),
                     "text": format_element(result)}, format_element(result))
        return 0

    if command == "bracket":
        sig = _require_signature(args)
        result = parse_and_eval(args.expr1, sig).bracket(
            parse_and_eval(args.expr2, sig))
        _emit(args, {"ok": True, "element": element_to_dict(result),
                     "text": format_element(result)}, format_element(result))
        return 0

    if command == "aut":
        return _dispatch_aut(args)

    if command == "iso":
        src = _signature_from_file(args.src)
        dst = _signature_from_file(args.dst)
        result = iso_search_bounded(src, dst)
        payload = {"ok": True, **result.to_dict()}
        detail = result.reason
        if result.status == "found":
            payload["G"] = payload["certificate"]["G"]
            detail = "G = " + "; ".join(",".join(row) for row in payload["G"])
        _emit(args, payload, f"{result.status.upper()}\n{detail}")
        return 0

    if command == "selftest":
        sig = (_signature_from_file(args.config)
               if args.config else desk_signature())
        names = [args.suite] if args.suite else None
        results = run_suites(sig, names, seed=_resolve_seed(args))
        if args.json_output:
            print(json.dumps({"ok": all(r.passed for r in results),
                              "suites": [{"name": r.name, "passed": r.passed,
                                          "detail": r.detail} for r in results]},
                             indent=2))
        else:
            for r in results:
                print(r.line())
        return 0 if all(r.passed for r in results) else CHECK_FAILED

    if command == "export":
        sig = _require_signature(args)
        result = parse_and_eval(args.expr, sig)
        print(json.dumps(element_to_dict(result), indent=2))
        return 0

    raise WeylError(f"unknown command {command!r}")


def _dispatch_aut(args) -> int:
    if args.aut_command == "apply":
        sig = _require_signature(args)
        aut = _load_automorphism(args.aut, args.mode)
        if aut.signature != sig:
            raise WeylError("automorphism file and --config disagree on the algebra")
        result = aut.apply(parse_and_eval(args.expr, sig))
        _emit(args, {"ok": True, "element": element_to_dict(result),
                     "text": format_element(result)}, format_element(result))
        return 0

    if args.aut_command == "compose":
        a = _as_normal_form(_load_automorphism(args.a, args.mode))
        b = _as_normal_form(_load_automorphism(args.b, args.mode))
        composed = compose_normal_forms(a, b)
        text = json.dumps(composed.to_dict(), indent=2)
        if args.json_output:
            print(json.dumps({"ok": True, "aut": composed.to_dict()}, indent=2))
        else:
            print(text)
        return 0

    if args.aut_command == "decompose":
        aut = _load_automorphism(args.aut, args.mode)
        if isinstance(aut, NormalFormAut):
            aut = FunctionalAut.from_aut(aut)
        nf = decompose_automorphism(aut)
        if args.json_output:
            print(json.dumps({"ok": True, "aut": nf.to_dict()}, indent=2))
        else:
            print(json.dumps(nf.to_dict(), indent=2))
        return 0

    raise WeylError(f"unknown aut subcommand {args.aut_command!r}")


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
