"""Command-line front end.

Exit codes: 0 success, 1 verification or computation failure, 2 usage or
parse errors, 3 standard output could not be written (a closed pipe, a full
disk).  ``WEYL_SEED`` is the seed fallback when --seed is absent.
Identical argv plus seed produce byte-identical output.

Each command imports only the modules it runs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .errors import (DimensionMismatch, EmptyGenerators, ExpressionError,
                     HomomorphismCounterexample, NondegenerateViolation, NotMember, WeylError)
from .rationals import field_from_json, int_from_json, list_from_json, vector_from_json

USAGE_ERROR = 2
CHECK_FAILED = 1
OUTPUT_FAILED = 3
MODES = ("lie", "assoc")  # automorphisms.MODE_LIE and MODE_ASSOC, without loading it


class CliUsageError(WeylError):
    """Bad invocation: missing config, unreadable files, malformed flags."""


def _read_json_object(path: str) -> dict:
    def unique_keys(pairs):
        data = {}
        for key, value in pairs:
            if key in data:
                raise ValueError(f"{path} repeats key {key!r}")
            data[key] = value
        return data

    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh, object_pairs_hook=unique_keys)
    except OSError:
        raise CliUsageError(f"cannot read {path}") from None
    except RecursionError:
        raise ValueError(f"{path} nests JSON too deeply") from None
    if not isinstance(data, dict):
        raise ValueError(f"{path} holds a JSON {type(data).__name__}, expected an object")
    return data


def _signature_from_file(path: str):
    from .algebra import Signature
    from .lattice import Lattice
    data = _read_json_object(path)
    ell1, ell2 = (int_from_json(field_from_json(data, key, "config"), key)
                  for key in ("ell1", "ell2"))
    rows = list_from_json(field_from_json(data, "gamma_generators", "config"), "gamma_generators")
    gens = [vector_from_json(row, ell1 + ell2, "generator") for row in rows]
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
            raise CliUsageError(f"WEYL_SEED must be an integer, got {env!r}") from None
    return 0


class _ArgumentParser(argparse.ArgumentParser):
    """Raises usage errors for ``run_command`` to report, as JSON under --json."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise CliUsageError(f"{self.prog}: error: {message}")

    def _print_message(self, message, file=None):
        # argparse drops the OSError of a refused write; the help text on a
        # stdout that refuses it is an output failure, as for every command
        if message and file is sys.stdout:
            file.write(message)
        else:
            super()._print_message(message, file)


def _option(*flags, **kwargs) -> argparse.ArgumentParser:
    """A parent parser holding one option, for the subcommands that read it."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(*flags, **kwargs)
    return parent


def _build_parser() -> argparse.ArgumentParser:
    config = _option("--config", metavar="FILE",
                     help="signature config JSON: ell1, ell2, gamma_generators")
    mode = _option("--mode", choices=MODES, default=None,
                   help="replaces the automorphism files' \"mode\"; in assoc mode a map "
                        "with the order-2 twist is refused")
    seed = _option("--seed", type=int, default=None,
                   help="seed for randomized checks (fallback: WEYL_SEED, then 0)")
    json_output = _option("--json", action="store_true", dest="json_output",
                          help="machine-readable JSON on stdout")
    expression = [config, json_output]
    automorphism = [config, mode, json_output]

    parser = _ArgumentParser(prog="weyl",
                             description="exact Weyl-type algebra calculator")
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", parents=expression,
                            help="evaluate an expression, print the canonical form")
    p_eval.add_argument("expr")

    p_br = sub.add_parser("bracket", parents=expression,
                          help="bracket of two expressions")
    p_br.add_argument("expr1")
    p_br.add_argument("expr2")

    # no options here: the subcommand's defaults would overwrite them
    p_aut = sub.add_parser("aut", help="automorphism operations")
    aut_sub = p_aut.add_subparsers(dest="aut_command", required=True)
    p_apply = aut_sub.add_parser("apply", parents=automorphism)
    p_apply.add_argument("--aut", required=True, metavar="FILE")
    p_apply.add_argument("expr")
    p_compose = aut_sub.add_parser("compose", parents=automorphism)
    p_compose.add_argument("--a", required=True, metavar="FILE")
    p_compose.add_argument("--b", required=True, metavar="FILE")
    p_decompose = aut_sub.add_parser("decompose", parents=automorphism)
    p_decompose.add_argument("--aut", required=True, metavar="FILE")

    p_iso = sub.add_parser("iso", parents=[json_output],
                           help="decide isomorphism between two configs")
    p_iso.add_argument("--src", required=True, metavar="CFG")
    p_iso.add_argument("--dst", required=True, metavar="CFG")

    p_self = sub.add_parser("selftest", parents=[config, seed, json_output],
                            help="run the property suites")
    p_self.add_argument("--suite", help="run this suite only (default: all)")

    p_export = sub.add_parser("export", parents=expression,
                              help="serialize an expression")
    p_export.add_argument("--format", choices=("json",), required=True)
    p_export.add_argument("expr")
    return parser


def _require_signature(args):
    if not args.config:
        raise CliUsageError(
            "this command needs --config FILE (no implicit default algebra)")
    return _signature_from_file(args.config)


def _load_automorphism(path: str, mode: str | None, sig):
    """Either file form; --mode, when given, replaces the file's "mode", and
    the algebra of --config, when given as ``sig``, must be the file's."""
    from .automorphisms import FunctionalAut, NormalFormAut
    data = _read_json_object(path)
    if mode is not None:
        data["mode"] = mode
    aut = (FunctionalAut if "images" in data else NormalFormAut).from_dict(data)
    if sig is not None and aut.signature != sig:
        raise WeylError("automorphism file and --config disagree on the algebra")
    return aut


def _as_normal_form(aut):
    from .automorphisms import NormalFormAut, decompose_automorphism
    if isinstance(aut, NormalFormAut):
        return aut
    return decompose_automorphism(aut)


def _emit(args, payload: dict, text: str) -> None:
    print(json.dumps(payload, indent=2) if args.json_output else text)


def run_command(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE_ERROR
    except CliUsageError as exc:
        _print_error(argparse.Namespace(json_output="--json" in argv), str(exc))
        return USAGE_ERROR

    try:
        return _dispatch(args)
    except (ExpressionError, NotMember) as exc:
        _print_error(args, f"parse error: {exc}")
        return USAGE_ERROR
    except CliUsageError as exc:
        _print_error(args, str(exc))
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
    from .algebra import element_to_dict
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
    if command in ("eval", "bracket", "export"):
        sig = _require_signature(args)
        from .algebra import element_to_dict
        from .expressions import format_element, parse_and_eval
        if command == "bracket":
            result = parse_and_eval(args.expr1, sig).bracket(parse_and_eval(args.expr2, sig))
        else:
            result = parse_and_eval(args.expr, sig)
        data, text = element_to_dict(result), format_element(result)
        _emit(args, {"ok": True, "element": data, "text": text},
              json.dumps(data, indent=2) if command == "export" else text)
        return 0

    if command == "aut":
        return _dispatch_aut(args)

    if command == "iso":
        from .classification import iso_search_bounded
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
        from .sampling import desk_signature
        from .selftest import SUITES, run_suites
        if args.suite not in (None, *SUITES):
            choices = ", ".join(map(repr, sorted(SUITES)))
            raise CliUsageError(f"weyl selftest: error: argument --suite: invalid choice: "
                                f"{args.suite!r} (choose from {choices})")
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

    raise WeylError(f"unknown command {command!r}")


def _dispatch_aut(args) -> int:
    # apply needs --config to parse its expression; compose and decompose
    # check their files against it when it is given
    sig = _require_signature(args) if args.aut_command == "apply" or args.config else None
    from .automorphisms import (FunctionalAut, NormalFormAut, compose_normal_forms,
                                decompose_automorphism)
    if args.aut_command == "apply":
        from .algebra import element_to_dict
        from .expressions import format_element, parse_and_eval
        aut = _load_automorphism(args.aut, args.mode, sig)
        w = parse_and_eval(args.expr, sig)
        result = _as_normal_form(aut).apply(w)
        _emit(args, {"ok": True, "element": element_to_dict(result),
                     "text": format_element(result)}, format_element(result))
        return 0

    if args.aut_command == "compose":
        a = _as_normal_form(_load_automorphism(args.a, args.mode, sig))
        b = _as_normal_form(_load_automorphism(args.b, args.mode, sig))
        composed = compose_normal_forms(a, b).to_dict()
        _emit(args, {"ok": True, "aut": composed}, json.dumps(composed, indent=2))
        return 0

    if args.aut_command == "decompose":
        aut = _load_automorphism(args.aut, args.mode, sig)
        if isinstance(aut, NormalFormAut):
            aut = FunctionalAut.from_aut(aut)
        nf = decompose_automorphism(aut).to_dict()
        _emit(args, {"ok": True, "aut": nf}, json.dumps(nf, indent=2))
        return 0

    raise WeylError(f"unknown aut subcommand {args.aut_command!r}")


def main() -> None:
    try:
        code = run_command(sys.argv[1:])
        sys.stdout.flush()
    except OSError as exc:  # stdout: run_command reports unreadable files itself
        print(f"cannot write output: {exc.strerror}", file=sys.stderr)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # for the exit flush
        code = OUTPUT_FAILED
    sys.exit(code)


if __name__ == "__main__":
    main()
