"""Command-line front end.

Verbs: params-validate, params-griffiths, params-family,
params-involute, eval, table, check, stencil.  All structured output is
JSON on stdout (exact mode writes lowest-terms rationals, approximate
mode 17-significant-digit decimals); `eval` prints the bare scalar.

Exit codes: 0 success / all checks pass, 1 at least one check failed
(report still emitted), 2 usage or parse error, 3 invalid parameter
set or forbidden family parameters, 4 an internal invariant failed
(AssertionError), 5 approximate arithmetic left the float range.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

from . import bispec, hyperg, liemod, verify
from . import kappa as kappa_mod
from .kappa import InvalidParameterSetError, ParameterSet
from .numeric import APPROX, DEFAULT_EPS, EXACT, Scalar, format_scalar, parse_scalar

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_INVALID_PARAMS = 3
EXIT_INTERNAL = 4
EXIT_FLOAT_RANGE = 5

# The most lattice points, comb(N + d, d), that `table`, `eval` or a
# lattice suite of `check` takes on: a table holds L^2 values, 10^8 at
# this budget, and one `eval` sums its kernels by their margins, one
# big-int state per pair of margins under its caps, up to L^2 of them
# as a table's sum has, so a larger run is refused (exit 2) before any
# sum starts.
MAX_LATTICE = 10**4


class UsageError(ValueError):
    pass


class ForbiddenFamilyError(ValueError):
    """A family builder refused its parameters."""


def _parse_scalar_list(flag: str, text: str, mode: str) -> list[Scalar]:
    try:
        return [parse_scalar(part, mode) for part in text.split(",")]
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"bad scalar list {text!r}: {exc}") from exc
    except OverflowError as exc:
        raise OverflowError(f"the list {flag} {text}: {exc}") from None


def _parse_int_list(text: str) -> tuple:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise UsageError(f"bad integer list {text!r}: {exc}") from exc


def _load_json(path: str) -> dict:
    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read JSON from {path!r}: {exc}") from exc


def _load_kappa(path: str, mode: str, tol: Scalar) -> ParameterSet:
    obj = _load_json(path)
    try:
        return kappa_mod.from_json_dict(obj, mode, tol)
    except InvalidParameterSetError:
        raise
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _build_family(builder, *params) -> ParameterSet:
    """Run a family builder; whatever parameters it refuses, by any
    ValueError, are forbidden family parameters (exit 3)."""
    try:
        return builder(*params)
    except ValueError as exc:
        raise ForbiddenFamilyError(str(exc)) from exc


def _lattice_budget(d: int, N: int) -> None:
    if math.comb(N + d, d) > MAX_LATTICE:
        raise UsageError(f"--N {N} at d = {d} has more than {MAX_LATTICE} lattice points")


def _emit(obj, output: str | None) -> None:
    text = json.dumps(obj, indent=2)
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser of every verb, built once per process, on first use:
    parsing leaves it as it was, so each `main` call reuses it."""
    parser = argparse.ArgumentParser(
        prog="mvkraw",
        description="Construct, evaluate and verify multivariate "
        "Krawtchouk parameter sets and polynomial tables.",
    )
    parser.add_argument(
        "--mode", choices=(EXACT, APPROX), default=EXACT,
        help="scalar arithmetic mode (default: exact rationals)",
    )
    parser.add_argument(
        "--eps", type=float, default=None,
        help=f"tolerance for approximate mode (default {DEFAULT_EPS})",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    s = sub.add_parser("params-validate", help="validate a parameter-set file")
    s.add_argument("--input", required=True, help="JSON file, or - for stdin")

    s = sub.add_parser(
        "params-griffiths", help="build a parameter set from a weight vector"
    )
    s.add_argument("--p", required=True, help="comma list, e.g. 1/2,1/4,1/4")
    s.add_argument("--output")

    s = sub.add_parser("params-family", help="build a named family member")
    s.add_argument(
        "--family", required=True, choices=("hoare-rahman", "milch", "ds")
    )
    s.add_argument("--params", help="hoare-rahman: four scalars a,b,c,e")
    s.add_argument("--p", help="milch: weight vector comma list")
    s.add_argument("--q", help="ds: the ratio, any rational != 0,1")
    s.add_argument("--d", type=int, help="ds: number of variables")
    s.add_argument("--output")

    s = sub.add_parser("params-involute", help="swap the two weight vectors")
    s.add_argument("--kappa", required=True)
    s.add_argument("--output")

    s = sub.add_parser("eval", help="evaluate one polynomial value")
    s.add_argument("--kappa", required=True)
    s.add_argument("--N", type=int, required=True)
    s.add_argument("--m", required=True, help="reduced index, comma list of d ints")
    s.add_argument("--mt", required=True, help="reduced index, comma list of d ints")
    s.add_argument(
        "--method", choices=("hyper", "gen", "pairing"), default="hyper"
    )

    s = sub.add_parser("table", help="full lattice-by-lattice value table")
    s.add_argument("--kappa", required=True)
    s.add_argument("--N", type=int, required=True)
    s.add_argument("--output")

    s = sub.add_parser("check", help="run verification suites")
    s.add_argument("--kappa", help="parameter-set JSON file")
    s.add_argument("--N", type=int)
    s.add_argument(
        "--suite",
        default=",".join(verify.SUITES),
        help="comma list from: " + ", ".join(verify.SUITES),
    )
    s.add_argument("--table", help="precomputed table JSON to check against")
    s.add_argument("--output")

    s = sub.add_parser("stencil", help="dump a difference-operator stencil")
    s.add_argument("--kappa", required=True)
    s.add_argument("--N", type=int, required=True)
    s.add_argument(
        "--operator", choices=("mtilde", "m", "universal"), default="mtilde"
    )
    s.add_argument("--i", type=int, default=1, help="generator index")
    s.add_argument("--output")

    return parser


def _dispatch(args: argparse.Namespace) -> int:
    mode = args.mode
    tol = 0
    if mode == APPROX:
        tol = args.eps if args.eps is not None else DEFAULT_EPS
        if not 0 < tol < float("inf"):
            raise UsageError(f"--eps must be a positive finite number, got {tol}")
    elif args.eps is not None:
        raise UsageError("--eps only applies to --mode approx")
    if getattr(args, "N", None) is not None and args.N < 0:
        raise UsageError(f"--N must be >= 0, got {args.N}")

    if args.verb == "params-validate":
        kap = _load_kappa(args.input, mode, tol)
        _emit(kappa_mod.to_json_dict(kap), None)
        return EXIT_OK

    if args.verb == "params-griffiths":
        p = _parse_scalar_list("--p", args.p, mode)
        kap = _build_family(
            kappa_mod.griffiths_from_p, p, tol if mode == APPROX else None
        )
        _emit(kappa_mod.to_json_dict(kap), args.output)
        return EXIT_OK

    if args.verb == "params-family":
        if args.family == "hoare-rahman":
            if not args.params:
                raise UsageError("hoare-rahman needs --params a,b,c,e")
            vals = _parse_scalar_list("--params", args.params, mode)
            if len(vals) != 4:
                raise UsageError("hoare-rahman takes exactly four parameters")
            kap = _build_family(kappa_mod.family_hoare_rahman, *vals)
        elif args.family == "milch":
            if not args.p:
                raise UsageError("milch needs --p weight list")
            p = _parse_scalar_list("--p", args.p, mode)
            kap = _build_family(kappa_mod.family_milch, p)
        else:
            if args.q is None or args.d is None:
                raise UsageError("ds needs --q and --d")
            q = _parse_scalar_list("--q", args.q, mode)
            if len(q) != 1:
                raise UsageError("ds takes exactly one --q")
            kap = _build_family(kappa_mod.family_ds, q[0], args.d)
        _emit(kappa_mod.to_json_dict(kap), args.output)
        return EXIT_OK

    if args.verb == "params-involute":
        kap = _load_kappa(args.kappa, mode, tol)
        _emit(kappa_mod.to_json_dict(kappa_mod.involute(kap, tol)), args.output)
        return EXIT_OK

    if args.verb == "eval":
        kap = _load_kappa(args.kappa, mode, tol)
        _lattice_budget(kap.d, args.N)
        m = _parse_int_list(args.m)
        mt = _parse_int_list(args.mt)
        try:
            if args.method == "hyper":
                value = hyperg.eval_hypergeometric(kap, args.N, m, mt)
            elif args.method == "gen":
                value = hyperg.eval_generating(kap, args.N, m, mt)
            else:
                n = (args.N - sum(m),) + m
                nt = (args.N - sum(mt),) + mt
                conj = liemod.conjugator(kap, tol)
                value = liemod.pairing_eval(kap, args.N, n, nt, conj)
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
        print(format_scalar(value))
        return EXIT_OK

    if args.verb == "table":
        kap = _load_kappa(args.kappa, mode, tol)
        _lattice_budget(kap.d, args.N)
        tab = hyperg.table(kap, args.N)
        _emit(hyperg.table_to_json_dict(tab), args.output)
        return EXIT_OK

    if args.verb == "check":
        tab = None
        if args.table:
            try:
                tab = hyperg.table_from_json_dict(_load_json(args.table), mode, tol)
            except InvalidParameterSetError:
                raise
            except ValueError as exc:
                raise UsageError(str(exc)) from exc
        if args.kappa:
            kap = _load_kappa(args.kappa, mode, tol)
            if tab is not None and kap != tab.kappa:
                raise UsageError(
                    "--kappa and --table disagree on the parameter set"
                )
        elif tab is not None:
            kap = tab.kappa
        else:
            raise UsageError("check needs --kappa or --table")
        N = args.N
        if N is None and tab is not None:
            N = tab.N
        if tab is not None and N != tab.N:
            raise UsageError(f"--N {N} does not match table N = {tab.N}")
        names = [s.strip() for s in args.suite.split(",") if s.strip()]
        if not names:
            raise UsageError(f"--suite {args.suite!r} names no suite")
        if N is not None and not verify.KAPPA_ONLY_SUITES.issuperset(names):
            _lattice_budget(kap.d, N)
        try:
            reports = verify.run_suites(names, kap, N, tol, tab)
        except InvalidParameterSetError:
            raise
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
        out = {
            "pass": all(r.passed for r in reports),
            "reports": [r.to_json_dict(kap, None if n in verify.KAPPA_ONLY_SUITES else N)
                        for n, r in zip(names, reports)],
        }
        _emit(out, args.output)
        return EXIT_OK if out["pass"] else EXIT_CHECK_FAILED

    if args.verb == "stencil":
        kap = _load_kappa(args.kappa, mode, tol)
        try:
            if args.operator == "mtilde":
                op = bispec.operator_mtilde(kap, args.N, args.i)
            elif args.operator == "m":
                op = bispec.operator_m(kap, args.N, args.i)
            else:
                op = bispec.operator_universal(kap, args.N)
        except IndexError as exc:
            raise UsageError(str(exc)) from exc
        _emit(
            {
                "operator": op.name,
                "d": op.d,
                "N": op.N,
                "terms": bispec.stencil_json(op),
            },
            args.output,
        )
        return EXIT_OK

    raise UsageError(f"unhandled verb {args.verb!r}")


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return _dispatch(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (InvalidParameterSetError, ForbiddenFamilyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID_PARAMS
    except AssertionError as exc:
        print(f"error: internal invariant failed: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except OverflowError as exc:
        print(f"error: {exc}; exact mode has no float range", file=sys.stderr)
        return EXIT_FLOAT_RANGE


if __name__ == "__main__":
    sys.exit(main())
