"""Command-line front end.

Five subcommands expose the package: ``eval`` (reference special functions),
``series`` (slowly convergent series with an optional convergence table),
``integrate`` (tanh-sinh kernels), ``limit`` (Richardson-extrapolated
limits), and ``verify`` (the identity suite with table/json/csv reports).
The first four reach a route by name through its layer's table (``series.SERIES``,
``quadrature.KERNELS``, ``limits.LIMITS``; for eval, each function in
``core_special.__all__``).  A route's flags are exactly its routine's parameters,
and those without a default are required.  A flag left out takes the routine's own
default: the CLI passes only the flags given, and reads a default only for the
help text.  A command loads its own module, and reads its routes' parameters, on
first use; the parser gets its arguments only.
A route's parameters come from its code object (``__code__``, ``__defaults__``)
and its string annotations (``float``, ``int`` or ``str``), not from
``inspect``, and ``CommandInvocation`` is an ``errors.Record``, not a
dataclass: a one-shot command loads neither ``inspect``, ``dataclasses`` nor
``typing``, which would cost it more than its own work.

Exit codes: 0 success (and all identities passing), 1 verification failures,
2 usage or domain errors, 3 non-convergence (quadrature refinement cap, or a
series run whose ``tail_estimate`` exceeds an explicitly requested ``--tol``).

Every printed number uses 17 significant digits, so parsing it back yields
the exact double that was computed.  All behaviour is controlled by flags;
there are no config files or environment variables.
"""

from __future__ import annotations

import argparse
import functools
import sys
from collections.abc import Callable, Mapping, Sequence
from types import ModuleType

from .errors import BetalabError, DomainError, NonConvergenceError, Record

__all__ = ["CommandInvocation", "parse", "execute", "main"]


class CommandInvocation(Record):
    """A validated command line: the chosen subcommand plus its options."""

    subcommand: str
    options: Mapping


def _g(value: float) -> str:
    return format(value, ".17g")


def _print_result(res, width: int, prefix: str = "") -> None:
    """One ``name = value`` line per field of a series, quadrature or limit result;
    a float result, eval's, is its one ``_g`` line."""
    if isinstance(res, float):
        print(_g(res))
        return
    for name in res._fields:
        value = getattr(res, name)
        print(f"{prefix}{name:<{width}} = {_g(value) if isinstance(value, float) else value}")


# --- routes ---------------------------------------------------------------

# command -> (its module, loaded on the command's first use; its help; its route's dest;
# the module's table of routes, name -> routine, in the order the CLI lists them).
_COMMANDS = {
    "eval": ("core_special", "evaluate a reference special function", "function", None),
    "series": ("series", "sum a slowly convergent series", "name", "SERIES"),
    "integrate": ("quadrature", "tanh-sinh integration of a kernel", "kernel", "KERNELS"),
    "limit": ("limits", "Richardson-extrapolated v->0 limits", "name", "LIMITS"),
    "verify": ("verify", "run the identity suite and report", None, None),
}


def _module(command: str) -> ModuleType:
    return getattr(sys.modules[__package__], _COMMANDS[command][0])  # the package root loads it


# A route parameter: its name, its default (_REQUIRED if none) and its type.
_Param = tuple[str, object, type]
_REQUIRED = object()
_TYPES = {"float": float, "int": int, "str": str}  # the annotations routes use


@functools.cache
def _table(command: str) -> tuple[dict[str, tuple[Callable, dict[str, _Param]]], dict]:
    """The routes of ``command``, read once, on its first use: route name -> (routine,
    flag -> parameter), and flag -> {route name: parameter} over the routes that take
    it.  The routines are the layer's table, or for eval each function in its
    ``__all__``; eval's flags go by position, and Norlund's x is --xarg."""
    module, table = _module(command), _COMMANDS[command][3]
    routines = getattr(module, table) if table else {
        name: f for name in sorted(module.__all__) if callable(f := getattr(module, name))}
    routes, takers = {}, {}
    for name, routine in routines.items():
        code = routine.__code__
        params = code.co_varnames[: code.co_argcount]
        defaults = routine.__defaults__ or ()
        defaults = (_REQUIRED,) * (len(params) - len(defaults)) + defaults
        flags = {}
        for i, (param, default) in enumerate(zip(params, defaults)):
            flag = ("x", "x2")[i] if command == "eval" else "xarg" if param == "x" else param
            flags[flag] = (param, default, _TYPES[routine.__annotations__[param]])
            takers.setdefault(flag, {})[name] = flags[flag]
        routes[name] = (routine, flags)
    return routes, takers


def _arguments(command: str, name: str, options: Mapping) -> dict:
    """Route ``name``'s keyword arguments: the flags given, converted by annotation
    (eval's flags are text).  A flag left out takes its routine's own default."""
    where = f"{command} {name}"
    routes, takers = _table(command)
    flags = routes[name][1]
    for flag in takers:
        if options.get(flag) is not None and flag not in flags:
            raise DomainError(f"{where} takes no --{flag}")
    missing = [f"--{flag}" for flag, (_, default, _) in flags.items()
               if options.get(flag) is None and default is _REQUIRED]
    if missing:
        raise DomainError(f"{where} requires {' and '.join(missing)}")
    args = {}
    for flag, (param, _, kind) in flags.items():
        value = options.get(flag)
        if value is not None:
            try:
                args[param] = kind(value)
            except ValueError:
                what = "an integer" if kind is int else "a number"
                raise DomainError(f"--{flag} must be {what}, got {value!r}") from None
    return args


# --- handlers -------------------------------------------------------------


def _run_series(options: Mapping) -> int:
    name = options["name"]
    params = _arguments("series", name, options)
    explicit_tol = options["tol"]
    sr = _module("series")
    ctrl = sr.SeriesControl(
        max_terms=options["max_terms"],
        tol=sr.SeriesControl.tol if explicit_tol is None else explicit_tol,
        tail_correction=not options["no_tail_correction"],
    )
    result, rows = sr.trace(name, params, ctrl, options["every"])
    if rows:
        print(f"{'n':>10}  {'term':>24}  {'partial_sum':>24}  {'tail_estimate':>24}")
        for row in rows:
            print(
                f"{row.n:>10}  {_g(row.term):>24}  {_g(row.partial_sum):>24}  "
                f"{_g(row.tail_estimate):>24}"
            )
        print()
    _print_result(result, 16)
    if explicit_tol is not None and result.tail_estimate > explicit_tol:
        print(
            f"error: series stopped at {result.termination} with estimated tail "
            f"{_g(result.tail_estimate)} above tol {_g(explicit_tol)}",
            file=sys.stderr,
        )
        return 3
    return 0


def _run_routine(command: str, options: Mapping) -> int:
    """Run an eval, integrate or limit route and print each result it returns."""
    name = options[_COMMANDS[command][2]]
    results = _table(command)[0][name][0](**_arguments(command, name, options))
    if not isinstance(results, tuple):
        results = (results,)
    labels = ("via_log_gamma  ", "via_recurrence ") if name == "scaled-beta" else ("",)
    for prefix, res in zip(labels, results):
        _print_result(res, 14, prefix)
    return 0


def _run_verify(options: Mapping) -> int:
    only = options.get("only")
    if only is not None:
        only = [s.strip() for s in only.split(",") if s.strip()]
    vf = _module("verify")
    report = vf.run_suite(only=only)
    data = vf.render_report(report, options["format"])
    out = options.get("out")
    if out:
        try:
            with open(out, "wb") as handle:
                handle.write(data)
        except OSError as exc:  # a missing directory, a directory, no permission
            raise DomainError(f"cannot write the report: {exc}") from None
    else:
        sys.stdout.buffer.write(data)
        sys.stdout.buffer.flush()
    return 1 if report.counts["failed"] > 0 else 0


# --- parsing and dispatch -------------------------------------------------


def _add_routes(parser: argparse.ArgumentParser, command: str, dest: str) -> None:
    """A route name, then one flag per routine parameter, whose help names the
    routes that take it and, unless one requires it, their defaults."""
    routes, takers_by_flag = _table(command)
    parser.add_argument(dest, choices=sorted(routes))
    for flag, takers in takers_by_flag.items():
        _, _, kind = next(iter(takers.values()))
        text = "for " + ", ".join(takers)
        if (command, flag) == ("integrate", "tol"):
            text += ", relative: stop once error_estimate <= tol * |value|"
        routes_by_default: dict[object, list[str]] = {}
        for name, (_, default, _) in takers.items():
            routes_by_default.setdefault(default, []).append(name)
        if _REQUIRED not in routes_by_default:  # the most shared default is said last
            *rest, (common, _) = sorted(routes_by_default.items(), key=lambda d: len(d[1]))
            said = [f"{d} for {', '.join(names)}; " for d, names in rest]
            text += f" (default {''.join(said)}{common}{' otherwise' if said else ''})"
        parser.add_argument(f"--{flag}", type=None if command == "eval" else kind, help=text)


def _add_series_options(parser: argparse.ArgumentParser) -> None:
    sr = _module("series")
    parser.description = (
        "Sum a slowly convergent series.  beta, beta-limit, digamma, log2 and "
        "norlund, when infinite, are Levin-Sidi d1 extrapolated, and trigamma, "
        "trigamma-half and zeta2 d2 extrapolated, from at most 1,477 terms sampled "
        "at geometric indices.  tail_estimate bounds the error of value; on exact "
        "termination it is the rounding floor, and it is 0 before a first estimate exists.  "
        f"termination is one of {', '.join(sr.TERMINATIONS)}."
    )
    parser.add_argument(
        "--max-terms",
        type=int,
        default=sr.SeriesControl.max_terms,
        help=f"term cap (default {sr.SeriesControl.max_terms})",
    )
    parser.add_argument(
        "--tol",
        type=float,
        help=f"stop when estimated tail <= tol (default {sr.SeriesControl.tol:g}); "
        "if given, a run that stops above it exits 3",
    )
    parser.add_argument("--every", type=int, default=0, help="print a table row every N terms")
    parser.add_argument(
        "--no-tail-correction",
        action="store_true",
        help="sum to --max-terms and report the raw partial sum as the value, "
        "with tail_estimate bounding its distance to the extrapolated limit",
    )


def _build_parser(command: str | None) -> argparse.ArgumentParser:
    """Every subcommand with its help; only ``command``, the one being parsed,
    gets its arguments, so no other command's module is loaded."""
    parser = argparse.ArgumentParser(
        prog="betalab",
        description="Special-function laboratory: evaluate, sum, integrate, "
        "extrapolate, and verify classical beta/gamma identities.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (_, text, dest, _) in _COMMANDS.items():
        p_sub = sub.add_parser(name, help=text)
        if name != command:
            continue
        if dest is not None:
            _add_routes(p_sub, command, dest)
        if command == "series":
            _add_series_options(p_sub)
        elif command == "verify":
            p_sub.add_argument("--only", help="comma-separated identity ids (default: all)")
            p_sub.add_argument("--format", choices=("table", "json", "csv"), default="table")
            p_sub.add_argument("--out", help="write the report to this path instead of stdout")
    return parser


_HANDLERS = {"series": _run_series, "verify": _run_verify} | {
    command: functools.partial(_run_routine, command) for command in ("eval", "integrate", "limit")}


def parse(argv: Sequence[str]) -> CommandInvocation:
    """Parse arguments into a CommandInvocation.

    Usage problems follow argparse convention and raise ``SystemExit(2)``
    (with help text on stderr); :func:`main` converts that to an exit code.
    """
    command = next((arg for arg in argv if arg in _COMMANDS), None)  # the root takes only -h
    if command is not None:
        _module(command)  # loaded before any parser is built, which keeps peak RSS down
    namespace = _build_parser(command).parse_args(list(argv))
    options = vars(namespace).copy()
    subcommand = options.pop("subcommand")
    return CommandInvocation(subcommand=subcommand, options=options)


def execute(inv: CommandInvocation) -> int:
    """Run a parsed invocation and return its exit code."""
    return _HANDLERS[inv.subcommand](inv.options)


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    try:
        inv = parse(sys.argv[1:] if argv is None else argv)
    except SystemExit as exc:  # argparse exits with an int code: 0 after --help, else 2
        return exc.code
    try:
        return execute(inv)
    except NonConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        partial = exc.result
        if partial is not None:
            print(
                f"partial value = {_g(partial.value)} "
                f"(error estimate {_g(partial.error_estimate)})",
                file=sys.stderr,
            )
        return 3
    except BetalabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
