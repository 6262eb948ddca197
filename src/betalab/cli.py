"""Command-line front end.

Five subcommands expose the package: ``eval`` (reference special functions),
``series`` (slowly convergent series with an optional convergence table),
``integrate`` (tanh-sinh kernels), ``limit`` (Richardson-extrapolated
limits), and ``verify`` (the identity suite with table/json/csv reports).

Exit codes: 0 success (and all identities passing), 1 verification failures,
2 usage or domain errors, 3 non-convergence (quadrature refinement cap, or a
series run whose ``tail_estimate`` exceeds an explicitly requested ``--tol``).

Every printed number uses 17 significant digits, so parsing it back yields
the exact double that was computed.  All behaviour is controlled by flags;
there are no config files or environment variables.
"""

from __future__ import annotations

import argparse
import inspect
import sys
from dataclasses import dataclass, fields
from typing import Callable, Mapping, Sequence

from . import core_special as cs
from . import limits as lm
from . import quadrature as qd
from . import series as sr
from . import verify as vf
from .errors import BetalabError, DomainError, NonConvergenceError

__all__ = ["CommandInvocation", "parse", "execute", "main"]


@dataclass(frozen=True)
class CommandInvocation:
    """A validated command line: the chosen subcommand plus its options."""

    subcommand: str
    options: Mapping


def _g(value: float) -> str:
    return format(value, ".17g")


def _print_result(res, width: int, prefix: str = "") -> None:
    """One ``name = value`` line per field of a series, quadrature or limit result."""
    for field in fields(res):
        value = getattr(res, field.name)
        print(f"{prefix}{field.name:<{width}} = {_g(value) if isinstance(value, float) else value}")


# --- argument collection -------------------------------------------------


def _required(func: Callable) -> list[inspect.Parameter]:
    """``func``'s parameters without a default, in order: what the CLI must be given."""
    params = inspect.signature(func, eval_str=True).parameters.values()
    return [p for p in params if p.default is p.empty]


def _collect(
    options: Mapping,
    where: str,
    wanted: Mapping[str, Callable | None],
    flags: Sequence[str],
    defaults: Mapping | None = None,
) -> list:
    """Values of the ``wanted`` flags, in order.

    ``wanted`` maps a flag to ``int`` or ``float`` if its value is still text
    (eval's), else to None.  Every flag of ``flags`` outside ``wanted`` must
    be absent; every wanted flag must be given or have an entry in ``defaults``.
    """
    for flag in flags:
        if options.get(flag) is not None and flag not in wanted:
            raise DomainError(f"{where} takes no --{flag}")
    args = []
    for flag, conv in wanted.items():
        value = options.get(flag)
        if value is None:
            value = (defaults or {}).get(flag)
        if value is None:
            raise DomainError(f"{where} requires --{flag}")
        if conv is not None:
            try:
                value = conv(value)
            except ValueError:
                kind = "an integer" if conv is int else "a number"
                raise DomainError(f"--{flag} must be {kind}, got {value!r}") from None
        args.append(value)
    return args


def _given(options: Mapping, *names: str) -> dict:
    """The named options that were given, so the library owns every default."""
    return {name: options[name] for name in names if options[name] is not None}


# --- eval -----------------------------------------------------------------

# Every public function of core_special, its parameters given by position.
_EVAL = sorted(name for name in cs.__all__ if callable(getattr(cs, name)))
_EVAL_FLAGS = ("x", "x2")


def _run_eval(options: Mapping) -> int:
    name = options["function"]
    func = getattr(cs, name)
    kinds = {f: int if p.annotation is int else float for f, p in zip(_EVAL_FLAGS, _required(func))}
    print(_g(func(*_collect(options, f"eval {name}", kinds, _EVAL_FLAGS))))
    return 0


# --- series ---------------------------------------------------------------

# The series' parameter flags; each series takes those its term source names.
_SERIES_PARAM_FLAGS = ("u", "v", "a", "xarg", "convention")
_FLAG_OF = {"x": "xarg"}  # norlund's x keeps its established --xarg flag


def _run_series(options: Mapping) -> int:
    name = options["name"]
    params = [p.name for p in _required(sr.SERIES[name])]
    flags = [_FLAG_OF.get(param, param) for param in params]
    values = _collect(
        options, f"series {name}", dict.fromkeys(flags), _SERIES_PARAM_FLAGS,
        {"convention": sr.CORRECTED},
    )
    every = options["every"]
    if every < 0:
        raise DomainError(f"--every must be >= 0, got {every}")
    ctrl = sr.SeriesControl(
        **_given(options, "max_terms", "tol"),
        tail_correction=not options["no_tail_correction"],
    )
    result, rows = sr.trace(name, dict(zip(params, values)), ctrl, every)
    if rows:
        print(f"{'n':>10}  {'term':>24}  {'partial_sum':>24}  {'tail_estimate':>24}")
        for row in rows:
            print(
                f"{row.n:>10}  {_g(row.term):>24}  {_g(row.partial_sum):>24}  "
                f"{_g(row.tail_estimate):>24}"
            )
        print()
    _print_result(result, 16)
    explicit_tol = options["tol"]
    if explicit_tol is not None and result.tail_estimate > explicit_tol:
        print(
            f"error: series stopped at {result.termination} with estimated tail "
            f"{_g(result.tail_estimate)} above tol {_g(explicit_tol)}",
            file=sys.stderr,
        )
        return 3
    return 0


# --- integrate ------------------------------------------------------------

# kernel -> quadrature routine; its parameters without defaults are its flags
_KERNELS = {
    "beta": qd.beta_integral,
    "digamma": qd.digamma_integral,
    "log-kernel": qd.log_kernel_moment,
}


def _run_integrate(options: Mapping) -> int:
    kernel = options["kernel"]
    func = _KERNELS[kernel]
    flags = [p.name for p in _required(func)]
    if any(options[flag] is None for flag in flags):  # one message names them all
        needed = " and ".join(f"--{flag}" for flag in flags)
        raise DomainError(f"integrate {kernel} requires {needed}")
    args = _collect(options, f"integrate {kernel}", dict.fromkeys(flags), ("u", "v"))
    _print_result(func(*args, **_given(options, "tol")), 14)
    return 0


# --- limit ----------------------------------------------------------------

# limit -> (routine, one print prefix per result); flags as for _KERNELS
_LIMITS = {
    "beta-pole": (lm.beta_pole_limit, ("",)),
    "gamma-derivative": (lm.gamma_derivative_at_1, ("",)),
    "gamma-pole": (lm.gamma_pole_limit, ("",)),
    "scaled-beta": (lm.scaled_beta_limits, ("via_log_gamma  ", "via_recurrence ")),
}


def _run_limit(options: Mapping) -> int:
    name = options["name"]
    func, prefixes = _LIMITS[name]
    flags = dict.fromkeys(p.name for p in _required(func))
    args = _collect(options, f"limit {name}", flags, ("u",))
    results = func(*args, **_given(options, "depth", "h0"))
    if not isinstance(results, tuple):
        results = (results,)
    for prefix, res in zip(prefixes, results):
        _print_result(res, 14, prefix)
    return 0


# --- verify ---------------------------------------------------------------


def _run_verify(options: Mapping) -> int:
    only = None
    if options.get("only"):
        tokens = [s.strip() for s in options["only"].split(",") if s.strip()]
        only = tokens or None
    report = vf.run_suite(only=only)
    data = vf.render_report(report, options["format"])
    out = options.get("out")
    if out:
        with open(out, "wb") as handle:
            handle.write(data)
    else:
        sys.stdout.buffer.write(data)
        sys.stdout.buffer.flush()
    return 1 if report.counts["failed"] > 0 else 0


# --- parsing and dispatch -------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="betalab",
        description="Special-function laboratory: evaluate, sum, integrate, "
        "extrapolate, and verify classical beta/gamma identities.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_eval = sub.add_parser("eval", help="evaluate a reference special function")
    p_eval.add_argument("function", choices=_EVAL)
    p_eval.add_argument("--x", help="first argument")
    p_eval.add_argument("--x2", help="second argument (two-argument functions)")

    p_series = sub.add_parser(
        "series",
        help="sum a slowly convergent series",
        description="Sum a slowly convergent series.  beta, beta-limit, digamma, log2 and "
        "norlund, when infinite, are Levin-u extrapolated from their first few dozen "
        "terms; trigamma, trigamma-half and zeta2 are Levin-Sidi d2 extrapolated from "
        "at most 1,477 terms.  tail_estimate bounds the error of value; it is 0 on "
        "exact termination and before a first estimate exists.  "
        f"termination is one of {', '.join(sr.TERMINATIONS)}.",
    )
    p_series.add_argument("name", choices=sorted(sr.SERIES))
    p_series.add_argument("--u", type=float, help="series parameter u")
    p_series.add_argument("--v", type=float, help="series parameter v")
    p_series.add_argument("--a", type=float, help="difference-series parameter a")
    p_series.add_argument("--xarg", type=float, help="difference-series parameter x")
    p_series.add_argument(
        "--convention",
        choices=sr.CONVENTIONS,
        help="inner-sum lower index (default: corrected)",
    )
    p_series.add_argument(
        "--max-terms", type=int, help=f"term cap (default {sr.SeriesControl.max_terms})"
    )
    p_series.add_argument(
        "--tol",
        type=float,
        help=f"stop when estimated tail <= tol (default {sr.SeriesControl.tol:g}); "
        "if given, a run that stops above it exits 3",
    )
    p_series.add_argument(
        "--every", type=int, default=0, help="print a table row every N terms"
    )
    p_series.add_argument(
        "--no-tail-correction",
        action="store_true",
        help="sum to --max-terms and report the raw partial sum as the value, "
        "with tail_estimate bounding its distance to the extrapolated limit",
    )

    p_int = sub.add_parser("integrate", help="tanh-sinh integration of a kernel")
    p_int.add_argument("kernel", choices=sorted(_KERNELS))
    p_int.add_argument("--u", type=float, help="kernel parameter u")
    p_int.add_argument("--v", type=float, help="kernel parameter v (beta only)")
    p_int.add_argument(
        "--tol", type=float, help=f"refinement tolerance (default {qd.DEFAULT_TOL:g})"
    )

    p_lim = sub.add_parser("limit", help="Richardson-extrapolated v->0 limits")
    p_lim.add_argument("name", choices=sorted(_LIMITS))
    p_lim.add_argument("--u", type=float, help="first beta argument")
    p_lim.add_argument("--h0", type=float, help="largest sample point (default per op)")
    p_lim.add_argument(
        "--depth", type=int, help=f"extrapolation table depth (default {lm.DEFAULT_DEPTH})"
    )

    p_ver = sub.add_parser("verify", help="run the identity suite and report")
    p_ver.add_argument("--only", help="comma-separated identity ids (default: all)")
    p_ver.add_argument(
        "--format", choices=("table", "json", "csv"), default="table"
    )
    p_ver.add_argument("--out", help="write the report to this path instead of stdout")
    return parser


_HANDLERS = {
    "eval": _run_eval,
    "series": _run_series,
    "integrate": _run_integrate,
    "limit": _run_limit,
    "verify": _run_verify,
}


def parse(argv: Sequence[str]) -> CommandInvocation:
    """Parse arguments into a CommandInvocation.

    Usage problems follow argparse convention and raise ``SystemExit(2)``
    (with help text on stderr); :func:`main` converts that to an exit code.
    """
    namespace = _build_parser().parse_args(list(argv))
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
