"""Seeded inputs, operations and correctness rules of the four workloads.

Everything here is shared by the orchestrator (``run.py``), which generates
inputs and checks outputs, and by the measured process (``worker.py``), which
only executes operations.  Nothing here imports mpmath: reference values are
computed by ``refs.py`` in a process of their own.

The workload seed is the only source of randomness.  ``generate`` returns
plain JSON-ready data, which is all the measured process ever receives.
"""

from __future__ import annotations

import math
import random
import re
import statistics
from decimal import Decimal, localcontext

WORKLOADS = ("suite", "scalar", "kernels", "cli")

WHY = {
    "suite": "The product: run_suite() plus the three report renders, as `betalab verify` does; "
    "the series layer does ~99% of the work.",
    "scalar": "One core_special call per op over each function's accurate range; core_special "
    "does all the work and series none.",
    "kernels": "One quadrature or Richardson-limit call per op; quadrature and limits do the work, "
    "series none.",
    "cli": "One `python -m betalab.cli` subprocess per op; interpreter start and `import betalab` "
    "dominate, which no in-process workload sees.",
}

# Percentile behind latency_tail_ms, fixed per workload.  scalar and kernels
# run ~10^5-10^6 ops, where p99.9 and above measure the host's interrupts
# rather than betalab, so they stop at p99; cli keeps ten or more of its
# ~450 ops beyond p95.  A suite op takes seconds, so no percentile in the
# upper half has ten samples beyond it in one run; there p90 is the second
# slowest of ~12 ops, steadier than the slowest, and the count is printed.
TAIL_PERCENTILE = {"suite": 90.0, "scalar": 99.0, "kernels": 99.0, "cli": 95.0}

FORMATS = ("json", "csv", "table")


def rng_for(workload: str, seed: int) -> random.Random:
    return random.Random(f"betalab-bench/{workload}/{seed}")


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _draw(rng: random.Random, kind: str, lo, hi, unit: float | None = None):
    """The value at ``unit`` (default: a fresh uniform draw) in [0, 1) of [lo, hi]:
    ``log`` is a log-uniform float, ``int`` a uniform integer and ``logint``
    a log-uniform integer."""
    u = rng.random() if unit is None else unit
    if kind == "int":
        return min(hi, lo + int(u * (hi - lo + 1)))
    x = math.exp(math.log(max(lo, 1) if kind == "logint" else lo) * (1 - u)
                 + math.log(hi) * u)
    return x if kind == "log" else min(hi, max(lo, int(round(x))))


def _column(rng: random.Random, n: int, lo, hi, kind: str) -> list:
    """``n`` values from ``_draw`` that include both ends, the rest one per
    equal stratum of [0, 1), shuffled.

    Pinning the ends keeps every run's worst-case corners in its inputs, and
    stratifying gives every seed the same spread of argument sizes, so the
    cost of a pass varies little between seeds.
    """
    values = [lo, hi][:n]
    m = n - len(values)
    values += [_draw(rng, kind, lo, hi, (k + rng.random()) / m) for k in range(m)]
    rng.shuffle(values)
    return values


# --- suite ----------------------------------------------------------------

# Identities whose grids are discrete labels or empty; they run unchanged.
SUITE_DISCRETE = ("EQ2", "LOG2", "EQ10", "EQ11")


def _suite_column(rng: random.Random, column: tuple) -> list:
    """A seeded column with the built-in column's size, span and integer share."""
    lo, hi = min(column), max(column)
    as_int = all(type(x) is int for x in column)
    n = len(column)
    ends = [lo, hi][:n]
    n_int = sum(1 for x in column if float(x).is_integer())
    n_int = min(max(n_int - sum(1 for x in ends if float(x).is_integer()), 0), n - len(ends))
    values = list(ends)
    for _ in range(n_int):
        values.append(rng.randint(math.ceil(lo), math.floor(hi)))
    # One non-integer draw per equal stratum of the span (in log space when
    # positive), so that every seed spreads its points alike and the work
    # per pass varies little between seeds.
    strata = n - len(values)
    a, b = (math.log(lo), math.log(hi)) if lo > 0 else (lo, hi)
    for k in range(strata):
        while True:
            y = rng.uniform(a + (b - a) * k / strata, a + (b - a) * (k + 1) / strata)
            x = math.exp(y) if lo > 0 else y
            if not x.is_integer():
                break
        values.append(x)
    rng.shuffle(values)
    return [int(x) if as_int else float(x) for x in values]


def suite_inputs(seed: int) -> dict:
    from betalab import verify

    rng = rng_for("suite", seed)
    grids = {}
    for spec in verify.builtin_registry():
        if spec.id in SUITE_DISCRETE:
            continue
        columns = [_suite_column(rng, col) for col in zip(*spec.grid)]
        grids[spec.id] = [list(point) for point in zip(*columns)]
    return {"grids": grids}


# Series route of each tail-aware identity and the mpmath reference of its value.
SUITE_SERIES_REFS = {
    "EQ5": "beta",
    "EQ6": "beta_pole",
    "EQ7": "digamma",
    "LOG2": "log2",
    "EQ8": "norlund",
    "EQ9": "trigamma",
    "EQ10": "trigamma_half",
    "EQ11": "zeta2",
}


def suite_points(inputs: dict) -> list:
    """(identity id, params) of every tail-aware check, in report order."""
    from betalab import verify

    points = []
    for spec in sorted(verify.builtin_registry(), key=lambda s: s.id):
        if spec.id in SUITE_SERIES_REFS:
            grid = inputs["grids"].get(spec.id, spec.grid)
            points.extend((spec.id, list(p)) for p in grid)
    return points


# --- scalar ---------------------------------------------------------------

# Each core_special function with its argument columns over the documented
# accurate range (docstrings of betalab.core_special): lgamma and digamma on
# [1e-3, 1e4]; gamma up to its overflow cap; hurwitz_zeta and the polygamma
# family on s in [1.5, 12], a in [0.1, 100]; central_binom on n <= 500.
SCALAR_ARGS = {
    "lgamma": (("log", 1e-3, 1e4),),
    "gamma": (("log", 1e-3, 170.0),),
    "beta": (("log", 1e-3, 1e3), ("log", 1e-3, 1e3)),
    "digamma": (("log", 1e-3, 1e4),),
    "trigamma": (("log", 0.1, 100.0),),
    "polygamma": (("int", 1, 11), ("log", 0.1, 100.0)),
    "hurwitz_zeta": (("log", 1.5, 12.0), ("log", 0.1, 100.0)),
    "rising": (("log", 1e-3, 1e3), ("int", 0, 40)),
    "central_binom": (("logint", 0, 500),),
}
SCALAR_PER_FUNCTION = 512


def scalar_inputs(seed: int) -> dict:
    rng = rng_for("scalar", seed)
    pool = []
    for name, columns in SCALAR_ARGS.items():
        cols = [_column(rng, SCALAR_PER_FUNCTION, lo, hi, kind) for kind, lo, hi in columns]
        pool.extend([name, list(args)] for args in zip(*cols))
    rng.shuffle(pool)
    return {"pool": pool}


_EPS = 2.0**-53


def scalar_allowed(name: str, args: list) -> float:
    """Largest ``err`` the function's documented accuracy allows at ``args``.

    ``err`` is ``|value - ref| / max(1, |ref|)``, so a documented absolute
    bound applies below 1 and a relative one above.  Where a function is
    documented only through lgamma (relative error below 1e-13), the bound
    is that error propagated through the exponent.
    """
    if name == "lgamma":
        return 1e-13
    if name in ("digamma", "trigamma", "hurwitz_zeta"):
        return 1e-12
    if name == "polygamma":
        return 1e-12 * math.factorial(args[0])
    if name == "gamma":
        return 1e-13 * max(1.0, abs(math.lgamma(args[0]))) + 4 * _EPS
    if name == "beta":
        u, v = args
        spread = abs(math.lgamma(u)) + abs(math.lgamma(v)) + abs(math.lgamma(u + v))
        return 1e-13 * spread + 4 * _EPS
    if name == "rising":
        return (2 * args[1] + 2) * _EPS
    if name == "central_binom":
        n = args[0]
        if n <= 30:
            return 0.0
        return 1e-13 * (math.lgamma(2 * n + 1) + 2 * math.lgamma(n + 1)) + 4 * _EPS
    raise KeyError(name)


# --- kernels --------------------------------------------------------------

KERNEL_TOLS = (1e-12, 1e-8)  # the quadrature default and a looser value
KERNEL_PER_FUNCTION = 32
_KERNEL_LO, _KERNEL_HI = 0.05, 50.0
_LIMIT_LO = 0.1  # limits accept u >= 0.1 only
LIMIT_TOL = 1e-7  # the tolerance the identity registry applies to limit routes

KERNEL_FUNCTIONS = (
    "beta_integral",
    "log_kernel_moment",
    "digamma_integral",
    "integrate01",
    "beta_pole_limit",
    "scaled_beta_limits",
    "gamma_pole_limit",
    "gamma_derivative_at_1",
)


def kernels_inputs(seed: int) -> dict:
    rng = rng_for("kernels", seed)
    n = KERNEL_PER_FUNCTION
    pool = []
    for name in KERNEL_FUNCTIONS:
        if name in ("gamma_pole_limit", "gamma_derivative_at_1"):
            pool.extend([name, {}] for _ in range(n))
            continue
        lo = _LIMIT_LO if name in ("beta_pole_limit", "scaled_beta_limits") else _KERNEL_LO
        us = _column(rng, n, lo, _KERNEL_HI, "log")
        if name in ("beta_pole_limit", "scaled_beta_limits"):
            pool.extend([name, {"u": u}] for u in us)
            continue
        tols = [KERNEL_TOLS[i % 2] for i in range(n)]
        rng.shuffle(tols)
        if name == "beta_integral":
            vs = _column(rng, n, _KERNEL_LO, _KERNEL_HI, "log")
            pool.extend([name, {"u": u, "v": v, "tol": t}] for u, v, t in zip(us, vs, tols))
        else:
            pool.extend([name, {"u": u, "tol": t}] for u, t in zip(us, tols))
    rng.shuffle(pool)
    return {"pool": pool}


def kernel_refs(name: str, p: dict) -> list:
    """Reference requests for one kernel op: one per value it returns."""
    if name == "beta_integral":
        return [["beta", [p["u"], p["v"]]]]
    if name == "log_kernel_moment":
        return [["log_moment", [p["u"]]]]
    if name == "digamma_integral":
        return [["digamma_integral", [p["u"]]]]
    if name == "integrate01":
        return [["lower_gamma_1", [p["u"]]]]
    if name == "beta_pole_limit":
        return [["beta_pole", [p["u"]]]]
    if name == "scaled_beta_limits":
        return [["one", []], ["one", []]]
    return [["neg_euler", []]]


def kernel_allowed(p: dict) -> float:
    """Documented accuracy: the refinement ``tol`` for quadrature, and for the
    limits the registry's tolerance on them (EQ1, EQ2)."""
    return p.get("tol", LIMIT_TOL)


def power_exp(a: float):
    """Integrand ``t^(a-1) e^-t`` handed to integrate01; its integral is
    the lower incomplete gamma function at 1."""

    def f(t: float) -> float:
        return t ** (a - 1.0) * math.exp(-t)

    return f


# --- cli ------------------------------------------------------------------

CLI_EVAL = ("lgamma", "gamma", "beta", "digamma", "trigamma", "polygamma", "hurwitz_zeta",
            "rising", "central_binom")
# Seeded command lines per eval function, kernel, limit and series.  One each
# keeps the pool at 20 entries, so a 50 s run repeats every entry about 25
# times and the fastest of them (latency_floor_ms) is a floor, not a draw.
CLI_PER_COMMAND = 1


def cli_inputs(seed: int) -> dict:
    """Seeded command lines: eval, integrate, limit and exactly-terminating series."""
    rng = rng_for("cli", seed)
    pool = []
    for name in CLI_EVAL:
        for _ in range(CLI_PER_COMMAND):
            args = [_draw(rng, kind, lo, hi) for kind, lo, hi in SCALAR_ARGS[name]]
            argv = ["eval", name]
            for flag, x in zip(("--x", "--x2"), args):
                argv += [flag, repr(x)]
            pool.append({"argv": argv, "call": ["eval", name, args]})
    for kernel in ("beta", "digamma", "log-kernel"):
        for _ in range(CLI_PER_COMMAND):
            u = _log_uniform(rng, _KERNEL_LO, _KERNEL_HI)
            tol = rng.choice(KERNEL_TOLS)
            argv = ["integrate", kernel, "--u", repr(u), "--tol", repr(tol)]
            p = {"u": u, "tol": tol}
            if kernel == "beta":
                p["v"] = _log_uniform(rng, _KERNEL_LO, _KERNEL_HI)
                argv += ["--v", repr(p["v"])]
            pool.append({"argv": argv, "call": ["integrate", kernel, p]})
    for name in ("beta-pole", "scaled-beta", "gamma-pole", "gamma-derivative"):
        for _ in range(CLI_PER_COMMAND):
            p = {}
            argv = ["limit", name]
            if name in ("beta-pole", "scaled-beta"):
                p["u"] = _log_uniform(rng, _LIMIT_LO, _KERNEL_HI)
                argv += ["--u", repr(p["u"])]
            pool.append({"argv": argv, "call": ["limit", name, p]})
    for name in ("beta", "beta-limit", "digamma", "norlund"):
        for _ in range(CLI_PER_COMMAND):
            k = rng.randint(1, 12)
            if name == "beta":
                p = {"u": float(k), "v": _log_uniform(rng, 0.1, 10.0)}
            elif name == "norlund":
                p = {"x": float(k), "a": _log_uniform(rng, 0.1, 10.0)}
            else:
                p = {"u": float(k)}
            flags = {"x": "--xarg"}
            argv = ["series", name] + [
                item for key, x in p.items() for item in (flags.get(key, "--" + key), repr(x))]
            pool.append({"argv": argv, "call": ["series", name, p]})
    rng.shuffle(pool)
    return {"pool": pool}


def cli_refs(call: list) -> list:
    kind, name, p = call
    if kind == "eval":
        return [[name, p]]
    if kind == "integrate":
        return kernel_refs({"beta": "beta_integral", "digamma": "digamma_integral",
                            "log-kernel": "log_kernel_moment"}[name], p)
    if kind == "limit":
        return kernel_refs({"beta-pole": "beta_pole_limit", "scaled-beta": "scaled_beta_limits",
                            "gamma-pole": "gamma_pole_limit",
                            "gamma-derivative": "gamma_derivative_at_1"}[name], p)
    ref = {"beta": ["beta", [p.get("u"), p.get("v")]], "beta-limit": ["beta_pole", [p.get("u")]],
           "digamma": ["digamma", [p.get("u")]], "norlund": ["norlund", [p.get("x"), p.get("a")]]}
    return [ref[name]]


def cli_expected(call: list) -> list:
    """The in-process doubles a cli command must print, computed directly."""
    from betalab import core_special as cs
    from betalab import limits as lm
    from betalab import quadrature as qd
    from betalab import series as sr

    kind, name, p = call
    if kind == "eval":
        return [getattr(cs, name)(*p)]
    if kind == "integrate":
        if name == "beta":
            return [qd.beta_integral(p["u"], p["v"], p["tol"]).value]
        if name == "digamma":
            return [qd.digamma_integral(p["u"], p["tol"]).value]
        return [qd.log_kernel_moment(p["u"], p["tol"]).value]
    if kind == "limit":
        if name == "beta-pole":
            return [lm.beta_pole_limit(p["u"]).value]
        if name == "scaled-beta":
            return [r.value for r in lm.scaled_beta_limits(p["u"])]
        if name == "gamma-pole":
            return [lm.gamma_pole_limit().value]
        return [lm.gamma_derivative_at_1().value]
    ctrl = sr.SeriesControl()
    if name == "beta":
        return [sr.beta_series(p["u"], p["v"], ctrl).value]
    if name == "beta-limit":
        return [sr.beta_limit_series(p["u"], ctrl).value]
    if name == "digamma":
        return [sr.digamma_series(p["u"], ctrl).value]
    return [sr.norlund_diff(p["x"], p["a"], ctrl).value]


_VALUE_LINE = re.compile(r"^(?:\S+\s+)?value\s*=\s*(\S+)\s*$")


def parse_cli_values(kind: str, stdout: str) -> list:
    """Numbers a cli command printed: the one line of ``eval``, else every
    ``value = ...`` line."""
    if kind == "eval":
        return [float(stdout.strip())]
    values = []
    for line in stdout.splitlines():
        m = _VALUE_LINE.match(line)
        if m:
            values.append(float(m.group(1)))
    return values


# --- shared ---------------------------------------------------------------


def generate(workload: str, seed: int) -> dict:
    return {"suite": suite_inputs, "scalar": scalar_inputs, "kernels": kernels_inputs,
            "cli": cli_inputs}[workload](seed)


def ref_requests(workload: str, inputs: dict) -> list:
    """Every reference value the workload's check needs, as [kind, args]."""
    if workload == "suite":
        return [[SUITE_SERIES_REFS[i], p] for i, p in suite_points(inputs)]
    if workload == "scalar":
        return [[name, args] for name, args in inputs["pool"]]
    if workload == "kernels":
        return [r for name, p in inputs["pool"] for r in kernel_refs(name, p)]
    return [r for entry in inputs["pool"] for r in cli_refs(entry["call"])]


def rel_err(value: float, ref: str) -> float:
    """``|value - ref| / max(1, |ref|)`` with ``ref`` a decimal string, exactly
    enough that the double's own rounding is never hidden."""
    if not math.isfinite(value):
        return math.inf
    with localcontext() as ctx:
        ctx.prec = 60
        r = Decimal(ref)
        return float(abs(Decimal(value) - r) / max(Decimal(1), abs(r)))


def percentile(sorted_values: list, pct: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    if not sorted_values:
        raise ValueError("no samples")
    rank = max(1, math.ceil(pct / 100.0 * len(sorted_values)))
    return sorted_values[min(rank, len(sorted_values)) - 1]


def latency_summary(samples_ns: list, percentile_: float) -> dict:
    s = sorted(samples_ns)
    return {
        "samples": len(s),
        "p50_ms": statistics.median(s) / 1e6,
        "tail_ms": percentile(s, percentile_) / 1e6,
        "beyond_tail": len(s) - max(1, math.ceil(percentile_ / 100.0 * len(s))),
    }
