"""The measured process: one caller running one workload in a closed loop.

It reads a job as JSON on stdin, imports betalab, builds the workload's ops,
runs one untimed warm-up op per distinct function, and prints ``ready``; the
orchestrator's clock for ``setup_s`` stops there.  A ``setup_only`` job exits
at that point.  Otherwise it times ops for ``seconds``, always finishing at
least one pass over the input pool, and prints one JSON result line.

With ``trace`` set, the first half of the time runs untraced and the second
half traced, in whole pool passes, so that per-op layer figures are exact
and the traced-minus-untraced cost is the tracing overhead.  The traced
pass must reproduce the untraced results bit for bit.

This process never imports mpmath, so its peak RSS is betalab's.
"""

from __future__ import annotations

import contextlib
import json
import os
import resource
import subprocess
import sys
from array import array
from time import perf_counter_ns

import workloads as wl

LATENCY_CAP = 1 << 18  # latency samples kept; beyond it every other one is dropped


def _error(exc: BaseException) -> list:
    return ["error", f"{type(exc).__name__}: {exc}"]


class Suite:
    """One op is ``betalab verify`` in-process: ``run_suite`` and the three renders.

    A pass takes seconds, longer than this host stays at one speed, so the
    latency floor is taken step by step: ``clock`` times every outermost
    series call of each pass (the series layer does ~99% of the work), and
    ``floor_ns`` adds each step's fastest time over the run to the fastest
    time a pass spent outside them.
    """

    def __init__(self, inputs: dict, root: str) -> None:
        from betalab import verify

        self.vf = verify
        self.overrides = {k: {"grid": [tuple(p) for p in g]} for k, g in inputs["grids"].items()}
        self.steps: list = []  # per pass, the duration of each series call in call order

    def warm_up(self) -> None:
        # Builds the registry and the quadrature node tables; the series
        # engine has no lazy state, so the series identities are left out.
        vf = self.vf
        quick = [s.id for s in vf.builtin_registry() if s.tolerance_mode != vf.TAIL_AWARE]
        report = vf.run_suite(only=quick, overrides=self.overrides)
        for fmt in wl.FORMATS:
            vf.render_report(report, fmt)

    def calls(self) -> list:
        vf, overrides, steps = self.vf, self.overrides, self.steps

        def op():
            steps.append(array("q"))
            report = vf.run_suite(overrides=overrides)
            return tuple(vf.render_report(report, fmt) for fmt in wl.FORMATS)

        return [op]

    @contextlib.contextmanager
    def clock(self):
        from betalab import series
        from tracing import SERIES_FUNCTIONS

        steps = self.steps
        depth = [0]

        def wrap(fn):
            def timed(*args, **kwargs):
                depth[0] += 1
                t0 = perf_counter_ns()
                try:
                    return fn(*args, **kwargs)
                finally:
                    t1 = perf_counter_ns()
                    depth[0] -= 1
                    if not depth[0]:
                        steps[-1].append(t1 - t0)

            return timed

        saved = {name: getattr(series, name) for name in SERIES_FUNCTIONS}
        steps.clear()
        try:
            for name, fn in saved.items():
                setattr(series, name, wrap(fn))
            yield
        finally:
            for name, fn in saved.items():
                setattr(series, name, fn)

    def floor_ns(self, run: dict) -> int:
        latencies = run["latencies"]
        passes = self.steps[:len(latencies)]
        if len(passes) != len(latencies) or len({len(p) for p in passes}) != 1:
            raise RuntimeError("suite passes made different series calls")
        rest = min(lat - sum(p) for lat, p in zip(latencies, passes))
        return sum(min(col) for col in zip(*passes)) + rest

    @staticmethod
    def encode(result) -> object:
        return result[0].decode("utf-8")


class Scalar:
    def __init__(self, inputs: dict, root: str) -> None:
        from betalab import core_special

        self.cs = core_special
        self.pool = [(name, tuple(args)) for name, args in inputs["pool"]]

    def warm_up(self) -> None:
        seen = set()
        for name, args in self.pool:
            if name not in seen:
                seen.add(name)
                getattr(self.cs, name)(*args)

    def calls(self) -> list:
        # Bound here, after any patching, so traced runs reach the wrappers.
        return [_bind(getattr(self.cs, name), args) for name, args in self.pool]

    @staticmethod
    def encode(result) -> object:
        return result


def _bind(fn, args):
    return lambda: fn(*args)


class Kernels:
    def __init__(self, inputs: dict, root: str) -> None:
        from betalab import limits, quadrature

        self.qd, self.lm = quadrature, limits
        self.pool = inputs["pool"]

    def _call(self, name: str, p: dict):
        qd, lm = self.qd, self.lm
        if name == "beta_integral":
            return lambda: qd.beta_integral(p["u"], p["v"], p["tol"])
        if name == "log_kernel_moment":
            return lambda: qd.log_kernel_moment(p["u"], p["tol"])
        if name == "digamma_integral":
            return lambda: qd.digamma_integral(p["u"], p["tol"])
        if name == "integrate01":
            f = wl.power_exp(p["u"])
            return lambda: qd.integrate01(f, p["tol"])
        if name == "beta_pole_limit":
            return lambda: lm.beta_pole_limit(p["u"])
        if name == "scaled_beta_limits":
            return lambda: lm.scaled_beta_limits(p["u"])
        if name == "gamma_pole_limit":
            return lambda: lm.gamma_pole_limit()
        return lambda: lm.gamma_derivative_at_1()

    def warm_up(self) -> None:
        seen = set()
        for name, p in self.pool:
            if name not in seen:
                seen.add(name)
                self._call(name, p)()

    def calls(self) -> list:
        return [self._call(name, p) for name, p in self.pool]

    @staticmethod
    def encode(result) -> object:
        results = result if isinstance(result, tuple) else (result,)
        return [[r.value, r.error_estimate] for r in results]


class Cli:
    """Each op is a fresh ``python -m betalab.cli`` process; traced, a probe
    process that runs the same command and also reports its own timings."""

    def __init__(self, inputs: dict, root: str) -> None:
        self.root = root
        self.pool = [entry["argv"] for entry in inputs["pool"]]
        self.probe = False
        self.timings: list = []

    def _run(self, argv: list):
        if self.probe:
            cmd = [sys.executable, "-X", "importtime",
                   os.path.join(self.root, "bench", "probe.py"), "cli", *argv]
        else:
            cmd = [sys.executable, "-m", "betalab.cli", *argv]
        proc = subprocess.run(cmd, cwd=self.root, capture_output=True, text=True)
        if self.probe and proc.returncode == 0:
            self.timings.append(proc.stderr)
        return proc.returncode, proc.stdout

    def warm_up(self) -> None:
        seen = set()
        for argv in self.pool:
            if argv[0] not in seen:
                seen.add(argv[0])
                self._run(argv)

    def calls(self) -> list:
        return [_bind(self._run, (argv,)) for argv in self.pool]

    @staticmethod
    def encode(result) -> object:
        return list(result)


RUNNERS = {"suite": Suite, "scalar": Scalar, "kernels": Kernels, "cli": Cli}

_MISSING = object()


def timed_loop(calls: list, seconds: float, whole_passes: bool, tracer=None) -> dict:
    """Run ``calls`` round-robin for ``seconds``, at least one full pass.

    Returns the first-pass result of every call, the number of later results
    that differ from it, the op count, the wall time, a latency sample and
    each call's fastest time.
    """
    n = len(calls)
    first = [_MISSING] * n
    best = [1 << 62] * n
    mismatches = 0
    latencies = array("q")
    mask = 0
    ops = 0
    start = perf_counter_ns()
    deadline = start + int(seconds * 1e9)
    i = 0
    while True:
        call = calls[i]
        t0 = perf_counter_ns()
        try:
            result = call()
        except Exception as exc:  # a failed op is counted, never fatal
            result = _error(exc)
        t1 = perf_counter_ns()
        if t1 - t0 < best[i]:
            best[i] = t1 - t0
        if tracer is not None:
            tracer.end_op()
        if ops < n:
            first[i] = result
        elif result != first[i]:
            mismatches += 1
        if not ops & mask:
            latencies.append(t1 - t0)
            if len(latencies) >= LATENCY_CAP:
                latencies = latencies[::2]
                mask = mask * 2 + 1
        ops += 1
        i += 1
        if i == n:
            i = 0
        if t1 >= deadline and ops >= n and (i == 0 or not whole_passes):
            break
    wall = perf_counter_ns() - start
    return {"first": first, "mismatches": mismatches, "ops": ops, "wall_ns": wall,
            "latencies": latencies, "best": best}


def floor_ns(run: dict) -> float:
    """The latency floor of an op: each pool entry's fastest time, averaged."""
    return sum(run["best"]) / len(run["best"])


def _encode_first(runner, first: list) -> list:
    return [r if isinstance(r, list) and r[:1] == ["error"] else runner.encode(r) for r in first]


def main() -> int:
    job = json.load(sys.stdin)
    workload = job["workload"]
    runner = RUNNERS[workload](job["inputs"], job["root"])
    runner.warm_up()
    print("ready", flush=True)
    if job["setup_only"]:
        return 0
    seconds = job["seconds"]
    out = {}
    # Peak RSS is read right after the untraced timed ops, before any result
    # is post-processed or traced.
    usage = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    clock = getattr(runner, "clock", contextlib.nullcontext)
    with clock():
        if not job["trace"]:
            run = timed_loop(runner.calls(), seconds, whole_passes=False)
        else:
            run = timed_loop(runner.calls(), seconds / 2, whole_passes=True)
    peak_kb = resource.getrusage(usage).ru_maxrss
    floor_ms = getattr(runner, "floor_ns", floor_ns)(run) / 1e6
    if job["trace"]:
        import tracing

        tracer = tracing.Tracer()
        if workload == "cli":
            runner.probe = True
            traced = timed_loop(runner.calls(), seconds / 2, whole_passes=True)
            out["probe_stderr"] = runner.timings
        else:
            with tracing.patched(tracer):
                traced = timed_loop(runner.calls(), seconds / 2, whole_passes=True, tracer=tracer)
        out["traced"] = {
            "ops": traced["ops"],
            "wall_ns": traced["wall_ns"],
            "mismatches": traced["mismatches"],
            "differs": sum(1 for a, b in zip(run["first"], traced["first"]) if a != b),
            "totals": dict(tracer.totals),
            "spans": tracer.kept,
        }
    pct = wl.TAIL_PERCENTILE[workload]
    out.update({
        "ops": run["ops"],
        "wall_ns": run["wall_ns"],
        "mismatches": run["mismatches"],
        "latency": dict(wl.latency_summary(list(run["latencies"]), pct), floor_ms=floor_ms),
        "first": _encode_first(runner, run["first"]),
        "peak_rss_kb": peak_kb,
    })
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
