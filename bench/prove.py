"""Run the benchmark over several seeds and report how steady each metric is.

Usage, from the repository root::

    python3 bench/prove.py --workloads suite,cli --seeds 5
    python3 bench/prove.py --seeds 10 --trace --record bench/results.json

For each workload it runs ``bench/run.py`` once per seed (one after the
other, never in parallel), and for every end-to-end metric prints the median,
the quartiles (``statistics.quantiles(values, n=4)``) and the spread, i.e.
the distance between the quartiles as a share of the median, next to the
metric's bound from ``BENCHMARK.json``.  ``--trace`` adds one traced run per
workload for its per-layer figures and tracing overhead.  ``--record`` writes
everything, with the machine it ran on, as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    result["log"] = lines[:-1]
    return result


def spread(values: list) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0}


def main(argv=None) -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workloads", default=",".join(w["name"] for w in config["workloads"]))
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=config["run_seconds"])
    p.add_argument("--trace", action="store_true")
    p.add_argument("--record")
    args = p.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    record = {
        "machine": {"nproc": os.cpu_count(), "cpu": _cpu_model(),
                    "python": platform.python_version()},
        "run_seconds": args.seconds,
        "workloads": {},
    }
    seeds = list(range(args.first_seed, args.first_seed + args.seeds))
    for workload in args.workloads.split(","):
        runs = [run_once(workload, seed, args.seconds, 0) for seed in seeds]
        entry = {"seeds": seeds, "attempted": [r["attempted"] for r in runs],
                 "failed": [r["failed"] for r in runs], "metrics": {},
                 "log": runs[0]["log"]}
        print(f"{workload}: seeds {seeds[0]}..{seeds[-1]}, attempted {entry['attempted']}, "
              f"failed {entry['failed']}")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            s = spread(values)
            entry["metrics"][name] = dict(s, values=values, bound=bound)
            flag = "ok" if s["spread"] < bound / 3 else ("within bound" if s["spread"] <= bound
                                                         else "TOO WIDE")
            if name == "setup_s":  # only its median is compared between sets of runs
                flag = "spread not gated"
            print(f"  {name:<18} median {s['median']:<12.6g} q1 {s['q1']:<12.6g} "
                  f"q3 {s['q3']:<12.6g} spread {s['spread']:.4f} / bound {bound}  {flag}")
        if args.trace:
            traced = run_once(workload, seeds[0], args.seconds, 1)
            entry["traced"] = {"seed": seeds[0],
                               "metrics": {k: v["value"] for k, v in traced["metrics"].items()}}
            print(f"  traced: overhead {traced['metrics']['trace.overhead_frac']['value']:.3f}")
        record["workloads"][workload] = entry
    if args.record:
        Path(args.record).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
