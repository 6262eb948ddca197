"""Tests of the benchmark itself: ``python -m pytest bench -q`` from the root."""

from __future__ import annotations

import json
import math
import re
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import pytest  # noqa: E402

import probe  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads as wl  # noqa: E402
from betalab import core_special as cs  # noqa: E402
from betalab import limits as lm  # noqa: E402
from betalab import quadrature as qd  # noqa: E402
from betalab import series as sr  # noqa: E402
from betalab import verify as vf  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_same_seed_same_inputs(workload):
    a = json.dumps(wl.generate(workload, 7))
    assert a == json.dumps(wl.generate(workload, 7))
    assert a != json.dumps(wl.generate(workload, 8))


def test_suite_grids_keep_count_span_and_integer_share():
    grids = wl.suite_inputs(3)["grids"]
    for spec in vf.builtin_registry():
        if spec.id in wl.SUITE_DISCRETE:
            assert spec.id not in grids
            continue
        grid = grids[spec.id]
        assert len(grid) == len(spec.grid)
        for old, new in zip(zip(*spec.grid), zip(*grid)):
            assert (min(new), max(new)) == (min(old), max(old))
            assert sum(float(x).is_integer() for x in new) == sum(
                float(x).is_integer() for x in old)
            assert {type(x) for x in new} == {type(x) for x in old}


def _span(layer, name, parent, start, end, outcome=None, tag=None):
    return (layer, name, parent, start, end, tag, outcome)


def test_self_time_on_synthetic_tree():
    # op:  limits [0, 100]
    #        core   [10, 30]
    #        limits [40, 90]
    #          core [50, 60]
    #          core [70, 75]
    spans = [
        _span("limits", "beta_pole_limit", -1, 0, 100),
        _span("core_special", "lgamma", 0, 10, 30),
        _span("limits", "richardson_limit", 0, 40, 90, lm.LimitResult(0.0, 0.0, 2)),
        _span("core_special", "lgamma", 2, 50, 60),
        _span("core_special", "gamma", 2, 70, 75),
    ]
    assert tracing.self_times(spans) == [30, 20, 35, 10, 5]
    totals = defaultdict(float)
    tracing.fold(spans, totals)
    assert totals["limits.self_ns"] == 65
    assert totals["core_special.self_ns"] == 35
    assert totals["core_special.calls"] == 3
    assert totals["core_special.ns.lgamma"] == 30
    assert totals["limits.samples"] == 2
    m = tracing.layer_metrics(totals, 1)
    assert m["limits.ns_per_sample"] == 32.5
    assert m["core_special.ns_per_call.gamma"] == 5


def test_metric_names_are_well_formed_and_match_the_config():
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = [m["name"] for m in config["end_to_end"]]
    layers = [m["name"] for m in config["per_layer"]]
    assert e2e == [name for name, _ in run.E2E]
    assert layers == list(run.layer_units())
    assert [m["unit"] for m in config["per_layer"]] == list(run.layer_units().values())
    assert "setup_s" in e2e
    for name in e2e + layers + [w["name"] for w in config["workloads"]]:
        assert NAME.fullmatch(name), name
    assert len(set(e2e + layers)) == len(e2e + layers)


def _module_state():
    return {(m.__name__, n): getattr(m, n) for m in (cs, sr, qd, lm, vf) for n in dir(m)}


def test_patched_attributes_are_restored():
    before = _module_state()
    tracer = tracing.Tracer()
    with tracing.patched(tracer):
        assert cs.lgamma is not before[("betalab.core_special", "lgamma")]
        assert lm.lgamma is cs.lgamma
        vf.run_suite(only=["SYM", "EQ1"])
    assert _module_state() == before
    with pytest.raises(RuntimeError):
        with tracing.patched(tracer):
            raise RuntimeError("boom")
    assert _module_state() == before


def test_suite_floor_sums_each_steps_fastest_time():
    suite = worker.Suite({"grids": {}}, str(ROOT))
    before = _module_state()
    with suite.clock():
        suite.steps.append(worker.array("q"))
        vf.run_suite(only=["SYM", "EQ8"], overrides={"EQ8": {"grid": [(3.0, 1.5)]}})
    assert _module_state() == before
    assert len(suite.steps[0]) == 1  # EQ8's one series call; SYM makes none
    suite.steps[:] = [[5, 10], [7, 3]]
    assert suite.floor_ns({"latencies": [20, 15]}) == 5 + 3 + min(20 - 15, 15 - 10)
    assert worker.floor_ns({"best": [4, 8]}) == 6


def _run_calls(runner):
    return [call() for call in runner.calls()]


@pytest.mark.parametrize("workload", ["scalar", "kernels"])
def test_traced_results_equal_untraced_bit_for_bit(workload):
    inputs = wl.generate(workload, 5)
    inputs["pool"] = inputs["pool"][:60]
    runner = worker.RUNNERS[workload](inputs, str(ROOT))
    plain = _run_calls(runner)
    tracer = tracing.Tracer()
    with tracing.patched(tracer):
        traced = _run_calls(runner)
    assert [runner.encode(r) for r in traced] == [runner.encode(r) for r in plain]
    assert tracer.spans  # the wrappers were really in the path


def test_traced_suite_report_is_byte_identical():
    overrides = {"EQ5": {"grid": [(2.0, 0.5), (3.0, 2.5)]}, "EQ8": {"grid": [(3.0, 1.5)]}}
    only = ["SYM", "EQ1", "EQ5", "EQ8", "EQ10"]
    plain = vf.render_report(vf.run_suite(only=only, overrides=overrides), "json")
    tracer = tracing.Tracer()
    with tracing.patched(tracer):
        traced = vf.render_report(vf.run_suite(only=only, overrides=overrides), "json")
        tracer.end_op()
    assert traced == plain
    m = tracing.layer_metrics(tracer.totals, 1)
    assert m["verify.checks"] == 10 + 7 + 2 + 1 + 1
    assert m["series.calls"] == 2 + 1 + 2  # EQ5, EQ8, EQ10 and its literal twin
    assert m["series.terms.norlund_diff"] == 3  # the term at k = x + 1 is exactly 0


def test_timed_loop_finishes_a_pass_and_counts_mismatches():
    state = {"n": 0}

    def drifting():
        state["n"] += 1
        return state["n"] > 3

    def failing():
        raise ValueError("no")

    run_ = worker.timed_loop([lambda: 1.0, drifting, failing], 0.0, whole_passes=True)
    assert run_["ops"] == 3
    assert run_["first"][2] == ["error", "ValueError: no"]
    run_ = worker.timed_loop([lambda: 1.0, drifting], 0.01, whole_passes=True)
    assert run_["ops"] % 2 == 0 and run_["mismatches"] >= 1


def test_rel_err_sees_the_rounding_of_the_double():
    assert wl.rel_err(0.1, "0.1") == pytest.approx(5.551115123125783e-18, rel=1e-12)
    assert wl.rel_err(3.0, "2.0") == 0.5
    assert wl.rel_err(math.nan, "1") == math.inf


def test_scalar_check_flags_inaccurate_results():
    inputs = {"pool": [["lgamma", [2.5]], ["digamma", [1.0]]]}
    refs = ["0.2846828704729191596324784316225290183", "-0.5772156649015328606065120900824024310"]
    good = {"first": [cs.lgamma(2.5), cs.digamma(1.0)], "ops": 5, "mismatches": 0}
    assert run.check("scalar", inputs, good, refs)["failed"] == 0
    bad = dict(good, first=[cs.lgamma(2.5), cs.digamma(1.0) + 1e-9])
    result = run.check("scalar", inputs, bad, refs)
    # Counted once per distinct input, however many times the loop repeated it.
    assert (result["attempted"], result["failed"]) == (2, 1) and not result["correct"]
    assert run.check("scalar", inputs, dict(bad, ops=9), refs)["failed"] == 1


def test_cli_values_parse_back_to_the_double():
    assert wl.parse_cli_values("eval", "0.28468287047291918\n") == [0.28468287047291918]
    out = ("via_log_gamma  value          = 1\nvia_log_gamma  table_depth    = 10\n"
           "via_recurrence value          = 0.99999999999999989\n")
    assert wl.parse_cli_values("limit", out) == [1.0, 0.99999999999999989]


def test_import_time_is_charged_to_the_betalab_module_that_caused_it():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     betalab.errors",
        "import time:        50 |         50 |       _csv",
        "import time:       200 |        250 |     csv",
        "import time:       300 |        550 |   betalab.verify",
        "import time:        10 |        660 | betalab",
        '{"import_ms": 1.0}',
    ])
    assert probe.import_self_ms(text) == pytest.approx(
        {"betalab.errors": 0.1, "betalab.verify": 0.55, "betalab": 0.01})
