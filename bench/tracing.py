"""Span tracing of betalab's layers, done entirely from outside the package.

``patched(tracer)`` replaces the public functions of ``betalab.core_special``,
``.series``, ``.quadrature`` and ``.limits``, plus ``run_identity`` and
``render_report`` of ``betalab.verify``, with wrappers that record a span per
call; it also rebinds the ``beta``/``gamma``/``lgamma`` names that ``limits``
imports from ``core_special``.  Everything is restored on exit.  This reaches
every call made by the workloads because they, and verify's evaluators, look
the functions up as module attributes at call time.

A span is ``(layer, name, parent, start_ns, end_ns, tag, outcome)``, where
``parent`` indexes the enclosing span of the same op (-1 at top level).
Spans stay in memory for the length of one op; ``Tracer.end_op`` folds them
into per-layer totals and keeps a capped sample of raw spans for writing out
when the run ends.
"""

from __future__ import annotations

import contextlib
import inspect
from collections import defaultdict
from time import perf_counter_ns

import betalab.core_special as cs
import betalab.limits as lm
import betalab.quadrature as qd
import betalab.series as sr
import betalab.verify as vf
from betalab.errors import NonConvergenceError
from workloads import FORMATS

CORE_FUNCTIONS = ("lgamma", "gamma", "beta", "digamma", "trigamma", "polygamma",
                  "hurwitz_zeta", "rising", "central_binom")
SERIES_FUNCTIONS = ("beta_series", "beta_limit_series", "digamma_series", "log2_series",
                    "norlund_diff", "trigamma_series", "trigamma_half_series", "zeta2_series")
SERIES_IDENTITIES = ("EQ5", "EQ6", "EQ7", "EQ8", "EQ9", "EQ10", "EQ11", "LOG2")
KEPT_SPANS = 20_000


def _public_functions(module) -> list:
    return [n for n in module.__all__ if inspect.isfunction(getattr(module, n))]


def _targets() -> list:
    """(layer, module, attribute names) for every patched attribute."""
    return [
        ("core_special", cs, _public_functions(cs)),
        ("series", sr, _public_functions(sr)),
        ("quadrature", qd, _public_functions(qd)),
        ("limits", lm, _public_functions(lm)),
        ("verify", vf, ["run_identity", "render_report"]),
    ]


def _tag(name: str, args: tuple, kwargs: dict):
    if name == "run_identity":
        return args[0].id
    if name == "render_report":
        return kwargs.get("format", args[1] if len(args) > 1 else "table")
    return None


class Tracer:
    """Records spans of one op at a time and folds them into ``totals``."""

    def __init__(self) -> None:
        self.spans: list = []
        self._stack: list = []
        self.op = 0
        self.kept: list = []
        self.totals: defaultdict = defaultdict(float)

    def wrap(self, layer: str, name: str, fn):
        spans = self.spans
        stack = self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            tag = _tag(name, args, kwargs)
            start = perf_counter_ns()
            outcome = None
            try:
                outcome = fn(*args, **kwargs)
                return outcome
            except BaseException as exc:
                outcome = exc
                raise
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans[index] = (layer, name, parent, start, end, tag, outcome)

        return traced

    def end_op(self) -> None:
        """Fold the current op's spans into ``totals`` and start the next op."""
        fold(self.spans, self.totals)
        room = KEPT_SPANS - len(self.kept)
        if room > 0:
            self.kept.extend(
                [self.op, layer, name, parent, start, end, tag]
                for layer, name, parent, start, end, tag, _ in self.spans[:room]
            )
        self.spans.clear()
        self.op += 1


@contextlib.contextmanager
def patched(tracer: Tracer):
    """Route every public betalab layer call through ``tracer`` while active."""
    saved = []
    try:
        for layer, module, names in _targets():
            for name in names:
                fn = getattr(module, name)
                saved.append((module, name, fn))
                setattr(module, name, tracer.wrap(layer, name, fn))
        for name in ("beta", "gamma", "lgamma"):
            saved.append((lm, name, getattr(lm, name)))
            setattr(lm, name, getattr(cs, name))
        yield tracer
    finally:
        for module, name, fn in reversed(saved):
            setattr(module, name, fn)


def self_times(spans: list) -> list:
    """Each span's duration minus the time its direct children cover."""
    child = [0] * len(spans)
    for layer, name, parent, start, end, tag, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - child[i] for i, (_, _, _, start, end, _, _) in enumerate(spans)]


def fold(spans: list, totals: defaultdict) -> None:
    """Add one op's spans to the running per-layer totals (all in ns / counts)."""
    own = self_times(spans)
    for i, (layer, name, parent, start, end, tag, outcome) in enumerate(spans):
        dur = end - start
        totals[f"{layer}.self_ns"] += own[i]
        entry = parent < 0 or spans[parent][0] != layer
        if layer == "core_special":
            if entry:
                totals["core_special.calls"] += 1
                totals[f"core_special.n.{name}"] += 1
                totals[f"core_special.ns.{name}"] += dur
        elif layer == "series":
            if isinstance(outcome, sr.SeriesResult):
                totals["series.calls"] += 1
                totals["series.terms"] += outcome.terms_used
                totals[f"series.terms.{name}"] += outcome.terms_used
                totals[f"series.termination.{outcome.termination}"] += 1
        elif layer == "quadrature":
            result = outcome
            if isinstance(outcome, NonConvergenceError):
                totals["quadrature.nonconv"] += 1
                result = outcome.result
            if isinstance(result, qd.QuadratureResult):
                totals["quadrature.calls"] += 1
                totals["quadrature.evals"] += result.evaluations
                totals["quadrature.levels"] += result.levels_used
        elif layer == "limits":
            if name == "richardson_limit" and isinstance(outcome, lm.LimitResult):
                totals["limits.samples"] += outcome.table_depth
        elif name == "run_identity":
            key = tag if tag in SERIES_IDENTITIES else "other"
            totals[f"verify.identity_ns.{key}"] += dur
            if isinstance(outcome, list):
                totals["verify.checks"] += len(outcome)
                totals["verify.failed"] += sum(1 for r in outcome if r.passed is False)
                totals["verify.skipped"] += sum(1 for r in outcome if r.skipped)
        elif name == "render_report":
            totals[f"verify.render_ns.{tag}"] += dur
            totals[f"verify.renders.{tag}"] += 1


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(totals: dict, ops: int) -> dict:
    """Per-layer metrics from folded totals; counts and times are per op.

    A layer the workload never reaches reads 0, which is the prediction
    for it on that workload.
    """
    t = totals
    m = {}
    for fn in CORE_FUNCTIONS:
        m[f"core_special.ns_per_call.{fn}"] = _ratio(t.get(f"core_special.ns.{fn}", 0),
                                                     t.get(f"core_special.n.{fn}", 0))
    m["core_special.calls"] = _ratio(t.get("core_special.calls", 0), ops)
    m["series.terms"] = _ratio(t.get("series.terms", 0), ops)
    for fn in SERIES_FUNCTIONS:
        m[f"series.terms.{fn}"] = _ratio(t.get(f"series.terms.{fn}", 0), ops)
    m["series.calls"] = _ratio(t.get("series.calls", 0), ops)
    m["series.self_s"] = _ratio(t.get("series.self_ns", 0), ops) / 1e9
    m["series.ns_per_term"] = _ratio(t.get("series.self_ns", 0), t.get("series.terms", 0))
    m["series.max_terms_frac"] = _ratio(t.get(f"series.termination.{sr.MAX_TERMS}", 0),
                                        t.get("series.calls", 0))
    m["quadrature.evals"] = _ratio(t.get("quadrature.evals", 0), ops)
    m["quadrature.levels_mean"] = _ratio(t.get("quadrature.levels", 0), t.get("quadrature.calls", 0))
    m["quadrature.ns_per_eval"] = _ratio(t.get("quadrature.self_ns", 0), t.get("quadrature.evals", 0))
    m["quadrature.self_s"] = _ratio(t.get("quadrature.self_ns", 0), ops) / 1e9
    m["quadrature.nonconv_frac"] = _ratio(t.get("quadrature.nonconv", 0), t.get("quadrature.calls", 0))
    m["limits.samples"] = _ratio(t.get("limits.samples", 0), ops)
    m["limits.self_s"] = _ratio(t.get("limits.self_ns", 0), ops) / 1e9
    m["limits.ns_per_sample"] = _ratio(t.get("limits.self_ns", 0), t.get("limits.samples", 0))
    m["verify.self_s"] = _ratio(t.get("verify.self_ns", 0), ops) / 1e9
    for fmt in FORMATS:
        m[f"verify.render_ms.{fmt}"] = _ratio(t.get(f"verify.render_ns.{fmt}", 0),
                                              t.get(f"verify.renders.{fmt}", 0)) / 1e6
    for key in SERIES_IDENTITIES + ("other",):
        m[f"verify.identity_s.{key}"] = _ratio(t.get(f"verify.identity_ns.{key}", 0), ops) / 1e9
    for key in ("checks", "failed", "skipped"):
        m[f"verify.{key}"] = _ratio(t.get(f"verify.{key}", 0), ops)
    return m
