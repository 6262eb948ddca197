"""The two fused series kernels against a per-term oracle, bit for bit.

The oracle below is the summation as one loop over ``(term, rest)`` pairs,
with the term generators written out one term at a time, as betalab summed
its series before each term source became a kernel.  It reads the summand
(base, div, reductions, m) and the kernel's own arguments from the term
source, so both sides sum the same reduced series.  beta-limit and digamma
keep their own generator, (1-u)_n / (n n!), which checks that they are the
ratio kernel at v = 0 bit for bit, and log2 is that generator at u = 1/2.
Norlund keeps its own, with the alternating sign, negated to match its
``div = -1``, which checks that it is the ratio kernel at
(u, v, q, start) = (x, 1, a, 0) bit for bit.  trigamma-half and zeta2 keep
theirs, an inner sum of odd reciprocals, which checks that they are the
trigamma kernel at u = 1/2 bit for bit; trigamma's generator runs at
shift + u, forming each n - (shift + u) as (n - shift) - u.  Every value,
bound, count, termination, trace row and error message must agree exactly.
"""

from __future__ import annotations

import itertools
import math

import pytest

import betalab as bl
from betalab import series as sr

# --- the oracle: per-term generators ----------------------------------------


def _shifted_ratio_terms(u, v):
    r = 1.0
    n = 0.0
    while True:
        n += 1.0
        r = r * (n - u) / n
        b = n + v
        q = r / b
        yield q, sr._div_rest(r, b, q)


def _limit_terms(u):
    r = 1.0
    n = 0.0
    while True:
        n += 1.0
        r = r * (n - u) / n
        q = r / n
        yield q, sr._div_rest(r, n, q)


def _norlund_terms(x, a):
    g = 1.0
    k = 0.0
    while True:
        k += 1.0
        g = g * (x - (k - 1.0)) / (a + (k - 1.0))
        q = g / k
        rest = sr._div_rest(g, k, q)
        yield (q, rest) if k % 2.0 == 1.0 else (-q, -rest)


def _negated(terms):
    """Norlund's pairs negated, as the ratio kernel makes them for ``div = -1``."""
    for term, rest in terms:
        yield -term, -rest


SAMPLED = frozenset(sr._D2_SAMPLES)


def _trigamma_terms(u, shift):
    r = 1.0
    d = 0.0
    n = 0.0
    while True:
        n += 1.0
        r *= ((n - shift) - u) / n
        d += 1.0 / ((n - shift) - u)
        x = shift + u
        diff = r * (n - d * (n * (1.0 + x) + 1.0)) / (n * (n + 1.0) ** 2) if n in SAMPLED else math.nan
        yield (r / n) * d, diff


def _trigamma_half_terms(include_k0):
    c = 1.0
    inner = 0.0 if include_k0 else -1.0
    n = 0.0
    while True:
        n += 1.0
        c *= (2.0 * n - 1.0) / (2.0 * n)
        inner += 1.0 / (2.0 * n - 1.0)
        diff = c * (n - inner * (3.0 * n + 2.0)) / (n * (n + 1.0) ** 2) if n in SAMPLED else math.nan
        yield (2.0 * c / n) * inner, diff


# --- the oracle: one loop over (term, rest) pairs ----------------------------


def _oracle_run(terms, base, div, reductions, m, ctrl, every):
    correct = ctrl.tail_correction
    tol = ctrl.tol if correct else -math.inf
    max_terms = ctrl.max_terms
    stop_n = max_terms
    fold = m != 2
    next_sample = 0
    if m:
        accel = sr._DTransform(m)
        next_sample = 1
    s = comp = abs_sum = 0.0
    n = 0
    best, best_residual, residual = math.nan, math.inf, 0.0
    termination = sr.MAX_TERMS
    rows = []
    for term, rest in terms:
        if term == 0.0 and fold:
            termination = sr.EXACT_TERMINATION
            best_residual = math.inf
            break
        if not math.isfinite(term):
            raise bl.OverflowRangeError(f"series term {n + 1} overflows double precision")
        n += 1
        t = s + term
        size = abs(term)
        abs_sum += size
        if abs(s) >= size:
            comp += (s - t) + term
        else:
            comp += (term - t) + s
        s = t
        if fold:
            comp += rest
        if n == next_sample:
            next_sample, estimate = accel.sample(n, s + comp, term, rest)
            if estimate is not None:
                transform, spread = estimate
                transform = base + transform / div
                residual = max(spread / abs(div), sr._floor(reductions, transform, abs_sum, base, div))
                if residual < best_residual:
                    best, best_residual = transform, residual
            if not next_sample and correct:
                stop_n = n
        if every and n % every == 0:
            partial = base + (s + comp) / div
            tail = residual if correct else sr._bound(partial, best, best_residual)
            rows.append(sr.TraceRow(n, term / div, partial, tail))
        if best_residual <= tol:
            termination = sr.TOLERANCE_MET
            break
        if n >= stop_n:
            if n < max_terms:
                termination = sr.PRECISION_LIMIT
            break
    raw = base + (s + comp) / div
    if correct and best_residual < math.inf:
        value, tail = best, best_residual
    else:
        value, tail = raw, sr._bound(raw, best, best_residual)
    if termination == sr.EXACT_TERMINATION or (not m and termination == sr.MAX_TERMS):
        left = 0.0
        if termination == sr.MAX_TERMS:
            for term, rest in terms:
                if term == 0.0 or not math.isfinite(left):
                    break
                left += abs(term) + abs(rest)
        tail = left / abs(div) + sr._floor(reductions, raw, abs_sum, base, div)
    if not (math.isfinite(value) and math.isfinite(tail)):
        raise bl.OverflowRangeError("series value or its error bound overflows double precision")
    return bl.SeriesResult(value, raw, tail, n, termination, reductions), tuple(rows)


def _oracle_terms(name, params, kernel):
    """The per-term generator of the series the kernel sums, at the kernel's
    own (reduced) arguments."""
    args = kernel.gi_frame.f_locals  # an unstarted generator holds just its arguments
    if name == "beta":
        return _shifted_ratio_terms(args["u"], args["v"])
    if name in ("beta-limit", "digamma"):
        return _limit_terms(args["u"])
    if name == "norlund":
        return _negated(_norlund_terms(args["u"], args["q"]))
    if name == "trigamma":
        return _trigamma_terms(args["u"], args["shift"])
    if name == "log2":
        return _limit_terms(0.5)
    return _trigamma_half_terms(params["convention"] == bl.CORRECTED)


def _oracle(name, params, ctrl, every):
    kernel, base, div, reductions, m = sr.SERIES[name](**params)
    return _oracle_run(_oracle_terms(name, params, kernel), base, div, reductions, m, ctrl, every)


# --- the cases ---------------------------------------------------------------

POINTS = [
    ("beta", {"u": 0.5, "v": 0.5}),
    ("beta", {"u": 0.05, "v": 0.7}),
    ("beta", {"u": 0.052, "v": 0.05}),
    ("beta", {"u": 3.0, "v": 0.5}),  # integer u: exact
    ("beta", {"u": 12.0, "v": 3.7}),  # integer u, v reduced
    ("beta", {"u": 20.0, "v": 0.7}),  # integer u above 12, reduced
    ("beta", {"u": 8.5, "v": 3.7}),  # u and v reduced
    ("beta", {"u": 1.0, "v": 50.0}),  # the empty sum
    ("beta-limit", {"u": 0.5}),
    ("beta-limit", {"u": 0.05}),
    ("beta-limit", {"u": 1.0}),
    ("beta-limit", {"u": 7.0}),
    ("beta-limit", {"u": 60.0}),  # integer u above 50, reduced
    ("beta-limit", {"u": 9.5}),
    ("digamma", {"u": 1.5}),
    ("digamma", {"u": 0.05}),
    ("digamma", {"u": 3.0}),  # reduced onto the empty sum at 1
    ("digamma", {"u": 7.25}),
    ("log2", {}),
    ("norlund", {"x": 0.5, "a": 0.5}),
    ("norlund", {"x": 0.05, "a": 0.05}),
    ("norlund", {"x": -0.3, "a": 0.5}),
    ("norlund", {"x": 3.0, "a": 0.5}),  # integer x: exact
    ("norlund", {"x": 10.0, "a": 0.051}),
    ("norlund", {"x": 25.0, "a": 2.0}),  # integer x, reduced
    ("norlund", {"x": 14.5, "a": 0.5}),
    ("norlund", {"x": 3.0, "a": 1e-308}),  # the first term overflows
    ("norlund", {"x": 10.0, "a": 1e-306}),  # a term left out by a cut overflows
    ("trigamma", {"u": 0.05}),
    ("trigamma", {"u": 0.25}),
    ("trigamma", {"u": 0.5}),
    ("trigamma", {"u": 0.99}),
    *[(name, {"convention": c}) for name in ("trigamma-half", "zeta2") for c in bl.CONVENTIONS],
]

CONTROLS = {
    "default": bl.SeriesControl(),
    # Past the last sample: the accelerator runs to its end while the sum goes on.
    "uncorrected": bl.SeriesControl(max_terms=3_000, tail_correction=False),
    "max-terms-30": bl.SeriesControl(max_terms=30),
    "max-terms-1": bl.SeriesControl(max_terms=1),
    "tol-1e-15": bl.SeriesControl(tol=1e-15),
}


def _bits(value):
    """Floats as hex, so that -0.0 and 0.0 differ."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, (tuple, list)):
        return [_bits(x) for x in value]
    return value


def _outcome(run):
    try:
        res, rows = run()
    except bl.BetalabError as exc:
        return type(exc).__name__, str(exc)
    return _bits(res._values()), _bits(rows)


def _ids(point):
    name, params = point
    return name + "".join(f"-{v}" for v in params.values())


@pytest.mark.parametrize("every", [0, 1, 13])
@pytest.mark.parametrize("ctrl", CONTROLS.values(), ids=list(CONTROLS))
@pytest.mark.parametrize("name, params", POINTS, ids=[_ids(p) for p in POINTS])
def test_kernels_match_the_per_term_loop_bit_for_bit(name, params, ctrl, every):
    want = _outcome(lambda: _oracle(name, params, ctrl, every))
    assert _outcome(lambda: sr.trace(name, params, ctrl, every)) == want


@pytest.mark.parametrize("name, params", [("log2", {}), ("trigamma", {"u": 0.25})])
def test_uncorrected_runs_to_the_default_max_terms_bit_for_bit(name, params):
    ctrl = bl.SeriesControl(tail_correction=False)
    res = _outcome(lambda: sr.trace(name, params, ctrl))
    assert res == _outcome(lambda: _oracle(name, params, ctrl, 0))
    assert res[0][3] == ctrl.max_terms


def test_the_cases_reach_every_edge_path():
    seen = set()
    for (name, params), ctrl in itertools.product(POINTS, CONTROLS.values()):
        outcome = _outcome(lambda: _oracle(name, params, ctrl, 0))
        seen.add(outcome[1] if isinstance(outcome[0], str) else outcome[0][4])
    assert seen >= {*bl.TERMINATIONS, "series term 1 overflows double precision",
                    "series value or its error bound overflows double precision"}


# --- one verify pass starts each trigamma kernel once ---------------------------


def test_a_builtin_pass_starts_the_trigamma_kernel_five_times(monkeypatch):
    starts = []
    kernel = sr._trigamma_kernel

    def counted(u, d=0.0, shift=0.0):
        starts.append((u, d, shift))
        return kernel(u, d, shift)

    monkeypatch.setattr(sr, "_trigamma_kernel", counted)
    bl.run_suite()
    # EQ9 runs at 5 + u, one kernel per u; EQ11 reads EQ10's run, one per convention.
    assert sorted(starts) == [
        (0.25, 0.0, 5.0), (0.5, -2.0, 0.0), (0.5, 0.0, 0.0), (0.5, 0.0, 5.0), (0.75, 0.0, 5.0)
    ]
