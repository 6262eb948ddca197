"""The d2 path of the series engine: the trigamma family's honest residuals.

References come from mpmath at 30 digits; mpmath appears only in the tests.
"""

from __future__ import annotations

import math

import mpmath
import pytest

import betalab as bl
from betalab import series as sr
import drive

ORDER_CAP = 9  # the highest d2 order, solved on 2 * 9 + 1 samples
ORDER_CAP_TERMS = 1477  # the 19th geometric sample, where order 9 is solved


def _geometric(lo: float, hi: float, n: int) -> list[float]:
    return [lo * (hi / lo) ** (i / (n - 1)) for i in range(n)]


def _reference(name: str, params: dict):
    if name == "trigamma":
        return mpmath.psi(1, params["u"])
    half = mpmath.pi**2 / 2
    if params["convention"] == bl.LITERAL:
        half -= 4 * mpmath.log(2)
    return half if name == "trigamma-half" else half / 3


GRID = [("trigamma", {"u": u}) for u in _geometric(0.02, 0.99, 16) + [0.25, 0.5, 0.75]] + [
    (name, {"convention": c}) for name in ("trigamma-half", "zeta2") for c in bl.CONVENTIONS
]


def _error(name: str, params: dict, value: float) -> float:
    return float(abs(mpmath.mpf(value) - _reference(name, params)))


@pytest.mark.parametrize("name, params", GRID)
@mpmath.workdps(30)
def test_residual_bounds_the_real_error(name, params):
    res, _ = bl.trace(name, params)
    assert _error(name, params, res.value) <= res.tail_estimate
    assert res.termination in (bl.TOLERANCE_MET, bl.PRECISION_LIMIT)
    if res.termination == bl.TOLERANCE_MET:
        assert res.tail_estimate <= bl.SeriesControl().tol
    assert res.terms_used <= ORDER_CAP_TERMS
    # EQ9's seeded grids draw u from [0.25, 0.75]; EQ10 and EQ11 are single points.
    if name != "trigamma" or 0.25 <= params["u"] <= 0.75:
        assert res.tail_estimate <= 1e-6


# psi'(u) ~ 1/u**2 puts the rounding floor of the absolute tol above 1e-10 from
# u ~ 0.01 down: such runs go on to the last sample.
@pytest.mark.parametrize("u", [0.001, 0.002, 0.005, 0.01])
@mpmath.workdps(30)
def test_small_u_ends_in_precision_limit(u):
    res = bl.trigamma_series(u)
    assert (res.termination, res.terms_used) == (bl.PRECISION_LIMIT, ORDER_CAP_TERMS)
    assert _error("trigamma", {"u": u}, res.value) <= res.tail_estimate


@mpmath.workdps(30)
def test_tolerance_met_means_the_residual_is_within_tol():
    for tol in (1e-3, 1e-4, 1e-6):
        res = bl.trigamma_series(0.75, bl.SeriesControl(tol=tol))
        assert res.termination == bl.TOLERANCE_MET
        assert res.terms_used < ORDER_CAP_TERMS
        assert _error("trigamma", {"u": 0.75}, res.value) <= res.tail_estimate <= tol


def test_precision_limit_reports_the_best_transform():
    res, rows = bl.trace("trigamma", {"u": 0.005}, every=1)
    assert res.termination == bl.PRECISION_LIMIT
    assert len(rows) == res.terms_used == ORDER_CAP_TERMS
    assert res.tail_estimate == min(row.tail_estimate for row in rows if row.tail_estimate > 0.0)
    assert res.raw_partial_sum == rows[-1].partial_sum


@mpmath.workdps(30)
def test_max_terms_still_caps_the_d2_path():
    res = bl.trigamma_series(0.5, bl.SeriesControl(max_terms=100))
    assert (res.termination, res.terms_used) == (bl.MAX_TERMS, 100)
    assert _error("trigamma", {"u": 0.5}, res.value) <= res.tail_estimate
    short = bl.trigamma_series(0.5, bl.SeriesControl(max_terms=10))  # no residual before order 3
    assert (short.value, short.tail_estimate) == (short.raw_partial_sum, 0.0)


def test_a_zero_first_term_does_not_end_the_sum():
    res, rows = bl.trace("trigamma-half", {"convention": bl.LITERAL}, every=1)
    assert rows[0].term == 0.0
    assert (res.termination, res.terms_used) == (bl.PRECISION_LIMIT, ORDER_CAP_TERMS)


CHECKED = (2, 11, 129, 985, ORDER_CAP_TERMS)


@pytest.mark.parametrize(
    "kernel, exact",
    [
        (sr._trigamma_kernel(0.3), lambda n: mpmath.rf(0.7, n) / (n * mpmath.factorial(n))
         * (mpmath.digamma(n + 0.7) - mpmath.digamma(0.7))),
        (sr.SERIES["trigamma-half"](bl.LITERAL).kernel, lambda n: 2 * mpmath.binomial(2 * n, n)
         / (n * mpmath.mpf(4) ** n) * sum(mpmath.mpf(1) / (2 * k + 1) for k in range(1, n))),
    ],
    ids=["trigamma", "trigamma-half-literal"],
)
@mpmath.workdps(30)
def test_differences_come_from_the_recurrence(kernel, exact):
    # a_{n+1} - a_n as accurate, relative to itself, as a_n is: subtracting
    # two rounded terms would add a few ulps of a_n, about n times more.
    for n, (*_, term, diff) in zip(CHECKED, drive.states(kernel, CHECKED)):
        term_error = float(abs(term - exact(n)) / abs(exact(n)))
        want = exact(n + 1) - exact(n)
        assert float(abs(diff - want) / abs(want)) <= 2.0 * term_error + 1e-15, n


def test_d2_samples_follow_the_geometric_rule():
    want = [1]
    while len(want) < 2 * ORDER_CAP + 1:
        want.append(max(want[-1] + 1, int(1.5 ** len(want))))
    assert sr._D2_SAMPLES == tuple(want)
    assert sr._D2_SAMPLES[-1] == ORDER_CAP_TERMS


@pytest.mark.parametrize(
    "kernel",
    [sr._trigamma_kernel(0.3), sr.SERIES["trigamma-half"](bl.CORRECTED).kernel],
    ids=["trigamma", "trigamma-half-corrected"],
)
def test_d2_requests_exactly_the_samples_where_a_difference_is_computed(kernel):
    # The kernel computes a_{n+1} - a_n at the checkpoints it is sent alone:
    # on an untraced run, the samples the accelerator requests.
    d2 = sr._DTransform(2)
    samples = drive.requested(kernel, d2)
    assert tuple(n for n, *_ in samples) == sr._D2_SAMPLES
    assert all(math.isfinite(term) and math.isfinite(diff) for _, _, term, diff in samples)
    assert len(d2.transforms) == ORDER_CAP
