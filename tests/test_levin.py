"""The d1 path of the series engine: honest residuals, small work, reductions.

References come from mpmath at 30 digits; mpmath appears only in the tests.
"""

from __future__ import annotations

import math

import mpmath
import pytest

import betalab as bl
from betalab import series as sr
from betalab.errors import DomainError
import drive

ACCELERATED = ("beta", "beta-limit", "digamma", "log2", "norlund")


def _geometric(lo: float, hi: float, n: int) -> list[float]:
    return [lo * (hi / lo) ** (i / (n - 1)) for i in range(n)]


def _reference(name: str, params: dict):
    if name == "beta":
        return mpmath.beta(params["u"], params["v"])
    if name == "beta-limit":  # sum (1-u)_n / (n n!) = -(psi(u) + gamma)
        return -(mpmath.digamma(params["u"]) + mpmath.euler)
    if name == "digamma":
        return mpmath.digamma(params["u"])
    if name == "log2":
        return mpmath.log(2)
    return mpmath.digamma(params["x"] + params["a"]) - mpmath.digamma(params["a"])


# A deterministic grid over the seeded suite's ranges: EQ5 u in [0.25, 5],
# v in [0.5, 2.5]; EQ6/EQ7 u in [0.25, 5]; EQ8 x in [0, 10], a in [0.5, 2.5];
# LOG2; and arguments just above (and, for Norlund's x, below) integers.
_U = _geometric(0.25, 5.0, 11)
_NEAR = [m + eps for m in range(1, 6) for eps in (1e-12, 1e-6, 1e-4, 0.046, 0.5)]
GRID = (
    [("beta", {"u": u, "v": v}) for u in _U + _NEAR for v in (0.5, 0.9, 1.4, 2.0, 2.5)]
    + [(name, {"u": u}) for name in ("beta-limit", "digamma") for u in _U + _NEAR]
    + [
        ("norlund", {"x": x, "a": a})
        for x in [0.0, 0.3, 1.7, 2.5, 4.1, 6.6, 8.2, 9.9, 10.0]
        + [m + eps for m in range(1, 10, 2) for eps in (-1e-6, 1e-6, 0.046)]
        for a in (0.5, 1.2, 2.5)
    ]
    + [("log2", {})]
)


@mpmath.workdps(30)
def test_residual_bounds_the_real_error_on_the_suite_ranges():
    failures = []
    extrapolated = 0
    for name, params in GRID:
        res, _ = bl.trace(name, params)
        err = float(abs(mpmath.mpf(res.value) - _reference(name, params)))
        if res.termination == bl.EXACT_TERMINATION:
            ok = err <= 1e-13 * max(1.0, abs(res.value))
        else:
            extrapolated += 1
            ok = (
                res.termination == bl.TOLERANCE_MET
                and err <= res.tail_estimate <= 1e-10
                and res.terms_used <= 291  # the 15th sample
            )
        if not ok:
            failures.append((name, params, res, err))
    assert extrapolated > 300
    assert not failures, failures[:5]


@pytest.mark.parametrize(
    "name, params",
    [
        ("norlund", {"x": 4.999999999999, "a": 2.5}),  # successive transforms all equal
        ("beta", {"u": 7504.201411157739, "v": 0.010541629583875122}),  # 7,499 reductions
    ],
)
@mpmath.workdps(30)
def test_residual_covers_the_rounding_the_transforms_cannot_see(name, params):
    res, _ = bl.trace(name, params)
    assert float(abs(mpmath.mpf(res.value) - _reference(name, params))) <= res.tail_estimate


@pytest.mark.parametrize("name", ACCELERATED + ("trigamma", "zeta2"))
def test_tail_correction_off_returns_the_plain_sum_of_max_terms(name):
    params = {
        "beta": {"u": 0.5, "v": 0.5},
        "norlund": {"x": 0.5, "a": 0.5},
        "log2": {},
        "zeta2": {"convention": bl.LITERAL},
    }.get(name, {"u": 0.5})
    ctrl = bl.SeriesControl(max_terms=1_000, tail_correction=False)
    res, rows = bl.trace(name, params, ctrl, every=1)
    assert (res.termination, res.terms_used, len(rows)) == (bl.MAX_TERMS, 1_000, 1_000)
    assert res.value == res.raw_partial_sum == rows[-1].partial_sum


@pytest.mark.parametrize(
    "name, params",
    [
        ("beta", {"u": 8.0, "v": 2.5}),
        ("beta", {"u": 50.0, "v": 0.5}),
        ("beta-limit", {"u": 7.0}),
        ("digamma", {"u": 6.0}),
        ("norlund", {"x": 9.0, "a": 0.5}),
    ],
)
def test_finite_series_are_summed_without_extrapolation(name, params):
    # The same bits as with tail correction off: no accelerator, no tail.
    res, rows = bl.trace(name, params, every=1)
    plain, plain_rows = bl.trace(name, params, bl.SeriesControl(tail_correction=False), every=1)
    assert res.termination == bl.EXACT_TERMINATION
    assert (res, rows) == (plain, plain_rows)


@mpmath.workdps(30)
def test_tolerance_met_means_the_residual_is_within_tol():
    expected = float(mpmath.digamma(3.7) - mpmath.digamma(1.0))
    for tol in (1e-4, 1e-7, 1e-10):
        res = bl.norlund_diff(2.7, 1.0, bl.SeriesControl(tol=tol))
        assert res.termination == bl.TOLERANCE_MET
        assert abs(res.value - expected) <= res.tail_estimate <= tol


def test_precision_limit_reports_the_best_transform():
    res, rows = bl.trace("log2", {}, bl.SeriesControl(tol=1e-15), every=1)
    assert res.termination == bl.PRECISION_LIMIT
    assert len(rows) == res.terms_used == sr._D2_SAMPLES[-1]  # done after the last sample
    assert res.tail_estimate == min(row.tail_estimate for row in rows if row.tail_estimate > 0.0)
    assert res.raw_partial_sum == rows[-1].partial_sum
    assert abs(res.value - math.log(2.0)) <= res.tail_estimate


SMALL_U = _geometric(0.02, 0.25, 12)


@pytest.mark.parametrize(
    "name, params",
    [("beta", {"u": u, "v": v}) for u in SMALL_U for v in (0.5, 1.0, 2.5)]
    + [(name, {"u": u}) for name in ("beta-limit", "digamma") for u in SMALL_U],
)
@mpmath.workdps(30)
def test_residual_bounds_the_real_error_near_u_zero(name, params):
    # The series get hard as u -> 0, and below u = 0.1 many runs end at
    # precision_limit; the residual still bounds the error (at most 3.4e-1 of it).
    res, _ = bl.trace(name, params)
    assert res.termination in (bl.TOLERANCE_MET, bl.PRECISION_LIMIT)
    err = float(abs(mpmath.mpf(res.value) - _reference(name, params)))
    assert err <= res.tail_estimate <= 1e-8


@pytest.mark.parametrize(
    "x, a",
    [
        (9.000590241046158, 0.0425239340208911),
        (9.999612000577951, 0.06844136119847974),
        (9.999184344220952, 0.08292015256763817),
    ],
)
@mpmath.workdps(30)
def test_residual_covers_the_rounding_of_terms_larger_than_the_value(x, a):
    # The first terms reach x / a ~ 200, several times the value: floored at
    # ulps of |value| alone, the residual was 1.3e-13 to 3.7e-13 below the error.
    res = bl.norlund_diff(x, a)
    err = float(abs(mpmath.mpf(res.value) - _reference("norlund", {"x": x, "a": a})))
    assert res.termination == bl.TOLERANCE_MET
    assert err <= res.tail_estimate


@mpmath.workdps(30)
def test_subnormal_terms_are_extrapolated():
    # Every term is below 1e-309: R a_R is scaled by the first term, so that
    # 1 / (R a_R) stays finite (unscaled, every order was skipped, 4% off).
    x = 1e-310
    res = bl.norlund_diff(x, 0.5)
    reference = mpmath.mpf(x) * mpmath.psi(1, 0.5)  # the x^2 term is below 1e-600
    assert res.termination == bl.TOLERANCE_MET
    assert float(abs(res.value - reference)) <= res.tail_estimate
    assert float(abs(res.value - reference) / reference) <= 1e-2


def test_d1_requests_exactly_the_shared_samples():
    d1 = sr._DTransform(1)
    samples = drive.requested(sr.SERIES["log2"]().kernel, d1)
    assert tuple(n for n, *_ in samples) == sr._D2_SAMPLES
    assert len(d1.transforms) == len(sr._D2_SAMPLES) - 1  # orders 1 to 18


@mpmath.workdps(40)
def _solve(samples) -> mpmath.mpf:
    """``d`` of order nu's nu + 1 equations S_R = d + R a_R sum_{i<nu} b_i R^-i, 40 digits."""
    nu = len(samples) - 1
    rows = [[1] + [mpmath.mpf(r) ** (1 - i) * a for i in range(nu)] for r, _, a in samples]
    rhs = [mpmath.mpf(s) for _, s, _ in samples]
    return mpmath.lu_solve(mpmath.matrix(rows), mpmath.matrix(rhs))[0]


@pytest.mark.parametrize(
    "name, params",
    [("log2", {}), ("beta", {"u": 0.5, "v": 0.5}), ("norlund", {"x": 0.5, "a": 0.5})],
)
def test_each_order_matches_a_40_digit_solve(name, params):
    states = drive.states(sr.SERIES[name](**params).kernel, sr._D2_SAMPLES)
    samples = [(r, s + comp, a) for r, (_, s, comp, _, a, _) in zip(sr._D2_SAMPLES, states)]
    d1 = sr._DTransform(1)
    estimates = [d1.sample(r, s, a, 0.0)[1] for r, s, a in samples]
    for nu in range(3, len(samples)):
        transform, residual = estimates[nu]
        assert float(abs(transform - _solve(samples[: nu + 1]))) <= residual / 4, nu


def test_max_terms_still_caps_the_levin_path():
    res = bl.log2_series(bl.SeriesControl(max_terms=6))
    assert (res.termination, res.terms_used) == (bl.MAX_TERMS, 6)
    assert abs(res.value - math.log(2.0)) <= res.tail_estimate
    short = bl.log2_series(bl.SeriesControl(max_terms=3))  # no residual before 4 terms
    assert (short.value, short.tail_estimate) == (short.raw_partial_sum, 0.0)


# --- argument reduction ------------------------------------------------------


@pytest.mark.parametrize(
    "u, v, reductions",
    [
        (60.5, 0.5, 55),  # was 17% off
        (200.5, 0.5, 195),  # was 4.8e40 with tolerance_met
        (1000.25, 1.5, 995),
        (60.0, 0.5, 54),  # integers above 6 step down to 6, then end exactly
        (200.0, 2.5, 195),  # and then v steps into (0, 2]
    ],
)
@mpmath.workdps(30)
def test_beta_series_reduces_large_u(u, v, reductions):
    res = bl.beta_series(u, v)
    reference = mpmath.beta(u, v)
    assert res.reductions == reductions
    assert float(abs(res.value - reference) / reference) <= 1e-12
    if res.termination != bl.EXACT_TERMINATION:
        assert float(abs(res.value - reference)) <= res.tail_estimate


@mpmath.workdps(40)
def test_beta_series_at_integer_u_is_accurate_and_bounded():
    # Integer u through 50 once kept its finite sum, whose terms round at n + v:
    # (50, 3.7) was 2.1e-2 relative off, its tail 67 times the value.
    failures = []
    for u in range(1, 51):
        for v in (0.01, 0.02, 0.05, 0.1, 0.25, 0.5, 0.7, 1.0, 2.0, 3.7, 7.5, 15.0, 40.0, 100.0):
            res = bl.beta_series(float(u), v)
            reference = mpmath.beta(u, v)
            err = abs(mpmath.mpf(res.value) - reference)
            if not (err <= res.tail_estimate and err <= 1e-12 * reference):
                failures.append((u, v, float(err / reference), res.tail_estimate))
    assert not failures, failures[:5]


@pytest.mark.parametrize(
    "u, v, reductions",
    [
        (7.5, 40.0, 40),  # u into (5, 6], then v into (0, 2]
        (0.3, 1000.7, 1004),  # u up into (5, 6], v down; unreduced, beta(0.5, 1e6) was
        # 1.8e-3 off with a 6e-10 residual
    ],
)
@mpmath.workdps(30)
def test_beta_series_reduces_large_v_of_an_infinite_series(u, v, reductions):
    res = bl.beta_series(u, v)
    reference = mpmath.beta(u, v)
    assert res.reductions == reductions
    assert float(abs(res.value - reference) / reference) <= 1e-7
    if res.termination != bl.EXACT_TERMINATION:
        assert float(abs(res.value - reference)) <= res.tail_estimate


@pytest.mark.parametrize(
    "u, v, reductions",
    [
        (8.0, 40.0, 2 + 38),  # v unreduced, 9.6e-10 relative off
        (8.0, 200.0, 2 + 198),  # v unreduced, 1.6e-4 relative off
        (50.0, 1000.0, 44 + 998),  # u to 6, then v; v unreduced, 100% off
        (1.0, 1000.5, 0),  # the empty sum B(1, v) = 1/v keeps its v
    ],
)
@mpmath.workdps(30)
def test_beta_series_reduces_large_v_of_a_finite_series(u, v, reductions):
    # The finite sum cancels against its base 1/v, whose rounding it cannot see.
    res = bl.beta_series(u, v)
    assert (res.termination, res.reductions) == (bl.EXACT_TERMINATION, reductions)
    reference = mpmath.beta(u, v)
    assert float(abs(res.value - reference) / reference) <= 1e-13


def test_beta_series_reduction_caps():
    with pytest.raises(DomainError, match="beta_series supports u <= 1000000"):
        bl.beta_series(1e6 + 0.5, 1.0)
    # A finite series reduces v too: unreduced, (3, 2e6) was 7.6e-5 relative
    # off and (8, 5e6) 100% off, both labelled exact.
    for u, v in ((0.5, 2e6), (3.0, 2e6), (8.0, 5e6)):
        with pytest.raises(DomainError, match="beta_series supports v <= 1000000"):
            bl.beta_series(u, v)
    assert bl.beta_series(1.0, 2e6).value == 1.0 / 2e6  # the empty sum keeps any v


@pytest.mark.parametrize(
    "name, params, reductions",
    [
        ("beta-limit", {"u": 6.0}, 0),  # inside the window: the plain finite sum
        ("beta-limit", {"u": 60.0}, 54),  # unreduced, 7e-3 relative off
        ("beta-limit", {"u": 80.0}, 74),  # unreduced, 18891.65 (true -4.95)
        ("beta-limit", {"u": 1000.0}, 994),
        ("beta-limit", {"u": 80.5}, 75),  # into (5, 6]; unreduced, 1e-6 relative off
        ("norlund", {"x": 6.0, "a": 0.5}, 0),  # inside the window: the plain finite sum
        ("norlund", {"x": 10.0, "a": 0.5}, 4),  # an integer above the window steps to 6
        ("norlund", {"x": 20.0, "a": 0.5}, 14),  # unreduced, 8e-13 relative off
        ("norlund", {"x": 80.0, "a": 0.5}, 74),  # unreduced, 2.5e6 (true 6.35)
        ("norlund", {"x": 1000.0, "a": 0.01}, 994),
        ("norlund", {"x": 80.5, "a": 2.5}, 75),  # into (5, 6]; unreduced, 2e-8 relative off
    ],
)
@mpmath.workdps(30)
def test_beta_limit_and_norlund_reduce_large_arguments(name, params, reductions):
    res, _ = bl.trace(name, params)
    reference = _reference(name, params)
    assert res.reductions == reductions
    assert float(abs(res.value - reference) / abs(reference)) <= 1e-12
    if res.termination != bl.EXACT_TERMINATION:
        assert float(abs(res.value - reference)) <= res.tail_estimate


@mpmath.workdps(30)
def test_norlund_far_above_its_window_meets_tol():
    # Charged 4 ulps of sum |a_n| per step, its steps held the floor above tol:
    # 1,477 terms to precision_limit.  Per step, 4 ulps of |value| + |base| suffice.
    res = bl.norlund_diff(500.3, 0.5)
    assert (res.termination, res.terms_used, res.reductions) == (bl.TOLERANCE_MET, 38, 495)
    reference = mpmath.digamma(mpmath.mpf(500.3) + 0.5) - mpmath.digamma(0.5)
    assert float(abs(res.value - reference)) <= res.tail_estimate <= 1e-10


def test_beta_limit_and_norlund_reduction_caps():
    with pytest.raises(DomainError, match="beta_limit_series supports u <= 1000000"):
        bl.beta_limit_series(1e6 + 0.5)
    with pytest.raises(DomainError, match="norlund_diff supports x <= 1000000"):
        bl.norlund_diff(2e6, 1.0)
