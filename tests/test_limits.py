"""Richardson-extrapolated v -> 0 limits and their cross-checks."""

from __future__ import annotations

import math
from decimal import Decimal

import mpmath
import pytest

import betalab as bl
from betalab.errors import DomainError, EvaluationError, OverflowRangeError
from oracles import euler_gamma_oracle, harmonic_oracle


# --- generic extrapolator -------------------------------------------------


def test_richardson_on_smooth_function():
    res = bl.richardson_limit(lambda h: math.exp(h), h0=0.5)
    assert abs(res.value - 1.0) <= 1e-12
    assert res.table_depth == 10


def test_richardson_on_removable_singularity():
    res = bl.richardson_limit(lambda h: math.sin(h) / h, h0=0.25)
    assert abs(res.value - 1.0) <= 1e-12
    half = bl.richardson_limit(lambda h: 2.0 * math.sin(h / 2.0) ** 2 / (h * h), h0=0.25)
    assert abs(half.value - 0.5) <= 1e-12


def test_richardson_error_estimate_tracks_noisy_samples():
    # The cancellation-prone spelling of the same limit is only good to a
    # few 1e-10; the reported estimate must own up to that.
    res = bl.richardson_limit(lambda h: (1.0 - math.cos(h)) / (h * h), h0=0.25)
    actual = abs(res.value - 0.5)
    assert 1e-12 < actual < 1e-8
    assert res.error_estimate > actual / 10.0


def test_richardson_exact_for_polynomials():
    # Neville on >deg samples reproduces a polynomial's constant term.
    res = bl.richardson_limit(lambda h: 3.0 + 2.0 * h + h**3, h0=1.0, depth=5)
    assert abs(res.value - 3.0) <= 1e-12


def test_richardson_error_estimate_brackets_truth():
    res = bl.richardson_limit(lambda h: math.exp(h), h0=0.5)
    assert abs(res.value - 1.0) <= max(res.error_estimate * 10.0, 1e-13)


def test_richardson_validation():
    with pytest.raises(DomainError):
        bl.richardson_limit(math.exp, h0=0.0)
    with pytest.raises(DomainError):
        bl.richardson_limit(math.exp, h0=-0.5)
    with pytest.raises(DomainError):
        bl.richardson_limit(math.exp, h0=math.inf)
    with pytest.raises(DomainError):
        bl.richardson_limit(math.exp, h0=0.5, depth=1)
    with pytest.raises(DomainError):
        bl.richardson_limit(math.exp, h0=0.5, depth=13)


def test_richardson_rejects_non_finite_samples():
    with pytest.raises(EvaluationError):
        bl.richardson_limit(lambda h: math.inf if h < 0.3 else 1.0, h0=0.5)
    with pytest.raises(EvaluationError):
        bl.richardson_limit(lambda h: math.nan, h0=0.5)


@pytest.mark.parametrize("value", ["x", None, 1j], ids=["str", "none", "complex"])
def test_richardson_rejects_non_real_samples(value):
    with pytest.raises(EvaluationError, match="real number"):
        bl.richardson_limit(lambda h: value, 0.5)


def test_richardson_rejects_a_decimal_sample_as_integrate01_does():
    f = lambda h: Decimal(1) + Decimal(h)
    with pytest.raises(EvaluationError, match="real number") as info:
        bl.richardson_limit(f, 0.5)
    assert isinstance(info.value.__cause__, TypeError)
    with pytest.raises(EvaluationError):
        bl.integrate01(f)


def test_richardson_keeps_the_functions_own_type_error_as_the_cause():
    with pytest.raises(EvaluationError) as info:
        bl.richardson_limit(lambda h, extra: h, 0.5)  # called with one argument
    assert isinstance(info.value.__cause__, TypeError) and "extra" in str(info.value.__cause__)


@pytest.mark.parametrize(
    "f", [lambda h: 10**400, lambda h: math.exp(1e4)], ids=["int-past-doubles", "own-overflow"]
)
def test_richardson_turns_a_builtin_overflow_into_overflow_range_error(f):
    with pytest.raises(OverflowRangeError, match="overflows") as info:
        bl.richardson_limit(f, 0.5, 4)
    assert type(info.value.__cause__) is OverflowError


def test_richardson_passes_the_functions_own_overflow_range_error_through():
    own = OverflowRangeError("the function's own")

    def f(h):
        raise own

    with pytest.raises(OverflowRangeError) as info:
        bl.richardson_limit(f, 0.5)
    assert info.value is own


def test_richardson_refuses_a_tableau_that_overflows_on_finite_samples():
    # The samples are finite, but the first Neville step doubles their gap past doubles.
    with pytest.raises(OverflowRangeError, match="tableau"):
        bl.richardson_limit(lambda h: 1.7e308 if h > 0.2 else -1.7e308, 0.5, 4)


def test_deepening_stays_within_error_estimate():
    for f in (lambda h: math.exp(h), lambda h: math.sin(h) / h):
        shallow = bl.richardson_limit(f, h0=0.5, depth=8)
        deep = bl.richardson_limit(f, h0=0.5, depth=10)
        assert abs(deep.value - shallow.value) <= shallow.error_estimate + 1e-15


@mpmath.workdps(30)
def test_beta_pole_error_estimate_bounds_the_real_error():
    # With the last diagonal difference alone, 92 of these 200 u were off by
    # more than their estimate (u = 0.1: 1.2e-12 against 2.0e-13).
    failures = []
    for i in range(200):
        u = 0.1 * 60.0 ** (i / 199)
        res = bl.beta_pole_limit(u)
        err = float(abs(res.value + mpmath.euler + mpmath.digamma(u)))
        if err > res.error_estimate:
            failures.append((u, res, err))
    assert not failures, failures[:5]


@mpmath.workdps(30)
def test_beta_pole_limit_default_depth_is_chosen_on_a_grid():
    # Depth 8 on 240 log-spaced u in [0.1, 50]: at most 1.9e-11 relative off, each estimate
    # a bound; at depth 10 the worst is 4.9e-11, at u near 50.
    worst = 0.0
    for i in range(240):
        u = 0.1 * 500.0 ** (i / 239)
        res = bl.beta_pole_limit(u)
        exact = -(mpmath.euler + mpmath.digamma(u))
        err = float(abs(res.value - exact))
        assert res.table_depth == 8 and err <= res.error_estimate, (u, res, err)
        worst = max(worst, err / float(abs(exact)))
    assert worst <= 2.5e-11


@pytest.mark.parametrize("route", [bl.gamma_pole_limit, bl.gamma_derivative_at_1])
@pytest.mark.parametrize("depth", range(2, 13))
@mpmath.workdps(30)
def test_eq2_error_estimates_bound_the_real_error(route, depth):
    res = route(depth=depth)
    assert float(abs(res.value + mpmath.euler)) <= res.error_estimate


# --- the gamma pole -------------------------------------------------------


def test_gamma_pole_limit_equals_minus_gamma():
    res = bl.gamma_pole_limit()
    assert abs(res.value + euler_gamma_oracle()) <= 1e-8
    assert abs(res.value + euler_gamma_oracle()) <= 1e-10  # measured 1.7e-12


def test_gamma_derivative_equals_minus_gamma():
    res = bl.gamma_derivative_at_1()
    assert abs(res.value + euler_gamma_oracle()) <= 1e-8


def test_pole_and_derivative_routes_agree():
    pole = bl.gamma_pole_limit()
    deriv = bl.gamma_derivative_at_1()
    assert abs(pole.value - deriv.value) <= 1e-10


# --- the beta pole --------------------------------------------------------


@pytest.mark.parametrize("u", [0.25, 0.5, 1.0, 2.0, 3.5])
def test_beta_pole_limit_closed_form(u):
    # lim_{v->0} [B(u,v) - 1/v] = -(gamma + digamma(u))
    res = bl.beta_pole_limit(u)
    expected = -(bl.euler_gamma() + bl.digamma(u))
    assert abs(res.value - expected) <= 1e-7
    assert abs(res.value - expected) <= 1e-9  # measured <= 1.8e-11


def test_beta_pole_limit_at_one_is_zero():
    # B(1,v) = 1/v identically, so the pole-adjusted limit vanishes.
    res = bl.beta_pole_limit(1.0)
    assert res.value == 0.0


@pytest.mark.parametrize("m", [2, 3, 5])
def test_beta_pole_limit_integer_values(m):
    # -(gamma + digamma(m)) = -H_{m-1}
    res = bl.beta_pole_limit(float(m))
    assert abs(res.value + harmonic_oracle(m - 1)) <= 1e-9


def test_beta_pole_limit_domain_cutoff():
    with pytest.raises(DomainError):
        bl.beta_pole_limit(0.05)


def test_scaled_beta_limits_domain_cutoff():
    with pytest.raises(DomainError):
        bl.scaled_beta_limits(0.05)


# --- scaled beta routes ---------------------------------------------------


@pytest.mark.parametrize("u", [0.25, 0.5, 1.0, 2.0, 3.5])
def test_scaled_beta_limits_reach_one(u):
    via_log, via_recur = bl.scaled_beta_limits(u)
    assert abs(via_log.value - 1.0) <= 1e-7
    assert abs(via_recur.value - 1.0) <= 1e-7
    assert abs(via_log.value - via_recur.value) <= 1e-10


def test_scaled_beta_limits_exact_at_one():
    via_log, via_recur = bl.scaled_beta_limits(1.0)
    assert via_log.value == 1.0
    assert via_recur.value == 1.0


# --- three-route agreement ------------------------------------------------


@pytest.mark.parametrize("u", [0.25, 0.5, 1.0, 2.0, 3.5])
def test_pole_three_route_agreement(u):
    limit_route = bl.beta_pole_limit(u).value
    quad_route = u * bl.log_kernel_moment(u).value + 1.0 / u
    series = bl.beta_limit_series(u, bl.SeriesControl(max_terms=100_000))
    assert abs(limit_route - quad_route) <= 1e-7
    assert abs(series.value - quad_route) <= series.tail_estimate + 1e-10
    assert abs(series.value - limit_route) <= series.tail_estimate + 1e-10


@pytest.mark.parametrize("u", [0.25, 0.5, 1.0, 2.0, 5.0])
def test_digamma_closure_through_quadrature(u):
    # -gamma - [u * log_kernel_moment(u) + 1/u] = digamma(u)
    value = -bl.euler_gamma() - (u * bl.log_kernel_moment(u).value + 1.0 / u)
    assert abs(value - bl.digamma(u)) <= 1e-8


def test_limit_ops_deepening_consistency():
    shallow = bl.gamma_pole_limit(depth=8)
    deep = bl.gamma_pole_limit(depth=10)
    assert abs(deep.value - shallow.value) <= shallow.error_estimate + 1e-15
    shallow_b = bl.beta_pole_limit(0.5, depth=8)
    deep_b = bl.beta_pole_limit(0.5, depth=10)
    assert abs(deep_b.value - shallow_b.value) <= shallow_b.error_estimate + 1e-15


def test_h0_override_still_converges():
    res = bl.gamma_pole_limit(h0=0.25)
    assert abs(res.value + euler_gamma_oracle()) <= 1e-8
    res_b = bl.beta_pole_limit(0.5, h0=0.125)
    expected = -(bl.euler_gamma() + bl.digamma(0.5))
    assert abs(res_b.value - expected) <= 1e-7
