"""Tanh-sinh integration on (0,1): exact integrals, kernels, and contracts."""

from __future__ import annotations

import math

import pytest

import betalab as bl
from betalab.errors import DomainError, EvaluationError, NonConvergenceError
from oracles import harmonic_oracle, log2_oracle

BETA_GRID = [0.25, 0.5, 1.0, 2.5, 5.0]


# --- generic integrator ---------------------------------------------------


@pytest.mark.parametrize(
    "f,exact",
    [
        (lambda t: 1.0, 1.0),
        (lambda t: t, 0.5),
        (lambda t: t * t, 1.0 / 3.0),
        (lambda t: math.log1p(-t), -1.0),
        (lambda t: t**-0.5, 2.0),
    ],
)
def test_integrate01_known_values(f, exact):
    res = bl.integrate01(f)
    assert abs(res.value - exact) <= max(1e-13, res.error_estimate + 1e-13)


def test_integrate01_generic_beta_integrand():
    # B(3/4, 3/4) through the generic interface.  Forming 1 - t inside f
    # rounds away the distance to the right endpoint, which caps accuracy
    # near 1e-12 here; beta_integral avoids this and reaches 1e-15.
    res = bl.integrate01(lambda t: (t * (1.0 - t)) ** -0.25)
    assert abs(res.value - 1.6944261695879582) <= 5e-12
    assert abs(bl.beta_integral(0.75, 0.75).value - 1.6944261695879582) <= 1e-14


def test_integrate01_result_fields():
    res = bl.integrate01(lambda t: 1.0)
    assert res.levels_used >= 1
    assert res.evaluations > 0
    assert math.isfinite(res.error_estimate)


def test_integrate01_never_touches_endpoints():
    seen = []

    def probe(t):
        seen.append(t)
        return 1.0

    bl.integrate01(probe)
    assert seen
    assert all(0.0 < t < 1.0 for t in seen)


def test_integrate01_tolerance_validation():
    with pytest.raises(DomainError):
        bl.integrate01(lambda t: 1.0, tol=0.0)
    with pytest.raises(DomainError):
        bl.integrate01(lambda t: 1.0, tol=-1e-9)


def test_integrate01_nonconvergence_attaches_partial():
    # 1/t diverges; refinement can never settle.
    with pytest.raises(NonConvergenceError) as exc_info:
        bl.integrate01(lambda t: 1.0 / t)
    partial = exc_info.value.result
    assert partial is not None
    assert partial.levels_used == 12


def test_integrate01_rejects_non_finite_integrand():
    with pytest.raises(EvaluationError):
        bl.integrate01(lambda t: float("nan"))


def test_refinement_is_monotone():
    # A converged value never moves by more than the looser error estimate.
    f = lambda t: t**-0.25 * math.exp(t)
    loose = bl.integrate01(f, tol=1e-6)
    tight = bl.integrate01(f, tol=1e-13)
    assert abs(tight.value - loose.value) <= loose.error_estimate + 1e-15


# --- beta kernel ----------------------------------------------------------


@pytest.mark.parametrize("u", BETA_GRID)
@pytest.mark.parametrize("v", BETA_GRID)
def test_beta_integral_matches_reference(u, v):
    res = bl.beta_integral(u, v)
    assert abs(res.value - bl.beta(u, v)) <= res.error_estimate + 1e-12


def test_beta_integral_at_cutoff():
    res = bl.beta_integral(0.05, 0.05)
    assert abs(res.value - bl.beta(0.05, 0.05)) <= res.error_estimate + 1e-10 * res.value


def test_beta_integral_half_half_is_pi():
    res = bl.beta_integral(0.5, 0.5)
    assert abs(res.value - math.pi) <= 1e-12


def test_beta_integral_domain_cutoff():
    with pytest.raises(DomainError):
        bl.beta_integral(0.04, 1.0)
    with pytest.raises(DomainError):
        bl.beta_integral(1.0, 0.01)


# --- log kernel -----------------------------------------------------------


@pytest.mark.parametrize("n", range(1, 11))
def test_log_kernel_moment_harmonic_case(n):
    # -n * integral t^(n-1) log(1-t) dt = H_n
    assert abs(-n * bl.log_kernel_moment(float(n)).value - harmonic_oracle(n)) <= 1e-9


@pytest.mark.parametrize("u", [0.25, 0.5, 1.0, 2.0, 3.0, 5.0, 7.5])
def test_log_kernel_moment_digamma_form(u):
    lhs = -u * bl.log_kernel_moment(u).value
    rhs = bl.euler_gamma() + bl.digamma(u + 1.0)
    assert abs(lhs - rhs) <= 1e-9


def test_log_kernel_moment_closed_values():
    # u=2: -(H_2)/2 = -3/4 exactly; u=1/2: 4 log 2 - 4.
    assert abs(bl.log_kernel_moment(2.0).value + 0.75) <= 1e-14
    expected_half = 4.0 * log2_oracle() - 4.0
    assert abs(bl.log_kernel_moment(0.5).value - expected_half) <= 1e-12


# --- digamma kernel -------------------------------------------------------


@pytest.mark.parametrize("u", [0.25, 0.5, 1.0, 2.0, 3.0, 5.0, 7.5])
def test_digamma_integral_identity(u):
    # integral (1 - t^u)/(1 - t) dt = gamma + digamma(u+1)
    lhs = bl.digamma_integral(u).value
    rhs = bl.euler_gamma() + bl.digamma(u + 1.0)
    assert abs(lhs - rhs) <= 1e-9


def test_digamma_integral_at_one():
    # integral of (1 - t)/(1 - t) = 1 = gamma + digamma(2)
    res = bl.digamma_integral(1.0)
    assert abs(res.value - 1.0) <= 1e-12
    assert abs(bl.euler_gamma() + bl.digamma(2.0) - 1.0) <= 4e-15


def test_kernel_domain_cutoffs():
    with pytest.raises(DomainError):
        bl.log_kernel_moment(0.04)
    with pytest.raises(DomainError):
        bl.digamma_integral(0.0)
