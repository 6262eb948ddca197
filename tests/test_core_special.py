"""Reference special functions: closed forms, recurrences, and cross-checks.

Expected values come from tests/oracles.py (stdlib-only derivations) and,
for open-grid accuracy checks, from mpmath at 50 digits; mpmath appears only
here in the tests, never in the package.
"""

from __future__ import annotations

import math

import mpmath
import pytest

import betalab as bl
from betalab.errors import DomainError, OverflowRangeError
from oracles import (
    beta_half_oracle,
    beta_rational_oracle,
    euler_gamma_oracle,
    gamma_half_oracle,
    harmonic_oracle,
    log2_oracle,
    odd_harmonic_oracle,
    zeta_oracle,
)

# Wide sample grid avoiding only the poles at 0, -1, -2, ...
WIDE_GRID = [
    0.05, 0.1, 0.25, 0.49, 0.5, 0.51, 0.75, 0.9, 0.99, 1.0, 1.01, 1.5,
    1.99, 2.0, 2.01, 2.5, 3.0, 4.5, 7.0, 9.99, 10.0, 10.01, 25.0, 60.0,
    120.0, 170.0,
]


def rel_err(value: float, reference: float) -> float:
    if reference == 0.0:
        return abs(value)
    return abs(value - reference) / abs(reference)


# --- gamma / lgamma -------------------------------------------------------


def test_mpmath_precision_is_set_per_reference():
    # Each module sets mpmath's precision around its own references, so none
    # is left behind for the references of the modules collected after it.
    assert mpmath.mp.dps == 15


@pytest.mark.parametrize("x", WIDE_GRID)
@mpmath.workdps(50)
def test_lgamma_matches_mpmath_to_1e13(x):
    reference = float(mpmath.loggamma(x))
    assert abs(bl.lgamma(x) - reference) <= 1e-13 * max(1.0, abs(reference))


@pytest.mark.parametrize("x", WIDE_GRID)
@mpmath.workdps(50)
def test_gamma_matches_mpmath(x):
    reference = float(mpmath.gamma(x))
    assert rel_err(bl.gamma(x), reference) <= 1e-13


@pytest.mark.parametrize("n", range(1, 21))
def test_gamma_exact_at_small_integers(n):
    assert bl.gamma(float(n)) == float(math.factorial(n - 1))


def test_gamma_half_integer_closed_form():
    assert rel_err(bl.gamma(0.5), math.sqrt(math.pi)) <= 1e-15
    assert rel_err(bl.gamma(1.5), 0.5 * math.sqrt(math.pi)) <= 1e-15


def test_gamma_domain_and_overflow():
    with pytest.raises(DomainError):
        bl.gamma(0.0)
    with pytest.raises(DomainError):
        bl.gamma(-1.0)
    with pytest.raises(OverflowRangeError):
        bl.gamma(200.0)
    with pytest.raises(DomainError):
        bl.lgamma(-0.5)


# --- beta -----------------------------------------------------------------


@pytest.mark.parametrize("u", [0.1, 0.5, 1.0, 2.5, 7.0])
@pytest.mark.parametrize("v", [0.1, 0.5, 1.0, 2.5, 7.0])
def test_beta_symmetry(u, v):
    b = bl.beta(u, v)
    assert abs(b - bl.beta(v, u)) <= 1e-14 * b


@pytest.mark.parametrize("u", [0.1, 0.5, 1.0, 2.5, 7.0])
@pytest.mark.parametrize("v", [0.1, 0.5, 1.0, 2.5, 7.0])
def test_beta_recurrence(u, v):
    lhs = bl.beta(u, v + 1.0)
    rhs = v / (u + v) * bl.beta(u, v)
    assert abs(lhs - rhs) <= 1e-12 * lhs


@pytest.mark.parametrize("u", [0.1, 0.5, 1.0, 3.0, 10.0])
def test_beta_with_one_is_reciprocal(u):
    assert rel_err(bl.beta(u, 1.0), 1.0 / u) <= 1e-13


@pytest.mark.parametrize("u,v", [(2, 3), (1, 1), (5, 5), (10, 9), (1, 20), (7, 2)])
def test_beta_exact_for_small_integers(u, v):
    # Factorials through 22! are exact doubles, so B(u,v) with u+v <= 21
    # should be the correctly rounded rational.
    assert bl.beta(float(u), float(v)) == beta_rational_oracle(u, v)


def test_beta_pinned_sixth():
    assert bl.beta(2.0, 3.0) == 0.083333333333333329


@pytest.mark.parametrize("u,v", [(0.05, 0.05), (0.5, 12.5), (30.0, 40.0), (1e-3, 5.0)])
@mpmath.workdps(50)
def test_beta_matches_mpmath(u, v):
    reference = float(mpmath.beta(u, v))
    assert rel_err(bl.beta(u, v), reference) <= 1e-12


# One argument at 1e4 and above: lgamma(big) - lgamma(big + small) used to cancel
# away the digits of B (beta(1e17, 0.5) was 1.0) or overflow (beta(1e306, 0.5)).
@pytest.mark.parametrize("big", [1e4, 3e5, 1e8, 1e16, 1e17, 1e100, 1e306, 1.7e308])
@pytest.mark.parametrize("small", [1e-300, 1e-3, 0.5, 2.0, 7.5])
@mpmath.workdps(50)
def test_beta_with_one_huge_argument_matches_mpmath(big, small):
    # u + v is exact only with as many digits as big has; 50 more for the result.
    with mpmath.workdps(50 + int(math.log10(big))):
        reference = mpmath.beta(mpmath.mpf(big), mpmath.mpf(small))
    # log B is good to ~eps per unit of its largest parts
    allowed = 1e-15 * (1.0 + abs(math.lgamma(small)) + small * math.log(big))
    for u, v in ((big, small), (small, big)):
        value = bl.beta(u, v)
        if reference < 2.0**-1074:  # B underflows; it must not raise
            assert value == 0.0
        else:
            assert float(abs(value - reference) / reference) <= allowed, (u, v, value)


@pytest.mark.parametrize("u,v", [(9999.5, 0.5), (9999.0, 9999.0), (0.3, 7000.0), (250.5, 12.0)])
def test_beta_below_1e4_keeps_the_log_gamma_route(u, v):
    assert bl.beta(u, v) == math.exp(bl.lgamma(u) + bl.lgamma(v) - bl.lgamma(u + v))


# --- digamma / polygamma --------------------------------------------------


def test_digamma_at_one_is_minus_gamma():
    assert abs(bl.digamma(1.0) + euler_gamma_oracle()) <= 4e-15


def test_digamma_at_half():
    expected = -euler_gamma_oracle() - 2.0 * log2_oracle()
    assert abs(bl.digamma(0.5) - expected) <= 1e-14


def test_digamma_recurrence_log_spaced():
    # 100 log-spaced points on [0.1, 50]
    for i in range(100):
        x = 0.1 * (500.0 ** (i / 99.0))
        residual = bl.digamma(x + 1.0) - bl.digamma(x) - 1.0 / x
        assert abs(residual) <= 1e-12, f"x={x}"


def test_digamma_half_step_is_two():
    # psi(3/2) - psi(1/2) = 2, the anchor for the odd-harmonic indexing.
    assert abs(bl.digamma(1.5) - bl.digamma(0.5) - 2.0) <= 1e-13


@pytest.mark.parametrize("x", WIDE_GRID)
@mpmath.workdps(50)
def test_digamma_matches_mpmath(x):
    reference = float(mpmath.digamma(x))
    assert abs(bl.digamma(x) - reference) <= 1e-13 * max(1.0, abs(reference))


@pytest.mark.parametrize("x", [0.5, 1.0, 2.0, 5.0])
def test_trigamma_gradient_check(x):
    h = 1e-5
    central = (bl.digamma(x + h) - bl.digamma(x - h)) / (2.0 * h)
    assert abs(bl.trigamma(x) - central) <= 1e-6


def test_trigamma_closed_forms():
    assert rel_err(bl.trigamma(0.5), math.pi**2 / 2.0) <= 1e-13
    assert rel_err(bl.trigamma(1.0), zeta_oracle(2.0)) <= 1e-13


def test_polygamma_zeta_connection():
    # psi^(m)(x) = (-1)^(m+1) m! zeta(m+1, x)
    assert rel_err(bl.polygamma(2, 1.0), -2.0 * zeta_oracle(3.0)) <= 1e-13
    assert rel_err(bl.polygamma(3, 1.0), 6.0 * zeta_oracle(4.0)) <= 1e-13
    assert bl.polygamma(1, 2.5) == bl.trigamma(2.5)


def test_polygamma_rejects_bad_order():
    with pytest.raises(DomainError):
        bl.polygamma(0, 1.0)
    with pytest.raises(DomainError):
        bl.polygamma(-1, 1.0)
    with pytest.raises(DomainError):
        bl.trigamma(0.0)


# --- Hurwitz / Riemann zeta -----------------------------------------------


@pytest.mark.parametrize("s", [2.0, 3.0, 4.0, 6.0])
def test_riemann_zeta_vs_brute_oracle(s):
    assert rel_err(bl.riemann_zeta(s), zeta_oracle(s)) <= 1e-13


@pytest.mark.parametrize("s", [2.0, 3.0, 4.0, 6.0])
def test_hurwitz_half_relation(s):
    lhs = bl.hurwitz_zeta(s, 0.5)
    rhs = (2.0**s - 1.0) * bl.riemann_zeta(s)
    assert abs(lhs - rhs) <= 1e-11 * lhs


@pytest.mark.parametrize("s", [1.5, 2.0, 3.0, 6.0, 12.0])
@pytest.mark.parametrize("a", [0.5, 1.0, 2.5, 17.0])
@mpmath.workdps(50)
def test_hurwitz_zeta_matches_mpmath(s, a):
    reference = float(mpmath.zeta(s, a))
    assert rel_err(bl.hurwitz_zeta(s, a), reference) <= 1e-12


def test_zeta_domain():
    with pytest.raises(DomainError):
        bl.riemann_zeta(1.0)
    with pytest.raises(DomainError):
        bl.hurwitz_zeta(2.0, 0.0)


# --- factorial-family helpers ---------------------------------------------


@pytest.mark.parametrize("x", [0.3, 1.5, 4.0])
@pytest.mark.parametrize("n", range(11))
def test_pochhammer_gamma_identity(x, n):
    lhs = bl.rising(x, n)
    rhs = bl.gamma(x + n) / bl.gamma(x)
    assert abs(lhs - rhs) <= 1e-11 * abs(lhs)


def test_rising_falling_basics():
    assert bl.rising(2.5, 0) == 1.0
    assert bl.rising(3.0, 3) == 60.0          # 3*4*5
    assert bl.falling(3.0, 3) == 6.0          # 3*2*1
    assert bl.falling(0.5, 2) == 0.5 * (-0.5)
    # falling(x, n) = (-1)^n rising(-x, n)
    assert abs(bl.falling(2.2, 4) - bl.rising(2.2 - 3, 4)) <= 1e-12


def test_rising_falling_validation():
    with pytest.raises(DomainError):
        bl.rising(1.0, -1)
    with pytest.raises(OverflowRangeError):
        bl.rising(1e300, 2)


@pytest.mark.parametrize("n", range(1, 31))
def test_central_binom_exact_small(n):
    assert bl.central_binom(n) == float(math.comb(2 * n, n))


@pytest.mark.parametrize("n", [31, 64, 200, 500])
def test_central_binom_accurate_large(n):
    assert rel_err(bl.central_binom(n), float(math.comb(2 * n, n))) <= 1e-12


def test_central_binom_range():
    assert bl.central_binom(0) == 1.0
    with pytest.raises(DomainError):
        bl.central_binom(-1)
    with pytest.raises(DomainError):
        bl.central_binom(501)


@pytest.mark.parametrize("n", [0, 1, 2, 5, 10, 50])
def test_harmonic_vs_rational_oracle(n):
    expected = harmonic_oracle(n) if n else 0.0
    assert abs(bl.harmonic(n) - expected) <= 1e-15 * max(1.0, expected)


@pytest.mark.parametrize("n", [1, 2, 3, 10])
def test_odd_harmonic_is_zero_based(n):
    # sum_{k=0}^{n-1} 1/(2k+1): the indexing consistent with
    # digamma(n + 1/2) - digamma(1/2) = 2 * odd_harmonic(n).
    assert abs(bl.odd_harmonic(n) - odd_harmonic_oracle(n)) <= 1e-15
    step = bl.digamma(n + 0.5) - bl.digamma(0.5)
    assert abs(step - 2.0 * bl.odd_harmonic(n)) <= 1e-12


def test_euler_gamma_constant_vs_derivation():
    assert bl.euler_gamma() == bl.EULER_GAMMA
    assert abs(bl.EULER_GAMMA - euler_gamma_oracle()) <= 4e-15


# --- half-integer closed forms --------------------------------------------


@pytest.mark.parametrize("n", range(1, 31))
def test_gamma_half_vs_rational_oracle(n):
    assert rel_err(bl.gamma_half(n), gamma_half_oracle(n)) <= 1e-13


@pytest.mark.parametrize("n", range(1, 31))
def test_gamma_half_vs_gamma(n):
    assert rel_err(bl.gamma_half(n), bl.gamma(n + 0.5)) <= 1e-12


@pytest.mark.parametrize("n", [1, 2, 5, 10, 40, 100])
def test_beta_half_vs_rational_oracle(n):
    assert rel_err(bl.beta_half(n), beta_half_oracle(n)) <= 1e-12


@pytest.mark.parametrize("n", [1, 2, 5, 10, 40, 100])
def test_beta_half_vs_beta(n):
    assert rel_err(bl.beta_half(n), bl.beta(float(n), 0.5)) <= 1e-11


def test_half_integer_ranges():
    with pytest.raises(DomainError):
        bl.gamma_half(-1)
    with pytest.raises(OverflowRangeError):
        bl.gamma_half(81)
    with pytest.raises(DomainError):
        bl.beta_half(0)


# --- Legendre duplication -------------------------------------------------


@pytest.mark.parametrize("t", [0.25, 0.5, 1.0, 2.0, 5.0, 10.0])
def test_legendre_duplication(t):
    lhs = bl.gamma(t) * bl.gamma(t + 0.5)
    rhs = math.sqrt(math.pi) * 2.0 ** (1.0 - 2.0 * t) * bl.gamma(2.0 * t)
    assert abs(lhs - rhs) <= 1e-11 * lhs
