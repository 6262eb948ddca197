"""Self-contained double-precision reference evaluators.

This module implements the classical special functions that every other route
in the package is checked against: log-gamma, gamma, beta, digamma, Hurwitz /
Riemann zeta, polygamma, rising and falling factorials, central binomial
coefficients, harmonic sums and the half-integer closed forms.  Everything is
built from scratch on top of ``math`` so the reference side of each
cross-check stays independent of the series / quadrature / limit routes it
validates.

Algorithm choices:

* ``lgamma`` - Stirling's asymptotic series with six Bernoulli terms after
  shifting the argument to ``x >= 10``.  On ``[0.5, 2.5]``, where log-gamma
  crosses zero and the shifted form loses relative accuracy, a Taylor
  expansion of ``log Gamma(1+z)`` is used instead; its coefficients
  ``(-1)^k zeta(k)/k`` are generated at import time from this module's own
  zeta evaluator, so no external coefficient tables are involved.
* ``digamma`` - upward recurrence to ``x >= 10`` followed by the asymptotic
  series ``log x - 1/(2x) - sum B_{2k}/(2k x^{2k})``.
* ``hurwitz_zeta`` - Euler-Maclaurin: fifteen direct terms, the tail
  integral, and Bernoulli corrections through ``B_14``.

The only stored constants are the Bernoulli numbers ``B_2 .. B_14`` as exact
integer ratios (rendered to double once) and ``EULER_GAMMA``.

All functions are pure; there is no shared mutable state.
"""

from __future__ import annotations

import math

from .errors import DomainError, OverflowRangeError, finite_real, integer, positive_real

__all__ = [
    "EULER_GAMMA",
    "lgamma",
    "gamma",
    "beta",
    "digamma",
    "hurwitz_zeta",
    "riemann_zeta",
    "polygamma",
    "trigamma",
    "rising",
    "falling",
    "central_binom",
    "harmonic",
    "odd_harmonic",
    "euler_gamma",
    "gamma_half",
    "beta_half",
]

#: Euler-Mascheroni constant, the nearest double to the true value.
EULER_GAMMA = 0.5772156649015329

# Bernoulli numbers B_2, B_4, ..., B_14 as exact integer ratios.
_BERNOULLI = ((1, 6), (-1, 30), (1, 42), (-1, 30), (5, 66), (-691, 2730), (7, 6))

# Stirling-series coefficients B_{2k} / (2k (2k-1)), k = 1..6.
_STIRLING = tuple(
    num / (den * (2 * k) * (2 * k - 1)) for k, (num, den) in enumerate(_BERNOULLI[:6], start=1)
)

# Asymptotic digamma coefficients B_{2k} / (2k), k = 1..6.
_DIGAMMA_ASYM = tuple(
    num / (den * 2 * k) for k, (num, den) in enumerate(_BERNOULLI[:6], start=1)
)

# Euler-Maclaurin coefficients B_{2j} / (2j)!, j = 1..7.
_HURWITZ_COEFFS = tuple(
    num / (den * math.factorial(2 * j)) for j, (num, den) in enumerate(_BERNOULLI, start=1)
)

_MAX_HARMONIC_N = 10**6  # the harmonic sums add one term per unit of n
# From here beta's lgamma(big) - lgamma(big + small) would cancel ~1e-12 of B
# away (all of it by 1e16), so it takes the Stirling difference instead.
_BETA_STIRLING_MIN = 1e4

_HALF_LOG_TWO_PI = 0.5 * math.log(2.0 * math.pi)
_SQRT_PI = math.sqrt(math.pi)


def _horner(coeffs: tuple[float, ...], z: float) -> float:
    """``sum_k coeffs[k] z^k`` by Horner's rule."""
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * z + c
    return acc


def _stirling_corr(x: float) -> float:
    """The Bernoulli part of Stirling's series, ``sum_k B_2k / (2k (2k-1) x^(2k-1))``."""
    return _horner(_STIRLING, 1.0 / (x * x)) / x


def _stirling_lgamma(x: float) -> float:
    """Stirling series for log Gamma, accurate to ~1 ulp for x >= 10."""
    return (x - 0.5) * math.log(x) - x + _HALF_LOG_TWO_PI + _stirling_corr(x)


def _lgamma_diff(x: float, y: float) -> float:
    """``lgamma(x) - lgamma(x + y)`` for x >= 10, from Stirling's series term by term.

    The leading terms are combined through ``log1p(y/x)`` before they are
    subtracted, so the difference keeps its digits when x dwarfs y, where
    the two log-gammas agree in all of theirs.
    """
    xy = x + y
    return -(x - 0.5) * math.log1p(y / x) - y * math.log(xy) + y + (
        _stirling_corr(x) - _stirling_corr(xy)
    )


def hurwitz_zeta(s: float, a: float) -> float:
    """Hurwitz zeta ``sum_{k>=0} (k+a)^{-s}`` for ``s > 1``, ``a > 0``.

    Euler-Maclaurin with 15 directly summed terms, the tail integral, the
    half-term, and Bernoulli corrections B_2..B_14; absolute error is below
    1e-12 for ``s`` in [1.5, 12] and ``a`` in [0.1, 100] (and degrades
    gracefully, not catastrophically, outside that box).
    """
    s = finite_real(s, "s")
    a = positive_real(a, "a")
    if s <= 1.0:
        raise DomainError(f"hurwitz_zeta requires s > 1, got {s!r}")
    try:
        direct = math.fsum((a + k) ** -s for k in range(15))
    except OverflowError:
        raise OverflowRangeError(f"hurwitz_zeta({s!r}, {a!r}) overflows double precision") from None
    x = a + 15.0
    total = direct + x ** (1.0 - s) / (s - 1.0) + 0.5 * x**-s
    rising_s = s  # (s)_{2j-1}, built up two factors at a time
    xp = x ** (-s - 1.0)
    inv_x2 = 1.0 / (x * x)
    corr = 0.0
    for j, b in enumerate(_HURWITZ_COEFFS, start=1):
        if xp == 0.0:  # later terms vanish too; rising_s may already be inf
            break
        corr += b * rising_s * xp
        rising_s *= (s + 2 * j - 1) * (s + 2 * j)
        xp *= inv_x2
    return total + corr


def riemann_zeta(s: float) -> float:
    """Riemann zeta for ``s > 1``, evaluated as ``hurwitz_zeta(s, 1)``."""
    return hurwitz_zeta(s, 1.0)


# Taylor coefficients of log Gamma(1+z): c_1 = -gamma, c_k = (-1)^k zeta(k)/k.
# Generated from the module's own zeta evaluator; 60 terms keep the
# truncation error below 1e-18 on |z| <= 1/2.
_LOG_GAMMA1_COEFFS = (-EULER_GAMMA,) + tuple(
    (riemann_zeta(float(k)) / k if k % 2 == 0 else -riemann_zeta(float(k)) / k)
    for k in range(2, 61)
)


def _log_gamma_1p(z: float) -> float:
    """log Gamma(1+z) for |z| <= 1/2 via the Taylor series around z = 0."""
    return z * _horner(_LOG_GAMMA1_COEFFS, z)


def lgamma(x: float) -> float:
    """Natural log of Gamma(x) for ``x > 0``.

    Relative error stays below 1e-13 across [1e-3, 1e4]; the values at the
    zeros x = 1 and x = 2 are exact.
    """
    x = positive_real(x, "x")
    if x < 0.5:
        return _log_gamma_1p(x) - math.log(x)
    if x <= 1.5:
        return _log_gamma_1p(x - 1.0)
    if x <= 2.5:
        return _log_gamma_1p(x - 2.0) + math.log1p(x - 2.0)
    if x >= 10.0:
        value = _stirling_lgamma(x)
        if value == math.inf:
            raise OverflowRangeError(f"lgamma overflows double precision at x = {x!r}")
        return value
    # Shift upward: Gamma(x+m) = (x+m-1)...(x) Gamma(x).  The product of at
    # most eight factors below ten stays well inside exact double range.
    shift = 1.0
    y = x
    while y < 10.0:
        shift *= y
        y += 1.0
    return _stirling_lgamma(y) - math.log(shift)


def gamma(x: float) -> float:
    """Gamma(x) for ``0 < x <= 170``; exact factorials at integer x <= 20."""
    x = positive_real(x, "x")
    if x > 170.0:
        raise OverflowRangeError(f"gamma overflows double precision for x > 170, got {x!r}")
    if x == math.floor(x) and x <= 20.0:
        p = 1.0
        k = 1.0
        while k < x - 0.5:  # product 1*2*...*(x-1), exact in double
            p *= k
            k += 1.0
        return p
    try:
        return math.exp(lgamma(x))
    except OverflowError:
        raise OverflowRangeError(f"gamma overflows double precision at x = {x!r}") from None


def beta(u: float, v: float) -> float:
    """Euler beta ``Gamma(u)Gamma(v)/Gamma(u+v)`` via log-gamma differences.

    Small integer arguments take the exact-factorial route, so e.g.
    ``beta(2, 3)`` is the correctly rounded double of 1/12.  Once the larger
    argument reaches 1e4, ``lgamma(big) - lgamma(big + small)`` is taken as
    one Stirling difference, so e.g. ``beta(1e306, 0.5)`` is ~1.8e-153.
    """
    u = positive_real(u, "u")
    v = positive_real(v, "v")
    if u == math.floor(u) and v == math.floor(v) and u + v <= 21.0:
        # (u-1)!(v-1)! <= 10!*9! fits exactly in a double; one rounding total.
        return gamma(u) * gamma(v) / gamma(u + v)
    small, big = (u, v) if u <= v else (v, u)
    if big >= _BETA_STIRLING_MIN:
        log_beta = lgamma(small) + _lgamma_diff(big, small)
    else:
        log_beta = lgamma(u) + lgamma(v) - lgamma(u + v)
    try:
        return math.exp(log_beta)
    except OverflowError:
        raise OverflowRangeError(f"beta overflows double precision at ({u!r}, {v!r})") from None


def digamma(x: float) -> float:
    """Digamma psi(x) for ``x > 0``; absolute error <= 1e-12 on [1e-3, 1e4]."""
    x = positive_real(x, "x")
    shifts = []
    y = x
    while y < 10.0:
        shifts.append(1.0 / y)
        y += 1.0
    w = 1.0 / (y * y)
    asym = math.log(y) - 0.5 / y - _horner(_DIGAMMA_ASYM, w) * w
    if not shifts:
        return asym
    value = asym - math.fsum(shifts)
    if value == -math.inf:  # 1/x overflowed: x is below ~5.6e-309
        raise OverflowRangeError(f"digamma overflows double precision at x = {x!r}")
    return value


def polygamma(m: int, x: float) -> float:
    """m-th derivative of digamma, ``(-1)^{m+1} m! zeta(m+1, x)``, m >= 1."""
    m = integer(m, "m", 1)
    x = positive_real(x, "x")
    if m > 170:
        raise OverflowRangeError(f"polygamma order {m} overflows double precision")
    sign = 1.0 if m % 2 == 1 else -1.0
    value = sign * float(math.factorial(m)) * hurwitz_zeta(m + 1.0, x)
    if math.isinf(value):
        raise OverflowRangeError(f"polygamma({m}, {x!r}) overflows double precision")
    return value


def trigamma(x: float) -> float:
    """psi'(x), the first derivative of digamma."""
    return polygamma(1, x)


def rising(x: float, n: int) -> float:
    """Rising factorial ``x (x+1) ... (x+n-1)``; empty product is 1.

    An exact signed zero when a factor vanishes, even after an overflow; raises
    :class:`OverflowRangeError` as soon as the product overflows, so no n loops long.
    """
    n = integer(n, "n", 0)
    x = finite_real(x, "x")
    if x <= 0.0 and x == math.floor(x) and -x < n:
        # The factor x + (-x) is +0.0, after -x negative and before positive factors.
        return -0.0 if int(-x) % 2 else 0.0
    p = 1.0
    for k in range(n):
        p *= x + k
        if math.isinf(p):
            raise OverflowRangeError(f"rising({x}, {n}) overflows double precision")
    return p


def falling(x: float, n: int) -> float:
    """Falling factorial ``x (x-1) ... (x-n+1)``; empty product is 1.

    Zeros and overflow as for :func:`rising`.
    """
    n = integer(n, "n", 0)
    x = finite_real(x, "x")
    if x >= 0.0 and x == math.floor(x) and x < n:
        # The factor x - x has x's sign; the n - 1 - x factors after it are negative.
        zero = math.copysign(0.0, x)
        return -zero if (n - 1 - int(x)) % 2 else zero
    p = 1.0
    for k in range(n):
        p *= x - k
        if math.isinf(p):
            raise OverflowRangeError(f"falling({x}, {n}) overflows double precision")
    return p


def central_binom(n: int) -> float:
    """Central binomial coefficient C(2n, n) for ``0 <= n <= 500``.

    Exact integer arithmetic up to n = 30 (the result is still exactly
    representable as a double there); the log-gamma route beyond.
    """
    n = integer(n, "n", 0)
    if n > 500:
        raise DomainError(f"central_binom supports n <= 500, got {n}")
    if n <= 30:
        c = 1
        for k in range(1, n + 1):
            c = c * 2 * (2 * k - 1) // k
        return float(c)
    return math.exp(lgamma(2.0 * n + 1.0) - 2.0 * lgamma(n + 1.0))


def harmonic(n: int) -> float:
    """Harmonic number ``H_n = sum_{k=1}^{n} 1/k`` for n <= 10**6, summed in increasing k."""
    n = integer(n, "n", 0, _MAX_HARMONIC_N)
    total = 0.0
    for k in range(1, n + 1):
        total += 1.0 / k
    return total


def odd_harmonic(n: int) -> float:
    """``sum_{k=0}^{n-1} 1/(2k+1)``: reciprocals of the first n odd numbers, n <= 10**6."""
    n = integer(n, "n", 0, _MAX_HARMONIC_N)
    total = 0.0
    for k in range(n):
        total += 1.0 / (2 * k + 1)
    return total


def euler_gamma() -> float:
    """The Euler-Mascheroni constant as a double."""
    return EULER_GAMMA


def gamma_half(n: int) -> float:
    """Gamma(n + 1/2) by the closed-form product ``sqrt(pi) prod (k - 1/2)``.

    Supported for ``0 <= n <= 80``; deliberately not routed through lgamma so
    it can serve as an independent check on it.
    """
    n = integer(n, "n", 0)
    if n > 80:
        raise OverflowRangeError(f"gamma_half supports n <= 80, got {n}")
    p = _SQRT_PI
    for k in range(1, n + 1):
        p *= k - 0.5
    return p


def beta_half(n: int) -> float:
    """B(n, 1/2) by the closed form ``4^n / (n C(2n, n))`` for 1 <= n <= 500."""
    n = integer(n, "n", 0)
    if n < 1 or n > 500:
        raise DomainError(f"beta_half supports 1 <= n <= 500, got {n}")
    return 2.0 ** (2 * n) / (n * central_binom(n))
