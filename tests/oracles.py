"""Independent oracles for the constants the tests freeze expectations against.

Every function here derives its value from first principles using only the
standard library (``math.fsum``, ``fractions.Fraction``), never the package
under test, so an implementation bug cannot silently validate itself.  Each
docstring states the derivation and a truncation bound showing the result is
accurate to double rounding.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache


@lru_cache(maxsize=None)
def euler_gamma_oracle(n: int = 10**6) -> float:
    """Euler's constant from the Euler-Maclaurin expansion of H_N - log N.

    gamma = H_N - log N - 1/(2N) + 1/(12 N^2) - 1/(120 N^4) + ...
    At N = 10^6 the first dropped term is ~8e-27; the only error left is
    float rounding in the ~14.4-magnitude subtraction, a few parts in 1e16.
    """
    partial = math.fsum(1.0 / k for k in range(1, n + 1))
    return partial - math.log(n) - 1.0 / (2 * n) + 1.0 / (12 * n * n)


@lru_cache(maxsize=None)
def log2_oracle(terms: int = 40) -> float:
    """log 2 = 2 atanh(1/3) = sum_k 2 / ((2k+1) 3^(2k+1)), k >= 0.

    Summed in exact rational arithmetic; the tail after 40 terms is below
    9^-40 ~ 7e-39, so converting the partial sum to float is the only
    rounding step and the result is the correctly rounded double.
    """
    total = Fraction(0)
    for k in range(terms):
        total += Fraction(2, (2 * k + 1) * 3 ** (2 * k + 1))
    return float(total)


@lru_cache(maxsize=None)
def zeta_oracle(s: float, n: int = 10**6) -> float:
    """Brute-force zeta(s): fsum of n terms plus an Euler-Maclaurin tail.

    zeta(s) = sum_{k<=n} k^-s + n^(1-s)/(s-1) - n^-s/2 + s n^(-s-1)/12 + R,
    |R| <= s(s+1)(s+2) n^(-s-3)/720 -- below 1e-24 for s >= 2 at n = 10^6.
    """
    partial = math.fsum(k ** -float(s) for k in range(1, n + 1))
    tail = (
        n ** (1.0 - s) / (s - 1.0)
        - 0.5 * n ** -float(s)
        + s * n ** (-s - 1.0) / 12.0
    )
    return partial + tail


def harmonic_oracle(n: int) -> float:
    """H_n summed in exact rational arithmetic, rounded once to float."""
    return float(sum(Fraction(1, k) for k in range(1, n + 1)))


def odd_harmonic_oracle(n: int) -> float:
    """sum_{k=0}^{n-1} 1/(2k+1) in exact rational arithmetic."""
    return float(sum(Fraction(1, 2 * k + 1) for k in range(n)))


def gamma_half_oracle(n: int) -> float:
    """Gamma(n + 1/2) = sqrt(pi) (2n)! / (4^n n!), rational part exact."""
    ratio = Fraction(math.factorial(2 * n), 4**n * math.factorial(n))
    return math.sqrt(math.pi) * float(ratio)


def beta_half_oracle(n: int) -> float:
    """B(n, 1/2) = 4^n / (n C(2n, n)) in exact rational arithmetic."""
    return float(Fraction(4**n, n * math.comb(2 * n, n)))


def beta_rational_oracle(u: int, v: int) -> float:
    """B(u, v) = (u-1)!(v-1)!/(u+v-1)! for positive integers, exact."""
    value = Fraction(
        math.factorial(u - 1) * math.factorial(v - 1), math.factorial(u + v - 1)
    )
    return float(value)


def digamma_half_oracle() -> float:
    """psi(1/2) = -gamma - 2 log 2 from the gamma and log 2 oracles."""
    return -euler_gamma_oracle() - 2.0 * log2_oracle()


def catalan_oracle(terms: int = 40) -> float:
    """Catalan's constant by Ramanujan's series.

    G = (pi/8) log(2 + sqrt 3) + (3/8) sum_{n>=0} 1 / ((2n+1)^2 C(2n, n)).
    The sum is exact in rational arithmetic; its tail after 40 terms is
    below 4^-40 ~ 1e-24, so the result is within a few ulps of G.
    """
    total = sum(Fraction(1, (2 * n + 1) ** 2 * math.comb(2 * n, n)) for n in range(terms))
    return math.pi / 8.0 * math.log(2.0 + math.sqrt(3.0)) + 3.0 * float(total) / 8.0
