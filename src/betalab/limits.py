"""Numerical limits as v -> 0+ via Richardson extrapolation.

The quantities here all have removable structure at v = 0: a simple pole
with a finite remainder (``B(u,v) - 1/v``, ``Gamma(v) - 1/v``) or a plain
difference quotient (``(Gamma(v+1) - 1)/v``).  Each is sampled on the
geometric grid ``h0 / 2^k`` and extrapolated to 0 with a Neville tableau;
the error estimate is 8 times the larger of the last two differences along
the tableau's diagonal, the residual rule of the series accelerators.

Where naive evaluation would lose digits to cancellation, the samples are
rewritten through ``expm1``/``lgamma`` so the subtraction happens on the
logarithmic scale (see the individual functions).  ``gamma_pole_limit``
deliberately keeps the naive subtraction: it serves as an independent check
on ``gamma_derivative_at_1``, which takes the rewritten route, so the two
must not share their rounding behaviour.
"""

from __future__ import annotations

import math
from collections.abc import Callable

from .core_special import beta, gamma, lgamma
from .errors import DomainError, EvaluationError, OverflowRangeError, Record
from .errors import finite_real, integer, positive_real

__all__ = [
    "LimitResult",
    "richardson_limit",
    "gamma_pole_limit",
    "gamma_derivative_at_1",
    "beta_pole_limit",
    "scaled_beta_limits",
    "LIMITS",
]

_MIN_DEPTH = 2
_MAX_DEPTH = 12
DEFAULT_DEPTH = 10  # Neville tableau rows every limit uses unless told otherwise
_MIN_U = 0.1  # smallest u the beta limits accept
_ERROR_FACTOR = 8.0  # error estimate = 8 x the larger of the last two diagonal differences


class LimitResult(Record):
    """An extrapolated limit with its tableau-based error estimate."""

    value: float
    error_estimate: float
    table_depth: int


def richardson_limit(
    f: Callable[[float], float], h0: float, depth: int = DEFAULT_DEPTH
) -> LimitResult:
    """Extrapolate ``f(h) -> f(0+)`` from samples at ``h0 / 2^k``, k < depth.

    Builds the Neville tableau for polynomial extrapolation to h = 0; the
    reported error estimate is 8 times the larger of ``|T[d,d] - T[d-1,d-1]|``
    and ``|T[d-1,d-1] - T[d-2,d-2]|`` (the first alone at depth 2).  Measured
    against 30-digit references, the last difference alone under-read the
    error of ``beta_pole_limit`` on 92 of 200 u in [0.1, 6].  A sample that
    is not finite or real, or a ``TypeError`` of ``f``'s own, raises
    :class:`EvaluationError` (chaining the ``TypeError``), as :func:`integrate01` does.
    An int sample past double range, an ``OverflowError`` of ``f``'s own (chained)
    and a tableau or estimate that overflows raise :class:`OverflowRangeError`.
    """
    h0 = positive_real(h0, "h0")
    depth = integer(depth, "depth", _MIN_DEPTH, _MAX_DEPTH)
    xs: list[float] = []
    rows: list[list[float]] = []
    diags: list[float] = []
    try:  # around the whole sampling, not each sample
        for i in range(depth):
            x = h0 * 2.0**-i
            y = f(x)
            if not math.isfinite(y):
                raise EvaluationError(f"limit sample f({x!r}) is not finite: {y!r}")
            xs.append(x)
            row = [y]
            for j in range(1, i + 1):
                num = xs[i - j] * row[j - 1] - xs[i] * rows[i - 1][j - 1]
                row.append(num / (xs[i - j] - xs[i]))
            rows.append(row)
            diags.append(row[-1])
    except TypeError as exc:  # f's own; isfinite of a str, None or complex; a Decimal's tableau
        raise EvaluationError(f"limit sample f({x!r}) did not give a real number: {exc}") from exc
    except OverflowRangeError:
        raise
    except OverflowError as exc:  # isfinite of an int past double range, or f's own
        raise OverflowRangeError(f"limit sample f({x!r}) overflows doubles: {exc}") from exc
    last = diags[-3:]
    error = _ERROR_FACTOR * max(abs(b - a) for a, b in zip(last, last[1:]))
    if not (math.isfinite(diags[-1]) and math.isfinite(error)):
        raise OverflowRangeError("Richardson tableau or its error estimate overflows doubles")
    return LimitResult(diags[-1], error, depth)


def gamma_pole_limit(depth: int = DEFAULT_DEPTH, h0: float = 0.5) -> LimitResult:
    """``lim_{v->0+} (Gamma(v) - 1/v)``, which equals -gamma.

    Samples the difference naively (both terms grow like 1/v, costing a few
    digits near the pole); kept that way on purpose as a cross-check against
    :func:`gamma_derivative_at_1`, which avoids the cancellation.
    """
    return richardson_limit(lambda v: gamma(v) - 1.0 / v, h0, depth)


def gamma_derivative_at_1(depth: int = DEFAULT_DEPTH, h0: float = 0.5) -> LimitResult:
    """``Gamma'(1)`` as the limit of ``(Gamma(v+1) - 1)/v``, equal to -gamma.

    The quotient is evaluated as ``expm1(lgamma(v+1)) / v`` so the
    subtraction of 1 is done on the log scale without cancellation.
    """
    return richardson_limit(lambda v: math.expm1(lgamma(v + 1.0)) / v, h0, depth)


def _checked_u(u: float) -> tuple[float, float]:
    """``u`` as the beta limits accept it, a finite real >= 0.1, and ``lgamma(u)``."""
    u = finite_real(u, "u")
    if u < _MIN_U:
        raise DomainError(f"u must be a finite real >= {_MIN_U}, got {u!r}")
    return u, lgamma(u)


def beta_pole_limit(u: float, depth: int = DEFAULT_DEPTH, h0: float = 0.25) -> LimitResult:
    """``lim_{v->0+} (B(u,v) - 1/v)`` for u >= 0.1.

    Uses ``B(u,v) - 1/v = expm1(lgamma(v+1) + lgamma(u) - lgamma(u+v)) / v``,
    which stays fully accurate even though the two terms individually grow
    like 1/v.  In closed form the limit is ``-(gamma + psi(u))`` (0 at u = 1);
    the identity suite checks it against both that form and the series route.
    """
    u, lg_u = _checked_u(u)

    def sample(v: float) -> float:
        return math.expm1(lgamma(v + 1.0) + lg_u - lgamma(u + v)) / v

    return richardson_limit(sample, h0, depth)


def scaled_beta_limits(
    u: float, depth: int = DEFAULT_DEPTH, h0: float = 0.25
) -> tuple[LimitResult, LimitResult]:
    """Two independent routes to ``lim_{v->0+} v B(u, v)`` (= 1), u >= 0.1.

    Route one evaluates ``v B(u,v) = exp(lgamma(v+1) + lgamma(u) -
    lgamma(u+v))`` directly; route two uses the recurrence form
    ``v B(u,v) = (u+v) B(u, v+1)``, which involves no pole at all.  Their
    agreement is a structural check on both the beta evaluator and the
    extrapolator.
    """
    u, lg_u = _checked_u(u)

    def via_log(v: float) -> float:
        return math.exp(lgamma(v + 1.0) + lg_u - lgamma(u + v))

    def via_recurrence(v: float) -> float:
        return (u + v) * beta(u, v + 1.0)

    return richardson_limit(via_log, h0, depth), richardson_limit(via_recurrence, h0, depth)


# The limits by CLI name: the one table ``betalab limit`` offers them from.
LIMITS = {"beta-pole": beta_pole_limit, "gamma-derivative": gamma_derivative_at_1,
          "gamma-pole": gamma_pole_limit, "scaled-beta": scaled_beta_limits}
