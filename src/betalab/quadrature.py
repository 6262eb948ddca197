"""Tanh-sinh (double-exponential) quadrature on the open interval (0, 1).

The substitution ``x = tanh((pi/2) sinh(u))`` maps the real line onto (-1, 1)
and makes the trapezoid rule converge double-exponentially, even for
integrands with algebraic or logarithmic endpoint singularities.  Rescaled to
(0, 1), a node at ``u`` sits at distance ``1/(1 + e^{2y})`` from one endpoint
and ``1/(1 + e^{-2y})`` from the other, with ``y = (pi/2) sinh(u)``.

Both distances are computed directly and carried with every node.  That
matters at the upper endpoint: doubles near 1.0 have absolute spacing ~1e-16,
so an integrand written in terms of ``t`` alone cannot see the mass that
``(1-t)^{v-1}`` singularities carry below that scale.  The built-in kernels
(`beta_integral`, `log_kernel_moment`, `digamma_integral`) therefore evaluate
through the exact distance to whichever endpoint is nearer, while the public
`integrate01` keeps the plain ``f(t)`` interface and simply never calls ``f``
at a point that rounds onto 0 or 1.  Each node also carries the logs of both,
taken through the smaller distance once per process, not per kernel call.

Refinement halves the step ``h = 2^-level`` from level 0 up to level 12,
reusing previous evaluations; nodes whose weight falls below 1e-300 are
skipped, so abscissae never touch the endpoints.  The built-in kernels also
truncate their tails, as double-exponential codes do (Takahasi & Mori 1974;
Bailey, Jeyabalan & Li 2005): at level 0 a side ends at its first node, out
from the centre, whose ``|w f|`` is below 2^-100 of the largest so far, and
deeper levels skip the nodes beyond it.  Past their peak the kernels' ``|w f|``
decay monotonically, so the nodes left out carry under about 2^-80 of a level
sum, far below its last bit.  `integrate01` cannot know the tails of its ``f``
and keeps every node.  Level sums use exact summation (`math.fsum`), making
results deterministic and rerun-stable.
The error estimate, the last two levels' difference, is floored at the last
level's rounding, ``4 eps h sum |w_i f_i|``, so that it never reads 0; that sum
adds in node order, not through builtin ``sum`` (compensated from Python 3.12).
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable

from .errors import DomainError, EvaluationError, NonConvergenceError, OverflowRangeError
from .errors import Record, finite_real, positive_real

__all__ = [
    "QuadratureResult",
    "integrate01",
    "beta_integral",
    "log_kernel_moment",
    "digamma_integral",
    "KERNELS",
]

MAX_LEVEL = 12
DEFAULT_TOL = 1e-12  # successive-level agreement every kernel refines to
_MIN_WEIGHT = 1e-300
_TAIL_CUT = 2.0**-100  # a kernel's level-0 |w f| below this share of the largest ends its side
_MIN_ARG = 0.05  # kernel parameters below this under-resolve the endpoint singularity
_HALF_PI = math.pi / 2.0
_EPS = 2.0**-52  # one ulp of 1.0


class QuadratureResult(Record):
    """Outcome of an adaptive tanh-sinh integration."""

    value: float
    error_estimate: float  # |difference between the last two levels|, floored at rounding, >= 0
    levels_used: int
    evaluations: int


@functools.cache
def _build_level(level: int) -> tuple[tuple[float, float, float, float, float], ...]:
    """Evaluation points new at this level as (t, s, weight/h, log t, log s).

    ``t`` is the abscissa, ``s = 1 - t`` computed independently at full
    relative precision, and each log is taken through the smaller of the
    two.  Level 0 holds all integer nodes, deeper levels only the odd
    multiples of their step.  Each table is built once per process.
    """
    h = 2.0**-level
    pts: list[tuple[float, float, float, float, float]] = []
    if level == 0:
        pts.append((0.5, 0.5, 0.5 * _HALF_PI, math.log(0.5), math.log(0.5)))
        step = 1
    else:
        step = 2
    k = 1
    while True:
        u = k * h
        y = _HALF_PI * math.sinh(u)
        em = math.exp(-2.0 * y)
        # dt/du for t = (1 + tanh(y))/2: (pi/2) cosh(u) * sech^2(y) / 2.
        w = _HALF_PI * math.cosh(u) * 2.0 * em / ((1.0 + em) * (1.0 + em))
        small = em / (1.0 + em)
        if small == 0.0 or w * h < _MIN_WEIGHT:
            break
        big = 1.0 / (1.0 + em)
        log_small, log_big = math.log(small), math.log1p(-small)
        pts.append((small, big, w, log_small, log_big))
        pts.append((big, small, w, log_big, log_small))
        k += step
    return tuple(pts)


def _refine(
    g: Callable[[float, float, float, float], float], tol: float, interior_only: bool
) -> QuadratureResult:
    """Run the level refinement for an integrand ``g(t, s, log t, log s)``."""
    tol = positive_real(tol, "tol")
    phi: list[float] = []
    prev = math.nan
    total = math.nan
    err = math.inf
    peak = mass = 0.0  # the largest |w f| of level 0; sum |w f|, added in node order
    cut = [len(_build_level(0)) // 2 + 1] * 2  # per side, the level-0 step it ends at; none yet
    for level in range(MAX_LEVEL + 1):
        nodes = _build_level(level)
        if interior_only:
            nodes = [node for node in nodes if 0.0 < node[0] < 1.0]
        elif level:  # the nodes short of both cuts: a side cut at step k keeps k 2^(level-1)
            near0, near1 = (k << (level - 1) for k in cut)
            pairs = 2 * min(near0, near1)  # the sides alternate up to here; the longer goes on
            nodes = nodes[:pairs] + nodes[pairs + (near1 > near0) : 2 * max(near0, near1) : 2]
        cutting = not (level or interior_only)  # a kernel's level 0 sets each side's cut
        i = 0
        for t, s, w, lt, ls in nodes:
            if cutting:
                i += 1
                k, side = divmod(i, 2)  # out from the centre (step 0), side 0 first at each step
                if k >= cut[side]:
                    continue
            fv = g(t, s, lt, ls)
            wf = w * fv
            if not math.isfinite(wf):  # every weight is at most pi/4: f itself is not finite
                raise EvaluationError(f"integrand returned non-finite value {fv!r} at t={t!r}")
            phi.append(wf)
            mass += abs(wf)
            if cutting:
                peak = max(peak, abs(wf))
                if abs(wf) < _TAIL_CUT * peak:
                    cut[side] = k
        try:
            total = math.fsum(phi) * 2.0**-level
        except OverflowError:  # fsum's own, not a BetalabError
            raise OverflowRangeError(f"tanh-sinh level {level} overflows doubles") from None
        if level > 0:
            err = abs(total - prev)
            if err <= tol:
                break
        prev = total
    floor = 4.0 * _EPS * 2.0**-level * mass
    if not math.isfinite(floor):
        raise OverflowRangeError("tanh-sinh error bound overflows double precision")
    result = QuadratureResult(total, max(err, floor), level, len(phi))
    if err <= tol:
        return result
    raise NonConvergenceError(
        f"tanh-sinh did not reach tol={tol:g} by level {MAX_LEVEL} "
        f"(last difference {err:g})",
        result=result,
    )


def integrate01(f: Callable[[float], float], tol: float = DEFAULT_TOL) -> QuadratureResult:
    """Integrate ``f`` over (0, 1), refining until successive levels agree.

    ``f`` is only ever evaluated strictly inside the interval.  Refinement
    runs from level 0 to the fixed cap ``MAX_LEVEL`` (12), as for every
    kernel.  Raises :class:`NonConvergenceError` (with the partial result
    attached) if the successive-level difference is still above ``tol`` at
    the cap, :class:`EvaluationError` if ``f`` returns a non-finite or non-real
    value or raises ``TypeError`` (chained as the cause), and
    :class:`OverflowRangeError` if ``f`` returns an int past double range or raises
    ``OverflowError`` (chained), or if a level sum or its error bound overflows.
    """
    try:  # around the whole refinement, not each evaluation
        return _refine(lambda t, s, lt, ls: f(t), tol, interior_only=True)
    except TypeError as exc:  # w * f(t) or isfinite of a str, None or complex; or f's own
        raise EvaluationError(f"integrand did not give a real number: {exc}") from exc
    except OverflowRangeError:
        raise
    except OverflowError as exc:  # w * f(t) of an int past double range, or f's own
        raise OverflowRangeError(f"integrand overflows doubles: {exc}") from exc


def _kernel_args(**args: float) -> list[float]:
    """A kernel's parameters as floats: all finite, then all at least ``_MIN_ARG``."""
    values = [finite_real(x, name) for name, x in args.items()]
    for name, x in zip(args, values):
        if x < _MIN_ARG:
            raise DomainError(f"{name} must be >= {_MIN_ARG} (endpoint resolution limit), "
                              f"got {x!r}")
    return values


def beta_integral(u: float, v: float, tol: float = DEFAULT_TOL) -> QuadratureResult:
    """``int_0^1 t^{u-1} (1-t)^{v-1} dt`` for ``u, v >= 0.05``.

    Below 0.05 the double-exponential nodes under-resolve the endpoint
    singularity, so that region is excluded from the domain.
    """
    u, v = _kernel_args(u=u, v=v)

    def g(t: float, s: float, lt: float, ls: float) -> float:
        return math.exp((u - 1.0) * lt + (v - 1.0) * ls)

    return _refine(g, tol, interior_only=False)


def log_kernel_moment(u: float, tol: float = DEFAULT_TOL) -> QuadratureResult:
    """``int_0^1 t^{u-1} log(1-t) dt`` for ``u >= 0.05``.

    This is the beta derivative with respect to its second argument at v = 1.
    """
    [u] = _kernel_args(u=u)

    def g(t: float, s: float, lt: float, ls: float) -> float:
        return math.exp((u - 1.0) * lt) * ls

    return _refine(g, tol, interior_only=False)


def digamma_integral(u: float, tol: float = DEFAULT_TOL) -> QuadratureResult:
    """``int_0^1 (1 - t^u)/(1 - t) dt`` for ``u >= 0.05``.

    The integrand, ``-expm1(u log t) / s`` with ``s = 1 - t``, has a removable
    point at t = 1; the carried log and distance keep it finite and fully
    accurate there.
    """
    [u] = _kernel_args(u=u)

    def g(t: float, s: float, lt: float, ls: float) -> float:
        return -math.expm1(u * lt) / s

    return _refine(g, tol, interior_only=False)


# The kernels by CLI name: the one table ``betalab integrate`` offers them from.
KERNELS = {"beta": beta_integral, "digamma": digamma_integral, "log-kernel": log_kernel_moment}
