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

Each level of a smooth integrand's rule roughly doubles its correct digits,
so the last difference ``|T_l - T_{l-1}|`` is about the error of ``T_{l-1}``,
not of ``T_l``.  The kernels therefore estimate the error of ``T_l`` from the
last three levels, as Bailey, Jeyabalan & Li do: ``d1^2 / d2`` with
``d1 = |T_l - T_{l-1}|`` and ``d2 = |T_l - T_{l-2}|`` (``d1`` itself at
level 1), floored at ``16 eps h sum |w_i f_i|``, four times the last level's
rounding; and their ``tol`` is relative: they stop once the estimate is at
most ``tol * |T_l|``.  On grids of u, v in [0.05, 50] at tol 1e-8 to 1e-14
every estimate bounds its real error against 30-digit references.
`integrate01` keeps an absolute ``tol`` and the last difference, floored at
``4 eps h sum |w_i f_i|``: its ``f`` may be non-smooth, where the levels
converge only linearly and the three-level model under-reads (by up to 200x
for ``|t - 1/3|``; also for a step at 0.3 and ``sqrt|t - 1/2|``), and its
integral may be 0, where no relative ``tol`` can be met.  ``sum |w_i f_i|``
adds in node order, not through builtin ``sum`` (compensated from Python
3.12), so every field is the same on every supported Python.
"""

from __future__ import annotations

import functools
import math
import operator
from collections.abc import Callable, Sequence

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
DEFAULT_TOL = 1e-12  # relative for the kernels, absolute for integrate01
_MIN_WEIGHT = 1e-300
_TAIL_CUT = 2.0**-100  # a kernel's level-0 |w f| below this share of the largest ends its side
_MIN_ARG = 0.05  # kernel parameters below this under-resolve the endpoint singularity
_HALF_PI = math.pi / 2.0
_EPS = 2.0**-52  # one ulp of 1.0
_Node = tuple[float, float, float, float, float]  # (t, s, weight/h, log t, log s)


class QuadratureResult(Record):
    """Outcome of an adaptive tanh-sinh integration."""

    value: float
    error_estimate: float  # of value, floored at the last level's rounding, > 0 (module docstring)
    levels_used: int
    evaluations: int  # integrand evaluations, every one in a level sum


@functools.cache
def _build_level(level: int) -> tuple[_Node, ...]:
    """Evaluation points new at this level as (t, s, weight/h, log t, log s).

    ``t`` is the abscissa, ``s = 1 - t`` computed independently at full
    relative precision, and each log is taken through the smaller of the
    two.  Level 0 holds all integer nodes, deeper levels only the odd
    multiples of their step.  Each table is built once per process.
    """
    h = 2.0**-level
    pts: list[_Node] = []
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


@functools.cache
def _nodes(level: int, ends: tuple[int, int] | None) -> tuple[_Node, ...]:
    """The nodes of ``level`` a refinement evaluates, built once per process for each
    ``ends``: with None every interior node (integrate01's), else, from level 1, those
    short of each side's level-0 end step (a kernel's)."""
    nodes = _build_level(level)
    if ends is None:
        return tuple(node for node in nodes if 0.0 < node[0] < 1.0)
    # Node i is on side i & 1 at step (i | 1) 2^-level; a side ending at step k keeps those below.
    return tuple(node for i, node in enumerate(nodes) if i | 1 < ends[i & 1] << level)


def _level_zero(
    level_values: Callable[[Sequence[_Node]], list[float]],
) -> tuple[list[_Node], list[float], tuple[int, int]]:
    """A kernel's level 0, one node at a time out from the centre: the nodes evaluated,
    their ``w f`` and each side's end step.  A side ends at its first ``|w f|`` below
    ``_TAIL_CUT`` of the peak so far, and its nodes beyond are not evaluated."""
    nodes, values, peak = [], [], 0.0
    ends = [len(_build_level(0)) // 2 + 1] * 2  # past the last step: no end yet
    for i, node in enumerate(_build_level(0)):
        side, k = (i + 1) & 1, (i + 1) >> 1  # the centre is step 0 of side 1; then side 0, 1
        if k < ends[side]:
            [wf] = level_values((node,))
            nodes.append(node)
            values.append(wf)
            size = abs(wf)
            if size > peak:
                peak = size
            elif size < _TAIL_CUT * peak:
                ends[side] = k
    return nodes, values, tuple(ends)


def _refine(
    level_values: Callable[[Sequence[_Node]], list[float]], tol: float, kernel: bool
) -> QuadratureResult:
    """Run the level refinement; ``level_values(nodes)`` gives ``w f`` at each of ``nodes``.

    It is called once a level, but one node at a time on a kernel's level 0.
    A built-in kernel (``kernel``) cuts its tails at level 0, estimates the
    error of ``T_l`` from the last three levels and stops at ``tol * |T_l|``;
    ``integrate01`` keeps every interior node, estimates the error of ``T_l``
    by ``|T_l - T_{l-1}|`` and stops at ``tol`` (see the module docstring).
    """
    tol = positive_real(tol, "tol")
    phi: list[float] = []
    sums: list[float] = []  # T_0, T_1, ..., each level's sum
    err = math.inf
    mass = 0.0  # sum |w f|, added in node order
    ends = None  # integrate01's: every interior node; a kernel's level 0 sets its two
    for level in range(MAX_LEVEL + 1):
        if kernel and not level:
            nodes, values, ends = _level_zero(level_values)
        else:
            nodes = _nodes(level, ends)
            values = level_values(nodes)
        if not all(map(math.isfinite, values)):  # every weight is at most pi/4: f is not finite
            wf, t = next((wf, node[0]) for wf, node in zip(values, nodes) if not math.isfinite(wf))
            raise EvaluationError(f"integrand returned non-finite value {wf!r} at t={t!r}")
        phi += values
        mass = functools.reduce(operator.add, map(abs, values), mass)
        try:
            total = math.fsum(phi) * 2.0**-level
        except OverflowError:  # fsum's own, not a BetalabError
            raise OverflowRangeError(f"tanh-sinh level {level} overflows doubles") from None
        sums.append(total)
        floor = (16.0 if kernel else 4.0) * _EPS * 2.0**-level * mass
        if level:
            err = abs(total - sums[-2])
            if kernel:  # from level 2, quadratic convergence: the next difference ~ err^2 / far
                far = abs(total - sums[-3]) if level > 1 else 0.0
                err = max(err * (err / far) if far else err, floor)
            goal = tol * abs(total) if kernel else tol
            if err <= goal:
                break
    if not math.isfinite(floor):
        raise OverflowRangeError("tanh-sinh error bound overflows double precision")
    result = QuadratureResult(total, max(err, floor), level, len(phi))
    if err <= goal:
        return result
    raise NonConvergenceError(
        f"tanh-sinh did not reach tol={tol:g}{' relative' if kernel else ''} by level "
        f"{MAX_LEVEL} (error estimate {err:g})",
        result=result,
    )


def integrate01(f: Callable[[float], float], tol: float = DEFAULT_TOL) -> QuadratureResult:
    """Integrate ``f`` over (0, 1), refining until successive levels agree within ``tol``.

    ``tol`` is absolute, and ``error_estimate`` is the last two levels'
    difference, floored at rounding: unlike the kernels' three-level
    estimate, it still bounds the error where a non-smooth ``f`` converges
    only linearly, and an absolute ``tol`` can be met by an integral of 0.
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
        return _refine(lambda nodes: [w * f(t) for t, _, w, _, _ in nodes], tol, kernel=False)
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

    As for every kernel, ``tol`` is relative: refinement stops once the
    three-level ``error_estimate`` is at most ``tol * |value|``.  Below 0.05
    the double-exponential nodes under-resolve the endpoint singularity, so
    that region is excluded from the domain.
    """
    a, b = (x - 1.0 for x in _kernel_args(u=u, v=v))
    exp = math.exp
    return _refine(lambda nodes: [w * exp(a * lt + b * ls) for _, _, w, lt, ls in nodes],
                   tol, kernel=True)


def log_kernel_moment(u: float, tol: float = DEFAULT_TOL) -> QuadratureResult:
    """``int_0^1 t^{u-1} log(1-t) dt`` for ``u >= 0.05``.

    This is the beta derivative with respect to its second argument at v = 1.
    ``tol`` is relative, as for every kernel.
    """
    [u] = _kernel_args(u=u)
    a, exp = u - 1.0, math.exp
    return _refine(lambda nodes: [w * (exp(a * lt) * ls) for _, _, w, lt, ls in nodes],
                   tol, kernel=True)


def digamma_integral(u: float, tol: float = DEFAULT_TOL) -> QuadratureResult:
    """``int_0^1 (1 - t^u)/(1 - t) dt`` for ``u >= 0.05``.

    The integrand, ``-expm1(u log t) / s`` with ``s = 1 - t``, has a removable
    point at t = 1; the carried log and distance keep it finite and fully
    accurate there.  ``tol`` is relative, as for every kernel.
    """
    [u] = _kernel_args(u=u)
    expm1 = math.expm1
    return _refine(lambda nodes: [w * (-expm1(u * lt) / s) for _, s, w, lt, _ in nodes],
                   tol, kernel=True)


# The kernels by CLI name: the one table ``betalab integrate`` offers them from.
KERNELS = {"beta": beta_integral, "digamma": digamma_integral, "log-kernel": log_kernel_moment}
