"""Slowly convergent series: one kernel protocol, one accelerator scheme.

Each series here is summed in ascending order with compensated (Kahan-
Babuska) accumulation, terms produced by a ratio recurrence (no per-term
gamma or factorial evaluations) on a float index: integers below 2^53 are
exact doubles, so each term is the one an int index gives, and the arithmetic
stays float-only, which Python runs faster than mixed int/float.  Each term
source is a kernel: a generator that runs its recurrence and the compensated
sum in one local loop, up to the checkpoint the engine, ``_run``, sends it,
and yields its running state there.  The checkpoints are the indices the
accelerator samples, the trace rows and the stop, so the engine's own work
is done once per checkpoint, not once per term.  Two kernels serve the eight
series: the ratio kernel sums beta, beta-limit, digamma, log2 (half the
beta-limit series at u = 1/2) and Norlund's series, and the trigamma kernel
sums trigamma, trigamma-half and zeta2.  An infinite series names an
accelerator, which the engine hands the partial sum at each sample; a sample
may yield a transform, an estimate of the limit, with a residual that bounds
its error.  The engine keeps the transform with the smallest residual.

The accelerator is the Levin-Sidi d^(m) transformation (Levin & Sidi 1981;
Sidi, *Practical Extrapolation Methods*, 2003), m = 1 or 2, with the partial
sums sampled at geometric indices R_l = max(R_{l-1} + 1, floor(1.5^l)),
R_0 = 1, 19 of them up to R_18 = 1,477.  Sampling every term instead would
let rounding swamp these logarithmically convergent series after a few dozen
orders.  Its order nu models

    S_R = d + R a_R sum_i b1_i R^-i + R^2 (a_{R+1} - a_R) sum_i b2_i R^-i,

i = 0..nu-1, and is the ``d`` of these equations on samples l = 0..m nu.
*d1* (``beta``, ``beta-limit``, ``digamma``, ``log2`` and ``norlund``
whenever the series is infinite) drops the b2 sum.  *d2* (the trigamma
family: ``trigamma``, ``trigamma-half``, ``zeta2``) keeps it: their terms, a
hypergeometric factor times a harmonic-type bracket, satisfy a linear
recurrence of order 2, which d1 does not model.  Only S_R, a_R and
a_{R+1} - a_R are read at each R_l, so the forward difference is computed at
the checkpoints alone.

No system is solved: the W^(m)-algorithm (Sidi 1979; Ford & Sidi 1987)
updates every order as a sample arrives.  With t = 1/R its columns are
g_1 = R a_R (scaled by a_1 for d1, so that tiny terms cannot overflow 1/g_1)
and, for d2, g_2 = R^2 (a_{R+1} - a_R) and g_{k+2} = t g_k.  The entry of
level p from sample j holds a functional L_p^(j) applied to S, 1, g_{p+2} and
g_{p+3}, written (A, B, x, y), and t_j.  Level 0 is
(S / g_1, 1 / g_1, g_2 / g_1, t), and level p is built from U, level p - 1 at
j + 1, and Lo, level p - 1 at j:

    A = (A_U - A_Lo) / D,   B alike,   x = (y_U - y_Lo) / D,
    y = (t_{j+p} x_U - t_j x_Lo) / D + y of level p - 2 at j + 1 (0 at p = 1),

with D = t_{j+p} - t_j for d1, which needs no x or y, and D = x_U - x_Lo for
d2.  Order nu's transform is A / B at level m nu, up to order 18 for d1 and
order 9 for d2.  A zero D makes its entry nan, and every order built on it is
skipped, as is an order whose B is 0 (order 1 of B(1/2, 1)).  A zero first
term (literal trigamma-half) makes level 0 of the first sample infinite;
level 1 there is its limit, (S / g_2, 1 / g_2, 0, t) of that sample.

The residual is 8 times the larger of the last two differences between
successive transforms, never below the rounding floor that the transforms
cannot see: 8 ulps of ``max(|value|, sum |a_n| / |div|) + |base|`` for the
sum, and 4 ulps of ``|value|`` per argument-reduction step, plus ``|base|``
where the steps add to it.  Measured against 30-digit references it bounds
the real error.  The accelerator is done after the last sample: past it
rounding grows faster than the transform gains (order 10 of d2 would take
3,325 terms).  Terms fall like n^-(u+1): at u = 1/2 (log2, trigamma-half,
zeta2) they crawl, and in the window below like n^-7, meeting the default
tol in 11 to 291 terms.

Under tail correction (the default) a run stops with ``tolerance_met`` once
the best residual is at most ``ctrl.tol``, and with ``precision_limit`` when
its accelerator is done; ``value`` is the best transform and
``tail_estimate`` its residual.  Without it the accelerator runs to its own
end while the kernel sums on, and ``value`` is the plain compensated sum, with
``tail_estimate = |best transform - value| + residual``, a bound on
``|value - limit|`` by the triangle inequality.

A run stops with ``max_terms`` at ``ctrl.max_terms``.  Unless it is a d2
series, it stops with ``exact_termination`` at its first zero term: a
rising/falling factor vanished, so all later terms vanish too.  (A d2 series
may open with a zero term: literal trigamma-half and zeta2.)  Such finite
series take no accelerator, and their ``tail_estimate`` is the rounding
floor; one cut short by ``max_terms`` adds the terms it left out, at most 6.
The step rule, decided in ``_steps`` alone: beta, beta-limit, digamma
(beta-limit's summand negated) and Norlund (its x) sum with u in the window
(5, 6].  A u above it steps down into it one unit at a time by its family's
recurrence, an integer to 6; below it, but for Norlund's, u steps up alike
unless it is an integer >= 0, whose series is finite.  Beta then steps v
above 2 down into (1, 2], unless u = 1.  Each step folds into ``base`` or
``div`` and counts in ``reductions``; arguments above 1e6 raise DomainError.
A step up may round u onto an integer (u below 2^-53, or 1 - 2^-53), whose
finite sum is exact, the step's error below an ulp of the result.  Trigamma
takes its five steps up at once: its kernel runs at exactly 5 + u.

Two series families sum an inner reciprocal-odd sum whose published lower
index is ambiguous by one; both readings are first-class here as the
``literal`` (inner k starts at 1) and ``corrected`` (k starts at 0)
conventions.  The two differ by exactly ``4 log 2``.  Trigamma-half (and
so zeta2) is the trigamma series at u = 1/2, whose bracket is twice the inner
sum; the literal convention starts that bracket at -2.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Callable, Generator, Mapping

from .errors import DomainError, OverflowRangeError, Record, finite_real, integer, positive_real

__all__ = [
    "SeriesControl",
    "SeriesResult",
    "TraceRow",
    "EXACT_TERMINATION",
    "TOLERANCE_MET",
    "MAX_TERMS",
    "PRECISION_LIMIT",
    "TERMINATIONS",
    "LITERAL",
    "CORRECTED",
    "CONVENTIONS",
    "beta_series",
    "beta_limit_series",
    "digamma_series",
    "log2_series",
    "norlund_diff",
    "trigamma_series",
    "trigamma_half_series",
    "zeta2_series",
    "trace",
    "SERIES",
]

EXACT_TERMINATION = "exact_termination"
TOLERANCE_MET = "tolerance_met"
MAX_TERMS = "max_terms"
PRECISION_LIMIT = "precision_limit"
TERMINATIONS = (EXACT_TERMINATION, TOLERANCE_MET, PRECISION_LIMIT, MAX_TERMS)

LITERAL = "literal"
CORRECTED = "corrected"
CONVENTIONS = (LITERAL, CORRECTED)

# core_special.EULER_GAMMA, repeated so that a series command need not load core_special.
EULER_GAMMA = 0.5772156649015329

_MAX_REDUCED = 1_000_000  # the argument reductions take one step per unit
# The top of the step rule's window (5, 6]: above it the cancellation of the
# binomial terms grows like 2**u, below it they fall like n**-(u+1).
_U_MAX = 6.0

_RESIDUAL_FACTOR = 8.0  # residual = 8 x the larger of the last two transform differences
_EPS = 2.0**-52  # one ulp of 1.0
_INF = math.inf
# The indices the accelerator samples, R_l = max(R_{l-1} + 1, floor(1.5**l)) for l = 0..18.
# Their count caps d2 at order 9, the last sample at term 1,477; d1 reaches order 18 on
# them.  Order 10 of d2 would take 3,325 terms to gain one to two digits of residual.
_D2_SAMPLES = (1, 2, 3, 4, 5, 7, 11, 17, 25, 38, 57, 86, 129, 194, 291, 437, 656, 985, 1477)


class SeriesControl(Record):
    """Knobs for series summation."""

    max_terms: int = 1_000_000
    tol: float = 1e-10
    tail_correction: bool = True

    def __post_init__(self) -> None:
        integer(self.max_terms, "max_terms", 1)
        positive_real(self.tol, "tol")


class SeriesResult(Record):
    """Outcome of a series summation.

    ``value`` is the transform with the smallest residual under tail
    correction, otherwise, or while no transform has a residual,
    ``raw_partial_sum``: the plain compensated sum of the terms used.
    ``tail_estimate`` bounds ``|value - limit|``.  It is 0 only before a
    first transform has a residual: order 3 or four terms for d1, order 3 or
    11 terms for d2.  An exact termination reports the rounding floor, 8 ulps
    of ``max(|value|, sum |terms| / |div|) + |base|`` plus ``4 reductions`` ulps
    of ``|value|``, plus ``|base|`` where the steps add to it, and a finite
    series cut short by ``max_terms`` adds ``sum |terms left out| / |div|``.
    ``termination`` is one of ``exact_termination``, ``tolerance_met`` and
    ``precision_limit`` (under tail correction only) and ``max_terms``.
    ``reductions`` counts argument-reduction recurrence steps taken before
    summing (0 means the pure series path).
    """

    value: float
    raw_partial_sum: float
    tail_estimate: float
    terms_used: int
    termination: str
    reductions: int = 0


TraceRow = namedtuple("TraceRow", "n term partial_sum tail_estimate")
TraceRow.__doc__ = """One checkpoint of a traced summation, on the operation's scale:
term count ``n`` (int), then ``term``, ``partial_sum`` and ``tail_estimate`` (floats)."""


_DEFAULT_CTRL = SeriesControl()


def _floor(reductions: int, value: float, abs_sum: float, base: float, div: float) -> float:
    """The rounding that the sum and the argument reduction leave in ``value``:
    8 ulps of ``max(|value|, sum |a_n| / |div|) + |base|`` for the sum, and 4 per
    step of ``|value|``, plus ``|base|`` where the steps add to it (``|div|`` 1):
    one that scales ``div`` (beta's) divides ``base`` and the sum alike."""
    moved = abs(value) + abs(base) if abs(div) == 1.0 else abs(value)
    return _EPS * (8.0 * (max(abs(value), abs_sum / abs(div)) + abs(base))
                   + 4.0 * reductions * moved)


_NAN_ENTRY = (math.nan,) * 5


class _DTransform:
    """The d^(m) transform, m = 1 or 2, by the W^(m)-algorithm on the samples
    R_l; see module docstring.

    ``diagonal[p]`` is the entry of level p on the latest anti-diagonal,
    (A, B, x, y, t_j) for d2 and (A, B, t_j) for d1, so its length counts the
    samples taken (for d2 None stands for the infinite level 0 of a zero first
    term, and ``limit`` for level 1 above it).  ``first`` is a_1, which scales
    every R a_R of d1.  ``transforms`` holds the finite transforms so far, of
    the bare sum: the engine scales them and their spread by ``base`` and
    ``div``, so zeta2's residual stays a third of trigamma-half's.
    """

    def __init__(self, m: int) -> None:
        self.m = m
        self.diagonal: list = []
        self.transforms: list[float] = []

    def sample(
        self, n: int, partial: float, term: float, rest: float
    ) -> tuple[int, tuple[float, float] | None]:
        """Take S_n, a_n and the term's ``rest`` (d2: a_{n+1} - a_n); return the
        next index to sample (0 once done) and a ``(transform, spread)`` estimate
        or None, the spread 8 times the larger of the last two differences."""
        m, diagonal = self.m, self.diagonal
        t = 1.0 / n
        if m == 1:
            if not diagonal:
                self.first = term
            g = n * (term / self.first)  # scaled by a_1, so tiny terms cannot overflow 1/g
            row = (partial / g, 1.0 / g, t)
        else:
            g, h = n * term, n * n * rest
            limit = g == 0.0 and not diagonal
            if limit:  # level 0 is infinite; level 1 is its limit, level 0 with g_2 for g_1
                g, h = h, 0.0
            row = (partial / g, 1.0 / g, h / g, t, t) if g != 0.0 else _NAN_ENTRY
            if limit:
                self.limit, row = row, None
        e = 0.0  # y of level p - 1 on the previous anti-diagonal, which level p + 1 reads
        for p, lower in enumerate(diagonal):
            diagonal[p] = row
            if m == 1:  # d1 entries are (A, B, t_j): D = t_{j+p} - t_j needs no x or y
                a, b, _ = row
                lower_a, lower_b, tj = lower
                d = t - tj
                row = ((a - lower_a) / d, (b - lower_b) / d, tj)
            elif lower is None:
                row = self.limit
            else:
                a, b, x, y, _ = row
                lower_a, lower_b, lower_x, lower_y, tj = lower
                d = x - lower_x
                row = _NAN_ENTRY if d == 0.0 else (
                    (a - lower_a) / d, (b - lower_b) / d, (y - lower_y) / d,
                    (t * x - tj * lower_x) / d + e, tj,
                )
                e = lower_y
        diagonal.append(row)
        taken = len(diagonal)
        estimate = None
        if taken > 1 and (taken - 1) % m == 0:  # level m nu completes order nu
            transform = row[0] / row[1] if row[1] != 0.0 else math.nan
            if math.isfinite(transform):  # else the order is singular: skip
                transforms = self.transforms
                transforms.append(transform)
                if len(transforms) >= 3:
                    d1, d2, d3 = transforms[-3:]
                    estimate = (d3, _RESIDUAL_FACTOR * max(abs(d3 - d2), abs(d2 - d1)))
        return (_D2_SAMPLES[taken] if taken < len(_D2_SAMPLES) else 0), estimate


def _bound(raw: float, best: float, residual: float) -> float:
    """``|best - raw| + residual``, which bounds ``|raw - limit|``; 0 without a residual."""
    return abs(best - raw) + residual if residual < math.inf else 0.0


def _run(
    summand: _Summand, ctrl: SeriesControl | None, every: int = 0
) -> tuple[SeriesResult, tuple[TraceRow, ...]]:
    """Sum a validated series under ``ctrl``; see module docstring.

    The engine sums ``base + sum(terms) / div``.  ``div`` divides rather than
    scales because ``x * (1/3)`` and ``x / 3`` differ for about a third of
    doubles, and zeta2 must stay exactly one third of its parent series.
    The summand's kernel adds the terms itself (see :data:`_Summand`); the
    engine sends it each checkpoint in turn, the smallest of the next sample,
    the next trace row and the stop, and does its accelerator, tolerance,
    stop and trace work there alone.  Trace rows carry the current residual
    under tail correction, and the bound on the partial sum without it.
    """
    if ctrl is None:
        ctrl = _DEFAULT_CTRL
    elif not isinstance(ctrl, SeriesControl):
        raise DomainError(f"ctrl must be a SeriesControl or None, got {ctrl!r}")
    kernel, base, div, reductions, m = summand
    correct = ctrl.tail_correction
    tol = ctrl.tol if correct else -math.inf  # without tail correction only max_terms stops
    max_terms = ctrl.max_terms
    stop_n = max_terms  # lowered to n when the accelerator is done under tail correction
    next_row = every or max_terms + 1  # the next trace row; past the stop without rows
    next_sample = 0  # the next index the accelerator samples; 0: none
    if m:
        accel = _DTransform(m)
        next_sample = 1
    best = math.nan  # the transform with the smallest residual so far
    best_residual = math.inf
    residual = 0.0  # the latest transform's
    termination = MAX_TERMS
    rows: list[TraceRow] = []
    send = kernel.send
    next(kernel)
    while True:
        target = min(stop_n, next_row, next_sample or stop_n)
        count, s, comp, abs_sum, term, rest = send(float(target))
        n = int(count)
        if n < target:  # the kernel met a term it does not add
            if term == 0.0:
                termination = EXACT_TERMINATION
                best_residual = math.inf  # the sum is exact
                break
            raise OverflowRangeError(f"series term {n + 1} overflows double precision")
        if n == next_sample:
            next_sample, estimate = accel.sample(n, s + comp, term, rest)
            if estimate is not None:
                transform, spread = estimate
                transform = base + transform / div
                residual = max(spread / abs(div), _floor(reductions, transform, abs_sum, base, div))
                if residual < best_residual:
                    best, best_residual = transform, residual
            if not next_sample and correct:
                stop_n = n
        if n == next_row:
            next_row += every
            partial = base + (s + comp) / div
            tail = residual if correct else _bound(partial, best, best_residual)
            rows.append(TraceRow(n, term / div, partial, tail))
        if best_residual <= tol:
            termination = TOLERANCE_MET
            break
        if n >= stop_n:
            if n < max_terms:
                termination = PRECISION_LIMIT
            break
    raw = base + (s + comp) / div
    if correct and best_residual < math.inf:
        value, tail = best, best_residual
    else:
        value, tail = raw, _bound(raw, best, best_residual)
    if termination == EXACT_TERMINATION or (not m and termination == MAX_TERMS):
        # A finite sum, bounded by its rounding and the terms a cut left out,
        # which the kernel hands over one checkpoint each.
        left = 0.0
        if termination == MAX_TERMS:
            while math.isfinite(left):
                count += 1.0
                term, rest = send(count)[4:]
                if term == 0.0:
                    break
                left += abs(term) + abs(rest)
        tail = left / abs(div) + _floor(reductions, raw, abs_sum, base, div)
    if not (math.isfinite(value) and math.isfinite(tail)):
        raise OverflowRangeError("series value or its error bound overflows double precision")
    return SeriesResult(value, raw, tail, n, termination, reductions), tuple(rows)


# --- kernels: term recurrences fused with the compensated sum ------------
#
# Each kernel is a generator that runs its term recurrence on a float index
# and adds every term to s + comp, Neumaier's compensated sum, in one local
# loop, with sum |a_n| beside it.  Primed by next(), it is sent a checkpoint,
# the float index to sum up to, and yields its state there:
# (n, s, comp, sum |a_n|, a_n, rest).  The ratio kernel stops short of the
# checkpoint at a term it does not add, a zero term, where the series is
# finite, or a non-finite one, and yields that term as a_n with n uncounted.
# The trigamma kernel adds every term.

_SPLIT = 134217729.0  # 2**27 + 1, Dekker's splitting constant


def _div_rest(a: float, b: float, q: float) -> float:
    """Rounding remainder ``(a - q*b)/b`` of the division ``q = fl(a/b)``.

    Dekker's split recovers q*b exactly without fused multiply-add, so the
    returned value is the sub-ulp part of a/b that the double q dropped.
    """
    p = q * b
    qh = q * _SPLIT
    qh = qh - (qh - q)
    ql = q - qh
    bh = b * _SPLIT
    bh = bh - (bh - b)
    bl = b - bh
    err = ((qh * bh - p) + qh * bl + ql * bh) + ql * bl
    return ((a - p) - err) / b


def _ratio_kernel(
    u: float, v: float, q: float = 0.0, start: float = 1.0
) -> Generator[tuple, float, None]:
    """r_j / (j+v) for j = start, start+1, ..., r_j = r_{j-1} (j-u)/(j+q), r_{start-1} = 1.

    At q = 0 and start = 1 the terms are (1-u)_n / (n! (n+v)); at (x, 1, a, 0)
    they are Norlund's terms negated, bit for bit, as rounding is
    sign-symmetric and ``_div_rest`` odd.  Multiply-before-divide keeps r
    exact at integer u (binomial values), and the division remainder,
    ``rest``, rides along in ``comp`` so the finite integer-u sums stay
    correct to the last bit despite their large internal cancellation.
    """
    r = 1.0
    shift = start - 1.0  # term n has index j = n + shift
    j = shift
    s = comp = abs_sum = term = rest = 0.0
    target = yield
    while True:
        end = target + shift
        while j < end:
            k = j + 1.0
            r = r * (k - u) / (k + q)
            b = k + v
            term = r / b
            rest = _div_rest(r, b, term)
            size = abs(term)
            if not 0.0 < size < _INF:
                break
            j = k
            t = s + term
            abs_sum += size
            if abs(s) >= size:
                comp += (s - t) + term
            else:
                comp += (term - t) + s
            s = t
            comp += rest
        target = yield j - shift, s, comp, abs_sum, term, rest


def _trigamma_kernel(
    u: float, d: float = 0.0, shift: float = 0.0
) -> Generator[tuple, float, None]:
    """(1-x)_n/(n n!) * [psi(n+1-x) - psi(1-x) + d] at x = shift + u, the
    bracket grown by 1/(n-x) from ``d``.

    n - x is formed as (n - shift) - u, one rounding: an integer ``shift``
    moves the argument exactly, and x is no integer for 0 < u < 1.  ``rest``
    is the forward difference a_{n+1} - a_n that d2 reads, computed at the
    checkpoints alone.  It comes from the recurrence, as accurate relative to
    itself as a_n is; subtracting two rounded terms would add a few ulps of
    a_n, about n times more, and cost one to two digits.  Zero terms are
    added: literal trigamma-half opens with one.  At shift 5 the terms change
    sign, so the sum compares |s| with |a_n| and keeps sum |a_n|.  No term
    overflows (|a_n| <= (21 + H_n) / n), so the loop reaches its checkpoint.
    """
    r = 1.0
    n = s = comp = abs_sum = term = 0.0
    target = yield
    while True:
        while n < target:
            k = n + 1.0
            ku = (k - shift) - u
            r *= ku / k
            d += 1.0 / ku
            term = (r / k) * d
            size = term if term >= 0.0 else -term
            n = k
            t = s + term
            abs_sum += size
            if (s if s >= 0.0 else -s) >= size:
                comp += (s - t) + term
            else:
                comp += (term - t) + s
            s = t
        diff = r * (n - d * (n * (1.0 + shift + u) + 1.0)) / (n * (n + 1.0) ** 2)
        target = yield n, s, comp, abs_sum, term, diff


# --- term sources: validate parameters, say what the engine sums ----------


_Summand = namedtuple("_Summand", "kernel base div reductions m", defaults=(0.0, 1.0, 0, 0))
_Summand.__doc__ = """A validated series: the engine sums ``base + sum(terms) / div``.

``kernel`` is a kernel generator over the terms, ``base`` (0.0) and ``div``
(1.0) floats, ``reductions`` (0) and ``m`` (0) ints.  A reduction step adds
to ``base`` where ``|div|`` is 1 and scales ``div`` otherwise (beta's), as
:func:`_floor` charges it.  ``m`` is the order of
the d^(m) transform that extrapolates an infinite series, 1 or 2, and 0 for a
finite one.  The trigamma kernel, of the d2 series, yields the forward
difference ``a_{n+1} - a_n`` as ``rest``, carries no rounding remainder and
adds every term, zeros included; the ratio kernel folds its ``rest``, a
rounding remainder, into ``comp`` and ends at its first zero or non-finite term.
"""


def _steps(
    name: str, param: str, u: float, acc: float, down: Callable, up: Callable | None = None,
    top: float = _U_MAX,
) -> tuple[float, float, int, int]:
    """Step ``u`` into the window (top - 1, top], one unit at a time: down from
    above, an integer to ``top``, and, given ``up``, up from below unless u is
    an integer >= 0.  ``acc = down(acc, u)`` folds a step down, u already
    lowered, and ``acc = up(acc, u)`` a step up, u not yet raised.  Return the
    reduced u, ``acc``, the step count and ``m``: 0 where u is an integer >= 0,
    whose series is finite, else 1."""
    if u > _MAX_REDUCED:
        raise DomainError(f"{name} supports {param} <= {_MAX_REDUCED}, got {u!r}")
    steps = 0
    while u > top:
        u -= 1.0
        acc = down(acc, u)
        steps += 1
    while up is not None and u <= top - 1.0 and not (u >= 0.0 and u.is_integer()):
        acc = up(acc, u)
        u += 1.0
        steps += 1
    return u, acc, steps, 0 if u >= 0.0 and u.is_integer() else 1


def _beta(u: float, v: float) -> _Summand:
    u0 = u = positive_real(u, "u")
    v0 = v = positive_real(v, "v")
    # B(u, v) = B(u-1, v) (u-1)/(u+v-1), and alike in v: u into (5, 6], then v into (0, 2].
    # ``div`` gathers the inverse factors, so B(reduced u, v) / div is B(u, v); stepping
    # down, it takes (u+v)/u without forming u + v, which rounds v alike for all u of a binade.
    u, div, reductions, m = _steps("beta_series", "u", u, 1.0, lambda div, u: div + div * v / u,
                                   lambda div, u: div * (u / (u + v)))
    if div < 2.0**-1022 or v * div == 0.0:  # B ~ 1/u is within v of overflow, or 1/(v div) past it
        raise OverflowRangeError(f"beta_series overflows at u = {u0!r}, v = {v0!r}")
    # A finite sum cancels against its base 1/v as v grows, unless it is
    # empty: B(1, v) = 1/v keeps any v.
    if u != 1.0:
        v, div, steps, _ = _steps(
            "beta_series", "v", v, div, lambda div, v: div * ((u + v) / v), top=2.0)
        reductions += steps
    if div > 2.0**1016:  # B(u, v) >= B(6, 2) / div = 1 / (42 div) may leave the normal range
        raise OverflowRangeError(f"beta_series underflows at u = {u0!r}, v = {v0!r}")
    return _Summand(_ratio_kernel(u, v), base=1.0 / (v * div), div=div, reductions=reductions, m=m)


def _limit(name: str, u: float) -> _Summand:
    # L(u) = L(u-1) - 1/(u-1), with L the series: -(psi(u) + gamma).
    u, acc, reductions, m = _steps(name, "u", positive_real(u, "u"), 0.0,
                                   lambda acc, u: acc - 1.0 / u, lambda acc, u: acc + 1.0 / u)
    return _Summand(_ratio_kernel(u, 0.0), base=acc, reductions=reductions, m=m)


def _beta_limit(u: float) -> _Summand:
    return _limit("beta_limit_series", u)


def _digamma(u: float) -> _Summand:
    # psi(u) = -gamma - L(u), with L beta-limit's series: its summand negated.
    limit = _limit("digamma_series", u)
    return limit._replace(base=-limit.base - EULER_GAMMA, div=-1.0)


def _log2() -> _Summand:
    return _Summand(_ratio_kernel(0.5, 0.0), div=2.0, m=1)


def _norlund(x: float, a: float) -> _Summand:
    x = finite_real(x, "x")
    a = positive_real(a, "a")
    if x + a <= 0.0:
        raise DomainError(f"norlund_diff requires x + a > 0, got x={x!r}, a={a!r}")
    # N(x, a) = N(x-1, a) + 1/(x-1+a); div = -1 undoes the kernel's negation.
    x, acc, reductions, m = _steps("norlund_diff", "x", x, 0.0, lambda acc, x: acc + 1.0 / (x + a))
    return _Summand(_ratio_kernel(x, 1.0, a, 0.0), base=acc, div=-1.0, reductions=reductions, m=m)


def _trigamma(u: float) -> _Summand:
    u = finite_real(u, "u")
    if not 0.0 < u < 1.0:
        raise DomainError(f"trigamma_series requires 0 < u < 1, got {u!r}")
    # psi'(u) = sum_{j<5} 1/(u+j)^2 + psi'(u+5): the kernel sums at exactly 5 + u.
    base = math.fsum(w * w for w in [1.0 / (u + j) for j in (0.0, 1.0, 2.0, 3.0, 4.0)])
    return _Summand(_trigamma_kernel(u, 0.0, _U_MAX - 1.0), base=base, reductions=5, m=2)


def _trigamma_half(convention: str = CORRECTED) -> _Summand:
    if convention not in CONVENTIONS:
        raise DomainError(f"convention must be one of {CONVENTIONS}, got {convention!r}")
    # The term 2 C(2n,n)/(n 4^n) * sum_{k<n} 1/(2k+1) is the trigamma term at
    # u = 1/2, bit for bit: there r_n = C(2n,n)/4^n, and the bracket
    # sum_{k<n} 2/(2k+1) is twice the inner sum, an exact scaling.  The literal
    # inner sum starts at k = 1, without k = 0's 1, so its bracket starts at -2.
    return _Summand(_trigamma_kernel(0.5, 0.0 if convention == CORRECTED else -2.0), m=2)


def _zeta2(convention: str = CORRECTED) -> _Summand:
    return _trigamma_half(convention)._replace(div=3.0)


# The one list of series: name -> term source.  trace() looks a series up here,
# and the CLI reads each series' parameters from its term source's code object.
SERIES: dict[str, Callable[..., _Summand]] = {
    "beta": _beta,
    "beta-limit": _beta_limit,
    "digamma": _digamma,
    "log2": _log2,
    "norlund": _norlund,
    "trigamma": _trigamma,
    "trigamma-half": _trigamma_half,
    "zeta2": _zeta2,
}


# --- public operations ----------------------------------------------------


def beta_series(u: float, v: float, ctrl: SeriesControl | None = None) -> SeriesResult:
    """B(u, v) as ``1/v + sum_{n>=1} (1-u)_n / ((n+v) n!)``.

    Terminates exactly for positive integer u (the rising factor vanishes).
    u, then v, step by the module's step rule with ``B(u, v) = B(u-1, v)
    (u-1)/(u+v-1)`` and its twin in v, so u, v <= 1e6, except v at u = 1, whose
    empty sum B = 1/v keeps any v.  u below about 2.2e-308 v, a B(u, v) past
    double range or near the subnormal range raises :class:`OverflowRangeError`.
    """
    return _run(_beta(u, v), ctrl)[0]


def beta_limit_series(u: float, ctrl: SeriesControl | None = None) -> SeriesResult:
    """``sum_{n>=1} (1-u)_n / (n n!)``: the v->0 limit of ``B(u,v) - 1/v``.

    Terminates exactly for positive integer u.  u steps by the module's step
    rule with ``L(u) = L(u-1) - 1/(u-1)``, so u <= 1e6.
    """
    return _run(_beta_limit(u), ctrl)[0]


def digamma_series(u: float, ctrl: SeriesControl | None = None) -> SeriesResult:
    """psi(u) as ``-gamma - sum_{n>=1} (1-u)_n / (n n!)``.

    This is the beta-limit series negated, with its steps
    (``psi(y+1) = psi(y) + 1/y``), so u <= 1e6.
    """
    return _run(_digamma(u), ctrl)[0]


def log2_series(ctrl: SeriesControl | None = None) -> SeriesResult:
    """log 2 as ``sum_{n>=1} C(2n,n) / (n 2^{2n+1})`` (terms ~ n^-1.5).

    It is summed as half the beta-limit series at u = 1/2, unshifted, whose terms
    (1/2)_n / (n n!) are twice these: that series is -psi(1/2) - gamma = 2 log 2.
    """
    return _run(_log2(), ctrl)[0]


def norlund_diff(x: float, a: float, ctrl: SeriesControl | None = None) -> SeriesResult:
    """psi(x+a) - psi(a) as ``sum_{k>=1} (-1)^{k+1}/k falling(x,k)/rising(a,k)``.

    Requires ``a > 0`` and ``x + a > 0``; terminates exactly for integer
    x >= 0 (falling factor vanishes at k = x + 1).  x above 6 steps down by
    the module's step rule with ``N(x, a) = N(x-1, a) + 1/(x-1+a)``, so x <= 1e6.
    """
    return _run(_norlund(x, a), ctrl)[0]


def trigamma_series(u: float, ctrl: SeriesControl | None = None) -> SeriesResult:
    """psi'(u) for 0 < u < 1 by termwise differentiation of the psi series.

    Term n is ``(1/(n n!)) (1-x)_n [psi(n+1-x) - psi(1-x)]`` at x = 5 + u,
    with the bracket maintained incrementally (adds ``1/(n-x)`` per step), and
    ``psi'(u) = sum_{j<5} 1/(u+j)^2 + psi'(u+5)``.  u below about 1.3e-154,
    where 1/u^2 overflows, raises :class:`OverflowRangeError`.
    """
    return _run(_trigamma(u), ctrl)[0]


def trigamma_half_series(
    convention: str = CORRECTED, ctrl: SeriesControl | None = None
) -> SeriesResult:
    """psi'(1/2) as ``sum_n 2 C(2n,n)/(n 4^n) * sum_k 1/(2k+1)``.

    ``convention`` picks the inner sum's lower index: ``corrected`` starts at
    k = 0 (sums to pi^2/2), ``literal`` starts at k = 1 (lands 4 log 2 lower).
    """
    return _run(_trigamma_half(convention), ctrl)[0]


def zeta2_series(convention: str = CORRECTED, ctrl: SeriesControl | None = None) -> SeriesResult:
    """zeta(2) as one third of the trigamma-at-one-half series."""
    return _run(_zeta2(convention), ctrl)[0]


def trace(
    name: str, params: dict, ctrl: SeriesControl | None = None, every: int = 0
) -> tuple[SeriesResult, tuple[TraceRow, ...]]:
    """Run series ``name`` with ``params``, recording a row every ``every`` terms.

    ``params`` maps parameters of the series' term source in :data:`SERIES`
    to values: each one it requires, and any of those with a default (which
    applies when left out, as in the public function).  Raises
    :class:`DomainError` for an unknown name, for ``params`` that is not such
    a mapping, for an ``every`` that is not an integer >= 0, or for a ``ctrl``
    that is not a SeriesControl or None.
    """
    if not (isinstance(name, str) and name in SERIES):
        raise DomainError(f"unknown series {name!r}; choose from {sorted(SERIES)}")
    source = SERIES[name]
    code = source.__code__
    expected = list(code.co_varnames[: code.co_argcount])
    required = expected[: len(expected) - len(source.__defaults__ or ())]
    if not (isinstance(params, Mapping) and set(required) <= set(params) <= set(expected)):
        raise DomainError(f"series {name!r} takes parameters {expected}, got {params!r}")
    return _run(source(**params), ctrl, integer(every, "every", 0))
