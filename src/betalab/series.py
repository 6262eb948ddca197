"""Slowly convergent series: Levin-u or d2 extrapolation, or a power-law tail model.

Each series here is summed in ascending order with compensated (Kahan-
Babuska) accumulation, terms produced by a ratio recurrence (no per-term
gamma or factorial evaluations).  Three engines turn the partial sums into a
value.

*Levin path* (``beta``, ``beta-limit``, ``digamma``, ``log2`` and
``norlund`` whenever the series is infinite).  The partial sums s_0, s_1, ...
feed Levin's u-transform (Levin 1973; Weniger 1989) with beta = 1 and the
remainder estimates ``omega_j = (j + 1) a_j``:

    L_k = sum_j c_j s_j / sum_j c_j,
    c_j = (-1)^j C(k, j) ((j + 1)/(k + 1))^(k - 1) / omega_j,   j = 0..k.

The residual after K terms is 8 times the largest of the last three
differences between successive transforms; measured against 40-digit
references it bounds the real error of the transform (plain differences
under-read it by up to three orders of magnitude).  The run stops with
``tolerance_met`` once the residual is at most ``ctrl.tol``, and with
``precision_limit`` once six transforms in a row found no smaller residual or
40 terms were taken: past that point the transform only amplifies rounding.
``value`` is then the transform with the smallest residual and
``tail_estimate`` that residual.

*d2 path* (the trigamma family: ``trigamma``, ``trigamma-half``, ``zeta2``).
Their terms, a hypergeometric factor times a harmonic-type bracket, satisfy a
linear recurrence of order 2 and converge logarithmically, which Levin-u
cannot extrapolate.  The Levin-Sidi d2 transformation (Levin & Sidi 1981;
Sidi, *Practical Extrapolation Methods*, 2003) can, with the partial sums
sampled at geometric indices R_l = max(R_{l-1} + 1, floor(1.5^l)), R_0 = 1.
Only S_R, a_R and a_{R+1} - a_R are kept at each R_l.  The transform of order
nu solves the 2 nu + 1 equations, one per sample l = 0..2 nu,

    S_R = d + R a_R sum_i b1_i R^-i + R^2 (a_{R+1} - a_R) sum_i b2_i R^-i,

i = 0..nu-1, for ``d`` by Gaussian elimination with partial pivoting.  The
residual is 8 times the larger of the last two differences between successive
orders, never below 8 ulps of the transform; measured against 30-digit
references on u in (0, 1) it bounds the real error.  The run stops with
``tolerance_met`` once the residual is at most ``ctrl.tol``, and with
``precision_limit`` at order 9, after 1,477 terms: past it rounding in the
solve grows faster than the transform gains (order 10 would take 3,325 terms).
Near u -> 0 the series gets hard, and the run ends there with a
``precision_limit`` residual well above ``ctrl.tol``.  ``value`` and
``tail_estimate`` are chosen as on the Levin path.

*Power-law path* (every finite series, and every series under
``tail_correction=False``).  The engine fits a power law to the recorded term
magnitudes,

    p_hat = log2(a_{N/2} / a_N),        tail ~= a_N * N / (p_hat - 1),

and, when ``p_hat > 1.05`` and tail correction is on, adds that estimate to
the partial sum.  It stops with ``tolerance_met`` when the estimated tail fell
to ``ctrl.tol``; that estimate is the size of a correction, not a bound.

A run stops with ``exact_termination`` when a term is exactly zero (a
rising/falling factor vanished, so all later terms vanish too; such finite
series always take the power-law path, whose tail estimate is 0 there), and
with ``max_terms`` at ``ctrl.max_terms``.  Finite sums cancel more as their
argument grows, so beta, beta-limit and Norlund first reduce large arguments
by their recurrences, one step per unit, and count the steps in
``reductions``.

Two series families sum an inner reciprocal-odd sum whose published lower
index is ambiguous by one; both readings are first-class here as the
``literal`` (inner k starts at 1) and ``corrected`` (k starts at 0)
conventions.  The two differ by exactly ``4 log 2``.
"""

from __future__ import annotations

import inspect
import math
from array import array
from dataclasses import dataclass
from typing import Callable, Iterator, Mapping, NamedTuple

from .core_special import EULER_GAMMA
from .errors import DomainError, OverflowRangeError, finite_real, integer, positive_real

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

_MIN_FIT_TERMS = 8  # no tail fit before this many recorded magnitudes
_MIN_DECAY = 1.05  # power-law exponent below which the tail model is unusable
_MAX_REDUCED = 1_000_000  # the argument reductions take one step per unit
# Integer u up to here keeps the exact finite sums of beta and beta-limit: their
# binomial terms, times the next factor, stay below 2**53, so the sums carry no
# rounding (u = 60 does: beta-limit is then 7e-3 relative off).
_EXACT_U = 50
# Other u above this step down into (5, 6]: Levin-u gains digits as u grows
# (1e-13 relative from u = 5, 6e-11 below 2), while the binomial terms' size,
# and so the cancellation in their sum, grows like 2**u.
_U_MAX = 6.0
# Norlund's x above this steps down into (9, 10]: its terms grow like 2**x / a.
# Integer x through 10 sums to 4e-16 relative at a = 0.5 (8e-13 at x = 20).
_NORLUND_X_MAX = 10.0

_LEVIN_MAX_TERMS = 40  # the order cap of the Levin path
_LEVIN_PATIENCE = 6  # transforms in a row without a smaller residual before it stops
_RESIDUAL_FACTOR = 8.0  # residual = 8 x the largest of the last few transform differences
_EPS = 2.0**-52  # one ulp of 1.0
# The order cap of the d2 path: order 9 takes 19 samples, the last at term 1,477.
# Order 10 would take 3,325 terms to gain one to two digits of residual.
_D2_MAX_ORDER = 9
_GPS_RATIO = 1.5  # d2 samples at R_l = max(R_{l-1} + 1, floor(1.5**l))


@dataclass(frozen=True)
class SeriesControl:
    """Knobs for series summation."""

    max_terms: int = 1_000_000
    tol: float = 1e-10
    tail_correction: bool = True

    def __post_init__(self) -> None:
        integer(self.max_terms, "max_terms", 1)
        positive_real(self.tol, "tol")


@dataclass(frozen=True)
class SeriesResult:
    """Outcome of a series summation.

    ``value`` is the best transform on the Levin and d2 paths, the
    tail-corrected sum when power-law correction applies, otherwise
    ``raw_partial_sum``, the plain compensated sum of the terms used.
    ``tail_estimate`` is the Levin or d2 residual, which bounds the error of
    ``value``, or the magnitude of the power-law tail estimate; it is 0 on
    exact termination and before any estimate exists (four terms for Levin,
    order 3 or 11 terms for d2, eight for the tail fit).  ``termination`` is
    one of ``exact_termination``, ``tolerance_met``, ``precision_limit``
    (Levin and d2 paths only) and ``max_terms``.  ``reductions`` counts
    argument-reduction recurrence steps taken before summing (beta,
    beta-limit, digamma and Norlund; 0 means the pure series path).
    """

    value: float
    raw_partial_sum: float
    tail_estimate: float
    terms_used: int
    termination: str
    reductions: int = 0


class TraceRow(NamedTuple):
    """One checkpoint of a traced summation, on the operation's scale."""

    n: int
    term: float
    partial_sum: float
    tail_estimate: float


_DEFAULT_CTRL = SeriesControl()


def _tail_fit(mags: array, n: int, last: float) -> float:
    """Signed tail estimate from the recorded magnitudes, or 0 if unusable."""
    if n < _MIN_FIT_TERMS:
        return 0.0
    a_half = mags[n // 2 - 1]
    a_n = mags[n - 1]
    if a_n <= 0.0 or a_half <= a_n:
        return 0.0
    p_hat = math.log2(a_half / a_n)
    if p_hat <= _MIN_DECAY:
        return 0.0
    return last * (n / (p_hat - 1.0))


def _levin_u(sums: list[float], inv_omega: list[float]) -> float:
    """Levin's u-transform of the partial sums ``s_0..s_k``; see module docstring.

    ``inv_omega[j]`` is ``1 / omega_j`` times any common factor.  Returns inf
    when the weights cancel to 0 (B(u, 1) does so at k = 1).
    """
    k = len(sums) - 1
    num = 0.0
    den = 0.0
    binom = 1.0  # C(k, j)
    for j in range(k + 1):
        c = binom * ((j + 1.0) / (k + 1.0)) ** (k - 1) * inv_omega[j]
        if j & 1:
            c = -c
        num += c * sums[j]
        den += c
        binom = binom * (k - j) / (j + 1)
    return num / den if den != 0.0 else math.inf


def _run_levin(
    summand: _Summand, ctrl: SeriesControl, every: int
) -> tuple[SeriesResult, tuple[TraceRow, ...]]:
    """The Levin path of :func:`_run`; see module docstring.

    Transforms and residuals are taken on the operation's scale,
    ``base + L / div``, so ``tolerance_met`` means ``tail_estimate <= tol``.
    The residual never falls below a rounding bound: a few ulps of the value
    and ``base``, plus a few more per argument-reduction step, whose rounding
    the transforms cannot see.
    """
    terms, base, div, _, reductions, _, _ = summand
    tol = ctrl.tol
    max_terms = ctrl.max_terms
    ulps = (8.0 + 4.0 * reductions) * _EPS  # the rounding bound's share of |value| + |base|
    sums: list[float] = []
    inv_omega: list[float] = []
    values: list[float] = []
    s = 0.0
    comp = 0.0
    n = 0
    first = 1.0
    best = math.nan  # the value with the smallest residual so far
    best_residual = math.inf
    best_n = 0
    residual = 0.0
    termination = MAX_TERMS
    rows: list[TraceRow] = []
    for term, resid in terms:
        if term == 0.0:  # an underflow, as finite series take the power-law path
            termination = EXACT_TERMINATION
            best_n = 0
            break
        if not math.isfinite(term):
            raise OverflowRangeError(f"series term {n + 1} overflows double precision")
        n += 1
        t = s + term
        if abs(s) >= abs(term):
            comp += (s - t) + term
        else:
            comp += (term - t) + s
        s = t
        comp += resid
        sums.append(s + comp)
        if n == 1:
            first = term
        inv_omega.append(first / (n * term))  # scaled by a_1, so tiny terms cannot overflow
        transform = _levin_u(sums, inv_omega)
        if math.isfinite(transform):  # else this order is singular: skip it
            values.append(base + transform / div)
            if len(values) >= 4:
                v1, v2, v3, v4 = values[-4:]
                spread = max(abs(v4 - v3), abs(v3 - v2), abs(v2 - v1))
                residual = max(_RESIDUAL_FACTOR * spread, ulps * (abs(v4) + abs(base)))
                if residual < best_residual:
                    best, best_residual, best_n = v4, residual, n
        if every > 0 and n % every == 0:
            rows.append(TraceRow(n, term / div, base + (s + comp) / div, residual))
        if best_n and residual <= tol:
            termination = TOLERANCE_MET
            break
        if n >= max_terms:
            break
        if n >= _LEVIN_MAX_TERMS or n - best_n >= _LEVIN_PATIENCE:
            termination = PRECISION_LIMIT
            break
    raw = base + (s + comp) / div
    if best_n == 0:  # exact termination, or stopped before a residual existed
        return SeriesResult(raw, raw, 0.0, n, termination, reductions), tuple(rows)
    return SeriesResult(best, raw, best_residual, n, termination, reductions), tuple(rows)


def _last_unknown(m: list[list[float]]) -> float:
    """Last unknown of the square system whose rows ``m`` hold the
    coefficients and then the right-hand side; nan if it is singular.

    Gaussian elimination with partial pivoting, in place.  With the wanted
    unknown last, no back substitution is needed.
    """
    size = len(m)
    for k in range(size):
        p = max(range(k, size), key=lambda i: abs(m[i][k]))
        pivot_row = m[p]
        pivot = pivot_row[k]
        if pivot == 0.0:
            return math.nan
        m[p] = m[k]
        m[k] = pivot_row
        tail = pivot_row[k + 1 :]
        for i in range(k + 1, size):
            row = m[i]
            f = row[k] / pivot
            if f != 0.0:
                row[k + 1 :] = [x - f * y for x, y in zip(row[k + 1 :], tail)]
    return m[-1][size] / m[-1][size - 1]


def _d2_transform(samples: list[tuple[int, float, float, float]]) -> float:
    """The d2 transform of order nu from 2 nu + 1 samples ``(R, S_R, a_R, da_R)``.

    Solves ``S_R = d + R a_R sum_i b1_i R^-i + R^2 da_R sum_i b2_i R^-i``
    (i = 0..nu-1) for ``d``, each coefficient column scaled to at most 1 in
    magnitude; nan when the system is singular.
    """
    nu = len(samples) // 2
    m = []
    for r, s, a, da in samples:
        inv = 1.0 / r
        row = []
        for x in (r * a, r * r * da):
            for _ in range(nu):
                row.append(x)
                x *= inv
        row += (1.0, s)
        m.append(row)
    for j in range(2 * nu):
        scale = max(abs(row[j]) for row in m)
        if scale == 0.0:
            return math.nan
        for row in m:
            row[j] /= scale
    return _last_unknown(m)


def _run_d2(
    summand: _Summand, ctrl: SeriesControl, every: int
) -> tuple[SeriesResult, tuple[TraceRow, ...]]:
    """The d2 path of :func:`_run`; see module docstring.

    Transforms and residuals are taken on the sum's scale and then divided by
    ``|div|``, so that zeta2 stays an exact third of trigamma-half; so
    ``tolerance_met`` means ``tail_estimate <= tol``.
    """
    terms, base, div, _, reductions, _, _ = summand
    scale = abs(div)
    tol = ctrl.tol
    max_terms = ctrl.max_terms
    samples: list[tuple[int, float, float, float]] = []
    transforms: list[float] = []
    next_sample = 1
    s = 0.0
    comp = 0.0
    n = 0
    best = math.nan  # the value with the smallest residual so far
    best_residual = math.inf
    best_n = 0
    residual = 0.0
    termination = MAX_TERMS
    rows: list[TraceRow] = []
    for term, diff in terms:
        n += 1
        t = s + term
        if abs(s) >= abs(term):
            comp += (s - t) + term
        else:
            comp += (term - t) + s
        s = t
        if n == next_sample:
            samples.append((n, s + comp, term, diff))
            next_sample = max(n + 1, int(_GPS_RATIO ** len(samples)))
            if len(samples) % 2 == 1 and len(samples) > 1:
                transform = _d2_transform(samples)
                if math.isfinite(transform):  # else this order is singular: skip it
                    transforms.append(transform)
                    if len(transforms) >= 3:
                        d1, d2, d3 = transforms[-3:]
                        spread = max(abs(d3 - d2), abs(d2 - d1))
                        residual = _RESIDUAL_FACTOR * max(spread, _EPS * abs(d3)) / scale
                        if residual < best_residual:
                            best, best_residual, best_n = base + d3 / div, residual, n
        if every > 0 and n % every == 0:
            rows.append(TraceRow(n, term / div, base + (s + comp) / div, residual))
        if best_n and residual <= tol:
            termination = TOLERANCE_MET
            break
        if n >= max_terms:
            break
        if len(samples) > 2 * _D2_MAX_ORDER:
            termination = PRECISION_LIMIT
            break
    raw = base + (s + comp) / div
    if best_n == 0:  # stopped before a residual existed
        return SeriesResult(raw, raw, 0.0, n, termination, reductions), tuple(rows)
    return SeriesResult(best, raw, best_residual, n, termination, reductions), tuple(rows)


def _run(
    summand: _Summand, ctrl: SeriesControl | None, every: int = 0
) -> tuple[SeriesResult, tuple[TraceRow, ...]]:
    """Sum a validated series under ``ctrl``; see module docstring.

    The engine sums ``base + sum(terms) / div``.  ``div``
    divides rather than scales because ``x * (1/3)`` and ``x / 3`` differ for
    about a third of doubles, and zeta2 must stay exactly one third of its
    parent series.  Each generated term is a ``(term, residual)`` pair:
    ``term`` is the rounded double driving all bookkeeping (counting, zero
    detection, the tail model, trace rows) and ``residual`` is the sub-ulp
    remainder of computing it, folded into the compensated accumulator so
    that exactness contracts survive heavy cancellation.  An ``accelerate``
    series under tail correction takes the Levin path (:func:`_run_levin`), a
    ``d2`` series the d2 path (:func:`_run_d2`), whose pairs hold the term's
    forward difference instead; every other run takes the power-law path
    below.
    """
    if ctrl is None:
        ctrl = _DEFAULT_CTRL
    elif not isinstance(ctrl, SeriesControl):
        raise DomainError(f"ctrl must be a SeriesControl or None, got {ctrl!r}")
    if summand.accelerate and ctrl.tail_correction:
        return _run_levin(summand, ctrl, every)
    if summand.d2:
        if ctrl.tail_correction:
            return _run_d2(summand, ctrl, every)
        summand = summand._replace(terms=((a, 0.0) for a, _ in summand.terms))
    terms, base, div, stop_on_zero, reductions, _, _ = summand
    tol = ctrl.tol
    max_terms = ctrl.max_terms
    tail_fit = _tail_fit
    mags = array("d")
    record = mags.append
    s = 0.0
    comp = 0.0
    n = 0
    tail = 0.0
    termination = MAX_TERMS
    rows: list[TraceRow] = []
    for term, resid in terms:
        if term == 0.0 and stop_on_zero:
            termination = EXACT_TERMINATION
            tail = 0.0
            break
        n += 1
        t = s + term
        if abs(s) >= abs(term):
            comp += (s - t) + term
        else:
            comp += (term - t) + s
        s = t
        if resid != 0.0:
            comp += resid
        record(abs(term))
        tail = tail_fit(mags, n, term)
        if every > 0 and n % every == 0:
            rows.append(TraceRow(n, term / div, base + (s + comp) / div, abs(tail / div)))
        if tail != 0.0 and abs(tail) <= tol:
            termination = TOLERANCE_MET
            break
        if n >= max_terms:
            break
    raw_series = s + comp
    raw = base + raw_series / div
    value = raw
    if ctrl.tail_correction and tail != 0.0:  # never on exact termination: tail is 0 there
        value = base + (raw_series + tail) / div
    return SeriesResult(value, raw, abs(tail / div), n, termination, reductions), tuple(rows)


# --- term generators (all infinite; ratio recurrences only) ---------------

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


def _shifted_ratio_terms(u: float, v: float) -> Iterator[tuple[float, float]]:
    """(1-u)_n / (n! (n+v)) built from r_n = r_{n-1} (n-u)/n.

    Multiply-before-divide keeps r exact at integer u (binomial values), and
    the division remainder rides along so the finite integer-u sums stay
    correct to the last bit despite their large internal cancellation.
    """
    r = 1.0
    n = 0
    while True:
        n += 1
        r = r * (n - u) / n
        b = n + v
        q = r / b
        yield q, _div_rest(r, b, q)


def _limit_terms(u: float) -> Iterator[tuple[float, float]]:
    """(1-u)_n / (n n!)."""
    r = 1.0
    n = 0
    while True:
        n += 1
        r = r * (n - u) / n
        q = r / n
        yield q, _div_rest(r, n, q)


def _log2_terms() -> Iterator[tuple[float, float]]:
    """C(2n,n) / (n 2^{2n+1}) via c_n = c_{n-1} (2n-1)/(2n)."""
    c = 1.0
    n = 0
    while True:
        n += 1
        c *= (2 * n - 1) / (2.0 * n)
        yield c / (2.0 * n), 0.0


def _norlund_terms(x: float, a: float) -> Iterator[tuple[float, float]]:
    """(-1)^{k+1}/k * falling(x,k)/rising(a,k)."""
    g = 1.0
    k = 0
    while True:
        k += 1
        g = g * (x - (k - 1)) / (a + (k - 1))
        q = g / k
        rest = _div_rest(g, k, q)
        yield (q, rest) if k % 2 == 1 else (-q, -rest)


# The trigamma family's generators yield (a_n, a_{n+1} - a_n) for the d2 path.
# The difference comes from the recurrence, as accurate relative to itself as
# a_n is; subtracting two rounded terms would add a few ulps of a_n, about n
# times more, and cost the transform one to two digits.


def _trigamma_terms(u: float) -> Iterator[tuple[float, float]]:
    """(1-u)_n/(n n!) * [psi(n+1-u) - psi(1-u)], the bracket grown by 1/(n-u)."""
    r = 1.0
    d = 0.0
    n = 0
    while True:
        n += 1
        r *= (n - u) / n
        d += 1.0 / (n - u)
        yield (r / n) * d, r * (n - d * (n * (1.0 + u) + 1.0)) / (n * (n + 1.0) ** 2)


def _trigamma_half_terms(include_k0: bool) -> Iterator[tuple[float, float]]:
    """2 C(2n,n)/(n 4^n) * sum of odd reciprocals; k0 term included or not."""
    c = 1.0
    inner = 0.0 if include_k0 else -1.0
    n = 0
    while True:
        n += 1
        c *= (2 * n - 1) / (2.0 * n)
        inner += 1.0 / (2 * n - 1)
        yield (2.0 * c / n) * inner, c * (n - inner * (3 * n + 2)) / (n * (n + 1.0) ** 2)


# --- term sources: validate parameters, say what the engine sums ---------


class _Summand(NamedTuple):
    """A validated series: the engine sums ``base + sum(terms) / div``.

    ``accelerate`` marks an infinite series that Levin-u extrapolates, ``d2``
    one that the d2 transform extrapolates; the terms of a ``d2`` series come
    as ``(a_n, a_{n+1} - a_n)`` pairs and carry no rounding remainder.
    """

    terms: Iterator[tuple[float, float]]
    base: float = 0.0
    div: float = 1.0
    stop_on_zero: bool = True
    reductions: int = 0
    accelerate: bool = False
    d2: bool = False


def _check_reducible(name: str, param: str, value: float) -> None:
    if value > _MAX_REDUCED:
        raise DomainError(f"{name} supports {param} <= {_MAX_REDUCED}, got {value!r}")


def _beta(u: float, v: float) -> _Summand:
    u = positive_real(u, "u")
    v = positive_real(v, "v")
    # B(u, v) = B(u-1, v) (u-1)/(u+v-1), and alike in v: u steps into (5, 6]
    # unless its finite sum is exact, then v into (0, 2].
    # ``div`` gathers the inverse factors, so B(reduced u, v) / div is B(u, v).
    _check_reducible("beta_series", "u", u)
    div = 1.0
    reductions = 0
    while _steps_down(u):
        u -= 1.0
        div *= (u + v) / u
        reductions += 1
    infinite = not u.is_integer()
    if infinite:
        _check_reducible("beta_series", "v", v)
    # A finite sum cancels against its base 1/v as v grows, unless it is empty
    # (u = 1); above the cap it keeps its v, as the loop is bounded.
    if u != 1.0 and v <= _MAX_REDUCED:
        while v > 2.0:
            v -= 1.0
            div *= (u + v) / v
            reductions += 1
    return _Summand(
        _shifted_ratio_terms(u, v), base=1.0 / (v * div), div=div,
        reductions=reductions, accelerate=infinite,
    )


def _steps_down(u: float) -> bool:
    """Whether beta's or beta-limit's u takes one more reduction step."""
    return u > _U_MAX and not (u.is_integer() and u <= _EXACT_U)


def _beta_limit(u: float) -> _Summand:
    u = positive_real(u, "u")
    _check_reducible("beta_limit_series", "u", u)
    # L(u) = L(u-1) - 1/(u-1), with L the series: -(psi(u) + gamma).
    acc = 0.0
    reductions = 0
    while _steps_down(u):
        u -= 1.0
        acc -= 1.0 / u
        reductions += 1
    return _Summand(
        _limit_terms(u), base=acc, reductions=reductions, accelerate=not u.is_integer()
    )


def _digamma(u: float) -> _Summand:
    y = positive_real(u, "u")
    _check_reducible("digamma_series", "u", u)
    # psi(y+1) = psi(y) + 1/y, one step per unit, into [1, 2): the series is
    # empty at y = 1, and Levin-u needs y well away from 0.
    acc = 0.0
    reductions = 0
    while y >= 2.0:
        y -= 1.0
        acc += 1.0 / y
        reductions += 1
    return _Summand(
        _limit_terms(y), base=acc - EULER_GAMMA, div=-1.0, reductions=reductions,
        accelerate=y != 1.0,
    )


def _log2() -> _Summand:
    return _Summand(_log2_terms(), accelerate=True)


def _norlund(x: float, a: float) -> _Summand:
    x = finite_real(x, "x")
    a = positive_real(a, "a")
    if x + a <= 0.0:
        raise DomainError(f"norlund_diff requires x + a > 0, got x={x!r}, a={a!r}")
    _check_reducible("norlund_diff", "x", x)
    # N(x, a) = N(x-1, a) + 1/(x-1+a).
    acc = 0.0
    reductions = 0
    while x > _NORLUND_X_MAX:
        x -= 1.0
        acc += 1.0 / (x + a)
        reductions += 1
    return _Summand(
        _norlund_terms(x, a), base=acc, reductions=reductions,
        accelerate=not (x >= 0.0 and x.is_integer()),
    )


def _trigamma(u: float) -> _Summand:
    u = finite_real(u, "u")
    if not 0.0 < u < 1.0:
        raise DomainError(f"trigamma_series requires 0 < u < 1, got {u!r}")
    return _Summand(_trigamma_terms(u), d2=True)


def _trigamma_half(convention: str) -> _Summand:
    if convention not in CONVENTIONS:
        raise DomainError(f"convention must be one of {CONVENTIONS}, got {convention!r}")
    return _Summand(
        _trigamma_half_terms(include_k0=(convention == CORRECTED)),
        stop_on_zero=False,  # the literal convention's first term is 0 but later ones are not
        d2=True,
    )


def _zeta2(convention: str) -> _Summand:
    return _trigamma_half(convention)._replace(div=3.0)


# The one list of series: name -> term source.  trace() looks a series up here,
# and the CLI reads each series' parameters from its term source's signature.
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
    Other u above 6, and integer u above 50, are first reduced one step per
    unit with ``B(u, v) = B(u-1, v) (u-1)/(u+v-1)``, so u <= 1e6; v above 2
    is then reduced alike, so v <= 1e6 when the series is infinite.  A finite
    series keeps a v above 1e6, and u = 1 (B = 1/v) keeps any v.
    ``reductions`` counts the steps.
    """
    return _run(_beta(u, v), ctrl)[0]


def beta_limit_series(u: float, ctrl: SeriesControl | None = None) -> SeriesResult:
    """``sum_{n>=1} (1-u)_n / (n n!)``: the v->0 limit of ``B(u,v) - 1/v``.

    Terminates exactly for positive integer u.  As in :func:`beta_series`,
    other u above 6, and integer u above 50, are first reduced one step per
    unit with ``L(u) = L(u-1) - 1/(u-1)``, so u <= 1e6.
    """
    return _run(_beta_limit(u), ctrl)[0]


def digamma_series(u: float, ctrl: SeriesControl | None = None) -> SeriesResult:
    """psi(u) as ``-gamma - sum_{n>=1} (1-u)_n / (n n!)``.

    Arguments of 2 and above are first reduced into [1, 2) with
    ``psi(y+1) = psi(y) + 1/y``, one step per unit, so u <= 1e6.  The
    number of steps is reported in ``reductions`` (0: the pure series path).
    """
    return _run(_digamma(u), ctrl)[0]


def log2_series(ctrl: SeriesControl | None = None) -> SeriesResult:
    """log 2 as ``sum_{n>=1} C(2n,n) / (n 2^{2n+1})`` (terms ~ n^-1.5)."""
    return _run(_log2(), ctrl)[0]


def norlund_diff(x: float, a: float, ctrl: SeriesControl | None = None) -> SeriesResult:
    """psi(x+a) - psi(a) as ``sum_{k>=1} (-1)^{k+1}/k falling(x,k)/rising(a,k)``.

    Requires ``a > 0`` and ``x + a > 0``; terminates exactly for integer
    x >= 0 (falling factor vanishes at k = x + 1).  x above 10 is first
    reduced one step per unit with ``N(x, a) = N(x-1, a) + 1/(x-1+a)``, so
    x <= 1e6.
    """
    return _run(_norlund(x, a), ctrl)[0]


def trigamma_series(u: float, ctrl: SeriesControl | None = None) -> SeriesResult:
    """psi'(u) for 0 < u < 1 by termwise differentiation of the psi series.

    Term n is ``(1/(n n!)) (1-u)_n [psi(n+1-u) - psi(1-u)]`` with the bracket
    maintained incrementally (adds ``1/(n-u)`` per step).
    """
    return _run(_trigamma(u), ctrl)[0]


def trigamma_half_series(convention: str, ctrl: SeriesControl | None = None) -> SeriesResult:
    """psi'(1/2) as ``sum_n 2 C(2n,n)/(n 4^n) * sum_k 1/(2k+1)``.

    ``convention`` picks the inner sum's lower index: ``corrected`` starts at
    k = 0 (sums to pi^2/2), ``literal`` starts at k = 1 (lands 4 log 2 lower).
    """
    return _run(_trigamma_half(convention), ctrl)[0]


def zeta2_series(convention: str, ctrl: SeriesControl | None = None) -> SeriesResult:
    """zeta(2) as one third of the trigamma-at-one-half series."""
    return _run(_zeta2(convention), ctrl)[0]


def trace(
    name: str, params: dict, ctrl: SeriesControl | None = None, every: int = 0
) -> tuple[SeriesResult, tuple[TraceRow, ...]]:
    """Run series ``name`` with ``params``, recording a row every ``every`` terms.

    Raises :class:`DomainError` for an unknown name, for ``params`` that is
    not a mapping whose keys are exactly the parameters of the series' term
    source in :data:`SERIES`, for an ``every`` that is not an integer >= 0,
    or for a ``ctrl`` that is not a SeriesControl or None.
    """
    if name not in SERIES:
        raise DomainError(f"unknown series {name!r}; choose from {sorted(SERIES)}")
    source = SERIES[name]
    expected = list(inspect.signature(source).parameters)
    if not isinstance(params, Mapping) or set(params) != set(expected):
        raise DomainError(f"series {name!r} takes parameters {expected}, got {params!r}")
    return _run(source(**params), ctrl, integer(every, "every", 0))
