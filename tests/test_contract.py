"""The error contract over the public surface.

Every public function of core_special, series, quadrature and limits either
returns finite doubles or raises a ``BetalabError`` subclass.  Starting from
one valid call per function, each numeric argument is replaced in turn by a
value that is not a finite int or float, and each series ``ctrl`` by one
that is not a ``SeriesControl`` or None; none may be accepted or leak a
builtin exception.  The functions are found from each module's ``__all__``,
so a new public function fails here until it gets a valid call below.
"""

from __future__ import annotations

import inspect
import math
import time

import pytest

from betalab import core_special as cs
from betalab import limits as lm
from betalab import quadrature as qd
from betalab import series as sr
from betalab.errors import BetalabError, DomainError, OverflowRangeError

CTRL = sr.SeriesControl(max_terms=50)

# One valid call per public function: (positional args, keyword args).
VALID_CALLS = {
    "lgamma": ((2.5,), {}),
    "gamma": ((2.5,), {}),
    "beta": ((0.5, 1.5), {}),
    "digamma": ((2.5,), {}),
    "hurwitz_zeta": ((2.5, 0.5), {}),
    "riemann_zeta": ((3.0,), {}),
    "polygamma": ((2, 1.5), {}),
    "trigamma": ((1.5,), {}),
    "rising": ((1.5, 3), {}),
    "falling": ((1.5, 3), {}),
    "central_binom": ((5,), {}),
    "harmonic": ((5,), {}),
    "odd_harmonic": ((5,), {}),
    "euler_gamma": ((), {}),
    "gamma_half": ((3,), {}),
    "beta_half": ((3,), {}),
    "beta_series": ((0.5, 1.5, CTRL), {}),
    "beta_limit_series": ((0.5, CTRL), {}),
    "digamma_series": ((2.5, CTRL), {}),
    "log2_series": ((CTRL,), {}),
    "norlund_diff": ((0.5, 1.5, CTRL), {}),
    "trigamma_series": ((0.5, CTRL), {}),
    "trigamma_half_series": ((sr.CORRECTED, CTRL), {}),
    "zeta2_series": ((sr.CORRECTED, CTRL), {}),
    "trace": (("beta", {"u": 0.5, "v": 1.5}, CTRL), {"every": 10}),
    "integrate01": ((lambda t: t,), {"tol": 1e-8}),
    "beta_integral": ((0.5, 1.5), {"tol": 1e-8}),
    "log_kernel_moment": ((1.5,), {"tol": 1e-8}),
    "digamma_integral": ((1.5,), {"tol": 1e-8}),
    "richardson_limit": ((lambda h: 1.0 + h,), {"h0": 0.5, "depth": 4}),
    "gamma_pole_limit": ((), {"depth": 4, "h0": 0.5}),
    "gamma_derivative_at_1": ((), {"depth": 4, "h0": 0.5}),
    "beta_pole_limit": ((1.5,), {"depth": 4, "h0": 0.25}),
    "scaled_beta_limits": ((1.5,), {"depth": 4, "h0": 0.25}),
}

# Not a finite int or float: text, numeric text, nothing, a bool, an int
# beyond double range, and nan.
BAD_VALUES = ("abc", "2", None, True, 10**400, math.nan)

# Not a SeriesControl or None: a falsy and a truthy int, text, a bool, a mapping.
BAD_CTRLS = (0, 5, "abc", True, {"tol": 1e-3})


def _public_functions(module) -> list:
    return [n for n in module.__all__ if inspect.isfunction(getattr(module, n))]


PUBLIC = [
    (module, name) for module in (cs, sr, qd, lm) for name in _public_functions(module)
]


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _substituted(args: tuple, kwargs: dict):
    """Each call with one numeric argument (or ``params`` entry) made bad."""
    for bad in BAD_VALUES:
        for i, arg in enumerate(args):
            if _is_number(arg):
                yield f"arg {i} = {bad!r:.20}", args[:i] + (bad,) + args[i + 1 :], kwargs
            elif isinstance(arg, dict):  # trace()'s series parameters
                for key in arg:
                    bad_args = args[:i] + ({**arg, key: bad},) + args[i + 1 :]
                    yield f"params[{key!r}] = {bad!r:.20}", bad_args, kwargs
        for key, value in kwargs.items():
            if _is_number(value):
                yield f"{key} = {bad!r:.20}", args, {**kwargs, key: bad}
    for i, arg in enumerate(args):
        if isinstance(arg, sr.SeriesControl):
            for bad in BAD_CTRLS:
                yield f"ctrl = {bad!r:.20}", args[:i] + (bad,) + args[i + 1 :], kwargs


def _finite(result) -> bool:
    """True if a float, a result object, or every item of a tuple of them is finite."""
    if isinstance(result, tuple):  # route pairs, trace() output and its rows
        return all(_finite(item) for item in result)
    return math.isfinite(getattr(result, "value", result))


@pytest.mark.parametrize("module, name", PUBLIC, ids=[name for _, name in PUBLIC])
def test_numeric_arguments_are_finite_ints_or_floats(module, name):
    func = getattr(module, name)
    args, kwargs = VALID_CALLS[name]
    assert _finite(func(*args, **kwargs))
    accepted = []
    for label, bad_args, bad_kwargs in _substituted(args, kwargs):
        try:
            result = func(*bad_args, **bad_kwargs)
        except BetalabError:
            continue
        except Exception as exc:  # a builtin exception leaked
            accepted.append(f"{label}: {type(exc).__name__}: {exc}")
        else:
            accepted.append(f"{label}: returned {result!r:.60}")
    assert not accepted, f"{name}: " + "; ".join(accepted)


@pytest.mark.parametrize("field", ["max_terms", "tol"])
@pytest.mark.parametrize(
    "bad", BAD_VALUES, ids=["str", "numeric-str", "none", "bool", "huge-int", "nan"]
)
def test_series_control_fields_are_checked(field, bad):
    with pytest.raises(BetalabError):
        sr.SeriesControl(**{field: bad})


# --- edge values: a finite double or OverflowRangeError, never inf/nan -----


@pytest.mark.parametrize(
    "func, args",
    [
        (cs.gamma, (1e-310,)),
        (cs.beta, (1e-310, 0.5)),
        (cs.trigamma, (1e-310,)),
        (cs.hurwitz_zeta, (2.0, 1e-310)),
        (cs.lgamma, (1.7e308,)),
        (cs.digamma, (5e-324,)),
        (cs.polygamma, (160, 0.2)),
        (cs.polygamma, (171, 1.0)),  # 171! overflows
        (sr.beta_series, (0.5, 1e-310)),  # the base 1/v overflows
        (sr.beta_series, (0.5, 5e-324)),
        (sr.beta_series, (5e-324, 5e-324)),  # u steps onto 1 and v div = 0
        (sr.norlund_diff, (0.5, 1e-310)),  # the first term x / a overflows
        (qd.integrate01, (lambda t: 1e308,)),  # fsum's intermediate overflow
        (qd.integrate01, (lambda t: 1e308 if t < 0.5 else -1e308,)),  # only the bound overflows
    ],
    ids=[
        "gamma-tiny", "beta-tiny", "trigamma-tiny", "hurwitz-tiny",
        "lgamma-huge", "digamma-subnormal", "polygamma-high-order",
        "polygamma-order-171", "beta-series-tiny", "beta-series-subnormal",
        "beta-series-subnormal-u-and-v",
        "norlund-tiny", "integrate01-level-sum", "integrate01-error-bound",
    ],
)
def test_true_overflow_raises_overflow_range_error(func, args):
    with pytest.raises(OverflowRangeError):
        func(*args)


@pytest.mark.parametrize("s", [1e300, 1.7e308])
def test_riemann_zeta_of_huge_s_is_one(s):
    assert cs.riemann_zeta(s) == 1.0


# --- products and sums over n: exact zeros, bounded loops -------------------


def _product(x: float, n: int, factor) -> float:
    """The plain left-to-right product of ``factor(x, k)``, k < n."""
    p = 1.0
    for k in range(n):
        p *= factor(x, k)
    return p


FACTORIALS = [(cs.rising, lambda x, k: x + k), (cs.falling, lambda x, k: x - k)]
FACTORIAL_XS = [-0.0, 0.0, 0.3, -0.3] + [k / 2 for k in range(-80, 81)] + [-400.0, 400.0]


@pytest.mark.parametrize("func, factor", FACTORIALS, ids=["rising", "falling"])
def test_factorials_keep_every_finite_product_and_zero_the_rest(func, factor):
    for x in FACTORIAL_XS:
        for n in list(range(0, 60)) + [169, 170, 171, 500]:
            expected = _product(x, n, factor)
            try:
                got = func(x, n)
            except OverflowRangeError:
                assert math.isinf(expected), (x, n)
                continue
            if math.isnan(expected):  # inf * 0: a factor vanished after an overflow
                assert got == 0.0, (x, n)
            else:  # the same bits, down to the sign of a zero
                assert (got, math.copysign(1.0, got)) == (
                    expected, math.copysign(1.0, expected)
                ), (x, n)


@pytest.mark.parametrize(
    "call, outcome",
    [
        (lambda: cs.harmonic(10**15), DomainError),
        (lambda: cs.odd_harmonic(10**15), DomainError),
        (lambda: sr.digamma_series(1e15), DomainError),
        (lambda: cs.rising(0.0, 10**15), 0.0),
        (lambda: cs.rising(0.5, 10**15), OverflowRangeError),
        (lambda: cs.falling(0.5, 10**15), OverflowRangeError),
        (lambda: cs.rising(-400.0, 500), 0.0),
        (lambda: cs.falling(400.0, 500), 0.0),
    ],
    ids=[
        "harmonic", "odd_harmonic", "digamma_series", "rising-zero", "rising-overflow",
        "falling-overflow", "rising-zero-after-overflow", "falling-zero-after-overflow",
    ],
)
def test_huge_counts_return_or_raise_within_a_second(call, outcome):
    start = time.perf_counter()
    if isinstance(outcome, float):
        assert call() == outcome
    else:
        with pytest.raises(outcome):
            call()
    assert time.perf_counter() - start < 1.0


def test_count_caps_admit_their_bound():
    assert cs.odd_harmonic(10**6) > cs.odd_harmonic(10**6 - 1)
    # Reductions end in (5, 6], at 6 for an integer.
    assert sr.digamma_series(1e6, CTRL).reductions == 999_994
    assert sr.digamma_series(1e6 - 0.5, CTRL).reductions == 999_994
    # digamma sums beta-limit's summand, but its cap names digamma_series.
    with pytest.raises(DomainError, match="^digamma_series supports u <= 1000000, got 1000001.0$"):
        sr.digamma_series(1e6 + 1, CTRL)
    # beta steps u into (5, 6], and then v into (0, 2].
    assert sr.beta_series(1e6, 0.5, CTRL).reductions == 1e6 - 6
    assert sr.beta_series(1e6 - 0.5, 40.0, CTRL).reductions == (1e6 - 6) + 38
    assert sr.beta_series(5.5, 1e6, CTRL).reductions == 1e6 - 2
    # Both at their caps, B(u, v) ~ 4**-1e6 is far below the normal range.
    with pytest.raises(OverflowRangeError, match="underflows"):
        sr.beta_series(1e6 - 0.5, 1e6, CTRL)
