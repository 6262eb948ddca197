"""The d2 transform's W^(2) recursion against a 40-digit solve of the same samples.

mpmath appears only in the tests.  Each case drives ``series._DTransform``
with m = 2 on the samples a series kernel hands it,
(R, S_R, a_R, a_{R+1} - a_R), and solves each order's 2 nu + 1 equations
again with ``mpmath.lu_solve``.  Synthetic samples that fit an order's model
exactly must return its ``d`` at that order and every later one.
"""

from __future__ import annotations

import itertools
import math

import mpmath
import pytest

import betalab as bl
from betalab import series as sr
import drive


def _geometric(lo: float, hi: float, n: int) -> list[float]:
    return [lo * (hi / lo) ** (i / (n - 1)) for i in range(n)]


CASES = [("trigamma", {"u": u}) for u in _geometric(0.02, 0.99, 16) + [0.25, 0.5, 0.75]] + [
    ("trigamma-half", {"convention": c}) for c in bl.CONVENTIONS
]


def _drive(samples):
    """Feed ``samples`` to a fresh d2 accelerator; return it and its estimates."""
    d2 = sr._DTransform(2)
    return d2, [d2.sample(*sample)[1] for sample in samples]


def _loop_samples(name: str, params: dict) -> list[tuple[int, float, float, float]]:
    """The samples a run of series ``name`` takes, at the indices the accelerator picks."""
    return drive.requested(sr.SERIES[name](**params).kernel, sr._DTransform(2))


@mpmath.workdps(40)
def _solve(samples) -> mpmath.mpf:
    """``d`` of order nu's 2 nu + 1 equations, in 40 digits."""
    nu = len(samples) // 2
    rows, rhs = [], []
    for r, s, a, da in samples:
        r, a, da = mpmath.mpf(r), mpmath.mpf(a), mpmath.mpf(da)
        rows.append([r * a / r**i for i in range(nu)] + [r * r * da / r**i for i in range(nu)] + [1])
        rhs.append(mpmath.mpf(s))
    return mpmath.lu_solve(mpmath.matrix(rows), mpmath.matrix(rhs))[2 * nu]


@pytest.mark.parametrize("name, params", CASES)
def test_each_order_matches_a_40_digit_solve_to_a_quarter_of_its_residual(name, params):
    samples = _loop_samples(name, params)
    assert len(samples) == 19
    _, estimates = _drive(samples)
    for nu in range(3, 10):
        transform, residual = estimates[2 * nu]
        exact = _solve(samples[: 2 * nu + 1])
        assert float(abs(transform - exact)) <= residual / 4, nu


def _model(nu: int, r: int, zero_first: bool) -> tuple[int, float, float, float]:
    """A sample at R = ``r`` of the order-``nu`` model with d = 0.75."""
    a, da = r**-1.5, -1.5 * r**-2.5 + r**-3.0
    if zero_first and r == 1:
        a = 0.0
    s = 0.75 + sum((r * a / (i + 1) + r * r * da * (-1) ** i / (i + 2)) * r**-i for i in range(nu))
    return r, s, a, da


@pytest.mark.parametrize("zero_first", [False, True], ids=["generic", "zero-first-term"])
@pytest.mark.parametrize("nu", range(1, 10))
def test_samples_that_fit_an_order_return_its_d(nu, zero_first):
    d2, _ = _drive([_model(nu, r, zero_first) for r in sr._D2_SAMPLES])
    assert len(d2.transforms) == 9
    for order, transform in enumerate(d2.transforms[nu - 1 :], nu):
        assert abs(transform - 0.75) <= 1e-11, order


@pytest.mark.parametrize("name", ["trigamma-half", "zeta2"])
def test_a_zero_first_term_takes_the_limit_rule(name):
    res, rows = bl.trace(name, {"convention": bl.LITERAL}, every=1)
    assert rows[0].term == 0.0
    assert all(math.isfinite(x) for row in rows for x in row)
    assert math.isfinite(res.value) and res.tail_estimate > 0.0
    # psi_0 of the first sample is infinite, yet no order is skipped.
    d2, _ = _drive(_loop_samples("trigamma-half", {"convention": bl.LITERAL}))
    assert len(d2.transforms) == 9
    assert all(math.isfinite(d) for d in d2.transforms)


def _generic(r: int) -> tuple[int, float, float, float]:
    """A sample of no special structure at R = ``r``."""
    return r, 2.0 - 1.0 / r, r**-1.5, -1.5 * r**-2.5 + r**-3.0


def test_a_singular_order_is_skipped_and_later_orders_kept():
    # R a_R = 3 at R = 1, 2, 3: the first column equals 3 times the constant
    # one, so order 1's system is singular; the samples after it are generic.
    samples = [(1, 1.0, 3.0, -0.5), (2, 1.5, 1.5, -0.25), (3, 1.75, 1.0, -0.125)]
    samples += [_generic(r) for r in (4, 5, 7, 11, 17, 25, 38)]
    d2, estimates = _drive(samples)
    assert len(d2.transforms) == 3  # orders 2 to 4
    assert all(math.isfinite(d) for d in d2.transforms)
    assert estimates[:8] == [None] * 8  # order 4, the third transform, has the first residual
    assert all(math.isfinite(x) for x in estimates[8])


def test_a_zero_denominator_skips_every_order_built_on_it():
    # g_2 / g_1 = R (a_{R+1} - a_R) / a_R is 1 at both R = 1 and R = 2, so the
    # first level divides by 0 at j = 0, and every transform uses that entry.
    samples = [(1, 1.0, 1.0, 1.0), (2, 1.5, 0.5, 0.25)]
    samples += [_generic(r) for r in (3, 4, 5, 7, 11)]
    d2, estimates = _drive(samples)
    assert d2.transforms == []
    assert estimates == [None] * 7


def _with_term(terms, at: int, term: float):
    """``terms`` with the n = ``at`` term replaced."""
    for n, (a, da) in enumerate(terms, 1):
        yield (term, da) if n == at else (a, da)


@pytest.mark.parametrize(
    "terms",
    [itertools.repeat((0.0, 0.0)), _with_term(drive.pairs(sr._trigamma_kernel(0.5)), 4, 0.0)],
    ids=["all-zero", "zero-fourth-term"],
)
def test_zero_denominators_in_a_run_raise_nothing(terms):
    # The fourth sample's g_1 = 0 leaves only order 1, which has no residual.
    res, rows = sr._run(sr._Summand(drive.pair_kernel(terms), m=2), None, every=1)
    assert (res.termination, res.terms_used) == (bl.PRECISION_LIMIT, 1477)
    assert (res.value, res.tail_estimate) == (res.raw_partial_sum, 0.0)
    assert all(math.isfinite(x) for row in rows for x in row)
