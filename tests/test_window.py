"""The argument window (5, 6] of beta, beta-limit, digamma, trigamma and Norlund.

A non-integer u below the window steps up one unit at a time by its family's
recurrence, so each of the four series sums where its terms fall like n^-7.
These tests hold each series to mpmath at 40 digits, with err = |value - ref|
/ max(1, |ref|): accurate, honest (``tail_estimate`` bounds the real error) and
short.  An integer u above the window steps down into it like any other u, and
an integer u <= 6 sums its exact finite series; Norlund's x above 6 steps down
alike.  The constant series of the paper (log2, trigamma-half, zeta2) keep the
bits of the unshifted tree.
"""

from __future__ import annotations

import math
import statistics

import mpmath
import pytest

import betalab as bl
from betalab import series as sr


def _log_grid(lo: float, hi: float, n: int) -> list[float]:
    return [lo * (hi / lo) ** (i / (n - 1)) for i in range(n)]


_US = _log_grid(0.02, 6.0, 150)
_VS = [_log_grid(0.05, 10.0, 150)[(i * 37) % 150] for i in range(150)]  # v shuffled against u

D1_GRIDS = {
    "beta": [(sr.beta_series, (u, v), mpmath.beta) for u, v in zip(_US, _VS)],
    "beta-limit": [
        (sr.beta_limit_series, (u,), lambda u: -(mpmath.digamma(u) + mpmath.euler)) for u in _US
    ],
    "digamma": [(sr.digamma_series, (u,), mpmath.digamma) for u in _US],
}


def _errors(runs):
    """Each run's err and whether its ``tail_estimate`` bounds its real error."""
    errors, honest, terms = [], [], 0
    for run, args, ref in runs:
        res = run(*args)
        exact = ref(*args)
        off = abs(mpmath.mpf(res.value) - exact)
        errors.append(float(off / max(1, abs(exact))))
        honest.append(float(off) <= res.tail_estimate)
        terms += res.terms_used
    return errors, honest, terms


@pytest.mark.parametrize("name", D1_GRIDS)
@mpmath.workdps(40)
def test_d1_series_are_accurate_and_honest_on_a_log_grid(name):
    # Measured worst / median err: beta 1.1e-14 / 3.1e-16, beta-limit 1.4e-15 /
    # 2.1e-16, digamma 1.8e-15 / 2.1e-16 (unshifted: 9.9e-12 / 7.2e-15, 3.4e-12 /
    # 2.2e-14, 3.3e-12 / 1.8e-14), in 5,588 to 5,641 terms against 56,780 to 60,576.
    errors, honest, terms = _errors(D1_GRIDS[name])
    assert max(errors) <= 1e-13
    assert statistics.median(errors) <= 1e-15
    assert all(honest)
    assert terms <= 6_000


@mpmath.workdps(40)
def test_trigamma_series_is_accurate_and_honest_on_the_eq9_interval():
    # 201 u in [0.25, 0.75]: worst err 3.8e-16 in 27,387 terms (unshifted:
    # 2.5e-10 in 296,877).
    runs = [(sr.trigamma_series, (0.25 + 0.5 * i / 200,), lambda u: mpmath.psi(1, u))
            for i in range(201)]
    errors, honest, terms = _errors(runs)
    assert max(errors) <= 1e-13
    assert all(honest)
    assert terms <= 30_000


@mpmath.workdps(40)
def test_trigamma_series_at_small_u():
    res = sr.trigamma_series(0.02)
    assert res.termination == bl.TOLERANCE_MET and res.terms_used == 129
    assert float(abs(mpmath.mpf(res.value) - mpmath.psi(1, 0.02))) <= 1e-12


@pytest.mark.parametrize(
    "run, u, ref",
    [
        # Unshifted, trigamma_series(1e-6) read -3.3e10 against 1.0e12 with a tail of
        # 1.6e11, and beta_limit_series(1e-300) read 7.88 with a tail of 0.
        (sr.trigamma_series, 1e-6, lambda u: mpmath.psi(1, u)),
        (sr.beta_limit_series, 1e-300, lambda u: -(mpmath.digamma(u) + mpmath.euler)),
    ],
)
@mpmath.workdps(40)
def test_former_bound_failures_are_bounded(run, u, ref):
    res = run(u)
    off = abs(mpmath.mpf(res.value) - ref(u))
    assert float(off) <= res.tail_estimate
    assert float(off / ref(u)) <= 1e-15


EDGE_US = (5e-324, 1e-300, 1e-160, 1e-16, 1.0 - 2.0**-53, 4.999999999999999, 1e6)
EDGE_CALLS = [
    *[(sr.beta_series, (u, v), mpmath.beta) for u in EDGE_US for v in (0.5, 64.0, 1e6)],
    *[(sr.beta_limit_series, (u,), lambda u: -(mpmath.digamma(u) + mpmath.euler))
      for u in EDGE_US],
    *[(sr.digamma_series, (u,), mpmath.digamma) for u in EDGE_US],
    *[(sr.trigamma_series, (u,), lambda u: mpmath.psi(1, u)) for u in EDGE_US],
]


@pytest.mark.parametrize(
    "run, args, ref", EDGE_CALLS, ids=[f"{c[0].__name__}{c[1]}" for c in EDGE_CALLS]
)
@mpmath.workdps(60)
def test_shifted_routes_at_edge_arguments_return_a_bounded_double_or_raise(run, args, ref):
    # u + 1 rounds onto 1 below 2^-53 and onto 2 at 1 - 2^-53; 1/u overflows at
    # 5e-324 and 1/u^2 below ~1.3e-154; trigamma's domain ends at 1.
    try:
        res = run(*args)
    except bl.BetalabError:
        return
    assert math.isfinite(res.value) and math.isfinite(res.tail_estimate)
    assert float(abs(mpmath.mpf(res.value) - ref(*args))) <= res.tail_estimate


@pytest.mark.parametrize("u", [5e-324, 1e-300, 1e-160])
def test_trigamma_series_overflows_into_a_betalab_error(u):
    with pytest.raises(bl.OverflowRangeError):
        sr.trigamma_series(u)


def test_beta_series_below_the_normal_range_of_its_factor_overflows():
    with pytest.raises(bl.OverflowRangeError, match="u = 1e-307"):
        sr.beta_series(1e-307, 64.0)


INTEGER_US = [float(u) for u in range(7, 61)] + [100.0, 1000.0, 12345.0]


@mpmath.workdps(40)
def test_integer_u_above_the_window_steps_down_like_any_other_u():
    # Integer u once kept a finite sum through 12 (beta) and 50 (beta-limit).  Beta's
    # rounds at n + v and cancels like 2**u, and its steps rounded u + v alike: 3.6e-13
    # off here at worst (1.1e-14 now, at u = 12345).  beta_limit_series(60.0) reported a
    # tail of 0.25 for a 2e-17 error; from u = 1000 the 4 ulps charged per step dominate
    # beta-limit's tail (1.9e-11 relative at 12345).
    beta_off, failures = [], []
    for u in INTEGER_US:
        for v in _log_grid(0.01, 1e4, 13):
            reference = mpmath.beta(u, v)
            try:
                res = sr.beta_series(u, v)
            except bl.OverflowRangeError:  # B(u, v) below the normal range
                assert reference < 2.0**-1000, (u, v)
                continue
            off = abs(mpmath.mpf(res.value) - reference)
            if not float(off) <= res.tail_estimate:
                failures.append(("beta", u, v))
            if v <= 100:
                beta_off.append(float(off / reference))
        limit = sr.beta_limit_series(u)
        off = abs(mpmath.mpf(limit.value) + mpmath.digamma(u) + mpmath.euler)
        sharp = 1e-12 * max(1.0, abs(limit.value)) if u <= 100 else math.inf
        if not float(off) <= limit.tail_estimate <= sharp:
            failures.append(("beta-limit", u, limit.tail_estimate))
        digamma = sr.digamma_series(u)
        if not float(abs(mpmath.mpf(digamma.value) - mpmath.digamma(u))) <= digamma.tail_estimate:
            failures.append(("digamma", u))
    assert not failures, failures[:5]
    assert max(beta_off) <= 2e-14


# Every 5th point, from the 3rd on, of a 40 x 60 grid u = 0.01 * 500**(i/39),
# v = 2 * 5e5**(j/59): 8 x 12 points where v steps down by the thousand.
BETA_LARGE_V = [(0.01 * 500.0 ** (i / 39), 2.0 * 5e5 ** (j / 59))
                for i in range(2, 40, 5) for j in range(2, 60, 5)]


@mpmath.workdps(40)
def test_beta_series_steps_up_at_any_v():
    # Each step scales div, which moves the value by ulps of |value| alone, so
    # u steps up whatever v is: 27,512 terms here, where a gate that kept u
    # unshifted for v > 64 took 42,569.  The whole 40 x 60 grid takes 685,536
    # terms (was 1,065,470), its worst err 2.9e-11 (was 5.3e-11).
    runs = [(sr.beta_series, (u, v), mpmath.beta) for u, v in BETA_LARGE_V]
    _, honest, terms = _errors(runs)
    assert all(honest)
    assert terms <= 30_000
    res = sr.beta_series(0.058, 88.0)  # 1,477 terms to precision_limit unshifted
    assert res.termination == bl.TOLERANCE_MET and res.terms_used <= 60


NORLUND_GRID = [(6.0 + 4.0 * (i + 0.5) / 20, 0.05 * 200.0 ** (j / 9))
                for i in range(20) for j in range(10)]


@mpmath.workdps(40)
def test_norlund_above_the_window_steps_down_into_it():
    # x in (6, 10] summed at x itself was 1.16e-14 off at worst; stepped down
    # into (5, 6], 1.8e-15.
    runs = [(sr.norlund_diff, (x, a), lambda x, a: mpmath.digamma(x + a) - mpmath.digamma(a))
            for x, a in NORLUND_GRID]
    errors, honest, _ = _errors(runs)
    assert max(errors) <= 5e-15
    assert all(honest)


_UNCORRECTED = bl.SeriesControl(max_terms=3_000, tail_correction=False)
# (name, params, uncorrected?) -> value, raw_partial_sum, tail_estimate as hex,
# terms_used, termination, reductions: for the constants the bits of the unshifted
# tree, for the integer sums those of the one step-down rule (beta(12, 3.7) was
# 2.1e-13 relative off when it kept its 11-term sum; it is now 2.1e-16 off).
PINNED = {
    ("log2", (), False): ("0x1.62e42fefa3a4cp-1", "0x1.4983fbfe2c4d2p-1", "0x1.32a6000000000p-35",
                          129, "tolerance_met", 0),
    ("log2", (), True): ("0x1.5d9e313af9594p-1", "0x1.5d9e313af9594p-1", "0x1.517fad2aa0d00p-7",
                         3000, "max_terms", 0),
    ("trigamma-half", ("literal",), False): (
        "0x1.14c369482190fp+1", "0x1.e3ed4a337b6f4p+0", "0x1.d43c800000000p-30",
        1477, "precision_limit", 0),
    ("trigamma-half", ("literal",), True): (
        "0x1.f4f349c60cfa8p+0", "0x1.f4f349c60cfa8p+0", "0x1.a49c468c38cb0p-3",
        3000, "max_terms", 0),
    ("trigamma-half", ("corrected",), False): (
        "0x1.3bd3cc9be23a8p+2", "0x1.26ab84a51a254p+2", "0x1.cff8000000000p-32",
        1477, "precision_limit", 0),
    ("trigamma-half", ("corrected",), True): (
        "0x1.2c0beb0effeb4p+2", "0x1.2c0beb0effeb4p+2", "0x1.f8fc31aac9a80p-3",
        3000, "max_terms", 0),
    ("zeta2", ("literal",), False): (
        "0x1.71048c602cc14p-1", "0x1.429e3177a79f8p-1", "0x1.3828555555555p-31",
        1477, "precision_limit", 0),
    ("zeta2", ("literal",), True): (
        "0x1.4df7868408a70p-1", "0x1.4df7868408a70p-1", "0x1.18682f0825dcbp-4",
        3000, "max_terms", 0),
    ("zeta2", ("corrected",), False): (
        "0x1.a51a66252da35p+0", "0x1.88e4b0dc22dc5p+0", "0x1.3550000000000p-33",
        1477, "precision_limit", 0),
    ("zeta2", ("corrected",), True): (
        "0x1.900fe413ffe45p+0", "0x1.900fe413ffe45p+0", "0x1.50a8211c86700p-4",
        3000, "max_terms", 0),
    ("beta", (3.0, 0.5), False): ("0x1.1111111111111p+0", "0x1.1111111111111p+0",
                                  "0x1.ddddddddddddep-48", 2, "exact_termination", 0),
    ("beta", (12.0, 3.7), False): ("0x1.2ee8ecdfdd960p-12", "0x1.2ee8ecdfdd960p-12",
                                   "0x1.fc3c3d39de0bap-54", 5, "exact_termination", 8),
    ("beta", (20.0, 0.7), False): ("0x1.483a21fcb5908p-3", "0x1.483a21fcb5908p-3",
                                   "0x1.8ee3c86447a28p-47", 5, "exact_termination", 14),
    ("beta", (1.0, 50.0), False): ("0x1.47ae147ae147bp-6", "0x1.47ae147ae147bp-6",
                                   "0x1.47ae147ae147bp-54", 0, "exact_termination", 0),
    ("beta-limit", (7.0,), False): ("-0x1.3999999999999p+1", "-0x1.3999999999999p+1",
                                    "0x1.0422222222222p-45", 5, "exact_termination", 1),
    ("beta-limit", (60.0,), False): ("-0x1.2a71ee2038428p+2", "-0x1.2a71ee2038428p+2",
                                     "0x1.9ea7047a93e58p-42", 5, "exact_termination", 54),
    ("digamma", (3.0,), False): ("0x1.d8773039049e7p-1", "0x1.d8773039049e7p-1",
                                 "0x1.89e233f1bed86p-48", 2, "exact_termination", 0),
    ("digamma", (50.0,), False): ("0x1.f37465ca59ec1p+1", "0x1.f37465ca59ec1p+1",
                                  "0x1.13b6601acfc28p-42", 5, "exact_termination", 44),
}


@pytest.mark.parametrize("key", PINNED, ids=[f"{n}{a}{'-raw' * u}" for n, a, u in PINNED])
def test_constant_series_and_integer_sums_keep_their_bits(key):
    name, args, uncorrected = key
    code = sr.SERIES[name].__code__
    params = dict(zip(code.co_varnames[: code.co_argcount], args))
    res, _ = sr.trace(name, params, _UNCORRECTED if uncorrected else None)
    got = (res.value.hex(), res.raw_partial_sum.hex(), res.tail_estimate.hex(),
           res.terms_used, res.termination, res.reductions)
    assert got == PINNED[key]
