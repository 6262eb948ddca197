"""Series: exact termination, extrapolation, tail correction, conventions."""

from __future__ import annotations

import itertools
import math

import mpmath
import pytest

import betalab as bl
from betalab import series as sr
from betalab.errors import DomainError
from betalab.series import SERIES
import drive
from oracles import (
    digamma_half_oracle,
    euler_gamma_oracle,
    harmonic_oracle,
    log2_oracle,
    zeta_oracle,
)

CTRL_1E3 = bl.SeriesControl(max_terms=1_000)
CTRL_1E4 = bl.SeriesControl(max_terms=10_000)
CTRL_1E5 = bl.SeriesControl(max_terms=100_000)


# --- controls and result types --------------------------------------------


def test_series_control_defaults():
    ctrl = bl.SeriesControl()
    assert ctrl.max_terms == 1_000_000
    assert ctrl.tol == 1e-10
    assert ctrl.tail_correction is True


@pytest.mark.parametrize("bad", [0, -5, 2.5, True, "many"])
def test_series_control_rejects_bad_max_terms(bad):
    with pytest.raises(DomainError):
        bl.SeriesControl(max_terms=bad)


@pytest.mark.parametrize("bad", [0.0, -1e-3, float("nan"), float("inf")])
def test_series_control_rejects_bad_tol(bad):
    with pytest.raises(DomainError):
        bl.SeriesControl(tol=bad)


def test_result_types_are_frozen():
    # AttributeError is what a frozen dataclass raises too (FrozenInstanceError's base).
    for res in (bl.beta_series(2.0, 1.0), bl.beta_integral(0.5, 0.5), bl.gamma_pole_limit()):
        with pytest.raises(AttributeError):
            res.value = 0.0
    with pytest.raises(AttributeError):
        CTRL_1E5.max_terms = 7


# --- beta series (shifted-factor expansion around the 1/v pole) -----------


@pytest.mark.parametrize("u", range(1, 9))
@pytest.mark.parametrize("v", [0.5, 1.0, 2.5])
def test_beta_series_exact_at_integer_u(u, v):
    res = bl.beta_series(float(u), v)
    assert res.termination == bl.EXACT_TERMINATION
    with mpmath.workdps(30):
        assert float(abs(res.value - mpmath.beta(u, v))) <= res.tail_estimate
    assert res.tail_estimate > 0.0  # the rounding floor
    assert res.terms_used == min(u, 6) - 1  # u above 6 steps down to 6
    reference = bl.beta(float(u), v)
    assert abs(res.value - reference) <= 1e-13 * abs(reference)


def test_beta_series_half_half_reaches_pi():
    res = bl.beta_series(0.5, 0.5, CTRL_1E5)
    assert res.termination == bl.TOLERANCE_MET
    assert res.terms_used <= 129
    # The residual bounds the real error (measured 1.4e-14 against 2.8e-11).
    assert abs(res.value - math.pi) <= res.tail_estimate <= 1e-10


def test_beta_series_default_run_tightens():
    res = bl.beta_series(0.5, 0.5)
    assert abs(res.value - math.pi) <= 2e-8


@pytest.mark.parametrize("u,v", [(0.0, 1.0), (-1.0, 1.0), (1.0, 0.0), (1.0, -0.5)])
def test_beta_series_domain(u, v):
    with pytest.raises(DomainError):
        bl.beta_series(u, v)


# --- the v -> 0 limit series ----------------------------------------------


@pytest.mark.parametrize("u", range(1, 9))
def test_beta_limit_series_exact_at_integers(u):
    res = bl.beta_limit_series(float(u))
    assert res.termination == bl.EXACT_TERMINATION
    assert res.terms_used == min(u, 6) - 1  # u above 6 steps down to 6
    # Sum telescopes to -H_{u-1} at positive integers.
    expected = -harmonic_oracle(u - 1) if u > 1 else 0.0
    assert abs(res.value - expected) <= 1e-14 * max(1.0, abs(expected))


def test_beta_limit_series_matches_pole_limit():
    for u in (0.25, 0.5, 1.0, 2.0, 3.5):
        series = bl.beta_limit_series(u, CTRL_1E5)
        limit = bl.beta_pole_limit(u)
        assert abs(series.value - limit.value) <= series.tail_estimate + 1e-10
        assert abs(series.value - limit.value) <= 1e-5  # measured <= 1.1e-6


# --- digamma series -------------------------------------------------------


@pytest.mark.parametrize("u", [0.1, 0.25, 0.5, 0.75, 0.9])
def test_digamma_series_oracle_equivalence(u):
    res = bl.digamma_series(u, CTRL_1E5)
    assert res.reductions == 5  # stepped up into (5, 6]
    assert abs(res.value - bl.digamma(u)) <= res.tail_estimate + 1e-12


def test_digamma_series_half_frozen_value():
    res = bl.digamma_series(0.5, CTRL_1E5)
    # Measured error 8.2e-16 against a residual of 5.9e-12.
    assert abs(res.value - digamma_half_oracle()) <= res.tail_estimate <= 1e-10
    # Deterministic engine: pin the measured value as a regression guard.
    assert abs(res.value - (-1.963510026021444)) <= 1e-12


# u steps into (5, 6], an integer u above 6 down to 6; an integer u <= 6 sums its
# finite series.
@pytest.mark.parametrize(
    "u,expected_reductions",
    [(1.5, 4), (2.0, 0), (3.5, 2), (5.0, 0), (5.5, 0), (8.25, 3), (9.0, 3)],
)
def test_digamma_series_argument_reduction(u, expected_reductions):
    res = bl.digamma_series(u, CTRL_1E5)
    assert res.reductions == expected_reductions
    assert abs(res.value - bl.digamma(u)) <= 1e-10


# Just above an integer an old reduction into (0, 1] left y ~ 1e-4, where no
# tail model converges (errors of 10-25 in seeded suite grids); each u here
# steps up into (5, 6].
@pytest.mark.parametrize("u", [1.0001, 2.046, 3.0296, 5.00001])
def test_digamma_series_just_above_integers(u):
    res = bl.digamma_series(u)
    assert res.reductions == 5 - int(u)
    assert abs(res.value - bl.digamma(u)) <= min(res.tail_estimate, 1e-10)


def test_digamma_series_tail_correction_helps():
    # At the terms the corrected run used, the transform beats the plain sum.
    res = bl.digamma_series(0.5, CTRL_1E5)
    uncorrected = bl.digamma_series(
        0.5, bl.SeriesControl(max_terms=res.terms_used, tail_correction=False)
    )
    assert uncorrected.value == uncorrected.raw_partial_sum
    reference = digamma_half_oracle()
    assert abs(uncorrected.value - reference) > abs(res.value - reference)


# digamma(1/2), log 2, B(1/2, 1/2) and trigamma-half with their references, and
# term counts where truncation, not rounding, sets the error: the terms of
# digamma and beta, stepped into (5, 6], fall like n^-7.
UNCORRECTED = {
    "digamma": (lambda ctrl: bl.digamma_series(0.5, ctrl), digamma_half_oracle, (40, 50, 60)),
    "log2": (bl.log2_series, log2_oracle, (1_000, 10_000, 100_000)),
    "beta": (lambda ctrl: bl.beta_series(0.5, 0.5, ctrl), lambda: math.pi, (40, 50, 60)),
    "trigamma-half": (
        lambda ctrl: bl.trigamma_half_series(bl.CORRECTED, ctrl),
        lambda: math.pi**2 / 2.0,
        (1_000, 10_000, 100_000),
    ),
}


@pytest.mark.parametrize(
    "name, max_terms", [(name, n) for name, (*_, counts) in UNCORRECTED.items() for n in counts]
)
def test_uncorrected_tail_estimate_bounds_the_error_tightly(name, max_terms):
    # |best transform - raw| + its residual: measured at most 1.0037 x the error.
    run, reference, _ = UNCORRECTED[name]
    res = run(bl.SeriesControl(max_terms=max_terms, tail_correction=False))
    assert (res.termination, res.terms_used) == (bl.MAX_TERMS, max_terms)
    assert res.value == res.raw_partial_sum
    err = abs(res.value - reference())
    assert err <= res.tail_estimate <= 1.01 * err


def test_digamma_series_domain():
    with pytest.raises(DomainError):
        bl.digamma_series(0.0)
    with pytest.raises(DomainError):
        bl.digamma_series(-1.5)


# --- term sign and monotonicity (trace-based) -----------------------------


# u steps up to u + 5, where (1-u-5)_n / (n n!) changes sign while n < u + 5
# and keeps the sign of its fifth term from there.
@pytest.mark.parametrize("u", [0.1, 0.5, 0.9])
def test_limit_series_terms_settle_negative_and_shrink(u):
    _, rows = bl.trace("beta-limit", {"u": u}, bl.SeriesControl(max_terms=200), every=1)
    assert [row.term > 0.0 for row in rows[:4]] == [False, True, False, True]
    assert all(row.term < 0.0 for row in rows[4:])
    tail_mags = [-row.term for row in rows if row.n >= 10]
    assert all(a > b for a, b in zip(tail_mags, tail_mags[1:]))


@pytest.mark.parametrize("u", [0.1, 0.5, 0.9])
def test_digamma_series_terms_settle_positive_and_shrink(u):
    # Same terms scaled by -1 on the digamma side.
    _, rows = bl.trace("digamma", {"u": u}, bl.SeriesControl(max_terms=200), every=1)
    assert [row.term < 0.0 for row in rows[:4]] == [False, True, False, True]
    assert all(row.term > 0.0 for row in rows[4:])
    tail_mags = [row.term for row in rows if row.n >= 10]
    assert all(a > b for a, b in zip(tail_mags, tail_mags[1:]))


# --- log 2 central-binomial series ----------------------------------------


def test_log2_series_tail_corrected_accuracy():
    res = bl.log2_series(CTRL_1E4)
    assert res.termination == bl.TOLERANCE_MET
    assert res.terms_used <= 129
    # measured: extrapolated error 1.0e-14 (residual 3.5e-11) vs raw error 0.05
    assert abs(res.value - log2_oracle()) <= res.tail_estimate <= 1e-10
    assert abs(res.raw_partial_sum - log2_oracle()) > 1e-3


def test_log2_series_deepens_cleanly():
    res = bl.log2_series(CTRL_1E5)
    assert abs(res.value - log2_oracle()) <= 1e-7


@pytest.mark.parametrize(
    "ctrl",
    [bl.SeriesControl(), bl.SeriesControl(max_terms=3_000, tail_correction=False)],
    ids=["default", "uncorrected"],
)
def test_log2_series_is_half_the_beta_limit_series_at_one_half(ctrl):
    # sum (1/2)_n / (n n!) = -psi(1/2) - gamma = 2 log 2, and halving is exact.
    # beta_limit_series(0.5) steps up to 5.5, so the unshifted series runs here.
    two = bl.log2_series(ctrl)
    limit = sr._run(sr._Summand(sr._ratio_kernel(0.5, 0.0), m=1), ctrl)[0]
    assert (two.value, two.raw_partial_sum, two.tail_estimate) == (
        limit.value / 2.0, limit.raw_partial_sum / 2.0, limit.tail_estimate / 2.0
    )
    assert (two.terms_used, two.termination) == (limit.terms_used, limit.termination)


@mpmath.workdps(30)
def test_log2_series_default_run_is_within_1_1e_14():
    assert float(abs(bl.log2_series().value - mpmath.log(2))) <= 1.1e-14


# --- Norlund difference series --------------------------------------------


@pytest.mark.parametrize("m", range(1, 11))
def test_norlund_integer_cases_exact(m):
    # x above 6 steps down to 6, whose falling factor vanishes at k = 7.
    res = bl.norlund_diff(float(m), 1.0)
    assert res.termination == bl.EXACT_TERMINATION
    assert res.terms_used == min(m, 6)
    assert abs(res.value - harmonic_oracle(m)) <= 1e-12


_EXACT_CASES = (
    [("norlund", {"x": float(x), "a": a}) for x in range(11) for a in (0.051, 0.059, 0.5, 2.5)]
    + [("beta", {"u": float(u), "v": v}) for u in (1, 2, 5, 13, 29, 50) for v in (0.05, 2.5)]
    + [("beta-limit", {"u": float(u)}) for u in (2, 7, 23, 50)]
    + [("digamma", {"u": float(u)}) for u in (1, 2, 17, 1000)]
)
_EXACT_REFERENCES = {
    "norlund": lambda x, a: mpmath.digamma(x + mpmath.mpf(a)) - mpmath.digamma(a),
    "beta": lambda u, v: mpmath.beta(u, v),
    "beta-limit": lambda u: -mpmath.digamma(u) - mpmath.euler,
    "digamma": lambda u: mpmath.digamma(u),
}


@mpmath.workdps(30)
def test_exact_terminations_report_the_rounding_floor():
    # A finite sum still rounds: norlund_diff(10.0, 0.051) is 3.5e-14 off (3.9e-13
    # when it summed at x = 10 itself).
    for name, params in _EXACT_CASES:
        res, _ = bl.trace(name, params)
        assert res.termination == bl.EXACT_TERMINATION, (name, params)
        err = float(abs(res.value - _EXACT_REFERENCES[name](**params)))
        assert err <= res.tail_estimate, (name, params)
    assert 3.9e-13 <= bl.norlund_diff(10.0, 0.051).tail_estimate <= 1e-10


def test_norlund_zero_x_is_empty_sum():
    res = bl.norlund_diff(0.0, 2.5)
    assert res.value == 0.0
    assert res.termination == bl.EXACT_TERMINATION
    assert res.terms_used == 0


def test_norlund_half_half():
    res = bl.norlund_diff(0.5, 0.5, CTRL_1E5)
    expected = 2.0 * log2_oracle()  # psi(1) - psi(1/2)
    assert abs(res.value - expected) <= res.tail_estimate + 1e-10
    assert abs(res.value - expected) <= 1e-9  # measured 1.4e-12


def test_norlund_matches_digamma_difference():
    for x, a in ((0.5, 1.0), (1.5, 0.5), (2.0, 2.0), (-0.25, 1.0)):
        res = bl.norlund_diff(x, a, CTRL_1E5)
        expected = bl.digamma(x + a) - bl.digamma(a)
        assert abs(res.value - expected) <= res.tail_estimate + 1e-10, (x, a)


def test_norlund_domain():
    with pytest.raises(DomainError):
        bl.norlund_diff(1.0, 0.0)
    with pytest.raises(DomainError):
        bl.norlund_diff(-2.0, 1.0)  # x + a <= 0
    with pytest.raises(DomainError):
        bl.norlund_diff(float("inf"), 1.0)


# --- finite series cut short by max_terms ----------------------------------

# Finite series with their 50-digit values: beta at u in {2, 3, 8, 20, 50,
# 80, 1000} (the last five reduced to u = 6) and v in {0.5, 2.5, 40};
# beta-limit at u in {2, 7, 30, 50, 80} (the last four reduced to u = 6);
# Norlund at x in {1, 4, 10, 25, 80} (the last three reduced to x = 6) and a in
# {0.5, 3, 100}.
with mpmath.workdps(50):
    CUT_SHORT = (
        [
            ("beta", {"u": float(u), "v": v}, mpmath.beta(u, v))
            for u in (2, 3, 8, 20, 50, 80, 1000)
            for v in (0.5, 2.5, 40.0)
        ]
        + [
            ("beta-limit", {"u": float(u)}, -(mpmath.digamma(u) + mpmath.euler))
            for u in (2, 7, 30, 50, 80)
        ]
        + [
            ("norlund", {"x": float(x), "a": a}, mpmath.digamma(x + a) - mpmath.digamma(a))
            for x in (1, 4, 10, 25, 80)
            for a in (0.5, 3.0, 100.0)
        ]
    )


@mpmath.workdps(50)
def test_cut_short_finite_series_bound_their_error():
    runs = 0
    failures = []
    for name, params, reference in CUT_SHORT:
        full, _ = bl.trace(name, params)
        assert full.termination == bl.EXACT_TERMINATION, (name, params)
        for cut in range(1, full.terms_used):  # every cut short of the last term
            res, _ = bl.trace(name, params, bl.SeriesControl(max_terms=cut))
            assert (res.termination, res.terms_used) == (bl.MAX_TERMS, cut)
            err = float(abs(mpmath.mpf(res.value) - reference))
            if not err <= res.tail_estimate:
                failures.append((name, params, cut, err, res.tail_estimate))
            runs += 1
    assert runs == 133
    assert not failures, failures[:5]


# --- trigamma-family series -----------------------------------------------


@pytest.mark.parametrize("u", [0.25, 0.5, 0.75])
def test_trigamma_series_tail_aware_accuracy(u):
    # The d2 residual bounds the error by itself (measured 1.0e-11 at u = 0.25,
    # where the error is 1.5e-15).
    res = bl.trigamma_series(u, CTRL_1E5)
    err = abs(res.value - bl.trigamma(u))
    assert err <= res.tail_estimate <= 1e-6
    assert err <= 1e-8


def test_trigamma_series_domain_is_open_unit_interval():
    for bad in (0.0, 1.0, -0.5, 1.5):
        with pytest.raises(DomainError):
            bl.trigamma_series(bad)


def test_trigamma_series_agrees_with_half_variant_termwise():
    # At u = 1/2 the general series IS the central-binomial form: first 20
    # terms agree to relative 1e-12 (measured: bitwise equal).  trigamma_series
    # steps u up to 5 + u, so the unshifted kernel is read here.
    general = list(itertools.islice(drive.pairs(sr._trigamma_kernel(0.5)), 20))
    _, half = bl.trace(
        "trigamma-half",
        {"convention": bl.CORRECTED},
        bl.SeriesControl(max_terms=20),
        every=1,
    )
    assert len(general) == len(half) == 20
    for (g, _), h in zip(general, half):
        assert abs(g - h.term) <= 1e-12 * abs(h.term)


@pytest.mark.parametrize(
    "name, params",
    [("trigamma", {"u": u}) for u in (1e-150, 1e-16, 0.5, 1.0 - 2.0**-53)]
    + [("trigamma-half", {"convention": c}) for c in bl.CONVENTIONS],
)
def test_trigamma_terms_are_finite_and_bounded(name, params):
    # Every term is finite through the last sample at 1,477 terms, as the
    # trigamma kernel adds each one unchecked.  At u = 1/2, r_n <= 1 and the
    # bracket is at most 1/(1-u) + H_n.  At 5 + u, |r_n| <= C(5, n) and the
    # bracket is below 2.1 for n < 5; from n = 5 on, r_n carries the factor
    # u (and from 6 on 1 - u) that cancels the bracket's 1/u (and 1/(1-u)),
    # so |a_n| <= (21 + H_n) / n.
    ctrl = bl.SeriesControl(max_terms=1_477, tail_correction=False)
    _, rows = bl.trace(name, params, ctrl, every=1)
    assert len(rows) == 1_477
    harmonic = 0.0
    for row in rows:
        harmonic += 1.0 / row.n
        assert math.isfinite(row.term)
        if name == "trigamma":
            assert abs(row.term) <= (21.0 + harmonic) / row.n, row
        else:
            assert 0.0 <= row.term <= (2.0 + harmonic) / row.n, row


def test_trigamma_half_corrected_value():
    res = bl.trigamma_half_series(bl.CORRECTED, CTRL_1E5)
    assert abs(res.value - math.pi**2 / 2.0) <= res.tail_estimate <= 1e-9


def test_trigamma_half_literal_first_term_vanishes():
    # The literal convention's n=1 inner sum is empty; summation must not
    # mistake the resulting zero term for exact termination.
    res = bl.trigamma_half_series(bl.LITERAL, CTRL_1E3)
    assert res.termination == bl.MAX_TERMS
    assert res.terms_used == 1_000


@pytest.mark.parametrize("series", [bl.trigamma_half_series, bl.zeta2_series])
def test_the_convention_defaults_to_corrected(series):
    assert series() == series(bl.CORRECTED)
    assert series(ctrl=CTRL_1E3) == series(bl.CORRECTED, CTRL_1E3)


def test_trigamma_half_rejects_unknown_convention():
    with pytest.raises(DomainError):
        bl.trigamma_half_series("classic")


def test_zeta2_series_is_one_third_of_half_series():
    # Exact equalities: zeta2 divides by 3, which x * (1/3) would not match.
    for convention in bl.CONVENTIONS:
        z = bl.zeta2_series(convention, CTRL_1E4)
        t = bl.trigamma_half_series(convention, CTRL_1E4)
        assert z.value == t.value / 3.0
        assert z.raw_partial_sum == t.raw_partial_sum / 3.0
        assert z.tail_estimate == t.tail_estimate / 3.0
        assert z.terms_used == t.terms_used
        _, z_rows = bl.trace("zeta2", {"convention": convention}, CTRL_1E3, every=1)
        _, t_rows = bl.trace("trigamma-half", {"convention": convention}, CTRL_1E3, every=1)
        assert len(z_rows) == len(t_rows) == 1_000
        for zr, tr in zip(z_rows, t_rows):
            assert zr == (tr.n, tr.term / 3.0, tr.partial_sum / 3.0, tr.tail_estimate / 3.0)


def test_zeta2_series_corrected_value():
    res = bl.zeta2_series(bl.CORRECTED, CTRL_1E5)
    assert abs(res.value - zeta_oracle(2.0)) <= res.tail_estimate <= 1e-9


def test_convention_difference_is_four_log_two():
    # The d2 path stops at its order cap after 1,477 terms, where the two sums
    # differ by 4 log 2 to within 2.6e-12; a 1,000-term budget (order 8)
    # still reaches 3.9e-11.
    corrected = bl.trigamma_half_series(bl.CORRECTED)
    literal = bl.trigamma_half_series(bl.LITERAL)
    diff = corrected.value - literal.value
    assert abs(diff - 4.0 * log2_oracle()) <= 1e-10
    short_c = bl.trigamma_half_series(bl.CORRECTED, CTRL_1E3)
    short_l = bl.trigamma_half_series(bl.LITERAL, CTRL_1E3)
    assert abs((short_c.value - short_l.value) - 4.0 * log2_oracle()) <= 1e-9


# --- trace dispatch -------------------------------------------------------


def test_trace_names_cover_all_series():
    # name -> (params, the public function that must give the same result)
    cases = {
        "beta": ({"u": 2.0, "v": 1.0}, lambda c: bl.beta_series(2.0, 1.0, c)),
        "beta-limit": ({"u": 2.0}, lambda c: bl.beta_limit_series(2.0, c)),
        "digamma": ({"u": 0.5}, lambda c: bl.digamma_series(0.5, c)),
        "log2": ({}, lambda c: bl.log2_series(c)),
        "norlund": ({"x": 2.0, "a": 1.0}, lambda c: bl.norlund_diff(2.0, 1.0, c)),
        "trigamma": ({"u": 0.5}, lambda c: bl.trigamma_series(0.5, c)),
        "trigamma-half": (
            {"convention": bl.CORRECTED},
            lambda c: bl.trigamma_half_series(bl.CORRECTED, c),
        ),
        "zeta2": ({"convention": bl.CORRECTED}, lambda c: bl.zeta2_series(bl.CORRECTED, c)),
    }
    assert set(cases) == set(SERIES)
    for name, (params, public) in cases.items():
        res, rows = bl.trace(name, params, CTRL_1E3, every=0)
        assert rows == ()
        assert math.isfinite(res.value)
        assert res == public(CTRL_1E3)


def test_trace_rows_checkpoint_partial_sums():
    res, rows = bl.trace("trigamma-half", {"convention": bl.CORRECTED}, CTRL_1E3, every=250)
    assert [row.n for row in rows] == [250, 500, 750, 1000]
    assert rows[-1].partial_sum != res.value or res.tail_estimate == 0.0
    # Checkpoints carry the tail estimate magnitude at that point.
    assert all(row.tail_estimate >= 0.0 for row in rows)


def test_trace_unknown_name():
    with pytest.raises(DomainError):
        bl.trace("fibonacci", {})


def test_trace_rejects_an_unhashable_name():
    with pytest.raises(DomainError, match="unknown series"):
        bl.trace(["beta"], {})


def test_trace_rejects_unknown_params():
    with pytest.raises(DomainError, match=r"takes parameters \[\]"):
        bl.trace("log2", {"u": 1.0})


def test_trace_rejects_missing_params():
    with pytest.raises(DomainError, match=r"takes parameters \['u', 'v'\]"):
        bl.trace("beta", {"u": 1.0})


@pytest.mark.parametrize("name, public", [
    ("zeta2", bl.zeta2_series), ("trigamma-half", bl.trigamma_half_series)])
def test_trace_takes_a_defaulted_parameter_left_out(name, public):
    # The convention defaults to CORRECTED, in trace as in the public function.
    assert bl.trace(name, {}, CTRL_1E3)[0] == public(ctrl=CTRL_1E3)
    assert bl.trace(name, {}, CTRL_1E3) == bl.trace(name, {"convention": bl.CORRECTED}, CTRL_1E3)


def test_trace_rejects_an_unknown_param_beside_a_defaulted_one():
    with pytest.raises(DomainError, match=r"takes parameters \['convention'\]"):
        bl.trace("zeta2", {"u": 1.0})


@pytest.mark.parametrize("params", [None, 3, ["u", "v"]])
def test_trace_rejects_non_mapping_params(params):
    with pytest.raises(DomainError, match=r"takes parameters \['u', 'v'\]"):
        bl.trace("beta", params)


# --- gamma constant consistency -------------------------------------------


def test_engine_constant_matches_oracle():
    assert abs(bl.EULER_GAMMA - euler_gamma_oracle()) <= 4e-15
