"""Tanh-sinh integration on (0,1): exact integrals, kernels, and contracts."""

from __future__ import annotations

import math

import mpmath
import pytest

import betalab as bl
from betalab import quadrature as qd
from betalab.errors import DomainError, EvaluationError, NonConvergenceError, OverflowRangeError
from oracles import harmonic_oracle, log2_oracle

BETA_GRID = [0.25, 0.5, 1.0, 2.5, 5.0]


# --- generic integrator ---------------------------------------------------


@pytest.mark.parametrize(
    "f,exact",
    [
        (lambda t: 1.0, 1.0),
        (lambda t: t, 0.5),
        (lambda t: t * t, 1.0 / 3.0),
        (lambda t: math.log1p(-t), -1.0),
        (lambda t: t**-0.5, 2.0),
    ],
)
def test_integrate01_known_values(f, exact):
    res = bl.integrate01(f)
    assert abs(res.value - exact) <= max(1e-13, res.error_estimate + 1e-13)


def test_integrate01_generic_beta_integrand():
    # B(3/4, 3/4) through the generic interface.  Forming 1 - t inside f
    # rounds away the distance to the right endpoint, which caps accuracy
    # near 1e-12 here; beta_integral avoids this and reaches 1e-15.
    res = bl.integrate01(lambda t: (t * (1.0 - t)) ** -0.25)
    assert abs(res.value - 1.6944261695879582) <= 5e-12
    assert abs(bl.beta_integral(0.75, 0.75).value - 1.6944261695879582) <= 1e-14


def test_integrate01_result_fields():
    res = bl.integrate01(lambda t: 1.0)
    assert res.levels_used >= 1
    assert res.evaluations > 0
    assert math.isfinite(res.error_estimate)


def test_integrate01_never_touches_endpoints():
    seen = []

    def probe(t):
        seen.append(t)
        return 1.0

    bl.integrate01(probe)
    assert seen
    assert all(0.0 < t < 1.0 for t in seen)


def test_integrate01_tolerance_validation():
    with pytest.raises(DomainError):
        bl.integrate01(lambda t: 1.0, tol=0.0)
    with pytest.raises(DomainError):
        bl.integrate01(lambda t: 1.0, tol=-1e-9)


def test_integrate01_nonconvergence_attaches_partial():
    # 1/t diverges; refinement can never settle.
    with pytest.raises(NonConvergenceError) as exc_info:
        bl.integrate01(lambda t: 1.0 / t)
    partial = exc_info.value.result
    assert partial is not None
    assert partial.levels_used == 12


def test_integrate01_rejects_non_finite_integrand():
    with pytest.raises(EvaluationError):
        bl.integrate01(lambda t: float("nan"))


@pytest.mark.parametrize("value", ["x", None, 1j], ids=["str", "none", "complex"])
def test_integrate01_rejects_non_real_integrand(value):
    with pytest.raises(EvaluationError, match="real number"):
        bl.integrate01(lambda t: value)


def test_integrate01_keeps_the_integrands_own_type_error_as_the_cause():
    with pytest.raises(EvaluationError) as info:
        bl.integrate01(lambda t, extra: t)  # called with one argument
    assert isinstance(info.value.__cause__, TypeError) and "extra" in str(info.value.__cause__)


@pytest.mark.parametrize(
    "f", [lambda t: 10**400, lambda t: math.exp(1e4)], ids=["int-past-doubles", "own-overflow"]
)
def test_integrate01_turns_a_builtin_overflow_into_overflow_range_error(f):
    with pytest.raises(OverflowRangeError, match="integrand overflows") as info:
        bl.integrate01(f)
    assert type(info.value.__cause__) is OverflowError


def test_integrate01_passes_the_integrands_own_overflow_range_error_through():
    own = OverflowRangeError("the integrand's own")

    def f(t):
        raise own

    with pytest.raises(OverflowRangeError) as info:
        bl.integrate01(f)
    assert info.value is own


def test_refinement_is_monotone():
    # A converged value never moves by more than the looser error estimate.
    f = lambda t: t**-0.25 * math.exp(t)
    loose = bl.integrate01(f, tol=1e-6)
    tight = bl.integrate01(f, tol=1e-13)
    assert abs(tight.value - loose.value) <= loose.error_estimate + 1e-15


# --- beta kernel ----------------------------------------------------------


@pytest.mark.parametrize("u", BETA_GRID)
@pytest.mark.parametrize("v", BETA_GRID)
def test_beta_integral_matches_reference(u, v):
    res = bl.beta_integral(u, v)
    assert abs(res.value - bl.beta(u, v)) <= res.error_estimate + 1e-12


def test_beta_integral_at_cutoff():
    res = bl.beta_integral(0.05, 0.05)
    assert abs(res.value - bl.beta(0.05, 0.05)) <= res.error_estimate + 1e-10 * res.value


def test_beta_integral_half_half_is_pi():
    res = bl.beta_integral(0.5, 0.5)
    assert abs(res.value - math.pi) <= 1e-12


def test_beta_integral_domain_cutoff():
    with pytest.raises(DomainError):
        bl.beta_integral(0.04, 1.0)
    with pytest.raises(DomainError):
        bl.beta_integral(1.0, 0.01)


# --- log kernel -----------------------------------------------------------


@pytest.mark.parametrize("n", range(1, 11))
def test_log_kernel_moment_harmonic_case(n):
    # -n * integral t^(n-1) log(1-t) dt = H_n
    assert abs(-n * bl.log_kernel_moment(float(n)).value - harmonic_oracle(n)) <= 1e-9


@pytest.mark.parametrize("u", [0.25, 0.5, 1.0, 2.0, 3.0, 5.0, 7.5])
def test_log_kernel_moment_digamma_form(u):
    lhs = -u * bl.log_kernel_moment(u).value
    rhs = bl.euler_gamma() + bl.digamma(u + 1.0)
    assert abs(lhs - rhs) <= 1e-9


def test_log_kernel_moment_closed_values():
    # u=2: -(H_2)/2 = -3/4 exactly; u=1/2: 4 log 2 - 4.
    assert abs(bl.log_kernel_moment(2.0).value + 0.75) <= 1e-14
    expected_half = 4.0 * log2_oracle() - 4.0
    assert abs(bl.log_kernel_moment(0.5).value - expected_half) <= 1e-12


# --- digamma kernel -------------------------------------------------------


@pytest.mark.parametrize("u", [0.25, 0.5, 1.0, 2.0, 3.0, 5.0, 7.5])
def test_digamma_integral_identity(u):
    # integral (1 - t^u)/(1 - t) dt = gamma + digamma(u+1)
    lhs = bl.digamma_integral(u).value
    rhs = bl.euler_gamma() + bl.digamma(u + 1.0)
    assert abs(lhs - rhs) <= 1e-9


def test_digamma_integral_at_one():
    # integral of (1 - t)/(1 - t) = 1 = gamma + digamma(2)
    res = bl.digamma_integral(1.0)
    assert abs(res.value - 1.0) <= 1e-12
    assert abs(bl.euler_gamma() + bl.digamma(2.0) - 1.0) <= 4e-15


def test_kernel_domain_cutoffs():
    with pytest.raises(DomainError):
        bl.log_kernel_moment(0.04)
    with pytest.raises(DomainError):
        bl.digamma_integral(0.0)


# --- node logs and the error floor ----------------------------------------

# The 40 kernel points of the honesty and bit-identity checks below.
KERNEL_GRID = [("beta", (u, v)) for u in (0.25, 0.5, 0.75, 1.0, 2.0, 3.5, 5.0)
               for v in (0.5, 1.0, 2.5, 5.0)]
KERNEL_GRID += [(name, (u,)) for name in ("log-kernel", "digamma")
                for u in (0.25, 0.5, 1.0, 2.0, 3.5, 5.0)]


def _log_given(t, s):
    """log t through whichever of t and s = 1 - t is smaller, taken per call."""
    return math.log(t) if t <= 0.5 else math.log1p(-s)


def _per_call_integrand(name, args):
    """The kernel's ``w f`` at each node of a level, with its logs computed at every node."""
    u = args[0]
    if name == "beta":
        v = args[1]
        f = lambda t, s: math.exp((u - 1.0) * _log_given(t, s) + (v - 1.0) * _log_given(s, t))
    elif name == "log-kernel":
        f = lambda t, s: math.exp((u - 1.0) * _log_given(t, s)) * _log_given(s, t)
    else:
        f = lambda t, s: -math.expm1(u * _log_given(t, s)) / s
    return lambda nodes: [w * f(t, s) for t, s, w, _, _ in nodes]


@pytest.mark.parametrize("level", range(9))
def test_node_logs_are_the_logs_of_the_nearer_distance(level):
    nodes = qd._build_level(level)
    assert nodes
    for t, s, _, lt, ls in nodes:
        assert (lt, ls) == (_log_given(t, s), _log_given(s, t))


@pytest.mark.parametrize("name, args", KERNEL_GRID)
def test_carried_logs_give_the_same_bits_as_logs_per_call(name, args):
    res = qd.KERNELS[name](*args)
    local = qd._refine(_per_call_integrand(name, args), qd.DEFAULT_TOL, kernel=True)
    assert (res.value, res.levels_used, res.evaluations) == (
        local.value, local.levels_used, local.evaluations)


def _reference(name, args):
    u = mpmath.mpf(args[0])
    if name == "beta":
        return mpmath.beta(u, args[1])
    harmonic = mpmath.digamma(u + 1) + mpmath.euler  # int (1 - t^u)/(1 - t) dt
    return -harmonic / u if name == "log-kernel" else harmonic


@pytest.mark.parametrize("name, args", KERNEL_GRID)
@mpmath.workdps(30)
def test_error_estimate_bounds_the_real_error(name, args):
    # Levels that agree to the last bit report a difference of 0; the floor
    # at the last level's rounding keeps the estimate above the real error.
    res = qd.KERNELS[name](*args)
    assert float(abs(mpmath.mpf(res.value) - _reference(name, args))) <= res.error_estimate
    assert 0.0 < res.error_estimate <= qd.DEFAULT_TOL


def _compensated_sum(values, start=0):
    """Builtin ``sum`` over floats as Python 3.12 and later run it: Neumaier's compensated sum."""
    total, comp = float(start), 0.0
    for x in values:
        t = total + x
        comp += (total - t) + x if abs(total) >= abs(x) else (x - t) + total
        total = t
    return total + comp if comp and math.isfinite(comp) else total


@pytest.mark.parametrize("name, args, floor", [
    ("beta", (0.25, 0.5), "0x1.4f9f94f9f50adp-46"),
    ("log-kernel", (2.0,), "0x1.7ffffffffffffp-49"),
    ("beta", (5.0, 5.0), "0x1.a01a01a01a01ep-58"),
    ("beta", (0.5, 0.7), "0x1.40bde8d16c1edp-47"),
])
def test_error_floor_bits_do_not_depend_on_builtin_sum(monkeypatch, name, args, floor):
    # Each estimate here is the rounding floor, which plain float adds give on every Python;
    # a floor taken through builtin sum moves by an ulp or two where that sum is compensated.
    monkeypatch.setattr(qd, "sum", _compensated_sum, raising=False)
    assert qd.KERNELS[name](*args).error_estimate.hex() == floor


# --- estimates on the result's scale --------------------------------------


def _log_grid(lo, hi, n):
    return [lo * (hi / lo) ** (i / (n - 1)) for i in range(n)]


def _unbounded(points, tol=qd.DEFAULT_TOL):
    """Each (name, args) whose result is off by more than its ``error_estimate``
    or than ``tol * |value|``, and the evaluations of all of them."""
    bad, evaluations = [], 0
    for name, args in points:
        res = qd.KERNELS[name](*args, tol)
        err = float(abs(mpmath.mpf(res.value) - _reference(name, args)))
        evaluations += res.evaluations
        if not err <= min(res.error_estimate, tol * abs(res.value)):
            bad.append((name, args, res, err))
    return bad, evaluations


@mpmath.workdps(30)
def test_beta_integral_is_within_its_estimate_and_tol_on_a_23_by_23_log_grid():
    # With an absolute tol and the last difference, 49 of these points were past their
    # estimate: beta_integral(50, 26.68...) stopped at level 1, 93% off, as B = 1.8e-22.
    grid = _log_grid(0.05, 50.0, 23)
    bad, evaluations = _unbounded([("beta", (u, v)) for u in grid for v in grid])
    assert not bad, bad[:5]
    assert evaluations <= 44_000  # 51,761 a level later


@pytest.mark.parametrize("name, most", [("digamma", 17_000), ("log-kernel", 14_500)])
@mpmath.workdps(30)
def test_one_argument_kernels_are_within_their_estimate_and_tol_on_200_log_u(name, most):
    # The three-level estimate stops a level earlier: 22,152 and 17,816 evaluations
    # with the last difference.
    bad, evaluations = _unbounded([(name, (u,)) for u in _log_grid(0.05, 100.0, 200)])
    assert not bad, bad[:5]
    assert evaluations <= most


@pytest.mark.parametrize("tol", [1e-8, 1e-10, 1e-12, 1e-14])
@mpmath.workdps(30)
def test_beta_integral_is_within_its_estimate_and_tol_at_every_tol(tol):
    # With an absolute tol, 27 to 35 of these 256 points were past their estimate.
    grid = _log_grid(0.05, 50.0, 16)
    bad, _ = _unbounded([("beta", (u, v)) for u in grid for v in grid], tol)
    assert not bad, bad[:5]


def test_an_estimate_above_tol_times_the_value_does_not_converge():
    # The rounding floor, 16 eps |value|, is above a relative tol of 1e-16.
    with pytest.raises(NonConvergenceError, match="relative") as info:
        bl.beta_integral(2.0, 3.0, tol=1e-16)
    assert info.value.result.levels_used == qd.MAX_LEVEL


# integrate01 as the last-difference rule left it: value, error_estimate, levels, evaluations.
INTEGRATE01_BITS = {
    "square": (lambda t: t * t, "0x1.5555555555553p-2", "0x1.5555555555553p-52", 4, 148),
    "sqrt": (math.sqrt, "0x1.5555555555555p-1", "0x1.8380000000000p-43", 3, 74),
    "log1p": (lambda t: math.log1p(-t), "-0x1.ffffffffffff6p-1", "0x1.5780000000000p-43", 3, 74),
    "kink": (lambda t: abs(t - 1 / 3), "0x1.1c71c746e3a12p-2", "0x1.8b8dc30000000p-30", 12,
             37841),
}


@pytest.mark.parametrize("name", sorted(INTEGRATE01_BITS))
def test_integrate01_keeps_its_absolute_tol_and_last_difference(name):
    f, value, estimate, levels, evaluations = INTEGRATE01_BITS[name]
    try:
        res = bl.integrate01(f)
    except NonConvergenceError as exc:  # |t - 1/3| converges linearly: not by level 12
        res = exc.result
    assert (res.value.hex(), res.error_estimate.hex(), res.levels_used,
            res.evaluations) == (value, estimate, levels, evaluations)


@mpmath.workdps(30)
def test_integrate01_error_estimate_bounds_the_real_error():
    res = bl.integrate01(lambda t: t * t)
    assert float(abs(mpmath.mpf(res.value) - mpmath.mpf(1) / 3)) <= res.error_estimate


# --- the tail cut ---------------------------------------------------------

# KERNEL_GRID plus a log grid of u, v in [0.05, 50].
_LOG_UV = [0.05 * 1000.0 ** (i / 10) for i in range(11)]
CUT_GRID = KERNEL_GRID + [("beta", (u, v)) for u in _LOG_UV for v in _LOG_UV]
CUT_GRID += [(name, (u,)) for name in ("log-kernel", "digamma") for u in _LOG_UV]


def _kernel_runs():
    return [qd.KERNELS[name](*args) for name, args in CUT_GRID]


def _bits(res):
    return res.value.hex(), res.error_estimate.hex(), res.levels_used


def test_tail_cut_changes_no_bit_and_saves_a_third_of_the_evaluations(monkeypatch):
    cut = _kernel_runs()
    monkeypatch.setattr(qd, "_TAIL_CUT", 0.0)  # no |w f| is below 0: every node is kept
    full = _kernel_runs()
    assert [_bits(r) for r in cut] == [_bits(r) for r in full]
    assert sum(r.evaluations for r in cut) <= 0.65 * sum(r.evaluations for r in full)


def test_a_kernel_counts_each_integrand_evaluation(monkeypatch):
    # Level 0 runs out from the centre node by node, so no node past a cut is evaluated.
    evaluated = []
    refine = qd._refine

    def counting(level_values, tol, kernel):
        def counted(nodes):
            evaluated[-1] += len(nodes)
            return level_values(nodes)

        evaluated.append(0)
        return refine(counted, tol, kernel)

    monkeypatch.setattr(qd, "_refine", counting)
    assert [r.evaluations for r in _kernel_runs()] == evaluated


@pytest.mark.parametrize("f", [lambda t: 1.0, math.sqrt], ids=["one", "sqrt"])
def test_integrate01_evaluates_every_interior_node(f):
    res = bl.integrate01(f)
    interior = sum(1 for level in range(res.levels_used + 1)
                   for t, *_ in qd._build_level(level) if 0.0 < t < 1.0)
    assert (res.levels_used, res.evaluations) == (3, 74) == (3, interior)
