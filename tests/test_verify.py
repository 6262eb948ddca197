"""Identity suite: registry, grid runner, tolerances, and report rendering."""

from __future__ import annotations

import csv
import functools
import hashlib
import inspect
import io
import json
import math
import os
import sys
import threading
import types
from decimal import Decimal
from fractions import Fraction

import pytest

import betalab as bl
from betalab import core_special as cs
from betalab import limits as lm
from betalab import quadrature as qd
from betalab import series as sr
from betalab import verify
from betalab.errors import DomainError, UnknownIdentityError

EXPECTED_IDS = {
    "SYM", "RECUR", "BU1", "POCH",
    "EQ1", "EQ2", "EQ3", "EQ4", "EQ4H", "EQ4B",
    "EQ5", "EQ6", "EQ7", "EQ7H", "LOG2", "EQ8", "EQ9", "EQ10", "EQ11",
    "DUP", "GHALF", "BHALF", "ZHALF", "PSIM",
}


@pytest.fixture(scope="module")
def full_report():
    return bl.run_suite()


# --- registry -------------------------------------------------------------


def test_registry_has_all_identities():
    registry = bl.builtin_registry()
    assert len(registry) == 24
    assert {spec.id for spec in registry} == EXPECTED_IDS


def test_registry_specs_are_well_formed():
    for spec in bl.builtin_registry():
        assert spec.description
        assert spec.anchor
        assert spec.grid, spec.id
        assert spec.tolerance > 0.0
        assert spec.tolerance_mode in ("absolute", "relative", "tail_aware")


@pytest.mark.parametrize(
    "change",
    [{"grid": ()}, {"grid": ((float("nan"), 0.5),)}, {"grid": ((2.0, -math.inf),)},
     {"tolerance_mode": "loose"}],
    ids=["empty-grid", "nan-point", "infinite-point", "unknown-mode"],
)
def test_identity_spec_rejects_malformed_fields(change):
    spec = bl.builtin_registry()[0]
    with pytest.raises(DomainError):
        spec._replace(**change)


def test_registry_is_cached():
    assert bl.builtin_registry() is bl.builtin_registry()


# --- sides ----------------------------------------------------------------


def _route_routines() -> set:
    """The layer routines among the CLI's routes: each kernel and limit in its table, each eval
    function in core_special.__all__, and each series wrapper whose term source is in SERIES."""
    routines = {*qd.KERNELS.values(), *lm.LIMITS.values()}
    routines |= {f for name in cs.__all__ if inspect.isfunction(f := getattr(cs, name))}
    sources = {source.__name__ for source in sr.SERIES.values()}
    return routines | {f for name in sr.__all__ if inspect.isfunction(f := getattr(sr, name))
                       and sources & set(f.__code__.co_names)}


# (identity id, side) -> the routine that side is.
ROUTINE_SIDES = {
    ("SYM", "lhs"): cs.beta, ("POCH", "lhs"): cs.rising, ("EQ1", "lhs"): lm.beta_pole_limit,
    ("EQ3", "lhs"): cs.digamma, ("EQ4H", "rhs"): cs.harmonic, ("EQ4B", "lhs"): qd.digamma_integral,
    ("EQ5", "lhs"): sr.beta_series, ("EQ5", "rhs"): qd.beta_integral,
    ("EQ6", "lhs"): sr.beta_limit_series, ("EQ6", "rhs"): lm.beta_pole_limit,
    ("EQ7", "lhs"): sr.digamma_series, ("EQ7", "rhs"): cs.digamma, ("EQ7H", "lhs"): cs.digamma,
    ("LOG2", "lhs"): sr.log2_series, ("EQ8", "lhs"): sr.norlund_diff,
    ("EQ9", "lhs"): sr.trigamma_series, ("EQ9", "rhs"): cs.trigamma,
    ("EQ10", "lhs"): sr.trigamma_half_series,
    ("GHALF", "lhs"): cs.gamma_half, ("BHALF", "lhs"): cs.beta_half,
}


def _sides():
    for spec in bl.builtin_registry():
        yield (spec.id, "lhs"), spec.lhs
        yield (spec.id, "rhs"), spec.rhs


def test_sides_that_evaluate_one_route_name_its_routine():
    named = {key: getattr(side.module, side.name) for key, side in _sides()
             if isinstance(side, verify._Routine)}
    assert named == ROUTINE_SIDES and set(named.values()) <= _route_routines()
    # None is the routine itself, which the registry would keep as it was bound when cached.
    assert not [key for key, side in _sides() if side in _route_routines()]


@pytest.mark.parametrize("convention", sr.CONVENTIONS)
def test_eq11_reads_zeta2_series_off_eq10s_run(convention):
    # EQ11 divides EQ10's shared run by 3; at the default control that is zeta2_series, bit for bit.
    want = sr.zeta2_series(convention)
    report = bl.run_suite(only=["EQ10", "EQ11"], overrides={"EQ11": {"grid": [(convention,)]}})
    (record,) = [r for r in report.records if r.identity_id == "EQ11"]
    diag = record.diagnostics
    assert (record.lhs_value, diag["terms_used"], diag["tail_estimate"]) == (
        want.value, want.terms_used, want.tail_estimate)
    literal = {obs["identity_id"]: obs["value"] for obs in report.informational}
    assert literal["EQ11"] == sr.zeta2_series(sr.LITERAL).value


class _Recorder:
    """Stands in for every global of a side: each attribute is a routine that records its
    arguments and returns ``_TOKEN``."""

    def __init__(self, calls: list) -> None:
        self.calls = calls

    def __getattr__(self, name: str):
        def routine(*args, **kwargs):
            self.calls.append((args, kwargs))
            return _TOKEN

        return routine


_TOKEN = object()


def _only_forwards(side) -> bool:
    """Whether ``side`` only passes its arguments, as given, to one call and returns its result."""
    code, calls = side.__code__, []
    globals_ = {name: _Recorder(calls) for name in code.co_names}
    args = tuple(object() for _ in range(code.co_argcount))
    try:
        result = types.FunctionType(code, globals_, closure=side.__closure__)(*args)
    except Exception:  # arithmetic on the opaque arguments or the token
        return False
    return calls == [(args, {})] and result is _TOKEN


def test_no_side_is_a_lambda_that_only_forwards_its_point():
    assert _only_forwards(lambda u, v: sr.beta_series(u, v))  # what the check finds
    assert not _only_forwards(lambda u, v: cs.beta(v, u))
    lambdas = {key: side for key, side in _sides() if getattr(side, "__name__", "") == "<lambda>"}
    assert lambdas and not [key for key, side in lambdas.items() if _only_forwards(side)]


def test_a_routine_patched_after_the_registry_is_cached_is_called(monkeypatch):
    registry = bl.builtin_registry()
    calls = []

    def counted(*args, original=sr.beta_series):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(sr, "beta_series", counted)
    report = bl.run_suite(only=["EQ5"])
    assert bl.builtin_registry() is registry
    assert calls == list(next(spec.grid for spec in registry if spec.id == "EQ5"))
    assert report.counts["passed"] == len(calls)


def test_a_registry_first_built_under_a_patch_calls_the_later_binding(monkeypatch, request):
    def must_not_run(*args):
        raise AssertionError("the binding of the registry's first build was called")

    verify.builtin_registry.cache_clear()
    request.addfinalizer(verify.builtin_registry.cache_clear)  # a failure leaves no stale cache
    with monkeypatch.context() as patch:
        patch.setattr(sr, "beta_series", must_not_run)
        registry = bl.builtin_registry()
    calls = []

    def counted(*args, original=sr.beta_series):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(sr, "beta_series", counted)
    report = bl.run_suite(only=["EQ5"])
    assert bl.builtin_registry() is registry
    assert calls == list(next(spec.grid for spec in registry if spec.id == "EQ5"))
    assert report.counts["passed"] == len(calls)


def test_a_user_side_is_called_as_given():
    # wraps() copies cs.beta's __module__ and __name__; the side is still this lambda.
    doubled = functools.wraps(cs.beta)(lambda u, v: 2.0 * cs.beta(u, v))
    spec = bl.IdentitySpec(id="TWICE", description="2 B = B", anchor="none", grid=((1.0, 2.0),),
                           tolerance=1e-9, tolerance_mode="absolute", lhs=doubled, rhs=cs.beta)
    (record,) = bl.run_identity(spec)
    assert record.passed is False and record.lhs_value == 2.0 * record.rhs_value == 1.0


# --- one pass runs each distinct routine call once -------------------------


def _recorded(monkeypatch, module, name, fail=lambda *args: False):
    """Wrap ``module.name`` as the bench does and return the list of its calls'
    argument reprs; a call for which ``fail`` holds raises DomainError instead."""
    calls = []
    routine = getattr(module, name)

    def recorded(*args):
        calls.append(repr(args))
        if fail(*args):
            raise DomainError(f"{name} refused {args!r}")
        return routine(*args)

    monkeypatch.setattr(module, name, recorded)
    return calls


def test_a_pass_calls_each_shared_route_once(monkeypatch):
    moments = _recorded(monkeypatch, qd, "log_kernel_moment")
    poles = _recorded(monkeypatch, lm, "beta_pole_limit")
    report = bl.run_suite()
    assert report.counts["passed"] == 199
    assert moments.count("(5.0,)") == 1  # EQ1, EQ3 and EQ4
    assert moments.count("(5,)") == 1  # EQ4H's int is a call of its own
    assert poles.count("(5.0,)") == 1  # EQ1 and EQ6
    assert len(set(moments)) == len(moments) and len(set(poles)) == len(poles)


def test_each_pass_repeats_every_call(monkeypatch):
    moments = _recorded(monkeypatch, qd, "log_kernel_moment")
    bl.run_suite()
    first = list(moments)
    bl.run_suite()
    assert len(set(first)) == len(first)
    assert moments == first + first
    assert verify._results.get() is None


def test_a_pass_takes_at_most_3000_quadrature_evaluations(monkeypatch):
    # 45 kernel calls; with the last-difference estimate they took 4,173.
    results = []
    for name in ("beta_integral", "log_kernel_moment", "digamma_integral"):
        def counted(*args, _routine=getattr(qd, name)):
            results.append(_routine(*args))
            return results[-1]

        monkeypatch.setattr(qd, name, counted)
    assert bl.run_suite().counts["passed"] == 199
    assert len(results) == 45
    assert sum(res.evaluations for res in results) <= 3000


def test_a_call_that_raises_is_not_shared(monkeypatch):
    # Only the first call at 5.0 raises: EQ1 skips, EQ3 calls again, EQ4 shares EQ3's result.
    moments = _recorded(monkeypatch, qd, "log_kernel_moment",
                        fail=lambda *args: moments == [repr(args)] and args == (5.0,))
    report = bl.run_suite(only=["EQ4", "EQ3", "EQ1"], overrides={
        key: {"grid": [(5.0,)]} for key in ("EQ1", "EQ3", "EQ4")
    })
    assert [(r.identity_id, r.skipped, r.passed) for r in report.records] == [
        ("EQ1", True, None), ("EQ3", False, True), ("EQ4", False, True)
    ]
    assert report.records[0].reason == "DomainError: log_kernel_moment refused (5.0,)"
    assert moments == ["(5.0,)", "(5.0,)"]


@pytest.mark.parametrize(
    "module, name, ids",
    [(qd, "log_kernel_moment", ["EQ1", "EQ3", "EQ4", "EQ4H"]), (lm, "beta_pole_limit", ["EQ1", "EQ6"])],
    ids=["log_kernel_moment", "beta_pole_limit"],
)
def test_a_route_that_raises_skips_every_identity_that_shares_it(monkeypatch, module, name, ids):
    _recorded(monkeypatch, module, name, fail=lambda u, *rest: u == 5)
    report = bl.run_suite()
    skipped = [(r.identity_id, r.params, r.reason) for r in report.records if r.skipped]
    points = {i: (5,) if i == "EQ4H" else (5.0,) for i in ids}
    assert skipped == [(i, points[i], f"DomainError: {name} refused {points[i]!r}") for i in ids]
    assert report.counts["passed"] == 199 - len(ids)


def test_run_identity_outside_a_pass_shares_nothing(monkeypatch):
    moments = _recorded(monkeypatch, qd, "log_kernel_moment")
    specs = {spec.id: spec for spec in bl.builtin_registry()}
    for identity_id in ("EQ1", "EQ3", "EQ1"):
        bl.run_identity(specs[identity_id])
    assert moments == [repr(point) for point in specs["EQ1"].grid] * 3


def test_a_pass_that_raises_leaves_nothing_shared(monkeypatch):
    def broken(*args):
        raise RuntimeError("not a skip")

    monkeypatch.setattr(sr, "trigamma_half_series", broken)
    with pytest.raises(RuntimeError, match="not a skip"):
        bl.run_suite(only=["EQ1", "EQ6", "EQ10"])  # EQ1 and EQ6 share first
    assert verify._results.get() is None


def test_passes_in_threads_share_nothing():
    # Each thread's pass shares its routine results within that thread alone.
    only = ["EQ1", "EQ6", "EQ9", "EQ10", "EQ11"]
    want = bl.render_report(bl.run_suite(only=only), "csv")
    outcomes = []

    def work():
        try:
            outcomes.extend(bl.render_report(bl.run_suite(only=only), "csv") for _ in range(4))
        except Exception as exc:  # a thread's failure is the test's outcome
            outcomes.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work) for _ in range((os.cpu_count() or 1) + 1)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert outcomes == [want] * (4 * len(threads))


# --- suite results --------------------------------------------------------


def test_full_suite_all_pass(full_report):
    assert full_report.counts == {
        "total": 199,
        "passed": 199,
        "failed": 0,
        "skipped": 0,
    }


def test_extrapolated_series_checks_stay_within_their_work_budget(full_report):
    # These series ran 100,000 terms per check before extrapolation; d1 meets
    # tol by the 14th geometric sample.
    records = [
        r for r in full_report.records if r.identity_id in ("EQ5", "EQ6", "EQ7", "EQ8", "LOG2")
    ]
    assert len(records) == 21 + 7 + 7 + 12 + 1
    assert max(r.diagnostics["terms_used"] for r in records) <= 194


def test_records_sorted_by_identity_id(full_report):
    ids = [record.identity_id for record in full_report.records]
    assert ids == sorted(ids)


def test_grid_order_preserved_within_identity(full_report):
    eq4h = [r for r in full_report.records if r.identity_id == "EQ4H"]
    assert [r.params[0] for r in eq4h] == [float(n) for n in range(1, 11)]


def test_informational_reports_literal_convention(full_report):
    ids = [obs["identity_id"] for obs in full_report.informational]
    assert ids == ["EQ10", "EQ11"]
    for obs in full_report.informational:
        assert obs["convention"] == "literal"
        # The literal reading misses the reference by roughly 4 log 2 (EQ10)
        # or (4 log 2)/3 (EQ11); far outside any identity tolerance.
        assert obs["abs_difference"] > 0.9


def test_only_filter_limits_selection():
    report = bl.run_suite(only=["EQ4", "EQ7"])
    assert {r.identity_id for r in report.records} == {"EQ4", "EQ7"}
    assert report.informational == ()


def test_only_filter_deduplicates():
    once = bl.run_suite(only=["SYM"])
    twice = bl.run_suite(only=["SYM", "SYM"])
    assert len(once.records) == len(twice.records)


def test_empty_only_is_rejected():
    with pytest.raises(DomainError, match="at least one identity"):
        bl.run_suite(only=[])


def test_unknown_identity_raises_before_evaluation():
    with pytest.raises(UnknownIdentityError) as exc_info:
        bl.run_suite(only=["EQ4", "NOPE"])
    message = str(exc_info.value)
    assert "NOPE" in message
    assert "EQ4" in message  # the known ids are listed to help the caller


# --- skip visibility ------------------------------------------------------


def test_domain_error_becomes_skipped_record():
    spec = next(s for s in bl.builtin_registry() if s.id == "EQ5")
    records = bl.run_identity(spec, grid=[(0.01, 0.5)])
    assert len(records) == 1
    record = records[0]
    assert record.skipped is True
    assert record.passed is None
    assert "DomainError" in record.reason
    assert record.lhs_value is None


def test_skipped_records_do_not_fail_the_suite():
    spec = next(s for s in bl.builtin_registry() if s.id == "EQ5")
    records = bl.run_identity(spec, grid=[(0.01, 0.5), (2.0, 1.0)])
    assert [r.skipped for r in records] == [True, False]
    assert records[1].passed is True


def test_recurrence_point_with_vanishing_u_plus_v_is_skipped():
    # rhs divides by u + v = 0 here; beta must reject the point before that division.
    report = bl.run_suite(only=["RECUR"], overrides={"RECUR": {"grid": [(0.5, -0.5)]}})
    (record,) = report.records
    assert record.skipped is True
    assert record.reason.startswith("DomainError:")
    assert report.counts == {"total": 1, "passed": 0, "failed": 0, "skipped": 1}


def test_grid_override_through_run_suite():
    report = bl.run_suite(
        only=["BU1"], overrides={"BU1": {"grid": [(2.0,), (4.0,)]}}
    )
    assert len(report.records) == 2
    assert all(r.passed for r in report.records)


def test_tolerance_override_can_force_failure():
    report = bl.run_suite(only=["POCH"], overrides={"POCH": {"tolerance": 1e-300}})
    assert report.counts["failed"] > 0


def test_tolerance_override_validation():
    spec = bl.builtin_registry()[0]
    with pytest.raises(DomainError):
        bl.run_identity(spec, tolerance=0.0)
    with pytest.raises(DomainError):
        bl.run_identity(spec, tolerance=-1e-9)


def test_empty_grid_override_is_rejected():
    spec = bl.builtin_registry()[0]
    with pytest.raises(DomainError, match="empty grid"):
        bl.run_identity(spec, grid=[])
    with pytest.raises(DomainError, match="empty grid"):
        bl.run_suite(overrides={"EQ5": {"grid": []}})


def test_non_finite_grid_override_is_rejected():
    with pytest.raises(DomainError, match="not finite"):
        bl.run_suite(only=["EQ7"], overrides={"EQ7": {"grid": [(float("nan"),)]}})


def test_override_for_an_unknown_id_is_rejected():
    with pytest.raises(UnknownIdentityError, match="NOPE"):
        bl.run_suite(only=["SYM"], overrides={"NOPE": {}})


def test_override_with_an_unknown_key_is_rejected():
    with pytest.raises(DomainError, match="grd"):
        bl.run_suite(only=["SYM"], overrides={"EQ5": {"grd": [(2.0, 0.5)]}})


@pytest.fixture
def no_evaluation(monkeypatch):
    """EQ5's series side, replaced by one that fails the test if it is called."""

    def must_not_run(*args):
        raise AssertionError("an identity was evaluated")

    monkeypatch.setattr(verify.sr, "beta_series", must_not_run)


@pytest.mark.parametrize(
    "override",
    [{"grid": [(1.0,)]}, {"grid": 5}, {"grid": [1.0]}, 3],
    ids=["short-point", "grid-not-iterable", "point-not-iterable", "entry-not-a-mapping"],
)
def test_malformed_override_is_rejected_before_evaluation(override, no_evaluation):
    with pytest.raises(DomainError):
        bl.run_suite(only=["EQ5"], overrides={"EQ5": override})


@pytest.mark.parametrize(
    "kwargs, message",
    [({"overrides": 5}, "overrides must be a mapping"),
     ({"overrides": [("EQ5", {})]}, "overrides must be a mapping"),
     ({"only": [["EQ5"]]}, "identity ids must be strings"),
     ({"only": "EQ5"}, "only must be a collection of identity ids")],
    ids=["overrides-int", "overrides-pairs", "only-entry-not-a-str", "only-a-bare-str"],
)
def test_malformed_selection_is_rejected_before_evaluation(kwargs, message, no_evaluation):
    with pytest.raises(DomainError, match=message):
        bl.run_suite(**{"only": ["EQ5"], **kwargs})


def test_unknown_eq2_route_is_a_skipped_record():
    report = bl.run_suite(only=["EQ2"], overrides={"EQ2": {"grid": [("foo",), ("pole",)]}})
    skipped, evaluated = report.records
    assert skipped.skipped is True and skipped.passed is None
    assert skipped.reason == "DomainError: EQ2 route must be 'pole' or 'lhopital', got 'foo'"
    assert evaluated.passed is True


def test_override_for_an_unselected_id_is_allowed():
    report = bl.run_suite(only=["BU1"], overrides={"EQ5": {"grid": [(2.0, 0.5)]}})
    assert {r.identity_id for r in report.records} == {"BU1"}


# --- tolerance semantics --------------------------------------------------


def test_tail_aware_effective_tolerance(full_report):
    series_backed = [r for r in full_report.records if r.identity_id == "EQ7"]
    assert series_backed
    for record in series_backed:
        tail = record.diagnostics.get("tail_estimate")
        assert tail is not None
        assert record.effective_tol == pytest.approx(1e-4 + tail, rel=1e-12)


def test_relative_mode_scales_with_magnitude(full_report):
    poch = [r for r in full_report.records if r.identity_id == "POCH"]
    big = max(poch, key=lambda r: abs(r.lhs_value))
    assert big.effective_tol == pytest.approx(
        1e-11 * max(abs(big.lhs_value), abs(big.rhs_value)), rel=1e-12
    )


def test_removing_tail_correction_widens_error():
    # At the terms the corrected run used, the plain sum is farther off.
    corrected = bl.digamma_series(0.5, bl.SeriesControl(max_terms=100_000))
    raw = bl.digamma_series(
        0.5, bl.SeriesControl(max_terms=corrected.terms_used, tail_correction=False)
    )
    reference = bl.digamma(0.5)
    assert abs(raw.value - reference) > abs(corrected.value - reference)


# --- rendering ------------------------------------------------------------


def test_json_renders_deterministically(full_report):
    data1 = bl.render_report(full_report, "json")
    data2 = bl.render_report(bl.run_suite(), "json")
    assert data1 == data2


# sha256 of the built-in suite's report per TOOL_VERSION.  A deliberate change
# to the report bytes bumps TOOL_VERSION and adds its digests here.
REPORT_SHA256 = {
    "0.3.0": {
        "json": "3d208bc75d01e50474e8e280478bf06a0f6b415344c717d988e92b9b53dbb514",
        "csv": "1651b52e060050f971f1ed651d4c1a569011845adfa61b46bbbf8b733e24139f",
        "table": "9ee9e32fce13069ae4aa5412f69cde114fb235b7956528f72b5dd733c3e02b46",
    },
    "0.4.0": {
        "json": "5ce6d68f372e1b3c401caad9bd259b3c3ce03cfa83cdc7c50b286e1b9bd6f738",
        "csv": "ea97544e7839bb946dc1fa3aabdbf5496d13c980ffbf378b011b335dbe9098ae",
        "table": "a6770d3cdf09ad8d59db05bc11f3f6da763df451b9b6aa41c29a7a4b98ddc4d9",
    },
    "0.5.0": {
        "json": "93f7985da21667c3886664445cf2729574306a82c56677fb4835dea8affeb8ec",
        "csv": "35445fd02a8d73cef921cab99938a8d72bcaabec4ee73fb96cf8644133d29d92",
        "table": "c83c70aa6da9fbc170290cbb7477cb5d4f0a62dff89f3ec88eccb867341be4a1",
    },
    "0.6.0": {
        "json": "3f798fd255882ffdb5d81a398539dd0e75178d1fb721ab35bec70a5e456c9980",
        "csv": "1802eb1a67c45421c1ccbec1c02821e457417a47ebab52caf0144a54b8c000cc",
        "table": "7486abcfc2e9320cdc6472ebfa41c683363f67b9bb34f7080e03924f28535761",
    },
    "0.7.0": {
        "json": "af264469ff9d4e134db10d50091062f6df764be09099572e0755edd7c832a277",
        "csv": "6a8ddc9ebe8159d244a2d6e16c491668a11fd08b31736f61bca3c526965cfc93",
        "table": "404a9382065697e54945b1aac964f9a4917b7b58e99a65f330b013d7eb89532f",
    },
    "0.8.0": {
        "json": "00f51fafbbb935a391194954a56bd7e808f9447bc111e4335c5777623d4a35c2",
        "csv": "fa31652c78764e3d78659b1535818adf7d03b897bc4371e0ba6a01f69d1979ca",
        "table": "fd466ef7c436b81bf1f6a3fb8a89553616e664400b6357a054eb3e7996c5f552",
    },
    "0.9.0": {
        "json": "bd05a0597ae24f3ba1a1fdb9f398a06e100a1b7aaaff6d9097b467180811e7b5",
        "csv": "778ef745b494c7c348ea894857e00f135e0175297a2078cc5003a234887605ea",
        "table": "aa19bd58e21171e9707babc046b0e3f45c3405c98e4c52b2bfbc23f86a83cfb7",
    },
    "0.10.0": {
        "json": "27fb8ef6b40c91934890931aca678317f257bc8f4a9426dda3544fddee66e9f4",
        "csv": "2d291976adf8f3913c6f91aee1bafcb82859ff372ea16c361065953422dc0d15",
        "table": "04df456e6b609d5e83a0f5d306b89964b14d0ded58dd36c95fd23fa2cf046d89",
    },
    "0.11.0": {
        "json": "d77d6880f3ed80ffbb1426d741db6c8cf7d6839bf15208f171aa8e0498c79036",
        "csv": "d0d4935ef74e3eeda4303a24cd4b1acbd5bbffa4dd65109ddec711f93aefaaa0",
        "table": "0e19bcf46d8cf70423e9f1df0a21b5da1f99b27ebb7d95d0b76e62ce5ebca615",
    },
}


def test_report_bytes_are_pinned_to_the_tool_version(full_report):
    digests = {
        fmt: hashlib.sha256(bl.render_report(full_report, fmt)).hexdigest()
        for fmt in ("json", "csv", "table")
    }
    assert digests == REPORT_SHA256[verify.TOOL_VERSION]


def _log_grid(lo, hi, n):
    return [lo * (hi / lo) ** (i / (n - 1)) for i in range(n)]


# A denser override grid over the series and quadrature routes, so that a
# change to their hot loops shows up in the report bytes beyond the built-in
# grid: EQ5 on 7 x 7 log-spaced (u, v), EQ6-EQ8 on 15 points each, EQ9 on 9 u.
DENSE_GRIDS = {
    "EQ5": [(u, v) for u in _log_grid(0.05, 50.0, 7) for v in _log_grid(0.05, 50.0, 7)],
    "EQ6": [(u,) for u in _log_grid(0.1, 10.0, 15)],
    "EQ7": [(u,) for u in _log_grid(0.1, 10.0, 15)],
    "EQ8": [(x, (0.25, 1.0, 4.0)[i % 3]) for i, x in enumerate(_log_grid(0.1, 10.0, 15))],
    "EQ9": [(i / 10,) for i in range(1, 10)],
}
# sha256 of each render of the dense report, its tool version set to "dense",
# so that a version bump that keeps every value needs no new digest.
DENSE_SHA256 = {
    "json": "4fe0361dafbf498940f7fa6b18df634122ce37dc2a994fcbd0889172fda4cc18",
    "csv": "64c4d99a62ebe71f24e05c9681d7490fa5739734f57e9f74505ccc81b238cd99",
    "table": "b3706c074d43b8b01e9a963c97482eda862dbf8678d527f09446e2ad8ef4f642",
}


def test_dense_grid_report_bytes_are_pinned():
    report = bl.run_suite(
        only=list(DENSE_GRIDS), overrides={k: {"grid": g} for k, g in DENSE_GRIDS.items()}
    )
    assert report.counts == {"total": 103, "passed": 103, "failed": 0, "skipped": 0}
    report = report._replace(tool_version="dense")
    digests = {
        fmt: hashlib.sha256(bl.render_report(report, fmt)).hexdigest() for fmt in DENSE_SHA256
    }
    assert digests == DENSE_SHA256


def test_json_schema_field_order(full_report):
    data = bl.render_report(full_report, "json")
    payload = json.loads(data)
    assert list(payload) == ["tool_version", "counts", "records", "informational"]
    pairs = json.loads(data, object_pairs_hook=lambda p: p)
    records = dict(pairs)["records"]
    expected_keys = [
        "identity_id", "params", "lhs", "rhs", "abs_err", "rel_err",
        "effective_tol", "pass", "skipped", "reason", "diagnostics",
    ]
    for record_pairs in records:
        assert [key for key, _ in record_pairs] == expected_keys


def test_json_floats_round_trip(full_report):
    payload = json.loads(bl.render_report(full_report, "json"))
    by_position = payload["records"]
    assert len(by_position) == len(full_report.records)
    for loaded, record in zip(by_position, full_report.records):
        assert loaded["identity_id"] == record.identity_id
        assert loaded["lhs"] == record.lhs_value
        assert loaded["rhs"] == record.rhs_value
        assert loaded["pass"] == record.passed


def test_csv_structure(full_report):
    data = bl.render_report(full_report, "csv").decode("utf-8")
    rows = list(csv.reader(io.StringIO(data)))
    assert rows[0] == [
        "identity_id", "params", "lhs", "rhs", "abs_err", "rel_err",
        "effective_tol", "pass", "skipped", "reason",
        "terms_used", "tail_estimate", "levels_used", "table_depth",
    ]
    assert len(rows) == 1 + len(full_report.records)
    sym_row = next(row for row in rows if row[0] == "SYM")
    assert ";" in sym_row[1]  # multi-parameter grids join with semicolons


def test_table_has_counts_footer(full_report):
    text = bl.render_report(full_report, "table").decode("utf-8")
    assert "total 199  passed 199  failed 0  skipped 0" in text
    assert "literal" in text  # informational lines included


def test_formats_agree_on_counts(full_report):
    payload = json.loads(bl.render_report(full_report, "json"))
    csv_rows = list(
        csv.reader(io.StringIO(bl.render_report(full_report, "csv").decode()))
    )
    assert payload["counts"]["total"] == len(csv_rows) - 1
    assert payload["counts"] == full_report.counts
    # Record by record: the CSV and table cells are the same strings, and the
    # JSON values are the numbers those cells spell.
    shared = ("params", "lhs", "rhs", "abs_err", "effective_tol")
    header, rows = csv_rows[0], csv_rows[1:]
    table_lines = bl.render_report(full_report, "table").decode().splitlines()
    starts, pos = [], 0  # column offsets, read off the dashed rule under the header
    for dashes in table_lines[1].split("  "):
        starts.append(pos)
        pos += len(dashes) + 2

    def table_row(line):
        return [line[a:b].strip() for a, b in zip(starts, starts[1:] + [None])]

    table_header = table_row(table_lines[0])
    assert table_header[1:6] == list(shared)
    for record, row, line in zip(payload["records"], rows, table_lines[2:]):
        if record["skipped"]:
            continue
        cells = dict(zip(header, row))
        table_cells = dict(zip(table_header, table_row(line)))
        assert table_cells["identity"] == cells["identity_id"] == record["identity_id"]
        for name in shared:
            assert table_cells[name] == cells[name], (record["identity_id"], name)
        for name in shared[1:]:
            assert record[name] == float(cells[name]), (record["identity_id"], name)
        params = cells["params"].split(";") if cells["params"] else []
        assert len(params) == len(record["params"])
        for value, cell in zip(record["params"], params):
            assert value == (cell if isinstance(value, str) else float(cell))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: bl.run_identity("EQ5"), "IdentitySpec"),
        (lambda: bl.run_identity(None), "IdentitySpec"),
        (lambda: bl.render_report("x", "json"), "SuiteReport"),
        (lambda: bl.render_report(bl.builtin_registry()[0], "table"), "SuiteReport"),
    ],
    ids=["id-for-spec", "none-for-spec", "str-for-report", "spec-for-report"],
)
def test_entry_points_reject_an_argument_of_the_wrong_type(call, message):
    with pytest.raises(DomainError, match=message):
        call()


def test_render_rejects_unknown_format(full_report):
    with pytest.raises(DomainError):
        bl.render_report(full_report, "yaml")


def test_json_escapes_quotes_backslashes_and_control_characters():
    text = 'po\nle\t"q"\\\x00\x1f'
    report = bl.run_suite(only=["EQ2"], overrides={"EQ2": {"grid": [(text,)]}})
    (record,) = json.loads(bl.render_report(report, "json"))["records"]
    assert record["params"] == [text]


def test_overflowing_point_becomes_a_skipped_record():
    spec = next(s for s in bl.builtin_registry() if s.id == "SYM")
    (record,) = bl.run_identity(spec, grid=[(1e-310, 0.5)])
    assert record.skipped is True
    assert record.passed is None
    assert record.reason.startswith("OverflowRangeError:")


def test_skipped_record_renders_with_null_pass():
    spec = next(s for s in bl.builtin_registry() if s.id == "EQ5")
    records = bl.run_identity(spec, grid=[(0.01, 0.5)])
    report = verify.SuiteReport(
        records=tuple(records),
        counts={"total": 1, "passed": 0, "failed": 0, "skipped": 1},
        tool_version=bl.TOOL_VERSION,
        informational=(),
    )
    payload = json.loads(bl.render_report(report, "json"))
    record = payload["records"][0]
    assert record["pass"] is None
    assert record["skipped"] is True
    assert "DomainError" in record["reason"]
    csv_text = bl.render_report(report, "csv").decode()
    assert csv_text.count("true") >= 1  # the skipped flag
    table_row = bl.render_report(report, "table").decode().splitlines()[2]
    assert table_row.startswith("EQ5") and table_row.endswith("skip")


class _Int(int):
    pass


class _Float(float):
    pass


# The text of params that no renderer has an entry for: a Decimal and a
# Fraction print by str(), int and float subclasses as their base types do.
_FALLBACK_REASON = "DomainError: u must be a finite positive real, got "
_FALLBACK_TEXT = {
    "json": (
        '    {"identity_id": "EQ5", "params": [0.5, 1/3], "lhs": null, "rhs": null, '
        '"abs_err": null, "rel_err": null, "effective_tol": null, "pass": null, '
        '"skipped": true, "reason": "' + _FALLBACK_REASON + "Decimal('0.5')\", "
        '"diagnostics": {"terms_used": null, "tail_estimate": null, '
        '"levels_used": null, "table_depth": null}},\n'
        '    {"identity_id": "EQ5", "params": [-2, -0.10000000000000001], "lhs": null, '
        '"rhs": null, "abs_err": null, "rel_err": null, "effective_tol": null, '
        '"pass": null, "skipped": true, "reason": "' + _FALLBACK_REASON + '-2", '
        '"diagnostics": {"terms_used": null, "tail_estimate": null, '
        '"levels_used": null, "table_depth": null}}\n'
    ),
    "csv": (
        "EQ5,0.5;1/3,,,,,,,true,\"" + _FALLBACK_REASON + "Decimal('0.5')\",,,,\n"
        "EQ5,-2;-0.10000000000000001,,,,,,,true,\"" + _FALLBACK_REASON + "-2\",,,,\n"
    ),
    "table": (
        "EQ5       0.5;1/3                                                    skip\n"
        "EQ5       -2;-0.10000000000000001                                    skip\n"
    ),
}


@pytest.mark.parametrize("fmt", ["json", "csv", "table"])
def test_params_of_other_types_render_through_the_fallback(fmt):
    grid = [(Decimal("0.5"), Fraction(1, 3)), (_Int(-2), _Float(-0.1))]
    report = bl.run_suite(only=["EQ5"], overrides={"EQ5": {"grid": grid}})
    assert report.counts["skipped"] == 2
    assert _FALLBACK_TEXT[fmt] in bl.render_report(report, fmt).decode()


# A hand-built report that reaches every cell type the renderers format: a
# str, an int and a -0.0 param, 1e-300, -0.0 and exact zeros, a failed and a
# skipped record, partial diagnostics, and a reason holding a comma, a quote,
# a backslash and control characters.  Its bytes were taken from 0.7.0.
GOLDEN_REPORT = verify.SuiteReport(
    records=(
        verify.CheckRecord("EQ10", ("corrected",), 4.934802200544679, 4.934802200544679, 0.0, 0.0,
                           0.0005000000012, True, False, None,
                           {"terms_used": 1477, "tail_estimate": 1.2e-9}),
        verify.CheckRecord("EQ4H", (3,), 1.8333333333333333, 1.8333333333333335,
                           2.220446049250313e-16, 1.2111524e-16, 1e-09, True, False, None,
                           {"levels_used": 7}),
        verify.CheckRecord("EQ5", (0.25, -0.0), 1e-300, -0.0, 1e-300, 1.0, 0.0001, False, False,
                           None, {"terms_used": 129, "tail_estimate": 3.4861891151649615e-11,
                                  "table_depth": 6}),
        verify.CheckRecord("EQ9", (0.5,), reason='DomainError: u, "v" \\ w\x07x\ty'),
    ),
    counts={"total": 4, "passed": 2, "failed": 1, "skipped": 1},
    tool_version="golden",
    informational=(
        {"identity_id": "EQ10", "convention": "literal", "value": 2.1622134364009064,
         "reference": 4.934802200544679, "abs_difference": 2.7725887641437726},
        {"identity_id": "EQ11", "convention": "literal", "value": -0.0,
         "reference": 1.6449340668482264, "abs_difference": 1e-300},
    ),
)
_NO_DIAG = '"terms_used": null, "tail_estimate": null, "levels_used": null, "table_depth": null'
_GOLDEN_JSON_RECORDS = (
    '{\n'
    '  "tool_version": "golden",\n'
    '  "counts": {"total": 4, "passed": 2, "failed": 1, "skipped": 1},\n'
    '  "records": [\n'
    '    {"identity_id": "EQ10", "params": ["corrected"], "lhs": 4.934802200544679, '
    '"rhs": 4.934802200544679, "abs_err": 0, "rel_err": 0, '
    '"effective_tol": 0.00050000000119999996, "pass": true, "skipped": false, "reason": null, '
    '"diagnostics": {"terms_used": 1477, "tail_estimate": 1.2e-09, "levels_used": null, '
    '"table_depth": null}},\n'
    '    {"identity_id": "EQ4H", "params": [3], "lhs": 1.8333333333333333, '
    '"rhs": 1.8333333333333335, "abs_err": 2.2204460492503131e-16, "rel_err": 1.2111524e-16, '
    '"effective_tol": 1.0000000000000001e-09, "pass": true, "skipped": false, "reason": null, '
    '"diagnostics": {"terms_used": null, "tail_estimate": null, "levels_used": 7, '
    '"table_depth": null}},\n'
    '    {"identity_id": "EQ5", "params": [0.25, -0], "lhs": 1e-300, "rhs": -0, '
    '"abs_err": 1e-300, "rel_err": 1, "effective_tol": 0.0001, "pass": false, '
    '"skipped": false, "reason": null, "diagnostics": {"terms_used": 129, '
    '"tail_estimate": 3.4861891151649615e-11, "levels_used": null, "table_depth": 6}},\n'
    '    {"identity_id": "EQ9", "params": [0.5], "lhs": null, "rhs": null, "abs_err": null, '
    '"rel_err": null, "effective_tol": null, "pass": null, "skipped": true, '
    '"reason": "DomainError: u, \\"v\\" \\\\ w\\u0007x\\u0009y", '
    '"diagnostics": {' + _NO_DIAG + '}}\n'
    '  ],\n'
)
_GOLDEN_CSV = (
    "identity_id,params,lhs,rhs,abs_err,rel_err,effective_tol,pass,skipped,reason,"
    "terms_used,tail_estimate,levels_used,table_depth\n"
    "EQ10,corrected,4.934802200544679,4.934802200544679,0,0,0.00050000000119999996,"
    "true,false,,1477,1.2e-09,,\n"
    "EQ4H,3,1.8333333333333333,1.8333333333333335,2.2204460492503131e-16,1.2111524e-16,"
    "1.0000000000000001e-09,true,false,,,,7,\n"
    "EQ5,0.25;-0,1e-300,-0,1e-300,1,0.0001,false,false,,129,3.4861891151649615e-11,,6\n"
    'EQ9,0.5,,,,,,,true,"DomainError: u, ""v"" \\ w\x07x\ty",,,,\n'
)
_GOLDEN_TABLE_RECORDS = (
    "identity  params     lhs                 rhs                 abs_err                 "
    "effective_tol           status\n"
    "--------  ---------  ------------------  ------------------  ----------------------  "
    "----------------------  ------\n"
    "EQ10      corrected  4.934802200544679   4.934802200544679   0                       "
    "0.00050000000119999996  pass\n"
    "EQ4H      3          1.8333333333333333  1.8333333333333335  2.2204460492503131e-16  "
    "1.0000000000000001e-09  pass\n"
    "EQ5       0.25;-0    1e-300              -0                  1e-300                  "
    "0.0001                  FAIL\n"
    "EQ9       0.5                                                                        "
    "                        skip\n"
    "\n"
    "total 4  passed 2  failed 1  skipped 1  (tool golden)\n"
)
# Per informational section (full, empty): the bytes of each format.
GOLDEN_BYTES = {
    "full": {
        "json": _GOLDEN_JSON_RECORDS + (
            '  "informational": [\n'
            '    {"identity_id": "EQ10", "convention": "literal", "value": 2.1622134364009065, '
            '"reference": 4.934802200544679, "abs_difference": 2.7725887641437725},\n'
            '    {"identity_id": "EQ11", "convention": "literal", "value": -0, '
            '"reference": 1.6449340668482264, "abs_difference": 1e-300}\n'
            '  ]\n'
            '}\n'
        ),
        "csv": _GOLDEN_CSV,
        "table": _GOLDEN_TABLE_RECORDS + (
            "info: EQ10 literal convention -> value 2.1622134364009065, "
            "reference 4.934802200544679, |difference| 2.7725887641437725\n"
            "info: EQ11 literal convention -> value -0, reference 1.6449340668482264, "
            "|difference| 1e-300\n"
        ),
    },
    "empty": {
        "json": _GOLDEN_JSON_RECORDS + '  "informational": []\n}\n',
        "csv": _GOLDEN_CSV,
        "table": _GOLDEN_TABLE_RECORDS,
    },
}


def _golden_report(informational):
    return GOLDEN_REPORT if informational == "full" else GOLDEN_REPORT._replace(informational=())


@pytest.mark.parametrize("fmt", ["json", "csv", "table"])
@pytest.mark.parametrize("informational", ["full", "empty"])
def test_hand_built_report_renders_its_golden_bytes(informational, fmt):
    rendered = bl.render_report(_golden_report(informational), fmt)
    assert rendered == GOLDEN_BYTES[informational][fmt].encode("utf-8")


@pytest.mark.parametrize("informational", ["full", "empty"])
def test_render_order_does_not_change_the_bytes(informational):
    report = _golden_report(informational)._replace()  # a fresh report, rendered in a new order
    rendered = {fmt: bl.render_report(report, fmt) for fmt in ("table", "json", "csv")}
    for fmt, data in rendered.items():
        assert data == GOLDEN_BYTES[informational][fmt].encode("utf-8")
        assert bl.render_report(report, fmt) == data


def test_a_report_is_frozen_at_construction():
    # What a report renders stays what it holds: changing the list and dicts it was built from,
    # after its first render, changes neither.
    diagnostics = dict(GOLDEN_REPORT.records[0].diagnostics)
    records = [GOLDEN_REPORT.records[0]._replace(diagnostics=diagnostics),
               *GOLDEN_REPORT.records[1:]]
    counts = dict(GOLDEN_REPORT.counts)
    informational = [dict(obs) for obs in GOLDEN_REPORT.informational]
    report = verify.SuiteReport(records, counts, "golden", informational)
    first = {fmt: bl.render_report(report, fmt) for fmt in ("csv", "json", "table")}
    records.append(records[-1])
    counts["total"] = 5
    informational[0]["value"] = 0.0
    diagnostics["terms_used"] = 0
    assert report == GOLDEN_REPORT
    for fmt, data in first.items():
        assert data == bl.render_report(report, fmt) == GOLDEN_BYTES["full"][fmt].encode("utf-8")
    for mapping in (report.counts, report.informational[0], report.records[0].diagnostics):
        with pytest.raises(TypeError):
            mapping["total"] = 0


def test_a_record_keeps_its_params_as_a_tuple():
    # A list given as params is frozen: the cells a report renders stay the record's,
    # and show a grid point, 0.5, not the fallback text of a list, [0.5].
    params = [0.5]
    record = verify.CheckRecord("EQ9", params, reason="by hand")
    counts = {"total": 1, "passed": 0, "failed": 0, "skipped": 1}
    report = verify.SuiteReport([record], counts, "golden", [])
    first = bl.render_report(report, "csv")
    params[0] = 0.75
    assert record.params == (0.5,) and report.records[0].params == (0.5,)
    assert first == bl.render_report(report, "csv")
    assert first.endswith(b"\nEQ9,0.5,,,,,,,true,by hand,,,,\n")
    assert b'"params": [0.5]' in bl.render_report(report, "json")


_CSV_ROUTE = "DomainError: EQ2 route must be 'pole' or 'lhopital', got "


def test_csv_quotes_by_one_rule_on_every_python_version():
    # A cell holding a comma, a quote, CR or LF is quoted, its quotes doubled, and no
    # other; csv.writer left a lone CR unquoted before Python 3.13.
    grid = [("po\rle",), ("a,b",), ('q"x',), ("n\nl",), ("t\tab",)]
    report = bl.run_suite(only=["EQ2"], overrides={"EQ2": {"grid": grid}})
    rows = bl.render_report(report, "csv").decode().split("\n", 1)[1]
    assert rows == (
        f'EQ2,"po\rle",,,,,,,true,"{_CSV_ROUTE}\'po\\rle\'",,,,\n'
        f'EQ2,"a,b",,,,,,,true,"{_CSV_ROUTE}\'a,b\'",,,,\n'
        f'EQ2,"q""x",,,,,,,true,"{_CSV_ROUTE}\'q""x\'",,,,\n'
        f'EQ2,"n\nl",,,,,,,true,"{_CSV_ROUTE}\'n\\nl\'",,,,\n'
        f'EQ2,t\tab,,,,,,,true,"{_CSV_ROUTE}\'t\\tab\'",,,,\n'
    )


def test_a_fresh_report_rendered_table_first_keeps_its_digests():
    report = bl.run_suite()
    digests = {
        fmt: hashlib.sha256(bl.render_report(report, fmt)).hexdigest()
        for fmt in ("table", "json", "csv")
    }
    assert digests == REPORT_SHA256[verify.TOOL_VERSION]
