"""Acceptance gate: the package's headline numerical guarantees.

Each test covers one shipped guarantee end to end, prints a single
``[PASS]``/``[FAIL]`` line describing it (visible with ``pytest -s`` or on
failure), and asserts.  Reference values come from the independent stdlib
oracles in :mod:`oracles`, never from the code under test.
"""

from __future__ import annotations

import csv
import io
import json
import math
import time

import betalab as bl

from oracles import (
    beta_half_oracle,
    digamma_half_oracle,
    euler_gamma_oracle,
    gamma_half_oracle,
    harmonic_oracle,
    log2_oracle,
    zeta_oracle,
)


def _report(ok: bool, line: str, failures: list[str] | None = None) -> None:
    print(("[PASS] " if ok else "[FAIL] ") + line)
    detail = "" if not failures else "; first issues: " + "; ".join(failures[:5])
    assert ok, line + detail


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b))


def test_c01_full_identity_suite_green_under_60s():
    start = time.perf_counter()
    report = bl.run_suite()
    elapsed = time.perf_counter() - start
    counts = report.counts
    identities = {r.identity_id for r in report.records}
    ok = (
        len(identities) == 24
        and counts["failed"] == 0
        and counts["skipped"] == 0
        and counts["passed"] == counts["total"]
        and elapsed < 60.0
    )
    _report(
        ok,
        f"C1 full verify suite: {counts['passed']}/{counts['total']} checks green "
        f"across {len(identities)} identities in {elapsed:.2f}s (budget 60s)",
    )


def test_c02_euler_gamma_limit_routes():
    target = -euler_gamma_oracle()
    assert abs(target - (-0.5772156649015329)) < 1e-13
    pole = bl.gamma_pole_limit().value
    deriv = bl.gamma_derivative_at_1().value
    err_pole = abs(pole - target)
    err_deriv = abs(deriv - target)
    ok = err_pole <= 1e-8 and err_deriv <= 1e-8
    _report(
        ok,
        f"C2 gamma pole limit and gamma'(1) vs harmonic-sum oracle: "
        f"errors {err_pole:.2e}, {err_deriv:.2e} (tol 1e-8)",
    )


def test_c03_log_kernel_moment_matches_harmonic_and_digamma():
    failures = []
    worst = 0.0
    for n in range(1, 11):
        got = -n * bl.log_kernel_moment(float(n)).value
        err = abs(got - float(harmonic_oracle(n)))
        worst = max(worst, err)
        if err > 1e-9:
            failures.append(f"n={n} err={err:.2e}")
    gamma = euler_gamma_oracle()
    for u in (0.25, 0.5, 2.0, 5.0):
        got = -u * bl.log_kernel_moment(u).value
        err = abs(got - (gamma + bl.digamma(u + 1.0)))
        worst = max(worst, err)
        if err > 1e-9:
            failures.append(f"u={u} err={err:.2e}")
    _report(
        not failures,
        f"C3 -u*log_kernel_moment(u) vs harmonic numbers and gamma+digamma(u+1): "
        f"worst error {worst:.2e} (tol 1e-9)",
        failures,
    )


def test_c04_pole_limit_three_route_agreement():
    failures = []
    worst_lq = 0.0
    worst_series = 0.0
    for u in (0.25, 0.5, 1.0, 2.0, 3.5):
        limit_route = bl.beta_pole_limit(u).value
        quad_route = u * bl.log_kernel_moment(u).value + 1.0 / u
        series = bl.beta_limit_series(u, bl.SeriesControl(max_terms=100_000))
        lq = abs(limit_route - quad_route)
        sq = abs(series.value - quad_route)
        worst_lq = max(worst_lq, lq)
        worst_series = max(worst_series, sq)
        if lq > 1e-7:
            failures.append(f"u={u} limit-vs-quad {lq:.2e}")
        if sq > series.tail_estimate + 1e-10:
            failures.append(f"u={u} series-vs-quad {sq:.2e}")
    _report(
        not failures,
        f"C4 pole-limit three-route agreement: limit-vs-quad worst {worst_lq:.2e} "
        f"(tol 1e-7), series worst {worst_series:.2e} (tail-aware 1e-10)",
        failures,
    )


def test_c05_beta_series_exact_at_integers_and_pi_at_half():
    failures = []
    worst = 0.0
    for u in range(1, 9):
        for v in (0.5, 1.0, 2.5):
            res = bl.beta_series(float(u), v)
            rel = _rel(res.value, bl.beta(float(u), v))
            worst = max(worst, rel)
            if res.termination != bl.EXACT_TERMINATION:
                failures.append(f"({u},{v}) termination={res.termination}")
            if rel > 1e-13:
                failures.append(f"({u},{v}) rel={rel:.2e}")
    half = bl.beta_series(0.5, 0.5)
    err_pi = abs(half.value - math.pi)
    if err_pi > half.tail_estimate + 1e-10:
        failures.append(f"(0.5,0.5) err={err_pi:.2e}")
    _report(
        not failures,
        f"C5 beta series: integer-u worst rel {worst:.2e} with exact termination "
        f"(tol 1e-13); (0.5,0.5) vs pi err {err_pi:.2e} (tail-aware 1e-10)",
        failures,
    )


def test_c06_digamma_and_log2_series():
    dig = bl.digamma_series(0.5, bl.SeriesControl(max_terms=100_000))
    err_dig = abs(dig.value - digamma_half_oracle())
    two = bl.log2_series(bl.SeriesControl(max_terms=10_000))
    err_log2 = abs(two.value - log2_oracle())
    ok = err_dig <= dig.tail_estimate + 1e-10 and err_log2 <= 1e-5
    _report(
        ok,
        f"C6 digamma series at 1/2 err {err_dig:.2e} (tail-aware 1e-10); "
        f"tail-corrected log 2 err {err_log2:.2e} (tol 1e-5 at 1e4 terms)",
    )


def test_c07_norlund_difference_harmonic_and_half():
    failures = []
    worst = 0.0
    for m in range(1, 11):
        res = bl.norlund_diff(float(m), 1.0)
        err = abs(res.value - float(harmonic_oracle(m)))
        worst = max(worst, err)
        if res.termination != bl.EXACT_TERMINATION:
            failures.append(f"m={m} termination={res.termination}")
        if err > 1e-12:
            failures.append(f"m={m} err={err:.2e}")
    half = bl.norlund_diff(0.5, 0.5)
    err_half = abs(half.value - 2.0 * log2_oracle())
    if err_half > half.tail_estimate + 1e-10:
        failures.append(f"(0.5,0.5) err={err_half:.2e}")
    _report(
        not failures,
        f"C7 shifted-digamma difference series: harmonic worst err {worst:.2e} "
        f"exact (tol 1e-12); (0.5,0.5) vs 2 log 2 err {err_half:.2e} "
        f"(tail-aware 1e-10)",
        failures,
    )


def test_c08_trigamma_series_family_and_convention_gap():
    failures = []
    worst = 0.0
    # Each error must be within its own tail estimate and a fixed bound.
    for u in (0.25, 0.5, 0.75):
        res = bl.trigamma_series(u)
        err = abs(res.value - bl.trigamma(u))
        worst = max(worst, err)
        if err > min(1e-8, res.tail_estimate):
            failures.append(f"u={u} err={err:.2e}")
    half_corr = bl.trigamma_half_series(convention=bl.CORRECTED)
    err_half = abs(half_corr.value - math.pi ** 2 / 2.0)
    if err_half > min(1e-10, half_corr.tail_estimate):
        failures.append(f"trigamma-half err={err_half:.2e}")
    z2 = bl.zeta2_series(convention=bl.CORRECTED)
    err_z2 = abs(z2.value - zeta_oracle(2))
    assert abs(zeta_oracle(2) - 1.6449340668) < 5e-11
    if err_z2 > min(1e-10, z2.tail_estimate):
        failures.append(f"zeta2 err={err_z2:.2e}")
    half_lit = bl.trigamma_half_series(convention=bl.LITERAL)
    gap = half_corr.value - half_lit.value
    err_gap = abs(gap - 4.0 * log2_oracle())
    if err_gap > 1e-10:
        failures.append(f"convention gap err={err_gap:.2e}")
    _report(
        not failures,
        f"C8 trigamma-family series: worst trigamma err {worst:.2e} (within its "
        f"tail estimate and 1e-8); half-argument err {err_half:.2e} and zeta(2) err "
        f"{err_z2:.2e} (within their tail estimates and 1e-10); corrected-literal "
        f"gap vs 4 log 2 err {err_gap:.2e} (tol 1e-10)",
        failures,
    )


def test_c09_closed_forms_half_arguments_and_duplication():
    failures = []
    worst_g = 0.0
    for n in range(0, 31):
        rel = _rel(bl.gamma_half(n), bl.gamma(n + 0.5))
        worst_g = max(worst_g, rel)
        if rel > 1e-12:
            failures.append(f"gamma_half({n}) rel={rel:.2e}")
        assert _rel(bl.gamma_half(n), float(gamma_half_oracle(n))) <= 1e-14
    worst_b = 0.0
    for n in range(1, 101):
        rel = _rel(bl.beta_half(n), bl.beta(float(n), 0.5))
        worst_b = max(worst_b, rel)
        if rel > 1e-11:
            failures.append(f"beta_half({n}) rel={rel:.2e}")
        assert _rel(bl.beta_half(n), float(beta_half_oracle(n))) <= 1e-11
    worst_d = 0.0
    for t in (0.25, 0.5, 1.0, 2.0, 5.0, 10.0):
        lhs = bl.gamma(2.0 * t)
        rhs = 2.0 ** (2.0 * t - 1.0) / math.sqrt(math.pi) * bl.gamma(t) * bl.gamma(t + 0.5)
        rel = _rel(lhs, rhs)
        worst_d = max(worst_d, rel)
        if rel > 1e-11:
            failures.append(f"duplication t={t} rel={rel:.2e}")
    worst_z = 0.0
    for s in (2, 3, 4, 6):
        rel = _rel(bl.hurwitz_zeta(float(s), 0.5), (2.0 ** s - 1.0) * zeta_oracle(s))
        worst_z = max(worst_z, rel)
        if rel > 1e-11:
            failures.append(f"hurwitz s={s} rel={rel:.2e}")
    _report(
        not failures,
        f"C9 closed forms: gamma-half worst rel {worst_g:.2e} (tol 1e-12, n<=30); "
        f"beta-half worst rel {worst_b:.2e} (tol 1e-11, n<=100); duplication worst "
        f"rel {worst_d:.2e}; zeta(s,1/2) worst rel {worst_z:.2e} (tol 1e-11)",
        failures,
    )


def test_c10_report_determinism_and_cross_format_counts():
    first = bl.render_report(bl.run_suite(), "json")
    second = bl.render_report(bl.run_suite(), "json")
    byte_identical = first == second
    payload = json.loads(first.decode("utf-8"))
    report = bl.run_suite()
    csv_rows = list(
        csv.reader(io.StringIO(bl.render_report(report, "csv").decode("utf-8")))
    )
    table = bl.render_report(report, "table").decode("utf-8")
    counts = payload["counts"]
    footer = (
        f"total {counts['total']}  passed {counts['passed']}  "
        f"failed {counts['failed']}  skipped {counts['skipped']}"
    )
    counts_agree = (
        counts["total"] == len(csv_rows) - 1
        and counts["total"] == len(payload["records"])
        and footer in table
    )
    ok = byte_identical and counts_agree
    _report(
        ok,
        f"C10 determinism: JSON bodies byte-identical across runs "
        f"({len(first)} bytes); counts agree across json/csv/table "
        f"({counts['total']} records)",
    )


def test_c11_property_suites():
    failures = []
    grid = (0.1, 0.5, 1.0, 2.5, 7.0)
    for u in grid:
        for v in grid:
            if _rel(bl.beta(u, v), bl.beta(v, u)) > 1e-14:
                failures.append(f"symmetry ({u},{v})")
            lhs = bl.beta(u, v + 1.0)
            rhs = v / (u + v) * bl.beta(u, v)
            if abs(lhs - rhs) > 1e-12:
                failures.append(f"recurrence ({u},{v})")
    for u in (0.1, 0.5, 1.0, 3.0, 10.0):
        if _rel(bl.beta(u, 1.0), 1.0 / u) > 1e-13:
            failures.append(f"beta(u,1) u={u}")
    for x in (0.3, 1.5, 4.0):
        for n in range(0, 11):
            if _rel(bl.rising(x, n) * bl.gamma(x), bl.gamma(x + n)) > 1e-11:
                failures.append(f"pochhammer x={x} n={n}")
    for i in range(100):
        x = 0.1 * (500.0 ** (i / 99.0))
        if abs(bl.digamma(x + 1.0) - bl.digamma(x) - 1.0 / x) > 1e-12:
            failures.append(f"digamma recurrence x={x:.4g}")
    h = 1e-5
    for x in (0.5, 1.0, 2.0, 5.0):
        central = (bl.digamma(x + h) - bl.digamma(x - h)) / (2.0 * h)
        if abs(bl.trigamma(x) - central) > 1e-6:
            failures.append(f"gradient x={x}")
    _report(
        not failures,
        "C11 property suites: beta symmetry/recurrence/unit-argument, "
        "pochhammer-gamma, digamma recurrence and trigamma gradient check "
        "all hold on their stated grids",
        failures,
    )
