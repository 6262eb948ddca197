"""Command-line surface: parsing, printing, exit codes, and report output."""

from __future__ import annotations

import csv
import io
import json

import pytest

import betalab as bl
from betalab import cli, verify
from betalab.cli import CommandInvocation, main, parse


def run_cli(capsys, *argv):
    """Invoke main() and return (exit_code, stdout, stderr)."""
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- parse ----------------------------------------------------------------


def test_parse_eval_invocation():
    inv = parse(["eval", "digamma", "--x", "0.5"])
    assert isinstance(inv, CommandInvocation)
    assert inv.subcommand == "eval"
    assert inv.options["function"] == "digamma"
    assert inv.options["x"] == "0.5"


def test_parse_verify_filter():
    inv = parse(["verify", "--only", "EQ4,EQ7"])
    assert inv.subcommand == "verify"
    assert inv.options["only"] == "EQ4,EQ7"


def test_parse_rejects_unknown_series():
    with pytest.raises(SystemExit) as exc_info:
        parse(["series", "bogus"])
    assert exc_info.value.code == 2


def test_parse_rejects_unknown_subcommand():
    with pytest.raises(SystemExit):
        parse(["transmogrify"])


def test_parse_rejects_unknown_flag():
    with pytest.raises(SystemExit):
        parse(["eval", "gamma", "--x", "1", "--frobnicate"])


def test_main_maps_usage_problems_to_exit_2(capsys):
    assert main(["series", "bogus"]) == 2
    assert main([]) == 2
    assert main(["limit", "gamma-pole", "--depth", "not-a-number"]) == 2
    capsys.readouterr()


def test_main_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    out = capsys.readouterr().out
    assert "eval" in out and "verify" in out


# --- eval -----------------------------------------------------------------


def test_eval_beta_pinned_output(capsys):
    code, out, err = run_cli(capsys, "eval", "beta", "--x", "2", "--x2", "3")
    assert code == 0
    assert out == "0.083333333333333329\n"
    assert err == ""


def test_eval_prints_round_trippable_doubles(capsys):
    cases = [
        (["eval", "digamma", "--x", "0.5"], bl.digamma(0.5)),
        (["eval", "lgamma", "--x", "7.25"], bl.lgamma(7.25)),
        (["eval", "euler_gamma"], bl.euler_gamma()),
        (["eval", "hurwitz_zeta", "--x", "2", "--x2", "0.5"], bl.hurwitz_zeta(2.0, 0.5)),
        (["eval", "central_binom", "--x", "10"], bl.central_binom(10)),
        (["eval", "polygamma", "--x", "1", "--x2", "0.5"], bl.polygamma(1, 0.5)),
        (["eval", "rising", "--x", "0.3", "--x2", "4"], bl.rising(0.3, 4)),
        (["eval", "beta_half", "--x", "6"], bl.beta_half(6)),
    ]
    for argv, expected in cases:
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0, argv
        assert float(out) == expected, argv


def test_eval_missing_argument(capsys):
    code, out, err = run_cli(capsys, "eval", "beta", "--x", "2")
    assert code == 2
    assert "requires --x2" in err


def test_eval_extra_argument(capsys):
    code, _, err = run_cli(capsys, "eval", "euler_gamma", "--x", "3")
    assert code == 2
    assert "takes no --x" in err


def test_eval_unparsable_number(capsys):
    code, _, err = run_cli(capsys, "eval", "gamma", "--x", "two")
    assert code == 2
    assert "must be a number" in err


def test_eval_integer_argument_enforced(capsys):
    code, _, err = run_cli(capsys, "eval", "polygamma", "--x", "1.5", "--x2", "0.5")
    assert code == 2
    assert "must be an integer" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("gamma", "--x", "1e-310"),
        ("beta", "--x", "1e-310", "--x2", "0.5"),
        ("trigamma", "--x", "1e-310"),
        ("hurwitz_zeta", "--x", "2", "--x2", "1e-310"),
    ],
)
def test_eval_overflow_exits_2_with_error_line(capsys, argv):
    code, out, err = run_cli(capsys, "eval", *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "overflows double precision" in err


def test_eval_factorial_with_a_vanishing_factor_prints_zero(capsys):
    # The factors before the zero overflow; the product is still exactly 0.
    assert run_cli(capsys, "eval", "rising", "--x", "-400", "--x2", "500") == (
        0, "0\n", ""
    )
    assert run_cli(capsys, "eval", "falling", "--x", "400", "--x2", "500") == (
        0, "-0\n", ""
    )


def test_eval_domain_error(capsys):
    code, _, err = run_cli(capsys, "eval", "gamma", "--x", "-1")
    assert code == 2
    assert err.startswith("error:")


# --- series ---------------------------------------------------------------


def test_series_trace_table_shape(capsys):
    code, out, _ = run_cli(
        capsys, "series", "digamma", "--u", "0.5", "--max-terms", "1000", "--every", "100",
        "--no-tail-correction",
    )
    assert code == 0
    lines = out.splitlines()
    data_rows = [ln for ln in lines if ln.strip() and ln.split()[0].isdigit()]
    assert len(data_rows) == 10
    assert any(ln.startswith("termination") and "max_terms" in ln for ln in lines)
    summary = {
        ln.split("=")[0].strip(): ln.split("=")[1].strip()
        for ln in lines
        if "=" in ln and not ln.split()[0].isdigit()
    }
    assert summary["terms_used"] == "1000"
    assert summary["reductions"] == "5"  # 0.5 steps up into (5, 6]
    assert float(summary["value"])  # parses as a double


def test_series_values_round_trip(capsys):
    code, out, _ = run_cli(capsys, "series", "beta", "--u", "5", "--v", "2.5")
    assert code == 0
    expected = bl.beta_series(5.0, 2.5)
    summary = dict(
        (ln.split("=")[0].strip(), ln.split("=")[1].strip())
        for ln in out.splitlines()
        if "=" in ln
    )
    assert float(summary["value"]) == expected.value
    assert summary["termination"] == "exact_termination"


def test_series_without_tol_is_exploratory(capsys):
    code, _, err = run_cli(
        capsys, "series", "digamma", "--u", "0.5", "--max-terms", "1000"
    )
    assert code == 0
    assert err == ""


def test_series_explicit_tol_unmet_exits_3(capsys):
    code, out, err = run_cli(
        capsys,
        "series", "digamma", "--u", "0.5", "--max-terms", "1000", "--tol", "1e-14",
        "--no-tail-correction",
    )
    assert code == 3
    assert "above tol" in err
    assert "termination      = max_terms" in out


def test_series_extrapolation_short_of_tol_exits_3(capsys):
    code, out, err = run_cli(capsys, "series", "digamma", "--u", "0.5", "--tol", "1e-14")
    assert code == 3
    assert "termination      = precision_limit" in out
    assert err.startswith("error: series stopped at precision_limit with estimated tail ")
    assert "above tol 1e-14" in err
    # Without --tol a run that ends at precision_limit (near u = 0 the rounding
    # floor of psi(u) ~ -1/u is above the default tol) is exploratory.
    code, out, err = run_cli(capsys, "series", "digamma", "--u", "1e-4")
    assert (code, err) == (0, "")
    assert "termination      = precision_limit" in out


def test_series_finite_sum_cut_short_of_tol_exits_3(capsys):
    argv = ("series", "beta", "--u", "50", "--v", "0.5", "--max-terms", "3")
    code, out, err = run_cli(capsys, *argv, "--tol", "1e-3")
    assert code == 3
    assert "termination      = max_terms" in out
    assert err.startswith("error: series stopped at max_terms with estimated tail ")
    # Without --tol the same run is exploratory.
    assert run_cli(capsys, *argv)[::2] == (0, "")


def test_series_exact_termination_above_tol_exits_3(capsys):
    # An exact termination reports its rounding floor, which a tight --tol can miss.
    code, out, err = run_cli(capsys, "series", "beta", "--u", "3", "--v", "0.5", "--tol", "1e-20")
    assert code == 3
    assert "termination      = exact_termination" in out
    assert err.startswith("error: series stopped at exact_termination with estimated tail ")
    assert err.count("\n") == 1


def test_series_explicit_tol_met_exits_0(capsys):
    code, _, err = run_cli(
        capsys, "series", "norlund", "--xarg", "0.5", "--a", "0.5", "--tol", "1e-4"
    )
    assert code == 0
    assert err == ""


def test_series_convention_flag(capsys):
    code_corr, out_corr, _ = run_cli(
        capsys, "series", "zeta2", "--max-terms", "10000"
    )
    code_lit, out_lit, _ = run_cli(
        capsys, "series", "zeta2", "--convention", "literal", "--max-terms", "10000"
    )
    assert code_corr == code_lit == 0
    assert run_cli(capsys, "series", "trigamma-half", "--convention", "bogus") == (
        2, "", "error: convention must be one of ('literal', 'corrected'), got 'bogus'\n"
    )
    value = lambda out: float(
        next(ln for ln in out.splitlines() if ln.startswith("value")).split("=")[1]
    )
    assert value(out_corr) != value(out_lit)


def test_series_missing_parameter(capsys):
    code, _, err = run_cli(capsys, "series", "beta", "--u", "2")
    assert code == 2
    assert "requires --v" in err


def test_series_foreign_parameter(capsys):
    code, _, err = run_cli(capsys, "series", "log2", "--u", "1")
    assert code == 2
    assert "takes no --u" in err
    code, _, err = run_cli(capsys, "series", "beta", "--u", "1", "--v", "1", "--convention", "literal")
    assert code == 2
    assert "takes no --convention" in err


def test_series_validates_control_values(capsys):
    code, _, err = run_cli(capsys, "series", "log2", "--max-terms", "0")
    assert code == 2
    code, _, err = run_cli(capsys, "series", "log2", "--every", "-5")
    assert code == 2
    assert err == "error: every must be a finite integer >= 0, got -5\n"


def test_series_no_tail_correction_flag(capsys):
    _, out_raw, _ = run_cli(
        capsys, "series", "log2", "--max-terms", "1000", "--no-tail-correction"
    )
    summary = dict(
        (ln.split("=")[0].strip(), ln.split("=")[1].strip())
        for ln in out_raw.splitlines()
        if "=" in ln
    )
    assert summary["value"] == summary["raw_partial_sum"]


# --- integrate ------------------------------------------------------------


def test_integrate_beta_pi(capsys):
    code, out, _ = run_cli(capsys, "integrate", "beta", "--u", "0.5", "--v", "0.5")
    assert code == 0
    summary = dict(
        (ln.split("=")[0].strip(), ln.split("=")[1].strip())
        for ln in out.splitlines()
    )
    assert float(summary["value"]) == bl.beta_integral(0.5, 0.5).value
    assert int(summary["levels_used"]) >= 1
    assert int(summary["evaluations"]) > 0


def test_integrate_log_kernel(capsys):
    code, out, _ = run_cli(capsys, "integrate", "log-kernel", "--u", "2")
    assert code == 0
    value = float(
        next(ln for ln in out.splitlines() if ln.startswith("value")).split("=")[1]
    )
    assert abs(value + 0.75) <= 1e-13


def test_integrate_requires_parameters(capsys):
    code, _, err = run_cli(capsys, "integrate", "beta", "--u", "0.5")
    assert code == 2
    assert "requires --v" in err and "--u" not in err
    code, _, err = run_cli(capsys, "integrate", "beta")
    assert code == 2
    assert "requires --u and --v" in err
    code, _, err = run_cli(capsys, "integrate", "digamma", "--u", "1", "--v", "2")
    assert code == 2
    assert "takes no --v" in err


def test_integrate_domain_error(capsys):
    code, _, err = run_cli(capsys, "integrate", "beta", "--u", "0.01", "--v", "1")
    assert code == 2
    assert err.startswith("error:")


def test_integrate_unreachable_tol_exits_3(capsys):
    code, _, err = run_cli(
        capsys, "integrate", "beta", "--u", "100", "--v", "100", "--tol", "1e-300"
    )
    assert code == 3
    assert "error:" in err
    assert "partial value" in err


# --- limit ----------------------------------------------------------------


def test_limit_gamma_pole(capsys):
    code, out, _ = run_cli(capsys, "limit", "gamma-pole")
    assert code == 0
    value = float(
        next(ln for ln in out.splitlines() if ln.startswith("value")).split("=")[1]
    )
    assert value == bl.gamma_pole_limit().value
    assert "table_depth" in out


def test_limit_scaled_beta_prints_both_routes(capsys):
    code, out, _ = run_cli(capsys, "limit", "scaled-beta", "--u", "0.5")
    assert code == 0
    assert out.count("value") == 2
    assert "via_log_gamma" in out and "via_recurrence" in out


def test_limit_parameter_validation(capsys):
    code, _, err = run_cli(capsys, "limit", "beta-pole")
    assert code == 2
    assert "requires --u" in err
    code, _, err = run_cli(capsys, "limit", "gamma-pole", "--u", "1")
    assert code == 2
    assert "takes no --u" in err
    code, _, err = run_cli(capsys, "limit", "gamma-pole", "--depth", "20")
    assert code == 2
    code, _, err = run_cli(capsys, "limit", "gamma-pole", "--h0", "-1")
    assert code == 2


# --- verify ---------------------------------------------------------------


def test_verify_eq4h_ten_passing_records(capsys):
    code, out, _ = run_cli(capsys, "verify", "--only", "EQ4H")
    assert code == 0
    lines = [ln for ln in out.splitlines() if ln.startswith("EQ4H")]
    assert len(lines) == 10
    assert all("pass" in ln for ln in lines)
    assert "total 10  passed 10  failed 0  skipped 0" in out


def test_verify_json_subset(capsys):
    code, out, _ = run_cli(capsys, "verify", "--only", "BU1,SYM", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["counts"]["failed"] == 0
    assert {r["identity_id"] for r in payload["records"]} == {"BU1", "SYM"}


def test_verify_runs_are_byte_identical(capsys):
    code1, out1, _ = run_cli(capsys, "verify", "--only", "EQ7,LOG2", "--format", "json")
    code2, out2, _ = run_cli(capsys, "verify", "--only", "EQ7,LOG2", "--format", "json")
    assert code1 == code2 == 0
    assert out1 == out2


def test_verify_out_writes_file(tmp_path, capsys):
    target = tmp_path / "report.csv"
    code, out, _ = run_cli(
        capsys, "verify", "--only", "GHALF", "--format", "csv", "--out", str(target)
    )
    assert code == 0
    assert out == ""
    rows = list(csv.reader(io.StringIO(target.read_text())))
    assert len(rows) == 11  # header + 10 grid points


@pytest.mark.parametrize("where", ["missing/report.csv", "."], ids=["missing-dir", "a-directory"])
def test_verify_out_that_cannot_be_written_exits_2(tmp_path, capsys, where):
    target = tmp_path / where
    code, out, err = run_cli(capsys, "verify", "--only", "GHALF", "--out", str(target))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and str(target) in err


def test_verify_counts_agree_across_formats(capsys):
    _, table_out, _ = run_cli(capsys, "verify", "--only", "DUP")
    _, json_out, _ = run_cli(capsys, "verify", "--only", "DUP", "--format", "json")
    _, csv_out, _ = run_cli(capsys, "verify", "--only", "DUP", "--format", "csv")
    payload = json.loads(json_out)
    csv_rows = list(csv.reader(io.StringIO(csv_out)))
    assert payload["counts"]["total"] == len(csv_rows) - 1
    assert f"total {payload['counts']['total']}" in table_out


def test_verify_unknown_id_exits_2(capsys):
    code, _, err = run_cli(capsys, "verify", "--only", "NOPE")
    assert code == 2
    assert "unknown identity id" in err
    assert "NOPE" in err


@pytest.mark.parametrize("only", [",", ""])
def test_verify_empty_only_exits_2(capsys, only):
    code, out, err = run_cli(capsys, "verify", "--only", only)
    assert (code, out) == (2, "")
    assert err == "error: only must name at least one identity id\n"


def test_verify_failure_exits_1(monkeypatch, capsys):
    spec = next(s for s in bl.builtin_registry() if s.id == "POCH")
    records = bl.run_identity(spec, tolerance=1e-300)
    failing = verify.SuiteReport(
        records=tuple(records),
        counts={
            "total": len(records),
            "passed": sum(1 for r in records if r.passed),
            "failed": sum(1 for r in records if r.passed is False),
            "skipped": 0,
        },
        tool_version=bl.TOOL_VERSION,
        informational=(),
    )
    assert failing.counts["failed"] > 0
    monkeypatch.setattr(verify, "run_suite", lambda only=None: failing)
    code, out, _ = run_cli(capsys, "verify")
    assert code == 1
    assert "fail" in out
