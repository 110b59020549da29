"""End-to-end command-line behaviour."""

import json
import os
import signal
import subprocess
import sys
from importlib import resources

import numpy as np
import pytest

import scalar_reference as ref
from summarysd.cli import main
from summarysd.estimators import (
    SCENARIOS,
    CorrectionOrder,
    blom_iqr_divisor,
    estimate_columns,
    eta_hat,
)

SAMPLE_CSV = """study_id,n,min,q1,median,q3,max
alpha,10,0,,4,,10
beta,12,0,2,3,5,9
gamma,20,,1,2,3,
delta,9,5,,5,,5
omega,8,,3,2,1,
"""


@pytest.fixture
def sample_file(tmp_path):
    path = tmp_path / "studies.csv"
    path.write_text(SAMPLE_CSV)
    return path


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEstimate:
    def test_sample_file(self, capsys, sample_file):
        code, out, err = run(capsys, "estimate", str(sample_file))
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "study_id,scenario,mean,sd,divisor,correction,degenerate"
        assert len(lines) == 5  # header + 4 estimates
        assert sum(1 for line in err.splitlines() if line.startswith("error:")) == 1
        assert "omega" in err

    def test_known_row_values(self, capsys, sample_file):
        from summarysd.estimators import xi_hat

        code, out, _ = run(capsys, "estimate", str(sample_file))
        alpha = out.strip().splitlines()[1].split(",")
        assert alpha[0] == "alpha"
        assert alpha[1] == "c1"
        assert float(alpha[2]) == pytest.approx(4.55)
        assert float(alpha[3]) == pytest.approx(10 / xi_hat(10), rel=1e-5)

    def test_scenario_priority(self, capsys, sample_file):
        _, out, _ = run(capsys, "estimate", str(sample_file))
        beta = [l for l in out.splitlines() if l.startswith("beta,")][0]
        assert beta.split(",")[1] == "c2"

    def test_degenerate_row_flagged(self, capsys, sample_file):
        _, out, _ = run(capsys, "estimate", str(sample_file))
        row = [l for l in out.splitlines() if l.startswith("delta,")][0].split(",")
        assert float(row[3]) == 0.0
        assert row[6] == "1"

    def test_byte_stable(self, capsys, sample_file):
        _, out1, err1 = run(capsys, "estimate", str(sample_file))
        _, out2, err2 = run(capsys, "estimate", str(sample_file))
        assert out1 == out2
        assert err1 == err2

    def test_jsonl_format(self, capsys, sample_file):
        code, out, _ = run(capsys, "estimate", str(sample_file), "--format", "jsonl")
        assert code == 0
        records = [json.loads(line) for line in out.strip().splitlines()]
        assert len(records) == 4
        assert records[0]["study_id"] == "alpha"

    def test_own_output_rejected(self, capsys, sample_file, tmp_path):
        _, out, _ = run(capsys, "estimate", str(sample_file))
        loop = tmp_path / "loop.csv"
        loop.write_text(out)
        code, _, err = run(capsys, "estimate", str(loop))
        assert code == 2
        assert "malformed header" in err

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "estimate", "/nonexistent/input.csv")
        assert code == 2
        assert "error:" in err

    def test_overlong_cell_is_fatal(self, capsys, tmp_path):
        path = tmp_path / "long.csv"
        path.write_text("study_id,n,min,median,max\na,10,0,4," + "9" * 200_000 + "\nb,10,0,4,10\n")
        code, _, err = run(capsys, "estimate", str(path))
        assert code == 2
        assert err.startswith(f"error: {path}: line 2: field larger than field limit")
        assert len(err.splitlines()) == 1

    def test_rows_before_an_overlong_cell_are_written(self, capsys, tmp_path):
        path = tmp_path / "long.csv"
        path.write_text("study_id,n,min,median,max\na,10,0,4,10\nb,12,0,3,9\nc,20,1,2,3\n"
                        "d,10,0,4," + "9" * 200_000 + "\ne,10,0,4,10\n")
        code, out, err = run(capsys, "estimate", str(path))
        assert code == 2
        lines = out.splitlines()
        assert lines[0] == "study_id,scenario,mean,sd,divisor,correction,degenerate"
        assert [line.split(",")[0] for line in lines[1:]] == ["a", "b", "c"]
        assert err.startswith(f"error: {path}: line 5: field larger than field limit")
        assert len(err.splitlines()) == 1

    def test_repeated_header_column_is_fatal(self, capsys, tmp_path):
        path = tmp_path / "repeat.csv"
        path.write_text("study_id,n,n,min,median,max\na,10,20,0,4,10\n")
        code, out, err = run(capsys, "estimate", str(path))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {path}: malformed header (repeated columns ['n']); ")
        assert len(err.splitlines()) == 1

    def test_header_ending_in_a_comma_is_read(self, capsys, tmp_path):
        # Some spreadsheet exports end every line in a comma; the blank
        # header cells past the last named column are not columns.
        path = tmp_path / "trailing.csv"
        path.write_text("study_id,n,min,median,max, ,\na,10,1,2,3,\nb,10,1,2,3,5\n")
        code, out, err = run(capsys, "estimate", str(path))
        assert code == 0
        assert [row.split(",")[0] for row in out.splitlines()] == ["study_id", "a"]
        assert err == "error: line 3 (b): row has 6 cells, header has 5\n"

    def test_blank_header_cell_between_named_columns_is_fatal(self, capsys, tmp_path):
        path = tmp_path / "gap.csv"
        path.write_text("study_id,,n,min,median,max\na,,10,1,2,3\n")
        code, out, err = run(capsys, "estimate", str(path))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {path}: malformed header (unknown columns ['']); ")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("first_cell", ["study_id", '"study_id"'])
    def test_byte_order_mark_is_ignored(self, capsys, tmp_path, first_cell):
        # As spreadsheet programs save UTF-8 CSV.
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        text = SAMPLE_CSV.replace("study_id", first_cell, 1)
        plain.write_text(text, encoding="utf-8")
        marked.write_text("\ufeff" + text, encoding="utf-8")
        assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
        expected = run(capsys, "estimate", str(plain))
        assert expected[0] == 0
        assert run(capsys, "estimate", str(marked)) == expected

    def test_input_that_is_not_utf8_is_fatal(self, capsys, tmp_path):
        # The bad byte lies chunks and decoding blocks past the first row.
        path = tmp_path / "latin1.csv"
        rows = "".join(f"s{i},10,0,4,10\n" for i in range(10_000))
        path.write_bytes(f"study_id,n,min,median,max\n{rows}".encode() + b"caf\xe9,10,0,4,10\n")
        code, out, err = run(capsys, "estimate", str(path))
        assert code == 2
        assert err == f"error: {path}: line 10002: 'utf-8' codec can't decode byte 0xe9\n"
        # Every row before the bad one is written.
        ids = [line.split(",")[0] for line in out.splitlines()[1:]]
        assert ids == [f"s{i}" for i in range(10_000)]

    @pytest.mark.parametrize("content, line, byte", [
        (b"study_id,n,m\xe9n,median,max\na,10,0,4,10\n", 1, "0xe9"),
        # In a cell past the header's width, after a good row.
        (b"study_id,n,min,median,max\na,10,0,4,10\nb,10,0,4,10,\xff\nc,10,0,4,10\n", 3, "0xff"),
        # On the first line of a quoted id that runs over two: the row's
        # last line is named.
        (b'study_id,n,min,median,max\na,10,0,4,10\n"b\xff\nb",10,0,4,10\nc,10,0,4,10\n', 4, "0xff"),
        # Before a field over the field size limit in the same block.
        (b"study_id,n,min,median,max\na,10,0,4,10\nb\xfe,10,0,4,10\nc,10,0,4,"
         + b"1" * 131_073 + b"\n", 3, "0xfe"),
    ], ids=["header", "past-header-width", "quoted-line-break", "before-long-field"])
    def test_first_undecodable_line_is_named(self, capsys, tmp_path, content, line, byte):
        path = tmp_path / "bad.csv"
        path.write_bytes(content)
        code, out, err = run(capsys, "estimate", str(path))
        assert code == 2
        assert err == f"error: {path}: line {line}: 'utf-8' codec can't decode byte {byte}\n"
        assert [row.split(",")[0] for row in out.splitlines()] == ["study_id", "a"][:line - 1]

    def test_blank_lines_before_the_header_are_skipped(self, capsys, tmp_path):
        path = tmp_path / "leading.csv"
        path.write_text("\n\nstudy_id,n,min,median,max\na,10,0,4,10\n\nb,x,0,4,10\n")
        code, out, err = run(capsys, "estimate", str(path))
        assert code == 0
        assert [row.split(",")[0] for row in out.splitlines()] == ["study_id", "a"]
        # Line numbers still count every physical line.
        assert err == "error: line 6 (b): n='x' is not an integer\n"

    @pytest.mark.parametrize("content", ["", "\n", "\n\n\r\n"], ids=["empty", "one", "three"])
    def test_file_of_blank_lines_has_no_header(self, capsys, tmp_path, content):
        path = tmp_path / "blank.csv"
        path.write_text(content, newline="")
        code, out, err = run(capsys, "estimate", str(path))
        assert (code, out) == (2, "")
        assert err == f"error: {path}: empty file, header row required\n"

    def test_scenario_override(self, capsys, sample_file):
        _, out, _ = run(capsys, "estimate", str(sample_file), "--scenario", "c3")
        rows = out.strip().splitlines()[1:]
        # Only beta and gamma have quartiles; alpha and delta now fail.
        assert {r.split(",")[0] for r in rows} == {"beta", "gamma"}
        assert all(r.split(",")[1] == "c3" for r in rows)

    def test_duplicate_id_is_row_error(self, capsys, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text("study_id,n,min,median,max\na,10,0,4,10\na,10,0,4,10\n")
        code, out, err = run(capsys, "estimate", str(path))
        assert code == 0
        assert len(out.strip().splitlines()) == 2
        assert "duplicate" in err

    @pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["split", "csv-reader"])
    def test_underscore_in_a_number_is_row_error(self, capsys, tmp_path, newline):
        # Python reads 1_5 as 15; a CSV cell holding it is no number.
        path = tmp_path / "underscore.csv"
        rows = ["study_id,n,min,median,max", "a_1,10,0,4,1_5", "b_2,1_0,0,4,15", "c_3,10,0,4,15"]
        path.write_text(newline.join(rows) + newline, newline="")
        code, out, err = run(capsys, "estimate", str(path))
        assert code == 0
        assert [row.split(",")[0] for row in out.splitlines()] == ["study_id", "c_3"]
        assert err == (
            "error: line 2 (a_1): max='1_5' is not a number\n"
            "error: line 3 (b_2): n='1_0' is not an integer\n"
        )

    def test_cell_past_the_header_is_row_error(self, capsys, tmp_path):
        path = tmp_path / "long.csv"
        path.write_text(
            "study_id,n,min,median,max\n"
            "r1,10,1,5,9,EXTRA\n"  # a cell past the header: no estimate
            "r2,10,1,5,9,, \n"  # blank cells past it: allowed
            "r3,x,1,5,9,7\n"  # the width's reason comes before the cells'
            ",10,1,5,9,7\n"  # an empty id still replaces it
            "r1,10,1,5,9\n"  # a rejected row's id is not yet seen
        )
        code, out, err = run(capsys, "estimate", str(path))
        assert code == 0
        assert [row.split(",")[0] for row in out.splitlines()[1:]] == ["r2", "r1"]
        assert err == (
            "error: line 2 (r1): row has 6 cells, header has 5\n"
            "error: line 4 (r3): row has 6 cells, header has 5\n"
            "error: line 5: empty study_id\n"
        )


class TestTables:
    def test_default_range(self, capsys):
        code, out, _ = run(capsys, "tables", "--which", "xi")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 1 + 49
        first = lines[1].split("\t")
        assert first[0] == "2"
        assert float(first[1]) == 1.128

    def test_residual_column_small(self, capsys):
        _, out, _ = run(capsys, "tables", "--which", "xi")
        residuals = [abs(float(l.split("\t")[4])) for l in out.strip().splitlines()[1:]]
        assert max(residuals) <= 0.006

    def test_beyond_fixture_range(self, capsys):
        code, out, _ = run(capsys, "tables", "--which", "eta", "--range", "60:63")
        assert code == 0
        lines = out.strip().splitlines()[1:]
        assert len(lines) == 4
        for line in lines:
            cols = line.split("\t")
            assert cols[1] == ""  # no table value
            assert cols[2] != "" and cols[3] != ""

    def test_second_order_leaves_rows_without_divisor_empty(self, capsys):
        code, out, err = run(capsys, "tables", "--which", "eta", "--correction", "second",
                             "--range", "2:4")
        assert (code, err) == (0, "")
        rows = [line.split("\t") for line in out.splitlines()[1:]]
        assert [row[0] for row in rows] == ["2", "3", "4"]
        # n = 2 has a table value and an asymptote but no second-order divisor.
        assert rows[0][1:3] == ["1.144", "0.564432"] and rows[0][3:] == ["", ""]
        assert all(cell != "" for row in rows[1:] for cell in row)

    @pytest.mark.parametrize("cutoff", [50, 30])
    @pytest.mark.parametrize("correction", ["none", "first", "second"])
    @pytest.mark.parametrize("which", ["xi", "eta"])
    def test_every_cell(self, capsys, which, correction, cutoff):
        order = CorrectionOrder(correction)
        index, asymptotic, corrected = {
            "xi": (1, ref.blom_range_divisor, lambda n: ref.xi_hat(n, cutoff)),
            "eta": (2, ref.blom_iqr_divisor, lambda n: ref.eta_hat(n, order, cutoff)),
        }[which]
        fixture = resources.files("summarysd.data").joinpath("divisor_tables.tsv").read_text()
        column = [line.split("\t")[index] for line in fixture.splitlines()]

        def printed(f, n):
            """``f(n)`` as a cell: empty where the reference raises."""
            try:
                return format(f(n), ".6g")
            except ValueError:
                return ""

        expected = ["n\ttable\tasymptotic\tcorrected\tresidual"]
        for n in range(1, 61):
            row = [str(n), format(float(column[n - 1]), ".6g") if n <= 50 else "", "", "", ""]
            if n >= 2:
                row[2], row[3] = printed(asymptotic, n), printed(corrected, n)
                if row[1] and row[3]:
                    row[4] = format(float(row[1]) - corrected(n), ".6g")
            expected.append("\t".join(row))
        code, out, err = run(capsys, "tables", "--which", which, "--range", "1:60",
                             "--correction", correction, "--cutoff", str(cutoff))
        assert (code, err) == (0, "")
        assert out.splitlines() == expected

    def test_bad_range(self, capsys):
        for text in ("9:2", "x", "1:2:3", "2.5:3"):
            code, _, err = run(capsys, "tables", "--range", text)
            message = ("invalid range '9:2': need 1 <= A <= B" if text == "9:2"
                       else f"range must be A:B with integers, got {text!r}")
            assert (code, err) == (2, f"error: {message}\n")


class TestRefit:
    def test_epsilon_summary(self, capsys):
        code, out, _ = run(capsys, "refit", "--kind", "epsilon")
        assert code == 0
        assert "-2.88221" in out
        assert "-0.23079" in out

    def test_delta_summary(self, capsys):
        code, out, _ = run(capsys, "refit", "--kind", "delta")
        assert code == 0
        assert "-0.06259" in out
        assert "0.01966" in out

    def test_second_order(self, capsys):
        code, out, _ = run(capsys, "refit", "--kind", "epsilon", "--order", "second")
        assert code == 0
        assert "45 degrees of freedom" in out

    def test_delta_second_rejected(self, capsys):
        code, _, err = run(capsys, "refit", "--kind", "delta", "--order", "second")
        assert code == 2
        assert "epsilon" in err

    def test_emit_series(self, capsys, tmp_path):
        path = tmp_path / "series.tsv"
        code, _, _ = run(capsys, "refit", "--kind", "delta", "--emit-series", str(path))
        assert code == 0
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "n\tresidual"
        assert len(lines) == 50


class TestOracle:
    def test_xi_analytic_spot(self, capsys):
        code, out, _ = run(capsys, "oracle", "--which", "xi", "--range", "2:2")
        assert code == 0
        n, xi, eta = out.splitlines()[0].split("\t")
        assert n == "2"
        assert float(xi) == pytest.approx(1.1283791670955126, abs=1e-6)
        assert eta == ""

    def test_eta_deterministic(self, capsys):
        args = ("oracle", "--which", "eta", "--range", "4:5", "--reps", "20000",
                "--seed", "7", "--convention", "quarter-groups")
        code1, out1, err1 = run(capsys, *args)
        code2, out2, err2 = run(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2
        assert err1 == err2

    def test_report_file(self, capsys, tmp_path):
        report = tmp_path / "report.tsv"
        code, _, err = run(
            capsys, "oracle", "--which", "eta", "--range", "3:3", "--reps", "20000",
            "--convention", "quarter-groups", "--report", str(report),
        )
        assert code == 0
        assert err == ""
        assert "best convention" in report.read_text()

    def test_range_guard(self, capsys):
        code, _, err = run(capsys, "oracle", "--range", "2:99")
        assert code == 2
        assert "limited" in err

    def test_unknown_convention(self, capsys):
        code, _, err = run(capsys, "oracle", "--range", "2:2", "--convention", "median")
        assert code == 2
        assert "quarter-groups" in err


@pytest.mark.parametrize("argv, message", [
    pytest.param(["--cutoff", "1"], "--cutoff must be >= 2, got 1", id="1"),
    pytest.param(["--cutoff", "-5"], "--cutoff must be >= 2, got -5", id="-5"),
])
@pytest.mark.parametrize("command", ["estimate", "tables"])
def test_bad_cutoff_is_fatal(capsys, sample_file, command, argv, message):
    if command == "estimate":
        argv = [str(sample_file)] + argv
    else:
        argv = ["--which", "eta", "--range", "2:60"] + argv
    code, out, err = run(capsys, command, *argv)
    assert code == 2
    assert (out, err) == ("", f"error: {message}\n")


def test_second_order_cutoff_above_50_follows_the_library(capsys, tmp_path):
    # The CLI checks --cutoff only as check_cutoff does: under a second-order
    # cutoff above 50, the IQR rows with no divisor are row errors.
    ns = [2, 50, 51, 60, 61]
    patterns = {"c1": "0,,4,,10", "c2": "0,2,4,6,10", "c3": ",2,4,6,"}
    path = tmp_path / "studies.csv"
    path.write_text("study_id,n,min,q1,median,q3,max\n" + "".join(
        f"{sc}-{n},{n},{cells}\n" for sc, cells in patterns.items() for n in ns
    ))
    ids = [f"{sc}-{n}" for sc in patterns for n in ns]
    values = np.array([[float(x) if x else np.nan for x in patterns[sc].split(",")]
                       for sc in patterns for _ in ns]).T
    est = estimate_columns(np.array(ns * 3), values, CorrectionOrder.SECOND, cutoff=60)
    assert sorted(est.errors) == [5, 7, 8, 10, 12, 13]
    code, out, err = run(capsys, "estimate", str(path), "--correction", "second",
                         "--cutoff", "60")
    assert code == 0
    assert out.splitlines()[1:] == [
        f"{ids[i]},{SCENARIOS[est.scenario[i]].value},{est.mean[i]:.6g},{est.sd[i]:.6g},"
        f"{est.divisor[i]:.6g},second,{int(est.degenerate[i])}"
        for i in range(len(ids)) if i not in est.errors
    ]
    assert err == "".join(
        f"error: line {i + 2} ({ids[i]}): {reason}\n" for i, reason in sorted(est.errors.items())
    )

    code, out, err = run(capsys, "tables", "--which", "eta", "--correction", "second",
                         "--cutoff", "60", "--range", "49:61")
    assert (code, err) == (0, "")
    rows = [line.split("\t") for line in out.splitlines()[1:]]
    assert [int(row[0]) for row in rows] == list(range(49, 62))
    for n, (_, tab, asym, corrected, residual) in zip(range(49, 62), rows):
        assert asym == format(blom_iqr_divisor(n), ".6g")
        if 51 <= n <= 60:
            with pytest.raises(ValueError, match=f"3 <= n <= 50, got {n}"):
                eta_hat(n, CorrectionOrder.SECOND, 60)
            assert (corrected, residual) == ("", "")
        else:
            value = eta_hat(n, CorrectionOrder.SECOND, 60)
            assert corrected == format(value, ".6g")
            assert residual == (format(float(tab) - value, ".6g") if n <= 50 else "")


@pytest.mark.parametrize("argv, message", [
    pytest.param(["oracle", "--reps", "5"], "need at least 10^4 replications", id="reps"),
    pytest.param(["oracle", "--chunk-size", "0"], "chunk size must be positive", id="chunk-size"),
    pytest.param(["oracle", "--which", "eta", "--range", "2:2", "--reps", "10000", "--seed", "-1",
                  "--report", "{dir}.tsv"], "seed must be non-negative", id="seed"),
    pytest.param(["oracle", "--range", "1:5", "--report", "{dir}.tsv"],
                 "oracle range limited to 2 <= n_min <= n_max <= 50, got 1 and 5", id="range-below-2"),
    pytest.param(["oracle", "--range", "2:51", "--report", "{dir}.tsv"],
                 "oracle range limited to 2 <= n_min <= n_max <= 50, got 2 and 51", id="range-above-50"),
    pytest.param(["oracle", "--which", "xi", "--range", "2:2", "--report", "{dir}/r.tsv"],
                 "cannot write {dir}/r.tsv: [Errno 2] No such file or directory", id="report"),
    pytest.param(["refit", "--kind", "delta", "--emit-series", "{dir}/s.tsv"],
                 "cannot write {dir}/s.tsv: [Errno 2] No such file or directory", id="emit-series"),
])
def test_oracle_and_refit_usage_errors_are_fatal(capsys, tmp_path, argv, message):
    missing = tmp_path / "missing"
    code, out, err = run(capsys, *(arg.format(dir=missing) for arg in argv))
    # An output path is checked before any work, so nothing is printed,
    # and a bad setting is caught before any output file is made.
    assert (code, out) == (2, "")
    assert list(tmp_path.iterdir()) == []
    assert err.startswith("error: " + message.format(dir=missing))
    assert len(err.splitlines()) == 1


def test_commands_import_no_scipy():
    # scipy is a test dependency only: no command's modules load it.
    import summarysd

    code = ("import sys, summarysd.cli, summarysd.oracle, summarysd.refit; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    src = os.path.dirname(os.path.dirname(summarysd.__file__))
    res = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, check=True)
    assert res.stdout.strip() == "[]"


def test_import_leaves_scipy_integrate_out():
    # estimate, the common path, must not pay for the oracle's quadrature.
    import summarysd

    code = "import sys, summarysd.cli; print('scipy.integrate' in sys.modules)"
    src = os.path.dirname(os.path.dirname(summarysd.__file__))
    res = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, check=True)
    assert res.stdout.strip() == "False"


def start_alone(argv, **kwargs) -> subprocess.Popen:
    """``summarysd ARGV`` started in a session of its own."""
    import summarysd

    src = os.path.dirname(os.path.dirname(summarysd.__file__))
    env = dict(os.environ, PYTHONPATH=src, **kwargs.pop("env", {}))
    return subprocess.Popen([sys.executable, "-m", "summarysd.cli", *argv], env=env,
                            start_new_session=True, **kwargs)


def finish_alone(proc: subprocess.Popen):
    """``proc``'s stdout and stderr once it has exited, which must leave
    no process of its session behind, such as the ``estimate`` worker."""
    try:
        out, err = proc.communicate(timeout=60)
    finally:
        if proc.returncode is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    with pytest.raises(ProcessLookupError):
        os.killpg(proc.pid, 0)
    return out, err


def big_csv(path, rows: int = 20_000):
    path.write_text("study_id,n,min,median,max\n" + "".join(f"s{i},10,0,4,10\n" for i in range(rows)))


def test_closed_stdout_ends_quietly(tmp_path):
    # As under `summarysd estimate big.csv | head -1`: the reader leaves
    # while most of the output is still to be written, and the worker
    # is running.
    big_csv(tmp_path / "big.csv")
    proc = start_alone(["estimate", str(tmp_path / "big.csv")], stdout=subprocess.PIPE,
                       stderr=subprocess.PIPE, text=True)
    assert proc.stdout.readline() == "study_id,scenario,mean,sd,divisor,correction,degenerate\n"
    proc.stdout.close()
    _, err = finish_alone(proc)
    assert (proc.returncode, err) == (1, "")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
@pytest.mark.parametrize("argv", [
    ["estimate", "big.csv"],
    ["tables"],
    ["refit", "--kind", "delta"],
    ["oracle", "--range", "2:3", "--reps", "10000"],
], ids=lambda argv: argv[0])
def test_stdout_that_cannot_be_written_is_one_error(tmp_path, argv):
    # A write to /dev/full fails with ENOSPC, not with a closed pipe.
    big_csv(tmp_path / "big.csv")
    with open("/dev/full", "w") as full:
        proc = start_alone(argv, cwd=tmp_path, stdout=full, stderr=subprocess.PIPE, text=True)
    _, err = finish_alone(proc)
    assert proc.returncode == 2
    assert err.startswith("error: [Errno 28] ")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_estimate_in_its_own_process_writes_each_row_once(capsys, tmp_path):
    # The worker shares the buffer of the stdout file, which holds the
    # header when it starts.
    big_csv(tmp_path / "big.csv")
    _, expected, _ = run(capsys, "estimate", str(tmp_path / "big.csv"))
    with open(tmp_path / "out.csv", "w") as out:
        proc = start_alone(["estimate", str(tmp_path / "big.csv")], env={"PYTHONUNBUFFERED": ""},
                           stdout=out, stderr=subprocess.PIPE, text=True)
    assert finish_alone(proc) == (None, "")
    assert proc.returncode == 0
    assert (tmp_path / "out.csv").read_text() == expected


def test_fatal_error_after_the_worker_started_follows_every_earlier_row(capsys, tmp_path):
    # Two plain 1024-line blocks go to two processes; the third block
    # holds a byte that is not UTF-8 on line 3000.
    big_csv(tmp_path / "before.csv", 2998)
    _, before, _ = run(capsys, "estimate", str(tmp_path / "before.csv"))
    path = tmp_path / "bad.csv"
    big_csv(path)
    text = path.read_bytes()
    start = text.index(b"\ns2998,") + 1
    path.write_bytes(text[:start] + b"\xff" + text[start:])
    # Unbuffered, with stderr on stdout: the bytes come in the order written.
    proc = start_alone(["estimate", str(path)], env={"PYTHONUNBUFFERED": "1"},
                       stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    out, _ = finish_alone(proc)
    assert proc.returncode == 2
    assert out == before + f"error: {path}: line 3000: 'utf-8' codec can't decode byte 0xff\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
@pytest.mark.parametrize("argv", [
    ["oracle", "--which", "xi", "--range", "2:3", "--report"],
    ["refit", "--kind", "delta", "--emit-series"],
    # A report longer than the 8192-byte buffer fails in write, not in flush.
    ["oracle", "--which", "both", "--reps", "10000", "--range", "2:50", "--report"],
], ids=["report", "emit-series", "long-report"])
def test_side_output_that_cannot_be_written_names_its_path(capsys, argv):
    code, _, err = run(capsys, *argv, "/dev/full")
    assert (code, err) == (2, "error: cannot write /dev/full: [Errno 28] No space left on device\n")
