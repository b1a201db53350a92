"""Tests for the command-line interface: formats, exit codes, golden files."""

import contextlib
import io
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import kbonacci
from kbonacci import cli
from kbonacci.cli import FORMATS, _poly_text, main
from kbonacci.prover import certify_divisibility
from kbonacci.sequences import IdentityReport
from test_prover import composed_charpoly, matrix_rows
from test_triangles import coeff_row_from_charpoly, diff_row_from_binomial

DATA = Path(__file__).parent / "data"

# Tabulated reference rows for the two triangles (rows 0..6).
COEFF_ROWS = [
    [-1],
    [-1, 1],
    [-1, 3, -1],
    [-1, 7, -5, 1],
    [-1, 15, -17, 7, -1],
    [-1, 31, -49, 31, -9, 1],
    [-1, 63, -129, 111, -49, 11, -1],
]
DIFF_ROWS = [
    [0],
    [0, 1],
    [0, 2, -1],
    [0, 4, -4, 1],
    [0, 8, -12, 6, -1],
    [0, 16, -32, 24, -8, 1],
    [0, 32, -80, 80, -40, 10, -1],
]


def run_cli(capsys, *argv: str) -> tuple[int, str]:
    code = main(list(argv))
    return code, capsys.readouterr().out


class TestTriangle:
    def test_tsv_rows(self, capsys):
        code, out = run_cli(capsys, "triangle", "p", "--rows", "6", "--format", "tsv")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 7
        assert lines[6] == "-1\t63\t-129\t111\t-49\t11\t-1"

    def test_tsv_single_row(self, capsys):
        code, out = run_cli(capsys, "triangle", "q", "--rows", "0", "--format", "tsv")
        assert code == 0
        assert out == "0\n"

    def test_json_ragged_rows(self, capsys):
        code, out = run_cli(capsys, "triangle", "p", "--rows", "2", "--format", "json")
        assert code == 0
        assert json.loads(out) == [[-1], [-1, 1], [-1, 3, -1]]

    @pytest.mark.parametrize(
        "kind, golden, reference",
        [
            ("p", "triangle_p_rows6.md", COEFF_ROWS),
            ("q", "triangle_q_rows6.md", DIFF_ROWS),
        ],
    )
    def test_markdown_matches_golden(self, capsys, kind, golden, reference):
        code, out = run_cli(capsys, "triangle", kind, "--rows", "6")
        assert code == 0
        golden_text = (DATA / golden).read_text(encoding="utf-8")
        assert out == golden_text
        # the committed golden must itself carry the reference values,
        # zero-padded to a 7-wide rectangle
        body = golden_text.splitlines()[2:]
        for i, line in enumerate(body):
            cells = [cell.strip() for cell in line.strip("|").split("|")]
            padded = reference[i] + [0] * (7 - len(reference[i]))
            assert cells == [str(i)] + [str(v) for v in padded]

    @pytest.mark.parametrize("fmt", FORMATS)
    @pytest.mark.parametrize("kind", ["p", "q"])
    def test_every_dump_to_row_40_parses_back_to_the_oracle(self, capsys, kind, fmt):
        # each width makes its own line formats, so every dump of rows 0..n,
        # n <= 40, is read back cell by cell against the closed forms
        if kind == "p":
            oracle = [coeff_row_from_charpoly(i) for i in range(41)]
        else:
            oracle = [[0]] + [diff_row_from_binomial(i) for i in range(1, 41)]
        for n in range(41):
            code, out = run_cli(capsys, "triangle", kind, "--rows", str(n), "--format", fmt)
            assert code == 0
            expected = oracle[: n + 1]
            if fmt == "json":
                assert json.loads(out) == expected, n
                continue
            assert out.endswith("\n")
            lines = out.splitlines()
            if fmt == "tsv":
                assert [[int(c) for c in line.split("\t")] for line in lines] == expected, n
                continue
            columns = [str(c) for c in range(n + 1)]
            assert lines[:2] == [
                "| " + " | ".join(["row/col", *columns]) + " |",
                "| " + " | ".join(["---"] * (n + 2)) + " |",
            ], n
            assert len(lines) == n + 3
            for i, line in enumerate(lines[2:]):
                assert line.startswith("| ") and line.endswith(" |"), (n, i)
                padded = expected[i] + [0] * (n - i)
                assert line[2:-2].split(" | ") == [str(i), *map(str, padded)], (n, i)

    def test_negative_rows_is_usage_error(self):
        # the rows are made lazily, but the bad row is refused before any
        # output: no table header or opening bracket precedes the error
        for kind in ("p", "q"):
            for fmt in FORMATS:
                code, out, err = run_argv(["triangle", kind, "--rows", "-1", "--format", fmt])
                assert (code, out) == (2, ""), (kind, fmt)
                assert err == "kbonacci: error: row -1 is negative\n", (kind, fmt)

    @pytest.mark.parametrize("fmt", FORMATS)
    @pytest.mark.parametrize("kind", ["p", "q"])
    def test_600_rows_in_bounded_memory(self, kind, fmt):
        # one row lives at a time: the whole table of 600 rows would be
        # about 18 MB
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            tracemalloc.start()
            try:
                assert main(["triangle", kind, "--rows", "600", "--format", fmt]) == 0
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak < 2_000_000


class TestProve:
    def test_markdown_transcript(self, capsys):
        code, out = run_cli(capsys, "prove", "--k", "2")
        assert code == 0
        assert "X^2+X-1" in out
        assert "verdict: PASS" in out

    def test_show_matrix_case_header_and_sums(self, capsys):
        code, out = run_cli(capsys, "prove", "--k", "5", "--show-matrix")
        assert code == 0
        header = next(line for line in out.splitlines() if line.startswith("| case |"))
        assert header.replace("|", "").split() == ["case"] + list(
            "ABBBBCEBBBCEEBBCEEEBDDDDDA"
        )
        sum_row = out.splitlines()[-1]
        cells = [cell.strip() for cell in sum_row.strip("|").split("|")]
        assert cells[0] == "SUM"
        assert [cells[1 + c] for c in (0, 5, 10, 15, 20, 25)] == [
            "1", "-9", "31", "-49", "31", "-1",
        ]

    def test_show_matrix_order_two_rows(self, capsys):
        # structural zeros print as blank cells; the SUM row prints every sum
        code, out = run_cli(capsys, "prove", "--k", "2", "--show-matrix", "--format", "tsv")
        assert code == 0
        assert out.splitlines()[-5:] == [
            "case\tA\tB\tD\tD\tA",
            "X^0\t-1\t1\t1\t\t",
            "X^1\t\t-1\t1\t1\t",
            "-X^2\t\t\t1\t-1\t-1",
            "SUM\t-1\t0\t3\t0\t-1",
        ]
        code, out = run_cli(capsys, "prove", "--k", "2", "--show-matrix")
        assert code == 0
        assert out.splitlines()[-7:] == [
            "| case | A | B | D | D | A |",
            "| --- | --- | --- | --- | --- | --- |",
            "| col | X^0 | X^1 | X^2 | X^3 | X^4 |",
            "| X^0 | -1 | 1 | 1 |  |  |",
            "| X^1 |  | -1 | 1 | 1 |  |",
            "| -X^2 |  |  | 1 | -1 | -1 |",
            "| SUM | -1 | 0 | 3 | 0 | -1 |",
        ]

    def test_json_document(self, capsys):
        code, out = run_cli(capsys, "prove", "--k", "3", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["verdict"] == "PASS"
        assert doc["quotient_ascending"] == [1, -1, 0, -3, 2, 1, 1]
        assert doc["remainder_ascending"] == []

    @pytest.mark.parametrize("fmt", ["markdown", "tsv"])
    def test_identity_polynomial_is_the_composed_stride_polynomial(self, capsys, fmt):
        # the field is made from the stride polynomial's k + 1 coefficients
        # when it is printed; the goldens pin it at k = 5 and 12 only
        label = {"markdown": "- identity polynomial: ", "tsv": "identity polynomial\t"}[fmt]
        for k in range(2, 31):
            code, out = run_cli(capsys, "prove", "--k", str(k), "--format", fmt)
            assert code == 0
            composed = composed_charpoly(k)
            assert label + _poly_text(composed.coeffs) in out.splitlines(), k

    def test_large_order(self, capsys):
        code, out = run_cli(capsys, "prove", "--k", "25")
        assert code == 0
        assert "verdict: PASS" in out

    def test_failure_exit_code(self, capsys, monkeypatch):
        # one failed D column is counted against the family's two columns
        cert = cli.certify_divisibility(2)
        broken = type(cert)(
            **{
                **vars(cert),
                "division_matches": False,
                "failed_columns": {**cert.failed_columns, "D": (3,)},
            }
        )
        monkeypatch.setattr(cli, "certify_divisibility", lambda k: broken)
        code, out = run_cli(capsys, "prove", "--k", "2")
        assert code == 1
        assert "matrix column sums verified: NO" in out
        assert "case checks (passed/total): A 2/2, B 1/1, C 0/0, D 1/2, E 0/0" in out
        assert "verdict: FAIL" in out


class TestVerify:
    def test_range_check(self, capsys):
        code, out = run_cli(capsys, "verify", "--k", "3", "--n-from", "-30", "--n-to", "120")
        assert code == 0
        assert "151 indices" in out
        assert "verdict: PASS" in out

    def test_single_index(self, capsys):
        code, out = run_cli(capsys, "verify", "--k", "2", "--n-from", "4", "--n-to", "4")
        assert code == 0
        assert "verdict: PASS" in out

    def test_seeded_instance(self, capsys):
        code, out = run_cli(
            capsys,
            "verify", "--k", "4", "--seed", "7", "--n-from", "-20", "--n-to", "100",
        )
        assert code == 0
        assert "verdict: PASS" in out

    @pytest.mark.parametrize(
        "k, n_from, n_to, holds",
        [("3", "-30", "120", True), ("5", "200", "204", True), ("5", "4", "7", True)],
    )
    def test_json_holds_for_all_n(self, capsys, k, n_from, n_to, holds):
        argv = ["verify", "--k", k, "--n-from", n_from, "--n-to", n_to]
        code, out = run_cli(capsys, *argv, "--format", "json")
        assert code == 0
        assert json.loads(out)["holds_for_all_n"] is holds
        for fmt in ("markdown", "tsv"):
            assert "holds" not in run_cli(capsys, *argv, "--format", fmt)[1]

    def test_inverted_range_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["verify", "--k", "3", "--n-from", "5", "--n-to", "4"])
        assert excinfo.value.code == 2

    def test_failure_exit_code(self, capsys, monkeypatch):
        failing = IdentityReport(lo=4, hi=10, failures=((5, 5, 4),), holds_for_all_n=False)
        monkeypatch.setattr(cli, "check_identity", lambda *a, **kw: failing)
        code, out = run_cli(capsys, "verify", "--k", "2", "--n-from", "4", "--n-to", "10")
        assert code == 1
        assert "first counterexample: n=5" in out
        assert "verdict: FAIL" in out


class TestDecimate:
    def test_stride_two(self, capsys):
        code, out = run_cli(capsys, "decimate", "--charpoly", "1,-1,-1", "--stride", "2")
        assert code == 0
        assert "X^2-3X+1" in out
        assert "3, -1" in out

    def test_stride_three(self, capsys):
        code, out = run_cli(
            capsys, "decimate", "--charpoly", "1,-1,-1,-1", "--stride", "3"
        )
        assert code == 0
        assert "7, -5, 1" in out

    def test_identity_stride_echoes_input(self, capsys):
        code, out = run_cli(capsys, "decimate", "--charpoly", "1,-2,-1", "--stride", "1")
        assert code == 0
        assert "decimated characteristic polynomial: X^2-2X-1" in out

    def test_non_monic_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["decimate", "--charpoly", "2,-1,-1", "--stride", "2"])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("charpoly", ["0,1,-3", "1", "2,1"])
    def test_not_monic_of_degree_one_is_one_message(self, charpoly):
        # a leading zero gets the same message as a leading 2 or degree 0
        code, out, err = run_argv(["decimate", "--charpoly", charpoly, "--stride", "2"])
        assert (code, out) == (2, "")
        assert err.splitlines() == ["kbonacci: error: need a monic polynomial of degree >= 1"]

    def test_garbage_coefficients_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["decimate", "--charpoly", "1,x,-1", "--stride", "2"])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_output_past_the_digit_limit(self, capsys, fmt):
        # X - 3**10000 has a constant term of 4,772 digits, more than the
        # default limit of 4,300, which the caller keeps after main returns
        argv = ["decimate", "--charpoly=1,-3", "--stride", "10000", "--format", fmt]
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            code, out = run_cli(capsys, *argv)
            assert sys.get_int_max_str_digits() == 4300
            sys.set_int_max_str_digits(0)  # to read the output back
            doc = json.loads(out) if fmt == "json" else None
        finally:
            sys.set_int_max_str_digits(limit)
        assert code == 0
        if doc is not None:
            assert doc["decimated_ascending"] == [-(3**10000), 1]

    @pytest.mark.parametrize("stride", ["0", "-3"])
    def test_stride_below_one_is_usage_error(self, stride):
        argv = ["decimate", "--charpoly", "1,-1,-1", "--stride", stride]
        proc = subprocess.run(
            [sys.executable, "-m", "kbonacci", *argv],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(Path(kbonacci.__file__).parents[1])},
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.splitlines() == [
            f"kbonacci: error: stride must be >= 1, got {stride}"
        ]
        assert "Traceback" not in proc.stderr


class TestSweep:
    def test_range(self, capsys):
        # every route passes at every order prove-ladder asks for
        code, out = run_cli(capsys, "sweep", "--k-min", "2", "--k-max", "40")
        assert code == 0
        body = [line for line in out.splitlines() if line.startswith("| ") and "---" not in line]
        assert body[1:] == [f"| {k} | PASS | PASS | PASS | PASS |" for k in range(2, 41)]
        assert out.endswith("\nverdict: PASS\n")

    def test_single_order(self, capsys):
        code, out = run_cli(capsys, "sweep", "--k-min", "2", "--k-max", "2", "--format", "tsv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0].split("\t") == ["2", "PASS", "PASS", "PASS", "PASS"]

    def test_inverted_range_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", "--k-min", "5", "--k-max", "3"])
        assert excinfo.value.code == 2

    def test_k_min_below_two_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", "--k-min", "1", "--k-max", "3"])
        assert excinfo.value.code == 2
        assert capsys.readouterr() == ("", "kbonacci: error: order 1 is below 2\n")

    @pytest.mark.parametrize("k, hi", [(2, 60), (81, 60), (90, 60), (150, 60)])
    def test_numeric_column_is_a_proof(self, capsys, monkeypatch, k, hi):
        # the residuals are zero at the seeds, so a pass on -20..60 holds for
        # every integer n, even above order 81, where the range is shorter
        # than k
        reports = []
        check = cli.check_identity

        def recording(*args):
            reports.append(check(*args))
            return reports[-1]

        monkeypatch.setattr(cli, "check_identity", recording)
        code, _ = run_cli(capsys, "sweep", "--k-min", str(k), "--k-max", str(k))
        assert code == 0
        [report] = reports
        assert (report.lo, report.hi) == (-20, hi)
        assert report.ok and report.holds_for_all_n

    def test_failure_exit_code(self, capsys, monkeypatch):
        monkeypatch.setattr(
            cli,
            "_sweep_row",
            lambda k: {"k": k, "divisibility": True, "cases": True, "oracle": False, "numeric": True},
        )
        code, out = run_cli(capsys, "sweep", "--k-min", "2", "--k-max", "3")
        assert code == 1
        assert "verdict: FAIL" in out


GOLDEN_REQUESTS = {
    "prove_k5": ["prove", "--k", "5"],
    "prove_k5_matrix": ["prove", "--k", "5", "--show-matrix"],
    "verify_k3": ["verify", "--k", "3", "--n-from", "-10", "--n-to", "40"],
    "verify_k3_seed7": ["verify", "--k", "3", "--n-from", "-10", "--n-to", "40", "--seed", "7"],
    "decimate_stride2": ["decimate", "--charpoly", "1,-2,-1", "--stride", "2"],
    "sweep_k2_6": ["sweep", "--k-min", "2", "--k-max", "6"],
    # order 12: cells that are negative or several digits long, and E
    # columns whose last group is not empty
    "prove_k12": ["prove", "--k", "12"],
    "prove_k12_matrix": ["prove", "--k", "12", "--show-matrix"],
    "verify_k25_seed7": [
        "verify", "--k", "25", "--n-from", "-300", "--n-to", "3000", "--seed", "7",
    ],
}
GOLDEN_SUFFIX = {"tsv": "tsv", "markdown": "md", "json": "json"}


class TestGoldenOutput:
    @pytest.mark.parametrize("fmt", list(GOLDEN_SUFFIX))
    @pytest.mark.parametrize("name", list(GOLDEN_REQUESTS))
    def test_stdout_matches_golden(self, capsys, name, fmt):
        code, out = run_cli(capsys, *GOLDEN_REQUESTS[name], "--format", fmt)
        assert code == 0
        golden = DATA / f"{name}.{GOLDEN_SUFFIX[fmt]}"
        assert out == golden.read_text(encoding="utf-8")


class TestJsonStability:
    @pytest.mark.parametrize(
        "argv",
        [
            ["triangle", "p", "--rows", "6", "--format", "json"],
            ["triangle", "q", "--rows", "3", "--format", "json"],
            ["triangle", "p", "--rows", "0", "--format", "json"],
            ["prove", "--k", "5", "--show-matrix", "--format", "json"],
            ["verify", "--k", "3", "--n-from", "-10", "--n-to", "40", "--format", "json"],
            ["decimate", "--charpoly", "1,-2,-1", "--stride", "2", "--format", "json"],
            ["sweep", "--k-min", "2", "--k-max", "4", "--format", "json"],
            ["triangle", "q", "--rows", "40", "--format", "json"],
        ],
    )
    def test_round_trip_is_byte_identical(self, capsys, argv):
        code, out = run_cli(capsys, *argv)
        assert code == 0
        rerendered = json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"
        assert rerendered == out


def recorded_writes(fn, *args, **kwargs) -> list[str]:
    """The texts fn(*args, **kwargs) passes to sys.stdout.write, in order."""
    calls = []

    class RecordingStdout:
        def write(self, text):
            calls.append(text)

    with contextlib.redirect_stdout(RecordingStdout()):
        fn(*args, **kwargs)
    return calls


class TestRendering:
    @pytest.mark.parametrize(
        "coeffs, text",
        [
            ((), "0"),
            ((1, 0, -3, 0, 1), "X^4-3X^2+1"),
            ((1, -7, 5, -1), "-X^3+5X^2-7X+1"),
            ((-1, 1, 1), "X^2+X-1"),
            ((0, 1), "X"),
            ((-1, 0, 2), "2X^2-1"),
            ((7,), "7"),
            ((0, -1), "-X"),
        ],
    )
    def test_descending_render(self, coeffs, text):
        assert _poly_text(coeffs) == text


@st.composite
def tables(draw) -> tuple[int, list[tuple[int, ...]]]:
    """A width and rows of 1..width ints, negative and multi-digit."""
    width = draw(st.integers(1, 8))
    cell = st.integers(-(10**12), 10**12)
    row = st.lists(cell, min_size=1, max_size=width).map(tuple)
    return width, draw(st.lists(row, min_size=1, max_size=8))


class TestTableWriter:
    @settings(max_examples=200, deadline=None)
    @given(tables(), st.integers(0, 3))
    def test_json_is_json_dumps_at_depth(self, table, depth):
        width, rows = table
        calls = recorded_writes(cli._write_table, "json", rows, width, depth=depth)
        expected = json.dumps([list(row) for row in rows], indent=2)
        assert "".join(calls) == expected.replace("\n", "\n" + "  " * depth)
        # the head, one % per row, and the end
        assert len(calls) == len(rows) + 2

    @settings(max_examples=200, deadline=None)
    @given(tables())
    def test_tsv_is_tab_joined_lines(self, table):
        width, rows = table
        calls = recorded_writes(cli._write_table, "tsv", rows, width)
        assert "".join(calls) == "".join("\t".join(map(str, row)) + "\n" for row in rows)
        assert len(calls) == len(rows) + 2

    @settings(max_examples=200, deadline=None)
    @given(tables())
    def test_markdown_pads_each_row_with_zeros(self, table):
        width, rows = table
        calls = recorded_writes(cli._write_table, "markdown", rows, width, pad=" | 0")
        padded = [list(row) + [0] * (width - len(row)) for row in rows]
        expected = "".join("| " + " | ".join(map(str, row)) + " |\n" for row in padded)
        assert "".join(calls) == expected
        assert len(calls) == len(rows) + 2

    @pytest.mark.parametrize("fmt", FORMATS)
    @pytest.mark.parametrize("kind", ["p", "q"])
    def test_triangle_writes_one_line_a_row(self, kind, fmt):
        # rows 0..40, besides at most the head, the end, the newline after
        # the json list, and the markdown header and rule; a writer that
        # wrote cell by cell would make up to 41 calls a row
        calls = recorded_writes(main, ["triangle", kind, "--rows", "40", "--format", fmt])
        assert 41 <= len(calls) <= 41 + 4


def matrix_row_by_row(fmt: str, cert) -> str:
    """What `prove --show-matrix` writes for the product matrix of cert,
    made from its rows of cells one at a time: the reference for the writer
    that shares the quotient's text between rows."""
    k = cert.identity.k
    rows = [list(row) for row in matrix_rows(cert.quotient, k)]
    if fmt == "json":
        return json.dumps(rows, indent=2).replace("\n", "\n    ")
    labels = [f"X^{r}" for r in range(k)] + [f"-X^{k}"]
    cells = [
        [label] + [str(v) if v else "" for v in row]
        for label, row in zip(labels, rows)
    ]
    cells.append(["SUM"] + [str(v) for v in cert.column_sums])
    case = ["case", *cert.column_cases]
    if fmt == "tsv":
        return "".join("\t".join(row) + "\n" for row in [case] + cells)
    columns = ["col"] + [f"X^{c}" for c in range(k * k + 1)]
    lines = [case, ["---"] * len(case), columns] + cells
    return "".join("| " + " | ".join(row) + " |\n" for row in lines)


class TestMatrixWriter:
    @pytest.mark.parametrize("fmt", FORMATS)
    def test_shared_text_matches_row_by_row(self, capsys, fmt):
        # orders 2..40, those prove-ladder asks for
        for k in range(2, 41):
            cert = certify_divisibility(k)
            cli._write_matrix(fmt, cert)
            assert capsys.readouterr().out == matrix_row_by_row(fmt, cert), k

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_writes_whole_rows(self, monkeypatch, fmt):
        # a writer that wrote cell by cell would make k**2 + 1 calls a row
        k, calls = 40, []

        class CountingStdout:
            def write(self, text):
                calls.append(len(text))

        monkeypatch.setattr(sys, "stdout", CountingStdout())
        cli._write_matrix(fmt, certify_divisibility(k))
        assert 0 < len(calls) <= 8 * (k + 2)


COMMANDS = ("triangle", "prove", "verify", "decimate", "sweep")
FLAGS = {
    "triangle": ("--rows", "--format"),
    "prove": ("--k", "--show-matrix", "--format"),
    "verify": ("--k", "--n-from", "--n-to", "--seed", "--format"),
    "decimate": ("--charpoly", "--stride", "--format"),
    "sweep": ("--k-min", "--k-max", "--format"),
}


def run_argv(argv: list[str]) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of main(argv), whether it returns or exits."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


class TestUsage:
    def test_unknown_command(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["frobnicate"])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["prove", "--k", "1" * 5000],
            ["decimate", "--charpoly", "1," + "1" * 5000, "--stride", "2"],
        ],
    )
    def test_argv_integers_stay_under_the_digit_limit(self, argv):
        # only the handler runs with the limit lifted; the command line is
        # read under the caller's limit, here the default of 4,300 digits
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            code, out, err = run_argv(argv)
            assert sys.get_int_max_str_digits() == 4300
        finally:
            sys.set_int_max_str_digits(limit)
        assert (code, out) == (2, "")
        assert err.startswith("kbonacci: error: ") and len(err.splitlines()) == 1

    def test_missing_required_flag(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["prove"])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            [],
            ["frob\nnicate"],
            ["prove"],
            ["prove", "--k", "5", "--show"],  # abbreviations are not accepted
            ["prove", "--k", "5", "--format", "xml"],
            ["prove", "--k", "x"],
            ["prove", "--k", "5\n6"],  # echoed tokens must stay on one line
            ["prove", "--k"],
            ["prove", "--k", "5", "--frobnicate", "1"],
            ["prove", "--k", "5", "stray"],
            ["prove", "--k", "5", "--show-matrix=yes"],
            ["triangle", "--rows", "3"],
            ["triangle", "r", "--rows", "3"],
            ["triangle", "p", "q", "--rows", "3"],
            ["decimate", "--charpoly", "1,x", "--stride", "2"],
            ["verify", "--k", "3", "--n-from", "5", "--n-to", "4"],
        ],
    )
    def test_error_is_one_stderr_line(self, argv):
        code, out, err = run_argv(argv)
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("kbonacci: error: ")

    @pytest.mark.parametrize(
        "command, message",
        [
            # OrderTooSmall, NegativeRow, BadStride and NotMonic
            ("prove --k 1", "order 1 is below 2"),
            ("sweep --k-min 1 --k-max 3", "order 1 is below 2"),
            ("triangle p --rows -1", "row -1 is negative"),
            ("decimate --charpoly 1,-1,-1 --stride 0", "stride must be >= 1, got 0"),
            ("decimate --charpoly 2,1 --stride 2", "need a monic polynomial of degree >= 1"),
            # decimated_charpoly checks the stride before the polynomial
            ("decimate --charpoly 2,1 --stride 0", "stride must be >= 1, got 0"),
        ],
    )
    def test_library_refusal_is_the_usage_line(self, command, message):
        # each library error main catches, printed as it is, in process and
        # in a fresh interpreter with asserts stripped
        argv = command.split()
        expected = (2, "", f"kbonacci: error: {message}\n")
        assert run_argv(argv) == expected
        proc = subprocess.run(
            [sys.executable, "-O", "-m", "kbonacci", *argv],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(Path(kbonacci.__file__).parents[1])},
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == expected

    def test_top_level_help_names_every_command_and_flag(self):
        for argv in (["--help"], ["-h"]):
            code, out, err = run_argv(argv)
            assert (code, err) == (0, "")
            for name in COMMANDS + tuple(f for flags in FLAGS.values() for f in flags):
                assert name in out

    @pytest.mark.parametrize("command", COMMANDS)
    def test_command_help_names_every_flag(self, command):
        # help wins wherever it stands among the command's arguments
        for argv in ([command, "--help"], [command, "--format", "json", "-h"]):
            code, out, err = run_argv(argv)
            assert (code, err) == (0, "")
            assert out.startswith(f"usage: kbonacci {command} ")
            for flag in FLAGS[command]:
                assert flag in out


class TestParsing:
    @pytest.mark.parametrize(
        "spaced, joined",
        [
            (["prove", "--k", "5"], ["prove", "--k=5"]),
            (
                ["verify", "--k", "3", "--n-from", "-30", "--n-to", "120", "--format", "json"],
                ["verify", "--k=3", "--n-from=-30", "--n-to=120", "--format=json"],
            ),
            (
                ["decimate", "--charpoly", "1,-2,-1", "--stride", "2"],
                ["decimate", "--charpoly=1,-2,-1", "--stride=2"],
            ),
            (["triangle", "q", "--rows", "4"], ["triangle", "--rows=4", "q"]),
        ],
    )
    def test_equals_form_gives_same_bytes(self, spaced, joined):
        code, out, err = run_argv(spaced)
        assert (code, err) == (0, "")
        assert run_argv(joined) == (0, out, "")

    def test_repeated_flag_keeps_last_value(self):
        assert run_argv(["prove", "--k", "3", "--k", "5"]) == run_argv(["prove", "--k", "5"])
        assert run_argv(["prove", "--k", "5", "--format", "json", "--format", "tsv"]) == (
            run_argv(["prove", "--k", "5", "--format", "tsv"])
        )

    def test_argv_defaults_to_sys_argv(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["kbonacci", "prove", "--k", "2"])
        assert main() == 0
        assert "verdict: PASS" in capsys.readouterr().out


SMALL_INTS = st.integers(-4, 9).map(str)
FLAG_VALUES = {
    "--format": st.sampled_from(("tsv", "markdown", "json")),
    "--charpoly": st.sampled_from(("1,-1,-1", "1,0", "1,-2,-1", "1", "2,1", "1,x", "")),
}
JUNK = st.one_of(
    st.sampled_from(
        COMMANDS + ("p", "q", "xml", "--help", "-h", "--", "-", "--show", "--k=", "-1", "1\n2")
    ),
    SMALL_INTS,
    st.text(max_size=6),
)


@st.composite
def argvs(draw) -> list[str]:
    """A command with each flag nine times in ten, spaced or joined by '=',
    in any order, each value well-formed nine times in ten; then at most
    one junk token anywhere."""
    command = draw(st.sampled_from(COMMANDS))
    groups = [[draw(st.sampled_from(("p", "q", "r")))]] if command == "triangle" else []
    for flag in FLAGS[command]:
        if draw(st.integers(0, 9)) == 0:
            continue
        if flag == "--show-matrix":
            groups.append([flag])
            continue
        good = FLAG_VALUES.get(flag, SMALL_INTS)
        value = draw(good if draw(st.integers(0, 9)) else JUNK)
        groups.append([f"{flag}={value}"] if draw(st.booleans()) else [flag, value])
    argv = [command] + [token for group in draw(st.permutations(groups)) for token in group]
    for token in draw(st.lists(JUNK, max_size=1)):
        argv.insert(draw(st.integers(0, len(argv))), token)
    return argv


class TestFuzz:
    @settings(max_examples=300, deadline=None)
    @given(argvs())
    def test_any_argv_exits_cleanly(self, argv):
        code, out, err = run_argv(argv)
        assert code in (0, 1, 2)
        assert "Traceback" not in err
        if code == 2:
            # every argument is checked before the first byte of output
            assert out == ""
            assert len(err.splitlines()) == 1
            assert err.startswith("kbonacci: error: ")
        else:
            assert err == ""
