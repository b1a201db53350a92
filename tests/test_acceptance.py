"""Acceptance suite: one test per criterion, exact equality throughout.

Each test prints a single `criterion NN [...]: PASS/FAIL` line (visible
with `pytest -s`) and enforces its runtime budget.  Expected values are
frozen from independent derivations: the tabulated triangles, the
13-term order-5 quotient, the full order-5 product matrix, and the named
subsequence values.
"""

import json
import time
from contextlib import contextmanager
from pathlib import Path

from kbonacci.cli import main
from kbonacci.decimation import decimated_charpoly, recurrence_coefficients
from kbonacci.prover import (
    CASE_LABELS,
    case_analysis,
    certify_divisibility,
    column_sums,
    failed_columns,
    kstep_identity,
    quotient_poly,
)
from kbonacci.sequences import (
    LinearRecurrence,
    check_identity,
    kbonacci,
    random_kbonacci,
)
from kbonacci.triangles import coeff_rows, diff_rows
from polyref import RefPoly
from test_prover import (
    coeff_entry,
    column_table,
    composed_charpoly,
    diff_entry,
    matrix_rows,
    negated_target,
)

DATA = Path(__file__).parent / "data"


@contextmanager
def criterion(number: int, name: str, budget_seconds: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {number:2d} [{name}]: FAIL")
        raise
    elapsed = time.perf_counter() - start
    if elapsed >= budget_seconds:
        print(f"criterion {number:2d} [{name}]: FAIL (took {elapsed:.2f}s, budget {budget_seconds}s)")
        raise AssertionError(f"criterion {number} exceeded {budget_seconds}s budget")
    print(f"criterion {number:2d} [{name}]: PASS ({elapsed:.3f}s)")


# --- frozen reference values -------------------------------------------------

COEFF_ROWS_0_TO_6 = [
    [-1],
    [-1, 1],
    [-1, 3, -1],
    [-1, 7, -5, 1],
    [-1, 15, -17, 7, -1],
    [-1, 31, -49, 31, -9, 1],
    [-1, 63, -129, 111, -49, 11, -1],
]
DIFF_ROWS_0_TO_6 = [
    [0],
    [0, 1],
    [0, 2, -1],
    [0, 4, -4, 1],
    [0, 8, -12, 6, -1],
    [0, 16, -32, 24, -8, 1],
    [0, 32, -80, 80, -40, 10, -1],
]

# The order-5 quotient: X^20 + X^19 + 2X^18 + 4X^17 + 8X^16 - 15X^15
# - X^13 - 4X^12 - 12X^11 + 17X^10 + X^7 + 6X^6 - 7X^5 - X + 1.
QUOTIENT_5_TERMS = {
    20: 1, 19: 1, 18: 2, 17: 4, 16: 8, 15: -15,
    13: -1, 12: -4, 11: -12, 10: 17,
    7: 1, 6: 6, 5: -7,
    1: -1, 0: 1,
}

# Full numeric product matrix for order 5 (rows X^0..X^4, -X^5), columns 0..25.
MATRIX_5 = [
    [1, -1, 0, 0, 0, -7, 6, 1, 0, 0, 17, -12, -4, -1, 0, -15, 8, 4, 2, 1, 1, 0, 0, 0, 0, 0],
    [0, 1, -1, 0, 0, 0, -7, 6, 1, 0, 0, 17, -12, -4, -1, 0, -15, 8, 4, 2, 1, 1, 0, 0, 0, 0],
    [0, 0, 1, -1, 0, 0, 0, -7, 6, 1, 0, 0, 17, -12, -4, -1, 0, -15, 8, 4, 2, 1, 1, 0, 0, 0],
    [0, 0, 0, 1, -1, 0, 0, 0, -7, 6, 1, 0, 0, 17, -12, -4, -1, 0, -15, 8, 4, 2, 1, 1, 0, 0],
    [0, 0, 0, 0, 1, -1, 0, 0, 0, -7, 6, 1, 0, 0, 17, -12, -4, -1, 0, -15, 8, 4, 2, 1, 1, 0],
    [0, 0, 0, 0, 0, -1, 1, 0, 0, 0, 7, -6, -1, 0, 0, -17, 12, 4, 1, 0, 15, -8, -4, -2, -1, -1],
]
MATRIX_5_SUMS = [1, 0, 0, 0, 0, -9, 0, 0, 0, 0, 31, 0, 0, 0, 0, -49, 0, 0, 0, 0, 31, 0, 0, 0, 0, -1]
CASES_5 = "ABBBBCEBBBCEEBBCEEEBDDDDDA"

THREE_STEP_SUBSEQUENCE = [0, 1, 7, 44, 274, 1705, 10609]
FOUR_STEP_SUBSEQUENCE = [0, 1, 15, 208, 2872, 39648, 547337]
PELL_VALUES = (0, 1, 2, 5, 12, 29, 70, 169, 408)


def test_criterion_01_table_reproduction(capsys):
    with criterion(1, "table reproduction", 1.0):
        for kind, golden, reference in (
            ("p", "triangle_p_rows6.md", COEFF_ROWS_0_TO_6),
            ("q", "triangle_q_rows6.md", DIFF_ROWS_0_TO_6),
        ):
            assert main(["triangle", kind, "--rows", "6"]) == 0
            out = capsys.readouterr().out
            assert out == (DATA / golden).read_text(encoding="utf-8")
            # entry-for-entry against the tabulated values
            for i, line in enumerate(out.splitlines()[2:]):
                cells = [cell.strip() for cell in line.strip("|").split("|")][1:]
                padded = reference[i] + [0] * (7 - len(reference[i]))
                assert [int(cell) for cell in cells] == padded


def test_criterion_02_order_five_quotient():
    with criterion(2, "order-5 quotient reproduction", 1.0):
        expected = [0] * 21
        for exponent, value in QUOTIENT_5_TERMS.items():
            expected[exponent] = value
        assert quotient_poly(column_table(coeff_rows(5))) == tuple(expected)


def test_criterion_03_symbolic_certification():
    with criterion(3, "symbolic certification, orders 2..25", 30.0):
        for k in range(2, 26):
            base = RefPoly(kstep_identity(k).base)
            quotient = RefPoly(quotient_poly(column_table(coeff_rows(k))))
            composed = composed_charpoly(k)
            assert (-base) * quotient == -composed, k
            assert divmod(composed, base) == (quotient, RefPoly()), k


def test_criterion_04_matrix_verification():
    with criterion(4, "product-matrix verification, orders 2..12", 10.0):
        for k in range(2, 13):
            sums = column_sums(quotient_poly(column_table(coeff_rows(k))), k)
            target = -composed_charpoly(k)
            assert list(sums) == list(target.coeffs), k  # degree k*k
        columns5 = column_table(coeff_rows(5))
        quotient5 = quotient_poly(columns5)
        assert [list(row) for row in matrix_rows(quotient5, 5)] == MATRIX_5
        assert list(column_sums(quotient5, 5)) == MATRIX_5_SUMS
        assert case_analysis(columns5)[0] == CASES_5


def test_criterion_05_case_proof_checker():
    with criterion(5, "closed-form case checks, orders 2..12", 10.0):
        for k in range(2, 13):
            columns = column_table(coeff_rows(k))
            cases, expected = case_analysis(columns)
            sums = column_sums(quotient_poly(columns), k)
            failed = failed_columns(cases, expected, sums, negated_target(k))
            assert failed == {label: () for label in CASE_LABELS}, (k, failed)
            assert len(cases) == len(expected) == k * k + 1


def test_criterion_06_oracle_equivalence():
    with criterion(6, "companion-matrix oracle, orders 2..12", 20.0):
        for k in range(2, 13):
            identity = kstep_identity(k)
            decimated = decimated_charpoly(identity.base, identity.stride)
            assert decimated == identity.charpoly, k


def test_criterion_07_numeric_identity():
    with criterion(7, "numeric identity, orders 2..10, 5 seeds", 30.0):
        for k in range(2, 11):
            coefficients = kstep_identity(k).coefficients
            for seed in (1, 2, 3, 4, 5):
                report = check_identity(
                    random_kbonacci(k, seed), coefficients, k, -20, 100
                )
                assert report.ok, (k, seed, report.first_counterexample)
                tallies = report.residue_tallies(k)
                for residue in range(k):
                    checked, failed = tallies[residue]
                    assert checked > 0 and failed == 0, (k, seed, residue)


def test_criterion_08_worked_examples():
    with criterion(8, "low-order worked examples", 10.0):
        assert kstep_identity(2).coefficients == [3, -1]
        assert kstep_identity(3).coefficients == [7, -5, 1]
        assert kstep_identity(4).coefficients == [15, -17, 7, -1]
        for k in (2, 3, 4):
            report = check_identity(
                kbonacci(k), kstep_identity(k).coefficients, k, -20, 100
            )
            assert report.ok, k
        window3 = kbonacci(3).window(0, 18)
        assert [window3[n] for n in range(0, 19, 3)] == THREE_STEP_SUBSEQUENCE
        window4 = kbonacci(4).window(0, 24)
        assert [window4[n] for n in range(0, 25, 4)] == FOUR_STEP_SUBSEQUENCE


def test_criterion_09_closed_forms():
    with criterion(9, "triangle closed forms and telescoping", 10.0):
        # column 1 in closed form: C[n][1] = 2**n - 1 and D[n][1] = 2**(n-1)
        rows64 = list(coeff_rows(64))
        assert all(
            coeff_entry(rows64, n, 1) == 2**n - 1 and diff_entry(rows64, n, 1) == 2 ** (n - 1)
            for n in range(1, 65)
        )
        for k in range(1, 31):
            rows = list(coeff_rows(k))
            assert -coeff_entry(rows, k - 1, k - 1) == coeff_entry(rows, k, k), k
        for c in range(31):
            for r in range(c):
                assert diff_entry(list(coeff_rows(r)), r, c) == 0, (r, c)
        crows = list(coeff_rows(30))
        drows = list(diff_rows(30))

        def centry(i, j):
            return crows[i][j] if j <= i else 0

        for c in range(1, 31):
            column = [drows[r][c] if c <= r else 0 for r in range(31)]
            for s in range(c, 31):
                for t in range(s, 31):
                    total = sum(column[s : t + 1])
                    assert total == centry(t, c) - centry(s - 1, c), (c, s, t)
                    if s == c:
                        assert total == centry(t, c), (c, t)


def test_criterion_10_pell_generalization():
    with criterion(10, "stride decimation of the Pell recurrence", 10.0):
        decimated = decimated_charpoly((-1, -2, 1), 2)
        coefficients = recurrence_coefficients(decimated)
        pell = LinearRecurrence((2, 1), (0, 1))
        assert pell.window(0, 8) == PELL_VALUES
        report = check_identity(pell, coefficients, 2, 4, 8)
        assert report.ok
        # spelled out against the fixed values at even indices
        for n in (4, 6, 8):
            assert PELL_VALUES[n] == sum(
                c * PELL_VALUES[n - 2 * j] for j, c in enumerate(coefficients, start=1)
            )


def test_json_outputs_round_trip(capsys):
    # stable machine output: parse and re-render byte-identically
    for argv in (
        ["triangle", "p", "--rows", "6", "--format", "json"],
        ["prove", "--k", "5", "--show-matrix", "--format", "json"],
        ["sweep", "--k-min", "2", "--k-max", "6", "--format", "json"],
    ):
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n" == out
