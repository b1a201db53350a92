"""Unit tests for the divisibility certificate machinery."""

import json
import re
import tracemalloc
from collections.abc import Iterable
from itertools import zip_longest

import pytest
from hypothesis import given, strategies as st

from kbonacci import prover
from kbonacci.cli import _poly_text, main
from kbonacci.decimation import recurrence_coefficients
from kbonacci.errors import NegativeRow, OrderTooSmall
from kbonacci.prover import (
    CASE_LABELS,
    case_analysis,
    certify_divisibility,
    column_sums,
    failed_columns,
    kstep_identity,
    quotient_poly,
    trinomial_divmod,
)
from kbonacci.triangles import coeff_rows
from polyref import RefPoly

# Ascending coefficients of the order-5 quotient (degree 20, 13 nonzero terms).
QUOTIENT_5 = (1, -1, 0, 0, 0, -7, 6, 1, 0, 0, 17, -12, -4, -1, 0, -15, 8, 4, 2, 1, 1)


def column_table(rows: Iterable[list[int]]) -> list[tuple[int, ...]]:
    """The triangle rows as quotient_poly and case_analysis read them:
    columns[j][i] = C[i][j], with 0 right of the diagonal."""
    return list(zip_longest(*rows, fillvalue=0))


def coeff_entry(rows: list[list[int]], i: int, j: int) -> int:
    """C[i][j] read from rows = list(coeff_rows(n)), n >= i, with 0 outside
    0 <= j <= i (the per-column sums below rely on vanishing boundary
    terms)."""
    if i < 0:
        raise NegativeRow(f"row {i} is negative")
    if j < 0 or j > i:
        return 0
    return rows[i][j]


def diff_entry(rows: list[list[int]], i: int, j: int) -> int:
    """D[i][j] = C[i][j] - C[i-1][j] read from rows = list(coeff_rows(n)),
    n >= i, with 0 outside 0 <= j <= i (row 0 is all zeros)."""
    if i == 0:
        return 0
    return coeff_entry(rows, i, j) - coeff_entry(rows, i - 1, j)


def matrix_rows(quotient: tuple[int, ...], k: int) -> tuple[tuple[int, ...], ...]:
    """Every row of the order-k product matrix as cells: row r is the
    quotient shifted right by r, negated in row k, and k*k + 1 cells wide.
    The reference for the CLI's matrix writer."""
    rows = []
    negated = tuple(-c for c in quotient)
    for r in range(k + 1):
        cells = (0,) * r + (negated if r == k else quotient)
        rows.append(cells + (0,) * (k * k + 1 - len(cells)))
    return tuple(rows)


def composed_charpoly(k: int) -> RefPoly:
    """charpoly(X**stride) of the order-k identity: the identity's own
    characteristic polynomial, which base divides."""
    identity = kstep_identity(k)
    return RefPoly(identity.charpoly).compose_power(identity.stride)


def negated_target(k: int) -> tuple[int, ...]:
    """The coefficients of -charpoly(X**stride): what every column of the
    product matrix must sum to."""
    return tuple(-c for c in composed_charpoly(k).coeffs)


def failed_columns_by_walk(
    rows: list[list[int]], sums: tuple[int, ...], target: tuple[int, ...]
) -> list[int]:
    """The columns whose closed form, column sum and target are not all
    equal, compared one column at a time: the oracle of the whole-list
    comparison in failed_columns."""
    columns = zip(case_analysis(column_table(rows))[1], sums, target)
    return [c for c, (e, a, w) in enumerate(columns) if not e == a == w]


def all_failed(failed: dict[str, tuple[int, ...]]) -> list[int]:
    """Every column named in failed_columns' result, in ascending order."""
    return sorted(c for columns in failed.values() for c in columns)


def matrix_sums(rows: list[list[int]]) -> tuple[int, ...]:
    """The column sums of the product matrix of the quotient read from
    rows = list(coeff_rows(k))."""
    return column_sums(quotient_poly(column_table(rows)), len(rows) - 1)


def quotient_by_entry(rows: list[list[int]]) -> tuple[int, ...]:
    """The explicit quotient assembled one triangle entry at a time: the
    reference for prover.quotient_poly."""
    k = len(rows) - 1
    n = k * (k - 1)
    coeffs = [0] * (n + 1)
    coeffs[n] = 1
    for j in range(k - 1):
        col = k - 1 - j
        coeffs[k * j] += -rows[k - 1][col]
        for i in range(col, k):
            coeffs[k * j + (k - i)] += diff_entry(rows, i, col)
    return tuple(coeffs)


class ColumnOutOfRange(ValueError):
    """Product-matrix column index outside 0..k*k."""


class NotAnEColumn(ValueError):
    """Case-E group sums asked of a product-matrix column outside family E."""


def classify_column(k: int, c: int) -> str:
    """Case label A-E for column c of the product matrix, one column at a
    time: the reference for the labels of prover.case_analysis.

    Writing c = j*k + m with 0 <= m < k: A for the two end columns, D for
    the last block (j = k-1), C for interior multiples of k, E for
    1 <= m <= j, and B for the rest.  Total and mutually exclusive.
    """
    if c < 0 or c > k * k:
        raise ColumnOutOfRange(f"column {c} outside 0..{k * k}")
    if c == 0 or c == k * k:
        return "A"
    j, m = divmod(c, k)
    if j == k - 1:
        return "D"
    if m == 0:
        return "C"
    return "E" if m <= j else "B"


def case_e_group_sums(rows: list[list[int]], c: int) -> tuple[int, int, int, int]:
    """The four group sums whose cancellation settles E column c, read
    from rows = list(coeff_rows(k)) entry by entry.

    In order: the lone coefficient-triangle term descending from the
    block's multiple-of-k column; the negated difference entry descending
    from the previous block; the row-0 difference entries of this block,
    telescoped; and the difference entries descending from the previous
    block's row 0, telescoped (empty when m = j).  The four add to zero.
    """
    k = len(rows) - 1
    if classify_column(k, c) != "E":
        raise NotAnEColumn(f"column {c} of order {k} is not an E column")
    j, m = divmod(c, k)
    lead = -coeff_entry(rows, k - 1, k - 1 - j)
    crossing = -diff_entry(rows, k - m, k - j)
    block = coeff_entry(rows, k - 1, k - j - 1) - coeff_entry(rows, k - m - 1, k - j - 1)
    tail = coeff_entry(rows, k - m - 1, k - j)
    return (lead, crossing, block, tail)


def expected_column_sum(rows: list[list[int]], c: int) -> int:
    """Column sum predicted by column c's case argument, one column at a
    time: the reference for the closed-form sums of prover.case_analysis."""
    k = len(rows) - 1
    label = classify_column(k, c)
    if label == "A":
        return coeff_entry(rows, k, k) if c == 0 else -1
    j, m = divmod(c, k)
    if label == "B":
        return 0
    if label == "C":
        return 2 * coeff_entry(rows, k - 1, k - j) - coeff_entry(rows, k - 1, k - j - 1)
    if label == "D":
        return 2**k - 1 if m == 0 else 0
    return sum(case_e_group_sums(rows, c))


class TestPolynomials:
    @pytest.mark.parametrize(
        "k, text",
        [
            (2, "X^2-X-1"),
            (3, "X^3-X^2-X-1"),
            (5, "X^5-X^4-X^3-X^2-X-1"),
        ],
    )
    def test_base_charpoly(self, k, text):
        assert _poly_text(kstep_identity(k).base) == text

    @pytest.mark.parametrize(
        "k, text",
        [
            (2, "X^2-3X+1"),
            (4, "X^4-15X^3+17X^2-7X+1"),
            (5, "X^5-31X^4+49X^3-31X^2+9X-1"),
        ],
    )
    def test_stride_charpoly(self, k, text):
        assert _poly_text(kstep_identity(k).charpoly) == text

    def test_quotient_poly_order_two(self):
        assert quotient_poly(column_table(coeff_rows(2))) == (-1, 1, 1)  # X^2 + X - 1

    def test_quotient_poly_order_three(self):
        # brute-force long division is the oracle for the assembled quotient
        division_quotient, remainder = divmod(
            composed_charpoly(3), RefPoly(kstep_identity(3).base)
        )
        assert not remainder
        assert quotient_poly(column_table(coeff_rows(3))) == division_quotient.coeffs
        assert _poly_text(quotient_poly(column_table(coeff_rows(3)))) == "X^6+X^5+2X^4-3X^3-X+1"

    def test_quotient_poly_order_five(self):
        assert quotient_poly(column_table(coeff_rows(5))) == QUOTIENT_5

    def test_block_quotient_matches_entry_oracle(self):
        for k in range(2, 81):
            rows = list(coeff_rows(k))
            assert quotient_poly(column_table(rows)) == quotient_by_entry(rows), k

    @pytest.mark.parametrize("k", [0, 1])
    def test_order_too_small(self, k):
        def quotient(k):
            return quotient_poly(column_table(coeff_rows(k)))

        def cases(k):
            return case_analysis(column_table(coeff_rows(k)))

        for fn in (kstep_identity, certify_divisibility, quotient, cases):
            with pytest.raises(OrderTooSmall):
                fn(k)


class TestIdentityCoefficients:
    @pytest.mark.parametrize(
        "k, expected",
        [
            (2, [3, -1]),
            (3, [7, -5, 1]),
            (4, [15, -17, 7, -1]),
        ],
    )
    def test_known_orders(self, k, expected):
        identity = kstep_identity(k)
        assert identity.coefficients == expected
        assert identity.stride == identity.k == k

    def test_order_600_in_bounded_memory(self):
        # only the last row is kept: the rows above it would be about 18 MB
        tracemalloc.start()
        try:
            identity = kstep_identity(600)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000
        # C[n][1] = 2**n - 1, and row n sums to n - 1 with C[n][0] = -1
        coefficients = identity.coefficients
        assert len(coefficients) == 600
        assert coefficients[0] == 2**600 - 1
        assert sum(coefficients) == 600

    def test_identity_charpoly(self):
        # charpoly is X**k - sum c_i X**(k-i) of the record's coefficients
        for k in range(2, 31):
            identity = kstep_identity(k)
            assert recurrence_coefficients(identity.charpoly) == identity.coefficients, k

    def test_fields_are_the_documented_ones(self):
        # the record is built by keyword, so a misspelled field shows here
        identity = kstep_identity(5)
        assert set(vars(identity)) == IDENTITY_FIELDS
        assert identity.base == (-1, -1, -1, -1, -1, 1)

    def test_both_builders_agree(self):
        # the certificate reads row k from its own column table
        for k in range(2, 61):
            assert kstep_identity(k) == certify_divisibility(k).identity, k


class TestClassification:
    def test_order_five_case_row(self):
        assert "".join(classify_column(5, c) for c in range(26)) == (
            "ABBBBCEBBBCEEBBCEEEBDDDDDA"
        )

    def test_order_two_case_row(self):
        assert "".join(classify_column(2, c) for c in range(5)) == "ABDDA"

    def test_out_of_range(self):
        with pytest.raises(ColumnOutOfRange):
            classify_column(3, 10)
        with pytest.raises(ColumnOutOfRange):
            classify_column(3, -1)

    def test_total_and_counts(self):
        # every column gets exactly one label; family sizes follow the ranges
        for k in range(2, 51):
            labels = [classify_column(k, c) for c in range(k * k + 1)]
            counts = {label: labels.count(label) for label in CASE_LABELS}
            assert counts["A"] == 2
            assert counts["D"] == k
            assert counts["C"] == k - 2
            assert counts["B"] == k * (k - 1) // 2
            assert counts["E"] == (k - 2) * (k - 1) // 2
            assert sum(counts.values()) == k * k + 1

    def test_block_case_row_matches_column_oracle(self):
        for k in range(2, 81):
            cases = case_analysis(column_table(coeff_rows(k)))[0]
            assert cases == "".join(classify_column(k, c) for c in range(k * k + 1)), k


class TestMatrix:
    def test_order_two_matrix(self):
        quotient = quotient_poly(column_table(coeff_rows(2)))
        assert matrix_rows(quotient, 2) == (
            (-1, 1, 1, 0, 0),
            (0, -1, 1, 1, 0),
            (0, 0, 1, -1, -1),
        )
        assert column_sums(quotient, 2) == (-1, 0, 3, 0, -1)

    def test_order_five_first_row(self):
        assert matrix_rows(quotient_poly(column_table(coeff_rows(5))), 5)[0][:15] == (
            1, -1, 0, 0, 0, -7, 6, 1, 0, 0, 17, -12, -4, -1, 0,
        )

    def test_order_five_sum_row_at_block_columns(self):
        sums = matrix_sums(list(coeff_rows(5)))
        assert [sums[c] for c in (0, 5, 10, 15, 20, 25)] == [
            1, -9, 31, -49, 31, -1,
        ]

    def test_column_sums_reproduce_composed_polynomial(self):
        for k in range(2, 13):
            target = -composed_charpoly(k)
            assert list(matrix_sums(list(coeff_rows(k)))) == list(target.coeffs)

    def test_block_column_sums_are_triangle_entries(self):
        for k in range(2, 11):
            rows = list(coeff_rows(k))
            sums = matrix_sums(rows)
            for j in range(k):
                assert sums[j * k] == coeff_entry(rows, k, k - j)
            assert sums[k * k] == -1


def symbolic_matrix(k: int) -> list[list[str]]:
    """Triangle-entry labels for every matrix cell.

    "C(i,j)" / "D(i,j)" name coefficient- and difference-triangle entries,
    "1" the quotient's leading coefficient, "" a structural zero.  Row 0
    is read off the quotient's block structure; later rows shift it right
    and the last row negates it, mirroring the product matrix's rows.  Resolving each
    label through the triangles must reproduce the numeric matrix.
    """
    width = k * k + 1

    def row_zero(c: int) -> str:
        if c == k * (k - 1):
            return "1"
        j, m = divmod(c, k)
        if j > k - 2:
            return ""
        if m == 0:
            return f"-C({k - 1},{k - 1 - j})"
        if m <= j + 1:
            return f"D({k - m},{k - 1 - j})"
        return ""

    def negate(label: str) -> str:
        if not label:
            return ""
        return label[1:] if label.startswith("-") else "-" + label

    out = []
    for r in range(k):
        out.append([row_zero(c - r) if c >= r else "" for c in range(width)])
    out.append([negate(row_zero(c - k)) if c >= k else "" for c in range(width)])
    return out


LABEL = re.compile(r"^(-?)([CD])\((\d+),(\d+)\)$")


def resolve_label(rows: list[list[int]], label: str) -> int:
    if label == "":
        return 0
    if label == "1":
        return 1
    if label == "-1":
        return -1
    match = LABEL.match(label)
    assert match, f"unparseable cell label {label!r}"
    sign = -1 if match.group(1) else 1
    lookup = coeff_entry if match.group(2) == "C" else diff_entry
    return sign * lookup(rows, int(match.group(3)), int(match.group(4)))


class TestSymbolicMatrix:
    def test_order_five_known_cells(self):
        cells = symbolic_matrix(5)
        assert cells[0][0] == "-C(4,4)"
        assert cells[0][1] == "D(4,4)"
        assert cells[0][10] == "-C(4,2)"
        assert cells[0][20] == "1"
        assert cells[2][15] == "D(2,2)"
        assert cells[5][5] == "C(4,4)"
        assert cells[5][16] == "-D(4,2)"
        assert cells[5][25] == "-1"
        assert cells[0][8] == ""

    def test_labels_resolve_to_numeric_matrix(self):
        for k in range(2, 9):
            rows = list(coeff_rows(k))
            numeric = matrix_rows(quotient_poly(column_table(rows)), k)
            cells = symbolic_matrix(k)
            assert len(numeric) == len(cells) == k + 1
            for r in range(k + 1):
                assert len(numeric[r]) == len(cells[r]) == k * k + 1
                for c in range(k * k + 1):
                    assert resolve_label(rows, cells[r][c]) == numeric[r][c], (
                        k, r, c, cells[r][c],
                    )


class TestCaseSums:
    def test_order_five_expected_values(self):
        rows = list(coeff_rows(5))
        assert expected_column_sum(rows, 0) == 1  # equals C[5][5]
        assert expected_column_sum(rows, 15) == -49
        assert expected_column_sum(rows, 16) == 0

    def test_order_five_group_decomposition(self):
        rows = list(coeff_rows(5))
        assert case_e_group_sums(rows, 16) == (-15, 12, 8, -5)
        assert case_e_group_sums(rows, 6) == (-7, 1, 6, 0)

    def test_group_sums_only_for_e_columns(self):
        with pytest.raises(NotAnEColumn, match="column 5 of order 5 is not an E column"):
            case_e_group_sums(list(coeff_rows(5)), 5)

    def test_no_failures_up_to_order_twelve(self):
        for k in range(2, 13):
            rows = list(coeff_rows(k))
            cases, expected = case_analysis(column_table(rows))
            failed = failed_columns(cases, expected, matrix_sums(rows), negated_target(k))
            assert failed == {label: () for label in CASE_LABELS}, (k, failed)
            assert len(cases) == len(expected) == k * k + 1

    def test_block_sums_match_column_oracle(self):
        for k in range(2, 61):
            rows = list(coeff_rows(k))
            expected = tuple(expected_column_sum(rows, c) for c in range(k * k + 1))
            assert case_analysis(column_table(rows))[1] == expected, k

    @pytest.mark.parametrize("k", [5, 8, 12])
    def test_perturbed_entry_fails_the_columns_that_read_it(self, k):
        # the column sums and target come from the true triangle, so only
        # the closed forms see the perturbed entry: a failure shows that the
        # case side reads the triangle and does not restate the column sums.
        # j runs to the diagonal: the E column m = j of each block reads
        # C[i][i] next to the 0 right of it
        rows = list(coeff_rows(k))
        sums = matrix_sums(rows)
        target = negated_target(k)
        width = k * k + 1
        families = set()
        for i in range(2, k):
            for j in range(1, i + 1):
                perturbed = [list(row) for row in rows]
                perturbed[i][j] += 1
                moved = [
                    c
                    for c in range(width)
                    if expected_column_sum(perturbed, c) != expected_column_sum(rows, c)
                ]
                assert moved, (i, j)
                cases, expected = case_analysis(column_table(perturbed))
                failed = failed_columns(cases, expected, sums, target)
                assert all_failed(failed) == moved, (i, j)
                assert list(failed) == list(CASE_LABELS)
                for label, columns in failed.items():
                    assert all(classify_column(k, c) == label for c in columns)
                    if columns:
                        families.add(label)
        assert families == {"C", "E"}

    @pytest.mark.parametrize("k", [2, 5, 12])
    @pytest.mark.parametrize("side", ["column sum", "target"])
    def test_one_changed_value_fails_its_column_alone(self, k, side):
        # the whole-list comparison must still name exactly the column whose
        # actual sum or target moved, in that column's family
        rows = list(coeff_rows(k))
        cases, expected = case_analysis(column_table(rows))
        for c in range(k * k + 1):
            sums, target = list(matrix_sums(rows)), list(negated_target(k))
            (sums if side == "column sum" else target)[c] += 1
            sums, target = tuple(sums), tuple(target)
            result = failed_columns(cases, expected, sums, target)
            assert list(result) == list(CASE_LABELS)
            failed = {label: columns for label, columns in result.items() if columns}
            assert failed == {cases[c]: (c,)}, c
            assert failed_columns_by_walk(rows, sums, target) == [c]

    @pytest.mark.parametrize("target", [negated_target(5)[:-1], negated_target(5) + (0,)])
    def test_target_of_another_width_raises(self, target):
        # a short target would leave columns unnamed when the comparison
        # fails, a long one would carry coefficients past the last column
        rows = list(coeff_rows(5))
        cases, expected = case_analysis(column_table(rows))
        with pytest.raises(ValueError, match="argument 3 is"):
            failed_columns(cases, expected, matrix_sums(rows), target)


IDENTITY_FIELDS = {"k", "base", "stride", "coefficients", "charpoly"}

CERTIFICATE_FIELDS = {
    "identity",
    "quotient",
    "remainder",
    "division_matches",
    "product_matches",
    "column_cases",
    "column_sums",
    "failed_columns",
}


class TestCertificate:
    def test_fields_are_the_documented_ones(self):
        # the record is built by keyword, so a misspelled field shows here
        cert = certify_divisibility(5)
        assert set(vars(cert)) == CERTIFICATE_FIELDS
        assert cert.identity == kstep_identity(5)

    def test_held_memory_is_bounded(self):
        # what a certificate keeps once it returns: the quotient, the column
        # sums and cases, and no triangle table, which would hold about 3.5
        # MB more at order 300
        tracemalloc.start()
        try:
            cert = certify_divisibility(300)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert cert.ok
        assert held < 5_000_000

    def test_order_two(self):
        cert = certify_divisibility(2)
        assert cert.ok
        assert cert.quotient == (-1, 1, 1)
        assert cert.remainder == ()

    def test_order_five_quotient_matches_reference(self):
        cert = certify_divisibility(5)
        assert cert.ok
        assert cert.quotient == QUOTIENT_5

    @pytest.mark.parametrize("k", [2, 5, 12, 25])
    def test_builds_one_triangle(self, k, monkeypatch):
        calls = []

        def counting_coeff_rows(n):
            calls.append(n)
            return coeff_rows(n)

        monkeypatch.setattr(prover, "coeff_rows", counting_coeff_rows)
        assert certify_divisibility(k).ok
        assert calls == [k]

    @pytest.mark.parametrize("k", [2, 5, 12, 25])
    def test_builds_case_row_once(self, k, monkeypatch):
        calls = []

        def counting_case_analysis(columns):
            calls.append(len(columns) - 1)
            return case_analysis(columns)

        monkeypatch.setattr(prover, "case_analysis", counting_case_analysis)
        assert certify_divisibility(k).ok
        assert calls == [k]

    def test_order_twenty_five(self):
        for k in (25, 40, 60):
            assert certify_divisibility(k).ok, k

    def test_product_and_division_both_directions(self):
        for k in range(2, 13):
            base = RefPoly(kstep_identity(k).base)
            quotient = RefPoly(quotient_poly(column_table(coeff_rows(k))))
            composed = composed_charpoly(k)
            assert (-base) * quotient == -composed
            assert divmod(composed, base) == (quotient, RefPoly())


class TestDenseOracle:
    @pytest.mark.parametrize("k", range(2, 61))
    def test_matches_dense_matrix_and_product(self, k):
        cert = certify_divisibility(k)
        quotient = quotient_poly(column_table(coeff_rows(k)))
        assert cert.quotient == quotient
        # every cell written out and added up column by column
        assert cert.column_sums == tuple(map(sum, zip(*matrix_rows(quotient, k))))
        composed = composed_charpoly(k)
        product = (-RefPoly(cert.identity.base)) * RefPoly(quotient)
        assert cert.product_matches is (product == -composed)
        assert cert.product_matches

    @pytest.mark.parametrize("k", [2, 5, 12])
    @pytest.mark.parametrize("where", ["low", "middle", "lead"])
    def test_perturbed_quotient_fails_every_route(self, k, where, monkeypatch, capsys):
        def perturbed(columns):
            q = list(quotient_poly(columns))
            q[{"low": 0, "middle": len(q) // 2, "lead": -1}[where]] += 1
            return tuple(q)

        monkeypatch.setattr(prover, "quotient_poly", perturbed)
        cert = certify_divisibility(k)
        assert cert.quotient == perturbed(column_table(coeff_rows(k)))
        failed = all_failed(cert.failed_columns)
        rows = list(coeff_rows(k))
        assert failed == failed_columns_by_walk(rows, cert.column_sums, negated_target(k))
        assert failed
        assert not cert.division_matches
        assert not cert.product_matches
        assert not cert.matrix_verified
        assert not cert.ok
        # prove reports each failed column under its family, and exits 1
        assert main(["prove", "--k", str(k), "--format", "json"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["matrix_verified"] is False
        counts = {label: len(columns) for label, columns in cert.failed_columns.items()}
        assert {label: c["failed"] for label, c in doc["cases"].items()} == counts
        assert doc["verdict"] == "FAIL"

    @pytest.mark.parametrize("k", [2, 3, 7, 12, 20])
    @pytest.mark.parametrize("offset", [(3, -2, 5), (4,)])
    def test_nonzero_remainder_matches_plain_division(self, k, offset, monkeypatch, capsys):
        # a constant offset leaves the division quotient equal to the explicit
        # one, so only the remainder can fail the division route
        base = kstep_identity(k).base
        real = prover.Identity

        def off_by_some(**fields):
            fields["charpoly"] = (RefPoly(fields["charpoly"]) + RefPoly(offset)).coeffs
            return real(**fields)

        monkeypatch.setattr(prover, "Identity", off_by_some)
        cert = certify_divisibility(k)
        composed = RefPoly(cert.identity.charpoly).compose_power(k)
        plain_quotient, plain_remainder = divmod(composed, RefPoly(base))
        assert plain_remainder
        # raw tuples, so a remainder left with zeros at its top fails
        assert cert.remainder == plain_remainder.coeffs
        assert (plain_quotient.coeffs == cert.quotient) is (len(offset) == 1)
        assert not cert.division_matches
        assert not cert.product_matches
        assert not cert.ok
        # the offset moves the composed coefficients at X**(k*i), and so the
        # target of exactly those columns
        assert all_failed(cert.failed_columns) == [k * i for i, v in enumerate(offset) if v]
        assert not cert.matrix_verified
        assert main(["prove", "--k", str(k), "--format", "json"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["division_matches"] is False
        assert doc["remainder_ascending"] == list(plain_remainder.coeffs)


X_MINUS_ONE = RefPoly((-1, 1))


class TestTrinomialDivision:
    @given(
        st.integers(2, 20),
        st.lists(st.integers(-50, 50), max_size=45),
    )
    def test_matches_dense_division_near_the_identity(self, k, offset):
        # (X-1) * s_k(X**k) is divisible by the trinomial (X-1) * p_k; an
        # offset below its leading term moves the remainder and the
        # quotient's low terms
        trinomial = X_MINUS_ONE * RefPoly(kstep_identity(k).base)
        composed = composed_charpoly(k)
        numerator = X_MINUS_ONE * composed + RefPoly(offset[: k * k])
        quotient, remainder = trinomial_divmod(list(numerator.coeffs), list(trinomial.coeffs))
        assert (RefPoly(quotient), RefPoly(remainder)) == divmod(numerator, trinomial)
        assert len(remainder) == k + 1

    @given(
        st.integers(2, 30),
        st.integers(-9, 9),
        st.integers(-9, 9),
        st.lists(st.integers(-100, 100), min_size=61, max_size=90),
    )
    def test_matches_dense_division_by_any_trinomial(self, d, a, c, numerator):
        trinomial = [c] + [0] * (d - 2) + [a, 1]
        quotient, remainder = trinomial_divmod(numerator, trinomial)
        expected = divmod(RefPoly(numerator), RefPoly(trinomial))
        assert (RefPoly(quotient), RefPoly(remainder)) == expected
        assert len(quotient) == len(numerator) - d and len(remainder) == d

    @pytest.mark.parametrize("k", [3, 5, 12])
    def test_base_without_trinomial_fails_division(self, k, monkeypatch, capsys):
        # with X**1 in base moved by one, (X-1) * base keeps the end terms
        # 1, -2, 1 of the trinomial (k >= 3), so a division by those three
        # alone would still return the explicit quotient and remainder 0:
        # only the middle terms show that base is not p_k
        real = prover.Identity

        def off_by_one(**fields):
            coeffs = list(fields["base"])
            coeffs[1] += 1
            fields["base"] = tuple(coeffs)
            return real(**fields)

        monkeypatch.setattr(prover, "Identity", off_by_one)
        cert = certify_divisibility(k)
        assert not cert.division_matches
        assert not cert.ok
        assert cert.product_matches and cert.matrix_verified
        assert main(["prove", "--k", str(k), "--format", "json"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["division_matches"] is False
        assert doc["verdict"] == "FAIL"
