"""Unit tests for the coefficient and difference triangles."""

import pytest

from kbonacci.errors import NegativeRow
from kbonacci.triangles import coeff_rows, diff_rows
from polyref import RefPoly
from test_prover import coeff_entry, diff_entry

# First seven rows of both triangles, fixed reference values.
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



# --- reference oracles: the triangles rebuilt without the recursion ---------


def coeff_row_from_charpoly(k: int) -> list[int]:
    """Row k of the coefficient triangle from the order-k recurrence
    polynomial evaluated at 2 - Y: (2-Y)**k - sum_{i<k} (2-Y)**i has
    coefficient -C[k][i] at Y**i for 1 <= i <= k."""
    two_minus_y = RefPoly((2, -1))
    powers = [RefPoly((1,))]
    for _ in range(k):
        powers.append(powers[-1] * two_minus_y)
    shifted = powers[k]
    for i in range(k):
        shifted = shifted - powers[i]
    return [-1] + [-c for c in shifted.coeffs[1:]]  # degree k, no Y**i missing


def diff_row_from_binomial(n: int) -> list[int]:
    """Row n >= 1 of the difference triangle as the coefficients of
    X*(2-X)**(n-1)."""
    poly = RefPoly((0, 1))
    for _ in range(n - 1):
        poly = poly * RefPoly((2, -1))
    return list(poly.coeffs)  # degree n


def column_one_closed_form(n: int) -> bool:
    """True iff C[n][1] == 2**n - 1 and D[n][1] == 2**(n-1), for n >= 1."""
    rows = list(coeff_rows(n))
    return coeff_entry(rows, n, 1) == 2**n - 1 and diff_entry(rows, n, 1) == 2**(n - 1)


class TestRows:
    def test_coeff_rows_prefix(self):
        assert list(coeff_rows(6)) == COEFF_ROWS_0_TO_6

    def test_diff_rows_prefix(self):
        assert list(diff_rows(6)) == DIFF_ROWS_0_TO_6

    @pytest.mark.parametrize("n", [0, 4, 6])
    def test_single_coeff_row(self, n):
        # the generator stops after row n
        assert list(coeff_rows(n)) == COEFF_ROWS_0_TO_6[: n + 1]

    @pytest.mark.parametrize("n", [0, 4, 6])
    def test_single_diff_row(self, n):
        assert list(diff_rows(n)) == DIFF_ROWS_0_TO_6[: n + 1]

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 5, 300])
    def test_diff_rows_are_differences_of_coeff_rows(self, n):
        # diff_rows runs D's own recursion from two seed rows; D is defined
        # as the differences down each column of C (row 0 all zeros)
        c = list(coeff_rows(n))
        differences = [[0]] + [
            [x - above for x, above in zip(cur, prev + [0])]
            for prev, cur in zip(c, c[1:])
        ]
        assert list(diff_rows(n)) == differences

    def test_negative_row_rejected(self):
        # raised by the call itself, before the first row is asked for
        with pytest.raises(NegativeRow):
            coeff_rows(-1)
        with pytest.raises(NegativeRow):
            coeff_rows(-2)
        with pytest.raises(NegativeRow):
            diff_rows(-1)


class TestEntries:
    def test_interior_entries(self):
        rows = list(coeff_rows(5))
        assert coeff_entry(rows, 3, 2) == -5
        assert diff_entry(rows, 5, 3) == 24
        assert diff_entry(rows, 4, 1) == 8

    def test_outside_triangle_is_zero(self):
        rows = list(coeff_rows(5))
        assert coeff_entry(rows, 5, 7) == 0
        assert coeff_entry(rows, 2, -1) == 0
        assert diff_entry(rows, 2, 3) == 0

    def test_negative_row_rejected(self):
        with pytest.raises(NegativeRow):
            coeff_entry(list(coeff_rows(5)), -1, 0)
        with pytest.raises(NegativeRow):
            diff_entry(list(coeff_rows(5)), -3, 1)

    def test_diff_vanishes_above_diagonal(self):
        for c in range(31):
            for r in range(c):
                assert diff_entry(list(coeff_rows(r)), r, c) == 0


class TestAlternateConstructions:
    @pytest.mark.parametrize(
        "k, expected",
        [
            (2, [-1, 3, -1]),
            (3, [-1, 7, -5, 1]),
            (5, [-1, 31, -49, 31, -9, 1]),
        ],
    )
    def test_coeff_row_from_charpoly_known_rows(self, k, expected):
        assert coeff_row_from_charpoly(k) == expected

    def test_coeff_row_from_charpoly_agrees_with_recursion(self):
        rows = list(coeff_rows(30))
        for k in range(2, 31):
            assert coeff_row_from_charpoly(k) == rows[k]

    @pytest.mark.parametrize(
        "n, expected",
        [
            (1, [0, 1]),
            (3, [0, 4, -4, 1]),
            (4, [0, 8, -12, 6, -1]),
        ],
    )
    def test_diff_row_from_binomial_known_rows(self, n, expected):
        assert diff_row_from_binomial(n) == expected

    def test_diff_row_from_binomial_agrees_with_recursion(self):
        rows = list(diff_rows(30))
        for n in range(1, 31):
            assert diff_row_from_binomial(n) == rows[n]


class TestClosedForms:
    @pytest.mark.parametrize("n", [1, 4, 64])
    def test_column_one_closed_form(self, n):
        assert column_one_closed_form(n)

    def test_column_one_closed_form_full_range(self):
        assert all(column_one_closed_form(n) for n in range(1, 65))

    def test_diagonal_negation(self):
        # -C[k-1][k-1] == C[k][k]
        for k in range(1, 31):
            rows = list(coeff_rows(k))
            assert -coeff_entry(rows, k - 1, k - 1) == coeff_entry(rows, k, k)


class TestTelescoping:
    def test_full_telescoping(self):
        # sum_{r=c}^{t} D[r][c] == C[t][c]
        crows = list(coeff_rows(30))
        drows = list(diff_rows(30))
        for c in range(1, 31):
            for t in range(c, 31):
                assert sum(drows[r][c] for r in range(c, t + 1)) == crows[t][c]

    def test_partial_telescoping(self):
        # sum_{r=s}^{t} D[r][c] == C[t][c] - C[s-1][c]
        crows = list(coeff_rows(30))
        drows = list(diff_rows(30))

        def centry(i, j):
            return crows[i][j] if j <= i else 0

        for c in range(1, 31):
            for s in range(c, 31):
                for t in range(s, 31):
                    total = sum(drows[r][c] for r in range(s, t + 1))
                    assert total == centry(t, c) - centry(s - 1, c)
