"""Divisibility certificates for the stride-k self-similarity identities.

The fact being certified: for every k >= 2, row k of the coefficient
triangle gives an identity F(n) = sum_i C[k][i] * F(n - k*i) satisfied by
every sequence obeying the order-k all-ones recurrence.  An identity holds
for a sequence exactly when the identity's characteristic polynomial is
divisible by the characteristic polynomial of the recurrence generating
it, so the whole proof reduces to one polynomial fact:

    stride_charpoly(k)(X**k) == base_charpoly(k) * quotient_poly(k)

with the quotient written down explicitly, in integer coefficients, from
triangle entries.  This module certifies that fact three independent
ways:

* long division of (X-1) times the composed polynomial by the trinomial
  (X-1) * base = X**(k+1) - 2*X**k + 1, which must return the explicit
  quotient and leave remainder 0,
* the product (-base) * quotient, whose coefficient at X**c is the
  window sum q[c] + ... + q[c-k+1] - q[c-k] of the quotient's
  coefficients, slid along the quotient once; it must reproduce the
  negated composed polynomial coefficient by coefficient,
* a case analysis of the product matrix, whose row r (r < k) is the
  quotient shifted right by r and whose row k is the negated quotient
  shifted by k, so that its column sums are those window sums.

The matrix columns fall into five families A-E, each with its own
closed-form column sum (a triangle recursion step, a telescoping
difference, a power-of-two identity, or a four-group cancellation);
verify_case_sums recomputes every column's sum from the closed form of
its family rather than by adding the column; it reads the family from
the matrix's case row, so each column is classified once.  Every step
costs O(k**2) time and memory: the matrix keeps no cells, and makes a
row only when it is printed.

Functions that read triangle entries take the table rows = coeff_rows(k)
and work out k as len(rows) - 1, so each certificate builds it once.
"""

from __future__ import annotations

from typing import Iterable

from .errors import ColumnOutOfRange, EmptyCoefficients, NotAnEColumn, OrderTooSmall
from .intpoly import IntPoly
from .triangles import coeff_entry, coeff_row, coeff_rows, diff_entry

CASE_LABELS = ("A", "B", "C", "D", "E")


def _require_order(k: int) -> None:
    if k < 2:
        raise OrderTooSmall(f"order {k} is below 2")


def base_charpoly(k: int) -> IntPoly:
    """X**k - X**(k-1) - ... - X - 1, the charpoly of the k-step recurrence."""
    _require_order(k)
    return IntPoly([-1] * k + [1])


def identity_coefficients(k: int) -> list[int]:
    """[C[k][1], ..., C[k][k]]: the stride-k identity coefficients."""
    _require_order(k)
    return coeff_row(k)[1:]


def identity_charpoly(coefficients: Iterable[int]) -> IntPoly:
    """Characteristic polynomial X**n - sum c_i X**(n-i) of an identity."""
    coefficients = list(coefficients)
    if not coefficients:
        raise EmptyCoefficients("an identity needs at least one coefficient")
    n = len(coefficients)
    asc = [0] * (n + 1)
    asc[n] = 1
    for i, c in enumerate(coefficients, start=1):
        asc[n - i] = -c
    return IntPoly(asc)


def stride_charpoly(k: int) -> IntPoly:
    """Charpoly of the stride-k subsequence, built from triangle row k.

    Composing with X**k turns it into the charpoly of the full stride-k
    identity on the original sequence.
    """
    return identity_charpoly(identity_coefficients(k))


def quotient_poly(rows: list[list[int]]) -> IntPoly:
    """The explicit quotient stride_charpoly(k)(X**k) / base_charpoly(k),
    read from rows = coeff_rows(k).

    Degree k*(k-1).  Assembled directly from triangle entries: a leading
    X**(k*(k-1)) plus, for each block j in 0..k-2, a coefficient-triangle
    term at X**(k*j) and difference-triangle terms just above it.  Its
    integrality in Z[X] is the crux of the certificate.
    """
    k = len(rows) - 1
    _require_order(k)
    n = k * (k - 1)
    coeffs = [0] * (n + 1)
    coeffs[n] = 1
    for j in range(k - 1):
        col = k - 1 - j
        coeffs[k * j] += -rows[k - 1][col]
        for i in range(col, k):
            coeffs[k * j + (k - i)] += diff_entry(rows, i, col)
    return IntPoly(coeffs)


def classify_column(k: int, c: int) -> str:
    """Case label A-E for column c of the product matrix.

    Writing c = j*k + m with 0 <= m < k: A for the two end columns, D for
    the last block (j = k-1), C for interior multiples of k, E for
    1 <= m <= j, and B for the rest.  Total and mutually exclusive.
    """
    _require_order(k)
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


class ProductMatrix:
    """Long-hand multiplication of the negated base poly by the quotient.

    Row r (0 <= r <= k-1) holds the ascending coefficients of
    X**r * quotient; row k holds those of -X**k * quotient.  Column sums
    therefore tabulate (-base) * quotient and must reproduce
    -stride_charpoly(X**k) column by column.  Only the quotient, the
    column cases and the column sums are stored; row(r) makes a row's
    cells when they are asked for.
    """

    __slots__ = ("k", "quotient", "column_cases", "column_sums")

    def __init__(
        self,
        k: int,
        quotient: IntPoly,
        column_cases: tuple[str, ...],
        column_sums: tuple[int, ...],
    ):
        self.k = k
        self.quotient = quotient
        self.column_cases = column_cases
        self.column_sums = column_sums

    @property
    def width(self) -> int:
        return self.k * self.k + 1

    @property
    def row_labels(self) -> tuple[str, ...]:
        return tuple(f"X^{r}" for r in range(self.k)) + (f"-X^{self.k}",)

    def row(self, r: int) -> tuple[int, ...]:
        """Cells of row r: the quotient shifted right by r, negated in row k."""
        poly = -self.quotient if r == self.k else self.quotient
        cells = (0,) * r + poly.coeffs
        return cells + (0,) * (self.width - len(cells))

    @property
    def rows(self) -> tuple[tuple[int, ...], ...]:
        return tuple(self.row(r) for r in range(self.k + 1))


def build_matrix(rows: list[list[int]]) -> ProductMatrix:
    """Product matrix of (-base_charpoly(k)) * quotient_poly(rows), read
    from rows = coeff_rows(k).

    Rows 0..k-1 each add one shifted copy of the quotient q and row k
    subtracts X**k * q, so column c sums to q[c] + ... + q[c-k+1] - q[c-k]:
    one window of k coefficients slid along q, O(k**2) in all.
    """
    k = len(rows) - 1
    quotient = quotient_poly(rows)
    width = k * k + 1
    q = list(quotient.coeffs)
    q += [0] * (width - len(q))
    sums = []
    window = 0  # q[c-k+1] + ... + q[c]
    for c in range(width):
        leaving = q[c - k] if c >= k else 0
        window += q[c] - leaving
        sums.append(window - leaving)
    cases = tuple(classify_column(k, c) for c in range(width))
    return ProductMatrix(k, quotient, cases, tuple(sums))


def case_e_group_sums(rows: list[list[int]], c: int) -> tuple[int, int, int, int]:
    """The four group sums whose cancellation settles E column c, read
    from rows = coeff_rows(k).

    In order: the lone coefficient-triangle term descending from the
    block's multiple-of-k column; the negated difference entry descending
    from the previous block; the row-0 difference entries of this block,
    telescoped; and the difference entries descending from the previous
    block's row 0, telescoped (empty when m = j).  The four add to zero.
    """
    k = len(rows) - 1
    if classify_column(k, c) != "E":
        raise NotAnEColumn(f"column {c} of order {k} is not an E column")
    return _e_group_sums(rows, c)


def _e_group_sums(rows: list[list[int]], c: int) -> tuple[int, int, int, int]:
    k = len(rows) - 1
    j, m = divmod(c, k)
    lead = -coeff_entry(rows, k - 1, k - 1 - j)
    crossing = -diff_entry(rows, k - m, k - j)
    block = coeff_entry(rows, k - 1, k - j - 1) - coeff_entry(rows, k - m - 1, k - j - 1)
    tail = coeff_entry(rows, k - m - 1, k - j)
    return (lead, crossing, block, tail)


def expected_column_sum(rows: list[list[int]], c: int) -> int:
    """Column sum predicted by the column's case argument, not by adding
    the column; entries are read from rows = coeff_rows(k)."""
    return _case_sum(rows, classify_column(len(rows) - 1, c), c)


def _case_sum(rows: list[list[int]], label: str, c: int) -> int:
    """expected_column_sum for column c, whose case label is given."""
    k = len(rows) - 1
    if label == "A":
        # column 0 holds only the quotient's constant term; column k*k
        # only the negated leading term
        return coeff_entry(rows, k, k) if c == 0 else -1
    j, m = divmod(c, k)
    if label == "B":
        # the head term -C[k-1][k-1-j] and the difference column below it,
        # which telescopes to C[k-1][k-1-j], cancel exactly
        return 0
    if label == "C":
        # one triangle recursion step: equals C[k][k-j]
        return 2 * coeff_entry(rows, k - 1, k - j) - coeff_entry(rows, k - 1, k - j - 1)
    if label == "D":
        # geometric sums of powers of two: 1 + 2*(2**(k-1) - 1) in the
        # block's first column, 1 + (2**(k-1-m) - 1) - 2**(k-1-m) after it
        return 2**k - 1 if m == 0 else 0
    return sum(_e_group_sums(rows, c))


class CaseTally:
    """Pass/fail counts for one column family."""

    __slots__ = ("passed", "failed", "failed_columns")

    def __init__(self, passed: int, failed: int, failed_columns: tuple[int, ...] = ()):
        self.passed = passed
        self.failed = failed
        self.failed_columns = failed_columns

    @property
    def total(self) -> int:
        return self.passed + self.failed


def verify_case_sums(
    rows: list[list[int]], matrix: ProductMatrix, composed: IntPoly
) -> dict[str, CaseTally]:
    """Check every column of matrix three ways: case closed form (read from
    rows = coeff_rows(k)) == actual column sum == matching coefficient of
    -composed, where composed is stride_charpoly(k)(X**k)."""
    k = len(rows) - 1
    passed = {label: 0 for label in CASE_LABELS}
    failed: dict[str, list[int]] = {label: [] for label in CASE_LABELS}
    for c in range(k * k + 1):
        label = matrix.column_cases[c]
        expected = _case_sum(rows, label, c)
        if expected == matrix.column_sums[c] == -composed.coeff(c):
            passed[label] += 1
        else:
            failed[label].append(c)
    return {
        label: CaseTally(passed[label], len(failed[label]), tuple(failed[label]))
        for label in CASE_LABELS
    }


class Certificate:
    """Everything checked while certifying one order k.

    division_matches: long division of stride_charpoly(X**k) by the base
    polynomial (through the trinomial (X-1) * base) left remainder 0 and
    returned the explicit quotient.  product_matches: the window sums of
    the quotient, which are the coefficients of (-base) * quotient, equal
    -stride_charpoly(X**k).  matrix_verified: every column of matrix
    passed its case check.  Double-entry on purpose: a bug in either the
    product or the division cannot slip through both.
    """

    __slots__ = (
        "k",
        "base_poly",
        "stride_poly",
        "quotient",
        "remainder",
        "division_matches",
        "product_matches",
        "matrix_verified",
        "case_tallies",
        "matrix",
    )

    def __init__(
        self,
        k: int,
        base_poly: IntPoly,
        stride_poly: IntPoly,
        quotient: IntPoly,
        remainder: IntPoly,
        division_matches: bool,
        product_matches: bool,
        matrix_verified: bool,
        case_tallies: dict[str, CaseTally],
        matrix: ProductMatrix,
    ):
        self.k = k
        self.base_poly = base_poly
        self.stride_poly = stride_poly
        self.quotient = quotient
        self.remainder = remainder
        self.division_matches = division_matches
        self.product_matches = product_matches
        self.matrix_verified = matrix_verified
        self.case_tallies = case_tallies
        self.matrix = matrix

    @property
    def ok(self) -> bool:
        return self.division_matches and self.product_matches and self.matrix_verified


def certify_divisibility(k: int) -> Certificate:
    """Run the full certificate for one order; failures are recorded in
    the result, not raised.  The triangle is built once, as coeff_rows(k),
    and every later step reads from that table.

    Long division goes through the trinomial (X-1) * base =
    X**(k+1) - 2*X**k + 1: dividing (X-1) * composed by it gives the same
    quotient as dividing composed by base and (X-1) times the remainder,
    which X-1 then divides exactly.  Each step of the long division
    touches three divisor terms instead of k+1.
    """
    base = base_charpoly(k)
    rows = coeff_rows(k)
    stride = identity_charpoly(rows[k][1:])
    composed = stride.compose_power(k)
    x_minus_one = IntPoly((-1, 1))
    division_quotient, scaled_remainder = divmod(
        composed * x_minus_one, base * x_minus_one
    )
    matrix = build_matrix(rows)
    tallies = verify_case_sums(rows, matrix, composed)
    return Certificate(
        k=k,
        base_poly=base,
        stride_poly=stride,
        quotient=matrix.quotient,
        remainder=scaled_remainder // x_minus_one,
        division_matches=scaled_remainder.is_zero()
        and division_quotient == matrix.quotient,
        product_matches=IntPoly(matrix.column_sums) == -composed,
        matrix_verified=all(t.failed == 0 for t in tallies.values()),
        case_tallies=tallies,
        matrix=matrix,
    )
