"""Divisibility certificates for the stride-k self-similarity identities.

The fact being certified: for every k >= 2, row k of the coefficient
triangle gives an identity F(n) = sum_i C[k][i] * F(n - k*i) satisfied by
every sequence obeying the order-k all-ones recurrence; one Identity
record holds its base, stride, coefficients and charpoly.  An identity
holds for a sequence exactly when the identity's characteristic
polynomial is divisible by the characteristic polynomial of the
recurrence generating it, so the whole proof reduces to one polynomial
fact:

    charpoly(X**stride) == base * quotient_poly(columns)

with the quotient written down explicitly, in integer coefficients, from
triangle entries.  A polynomial is a tuple of ints in ascending exponent
order, normalized: its last entry is the leading coefficient, nonzero,
and the zero polynomial is ().  This module certifies that fact three
independent ways:

* division of (X-1) times the composed polynomial by the trinomial
  (X-1) * base = X**(k+1) - 2*X**k + 1, read from the base polynomial's
  coefficients, as a three-term recurrence on plain int lists: it must
  return the explicit quotient and leave remainder 0,
* the product (-base) * quotient, whose coefficient at X**c is the
  window sum q[c] + ... + q[c-k+1] - q[c-k] of the quotient's
  coefficients, slid along the quotient once; it must reproduce the
  negated composed polynomial coefficient by coefficient,
* a case analysis of the product matrix, whose row r (r < k) is the
  quotient shifted right by r and whose row k is the negated quotient
  shifted by k, so that its column sums are those window sums.

The matrix columns fall into five families A-E, each with its own
closed-form column sum (a triangle recursion step, a telescoping
difference, a power-of-two identity, or four groups that cancel down to
one recursion step less the entry it makes).
Writing a column as c = j*k + m with 0 <= m < k, the families come in
runs inside each block j, so case_analysis walks the blocks once and
gives every column its label and the sum its family's closed form
predicts, rather than adding the column.  column_sums slides the window
along the quotient, and failed_columns names, per family, the columns
where the closed form, the column sum and the target differ.  One
Certificate holds the result of all three routes.  Every step costs
O(k**2) time and memory: no matrix cell is kept, and the CLI makes a row
only when it prints it.

Functions that read triangle entries take the column table
columns = list(zip_longest(*coeff_rows(k), fillvalue=0)), in which
columns[j][i] = C[i][j] and every entry right of the diagonal reads 0, as
the triangle's definition has it; they work out k as len(columns) - 1, so
each certificate builds the table once.
"""

from __future__ import annotations

from itertools import accumulate, islice, zip_longest
from operator import neg, sub
from types import SimpleNamespace

from .errors import OrderTooSmall
from .triangles import coeff_rows

CASE_LABELS = ("A", "B", "C", "D", "E")


def _require_order(k: int) -> None:
    if k < 2:
        raise OrderTooSmall(f"order {k} is below 2")


class Identity(SimpleNamespace):
    """F(n) = sum_i C[k][i] * F(n - stride*i), a record built by keyword in
    _row_identity that compares by value: the order k, the recurrence's
    charpoly base = X**k - X**(k-1) - ... - 1, stride k, coefficients
    C[k][1..k] and charpoly X**k - sum_i C[k][i] * X**(k-i), the charpoly of
    every stride-k subsequence; charpoly(X**stride) is the identity's own."""


def _row_identity(row: list[int]) -> Identity:
    """The Identity read from triangle row k, C[k][0..k]."""
    k, coefficients = len(row) - 1, row[1:]
    charpoly = (*map(neg, reversed(coefficients)), 1)
    base = (-1,) * k + (1,)
    return Identity(k=k, base=base, stride=k, coefficients=coefficients, charpoly=charpoly)


def kstep_identity(k: int) -> Identity:
    """The Identity of order k, read from the last triangle row; the rows
    above it are dropped as they are passed."""
    _require_order(k)
    for row in coeff_rows(k):
        pass
    return _row_identity(row)


def quotient_poly(columns: list[tuple[int, ...]]) -> tuple[int, ...]:
    """The explicit quotient charpoly(X**k) / base of the order-k Identity,
    read from the column table columns[j][i] = C[i][j] of certify_divisibility.

    Degree k*(k-1).  Assembled directly from triangle entries: a leading
    X**(k*(k-1)) plus, for each block j in 0..k-2, a coefficient-triangle
    term at X**(k*j) and difference-triangle terms just above it.  Block j
    comes from one column slice, C[k-1..col-1][col] with col = k-1-j, and its
    successive differences D[k-1][col] .. D[col][col]; the slice's last
    entry lies right of the diagonal and reads 0.  Its integrality in Z[X]
    is the crux of the certificate.
    """
    k = len(columns) - 1
    _require_order(k)
    coeffs: list[int] = []
    for col in range(k - 1, 0, -1):
        column = columns[col][col - 1 : k][::-1]  # C[k-1..col-1][col]
        coeffs += [-column[0], *map(sub, column, column[1:])] + [0] * (col - 1)
    coeffs.append(1)
    return tuple(coeffs)


def column_sums(quotient: tuple[int, ...], k: int) -> tuple[int, ...]:
    """Column sums of the product matrix of (-base) * quotient, base of
    degree k.

    Row r (0 <= r <= k-1) of the matrix holds the ascending coefficients of
    X**r * quotient and row k those of -X**k * quotient, so its k*k + 1
    columns tabulate (-base) * quotient.  Column c sums to
    q[c] + ... + q[c-k+1] - q[c-k]: one window of k coefficients slid
    along q, O(k**2) in all.
    """
    width = k * k + 1
    q = quotient + (0,) * (width - len(quotient))
    leaving = (0,) * k + q[: width - k]  # q[c-k], which leaves the window at c
    window = accumulate(map(sub, q, leaving))  # q[c-k+1] + ... + q[c]
    return tuple(map(sub, window, leaving))


def case_analysis(columns: list[tuple[int, ...]]) -> tuple[str, tuple[int, ...]]:
    """The case label A-E of every product-matrix column, and its sum as the
    case argument predicts it, not by adding the column; entries are read
    from the column table columns[j][i] = C[i][j] of certify_divisibility,
    one block of k columns at a time.

    Writing c = j*k + m with 0 <= m < k: block 0 is A at column 0, then B;
    block j (1 <= j <= k-2) is C at its multiple of k, E for 1 <= m <= j,
    then B; the last block (j = k-1) is all D, and column k*k is A again.
    Total and mutually exclusive.
    """
    k = len(columns) - 1
    _require_order(k)
    # A: column 0 holds only the quotient's constant term, C[k][k].  B: the
    # head term -C[k-1][k-1-j] and the difference column below it, which
    # telescopes to C[k-1][k-1-j], cancel exactly
    cases = ["A" + "B" * (k - 1)]
    sums = [columns[k][k]] + [0] * (k - 1)
    for j in range(1, k - 1):
        col = k - j
        here, left = columns[col], columns[col - 1]
        cases.append("C" + "E" * j + "B" * (k - 1 - j))
        # C: one triangle recursion step, equal to C[k][col]
        sums.append(2 * here[k - 1] - left[k - 1])
        # E, m = 1..j, with i = k-m-1: four groups cancel, the lone term
        # -C[k-1][col-1], the difference entry -D[k-m][col] from the previous
        # block, this block's row-0 differences C[k-1][col-1] - C[i][col-1]
        # and the previous block's C[i][col].  Together they are one recursion
        # step less the entry it makes, 2*C[i][col] - C[i][col-1] - C[i+1][col];
        # at m = j, C[col-1][col] lies right of the diagonal and reads 0
        steps = zip(
            here[k - 2 : col - 2 : -1],  # C[i][col] for i = k-2 .. col-1
            left[k - 2 : col - 2 : -1],  # C[i][col-1]
            here[k - 1 : col - 1 : -1],  # C[i+1][col]
        )
        sums += [2 * entry - beside - made for entry, beside, made in steps]
        sums += [0] * (k - 1 - j)  # the block's B run
    # D: geometric sums of powers of two, 1 + 2*(2**(k-1) - 1) in the
    # block's first column and 1 + (2**(k-1-m) - 1) - 2**(k-1-m) after it.
    # A: column k*k holds only the negated leading term
    cases.append("D" * k + "A")
    return "".join(cases), tuple(sums + [2**k - 1] + [0] * (k - 1) + [-1])


def failed_columns(
    cases: str,
    expected: tuple[int, ...],
    sums: tuple[int, ...],
    target: tuple[int, ...],
) -> dict[str, tuple[int, ...]]:
    """The columns of each case family whose closed form (expected), column
    sum and target, the coefficients of -charpoly(X**stride), are not
    all equal.  The three lists are compared whole, and the columns walked
    only to name the ones that fail; a target of another width fails the
    comparison and raises ValueError in the walk.
    """
    failed: dict[str, list[int]] = {label: [] for label in CASE_LABELS}
    if not expected == sums == target:
        columns = enumerate(zip(expected, sums, target, strict=True))
        for c, (closed_form, actual, want) in columns:
            if not closed_form == actual == want:
                failed[cases[c]].append(c)
    return {label: tuple(found) for label, found in failed.items()}


def trinomial_divmod(
    numerator: list[int], trinomial: list[int]
) -> tuple[list[int], list[int]]:
    """Quotient and remainder, as ascending coefficients, of numerator by the
    monic trinomial X**d + a*X**(d-1) + c given as ascending coefficients,
    of which only a and c are read; numerator has degree d or more.

    The coefficient at X**(p+d) of quotient * trinomial is
    q[p] + a*q[p+1] + c*q[p+d], so the quotient comes top-down in one loop,
    q[p] = n[p+d] - a*q[p+1] - c*q[p+d], and the remainder from the d
    lowest coefficients of the numerator; the numerator is not changed.
    """
    d = len(trinomial) - 1
    a, c = trinomial[d - 1], trinomial[0]
    # q from the top down, after d zeros standing for q[p] past the top;
    # the iterator over the list reads q[p+d], d places behind the append
    quotient = [0] * d
    append = quotient.append
    step = 0
    heads = islice(reversed(numerator), len(numerator) - d)  # n[top] .. n[d]
    for head, far in zip(heads, quotient):
        step = head - a * step - c * far
        append(step)
    quotient.reverse()
    remainder = [n - c * q for n, q in zip(numerator[:d], quotient)]
    remainder[d - 1] -= a * quotient[0]
    del quotient[-d:]
    return quotient, remainder


class Certificate(SimpleNamespace):
    """Everything checked while certifying one order k; a record whose
    fields are set by keyword where certify_divisibility builds it, and
    which compares by value.

    identity is the order-k Identity, read from the certificate's own
    table; the composed polynomial charpoly(X**stride) is not kept.
    quotient and remainder are normalized tuples of ascending coefficients,
    as every polynomial here is.  division_matches: (X-1) * base is a
    trinomial X**d + a*X**(d-1) + c, and dividing (X-1) * composed by it,
    as the three-term recurrence of trinomial_divmod, left remainder 0 and
    returned the explicit quotient; remainder is the remainder by base,
    that division's remainder divided by X-1, so () when it passes.
    product_matches: column_sums, the window sums of the quotient and so
    the coefficients of (-base) * quotient, equal -composed.
    column_cases holds each column's case label and failed_columns, per
    label, the columns whose closed form, sum and target differ;
    matrix_verified: there are none.  Double-entry on purpose: a bug in
    either the product or the division cannot slip through both.
    """

    @property
    def matrix_verified(self) -> bool:
        return not any(self.failed_columns.values())

    @property
    def ok(self) -> bool:
        return self.division_matches and self.product_matches and self.matrix_verified


def certify_divisibility(k: int) -> Certificate:
    """Run the full certificate for one order; failures are recorded in
    the result, not raised.  The triangle is built once, as the column
    table columns = list(zip_longest(*coeff_rows(k), fillvalue=0)), so
    columns[j][i] = C[i][j] and every entry right of the diagonal reads 0,
    and every later step, row k's Identity included, reads from it.
    """
    _require_order(k)
    columns = list(zip_longest(*coeff_rows(k), fillvalue=0))
    identity = _row_identity([column[k] for column in columns])
    base, stride, charpoly = identity.base, identity.stride, identity.charpoly
    trinomial = list(map(sub, (0, *base), (*base, 0)))  # (X-1) * base
    width = (len(charpoly) - 1) * stride + 1
    # (X-1) * composed = X * composed - composed: the two never share an
    # exponent, since the stride is 2 or more
    numerator = [0] * (width + 1)
    numerator[1::stride] = charpoly
    numerator[::stride] = map(neg, charpoly)
    division_quotient, scaled_remainder = trinomial_divmod(numerator, trinomial)
    del numerator  # k*k + 2 entries that no later step reads
    # -(r[0] + ... + r[i]) at X**i: the scaled remainder over X-1, less the
    # zeros at its top, as a normalized polynomial ends
    remainder = list(map(neg, accumulate(scaled_remainder[:-1])))
    while remainder and not remainder[-1]:
        remainder.pop()
    quotient = quotient_poly(columns)
    sums = column_sums(quotient, k)
    cases, expected = case_analysis(columns)
    target = [0] * width
    target[::stride] = map(neg, charpoly)
    target = tuple(target)
    return Certificate(
        identity=identity,
        quotient=quotient,
        remainder=tuple(remainder),
        division_matches=not any(trinomial[1:-2])
        and not any(scaled_remainder)
        and tuple(division_quotient) == quotient,
        product_matches=sums == target,
        column_cases=cases,
        column_sums=sums,
        failed_columns=failed_columns(cases, expected, sums, target),
    )
