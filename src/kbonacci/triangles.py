"""The two recursive coefficient triangles behind the stride identities.

The *coefficient triangle* C starts from C[0][0] = -1 with column 0 fixed
at -1, and fills the rest by

    C[i][j] = 2*C[i-1][j] - C[i-1][j-1]      (1 <= j <= i),

reading entries right of the diagonal as 0.  The column-0 values are
initial conditions: the recursion only applies for j >= 1.  Row k of C
lists the coefficients of the stride-k self-similarity identity satisfied
by every k-step Fibonacci-like sequence,

    F(n) = sum_{i=1..k} C[k][i] * F(n - k*i).

The *difference triangle* D is the column-wise backward difference
D[i][j] = C[i][j] - C[i-1][j] (row 0 is all zeros).  Its entries assemble
the explicit quotient polynomial used by the divisibility certificate in
`prover`.

Callers build the rows of C once with coeff_rows and read whole rows or
column slices of that table; D is the successive differences down a column.

Both triangles also have closed forms that do not use the recursion
(binomial expansions of shifted powers).  They are reference oracles and
live in the tests, not here.
"""

from __future__ import annotations

from .errors import NegativeRow


def coeff_rows(n: int) -> list[list[int]]:
    """Rows 0..n of the coefficient triangle; row i has i+1 entries."""
    if n < 0:
        raise NegativeRow(f"row {n} is negative")
    rows = [[-1]]
    for _ in range(n):
        prev = rows[-1]
        # C[i][j] = 2*C[i-1][j] - C[i-1][j-1], with C[i-1][i] read as 0
        rows.append([-1] + [2 * a - b for a, b in zip(prev[1:] + [0], prev)])
    return rows


def coeff_row(n: int) -> list[int]:
    """Row n of the coefficient triangle."""
    return coeff_rows(n)[n]


def diff_rows(n: int) -> list[list[int]]:
    """Rows 0..n of the difference triangle."""
    base = coeff_rows(n)
    return [[0]] + [
        [c - above for c, above in zip(cur, prev + [0])]
        for prev, cur in zip(base, base[1:])
    ]


def diff_row(n: int) -> list[int]:
    """Row n of the difference triangle."""
    return diff_rows(n)[n]
