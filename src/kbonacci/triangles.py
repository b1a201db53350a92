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

Both triangles are made by one row generator that keeps only the previous
row.  A certificate reads column slices of C, so it makes the table once,
as its columns list(zip_longest(*coeff_rows(k), fillvalue=0)), in which
every entry right of the diagonal reads 0; the CLI writes rows as they
come, and the identity coefficients need only the last row.  From row 2 on D
obeys C's recursion too, so diff_rows makes it from its own two seed rows
without a row of C.

Both triangles also have closed forms that do not use the recursion
(binomial expansions of shifted powers).  They are reference oracles and
live in the tests, not here.
"""

from __future__ import annotations

from _collections_abc import Iterator
from itertools import accumulate, chain, islice, repeat

from .errors import NegativeRow


def _grow(seeds: list[list[int]], n: int) -> Iterator[list[int]]:
    """Rows 0..n, one at a time, from the seed rows; each later row is
    T[i][j] = 2*T[i-1][j] - T[i-1][j-1], T[i-1][i] read as 0, with column 0
    fixed at its seed value.  Only the previous row is kept.  A negative n
    raises NegativeRow here, before any row is made."""
    if n < 0:
        raise NegativeRow(f"row {n} is negative")

    def step(prev: list[int], _: None) -> list[int]:
        return [prev[0]] + [a + a - b for a, b in zip(prev[1:] + [0], prev)]

    later = accumulate(repeat(None), step, initial=seeds[-1])
    return islice(chain(seeds[:-1], later), n + 1)


def coeff_rows(n: int) -> Iterator[list[int]]:
    """Rows 0..n of the coefficient triangle; row i has i+1 entries."""
    return _grow([[-1]], n)


def diff_rows(n: int) -> Iterator[list[int]]:
    """Rows 0..n of the difference triangle, by its own recursion: D obeys
    C's rule from row 2 on, with column 0 fixed at 0 and D[0] = [0],
    D[1] = [0, 1] as seeds, so no row of C is built."""
    return _grow([[0], [0, 1]], n)
