"""Stride decimation of recurrences via exact companion-matrix powers.

Passing from a sequence to its stride-s subsequence replaces the
companion matrix of its characteristic polynomial by the s-th power, so
the decimated charpoly is char_poly(companion**s).  Everything here is
exact: matrix powers over Python ints, and the characteristic polynomial
by fraction-free (Bareiss) elimination over the ring of integer
polynomials, where every division step is exact by construction.

This route never touches the coefficient triangles, which makes it an
independent oracle for the stride identities, and it works for any monic
integer recurrence (Pell, Jacobsthal, ...), not just the all-ones family.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .errors import NotMonic
from .intpoly import IntPoly


@dataclass(init=False, frozen=True)
class IntMatrix:
    """Square matrix of Python ints."""

    entries: tuple[tuple[int, ...], ...]

    def __init__(self, entries: Iterable[Iterable[int]]):
        rows = tuple(tuple(row) for row in entries)
        if not rows:
            raise ValueError("matrix must be nonempty")
        if any(len(row) != len(rows) for row in rows):
            raise ValueError("matrix must be square")
        object.__setattr__(self, "entries", rows)

    @property
    def n(self) -> int:
        return len(self.entries)

    @classmethod
    def identity(cls, n: int) -> IntMatrix:
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    def __matmul__(self, other: IntMatrix) -> IntMatrix:
        if not isinstance(other, IntMatrix):
            return NotImplemented
        if self.n != other.n:
            raise ValueError("dimension mismatch")
        cols = list(zip(*other.entries))
        return IntMatrix(
            [
                [sum(a * b for a, b in zip(row, col)) for col in cols]
                for row in self.entries
            ]
        )

    def __add__(self, other: IntMatrix) -> IntMatrix:
        if not isinstance(other, IntMatrix):
            return NotImplemented
        if self.n != other.n:
            raise ValueError("dimension mismatch")
        return IntMatrix(
            [
                [a + b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.entries, other.entries)
            ]
        )

    def __mul__(self, scalar: int) -> IntMatrix:
        if not isinstance(scalar, int):
            return NotImplemented
        return IntMatrix([[scalar * a for a in row] for row in self.entries])

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return all(a == 0 for row in self.entries for a in row)


def companion_matrix(charpoly: IntPoly) -> IntMatrix:
    """Companion matrix of a monic polynomial, recurrence coefficients in
    the first row and ones on the subdiagonal."""
    coefficients = recurrence_coefficients(charpoly)
    n = len(coefficients)
    rows = [list(coefficients)]
    for i in range(1, n):
        rows.append([1 if j == i - 1 else 0 for j in range(n)])
    return IntMatrix(rows)


def recurrence_coefficients(charpoly: IntPoly) -> list[int]:
    """[c_1..c_n] such that charpoly == X**n - sum c_i X**(n-i)."""
    if charpoly.is_zero() or not charpoly.is_monic or charpoly.degree < 1:
        raise NotMonic("need a monic polynomial of degree >= 1")
    n = charpoly.degree
    return [-charpoly.coeff(n - i) for i in range(1, n + 1)]


def matrix_power(m: IntMatrix, e: int) -> IntMatrix:
    """Exact e-th power by repeated squaring, e >= 1."""
    if e < 1:
        raise ValueError(f"exponent must be >= 1, got {e}")
    result = m
    for bit in bin(e)[3:]:  # the bits of e after its leading 1
        result = result @ result
        if bit == "1":
            result = result @ m
    return result


def char_poly(m: IntMatrix) -> IntPoly:
    """det(X*I - m) by fraction-free elimination over integer polynomials.

    Each Bareiss update divides by the previous pivot; the division is
    exact as a determinant identity, so the computation never leaves
    Z[X].  Pivot r is the leading (r+1) x (r+1) principal minor of
    X*I - m, a monic polynomial of degree r+1, so no pivot is ever zero.
    """
    n = m.n
    a = [
        [IntPoly((-v, 1) if i == j else (-v,)) for j, v in enumerate(row)]
        for i, row in enumerate(m.entries)
    ]
    prev = IntPoly.one()
    for r in range(n - 1):
        for i in range(r + 1, n):
            for j in range(r + 1, n):
                numerator = a[i][j] * a[r][r] - a[i][r] * a[r][j]
                quotient, residue = divmod(numerator, prev)
                if not residue.is_zero():
                    raise ArithmeticError(f"inexact Bareiss step r={r}, i={i}, j={j}")
                a[i][j] = quotient
        prev = a[r][r]
    return a[n - 1][n - 1]


def decimated_charpoly(charpoly: IntPoly, stride: int) -> IntPoly:
    """Characteristic polynomial of the stride-s subsequence of any
    sequence whose charpoly is the given monic polynomial."""
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    return char_poly(matrix_power(companion_matrix(charpoly), stride))
