"""Unit tests for stride decimation by power sums.

The earlier implementation computed the decimated polynomial as the
characteristic polynomial of a companion-matrix power, by fraction-free
(Bareiss) elimination.  That code is kept below as a reference oracle
that shares nothing with the power-sum route; the IntMatrix, companion,
matrix-power, charpoly and Cayley-Hamilton tests keep the oracle itself
honest.
"""

from __future__ import annotations

import tracemalloc
from dataclasses import dataclass
from operator import mul
from typing import Iterable

import pytest
from hypothesis import given, strategies as st

from kbonacci import decimation
from kbonacci.decimation import decimated_charpoly, recurrence_coefficients
from kbonacci.errors import BadStride, InexactNewtonStep, NotMonic
from kbonacci.prover import kstep_identity
from kbonacci.sequences import LinearRecurrence, check_identity
from polyref import RefPoly

from test_sequences import run_coefficients

# --- reference oracle: Bareiss elimination over companion-matrix powers ------


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


def companion_matrix(charpoly: tuple[int, ...]) -> IntMatrix:
    """Companion matrix of a monic polynomial, recurrence coefficients in
    the first row and ones on the subdiagonal: X**n = sum c_i X**(n-i)
    makes c_i = -charpoly[n-i]."""
    n = len(charpoly) - 1
    rows = [[-charpoly[n - i] for i in range(1, n + 1)]]
    for i in range(1, n):
        rows.append([1 if j == i - 1 else 0 for j in range(n)])
    return IntMatrix(rows)


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


def char_poly(m: IntMatrix) -> tuple[int, ...]:
    """det(X*I - m) by fraction-free elimination over integer polynomials.

    Each Bareiss update divides by the previous pivot; the division is
    exact as a determinant identity, so the computation never leaves
    Z[X].  Pivot r is the leading (r+1) x (r+1) principal minor of
    X*I - m, a monic polynomial of degree r+1, so no pivot is ever zero.
    """
    n = m.n
    a = [
        [RefPoly((-v, 1) if i == j else (-v,)) for j, v in enumerate(row)]
        for i, row in enumerate(m.entries)
    ]
    prev = RefPoly((1,))
    for r in range(n - 1):
        for i in range(r + 1, n):
            for j in range(r + 1, n):
                numerator = a[i][j] * a[r][r] - a[i][r] * a[r][j]
                quotient, residue = divmod(numerator, prev)
                if residue:
                    raise ArithmeticError(f"inexact Bareiss step r={r}, i={i}, j={j}")
                a[i][j] = quotient
        prev = a[r][r]
    return a[n - 1][n - 1].coeffs


def bareiss_decimated_charpoly(charpoly: tuple[int, ...], stride: int) -> tuple[int, ...]:
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    return char_poly(matrix_power(companion_matrix(charpoly), stride))


# --- tests of the oracle ------------------------------------------------------


class TestIntMatrix:
    def test_must_be_square(self):
        with pytest.raises(ValueError):
            IntMatrix([[1, 2]])
        with pytest.raises(ValueError):
            IntMatrix([])

    def test_identity_multiplication(self):
        m = IntMatrix([[3, 1], [2, -4]])
        assert m @ IntMatrix.identity(2) == m
        assert IntMatrix.identity(2) @ m == m

    def test_addition_and_scaling(self):
        m = IntMatrix([[1, 2], [3, 4]])
        assert m + m == 2 * m
        assert (m + (-1) * m).is_zero()


class TestCompanion:
    def test_order_two(self):
        assert companion_matrix((-1, -1, 1)).entries == ((1, 1), (1, 0))

    def test_order_one(self):
        assert companion_matrix((-7, 1)).entries == ((7,),)

    def test_order_three(self):
        assert companion_matrix((-1, -1, -1, 1)).entries == (
            (1, 1, 1),
            (1, 0, 0),
            (0, 1, 0),
        )

    def test_non_monic_rejected(self):
        with pytest.raises(NotMonic):
            recurrence_coefficients((-1, 2))
        with pytest.raises(NotMonic):
            recurrence_coefficients(())
        with pytest.raises(NotMonic):
            recurrence_coefficients((1,))  # degree 0

    def test_recurrence_coefficients(self):
        assert recurrence_coefficients((1, -3, 1)) == [3, -1]
        assert recurrence_coefficients((-1, -2, 1)) == [2, 1]

    def test_unnormalized_tuple_refused(self):
        # a trailing zero is refused, not trimmed away to a monic X - 1
        with pytest.raises(NotMonic, match="need a monic polynomial of degree >= 1"):
            recurrence_coefficients((-1, 1, 0))


class TestMatrixPower:
    def test_square(self):
        m = IntMatrix([[1, 1], [1, 0]])
        assert matrix_power(m, 2).entries == ((2, 1), (1, 1))

    def test_first_power_is_identity_operation(self):
        m = IntMatrix([[5, -2], [0, 3]])
        assert matrix_power(m, 1) == m

    def test_fifth_power(self):
        m = IntMatrix([[1, 1], [1, 0]])
        assert matrix_power(m, 5).entries == ((8, 5), (5, 3))

    def test_exponent_below_one(self):
        with pytest.raises(ValueError):
            matrix_power(IntMatrix.identity(2), 0)


class TestCharPoly:
    def test_two_by_two(self):
        assert char_poly(IntMatrix([[2, 1], [1, 1]])) == (1, -3, 1)

    def test_identity_matrix(self):
        # (X-1)^3 = X^3 - 3X^2 + 3X - 1
        assert char_poly(IntMatrix.identity(3)) == (-1, 3, -3, 1)

    def test_companion_round_trip(self):
        poly = kstep_identity(3).base
        assert char_poly(companion_matrix(poly)) == poly

    def test_inexact_step_raises(self, monkeypatch):
        # a division that leaves a residue must stop the elimination, also
        # under python -O
        exact = RefPoly.__divmod__

        def inexact(self, other):
            quotient, residue = exact(self, other)
            return quotient, residue + RefPoly((1,))

        monkeypatch.setattr(RefPoly, "__divmod__", inexact)
        with pytest.raises(ArithmeticError, match=r"r=0, i=1, j=1"):
            char_poly(companion_matrix(kstep_identity(3).base))

    @pytest.mark.parametrize("degree", range(2, 13))
    def test_companion_round_trip_all_degrees(self, degree):
        poly = kstep_identity(degree).base
        assert char_poly(companion_matrix(poly)) == poly

    @given(st.lists(st.integers(-5, 5), min_size=1, max_size=6))
    def test_companion_round_trip_random_monic(self, coefficients):
        poly = (*(-c for c in reversed(coefficients)), 1)
        assert char_poly(companion_matrix(poly)) == poly

    def test_permutation_matrix(self):
        # cyclic shift on 3 elements: charpoly X^3 - 1
        m = IntMatrix([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
        assert char_poly(m) == (-1, 0, 0, 1)


def poly_at_matrix(poly: tuple[int, ...], m: IntMatrix) -> IntMatrix:
    total = 0 * IntMatrix.identity(m.n)
    power = IntMatrix.identity(m.n)
    for i, c in enumerate(poly):
        if i:
            power = power @ m
        total = total + c * power
    return total


class TestCayleyHamilton:
    @pytest.mark.parametrize("dim", range(2, 7))
    def test_companion_annihilated_by_own_charpoly(self, dim):
        m = companion_matrix(kstep_identity(dim).base)
        assert poly_at_matrix(char_poly(m), m).is_zero()

    def test_dense_matrix_annihilated(self):
        m = IntMatrix([[1, 2, 3], [4, 5, 6], [7, 8, 10]])
        assert poly_at_matrix(char_poly(m), m).is_zero()


def dense_decimated_charpoly(charpoly: tuple[int, ...], stride: int) -> tuple[int, ...]:
    """decimated_charpoly without the stepper: every power sum,
    Newton-seeded or not, is a k-term dot product."""
    if stride < 1:
        raise BadStride(f"stride must be >= 1, got {stride}")
    c = recurrence_coefficients(charpoly)
    n = len(c)
    rev = c[::-1]
    sums = [0] * n
    for m in range(1, n * stride + 1):
        seed = m * c[m - 1] if m <= n else 0
        sums.append(sum(map(mul, rev, sums[-n:])) + seed)
    q_sums = sums[n - 1 + stride :: stride]
    d: list[int] = []
    for m in range(1, n + 1):
        head = q_sums[m - 1] - sum(map(mul, d, q_sums[m - 2 :: -1]))
        step, rem = divmod(head, m)
        if rem:
            raise InexactNewtonStep(
                f"inexact Newton step m={m}: {head} is not divisible by {m}"
            )
        d.append(step)
    return (*(-v for v in reversed(d)), 1)


# --- tests of the power-sum route --------------------------------------------


def decimates_to_triangle_row(k: int) -> bool:
    """Whether the order-k base, decimated at the identity's stride, gives
    the charpoly read from triangle row k."""
    identity = kstep_identity(k)
    return decimated_charpoly(identity.base, identity.stride) == identity.charpoly


class TestDecimation:
    def test_stride_two_fibonacci(self):
        assert decimated_charpoly(kstep_identity(2).base, 2) == (1, -3, 1)

    def test_stride_four(self):
        assert decimates_to_triangle_row(4)

    def test_stride_one_is_identity(self):
        poly = (-1, -2, 1)
        assert decimated_charpoly(poly, 1) == poly

    def test_bad_stride(self):
        with pytest.raises(BadStride):
            decimated_charpoly(kstep_identity(2).base, 0)

    @pytest.mark.parametrize("k", range(2, 13))
    def test_matches_triangle_route(self, k):
        # triangle-free derivation of the same subsequence charpoly
        assert decimates_to_triangle_row(k)

    def test_pell_generalization(self):
        pell_poly = (-1, -2, 1)  # X^2 - 2X - 1
        decimated = decimated_charpoly(pell_poly, 2)
        assert decimated == (1, -6, 1)  # X^2 - 6X + 1
        coefficients = recurrence_coefficients(decimated)
        assert coefficients == [6, -1]
        pell = LinearRecurrence((2, 1), (0, 1))
        assert pell.window(0, 8) == (0, 1, 2, 5, 12, 29, 70, 169, 408)
        assert check_identity(pell, coefficients, 2, 4, 8).ok

    def test_jacobsthal_generalization(self):
        jacobsthal_poly = (-2, -1, 1)  # X^2 - X - 2
        decimated = decimated_charpoly(jacobsthal_poly, 2)
        assert decimated == (4, -5, 1)  # X^2 - 5X + 4
        jacobsthal = LinearRecurrence((1, 2), (0, 1))
        assert jacobsthal.window(0, 8) == (0, 1, 1, 3, 5, 11, 21, 43, 85)
        assert check_identity(jacobsthal, [5, -4], 2, 4, 20).ok


monic_polys = st.lists(st.integers(-5, 5), min_size=1, max_size=8).map(
    lambda lower: (*lower, 1)  # zero and non-+-1 trailing terms included
)


class TestPowerSums:
    @given(monic_polys, st.integers(1, 8))
    def test_matches_bareiss(self, poly, stride):
        decimated = decimated_charpoly(poly, stride)
        assert decimated == bareiss_decimated_charpoly(poly, stride)
        assert decimated[-1] == 1 and len(decimated) == len(poly)
        # the defining property: p(X) divides q(X^s) exactly
        assert not divmod(RefPoly(decimated).compose_power(stride), RefPoly(poly))[1]

    @given(monic_polys)
    def test_stride_one_returns_input(self, poly):
        assert decimated_charpoly(poly, 1) == poly

    @pytest.mark.parametrize("k", range(2, 41))
    def test_matches_triangle_route_to_order_forty(self, k):
        assert decimates_to_triangle_row(k)

    @pytest.mark.parametrize("k", [*range(41, 61), 150])
    def test_matches_triangle_route_above_forty(self, k):
        # the power sums of p_k step by P_{m+1} = 2 P_m - P_{m-k}
        assert decimates_to_triangle_row(k)

    def test_order_150_in_bounded_memory(self):
        # the walk holds the last k + 1 power sums besides the k it samples,
        # not all k^2 of them
        for k, bound in [(150, 15_000_000), (200, 4_000_000)]:
            identity = kstep_identity(k)
            tracemalloc.start()
            try:
                decimated = decimated_charpoly(identity.base, identity.stride)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < bound, k
            assert decimated == identity.charpoly

    @given(run_coefficients(), st.integers(1, 6))
    def test_matches_dense_power_sums(self, coefficients, stride):
        # runs of equal coefficients take the two-lag steps of (X - 1) * p
        poly = (*(-c for c in reversed(coefficients)), 1)
        assert decimated_charpoly(poly, stride) == dense_decimated_charpoly(poly, stride)

    def test_inexact_division_raises(self, monkeypatch):
        # a Newton step that leaves a remainder must stop the conversion,
        # also under python -O
        def inexact(a, b):
            quotient, rem = divmod(a, b)
            return quotient, rem + 1

        monkeypatch.setattr(decimation, "divmod", inexact, raising=False)
        with pytest.raises(ArithmeticError, match=r"inexact Newton step m=1") as info:
            decimated_charpoly(kstep_identity(3).base, 2)
        assert info.type is InexactNewtonStep
