"""Exact arithmetic on dense integer-coefficient polynomials in one variable.

A polynomial is a tuple of Python ints in ascending exponent order, so
``coeffs[i]`` is the coefficient of X**i.  The representation is always
normalized: a nonzero polynomial never carries trailing zeros and the zero
polynomial is the empty tuple.  Python ints are unbounded, so every
operation is exact at any magnitude; there is no floating-point or
fixed-width path anywhere.

IntPoly keeps what a request reaches: construction, comparison, degree
and text.  The certificate divides plain int lists (see kbonacci.prover);
the sum, negation, product, long division and composition with X**k are
the tests' reference oracles (tests/polyref.py).  Every IntPoly,
the zero polynomial too, is true: test .coeffs for zero.
"""

from __future__ import annotations

# collections.abc re-exports these; the private module comes with os, which
# every request loads, so annotations resolve without the collections package
from _collections_abc import Iterable, Iterator

from .errors import ZeroPolynomialDegree


def _trim(coeffs: Iterable[int]) -> tuple[int, ...]:
    out = list(coeffs)
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


class IntPoly:
    """Dense integer polynomial, coefficients in ascending exponent order.

    Equal and hashed by its coefficients; no method changes it after
    construction.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        self.coeffs = _trim(coeffs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IntPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"IntPoly({self.coeffs!r})"

    @classmethod
    def from_descending(cls, coeffs: Iterable[int]) -> IntPoly:
        """Build from highest-degree-first coefficients (CLI input order)."""
        return cls(reversed(list(coeffs)))

    @property
    def degree(self) -> int:
        """Degree of a nonzero polynomial; the zero polynomial has none."""
        if not self.coeffs:
            raise ZeroPolynomialDegree("the zero polynomial has no degree")
        return len(self.coeffs) - 1

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def coeff(self, exponent: int) -> int:
        """Coefficient of X**exponent, 0 outside the stored range."""
        if 0 <= exponent < len(self.coeffs):
            return self.coeffs[exponent]
        return 0

    def __iter__(self) -> Iterator[int]:
        return iter(self.coeffs)

    def __str__(self) -> str:
        """Descending powers with explicit signs, e.g. 'X^4-3X^2+1'."""
        if not self.coeffs:
            return "0"
        parts: list[str] = []
        for e in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[e]
            if c == 0:
                continue
            sign = "-" if c < 0 else ("+" if parts else "")
            mag = abs(c)
            if e == 0:
                term = str(mag)
            else:
                term = "X" if e == 1 else f"X^{e}"
                if mag != 1:
                    term = f"{mag}{term}"
            parts.append(sign + term)
        return "".join(parts)
