"""Exact arithmetic on dense integer-coefficient polynomials in one variable.

A polynomial is a tuple of Python ints in ascending exponent order, so
``coeffs[i]`` is the coefficient of X**i.  The representation is always
normalized: a nonzero polynomial never carries trailing zeros and the zero
polynomial is the empty tuple.  Python ints are unbounded, so every
operation is exact at any magnitude; there is no floating-point or
fixed-width path anywhere.

Division is classical long division by a monic divisor, so every step is
exact over the integers; any other nonzero divisor raises NotMonic.
"""

from __future__ import annotations

# collections.abc re-exports these; the private module comes with os, which
# every request loads, so annotations resolve without the collections package
from _collections_abc import Iterable, Iterator

from .errors import BadCompositionPower, NotMonic, ZeroPolynomialDegree


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

    def __bool__(self) -> bool:
        return bool(self.coeffs)

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

    def __add__(self, other: IntPoly) -> IntPoly:
        if not isinstance(other, IntPoly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPoly(out)

    def __sub__(self, other: IntPoly) -> IntPoly:
        if not isinstance(other, IntPoly):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> IntPoly:
        return IntPoly(-c for c in self.coeffs)

    def __mul__(self, other: IntPoly) -> IntPoly:
        if not isinstance(other, IntPoly):
            return NotImplemented
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return IntPoly(out)

    def __divmod__(self, other: IntPoly) -> tuple[IntPoly, IntPoly]:
        """Quotient and remainder by a monic divisor, with
        deg(remainder) < deg(divisor).

        A zero divisor raises ZeroDivisionError and any other non-monic one
        NotMonic.  Each step's quotient coefficient is the running head, and
        the step subtracts only the divisor's nonzero lower terms, so a
        sparse divisor such as a trinomial costs O(terms) per step, not
        O(degree).
        """
        if not isinstance(other, IntPoly):
            return NotImplemented
        if not other:
            raise ZeroDivisionError("polynomial division by zero")
        if not other.is_monic:
            raise NotMonic(f"divisor {other} is not monic")
        den = other.coeffs
        dd = len(den) - 1
        num = list(self.coeffs)
        terms = [(i, d) for i, d in enumerate(den[:-1]) if d]
        quot = [0] * (len(num) - dd)
        for shift in range(len(num) - dd - 1, -1, -1):
            head = num[shift + dd]
            if head == 0:
                continue
            quot[shift] = head
            for i, d in terms:
                num[shift + i] -= head * d
        return IntPoly(quot), IntPoly(num[:dd])

    def __floordiv__(self, other: IntPoly) -> IntPoly:
        return divmod(self, other)[0]

    def compose_power(self, k: int) -> IntPoly:
        """Substitute X**k for X: coefficient of X**i moves to X**(i*k)."""
        if k < 1:
            raise BadCompositionPower("composition power must be >= 1")
        out = [0] * ((len(self.coeffs) - 1) * k + 1)
        for i, c in enumerate(self.coeffs):
            out[i * k] = c
        return IntPoly(out)

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
