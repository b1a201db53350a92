"""Reference polynomial arithmetic for the tests.

The library's polynomials are plain tuples of ints in ascending exponent
order, normalized: the last entry, the leading coefficient, is nonzero and
the zero polynomial is ().  RefPoly holds such a tuple as .coeffs, trimming
what it is given, with the sum, difference, product, long division and
composition with X**k that no request needs; the oracles are built as
RefPoly(result).  A sum, difference, negation, product, quotient or
composition whose left operand is a RefPoly is a RefPoly, so the oracles
chain them freely.  It is schoolbook arithmetic and imports nothing from
kbonacci, so it shares no code with what it checks.
"""

from __future__ import annotations

from collections.abc import Iterable


class BadCompositionPower(ValueError):
    """Substitution of X**k for X with k below 1."""


class RefPoly:
    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        out = list(coeffs)
        while out and out[-1] == 0:
            out.pop()
        self.coeffs = tuple(out)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RefPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __repr__(self) -> str:
        return f"RefPoly({self.coeffs!r})"

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __add__(self, other: RefPoly) -> RefPoly:
        if not isinstance(other, RefPoly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return RefPoly(out)

    def __sub__(self, other: RefPoly) -> RefPoly:
        if not isinstance(other, RefPoly):
            return NotImplemented
        return self + RefPoly(-c for c in other.coeffs)

    def __neg__(self) -> RefPoly:
        return RefPoly(-c for c in self.coeffs)

    def __mul__(self, other: RefPoly) -> RefPoly:
        if not isinstance(other, RefPoly):
            return NotImplemented
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return RefPoly(out)

    def __divmod__(self, other: RefPoly) -> tuple[RefPoly, RefPoly]:
        """Schoolbook long division by a monic divisor, with
        deg(remainder) < deg(divisor): every step subtracts every divisor
        coefficient, zeros and the leading 1 included.

        A zero divisor raises ZeroDivisionError and any other non-monic one
        ValueError.
        """
        if not isinstance(other, RefPoly):
            return NotImplemented
        rest, den = list(self.coeffs), other.coeffs
        if not den:
            raise ZeroDivisionError("polynomial division by zero")
        if den[-1] != 1:
            raise ValueError("divisor is not monic")
        dd = len(den) - 1
        quot = [0] * max(0, len(rest) - dd)
        for shift in range(len(rest) - dd - 1, -1, -1):
            step = rest[shift + dd]
            quot[shift] = step
            for i in range(dd + 1):
                rest[shift + i] -= step * den[i]
        return RefPoly(quot), RefPoly(rest)

    def compose_power(self, k: int) -> RefPoly:
        """Substitute X**k for X: coefficient of X**i moves to X**(i*k)."""
        if k < 1:
            raise BadCompositionPower("composition power must be >= 1")
        out = [0] * ((len(self.coeffs) - 1) * k + 1)
        for i, c in enumerate(self.coeffs):
            out[i * k] = c
        return RefPoly(out)

