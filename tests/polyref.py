"""Reference polynomial arithmetic for the tests.

RefPoly is an IntPoly with the sum, difference, product, long division and
composition with X**k that no request needs: the certificate divides plain
int lists, so these left kbonacci.intpoly and are kept here as oracles.  A
sum, difference, negation, product, quotient or composition whose left
operand is a RefPoly is a RefPoly, so the oracles chain them freely.
dense_divmod is the schoolbook division they are checked against.
"""

from __future__ import annotations

from kbonacci.errors import NotMonic
from kbonacci.intpoly import IntPoly


class BadCompositionPower(ValueError):
    """Substitution of X**k for X with k below 1."""


class RefPoly(IntPoly):
    __slots__ = ()

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __add__(self, other: IntPoly) -> RefPoly:
        if not isinstance(other, IntPoly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return RefPoly(out)

    def __sub__(self, other: IntPoly) -> RefPoly:
        if not isinstance(other, IntPoly):
            return NotImplemented
        return self + RefPoly(-c for c in other.coeffs)

    def __neg__(self) -> RefPoly:
        return RefPoly(-c for c in self.coeffs)

    def __mul__(self, other: IntPoly) -> RefPoly:
        if not isinstance(other, IntPoly):
            return NotImplemented
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return RefPoly(out)

    def __divmod__(self, other: IntPoly) -> tuple[RefPoly, RefPoly]:
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
        if not other.coeffs:
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
        return RefPoly(quot), RefPoly(num[:dd])

    def __floordiv__(self, other: IntPoly) -> RefPoly:
        return divmod(self, other)[0]

    def compose_power(self, k: int) -> RefPoly:
        """Substitute X**k for X: coefficient of X**i moves to X**(i*k)."""
        if k < 1:
            raise BadCompositionPower("composition power must be >= 1")
        out = [0] * ((len(self.coeffs) - 1) * k + 1)
        for i, c in enumerate(self.coeffs):
            out[i * k] = c
        return RefPoly(out)


def dense_divmod(num: IntPoly, den: IntPoly) -> tuple[IntPoly, IntPoly]:
    """Schoolbook long division by a monic divisor, subtracting every
    divisor coefficient, zeros and the leading 1 included, at every step."""
    rest, den = list(num.coeffs), list(den.coeffs)
    dd = len(den) - 1
    quot = [0] * max(0, len(rest) - dd)
    for shift in range(len(rest) - dd - 1, -1, -1):
        step = rest[shift + dd]
        quot[shift] = step
        for i in range(dd + 1):
            rest[shift + i] -= step * den[i]
    return IntPoly(quot), IntPoly(rest)
