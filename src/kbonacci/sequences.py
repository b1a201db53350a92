"""Monic integer linear recurrences, evaluable forward and backward.

A LinearRecurrence is a(n) = sum_{i=1..k} coefficients[i-1] * a(n-i) with
k seed values starting at a base index.  A window is built in flat lists.
Forward, each step groups the lags that share a coefficient, so it does one
multiplication per distinct nonzero coefficient (the k-step family: one
sum of the last k values); a window far above the base jumps there by
square-and-multiply modulo the characteristic polynomial, in a number of
polynomial steps logarithmic in the distance.  Windows may extend below
the base: the recurrence is solved backward from the k values above,

    a(n) = (a(n+k) - sum_{i<k} coefficients[i-1] * a(n+k-i)) / coefficients[k-1],

which stays integral whenever the trailing coefficient is +-1 (always the
case for the k-step Fibonacci family).  A non-exact backward step raises
instead of switching to rationals.

check_identity verifies a strided self-similarity identity
a(n) = sum_j coeffs[j] * a(n - stride*(j+1)) over an index range through
its residual r(n) = a(n) - sum_j coeffs[j] * a(n - stride*(j+1)).  r is a
fixed combination of shifts of a, so it obeys a's own recurrence: k zero
residuals at the bottom of the range prove the identity on all of it.
"""

from __future__ import annotations

import random
from _collections_abc import Iterable
from itertools import compress
from operator import mul

from .errors import (
    BadModulus,
    BadStride,
    EmptyCoefficients,
    NonIntegralBackwardStep,
    NotSolvableBackward,
    OrderTooSmall,
    SeedCountMismatch,
    WindowTooNarrow,
)
from .intpoly import IntPoly


class SequenceWindow:
    """Contiguous slice of a sequence, indexable by absolute index."""

    __slots__ = ("lo", "values")

    def __init__(self, lo: int, values: tuple[int, ...]):
        self.lo = lo
        self.values = values

    @property
    def hi(self) -> int:
        return self.lo + len(self.values) - 1

    def __getitem__(self, n: int) -> int:
        if not self.lo <= n <= self.hi:
            raise IndexError(f"index {n} outside window [{self.lo}, {self.hi}]")
        return self.values[n - self.lo]

    def __len__(self) -> int:
        return len(self.values)


class LinearRecurrence:
    """Monic integer recurrence with seed values at base..base+order-1."""

    __slots__ = ("coefficients", "initial", "base")

    def __init__(
        self, coefficients: Iterable[int], initial: Iterable[int], base: int = 0
    ):
        self.coefficients = tuple(coefficients)
        self.initial = tuple(initial)
        self.base = base
        if not self.coefficients:
            raise EmptyCoefficients("a recurrence needs at least one coefficient")
        if len(self.coefficients) != len(self.initial):
            raise SeedCountMismatch(
                f"{len(self.coefficients)} coefficients need "
                f"{len(self.coefficients)} seed values, got {len(self.initial)}"
            )

    @property
    def order(self) -> int:
        return len(self.coefficients)

    def window(self, lo: int, hi: int) -> SequenceWindow:
        """Values at indices lo..hi, extending in both directions as needed.

        List-backed; a forward step does one multiplication per distinct
        nonzero coefficient, a backward step solves from the k values above.
        A window above the base starts from the k values at lo, read off
        X**(lo - base) mod the characteristic polynomial, instead of
        walking up from the base.
        """
        if lo > hi:
            raise WindowTooNarrow(f"empty window [{lo}, {hi}]")
        k = self.order
        rev = self.coefficients[::-1]
        groups = [(c, [d == c for d in rev]) for c in set(rev) if c]

        def walk(values: list[int], stop: int) -> list[int]:
            for _ in range(len(values), stop):
                tail = values[-k:]
                values.append(sum(c * sum(compress(tail, mask)) for c, mask in groups))
            return values

        # X**(start - base) == sum_j r_j X**j mod the characteristic
        # polynomial, so a(start + i) = sum_j r_j a(base + i + j)
        start = max(lo, self.base)
        r = _x_power_mod(start - self.base, IntPoly((*(-c for c in rev), 1))).coeffs
        first = walk(list(self.initial), k - 1 + len(r))
        seeds = [sum(map(mul, r, first[i : i + k])) for i in range(k)]
        ahead = walk(seeds, hi - start + 1)
        if lo < self.base:
            last = self.coefficients[-1]
            if last == 0:
                raise NotSolvableBackward(
                    "backward extension requires a nonzero trailing coefficient"
                )
            behind = ahead[k - 1 :: -1]  # a(base+k-1) down to a(base), then below
            solve = (1,) + tuple(-c for c in self.coefficients[:-1])
            for n in range(self.base - 1, lo - 1, -1):
                head = sum(map(mul, solve, behind[-k:]))
                step, rem = divmod(head, last)
                if rem:
                    raise NonIntegralBackwardStep(
                        f"index {n}: {head} is not divisible by {last}"
                    )
                behind.append(step)
            ahead = behind[::-1] + ahead[k:]
        return SequenceWindow(lo, tuple(ahead[: hi - lo + 1]))


def _x_power_mod(e: int, modulus: IntPoly) -> IntPoly:
    """X**e mod a monic polynomial, by square-and-multiply (1 for e = 0)."""
    result, square = IntPoly.one(), IntPoly.x()
    while e:
        if e & 1:
            result = result * square % modulus
        e >>= 1
        if e:
            square = square * square % modulus
    return result


def kbonacci(k: int) -> LinearRecurrence:
    """The k-step Fibonacci sequence: k-1 zeros then a 1, all coefficients 1.

    k=2 is Fibonacci, k=3 Tribonacci, k=4 Tetranacci, with the usual
    OEIS seeds.
    """
    if k < 2:
        raise OrderTooSmall(f"order {k} is below 2")
    return LinearRecurrence((1,) * k, (0,) * (k - 1) + (1,), base=0)


def random_kbonacci(k: int, seed: int) -> LinearRecurrence:
    """k-step coefficients (all ones) with seeded random seed values in [-9, 9].

    The stride identities hold for any seed values, so these instances
    exercise that independence deterministically.
    """
    if k < 2:
        raise OrderTooSmall(f"order {k} is below 2")
    rng = random.Random(seed)
    return LinearRecurrence(
        (1,) * k, tuple(rng.randint(-9, 9) for _ in range(k)), base=0
    )


class IdentityReport:
    """Outcome of checking a strided identity over an index range."""

    __slots__ = ("coefficients", "stride", "lo", "hi", "failures", "holds_for_all_n")

    def __init__(
        self,
        coefficients: tuple[int, ...],
        stride: int,
        lo: int,
        hi: int,
        failures: tuple[tuple[int, int, int], ...] = (),
        holds_for_all_n: bool = False,
    ):
        self.coefficients = coefficients
        self.stride = stride
        self.lo = lo
        self.hi = hi
        # each failure is (index, actual value, value predicted by the identity)
        self.failures = failures
        # ok, decided from order-many residuals, and the recurrence's trailing
        # coefficient is +-1: then the residual vanishes in both directions, at
        # every integer n.  An ok report without it is certified only for n >= lo
        # (any other trailing coefficient) or only on [lo, hi] (a range shorter
        # than the order).
        self.holds_for_all_n = holds_for_all_n

    @property
    def ok(self) -> bool:
        return not self.failures

    @property
    def checked(self) -> int:
        return self.hi - self.lo + 1

    @property
    def first_counterexample(self) -> tuple[int, int, int] | None:
        return self.failures[0] if self.failures else None

    def residue_tallies(self, mod: int) -> dict[int, tuple[int, int]]:
        """Per residue class of the index: (indices checked, failures)."""
        if mod < 1:
            raise BadModulus("modulus must be positive")
        failed = dict.fromkeys(range(mod), 0)
        for n, _, _ in self.failures:
            failed[n % mod] += 1
        # how many n in [lo, hi] have n % mod == r, counted in closed form
        return {
            r: ((self.hi - r) // mod - (self.lo - 1 - r) // mod, failed[r])
            for r in range(mod)
        }


def check_identity(
    rec: LinearRecurrence,
    coefficients: Iterable[int],
    stride: int,
    lo: int,
    hi: int,
) -> IdentityReport:
    """Check a(n) == sum_j coefficients[j] * a(n - stride*(j+1)) for n in lo..hi.

    Decided from the residual r(n) = a(n) - (the identity's prediction).
    For n >= lo + k, r(n) - sum_i rec.coefficients[i-1] * r(n-i) combines
    instances of the recurrence at indices no lower than lo - stride *
    len(coefficients), so it is 0: r obeys the recurrence and its k lowest
    values in the range decide it everywhere above.  Only the window up to
    lo + k - 1 is built; when those k residuals are all 0 the identity holds
    on [lo, hi] (and for every n >= lo).  Otherwise r is extended over the
    range by the recurrence and each index where it is nonzero is reported.
    """
    coefficients = tuple(coefficients)
    if not coefficients:
        raise EmptyCoefficients("identity needs at least one coefficient")
    if stride < 1:
        raise BadStride(f"stride must be >= 1, got {stride}")
    if lo > hi:
        raise WindowTooNarrow(f"empty index range [{lo}, {hi}]")
    k = rec.order
    reach = stride * len(coefficients)
    values = rec.window(lo - reach, min(hi, lo + k - 1)).values
    rev = coefficients[::-1]
    residuals = tuple(
        values[i] - sum(map(mul, rev, values[i - reach : i : stride]))
        for i in range(reach, len(values))
    )
    decided = len(residuals) == k  # a shorter range is just its seeds
    if not any(residuals):
        holds = decided and rec.coefficients[-1] in (1, -1)
        return IdentityReport(coefficients, stride, lo, hi, holds_for_all_n=holds)
    if decided:
        extension = LinearRecurrence(rec.coefficients, residuals, base=lo)
        residuals = extension.window(lo, hi).values
    failures = tuple(
        (n, a, a - r)
        for n, a, r in zip(range(lo, hi + 1), rec.window(lo, hi).values, residuals)
        if r
    )
    return IdentityReport(coefficients, stride, lo, hi, failures)
