"""Monic integer linear recurrences, evaluable forward and backward.

A LinearRecurrence is a(n) = sum_{i=1..k} coefficients[i-1] * a(n-i) with
k seed values starting at a base index.  Every walk of a recurrence in
the package, a window here or the power sums of `decimation`, is one
LinearRecurrence.walk: a slice of one stepper generator,
LinearRecurrence.values, which holds only the last k + 1 values.  After
its first step the stepper uses the multiple (X - 1) * p of the
characteristic polynomial p when that has fewer nonzero terms: the k-step
family then costs two multiplications per step, a(n+1) = 2a(n) - a(n-k);
dense rules keep the k-term dot product.  Windows may extend below the
base when the trailing coefficient is +-1 (always the case for the k-step
Fibonacci family): then b(t) = a(-t) obeys the time-reversed recurrence,
an integer recurrence of the same order, and going backward is walking
forward on it.  Any other trailing coefficient raises on a window below
the base.

check_identity verifies a strided self-similarity identity
a(n) = sum_j coeffs[j] * a(n - stride*(j+1)) over an index range through
its residual r(n) = a(n) - sum_j coeffs[j] * a(n - stride*(j+1)).  r is a
fixed combination of shifts of a, so it obeys a's own recurrence: with a
trailing coefficient of +-1, k zero residuals at the seeds prove the
identity at every n; otherwise k at the bottom of the range prove it on
all of the range.
"""

from __future__ import annotations

import random
from _collections import deque
from _collections_abc import Iterable, Iterator
from itertools import islice
from operator import mul, sub
from types import SimpleNamespace

from .errors import (
    BadModulus,
    BadStride,
    BelowBase,
    EmptyCoefficients,
    NotSolvableBackward,
    OrderTooSmall,
    SeedCountMismatch,
    WindowTooNarrow,
)


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

    def window(self, lo: int, hi: int) -> tuple[int, ...]:
        """The values at indices lo..hi as a tuple, item i at index lo + i,
        extending in both directions as needed: below the base they are the
        time-reversed recurrence's, read back reversed.
        """
        if lo > hi:
            raise WindowTooNarrow(f"empty window [{lo}, {hi}]")
        values = []
        if lo < self.base:
            values = self._reversed().walk(-min(hi, self.base - 1), -lo)[::-1]
        if hi >= self.base:
            values += self.walk(max(lo, self.base), hi)
        return tuple(values)

    def _reversed(self) -> LinearRecurrence:
        """The recurrence of b(t) = a(-t), seeded with the same values:

            b(t) = last * b(t-k) - last * sum_{i<k} coefficients[k-1-i] * b(t-i)

        solves a's recurrence for its lowest term, so it needs last =
        coefficients[-1] to be its own inverse, +-1.
        """
        last = self.coefficients[-1]
        if last not in (1, -1):
            raise NotSolvableBackward(
                "backward extension requires a trailing coefficient of +-1"
            )
        weights = (*(-last * c for c in self.coefficients[-2::-1]), last)
        return LinearRecurrence(weights, self.initial[::-1], 1 - self.base - self.order)

    def walk(self, lo: int, hi: int, step: int = 1) -> list[int]:
        """The values at lo, lo + step, ... up to hi, for base <= lo <= hi,
        as a list: a slice of `values`."""
        if lo < self.base:
            raise BelowBase(f"a walk starts at the base {self.base} or above, not {lo}")
        if lo > hi:
            raise WindowTooNarrow(f"empty walk [{lo}, {hi}]")
        return list(islice(self.values(), lo - self.base, hi - self.base + 1, step))

    def values(self) -> Iterator[int]:
        """The seeds, then every later value, holding only the last k + 1.

        The first new value takes the dense head

            H(t) = sum_{i=1..k} coefficients[i-1] * v(t-i).

        Each later one may instead use the rule's multiple by (X - 1):
        H(t) - H(t-1) needs only the lags where consecutive coefficients
        differ, and the last step made H(t-1) = v(t-1), so

            H(t) = v(t-1) + sum_{i=1..k+1} (w_i - w_{i-1}) * v(t-i)

        with w_i = coefficients[i-1] and w_0 = w_{k+1} = 0.  That rule is
        used when it has fewer nonzero terms than the coefficients: the
        k-step family steps a(n+1) = 2a(n) - a(n-k) forward and a(n) =
        2a(n+k) - a(n+k+1) backward, O(1) big-int work per step.
        """
        weights = self.coefficients
        k = len(weights)
        lags = list(map(sub, (*weights, 0), (0, *weights)))  # w_i - w_{i-1}
        lags[0] += 1
        terms = [(-i, c) for i, c in enumerate(lags, start=1) if c]
        sparse = len(terms) < k - weights.count(0)
        last = deque(self.initial, maxlen=k + 1)
        yield from self.initial
        # map stops after k products, so last may hold k values or k + 1
        head = sum(map(mul, weights, reversed(last)))
        while True:
            last.append(head)
            yield head
            if sparse:
                head = 0
                for i, c in terms:
                    head += c * last[i]
            else:
                head = sum(map(mul, weights, reversed(last)))


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
    coefficients = kbonacci(k).coefficients
    rng = random.Random(seed)
    return LinearRecurrence(coefficients, [rng.randint(-9, 9) for _ in range(k)])


class IdentityReport(SimpleNamespace):
    """Outcome of checking a strided identity over the index range
    [lo, hi]; a record whose fields are set by keyword where check_identity
    builds it, and which compares by value.

    Each of failures is (index, actual value, value predicted by the
    identity).  holds_for_all_n: the report is ok and the recurrence's
    trailing coefficient is +-1, so the residual is 0 at the seeds, and so
    in both directions, at every integer n.  An ok report without it is
    certified for n >= lo (any other trailing coefficient) or only on
    [lo, hi] (a residual nonzero outside it).
    """

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
    r is a fixed combination of shifts of a, so r(n) - sum_i
    rec.coefficients[i-1] * r(n-i) combines instances of the recurrence.
    With a trailing coefficient of +-1 those hold at every n, so r obeys
    the recurrence in both directions and its k values at the seeds decide
    it everywhere, at a cost that does not depend on where [lo, hi] lies.
    Otherwise they hold only above the seeds, and the k values at lo decide
    r for every n >= lo; they read a from lo - stride*len(coefficients), so
    lo below rec.base + stride*len(coefficients) raises NotSolvableBackward
    (Jacobsthal, [5, -4] at stride 2: it raises at lo = 0 and 3, not 4).
    All k zero, and the identity holds; else r is run by the recurrence
    from those k values over the range, and each index where it is nonzero
    is reported.
    """
    coefficients = tuple(coefficients)
    if not coefficients:
        raise EmptyCoefficients("identity needs at least one coefficient")
    if stride < 1:
        raise BadStride(f"stride must be >= 1, got {stride}")
    if lo > hi:
        raise WindowTooNarrow(f"empty index range [{lo}, {hi}]")
    unit = rec.coefficients[-1] in (1, -1)
    anchor = rec.base if unit else lo
    residuals = _residuals(rec, coefficients, stride, anchor, anchor + rec.order - 1)
    if not any(residuals):
        return IdentityReport(lo=lo, hi=hi, failures=(), holds_for_all_n=unit)
    extension = LinearRecurrence(rec.coefficients, residuals, base=anchor)
    values = zip(range(lo, hi + 1), rec.window(lo, hi), extension.window(lo, hi))
    failures = tuple((n, a, a - r) for n, a, r in values if r)
    return IdentityReport(lo=lo, hi=hi, failures=failures, holds_for_all_n=False)


def _residuals(
    rec: LinearRecurrence, coefficients: tuple[int, ...], stride: int, first: int, last: int
) -> tuple[int, ...]:
    """The residuals of the identity at indices first..last."""
    reach = stride * len(coefficients)
    values = rec.window(first - reach, last)
    rev = coefficients[::-1]
    return tuple(
        values[i] - sum(map(mul, rev, values[i - reach : i : stride]))
        for i in range(reach, len(values))
    )
