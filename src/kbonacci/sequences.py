"""Monic integer linear recurrences, evaluable forward and backward.

A LinearRecurrence is a(n) = sum_{i=1..k} coefficients[i-1] * a(n-i) with
k seed values starting at a base index.  A window is built in flat lists
by one stepper, extend_linear, which every other recurrence walk in the
package (the power sums of `decimation`) shares.  After its first step it
steps by the multiple (X - 1) * p of the characteristic polynomial p
whenever that has fewer nonzero terms: the k-step family then costs two
multiplications per step in either direction, a(n+1) = 2a(n) - a(n-k) and
a(n) = 2a(n+k) - a(n+k+1), instead of a sum over k values; dense rules
keep the k-term dot product.  A window above the base walks up to it,
keeping only the last values of the walk.  Windows may extend below the
base: the recurrence is solved backward from the k values above,

    a(n) = (a(n+k) - sum_{i<k} coefficients[i-1] * a(n+k-i)) / coefficients[k-1],

which stays integral whenever the trailing coefficient is +-1 (always the
case for the k-step Fibonacci family).  A non-exact backward step raises
instead of switching to rationals.

check_identity verifies a strided self-similarity identity
a(n) = sum_j coeffs[j] * a(n - stride*(j+1)) over an index range through
its residual r(n) = a(n) - sum_j coeffs[j] * a(n - stride*(j+1)).  r is a
fixed combination of shifts of a, so it obeys a's own recurrence: k zero
residuals at the bottom of the range prove the identity on all of it, and
with a trailing coefficient of +-1, k at the seeds prove it at every n.
"""

from __future__ import annotations

import random
from _collections_abc import Iterable, Sequence
from operator import mul, sub

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
        extending in both directions as needed.

        Both directions step through extend_linear.  Up to a window above
        the base, the walk keeps a bounded run of its last values.
        """
        if lo > hi:
            raise WindowTooNarrow(f"empty window [{lo}, {hi}]")
        k = self.order
        start = max(lo, self.base)
        ahead = list(self.initial)
        # up to start in runs of 16k steps, each keeping only the k values
        # the next run starts from
        for done in range(self.base, start, 16 * k):
            step = min(16 * k, start - done)
            ahead = extend_linear(ahead, self.coefficients, k + step)[step:]
        ahead = extend_linear(ahead, self.coefficients, hi - start + 1)
        if lo < self.base:
            last = self.coefficients[-1]
            if last == 0:
                raise NotSolvableBackward(
                    "backward extension requires a nonzero trailing coefficient"
                )
            # a(base+k-1) down to a(base), then below: coefficients[-1] * a(n)
            # = a(n+k) - sum_{i<k} coefficients[i-1] * a(n+k-i)
            solve = tuple(-c for c in self.coefficients[-2::-1]) + (1,)
            behind = ahead[k - 1 :: -1]
            top = self.base + k - 1
            extend_linear(behind, solve, top - lo + 1, last, top)
            ahead = behind[::-1] + ahead[k:]
        return tuple(ahead[: hi - lo + 1])


def extend_linear(
    values: list[int],
    weights: Sequence[int],
    stop: int,
    divisor: int = 1,
    top: int = 0,
) -> list[int]:
    """Append to values, until it holds stop of them, the solutions of

        divisor * v(t) = H(t) = sum_{i=1..k} weights[i-1] * v(t-i),

    and return values.  It must hold at least k = len(weights) values.

    The first new value takes the dense head.  Each later one may instead
    use the rule's multiple by (X - 1): H(t) - H(t-1) needs only the lags
    where consecutive weights differ, and the last step made H(t-1) =
    divisor * v(t-1), so

        H(t) = divisor * v(t-1) + sum_{i=1..k+1} (w_i - w_{i-1}) * v(t-i)

    with w_0 = w_{k+1} = 0.  That rule is used when it has fewer nonzero
    terms than the weights: the k-step family steps a(n+1) = 2a(n) - a(n-k)
    forward and a(n) = 2a(n+k) - a(n+k+1) backward, O(1) big-int work per
    step.  Both heads are the same integer, so a head that divisor does not
    divide raises at the same step either way; values[t] is taken to be the
    sequence at index top - t, which names that step.
    """
    k = len(weights)
    rev = weights[::-1]
    lags = list(map(sub, (*weights, 0), (0, *weights)))  # w_i - w_{i-1}
    lags[0] += divisor
    terms = [(-i, c) for i, c in enumerate(lags, start=1) if c]
    sparse = len(terms) < k - weights.count(0)
    first = len(values)
    for t in range(first, stop):
        if sparse and t > first:
            head = 0
            for i, c in terms:
                head += c * values[i]
        else:
            head = sum(map(mul, rev, values[-k:]))
        if divisor == 1:
            values.append(head)
            continue
        step, rem = divmod(head, divisor)
        if rem:
            raise NonIntegralBackwardStep(
                f"index {top - t}: {head} is not divisible by {divisor}"
            )
        values.append(step)
    return values


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
    values in the range decide it everywhere above.  With a trailing
    coefficient of +-1, r runs backward in integers too, so the k residuals
    at the seeds are checked first, at a cost that does not depend on where
    [lo, hi] lies: all 0, and r is 0 at every n.  Otherwise only the window
    up to lo + k - 1 is built; when those k residuals are all 0 the identity
    holds on [lo, hi] (and for every n >= lo).  Else r is extended over the
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
    decided = hi - lo + 1 >= k  # a shorter range is just its seeds
    unit = rec.coefficients[-1] in (1, -1)
    if unit and not any(_residuals(rec, coefficients, stride, rec.base, rec.base + k - 1)):
        return IdentityReport(coefficients, stride, lo, hi, holds_for_all_n=decided)
    residuals = _residuals(rec, coefficients, stride, lo, min(hi, lo + k - 1))
    if not any(residuals):
        holds = decided and unit
        return IdentityReport(coefficients, stride, lo, hi, holds_for_all_n=holds)
    if decided:
        extension = LinearRecurrence(rec.coefficients, residuals, base=lo)
        residuals = extension.window(lo, hi)
    failures = tuple(
        (n, a, a - r)
        for n, a, r in zip(range(lo, hi + 1), rec.window(lo, hi), residuals)
        if r
    )
    return IdentityReport(coefficients, stride, lo, hi, failures)


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
