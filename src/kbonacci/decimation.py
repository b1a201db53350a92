"""Stride decimation of recurrences via power sums and Newton's identities.

If p(X) has roots r_1..r_n, the stride-s subsequence of any sequence with
characteristic polynomial p has characteristic polynomial q, the monic
polynomial with roots r_1**s..r_n**s.  The power sums P_m = sum_j r_j**m
obey p's own recurrence, seeded by Newton's identities; the power sums of
q are Q_i = P_{s*i}, and Newton's identities run backward turn them into
q's coefficients.  Graeffe root-squaring is the case s = 2.  Everything is
exact over Python ints: each backward step divides by m, and a nonzero
remainder raises instead of leaving the integers.

Newton's identities seed P_1..P_n in O(n^2) operations; then
`sequences.LinearRecurrence.walk`, which builds the windows too, steps on
to P_{n*s} and samples Q_1..Q_n, holding the last n + 1 power sums
besides the n it samples.  For the k-step family a step costs O(1)
big-int operations (P_{m+1} = 2 P_m - P_{m-k}), O(k^2) in all for p_k at
stride k; P_m has about m bits, so that is O(k^4) bit operations.  A
dense p costs O(n^2 s) operations.

A polynomial is a tuple of ints in ascending exponent order, normalized,
so its last entry is the leading coefficient.

This route never touches the coefficient triangles, which makes it an
independent oracle for the stride identities, and it works for any monic
integer recurrence (Pell, Jacobsthal, ...), not just the all-ones family.
"""

from __future__ import annotations

from operator import mul

from .errors import BadStride, InexactNewtonStep, NotMonic
from .sequences import LinearRecurrence


def recurrence_coefficients(charpoly: tuple[int, ...]) -> list[int]:
    """[c_1..c_n] such that charpoly == X**n - sum c_i X**(n-i).  A tuple
    that does not end in 1, a trailing zero included, is refused."""
    if len(charpoly) < 2 or charpoly[-1] != 1:
        raise NotMonic("need a monic polynomial of degree >= 1")
    return [-c for c in charpoly[-2::-1]]


def decimated_charpoly(charpoly: tuple[int, ...], stride: int) -> tuple[int, ...]:
    """Characteristic polynomial of the stride-s subsequence of any
    sequence whose charpoly is the given monic polynomial.

    With p = X**n - sum c_i X**(n-i), Newton's identities give the power
    sums P_m = sum_{i<m} c_i P_{m-i} + m*c_m for m <= n, and p's recurrence
    P_m = sum_i c_i P_{m-i} above n.  The result q = X**n - sum d_m X**(n-m)
    has power sums Q_m = P_{s*m}, so m*d_m = Q_m - sum_{i<m} d_i Q_{m-i}.
    """
    if stride < 1:
        raise BadStride(f"stride must be >= 1, got {stride}")
    c = recurrence_coefficients(charpoly)
    n = len(c)
    rev = c[::-1]
    # P_{1-n}..P_0 read as 0, so Newton's rule is p's rule plus m*c_m
    sums = [0] * n
    for m in range(1, n + 1):
        sums.append(sum(map(mul, rev, sums[-n:])) + m * c[m - 1])
    # Q_1..Q_n = P_s, P_2s, ..., P_ns, holding the last n + 1 power sums
    q_sums = LinearRecurrence(c, sums[n:], base=1).walk(stride, n * stride, stride)
    d: list[int] = []
    for m in range(1, n + 1):
        # d holds d_1..d_{m-1}, so the map stops after Q_{m-1}..Q_1
        head = q_sums[m - 1] - sum(map(mul, d, q_sums[m - 2 :: -1]))
        step, rem = divmod(head, m)
        if rem:
            raise InexactNewtonStep(
                f"inexact Newton step m={m}: {head} is not divisible by {m}"
            )
        d.append(step)
    return (*(-v for v in reversed(d)), 1)
