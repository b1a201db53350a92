"""Unit tests for recurrence evaluation and identity checking."""

import tracemalloc
from collections import deque
from itertools import islice
from operator import mul

import pytest
from hypothesis import given, strategies as st

from kbonacci.errors import (
    BadModulus,
    BadStride,
    BelowBase,
    EmptyCoefficients,
    NotSolvableBackward,
    OrderTooSmall,
    SeedCountMismatch,
    WindowTooNarrow,
)
from kbonacci import sequences
from kbonacci.decimation import decimated_charpoly, recurrence_coefficients
from kbonacci.prover import kstep_identity
from kbonacci.sequences import (
    IdentityReport,
    LinearRecurrence,
    check_identity,
    kbonacci,
    random_kbonacci,
)


class TestKbonacci:
    def test_fibonacci_values(self):
        assert kbonacci(2).window(0, 7) == (0, 1, 1, 2, 3, 5, 8, 13)

    def test_three_step_subsequence(self):
        window = kbonacci(3).window(0, 18)
        assert [window[n] for n in range(0, 19, 3)] == [
            0, 1, 7, 44, 274, 1705, 10609,
        ]

    def test_four_step_subsequence(self):
        window = kbonacci(4).window(0, 24)
        assert [window[n] for n in range(0, 25, 4)] == [
            0, 1, 15, 208, 2872, 39648, 547337,
        ]

    def test_order_below_two_rejected(self):
        with pytest.raises(OrderTooSmall):
            kbonacci(1)


class TestWindow:
    def test_backward_fibonacci(self):
        assert kbonacci(2).window(-4, 4) == (-3, 2, -1, 1, 0, 1, 1, 2, 3)

    def test_backward_three_step(self):
        # solving a(n) = a(n+3) - a(n+2) - a(n+1) below the seeds
        assert kbonacci(3).window(-3, 2) == (0, -1, 1, 0, 0, 1)

    def test_window_of_seeds_returns_initial(self):
        rec = LinearRecurrence((1, 1, 1), (4, -2, 9), base=5)
        assert rec.window(5, 7) == (4, -2, 9)

    def test_empty_window_rejected(self):
        with pytest.raises(WindowTooNarrow):
            kbonacci(2).window(3, 2)

    def test_absolute_indexing(self):
        # item n - lo is the value at index n; a bare negative index would
        # read from the end of the tuple instead
        lo = -2
        values = kbonacci(2).window(lo, 2)
        assert values[-2 - lo] == -1
        assert values[2 - lo] == 1
        assert len(values) == 5

    def test_non_integral_backward_step(self):
        # a trailing coefficient of 2 would divide by 2 at every backward step
        rec = LinearRecurrence((1, 2), (0, 1))
        with pytest.raises(NotSolvableBackward):
            rec.window(-1, 1)

    def test_zero_trailing_coefficient_cannot_extend_backward(self):
        rec = LinearRecurrence((1, 0), (0, 1))
        with pytest.raises(NotSolvableBackward):
            rec.window(-1, 1)
        # forward-only windows are still fine
        assert rec.window(0, 4) == (0, 1, 1, 1, 1)

    def test_recurrence_holds_at_every_interior_index(self):
        rec = kbonacci(4)
        lo = -15
        values = rec.window(lo, 40)
        for n in range(lo + 4, 41):
            assert values[n - lo] == sum(values[n - lo - i] for i in range(1, 5))

    def test_mismatched_seed_count_rejected(self):
        with pytest.raises(ValueError):
            LinearRecurrence((1, 1), (1,))


@st.composite
def walks(draw):
    """A k-step or dense recurrence of order 1-8 and a walk of it: a start
    up to 48k past the base, an end up to 80k past the start, and a step of
    1..3k."""
    k = draw(st.integers(1, 8))
    if draw(st.booleans()):
        coefficients = (1,) * k
    else:
        coefficients = draw(st.lists(st.integers(-3, 3), min_size=k, max_size=k))
    seeds = draw(st.lists(st.integers(-9, 9), min_size=k, max_size=k))
    rec = LinearRecurrence(coefficients, seeds, base=draw(st.integers(-20, 20)))
    lo = rec.base + draw(st.integers(0, 48 * k))
    hi = lo + draw(st.integers(0, 80 * k))
    return rec, lo, hi, draw(st.integers(1, 3 * k))


class TestWalk:
    @given(walks())
    def test_samples_the_window(self, case):
        rec, lo, hi, step = case
        assert rec.walk(lo, hi, step) == list(rec.window(lo, hi))[::step]

    def test_below_the_base_raises(self):
        rec = LinearRecurrence((1, 1), (0, 1), base=3)
        assert rec.walk(3, 4) == [0, 1]
        with pytest.raises(BelowBase):
            rec.walk(2, 4)

    @pytest.mark.parametrize(
        "rec, lo, hi",
        [(LinearRecurrence((1, 1), (5, 7)), 0, -2), (kbonacci(4), 0, -3), (kbonacci(2), 5, 3)],
    )
    def test_empty_range_raises(self, rec, lo, hi):
        with pytest.raises(WindowTooNarrow):
            rec.walk(lo, hi)


class TestCheckIdentity:
    def test_fibonacci_stride_two(self):
        report = check_identity(kbonacci(2), [3, -1], 2, 4, 50)
        assert report.ok
        assert report.checked == 47

    def test_four_step_stride_four(self):
        report = check_identity(kbonacci(4), [15, -17, 7, -1], 4, 16, 60)
        assert report.ok

    def test_wrong_coefficients_found(self):
        report = check_identity(kbonacci(2), [3, -2], 2, 4, 10)
        assert not report.ok
        # n=4 passes by coincidence (3*1 - 2*0 == 3); n=5 is the first failure
        assert report.first_counterexample == (5, 5, 4)
        assert all(n != 4 for n, _, _ in report.failures)

    def test_negative_range(self):
        report = check_identity(kbonacci(3), [7, -5, 1], 3, -30, 120)
        assert report.ok
        assert report.checked == 151

    def test_residue_tallies(self):
        report = check_identity(kbonacci(3), [7, -5, 1], 3, -30, 120)
        tallies = report.residue_tallies(3)
        assert sum(checked for checked, _ in tallies.values()) == 151
        assert all(failed == 0 for _, failed in tallies.values())

    def test_bad_stride(self):
        with pytest.raises(ValueError):
            check_identity(kbonacci(2), [3, -1], 0, 0, 10)

    def test_empty_range_rejected(self):
        with pytest.raises(WindowTooNarrow):
            check_identity(kbonacci(2), [3, -1], 2, 5, 4)

    def test_empty_coefficients_rejected(self):
        with pytest.raises(ValueError):
            check_identity(kbonacci(2), [], 2, 0, 10)

    @pytest.mark.parametrize("seed", [1, 2])
    def test_passing_check_builds_reach_plus_order_values(self, seed, monkeypatch):
        built = []
        window = LinearRecurrence.window

        def counting_window(self, lo, hi):
            result = window(self, lo, hi)
            built.append(len(result))
            return result

        monkeypatch.setattr(LinearRecurrence, "window", counting_window)
        k = 25
        coefficients = kstep_identity(k).coefficients
        report = check_identity(random_kbonacci(k, seed), coefficients, k, -400, 11000)
        assert report.ok
        assert report.checked == 11401
        assert sum(built) <= k * len(coefficients) + k


class TestHoldsForAllN:
    def test_pell_trailing_one(self):
        # a(n) = 2a(n-1) + a(n-2); squaring its roots gives X^2 - 6X + 1
        pell = LinearRecurrence((2, 1), (0, 1))
        report = check_identity(pell, [6, -1], 2, 10, 60)
        assert report.ok and report.holds_for_all_n
        # the certificate reaches below the checked range
        assert check_identity(pell, [6, -1], 2, -300, -200).ok

    def test_trailing_two_is_forward_only(self):
        # a(n) = a(n-1) + 2a(n-2) has roots 2 and -1; stride 2: X^2 - 5X + 4
        rec = LinearRecurrence((1, 2), (0, 1))
        report = check_identity(rec, [5, -4], 2, 4, 50)
        assert report.ok
        assert not report.holds_for_all_n
        assert check_identity(rec, [5, -4], 2, 900, 1000).ok
        # the check reaches below the base, where the sequence is not integral,
        # unless lo is at least base + stride * len(coefficients) = 4
        for lo in (0, 3):
            with pytest.raises(NotSolvableBackward):
                check_identity(rec, [5, -4], 2, lo, 50)

    def test_trailing_zero_is_forward_only(self):
        # a(n) = a(n-1): 0, 1, 1, 1, ...; a(n) = a(n-2) holds from n = 3 on
        rec = LinearRecurrence((1, 0), (0, 1))
        report = check_identity(rec, [1], 2, 3, 40)
        assert report.ok
        assert not report.holds_for_all_n
        failing = check_identity(rec, [1], 2, 2, 40)
        assert failing.failures == ((2, 1, 0),)
        assert not failing.holds_for_all_n

    def test_range_shorter_than_order_certifies_only_itself(self):
        # 3*F(2) - 2*F(0) == F(4) by coincidence; the identity is wrong
        report = check_identity(kbonacci(2), [3, -2], 2, 4, 4)
        assert report.ok
        assert not report.holds_for_all_n
        assert not check_identity(kbonacci(2), [3, -2], 2, 4, 5).ok


class TestRandomInstances:
    def test_deterministic(self):
        assert random_kbonacci(3, 99).initial == random_kbonacci(3, 99).initial

    def test_seed_range(self):
        for seed in range(20):
            rec = random_kbonacci(4, seed)
            assert rec.coefficients == (1, 1, 1, 1)
            assert all(-9 <= v <= 9 for v in rec.initial)

    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_identity_independent_of_seed_values(self, k):
        coefficients = kstep_identity(k).coefficients
        for seed in (1, 2):
            report = check_identity(random_kbonacci(k, seed), coefficients, k, -20, 100)
            assert report.ok


bounds = st.integers(min_value=-30, max_value=60)


class TestWindowConsistency:
    @given(bounds, bounds, bounds, bounds)
    def test_restriction_matches_direct_evaluation(self, a, b, c, d):
        lo, hi = min(a, b), max(a, b)
        inner_lo, inner_hi = min(c, d), max(c, d)
        inner_lo = max(lo, inner_lo)
        inner_hi = min(hi, inner_hi)
        if inner_lo > inner_hi:
            return
        rec = kbonacci(3)
        outer = rec.window(lo, hi)
        inner = rec.window(inner_lo, inner_hi)
        assert inner == outer[inner_lo - lo : inner_hi - lo + 1]


class TestErrorTypes:
    def test_recurrence_without_coefficients(self):
        with pytest.raises(EmptyCoefficients):
            LinearRecurrence((), ())

    def test_identity_without_coefficients(self):
        with pytest.raises(EmptyCoefficients):
            check_identity(kbonacci(2), [], 2, 0, 10)

    def test_stride_below_one(self):
        with pytest.raises(BadStride, match="stride must be >= 1, got 0"):
            check_identity(kbonacci(2), [3, -1], 0, 0, 10)

    def test_seed_count_mismatch(self):
        with pytest.raises(SeedCountMismatch, match="2 coefficients need 2 seed values, got 3"):
            LinearRecurrence((1, 1), (0, 1, 1))

    def test_modulus_below_one(self):
        report = check_identity(kbonacci(2), [3, -1], 2, 0, 10)
        with pytest.raises(BadModulus, match="modulus must be positive"):
            report.residue_tallies(0)


class TestResidueTallies:
    @given(
        st.integers(min_value=-500, max_value=500),
        st.integers(min_value=0, max_value=300),
        st.integers(min_value=1, max_value=30),
        st.lists(st.integers(min_value=0, max_value=300), unique=True),
    )
    def test_closed_form_matches_brute_force(self, lo, width, mod, offsets):
        hi = lo + width
        failures = tuple((lo + d, 0, 1) for d in sorted(offsets) if d <= width)
        report = IdentityReport(lo=lo, hi=hi, failures=failures, holds_for_all_n=False)
        expected = {
            r: (
                sum(1 for n in range(lo, hi + 1) if n % mod == r),
                sum(1 for n, _, _ in failures if n % mod == r),
            )
            for r in range(mod)
        }
        assert report.residue_tallies(mod) == expected


BACKWARD_NEEDS_UNIT = "backward extension requires a trailing coefficient of +-1"


def oracle_window(rec, lo, hi):
    """Dict-based window: every lag multiplied separately, one dict per call."""
    if lo > hi:
        raise WindowTooNarrow(f"empty window [{lo}, {hi}]")
    k = rec.order
    values = {rec.base + i: v for i, v in enumerate(rec.initial)}
    for n in range(rec.base + k, hi + 1):
        values[n] = sum(
            c * values[n - i] for i, c in enumerate(rec.coefficients, start=1)
        )
    if lo < rec.base:
        last = rec.coefficients[-1]
        if last not in (1, -1):
            raise NotSolvableBackward(BACKWARD_NEEDS_UNIT)
        for n in range(rec.base - 1, lo - 1, -1):
            # last * a(n) = a(n+k) - sum_{i<k} coefficients[i-1] * a(n+k-i)
            values[n] = last * (
                values[n + k]
                - sum(rec.coefficients[i - 1] * values[n + k - i] for i in range(1, k))
            )
    return tuple(values[n] for n in range(lo, hi + 1))


def oracle_failures(rec, coefficients, stride, lo, hi):
    """Per-index check through absolute indices of the oracle window."""
    reach = stride * len(coefficients)
    values = dict(zip(range(lo - reach, hi + 1), oracle_window(rec, lo - reach, hi)))
    failures = []
    for n in range(lo, hi + 1):
        predicted = sum(
            c * values[n - stride * j] for j, c in enumerate(coefficients, start=1)
        )
        if values[n] != predicted:
            failures.append((n, values[n], predicted))
    return tuple(failures)


def outcome(f, *args):
    try:
        return f(*args)
    except (ValueError, ArithmeticError) as exc:
        return type(exc), str(exc)


@st.composite
def recurrences(draw):
    k = draw(st.integers(min_value=1, max_value=6))
    coefficient = st.integers(min_value=-3, max_value=3)
    seed_value = st.integers(min_value=-9, max_value=9)
    return LinearRecurrence(
        tuple(draw(st.lists(coefficient, min_size=k, max_size=k))),
        tuple(draw(st.lists(seed_value, min_size=k, max_size=k))),
        base=draw(st.integers(min_value=-20, max_value=20)),
    )


class TestAgainstOracle:
    @given(
        recurrences(),
        st.integers(min_value=-30, max_value=30),
        st.integers(min_value=0, max_value=60),
    )
    def test_window(self, rec, offset, width):
        lo = rec.base + offset
        got = outcome(lambda: rec.window(lo, lo + width))
        assert got == outcome(oracle_window, rec, lo, lo + width)

    @given(
        recurrences(),
        st.integers(min_value=0, max_value=2000),
        st.integers(min_value=0, max_value=30),
    )
    def test_window_far_above_base(self, rec, offset, width):
        # the window keeps only the last values of its walk up to lo; the
        # oracle keeps every index from the base
        lo = rec.base + offset
        got = outcome(lambda: rec.window(lo, lo + width))
        assert got == outcome(oracle_window, rec, lo, lo + width)

    @given(
        recurrences(),
        st.one_of(
            st.lists(st.integers(min_value=-4, max_value=4), min_size=1, max_size=5),
            st.none(),
        ),
        st.integers(min_value=1, max_value=4),
        # reaching below the base, or wholly (and far) above it
        st.one_of(
            st.integers(min_value=-30, max_value=30),
            st.integers(min_value=30, max_value=300),
        ),
        st.integers(min_value=0, max_value=60),
        st.booleans(),
    )
    def test_check_identity(self, rec, coefficients, stride, offset, width, short):
        if coefficients is None:
            # the recurrence itself: an identity that holds at stride 1
            coefficients, stride = rec.coefficients, 1
        if short:
            # a range shorter than the order: no recurrence step to extend by
            width %= rec.order
        lo = rec.base + offset
        args = (rec, coefficients, stride, lo, lo + width)
        got = outcome(lambda: check_identity(*args).failures)
        assert got == outcome(oracle_failures, *args)


def check_identity_from_lo(rec, coefficients, stride, lo, hi):
    """check_identity decided from the k residuals at lo..lo+k-1 alone, even
    past hi, never at the seeds: the oracle of the check at the seeds, which
    must give the same report field for field."""
    coefficients = tuple(coefficients)
    if not coefficients:
        raise EmptyCoefficients("identity needs at least one coefficient")
    if stride < 1:
        raise BadStride(f"stride must be >= 1, got {stride}")
    if lo > hi:
        raise WindowTooNarrow(f"empty index range [{lo}, {hi}]")
    k = rec.order
    reach = stride * len(coefficients)
    values = rec.window(lo - reach, lo + k - 1)
    rev = coefficients[::-1]
    residuals = tuple(
        values[i] - sum(map(mul, rev, values[i - reach : i : stride]))
        for i in range(reach, len(values))
    )
    if not any(residuals):
        holds = rec.coefficients[-1] in (1, -1)
        return IdentityReport(lo=lo, hi=hi, failures=(), holds_for_all_n=holds)
    extension = LinearRecurrence(rec.coefficients, residuals, base=lo)
    failures = tuple(
        (n, a, a - r)
        for n, a, r in zip(range(lo, hi + 1), rec.window(lo, hi), extension.window(lo, hi))
        if r
    )
    return IdentityReport(lo=lo, hi=hi, failures=failures, holds_for_all_n=False)


def report_fields(report):
    return vars(report)


@pytest.mark.parametrize(
    "case",
    [
        (kbonacci(3), kstep_identity(3).coefficients, 3, 0, 10),  # passes
        (kbonacci(2), [3, -2], 2, 4, 10),  # fails at every index
    ],
)
def test_report_fields_are_the_documented_ones(case):
    # each of check_identity's two construction sites sets every field by
    # keyword, so a misspelled or missing field shows here
    report = check_identity(*case)
    assert set(vars(report)) == {"lo", "hi", "failures", "holds_for_all_n"}


@st.composite
def stride_identities(draw):
    """A recurrence of order 2-12 with its stride-s identity, right or with
    one coefficient off, and a range short, near, far above or far below
    its base."""
    k = draw(st.integers(min_value=2, max_value=12))
    if draw(st.booleans()):
        coefficients = (1,) * k  # the k-step family
    else:
        head = draw(st.lists(st.integers(-2, 2), min_size=k - 1, max_size=k - 1))
        coefficients = (*head, draw(st.sampled_from([1, -1, 1, -1, 2, 0])))
    seeds = draw(st.lists(st.integers(-9, 9), min_size=k, max_size=k))
    rec = LinearRecurrence(coefficients, seeds, base=draw(st.integers(-20, 20)))
    stride = draw(st.integers(min_value=1, max_value=k))
    charpoly = (*(-c for c in coefficients[::-1]), 1)
    identity = recurrence_coefficients(decimated_charpoly(charpoly, stride))
    if draw(st.booleans()):
        identity[draw(st.integers(0, k - 1))] += draw(st.sampled_from([-2, -1, 1, 3]))
    offset = draw(
        st.one_of(
            st.integers(min_value=-40, max_value=40),
            st.integers(min_value=500, max_value=3000),
            st.integers(min_value=-3000, max_value=-500),
        )
    )
    width = draw(st.integers(min_value=0, max_value=40))
    if draw(st.booleans()):
        width %= k  # fewer than k indices
    lo = rec.base + offset
    return rec, identity, stride, lo, lo + width


class TestCheckAtTheSeeds:
    @given(stride_identities())
    def test_same_report_as_check_from_lo(self, case):
        got = outcome(lambda: report_fields(check_identity(*case)))
        assert got == outcome(lambda: report_fields(check_identity_from_lo(*case)))

    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_kth_residual_at_the_seeds_decides(self, k):
        # the last coefficient one too high leaves r(n) = -a(n - k*k), which
        # is 0 at the first k - 1 indices above the seeds when they sit k*k
        # above the k-step zeros, and 1 at the k-th
        coefficients = kstep_identity(k).coefficients
        coefficients[-1] += 1
        rec = LinearRecurrence((1,) * k, kbonacci(k).window(k * k, k * k + k - 1), base=k * k)
        report = check_identity(rec, coefficients, k, -30, 30)
        assert not report.ok
        assert report_fields(report) == report_fields(
            check_identity_from_lo(rec, coefficients, k, -30, 30)
        )

    def test_fibonacci_a_million_below_the_base_in_bounded_memory(self):
        tracemalloc.start()
        try:
            report = check_identity(kbonacci(2), [3, -1], 2, -1_000_000, -999_900)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000
        assert report.ok and report.holds_for_all_n
        assert report.checked == 101

    def test_failing_check_far_below_the_base_in_bounded_memory(self):
        # [3, -2] leaves r(n) = F(n - 4), nonzero at every index of the range
        tracemalloc.start()
        try:
            report = check_identity(kbonacci(2), [3, -2], 2, -20_000, -19_900)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000
        assert [n for n, _, _ in report.failures] == list(range(-20_000, -19_899))

    def test_failures_far_below_the_base_match_the_oracle(self):
        args = (kbonacci(2), [3, -2], 2, -2_000, -1_900)
        failures = check_identity(*args).failures
        assert len(failures) == 101
        assert failures == oracle_failures(*args)


class TestLargeOrders:
    @pytest.mark.parametrize("k", [2, 5, 12, 25, 40])
    def test_window_satisfies_multiplied_recurrence(self, k):
        # (X - 1)(X^k - X^(k-1) - ... - 1) = X^(k+1) - 2X^k + 1, so
        # a(n) = 2a(n-1) - a(n-k-1); with a(0..k) pinned this fixes the sequence
        lo = -60
        values = kbonacci(k).window(lo, 1500)
        assert values[-lo : -lo + k + 1] == (0,) * (k - 1) + (1, 1)
        for i in range(k + 1, len(values)):
            assert values[i] == 2 * values[i - 1] - values[i - k - 1], lo + i

    @pytest.mark.parametrize("k", [25, 40])
    def test_identity_holds_at_large_order(self, k):
        rec = random_kbonacci(k, 1)
        report = check_identity(rec, kstep_identity(k).coefficients, k, -200, 2000)
        assert report.ok


def fibonacci_pair(n):
    """(F(n), F(n+1)) by fast doubling."""
    if n == 0:
        return 0, 1
    a, b = fibonacci_pair(n // 2)
    c = a * (2 * b - a)
    d = a * a + b * b
    return (d, c + d) if n % 2 else (c, d)


class TestFarWindows:
    def test_fibonacci_at_one_hundred_thousand(self):
        n = 100_000
        f_n, f_next = fibonacci_pair(n)
        assert kbonacci(2).window(n - 1, n + 1) == (f_next - f_n, f_n, f_next)

    def test_fibonacci_twenty_thousand_below_the_base(self):
        # F(-m) = (-1)**(m + 1) * F(m): F(-20001), F(-20000), F(-19999)
        n = 20_000
        f_n, f_next = fibonacci_pair(n)
        assert kbonacci(2).window(-n - 1, -n + 1) == (f_next, -f_n, f_next - f_n)


# --- the stepper on runs of equal coefficients -------------------------------


def dense_extend(values, weights, stop):
    """The stepper by the dense head alone: one k-term dot product a step."""
    k = len(weights)
    rev = tuple(weights[::-1])
    for _ in range(len(values), stop):
        values.append(sum(map(mul, rev, values[-k:])))
    return values


@st.composite
def run_coefficients(draw, max_order=30):
    """Orders 1..max_order made of 1-4 runs of equal coefficients; the last
    run's value, the trailing coefficient, is +-1 about half the time."""
    k = draw(st.integers(1, max_order))
    cuts = draw(st.lists(st.integers(1, k - 1), max_size=3, unique=True)) if k > 1 else []
    bounds = [0, *sorted(cuts), k]
    values = draw(st.lists(st.integers(-3, 3), min_size=len(cuts) + 1, max_size=len(cuts) + 1))
    values[-1] = draw(st.sampled_from([1, -1]) | st.integers(-3, 3))
    return tuple(v for v, a, b in zip(values, bounds, bounds[1:]) for _ in range(b - a))


@st.composite
def run_recurrences(draw):
    coefficients = draw(run_coefficients())
    k = len(coefficients)
    # seeds of several digits as well as one
    scale = draw(st.sampled_from([1, 6**8]))
    seeds = draw(st.lists(st.integers(min_value=-9, max_value=9), min_size=k, max_size=k))
    base = draw(st.integers(min_value=-20, max_value=20))
    return LinearRecurrence(coefficients, [scale * v for v in seeds], base)


class TestStepperAgainstDenseLoops:
    @given(
        run_coefficients(),
        st.lists(st.integers(min_value=-9, max_value=9), min_size=30, max_size=30),
        st.integers(min_value=0, max_value=80),
    )
    def test_values(self, weights, seeds, steps):
        k = len(weights)
        got = list(islice(LinearRecurrence(weights, seeds[:k]).values(), k + steps))
        assert got == dense_extend(seeds[:k], weights, k + steps)

    @given(run_recurrences(), st.integers(0, 40), st.integers(0, 80))
    def test_forward_window(self, rec, offset, width):
        lo = rec.base + offset
        got = outcome(lambda: rec.window(lo, lo + width))
        assert got == outcome(oracle_window, rec, lo, lo + width)

    @given(run_recurrences(), st.integers(1, 120), st.integers(0, 80))
    def test_backward_window(self, rec, depth, width):
        lo = rec.base - depth
        got = outcome(lambda: rec.window(lo, lo + width))
        assert got == outcome(oracle_window, rec, lo, lo + width)

    @given(run_recurrences(), st.integers(41, 3000), st.integers(0, 40))
    def test_jumped_window(self, rec, offset, width):
        lo = rec.base + offset
        got = outcome(lambda: rec.window(lo, lo + width))
        assert got == outcome(oracle_window, rec, lo, lo + width)

    @pytest.mark.parametrize(
        "weights, lags",
        [
            # a(n+1) = 2a(n) - a(n-k) forward
            ((1,) * 24, {-1, -25}),
            # a(n) = 2a(n+k) - a(n+k+1) backward
            ((-1,) * 23 + (1,), {-24, -25}),
            # one run after a gap: (X - 1) * p has 3 terms, p has 5
            ((0, 0, 3, 3, 3, 3, 3), {-1, -3, -8}),
            # no run: the dense head at every step
            ((1, 2, 3, 4), None),
            # (X - 1) * p has 3 terms, as many as p: not fewer, so dense
            ((1, 2, 2), None),
        ],
    )
    def test_reads_per_step(self, weights, lags, monkeypatch):
        dense = "reversed"

        class Reads(deque):
            def __getitem__(self, i):
                got.append(i)
                return super().__getitem__(i)

            def __reversed__(self):
                got.append(dense)
                return super().__reversed__()

        monkeypatch.setattr(sequences, "deque", Reads)
        got = []
        k = len(weights)
        seeds = [0] * (k - 1) + [1]
        values = list(islice(LinearRecurrence(weights, seeds).values(), k + 50))
        assert values == dense_extend(seeds, weights, k + 50)
        if lags is None:
            assert got == [dense] * 50
        else:
            # the first step is dense, each later one reads only the lags of
            # (X - 1) * p
            assert got[0] == dense
            assert len(got) == 1 + 49 * len(lags)
            assert set(got[1:]) == lags
