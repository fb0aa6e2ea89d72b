"""Distribution vectors, rounding and interval arithmetic."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.distribution import (
    Distribution,
    missing_segments,
    round_preserving_sum,
)

from oracles import reference_round_preserving_sum


class TestDistribution:
    def test_sum_enforced(self):
        with pytest.raises(ValueError, match="sums to"):
            Distribution(rows=(3, 3), total=7)

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            Distribution(rows=(-1, 8), total=7)

    def test_bands_are_prefix_intervals(self):
        d = Distribution(rows=(3, 0, 5), total=8)
        assert d.bands() == [(0, 3), (3, 3), (3, 8)]

    def test_equidistant_balanced(self):
        d = Distribution.equidistant(68, 3)
        assert sorted(d.rows, reverse=True) == [23, 23, 22]
        assert sum(d.rows) == 68

    def test_equidistant_exact_division(self):
        assert Distribution.equidistant(68, 2).rows == (34, 34)

    def test_single_device(self):
        d = Distribution.single_device(10, 3, 1)
        assert d.rows == (0, 10, 0)
        assert d.band(1) == (0, 10)

    @given(
        total=st.integers(min_value=1, max_value=200),
        n=st.integers(min_value=1, max_value=8),
    )
    @settings(max_examples=60, deadline=None)
    def test_equidistant_properties(self, total, n):
        d = Distribution.equidistant(total, n)
        assert sum(d.rows) == total
        assert max(d.rows) - min(d.rows) <= 1


class TestRounding:
    @given(
        st.lists(st.floats(min_value=0, max_value=100), min_size=1, max_size=6),
        st.integers(min_value=0, max_value=200),
    )
    @settings(max_examples=80, deadline=None)
    def test_rounding_preserves_sum_and_sign(self, fracs, total):
        out = round_preserving_sum(np.array(fracs), total)
        assert sum(out) == total
        assert all(x >= 0 for x in out)

    def test_proportionality(self):
        out = round_preserving_sum(np.array([1.0, 3.0]), 40)
        assert out == (10, 30)

    def test_all_zero_falls_back_to_equidistant(self):
        out = round_preserving_sum(np.array([0.0, 0.0]), 10)
        assert sum(out) == 10

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            round_preserving_sum(np.array([-1.0, 2.0]), 5)

    def test_solver_noise_tolerated(self):
        # HiGHS can return tiny negative values for variables at their
        # zero bound; those must be clamped, not rejected.
        out = round_preserving_sum(np.array([-5e-8, 1.0]), 68)
        assert out == (0, 68)

    def test_zero_total(self):
        assert round_preserving_sum(np.array([2.0, 3.0]), 0) == (0, 0)

    def test_single_entry(self):
        assert round_preserving_sum(np.array([0.37]), 68) == (68,)

    def test_empty_input_zero_total(self):
        assert round_preserving_sum(np.array([]), 0) == ()

    def test_empty_input_nonzero_total_rejected(self):
        with pytest.raises(ValueError):
            round_preserving_sum(np.array([]), 5)

    def test_negative_total_rejected(self):
        with pytest.raises(ValueError):
            round_preserving_sum(np.array([1.0, 2.0]), -1)

    def test_stable_tie_break(self):
        # Equal fractional parts: the leftover row goes to the earliest
        # index, deterministically.
        assert round_preserving_sum(np.array([1.0, 1.0, 1.0]), 4) == (2, 1, 1)
        assert round_preserving_sum(np.array([1.0, 1.0, 1.0, 1.0]), 6) == (
            2, 2, 1, 1,
        )

    @given(
        st.lists(
            st.floats(min_value=-1e-7, max_value=100), min_size=1, max_size=6
        ),
        st.integers(min_value=0, max_value=200),
    )
    @settings(max_examples=120, deadline=None)
    def test_degenerate_inputs_preserve_sum(self, fracs, total):
        out = round_preserving_sum(np.array(fracs), total)
        assert len(out) == len(fracs)
        assert sum(out) == total
        assert all(x >= 0 for x in out)

    @given(
        st.lists(st.floats(min_value=0, max_value=50), min_size=2, max_size=6),
        st.integers(min_value=0, max_value=200),
    )
    @settings(max_examples=80, deadline=None)
    def test_deterministic(self, fracs, total):
        a = round_preserving_sum(np.array(fracs), total)
        b = round_preserving_sum(np.array(fracs), total)
        assert a == b


class TestMatchesTheNumpyRounding:
    """Python floats, NumPy's operations: same rows, same ties, same errors.

    NumPy adds fewer than eight float64 left to right, as the loop does; from
    eight entries on its sum is blocked, so the two may differ in the last
    place of the scale there — no platform has eight devices, and the
    property stops at seven.
    """

    FRACTIONS = st.lists(
        st.one_of(
            st.floats(min_value=-1e-7, max_value=100),
            st.sampled_from((0.0, -0.0, 0.25, 0.5, 17.0, 22.5, 68.0, 5e-324, 1e-310, 1e300)),
        ),
        min_size=0, max_size=7,
    )

    @given(FRACTIONS, st.integers(min_value=0, max_value=200))
    @settings(max_examples=400, deadline=None)
    def test_same_rows(self, fracs, total):
        if not fracs and total:
            return  # both raise; pinned below
        assert round_preserving_sum(np.array(fracs), total) == (
            reference_round_preserving_sum(np.array(fracs), total)
        )

    @pytest.mark.parametrize("fracs, total", [
        ([1.0, -1e-5], 5), ([], 5), ([1.0, 2.0], -1), ([np.nan, -1.0], 3),
    ])
    def test_same_refusals(self, fracs, total):
        for fn in (round_preserving_sum, reference_round_preserving_sum):
            with pytest.raises(ValueError):
                fn(np.array(fracs), total)

    @pytest.mark.parametrize("fracs", [[np.nan, 1.0, 2.0], [np.inf, 1.0], [1e308, 1e308, 1.0]])
    def test_same_fallback_on_non_finite_scaling(self, fracs):
        with np.errstate(all="ignore"):
            want = reference_round_preserving_sum(np.array(fracs), 68)
        assert round_preserving_sum(np.array(fracs), 68) == want

    def test_lp_slices_and_lists_are_taken_alike(self):
        x = np.array([9.0, 20.25, 30.5, 17.25, 1.0, 2.0])
        assert round_preserving_sum(x[1:4], 68) == round_preserving_sum([20.25, 30.5, 17.25], 68)
        assert round_preserving_sum(x[1:4], 68) == reference_round_preserving_sum(x[1:4], 68)

    def test_last_remainder_first_mutant_is_killed(self, mutant):
        import repro.core.distribution as module

        def unstable(source: str) -> str:
            old = "sorted(range(n), key=lambda i: out[i] - frac[i])"
            assert source.count(old) == 1
            return source.replace(old, "sorted(range(n), key=lambda i: (out[i] - frac[i], -i))")

        mutant(module, "round_preserving_sum", unstable)
        fracs = np.array([1.0, 1.0, 1.0])
        assert module.round_preserving_sum(fracs, 4) != reference_round_preserving_sum(fracs, 4)


def overlap_rows(a, b):
    """Length of the intersection of two half-open row intervals."""
    return max(0, min(a[1], b[1]) - max(a[0], b[0]))


class TestIntervals:
    def test_missing_segments_no_have(self):
        assert missing_segments((2, 6), (0, 0)) == [(2, 6)]

    def test_missing_segments_covered(self):
        assert missing_segments((2, 6), (0, 10)) == []

    def test_missing_segments_above_and_below(self):
        assert missing_segments((0, 10), (3, 6)) == [(0, 3), (6, 10)]

    def test_missing_segments_partial(self):
        assert missing_segments((0, 5), (3, 9)) == [(0, 3)]
        assert missing_segments((4, 9), (0, 6)) == [(6, 9)]

    def test_empty_need(self):
        assert missing_segments((4, 4), (0, 10)) == []

    @given(
        n0=st.integers(min_value=0, max_value=20),
        n1=st.integers(min_value=0, max_value=20),
        h0=st.integers(min_value=0, max_value=20),
        h1=st.integers(min_value=0, max_value=20),
    )
    @settings(max_examples=100, deadline=None)
    def test_missing_plus_overlap_covers_need(self, n0, n1, h0, h1):
        need = (min(n0, n1), max(n0, n1))
        have = (min(h0, h1), max(h0, h1))
        segs = missing_segments(need, have)
        covered = sum(b - a for a, b in segs) + overlap_rows(need, have)
        assert covered == need[1] - need[0]
        for a, b in segs:
            assert need[0] <= a < b <= need[1]
            assert overlap_rows((a, b), have) == 0
