"""Utility helpers: validation and wall timing."""

import time

import pytest

from repro.util.timing import WallTimer
from repro.util.validation import (
    check_multiple_of,
    check_positive,
    check_range,
)


class TestValidation:
    def test_check_positive(self):
        check_positive("x", 1e-9)
        with pytest.raises(ValueError, match="x must be > 0"):
            check_positive("x", 0)
        with pytest.raises(ValueError):
            check_positive("x", -3)

    def test_check_range(self):
        check_range("q", 5, 0, 10)
        check_range("q", 0, 0, 10)
        check_range("q", 10, 0, 10)
        with pytest.raises(ValueError, match="q must be in"):
            check_range("q", 11, 0, 10)

    def test_check_multiple_of(self):
        check_multiple_of("w", 32, 16)
        with pytest.raises(ValueError):
            check_multiple_of("w", 33, 16)
        with pytest.raises(ValueError):
            check_multiple_of("w", 0, 16)
        with pytest.raises(ValueError):
            check_multiple_of("w", -16, 16)


class TestWallTimer:
    def test_accumulates(self):
        t = WallTimer()
        for _ in range(3):
            with t:
                time.sleep(0.002)
        assert t.count == 3
        assert t.total_s >= 0.006
        assert t.mean_s == pytest.approx(t.total_s / 3)

    def test_reset(self):
        t = WallTimer()
        with t:
            pass
        t.reset()
        assert t.count == 0 and t.total_s == 0.0
        assert t.mean_s == 0.0

    def test_exception_still_recorded(self):
        t = WallTimer()
        with pytest.raises(RuntimeError):
            with t:
                raise RuntimeError("boom")
        assert t.count == 1
