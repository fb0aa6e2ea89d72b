"""Shared utilities: validation, timing and the runtime event journal."""

from repro.util.timing import WallTimer
from repro.util.validation import (
    check_multiple_of,
    check_positive,
    check_range,
)

__all__ = [
    "WallTimer",
    "check_multiple_of",
    "check_positive",
    "check_range",
]
