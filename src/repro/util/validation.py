"""Argument-validation helpers used across the package.

All helpers raise :class:`ValueError` with a message naming the offending
parameter, so configuration mistakes surface at construction time rather
than deep inside a vectorized kernel.
"""

from __future__ import annotations


def check_positive(name: str, value: float) -> None:
    """Raise ``ValueError`` unless ``value`` is strictly positive."""
    if not value > 0:
        raise ValueError(f"{name} must be > 0, got {value!r}")


def check_range(name: str, value: float, lo: float, hi: float) -> None:
    """Raise ``ValueError`` unless ``lo <= value <= hi``."""
    if not (lo <= value <= hi):
        raise ValueError(f"{name} must be in [{lo}, {hi}], got {value!r}")


def check_multiple_of(name: str, value: int, base: int) -> None:
    """Raise ``ValueError`` unless ``value`` is a positive multiple of ``base``."""
    if value <= 0 or value % base != 0:
        raise ValueError(f"{name} must be a positive multiple of {base}, got {value!r}")
