"""Benchmark-side span recorder.

The traced pass wraps public methods of the program *from here* (class
attributes are swapped for timing shims and restored afterwards), so the
program itself carries no tracing code. Spans nest by call order on the
one thread the workloads run on; a span's self time is its duration
minus its direct children's.
"""

from __future__ import annotations

import functools
import json
import statistics
import time
from collections import defaultdict
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from pathlib import Path
from typing import Any

#: Spans written to a trace file at most (the recorder keeps them all).
TRACE_FILE_SPAN_CAP = 100_000


class Recorder:
    """Collects ``(name, t0, t1, parent, ident)`` spans in memory."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.t0: list[float] = []
        self.t1: list[float] = []
        self.parent: list[int] = []
        self.ident: list[Any] = []
        self._stack: list[int] = []
        self._wrapped: list[tuple[type, str, Any]] = []
        self._grouped: dict[str, tuple[int, dict[str, list[float]]]] = {}
        #: Identifier (frame or stream id) stamped on spans opened now.
        self.current_ident: Any = None

    # ------------------------------ recording ----------------------------

    def _open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.ident.append(self.current_ident)
        self.t1.append(0.0)
        self._stack.append(idx)
        self.t0.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.t1[idx] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, cls: type, method: str, name: str) -> None:
        """Time every call of ``cls.method`` as a span called ``name``."""
        original = cls.__dict__[method]

        @functools.wraps(original)
        def shim(*args: Any, **kwargs: Any) -> Any:
            idx = self._open(name)
            try:
                return original(*args, **kwargs)
            finally:
                self._close(idx)

        self._wrapped.append((cls, method, original))
        setattr(cls, method, shim)

    def restore(self) -> None:
        """Put every wrapped method back (idempotent)."""
        while self._wrapped:
            cls, method, original = self._wrapped.pop()
            setattr(cls, method, original)

    @contextmanager
    def installed(
        self, targets: list[tuple[type, str, str]]
    ) -> Iterator["Recorder"]:
        try:
            for cls, method, name in targets:
                self.wrap(cls, method, name)
            yield self
        finally:
            self.restore()

    # ------------------------------ analysis -----------------------------

    def __len__(self) -> int:
        return len(self.names)

    def durations(self) -> list[float]:
        return [b - a for a, b in zip(self.t0, self.t1, strict=True)]

    def self_times(self) -> list[float]:
        """Per span: duration minus the time its direct children cover."""
        out = self.durations()
        for idx, parent in enumerate(self.parent):
            if parent >= 0:
                out[parent] -= self.t1[idx] - self.t0[idx]
        return out

    def _by_name(self, key: str, values: Callable[[], list[float]]) -> dict[str, list[float]]:
        """Per-span values grouped by span name, computed once per length."""
        memo = self._grouped.get(key)
        if memo is None or memo[0] != len(self):
            groups: dict[str, list[float]] = defaultdict(list)
            for name, v in zip(self.names, values(), strict=True):
                groups[name].append(v)
            memo = self._grouped[key] = (len(self), groups)
        return memo[1]

    def durations_by_name(self) -> dict[str, list[float]]:
        return self._by_name("durations", self.durations)

    def self_times_by_name(self) -> dict[str, list[float]]:
        return self._by_name("self", self.self_times)

    def root_total(self) -> float:
        """Wall time covered by spans that have no parent."""
        return sum(
            self.t1[i] - self.t0[i]
            for i, parent in enumerate(self.parent)
            if parent < 0
        )

    # ------------------------------- export ------------------------------

    def chrome_trace(self, cap: int = TRACE_FILE_SPAN_CAP) -> dict[str, Any]:
        """Chrome ``traceEvents`` (complete events, microseconds)."""
        if not self.names:
            return {"traceEvents": [], "truncated": False}
        base = min(self.t0)
        events = [
            {
                "name": self.names[i],
                "ph": "X",
                "pid": 1,
                "tid": 1,
                "ts": (self.t0[i] - base) * 1e6,
                "dur": (self.t1[i] - self.t0[i]) * 1e6,
                "args": {"span": i, "parent": self.parent[i], "id": self.ident[i]},
            }
            for i in range(min(len(self.names), cap))
        ]
        return {"traceEvents": events, "truncated": len(self.names) > cap}

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.chrome_trace()))


def median_of(
    groups: dict[str, list[float]], name: str, scale: float = 1.0
) -> float:
    """Median of one span name's samples (0.0 when it never ran)."""
    values = groups.get(name)
    return statistics.median(values) * scale if values else 0.0


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile, ``q`` in [0, 100] (0.0 if empty)."""
    if not values:
        return 0.0
    s = sorted(values)
    pos = (len(s) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def timed(fn: Callable[[], Any]) -> tuple[Any, float]:
    """``(result, wall seconds)`` of one call."""
    t0 = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0
