"""Host-speed calibration: a fixed kernel timed beside every measured block.

The suite's hosts are a few cores of a shared machine whose speed drifts
by tens of percent over minutes (other tenants on the same sockets), so
two sets of runs of the *same* commit disagree by more than any bound a
wall-clock metric could carry. Every wall-clock end-to-end metric is
therefore measured in blocks, with a short kernel of fixed work timed
before and after each block; the block's wall time is divided by how much
slower than the reference host that kernel ran just then. What is
reported is "time at reference host speed": equal to the stopwatch on a
quiet reference host, and steady when the host is not.

The kernels share no code with the program under test, so a change to
the program moves the metric in full. There are two, because contention
does not slow every instruction mix alike (in a noisy phase the
interpreter loses up to 70 % where array code loses 25 %), and a reading
blends them in the proportion of the work it stands beside:

- ``py``: interpreter-bound (dict, heap, float and small-array traffic);
- ``np``: array-bound (the shape of a full-search SAD batch on a CIF
  strip).
"""

from __future__ import annotations

import heapq
import statistics
import time
from collections.abc import Callable

import numpy as np

#: Median seconds of one kernel call on the reference host (the 2-core
#: shared host the suite was sized on, in a quiet phase). Only ratios to
#: these matter; changing one rescales every metric normalised by it.
REF_S = {"py": 1.02e-3, "np": 1.93e-3}


def _py_kernel() -> float:
    heap: list[tuple[float, int]] = []
    table: dict[int, float] = {}
    small = np.arange(6, dtype=np.float64)
    acc = 0.0
    for i in range(2400):
        key = (i * 7919) % 257
        table[key] = table.get(key, 0.0) + i * 0.5
        heapq.heappush(heap, (table[key], i))
        if i & 3 == 3:
            acc += heapq.heappop(heap)[0]
        if i & 31 == 31:
            acc += float((small * acc).sum())
    return acc


_rng = np.random.default_rng(2014)
_CUR = _rng.integers(0, 256, (16, 352), dtype=np.uint8)
_REF = _rng.integers(0, 256, (16 + 7, 352 + 7), dtype=np.uint8)
_WINDOWS = np.lib.stride_tricks.sliding_window_view(_REF, (16, 352)).reshape(
    -1, 16, 352
)


def _np_kernel() -> int:
    ad = np.abs(_WINDOWS.astype(np.int16) - _CUR.astype(np.int16))
    cells = ad.astype(np.int32).reshape(len(ad), 4, 4, 88, 4).sum(axis=(2, 4))
    return int(cells.min())


_KERNELS: dict[str, Callable[[], object]] = {"py": _py_kernel, "np": _np_kernel}


class Calibrator:
    """Callable giving the host's slowness *now*: 1.0 = reference speed.

    One reading times ``np_ticks`` calls of the ``np`` kernel and
    ``py_ticks`` of the ``py`` kernel, takes the median of each over its
    reference time, and blends the two by ``np_share`` — the share of the
    measured work that is array-bound (``np_share`` in its params; chosen per
    workload as the blend that kept a 25-minute series of fixed blocks
    steadiest through the host's noisy phases). Readings and the wall
    time they took are kept, for ``bench.host_speed`` and so that callers
    can take calibration out of the walls they report.
    """

    def __init__(self, np_share: float, np_ticks: int, py_ticks: int) -> None:
        self.np_share = np_share
        self.np_ticks = np_ticks
        self.py_ticks = py_ticks
        self.readings: list[float] = []
        self.spent_s = 0.0
        self()  # first call pays for lazy allocation; not a reading
        self.readings.clear()

    @staticmethod
    def _slowness(kind: str, ticks: int) -> float:
        kernel = _KERNELS[kind]
        walls = []
        for _ in range(ticks):
            t0 = time.perf_counter()
            kernel()
            walls.append(time.perf_counter() - t0)
        return statistics.median(walls) / REF_S[kind]

    def __call__(self) -> float:
        t_in = time.perf_counter()
        slowness = (
            self.np_share * self._slowness("np", self.np_ticks)
            + (1.0 - self.np_share) * self._slowness("py", self.py_ticks)
        )
        self.readings.append(slowness)
        self.spent_s += time.perf_counter() - t_in
        return slowness

    def host_speed(self) -> float:
        """Reference time over measured time: below 1.0 on a slower host."""
        return 1.0 / statistics.median(self.readings)


def at_reference_speed(walls: list[float], readings: list[float]) -> list[float]:
    """``walls[i]`` over the mean of the readings taken before and after it."""
    assert len(readings) == len(walls) + 1
    return [
        w / ((a + b) / 2.0)
        for w, a, b in zip(walls, readings[:-1], readings[1:], strict=True)
    ]
