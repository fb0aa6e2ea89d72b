"""The frame plan: one inter frame's row split as executable rows.

Paper Algorithm 1 keeps the decision (the LP's m/l/s row split) apart
from its execution (the Video Coding Manager). A :class:`FramePlan` is
the bridge: a pure value built once per inter frame, read by three
consumers that derive none of it again — the DES
(:class:`~repro.core.coding_manager.VideoCodingManager`) times its rows,
the in-process executor (``RealContext.execute``, the sim backend's
``encode()``) runs them serially on the host after the DES, and the
worker pool (:class:`~repro.exec.backend.ProcessBackend`) submits them to
the workers their slots name. A device faulted this frame has no rows
of its own: its bands are *redo* rows on the fallback's slots, keyed by
its index, so every band merge sees the bands a clean frame gives.
"""

from __future__ import annotations

from collections.abc import Collection, Sequence
from itertools import accumulate
from typing import NamedTuple

from repro.core.load_balancing import LoadDecision
from repro.hw.topology import Platform


def split_band(band: tuple[int, int], n_chunks: int) -> list[tuple[int, int]]:
    """Split ``[start, stop)`` into ≤ ``n_chunks`` contiguous near-equal bands."""
    start, stop = band
    total = stop - start
    if total <= 0:
        return []
    n = max(1, min(n_chunks, total))
    base, extra = divmod(total, n)
    out: list[tuple[int, int]] = []
    row = start
    for j in range(n):
        nrows = base + (1 if j < extra else 0)
        out.append((row, row + nrows))
        row += nrows
    return out


def worker_group_sizes(n_devices: int, n_workers: int) -> list[int]:
    """Executor slots per device group (every device gets at least one)."""
    if n_devices < 1:
        raise ValueError(f"need at least one device, got {n_devices}")
    base, extra = divmod(max(n_workers, n_devices), n_devices)
    return [base + (1 if i < extra else 0) for i in range(n_devices)]


_TAGS = {"int": "INT", "me": "ME", "sme": "SME"}


class Row(NamedTuple):
    """One band of one module, placed on one executor slot.

    ``owner`` is the index of the device whose band it is (the merge
    key), ``device`` the index of the device that runs it, on slot
    ``slot`` (the pool's worker index; the DES has one slot per device).
    They differ only on a ``redo`` row: a faulted owner's band rerun on
    the fallback, never fed to the Performance Characterization.
    """

    module: str  # "int" | "me" | "sme"
    owner: int
    band: tuple[int, int]  # [start, stop) MB rows
    device: int
    slot: int
    redo: bool

    def label(self, names: Sequence[str]) -> str:
        """``"ME[dev]"``, or ``"ME-redo[owner->fallback]"`` for a redo row."""
        tag = _TAGS[self.module]
        if self.redo:
            return f"{tag}-redo[{names[self.owner]}->{names[self.device]}]"
        return f"{tag}[{names[self.owner]}]"


class FramePlan(NamedTuple):
    """One inter frame's executable rows (see the module docstring).

    ``phase1`` holds each owner's INT rows then its ME rows, ``phase2``
    the SME rows; owners come in device order and a band's chunks in row
    order, so each module's rows are in band order.
    """

    frame_index: int
    decision: LoadDecision
    rstar_device: str
    #: References this frame's ME searches (ramps up after an I frame).
    active_refs: int
    live: frozenset[str]
    #: Live devices dying during this frame, and the live ones that do not.
    faulted: frozenset[str]
    survivors: frozenset[str]
    phase1: tuple[Row, ...]
    phase2: tuple[Row, ...]

    @classmethod
    def build(
        cls,
        platform: Platform,
        frame_index: int,
        decision: LoadDecision,
        rstar_device: str,
        active_refs: int,
        live: Collection[str] | None = None,
        faulted: Collection[str] = (),
        fallback: str | None = None,
        workers: int = 1,
    ) -> FramePlan:
        """Validate the frame's placement and lay its bands out on slots.

        ``live`` is the devices in this frame (None = all; evicted ones
        have zero rows in ``decision`` already). ``faulted`` are live
        devices dying *during* it: their bands become redo rows on
        ``fallback``, a required survivor then. ``workers`` is the
        executor's width, split over the survivors by
        :func:`worker_group_sizes` (1 gives one slot per device).
        """
        names = [d.name for d in platform.devices]
        live_set = frozenset(names) if live is None else frozenset(live)
        dying = frozenset(faulted)
        survivors = live_set - dying
        if rstar_device not in survivors:
            raise ValueError(
                f"R* device {rstar_device!r} is not a live survivor this frame"
            )
        fb = -1
        if dying:
            if fallback is None or fallback not in survivors:
                raise ValueError(
                    f"a faulted frame needs a live fallback device, got {fallback!r}"
                )
            fb = names.index(fallback)
        alive = [i for i, name in enumerate(names) if name in survivors]
        first: dict[int, int] = {}
        size: dict[int, int] = {}
        slot = 0
        for i, n in zip(alive, worker_group_sizes(len(alive), workers), strict=True):
            first[i], size[i] = slot, n
            slot += n
        phase1: list[Row] = []
        phase2: list[Row] = []
        cuts = [
            (module, list(accumulate(dist.rows, initial=0)), phase)
            for module, dist, phase in (
                ("int", decision.l, phase1), ("me", decision.m, phase1),
                ("sme", decision.s, phase2),
            )
        ]
        for i, name in enumerate(names):
            if name not in live_set:
                continue
            dev = fb if name in dying else i
            slot, k, redo = first[dev], size[dev], dev != i
            for module, starts, phase in cuts:
                for j, chunk in enumerate(split_band((starts[i], starts[i + 1]), k)):
                    phase.append(Row(module, i, chunk, dev, slot + j, redo))
        return cls(
            frame_index, decision, rstar_device, active_refs, live_set, dying,
            survivors, tuple(phase1), tuple(phase2),
        )
