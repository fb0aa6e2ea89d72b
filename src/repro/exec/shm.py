"""Shared-memory frame buffers for the ``process`` backend.

One :class:`SharedFrameStore` owns every pixel buffer a frame's
collaborative schedule touches, as named ``multiprocessing.shared_memory``
segments the worker processes attach to by name — so work items carry only
``(row0, nrows)`` coordinates and never pickle pixel data.

Slot layout (all ``uint8``, one segment per slot):

================  =========================  =====================================
slot              shape                      contents
================  =========================  =====================================
``cur``           ``(H, W)``                 current-frame luma (ME/SME input)
``ref<k>``        ``(H + 2sr, W + 2sr)``     reference ``k`` luma, replicate-padded
                                             by the search range (ME reads the
                                             padded plane directly; INT reads the
                                             centred ``(H, W)`` view of ``ref0``)
``sf<k>``         ``(4H, 4W)``               quarter-pel SF of reference ``k``
================  =========================  =====================================

Writer discipline: the host is the single writer of ``cur``, ``ref*`` and
the previous-frame SFs (``sf1..``), all staged before any phase-1 work is
submitted. The one exception is ``sf0`` — the SF interpolated *this*
frame — which INT workers fill in place, each writing its disjoint
``64·nrows``-pixel row band; the τ1 barrier orders those writes before any
SME read. Reference windows need no per-device Δm/Δl management here:
every worker sees the whole padded plane, a superset of any Δ window.

That discipline is held by plain tests of the real path
(``tests/exec/test_sanitize_exec.py``): the host's staging → τ1 → SME
call order, an INT task's writes confined to its band, and the chunks
the host submits partitioning the frame.

Lifetime: :meth:`SharedFrameStore.close` unlinks every segment. A host
killed before it can close leaves them to ``multiprocessing``'s resource
tracker, which unlinks them once every process holding its pipe has
exited — the host and its workers, which leave when the host does (see
``pool._worker_loop``).
"""

from __future__ import annotations

from dataclasses import dataclass
from multiprocessing import shared_memory

import numpy as np

from repro.codec.config import CodecConfig
from repro.util.journal import record as _proto_journal

#: Every slot stores 8-bit samples.
SLOT_DTYPE = np.uint8

#: ``{key: (segment name, shape)}`` — everything a worker needs to attach.
Layout = dict[str, tuple[str, tuple[int, int]]]


@dataclass(frozen=True)
class SlotSpec:
    """Geometry of one shared buffer."""

    key: str
    shape: tuple[int, int]

    @property
    def nbytes(self) -> int:
        return int(self.shape[0]) * int(self.shape[1])


def slot_specs(cfg: CodecConfig) -> list[SlotSpec]:
    """The slots one codec configuration needs (see module docstring)."""
    h, w, sr = cfg.height, cfg.width, cfg.search_range
    specs = [SlotSpec("cur", (h, w))]
    for k in range(cfg.num_ref_frames):
        specs.append(SlotSpec(f"ref{k}", (h + 2 * sr, w + 2 * sr)))
    for k in range(cfg.num_ref_frames):
        specs.append(SlotSpec(f"sf{k}", (4 * h, 4 * w)))
    return specs


class SharedFrameStore:
    """Owner of the shared segments (create → use → ``close()`` exactly once).

    The store both closes and unlinks every segment; worker processes only
    ever attach (``create=False``) and drop their mappings when the pool
    shuts down. Construction is exception-safe: if any segment fails to
    allocate, the ones already created are released before the error
    propagates.
    """

    def __init__(self, cfg: CodecConfig) -> None:
        self.cfg = cfg
        self._segments: dict[str, shared_memory.SharedMemory] = {}
        self._shapes: dict[str, tuple[int, int]] = {}
        self._views: dict[str, np.ndarray] = {}
        self._closed = False
        try:
            for spec in slot_specs(cfg):
                seg = shared_memory.SharedMemory(create=True, size=spec.nbytes)
                self._segments[spec.key] = seg
                self._shapes[spec.key] = spec.shape
        except BaseException:
            self.close()
            raise
        _proto_journal(self, "create")

    def layout(self) -> Layout:
        """Attachment info for the pool initializer."""
        return {k: (seg.name, self._shapes[k]) for k, seg in self._segments.items()}

    def view(self, key: str) -> np.ndarray:
        """Host-side array over a slot (valid until :meth:`close`)."""
        _proto_journal(self, "view", detail=key)
        if self._closed:
            raise RuntimeError("shared frame store is closed")
        arr = self._views.get(key)
        if arr is None:
            seg = self._segments[key]
            arr = np.ndarray(self._shapes[key], dtype=SLOT_DTYPE, buffer=seg.buf)
            self._views[key] = arr
        return arr

    def close(self) -> None:
        """Release and unlink every segment (idempotent)."""
        _proto_journal(self, "close")
        if self._closed:
            return
        self._closed = True
        # Views hold buffer exports; mmap refuses to close while any live.
        self._views.clear()
        errors: list[BaseException] = []
        for seg in self._segments.values():
            try:
                seg.close()
                seg.unlink()
            except FileNotFoundError:
                pass
            except OSError as exc:
                errors.append(exc)
        self._segments.clear()
        if errors:
            raise errors[0]

    def __enter__(self) -> "SharedFrameStore":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
