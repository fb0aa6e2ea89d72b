"""Data Access Management: buffer states and automatic transfer planning.

Implements paper Fig. 5: given a :class:`LoadDecision`, produce the exact
host↔device transfers each accelerator needs in each synchronization phase,
maximizing reuse of data already on the device:

- phase 1 (…τ1): newest RF in (unless the device reconstructed it locally
  by running R* last frame), CF rows for ME, extra CF rows for SME (Δm),
  the deferred SF remainder of the previous frame (σʳ⁻¹), own SF band out,
  own ME MVs out;
- phase 2 (τ1…τ2): Δl SF rows in, Δm MVs in, SME MVs out; the R* device
  additionally streams in the remaining CF (full YUV) and SF for MC;
- phase 3 (τ2…τtot): R* device gets the missing SME MVs and sends the new
  RF back; other accelerators receive as much of the still-missing SF as
  fits (σ), deferring the rest (σʳ) to the next frame.

The manager also carries the cross-frame state: which device holds the
newest RF, and each accelerator's σʳ backlog.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from repro.core.load_balancing import LoadDecision
from repro.core.perf_model import BUFFERS, buffer_row_bytes
from repro.hw.interconnect import BufferSizes
from repro.hw.topology import Platform


@dataclass(frozen=True)
class TransferItem:
    """One host↔device transfer of whole MB rows of a logical buffer."""

    device: str
    buffer: str          # cf | cf_full | rf | sf | mv
    direction: str       # h2d | d2h
    rows: int
    nbytes: int
    phase: int           # 1, 2 or 3
    label: str

    def __post_init__(self) -> None:
        if self.rows < 0 or self.nbytes < 0:
            raise ValueError(f"negative transfer size: {self}")
        if self.direction not in ("h2d", "d2h"):
            raise ValueError(f"bad direction {self.direction!r}")
        if self.phase not in (1, 2, 3):
            raise ValueError(f"bad phase {self.phase}")


@dataclass
class TransferPlan:
    """All transfers of one frame, grouped per accelerator."""

    items: list[TransferItem] = field(default_factory=list)

    def total_bytes(self, direction: str | None = None) -> int:
        return sum(
            t.nbytes
            for t in self.items
            if direction is None or t.direction == direction
        )

    # Summed once per plan (complete when built), not once per frame that
    # reuses it: a frame's report keeps these, not the plan.
    @cached_property
    def h2d_bytes(self) -> int:
        return self.total_bytes("h2d")

    @cached_property
    def d2h_bytes(self) -> int:
        return self.total_bytes("d2h")


class DataAccessManager:
    """Plans transfers and tracks cross-frame device buffer state."""

    def __init__(
        self, platform: Platform, sizes: BufferSizes, enable_parking: bool = True
    ) -> None:
        self.platform = platform
        self.sizes = sizes
        self._row_bytes = {buf: buffer_row_bytes(buf, sizes) for buf in BUFFERS}
        self.enable_parking = enable_parking
        #: device name → rows of SF deferred from the previous frame.
        self.sigma_r_rows: dict[str, int] = {
            d.name: 0 for d in platform.devices if d.is_accelerator
        }
        #: which device reconstructed the newest RF (None = host/CPU).
        self.rf_holder: str | None = None
        #: accelerators with no assigned work whose SF mirror has gone
        #: stale (no σ maintenance); reactivating one costs a full SF
        #: refetch. Prevents idle devices from dragging τ1 with pointless
        #: catch-up transfers over slow links.
        self.parked: set[str] = set()

    @staticmethod
    def _has_work(decision: LoadDecision, index: int) -> bool:
        return (
            decision.m.rows[index] + decision.l.rows[index] + decision.s.rows[index]
        ) > 0

    def needs_rf(self) -> dict[str, bool]:
        """Per accelerator: whether the newest RF must be sent h2d."""
        return {
            d.name: d.name != self.rf_holder
            for d in self.platform.devices
            if d.is_accelerator
        }

    def plan(
        self,
        decision: LoadDecision,
        rstar_device: str,
        live: frozenset[str] | set[str] | None = None,
    ) -> TransferPlan:
        """Build the transfer plan of one frame from the load decision.

        ``live`` (None = all) drops every transfer to/from devices outside
        it — used on the frame a fault strikes, when the decision still
        assigns the faulted device rows but its link is gone.
        """
        plan = TransferPlan()
        row_bytes = self._row_bytes
        n = decision.m.total
        needs = self.needs_rf()

        def add(dev: str, buf: str, direction: str, rows: int, phase: int, label: str) -> None:
            if rows <= 0:
                return
            plan.items.append(
                TransferItem(
                    device=dev,
                    buffer=buf,
                    direction=direction,
                    rows=rows,
                    nbytes=rows * row_bytes[buf],
                    phase=phase,
                    label=label,
                )
            )

        for i, dev in enumerate(self.platform.devices):
            if not dev.is_accelerator:
                continue
            name = dev.name
            if live is not None and name not in live:
                continue
            m_i = decision.m.rows[i]
            l_i = decision.l.rows[i]
            s_i = decision.s.rows[i]
            dm = decision.delta_m[i].rows
            dl = decision.delta_l[i].rows
            is_rstar = name == rstar_device
            active = (
                self._has_work(decision, i)
                or is_rstar
                or not self.enable_parking
            )
            if not active:
                continue  # parked: no transfers at all this frame

            # A parked device rejoining the computation must refetch the
            # SF it stopped mirroring (approximated as one full SF).
            sigma_r_eff = self.sigma_r_rows.get(name, 0)
            if name in self.parked:
                sigma_r_eff = n

            # --- phase 1 -----------------------------------------------------
            if needs[name]:
                add(name, "rf", "h2d", n, 1, "RF")
            add(name, "cf", "h2d", m_i, 1, "CF->ME")
            add(name, "cf", "h2d", dm, 1, "CF->SME")
            add(name, "sf", "h2d", sigma_r_eff, 1, "SF(RF-1)->SME")
            add(name, "sf", "d2h", l_i, 1, "SF(RF)->host")
            add(name, "mv", "d2h", m_i, 1, "MV->SME")

            # --- phase 2 -----------------------------------------------------
            add(name, "sf", "h2d", dl, 2, "SF(RF)->SME")
            add(name, "mv", "h2d", dm, 2, "MV->SME")
            if is_rstar:
                add(name, "cf_full", "h2d", max(0, n - m_i - dm), 2, "CF->MC")
                add(name, "sf", "h2d", max(0, n - l_i - dl), 2, "SF->MC")
            else:
                add(name, "mv", "d2h", s_i, 2, "MV(SME)->host")

            # --- phase 3 -----------------------------------------------------
            if is_rstar:
                add(name, "mv", "h2d", max(0, n - s_i), 3, "MV->MC")
                add(name, "rf", "d2h", n, 3, "RF+1->host")
            else:
                sg = decision.sigma.get(name)
                add(name, "sf", "h2d", sg.rows if sg else 0, 3, "SF->SME+1")
        return plan

    def reset_after_intra(self) -> None:
        """Invalidate accelerator buffer state after an intra refresh.

        The new RF is reconstructed on the host and every previously
        transferred SF belongs to the discarded reference window, so all
        accelerators must refetch from scratch.
        """
        self.rf_holder = None
        self.parked.clear()  # the new GOP starts with an empty SF store
        for name in self.sigma_r_rows:
            self.sigma_r_rows[name] = 0

    def evict(self, name: str) -> None:
        """Drop a faulted device from the cross-frame buffer state.

        Its SF mirror is treated as gone (parked ⇒ full refetch on
        re-admission) and, if it held the newest RF, the holder resets —
        the host always keeps a copy (RF streams d2h every frame), so
        survivors simply refetch over their own links.
        """
        dev = self.platform.device(name)
        if not dev.is_accelerator:
            return
        self.parked.add(name)
        self.sigma_r_rows[name] = 0
        if self.rf_holder == name:
            self.rf_holder = None

    def commit(
        self,
        decision: LoadDecision,
        rstar_device: str,
        live: frozenset[str] | set[str] | None = None,
    ) -> None:
        """Advance cross-frame state after the frame executed.

        Devices outside ``live`` are treated as parked (stale mirrors),
        exactly like :meth:`evict`.
        """
        rstar_is_accel = self.platform.device(rstar_device).is_accelerator
        self.rf_holder = rstar_device if rstar_is_accel else None
        for i, dev in enumerate(self.platform.devices):
            if not dev.is_accelerator:
                continue
            name = dev.name
            if live is not None and name not in live:
                self.parked.add(name)
                self.sigma_r_rows[name] = 0
                continue
            if self.enable_parking and not (
                self._has_work(decision, i) or name == rstar_device
            ):
                self.parked.add(name)
                self.sigma_r_rows[name] = 0
                continue
            self.parked.discard(name)
            if name == rstar_device:
                self.sigma_r_rows[name] = 0
            else:
                rem = decision.sigma_r.get(name)
                self.sigma_r_rows[name] = rem.rows if rem else 0
