"""Interconnect (PCIe) link model.

Accelerators fetch data from host DRAM over an interconnect with
*asymmetric* bandwidth — the paper's Performance Characterization
explicitly measures host→device (hd) and device→host (dh) directions
separately — plus a fixed per-transfer latency that penalizes many small
transfers (which is why the Data Access Management block coalesces
row-range transfers).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.util.validation import check_positive


@dataclass(frozen=True)
class LinkSpec:
    """PCIe-style link characteristics.

    Attributes
    ----------
    h2d_gbps / d2h_gbps:
        Sustained bandwidth in GB/s (10⁹ bytes) per direction.
    latency_s:
        Fixed setup cost per transfer.
    copy_engines:
        1 = a single copy engine shared by both directions (transfers in
        opposite directions serialize, as on the paper's Fermi GPUs);
        2 = dual copy engines (h2d and d2h overlap, as on Kepler).
    """

    h2d_gbps: float
    d2h_gbps: float
    latency_s: float = 10e-6
    copy_engines: int = 1

    def __post_init__(self) -> None:
        check_positive("h2d_gbps", self.h2d_gbps)
        check_positive("d2h_gbps", self.d2h_gbps)
        if self.latency_s < 0:
            raise ValueError("latency_s must be >= 0")
        if self.copy_engines not in (1, 2):
            raise ValueError(f"copy_engines must be 1 or 2, got {self.copy_engines}")

    def transfer_s(self, nbytes: float, direction: str) -> float:
        """Simulated seconds to move ``nbytes`` in ``"h2d"`` or ``"d2h"``."""
        if nbytes < 0:
            raise ValueError(f"nbytes must be >= 0, got {nbytes}")
        if nbytes == 0:
            return 0.0
        if direction == "h2d":
            bw = self.h2d_gbps
        elif direction == "d2h":
            bw = self.d2h_gbps
        else:
            raise ValueError(f"direction must be 'h2d' or 'd2h', got {direction!r}")
        return self.latency_s + nbytes / (bw * 1e9)


#: Bytes per sub-partition motion vector: int16 dy, dx + ref byte + flags.
MV_BYTES_PER_PART = 6


@dataclass(frozen=True)
class BufferSizes:
    """Bytes moved per MB row for each inter-loop buffer (paper Fig. 5).

    Derived from the codec geometry: CF/RF rows are 16 luma lines (plus
    4:2:0 chroma where the consumer needs it), the SF is 16× the luma area,
    and MV rows carry every sub-partition's vector.
    """

    width: int
    height: int

    @property
    def cf_row(self) -> int:
        """Current-frame luma bytes per MB row (ME/SME input)."""
        return 16 * self.width

    @property
    def cf_row_full(self) -> int:
        """Current-frame YUV bytes per MB row (MC input)."""
        return 16 * self.width * 3 // 2

    @property
    def rf_frame(self) -> int:
        """Full reconstructed reference frame (YUV 4:2:0)."""
        return self.width * self.height * 3 // 2

    @property
    def rf_row(self) -> int:
        """Reconstructed RF bytes per MB row (YUV 4:2:0)."""
        return 16 * self.width * 3 // 2

    @property
    def sf_row(self) -> int:
        """SF bytes per MB row: 16 quarter-pel samples per luma pixel."""
        return 16 * 16 * self.width

    @property
    def mv_row(self) -> int:
        """Motion-vector bytes per MB row (41 sub-partitions per MB)."""
        return (self.width // 16) * 41 * MV_BYTES_PER_PART
