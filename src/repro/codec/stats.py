"""Sequence-level rate/distortion statistics and R-D sweeps."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.codec.config import CodecConfig
from repro.codec.encoder import EncodedFrame, ReferenceEncoder
from repro.codec.frames import YuvFrame


@dataclass
class SequenceStats:
    """Aggregated statistics of one encoded sequence."""

    n_frames: int
    total_bits: int
    mean_psnr_y: float
    mean_psnr_u: float
    mean_psnr_v: float
    intra_bits: int
    inter_bits: int
    mode_histogram: dict[tuple[int, int], int] = field(default_factory=dict)

    @property
    def mean_bits_per_frame(self) -> float:
        return self.total_bits / self.n_frames if self.n_frames else 0.0

    def kbps(self, fps: float) -> float:
        """Bitrate in kbit/s at a given display rate."""
        if fps <= 0:
            raise ValueError("fps must be > 0")
        return self.mean_bits_per_frame * fps / 1000.0


def summarize(frames: list[EncodedFrame]) -> SequenceStats:
    """Aggregate per-frame outcomes into sequence statistics."""
    if not frames:
        raise ValueError("no frames to summarize")
    finite = [f for f in frames if f.psnr["y"] != float("inf")]
    psnr_src = finite or frames
    hist: dict[tuple[int, int], int] = {}
    for f in frames:
        for shape, n in f.mode_histogram.items():
            hist[shape] = hist.get(shape, 0) + n
    return SequenceStats(
        n_frames=len(frames),
        total_bits=sum(f.bits for f in frames),
        mean_psnr_y=sum(f.psnr["y"] for f in psnr_src) / len(psnr_src),
        mean_psnr_u=sum(f.psnr["u"] for f in psnr_src) / len(psnr_src),
        mean_psnr_v=sum(f.psnr["v"] for f in psnr_src) / len(psnr_src),
        intra_bits=sum(f.bits for f in frames if f.is_intra),
        inter_bits=sum(f.bits for f in frames if not f.is_intra),
        mode_histogram=hist,
    )


@dataclass(frozen=True)
class RdPoint:
    """One rate/distortion operating point."""

    qp: int
    bits: int
    psnr_y: float


def rd_sweep(
    frames: list[YuvFrame],
    base_cfg: CodecConfig,
    qps: tuple[int, ...] = (22, 27, 32, 37),
) -> list[RdPoint]:
    """Encode the sequence at several QPs (VCEG-style R-D curve)."""
    points: list[RdPoint] = []
    for qp in qps:
        out = ReferenceEncoder(base_cfg.with_qp(qp)).encode_sequence(frames)
        stats = summarize(out)
        points.append(RdPoint(qp=qp, bits=stats.total_bits, psnr_y=stats.mean_psnr_y))
    return points
