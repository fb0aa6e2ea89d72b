"""Encoder configuration.

The FEVES evaluation (paper §IV) follows the VCEG common conditions [11]:
IPPP GOP, Baseline profile, QP = 27 for the I slice and 28 for P slices,
Full-Search Block-Matching ME, square search areas (SA) of 32–256 pixels
per side and 1–8 reference frames.

A "32×32 SA" in the paper means displacements of ±16 pixels around the
co-located position, i.e. ``search_range = SA_side // 2``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.util.validation import check_multiple_of, check_range

#: Macroblock side in luma pixels (H.264/AVC fixed value).
MB_SIZE = 16

#: The 7 inter partition modes of H.264/AVC, as (height, width) in pixels.
PARTITION_MODES: tuple[tuple[int, int], ...] = (
    (16, 16),
    (16, 8),
    (8, 16),
    (8, 8),
    (8, 4),
    (4, 8),
    (4, 4),
)


@dataclass(frozen=True)
class CodecConfig:
    """Static encoding parameters shared by every device and module.

    Parameters
    ----------
    width, height:
        Luma frame dimensions; must be multiples of 16 (whole macroblocks).
    search_range:
        FSBM displacement bound per axis; the paper's "SA size" equals
        ``2 * search_range`` (e.g. 32×32 SA ⇒ ``search_range=16``).
    num_ref_frames:
        Maximum number of reconstructed reference frames used by ME/SME.
    qp_i, qp_p:
        Quantization parameters for I and P slices (VCEG: 27 / 28).
    enabled_partitions:
        Subset of :data:`PARTITION_MODES` evaluated during mode decision.
    subpel:
        When ``False``, SME is skipped and full-pel MVs are used directly
        (useful for ablations; the paper always refines).
    subpel_metric:
        Distortion metric for the SME candidate search: ``"sad"`` (paper)
        or ``"satd"`` (Hadamard-domain, better RD at ~3× the arithmetic).
    entropy_coder:
        Residual coefficient coder: ``"lite"`` (vectorized CAVLC-lite,
        default) or ``"cavlc"`` (CAVLC-structured: trailing ones +
        adaptive level codes — see :mod:`repro.codec.cavlc`).
    num_slices:
        Horizontal slices per frame (groups of MB rows). Intra prediction
        never crosses a slice boundary.
    deblock_across_slices:
        When ``False`` the loop filter skips slice-boundary edges, making
        DBL slice-parallel at a small quality/rate cost (see
        ``benchmarks/test_slices.py``).
    """

    #: 1080p defaults; like every H.264 encoder we code 1080 lines as 68 MB
    #: rows (1088 coded samples, bottom 8 cropped at display).
    width: int = 1920
    height: int = 1088
    search_range: int = 16
    num_ref_frames: int = 1
    qp_i: int = 27
    qp_p: int = 28
    enabled_partitions: tuple[tuple[int, int], ...] = field(
        default=PARTITION_MODES
    )
    subpel: bool = True
    subpel_metric: str = "sad"
    entropy_coder: str = "lite"
    num_slices: int = 1
    deblock_across_slices: bool = True

    def __post_init__(self) -> None:
        if self.entropy_coder not in ("lite", "cavlc"):
            raise ValueError(
                f"entropy_coder must be 'lite' or 'cavlc', got "
                f"{self.entropy_coder!r}"
            )
        if self.subpel_metric not in ("sad", "satd"):
            raise ValueError(
                f"subpel_metric must be 'sad' or 'satd', got "
                f"{self.subpel_metric!r}"
            )
        check_multiple_of("width", self.width, MB_SIZE)
        check_multiple_of("height", self.height, MB_SIZE)
        check_range("search_range", self.search_range, 1, 256)
        check_range("num_ref_frames", self.num_ref_frames, 1, 16)
        check_range("qp_i", self.qp_i, 0, 51)
        check_range("qp_p", self.qp_p, 0, 51)
        if not self.enabled_partitions:
            raise ValueError("enabled_partitions must not be empty")
        for part in self.enabled_partitions:
            if part not in PARTITION_MODES:
                raise ValueError(f"unknown partition mode {part!r}")
        if (16, 16) not in self.enabled_partitions:
            raise ValueError("the 16x16 partition mode is mandatory")
        if not 1 <= self.num_slices <= self.height // MB_SIZE:
            raise ValueError(
                f"num_slices must be in 1..{self.height // MB_SIZE}, "
                f"got {self.num_slices}"
            )

    @property
    def sa_side(self) -> int:
        """Search-area side in pixels, as quoted by the paper (2×range)."""
        return 2 * self.search_range

    @property
    def mb_cols(self) -> int:
        """Number of macroblock columns."""
        return self.width // MB_SIZE

    @property
    def mb_rows(self) -> int:
        """Number of macroblock rows — the framework's unit of distribution."""
        return self.height // MB_SIZE

    @property
    def sf_halo_rows(self) -> int:
        """Extra SF MB rows fetched above/below an SME band so vertical MV
        components stay inside transferred data."""
        return -(-(self.search_range + 1) // MB_SIZE)

    def with_qp(self, qp: int) -> "CodecConfig":
        """This configuration at P-slice QP ``qp`` — one rung of a QP
        ladder. Everything but the two QPs is held fixed; the I slice
        sits one step below the P slices (VCEG: 27 / 28)."""
        check_range("qp", qp, 0, 51)
        return replace(self, qp_i=max(0, qp - 1), qp_p=qp)

    def lambda_for(self, qp: int) -> float:
        """Mode-decision Lagrangian for the given QP: the standard
        ``0.85 * 2**((QP - 12) / 3)``, weighting MV/mode rate against
        distortion."""
        return 0.85 * 2.0 ** ((qp - 12) / 3.0)
