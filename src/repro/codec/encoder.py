"""Single-device reference encoder.

Runs the complete H.264/AVC inter loop of Fig. 1 sequentially on one
device: ME → INT → SME → MC → TQ → TQ⁻¹ → DBL → entropy accounting. The
FEVES framework must produce *bit-exact* identical reconstructions and bit
counts when it splits ME/INT/SME across devices — the integration tests in
``tests/core`` assert exactly that.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.codec.config import CodecConfig
from repro.codec.deblock import deblock_frame
from repro.codec.frames import YuvFrame
from repro.codec.gop import ReferenceStore
from repro.codec.interpolation import interpolate_plane
from repro.codec.intra import intra_encode_frame
from repro.codec.mc import motion_compensate
from repro.codec.me import motion_estimate_rows
from repro.codec.quality import frame_psnr
from repro.codec.entropy import get_coder
from repro.codec.residual import code_chroma_plane, code_luma_plane, reconstruct
from repro.codec.slices import dbl_skip_luma_rows
from repro.codec.sme import SubpelField, subpel_refine_rows
from repro.codec.syntax import FrameSyntax


@dataclass
class EncodedFrame:
    """Per-frame encoding outcome."""

    index: int
    is_intra: bool
    bits: int
    psnr: dict[str, float]
    recon: YuvFrame
    mode_histogram: dict[tuple[int, int], int] = field(default_factory=dict)
    syntax: FrameSyntax | None = None

    @property
    def bytes(self) -> float:
        return self.bits / 8.0


@dataclass
class ResidualData:
    """Everything the residual stage produces for one inter frame."""

    recon: YuvFrame          # prediction + reconstructed residual (pre-DBL)
    bits: int                # exact entropy-coder cost of all levels
    cnz4: np.ndarray         # luma 4×4 non-zero grid (DBL input)
    luma: "object"           # CodedPlane
    u: "object"              # CodedChromaPlane
    v: "object"              # CodedChromaPlane


def encode_inter_residual_full(
    cur: YuvFrame,
    pred: YuvFrame,
    qp: int,
    coder=None,
) -> ResidualData:
    """TQ/TQ⁻¹ the inter residual, keeping all syntax elements."""
    # uint8 − uint8 is 9 bits: the residual is formed at TQ's own width.
    coded_y = code_luma_plane(cur.y.astype(np.int16) - pred.y, qp, False, coder)
    coded_u = code_chroma_plane(cur.u.astype(np.int16) - pred.u, qp, False, coder)
    coded_v = code_chroma_plane(cur.v.astype(np.int16) - pred.v, qp, False, coder)
    recon = YuvFrame(
        reconstruct(pred.y, coded_y.recon_residual),
        reconstruct(pred.u, coded_u.recon_residual),
        reconstruct(pred.v, coded_v.recon_residual),
    )
    bits = coded_y.bits + coded_u.bits + coded_v.bits
    return ResidualData(
        recon=recon, bits=bits, cnz4=coded_y.cnz4,
        luma=coded_y, u=coded_u, v=coded_v,
    )


def encode_intra(
    cur: YuvFrame, cfg: CodecConfig, index: int, keep_syntax: bool = False
) -> EncodedFrame:
    """Code one I frame: intra prediction + TQ/TQ⁻¹ → DBL.

    The one host-intra path: the reference encoder and the framework's
    (untimed) I frames both call it, then reset their reference store to
    ``recon``.
    """
    result = intra_encode_frame(cur, cfg)
    h, w = cur.y.shape
    recon = deblock_frame(
        result.recon,
        np.zeros((h // 4, w // 4, 2), dtype=np.int32),
        np.full((h // 4, w // 4), -1, dtype=np.int32),
        result.cnz4,
        np.ones((h // 4, w // 4), dtype=bool),
        cfg.qp_i,
        skip_luma_rows=dbl_skip_luma_rows(cfg),
    )
    return EncodedFrame(
        index=index,
        is_intra=True,
        bits=result.bits,
        psnr=frame_psnr(cur, recon),
        recon=recon,
        syntax=FrameSyntax(is_intra=True, intra=result) if keep_syntax else None,
    )


def encode_rstar(
    cur: YuvFrame,
    sme_field: SubpelField,
    sfs: list[np.ndarray],
    chroma: list[tuple[np.ndarray, np.ndarray]],
    cfg: CodecConfig,
    index: int,
    keep_syntax: bool = False,
) -> EncodedFrame:
    """The R* block of one P frame: MC → TQ/TQ⁻¹ + entropy → DBL.

    The paper maps this block to a single device, and it exists once:
    the reference encoder, the sim backend's in-process executor and the
    process backend (on the host, after the τ2 barrier) all call it with
    the merged SME field, which is why their outputs are bit-identical.
    """
    qp = cfg.qp_p
    mc = motion_compensate(cur, sme_field, sfs, chroma, cfg, qp)
    res = encode_inter_residual_full(
        cur, mc.pred, qp, coder=get_coder(cfg.entropy_coder)
    )
    h, w = cur.y.shape
    recon = deblock_frame(
        res.recon, mc.mv4, mc.ref4, res.cnz4,
        np.zeros((h // 4, w // 4), dtype=bool), qp,
        skip_luma_rows=dbl_skip_luma_rows(cfg),
    )
    syntax = None
    if keep_syntax:
        syntax = FrameSyntax(
            is_intra=False,
            mode_idx=mc.mode_idx,
            mv4=mc.mv4,
            ref4=mc.ref4,
            mode_shapes=sme_field.mode_shapes,
            luma_levels=res.luma.levels,
            u_ac=res.u.ac_levels,
            u_dc=res.u.dc_levels,
            v_ac=res.v.ac_levels,
            v_dc=res.v.dc_levels,
        )
    return EncodedFrame(
        index=index,
        is_intra=False,
        bits=res.bits + mc.header_bits,
        psnr=frame_psnr(cur, recon),
        recon=recon,
        mode_histogram={
            shape: int((mc.mode_idx == mode_i).sum())
            for mode_i, shape in enumerate(sme_field.mode_shapes)
        },
        syntax=syntax,
    )


class ReferenceEncoder:
    """Sequential H.264/AVC inter-loop encoder (ground truth for FEVES)."""

    def __init__(
        self,
        cfg: CodecConfig,
        keep_syntax: bool = False,
        gop_size: int = 0,
        scene_cut_threshold: float | None = None,
    ) -> None:
        """``gop_size`` > 0 inserts an I frame every that many frames
        (periodic intra refresh); 0 codes a single leading I frame.

        ``scene_cut_threshold`` enables adaptive intra placement: when the
        mean absolute luma difference against the previous *source* frame
        exceeds the threshold (a scene change — inter prediction would be
        useless), the frame is coded intra and the GOP restarts.
        """
        if gop_size < 0:
            raise ValueError("gop_size must be >= 0")
        if scene_cut_threshold is not None and scene_cut_threshold <= 0:
            raise ValueError("scene_cut_threshold must be > 0")
        self.cfg = cfg
        self.keep_syntax = keep_syntax
        self.gop_size = gop_size
        self.scene_cut_threshold = scene_cut_threshold
        self.store = ReferenceStore(max_refs=cfg.num_ref_frames)
        self._frame_index = 0
        self._prev_source_y: np.ndarray | None = None
        self.scene_cuts: list[int] = []

    def reset(self) -> None:
        """Forget all references; the next frame is coded intra.

        Scene-cut state goes too: ``scene_cuts`` indexes the sequence
        just ended, and its last source frame must not be compared with
        the first frame of the next one.
        """
        self.store = ReferenceStore(max_refs=self.cfg.num_ref_frames)
        self._frame_index = 0
        self._prev_source_y = None
        self.scene_cuts = []

    def encode_frame(self, cur: YuvFrame) -> EncodedFrame:
        """Encode the next frame (I if first of the GOP, P otherwise)."""
        if cur.y.shape != (self.cfg.height, self.cfg.width):
            raise ValueError(
                f"frame {cur.y.shape} does not match config "
                f"{(self.cfg.height, self.cfg.width)}"
            )
        idx = self._frame_index
        self._frame_index += 1
        intra_now = idx == 0 or (self.gop_size > 0 and idx % self.gop_size == 0)
        if (
            not intra_now
            and self.scene_cut_threshold is not None
            and self._prev_source_y is not None
        ):
            diff = float(
                np.abs(
                    cur.y.astype(np.int32) - self._prev_source_y.astype(np.int32)
                ).mean()
            )
            if diff > self.scene_cut_threshold:
                intra_now = True
                self.scene_cuts.append(idx)
        self._prev_source_y = cur.y
        if intra_now:
            encoded = encode_intra(cur, self.cfg, idx, self.keep_syntax)
            self.store.reset(encoded.recon)
            return encoded
        return self._encode_inter(cur, idx)

    def _encode_inter(self, cur: YuvFrame, idx: int) -> EncodedFrame:
        cfg = self.cfg
        mb_rows = cfg.mb_rows

        # INT: interpolate the newest RF (produced by the previous frame).
        self.store.push_sf(interpolate_plane(self.store.frames[0].y))

        refs = self.store.active_refs()
        sfs = self.store.active_sfs()

        # ME over the full frame.
        me_field = motion_estimate_rows(
            cur.y, [r.y for r in refs], 0, mb_rows, cfg
        )
        # SME refinement.
        sme_field = subpel_refine_rows(cur.y, sfs, me_field, 0, mb_rows, cfg)
        # R*: MC, TQ/TQ⁻¹, entropy accounting, DBL.
        encoded = encode_rstar(
            cur, sme_field, sfs, self.store.active_chroma(), cfg, idx,
            self.keep_syntax,
        )
        self.store.push(encoded.recon)
        return encoded

    def encode_sequence(self, frames: list[YuvFrame]) -> list[EncodedFrame]:
        """Encode a list of frames as one IPPP GOP."""
        return [self.encode_frame(f) for f in frames]
