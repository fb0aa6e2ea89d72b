"""Serial encoder that runs the codec stage by stage under spans.

Calls the same public kernels, in the same order, as
``ReferenceEncoder._encode_inter`` / ``_encode_intra`` — the traced pass
checks that it reproduces the reference frames bit-exactly, so each
``codec.*`` span times exactly what the reference encoder spends there.
"""

from __future__ import annotations

import numpy as np

from repro.codec.config import CodecConfig
from repro.codec.encoder import (
    EncodedFrame,
    deblock_frame,
    encode_inter_residual_full,
)
from repro.codec.entropy import get_coder
from repro.codec.frames import YuvFrame
from repro.codec.gop import ReferenceStore
from repro.codec.interpolation import interpolate_plane
from repro.codec.intra import intra_encode_frame
from repro.codec.mc import motion_compensate
from repro.codec.me import motion_estimate_rows
from repro.codec.quality import frame_psnr
from repro.codec.slices import dbl_skip_luma_rows
from repro.codec.sme import subpel_refine_rows

from fevesbench.spans import Recorder


class StagedEncoder:
    """IPPP encoder over one GOP (frame 0 intra, the rest inter)."""

    def __init__(self, cfg: CodecConfig, rec: Recorder) -> None:
        self.cfg = cfg
        self.rec = rec
        self.coder = get_coder(cfg.entropy_coder)
        self.store = ReferenceStore(max_refs=cfg.num_ref_frames)
        self._index = 0

    def encode_frame(self, cur: YuvFrame) -> EncodedFrame:
        idx = self._index
        self._index += 1
        self.rec.current_ident = idx
        with self.rec.span("codec.frame"):
            if idx == 0:
                return self._intra(cur, idx)
            return self._inter(cur, idx)

    def _intra(self, cur: YuvFrame, idx: int) -> EncodedFrame:
        cfg = self.cfg
        h, w = cur.y.shape
        with self.rec.span("codec.intra"):
            result = intra_encode_frame(cur, cfg)
            recon = deblock_frame(
                result.recon,
                np.zeros((h // 4, w // 4, 2), dtype=np.int32),
                np.full((h // 4, w // 4), -1, dtype=np.int32),
                result.cnz4,
                np.ones((h // 4, w // 4), dtype=bool),
                cfg.qp_i,
                skip_luma_rows=dbl_skip_luma_rows(cfg),
            )
        self.store.reset(recon)
        return EncodedFrame(
            index=idx, is_intra=True, bits=result.bits,
            psnr=frame_psnr(cur, recon), recon=recon,
        )

    def _inter(self, cur: YuvFrame, idx: int) -> EncodedFrame:
        cfg, rec, store = self.cfg, self.rec, self.store
        qp = cfg.qp_p
        h, w = cur.y.shape
        mb_rows = h // 16
        with rec.span("codec.interpolation"):
            store.push_sf(interpolate_plane(store.frames[0].y))
        refs = store.active_refs()
        sfs = store.active_sfs()
        with rec.span("codec.me"):
            me_field = motion_estimate_rows(
                cur.y, [r.y for r in refs], 0, mb_rows, cfg
            )
        with rec.span("codec.sme"):
            sme_field = subpel_refine_rows(cur.y, sfs, me_field, 0, mb_rows, cfg)
        with rec.span("codec.mc"):
            mc = motion_compensate(
                cur, sme_field, sfs, store.active_chroma(), cfg, qp
            )
        with rec.span("codec.residual"):
            res = encode_inter_residual_full(cur, mc.pred, qp, coder=self.coder)
        with rec.span("codec.deblock"):
            recon = deblock_frame(
                res.recon, mc.mv4, mc.ref4, res.cnz4,
                np.zeros((h // 4, w // 4), dtype=bool), qp,
                skip_luma_rows=dbl_skip_luma_rows(cfg),
            )
        store.push(recon)
        hist = {
            shape: int((mc.mode_idx == mode_i).sum())
            for mode_i, shape in enumerate(sme_field.mode_shapes)
        }
        return EncodedFrame(
            index=idx, is_intra=False, bits=res.bits + mc.header_bits,
            psnr=frame_psnr(cur, recon), recon=recon, mode_histogram=hist,
        )
