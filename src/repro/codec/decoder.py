"""Standalone decoder: reconstructs frames from the serialized bitstream.

Mirrors the encoder's reconstruction loop exactly — same SF interpolation,
same clamped quarter-pel luma / eighth-pel chroma prediction, same TQ⁻¹ and
deblocking — so decoding an encoded stream yields reconstructions
bit-identical to the encoder's reference frames, with zero drift across
arbitrarily long GOPs (asserted in ``tests/codec/test_stream.py``).
"""

from __future__ import annotations

import numpy as np

from repro.codec.bitstream import BitReader
from repro.codec.config import MB_SIZE, CodecConfig
from repro.codec.deblock import deblock_frame
from repro.codec.frames import YuvFrame
from repro.codec.gop import ReferenceStore
from repro.codec.interpolation import interpolate_plane
from repro.codec.intra4 import neighbours4, predict4
from repro.codec.intra_pred import predict_block
from repro.codec.mc import build_prediction
from repro.codec.partitions import get_mode
from repro.codec.residual import (
    decode_chroma_levels,
    decode_luma_levels,
    reconstruct,
)
from repro.codec.slices import dbl_skip_luma_rows, slice_start_luma_rows
from repro.codec.syntax import (
    ParsedInterFrame,
    ParsedIntraFrame,
    read_frame,
    read_sequence_header,
)
from repro.codec.transform import MAX_LEVEL


class SequenceDecoder:
    """Decodes a sequence of frame packets produced by the stream encoder."""

    def __init__(self, cfg: CodecConfig) -> None:
        self.cfg = cfg
        self.store = ReferenceStore(max_refs=cfg.num_ref_frames)
        self._frames_decoded = 0

    @classmethod
    def from_header(cls, header: bytes) -> "SequenceDecoder":
        """Construct from a serialized sequence header packet."""
        return cls(read_sequence_header(BitReader(header)))

    def decode_packet(self, packet: bytes) -> YuvFrame:
        """Decode one frame packet and return the reconstructed frame."""
        r = BitReader(packet)
        is_intra, parsed = read_frame(r, self.cfg)
        for name in ("luma_levels", "u_ac", "u_dc", "v_ac", "v_dc"):
            if np.abs(getattr(parsed, name)).max(initial=0) > MAX_LEVEL:
                raise ValueError(f"{name}: coefficient level outside ±{MAX_LEVEL}")
        self._frames_decoded += 1
        if is_intra:
            assert isinstance(parsed, ParsedIntraFrame)
            return self._decode_intra(parsed)
        assert isinstance(parsed, ParsedInterFrame)
        return self._decode_inter(parsed)

    def conceal_lost_frame(self) -> YuvFrame:
        """Frame-copy error concealment for a lost packet.

        Repeats the newest reference as this frame's reconstruction and
        advances the reference window, so decoding can continue (with
        drift) until the next intra refresh. Raises if no reference exists
        yet (a lost I frame cannot be concealed).
        """
        if not self.store.frames:
            raise RuntimeError("cannot conceal: no reference frame decoded yet")
        self._frames_decoded += 1
        self.store.push_sf(interpolate_plane(self.store.frames[0].y))
        recon = self.store.frames[0].copy()
        self.store.push(recon)
        return recon

    # ------------------------------------------------------------------------

    def _decode_intra(self, p: ParsedIntraFrame) -> YuvFrame:
        cfg = self.cfg
        qp = cfg.qp_i
        h, w = cfg.height, cfg.width
        recon_y = np.zeros((h, w), dtype=np.uint8)
        recon_u = np.zeros((h // 2, w // 2), dtype=np.uint8)
        recon_v = np.zeros((h // 2, w // 2), dtype=np.uint8)
        cnz4 = np.zeros((h // 4, w // 4), dtype=bool)
        assert p.luma_modes is not None and p.chroma_modes is not None
        assert p.mb_types is not None and p.i4_modes is not None
        luma_starts = slice_start_luma_rows(cfg)
        chroma_starts = frozenset(row // 2 for row in luma_starts)
        for mr in range(cfg.mb_rows):
            for mc in range(cfg.mb_cols):
                mb = mr * cfg.mb_cols + mc
                y0, x0 = mr * MB_SIZE, mc * MB_SIZE
                cy0, cx0 = y0 // 2, x0 // 2
                if p.mb_types[mb] == 0:
                    pred = predict_block(
                        recon_y, y0, x0, MB_SIZE, int(p.luma_modes[mb]),
                        has_top=y0 not in luma_starts,
                    )
                    res = decode_luma_levels(
                        p.luma_levels[mb].astype(np.int32), 16, 16, qp
                    )
                    recon_y[y0 : y0 + 16, x0 : x0 + 16] = reconstruct(pred, res)
                else:
                    for blk in range(16):
                        by, bx = divmod(blk, 4)
                        br, bc = y0 + 4 * by, x0 + 4 * bx
                        top, left, corner, tr = neighbours4(
                            recon_y, br, bc,
                            has_top=br not in luma_starts,
                        )
                        pred4 = predict4(
                            int(p.i4_modes[mb, blk]), top, left, corner, tr
                        )
                        res4 = decode_luma_levels(
                            p.luma_levels[mb, blk : blk + 1].astype(np.int32),
                            4, 4, qp,
                        )
                        recon_y[br : br + 4, bc : bc + 4] = reconstruct(
                            pred4, res4
                        )
                cnz4[y0 // 4 : y0 // 4 + 4, x0 // 4 : x0 // 4 + 4] = (
                    p.luma_levels[mb] != 0
                ).any(axis=(1, 2)).reshape(4, 4)
                for plane_rec, ac, dc in (
                    (recon_u, p.u_ac, p.u_dc),
                    (recon_v, p.v_ac, p.v_dc),
                ):
                    pred_c = predict_block(
                        plane_rec, cy0, cx0, 8, int(p.chroma_modes[mb]),
                        has_top=cy0 not in chroma_starts,
                    )
                    res_c = decode_chroma_levels(
                        ac[mb].astype(np.int32), dc[mb : mb + 1], 8, 8, qp
                    )
                    plane_rec[cy0 : cy0 + 8, cx0 : cx0 + 8] = reconstruct(
                        pred_c, res_c
                    )
        intra4 = np.ones((h // 4, w // 4), dtype=bool)
        mv4 = np.zeros((h // 4, w // 4, 2), dtype=np.int32)
        ref4 = np.full((h // 4, w // 4), -1, dtype=np.int32)
        recon = deblock_frame(
            YuvFrame(recon_y, recon_u, recon_v), mv4, ref4, cnz4, intra4, qp,
            skip_luma_rows=dbl_skip_luma_rows(cfg),
        )
        self.store.reset(recon)
        return recon

    def _decode_inter(self, p: ParsedInterFrame) -> YuvFrame:
        cfg = self.cfg
        qp = cfg.qp_p
        h, w = cfg.height, cfg.width

        # INT: same single-RF interpolation schedule as the encoder.
        self.store.push_sf(interpolate_plane(self.store.frames[0].y))
        sfs = self.store.active_sfs()
        chroma = self.store.active_chroma()

        # Expand the decoded MV grid into per-mode arrays for MC.
        shapes = cfg.enabled_partitions
        qmvs: dict[tuple[int, int], np.ndarray] = {}
        refs: dict[tuple[int, int], np.ndarray] = {}
        rr, cc = np.meshgrid(
            np.arange(cfg.mb_rows), np.arange(cfg.mb_cols), indexing="ij"
        )
        for shape in shapes:
            mode = get_mode(shape)
            q = np.zeros((cfg.mb_rows, cfg.mb_cols, mode.nparts, 2), dtype=np.int32)
            f = np.zeros((cfg.mb_rows, cfg.mb_cols, mode.nparts), dtype=np.int32)
            for pi, (oy, ox) in enumerate(mode.origins):
                gy = 4 * rr + int(oy) // 4
                gx = 4 * cc + int(ox) // 4
                q[:, :, pi] = p.mv4[gy, gx]
                f[:, :, pi] = p.ref4[gy, gx]
            qmvs[shape] = q
            refs[shape] = f

        pred, mv4, ref4 = build_prediction(
            p.mode_idx, shapes, qmvs, refs, sfs, chroma, h, w
        )

        res_y = decode_luma_levels(p.luma_levels, h, w, qp)
        res_u = decode_chroma_levels(p.u_ac, p.u_dc, h // 2, w // 2, qp)
        res_v = decode_chroma_levels(p.v_ac, p.v_dc, h // 2, w // 2, qp)
        recon = YuvFrame(
            reconstruct(pred.y, res_y),
            reconstruct(pred.u, res_u),
            reconstruct(pred.v, res_v),
        )
        cnz4 = (p.luma_levels != 0).any(axis=(1, 2)).reshape(h // 4, w // 4)
        intra4 = np.zeros((h // 4, w // 4), dtype=bool)
        recon = deblock_frame(
            recon, mv4, ref4, cnz4, intra4, qp,
            skip_luma_rows=dbl_skip_luma_rows(cfg),
        )
        self.store.push(recon)
        return recon
