"""Slices: geometry, prediction barriers, slice-parallel deblocking."""

import numpy as np
import pytest

from repro.codec.config import CodecConfig
from repro.codec.decoder import SequenceDecoder
from repro.codec.encoder import ReferenceEncoder
from repro.codec.slices import (
    dbl_skip_luma_rows,
    slice_bounds,
    slice_start_luma_rows,
    slice_start_mb_rows,
)
from repro.codec.stream import StreamEncoder
from repro.video.generator import SyntheticSequence


class TestGeometry:
    def test_bounds_cover_frame(self):
        for rows, n in ((6, 1), (6, 3), (68, 4), (7, 3)):
            bounds = slice_bounds(rows, n)
            assert bounds[0][0] == 0 and bounds[-1][1] == rows
            for (a0, a1), (b0, b1) in zip(bounds, bounds[1:], strict=False):
                assert a1 == b0
            sizes = [b - a for a, b in bounds]
            assert max(sizes) - min(sizes) <= 1

    def test_invalid_counts(self):
        with pytest.raises(ValueError):
            slice_bounds(6, 0)
        with pytest.raises(ValueError):
            slice_bounds(6, 7)

    def test_start_rows(self):
        cfg = CodecConfig(width=128, height=96, num_slices=3)
        assert slice_start_mb_rows(cfg) == frozenset({0, 2, 4})
        assert slice_start_luma_rows(cfg) == frozenset({0, 32, 64})

    def test_dbl_skip_rows(self):
        on = CodecConfig(width=128, height=96, num_slices=3)
        assert dbl_skip_luma_rows(on) == frozenset()
        off = CodecConfig(width=128, height=96, num_slices=3,
                          deblock_across_slices=False)
        assert dbl_skip_luma_rows(off) == frozenset({32, 64})

    def test_config_validation(self):
        with pytest.raises(ValueError, match="num_slices"):
            CodecConfig(width=128, height=96, num_slices=7)


class TestSliceIndependence:
    def test_intra_slices_decode_from_top_of_slice(self):
        """The first MB row of every slice predicts without top samples —
        changing content *above* a slice must not change intra prediction
        decisions at the slice start (independence)."""
        cfg = CodecConfig(width=128, height=96, search_range=8, num_slices=3)
        seq = SyntheticSequence(width=128, height=96, seed=13, noise_sigma=0)
        a = seq.frame(0)
        b = a.copy()
        b.y[:16] = 255 - b.y[:16]  # mangle slice 0 content only
        from repro.codec.intra import intra_encode_frame

        ra = intra_encode_frame(a, cfg)
        rb = intra_encode_frame(b, cfg)
        # Slice 1 starts at MB row 2 (pixel 32): its first-row predictions
        # cannot see slice 0, so identical content ⇒ identical recon there.
        np.testing.assert_array_equal(ra.recon.y[32:48], rb.recon.y[32:48])

    def test_single_slice_first_rows_depend_on_above(self):
        """Control: without slices the same change does propagate."""
        cfg = CodecConfig(width=128, height=96, search_range=8, num_slices=1)
        seq = SyntheticSequence(width=128, height=96, seed=13, noise_sigma=0)
        a = seq.frame(0)
        b = a.copy()
        b.y[:16] = 255 - b.y[:16]
        from repro.codec.intra import intra_encode_frame

        ra = intra_encode_frame(a, cfg)
        rb = intra_encode_frame(b, cfg)
        assert not np.array_equal(ra.recon.y[32:48], rb.recon.y[32:48])


class TestSliceParallelDbl:
    def test_deblock_skip_isolates_slices(self):
        """With cross-slice filtering off, each slice's DBL output depends
        only on that slice's samples — the property that makes the filter
        slice-parallel."""
        import numpy as np

        from repro.codec.deblock import BlockInfo, deblock_plane

        rng = np.random.default_rng(3)
        plane = rng.integers(0, 256, (96, 64), dtype=np.uint8)
        info = BlockInfo(
            mv=np.zeros((24, 16, 2), dtype=np.int32),
            ref=np.zeros((24, 16), dtype=np.int32),
            cnz=np.ones((24, 16), dtype=bool),
            intra=np.zeros((24, 16), dtype=bool),
        )
        skip = frozenset({32, 64})
        whole = deblock_plane(plane, info, qp=36, skip_luma_rows=skip)
        # Filter each slice separately and stitch.
        parts = []
        for a, b in ((0, 32), (32, 64), (64, 96)):
            sub_info = BlockInfo(
                mv=info.mv[a // 4 : b // 4],
                ref=info.ref[a // 4 : b // 4],
                cnz=info.cnz[a // 4 : b // 4],
                intra=info.intra[a // 4 : b // 4],
            )
            parts.append(deblock_plane(plane[a:b], sub_info, qp=36))
        np.testing.assert_array_equal(whole, np.vstack(parts))

    def test_cross_slice_filtering_differs(self):
        import numpy as np

        from repro.codec.deblock import BlockInfo, deblock_plane

        # A filterable step exactly at the slice boundary (row 32): small
        # enough for |p0-q0| < alpha at QP 36, with coded coefficients so
        # bS = 2.
        plane = np.full((96, 64), 80, dtype=np.uint8)
        plane[32:] = 95
        info = BlockInfo(
            mv=np.zeros((24, 16, 2), dtype=np.int32),
            ref=np.zeros((24, 16), dtype=np.int32),
            cnz=np.ones((24, 16), dtype=bool),
            intra=np.zeros((24, 16), dtype=bool),
        )
        on = deblock_plane(plane, info, qp=36)
        off = deblock_plane(plane, info, qp=36,
                            skip_luma_rows=frozenset({32, 64}))
        assert not np.array_equal(on, off)
        # The skipped edge keeps the hard step; the filtered one smooths it.
        assert abs(int(off[32, 0]) - int(off[31, 0])) == 15
        assert abs(int(on[32, 0]) - int(on[31, 0])) < 15


class TestEndToEnd:
    @pytest.mark.parametrize("slices,across", [(2, True), (3, False)])
    def test_closed_loop(self, slices, across):
        cfg = CodecConfig(width=128, height=96, search_range=8,
                          num_ref_frames=2, num_slices=slices,
                          deblock_across_slices=across)
        clip = SyntheticSequence(width=128, height=96, seed=3).frames(4)
        enc = StreamEncoder(cfg)
        dec = SequenceDecoder.from_header(enc.sequence_header())
        assert dec.cfg.num_slices == slices
        assert dec.cfg.deblock_across_slices == across
        for f in clip:
            stats, packet = enc.encode_frame(f)
            rec = dec.decode_packet(packet)
            np.testing.assert_array_equal(stats.recon.y, rec.y)
            np.testing.assert_array_equal(stats.recon.v, rec.v)

    def test_slices_cost_bits(self):
        """Restricting prediction must cost bits, but only a little."""
        clip = SyntheticSequence(width=128, height=96, seed=3).frames(4)
        bits = {}
        for n in (1, 3):
            cfg = CodecConfig(width=128, height=96, search_range=8,
                              num_slices=n)
            out = ReferenceEncoder(cfg).encode_sequence(clip)
            bits[n] = sum(f.bits for f in out)
        assert bits[3] >= bits[1]
        assert bits[3] < 1.15 * bits[1]

    def test_collaborative_bit_exact_with_slices(self):
        from repro.core.config import FrameworkConfig
        from repro.core.framework import FevesFramework
        from repro.hw.presets import get_platform

        cfg = CodecConfig(width=128, height=96, search_range=8, num_slices=3,
                          deblock_across_slices=False)
        clip = SyntheticSequence(width=128, height=96, seed=3).frames(4)
        ref = ReferenceEncoder(cfg).encode_sequence(clip)
        fw = FevesFramework(get_platform("SysNFF"), cfg,
                            FrameworkConfig())
        out = fw.encode(clip)
        for r, o in zip(ref, out, strict=True):
            assert r.bits == o.encoded.bits
            np.testing.assert_array_equal(r.recon.y, o.encoded.recon.y)
