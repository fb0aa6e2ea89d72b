"""CAVLC-structured coefficient coder."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.codec.bitstream import BitReader, BitWriter
from repro.codec.cavlc import CavlcCoder
from repro.codec.entropy import LiteCoder, get_coder

levels = st.integers(min_value=-512, max_value=512)
small_levels = st.integers(min_value=-3, max_value=3)


@pytest.fixture
def coder():
    return CavlcCoder()


class TestRoundTrip:
    @given(arrays(np.int64, (4, 4), elements=levels))
    @settings(max_examples=150, deadline=None)
    def test_block_roundtrip(self, block):
        coder = CavlcCoder()
        w = BitWriter()
        coder.write_block(w, block)
        r = BitReader(w.to_bytes())
        np.testing.assert_array_equal(coder.read_block(r), block)

    @given(arrays(np.int64, (4, 4), elements=small_levels))
    @settings(max_examples=100, deadline=None)
    def test_block_roundtrip_trailing_one_heavy(self, block):
        """Small-magnitude blocks stress the trailing-ones path."""
        coder = CavlcCoder()
        w = BitWriter()
        coder.write_block(w, block)
        r = BitReader(w.to_bytes())
        np.testing.assert_array_equal(coder.read_block(r), block)

    @given(arrays(np.int64, (2, 2), elements=levels))
    @settings(max_examples=80, deadline=None)
    def test_chroma_dc_roundtrip(self, dc):
        coder = CavlcCoder()
        w = BitWriter()
        coder.write_chroma_dc(w, dc)
        r = BitReader(w.to_bytes())
        np.testing.assert_array_equal(coder.read_chroma_dc(r), dc)

    def test_huge_levels_escape_path(self, coder):
        block = np.zeros((4, 4), dtype=np.int64)
        block[0, 0] = 30_000
        block[0, 1] = -30_000
        w = BitWriter()
        coder.write_block(w, block)
        r = BitReader(w.to_bytes())
        np.testing.assert_array_equal(coder.read_block(r), block)

    def test_adaptive_suffix_sequence(self, coder):
        """A run of growing magnitudes exercises the suffix ramp."""
        block = np.zeros((4, 4), dtype=np.int64)
        vals = [200, -90, 40, -18, 9, 5, -3, 2]
        for i, v in enumerate(vals):
            block[i // 4, i % 4] = v
        w = BitWriter()
        coder.write_block(w, block)
        r = BitReader(w.to_bytes())
        np.testing.assert_array_equal(coder.read_block(r), block)


class TestBitAccounting:
    def test_block_bits_matches_writing(self, coder, rng):
        blocks = rng.integers(-20, 21, (12, 4, 4)).astype(np.int64)
        bits = coder.block_bits(blocks)
        for k in range(12):
            w = BitWriter()
            coder.write_block(w, blocks[k])
            assert bits[k] == w.bit_count

    def test_zero_block_is_one_bit(self, coder):
        assert coder.block_bits(np.zeros((1, 4, 4), dtype=np.int64))[0] == 1

    def test_trailing_ones_cheaper_than_lite(self, coder):
        """The point of CAVLC: trailing ±1 coefficients are nearly free."""
        lite = LiteCoder()
        block = np.zeros((4, 4), dtype=np.int64)
        block[0, 0] = 7
        block[0, 1] = 1
        block[1, 0] = -1
        block[2, 0] = 1
        assert coder.block_bits(block[None])[0] < lite.block_bits(block[None])[0]

    def test_typical_residuals_cheaper_than_lite(self, rng):
        """On quantized-residual-like data (sparse, small, low-frequency)
        the structured coder should win on average."""
        from repro.codec.transform import forward_transform, quantize

        res = rng.integers(-25, 26, (200, 4, 4)).astype(np.int64)
        blocks = quantize(forward_transform(res), 30, False)
        cav = CavlcCoder().block_bits(blocks).sum()
        lite = LiteCoder().block_bits(blocks).sum()
        assert cav < lite


class TestFactory:
    def test_get_coder(self):
        assert isinstance(get_coder("lite"), LiteCoder)
        assert isinstance(get_coder("cavlc"), CavlcCoder)
        with pytest.raises(ValueError):
            get_coder("cabac")

    def test_config_validation(self):
        from repro.codec.config import CodecConfig

        with pytest.raises(ValueError, match="entropy_coder"):
            CodecConfig(entropy_coder="cabac")


class TestEndToEnd:
    def test_encoder_with_cavlc_bit_exact_stream(self):
        """Full pipeline with entropy_coder='cavlc': closed decode loop."""
        from repro.codec.config import CodecConfig
        from repro.codec.decoder import SequenceDecoder
        from repro.codec.stream import StreamEncoder
        from repro.video.generator import SyntheticSequence

        cfg = CodecConfig(width=128, height=96, search_range=8,
                          num_ref_frames=2, entropy_coder="cavlc")
        clip = SyntheticSequence(width=128, height=96, seed=41).frames(4)
        enc = StreamEncoder(cfg)
        dec = SequenceDecoder.from_header(enc.sequence_header())
        assert dec.cfg.entropy_coder == "cavlc"
        for f in clip:
            stats, packet = enc.encode_frame(f)
            rec = dec.decode_packet(packet)
            np.testing.assert_array_equal(stats.recon.y, rec.y)
            np.testing.assert_array_equal(stats.recon.u, rec.u)

    def test_cavlc_stream_smaller_on_typical_content(self):
        from repro.codec.config import CodecConfig
        from repro.codec.stream import StreamEncoder
        from repro.video.generator import SyntheticSequence

        clip = SyntheticSequence(width=128, height=96, seed=41,
                                 noise_sigma=2.0).frames(4)
        sizes = {}
        for coder in ("lite", "cavlc"):
            cfg = CodecConfig(width=128, height=96, search_range=8,
                              num_ref_frames=2, entropy_coder=coder)
            enc = StreamEncoder(cfg)
            sizes[coder] = sum(len(enc.encode_frame(f)[1]) for f in clip)
        assert sizes["cavlc"] < sizes["lite"]

    def test_framework_real_mode_with_cavlc(self):
        """Collaborative encoding respects the configured coder."""
        from repro.codec.config import CodecConfig
        from repro.codec.encoder import ReferenceEncoder
        from repro.core.config import FrameworkConfig
        from repro.core.framework import FevesFramework
        from repro.hw.presets import get_platform
        from repro.video.generator import SyntheticSequence

        cfg = CodecConfig(width=128, height=96, search_range=8,
                          entropy_coder="cavlc")
        clip = SyntheticSequence(width=128, height=96, seed=43).frames(4)
        ref = ReferenceEncoder(cfg).encode_sequence(clip)
        fw = FevesFramework(get_platform("SysHK"), cfg,
                            FrameworkConfig())
        out = fw.encode(clip)
        for r, o in zip(ref, out, strict=True):
            assert o.encoded is not None and r.bits == o.encoded.bits
