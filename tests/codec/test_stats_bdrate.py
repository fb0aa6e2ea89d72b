"""Sequence statistics, R-D sweeps and BD metrics."""

import pytest

from repro.codec.bdrate import bd_rate
from repro.codec.config import CodecConfig
from repro.codec.encoder import ReferenceEncoder
from repro.codec.stats import RdPoint, rd_sweep, summarize
from repro.video.generator import SyntheticSequence


@pytest.fixture(scope="module")
def clip():
    return SyntheticSequence(width=128, height=96, seed=23, noise_sigma=1.5).frames(4)


@pytest.fixture(scope="module")
def cfg():
    return CodecConfig(width=128, height=96, search_range=8, num_ref_frames=1)


class TestSummarize:
    def test_aggregates(self, cfg, clip):
        out = ReferenceEncoder(cfg).encode_sequence(clip)
        s = summarize(out)
        assert s.n_frames == len(clip)
        assert s.total_bits == sum(f.bits for f in out)
        assert s.intra_bits + s.inter_bits == s.total_bits
        assert 25 < s.mean_psnr_y < 60
        assert sum(s.mode_histogram.values()) == (len(clip) - 1) * 48

    def test_kbps(self, cfg, clip):
        out = ReferenceEncoder(cfg).encode_sequence(clip)
        s = summarize(out)
        assert s.kbps(25.0) == pytest.approx(s.mean_bits_per_frame * 25 / 1000)
        with pytest.raises(ValueError):
            s.kbps(0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize([])


class TestRdSweep:
    def test_monotone_rate_and_quality(self, cfg, clip):
        points = rd_sweep(clip, cfg, qps=(22, 28, 34, 40))
        bits = [p.bits for p in points]
        psnr = [p.psnr_y for p in points]
        assert bits == sorted(bits, reverse=True)   # higher QP → fewer bits
        assert psnr == sorted(psnr, reverse=True)   # …and lower quality


class TestBdMetrics:
    def _curve(self, offset_db=0.0, rate_scale=1.0):
        # Synthetic plausible R-D curve: PSNR = a + b*log10(bits).
        return [
            RdPoint(qp=q, bits=int(b * rate_scale), psnr_y=p + offset_db)
            for q, b, p in (
                (37, 10_000, 30.0), (32, 20_000, 33.0),
                (27, 40_000, 36.0), (22, 80_000, 39.0),
            )
        ]

    def test_identical_curves_zero(self):
        a = self._curve()
        assert bd_rate(a, self._curve()) == pytest.approx(0.0, abs=1e-6)

    def test_rate_scale_detected(self):
        a = self._curve()
        worse = self._curve(rate_scale=1.10)  # +10% rate at equal PSNR
        assert bd_rate(a, worse) == pytest.approx(10.0, rel=0.02)

    def test_psnr_offset_detected(self):
        a = self._curve()
        better = self._curve(offset_db=0.5)
        assert bd_rate(a, better) < 0

    def test_requires_four_points(self):
        a = self._curve()
        with pytest.raises(ValueError):
            bd_rate(a[:3], a)

    def test_non_monotone_rejected(self):
        bad = [
            RdPoint(qp=1, bits=100, psnr_y=30),
            RdPoint(qp=2, bits=200, psnr_y=29),
            RdPoint(qp=3, bits=300, psnr_y=31),
            RdPoint(qp=4, bits=400, psnr_y=32),
        ]
        with pytest.raises(ValueError):
            bd_rate(bad, bad)

    def test_real_encoder_ablation_direction(self, cfg, clip):
        """Disabling small partitions must cost BD-rate (or be ~neutral)."""
        full = rd_sweep(clip, cfg, qps=(22, 28, 34, 40))
        coarse_cfg = CodecConfig(
            width=128, height=96, search_range=8,
            enabled_partitions=((16, 16),),
        )
        coarse = rd_sweep(clip, coarse_cfg, qps=(22, 28, 34, 40))
        delta = bd_rate(full, coarse)
        assert delta > -2.0  # removing tools should not *help* materially
