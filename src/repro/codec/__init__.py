"""H.264/AVC inter-loop codec substrate (pure NumPy).

This package implements every module of the H.264/AVC inter-prediction loop
shown in Fig. 1 of the FEVES paper:

- :mod:`repro.codec.me` — Motion Estimation (Full-Search Block-Matching over
  all 7 MB partition modes, multiple reference frames).
- :mod:`repro.codec.interpolation` — INT: 6-tap half-pel + bilinear
  quarter-pel Sub-pixel interpolated Frame (SF) generation.
- :mod:`repro.codec.sme` — Sub-pixel Motion Estimation refinement.
- :mod:`repro.codec.mc` — Motion Compensation and partition-mode decision.
- :mod:`repro.codec.transform` / :mod:`repro.codec.quant` — TQ and TQ⁻¹
  (4×4 integer transform, H.264 quantization tables).
- :mod:`repro.codec.deblock` — DBL: in-loop deblocking filter.
- :mod:`repro.codec.entropy` / :mod:`repro.codec.bitstream` — Exp-Golomb and
  CAVLC-style entropy coding with exact bit accounting.
- :mod:`repro.codec.encoder` — single-device reference encoder pipeline used
  as ground truth for the collaborative framework.
"""

from repro.codec.config import CodecConfig
from repro.codec.decoder import SequenceDecoder
from repro.codec.encoder import EncodedFrame, ReferenceEncoder
from repro.codec.frames import YuvFrame
from repro.codec.ratecontrol import RateControlledEncoder, RateController
from repro.codec.stats import SequenceStats, rd_sweep, summarize
from repro.codec.stream import StreamEncoder, read_stream, write_stream

__all__ = [
    "CodecConfig",
    "EncodedFrame",
    "RateControlledEncoder",
    "RateController",
    "ReferenceEncoder",
    "SequenceDecoder",
    "SequenceStats",
    "StreamEncoder",
    "YuvFrame",
    "rd_sweep",
    "read_stream",
    "summarize",
    "write_stream",
]
