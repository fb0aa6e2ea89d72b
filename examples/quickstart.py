#!/usr/bin/env python
"""Quickstart: collaboratively encode a synthetic clip with FEVES.

Calls ``FevesFramework.encode()`` on the SysHK preset (Haswell CPU +
Kepler GPU, simulated): the actual NumPy H.264 inter-loop
kernels execute, split across the devices by the adaptive LP, and the
output is verified bit-exact against the sequential reference encoder.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro import CodecConfig, FevesFramework, get_platform
from repro.codec.encoder import ReferenceEncoder
from repro.report import format_table
from repro.video import SyntheticSequence


def main() -> None:
    # Small geometry so the real NumPy kernels finish in seconds.
    cfg = CodecConfig(width=192, height=160, search_range=8, num_ref_frames=2)
    clip = SyntheticSequence(
        width=cfg.width, height=cfg.height, seed=42, noise_sigma=2.0
    ).frames(8)

    print(f"Encoding {len(clip)} frames of {cfg.width}x{cfg.height} "
          f"(SA {cfg.sa_side}x{cfg.sa_side}, {cfg.num_ref_frames} RFs) on SysHK…")
    fw = FevesFramework(get_platform("SysHK"), cfg)
    outcomes = fw.encode(clip)

    rows = []
    for o in outcomes:
        e = o.encoded
        assert e is not None
        rows.append(
            [
                e.index,
                "I" if e.is_intra else "P",
                f"{e.bits / 1000:.1f}",
                f"{e.psnr['y']:.2f}",
                f"{o.time_s * 1e3:.2f}" if not e.is_intra else "-",
            ]
        )
    print(format_table(
        ["frame", "type", "kbit", "PSNR-Y dB", "simulated ms"], rows
    ))
    print(f"\nsteady-state simulated speed: {fw.steady_state_fps():.1f} fps "
          f"(R* on {fw.rstar_device}, LB overhead "
          f"{fw.scheduling_overhead_ms:.2f} ms/frame)")

    # Verify against the single-device reference encoder: bit-exact.
    ref = ReferenceEncoder(cfg).encode_sequence(clip)
    for r, o in zip(ref, outcomes):
        assert o.encoded is not None
        assert r.bits == o.encoded.bits
        assert np.array_equal(r.recon.y, o.encoded.recon.y)
    print("collaborative output verified bit-exact against the reference "
          "encoder ✓")


if __name__ == "__main__":
    main()
