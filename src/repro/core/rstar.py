"""R* module mapping: pick the device that runs MC+TQ+TQ⁻¹+DBL.

The paper assigns the entire R* block to a single (fastest) device "by
applying the Dijkstra algorithm [9]": build a stage graph whose nodes are
(stage, device) pairs, with edge weights combining per-stage compute time
and the cost of migrating the intermediate buffers when consecutive stages
run on different devices, and take the shortest source→sink path. Because
migration costs dwarf the R* compute times (<3 % of the loop), the optimal
path stays on one device — which is exactly why the paper concludes the
whole block belongs on the fastest one.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from itertools import count

from repro.codec.config import CodecConfig
from repro.hw.interconnect import BufferSizes
from repro.hw.topology import Platform

#: R* stages and their nominal share of the block time (from the paper's
#: workload characterization: DBL dominates, MC+TQ+TQ⁻¹ < 3 % of the loop).
RSTAR_STAGES: tuple[tuple[str, float], ...] = (
    ("mc", 0.35),
    ("tq", 0.20),
    ("itq", 0.15),
    ("dbl", 0.30),
)


@dataclass(frozen=True)
class RStarDecision:
    """Outcome of the mapping."""

    device: str
    path: tuple[tuple[str, str], ...]  # (stage, device) along the best path
    total_s: float


def _migration_cost(
    platform: Platform, src: str, dst: str, payload_bytes: float
) -> float:
    """Time to move the inter-stage payload from ``src`` to ``dst``.

    Devices communicate through host DRAM: an accelerator→accelerator hop
    costs a d2h on the source link plus an h2d on the destination link; a
    CPU endpoint contributes nothing on its side.
    """
    if src == dst:
        return 0.0
    cost = 0.0
    s_dev = platform.device(src)
    d_dev = platform.device(dst)
    if s_dev.is_accelerator:
        cost += s_dev.transfer_s(payload_bytes, "d2h")
    if d_dev.is_accelerator:
        cost += d_dev.transfer_s(payload_bytes, "h2d")
    return cost


def select_rstar_device(
    platform: Platform,
    rstar_estimates: dict[str, float],
    cfg: CodecConfig,
) -> RStarDecision:
    """Dijkstra over the stage/device graph.

    Parameters
    ----------
    rstar_estimates:
        Estimated full-R*-block seconds per device (from Performance
        Characterization probes). Devices missing an estimate are excluded.
    """
    devices = [d.name for d in platform.devices if d.name in rstar_estimates]
    if not devices:
        raise ValueError("no device has an R* estimate")
    sizes = BufferSizes(width=cfg.width, height=cfg.height)
    payload = float(sizes.rf_frame) * 2.0  # residual + partial reconstruction

    # Nodes are (stage index, device index), each joined to every node of the
    # next stage; equal distances pop in push order: lowest device index first.
    push_order = count()
    heap = [
        (rstar_estimates[d] * RSTAR_STAGES[0][1], next(push_order), 0, k, ())
        for k, d in enumerate(devices)
    ]
    heapify(heap)
    settled: set[tuple[int, int]] = set()
    while True:
        length, _, si, k, on_path = heappop(heap)
        if (si, k) in settled:
            continue  # reached earlier by a path at most as long
        settled.add((si, k))
        on_path += (k,)
        if si == len(RSTAR_STAGES) - 1:
            break
        share = RSTAR_STAGES[si + 1][1]
        for j, d in enumerate(devices):
            w = rstar_estimates[d] * share + _migration_cost(platform, devices[k], d, payload)
            heappush(heap, (length + w, next(push_order), si + 1, j, on_path))
    stage_path = tuple(
        (stage, devices[k]) for (stage, _), k in zip(RSTAR_STAGES, on_path, strict=True)
    )

    # Collapse to one device (the paper's single-device assignment): the
    # device carrying the largest share of stage time along the path.
    share_by_dev: dict[str, float] = {}
    for (stage, dev), (_, frac) in zip(stage_path, RSTAR_STAGES, strict=True):
        share_by_dev[dev] = share_by_dev.get(dev, 0.0) + frac
    best = max(share_by_dev.items(), key=lambda kv: (kv[1], -devices.index(kv[0])))
    return RStarDecision(device=best[0], path=stage_path, total_s=float(length))
