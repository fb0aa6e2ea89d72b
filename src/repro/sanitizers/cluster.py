"""SAN-E1: one owner per stream, audited over a fleet run's segments.

Layer 1 of the analysis stack (DESIGN.md "Layer 1 — the timeline
sanitizer's verdict" says why the other schedule classes are plain tests
now). The dispatcher books one :class:`~repro.cluster.dispatcher.Segment`
per placement of a stream on a node; its routed and evicted times are
read back by nothing else in ``src/``, so this audit is their only check:
only a stream's last segment may still be open, and a reroute never
starts before the previous owner evicted the stream.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.sanitizers.violations import SanitizerReport

if TYPE_CHECKING:
    from repro.cluster.dispatcher import Cluster


#: Tolerance of the simulated-time comparison (times are float sums).
EPS_S = 1e-9


def check_cluster(cluster: Cluster) -> SanitizerReport:
    """SAN-E1 over every stream's segments."""
    out = SanitizerReport()
    for stream_id, st in cluster.dispatcher.streams.items():
        segs = st.segments
        for i, seg in enumerate(segs[:-1]):
            if seg.t_evicted is None:
                out.add(
                    "SAN-E1",
                    f"segment {i} on {seg.node_id} was never evicted "
                    f"but segment {i + 1} exists",
                    where=stream_id,
                )
        for a, b in zip(segs, segs[1:], strict=False):
            if a.t_evicted is not None and b.t_routed < a.t_evicted - EPS_S:
                out.add(
                    "SAN-E1",
                    f"rerouted to {b.node_id} at {b.t_routed:.6f} while "
                    f"{a.node_id} still owned the stream until "
                    f"{a.t_evicted:.6f}",
                    where=stream_id,
                )
    return out


__all__ = ["check_cluster"]
