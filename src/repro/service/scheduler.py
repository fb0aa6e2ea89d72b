"""Deadline-aware capacity partitioning across admitted sessions.

Each scheduling round, every session with a captured-but-unencoded frame
receives a share of the platform. The share is proportional to

    w_i = class_weight_i × demand_i × boost(slack_i / period_i)

where ``demand_i`` is the stream's work rate (MB rows per second —
heavier streams need proportionally more of the platform to hit the same
fps), ``class_weight`` comes from the stream's deadline class
(realtime > standard > background), and the *slack boost* bends capacity
toward streams about to miss:

    boost(r) = clamp(2 − r, BOOST_MIN, BOOST_MAX)

with ``r`` the slack ratio — time remaining until the next frame's
deadline, in frame periods. A stream whose deadline is imminent (r → 0)
doubles its weight; one already past its deadline (r < 0) grows up to
:data:`BOOST_MAX`; one comfortably ahead (r ≥ 2, and background streams
with no deadline at all) floors at :data:`BOOST_MIN`. Shares are the
normalized weights, floored at :data:`MIN_SHARE` so no active stream is
starved outright; a single active stream always receives exactly 1.0.
"""

from __future__ import annotations

import math

from repro.core.load_balancing import LPSolveCache
from repro.service.session import EncodingSession

#: The coefficients of the module docstring. Constants, not options: a
#: heuristic with fixed coefficients is one policy others can be
#: compared against.
BOOST_MIN, BOOST_MAX = 0.25, 4.0
MIN_SHARE = 0.02


class RoundLPBatch:
    """Batches the per-session LP solves of a scheduling round.

    Every admitted session solves a structurally identical Algorithm-2 LP
    against its private characterization each round; sessions holding
    equal capacity shares of the same platform measure bit-equal K
    parameters and therefore assemble byte-identical constraint systems.
    Handing all sessions one shared :class:`LPSolveCache` collapses those
    N solves into one HiGHS call per *unique* system per round — batching
    by exact deduplication, so every session still receives precisely the
    solution its own cold solve would have produced (the cache key is the
    full constraint bytes; see DESIGN.md → Performance).

    Uniform mixes (the saturation benchmark: identical specs, equal
    shares) dedupe almost completely; heterogeneous mixes still share
    solves whenever the co-scheduler grants equal shares.
    """

    def __init__(self) -> None:
        # The one LP memo of a run: a lone balancer keeps none. Sized for
        # the unique systems of every session of a platform class at once.
        self.cache = LPSolveCache(max_entries=4096)

    def attach(self, session: EncodingSession) -> None:
        """Point one session's balancer at the shared solve cache."""
        session.framework.balancer.use_lp_cache(self.cache)

    @property
    def hits(self) -> int:
        return self.cache.hits

    @property
    def misses(self) -> int:
        return self.cache.misses

    @property
    def hit_rate(self) -> float:
        return self.cache.hit_rate


class CoScheduler:
    """Partitions platform capacity across active sessions each round."""

    def boost(self, slack_ratio: float) -> float:
        return max(BOOST_MIN, min(BOOST_MAX, 2.0 - slack_ratio))

    def weight(self, session: EncodingSession, now: float) -> float:
        spec = session.spec
        demand = spec.fps_target * spec.codec_config().mb_rows
        deadline = session.deadline_for(session.next_capture_s())
        if math.isinf(deadline):
            slack_ratio = math.inf  # no deadline: boost floors at BOOST_MIN
        else:
            slack_ratio = (deadline - now) / spec.period_s
        return spec.klass.weight * demand * self.boost(slack_ratio)

    def partition(
        self, sessions: list[EncodingSession], now: float
    ) -> dict[str, float]:
        """Capacity share per stream id; shares sum to 1."""
        if not sessions:
            return {}
        if len(sessions) == 1:
            # Exact 1.0, bit-identical to a dedicated platform.
            return {sessions[0].stream_id: 1.0}
        weights = {s.stream_id: self.weight(s, now) for s in sessions}
        total = sum(weights.values())
        shares = {sid: w / total for sid, w in weights.items()}
        # Starvation floor, then one renormalization pass (approximate by
        # design: with MIN_SHARE ≪ 1/n the floor rarely binds).
        floored = {sid: max(MIN_SHARE, sh) for sid, sh in shares.items()}
        norm = sum(floored.values())
        return {sid: sh / norm for sid, sh in floored.items()}
