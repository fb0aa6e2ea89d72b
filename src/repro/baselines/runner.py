"""Shared baseline runner: a fixed scheduling *policy* instead of the LP.

Baselines reuse the full FEVES machinery (Video Coding Manager, Data Access
Management, DES platform) but replace the Load Balancing block with a
caller-supplied policy, so measured differences are attributable to the
scheduling decision alone — the comparison the paper's evaluation makes.
"""

from __future__ import annotations

from collections.abc import Callable

from repro.codec.config import CodecConfig
from repro.core.analysis import steady_state_fps
from repro.core.coding_manager import FrameReport, VideoCodingManager
from repro.core.config import FrameworkConfig
from repro.core.data_access import DataAccessManager
from repro.core.frame_plan import FramePlan
from repro.core.load_balancing import LoadDecision
from repro.core.perf_model import PerformanceCharacterization
from repro.hw.interconnect import BufferSizes
from repro.hw.topology import Platform

#: policy(frame_index, perf) -> (decision, rstar_device_name)
Policy = Callable[[int, PerformanceCharacterization], tuple[LoadDecision, str]]


class PolicyRunner:
    """Runs model-mode encoding under an arbitrary scheduling policy."""

    def __init__(
        self,
        platform: Platform,
        codec_cfg: CodecConfig,
        policy: Policy,
        fw_cfg: FrameworkConfig | None = None,
    ) -> None:
        self.platform = platform
        self.codec_cfg = codec_cfg
        self.policy = policy
        self.fw_cfg = fw_cfg or FrameworkConfig()
        sizes = BufferSizes(width=codec_cfg.width, height=codec_cfg.height)
        self.perf = PerformanceCharacterization(alpha=self.fw_cfg.ewma_alpha)
        self.manager = VideoCodingManager(platform, codec_cfg, self.fw_cfg)
        self.dam = DataAccessManager(platform, sizes)
        self.reports: list[FrameReport] = []
        self._frames_done = 0

    def run(self, n_inter_frames: int) -> list[FrameReport]:
        """Encode ``n_inter_frames`` in model mode under the policy."""
        for _ in range(n_inter_frames):
            self._frames_done += 1
            idx = self._frames_done
            decision, rstar = self.policy(idx, self.perf)
            plan = FramePlan.build(
                self.platform, idx, decision, rstar,
                min(idx, self.codec_cfg.num_ref_frames),
            )
            report = self.manager.run_frame(
                plan, self.dam.plan(decision, rstar), self.perf
            )
            self.dam.commit(decision, rstar)
            self.reports.append(report)
        return self.reports

    def steady_state_fps(self, warmup: int = 2) -> float:
        return steady_state_fps(self.reports, warmup)
