"""Device model: a CPU pool or a GPU accelerator with its engines.

A device owns DES resources: one compute engine, and (for accelerators)
one or two copy engines depending on the link's copy-engine count. The
multi-core CPU is modelled as a single device whose rate constants already
reflect all cores + SIMD — matching the paper, which treats "the CPU" as
one processing device p_i alongside the GPUs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.hw.des import Resource
from repro.hw.interconnect import LinkSpec
from repro.hw.rates import ModuleRates


@dataclass(frozen=True)
class DeviceSpec:
    """Static description of one processing device."""

    name: str
    kind: str  # "cpu" | "gpu"
    rates: ModuleRates
    link: LinkSpec | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("cpu", "gpu"):
            raise ValueError(f"kind must be 'cpu' or 'gpu', got {self.kind!r}")
        if self.kind == "gpu" and self.link is None:
            raise ValueError(f"GPU device {self.name!r} requires a link")
        if self.kind == "cpu" and self.link is not None:
            raise ValueError(f"CPU device {self.name!r} must not have a link")

    @property
    def is_accelerator(self) -> bool:
        return self.kind == "gpu"


@dataclass
class Device:
    """Runtime device: spec + DES resources.

    Resources
    ---------
    - ``compute``: the kernel-execution engine.
    - ``copy_h2d`` / ``copy_d2h``: copy engine(s). With a single-copy-engine
      link both names alias the *same* resource, so transfers in opposite
      directions serialize — the behaviour the paper's Fig. 4 schedule is
      designed around. CPU devices have no copy engines (``None``): host
      data is accessed in place.

    Fault state
    -----------
    ``fault_compute_scale`` / ``fault_copy_scale`` are per-frame duration
    multipliers set by the framework from its :class:`~repro.hw.noise.
    FaultSchedule` (``degrade`` and ``copy_fail`` events). They model the
    device genuinely running slower — the characterization *measures* the
    degraded speed, it is never told about it — while dropout/hang faults
    are surfaced as events instead of timings and never pass through here.
    """

    spec: DeviceSpec
    compute: Resource = field(init=False)
    copy_h2d: Resource | None = field(init=False, default=None)
    copy_d2h: Resource | None = field(init=False, default=None)
    fault_compute_scale: float = field(init=False, default=1.0)
    fault_copy_scale: float = field(init=False, default=1.0)
    share_scale: float = field(init=False, default=1.0)

    def __post_init__(self) -> None:
        self.compute = Resource(name=f"{self.spec.name}.compute")
        if self.spec.is_accelerator:
            assert self.spec.link is not None
            if self.spec.link.copy_engines == 2:
                self.copy_h2d = Resource(name=f"{self.spec.name}.copyH2D")
                self.copy_d2h = Resource(name=f"{self.spec.name}.copyD2H")
            else:
                shared = Resource(name=f"{self.spec.name}.copy")
                self.copy_h2d = shared
                self.copy_d2h = shared

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def is_accelerator(self) -> bool:
        return self.spec.is_accelerator

    def resources(self) -> list[Resource]:
        """Unique DES resources of this device."""
        out = [self.compute]
        if self.copy_h2d is not None:
            out.append(self.copy_h2d)
        if self.copy_d2h is not None and self.copy_d2h is not self.copy_h2d:
            out.append(self.copy_d2h)
        return out

    def set_fault_scales(self, compute: float = 1.0, copy: float = 1.0) -> None:
        """Install this frame's degradation multipliers (both ≥ 1)."""
        if compute < 1.0 or copy < 1.0:
            raise ValueError(
                f"fault scales must be >= 1, got compute={compute}, copy={copy}"
            )
        self.fault_compute_scale = compute
        self.fault_copy_scale = copy

    def set_capacity_share(self, share: float) -> None:
        """Grant this device's engines a fractional capacity share.

        ``share`` ∈ (0, 1] is the slice of compute *and* copy throughput
        one encoding session may use while the platform is time-shared
        between streams (processor-sharing model): every simulated
        duration stretches by ``1/share``. Like fault degradation, the
        scale is measured by the Performance Characterization — a session
        granted 50% of a device simply observes a device half as fast and
        its LP redistributes accordingly. ``share=1`` (the default) is an
        exact no-op, keeping single-session runs bit-identical.
        """
        if not 0.0 < share <= 1.0:
            raise ValueError(f"capacity share must be in (0, 1], got {share}")
        self.share_scale = 1.0 / share

    def transfer_s(self, nbytes: float, direction: str) -> float:
        """Simulated transfer time over this device's link (0 for CPU).

        Includes the current ``fault_copy_scale`` (copy-engine
        degradation) and the session's ``share_scale`` (multi-stream
        time-sharing), so every planned transfer — and therefore every
        bandwidth the characterization measures — reflects both.
        """
        if not self.spec.is_accelerator:
            return 0.0
        assert self.spec.link is not None
        return (
            self.spec.link.transfer_s(nbytes, direction)
            * self.fault_copy_scale
            * self.share_scale
        )
