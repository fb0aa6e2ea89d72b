"""Framework configuration."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.hw.noise import FaultSchedule, NoiseModel
from repro.util.validation import check_range

#: R* placement policies: ``"auto"`` runs the Dijkstra mapping each GOP,
#: ``"gpu"``/``"cpu"`` force the paper's GPU-/CPU-centric configurations.
CENTRIC_MODES = ("auto", "gpu", "cpu")

#: Execution backends: ``"sim"`` runs the collaborative schedule on the
#: DES (``run_model()`` advances only simulated time; ``encode()`` also
#: executes the kernels serially on the host); ``"process"`` really
#: executes ME/INT/SME on a persistent multiprocessing worker pool over
#: shared-memory frame buffers and has no model mode.
BACKENDS = ("sim", "process")

#: Fault kinds that only scale modelled durations. A measured run has
#: none to scale, so ``backend="process"`` refuses them; a dropout or a
#: hang runs on either backend.
MODELLED_FAULTS = ("degrade", "copy_fail")


@dataclass
class FrameworkConfig:
    """Tunables of the FEVES framework itself (not of the codec).

    Parameters
    ----------
    centric:
        R* placement policy (see :data:`CENTRIC_MODES`).
    gop_size:
        ``encode()``: insert an I frame every ``gop_size`` frames (periodic
        intra refresh, resetting the reference window and the accelerator
        buffer states); 0 = single leading I frame (the paper's IPPP).
    ewma_alpha:
        Weight of the newest measurement when updating the Performance
        Characterization; 1.0 = trust the last frame entirely (the paper's
        single-frame recovery behaviour), lower = smoother.
    noise:
        Load-fluctuation model applied to simulated durations.
    lb_cache_rtol:
        When every measured K changed by less than this relative tolerance
        since the last LP solve, the previous decision is reused instead of
        re-solving — steady-state scheduling overhead drops to bookkeeping
        cost while any real load change (beyond the tolerance) still
        triggers a fresh solve the same frame. 0 reuses a decision only when
        re-solving is provably a no-op (bit-equal Ks, converged fixed point).
    enable_parking:
        Allow the balancer to take accelerators fully offline (see
        DESIGN.md → device parking). Disable to reproduce the paper's
        always-participating behaviour (the robustness ablation).
    rstar_parallel:
        ``run_model()`` what-if: distribute the R* block per-slice across
        devices (requires ``num_slices > 1`` and
        ``deblock_across_slices=False`` in the codec config — the slice
        configuration that makes DBL parallel). Quantifies the alternative
        the paper rejected in favour of single-device R*.
    faults:
        Device-fault injection plan (dropout / hang / degrade / copy_fail
        events; see :class:`~repro.hw.noise.FaultSchedule`). Empty by
        default. Event device names are validated against the platform
        when the framework is constructed. Dropouts and hangs run on
        either backend (the faulted bands are redone on a survivor);
        ``degrade``/``copy_fail`` need ``backend="sim"``
        (:data:`MODELLED_FAULTS`).
    backend:
        ``"sim"`` (the DES) or ``"process"`` (really-parallel execution
        on a multiprocessing worker pool over shared-memory buffers; see
        :data:`BACKENDS` and :mod:`repro.exec`).
    exec_workers:
        Process backend: worker-pool size. 0 = one worker per CPU this
        process may run on.
    """

    centric: str = "auto"
    gop_size: int = 0
    ewma_alpha: float = 1.0
    noise: NoiseModel = field(default_factory=NoiseModel)
    lb_cache_rtol: float = 0.02
    enable_parking: bool = True
    rstar_parallel: bool = False
    faults: FaultSchedule = field(default_factory=FaultSchedule)
    backend: str = "sim"
    exec_workers: int = 0

    def __post_init__(self) -> None:
        if self.backend not in BACKENDS:
            raise ValueError(
                f"backend must be one of {BACKENDS}, got {self.backend!r}"
            )
        if self.backend == "process":
            for ev in self.faults.events:
                if ev.kind in MODELLED_FAULTS:
                    raise ValueError(
                        f"backend='process' cannot inject a {ev.kind!r} fault: "
                        "it scales modelled durations, and a measured run has "
                        "none (use backend='sim')"
                    )
        check_range("exec_workers", self.exec_workers, 0, 64)
        if self.centric not in CENTRIC_MODES:
            raise ValueError(
                f"centric must be one of {CENTRIC_MODES}, got {self.centric!r}"
            )
        if self.gop_size < 0:
            raise ValueError("gop_size must be >= 0")
        check_range("ewma_alpha", self.ewma_alpha, 0.01, 1.0)
        check_range("lb_cache_rtol", self.lb_cache_rtol, 0.0, 0.5)
