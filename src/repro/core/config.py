"""Framework configuration."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.hw.noise import FaultSchedule, NoiseModel
from repro.util.validation import check_range

#: Execution modes: ``"model"`` advances only simulated time (benchmarks);
#: ``"real"`` additionally runs the NumPy codec kernels and produces the
#: actual encoded output (tests, examples).
COMPUTE_MODES = ("model", "real")

#: R* placement policies: ``"auto"`` runs the Dijkstra mapping each GOP,
#: ``"gpu"``/``"cpu"`` force the paper's GPU-/CPU-centric configurations.
CENTRIC_MODES = ("auto", "gpu", "cpu")

#: Execution backends: ``"sim"`` runs the collaborative schedule on the
#: DES (and, in real mode, executes kernels serially on the host);
#: ``"process"`` really executes ME/INT/SME on a persistent
#: multiprocessing worker pool over shared-memory frame buffers.
BACKENDS = ("sim", "process")


@dataclass
class FrameworkConfig:
    """Tunables of the FEVES framework itself (not of the codec).

    Parameters
    ----------
    compute:
        ``"model"`` or ``"real"`` (see :data:`COMPUTE_MODES`).
    centric:
        R* placement policy (see :data:`CENTRIC_MODES`).
    gop_size:
        Real mode: insert an I frame every ``gop_size`` frames (periodic
        intra refresh, resetting the reference window and the accelerator
        buffer states); 0 = single leading I frame (the paper's IPPP).
    ewma_alpha:
        Weight of the newest measurement when updating the Performance
        Characterization; 1.0 = trust the last frame entirely (the paper's
        single-frame recovery behaviour), lower = smoother.
    lp_delta_iterations:
        Fixed-point iterations between the LP solve and the Δm/Δl
        (MS_BOUNDS/LS_BOUNDS) recomputation.
    sf_halo_rows:
        Extra SF MB rows fetched above/below an SME band so vertical MV
        components stay inside transferred data; ``None`` derives
        ``ceil((search_range + 1) / 16)`` from the codec config.
    noise:
        Load-fluctuation model applied to simulated durations.
    min_rows_per_device:
        Floor on LP-assigned rows (0 allows devices to idle, the paper's
        behaviour when a device would only add overhead).
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
        Model-mode what-if: distribute the R* block per-slice across
        devices (requires ``num_slices > 1`` and
        ``deblock_across_slices=False`` in the codec config — the slice
        configuration that makes DBL parallel). Quantifies the alternative
        the paper rejected in favour of single-device R*.
    faults:
        Device-fault injection plan (dropout / hang / degrade / copy_fail
        events; see :class:`~repro.hw.noise.FaultSchedule`). Empty by
        default. Event device names are validated against the platform
        when the framework is constructed.
    fault_detection_timeout_s:
        Simulated watchdog time charged on the frame a dropout/hang is
        detected: the fault frame stalls this long before the faulted
        device's bands are redone on a survivor.
    warmup_rows:
        MB rows per module granted to a re-admitted device whose
        characterization was cleared, so it re-measures online without
        the LP having to gamble on unknown speeds.
    backend:
        ``"sim"`` (the DES) or ``"process"`` (really-parallel execution
        on a multiprocessing worker pool over shared-memory buffers; see
        :data:`BACKENDS` and :mod:`repro.exec`). ``"process"`` requires
        ``compute="real"`` and an empty fault schedule — faults are a
        simulation concept.
    exec_workers:
        Process backend: worker-pool size. 0 = one worker per CPU core.
    calibrate:
        Process backend: feed *measured* per-module spans into the
        Performance Characterization so the LP schedules from real rates.
        False feeds the model rates instead, so the accuracy report
        quantifies the uncalibrated model error.
    """

    compute: str = "model"
    centric: str = "auto"
    gop_size: int = 0
    ewma_alpha: float = 1.0
    lp_delta_iterations: int = 2
    sf_halo_rows: int | None = None
    noise: NoiseModel = field(default_factory=NoiseModel)
    min_rows_per_device: int = 0
    lb_cache_rtol: float = 0.02
    enable_parking: bool = True
    rstar_parallel: bool = False
    faults: FaultSchedule = field(default_factory=FaultSchedule)
    fault_detection_timeout_s: float = 0.040
    warmup_rows: int = 2
    backend: str = "sim"
    exec_workers: int = 0
    calibrate: bool = True

    def __post_init__(self) -> None:
        if self.compute not in COMPUTE_MODES:
            raise ValueError(
                f"compute must be one of {COMPUTE_MODES}, got {self.compute!r}"
            )
        if self.backend not in BACKENDS:
            raise ValueError(
                f"backend must be one of {BACKENDS}, got {self.backend!r}"
            )
        if self.backend == "process":
            if self.compute != "real":
                raise ValueError("backend='process' requires compute='real'")
            if not self.faults.empty:
                raise ValueError(
                    "backend='process' cannot inject faults (simulation-only)"
                )
        check_range("exec_workers", self.exec_workers, 0, 64)
        if self.centric not in CENTRIC_MODES:
            raise ValueError(
                f"centric must be one of {CENTRIC_MODES}, got {self.centric!r}"
            )
        if self.gop_size < 0:
            raise ValueError("gop_size must be >= 0")
        check_range("ewma_alpha", self.ewma_alpha, 0.01, 1.0)
        check_range("lp_delta_iterations", self.lp_delta_iterations, 1, 10)
        if self.sf_halo_rows is not None:
            check_range("sf_halo_rows", self.sf_halo_rows, 0, 64)
        check_range("min_rows_per_device", self.min_rows_per_device, 0, 8)
        check_range("lb_cache_rtol", self.lb_cache_rtol, 0.0, 0.5)
        check_range(
            "fault_detection_timeout_s", self.fault_detection_timeout_s, 0.0, 10.0
        )
        check_range("warmup_rows", self.warmup_rows, 1, 16)
