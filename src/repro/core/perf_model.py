"""Performance Characterization: online measurement of device and link speeds.

Paper §III.C: the LP consumes per-device/module processing times per MB row
(K^m, K^l, K^s), the R* block time (T^R*), and per-buffer transfer times per
MB row in each direction (K^{cf hd}, K^{sf dh}, …). All of them are
*measured* — recorded after every frame (Algorithm 1 lines 5/10) — never
assumed, which is what lets the framework adapt to non-dedicated systems.

Link characterization follows Algorithm 1 line 6: we estimate the
*asymmetric bandwidth* of each accelerator's interconnect from all observed
transfers in a direction, then derive every per-buffer K from the known
bytes-per-row of that buffer. This fills in K values for buffer types that
happened not to move during a frame (e.g. Δ MVs under equidistant splits).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.hw.interconnect import BufferSizes

#: Compute modules characterized per MB row.
COMPUTE_MODULES = ("me", "int", "sme")

#: Logical buffers whose transfers the framework schedules.
BUFFERS = ("cf", "cf_full", "rf", "sf", "mv")


def buffer_row_bytes(buf: str, sizes: BufferSizes) -> int:
    """Bytes per MB row of a logical buffer."""
    table = {
        "cf": sizes.cf_row,
        "cf_full": sizes.cf_row_full,
        "rf": sizes.rf_row,
        "sf": sizes.sf_row,
        "mv": sizes.mv_row,
    }
    try:
        return table[buf]
    except KeyError:
        raise ValueError(f"unknown buffer {buf!r}; expected one of {BUFFERS}") from None


@dataclass
class _DeviceState:
    """Mutable characterization of one device.

    ``priors`` holds the keys (module names, ``"rstar"``, directions)
    whose current value is a *prior* — a calibration estimate or a stale
    pre-fault measurement — rather than a fresh online observation.
    """

    k_compute: dict[str, float] = field(default_factory=dict)  # module -> s/row
    rstar_frame_s: float | None = None
    bw: dict[str, float] = field(default_factory=dict)  # "h2d"/"d2h" -> B/s
    priors: set[str] = field(default_factory=set)


class PerformanceCharacterization:
    """EWMA-updated speed estimates for every device and link.

    Parameters
    ----------
    alpha:
        Weight of the newest observation (1.0 = last frame wins, giving the
        paper's one-frame recovery after load spikes).

    Priors vs observations
    ----------------------
    Estimates marked as *priors* — seeded from calibration
    (``prior=True``) or demoted by :meth:`invalidate` after a device
    fault — keep the LP solvable but carry no online evidence. The first
    real observation for a prior-valued key therefore **replaces** the
    estimate outright instead of blending at the steady-state ``alpha``:
    with a smoothed characterization (``alpha`` < 1), blending against a
    stale prior would stretch Fig. 7's one-frame absorption over many
    frames.

    Version counter
    ---------------
    :attr:`version` increments on every state mutation — each accepted
    observation, installed prior, and invalidation. Consumers caching
    anything derived from the characterization (K vectors, per-buffer
    transfer tables, analysis summaries) key their caches on it: a
    version match proves the cached value equals a fresh recomputation,
    so version-keyed caching is exact by construction.
    """

    def __init__(self, alpha: float = 1.0) -> None:
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {alpha}")
        self.alpha = alpha
        self._devices: dict[str, _DeviceState] = {}
        self.version = 0

    def _state(self, device: str) -> _DeviceState:
        """The record an ``observe_*`` writes to; queries must not create one."""
        st = self._devices.get(device)
        if st is None:
            st = self._devices[device] = _DeviceState()
        return st

    def _blend(self, st: _DeviceState, key: str, old: float | None, new: float) -> float:
        if old is None or key in st.priors:
            # First (or first-after-fault) observation seeds outright.
            st.priors.discard(key)
            return new
        return self.alpha * new + (1.0 - self.alpha) * old

    # --- observations -------------------------------------------------------

    def observe_compute(
        self, device: str, module: str, rows: int, seconds: float,
        prior: bool = False,
    ) -> None:
        """Record a compute op: ``rows`` MB rows of ``module`` in ``seconds``.

        ``prior=True`` installs a calibration estimate: it only fills a
        gap (never overrides online data) and is replaced outright by the
        first real observation.
        """
        if module not in COMPUTE_MODULES:
            raise ValueError(f"unknown module {module!r}")
        if rows <= 0 or seconds < 0:
            return
        st = self._state(device)
        if prior:
            if module not in st.k_compute:
                st.k_compute[module] = seconds / rows
                st.priors.add(module)
                self.version += 1
            return
        st.k_compute[module] = self._blend(
            st, module, st.k_compute.get(module), seconds / rows
        )
        self.version += 1

    def observe_rstar(self, device: str, seconds: float, prior: bool = False) -> None:
        """Record a full R* block execution (``prior`` as in observe_compute)."""
        if seconds < 0:
            return
        st = self._state(device)
        if prior:
            if st.rstar_frame_s is None:
                st.rstar_frame_s = seconds
                st.priors.add("rstar")
                self.version += 1
            return
        st.rstar_frame_s = self._blend(st, "rstar", st.rstar_frame_s, seconds)
        self.version += 1

    def observe_transfer(
        self, device: str, direction: str, nbytes: float, seconds: float,
        prior: bool = False,
    ) -> None:
        """Record one transfer; updates the directional bandwidth estimate."""
        if direction not in ("h2d", "d2h"):
            raise ValueError(f"direction must be h2d/d2h, got {direction!r}")
        if nbytes <= 0 or seconds <= 0:
            return
        st = self._state(device)
        if prior:
            if direction not in st.bw:
                st.bw[direction] = nbytes / seconds
                st.priors.add(direction)
                self.version += 1
            return
        st.bw[direction] = self._blend(
            st, direction, st.bw.get(direction), nbytes / seconds
        )
        self.version += 1

    # --- fault bookkeeping --------------------------------------------------

    def invalidate(self, device: str, keep_prior: bool = True) -> None:
        """React to a device fault.

        ``keep_prior=True`` (hang/transient outage): demote every current
        estimate to a prior — the LP can still plan with the pre-fault
        numbers on re-admission, and the first post-recovery observation
        replaces them outright. ``keep_prior=False`` (dropout, or a device
        that rebooted): forget the device entirely; it must be re-probed
        before the LP will schedule it again.
        """
        st = self._devices.get(device)
        if st is None:
            return
        self.version += 1
        if not keep_prior:
            del self._devices[device]
            return
        st.priors.update(st.k_compute.keys())
        st.priors.update(st.bw.keys())
        if st.rstar_frame_s is not None:
            st.priors.add("rstar")

    def is_prior(self, device: str, key: str) -> bool:
        """Whether the estimate under ``key`` is a prior (test/log helper)."""
        st = self._devices.get(device)
        return st is not None and key in st.priors

    # --- queries ------------------------------------------------------------

    def k_compute(self, device: str, module: str) -> float | None:
        """Seconds per MB row for a module on a device (None if unmeasured)."""
        st = self._devices.get(device)
        return st.k_compute.get(module) if st is not None else None

    def rstar_frame_s(self, device: str) -> float | None:
        """Measured R* block seconds on a device."""
        st = self._devices.get(device)
        return st.rstar_frame_s if st is not None else None

    def bandwidth(self, device: str, direction: str) -> float | None:
        """Estimated link bandwidth (bytes/s) of a device in a direction."""
        st = self._devices.get(device)
        return st.bw.get(direction) if st is not None else None

    def k_transfer(
        self, device: str, buf: str, direction: str, sizes: BufferSizes
    ) -> float | None:
        """Seconds per MB row to move a buffer in a direction.

        Derived as ``bytes_per_row / measured_bandwidth`` so one observed
        transfer in a direction characterizes every buffer type.
        """
        bw = self.bandwidth(device, direction)
        if bw is None:
            return None
        return buffer_row_bytes(buf, sizes) / bw
