"""Load Balancing: the linear program of paper Algorithm 2.

Distributes the ME / INT / SME loads (vectors ``m``, ``l``, ``s`` in MB
rows) across all devices to minimize the total inter-loop time τtot,
subject to per-synchronization-point feasibility of every compute engine
and copy engine, using the measured Performance Characterization.

The Δm/Δl data-reuse terms (MS_BOUNDS/LS_BOUNDS) depend on the very
distributions being solved for, so — as in the paper — they enter the LP
as constants and are refined by a short fixed-point iteration: solve LP →
recompute Δ from the solution → re-solve. The continuous solution is then
rounded to whole MB rows (largest-remainder, sum-preserving), and the SF
catch-up transfers σ/σʳ are sized from the predicted τtot − τ2 window
(paper eqs. (14)–(15)).
"""

from __future__ import annotations

import importlib.util
import sys
from collections.abc import Callable
from dataclasses import dataclass, field
from itertools import accumulate
from itertools import combinations as _combinations
from operator import eq
from pathlib import Path
from types import ModuleType
from typing import NamedTuple

import numpy as np

from repro.codec.config import CodecConfig
from repro.core.bounds import ExtraTransfers, ls_bounds, ms_bounds, sf_remainder_segments
from repro.core.config import FrameworkConfig
from repro.core.distribution import Distribution, round_preserving_sum
from repro.core.perf_model import PerformanceCharacterization
from repro.hw.interconnect import BufferSizes
from repro.hw.topology import Platform
from repro.util.journal import record as _journal, span


def _load_highs_bindings() -> ModuleType:
    """The highspy extension SciPy ships, without ``scipy.optimize``.

    ``import scipy.optimize._highspy._core`` first executes
    ``scipy/optimize/__init__`` — every optimizer, ``scipy.linalg``,
    ``.special``, ``.spatial``: ≈ 0.4 s and ≈ 40 MB to reach one extension
    module that needs none of it. So the file is loaded by path, under its
    canonical name: a later ``import scipy.optimize`` (the ``linprog``
    oracle in ``tests/oracles.py``) finds it in ``sys.modules`` and shares
    the one module. ``scipy.optimize`` has no public path to the bindings
    either way; this is the one site that reaches for them.
    """
    name = "scipy.optimize._highspy._core"
    if name in sys.modules:
        return sys.modules[name]
    scipy = importlib.util.find_spec("scipy")
    for root in (scipy.submodule_search_locations if scipy else None) or ():
        for path in Path(root, "optimize", "_highspy").glob("_core*"):
            spec = importlib.util.spec_from_file_location(name, path)
            if spec is not None and spec.loader is not None:
                module = importlib.util.module_from_spec(spec)
                spec.loader.exec_module(module)
                sys.modules[name] = module
                return module
    raise ImportError(
        "repro.core.load_balancing needs SciPy >= 1.15 (HiGHS through the "
        "highspy bindings it ships as scipy.optimize._highspy._core)"
    )


_hs = _load_highs_bindings()
_COLWISE = int(_hs.MatrixFormat.kColwise)
_MINIMIZE = int(_hs.ObjSense.kMinimize)


@dataclass(slots=True)
class LoadDecision:
    """Complete per-frame scheduling decision."""

    m: Distribution
    l: Distribution
    s: Distribution
    delta_m: list[ExtraTransfers]
    delta_l: list[ExtraTransfers]
    sigma: dict[str, ExtraTransfers] = field(default_factory=dict)
    sigma_r: dict[str, ExtraTransfers] = field(default_factory=dict)
    tau1_pred: float = 0.0
    tau2_pred: float = 0.0
    tau_tot_pred: float = 0.0
    used_lp: bool = False


#: Fixed-point iterations between the LP solve and the Δm/Δl
#: (MS_BOUNDS/LS_BOUNDS) recomputation.
LP_DELTA_ITERATIONS = 2

#: MB rows per module granted to a live device with no characterization
#: (start-up, or re-admitted after a fault cleared its measurements), so
#: it re-measures online without the LP gambling on unknown speeds.
WARMUP_ROWS = 2

#: Relative slack on the incumbent τtot before a parked subset's closed-form
#: floor (:meth:`LoadBalancer._tau_floor`) may skip its solves. It covers
#: HiGHS's 1e-7 primal feasibility tolerance at the smallest τtot the codec
#: range produces (≈ 1 ms at CIF) and costs nothing: a subset the floor
#: rules out sits ≥ 12 % above the incumbent on every platform measured.
PRUNE_MARGIN = 1e-3


def _empty_extra() -> ExtraTransfers:
    return ExtraTransfers(segments=(), rows=0)


#: How far off a bound or a row ``linprog`` let an optimum be (``_check_result``).
RESIDUAL_TOL = float(np.sqrt(1e-9) * 10)


def _new_highs() -> "_hs._Highs":
    """A HiGHS instance with the options ``linprog(method="highs")`` sets."""
    highs = _hs._Highs()
    for option, value in (
        ("presolve", "on"),
        ("simplex_strategy", int(_hs.simplex_constants.SimplexStrategy.kSimplexStrategyDual)),
        ("highs_debug_level", int(_hs.HighsDebugLevel.kHighsDebugLevelNone)),
        ("log_to_console", False),
        ("output_flag", False),
    ):
        if highs.setOptionValue(option, value) != _hs.HighsStatus.kOk:
            raise RuntimeError(f"HiGHS rejected option {option}={value!r}")
    return highs


class ColumnLP(NamedTuple):
    """One LP in HiGHS's column form: ``argmin c·x`` s.t. ``row_lower ≤ A x ≤
    row_upper`` and ``col_lower ≤ x ≤ col_upper`` (``±inf``: open).

    Column ``j`` of ``A`` holds ``value[start[j]:start[j + 1]]`` in rows
    ``index[start[j]:start[j + 1]]``, ascending; an exact zero is no entry.
    """

    c: np.ndarray
    col_lower: np.ndarray
    col_upper: np.ndarray
    row_lower: np.ndarray
    row_upper: np.ndarray
    start: np.ndarray
    index: np.ndarray
    value: np.ndarray


class _SubsetLP(NamedTuple):
    """One activity subset's LP for one frame, Δm/Δl aside
    (:meth:`LoadBalancer._build_lp`): the matrix, the cost, the column
    bounds and every row bound Δ does not move, plus the rows it does."""

    lp: ColumnLP
    #: (row, its upper bound as a function of (dm, dl)) per Δ-dependent row.
    delta_rows: list[tuple[int, Callable[[list[int], list[int]], float]]]

    def at(self, dm: list[int], dl: list[int]) -> ColumnLP:
        """The LP with the Δm/Δl terms ``dm``/``dl`` fixed."""
        upper = self.lp.row_upper.copy()
        for row, rhs in self.delta_rows:
            upper[row] = rhs(dm, dl)
        return self.lp._replace(row_upper=upper)


class LPSolveCache:
    """Exact-keyed memo of HiGHS solves — the warm-start fast path.

    The per-frame LP changes only through its K-parameter coefficients;
    in steady state (and between the Δ fixed-point iterations once the
    fixed point is reached) consecutive solves receive byte-identical
    constraint systems. The cache keys on the exact bytes of the LP's
    column arrays, so a hit returns precisely what the cold solve would
    have returned (HiGHS is deterministic) — bit-identical by
    construction, no tolerance.

    A miss goes straight to HiGHS, on one persistent instance per cache
    (:func:`_new_highs`); ``passModel`` drops the previous basis and
    solution, so no answer depends on what the instance solved before.

    Only a shared instance memoizes: the service layer hands every
    session one cache (``RoundLPBatch``), which batches the structurally
    identical per-session solves of a scheduling round into one HiGHS
    call per *unique* constraint system (sessions holding equal capacity
    shares measure equal Ks and therefore build equal systems). A lone
    balancer's LP moves with every measurement, so its cache is built
    with ``max_entries=0``: it counts each solve as a miss, builds no key
    and stores nothing.

    Infeasible outcomes are cached as ``None`` — re-proving
    infeasibility is as wasteful as re-solving.
    """

    __slots__ = ("max_entries", "hits", "misses", "_table", "_highs")

    def __init__(self, max_entries: int = 1024) -> None:
        if max_entries < 0:
            raise ValueError(f"max_entries must be >= 0, got {max_entries}")
        self.max_entries = max_entries
        self.hits = 0
        self.misses = 0
        self._table: dict[tuple, np.ndarray | None] = {}
        self._highs = _new_highs()

    def solve(self, lp: ColumnLP) -> np.ndarray | None:
        """The optimal ``x`` of ``lp``: read-only and shared by later hits,
        ``None`` without a proven optimum."""
        if not self.max_entries:
            self.misses += 1
            return self._cold_solve(lp)
        key = tuple(arr.tobytes() for arr in lp)
        if key in self._table:
            self.hits += 1
            return self._table[key]
        self.misses += 1
        x = self._cold_solve(lp)
        if len(self._table) >= self.max_entries:
            self._table.pop(next(iter(self._table)))  # FIFO eviction
        self._table[key] = x
        return x

    def _cold_solve(self, lp: ColumnLP) -> np.ndarray | None:
        """One HiGHS run, with what ``linprog`` checked around the same call.

        Before: NaN or ±inf in the cost, a matrix entry or an upper row
        bound, or NaN or +inf in a lower row bound, is a ``ValueError``
        (HiGHS takes a NaN cost and answers). After: anything but
        ``kOptimal`` — infeasible, unbounded, ``kError`` from ``passModel``
        or ``run`` — is ``None``, and so is an "optimum" off a bound or a
        row by more than ``RESIDUAL_TOL``.
        """
        row_lower = lp.row_lower
        for name, arr in (
            ("c", lp.c), ("value", lp.value), ("row_upper", lp.row_upper),
            ("row_lower", row_lower[row_lower != -np.inf]),  # −inf: an open row
        ):
            if not np.isfinite(arr).all():
                raise ValueError(f"LP input {name} must not contain inf or nan")
        num_col = len(lp.c)
        highs = self._highs
        if (
            highs.passModel(
                num_col, len(row_lower), len(lp.value), _COLWISE, _MINIMIZE, 0.0,
                lp.c, lp.col_lower, lp.col_upper, row_lower, lp.row_upper,
                lp.start, lp.index, lp.value,
                np.zeros(num_col, dtype=np.int32),  # all continuous; empty is kError
            ) == _hs.HighsStatus.kError
            or highs.run() == _hs.HighsStatus.kError
            or highs.getModelStatus() != _hs.HighsModelStatus.kOptimal
        ):
            return None
        solution = highs.getSolution()
        x = np.array(solution.col_value)
        rows = np.array(solution.row_value)
        if not (
            (x >= lp.col_lower - RESIDUAL_TOL).all()
            and (x <= lp.col_upper + RESIDUAL_TOL).all()
            and (lp.row_upper - rows >= -RESIDUAL_TOL).all()
            and (rows - row_lower >= -RESIDUAL_TOL).all()
        ):  # written so that a NaN anywhere fails
            return None
        x.setflags(write=False)  # shared across hits — must stay frozen
        return x

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class LoadBalancer:
    """Builds and solves the Algorithm-2 LP for one platform."""

    def __init__(
        self,
        platform: Platform,
        codec_cfg: CodecConfig,
        fw_cfg: FrameworkConfig,
    ) -> None:
        self.platform = platform
        self.codec_cfg = codec_cfg
        self.fw_cfg = fw_cfg
        self.sizes = BufferSizes(width=codec_cfg.width, height=codec_cfg.height)
        self.halo = codec_cfg.sf_halo_rows
        self._cache_ks: tuple[float, ...] | None = None
        self._cache_key: tuple | None = None
        self._cache_decision: LoadDecision | None = None
        self._seed: tuple[Distribution, Distribution, Distribution] | None = None
        # Exact decision reuse is only sound when the seeded subset's Δ
        # fixed point converged in the cached solve (a converged fixed
        # point is stationary: re-solving from the stored seed reproduces
        # the same rows and taus; see DESIGN.md → Performance).
        self._lp_converged = False
        self.lp_cache = LPSolveCache(max_entries=0)
        # Characterization-derived tables, keyed on perf.version (bumped
        # on every observation/invalidation — a version match proves the
        # cached values are current).
        self._kt_cache_version: int | None = None
        self._kt_cache: dict[tuple[str, str, str], float | None] = {}

    def use_lp_cache(self, cache: LPSolveCache) -> None:
        """Adopt a shared solve cache (cross-session LP batching); until
        then the balancer solves through its own, which keeps nothing."""
        self.lp_cache = cache

    def note_live_set_change(self) -> None:
        """Invalidate per-frame caches after an eviction or re-admission.

        The decision cache and the fixed-point seed both encode the old
        live set's converged operating point; reusing either across a
        live-set change would let a pre-fault decision leak into the
        post-fault (or post-readmit) schedule. Dropping them makes the
        next solve behave exactly like a fresh balancer. A shared LP
        solve cache stays — its keys are the full constraint bytes, which
        already encode the live set.
        """
        _journal(self, "invalidate")
        self._cache_ks = None
        self._cache_key = None
        self._cache_decision = None
        self._seed = None
        self._lp_converged = False

    # --- public API ----------------------------------------------------------

    def equidistant(self, live: frozenset[str] | set[str] | None = None) -> LoadDecision:
        """Initialization-phase decision (Algorithm 1, line 3).

        ``live`` restricts the split to the surviving devices — evicted
        ones get zero rows; ``None`` means every platform device.
        """
        n = self.codec_cfg.mb_rows
        devices = self.platform.devices
        idx = [i for i, dev in enumerate(devices) if live is None or dev.name in live]
        if not idx:
            raise ValueError("no live devices to distribute over")
        per = Distribution.equidistant(n, len(idx))
        rows = [0] * len(devices)
        for k, i in enumerate(idx):
            rows[i] = per.rows[k]
        dist = Distribution(rows=tuple(rows), total=n)
        return self._finalize(dist, dist, dist, tau=(0.0, 0.0, 0.0), used_lp=False)

    def solve(
        self,
        perf: PerformanceCharacterization,
        rstar_device: str,
        needs_rf: dict[str, bool],
        sigma_r_prev: dict[str, int],
        live: frozenset[str] | set[str] | None = None,
    ) -> LoadDecision:
        """Iterative-phase decision (Algorithm 1, line 8).

        Parameters
        ----------
        perf:
            Current characterization.
        rstar_device:
            Device selected for the R* block this frame.
        needs_rf:
            Per accelerator: does it need the newest RF via h2d (False for
            the accelerator that produced it locally by running R*).
        sigma_r_prev:
            Per accelerator: SF rows deferred from the previous frame
            (σʳ⁻¹ in Algorithm 2), transferred during this frame's τ1.
        live:
            Names of devices allowed work this frame (None = all).
            Evicted devices get zero rows everywhere. Live devices that
            are not yet characterized — start-up, or re-admitted after a
            fault cleared their measurements — are *warming*: the LP
            plans over the measured survivors only, and each warming
            device is granted :data:`WARMUP_ROWS` rows per module so
            it re-characterizes without risking the frame time.
        """
        devices = self.platform.devices
        live_set = frozenset(
            dev.name for dev in devices if live is None or dev.name in live
        )
        if not live_set:
            raise ValueError("no live devices to distribute over")
        _journal(self, "solve", detail=live_set)
        live_idx = [i for i, dev in enumerate(devices) if dev.name in live_set]
        ready_idx = [i for i in live_idx if self._characterized(perf, devices[i])]
        warming_idx = [i for i in live_idx if i not in ready_idx]
        if not ready_idx:
            return self.equidistant(live=live_set)
        n = self.codec_cfg.mb_rows
        d = len(devices)
        if len(ready_idx) == 1:
            # Degenerate survivor set: no LP needed, everything runs on the
            # one characterized device (minus warm-up grants for any device
            # currently re-characterizing).
            dist = Distribution.single_device(n, d, ready_idx[0])
            m, l, s = self._grant_warmup(dist, dist, dist, warming_idx)
            return self._finalize(m, l, s, (0, 0, 0), used_lp=False)

        dead = frozenset(i for i in range(d) if i not in ready_idx)
        names = [devices[i].name for i in ready_idx]
        accel = [devices[i].name for i in ready_idx if devices[i].is_accelerator]

        # Decision cache: if no measured K moved beyond the tolerance and
        # the discrete inputs are identical, the previous decision is still
        # optimal — skip the solve (keeps steady-state scheduling overhead
        # at bookkeeping level; any real load change re-solves this frame).
        ks = self._k_vector(perf, names, accel)
        key = (
            rstar_device,
            live_set,
            tuple(names),
            tuple(sorted(needs_rf.items())),
            tuple(sorted(sigma_r_prev.items())),
        )
        rtol = self.fw_cfg.lb_cache_rtol
        cached = self._cache_ks
        if (
            self._cache_decision is not None
            and self._cache_key == key
            and cached is not None
            and len(cached) == len(ks)
        ):
            # Exact reuse (warm start): with bit-identical Ks and a
            # converged fixed point, re-solving provably reproduces the
            # cached decision — skipping the solve is not approximation.
            # Element by element, so that a NaN K never matches itself.
            if self._lp_converged and all(map(eq, ks, cached)):
                return self._cache_decision
            if rtol > 0 and all(
                abs(k - c) <= rtol * abs(c) for k, c in zip(ks, cached)
            ):
                return self._cache_decision

        # Activity-subset search: devices whose steady-state SF maintenance
        # cost exceeds their contribution are better "parked" entirely (an
        # option the base LP cannot express because the maintenance term is
        # gated by participation). Enumerate active subsets of the parkable
        # accelerators (non-R* GPUs) and keep the best steady-state τtot.
        parkable = [
            i
            for i in ready_idx
            if devices[i].is_accelerator and devices[i].name != rstar_device
        ]
        if not self.fw_cfg.enable_parking:
            parkable = []
        subsets: list[frozenset[int]]
        if len(parkable) <= 3:
            subsets = [
                frozenset(c)
                for k in range(len(parkable) + 1)
                for c in _combinations(parkable, k)
            ]
        else:  # all-active plus leave-one-out (keeps solve count linear)
            subsets = [frozenset()] + [frozenset((i,)) for i in parkable]

        best = None
        # Exact decision reuse needs the next cold solve to be provably
        # stationary. Subsets with parked or dead devices start from the
        # equidistant split — pure functions of (ks, key), always
        # reproducible. The all-active subset starts from the seed, which
        # this solve is about to overwrite with the winning rows; a
        # re-solve reproduces it only if the winner *is* the all-active
        # subset and its Δ fixed point converged (stationary at the
        # seed). With dead devices no subset consults the seed at all.
        reusable = bool(dead)
        for parked in subsets:
            if parked and best is not None:
                # Bound, then solve: a subset whose floor already exceeds
                # the incumbent cannot win the strict `<` below.
                with span(self, "bounds"):
                    floor = self._tau_floor(
                        perf, rstar_device,
                        [devices[i] for i in ready_idx if i not in parked],
                    )
                if floor > best[3][2] * (1.0 + PRUNE_MARGIN):
                    continue
            result = self._solve_with_fixed_point(
                perf, rstar_device, needs_rf, sigma_r_prev, parked | dead
            )
            if result is None:
                continue
            m, l, s, taus, converged = result
            if best is None or taus[2] < best[3][2]:
                best = (m, l, s, taus)
                if not dead:
                    reusable = (not parked) and converged
        if best is None:
            return self._heuristic(perf, ready_idx, warming_idx)
        m, l, s, taus = best
        self._seed = (m, l, s)
        m, l, s = self._grant_warmup(m, l, s, warming_idx)
        with span(self, "distribution"):
            decision = self._finalize(
                m, l, s, taus, used_lp=True, perf=perf, rstar_device=rstar_device
            )
        self._cache_ks = ks
        self._cache_key = key
        self._cache_decision = decision
        self._lp_converged = reusable
        return decision

    def _characterized(self, perf: PerformanceCharacterization, dev) -> bool:
        """Does the LP have every K it needs for this device?"""
        if any(
            perf.k_compute(dev.name, module) is None
            for module in ("me", "int", "sme")
        ):
            return False
        if dev.is_accelerator and (
            perf.bandwidth(dev.name, "h2d") is None
            or perf.bandwidth(dev.name, "d2h") is None
        ):
            return False
        return True

    def _tau_floor(
        self, perf: PerformanceCharacterization, rstar_device: str, active: list
    ) -> float:
        """Closed-form lower bound on the LP optimum τtot over ``active`` devices.

        A relaxation that keeps only rows :meth:`_build_lp` itself emits,
        so it holds whatever Δm/Δl/σʳ are. Each device's engine row
        ``K^m m_i + K^l l_i ≤ τ1`` divided by ``K^m_i`` and summed with
        Σm = Σl = n gives τ1 ≥ n·(1 + min_i K^l_i/K^m_i) / Σ_i 1/K^m_i
        (and its m↔l mirror; the larger holds); ``K^s s_i ≤ τ2 − τ1``
        sums to τ2 − τ1 ≥ n / Σ_i 1/K^s_i; the R* row leaves
        τtot − τ2 ≥ T^R* (+ n·K^{rf,dh} on an accelerator: row (9) with
        s_i ≤ n) when the R* device is active. A missing or zero K makes
        the floor 0.0, which prunes nothing.
        """
        n = self.codec_cfg.mb_rows
        ks = [
            [perf.k_compute(dev.name, module) for module in ("me", "int", "sme")]
            for dev in active
        ]
        if not ks or not all(k for per_dev in ks for k in per_dev):
            return 0.0
        inv_me = sum(1.0 / km for km, _, _ in ks)
        inv_int = sum(1.0 / kl for _, kl, _ in ks)
        inv_sme = sum(1.0 / k for _, _, k in ks)
        int_per_me = min(kl / km for km, kl, _ in ks)
        me_per_int = min(km / kl for km, kl, _ in ks)
        tau1 = n * max((1.0 + int_per_me) / inv_me, (1.0 + me_per_int) / inv_int)
        tail = 0.0
        for dev in active:
            if dev.name == rstar_device:
                tail = perf.rstar_frame_s(dev.name) or 0.0
                if dev.is_accelerator:
                    tail += n * (perf.k_transfer(dev.name, "rf", "d2h", self.sizes) or 0.0)
        return tau1 + n / inv_sme + tail

    def _grant_warmup(
        self,
        m: Distribution,
        l: Distribution,  # noqa: E741
        s: Distribution,
        warming_idx: list[int],
    ) -> tuple[Distribution, Distribution, Distribution]:
        """Carve warm-up rows for re-characterizing devices.

        Each warming device takes :data:`WARMUP_ROWS` rows per module
        from whichever device currently holds the most — a deliberate tiny
        probe workload (paper's initialization measurements, re-run online)
        that yields fresh K values next frame while bounding the damage a
        still-unknown device can do to τtot.
        """
        if not warming_idx:
            return m, l, s
        out = []
        for dist in (m, l, s):
            rows = list(dist.rows)
            for w in warming_idx:
                donor = max(range(len(rows)), key=lambda i: rows[i])
                grant = min(WARMUP_ROWS, rows[donor] - 1)
                if grant <= 0:
                    continue
                rows[donor] -= grant
                rows[w] += grant
            out.append(Distribution(rows=tuple(rows), total=dist.total))
        return out[0], out[1], out[2]

    def _solve_with_fixed_point(
        self,
        perf: PerformanceCharacterization,
        rstar_device: str,
        needs_rf: dict[str, bool],
        sigma_r_prev: dict[str, int],
        parked: frozenset[int],
    ):
        """Δ fixed-point iteration of the LP for one active subset.

        Returns ``(m, l, s, taus, converged)`` or None; ``converged``
        records whether the iteration reached its fixed point (rows
        stable across consecutive solves), which gates exact decision
        reuse in :meth:`solve`.
        """
        n = self.codec_cfg.mb_rows
        d = len(self.platform.devices)
        if self._seed is not None and self._seed[0].n_devices == d and not parked:
            m, l, s = self._seed
        else:
            active = [i for i in range(d) if i not in parked]
            rows = [0] * d
            per = Distribution.equidistant(n, len(active))
            for k, i in enumerate(active):
                rows[i] = per.rows[k]
            m = l = s = Distribution(rows=tuple(rows), total=n)
        with span(self, "lp_build"):
            subset = self._build_lp(perf, rstar_device, needs_rf, sigma_r_prev, parked)
        if subset is None:
            return None
        # The seed's rows count as the previous solve's: an LP that returns
        # its own seed is at the fixed point (a second solve would be fed
        # the same Δ, so the same bytes, and answer the same).
        prev_rows = (m.rows, l.rows, s.rows)
        converged = False
        for _ in range(LP_DELTA_ITERATIONS):
            with span(self, "bounds"):
                dm = [ms_bounds(m, s, i).rows for i in range(d)]
                dl = [ls_bounds(l, s, i, self.halo).rows for i in range(d)]
            solution = self._solve_lp(subset, dm, dl)
            if solution is None:
                return None
            mf, lf, sf, taus = solution
            with span(self, "distribution"):
                m = Distribution(rows=round_preserving_sum(mf, n), total=n)
                l = Distribution(rows=round_preserving_sum(lf, n), total=n)
                s = Distribution(rows=round_preserving_sum(sf, n), total=n)
            rows = (m.rows, l.rows, s.rows)
            if rows == prev_rows:  # Δ fixed point reached
                converged = True
                break
            prev_rows = rows
        return m, l, s, taus, converged

    # --- internals -----------------------------------------------------------

    def _k_vector(
        self,
        perf: PerformanceCharacterization,
        names: list[str],
        accel: list[str],
    ) -> tuple[float, ...]:
        """All measured speeds the LP consumes, flattened (for the cache)."""
        vals: list[float] = []
        for name in names:
            for module in ("me", "int", "sme"):
                vals.append(perf.k_compute(name, module) or 0.0)
            vals.append(perf.rstar_frame_s(name) or 0.0)
        for name in accel:
            vals.append(perf.bandwidth(name, "h2d") or 0.0)
            vals.append(perf.bandwidth(name, "d2h") or 0.0)
        return tuple(vals)

    def _heuristic(
        self,
        perf: PerformanceCharacterization,
        active_idx: list[int] | None = None,
        warming_idx: list[int] | None = None,
    ) -> LoadDecision:
        """Speed-proportional fallback when the LP is infeasible.

        Only ``active_idx`` devices receive speed-proportional shares
        (None = all); warming devices get their warm-up grants on top.
        """
        n = self.codec_cfg.mb_rows
        devices = self.platform.devices
        if active_idx is None:
            active_idx = list(range(len(devices)))
        dists = []
        for module in ("me", "int", "sme"):
            speed = np.zeros(len(devices))
            for i in active_idx:
                k = perf.k_compute(devices[i].name, module) or 1.0
                speed[i] = 1.0 / max(k, 1e-12)
            dists.append(
                Distribution(
                    rows=round_preserving_sum(speed, n), total=n
                )
            )
        m, l, s = self._grant_warmup(
            dists[0], dists[1], dists[2], warming_idx or []
        )
        return self._finalize(m, l, s, (0, 0, 0), used_lp=False)

    def _finalize(
        self,
        m: Distribution,
        l: Distribution,
        s: Distribution,
        tau: tuple[float, float, float],
        used_lp: bool,
        perf: PerformanceCharacterization | None = None,
        rstar_device: str | None = None,
    ) -> LoadDecision:
        devices = self.platform.devices
        d = len(devices)
        delta_m = [
            ms_bounds(m, s, i) if devices[i].is_accelerator else _empty_extra()
            for i in range(d)
        ]
        delta_l = [
            ls_bounds(l, s, i, self.halo) if devices[i].is_accelerator else _empty_extra()
            for i in range(d)
        ]
        sigma: dict[str, ExtraTransfers] = {}
        sigma_r: dict[str, ExtraTransfers] = {}
        tau1, tau2, tau_tot = tau
        for i, dev in enumerate(devices):
            if not dev.is_accelerator:
                continue
            if rstar_device is not None and dev.name == rstar_device:
                # The R* accelerator receives the complete SF for MC in
                # phase 2 — nothing is deferred (paper Fig. 5(b)).
                continue
            if m.rows[i] + l.rows[i] + s.rows[i] == 0:
                # Idle ("parked") accelerator: stop mirroring the SF; the
                # Data Access Manager charges a full refetch if the device
                # is reactivated later.
                continue
            if perf is not None:
                # LP path: σ must fit the *predicted* τ2..τtot window. When
                # the prediction leaves no window (τtot ≤ τ2 happens when
                # R* collapses into τ2's slack) nothing can be caught up
                # this frame — defer everything to σʳ rather than sizing σ
                # from a non-positive budget.
                budget = 0
                if tau_tot > tau2:
                    k_sf = perf.k_transfer(dev.name, "sf", "h2d", self.sizes)
                    if k_sf and k_sf > 0:
                        budget = max(0, int((tau_tot - tau2) / k_sf))
            else:
                budget = self.codec_cfg.mb_rows
            sg, rem = sf_remainder_segments(l, s, i, self.halo, budget)
            sigma[dev.name] = sg
            sigma_r[dev.name] = rem
        return LoadDecision(
            m=m,
            l=l,
            s=s,
            delta_m=delta_m,
            delta_l=delta_l,
            sigma=sigma,
            sigma_r=sigma_r,
            tau1_pred=tau1,
            tau2_pred=tau2,
            tau_tot_pred=tau_tot,
            used_lp=used_lp,
        )

    def _solve_lp(
        self, subset: _SubsetLP, dm: list[int], dl: list[int]
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, tuple[float, float, float]] | None:
        """One LP solve of ``subset`` with the Δ terms ``dm``/``dl`` fixed.
        Returns (m, l, s, taus) or None.

        The right-hand sides (``lp_build``) and the HiGHS call (through
        :attr:`lp_cache`, ``lp_solve``) are journaled as separate spans.
        """
        with span(self, "lp_build"):
            lp = subset.at(dm, dl)
        with span(self, "lp_solve"):
            x = self.lp_cache.solve(lp)
        if x is None:
            return None
        d = len(self.platform.devices)
        i_t1 = 3 * d
        taus = (float(x[i_t1]), float(x[i_t1 + 1]), float(x[i_t1 + 2]))
        return x[0:d], x[d : 2 * d], x[2 * d : 3 * d], taus

    def _kt_lookup(self, perf: PerformanceCharacterization):
        """Per-row transfer-K accessor, cached on the perf version.

        ``k_transfer`` re-derives bytes-per-row ÷ bandwidth on every call;
        the LP asks for the same (device, buffer, direction) triples up to
        eight times per frame × fixed-point iterations × subsets. The
        memo is keyed on :attr:`PerformanceCharacterization.version`,
        which bumps on every observation or invalidation, so a version
        match proves each cached K equals what a fresh call would return.
        """
        sizes = self.sizes
        ver = perf.version
        if self._kt_cache_version != ver:
            self._kt_cache.clear()
            self._kt_cache_version = ver
        table = self._kt_cache

        def kt(name: str, buf: str, dr: str) -> float | None:
            key = (name, buf, dr)
            if key in table:
                return table[key]
            val = perf.k_transfer(name, buf, dr, sizes)
            table[key] = val
            return val

        return kt

    def _build_lp(
        self,
        perf: PerformanceCharacterization,
        rstar_device: str,
        needs_rf: dict[str, bool],
        sigma_r_prev: dict[str, int],
        parked: frozenset[int],
    ) -> _SubsetLP | None:
        """Assemble one activity subset's constraint system for this frame,
        Δ aside (:meth:`_SubsetLP.at`). Returns None if a K is missing.

        ``parked`` devices are excluded entirely (zero rows, no transfer
        obligations). Every *active* non-R* accelerator additionally gets a
        σ variable and the steady-state SF-maintenance constraint: the SF
        rows it neither interpolated nor fetched as Δl must flow in either
        during τ2..τtot (σ) or during the next frame's τ1 (the backlog),
        which is what stops the LP from myopically assigning work to
        devices behind links too slow to keep their SF mirror warm.

        Δm/Δl enter right-hand sides only, so the matrix is built once per
        subset: each row's bound is a number, or a function of ``(dm,
        dl)`` that :meth:`_SubsetLP.at` evaluates per Δ iteration.
        """
        devices = self.platform.devices
        d = len(devices)
        n = self.codec_cfg.mb_rows
        # σ variables for active non-R* accelerators.
        sigma_devs = [
            i
            for i, dev in enumerate(devices)
            if dev.is_accelerator and dev.name != rstar_device and i not in parked
        ]
        nv = 3 * d + 3 + len(sigma_devs)
        i_m = lambda i: i                    # noqa: E731
        i_l = lambda i: d + i                # noqa: E731
        i_s = lambda i: 2 * d + i            # noqa: E731
        i_t1, i_t2, i_tt = 3 * d, 3 * d + 1, 3 * d + 2
        i_sig = {dev_i: 3 * d + 3 + k for k, dev_i in enumerate(sigma_devs)}

        # Row r is ``coefs[r] · x ≤ upper[r]``, the bound a number or a
        # function of (dm, dl).
        coefs: list[dict[int, float]] = []
        upper: list = []

        def add(coef: dict[int, float], rhs) -> None:
            coefs.append(coef)
            upper.append(rhs)

        kt = self._kt_lookup(perf)

        def device_rows(i: int, dev) -> bool:
            # One device's rows (a scope per device: the bounds' closures
            # bind its own Ks); False if a K is missing.
            name = dev.name
            km = perf.k_compute(name, "me")
            kl = perf.k_compute(name, "int")
            ks = perf.k_compute(name, "sme")
            if km is None or kl is None or ks is None:
                return False
            # (2)-style compute capacity before τ1: INT + ME share the engine.
            add({i_m(i): km, i_l(i): kl, i_t1: -1.0}, 0.0)
            # (3)-style: SME fits in τ1..τ2.
            add({i_s(i): ks, i_t1: 1.0, i_t2: -1.0}, 0.0)

            if not dev.is_accelerator:
                if name == rstar_device:
                    trs = perf.rstar_frame_s(name) or 0.0
                    add({i_t2: 1.0, i_tt: -1.0}, -trs)
                return True

            k_cf = kt(name, "cf", "h2d")
            k_cff = kt(name, "cf_full", "h2d")
            k_rf_hd = kt(name, "rf", "h2d")
            k_rf_dh = kt(name, "rf", "d2h")
            k_sf_hd = kt(name, "sf", "h2d")
            k_sf_dh = kt(name, "sf", "d2h")
            k_mv_hd = kt(name, "mv", "h2d")
            k_mv_dh = kt(name, "mv", "d2h")
            if None in (k_cf, k_cff, k_rf_hd, k_rf_dh, k_sf_hd, k_sf_dh, k_mv_hd, k_mv_dh):
                return False
            rf_rows = n if needs_rf.get(name, True) else 0
            rf_in = rf_rows * k_rf_hd
            sf_backlog_in = sigma_r_prev.get(name, 0) * k_sf_hd

            def fixed1(dm: list[int]) -> float:
                return rf_in + dm[i] * k_cf + sf_backlog_in

            def fixed2(dm: list[int], dl: list[int]) -> float:
                return dl[i] * k_sf_hd + dm[i] * k_mv_hd

            single = dev.copy_h2d is dev.copy_d2h
            if single:
                # (4)–(6)/(10)–(12): one engine moves everything before τ1.
                add(
                    {i_m(i): k_cf + k_mv_dh, i_l(i): k_sf_dh, i_t1: -1.0},
                    lambda dm, dl: -fixed1(dm),
                )
            else:
                add({i_m(i): k_cf, i_t1: -1.0}, lambda dm, dl: -fixed1(dm))  # h2d engine
                add({i_m(i): k_mv_dh, i_l(i): k_sf_dh, i_t1: -1.0}, 0.0)  # d2h
            # Critical paths through compute: RF→CF→ME→MV_out, RF→INT→SF_out.
            add({i_m(i): k_cf + km + k_mv_dh, i_t1: -1.0}, -rf_rows * k_rf_hd)
            add({i_l(i): kl + k_sf_dh, i_t1: -1.0}, -rf_rows * k_rf_hd)

            if name == rstar_device:
                # (8): MC inputs stream in during SME on the R* accelerator.
                add(
                    {
                        i_m(i): -k_cff,
                        i_l(i): -k_sf_hd,
                        i_t1: 1.0,
                        i_t2: -1.0,
                    },
                    lambda dm, dl: -(
                        fixed2(dm, dl) + n * k_cff + n * k_sf_hd
                        - dm[i] * k_cff - dl[i] * k_sf_hd
                    ),
                )
                # Path: Δ in, SME compute (MVs stay local).
                add({i_s(i): ks, i_t1: 1.0, i_t2: -1.0}, lambda dm, dl: -fixed2(dm, dl))
                # (9): missing MVs in, R* block, RF back to host.
                trs = perf.rstar_frame_s(name) or 0.0
                add(
                    {i_s(i): -k_mv_hd, i_t2: 1.0, i_tt: -1.0},
                    -(n * k_mv_hd + trs + n * k_rf_dh),
                )
                return True
            # (13): Δ in, SME, SME MVs out, all within τ1..τ2.
            add(
                {i_s(i): ks + k_mv_dh, i_t1: 1.0, i_t2: -1.0},
                lambda dm, dl: -fixed2(dm, dl),
            )
            if single:
                add({i_s(i): k_mv_dh, i_t1: 1.0, i_t2: -1.0}, lambda dm, dl: -fixed2(dm, dl))
            # Steady-state SF maintenance ((14)/(15) made endogenous):
            # σ_i fits in the τ2..τtot window, never exceeds what is
            # still missing, and the remainder (the next frame's σʳ
            # backlog) must fit the phase-1 copy engine alongside the
            # regular phase-1 traffic.
            sig = i_sig[i]
            add({sig: k_sf_hd, i_t2: 1.0, i_tt: -1.0}, 0.0)     # (14)
            add({sig: 1.0, i_l(i): 1.0}, lambda dm, dl: float(n - dl[i]))  # σ ≤ missing

            def backlog(dm: list[int], dl: list[int]) -> float:
                return -(rf_rows * k_rf_hd + dm[i] * k_cf + (n - dl[i]) * k_sf_hd)

            if single:
                add(
                    {
                        i_m(i): k_cf + k_mv_dh,
                        i_l(i): k_sf_dh - k_sf_hd,
                        sig: -k_sf_hd,
                        i_t1: -1.0,
                    },
                    backlog,
                )
            else:
                add(
                    {
                        i_m(i): k_cf,
                        i_l(i): -k_sf_hd,
                        sig: -k_sf_hd,
                        i_t1: -1.0,
                    },
                    backlog,
                )
            return True

        for i, dev in enumerate(devices):
            if i in parked:
                continue  # zero bounds below; no constraints needed
            if not device_rows(i, dev):
                return None

        # τ ordering.
        add({i_t1: 1.0, i_t2: -1.0}, 0.0)
        add({i_t2: 1.0, i_tt: -1.0}, 0.0)

        # Σm = Σl = Σs = n over every device (a parked one's columns are
        # pinned to 0 by their bounds).
        n_ub = len(upper)
        for k in range(3):
            add(dict.fromkeys(range(k * d, (k + 1) * d), 1.0), n)
        delta_rows = [(r, rhs) for r, rhs in enumerate(upper) if callable(rhs)]
        for r, _ in delta_rows:
            upper[r] = 0.0  # set per Δ iteration (_SubsetLP.at)

        # Each column's (row, value) entries, rows ascending.
        entries: list[list[tuple[int, float]]] = [[] for _ in range(nv)]
        for r, coef in enumerate(coefs):
            for k, v in coef.items():
                if v:  # np.nonzero's rule: ±0.0 is no entry, NaN is one
                    entries[k].append((r, v))
        start = np.fromiter(accumulate(map(len, entries), initial=0), np.int32, nv + 1)

        col_upper = np.full(nv, float(n))
        col_upper[i_t1 : i_tt + 1] = np.inf
        for i in sorted(parked):  # sorted: a set's order is not reproducible (REP102)
            col_upper[[i_m(i), i_l(i), i_s(i)]] = 0.0
        row_lower = np.full(n_ub + 3, -np.inf)
        row_lower[n_ub:] = n
        c = np.zeros(nv)
        c[i_tt] = 1.0
        lp = ColumnLP(
            c, np.zeros(nv), col_upper, row_lower, np.array(upper, dtype=float), start,
            np.array([r for col in entries for r, _ in col], dtype=np.int32),
            np.array([v for col in entries for _, v in col], dtype=float),
        )
        return _SubsetLP(lp, delta_rows)
