"""Unit mistakes in the performance model, and plan-reuse keys missing a
field, die on the dynamic checks.

The LP is only as right as the units of what it consumes: K in s/row,
bandwidth in B/s, transfers in rows × bytes-per-row. The static REP101
unit lattice was retired on this evidence: each of its four seeded
mutants, transplanted into the ``hw/``/``core/`` function where such a
mistake would live, fails a plain check the suite already runs — and the
same check passes on the unmutated function, so the kill is the
mutant's.

A repeated frame reuses the plans and the op graph built from its
inputs; a key that misses one input reuses a stale one. Two such
mutants die on the model-mode digests.
"""

import pytest

import test_analysis
import test_coding_manager
import test_load_balancing
import test_model_digest
from repro.core.coding_manager import VideoCodingManager
from repro.core.config import FrameworkConfig
from repro.core.data_access import DataAccessManager
from repro.core.framework import FevesFramework
from repro.core.load_balancing import LoadBalancer
from repro.core.perf_model import PerformanceCharacterization
from repro.hw.presets import get_platform


def run_model(platform: str, frames: int) -> FevesFramework:
    fw = FevesFramework(get_platform(platform), test_analysis.CFG, FrameworkConfig())
    fw.run_model(frames)
    return fw


def clean_digest_holds():
    test_model_digest.test_model_mode_digest_is_pinned("SysNFF_clean")


def ideal_bound_holds():
    test_analysis.TestIdealBound().test_efficiency_in_range(run_model("SysHK", 15))


def observed_k_holds():
    test_coding_manager.TestMeasurements().test_observed_k_matches_ground_truth()


def sigma_window_holds():
    test_load_balancing.TestSigmaWindow().test_positive_window_still_catches_up()


def ref_ramp_digest_holds():
    test_model_digest.test_model_mode_digest_is_pinned("CPU_N_ref_ramp")


def fixed_decision_digest_holds():
    test_model_digest.test_model_mode_digest_is_pinned("SysNF_fixed_decision")


#: Mutant -> (class, method, original, mutant, check that kills it,
#: what the check raises on the mutant, a pattern its message must match).
SITES = {
    # Rows per second planned as a transfer's byte count: every transfer
    # of the pinned SysNFF run takes another time.
    "rows_per_second_into_bytes": (
        DataAccessManager, "plan",
        "nbytes=rows * row_bytes[buf]",
        "nbytes=round(rows / max(decision.tau_tot_pred, 1e-3))",
        clean_digest_holds, AssertionError, "inter frame 1 moved",
    ),
    # Rows added to the R* op's simulated seconds: the measured
    # efficiency falls far below the ideal-aggregate bound.
    "seconds_plus_rows": (
        VideoCodingManager, "_build_rstar",
        "rstar_dev.spec.rates.rstar_frame_s(cfg), rstar_deps",
        "rstar_dev.spec.rates.rstar_frame_s(cfg) + cfg.mb_rows, rstar_deps",
        ideal_bound_holds, AssertionError, None,
    ),
    # A rate (rows/s) stored where K (s/row) belongs: the noise-free
    # measurement no longer equals the rate model.
    "mismatch_through_assignment": (
        PerformanceCharacterization, "observe_compute",
        "st.k_compute.get(module), seconds / rows",
        "st.k_compute.get(module), rows / seconds",
        observed_k_holds, AssertionError, None,
    ),
    # The LP's τ2→τtot window (s) clipped by the frame (rows) and never
    # divided by K, so σ is 0 rows whenever the window is under a second.
    "min_mixing_units": (
        LoadBalancer, "_finalize",
        "int((tau_tot - tau2) / k_sf)",
        "int(min(tau_tot - tau2, self.codec_cfg.mb_rows))",
        sigma_window_holds, AssertionError, None,
    ),
    # The graph key without the active references: on one device the
    # rows repeat from frame 1, so frame 2 re-times a 1-reference ME op.
    "graph_key_without_active_refs": (
        VideoCodingManager, "run_frame",
        "plan.rstar_device, plan.active_refs,",
        "plan.rstar_device,",
        ref_ramp_digest_holds, AssertionError, "inter frame 2 moved",
    ),
    # The plan key without the DAM's σʳ backlog: under one decision
    # object frame 3 reuses frame 2's transfers, which fetched none.
    "plan_key_without_sigma_r": (
        FevesFramework, "_encode_inter",
        "tuple(dam.sigma_r_rows.items()), ",
        "",
        fixed_decision_digest_holds, AssertionError, "inter frame 3 moved",
    ),
}


@pytest.mark.parametrize("name", list(SITES))
class TestUnitMutantsDie:
    def test_mutant_is_killed(self, transplant, name):
        cls, method, old, new, check, raised, match = SITES[name]
        transplant(cls, method, old, new)
        with pytest.raises(raised, match=match):
            check()

    def test_site_passes_unmutated(self, name):
        check = SITES[name][4]
        check()
