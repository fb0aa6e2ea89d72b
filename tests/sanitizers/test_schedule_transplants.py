"""Schedule mistakes die on plain tests: the evidence that retired SAN-A…D,
E2 and E3.

The timeline sanitizer re-derived, for every simulated frame, service
and fleet under ``REPRO_SANITIZE``, what the op graph enforces and plain
tests already pin. Each of its classes was judged by seeded mutants put
into the ``src/`` method where the mistake would live (DESIGN.md "Layer 1
— the timeline sanitizer's verdict" names the guard of each; its matrix,
plain and strict columns, is in EXPERIMENTS.md "The timeline sanitizer,
class by class"). Each mutant
below is installed with the ``transplant`` fixture and fails the named
plain test; every named test passes on the unmutated code, so each kill
is the mutant's.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

from repro.cluster.dispatcher import Cluster, Dispatcher, StreamState
from repro.cluster.node import Node
from repro.core.coding_manager import VideoCodingManager
from repro.core.data_access import DataAccessManager
from repro.core.frame_plan import FramePlan
from repro.core.framework import FevesFramework
from repro.core.load_balancing import LoadBalancer
from repro.hw.des import Simulator
from repro.hw.device import Device
from repro.service.scheduler import CoScheduler
from repro.service.service import EncodingService
from repro.service.session import EncodingSession

TESTS = Path(__file__).resolve().parent.parent

DIGEST = "core/test_model_digest.py::test_model_mode_digest_is_pinned[{}]"

#: mutant -> (class, method, original, mutant, plain test, what it raises).
SITES = {
    # --- SAN-A1: one op at a time on an engine -------------------------
    "des_prev_start": (
        Simulator, "run", "e = prev.end", "e = prev.start",
        DIGEST.format("SysNFF_clean"), AssertionError,
    ),
    "des_compute_unserialized": (
        Simulator, "run", "if prev is not None:",
        'if prev is not None and op.category != "compute":',
        DIGEST.format("SysNFF_clean"), AssertionError,
    ),
    "des_prev_two_back": (
        Simulator, "_compiled", "[None, *ops[:-1]]", "[None, None, *ops[:-2]]",
        DIGEST.format("SysNFF_clean"), AssertionError,
    ),
    # --- SAN-A2: copies in flight ≤ the link's copy engines ------------
    "two_queues_on_one_engine_link": (
        Device, "__post_init__", "if self.spec.link.copy_engines == 2:",
        "if self.spec.link.copy_engines >= 1:",
        DIGEST.format("SysNFF_clean"), AssertionError,
    ),
    "own_d2h_queue_on_shared_link": (
        Device, "__post_init__", "self.copy_d2h = shared",
        'self.copy_d2h = Resource(name=f"{self.spec.name}.copyD2H")',
        DIGEST.format("SysNFF_clean"), AssertionError,
    ),
    "des_copies_unserialized": (
        Simulator, "run", "if prev is not None:",
        'if prev is not None and op.category == "compute":',
        DIGEST.format("SysNFF_clean"), AssertionError,
    ),
    # --- SAN-B1: 0 ≤ τ1 ≤ τ2 ≤ τtot -------------------------------------
    "tau1_tau2_swapped": (
        VideoCodingManager, "run_frame",
        "tau1 = float(graph.tau1.end or 0.0)\n        tau2 = float(graph.tau2.end or 0.0)",
        "tau1 = float(graph.tau2.end or 0.0)\n        tau2 = float(graph.tau1.end or 0.0)",
        DIGEST.format("SysNFF_clean"), AssertionError,
    ),
    "timeline_tau_args_swapped": (
        VideoCodingManager, "run_frame",
        "FrameTimeline(plan.frame_index, records, tau1, tau2, tau_tot)",
        "FrameTimeline(plan.frame_index, records, tau2, tau1, tau_tot)",
        "core/test_coding_manager.py::TestSchedule::test_taus_ordered_and_positive",
        AssertionError,
    ),
    "tau_tot_is_rstar_span": (
        VideoCodingManager, "run_frame",
        "tau_tot = max(float(op.end or 0.0) for op in graph.tail)",
        "tau_tot = max(float(op.end or 0.0) for op in graph.tail) - tau2",
        DIGEST.format("SysNFF_clean"), AssertionError,
    ),
    # --- SAN-B2: every op inside its phase window ----------------------
    "rstar_without_tau2": (
        VideoCodingManager, "_build_rstar", "rstar_deps = [tau2_op]", "rstar_deps = []",
        "core/test_orchestration_fuzz.py::TestOrchestrationFuzz"
        "::test_any_distribution_schedules_validly",
        AssertionError,
    ),
    "phase2_h2d_without_tau1": (
        VideoCodingManager, "_build", "op = xfer(dev, entry, [tau1_op])",
        "op = xfer(dev, entry, [])",
        DIGEST.format("SysNFF_clean"), AssertionError,
    ),
    "phase1_d2h_outside_tau1": (
        VideoCodingManager, "_build",
        "phase1.append(xfer(dev, entry, [src[i]] if i in src else []))",
        "xfer(dev, entry, [src[i]] if i in src else [])",
        DIGEST.format("SysNFF_clean"), AssertionError,
    ),
    "phase3_sigma_without_tau2": (
        VideoCodingManager, "_build_rstar",
        "tail_ops.append(xfer(dev, entry, [tau2_op]))",
        "tail_ops.append(xfer(dev, entry, []))",
        DIGEST.format("SysNFF_clean"), AssertionError,
    ),
    # --- SAN-C1: m, l, s each cover the frame's rows -------------------
    "lp_rows_truncated": (
        LoadBalancer, "_solve_with_fixed_point",
        "m = Distribution(rows=round_preserving_sum(mf, n), total=n)",
        "m = Distribution(rows=tuple(int(f) for f in mf), total=n)",
        DIGEST.format("SysNFF_clean"), ValueError,
    ),
    "heuristic_rows_rounded": (
        LoadBalancer, "_heuristic",
        "rows=round_preserving_sum(speed, n), total=n",
        "rows=tuple(int(round(x)) for x in speed * n / speed.sum()), total=n",
        "core/test_failure_injection.py::TestLpFallbacks"
        "::test_heuristic_rows_cover_the_frame_on_four_devices",
        ValueError,
    ),
    "warmup_grant_off_by_one": (
        LoadBalancer, "_grant_warmup", "rows[donor] -= grant", "rows[donor] -= grant + 1",
        "core/test_fault_tolerance.py::TestHangRecovery"
        "::test_cleared_characterization_warms_up",
        ValueError,
    ),
    # --- SAN-C2: Δm/Δl = MS_BOUNDS/LS_BOUNDS of the final split --------
    "final_dl_without_halo": (
        LoadBalancer, "_finalize", "ls_bounds(l, s, i, self.halo) if", "ls_bounds(l, s, i) if",
        DIGEST.format("SysNFF_clean"), AssertionError,
    ),
    "final_dm_need_have_swapped": (
        LoadBalancer, "_finalize", "ms_bounds(m, s, i) if", "ms_bounds(s, m, i) if",
        DIGEST.format("SysNFF_clean"), AssertionError,
    ),
    "final_dl_against_me_band": (
        LoadBalancer, "_finalize", "ls_bounds(l, s, i, self.halo) if",
        "ls_bounds(m, s, i, self.halo) if",
        DIGEST.format("SysNFF_clean"), AssertionError,
    ),
    # --- SAN-C3: bytes = rows × bytes per row --------------------------
    # (rows_per_second_into_bytes: tests/core/test_unit_mutants.py)
    "every_row_priced_as_cf": (
        DataAccessManager, "plan", "nbytes=rows * row_bytes[buf]",
        'nbytes=rows * row_bytes["cf"]',
        DIGEST.format("SysNFF_clean"), AssertionError,
    ),
    "one_row_too_many_bytes": (
        DataAccessManager, "plan", "nbytes=rows * row_bytes[buf]",
        "nbytes=(rows + 1) * row_bytes[buf]",
        DIGEST.format("SysNFF_clean"), AssertionError,
    ),
    # --- SAN-C4: σ + σʳ conserve the missing SF rows -------------------
    "commit_drops_sigma_r": (
        DataAccessManager, "commit",
        "self.sigma_r_rows[name] = rem.rows if rem else 0", "self.sigma_r_rows[name] = 0",
        DIGEST.format("SysNF_fixed_decision"), AssertionError,
    ),
    "plan_sigma_from_sigma_r": (
        DataAccessManager, "plan", "sg = decision.sigma.get(name)",
        "sg = decision.sigma_r.get(name)",
        DIGEST.format("SysNFF_clean"), AssertionError,
    ),
    "sigma_split_without_halo": (
        LoadBalancer, "_finalize", "sf_remainder_segments(l, s, i, self.halo, budget)",
        "sf_remainder_segments(l, s, i, 0, budget)",
        DIGEST.format("SysNFF_clean"), AssertionError,
    ),
    # --- SAN-D1: a round's shares sum to ≤ 1 ---------------------------
    "renormalized_by_pre_floor_sum": (
        CoScheduler, "partition", "norm = sum(floored.values())",
        "norm = sum(shares.values())",
        "service/test_scheduler.py::TestPartition::test_min_share_floor", AssertionError,
    ),
    "floor_not_renormalized": (
        CoScheduler, "partition", "return {sid: sh / norm for sid, sh in floored.items()}",
        "return floored",
        "service/test_scheduler.py::TestPartition::test_min_share_floor", AssertionError,
    ),
    "every_session_whole_platform": (
        EncodingService, "step_round",
        "rec = s.step(self.now, shares[s.stream_id], round_idx)",
        "rec = s.step(self.now, 1.0, round_idx)",
        DIGEST.format("SysHK_service_staggered"), AssertionError,
    ),
    # --- SAN-D2: a down device does no work ----------------------------
    "dying_device_survives": (
        FramePlan, "build", "survivors = live_set - dying", "survivors = live_set",
        "core/test_frame_plan.py::TestPlanProperties::test_rows_partition_place_and_merge",
        AssertionError,
    ),
    "redo_on_owner": (
        VideoCodingManager, "_build", "dev = devices[row.device]", "dev = devices[row.owner]",
        DIGEST.format("SysNFF_faults_clean"), AssertionError,
    ),
    "fault_frame_plans_dying_transfers": (
        FevesFramework, "_encode_inter",
        "transfers = dam.plan(decision, self._rstar_device, live=survivors)",
        "transfers = dam.plan(decision, self._rstar_device, live=live)",
        DIGEST.format("SysNFF_faults_clean"), AssertionError,
    ),
    "session_fault_view_lags": (
        EncodingSession, "step", "self.fault_view.round = round_idx",
        "self.fault_view.round = round_idx - 1",
        "service/test_service.py::TestFaults::test_dropout_rebalances_every_stream",
        AssertionError,
    ),
    # --- SAN-E2: placement inside the node's live window ---------------
    # (routed_at_arrival dies on SAN-E1 alone, which stays on it:
    # tests/cluster/test_sanitizer_cluster.py)
    "live_nodes_include_drained": (
        Cluster, "live_nodes", "if n.state == UP", "if n.state != DOWN",
        "cluster/test_dispatcher.py::TestNodeFaults::test_drain_is_graceful",
        AssertionError,
    ),
    "accepting_ignores_state": (
        Node, "accepting", "return self.state == UP", "return True",
        "cluster/test_node.py::TestEviction::test_retire_states", AssertionError,
    ),
    # --- SAN-E3: reroutes conserve frames ------------------------------
    "continuation_restarts_stream": (
        StreamState, "continuation", "n_frames=self.frames_remaining",
        "n_frames=self.spec.n_frames",
        "cluster/test_dispatcher.py::TestNodeFaults::test_dropout_conserves_frames",
        AssertionError,
    ),
    "frames_done_last_segment": (
        StreamState, "frames_done",
        "sum(len(seg.session.records) for seg in self.segments)",
        "len(self.segments[-1].session.records) if self.segments else 0",
        "cluster/test_dispatcher.py::TestNodeFaults::test_dropout_conserves_frames",
        AssertionError,
    ),
    "offset_zero": (
        Dispatcher, "_place", "offset=st.frames_done,", "offset=0,",
        "cluster/test_dispatcher.py::TestNodeFaults::test_dropout_conserves_frames",
        AssertionError,
    ),
}


_INSTANCES: dict[type, object] = {}


def _module(relpath: str):
    """A test module of this suite, loaded by path under its own name."""
    name = "plain_" + relpath.replace("/", "_")[:-3]
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, TESTS / relpath)
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module
        spec.loader.exec_module(module)
    return sys.modules[name]


def run_plain(test_id: str) -> None:
    """Call one plain test by id: ``path::[Class::]name[param]``."""
    path, *names = test_id.split("::")
    target = _module(path)
    if len(names) > 1:
        # One instance per class: hypothesis refuses a test method seen
        # on two instances.
        cls = getattr(target, names[0])
        target = _INSTANCES.setdefault(cls, cls())
    name, _, param = names[-1].partition("[")
    test = getattr(target, name)
    if param:
        test(param.rstrip("]"))
    else:
        test()


@pytest.mark.parametrize("name", list(SITES))
def test_mutant_fails_its_plain_test(transplant, name):
    cls, method, old, new, test_id, raised = SITES[name]
    transplant(cls, method, old, new)
    with pytest.raises(raised):
        run_plain(test_id)


@pytest.mark.parametrize("test_id", sorted({site[4] for site in SITES.values()}))
def test_plain_test_passes_unmutated(test_id):
    run_plain(test_id)
