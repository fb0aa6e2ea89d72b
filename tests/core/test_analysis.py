"""Analysis utilities: utilization, efficiency bounds, communication."""

import copy
import inspect

import pytest

from repro.codec.config import CodecConfig
from repro.core import analysis
from repro.core.analysis import (
    communication_volume,
    ideal_aggregate_fps,
    parallel_efficiency,
    utilization_summary,
)
from repro.core.config import FrameworkConfig
from repro.core.framework import FevesFramework
from repro.hw.presets import get_platform

CFG = CodecConfig(width=1920, height=1088, search_range=16, num_ref_frames=1)


@pytest.fixture(scope="module")
def syshk_run():
    fw = FevesFramework(get_platform("SysHK"), CFG, FrameworkConfig())
    fw.run_model(15)
    return fw


class TestUtilization:
    def test_gpu_compute_highly_utilized(self, syshk_run):
        summary = utilization_summary(syshk_run.reports)
        assert summary.compute_utilization("GPU_K") > 0.8

    def test_all_fractions_valid(self, syshk_run):
        summary = utilization_summary(syshk_run.reports)
        for res, u in summary.per_resource.items():
            assert 0.0 <= u <= 1.0, res

    def test_busiest_is_a_compute_engine(self, syshk_run):
        per_resource = utilization_summary(syshk_run.reports).per_resource
        name = max(per_resource, key=per_resource.__getitem__)
        assert name.endswith(".compute")
        assert per_resource[name] > 0.5

    def test_empty_reports_rejected(self):
        with pytest.raises(ValueError):
            utilization_summary([])


class TestIdealBound:
    def test_bound_exceeds_measured(self, syshk_run):
        bound = ideal_aggregate_fps(syshk_run.platform, CFG)
        assert bound > syshk_run.steady_state_fps()

    def test_bound_exceeds_best_single_device(self):
        platform = get_platform("SysHK")
        bound = ideal_aggregate_fps(platform, CFG)
        # On a one-device platform the ideal aggregate *is* that device's
        # speed: nothing to pool, nothing to transfer.
        best_single = max(
            ideal_aggregate_fps(get_platform(d.name), CFG)
            for d in platform.devices
        )
        assert bound > best_single

    def test_efficiency_in_range(self, syshk_run):
        eff = parallel_efficiency(
            syshk_run.steady_state_fps(), syshk_run.platform, CFG
        )
        assert 0.80 < eff <= 1.0  # FEVES gets close to the ideal aggregate

    def test_refs_scale_bound(self):
        platform = get_platform("SysHK")
        one = ideal_aggregate_fps(platform, CFG, active_refs=1)
        four = ideal_aggregate_fps(platform, CFG, active_refs=4)
        assert four < one


class TestConvergence:
    def test_feves_converges_by_frame_two(self, syshk_run):
        """From the third frame on, every time is within 2 % of the last."""
        times = [r.tau_tot for r in syshk_run.reports]
        steady = times[-1]
        assert all(abs(t - steady) <= 0.02 * steady for t in times[2:])


class TestCommunication:
    def test_steady_state_volume_positive_and_bounded(self, syshk_run):
        vol = communication_volume(syshk_run.reports)
        assert vol["h2d"] > 0
        # Far less than re-shipping every buffer wholesale each frame.
        from repro.hw.interconnect import BufferSizes

        sizes = BufferSizes(CFG.width, CFG.height)
        everything = CFG.mb_rows * (
            sizes.cf_row + sizes.cf_row_full + sizes.sf_row * 2 + sizes.rf_row
        )
        assert vol["h2d"] < everything


def public_functions():
    return {
        name: fn for name, fn in vars(analysis).items()
        if inspect.isfunction(fn) and fn.__module__ == analysis.__name__
        and not name.startswith("_")
    }


def assert_inputs_untouched(fn, available):
    """Call ``fn`` on ``available``'s values (by parameter name; anything
    else must have a default) and require a deep copy taken before the
    call to still equal them."""
    kwargs = {
        name: available[name]
        for name, p in inspect.signature(fn).parameters.items()
        if name in available or p.default is inspect.Parameter.empty
    }
    before = copy.deepcopy(kwargs)
    fn(**kwargs)
    assert kwargs == before, f"{fn.__name__} mutated its inputs"


class TestObserversDoNotMutate:
    """Analysis is an observer (paper §III.C): measuring must not perturb
    what is measured. This is the dynamic check that replaced the REP104
    escape analysis — ``rep104_attribute_store`` and ``rep104_mutator_call``,
    the two mutants that rule was kept for, are transplanted into analysis
    functions below and both die here."""

    @pytest.fixture
    def available(self, syshk_run):
        return {
            "reports": copy.deepcopy(syshk_run.reports),
            "platform": get_platform("SysHK"),
            "cfg": CFG,
            "measured_fps": 30.0,
        }

    def test_every_public_function_leaves_its_inputs_equal(self, available):
        functions = public_functions()
        assert set(functions) == {
            "utilization_summary", "ideal_aggregate_fps",
            "parallel_efficiency", "communication_volume", "steady_state_fps",
        }
        for fn in functions.values():
            assert_inputs_untouched(fn, available)

    def test_attribute_store_mutant_is_killed(self, available):
        def utilization_summary(reports, skip=2):
            reports[0].rstar_device = None   # mutates a report: bug
            return analysis.utilization_summary(reports, skip)

        with pytest.raises(AssertionError, match="mutated its inputs"):
            assert_inputs_untouched(utilization_summary, available)

    def test_mutator_call_mutant_is_killed(self, available):
        def ideal_aggregate_fps(platform, cfg, active_refs=None):
            platform.devices[0].set_fault_scales(compute=2.0)
            return analysis.ideal_aggregate_fps(platform, cfg, active_refs)

        with pytest.raises(AssertionError, match="mutated its inputs"):
            assert_inputs_untouched(ideal_aggregate_fps, available)
