"""The frame plan: band arithmetic, placement validation, row properties.

``FramePlan.build`` is the one place a frame's live set, faulted set,
fallback and executor width turn into rows; the DES, the in-process
executor and the worker pool only consume them. The property test below
holds what all three rely on, over random decisions, live sets, faults,
fallbacks and slot counts.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codec.config import CodecConfig
from repro.core.distribution import Distribution, round_preserving_sum
from repro.core.frame_plan import FramePlan, split_band, worker_group_sizes
from repro.core.load_balancing import LoadDecision
from repro.hw.presets import get_platform

CFG = CodecConfig(width=1920, height=1088, search_range=16, num_ref_frames=1)
PLATFORMS = ("SysNF", "SysNFF", "SysHK")


def decision_over(n_devices: int, weights) -> LoadDecision:
    """m/l/s split in proportion to ``weights`` (one triple per device)."""

    def dist(k: int) -> Distribution:
        w = np.array([ws[k] for ws in weights], dtype=float)
        rows = round_preserving_sum(w, CFG.mb_rows)
        return Distribution(rows=rows, total=CFG.mb_rows)

    return LoadDecision(m=dist(0), l=dist(1), s=dist(2), delta_m=[], delta_l=[])


@st.composite
def plan_case(draw):
    platform = get_platform(draw(st.sampled_from(PLATFORMS)))
    names = [d.name for d in platform.devices]
    n = len(names)
    live = draw(st.sets(st.sampled_from(names), min_size=1))
    survivors = draw(st.sets(st.sampled_from(sorted(live)), min_size=1))
    faulted = live - survivors
    # Evicted devices have no rows; every live device has some weight.
    weights = [
        tuple(
            draw(st.floats(min_value=0.01, max_value=1.0)) if name in live else 0.0
            for _ in range(3)
        )
        for name in names
    ]
    return dict(
        platform=platform,
        decision=decision_over(n, weights),
        rstar=draw(st.sampled_from(sorted(survivors))),
        live=frozenset(live),
        faulted=frozenset(faulted),
        fallback=draw(st.sampled_from(sorted(survivors))) if faulted else None,
        workers=draw(st.integers(min_value=1, max_value=9)),
    )


def build(case) -> FramePlan:
    return FramePlan.build(
        case["platform"], 2, case["decision"], case["rstar"], 1,
        live=case["live"], faulted=case["faulted"], fallback=case["fallback"],
        workers=case["workers"],
    )


def module_rows(plan: FramePlan, module: str):
    return [r for r in plan.phase1 + plan.phase2 if r.module == module]


class TestPlanProperties:
    @given(plan_case())
    @settings(max_examples=150, deadline=None)
    def test_rows_partition_place_and_merge(self, case):
        plan = build(case)
        names = [d.name for d in case["platform"].devices]
        survivors = case["live"] - case["faulted"]
        assert plan.survivors == survivors
        # Each survivor owns a slot group of its own, in device order.
        alive = [i for i, name in enumerate(names) if name in survivors]
        group: dict[int, range] = {}
        first = 0
        sizes = worker_group_sizes(len(alive), case["workers"])
        for i, size in zip(alive, sizes, strict=True):
            group[i] = range(first, first + size)
            first += size

        for module in ("int", "me", "sme"):
            rows = module_rows(plan, module)
            # Each module's rows partition [0, mb_rows) exactly once ...
            covered = sorted(r for row in rows for r in range(*row.band))
            assert covered == list(range(CFG.mb_rows)), (module, rows)
            # ... and sorting by merge key is the band order merge expects,
            # which is already the plan's order.
            by_key = sorted(rows, key=lambda r: (r.owner, r.band))
            assert by_key == sorted(rows, key=lambda r: r.band) == rows
            for row in rows:
                assert row.band[1] > row.band[0]
                # No row executes on a faulted or non-live device.
                assert names[row.device] in survivors
                assert row.slot in group[row.device]
                if row.redo:
                    # Redo rows: the fallback's slots, the owner's key.
                    assert names[row.owner] in case["faulted"]
                    assert names[row.device] == case["fallback"]
                else:
                    assert row.owner == row.device
                    assert names[row.owner] in survivors

    @given(plan_case())
    @settings(max_examples=60, deadline=None)
    def test_one_slot_per_device_is_one_row_per_band(self, case):
        # The DES contract: workers=1 keeps every band whole.
        plan = build(dict(case, workers=1))
        for module in ("int", "me", "sme"):
            owners = [r.owner for r in module_rows(plan, module)]
            assert len(owners) == len(set(owners))


class TestValidation:
    def test_rstar_device_must_survive(self):
        platform = get_platform("SysHK")
        decision = decision_over(2, [(1, 1, 1), (1, 1, 1)])
        with pytest.raises(ValueError, match="not a live survivor"):
            FramePlan.build(
                platform, 1, decision, "GPU_K", 1,
                faulted={"GPU_K"}, fallback="CPU_H",
            )

    def test_faulted_frame_needs_a_live_fallback(self):
        platform = get_platform("SysHK")
        decision = decision_over(2, [(1, 1, 1), (1, 1, 1)])
        for fallback in (None, "GPU_K"):
            with pytest.raises(ValueError, match="fallback"):
                FramePlan.build(
                    platform, 1, decision, "CPU_H", 1,
                    faulted={"GPU_K"}, fallback=fallback,
                )

    def test_redo_row_label_names_owner_and_fallback(self):
        platform = get_platform("SysHK")
        decision = decision_over(2, [(1, 1, 1), (1, 1, 1)])
        plan = FramePlan.build(
            platform, 1, decision, "CPU_H", 1, faulted={"GPU_K"}, fallback="CPU_H",
        )
        names = ["GPU_K", "CPU_H"]
        assert [r.label(names) for r in plan.phase2] == [
            "SME-redo[GPU_K->CPU_H]", "SME[CPU_H]",
        ]


class TestBandMath:
    def test_split_band_partitions_exactly(self):
        for band in [(0, 7), (3, 16), (5, 6), (0, 1)]:
            for n in (1, 2, 3, 8):
                chunks = split_band(band, n)
                assert chunks[0][0] == band[0]
                assert chunks[-1][1] == band[1]
                for (a0, a1), (b0, _b1) in zip(
                    chunks, chunks[1:], strict=False
                ):
                    assert a1 == b0
                    assert a1 > a0
                assert len(chunks) == min(n, band[1] - band[0])

    def test_split_band_near_equal(self):
        sizes = [b - a for a, b in split_band((0, 10), 3)]
        assert max(sizes) - min(sizes) <= 1

    def test_empty_band(self):
        assert split_band((4, 4), 2) == []
        assert split_band((5, 3), 2) == []

    def test_worker_group_sizes_cover_all_devices(self):
        # Every device gets >= 1 worker even when the pool is smaller.
        assert worker_group_sizes(3, 1) == [1, 1, 1]
        assert worker_group_sizes(2, 5) == [3, 2]
        assert sum(worker_group_sizes(4, 11)) == 11
        with pytest.raises(ValueError):
            worker_group_sizes(0, 4)
