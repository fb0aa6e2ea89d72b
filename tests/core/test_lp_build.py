"""The LP build emits HiGHS's column form, byte for byte the dense build's.

``LoadBalancer._build_lp`` builds one activity subset's matrix once per
frame and :meth:`_SubsetLP.at` fills in the right-hand sides of each Δ
iteration. Densified, every LP it hands out equals the bytes of
``oracles.reference_build_lp`` (the dense build, one ``np.zeros`` row per
constraint) for the same Ks and Δ: random Ks with a zero one (its entries
dropped) or a missing one (no LP on either side), parked subsets, one and
two copy engines, R* on the CPU or on an accelerator, and a second Δ
iteration on the first one's matrix. Seeded mutants of the build die.
"""

from __future__ import annotations

from itertools import count

import numpy as np
import pytest
from hypothesis import HealthCheck, Phase, given, settings
from hypothesis import strategies as st

import repro.core.load_balancing as lb
from repro.codec.config import CodecConfig
from repro.core.config import FrameworkConfig
from repro.hw.presets import CPU_N, GPU_F, GPU_K
from repro.hw.topology import Platform

from oracles import densify, reference_build_lp

CFG = CodecConfig(width=1920, height=1088, search_range=16, num_ref_frames=1)
N = CFG.mb_rows
#: GPU_F has one copy engine, GPU_K two.
NAMES = (GPU_F.name, GPU_K.name, CPU_N.name)
ACCELERATORS = NAMES[:2]
COMPUTE_KS = [(name, module) for name in NAMES for module in ("me", "int", "sme")]
TRANSFER_KS = [
    (name, buf, dr)
    for name in ACCELERATORS
    for buf in ("cf", "cf_full", "rf", "sf", "mv")
    for dr in ("h2d", "d2h")
]
_VERSIONS = count()


class Ks:
    """What the build reads of a characterization: drawn Ks, by key."""

    def __init__(self, compute, transfer, rstar) -> None:
        self.version = next(_VERSIONS)  # the balancer's K table is per version
        self._compute, self._transfer, self._rstar = compute, transfer, rstar

    def k_compute(self, name, module):
        return self._compute[name, module]

    def k_transfer(self, name, buf, dr, sizes):
        return self._transfer[name, buf, dr]

    def rstar_frame_s(self, name):
        return self._rstar[name]


K = st.floats(min_value=1e-7, max_value=1e-2, allow_nan=False)
ROWS = st.lists(st.integers(0, N), min_size=len(NAMES), max_size=len(NAMES))


@st.composite
def lp_inputs(draw):
    compute = {key: draw(K) for key in COMPUTE_KS}
    transfer = {key: draw(K) for key in TRANSFER_KS}
    for key in draw(st.lists(st.sampled_from(COMPUTE_KS + TRANSFER_KS), max_size=3)):
        (compute if key in compute else transfer)[key] = 0.0
    missing = draw(st.none() | st.sampled_from(COMPUTE_KS + TRANSFER_KS))
    if missing is not None and draw(st.integers(0, 3)) == 0:  # rarely: most build
        (compute if missing in compute else transfer)[missing] = None
    rstar = {name: draw(st.none() | K) for name in NAMES}
    rstar_device = draw(st.sampled_from(NAMES))
    parked = draw(st.frozensets(
        st.sampled_from([i for i, name in enumerate(NAMES) if name != rstar_device])
    ))
    return dict(
        perf=Ks(compute, transfer, rstar),
        rstar_device=rstar_device,
        needs_rf={name: draw(st.booleans()) for name in ACCELERATORS},
        sigma_r_prev={name: draw(st.integers(0, N)) for name in ACCELERATORS},
        parked=parked,
        deltas=[(draw(ROWS), draw(ROWS)) for _ in range(2)],
    )


def assert_canonical(lp: lb.ColumnLP) -> None:
    """CSC as HiGHS reads it: no zero entry, rows ascending in a column."""
    assert lp.start[0] == 0 and lp.start[-1] == len(lp.value) == len(lp.index)
    assert (lp.value != 0.0).all()
    for j in range(len(lp.c)):
        assert (np.diff(lp.index[lp.start[j] : lp.start[j + 1]]) > 0).all()


def same_bytes(dense, ref) -> bool:
    arrays = [np.asarray(a) for a in dense[:5]]
    refs = [np.asarray(a) for a in ref[:5]]
    return all(
        a.dtype == r.dtype and a.shape == r.shape and a.tobytes() == r.tobytes()
        for a, r in zip(arrays, refs, strict=True)
    ) and dense[5] == ref[5]


def check_build(inputs) -> None:
    balancer = lb.LoadBalancer(
        Platform(name="mixed", specs=[GPU_F, GPU_K, CPU_N]), CFG, FrameworkConfig()
    )
    frame = (
        inputs["perf"], inputs["rstar_device"], inputs["needs_rf"], inputs["sigma_r_prev"]
    )
    subset = balancer._build_lp(*frame, inputs["parked"])
    lps = []
    for dm, dl in inputs["deltas"]:
        ref = reference_build_lp(balancer, *frame, dm, dl, inputs["parked"])
        if ref is None:
            assert subset is None
            return
        lp = subset.at(dm, dl)
        assert_canonical(lp)
        assert same_bytes(densify(lp), ref), "column LP != dense build"
        lps.append(lp)
    first, second = lps
    # The second Δ iteration is the first one's matrix, new bounds.
    assert second.start is first.start and second.value is first.value
    assert second.row_upper is not first.row_upper


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(lp_inputs())
def test_the_column_lp_densified_is_the_dense_build(inputs):
    check_build(inputs)


def seeded_run(examples: int) -> None:
    @settings(
        max_examples=examples, deadline=None, derandomize=True, database=None,
        phases=[Phase.generate], suppress_health_check=list(HealthCheck),
    )
    @given(lp_inputs())
    def run(inputs):
        check_build(inputs)

    run()


def test_the_seeded_run_passes():
    seeded_run(150)


def swap(*pairs: tuple[str, str]):
    def edit(source: str) -> str:
        for old, new in pairs:
            assert source.count(old) == 1, old
            source = source.replace(old, new)
        return source

    return edit


MUTANTS = {
    # The first Δ iteration's bounds written into the subset's own array
    # and kept by the second.
    "right-hand sides reused across Δ iterations": (
        "_SubsetLP",
        swap(
            ("upper = self.lp.row_upper.copy()", "upper = self.lp.row_upper"),
            ("upper[row] = rhs(dm, dl)", "upper[row] = upper[row] or rhs(dm, dl)"),
        ),
    ),
    "one coefficient summed in another order": (
        "LoadBalancer", swap(("k_cf + km + k_mv_dh", "k_cf + (km + k_mv_dh)")),
    ),
    "CSC starts off by one entry": (
        "LoadBalancer", swap(("map(len, entries), initial=0", "map(len, entries), initial=1")),
    ),
}


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_mutant_is_killed(name, mutant):
    target, edit = MUTANTS[name]
    mutant(lb, target, edit)
    with pytest.raises(AssertionError):
        seeded_run(150)
