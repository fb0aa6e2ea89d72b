"""The ``heapq`` R* mapping equals the ``networkx`` one it replaced.

Same graph, same edge weights built by the same float operations, same
``(distance, push order)`` heap key: device, path and total must be
equal — exactly, including where the path is decided by tie-break alone
(equal estimates on identical GPUs: the lowest device index wins).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codec.config import CodecConfig
from repro.core.rstar import select_rstar_device
from repro.hw.presets import get_platform, list_platforms, multi_gpu_platform

from oracles import reference_select_rstar_device

pytest.importorskip("networkx")

CODECS = (
    CodecConfig(width=1920, height=1088, search_range=16),
    CodecConfig(width=352, height=288, search_range=8),
)
PLATFORMS = [get_platform(name) for name in list_platforms()] + [
    multi_gpu_platform(n) for n in range(1, 7)
]
#: Few distinct values, so drawn estimates collide and ties are the rule.
ESTIMATE_S = st.one_of(
    st.sampled_from((0.001, 0.002, 0.004, 0.004 * (1 + 2**-52), 0.0, 1.0)),
    st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
)


@st.composite
def mappings(draw):
    platform = draw(st.sampled_from(PLATFORMS))
    names = [d.name for d in platform.devices]
    known = draw(st.lists(st.sampled_from(names), min_size=1, unique=True))
    if draw(st.booleans()):
        one = draw(ESTIMATE_S)
        estimates = dict.fromkeys(known, one)
    else:
        estimates = {name: draw(ESTIMATE_S) for name in known}
    return platform, estimates, draw(st.sampled_from(CODECS))


@settings(max_examples=300, deadline=None)
@given(mappings())
def test_heapq_dijkstra_equals_networkx(mapping):
    platform, estimates, cfg = mapping
    assert select_rstar_device(platform, estimates, cfg) == (
        reference_select_rstar_device(platform, estimates, cfg)
    )


@pytest.mark.parametrize("n_gpus", range(1, 7))
def test_identical_gpus_tie_goes_to_the_lowest_index(n_gpus):
    platform = multi_gpu_platform(n_gpus, cpu=None)
    estimates = dict.fromkeys((d.name for d in platform.devices), 0.004)
    got = select_rstar_device(platform, estimates, CODECS[0])
    assert got.device == platform.devices[0].name
    assert {dev for _, dev in got.path} == {got.device}
    assert got == reference_select_rstar_device(platform, estimates, CODECS[0])


def test_a_later_device_winning_a_tie_is_noticed(mutant):
    """Mutant: equal distances pop highest device index first."""
    import repro.core.rstar as rstar_module

    def highest_index_first(source: str) -> str:
        for old, new in (("next(push_order), 0, k", "-k - next(push_order) / 1e3, 0, k"),
                         ("next(push_order), si + 1, j", "-j - next(push_order) / 1e3, si + 1, j")):
            assert source.count(old) == 1
            source = source.replace(old, new)
        return source

    mutant(rstar_module, "select_rstar_device", highest_index_first)
    platform = multi_gpu_platform(3, cpu=None)
    estimates = dict.fromkeys((d.name for d in platform.devices), 0.004)
    got = rstar_module.select_rstar_device(platform, estimates, CODECS[0])
    assert got.device == "GPU_F3"
    assert got != reference_select_rstar_device(platform, estimates, CODECS[0])
