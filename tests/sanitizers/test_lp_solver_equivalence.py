"""The direct HiGHS call returns ``linprog``'s bits, and remembers nothing.

``LPSolveCache`` drives HiGHS through the bindings SciPy ships, on one
persistent instance, where it used to call ``scipy.optimize.linprog``.
Same solver, same options, so the same vertex — held here against the
public ``linprog`` (``oracles.PassThroughLPCache``) on whatever SciPy the
tests run on:

- every LP a run hands to ``LPSolveCache.solve`` (in HiGHS's column
  form, densified for ``linprog``) gets an ``x`` that is
  ``np.array_equal`` to ``linprog``'s (the multi-device platforms of
  ``framework_scenarios()`` plus 3 and 4 GPUs, σ ∈ {0, 0.05}, 0–2 faults),
  and every fourth one, made infeasible and made unbounded, is ``None`` on
  both sides;
- the column arrays handed to ``passModel`` directly give the bits the
  dense LP copied into a ``HighsLp`` gave (``oracles.reference_cold_solve``);
- the instance is stateless: A, B, A on one instance and A on a fresh one
  agree bit for bit, two interleaved caches agree;
- seeded mutants of the call die.

``PYTHONPATH=src:tests python tests/sanitizers/test_lp_solver_equivalence.py``
prints the LPs-by-platform table EXPERIMENTS.md records.
"""

from __future__ import annotations

import subprocess
import sys
from collections import Counter

import numpy as np
import pytest
from hypothesis import HealthCheck, Phase, given, settings
from hypothesis import strategies as st

import repro.core.load_balancing as lb_module
from repro.codec.config import CodecConfig
from repro.core.config import FrameworkConfig
from repro.core.framework import FevesFramework
from repro.hw.noise import FaultSchedule, GaussianJitter, NoiseModel
from repro.hw.presets import get_platform, multi_gpu_platform

from oracles import PassThroughLPCache, densify, reference_cold_solve
from test_property import CODECS, PLATFORMS, fault_events

HD = CodecConfig(width=1920, height=1088, search_range=16, num_ref_frames=1)
BUILDERS = {
    name: (lambda name=name: get_platform(name))
    for name in PLATFORMS if len(get_platform(name).devices) > 1  # one device: no LP
}
BUILDERS["3xGPU_F+CPU_N"] = lambda: multi_gpu_platform(3)
BUILDERS["4xGPU_F+CPU_N"] = lambda: multi_gpu_platform(4)


def same_answer(x, ref) -> bool:
    if x is None or ref is None:
        return x is ref
    return x.dtype == ref.dtype and np.array_equal(x, ref)


def make_infeasible(lp: lb_module.ColumnLP) -> lb_module.ColumnLP:
    """Σm = −n with m ≥ 0: the equality rows' bounds negated."""
    eq = lp.row_lower == lp.row_upper
    return lp._replace(
        row_lower=np.where(eq, -lp.row_lower, lp.row_lower),
        row_upper=np.where(eq, -lp.row_upper, lp.row_upper),
    )


def diffing_cache(tally: Counter, corpus: list | None = None):
    """An ``LPSolveCache`` (the module's current one, so a mutant's) that
    also asks ``linprog`` and fails on the first LP the two answer differently."""

    class Diffing(lb_module.LPSolveCache):
        oracle = PassThroughLPCache()

        def solve(self, lp):
            x = super().solve(lp)
            ref = self.oracle.solve(lp)
            tally.update(lps=1)
            if corpus is not None:
                corpus.append(lp)
            assert same_answer(x, ref), f"direct {x!r} != linprog {ref!r}"
            if tally["lps"] % 4 == 0:  # status included: the LP made unsolvable
                for broken in (make_infeasible(lp),           # Σm = −n, m ≥ 0
                               lp._replace(c=-lp.c)):         # maximise τtot
                    tally.update(without_optimum=1)
                    assert self.oracle.solve(broken) is None
                    assert self._cold_solve(broken) is None, "direct answered, linprog did not"
            return x

    return Diffing()


@st.composite
def lp_scenarios(draw):
    platform = draw(st.sampled_from(sorted(BUILDERS)))
    names = [d.name for d in BUILDERS[platform]().devices]
    return (
        platform,
        draw(st.sampled_from(CODECS + (HD,))),
        draw(st.sampled_from((0.0, 0.05))),
        FaultSchedule(events=tuple(fault_events(draw, names))),
        draw(st.integers(min_value=3, max_value=8)),
    )


def check_every_lp(scenario, tally: Counter, corpus: list | None = None) -> None:
    platform, codec, sigma, faults, frames = scenario
    fw = FevesFramework(
        BUILDERS[platform](), codec,
        FrameworkConfig(
            noise=NoiseModel(jitter=GaussianJitter(sigma=sigma)), faults=faults
        ),
    )
    fw.balancer.use_lp_cache(diffing_cache(tally, corpus))
    try:
        for _ in range(frames):
            fw.encode_next_inter()
    except RuntimeError:
        pass  # the faults killed every device; the LPs before that count


def seeded_run(examples: int, tallies: dict[str, Counter] | None = None) -> Counter:
    """The property over a fixed example sequence; returns the LP tally."""
    total: Counter = Counter()

    @settings(
        max_examples=examples, deadline=None, derandomize=True, database=None,
        phases=[Phase.generate], suppress_health_check=list(HealthCheck),
    )
    @given(lp_scenarios())
    def run(scenario):
        tally: Counter = Counter()
        check_every_lp(scenario, tally)
        total.update(tally)
        if tallies is not None:
            tallies.setdefault(scenario[0], Counter()).update(tally, scenarios=1)

    run()
    return total


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(lp_scenarios())
def test_every_lp_gets_linprogs_bits(scenario):
    check_every_lp(scenario, Counter())


def test_the_seeded_run_compares_two_thousand_lps():
    assert seeded_run(examples=200)["lps"] >= 2000


# --- statelessness ----------------------------------------------------------


@pytest.fixture(scope="module")
def corpus() -> list[tuple]:
    """LPs of three jittered runs, in the order the scheduler asked them."""
    lps: list[tuple] = []
    for platform in ("SysNFF", "SysHK", "3xGPU_F+CPU_N"):
        check_every_lp(
            (platform, HD, 0.05, FaultSchedule(), 6), Counter(), lps
        )
    shapes = {(len(lp.c), len(lp.row_upper)) for lp in lps}
    assert len(shapes) >= 3  # several matrix shapes
    return lps


def test_a_b_a_on_one_instance_and_a_on_a_fresh_one_agree(corpus):
    oracle = PassThroughLPCache()
    for a, b in zip(corpus, corpus[1:] + corpus[:1], strict=True):
        one = lb_module.LPSolveCache()
        first = one._cold_solve(a)
        one._cold_solve(b)
        again = one._cold_solve(a)
        fresh = lb_module.LPSolveCache()._cold_solve(a)
        ref = oracle.solve(a)
        assert first is not again
        assert same_answer(first, again) and same_answer(first, fresh)
        assert same_answer(first, ref)


def test_two_interleaved_caches_agree(corpus):
    left, right = lb_module.LPSolveCache(), lb_module.LPSolveCache()
    for k, lp in enumerate(corpus):
        other = corpus[-1 - k]
        x = left.solve(lp)
        right.solve(other)
        assert same_answer(right.solve(lp), x)
        left.solve(other)


def test_the_column_hand_off_gives_the_dense_hand_offs_bits(corpus):
    """No ``HighsLp``, an all-continuous integrality array: the same ``x``
    as the dense LP copied into a ``HighsLp`` on a HiGHS instance of its own."""
    highs = lb_module._new_highs()
    cache = lb_module.LPSolveCache()
    for lp in corpus:
        dense = densify(lp)
        assert same_answer(cache._cold_solve(lp), reference_cold_solve(highs, *dense))
        for broken in (make_infeasible(lp), lp._replace(c=-lp.c)):
            assert cache._cold_solve(broken) is None
            assert reference_cold_solve(highs, *densify(broken)) is None


# --- mutants ----------------------------------------------------------------


def check_corpus(corpus) -> None:
    """Every corpus LP through one fresh cache of the module's current class."""
    cache = diffing_cache(Counter())
    for lp in corpus:
        cache.solve(lp)


def swap(old: str, new: str):
    def edit(source: str) -> str:
        assert source.count(old) == 1, old
        return source.replace(old, new)

    return edit


MUTANTS = {
    "presolve off": ("_new_highs", swap('("presolve", "on")', '("presolve", "off")')),
    # HiGHS's own default is the dual simplex linprog asks for, so "option
    # left unset" is an equivalent mutant on this build; primal is not.
    "primal simplex": (
        "_new_highs",
        swap("SimplexStrategy.kSimplexStrategyDual", "SimplexStrategy.kSimplexStrategyPrimal"),
    ),
    "stale matrix: passModel skipped when the shape is unchanged": (
        "LPSolveCache",
        swap(
            "highs.passModel(",
            "(highs.getNumCol(), highs.getNumRow()) != (num_col, len(row_lower)) "
            "and highs.passModel(",
        ),
    ),
    "equality rows left open below": (
        "LPSolveCache",
        swap("row_lower, lp.row_upper,", "np.full(len(row_lower), -np.inf), lp.row_upper,"),
    ),
    "CSC start off by one column": (
        "LPSolveCache", swap("lp.start, lp.index", "lp.start[1:], lp.index"),
    ),
}


def test_the_unmutated_corpus_check_passes(corpus):
    check_corpus(corpus)


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_mutant_is_killed(name, corpus, mutant):
    target, edit = MUTANTS[name]
    mutant(lb_module, target, edit)
    with pytest.raises(AssertionError, match="linprog"):
        check_corpus(corpus)


def test_the_bindings_load_without_scipy_optimize_and_are_shared():
    """``load_balancing`` reaches the one extension module by path — not
    through ``scipy/optimize/__init__`` — and the oracle's later ``import
    scipy.optimize`` gets the very same module (a fresh interpreter: here
    ``oracles`` has long imported ``linprog``)."""
    code = (
        "import sys, repro.core.load_balancing as lb\n"
        "assert 'scipy.optimize' not in sys.modules, 'scipy.optimize was imported'\n"
        "from scipy.optimize import linprog\n"
        "import scipy.optimize._highspy._core as core\n"
        "assert core is lb._hs, 'two copies of the bindings'\n"
        "assert linprog([1, 1], A_ub=[[-1, -1]], b_ub=[-1]).fun == 1.0\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr


if __name__ == "__main__":  # the LPs-by-platform table of EXPERIMENTS.md
    by_platform: dict[str, Counter] = {}
    total = seeded_run(int(sys.argv[1]) if len(sys.argv) > 1 else 200, by_platform)
    print("platform | scenarios | LPs | made infeasible/unbounded, None on both | differing")
    for platform, tally in sorted(by_platform.items()):
        print(platform, tally["scenarios"], tally["lps"], tally["without_optimum"], 0,
              sep=" | ")
    print("total", sum(t["scenarios"] for t in by_platform.values()),
          total["lps"], total["without_optimum"], 0, sep=" | ")
