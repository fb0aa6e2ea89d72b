"""Layer 5: the protocol specs, SAN-G, and the REP302/REP304 lint.

Four layers of coverage:

1. the spec DSL itself — malformed specs must fail *at construction*
   with named-token errors, and every shipped spec must round-trip
   through its own validator;
2. the census — every event a shipped spec names is journaled somewhere
   in ``src/``, and every event a tracked class journals is one its spec
   names;
3. the static half — seeded mutants and clean twins for REP302 and
   REP304, analyzed under in-scope display paths, and REP302's findings
   pinned to the statement and message;
4. the dynamic half — the same bug classes reproduced on *real* runtime
   objects with the lifecycle journal enabled, caught by SAN-G replay.

The static/dynamic agreement pins (same bug caught by both halves) live
in the ``TestAgreement`` class at the bottom. The lifecycle bugs that
only SAN-G or a plain test can see are in
``test_lifecycle_transplants.py``.
"""

from __future__ import annotations

import ast
import functools
import textwrap
from pathlib import Path

import pytest

from repro.cluster import Cluster, ClusterConfig, NodeSpec
from repro.cluster.node import DOWN, Node
from repro.sanitizers.runner import RULES, analyze, rules_in_scope, run_lint
from repro.sanitizers.protocols.monitor import check_events
from repro.sanitizers.protocols.spec import (
    CLASS_SPECS,
    SPEC_BY_NAME,
    SPECS,
    Obligation,
    Observer,
    ProtocolSpec,
    ProtocolSpecError,
    Transition,
)
from repro.service.session import StreamSpec
from repro.util.journal import JOURNAL, sanitize_from_env

CLUSTER_PATH = "src/repro/cluster/fake_module.py"
CORE_PATH = "src/repro/core/fake_module.py"

# Seeded mutants as (display path, source); test_kill_matrix.py runs each
# of them under every rule in the table.
MUTANTS = {
    "rep302_rewind": (CLUSTER_PATH, """\
class EncodingService:
    def hurry(self, t):
        self.now = self.now - 5.0
"""),
    "rep302_cross_domain": (CLUSTER_PATH, """\
class Dispatcher:
    def sync(self, node):
        self.now = node.service.now
"""),
    "rep302_bare_reset": (CLUSTER_PATH, """\
class EncodingService:
    def restart(self):
        self.now = 0.0
"""),
    "rep304_mutation_then_solve": (CORE_PATH, """\
class FevesFramework:
    def readmit(self, name):
        self._live[name] = True
        return self.balancer.solve(self.perf)
"""),
    "rep304_mutation_escapes": (CORE_PATH, """\
class FevesFramework:
    def evict(self, name):
        self._live[name] = False
"""),
    "rep304_transitive_reach": (CORE_PATH, """\
class FevesFramework:
    def _decide(self):
        return self.balancer.solve(self.perf)

    def _replan(self):
        return self._decide()

    def readmit(self, name):
        self._live[name] = True
        return self._replan()
"""),
}


PROTOCOL_RULES = [r for r in RULES if r.startswith("REP3")]


def rules_for_path(path: str) -> list[str]:
    return rules_in_scope(path, PROTOCOL_RULES)


def run(source: str, *, only=None, path: str = CLUSTER_PATH):
    """The protocol rules in scope for ``path``, or just ``only``."""
    violations, errors = analyze(
        textwrap.dedent(source), path, rules=only or rules_for_path(path)
    )
    assert not errors, errors
    return violations


def rules_hit(source: str, **kw) -> list[str]:
    return [v.rule for v in run(source, **kw)]


def mutant_hits(name: str) -> list[str]:
    path, source = MUTANTS[name]
    return rules_hit(source, path=path)


NOTE = "self.balancer.note_live_set_change()"


def clock_store(fn: str, stmt: str) -> str:
    """One clock store ``stmt`` as line 3 of method ``fn``."""
    return (
        f"class EncodingService:\n    def {fn}(self, t, other):\n"
        f"        {stmt}\n"
    )


def live_store(stmts: list[str]) -> str:
    """``stmts`` as the body of a framework method, from line 3."""
    body = "".join(f"        {s}\n" for s in stmts)
    return f"class FevesFramework:\n    def readmit(self, name):\n{body}"


def make_node(**kw):
    spec_kw = {"node_id": "n0", "platform": "SysHK"}
    spec_kw.update(kw)
    return Node(NodeSpec(**spec_kw))


# ---------------------------------------------------------------------------
# 1. The DSL: malformed specs fail at construction with named tokens.


class TestSpecDsl:
    def test_unknown_state_in_transition(self):
        with pytest.raises(ProtocolSpecError, match="unknown state"):
            ProtocolSpec(
                name="bad",
                classes=("X",),
                states=("a",),
                initial="a",
                transitions=(Transition("go", ("a",), "nowhere"),),
            )

    def test_unknown_initial_state(self):
        with pytest.raises(ProtocolSpecError, match="unknown state"):
            ProtocolSpec(name="bad", classes=("X",), states=("a",), initial="b")

    def test_unknown_state_in_observer(self):
        with pytest.raises(ProtocolSpecError, match="unknown state"):
            ProtocolSpec(
                name="bad",
                classes=("X",),
                states=("a",),
                initial="a",
                observers=(Observer("peek", ("b",)),),
            )

    def test_unreachable_terminal(self):
        with pytest.raises(ProtocolSpecError, match="unreachable terminal"):
            ProtocolSpec(
                name="bad",
                classes=("X",),
                states=("a", "b"),
                initial="a",
                terminal=("b",),  # no transition ever reaches it
            )

    def test_duplicate_transition(self):
        with pytest.raises(ProtocolSpecError, match="duplicate transition"):
            ProtocolSpec(
                name="bad",
                classes=("X",),
                states=("a", "b"),
                initial="a",
                transitions=(
                    Transition("go", ("a",), "b"),
                    Transition("go", ("a",), "a"),  # ambiguous from 'a'
                ),
            )

    def test_duplicate_state(self):
        with pytest.raises(ProtocolSpecError, match="duplicate state"):
            ProtocolSpec(
                name="bad", classes=("X",), states=("a", "a"), initial="a"
            )

    def test_method_cannot_be_transition_and_observer(self):
        with pytest.raises(ProtocolSpecError, match="both a"):
            ProtocolSpec(
                name="bad",
                classes=("X",),
                states=("a",),
                initial="a",
                transitions=(Transition("go", ("a",), "a"),),
                observers=(Observer("go", ("a",)),),
            )

    def test_require_terminal_needs_a_terminal(self):
        with pytest.raises(ProtocolSpecError, match="require_terminal"):
            ProtocolSpec(
                name="bad",
                classes=("X",),
                states=("a",),
                initial="a",
                require_terminal=True,
            )

    def test_obligation_unknown_kind(self):
        with pytest.raises(ProtocolSpecError, match="unknown kind"):
            Obligation(name="o", trigger="t", discharge=("d",), kind="weird")

    def test_obligation_empty_discharge(self):
        with pytest.raises(ProtocolSpecError, match="empty discharge"):
            Obligation(name="o", trigger="t", discharge=())


class TestShippedSpecs:
    """Every shipped spec round-trips through its own validator."""

    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.name)
    def test_roundtrip_compiles(self, spec):
        # Reconstructing from the declared fields re-runs the eager
        # validation; equality proves nothing was normalized away.
        again = ProtocolSpec(
            name=spec.name,
            classes=spec.classes,
            states=spec.states,
            initial=spec.initial,
            transitions=spec.transitions,
            terminal=spec.terminal,
            observers=spec.observers,
            obligations=spec.obligations,
            require_terminal=spec.require_terminal,
        )
        assert again == spec
        assert again.by_method == spec.by_method

    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.name)
    def test_step_agrees_with_allowed_sources(self, spec):
        methods = set(spec.by_method) | set(spec.observer_states)
        for state in spec.states:
            for method in methods:
                legal = state in spec.allowed_sources(method)
                assert (spec.step(state, method) is not None) == legal

    def test_every_tracked_class_maps_to_one_spec(self):
        for cls, spec in CLASS_SPECS.items():
            assert cls in spec.classes
        assert set(SPEC_BY_NAME) == {s.name for s in SPECS}

    def test_methods_outside_alphabet_are_neutral(self):
        spec = SPEC_BY_NAME["node"]
        assert spec.step("up", "not_a_protocol_method") == "up"


# ---------------------------------------------------------------------------
# 2. The census: the specs and the journal calls in src/ name one alphabet.

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

#: Receivers of a journal call other than ``self``, by the class they hold.
RECEIVERS = {"s": "EncodingSession", "self.dispatcher": "Dispatcher"}


def alphabet(spec: ProtocolSpec) -> set[str]:
    """Every event ``spec`` gives a meaning to."""
    events = set(spec.by_method) | set(spec.observer_states)
    for ob in spec.obligations:
        events |= {ob.trigger, *ob.discharge}
    return events


@functools.cache
def journaled_events() -> frozenset[tuple[str, str]]:
    """``(class, event)`` of every ``repro.util.journal.record`` call in
    ``src/``; the receiver's class is the enclosing class for ``self``."""
    found: set[tuple[str, str]] = set()
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names = {
            alias.asname or alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            and node.module == "repro.util.journal"
            for alias in node.names
            if alias.name == "record"
        }
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            for call in ast.walk(cls):
                if not (
                    isinstance(call, ast.Call)
                    and isinstance(call.func, ast.Name)
                    and call.func.id in names
                ):
                    continue
                recv, event = call.args[:2]
                assert isinstance(event, ast.Constant), ast.dump(call)
                text = ast.unparse(recv)
                owner = cls.name if text == "self" else RECEIVERS[text]
                found.add((owner, event.value))
    return frozenset(found)


class TestSpecJournalCensus:
    """A spec event nothing journals is a check that never runs; a
    journaled event outside the spec is one SAN-G treats as neutral."""

    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.name)
    def test_every_spec_event_is_journaled(self, spec):
        journaled = journaled_events()
        missing = sorted(
            (cls, event)
            for cls in spec.classes
            for event in alphabet(spec)
            if (cls, event) not in journaled
        )
        assert missing == []

    def test_every_journaled_event_is_in_its_spec(self):
        stray = sorted(
            (cls, event)
            for cls, event in journaled_events()
            if event != "create"
            and (cls not in CLASS_SPECS or event not in alphabet(CLASS_SPECS[cls]))
        )
        assert stray == []


# ---------------------------------------------------------------------------
# 3. Static half: one mutant + clean twin per rule.


class TestRep302Clocks:
    def test_rewind_is_flagged(self):
        assert "REP302" in mutant_hits("rep302_rewind")

    def test_cross_domain_assignment_is_flagged(self):
        assert "REP302" in mutant_hits("rep302_cross_domain")

    def test_monotone_pull_is_clean(self):
        assert not rules_hit(
            """\
            class EncodingService:
                def advance(self, t):
                    self.now = max(self.now, t)
            """
        )

    def test_seed_in_init_is_clean(self):
        assert not rules_hit(
            """\
            class EncodingService:
                def __init__(self):
                    self.now = 0.0
            """
        )

    def test_bare_reset_outside_init_is_flagged(self):
        assert "REP302" in mutant_hits("rep302_bare_reset")

    @pytest.mark.parametrize("name, message", [
        ("rep302_rewind", "clock 'self.now' rewound; advance with"),
        ("rep302_cross_domain", "from clock domain 'node.service.now'"),
        ("rep302_bare_reset", "from a non-clock value outside __init__/reset"),
    ])
    def test_the_finding_names_the_store(self, name, message):
        path, source = MUTANTS[name]
        (v,) = run(source, path=path)
        assert (v.rule, v.line, v.col) == ("REP302", 3, 9)
        assert message in v.message

    def test_judged_under_the_innermost_function(self):
        # A seed is legal in __init__, not in a function nested in it.
        violations = run(
            """\
            class EncodingService:
                def __init__(self):
                    self.now = 0.0

                    def restart():
                        self.now = 0.0
            """
        )
        assert [(v.rule, v.line) for v in violations] == [("REP302", 6)]

    # Each write shape below is judged as the CFG version of the rule
    # judged it: same findings, same line and column, same message.

    @pytest.mark.parametrize("fn, stmt", [
        ("hurry", "self.now += t"),
        ("hurry", "self.now = self.now + t"),
        ("reset", "self.now = 0.0"),
        ("sync", "self.now = max(self.now, other.now)"),
        ("__init__", "self.now: float = 0.0"),
        ("hurry", "self.now: float"),  # a declaration stores nothing
    ])
    def test_legal_write_shape_is_clean(self, fn, stmt):
        assert run(clock_store(fn, stmt), only=["REP302"]) == []

    @pytest.mark.parametrize("source", [
        "svc.now = 0.0\n",
        "class EncodingService:\n    now = 0.0\n",
    ], ids=["module_level", "class_body"])
    def test_store_outside_any_function_is_not_judged(self, source):
        assert run(source, only=["REP302"]) == []

    @pytest.mark.parametrize("fn, stmt, message", [
        ("hurry", "self.now -= t", "non-advancing augmented assignment"),
        ("hurry", "self.now *= 2", "non-advancing augmented assignment"),
        ("hurry", "self.now = self.now * 2",
         "assigned from a non-monotone expression"),
        ("sync", "self.now = max(other.now, t)",
         "cross-assigned from clock domain 'other.now'"),
        ("__init__", "self.now = other.now",
         "cross-assigned from clock domain 'other.now'"),
        ("hurry", "self.now: float = t",
         "from a non-clock value outside __init__/reset"),
    ])
    def test_illegal_write_shape_is_flagged(self, fn, stmt, message):
        (v,) = run(clock_store(fn, stmt), only=["REP302"])
        assert (v.rule, v.line, v.col) == ("REP302", 3, 9)
        assert message in v.message

    def test_async_function_is_judged(self):
        (v,) = run(
            """\
            class EncodingService:
                async def restart(self, t):
                    self.now = t
            """,
            only=["REP302"],
        )
        assert (v.rule, v.line) == ("REP302", 3)

    def test_every_target_of_a_chained_store_is_judged(self):
        violations = run(clock_store("hurry", "self.now = other.now = t"),
                         only=["REP302"])
        assert sorted(v.message.split("'")[1] for v in violations) == [
            "other.now", "self.now"
        ]


class TestRep304Invalidation:
    def test_mutation_then_solve_is_flagged(self):
        assert "REP304" in mutant_hits("rep304_mutation_then_solve")

    def test_mutation_escaping_function_is_flagged(self):
        assert "REP304" in mutant_hits("rep304_mutation_escapes")

    def test_invalidate_between_is_clean(self):
        assert not rules_hit(
            """\
            class FevesFramework:
                def readmit(self, name):
                    self._live[name] = True
                    self.balancer.note_live_set_change()
                    return self.balancer.solve(self.perf)
            """,
            path=CORE_PATH,
        )

    def test_the_invalidation_must_come_at_once(self):
        assert "REP304" in rules_hit(
            """\
            class FevesFramework:
                def readmit(self, name):
                    self._live[name] = True
                    self.readmitted.append(name)
                    self.balancer.note_live_set_change()
            """,
            path=CORE_PATH,
        )

    def test_transitive_reach_to_solve_is_flagged(self):
        # The solve sits two calls away; the store is flagged anyway,
        # because no invalidation follows it at once.
        assert "REP304" in mutant_hits("rep304_transitive_reach")

    @pytest.mark.parametrize("stmts", [
        ["del self._live[name]"],
        ["self._live[name] += 1"],
        ["self._live[name]: bool = True"],
        ["live = {}", "live[name] = True", "return live"],
    ], ids=["delete", "augmented", "annotated", "bare_name"])
    def test_every_store_shape_is_flagged(self, stmts):
        (v,) = run(live_store(stmts), only=["REP304"], path=CORE_PATH)
        assert v.rule == "REP304"
        assert "not followed at once by note_live_set_change()" in v.message

    # A store nested in a branch, handler, loop or finally block is
    # judged against its own statement list: an invalidation after the
    # block does not come at once, so the store is flagged.
    @pytest.mark.parametrize("stmts, line", [
        (["if name:", "    self._live[name] = True", NOTE], 4),
        (["if name:", "    pass", "else:", "    self._live[name] = False",
          NOTE], 6),
        (["try:", "    pass", "except KeyError:",
          "    self._live[name] = False", NOTE], 6),
        (["try:", "    pass", "finally:", "    self._live[name] = False"], 6),
        (["for n in name:", "    self._live[n] = True", NOTE], 4),
    ], ids=["if_body", "else_body", "handler", "finally", "loop_body"])
    def test_store_in_a_nested_block_is_flagged(self, stmts, line):
        (v,) = run(live_store(stmts), only=["REP304"], path=CORE_PATH)
        assert (v.rule, v.line) == ("REP304", line)

    @pytest.mark.parametrize("stmts", [
        ["del self._live[name]", NOTE],
        ["if name:", "    self._live[name] = True", "    " + NOTE],
        ["try:", "    self._live[name] = True", "    " + NOTE,
         "except KeyError:", "    raise"],
        ["for n in name:", "    self._live[n] = True", "    " + NOTE],
        ["self._live[name] = True", "note_live_set_change()"],
        ["self._live = {}"],  # a rebinding, not a store into the set
        ["self._dead[name] = True"],
    ], ids=["delete", "if_body", "try_body", "loop_body", "bare_call",
            "rebinding", "other_map"])
    def test_clean_shape_passes(self, stmts):
        assert run(live_store(stmts), only=["REP304"], path=CORE_PATH) == []


# ---------------------------------------------------------------------------
# 4. Scoping and registry plumbing.


class TestScopes:
    def test_clock_rule_runs_in_cluster_scope(self):
        assert rules_for_path(CLUSTER_PATH) == ["REP302"]

    def test_rep304_is_core_scoped(self):
        assert "REP304" in rules_for_path(CORE_PATH)
        assert "REP304" not in rules_for_path(CLUSTER_PATH)

    def test_out_of_scope_path_runs_nothing(self):
        assert rules_for_path("src/repro/video/generator.py") == []

    def test_noqa_suppresses(self):
        src = """\
        class EncodingService:
            def hurry(self, t):
                self.now = self.now - 5.0  # noqa: REP302
        """
        assert not rules_hit(src)

    def test_rule_table_is_complete(self):
        assert set(PROTOCOL_RULES) == {"REP302", "REP304"}


# ---------------------------------------------------------------------------
# 5. Dynamic half: the same bug classes on real objects, via SAN-G.


class TestSanGDynamic:
    def test_step_after_retire_caught(self, journal):
        node = make_node()
        node.offer(StreamSpec("a", n_frames=2), now=0.0)
        node.retire(1.0, DOWN)
        try:
            node.step()  # protocol violation; may also fail functionally
        except Exception:
            pass
        report = check_events(journal.drain())
        assert any(
            v.rule == "SAN-G1" and "step()" in v.message
            for v in report.violations
        )

    def test_clock_rewind_caught(self, journal):
        node = make_node()
        node.offer(StreamSpec("a", n_frames=2), now=5.0)
        # Simulate the pre-fix bug: a restart stamping the clock straight
        # from its argument instead of pulling it monotonically.
        node.service.now = 1.0
        node.step()
        report = check_events(journal.drain())
        assert any(
            v.rule == "SAN-G1" and "clock ran backwards" in v.message
            for v in report.violations
        )

    def test_dropped_dequeue_caught(self, journal):
        # Saturate a one-node fleet so submissions park, then run a
        # mutant drain that pops the head and drops it on the floor.
        cluster = Cluster(
            ClusterConfig(nodes=(NodeSpec("n0", max_queue=1),))
        )
        for i in range(12):
            cluster.dispatcher.submit(
                StreamSpec(f"s{i}", n_frames=2, fps_target=25.0), t=0.0
            )
        assert cluster.dispatcher.depth > 0
        from repro.util.journal import record as _journal

        d = cluster.dispatcher
        head = d.queue.popleft()
        _journal(d, "dequeue", d.now, detail=head.stream_id)
        # ... and no disposition ever happens.
        report = check_events(journal.drain())
        assert any(
            v.rule == "SAN-G2" and "dequeue-disposition" in v.message
            for v in report.violations
        )

    def test_clean_fleet_run_passes(self, journal):
        wl = [StreamSpec(f"s{i}", n_frames=2, fps_target=25.0) for i in range(4)]
        cluster = Cluster(
            ClusterConfig(nodes=(NodeSpec("n0"), NodeSpec("n1")))
        )
        cluster.run(wl)
        events = journal.drain()
        assert events  # the run was journaled
        report = check_events(events)
        assert report.clean, report.summary()

    @pytest.mark.parametrize("value,on", [
        ("1", True), ("strict", True), ("STRICT", True), ("on", True),
        ("true", True), (None, False), ("", False), ("0", False),
        ("off", False),
    ])
    def test_env_switch_reaches_every_layer(self, value, on, monkeypatch):
        """``$REPRO_SANITIZE`` has one parser and no second switch: a
        spelling turns the predicate and the SAN-G lifecycle journal on
        together, or neither."""
        if value is None:
            monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        else:
            monkeypatch.setenv("REPRO_SANITIZE", value)
        JOURNAL.reset()
        try:
            assert sanitize_from_env() is on
            cluster = Cluster(ClusterConfig(nodes=(NodeSpec("n0"),)))
            cluster.run([StreamSpec("s0", n_frames=1, fps_target=25.0)])
            assert bool(JOURNAL.snapshot()) is on            # SAN-G
        finally:
            monkeypatch.undo()
            JOURNAL.reset()


# ---------------------------------------------------------------------------
# 6. Agreement pins: one mutant per rule, caught by BOTH halves.


class TestAgreement:
    """The declarative spec drives lint and monitor identically."""

    def test_rep302_and_san_g1_agree_on_clock_rewind(self, journal):
        mutant = """\
        class EncodingService:
            def restart(self, start_s):
                self.now = start_s
        """
        assert "REP302" in rules_hit(mutant, only=["REP302"])

        # Dynamic twin: the same bug shape on a real node — a restart
        # stamping the clock from its argument instead of max()-pulling.
        node = make_node()
        node.offer(StreamSpec("a", n_frames=2), now=5.0)
        node.service.now = 1.0
        node.step()
        report = check_events(journal.drain())
        assert any(
            v.rule == "SAN-G1" and "clock ran backwards" in v.message
            for v in report.violations
        )

    def test_rep304_and_san_g2_agree_on_stale_solve(self, journal, monkeypatch):
        mutant = """\
        class FevesFramework:
            def readmit(self, name):
                self._live[name] = True
                return self.balancer.solve(self.perf)
        """
        assert "REP304" in rules_hit(mutant, only=["REP304"], path=CORE_PATH)

        # Dynamic twin: disable the invalidation hook and run a fault
        # that shrinks then regrows the live set — consecutive solves
        # over different live sets with no invalidate between them.
        from repro.codec.config import CodecConfig
        from repro.core.config import FrameworkConfig
        from repro.core.framework import FevesFramework
        from repro.core.load_balancing import LoadBalancer
        from repro.hw.noise import FaultEvent, FaultSchedule
        from repro.hw.presets import get_platform

        monkeypatch.setattr(
            LoadBalancer, "note_live_set_change", lambda self: None
        )
        fw = FevesFramework(
            get_platform("SysHK"),
            CodecConfig(width=1920, height=1088, search_range=16),
            FrameworkConfig(
                faults=FaultSchedule(
                    [FaultEvent(frame=3, device="GPU_K", kind="hang", duration=2)]
                )
            ),
        )
        fw.run_model(8)
        report = check_events(journal.drain())
        assert any(
            v.rule == "SAN-G2" and "invalidate-before-solve" in v.message
            for v in report.violations
        )

    def test_clean_framework_run_satisfies_both(self, journal):
        # The shipped source lints clean (the gate below) and a real
        # faulted run journals clean: live-set changes are invalidated.
        from repro.codec.config import CodecConfig
        from repro.core.config import FrameworkConfig
        from repro.core.framework import FevesFramework
        from repro.hw.noise import FaultEvent, FaultSchedule
        from repro.hw.presets import get_platform

        fw = FevesFramework(
            get_platform("SysHK"),
            CodecConfig(width=1920, height=1088, search_range=16),
            FrameworkConfig(
                faults=FaultSchedule(
                    [FaultEvent(frame=3, device="GPU_K", kind="hang", duration=2)]
                )
            ),
        )
        fw.run_model(8)
        report = check_events(journal.drain())
        assert report.clean, report.summary()


# ---------------------------------------------------------------------------
# 7. The gate: shipped sources pass every protocol rule.


class TestShippedSourcesClean:
    @pytest.mark.parametrize("pkg", ["core", "service", "cluster"])
    def test_package_lints_clean(self, pkg):
        root = SRC / pkg
        violations, errors = run_lint([root], PROTOCOL_RULES)
        assert not errors, errors
        assert violations == [], [str(v) for v in violations]
