"""Golden-file tests for the REP102 dataflow rule.

Each seeded-bug mutant the analyzer MUST catch has a clean twin that MUST
stay silent — the mutant/twin pairs double as living documentation of
what the rule means.
"""

import textwrap

from repro.sanitizers.runner import RULES, analyze, rules_in_scope

DATAFLOW_RULES = {r: RULES[r].description for r in RULES if r.startswith("REP1")}

HW_PATH = "src/repro/hw/fake_module.py"
CORE_PATH = "src/repro/core/fake_module.py"
SERVICE_PATH = "src/repro/service/fake_module.py"
OUTSIDE_PATH = "src/repro/util/fake_module.py"

# Seeded mutants as (display path, source); test_kill_matrix.py runs each
# of them under every rule in the table.
MUTANTS = {
    "rep102_for_loop_over_set": (HW_PATH, """\
def schedule(events):
    pending = {e.key for e in events}
    out = []
    for key in pending:
        out.append(key)
    return out
"""),
    "rep102_set_annotated_parameter": (CORE_PATH, """\
def pick(survivors: frozenset[str]):
    return {name: len(name) for name in survivors}
"""),
    "rep102_list_of_set": (SERVICE_PATH, """\
def f(xs):
    s = set(xs)
    return list(s)
"""),
    "rep102_popitem": (HW_PATH, """\
def f(d):
    item = d.popitem()
    for x in item:
        use(x)
    return item
"""),
}


def mutant(name: str):
    """A hoisted mutant in ``run``'s (source, path) argument order."""
    path, source = MUTANTS[name]
    return source, path


def rules_for_path(path: str) -> list[str]:
    return rules_in_scope(path, list(DATAFLOW_RULES))


def run(source: str, path: str, select=None):
    """The dataflow rules in scope for ``path`` (or exactly ``select``)."""
    violations, errors = analyze(
        textwrap.dedent(source),
        path,
        rules=rules_for_path(path) if select is None else select,
    )
    assert errors == []
    return violations


def rules_hit(source: str, path: str, select=None):
    return {v.rule for v in run(source, path, select=select)}


class TestREP102Determinism:
    def test_for_loop_over_set_is_caught(self):
        assert "REP102" in rules_hit(*mutant("rep102_for_loop_over_set"))

    def test_sorted_iteration_is_clean(self):
        src = """
        def schedule(events):
            pending = {e.key for e in events}
            out = []
            for key in sorted(pending):
                out.append(key)
            return out
        """
        assert rules_hit(src, HW_PATH) == set()

    def test_set_annotated_parameter_is_tracked(self):
        assert "REP102" in rules_hit(*mutant("rep102_set_annotated_parameter"))

    def test_list_conversion_of_set_is_caught(self):
        assert "REP102" in rules_hit(*mutant("rep102_list_of_set"))

    def test_set_rebuild_and_membership_are_clean(self):
        src = """
        def f(xs, name):
            live = frozenset(xs)
            down = frozenset(n for n in live if bad(n))
            return name in (live - down)
        """
        assert rules_hit(src, CORE_PATH) == set()

    def test_order_insensitive_reductions_are_clean(self):
        src = """
        def f(xs):
            s = set(xs)
            return len(s), sum(s), min(s), max(s), any(x > 0 for x in s)
        """
        assert rules_hit(src, HW_PATH) == set()

    def test_popitem_result_is_tainted(self):
        assert "REP102" in rules_hit(*mutant("rep102_popitem"))

    def test_reassignment_with_ordered_value_clears_taint(self):
        src = """
        def f(xs):
            s = set(xs)
            s = sorted(s)
            for x in s:
                use(x)
        """
        assert rules_hit(src, HW_PATH) == set()


class TestSuppressionAndScoping:
    def test_noqa_suppresses_dataflow_finding(self):
        src = """
        def f(xs):
            s = set(xs)
            return list(s)  # noqa: REP102
        """
        assert rules_hit(src, HW_PATH) == set()

    def test_blanket_noqa_suppresses(self):
        src = """
        def f(xs):
            s = set(xs)
            return list(s)  # noqa
        """
        assert rules_hit(src, HW_PATH) == set()

    def test_select_forces_rules_out_of_scope(self):
        src = """
        def f(xs):
            s = set(xs)
            return list(s)
        """
        assert "REP102" not in rules_for_path(OUTSIDE_PATH)
        assert "REP102" in rules_hit(src, OUTSIDE_PATH, select=["REP102"])

    def test_syntax_error_is_silent_here(self):
        # REP000 is the driver's job (test_lint.py pins it); the dataflow
        # rules must neither crash nor report.
        violations, errors = analyze("def f(:\n", HW_PATH)
        assert not {v.rule for v in violations} & set(DATAFLOW_RULES)
        assert errors == []

    def test_every_rule_has_a_description(self):
        assert set(DATAFLOW_RULES) == {"REP102"}
        assert all(DATAFLOW_RULES[r] for r in DATAFLOW_RULES)
