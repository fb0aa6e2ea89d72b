"""Golden-file tests for the REP1xx dataflow rules.

Each rule gets a seeded-bug mutant the analyzer MUST catch and a clean
twin that MUST stay silent — the mutant/twin pairs double as living
documentation of what each rule means.
"""

import textwrap

from repro.sanitizers.runner import RULES, analyze, rules_in_scope

DATAFLOW_RULES = {r: RULES[r].description for r in RULES if r.startswith("REP1")}

HW_PATH = "src/repro/hw/fake_module.py"
CORE_PATH = "src/repro/core/fake_module.py"
SERVICE_PATH = "src/repro/service/fake_module.py"
EXEC_PATH = "src/repro/exec/fake_module.py"
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
    "rep103_shm_never_released": (EXEC_PATH, """\
def make(nbytes):
    seg = SharedMemory(create=True, size=nbytes)
    fill(seg.buf)
"""),
    "rep103_shm_exception_before_close": (EXEC_PATH, """\
def make(nbytes):
    seg = SharedMemory(create=True, size=nbytes)
    fill(seg.buf)
    seg.close()
    seg.unlink()
"""),
    "rep103_shm_close_of_other": (EXEC_PATH, """\
def swap(other, nbytes):
    seg = SharedMemory(create=True, size=nbytes)
    other.close()
    other.unlink()
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


class TestREP103SharedMemory:
    """Constructor-acquired OS resources: ``seg = SharedMemory(...)``.

    The process execution backend creates shared-memory segments; a
    segment never closed/unlinked leaks a /dev/shm file past process
    exit, so REP103 tracks the constructor like an acquire and
    ``close()``/``unlink()`` like releases, with ownership escapes
    (return / re-assignment) transferring responsibility.
    """

    def test_segment_never_released_is_caught(self):
        found = [v for v in run(*mutant("rep103_shm_never_released")) if v.rule == "REP103"]
        assert found
        assert "'seg'" in found[0].message

    def test_exception_between_create_and_close_is_caught(self):
        # fill() may raise before the releases run.
        found = [v for v in run(*mutant("rep103_shm_exception_before_close")) if v.rule == "REP103"]
        assert found
        assert "exception path" in found[0].message

    def test_try_finally_close_unlink_is_clean(self):
        src = """
        def make(nbytes):
            seg = SharedMemory(create=True, size=nbytes)
            try:
                return fill(seg.buf)
            finally:
                seg.close()
                seg.unlink()
        """
        assert rules_hit(src, EXEC_PATH) == set()

    def test_ownership_escape_via_assignment_is_clean(self):
        # The SharedFrameStore pattern: the container now owns the
        # segment; its close() is the audited release site.
        src = """
        def stage(self, spec):
            seg = SharedMemory(create=True, size=spec.nbytes)
            self._segments[spec.key] = seg
        """
        assert rules_hit(src, EXEC_PATH) == set()

    def test_ownership_escape_via_return_is_clean(self):
        src = """
        def open_segment(nbytes):
            seg = SharedMemory(create=True, size=nbytes)
            return seg
        """
        assert rules_hit(src, EXEC_PATH) == set()

    def test_close_of_other_segment_does_not_clear(self):
        found = [v for v in run(*mutant("rep103_shm_close_of_other")) if v.rule == "REP103"]
        assert found

    def test_exec_package_is_in_rep103_scope(self):
        # ... and only exec/: it is the one package that creates segments.
        assert "REP103" in rules_for_path(EXEC_PATH)
        for path in (HW_PATH, CORE_PATH, SERVICE_PATH, OUTSIDE_PATH):
            assert "REP103" not in rules_for_path(path)

    def test_engine_style_acquire_is_not_tracked(self):
        # Only SharedMemory construction acquires; src/ has no
        # acquire/reserve/claim API for the rule to pair.
        src = """
        def run_op(dev, op):
            dev.acquire_engine(op.engine)
            return execute(dev, op)
        """
        assert rules_hit(src, EXEC_PATH) == set()


class TestREP103Resources:
    """Path sensitivity: which CFG shapes release a segment on every exit."""

    def test_early_return_leaks_segment(self):
        src = """
        def make(nbytes):
            seg = SharedMemory(create=True, size=nbytes)
            if nbytes <= 0:
                return None
            try:
                fill(seg.buf)
            finally:
                seg.close()
                seg.unlink()
        """
        found = [v for v in run(src, EXEC_PATH) if v.rule == "REP103"]
        assert any("a return path" in v.message for v in found)

    def test_exception_path_leak_is_caught(self):
        # The return path releases; a write inside the loop may raise
        # before it does, so only the exceptional exit is flagged.
        src = """
        def make(nbytes, chunks):
            seg = SharedMemory(create=True, size=nbytes)
            for chunk in chunks:
                write(seg.buf, chunk)
            seg.close()
            seg.unlink()
        """
        found = [v for v in run(src, EXEC_PATH) if v.rule == "REP103"]
        assert [v.message for v in found if "exception path" in v.message]
        assert not [v for v in found if "a return path" in v.message]

    def test_try_finally_release_is_clean(self):
        # One segment per iteration, each released before the next.
        src = """
        def make(sizes):
            for n in sizes:
                seg = SharedMemory(create=True, size=n)
                try:
                    fill(seg.buf)
                finally:
                    seg.close()
                    seg.unlink()
        """
        assert rules_hit(src, EXEC_PATH) == set()

    def test_both_paths_release_is_clean(self):
        src = """
        def make(nbytes, fast):
            seg = SharedMemory(create=True, size=nbytes)
            try:
                if fast:
                    r = quick(seg.buf)
                else:
                    r = slow(seg.buf)
            finally:
                seg.close()
                seg.unlink()
            return r
        """
        assert rules_hit(src, EXEC_PATH) == set()

    def test_release_on_one_branch_is_caught(self):
        src = """
        def make(nbytes, fast):
            seg = SharedMemory(create=True, size=nbytes)
            try:
                r = fill(seg.buf)
            finally:
                if fast:
                    seg.close()
                    seg.unlink()
            return r
        """
        found = [v for v in run(src, EXEC_PATH) if v.rule == "REP103"]
        assert any("a return path" in v.message for v in found)

    def test_release_of_other_resource_does_not_clear(self):
        # self.seg is a different key from the local seg.
        src = """
        def swap(self, nbytes):
            seg = SharedMemory(create=True, size=nbytes)
            try:
                fill(seg.buf)
            finally:
                self.seg.close()
                self.seg.unlink()
        """
        found = [v for v in run(src, EXEC_PATH) if v.rule == "REP103"]
        assert found and all("'seg'" in v.message for v in found)


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
        assert set(DATAFLOW_RULES) == {"REP102", "REP103"}
        assert all(DATAFLOW_RULES[r] for r in DATAFLOW_RULES)
