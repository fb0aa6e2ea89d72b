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
    "rep101_seconds_plus_rows": (HW_PATH, """\
def f(transfer_s: float, mb_rows: int) -> float:
    return transfer_s + mb_rows
"""),
    "rep101_rows_per_second_into_bytes": (CORE_PATH, """\
def f(plan, mb_rows, tau_s):
    plan.nbytes = mb_rows / tau_s
"""),
    "rep101_mismatch_through_assignment": (CORE_PATH, """\
def f(mb_rows, duration_s):
    speed = mb_rows / duration_s   # rows/s, fine
    total_bytes = speed            # rows/s stored as bytes: bug
    return total_bytes
"""),
    "rep101_min_mixing_units": (HW_PATH, """\
def f(tau_s, mb_rows):
    return min(tau_s, mb_rows)
"""),
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
    "rep103_early_return": (HW_PATH, """\
def run_op(dev, op):
    dev.acquire_engine(op.engine)
    if op.rows <= 0:
        return None
    result = execute(dev, op)
    dev.release_engine(op.engine)
    return result
"""),
    "rep103_exception_path": (HW_PATH, """\
def run_op(dev, op):
    dev.acquire_engine(op.engine)
    result = execute(dev, op)
    dev.release_engine(op.engine)
    return result
"""),
    "rep103_release_of_other": (HW_PATH, """\
def f(a, b):
    a.acquire()
    b.release()
    return done()
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


class TestREP101Units:
    def test_seconds_plus_rows_is_caught(self):
        assert "REP101" in rules_hit(*mutant("rep101_seconds_plus_rows"))

    def test_rows_per_second_into_bytes_field_is_caught(self):
        assert "REP101" in rules_hit(*mutant("rep101_rows_per_second_into_bytes"))

    def test_consistent_arithmetic_is_clean(self):
        src = """
        def f(k_me, mb_rows, bw, row_bytes_per_row):
            compute_s = k_me * mb_rows
            transfer_s = mb_rows * row_bytes_per_row / bw
            return compute_s + transfer_s
        """
        assert rules_hit(src, HW_PATH) == set()

    def test_dimensionless_constants_are_compatible(self):
        src = """
        def f(tau_s):
            return max(0.0, tau_s) * 2
        """
        assert rules_hit(src, HW_PATH) == set()

    def test_mismatch_flows_through_assignment(self):
        assert "REP101" in rules_hit(*mutant("rep101_mismatch_through_assignment"))

    def test_branches_that_disagree_degrade_to_unknown(self):
        # One arm leaves `x` as seconds, the other as rows: after the
        # join the unit is unknown, so later use must NOT flag.
        src = """
        def f(cond, tau_s, mb_rows):
            if cond:
                x = tau_s
            else:
                x = mb_rows
            return x + 1.0
        """
        assert rules_hit(src, HW_PATH) == set()

    def test_summary_table_beats_naming_convention(self):
        # buffer_row_bytes ends in _bytes but its signature is bytes/row;
        # rows * bytes/row = bytes is clean.
        src = """
        def f(mb_rows, buf, sizes):
            nbytes = mb_rows * buffer_row_bytes(buf, sizes)
            return nbytes
        """
        assert rules_hit(src, CORE_PATH) == set()

    def test_min_mixing_units_is_caught(self):
        assert "REP101" in rules_hit(*mutant("rep101_min_mixing_units"))

    def test_out_of_scope_path_is_silent(self):
        src = """
        def f(transfer_s, mb_rows):
            return transfer_s + mb_rows
        """
        assert rules_hit(src, OUTSIDE_PATH) == set()
        assert "REP101" not in rules_for_path(OUTSIDE_PATH)


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


class TestREP103Resources:
    def test_early_return_leaks_engine(self):
        found = run(*mutant("rep103_early_return"))
        assert any(v.rule == "REP103" for v in found)

    def test_exception_path_leak_is_caught(self):
        # execute() may raise between acquire and release; REP103 must
        # see the exceptional exit even though the return path is fine.
        found = [v for v in run(*mutant("rep103_exception_path")) if v.rule == "REP103"]
        assert found
        assert "exception path" in found[0].message

    def test_try_finally_release_is_clean(self):
        src = """
        def run_op(dev, op):
            dev.acquire_engine(op.engine)
            try:
                return execute(dev, op)
            finally:
                dev.release_engine(op.engine)
        """
        assert rules_hit(src, HW_PATH) == set()

    def test_with_statement_is_exempt(self):
        src = """
        def run_op(dev, op):
            with dev.acquire_engine(op.engine):
                return execute(dev, op)
        """
        assert rules_hit(src, HW_PATH) == set()

    def test_release_of_other_resource_does_not_clear(self):
        found = [v for v in run(*mutant("rep103_release_of_other")) if v.rule == "REP103"]
        assert found

    def test_both_paths_release_is_clean(self):
        src = """
        def f(dev, fast):
            dev.reserve()
            try:
                if fast:
                    r = quick(dev)
                else:
                    r = slow(dev)
            finally:
                dev.free()
            return r
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
        assert "REP103" in rules_for_path(EXEC_PATH)
        # ... but wall-clock rules stay out of exec/ (REP001 is the
        # per-line lint; REP101 units scope is hw/core only).
        assert "REP101" not in rules_for_path(EXEC_PATH)


class TestSuppressionAndScoping:
    def test_noqa_suppresses_dataflow_finding(self):
        src = """
        def f(transfer_s, mb_rows):
            return transfer_s + mb_rows  # noqa: REP101
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
        def f(transfer_s, mb_rows):
            return transfer_s + mb_rows
        """
        assert "REP101" in rules_hit(src, OUTSIDE_PATH, select=["REP101"])

    def test_syntax_error_is_silent_here(self):
        # REP000 is the driver's job (test_lint.py pins it); the dataflow
        # rules must neither crash nor report.
        violations, errors = analyze("def f(:\n", HW_PATH)
        assert not {v.rule for v in violations} & set(DATAFLOW_RULES)
        assert errors == []

    def test_every_rule_has_a_description(self):
        assert set(DATAFLOW_RULES) == {"REP101", "REP102", "REP103"}
        assert all(DATAFLOW_RULES[r] for r in DATAFLOW_RULES)
