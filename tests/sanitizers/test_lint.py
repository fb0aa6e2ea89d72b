"""Static-lint tests: each REP rule fires on seeded code, noqa suppresses,
and the repo's own ``src/`` tree is clean."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.sanitizers.runner import RULES, analyze, rules_in_scope, run_lint

SIM_PATH = Path("src/repro/hw/fake_module.py")
OTHER_PATH = Path("src/repro/report/fake_module.py")

LINT_RULES = [r for r in RULES if r.startswith("REP00")]

# Seeded mutants as (display path, source); test_kill_matrix.py runs each
# of them under every rule in the table.
MUTANTS = {
    "rep001_time_call": (SIM_PATH, "import time\nt0 = time.perf_counter()\n"),
    "rep001_from_import": (SIM_PATH, "from time import perf_counter\n"),
    "rep002_eq_float": (SIM_PATH, "ok = x == 0.0\n"),
    "rep002_noteq_float": (OTHER_PATH, "ok = t != 1.5\n"),
    "rep003_assignment": (SIM_PATH, "dev.fault_compute_scale = 2.0\n"),
    "rep003_augmented": (OTHER_PATH, "dev.share_scale *= 0.5\n"),
    "rep004_bare_division": (SIM_PATH, "def f(bw):\n    return nbytes / bw\n"),
    "rep004_attribute_rate": (
        SIM_PATH, "def f(spec):\n    return 1.0 / spec.h2d_rate\n",
    ),
}


def lint_source(source, path):
    """The per-line rules in scope for ``path`` over one snippet."""
    violations, errors = analyze(
        source, str(path), rules=rules_in_scope(str(path), LINT_RULES)
    )
    assert not errors, errors
    return violations


def mutant_rules(name):
    path, source = MUTANTS[name]
    return rules_of(lint_source(source, path))


def rules_of(violations):
    return {v.rule for v in violations}


class TestRep001WallClock:
    def test_time_call_in_sim_path_fires(self):
        assert "REP001" in mutant_rules("rep001_time_call")

    def test_from_import_fires(self):
        assert "REP001" in mutant_rules("rep001_from_import")

    def test_outside_sim_paths_is_allowed(self):
        src = "import time\nt0 = time.perf_counter()\n"
        assert lint_source(src, OTHER_PATH) == []

    def test_util_timing_is_out_of_scope(self):
        # The one sanctioned wall-clock site lives in util/, not hw/core.
        assert lint_source(
            "import time\nt0 = time.monotonic()\n",
            Path("src/repro/util/timing.py"),
        ) == []

    def test_non_clock_time_attrs_are_allowed(self):
        src = "import time\ntime.sleep(0.1)\n"
        assert lint_source(src, SIM_PATH) == []


class TestRep002FloatEquality:
    def test_eq_against_float_literal_fires(self):
        assert "REP002" in mutant_rules("rep002_eq_float")

    def test_noteq_fires(self):
        assert "REP002" in mutant_rules("rep002_noteq_float")

    def test_integer_literal_is_allowed(self):
        assert lint_source("ok = n == 0\n", SIM_PATH) == []

    def test_inequality_is_allowed(self):
        assert lint_source("ok = x <= 0.0\n", SIM_PATH) == []


class TestRep003DeviceMutation:
    def test_assignment_outside_device_module_fires(self):
        assert "REP003" in mutant_rules("rep003_assignment")

    def test_augmented_assignment_fires(self):
        assert "REP003" in mutant_rules("rep003_augmented")

    def test_device_module_itself_is_allowed(self):
        src = "self.fault_copy_scale = 1.0\n"
        assert lint_source(src, Path("src/repro/hw/device.py")) == []

    def test_reading_the_attribute_is_allowed(self):
        src = "x = dev.fault_compute_scale\n"
        assert lint_source(src, SIM_PATH) == []


class TestRep004UnguardedDivision:
    def test_bare_division_by_rate_fires(self):
        assert "REP004" in mutant_rules("rep004_bare_division")

    def test_attribute_rate_fires(self):
        assert "REP004" in mutant_rules("rep004_attribute_rate")

    def test_if_guard_suppresses(self):
        src = (
            "def f(bw):\n"
            "    if bw <= 0:\n"
            "        return 0.0\n"
            "    return nbytes / bw\n"
        )
        assert lint_source(src, SIM_PATH) == []

    def test_max_clamp_suppresses(self):
        src = "def f(bw):\n    return nbytes / max(bw, 1e-9)\n"
        assert lint_source(src, SIM_PATH) == []

    def test_or_fallback_suppresses(self):
        src = "def f(bw):\n    return nbytes / (bw or 1.0)\n"
        assert lint_source(src, SIM_PATH) == []

    def test_non_rate_name_is_allowed(self):
        src = "def f(n):\n    return total / n\n"
        assert lint_source(src, SIM_PATH) == []


class TestNoqa:
    def test_bare_noqa_suppresses_everything(self):
        src = "ok = x == 0.0  # noqa\n"
        assert lint_source(src, SIM_PATH) == []

    def test_coded_noqa_suppresses_named_rule(self):
        src = "ok = x == 0.0  # noqa: REP002\n"
        assert lint_source(src, SIM_PATH) == []

    def test_coded_noqa_with_reason_text(self):
        src = "r = 1.0 / fps  # noqa: REP004 - validated at construction\n"
        assert lint_source(src, SIM_PATH) == []

    def test_wrong_code_does_not_suppress(self):
        src = "ok = x == 0.0  # noqa: REP004\n"
        assert "REP002" in rules_of(lint_source(src, SIM_PATH))


class TestHarness:
    def test_syntax_error_reports_rep000(self):
        out = lint_source("def broken(:\n", SIM_PATH)
        assert [v.rule for v in out] == ["REP000"]

    def test_violation_str_is_location_first(self):
        (v,) = lint_source("ok = x == 0.0\n", SIM_PATH)
        assert str(v).startswith(f"{SIM_PATH}:1:")
        assert "REP002" in str(v)

    def test_lint_file_and_paths(self, tmp_path):
        bad = tmp_path / "repro" / "hw" / "clocky.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("import time\nt = time.time()\n")
        (tmp_path / "repro" / "hw" / "__pycache__").mkdir()
        (tmp_path / "repro" / "hw" / "__pycache__" / "junk.py").write_text(
            "x == 0.0\n"
        )
        out, errors = run_lint([tmp_path])
        assert not errors
        assert rules_of(out) == {"REP001"}
        assert run_lint([bad])[0][0].rule == "REP001"

    def test_rule_table_is_complete(self):
        assert set(LINT_RULES) == {"REP001", "REP002", "REP003", "REP004"}


class TestRepoIsClean:
    def test_src_tree_is_lint_clean(self):
        root = Path(__file__).resolve().parents[2] / "src"
        assert root.is_dir()
        violations, errors = run_lint([root], LINT_RULES)
        assert not errors, errors
        assert violations == [], "\n".join(str(v) for v in violations)


class TestCli:
    def test_lint_command_exits_zero_on_clean_tree(self, capsys):
        from repro.cli import main

        root = Path(__file__).resolve().parents[2] / "src"
        assert main(["lint", str(root)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_lint_command_reports_violations(self, tmp_path, capsys):
        from repro.cli import main

        bad = tmp_path / "repro" / "core" / "clocky.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("import time\nt = time.time()\nok = t == 0.0\n")
        assert main(["lint", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "REP001" in out
        assert "REP002" in out

    def test_lint_command_json_format(self, tmp_path, capsys):
        import json

        from repro.cli import main

        bad = tmp_path / "repro" / "core" / "clocky.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("t = x == 0.0\n")
        assert main(["lint", "--format", "json", str(tmp_path)]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload[0]["rule"] == "REP002"
        assert payload[0]["line"] == 1

    def test_lint_command_rejects_missing_path(self, capsys):
        from repro.cli import main

        assert main(["lint", "definitely/not/a/path"]) == 2
        assert "no such file" in capsys.readouterr().err
