"""CLI behavior of ``repro lint``: formats, selection, exit codes, and the
structure pins of the one-table/one-driver design."""

import argparse
import ast
import json
import re
from pathlib import Path

import pytest

from repro.cli import build_parser, main
from repro.sanitizers import runner

BUGGY = (
    "def schedule(events):\n"
    "    pending = {e.key for e in events}\n"
    "    out = []\n"
    "    for key in pending:\n"
    "        out.append(key)\n"
    "    return out\n"
)

CLEAN = (
    "def schedule(events):\n"
    "    pending = {e.key for e in events}\n"
    "    return [key for key in sorted(pending)]\n"
)

# A lock every forked worker inherits: the minimal REP201 mutant.
EXEC_BUGGY = (
    "import threading\n"
    "\n"
    "_LOCK = threading.Lock()\n"
    "\n"
    "def int_task(row0, nrows):\n"
    "    return row0 + nrows\n"
)


@pytest.fixture
def tree(tmp_path: Path) -> Path:
    mod = tmp_path / "src" / "repro" / "hw" / "sched.py"
    mod.parent.mkdir(parents=True)
    mod.write_text(BUGGY)
    return tmp_path


def lint(tree: Path, *extra: str) -> int:
    return main(["lint", *extra, str(tree / "src")])


def lint_parser_and_help() -> tuple[argparse.ArgumentParser, str]:
    """The ``lint`` subparser and its one-line entry in ``repro -h``."""
    (sub,) = [
        a
        for a in build_parser()._actions
        if isinstance(a, argparse._SubParsersAction)
    ]
    (line,) = [a.help for a in sub._choices_actions if a.dest == "lint"]
    return sub.choices["lint"], line


class TestExitCodes:
    def test_findings_exit_1(self, tree):
        assert lint(tree) == 1

    def test_clean_exit_0(self, tree, capsys):
        (tree / "src" / "repro" / "hw" / "sched.py").write_text(CLEAN)
        assert lint(tree) == 0
        out = capsys.readouterr().out
        assert "clean" in out
        assert "REP102" in out and "REP201" in out  # every layer ran

    def test_internal_error_exit_2(self, tree, monkeypatch, capsys):
        # A rule that crashes is an analyzer-infrastructure failure, not
        # a lint finding: distinct exit code so CI can tell them apart.
        def boom(*_args):
            raise RuntimeError("seeded crash")

        monkeypatch.setattr(runner.DeterminismAnalysis, "transfer", boom)
        assert lint(tree) == 2
        err = capsys.readouterr().err
        assert "internal analyzer error in REP102" in err
        assert "seeded crash" in err

    def test_unreadable_file_is_a_finding_not_clean(self, tree, capsys):
        # A .py the linter cannot decode used to drop out silently and the
        # run printed "clean"; it is a REP000 finding like a syntax error.
        (tree / "src" / "repro" / "hw" / "sched.py").write_text(CLEAN)
        (tree / "src" / "repro" / "hw" / "binary.py").write_bytes(b"\xff\xfe")
        assert lint(tree, "--format", "json") == 1
        (finding,) = json.loads(capsys.readouterr().out)
        assert finding["rule"] == "REP000"
        assert finding["path"].endswith("binary.py")


class TestFormats:
    def test_json_is_sorted_and_stable(self, tree, capsys):
        extra = tree / "src" / "repro" / "hw" / "aaa.py"
        extra.write_text(BUGGY)
        assert lint(tree, "--format", "json") == 1
        payload = json.loads(capsys.readouterr().out)
        assert isinstance(payload, list) and payload
        assert payload[0]["rule"] == "REP102"
        keys = [(v["path"], v["line"], v["rule"]) for v in payload]
        assert keys == sorted(keys)

    def test_sarif_is_rejected(self, tree):
        with pytest.raises(SystemExit) as exc:
            lint(tree, "--format", "sarif")
        assert exc.value.code == 2


class TestSelectAndSummary:
    @pytest.fixture
    def exec_tree(self, tree: Path) -> Path:
        mod = tree / "src" / "repro" / "exec" / "task.py"
        mod.parent.mkdir(parents=True)
        mod.write_text(EXEC_BUGGY)
        return tree

    def test_concurrency_rules_run_by_default(self, exec_tree, capsys):
        assert lint(exec_tree, "--format", "json") == 1
        payload = json.loads(capsys.readouterr().out)
        assert {v["rule"] for v in payload} == {"REP102", "REP201"}

    def test_select_scopes_to_prefix(self, exec_tree, capsys):
        # --select REP2 runs only the concurrency layer: the REP102 bug
        # in hw/sched.py must not be reported (or even analyzed).
        assert lint(exec_tree, "--select", "REP2", "--format", "json") == 1
        payload = json.loads(capsys.readouterr().out)
        assert {v["rule"] for v in payload} == {"REP201"}

    def test_select_single_rule(self, exec_tree, capsys):
        assert lint(exec_tree, "--select", "REP102", "--format", "json") == 1
        payload = json.loads(capsys.readouterr().out)
        assert {v["rule"] for v in payload} == {"REP102"}

    def test_select_unknown_prefix_errors(self, exec_tree, capsys):
        # A usage error is exit 2, never the findings code 1.
        for select in ("REP9", "REP301"):
            assert lint(exec_tree, "--select", select) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: --select") and "REP302" in err

    def test_select_clean_lists_only_selected(self, exec_tree, capsys):
        (exec_tree / "src" / "repro" / "exec" / "task.py").write_text(
            "def int_task(row0, nrows):\n    return row0 + nrows\n"
        )
        (exec_tree / "src" / "repro" / "hw" / "sched.py").write_text(CLEAN)
        assert lint(exec_tree, "--select", "REP2") == 0
        out = capsys.readouterr().out
        assert "clean" in out and "REP201" in out
        assert "REP102" not in out

    def test_summary_prints_per_rule_timing_rows(self, exec_tree, capsys):
        assert lint(exec_tree, "--select", "REP2", "--summary") == 1
        err = capsys.readouterr().err
        rows = {
            line.split()[0]: line
            for line in err.splitlines()
            if line.startswith("REP")
        }
        assert "REP201" in rows and "REP102" not in rows
        assert "ms" in rows["REP201"]
        assert rows["REP201"].rstrip().endswith("1")  # one finding

    def test_noqa_suppresses_concurrency_rule(self, exec_tree):
        (exec_tree / "src" / "repro" / "exec" / "task.py").write_text(
            EXEC_BUGGY.replace("Lock()", "Lock()  # noqa: REP201")
        )
        assert lint(exec_tree, "--select", "REP2") == 0


class TestStructure:
    """Pins of the one-table/one-driver design (ISSUE 16)."""

    def test_one_parse_per_file_one_cfg_per_function(self, tree, monkeypatch):
        hw = tree / "src" / "repro" / "hw"
        (hw / "two.py").write_text("def a():\n    pass\n\ndef b():\n    pass\n")
        (tree / "src" / "repro" / "exec").mkdir()
        (tree / "src" / "repro" / "exec" / "task.py").write_text(EXEC_BUGGY)
        parses, cfgs = [], []
        real_parse, real_cfg = ast.parse, runner.build_cfg

        def counting_parse(source, *args, **kw):
            parses.append(kw.get("filename"))
            return real_parse(source, *args, **kw)

        def counting_cfg(fn, qualname=None):
            cfgs.append(qualname)
            return real_cfg(fn, qualname=qualname)

        monkeypatch.setattr(ast, "parse", counting_parse)
        monkeypatch.setattr(runner, "build_cfg", counting_cfg)
        violations, errors = runner.run_lint([tree / "src"])
        assert not errors
        assert {v.rule for v in violations} == {"REP102", "REP201"}
        assert len(parses) == 3
        # No flow analysis is scoped to exec/: int_task gets no CFG.
        assert sorted(cfgs) == ["a", "b", "schedule"]

    def test_select_builds_only_the_artifacts_it_reads(self, tree, monkeypatch):
        def forbidden(*_args, **_kw):
            raise AssertionError("call graph built for rules that never read it")

        monkeypatch.setattr(runner, "build_graph", forbidden)
        assert lint(tree, "--select", "REP1") == 1

    def test_option_surface(self):
        lint_parser, _ = lint_parser_and_help()
        options = {s for a in lint_parser._actions for s in a.option_strings}
        assert options == {"--format", "--select", "--summary", "-h", "--help"}
        (fmt,) = [a for a in lint_parser._actions if "--format" in a.option_strings]
        assert set(fmt.choices) == {"text", "json"}

    def test_help_names_exactly_the_table(self):
        lint_parser, line = lint_parser_and_help()
        for text in (line, lint_parser.description):
            assert set(re.findall(r"REP\d{3}", text)) == set(runner.RULES)

    @pytest.mark.parametrize("argv", [["-h"], ["lint", "-h"]])
    def test_printed_help_names_exactly_the_table(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert set(re.findall(r"REP\d{3}", out)) == set(runner.RULES)

    @pytest.mark.parametrize("flag", ["--baseline", "--summary-cache"])
    def test_removed_flags_are_rejected(self, tree, flag):
        with pytest.raises(SystemExit) as exc:
            lint(tree, flag, "x")
        assert exc.value.code == 2
