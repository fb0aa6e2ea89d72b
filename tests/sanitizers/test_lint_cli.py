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

# A clock turned back: the minimal REP302 mutant, in cluster/, where
# REP102 does not run.
CLUSTER_BUGGY = (
    "class Node:\n"
    "    def hurry(self, dt):\n"
    "        self.now -= dt\n"
)

CLUSTER_CLEAN = (
    "class Node:\n"
    "    def advance(self, dt):\n"
    "        self.now += dt\n"
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
        assert "REP102" in out and "REP304" in out  # every layer ran

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
    def cluster_tree(self, tree: Path) -> Path:
        mod = tree / "src" / "repro" / "cluster" / "node.py"
        mod.parent.mkdir(parents=True)
        mod.write_text(CLUSTER_BUGGY)
        return tree

    def test_protocol_rules_run_by_default(self, cluster_tree, capsys):
        assert lint(cluster_tree, "--format", "json") == 1
        payload = json.loads(capsys.readouterr().out)
        assert {v["rule"] for v in payload} == {"REP102", "REP302"}

    def test_select_scopes_to_prefix(self, cluster_tree, capsys):
        # --select REP3 runs only the protocol rules: the REP102 bug in
        # hw/sched.py must not be reported (or even analyzed).
        assert lint(cluster_tree, "--select", "REP3", "--format", "json") == 1
        payload = json.loads(capsys.readouterr().out)
        assert {v["rule"] for v in payload} == {"REP302"}

    def test_select_single_rule(self, cluster_tree, capsys):
        assert lint(cluster_tree, "--select", "REP102", "--format", "json") == 1
        payload = json.loads(capsys.readouterr().out)
        assert {v["rule"] for v in payload} == {"REP102"}

    def test_select_unknown_prefix_errors(self, cluster_tree, capsys):
        # A usage error is exit 2, never the findings code 1; a retired
        # rule's id is unknown.
        for select in ("REP9", "REP301", "REP2"):
            assert lint(cluster_tree, "--select", select) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: --select") and "REP302" in err

    def test_select_clean_lists_only_selected(self, cluster_tree, capsys):
        (cluster_tree / "src" / "repro" / "cluster" / "node.py").write_text(
            CLUSTER_CLEAN
        )
        (cluster_tree / "src" / "repro" / "hw" / "sched.py").write_text(CLEAN)
        assert lint(cluster_tree, "--select", "REP3") == 0
        out = capsys.readouterr().out
        assert "clean" in out and "REP302" in out
        assert "REP102" not in out

    def test_summary_prints_per_rule_timing_rows(self, cluster_tree, capsys):
        assert lint(cluster_tree, "--select", "REP3", "--summary") == 1
        err = capsys.readouterr().err
        rows = {
            line.split()[0]: line
            for line in err.splitlines()
            if line.startswith("REP")
        }
        assert "REP302" in rows and "REP102" not in rows
        assert "ms" in rows["REP302"]
        assert rows["REP302"].rstrip().endswith("1")  # one finding

    def test_noqa_suppresses_protocol_rule(self, cluster_tree):
        (cluster_tree / "src" / "repro" / "cluster" / "node.py").write_text(
            CLUSTER_BUGGY.replace("-= dt", "-= dt  # noqa: REP302")
        )
        assert lint(cluster_tree, "--select", "REP3") == 0


class TestStructure:
    """Pins of the one-table/one-driver design (ISSUE 16)."""

    def test_one_parse_per_file_one_cfg_per_function(self, tree, monkeypatch):
        hw = tree / "src" / "repro" / "hw"
        (hw / "two.py").write_text("def a():\n    pass\n\ndef b():\n    pass\n")
        (tree / "src" / "repro" / "cluster").mkdir()
        (tree / "src" / "repro" / "cluster" / "node.py").write_text(CLUSTER_BUGGY)
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
        assert {v.rule for v in violations} == {"REP102", "REP302"}
        assert len(parses) == 3
        # Only REP102 runs on CFGs, and not in cluster/: Node.hurry gets
        # none, REP302 judges it without one.
        assert sorted(cfgs) == ["a", "b", "schedule"]

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

    def test_every_quoted_select_resolves(self):
        # A --select value the docs or the help quote is one a reader
        # runs: each of its prefixes must name at least one rule.
        root = Path(__file__).resolve().parents[2]
        quoted = [
            (doc, value)
            for doc in ("README.md", "DESIGN.md")
            for value in re.findall(
                r"--select[ =]'?([A-Z0-9,]+)", (root / doc).read_text()
            )
        ]
        lint_parser, _ = lint_parser_and_help()
        (select,) = [a for a in lint_parser._actions if "--select" in a.option_strings]
        quoted += [("lint -h", v) for v in re.findall(r"'([A-Z0-9,]+)'", select.help)]
        assert {"README.md", "lint -h"} <= {doc for doc, _ in quoted}
        unknown = [
            (doc, value)
            for doc, value in quoted
            if not all(
                any(rule.startswith(prefix) for rule in runner.RULES)
                for prefix in value.split(",")
            )
        ]
        assert unknown == []

    @pytest.mark.parametrize("flag", ["--baseline", "--summary-cache"])
    def test_removed_flags_are_rejected(self, tree, flag):
        with pytest.raises(SystemExit) as exc:
            lint(tree, flag, "x")
        assert exc.value.code == 2
