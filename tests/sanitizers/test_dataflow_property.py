"""Property: the dataflow analyzer is total over this repository.

Every rule is *forced* onto every Python file under ``src/`` and
``tests/`` (ignoring scoping), and none may raise an internal
:class:`AnalyzerError` — findings are fine, crashes are not.  The
scoped run over ``src/`` must additionally be finding-free, which is
the CI gate.
"""

from pathlib import Path

import pytest

from repro.sanitizers.lint import iter_python_files
from repro.sanitizers.runner import RULES, analyze, run_lint

REPO_ROOT = Path(__file__).resolve().parents[2]

ALL_FILES = [
    p
    for tree in ("src", "tests")
    for p in iter_python_files(REPO_ROOT / tree)
]

ALL_RULES = [r for r in RULES if r.startswith("REP1")]


@pytest.mark.parametrize(
    "path", ALL_FILES, ids=lambda p: str(p.relative_to(REPO_ROOT))
)
def test_analyzer_is_crash_free_on(path: Path):
    violations, errors = analyze(
        path.read_text(), str(path.relative_to(REPO_ROOT)), rules=ALL_RULES
    )
    assert errors == [], "\n".join(str(e) for e in errors)
    # Findings are allowed here (rules are forced out of scope); they
    # just must be well-formed.
    for v in violations:
        assert v.rule in ALL_RULES
        assert v.line >= 0 and v.col >= 0 and v.message


def test_scoped_run_over_src_is_clean():
    violations, errors = run_lint([REPO_ROOT / "src"], ALL_RULES)
    assert errors == []
    assert violations == [], "\n".join(str(v) for v in violations)


def test_fixpoint_terminates_on_pathological_loops():
    # Deep nesting + mutually-reassigned names must still converge
    # under the iteration budget.
    depth = 12
    lines = ["def f(tau_s, mb_rows, nbytes):"]
    indent = "    "
    for i in range(depth):
        lines.append(f"{indent * (i + 1)}while cond({i}):")
    body_indent = indent * (depth + 1)
    lines.append(f"{body_indent}tau_s, mb_rows = mb_rows, nbytes")
    lines.append(f"{body_indent}nbytes = tau_s")
    lines.append(f"{indent}return 0")
    source = "\n".join(lines) + "\n"

    violations, errors = analyze(
        source, "src/repro/hw/fake_deep.py", rules=ALL_RULES
    )
    assert errors == []
