"""Nothing in ``src/`` that only a test calls.

An AST/token walk (nothing is imported or executed) over ``src/repro/``
asserting that every public top-level function or class, and every
public method or property, is referred to somewhere in ``src/``,
``benchmarks/`` or ``examples/`` other than at its own definition, in an
``__init__.py`` re-export, in a comment or in a docstring. Below
``core/`` an example or benchmark counts as a caller (the codec's
capabilities are what those demonstrate); a test does not — a name only
tests reach is code nobody runs, and a slow twin a test wants as its
reference belongs in ``tests/oracles.py``.

``sanitizers/`` is out of scope on both sides: ROADMAP item 8 judges
the analysis stack by its kill matrix, not by its callers, and it checks
the runtime rather than calling it, so a name it mentions (a protocol
observer, a rule's pattern) keeps nothing alive. ``util/journal.py`` is
in: it is the runtime's event API.

The match is by name (``grep -w``), not by resolution: a method called
``merge`` is kept alive by any ``.merge`` anywhere. That errs towards
keeping, which is the safe side for a test that deletes nothing itself.
"""

import ast
import io
import re
import tokenize
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"
CALLER_ROOTS = (ROOT / "src", ROOT / "benchmarks", ROOT / "examples")
ANALYSIS = SRC / "sanitizers"

#: Public names only ``tests/`` refers to, kept on purpose. At most five.
ALLOWED = {
    # Input builders, not behaviour: 16 and 20 test call sites build
    # frames and clips with them; moving them to tests/ is churn, not
    # reduction.
    "blank": "YuvFrame.blank — test input builder",
    "moving_objects_sequence": "synthetic clip builder (with MovingObject)",
    # The only way a test can observe that a seeded link prior yields to
    # a real measurement (tests/exec/test_process_backend.py); the
    # characterization itself never needs to ask.
    "is_prior": "PerformanceCharacterization observer used by exec tests",
    # The dtype/shape contract of MotionField and SubpelField (int32
    # vectors and refs, int64 SADs) that the shared-memory layout and the
    # bitstream rely on: tests/exec/conftest.py holds every field a worker
    # returns to it. A validator, so it is not run per frame in src/.
    "check_consistent": "field dtype/shape contract checked by exec tests",
}

WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def in_scope(path: Path) -> bool:
    return not path.is_relative_to(ANALYSIS)


def public_definitions(path: Path) -> list[tuple[str, int]]:
    """``(name, lineno)`` of every public def/class at module level and
    every public method or property one level inside a class."""
    defs = []
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    tree = ast.parse(path.read_text())
    for node in tree.body:
        if not isinstance(node, kinds) or node.name.startswith("_"):
            continue
        defs.append((node.name, node.lineno))
        if isinstance(node, ast.ClassDef):
            defs += [
                (sub.name, sub.lineno)
                for sub in node.body
                if isinstance(sub, kinds[:2]) and not sub.name.startswith("_")
            ]
    return defs


def docstring_lines(tree: ast.AST) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
            continue
        body = node.body
        if (body and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)):
            lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def reexport_lines(tree: ast.Module) -> set[int]:
    """Lines of an ``__init__.py`` that only pass names through."""
    lines: set[int] = set()
    for node in tree.body:
        passes_through = isinstance(node, ast.ImportFrom) or (
            isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__"
                    for t in node.targets)
        )
        if passes_through:
            lines.update(range(node.lineno, node.end_lineno + 1))
    return lines


def references(path: Path) -> Counter:
    """Identifier occurrences in ``path``: NAME tokens and the words of
    non-docstring string literals (``getattr(x, "name")``, the suite's
    ``wrap(cls, "method", ...)`` tables), minus definition sites,
    re-exports, comments and docstrings."""
    text = path.read_text()
    tree = ast.parse(text)
    skip = docstring_lines(tree)
    if path.name == "__init__.py":
        skip |= reexport_lines(tree)
    counts: Counter = Counter()
    after_def = False
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.start[0] in skip:
            continue
        if tok.type == tokenize.NAME:
            if not after_def:
                counts[tok.string] += 1
            after_def = tok.string in ("def", "class")
        elif tok.type == tokenize.STRING:
            counts.update(WORD.findall(tok.string))
    return counts


def orphans() -> dict[str, str]:
    """``name -> where`` for every public definition nothing refers to."""
    refs: Counter = Counter()
    for root in CALLER_ROOTS:
        for path in sorted(root.rglob("*.py")):
            if in_scope(path):
                refs.update(references(path))
    return {
        name: f"{path.relative_to(SRC)}:{lineno} {name}"
        for path in sorted(SRC.rglob("*.py")) if in_scope(path)
        for name, lineno in public_definitions(path)
        if refs[name] == 0
    }


def test_every_public_name_has_a_caller_outside_tests():
    found = orphans()
    unexpected = sorted(where for name, where in found.items() if name not in ALLOWED)
    assert not unexpected, "\n".join(unexpected)
    # An entry whose name gained a caller, or lost its definition, must go.
    assert len(ALLOWED) <= 5 and set(ALLOWED) <= set(found)
