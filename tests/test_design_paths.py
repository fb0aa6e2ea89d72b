"""Every file DESIGN.md, EXPERIMENTS.md and the READMEs name exists.

DESIGN.md describes the code that exists, so a path it cites — a
``src/…`` path, or any ``*.py`` module, with or without its directory —
must resolve to a file of the repository. A ``dir/name.py`` resolves
against the repository root or ``src/repro/``, or as the tail of some
file's path (``fevesbench/spans.py``); a bare ``name.py`` resolves to any
file of that name; ``test_{a,b}.py`` braces and ``*.py`` globs expand.
The static kill matrix is exempt: its "analysed as" column holds the
display paths the rules see a mutant under, not files. EXPERIMENTS.md,
README.md and ``benchmarks/README.md`` are held to the same rule;
CHANGES.md is not, because history names deleted files.
"""

import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MATRIX = re.compile(
    r"<!-- static-kill-matrix:begin -->.*?<!-- static-kill-matrix:end -->", re.S
)
PATH = re.compile(r"[\w./{},*-]*\.py\b|\bsrc/[\w./{},*-]*\w")


def expand(token: str) -> list[str]:
    """``a_{x,y}.py`` → ``a_x.py``, ``a_y.py`` (nested braces too)."""
    m = re.search(r"\{([^{}]*)\}", token)
    if m is None:
        return [token]
    return [
        out
        for alt in m.group(1).split(",")
        for out in expand(token[: m.start()] + alt + token[m.end():])
    ]


def cited_paths(doc: str = "DESIGN.md") -> set[str]:
    text = MATRIX.sub("", (ROOT / doc).read_text())
    return {p.lstrip("./") for t in PATH.findall(text) for p in expand(t)}


def resolves(path: str, files: list[str]) -> bool:
    if "/" not in path:
        return any(f.rsplit("/", 1)[-1] == path for f in files)
    if any(ROOT.glob(path)) or any((ROOT / "src" / "repro").glob(path)):
        return True
    return any(f.endswith("/" + path) for f in files)


def repo_files() -> list[str]:
    return [
        str(p.relative_to(ROOT))
        for p in ROOT.rglob("*.py")
        if not {".git", "__pycache__"} & set(p.parts)
    ]


def test_design_cites_only_existing_files():
    files = repo_files()
    cited = cited_paths()
    assert len(cited) > 100  # the scan still finds DESIGN.md's paths
    stale = sorted(p for p in cited if not resolves(p, files))
    assert not stale, f"DESIGN.md names files that do not exist: {stale}"


@pytest.mark.parametrize("doc", ["EXPERIMENTS.md", "README.md", "benchmarks/README.md"])
def test_experiments_and_readmes_cite_only_existing_files(doc):
    files = repo_files()
    cited = cited_paths(doc)
    assert cited  # the scan still finds the document's paths
    stale = sorted(p for p in cited if not resolves(p, files))
    assert not stale, f"{doc} names files that do not exist: {stale}"
