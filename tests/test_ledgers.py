"""The ledgers stay small, and what cites them resolves.

CHANGES.md holds one ``- PR N`` bullet per PR, each its net effect in at
most 1.5 KB (``FOUND:`` and ``MENDED:`` lines sit between bullets and are
not counted); git keeps the rest of a PR's story. A quoted section title
after ``DESIGN.md`` or ``EXPERIMENTS.md`` — ``DESIGN.md "…"``,
``DESIGN.md → "…"``, ``EXPERIMENTS.md "…"`` — in the code, the tests, the
benchmarks, the examples, README.md or those two files must be the start
of a ``#`` heading or a ``**bold**`` paragraph title of the file it names.
DESIGN.md, EXPERIMENTS.md and CHANGES.md together stay under one byte
budget.
"""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ENTRY_BUDGET = 1536
#: DESIGN.md + EXPERIMENTS.md + CHANGES.md together, in bytes (221 116
#: when the budget was set): a change that would grow them past it
#: trims them first.
LEDGERS = ("DESIGN.md", "EXPERIMENTS.md", "CHANGES.md")
LEDGER_BUDGET = 226_000
BULLET = re.compile(r"- PR (\d+)\b")
CITATION = re.compile(r'\b(DESIGN|EXPERIMENTS)\.md(?:\s+→)?\s+"([^"]+)"')
HEADING = re.compile(r"^#+\s+(.+)$", re.M)
BOLD_TITLE = re.compile(r"^\*\*(.+?)\*\*", re.M | re.S)


def changes_entries() -> list[tuple[int, str]]:
    """``(PR number, bullet text)``: a bullet is its line plus the indented
    lines that continue it."""
    entries: list[tuple[int, list[str]]] = []
    for line in (ROOT / "CHANGES.md").read_text(encoding="utf-8").splitlines():
        m = BULLET.match(line)
        if m:
            entries.append((int(m.group(1)), [line]))
        elif entries and line.startswith(" "):
            entries[-1][1].append(line)
        elif line.startswith("- "):
            raise AssertionError(f"CHANGES.md bullet that names no PR: {line[:80]}")
    return [(n, "\n".join(lines)) for n, lines in entries]


def test_one_bullet_per_pr_in_order():
    numbers = [n for n, _ in changes_entries()]
    assert numbers, "no - PR N bullets found"
    assert numbers == sorted(set(numbers)), f"repeated or unordered PRs: {numbers}"


def test_every_entry_fits_the_budget():
    over = {
        n: len(text.encode())
        for n, text in changes_entries()
        if len(text.encode()) > ENTRY_BUDGET
    }
    assert not over, f"CHANGES.md entries over {ENTRY_BUDGET} bytes: {over}"


def test_the_ledgers_fit_their_total_budget():
    total = sum(len((ROOT / name).read_bytes()) for name in LEDGERS)
    assert total <= LEDGER_BUDGET, f"ledgers total {total} B, budget {LEDGER_BUDGET} B"


def normal(text: str) -> str:
    return " ".join(text.replace("\\", "").split())


def titles(ledger: str) -> list[str]:
    text = (ROOT / ledger).read_text(encoding="utf-8")
    return [normal(t) for t in HEADING.findall(text) + BOLD_TITLE.findall(text)]


def citing_files() -> list[Path]:
    trees = [ROOT / d for d in ("src", "tests", "benchmarks", "examples")]
    files = [p for tree in trees for p in tree.rglob("*") if p.suffix in (".py", ".md")]
    files.remove(Path(__file__).resolve())  # its docstring quotes the pattern
    return files + [ROOT / "README.md", ROOT / "DESIGN.md", ROOT / "EXPERIMENTS.md"]


def citations(path: Path) -> list[tuple[str, str]]:
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".py":
        text = re.sub(r"\n\s*#\s*", " ", text)  # a title wrapped across comments
    return [(f"{name}.md", normal(title)) for name, title in CITATION.findall(text)]


def test_quoted_section_titles_resolve():
    known = {ledger: titles(ledger) for ledger in ("DESIGN.md", "EXPERIMENTS.md")}
    cited, dangling = 0, []
    for path in citing_files():
        for ledger, title in citations(path):
            cited += 1
            if not any(t.startswith(title) for t in known[ledger]):
                dangling.append(f'{path.relative_to(ROOT)}: {ledger} "{title}"')
    assert cited > 20  # the scan still finds the citations
    assert not dangling, "titles that match no heading:\n" + "\n".join(dangling)
