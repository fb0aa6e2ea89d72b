"""The static half of the mutation kill-matrix (ROADMAP item 7).

Every seeded mutant hoisted into ``MUTANTS`` by the four rule test
modules is analysed under every rule of the table, forced regardless of
scope, and the resulting ``mutant -> rules that fire`` table is committed
in DESIGN.md. A rule that fires only on its own mutants is orthogonal; a
mutant caught by several rows names an overlap. The table is data for
the pruning decision — this test only keeps it honest.

Regenerate with ``PYTHONPATH=src python tests/sanitizers/test_kill_matrix.py``
and paste the output between the two markers in DESIGN.md.
"""

from pathlib import Path

import test_concurrency_rules
import test_dataflow_rules
import test_lint
import test_protocols

from repro.sanitizers.runner import RULES, analyze

DESIGN = Path(__file__).resolve().parents[2] / "DESIGN.md"
BEGIN = "<!-- static-kill-matrix:begin -->"
END = "<!-- static-kill-matrix:end -->"

MUTANTS = {
    name: mutant
    for module in (
        test_lint, test_dataflow_rules, test_concurrency_rules, test_protocols
    )
    for name, mutant in module.MUTANTS.items()
}


def fired(name: str) -> list[str]:
    path, source = MUTANTS[name]
    violations, errors = analyze(source, str(path), rules=list(RULES))
    assert not errors, errors
    return sorted({v.rule for v in violations})


def render() -> str:
    rows = ["| mutant | analysed as | rules that fire |", "|---|---|---|"]
    for name, (path, _source) in MUTANTS.items():
        rows.append(f"| `{name}` | `{path}` | {' '.join(fired(name))} |")
    return "\n".join(rows)


def test_every_rule_kills_a_mutant_of_its_own():
    for rule in RULES:
        own = [name for name in MUTANTS if name.startswith(rule.lower())]
        assert own, f"{rule} has no hoisted mutant"
        for name in own:
            assert rule in fired(name), (rule, name)


def test_committed_matrix_is_current():
    text = DESIGN.read_text(encoding="utf-8")
    committed = text[text.index(BEGIN) + len(BEGIN):text.index(END)].strip()
    assert committed == render()


if __name__ == "__main__":
    print(render())
