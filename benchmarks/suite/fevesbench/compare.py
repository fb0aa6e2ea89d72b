"""``run.py --compare A.json B.json``: is B worse than A, metric by metric.

Both files are results files of the suite (``--out``), ideally several
seeds each. Per (workload, metric) the medians are compared against the
metric's bound; when A's own quartile spread already exceeds the bound
the row is *unresolved*, not *ok*. Simulated metrics must be equal to
the last digit between two runs of one commit.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from pathlib import Path

from fevesbench.spec import METRIC_BY_NAME, SIMULATED, Metric


def _load(path: Path) -> dict[tuple[str, str], list[float]]:
    """(workload, metric) -> values over the file's runs, untraced first.

    A metric reported by both passes is taken from the untraced one:
    end-to-end numbers are measured with tracing off.
    """
    doc = json.loads(path.read_text())
    table: dict[tuple[str, str], list[float]] = defaultdict(list)
    untraced: set[tuple[str, str]] = set()
    for run in sorted(doc["runs"], key=lambda r: r["trace"]):
        for name, value in run["values"].items():
            key = (run["workload"], name)
            if run["trace"] and key in untraced:
                continue
            if not run["trace"]:
                untraced.add(key)
            table[key].append(value)
    return table


def spread(values: list[float]) -> float | None:
    """Interquartile range over the median; None below two samples."""
    if len(values) < 2:
        return None
    med = statistics.median(values)
    if med == 0:
        return 0.0
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / abs(med)


def worsening(metric: Metric, a: float, b: float) -> float:
    """How much worse B's median is, as the bound counts it (>0 = worse)."""
    delta = b - a if metric.better == "lower" else a - b
    if metric.absolute:
        return delta
    return delta / abs(a) if a else (0.0 if delta == 0 else float("inf"))


def verdict(metric: Metric, a: list[float], b: list[float]) -> tuple[str, float]:
    worse = worsening(metric, statistics.median(a), statistics.median(b))
    if metric.name in SIMULATED and sorted(a) != sorted(b):
        return "differs", worse
    if metric.bound is None:
        return "", worse
    sp = spread(a)
    if sp is not None and sp > metric.bound and not metric.absolute:
        return "unresolved", worse
    return ("REGRESSED" if worse > metric.bound else "ok"), worse


def compare_files(path_a: Path, path_b: Path) -> int:
    a, b = _load(path_a), _load(path_b)
    regressed = 0
    print(f"{'workload':<14}{'metric':<36}{'A median':>12}{'B median':>12}"
          f"{'worse by':>10}{'bound':>8}{'A spread':>10}  verdict")
    for key in sorted(a.keys() & b.keys()):
        workload, name = key
        metric = METRIC_BY_NAME[name]
        med_a, med_b = statistics.median(a[key]), statistics.median(b[key])
        if med_a == 0 and med_b == 0:
            continue  # a layer this workload never enters
        word, worse = verdict(metric, a[key], b[key])
        regressed += word == "REGRESSED"
        sp = spread(a[key])
        print(
            f"{workload:<14}{name:<36}{med_a:>12.5g}{med_b:>12.5g}"
            f"{_signed(worse, metric.absolute):>10}"
            f"{_bound(metric):>8}"
            f"{'n/a' if sp is None else format(sp, '.1%'):>10}  {word}"
        )
    only = sorted(a.keys() ^ b.keys())
    if only:
        print(f"not in both files: {only}")
    print(f"{regressed} regression(s)")
    return 1 if regressed else 0


def _signed(worse: float, absolute: bool) -> str:
    return f"{worse:+.4f}" if absolute else f"{worse:+.1%}"


def _bound(metric: Metric) -> str:
    if metric.bound is None:
        return "-"
    return f"{metric.bound:g} abs" if metric.absolute else f"{metric.bound:.1%}"
