"""``repro profile``: the phase table is a view of the run's journal spans.

Both backends: the ``--json`` schema, rows ordered by total time, the
per-frame column normalised by inter frames (the ones the LB overhead
averages over — the process backend's I frame is untimed), the LB
phases inside the LB overhead, ``--sanitize`` timing itself as one
more row, and the sim backend's DES graph builds apart from its
per-frame retime.
"""

import json

import pytest

from repro.cli import main
from repro.util.journal import JOURNAL

pytestmark = pytest.mark.timeout_guarded

KEYS = [
    "platform", "backend", "width", "height", "sa", "refs", "workers",
    "overhead_ms_per_frame", "accuracy", "total_ms", "frames", "graph_builds",
    "phases",
]
ROW_KEYS = ["phase", "calls", "total_ms", "ms_per_frame", "share"]
LB_PHASES = {"bounds", "lp_build", "lp_solve", "distribution", "plan"}
EXEC_PHASES = {
    "exec_start", "exec_write", "exec_phase1", "exec_tau1", "exec_phase2",
    "exec_tau2", "exec_rstar",
}

BACKENDS = {
    "sim": (
        ["profile", "--platform", "SysHK", "--frames", "20"],
        20,
        LB_PHASES | {"frame_plan", "des_build", "des_retime", "des", "observe"},
    ),
    "process": (
        ["profile", "--backend", "process", "--workers", "1",
         "--size", "128x96", "--frames", "3"],
        2,
        LB_PHASES | EXEC_PHASES | {"frame_plan"},
    ),
}


@pytest.fixture(params=sorted(BACKENDS))
def backend(request, monkeypatch):
    # Unsanitized unless the test asks: a strict-mode suite run would
    # otherwise add the sanitizer row to every table.
    monkeypatch.delenv("REPRO_SANITIZE", raising=False)
    return BACKENDS[request.param]


def profile(tmp_path, argv):
    path = tmp_path / "profile.json"
    assert main([*argv, "--json", str(path)]) == 0
    return json.loads(path.read_text())


def test_schema_and_row_order(tmp_path, backend):
    argv, inter_frames, phases = backend
    doc = profile(tmp_path, argv)
    assert list(doc) == KEYS
    assert doc["frames"] == inter_frames
    assert all(list(r) == ROW_KEYS for r in doc["phases"])
    assert {r["phase"] for r in doc["phases"]} == phases
    totals = [r["total_ms"] for r in doc["phases"]]
    assert totals == sorted(totals, reverse=True)
    assert doc["total_ms"] == pytest.approx(sum(totals))
    # The command switched the journal on for its run only.
    assert not JOURNAL.on and len(JOURNAL) == 0


def test_per_frame_is_per_inter_frame(tmp_path, backend):
    argv, _, _ = backend
    doc = profile(tmp_path, argv)
    for r in doc["phases"]:
        assert r["ms_per_frame"] * doc["frames"] == pytest.approx(r["total_ms"])
    lb = sum(r["ms_per_frame"] for r in doc["phases"] if r["phase"] in LB_PHASES)
    assert 0 < lb <= doc["overhead_ms_per_frame"]


def test_sanitize_adds_a_sanitizer_row(tmp_path, backend, capsys):
    argv, _, phases = backend
    doc = profile(tmp_path, [*argv, "--sanitize"])
    assert {r["phase"] for r in doc["phases"]} == phases | {"sanitizer"}
    assert "schedule sanitizer: clean" in capsys.readouterr().out


def test_graph_builds_apart_from_retimes(tmp_path, backend, capsys):
    argv, inter_frames, phases = backend
    doc = profile(tmp_path, argv)
    calls = {r["phase"]: r["calls"] for r in doc["phases"]}
    out = capsys.readouterr().out
    if "des" not in phases:
        assert doc["graph_builds"] == 0
        assert "DES graph builds" not in out
        return
    # Every frame is re-timed; a graph is built on frame 1, on frame 2
    # (the probes end, the LP's rows begin) and whenever the plan moves.
    assert calls["des_retime"] == calls["des"] == inter_frames
    assert calls["des_build"] == doc["graph_builds"]
    assert 2 <= doc["graph_builds"] < inter_frames
    per_frame = doc["graph_builds"] / inter_frames
    assert f"DES graph builds: {doc['graph_builds']} over {inter_frames} frames " \
        f"({per_frame:.3f} per frame)" in out
