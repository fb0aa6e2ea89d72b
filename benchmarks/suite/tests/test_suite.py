"""Self-tests of the benchmark suite.

Run with ``PYTHONPATH=src python -m pytest benchmarks/suite/tests``. The
passes that go through child processes use ``--quick`` inputs; the
in-process ones use inputs smaller still.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

from fevesbench import calib, cli, compare, spec
from fevesbench.spans import Recorder
from fevesbench.workloads import (
    TRACE_TARGETS,
    EncRunner,
    ServeRunner,
    build,
)

REPO_ROOT = Path(__file__).resolve().parents[3]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

TINY_ENC = spec.Workload(
    "tiny_enc", spec.ENC, "",
    dict(width=64, height=48, search_range=4, num_ref_frames=2,
         p_frames=3, platform="SysHK", np_share=0.5),
)
TINY_SERVE = spec.Workload(
    "tiny_serve", spec.SERVE, "",
    dict(platform="SysHK", headroom=1.0, max_queue=16, streams=5,
         frames=6, fps=25.0, load=0.4, np_share=0.5),
)


# ------------------------------------------------------------ static pins


def test_benchmark_json_is_the_spec_and_meets_the_contract():
    doc = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    assert doc == spec.benchmark_json()
    assert set(doc) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}
    assert 2 <= len(doc["workloads"]) <= 8
    assert 1 <= len(doc["end_to_end"]) <= 16
    assert 1 <= len(doc["per_layer"]) <= 128
    assert isinstance(doc["run_seconds"], int) and 1 <= doc["run_seconds"] <= 60
    names = [e["name"] for key in ("workloads", "end_to_end", "per_layer")
             for e in doc[key]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    for w in doc["workloads"]:
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in doc["end_to_end"] + doc["per_layer"]:
        assert UNIT.fullmatch(m["unit"]), m
        assert m["better"] in ("lower", "higher")
    for m in doc["end_to_end"]:
        assert 0 < m["bound"] <= 0.25
    setup = next(m for m in doc["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in doc["end_to_end"])


def test_readme_is_a_glossary_of_every_name():
    text = (REPO_ROOT / "benchmarks/suite/README.md").read_text()
    missing = [
        n for n in [w.name for w in spec.WORKLOADS] + list(spec.METRIC_BY_NAME)
        if f"`{n}`" not in text
    ]
    assert not missing


def test_build_passes_only_fields_the_dataclass_still_has():
    from repro.core.config import FrameworkConfig

    cfg = build(FrameworkConfig, ewma_alpha=0.5, knob_deleted_by_a_later_pr=1)
    assert cfg.ewma_alpha == 0.5


# ------------------------------------------------------------ calibration


def test_walls_are_put_at_reference_speed_by_the_readings_around_them():
    # Host at reference speed, then twice as slow from the second block on.
    walls = calib.at_reference_speed([2.0, 3.0, 4.0], [1.0, 1.0, 2.0, 2.0])
    assert walls == [2.0, 2.0, 2.0]


def test_a_reading_blends_both_kernels_and_accounts_for_its_own_time(monkeypatch):
    monkeypatch.setattr(
        calib.Calibrator, "_slowness",
        staticmethod(lambda kind, ticks: {"np": 1.2, "py": 2.0}[kind]),
    )
    reader = calib.Calibrator(0.25, 3, 5)
    assert reader() == pytest.approx(0.25 * 1.2 + 0.75 * 2.0)
    assert reader.readings == [reader.readings[0]] and reader.spent_s > 0
    assert reader.host_speed() == pytest.approx(1 / 1.8)


# ------------------------------------------------------------------ spans


def test_span_tree_is_well_formed_and_methods_are_restored():
    originals = [(cls, m, cls.__dict__[m]) for cls, m, _ in TRACE_TARGETS]
    rec = Recorder()
    runner = ServeRunner(TINY_SERVE, seed=7, quick=False)
    with rec.installed(TRACE_TARGETS):
        out = runner.measure(0.0, rec)
    assert out.failed == 0 and out.attempted == 5 * ServeRunner.REPLICAS
    assert all(cls.__dict__[m] is fn for cls, m, fn in originals)

    assert len(rec) > 100
    for i, parent in enumerate(rec.parent):
        assert rec.t1[i] >= rec.t0[i]
        if parent >= 0:
            assert parent < i
            assert rec.t0[parent] <= rec.t0[i] and rec.t1[i] <= rec.t1[parent]
    assert min(rec.self_times()) >= 0.0
    assert sum(rec.self_times()) == pytest.approx(rec.root_total())
    names = set(rec.names)
    assert {"bench.clip", "service.round", "service.session.step",
            "core.framework.frame", "core.load_balancing.solve",
            "hw.des.run"} <= names
    events = rec.chrome_trace()["traceEvents"]
    assert len(events) == len(rec) and events[0]["ph"] == "X"
    assert 0.9 <= out.values["bench.self_time_coverage"] <= 1.0


def test_methods_are_restored_when_the_traced_run_raises():
    cls, method, _ = TRACE_TARGETS[0]
    original = cls.__dict__[method]
    with pytest.raises(RuntimeError), Recorder().installed(TRACE_TARGETS):
        assert cls.__dict__[method] is not original
        raise RuntimeError("boom")
    assert cls.__dict__[method] is original


# ------------------------------------------------------ failed operations


def test_staged_encoder_and_backend_reproduce_the_reference():
    rec = Recorder()
    runner = EncRunner(TINY_ENC, seed=7, quick=False, workers=2)
    with rec.installed(TRACE_TARGETS):
        out = runner.measure(0.0, rec)
    # 4 staged frames + 4 backend frames, all equal to the reference.
    assert (out.attempted, out.failed) == (8, 0)
    assert out.values["codec.me.ms"] > 0 and out.values["exec.phase1.ms"] > 0


def test_one_corrupted_pixel_is_one_failed_operation():
    runner = EncRunner(TINY_ENC, seed=7, quick=False, workers=2)

    def flip_one_pixel(encoded):
        encoded[2].recon.y[5, 7] ^= 1

    runner.tamper = flip_one_pixel
    out = runner.measure(0.0)
    assert (out.attempted, out.failed) == (4, 1)
    assert "frame 2" in out.failures[0]


def test_a_dropped_stream_is_one_failed_operation():
    runner = ServeRunner(TINY_SERVE, seed=7, quick=False)
    dropped = []

    def drop_a_stream(service):
        if not dropped:
            service.sessions[3].state = "running"
            dropped.append(service.sessions[3].stream_id)

    runner.tamper = drop_a_stream
    out = runner.measure(0.0)
    assert out.failed == 1 and dropped[0] in out.failures[0]


# ------------------------------------------- through the child processes


@pytest.fixture(scope="module")
def quick_passes():
    """Untraced + traced quick pass of every workload at seed 7."""
    passes = {}
    for w in spec.WORKLOADS:
        plain = cli.run_pass(w.name, 7, 1.0, False, quick=True, setup_samples=1)
        traced = cli.run_pass(w.name, 7, 1.0, True, quick=True, untraced=plain)
        passes[w.name] = (plain, traced)
    return passes


def test_every_named_metric_is_reported_with_its_unit(quick_passes):
    for name, (plain, traced) in quick_passes.items():
        assert plain["failed"] == 0 and traced["failed"] == 0, name
        for record, metrics in ((plain, spec.END_TO_END), (traced, spec.PER_LAYER)):
            line = json.loads(cli.contract_line(record))
            assert set(line) == {"correct", "attempted", "failed", "metrics"}
            assert line["correct"] is True and line["attempted"] >= 1
            assert list(line["metrics"]) == [m.name for m in metrics]
            for m in metrics:
                assert line["metrics"][m.name]["unit"] == m.unit
        # End-to-end metrics are never zero, on any workload.
        assert all(plain["values"][m.name] > 0 for m in spec.END_TO_END), name


def test_each_family_reports_its_own_layers(quick_passes):
    def nonzero(name):
        values = quick_passes[name][1]["values"]
        return {k.split(".")[0] for k, v in values.items() if v and "." in k}

    assert {"codec", "video", "exec", "core"} <= nonzero("enc_sa32")
    assert nonzero("sched_steady") == {"core", "hw", "bench"}
    assert "cluster" not in nonzero("serve_poisson")
    assert {"service", "cluster", "core", "hw"} <= nonzero("fleet_fault")
    for name, (_plain, traced) in quick_passes.items():
        assert traced["values"]["bench.self_time_coverage"] >= 0.9, name
        assert (cli.OUT_DIR / f"trace_{name}.json").exists()


@pytest.mark.parametrize("name", ["sched_jitter", "serve_poisson"])
def test_simulated_metrics_repeat_exactly_and_follow_the_seed(quick_passes, name):
    first = quick_passes[name][0]["values"]
    again = cli.run_pass(name, 7, 1.0, False, quick=True, setup_samples=1)["values"]
    other = cli.run_pass(name, 8, 1.0, False, quick=True, setup_samples=1)["values"]
    simulated = [m for m in spec.SIMULATED | {"delivered_fps"} if m in first]
    assert simulated
    assert all(first[m] == again[m] for m in simulated)
    assert any(first[m] != other[m] for m in simulated)


def test_without_the_program_the_command_fails(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "SRC_DIR", tmp_path / "src")
    assert cli.main(["--workload", "sched_steady", "--trace", "0"]) == 2


# ---------------------------------------------------------------- compare


def _results(tmp_path, name, values_per_run):
    runs = [
        {"workload": "sched_jitter", "seed": i, "trace": False, "values": v}
        for i, v in enumerate(values_per_run)
    ]
    path = tmp_path / name
    path.write_text(json.dumps({"runs": runs}))
    return path


def test_compare_verdicts(tmp_path, capsys):
    base = [{"host_ms_per_frame": 9.0 + 0.01 * i, "sim_fps": 48.0,
             "clip_s": 4.0 + 2.0 * (i % 2)} for i in range(6)]
    slower = [dict(v, host_ms_per_frame=v["host_ms_per_frame"] * 1.4,
                   sim_fps=47.0) for v in base]
    a = _results(tmp_path, "a.json", base)
    assert compare.compare_files(a, a) == 0
    assert compare.compare_files(a, _results(tmp_path, "b.json", slower)) == 1
    rows = {
        line.split()[1]: line.split()[-1]
        for line in capsys.readouterr().out.splitlines()
        if line.startswith("sched_jitter")
    }
    assert rows["host_ms_per_frame"] == "REGRESSED"
    assert rows["sim_fps"] == "differs"
    # clip_s swings 4 s <-> 6 s on the A side: no verdict can be given.
    assert rows["clip_s"] == "unresolved"
