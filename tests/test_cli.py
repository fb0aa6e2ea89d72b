"""Command-line interface."""

import pytest

from repro.cli import main
from repro.video.generator import moving_objects_sequence
from repro.video.yuv import write_yuv420

#: SHA-256 of the Chrome trace of a SysNFF model run, 6 frames, GPU_F2
#: dropped at frame 4 (the same under any ``PYTHONHASHSEED``).
SIM_TRACE_SHA256 = "31b1eb5c73a590a438ba952df31c0332fdc8ca39aa64edeb2567b2c7dc6d7943"


class TestCli:
    def test_platforms(self, capsys):
        assert main(["platforms"]) == 0
        out = capsys.readouterr().out
        assert "SysHK" in out and "SysNFF" in out

    def test_run(self, capsys):
        assert main(["run", "--platform", "SysHK", "--frames", "10"]) == 0
        out = capsys.readouterr().out
        assert "steady-state" in out
        assert "R* device: GPU_K" in out

    def test_run_cpu_centric(self, capsys):
        assert main(
            ["run", "--platform", "SysNF", "--frames", "5", "--centric", "cpu"]
        ) == 0
        assert "R* device: CPU_N" in capsys.readouterr().out

    def test_unknown_platform_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "--platform", "SysXY"])

    def test_encode_decode_roundtrip(self, tmp_path, capsys):
        clip = moving_objects_sequence(width=64, height=48, count=3, seed=2)
        src = tmp_path / "in.yuv"
        write_yuv420(src, clip)
        stream = tmp_path / "out.fevs"
        rc = main([
            "encode", str(src), "--size", "64x48", "--out", str(stream),
            "--sa", "8", "--qp", "30",
        ])
        assert rc == 0
        assert stream.exists()
        recon = tmp_path / "recon.yuv"
        assert main(["decode", str(stream), "--out", str(recon)]) == 0
        out = capsys.readouterr().out
        assert "decoded 3 frames" in out
        # decoded YUV has the right size
        assert recon.stat().st_size == 3 * 64 * 48 * 3 // 2

    def test_encode_missing_frames_errors(self, tmp_path, capsys):
        empty = tmp_path / "empty.yuv"
        empty.write_bytes(b"")
        rc = main([
            "encode", str(empty), "--size", "64x48",
            "--out", str(tmp_path / "x.fevs"),
        ])
        assert rc == 1

    def test_bad_size_argument(self):
        with pytest.raises(SystemExit):
            main(["encode", "x.yuv", "--size", "64by48", "--out", "o.fevs"])

    def test_sim_trace_bytes_are_pinned(self, tmp_path, capsys):
        """The sim trace of a faulted run, byte for byte: its lanes, its
        frame offsets and the fault instant are all in the digest."""
        import hashlib

        out = tmp_path / "trace.json"
        assert main(["run", "--platform", "SysNFF", "--frames", "6",
                     "--drop", "GPU_F2@4", "--trace", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == SIM_TRACE_SHA256
        assert f"wrote 130 trace events (6 inter frames) to {out}" in (
            capsys.readouterr().out
        )

    def test_run_with_fault_injection(self, tmp_path, capsys):
        log = tmp_path / "faults.json"
        rc = main([
            "run", "--platform", "SysNFF", "--frames", "8",
            "--drop", "GPU_F2@4", "--fault-log", str(log),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "live devices at end: ['CPU_N', 'GPU_F']" in out
        assert "frame 4: evicted GPU_F2" in out
        import json

        payload = json.loads(log.read_text())
        assert len(payload) == 8
        assert payload[3]["evicted"] == ["GPU_F2"]

    def test_process_run_with_dropout_has_the_same_epilogue(self, tmp_path, capsys):
        log = tmp_path / "faults.json"
        rc = main([
            "run", "--backend", "process", "--platform", "SysHK",
            "--size", "64x48", "--sa", "8", "--frames", "4", "--workers", "1",
            "--drop", "GPU_K@2", "--fault-log", str(log),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "bit-identical to serial: yes" in out
        assert "live devices at end: ['CPU_H']" in out
        assert "frame 2: evicted GPU_K" in out
        import json

        assert json.loads(log.read_text())[1]["evicted"] == ["GPU_K"]

    def test_process_run_trace_has_worker_lanes_and_the_fault(self, tmp_path, capsys):
        """``run --trace`` on the pool: chunks on ``<device>.w<slot>``, R*
        on its device's compute lane, the measured τ1/τ2 barriers on
        ``host.sync`` and the dropout as an instant at its frame."""
        import json
        import re

        out = tmp_path / "trace.json"
        assert main([
            "run", "--backend", "process", "--platform", "SysHK",
            "--size", "64x48", "--sa", "8", "--frames", "4", "--workers", "2",
            "--drop", "GPU_K@2", "--trace", str(out),
        ]) == 0
        events = json.loads(out.read_text())["traceEvents"]
        lane = {e["tid"]: e["args"]["name"] for e in events
                if e["name"] == "thread_name"}
        slices = [(e["name"], lane[e["tid"]]) for e in events if e["ph"] == "X"]
        chunks = {where for what, where in slices
                  if what.startswith(("ME[", "INT[", "SME["))}
        assert chunks and all(re.fullmatch(r"(GPU_K|CPU_H)\.w[01]", w) for w in chunks)
        assert {w.split(".")[0] for w in chunks} == {"GPU_K", "CPU_H"}
        rstar = [(what, where) for what, where in slices if what.startswith("R*[")]
        assert len(rstar) == 3
        assert all(where == f"{what[3:-1]}.compute" for what, where in rstar)
        assert {what for what, where in slices if where == "host.sync"} == {
            "tau1", "tau2"
        }
        [fault] = [e for e in events if e["ph"] == "i"]
        assert fault["args"]["frame"] == 2
        assert fault["args"]["evicted"] == ["GPU_K"]

    def test_process_run_prints_the_inter_frame_speedup(self, capsys):
        """The clip's speedup says how many I frames it includes (coded on
        the host on both paths); the P frames' own speedup prints beside it."""
        import re

        assert main([
            "run", "--backend", "process", "--platform", "SysHK",
            "--size", "64x48", "--sa", "8", "--frames", "3", "--workers", "1",
        ]) == 0
        out = capsys.readouterr().out
        assert re.search(
            r"^  process backend: +[\d.]+ fps +\([\d.]+ s\) +-> [\d.]+x clip "
            r"speedup, 1 I frame included$", out, re.M,
        ), out
        assert re.search(
            r"^  inter frames   : serial [\d.]+ fps, process [\d.]+ fps +-> "
            r"[\d.]+x inter-frame speedup \(2 P frames\)$", out, re.M,
        ), out

    def test_process_run_faults_without_an_inter_frame(self, capsys):
        """A fault scheduled past the clip's last inter frame never fires,
        and the epilogue says so instead of raising."""
        assert main([
            "run", "--backend", "process", "--platform", "SysHK",
            "--size", "64x48", "--sa", "8", "--frames", "1", "--workers", "1",
            "--drop", "GPU_K@1",
        ]) == 0
        out = capsys.readouterr().out
        assert "bit-identical to serial: yes" in out
        assert "1 I frame included" in out
        assert "inter frames   : none (no inter-frame speedup)" in out
        assert "live devices at end: ['CPU_H', 'GPU_K']" in out
        assert "fault time lost: 0.0 ms" in out

    def test_process_run_refuses_modelled_faults_by_kind(self):
        with pytest.raises(SystemExit, match="'copy_fail' fault"):
            main(["run", "--backend", "process", "--size", "64x48",
                  "--copy-fail", "GPU_K@2:2"])

    def test_run_hang_and_degrade_flags(self, capsys):
        rc = main([
            "run", "--platform", "SysNFF", "--frames", "10",
            "--hang", "GPU_F2@3:2", "--degrade", "GPU_F@6:1.5",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "evicted GPU_F2" in out
        assert "readmitted GPU_F2" in out

    def test_bad_fault_spec_exits(self):
        with pytest.raises(SystemExit):
            main(["run", "--platform", "SysNFF", "--frames", "5",
                  "--drop", "GPU_F2"])
        with pytest.raises(SystemExit):
            main(["run", "--platform", "SysNFF", "--frames", "5",
                  "--hang", "GPU_F2@3"])

    @pytest.mark.parametrize(
        "flag,spec,why",
        [
            ("--drop", "GPU_F2", "missing '@'"),
            ("--drop", "@4", "empty device name"),
            ("--drop", "GPU_F2@four", "non-integer frame"),
            ("--drop", "GPU_F2@4:2", "unexpected ':PARAM'"),
            ("--hang", "GPU_F2@3", "missing ':PARAM'"),
            ("--hang", "GPU_F2@3:x", "non-numeric parameter"),
            ("--degrade", "GPU_F2@3:", "non-numeric parameter"),
            ("--degrade", "GPU_F2@0:2", "frame must be >= 1"),
            ("--copy-fail", "GPU_F2@3:0.5", "fault factor must be >= 1"),
        ],
    )
    def test_fault_spec_error_names_token(self, flag, spec, why, capsys):
        """Malformed fault specs fail eagerly, naming the offending token."""
        with pytest.raises(SystemExit) as exc:
            main(["run", "--platform", "SysNFF", "--frames", "5", flag, spec])
        msg = str(exc.value)
        assert repr(spec) in msg       # the offending token, quoted
        assert flag in msg             # which flag it came from
        assert why in msg              # what is wrong with it
        assert "Traceback" not in capsys.readouterr().err


class TestServeCli:
    def test_serve_reports_per_stream_metrics(self, capsys):
        rc = main(["serve", "--streams", "3", "--frames", "4"])
        assert rc == 0
        out = capsys.readouterr().out
        for col in ("p50 ms", "p95 ms", "p99 ms", "miss", "wait s"):
            assert col in out
        assert "s00" in out and "s02" in out
        assert "aggregate:" in out and "deadline-miss=" in out
        assert "admission: 3 admitted" in out
        assert "device utilization:" in out

    def test_serve_exports_json_and_trace(self, tmp_path, capsys):
        mpath, tpath = tmp_path / "m.json", tmp_path / "t.json"
        rc = main([
            "serve", "--streams", "2", "--frames", "3",
            "--json", str(mpath), "--trace", str(tpath),
        ])
        assert rc == 0
        import json

        metrics = json.loads(mpath.read_text())
        assert len(metrics["streams"]) == 2
        assert metrics["rounds"] > 0
        trace = json.loads(tpath.read_text())
        assert {e["pid"] for e in trace["traceEvents"]} == {1, 2}

    def test_serve_submit_scripted_workload(self, capsys):
        rc = main([
            "serve",
            "--submit", "0:25:3:realtime",
            "--submit", "0.1:15:2:background",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "realtime" in out and "background" in out

    def test_serve_bad_submit_names_token(self):
        with pytest.raises(SystemExit, match="0:25:ten"):
            main(["serve", "--submit", "0:25:ten"])

    def test_serve_with_dropout_shows_fault(self, capsys):
        rc = main([
            "serve", "--streams", "2", "--frames", "4",
            "--drop", "GPU_K@2",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "fault events observed across streams: 2" in out

    def test_serve_unknown_fault_device_exits(self):
        with pytest.raises(SystemExit):
            main(["serve", "--streams", "2", "--drop", "nope@2"])

    @pytest.mark.parametrize("flag,value", [
        ("--streams", "3"),
        ("--arrival-rate", "2.0"),
    ])
    def test_serve_submit_clash_names_flag(self, flag, value):
        with pytest.raises(SystemExit, match=flag.replace("-", "[-]")):
            main(["serve", "--submit", "0:25:3", flag, value])

    def test_serve_submit_clash_names_both_flags(self):
        with pytest.raises(
            SystemExit, match="[-]{2}streams and [-]{2}arrival[-]rate"
        ):
            main([
                "serve", "--submit", "0:25:3",
                "--streams", "3", "--arrival-rate", "2.0",
            ])

    def test_serve_help_documents_submit_precedence(self, capsys):
        with pytest.raises(SystemExit):
            main(["serve", "--help"])
        out = capsys.readouterr().out
        assert "cannot be combined with --submit" in out


class TestFleetCli:
    def test_fleet_reports_nodes_and_classes(self, capsys):
        rc = main([
            "fleet", "--nodes", "2", "--platforms", "SysHK,SysNF",
            "--streams", "4", "--frames", "3",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "2-node fleet" in out
        assert "n0" in out and "n1" in out
        assert "SysNF" in out
        assert "aggregate:" in out
        assert "peak-concurrent=" in out

    def test_fleet_node_fault_reroutes(self, capsys):
        rc = main([
            "fleet", "--nodes", "3", "--platforms", "SysHK,SysNF",
            "--streams", "6", "--frames", "5",
            "--node-fault", "n0@0.15",
            "--sanitize",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "node-faults=1" in out
        assert "down" in out
        assert "schedule sanitizer: clean" in out

    def test_fleet_exports_json_and_trace(self, tmp_path, capsys):
        import json

        mpath, tpath = tmp_path / "m.json", tmp_path / "t.json"
        rc = main([
            "fleet", "--nodes", "2", "--streams", "3", "--frames", "3",
            "--json", str(mpath), "--trace", str(tpath),
        ])
        assert rc == 0
        metrics = json.loads(mpath.read_text())
        assert metrics["n_nodes"] == 2
        assert len(metrics["nodes"]) == 2
        # One admission schema on every node, whatever its history.
        for node in metrics["nodes"]:
            assert set(node["admission"]) == {
                "admitted", "queued", "rejected", "completed", "evicted",
            }
            assert node["admission"]["evicted"] == 0
        trace = json.loads(tpath.read_text())
        pids = {e["pid"] for e in trace["traceEvents"]}
        assert pids and all(p >= 1001 for p in pids)

    def test_fleet_submit_scripted_workload(self, capsys):
        rc = main([
            "fleet", "--nodes", "2",
            "--submit", "0:25:3:realtime",
            "--submit", "0.1:15:2:background",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "realtime" in out and "background" in out

    def test_fleet_submit_clash_rejected(self):
        with pytest.raises(SystemExit, match="[-]{2}streams"):
            main(["fleet", "--submit", "0:25:3", "--streams", "4"])

    def test_fleet_bad_node_fault_names_token(self):
        with pytest.raises(SystemExit, match="n0@x"):
            main(["fleet", "--node-fault", "n0@x"])

    def test_fleet_unknown_fault_node_exits(self):
        with pytest.raises(SystemExit, match="n9"):
            main(["fleet", "--nodes", "2", "--node-fault", "n9@0.5"])

    def test_fleet_unknown_platform_exits(self):
        with pytest.raises(SystemExit, match="SysXX"):
            main(["fleet", "--platforms", "SysXX"])

    def test_fleet_bad_policy_exits(self):
        with pytest.raises(SystemExit):
            main(["fleet", "--policy", "round-robin"])

    def test_fleet_autoscale_prints_events(self, capsys):
        rc = main([
            "fleet", "--nodes", "1", "--platforms", "SysNF",
            "--max-queue", "1", "--autoscale", "--max-nodes", "3",
            "--streams", "8", "--frames", "3",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "autoscale: " in out and " add " in out


class TestBadNumbers:
    @pytest.mark.parametrize("argv,why", [
        (["serve", "--headroom", "0"], "headroom must be > 0"),
        (["fleet", "--max-nodes", "0"], "max_nodes must be >= 1"),
        (["fleet", "--max-queue", "-1"], "max_queue must be >= 0"),
        (["fleet", "--global-queue", "-1"], "global_queue must be >= 0"),
    ], ids=["headroom", "max-nodes", "max-queue", "global-queue"])
    def test_config_errors_exit_with_one_line(self, argv, why):
        """A number a config rejects is a usage error, not a traceback:
        the ``ValueError`` becomes ``SystemExit("error: …")``."""
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert str(exc.value).startswith("error: ")
        assert why in str(exc.value)

    @pytest.mark.parametrize("argv", [
        ["run", "--frames", "0"],
        ["profile", "--frames", "0"],
        ["run", "--backend", "process", "--size", "64x48", "--frames", "0"],
        ["run", "--frames", "-3"],
    ], ids=["run", "profile", "process-run", "negative"])
    def test_frames_below_one_is_a_usage_error(self, argv, capsys):
        """``--frames`` below 1 encodes nothing: the parser rejects it
        before a framework or pool exists, instead of a traceback (sim)
        or a bit-identity claim about no frames (process)."""
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert "argument --frames: must be >= 1" in captured.err
        assert captured.out == ""

    def test_process_profile_of_one_frame_is_a_usage_error(self, capsys):
        """The process backend's first frame is the untimed I frame: one
        frame would print an empty phase table at "0.000 ms/frame", so
        the parser rejects it before a pool starts."""
        with pytest.raises(SystemExit) as exc:
            main(["profile", "--backend", "process", "--size", "64x48",
                  "--frames", "1"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert "needs --frames >= 2" in captured.err
        assert captured.out == ""


class TestEncodeDecodeErrors:
    """``encode``/``decode`` fed a bad number, a bad size or a bad file end
    in one ``error:`` line and a non-zero status — never a traceback (any
    exception other than ``SystemExit`` fails these)."""

    @pytest.fixture
    def yuv(self, tmp_path):
        path = tmp_path / "in.yuv"
        write_yuv420(path, moving_objects_sequence(width=64, height=48, count=2, seed=2))
        return path

    @pytest.mark.parametrize("argv,why", [
        (["{yuv}", "--size", "64x48", "--qp", "99"], "qp must be in"),
        (["{yuv}", "--size", "64x48", "--sa", "0"], "search_range must be in"),
        (["{yuv}", "--size", "64x48", "--refs", "0"], "num_ref_frames must be in"),
        (["{yuv}", "--size", "65x64"], "width must be a positive multiple of 16"),
        (["missing.yuv", "--size", "64x48"], "missing.yuv"),
    ], ids=["qp", "sa", "refs", "unaligned-size", "missing-input"])
    def test_encode(self, yuv, tmp_path, argv, why):
        argv = [arg.format(yuv=yuv) for arg in argv]
        with pytest.raises(SystemExit) as exc:
            main(["encode", *argv, "--out", str(tmp_path / "o.fevs")])
        assert str(exc.value).startswith("error: ") and why in str(exc.value)

    @pytest.mark.parametrize("damage,why", [
        (lambda data: data[: len(data) // 2], "truncated"),
        (lambda data: bytes(range(256)) * 4, "truncated"),
        (None, "missing.fevs"),
    ], ids=["truncated", "garbage", "missing-input"])
    def test_decode(self, yuv, tmp_path, damage, why):
        stream = tmp_path / "missing.fevs"
        if damage is not None:
            good = tmp_path / "good.fevs"
            assert main(["encode", str(yuv), "--size", "64x48",
                         "--out", str(good), "--sa", "8"]) == 0
            stream = tmp_path / "bad.fevs"
            stream.write_bytes(damage(good.read_bytes()))
        with pytest.raises(SystemExit) as exc:
            main(["decode", str(stream), "--out", str(tmp_path / "r.yuv")])
        assert str(exc.value).startswith("error: ") and why in str(exc.value)


class TestSanitizeFlagIsScoped:
    """``--sanitize`` is ``REPRO_SANITIZE=1`` for one command: when
    ``main`` returns — or raises — the variable is back to what it was
    and a later library run in the same process journals nothing."""

    @staticmethod
    def library_run_journals_nothing():
        from repro.service import EncodingService, ServiceConfig, StreamSpec
        from repro.util.journal import JOURNAL, sanitize_from_env

        assert not sanitize_from_env()
        EncodingService(ServiceConfig()).run([StreamSpec("x", n_frames=3)])
        return len(JOURNAL) == 0 and not JOURNAL._keep

    def test_clean_exit_restores_the_switch(self, monkeypatch, capsys):
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        assert main(
            ["serve", "--streams", "1", "--frames", "2", "--sanitize"]
        ) == 0
        assert "schedule sanitizer: clean" in capsys.readouterr().out
        assert self.library_run_journals_nothing()

    def test_error_exit_restores_the_switch(self, monkeypatch):
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        with pytest.raises(SystemExit, match="error: "):
            main(["serve", "--headroom", "0", "--sanitize"])
        assert self.library_run_journals_nothing()

    def test_prior_value_survives(self, monkeypatch):
        import os

        monkeypatch.setenv("REPRO_SANITIZE", "off")
        assert main(
            ["serve", "--streams", "1", "--frames", "2", "--sanitize"]
        ) == 0
        assert os.environ["REPRO_SANITIZE"] == "off"
