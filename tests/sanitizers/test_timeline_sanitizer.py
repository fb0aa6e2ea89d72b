"""Schedule-sanitizer tests: clean runs stay clean, seeded bugs are caught.

One mutation test per violation class of the design: (a) engine races,
(b) dependency/τ races, (c) conservation, (d) service invariants. Each
seeds a bug into an otherwise-valid timeline/report and asserts the
sanitizer reports exactly that class.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.codec.config import CodecConfig
from repro.core.bounds import ExtraTransfers
from repro.core.config import FrameworkConfig
from repro.core.distribution import Distribution
from repro.core.framework import FevesFramework
from repro.hw.des import OpRecord
from repro.hw.noise import FaultEvent, FaultSchedule
from repro.hw.presets import get_platform
from repro.hw.timeline import FrameTimeline
from repro.sanitizers import ScheduleViolationError, TimelineSanitizer

CODEC = CodecConfig(width=704, height=576)


def run_framework(platform="SysNF", frames=4, faults=None):
    fw = FevesFramework(
        get_platform(platform),
        CODEC,
        FrameworkConfig(faults=faults or FaultSchedule()),
    )
    for _ in range(frames):
        fw.encode_next_inter()
    return fw


@pytest.fixture(scope="module")
def clean_fw():
    return run_framework()


def rules_of(report):
    return {v.rule for v in report.violations}


# ---------------------------------------------------------------- clean


class TestCleanRuns:
    def test_clean_run_has_no_violations(self, clean_fw):
        report = TimelineSanitizer.for_framework(clean_fw).check_run(clean_fw)
        assert report.clean, report.summary()

    def test_faulted_run_is_still_clean(self):
        faults = FaultSchedule(
            events=(
                FaultEvent(frame=2, device="GPU_F", kind="dropout"),
            )
        )
        fw = run_framework("SysNFF", frames=6, faults=faults)
        report = TimelineSanitizer.for_framework(fw).check_run(fw)
        assert report.clean, report.summary()

    def test_raise_if_dirty_passes_quietly_on_clean(self, clean_fw):
        san = TimelineSanitizer.for_framework(clean_fw)
        san.check_report(clean_fw.reports[-1]).raise_if_dirty()

    def test_intra_placeholder_reports_are_skipped(self, clean_fw):
        san = TimelineSanitizer.for_framework(clean_fw)
        intra = dataclasses.replace(clean_fw.reports[-1], frame_index=0)
        assert san.check_report(intra).clean


# ------------------------------------------------- class (a): engine races


class TestEngineRaces:
    def synthetic(self, records, tau1=10.0, tau2=20.0, tau_tot=30.0):
        return FrameTimeline(
            frame_index=1, records=records, tau1=tau1, tau2=tau2,
            tau_tot=tau_tot,
        )

    def test_overlap_on_one_engine_fires_a1(self):
        san = TimelineSanitizer(get_platform("SysNF"), mb_rows=CODEC.mb_rows)
        tl = self.synthetic([
            OpRecord("ME[GPU_F]", "GPU_F.compute", "compute", 0.0, 2.0),
            OpRecord("INT[GPU_F]", "GPU_F.compute", "compute", 1.5, 3.0),
        ])
        assert "SAN-A1" in rules_of(san.check_timeline(tl))

    def test_back_to_back_ops_do_not_fire(self):
        san = TimelineSanitizer(get_platform("SysNF"), mb_rows=CODEC.mb_rows)
        tl = self.synthetic([
            OpRecord("ME[GPU_F]", "GPU_F.compute", "compute", 0.0, 2.0),
            OpRecord("INT[GPU_F]", "GPU_F.compute", "compute", 2.0, 3.0),
        ])
        assert san.check_timeline(tl).clean

    def test_copies_beyond_engine_count_fire_a2(self):
        platform = get_platform("SysNF")
        gpu = platform.gpus[0]
        engines = gpu.spec.link.copy_engines
        # One more concurrent copy than the link has engines, each on its
        # own (bogus) resource so the per-resource overlap check can't
        # see it — only the per-device concurrency sweep can.
        records = [
            OpRecord(
                f"RF[{gpu.name}]", f"{gpu.name}.copy{i}", "h2d",
                0.0, 2.0,
            )
            for i in range(engines + 1)
        ]
        san = TimelineSanitizer(platform, mb_rows=CODEC.mb_rows)
        report = san.check_timeline(self.synthetic(records))
        assert "SAN-A2" in rules_of(report)
        assert "SAN-A1" not in rules_of(report)


# --------------------------------------------- class (b): dependency races


class TestDependencyRaces:
    def test_tau_ordering_violation_fires_b1(self):
        san = TimelineSanitizer(get_platform("SysNF"), mb_rows=CODEC.mb_rows)
        tl = FrameTimeline(
            frame_index=1, records=[], tau1=2.0, tau2=1.0, tau_tot=3.0
        )
        assert "SAN-B1" in rules_of(san.check_timeline(tl))

    def test_sme_before_tau1_fires_b2(self):
        san = TimelineSanitizer(get_platform("SysNF"), mb_rows=CODEC.mb_rows)
        tl = FrameTimeline(
            frame_index=1,
            records=[
                OpRecord("SME[GPU_F]", "GPU_F.compute", "compute", 0.5, 4.0),
            ],
            tau1=1.0, tau2=5.0, tau_tot=6.0,
        )
        assert "SAN-B2" in rules_of(san.check_timeline(tl))

    def test_op_past_tau_tot_fires_b2(self):
        san = TimelineSanitizer(get_platform("SysNF"), mb_rows=CODEC.mb_rows)
        tl = FrameTimeline(
            frame_index=1,
            records=[
                OpRecord("R*[GPU_F]", "GPU_F.compute", "compute", 5.0, 7.0),
            ],
            tau1=1.0, tau2=5.0, tau_tot=6.0,
        )
        assert "SAN-B2" in rules_of(san.check_timeline(tl))

    def test_rstar_probe_is_exempt_from_tau_tot(self):
        san = TimelineSanitizer(get_platform("SysNF"), mb_rows=CODEC.mb_rows)
        tl = FrameTimeline(
            frame_index=1,
            records=[
                OpRecord("R*probe[CPU_N]", "CPU_N.compute", "compute", 5.0, 7.0),
            ],
            tau1=1.0, tau2=5.0, tau_tot=6.0,
        )
        assert san.check_timeline(tl).clean


# ------------------------------------------------ class (c): conservation


class TestConservation:
    def test_rows_dropped_from_m_fire_c1(self, clean_fw):
        san = TimelineSanitizer.for_framework(clean_fw)
        report = clean_fw.reports[-1]
        rows = list(report.decision.m.rows)
        donor = max(range(len(rows)), key=lambda i: rows[i])
        rows[donor] -= 1  # lose one MB row
        broken = dataclasses.replace(report)
        broken.decision = dataclasses.replace(
            report.decision, m=Distribution(tuple(rows), sum(rows))
        )
        assert "SAN-C1" in rules_of(san.check_report(broken))

    def test_wrong_delta_m_fires_c2(self, clean_fw):
        san = TimelineSanitizer.for_framework(clean_fw)
        report = clean_fw.reports[-1]
        platform = clean_fw.platform
        i = next(
            j for j, d in enumerate(platform.devices) if d.is_accelerator
        )
        deltas = list(report.decision.delta_m)
        bogus = ExtraTransfers(segments=((0, deltas[i].rows + 3),),
                               rows=deltas[i].rows + 3)
        deltas[i] = bogus
        broken = dataclasses.replace(report)
        broken.decision = dataclasses.replace(
            report.decision, delta_m=tuple(deltas)
        )
        assert "SAN-C2" in rules_of(san.check_report(broken))

    def test_corrupted_nbytes_fires_c3(self, clean_fw):
        san = TimelineSanitizer.for_framework(clean_fw)
        report = clean_fw.reports[-1]
        assert report.transfer_plan.items, "test needs a non-empty plan"
        broken = dataclasses.replace(report)
        broken.transfer_plan = dataclasses.replace(report.transfer_plan)
        item = report.transfer_plan.items[0]
        broken.transfer_plan.items = [
            dataclasses.replace(item, nbytes=item.nbytes + 1)
        ] + report.transfer_plan.items[1:]
        assert "SAN-C3" in rules_of(san.check_report(broken))

    def test_sigma_leak_fires_c4(self, clean_fw):
        san = TimelineSanitizer.for_framework(clean_fw)
        report = next(
            r for r in clean_fw.reports
            if r.frame_index > 0 and r.decision.sigma
        )
        name = next(iter(report.decision.sigma))
        sg = report.decision.sigma[name]
        leaked = ExtraTransfers(segments=sg.segments, rows=sg.rows + 1)
        broken = dataclasses.replace(report)
        broken.decision = dataclasses.replace(
            report.decision,
            sigma={**report.decision.sigma, name: leaked},
        )
        assert "SAN-C4" in rules_of(san.check_report(broken))

    def test_cross_frame_sigma_handover_mismatch_fires_c4(self):
        fw = run_framework("SysNFF", frames=6)
        san = TimelineSanitizer.for_framework(fw)
        # Pick a frame whose decision tracks deferred-SF state and whose
        # successor plans transfers for that device, then claim it
        # deferred rows the successor never catches up.
        idx, name = next(
            (k, n)
            for k, r in enumerate(fw.reports[:-1])
            if r.frame_index > 0
            for n in r.decision.sigma_r
            if any(t.device == n for t in fw.reports[k + 1].transfer_plan.items)
        )
        prev = fw.reports[idx]
        rem = prev.decision.sigma_r[name]
        fw.reports[idx] = dataclasses.replace(prev)
        fw.reports[idx].decision = dataclasses.replace(
            prev.decision,
            sigma_r={
                **prev.decision.sigma_r,
                name: ExtraTransfers(
                    segments=rem.segments, rows=rem.rows + 5
                ),
            },
        )
        out = san.check_run(fw)
        assert "SAN-C4" in rules_of(out)
        assert any(
            v.rule == "SAN-C4" and "catches up" in v.message
            for v in out.violations
        )


# -------------------------------------------- class (d): service invariants


class TestServiceInvariants:
    def serve(self, faults=None):
        from repro.service.service import EncodingService, ServiceConfig
        from repro.service.session import StreamSpec

        cfg = ServiceConfig(
            platform="SysNF", faults=faults or FaultSchedule()
        )
        service = EncodingService(cfg)
        service.run([
            StreamSpec(stream_id="s1", fps_target=25.0, n_frames=4),
            StreamSpec(stream_id="s2", fps_target=12.5, n_frames=3,
                       arrival_s=0.01),
        ])
        return service

    def test_clean_service_run(self):
        service = self.serve()
        report = TimelineSanitizer.check_service(service)
        assert report.clean, report.summary()

    def test_oversubscribed_round_fires_d1(self):
        service = self.serve()
        session = service.sessions[0]
        rec = session.records[-1]
        session.records[-1] = dataclasses.replace(rec, share=1.7)
        assert "SAN-D1" in rules_of(TimelineSanitizer.check_service(service))

    def test_work_on_faulted_device_fires_d2(self, clean_fw):
        san = TimelineSanitizer.for_framework(clean_fw)
        report = clean_fw.reports[-1]
        busy = next(
            d.name
            for d in clean_fw.platform.devices
            if any(
                r.resource.startswith(f"{d.name}.") and r.duration > 0
                for r in report.timeline.records
            )
        )
        broken = dataclasses.replace(report, faulted=(busy,))
        assert "SAN-D2" in rules_of(san.check_report(broken))

    def test_session_on_down_device_fires_d2(self):
        faults = FaultSchedule(
            events=(FaultEvent(frame=2, device="GPU_F", kind="dropout"),)
        )
        service = self.serve(faults=faults)
        # Pretend the fault round produced work on the dead device by
        # grafting a pre-fault (GPU-busy) timeline onto a post-fault frame.
        session = service.sessions[0]
        post = next(r for r in session.records if r.round >= 2)
        pre_report = session.framework.reports[0]
        session.framework.reports[post.index - 1] = dataclasses.replace(
            session.framework.reports[post.index - 1],
            timeline=pre_report.timeline,
        )
        assert "SAN-D2" in rules_of(TimelineSanitizer.check_service(service))


# ----------------------------------------------------------- strict mode


class TestStrictMode:
    def test_error_message_lists_violations(self, clean_fw):
        san = TimelineSanitizer.for_framework(clean_fw)
        report = clean_fw.reports[-1]
        broken = dataclasses.replace(report, faulted=("GPU_F",))
        out = san.check_report(broken)
        with pytest.raises(ScheduleViolationError) as err:
            out.raise_if_dirty()
        assert "SAN-D2" in str(err.value)
        assert err.value.violations
        assert isinstance(err.value, AssertionError)

    def test_summary_groups_by_rule(self, clean_fw):
        san = TimelineSanitizer.for_framework(clean_fw)
        broken = dataclasses.replace(
            clean_fw.reports[-1], faulted=("GPU_F", "CPU_N")
        )
        out = san.check_report(broken)
        assert "SAN-D2" in out.summary()
        assert out.to_dict()["count"] == len(out.violations)
