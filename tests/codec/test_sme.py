"""SME: sub-pixel refinement correctness."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

import repro.codec.sme as sme_module
from repro.codec.config import PARTITION_MODES, CodecConfig
from repro.codec.interpolation import interpolate_plane, sf_rows
from repro.codec.me import MotionField, motion_estimate_rows
from repro.codec.partitions import get_mode
from repro.codec.sme import SubpelField, subpel_refine_rows
from repro.video import SyntheticSequence

from oracles import reference_sme


@pytest.fixture
def cfg():
    return CodecConfig(width=64, height=64, search_range=4, num_ref_frames=1)


def run_sme(cur, ref, cfg, row0=0, nrows=None):
    nrows = nrows if nrows is not None else cfg.mb_rows
    me = motion_estimate_rows(cur, [ref], 0, cfg.mb_rows, cfg)
    sf = interpolate_plane(ref)
    return me, subpel_refine_rows(cur, [sf], me, row0, nrows, cfg)


class TestRefinement:
    def test_never_worse_than_fullpel(self, rng, cfg):
        """Refined SAD ≤ the SF-sampled SAD at the full-pel position."""
        ref = rng.integers(0, 256, (64, 64), dtype=np.uint8)
        cur = rng.integers(0, 256, (64, 64), dtype=np.uint8)
        me, sme = run_sme(cur, ref, cfg)
        cfg_off = CodecConfig(
            width=64, height=64, search_range=4, num_ref_frames=1, subpel=False
        )
        sf = interpolate_plane(ref)
        base = subpel_refine_rows(cur, [sf], me, 0, 4, cfg_off)
        # subpel=False keeps full-pel MVs with ME SADs; on interior MBs the
        # SF-sampled value at full-pel equals the ME SAD, so refinement
        # can only improve.
        for shape in sme.mode_shapes:
            assert (
                sme.sads[shape][1:-1, 1:-1] <= base.sads[shape][1:-1, 1:-1]
            ).all()

    def test_exact_halfpel_shift_recovered(self, cfg):
        """Current = half-pel interpolation of ref ⇒ SME finds (0, +2)."""
        rng = np.random.default_rng(3)
        base = rng.integers(0, 256, (80, 80), dtype=np.uint8)
        # Smooth the base so interpolation is well-behaved.
        base = ((base.astype(np.int32)
                 + np.roll(base, 1, 1) + np.roll(base, -1, 1)
                 + np.roll(base, 1, 0) + np.roll(base, -1, 0)) // 5).astype(np.uint8)
        ref = base[8:72, 8:72].copy()
        sf_full = interpolate_plane(ref)
        cur = sf_full[0::4, 2::4]  # horizontal half-pel samples (b positions)
        me, sme = run_sme(cur, ref, cfg)
        mv = sme.qmvs[(16, 16)][1:-1, 1:-1, 0, :]
        # For interior MBs the dominant refined offset must be (0, +2).
        frac_match = ((mv[..., 0] == 0) & (mv[..., 1] == 2)).mean()
        assert frac_match > 0.7

    def test_identical_frames_zero_mv(self, rng, cfg):
        ref = rng.integers(0, 256, (64, 64), dtype=np.uint8)
        me, sme = run_sme(ref, ref, cfg)
        assert (sme.qmvs[(16, 16)] == 0).all()
        assert (sme.sads[(16, 16)] == 0).all()

    def test_subpel_disabled_keeps_fullpel(self, rng):
        cfg = CodecConfig(
            width=64, height=64, search_range=4, num_ref_frames=1, subpel=False
        )
        ref = rng.integers(0, 256, (64, 64), dtype=np.uint8)
        cur = rng.integers(0, 256, (64, 64), dtype=np.uint8)
        me, sme = run_sme(cur, ref, cfg)
        for shape in sme.mode_shapes:
            np.testing.assert_array_equal(sme.qmvs[shape], 4 * me.mvs[shape])
            np.testing.assert_array_equal(sme.sads[shape], me.sads[shape])

    def test_qmv_within_quarter_ring_of_fullpel_interior(self, rng, cfg):
        """Away from borders (no clamping) the refinement moves ≤ ±3/4 pel."""
        ref = rng.integers(0, 256, (64, 64), dtype=np.uint8)
        cur = rng.integers(0, 256, (64, 64), dtype=np.uint8)
        me, sme = run_sme(cur, ref, cfg)
        for shape in sme.mode_shapes:
            d = sme.qmvs[shape][1:-1, 1:-1] - 4 * me.mvs[shape][1:-1, 1:-1]
            assert (np.abs(d) <= 3).all()  # half ring (±2) + quarter ring (±1)

    def test_border_clamping_keeps_blocks_inside(self, rng, cfg):
        """At frame borders the effective position never leaves the SF."""
        ref = rng.integers(0, 256, (64, 64), dtype=np.uint8)
        cur = rng.integers(0, 256, (64, 64), dtype=np.uint8)
        me, sme = run_sme(cur, ref, cfg)
        for shape in sme.mode_shapes:
            mode = get_mode(shape)
            bh, bw = shape
            for r in range(4):
                for c in range(4):
                    for p in range(mode.nparts):
                        oy, ox = mode.origins[p]
                        qy = 4 * (16 * r + oy) + sme.qmvs[shape][r, c, p, 0]
                        qx = 4 * (16 * c + ox) + sme.qmvs[shape][r, c, p, 1]
                        assert 0 <= qy <= 4 * (64 - bh)
                        assert 0 <= qx <= 4 * (64 - bw)


class TestBands:
    def test_band_matches_full(self, rng, cfg):
        ref = rng.integers(0, 256, (64, 64), dtype=np.uint8)
        cur = rng.integers(0, 256, (64, 64), dtype=np.uint8)
        me = motion_estimate_rows(cur, [ref], 0, 4, cfg)
        sf = interpolate_plane(ref)
        full = subpel_refine_rows(cur, [sf], me, 0, 4, cfg)
        band = subpel_refine_rows(cur, [sf], me, 1, 2, cfg)
        for shape in full.mode_shapes:
            np.testing.assert_array_equal(band.qmvs[shape], full.qmvs[shape][1:3])

    def test_merge(self, rng, cfg):
        ref = rng.integers(0, 256, (64, 64), dtype=np.uint8)
        cur = rng.integers(0, 256, (64, 64), dtype=np.uint8)
        me = motion_estimate_rows(cur, [ref], 0, 4, cfg)
        sf = interpolate_plane(ref)
        full = subpel_refine_rows(cur, [sf], me, 0, 4, cfg)
        parts = [
            subpel_refine_rows(cur, [sf], me, 0, 2, cfg),
            subpel_refine_rows(cur, [sf], me, 2, 2, cfg),
        ]
        merged = SubpelField.merge(parts)
        for shape in full.mode_shapes:
            np.testing.assert_array_equal(merged.qmvs[shape], full.qmvs[shape])
            np.testing.assert_array_equal(merged.sads[shape], full.sads[shape])

    def test_band_not_covered_by_me(self, rng, cfg):
        ref = rng.integers(0, 256, (64, 64), dtype=np.uint8)
        cur = rng.integers(0, 256, (64, 64), dtype=np.uint8)
        me = motion_estimate_rows(cur, [ref], 0, 2, cfg)
        sf = interpolate_plane(ref)
        with pytest.raises(ValueError, match="not covered"):
            subpel_refine_rows(cur, [sf], me, 1, 3, cfg)

    def test_merge_gap_rejected(self, rng, cfg):
        ref = rng.integers(0, 256, (64, 64), dtype=np.uint8)
        cur = rng.integers(0, 256, (64, 64), dtype=np.uint8)
        me = motion_estimate_rows(cur, [ref], 0, 4, cfg)
        sf = interpolate_plane(ref)
        a = subpel_refine_rows(cur, [sf], me, 0, 1, cfg)
        c = subpel_refine_rows(cur, [sf], me, 2, 2, cfg)
        with pytest.raises(ValueError, match="contiguous"):
            SubpelField.merge([a, c])


class TestMultiRef:
    def test_refines_in_chosen_reference(self, rng):
        cfg = CodecConfig(width=64, height=64, search_range=4, num_ref_frames=2)
        ref0 = rng.integers(0, 256, (64, 64), dtype=np.uint8)
        ref1 = rng.integers(0, 256, (64, 64), dtype=np.uint8)
        cur = ref1.copy()
        me = motion_estimate_rows(cur, [ref0, ref1], 0, 4, cfg)
        sfs = [interpolate_plane(ref0), interpolate_plane(ref1)]
        sme = subpel_refine_rows(cur, sfs, me, 0, 4, cfg)
        assert (sme.refs[(16, 16)] == 1).all()
        assert (sme.sads[(16, 16)] == 0).all()


def assert_fields_identical(got: SubpelField, want: SubpelField) -> None:
    """Field-by-field equality, dtypes included; ``got`` must self-check."""
    got.check_consistent()
    assert (got.row0, got.nrows, got.mb_cols) == (want.row0, want.nrows, want.mb_cols)
    assert got.mode_shapes == want.mode_shapes
    for shape in want.mode_shapes:
        for name in ("sads", "refs", "qmvs"):
            a, b = getattr(got, name)[shape], getattr(want, name)[shape]
            assert a.dtype == b.dtype, (name, shape)
            np.testing.assert_array_equal(a, b, err_msg=f"{name}[{shape}]")


def random_me_field(
    rng: np.random.Generator, cfg: CodecConfig, n_refs: int, reach: int
) -> MotionField:
    """A full-frame ME field with arbitrary MVs up to ``reach`` pels long.

    SME only reads the field, so it need not come from a search — and a
    synthetic one can point past every frame edge, which FSBM at a small
    search range cannot.
    """
    shapes = tuple(m for m in PARTITION_MODES if m in cfg.enabled_partitions)
    me = MotionField(
        row0=0, nrows=cfg.mb_rows, mb_cols=cfg.mb_cols, mode_shapes=shapes
    )
    for shape in shapes:
        dims = (cfg.mb_rows, cfg.mb_cols, get_mode(shape).nparts)
        me.mvs[shape] = rng.integers(-reach, reach + 1, dims + (2,)).astype(np.int32)
        me.refs[shape] = rng.integers(0, n_refs, dims).astype(np.int32)
        me.sads[shape] = rng.integers(0, 65_281, dims).astype(np.int64)
    me.check_consistent()
    return me


@st.composite
def sme_cases(draw):
    """A small plane, 1-3 SFs, an ME field and a band of it to refine."""
    mb_cols = draw(st.integers(1, 6))  # widths 16..96
    mb_rows = draw(st.integers(1, 6))
    n_refs = draw(st.integers(1, 3))
    extra = draw(st.sets(st.sampled_from(PARTITION_MODES[1:])))
    cfg = CodecConfig(
        width=16 * mb_cols, height=16 * mb_rows, search_range=4,
        num_ref_frames=n_refs,
        enabled_partitions=tuple(
            m for m in PARTITION_MODES if m == (16, 16) or m in extra
        ),
        subpel=draw(st.sampled_from([True, True, True, False])),
        subpel_metric=draw(st.sampled_from(["sad", "satd"])),
    )
    # Few grey levels => many equal costs => the tie-break order matters;
    # one level is flat content (every candidate ties, the centre must win),
    # two levels are 0 and 255 (the widest SADs).
    levels = draw(st.sampled_from([1, 2, 4, 256]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    planes = [
        (rng.integers(0, levels, (cfg.height, cfg.width)) * (255 // max(levels - 1, 1)))
        .astype(np.uint8)
        for _ in range(n_refs + 1)
    ]
    # Short MVs stay inside; long ones leave the frame on every edge, where
    # the per-candidate clamp makes candidates coincide.
    reach = draw(st.sampled_from([0, 2, 16 * max(mb_rows, mb_cols) + 8]))
    me = random_me_field(rng, cfg, n_refs, reach)
    # The ME field handed over may itself be a band (the process backend
    # ships slices); the SME band is a sub-band of it, sometimes empty.
    band = draw(st.sampled_from(["frame", "band", "band", "empty"]))
    row0, nrows = 0, mb_rows
    if band != "frame":
        a, b = sorted(rng.integers(0, mb_rows + 1, 2))
        me = me.slice_rows(a, max(b - a, 1) if a < mb_rows else 0)
        row0, end = sorted(rng.integers(me.row0, me.row0 + me.nrows + 1, 2))
        nrows = 0 if band == "empty" else max(end - row0, min(me.nrows, 1))
        row0, nrows = int(min(row0, me.row0 + me.nrows - nrows)), int(nrows)
    sfs = [interpolate_plane(p) for p in planes[1:]]
    return planes[0], sfs, me, row0, nrows, cfg


def check_matches_reference(case) -> None:
    assert_fields_identical(subpel_refine_rows(*case), reference_sme(*case))


def assert_the_property_fails() -> None:
    """The oracle diff, on a fixed set of examples, must fail on a mutant."""
    mutant_run = settings(
        max_examples=80, deadline=None, derandomize=True, database=None,
        phases=[Phase.generate],
    )(given(sme_cases())(check_matches_reference))
    with pytest.raises(AssertionError):
        mutant_run()


class TestMatchesReferenceKernel:
    @given(sme_cases())
    @settings(max_examples=80, deadline=None)
    def test_identical_to_reference_sme(self, case):
        check_matches_reference(case)

    def test_centre_last_ring_mutant_is_killed(self, monkeypatch):
        """The property must notice a ring whose ties no longer go to the centre."""
        for name in ("_HALF_RING", "_QUARTER_RING"):
            ring = getattr(sme_module, name)
            monkeypatch.setattr(sme_module, name, np.roll(ring, -1, axis=0))
        assert_the_property_fails()

    @pytest.mark.parametrize("metric", ["sad", "satd"])
    def test_flat_content_keeps_the_fullpel_mv(self, metric):
        """Every candidate ties, so the centre — the clamped ME MV — wins."""
        cfg = CodecConfig(width=64, height=48, num_ref_frames=2, subpel_metric=metric)
        flat = np.full((48, 64), 90, dtype=np.uint8)
        sfs = [interpolate_plane(flat), interpolate_plane(flat)]
        me = random_me_field(np.random.default_rng(5), cfg, 2, reach=1)
        got = subpel_refine_rows(flat, sfs, me, 0, 3, cfg)
        assert_fields_identical(got, reference_sme(flat, sfs, me, 0, 3, cfg))
        for shape in got.mode_shapes:
            assert (got.sads[shape] == 0).all()
            # Interior MBs: a one-pel MV leaves nothing to clamp.
            np.testing.assert_array_equal(
                got.qmvs[shape][1:-1, 1:-1], 4 * me.mvs[shape][1:-1, 1:-1]
            )

    def test_worst_case_sad_fits_uint16(self):
        """All-0 against all-255: 16x16 SAD = 65 280, exact in every mode."""
        cfg = CodecConfig(width=32, height=32)
        cur = np.zeros((32, 32), dtype=np.uint8)
        sf = np.full((128, 128), 255, dtype=np.uint8)
        me = random_me_field(np.random.default_rng(0), cfg, 1, reach=40)
        got = subpel_refine_rows(cur, [sf], me, 0, 2, cfg)
        for bh, bw in got.mode_shapes:
            assert (got.sads[(bh, bw)] == bh * bw * 255).all()
        assert got.sads[(16, 16)].max() == 65_280
        assert_fields_identical(got, reference_sme(cur, [sf], me, 0, 2, cfg))

    @pytest.mark.parametrize("size", [(16, 48), (48, 16), (16, 16)])
    def test_frame_one_block_tall_or_wide(self, rng, size):
        """An axis the 16×16 block spans has one slot; its patch stays in the SF."""
        h, w = size
        cfg = CodecConfig(width=w, height=h, num_ref_frames=1)
        cur = rng.integers(0, 256, (h, w), dtype=np.uint8)
        sf = interpolate_plane(rng.integers(0, 256, (h, w), dtype=np.uint8))
        for reach in (0, 1, 40):
            me = random_me_field(rng, cfg, 1, reach=reach)
            got = subpel_refine_rows(cur, [sf], me, 0, cfg.mb_rows, cfg)
            assert_fields_identical(got, reference_sme(cur, [sf], me, 0, cfg.mb_rows, cfg))

    def test_patch_origin_off_the_lattice_is_caught(self, mutant, rng):
        """A patch that starts one step too early leaves the +step candidate
        off its 3×3 slots: the kernel raises instead of scoring a wrong slot."""
        mutant(sme_module, "_evaluate_ring", lambda source: source.replace(
            "np.maximum(centre - step, 0)", "np.maximum(centre - 2 * step, 0)"
        ))
        cfg = CodecConfig(width=64, height=48, num_ref_frames=1)
        cur = rng.integers(0, 256, (48, 64), dtype=np.uint8)
        sf = interpolate_plane(rng.integers(0, 256, (48, 64), dtype=np.uint8))
        me = random_me_field(rng, cfg, 1, reach=0)
        with pytest.raises(RuntimeError, match="off its patch"):
            subpel_refine_rows(cur, [sf], me, 0, 3, cfg)

    def test_one_clamp_limit_for_every_mode_is_killed(self, mutant):
        """Instances of every mode sit in one set of columns, each with its
        own mode's clamp limit: the property must notice the 16×16 limit used
        for all of them (smaller blocks could no longer reach the far edge)."""
        mutant(sme_module, "_instances", lambda source: source.replace(
            "(4 * (h - bh), 4 * (w - bw))", "(4 * (h - 16), 4 * (w - 16))"
        ))
        assert_the_property_fails()

    def test_quarter_ring_two_row_phases_is_killed(self, mutant):
        """The quarter ring reads SF rows ``4i + k`` for ``k < 3``: a gather
        that keeps them only for ``k < 2`` (its third slot row re-reads the
        second) must fail the property, not raise."""
        mutant(sme_module, "_gather_patches", lambda source: source.replace(
            "np.arange(phases_y)", "np.arange(phases_y).clip(max=1)"
        ))
        assert_the_property_fails()

    def test_patch_past_the_sf_raises(self, rng):
        """``sf_rows`` has exactly the positions at which its rows fit, so a
        gather one past the last patch that fits raises, on either ring and
        either axis, instead of reading beyond the SF's buffer."""
        sf = rng.integers(0, 256, (64, 64), dtype=np.uint8)
        windows = sf_rows(sf, 3, 2, 5)
        assert windows.shape == (60, 60, 3)
        got = windows[np.array([59]), np.array([59])]  # a copy, one row an element
        np.testing.assert_array_equal(got.view(np.uint8).reshape(3, 5), sf[59::2, 59:])
        for index in ((60, 0), (0, 60)):
            with pytest.raises(IndexError):
                windows[index]
        run = [(sf, slice(0, 1))]
        bh, bw = 4, 8
        for step in (2, 1):
            # The slots' reach past ``low``: two steps, then the block.
            last = (63 - 2 * step - 4 * (bh - 1), 63 - 2 * step - 4 * (bw - 1))
            slots = sme_module._gather_patches(
                run, np.array(last)[:, None], slice(0, 1), step, (3, 3), (bh, bw)
            )
            for ky in range(3):
                for kx in range(3):
                    y, x = last[0] + step * ky, last[1] + step * kx
                    np.testing.assert_array_equal(
                        slots[ky, kx, :, :, 0], sf[y : y + 4 * bh : 4, x : x + 4 * bw : 4]
                    )
            for past in ((last[0] + 1, 0), (0, last[1] + 1)):
                with pytest.raises(IndexError):
                    sme_module._gather_patches(
                        run, np.array(past)[:, None], slice(0, 1), step, (3, 3), (bh, bw)
                    )

    def test_out_of_frame_mvs_on_every_edge(self, rng):
        """MVs far past each edge clamp to the border position, per candidate."""
        cfg = CodecConfig(width=64, height=48, num_ref_frames=1)
        cur = rng.integers(0, 256, (48, 64), dtype=np.uint8)
        sf = interpolate_plane(rng.integers(0, 256, (48, 64), dtype=np.uint8))
        for dy, dx in ((-200, 0), (200, 0), (0, -200), (0, 200), (200, 200)):
            me = random_me_field(rng, cfg, 1, reach=0)
            for shape in me.mode_shapes:
                me.mvs[shape][...] = (dy, dx)
            got = subpel_refine_rows(cur, [sf], me, 0, 3, cfg)
            assert_fields_identical(got, reference_sme(cur, [sf], me, 0, 3, cfg))


class TestPeakAllocation:
    #: The one-pass-per-ring kernel's peak before the row-width gather
    #: (DESIGN.md "Performance: the SME kernel").
    BUDGET = 4_640_000

    def test_cif_frame_with_two_references(self):
        """A CIF frame's 18 MB rows against 2 SFs peak at ≤ 4.64 MB
        (tracemalloc): one mode's patch and one gather chunk at a time,
        each freed before the next is gathered."""
        cfg = CodecConfig(width=352, height=288, search_range=4, num_ref_frames=2)
        seq = SyntheticSequence(width=352, height=288, seed=11)
        cur, refs = seq.frame(2).y, [seq.frame(1).y, seq.frame(0).y]
        me = motion_estimate_rows(cur, refs, 0, cfg.mb_rows, cfg)
        sfs = [interpolate_plane(r) for r in refs]
        subpel_refine_rows(cur, sfs, me, 0, 1, cfg)  # first-call caches
        tracemalloc.start()
        try:
            subpel_refine_rows(cur, sfs, me, 0, cfg.mb_rows, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= self.BUDGET, f"SME peak {peak / 1e6:.3f} MB"


class TestValidation:
    def test_strided_and_read_only_sfs(self, rng):
        """The gather windows address the SF's buffer: a strided view (copied)
        and a read-only plane score the same as the plain SF."""
        cfg = CodecConfig(width=64, height=48, num_ref_frames=1)
        cur = rng.integers(0, 256, (48, 64), dtype=np.uint8)
        sf = interpolate_plane(rng.integers(0, 256, (48, 64), dtype=np.uint8))
        wide = np.zeros((192, 512), dtype=np.uint8)
        wide[:, ::2] = sf
        read_only = sf.copy()
        read_only.flags.writeable = False
        me = random_me_field(rng, cfg, 1, reach=40)
        want = reference_sme(cur, [sf], me, 0, 3, cfg)
        for plane in (wide[:, ::2], read_only):
            assert_fields_identical(subpel_refine_rows(cur, [plane], me, 0, 3, cfg), want)

    def test_reference_without_an_sf(self, rng, cfg):
        """A field naming reference 1 with one SF must not score garbage."""
        cur = rng.integers(0, 256, (64, 64), dtype=np.uint8)
        sf = interpolate_plane(cur)
        me = random_me_field(rng, cfg, 1, reach=2)
        me.refs[(8, 8)][2, 1, 3] = 1
        with pytest.raises(ValueError, match=r"refs\[\(8, 8\)\].*reference 1.*1 SF"):
            subpel_refine_rows(cur, [sf], me, 0, 4, cfg)
        # Only the refined band is read, so only it is checked.
        subpel_refine_rows(cur, [sf], me, 0, 2, cfg).check_consistent()

    def test_negative_reference(self, rng, cfg):
        cur = rng.integers(0, 256, (64, 64), dtype=np.uint8)
        me = random_me_field(rng, cfg, 1, reach=2)
        me.refs[(16, 16)][0, 0, 0] = -1
        with pytest.raises(ValueError, match="reference -1"):
            subpel_refine_rows(cur, [interpolate_plane(cur)], me, 0, 4, cfg)

    @pytest.mark.parametrize(
        "bad,match",
        [
            (np.zeros((256, 255), dtype=np.uint8), r"sfs\[1\].*\(256, 255\)"),
            (np.zeros((64, 64), dtype=np.uint8), r"sfs\[1\].*\(64, 64\)"),
            (np.zeros((256, 256), dtype=np.int32), r"sfs\[1\].*int32"),
        ],
    )
    def test_misshaped_sf(self, rng, cfg, bad, match):
        cur = rng.integers(0, 256, (64, 64), dtype=np.uint8)
        me = random_me_field(rng, cfg, 1, reach=2)
        with pytest.raises(ValueError, match=match):
            subpel_refine_rows(cur, [interpolate_plane(cur), bad], me, 0, 4, cfg)

    def test_non_uint8_luma(self, rng, cfg):
        cur = rng.integers(0, 256, (64, 64), dtype=np.uint8)
        me = random_me_field(rng, cfg, 1, reach=2)
        with pytest.raises(ValueError, match="uint8 luma"):
            subpel_refine_rows(
                cur.astype(np.int16), [interpolate_plane(cur)], me, 0, 4, cfg
            )


class TestCheckConsistent:
    def test_accepts_kernel_and_merge_outputs(self, rng, cfg):
        cur = rng.integers(0, 256, (64, 64), dtype=np.uint8)
        sf = interpolate_plane(cur)
        me = random_me_field(rng, cfg, 1, reach=3)
        bands = [subpel_refine_rows(cur, [sf], me, r, n, cfg) for r, n in ((0, 1), (1, 3))]
        for band in bands:
            band.check_consistent()
        SubpelField.merge(bands).check_consistent()
        subpel_refine_rows(cur, [sf], me, 2, 0, cfg).check_consistent()

    @pytest.mark.parametrize(
        "name,narrow", [("sads", np.uint16), ("sads", np.int32),
                        ("qmvs", np.int64), ("refs", np.intp)],
    )
    def test_rejects_wrong_dtype(self, rng, cfg, name, narrow):
        cur = rng.integers(0, 256, (64, 64), dtype=np.uint8)
        me = random_me_field(rng, cfg, 1, reach=3)
        f = subpel_refine_rows(cur, [interpolate_plane(cur)], me, 0, 2, cfg)
        getattr(f, name)[(8, 8)] = getattr(f, name)[(8, 8)].astype(narrow)
        with pytest.raises(ValueError, match=f"{name}.*dtype"):
            f.check_consistent()

    def test_rejects_wrong_shape(self, rng, cfg):
        cur = rng.integers(0, 256, (64, 64), dtype=np.uint8)
        me = random_me_field(rng, cfg, 1, reach=3)
        f = subpel_refine_rows(cur, [interpolate_plane(cur)], me, 0, 2, cfg)
        f.qmvs[(16, 16)] = f.qmvs[(16, 16)][:1]
        with pytest.raises(ValueError, match="qmvs.*shape"):
            f.check_consistent()

    def test_merge_rejects_mismatched_geometry(self, rng, cfg):
        cur = rng.integers(0, 256, (64, 64), dtype=np.uint8)
        sf = interpolate_plane(cur)
        me = random_me_field(rng, cfg, 1, reach=3)
        top = subpel_refine_rows(cur, [sf], me, 0, 2, cfg)
        bottom = subpel_refine_rows(cur, [sf], me, 2, 2, cfg)
        fewer = CodecConfig(
            width=64, height=64, search_range=4,
            enabled_partitions=((16, 16), (8, 8)),
        )
        other_modes = subpel_refine_rows(
            cur, [sf], random_me_field(rng, fewer, 1, reach=3), 2, 2, fewer
        )
        with pytest.raises(ValueError, match="modes"):
            SubpelField.merge([top, other_modes])
        narrower = CodecConfig(width=48, height=64, search_range=4)
        other_cols = subpel_refine_rows(
            cur[:, :48], [interpolate_plane(cur[:, :48])],
            random_me_field(rng, narrower, 1, reach=3), 2, 2, narrower,
        )
        with pytest.raises(ValueError, match="mb_cols=3"):
            SubpelField.merge([top, other_cols])
        SubpelField.merge([top, bottom]).check_consistent()
