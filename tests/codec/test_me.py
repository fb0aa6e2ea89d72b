"""FSBM Motion Estimation: exactness, determinism, multi-reference."""

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from repro.codec import me as me_module
from repro.codec.config import PARTITION_MODES, CodecConfig
from repro.codec.me import MotionField, motion_estimate_rows
from repro.codec.frames import pad_plane

from oracles import reference_fsbm, sad


def shifted(ref: np.ndarray, dy: int, dx: int) -> np.ndarray:
    """Current frame whose content at (y,x) equals ref at (y+dy, x+dx)."""
    h, w = ref.shape
    pad = max(abs(dy), abs(dx))
    p = np.pad(ref, pad, mode="wrap")
    return p[pad + dy : pad + dy + h, pad + dx : pad + dx + w].copy()


def assert_fields_identical(got: MotionField, want: MotionField) -> None:
    """Field-by-field equality, dtypes included; ``got`` must self-check."""
    got.check_consistent()
    assert (got.row0, got.nrows, got.mb_cols) == (want.row0, want.nrows, want.mb_cols)
    assert got.mode_shapes == want.mode_shapes
    for shape in want.mode_shapes:
        for name in ("sads", "refs", "mvs"):
            a, b = getattr(got, name)[shape], getattr(want, name)[shape]
            assert a.dtype == b.dtype, (name, shape)
            np.testing.assert_array_equal(a, b, err_msg=f"{name}[{shape}]")


@st.composite
def fsbm_cases(draw):
    """A small plane, 1-3 references and a search configuration."""
    mb_cols = draw(st.integers(1, 6))  # widths 16..96
    mb_rows = draw(st.integers(1, 3))
    sr = draw(st.sampled_from([1, 2, 3, 4, 5, 8, 16, 32]))
    n_refs = draw(st.integers(1, 3))
    extra = draw(st.sets(st.sampled_from(PARTITION_MODES[1:])))
    cfg = CodecConfig(
        width=16 * mb_cols, height=16 * mb_rows, search_range=sr,
        num_ref_frames=n_refs,
        enabled_partitions=tuple(
            m for m in PARTITION_MODES if m == (16, 16) or m in extra
        ),
    )
    row0 = draw(st.integers(0, mb_rows - 1))
    nrows = draw(st.integers(0, mb_rows - row0))
    # Few grey levels => many equal SADs => the tie-break order matters.
    levels = draw(st.sampled_from([1, 2, 4, 256]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    planes = [
        (rng.integers(0, levels, (cfg.height, cfg.width)) * (256 // levels)).astype(
            np.uint8
        )
        for _ in range(n_refs + 1)
    ]
    return cfg, planes[0], planes[1:], row0, nrows, draw(st.booleans())


class TestMatchesReferenceKernel:
    @given(fsbm_cases())
    @settings(max_examples=60, deadline=None)
    def test_identical_to_reference_fsbm(self, case):
        cfg, cur, refs, row0, nrows, prepadded = case
        if prepadded:
            refs = [pad_plane(r, cfg.search_range) for r in refs]
        got = motion_estimate_rows(cur, refs, row0, nrows, cfg, refs_prepadded=prepadded)
        want = reference_fsbm(cur, refs, row0, nrows, cfg, refs_prepadded=prepadded)
        assert_fields_identical(got, want)

    def test_flat_plane_two_identical_refs(self):
        """Every candidate ties: ref 0 and the first (dy, dx) must win."""
        cfg = CodecConfig(width=48, height=32, search_range=4, num_ref_frames=2)
        flat = np.full((32, 48), 90, dtype=np.uint8)
        f = motion_estimate_rows(flat, [flat, flat.copy()], 0, 2, cfg)
        for shape in f.mode_shapes:
            assert (f.sads[shape] == 0).all()
            assert (f.refs[shape] == 0).all()
            assert (f.mvs[shape] == -4).all()
        assert_fields_identical(f, reference_fsbm(flat, [flat, flat], 0, 2, cfg))

    def test_coarsely_quantised_content(self, rng):
        cfg = CodecConfig(width=96, height=48, search_range=8, num_ref_frames=3)
        cur, *refs = [
            (rng.integers(0, 3, (48, 96)) * 100).astype(np.uint8) for _ in range(4)
        ]
        assert_fields_identical(
            motion_estimate_rows(cur, refs, 0, 3, cfg),
            reference_fsbm(cur, refs, 0, 3, cfg),
        )

    @pytest.mark.parametrize("sr", [1, 16])
    def test_worst_case_sad_does_not_overflow(self, sr):
        """All-0 against all-255: 16x16 SAD = 65 280, exact in every mode."""
        cfg = CodecConfig(width=32, height=16, search_range=sr)
        cur = np.zeros((16, 32), dtype=np.uint8)
        ref = np.full((16, 32), 255, dtype=np.uint8)
        f = motion_estimate_rows(cur, [ref], 0, 1, cfg)
        for h, w in f.mode_shapes:
            assert (f.sads[(h, w)] == h * w * 255).all()
            assert (f.mvs[(h, w)] == -sr).all()
        assert f.sads[(16, 16)].max() == 65_280
        assert_fields_identical(f, reference_fsbm(cur, [ref], 0, 1, cfg))


class TestDyBatches:
    """A pass takes ``nb`` whole ``dy`` rows; the hypothesis planes (at most
    96 pels wide) mostly take the whole window at once, so each way the
    budget can split a window is pinned here on planes wide enough for it."""

    @pytest.mark.parametrize("sr,width,split", [
        (4, 352, "whole"),    # 9 rows of 50 KB: the enc_sa8_rf2 batch
        (2, 96, "whole"),
        (7, 352, "part"),     # 15 rows of 82 KB: batches of 5
        (13, 352, "part"),    # 27 rows of 148 KB: batches of 3
        (16, 96, "part"),     # 33 rows of 50 KB: batches of 3
        (16, 352, "single"),  # 33 rows of 182 KB: the enc_sa32 batch
        (8, 352, "single"),   # 17 rows of 94 KB: 17 is prime
    ])
    def test_identical_to_reference_fsbm(self, rng, sr, width, split):
        nb, ndx = me_module.dy_batch(sr, width), 2 * sr + 1
        assert ndx % nb == 0
        assert {"whole": nb == ndx, "part": 1 < nb < ndx, "single": nb == 1}[split]
        cfg = CodecConfig(width=width, height=32, search_range=sr, num_ref_frames=2)
        # Four grey levels: many equal SADs, inside and across batches.
        cur, *refs = [
            (rng.integers(0, 4, (32, width)) * 64).astype(np.uint8) for _ in range(3)
        ]
        assert_fields_identical(
            motion_estimate_rows(cur, refs, 0, 2, cfg),
            reference_fsbm(cur, refs, 0, 2, cfg),
        )

    def test_batch_is_the_largest_divisor_inside_the_budget(self):
        for sr in range(1, 40):
            for width in (16, 96, 352, 1920):
                ndx = 2 * sr + 1
                nb = me_module.dy_batch(sr, width)
                row_bytes = ndx * 16 * width
                assert ndx % nb == 0
                assert nb == 1 or nb * row_bytes <= me_module.WINDOW_BUDGET
                assert not any(
                    ndx % k == 0 and k * row_bytes <= me_module.WINDOW_BUDGET
                    for k in range(nb + 1, ndx + 1)
                )


class TestKeyWidths:
    """The search key is ``SAD · 2¹⁶ + (ref · (2·sr + 1) + dy_index)`` in uint32."""

    def test_key_bounds_follow_from_the_config_limits(self):
        max_refs, max_sr = 16, 256
        CodecConfig(num_ref_frames=max_refs, search_range=max_sr)  # accepted
        for beyond in ({"num_ref_frames": max_refs + 1}, {"search_range": max_sr + 1}):
            with pytest.raises(ValueError):
                CodecConfig(**beyond)
        tags = max_refs * (2 * max_sr + 1)  # one per (ref, dy)
        assert tags == 16 * 513 == 8_208 < 2**me_module._TAG_BITS
        assert 65_280 * 2**me_module._TAG_BITS + tags - 1 < 2**32

    def test_worst_sad_with_the_largest_tag_in_use(self):
        """All-0 against all-255 in the last of 16 references: every key is
        65 280 · 2¹⁶ + tag, the winner's the first tag, nothing wraps."""
        cfg = CodecConfig(width=16, height=16, search_range=2, num_ref_frames=16)
        cur = np.zeros((16, 16), dtype=np.uint8)
        refs = [np.full((16, 16), 255, dtype=np.uint8)] * 16
        f = motion_estimate_rows(cur, refs, 0, 1, cfg)
        assert f.sads[(16, 16)][0, 0, 0] == 65_280
        assert f.refs[(16, 16)][0, 0, 0] == 0
        assert tuple(f.mvs[(16, 16)][0, 0, 0]) == (-2, -2)
        # A perfect match in the last reference at the last (dy, dx) — the
        # largest tag — still wins.
        last = np.full((20, 20), 255, dtype=np.uint8)
        last[4:, 4:] = 0
        padded = [pad_plane(r, 2) for r in refs[:-1]] + [last]
        f = motion_estimate_rows(cur, padded, 0, 1, cfg, refs_prepadded=True)
        assert f.sads[(16, 16)][0, 0, 0] == 0
        assert f.refs[(16, 16)][0, 0, 0] == 15
        assert tuple(f.mvs[(16, 16)][0, 0, 0]) == (2, 2)


def planted(copies, size: int = 48) -> np.ndarray:
    """A bright plane with the dark pattern of :func:`centre_mb` copied to
    each displacement ``(dy, dx)`` from the centre MB of a 3×3-MB frame."""
    plane = np.full((size, size), 255, dtype=np.uint8)
    for dy, dx in copies:
        plane[16 + dy : 32 + dy, 16 + dx : 32 + dx] = centre_mb()
    return plane


def centre_mb() -> np.ndarray:
    return np.random.default_rng(7).integers(0, 64, (16, 16), dtype=np.uint8)


class TestTieBreakOrder:
    """Equal SADs on constructed planes, winner derived by hand.

    The current frame is bright except its centre MB, a dark random
    pattern; each reference is bright except exact copies of that pattern.
    Every sub-partition of the centre MB has SAD 0 at each copy and a
    large SAD anywhere else, so the copies tie and only the order decides.
    """

    CFG = CodecConfig(width=48, height=48, search_range=8, num_ref_frames=2)

    def winner(self, *refs_copies):
        refs = [planted(copies) for copies in refs_copies]
        # Looked up at call time: the mutant tests below run these cases too.
        f = me_module.motion_estimate_rows(planted([(0, 0)]), refs, 1, 1, self.CFG)
        assert_fields_identical(
            f, reference_fsbm(planted([(0, 0)]), refs, 1, 1, self.CFG)
        )
        won = set()
        for shape in f.mode_shapes:
            assert (f.sads[shape][0, 1] == 0).all()
            for p in range(f.sads[shape].shape[2]):
                won.add((int(f.refs[shape][0, 1, p]), *map(int, f.mvs[shape][0, 1, p])))
        assert len(won) == 1
        return won.pop()

    def test_two_dx_of_one_row(self):
        assert self.winner([(0, -8), (0, 8)]) == (0, 0, -8)

    def test_two_dy(self):
        assert self.winner([(-8, 0), (8, 0)]) == (0, -8, 0)

    def test_two_references(self):
        """The earlier reference wins although the later one's copy sits at
        a smaller dy and a smaller dx."""
        assert self.winner([(3, 5)], [(-2, -4)]) == (0, 3, 5)

    def test_smaller_dy_beats_smaller_dx(self):
        assert self.winner([(8, -8), (-8, 8)]) == (0, -8, 8)


def check_matches_reference(case) -> None:
    """The property of :class:`TestMatchesReferenceKernel`, looking the kernel
    up at call time so that an installed mutant is what runs."""
    cfg, cur, refs, row0, nrows, prepadded = case
    if prepadded:
        refs = [pad_plane(r, cfg.search_range) for r in refs]
    got = me_module.motion_estimate_rows(
        cur, refs, row0, nrows, cfg, refs_prepadded=prepadded
    )
    want = reference_fsbm(cur, refs, row0, nrows, cfg, refs_prepadded=prepadded)
    assert_fields_identical(got, want)


class TestMutantsAreKilled:
    """The equivalence property must notice each piece of the order broken."""

    @staticmethod
    def property_fails() -> None:
        run = settings(
            max_examples=60, deadline=None, derandomize=True, database=None,
            phases=[Phase.generate],
        )(given(fsbm_cases())(check_matches_reference))
        with pytest.raises(AssertionError):
            run()

    @staticmethod
    def swap(*pairs: tuple[str, str]):
        def edit(source: str) -> str:
            for old, new in pairs:
                assert source.count(old) == 1, old
                source = source.replace(old, new)
            return source

        return edit

    def test_unmutated_property_holds(self):
        with pytest.raises(pytest.fail.Exception, match="DID NOT RAISE"):
            self.property_fails()

    def test_box_table_read_one_column_late(self, mutant):
        mutant(me_module, "motion_estimate_rows", self.swap((
            "sliding_window_view(box_sums(ref_pad[band]), ndx, axis=1)[:, ::4]",
            "np.roll(sliding_window_view(box_sums(ref_pad[band]), ndx, axis=1), -1, axis=1)"
            "[:, ::4]",
        )))
        self.property_fails()

    def test_last_minimum_over_dx(self, mutant):
        mutant(me_module, "motion_estimate_rows", self.swap((
            "np.argmin(row_best, axis=1, out=win_dx[out_r])",
            "win_dx[out_r] = ndx - 1 - np.argmin(row_best[:, ::-1], axis=1)",
        )))
        self.property_fails()
        with pytest.raises(AssertionError):
            TestTieBreakOrder().test_two_dx_of_one_row()

    def test_key_carrying_dx_reduced_over_ref_and_dy(self, mutant):
        """The parent's key, the new reduction: ``(SAD, dx)`` ordered keys
        whose running minimum forgets which ``(ref, dy)`` it came from."""
        mutant(me_module, "motion_estimate_rows", self.swap((
            "np.bitwise_or(key_rows, tags[ref_idx, b], out=key_rows)",
            "keys |= np.tile(np.arange(ndx, dtype=np.uint32), nb)[:, None]",
        )))
        self.property_fails()

    def test_references_folded_newest_last(self, mutant):
        mutant(me_module, "motion_estimate_rows", self.swap(
            ("tags[ref_idx, b]", "tags[len(padded_refs) - 1 - ref_idx, b]"),
            ("refs = tag // ndx", "refs = len(padded_refs) - 1 - tag // ndx"),
        ))
        self.property_fails()
        with pytest.raises(AssertionError):
            TestTieBreakOrder().test_two_references()

    def test_batch_rows_all_tagged_with_its_first_dy(self, mutant):
        """Every ``dy`` row of a batch keyed as the batch's first: ties and
        winners inside a batch report the wrong ``dy``."""
        mutant(me_module, "motion_estimate_rows", self.swap(
            ("tags[ref_idx, b]", "tags[ref_idx, b, :1]"),
        ))
        self.property_fails()

    def test_b_view_cell_row_stride_off_by_one(self, mutant):
        """Cell row ``cy`` of the strided B view read ``3·cy`` box rows down,
        not ``4·cy``: still inside the strip, wrong sums."""
        mutant(me_module, "motion_estimate_rows", self.swap(
            ("(nb * row, 4 * row, col,", "(nb * row, 3 * row, col,"),
        ))
        self.property_fails()


class TestCheckConsistent:
    def test_accepts_kernel_slice_and_merge_outputs(self, rng, cfg64):
        ref = rng.integers(0, 256, (64, 64), dtype=np.uint8)
        cur = rng.integers(0, 256, (64, 64), dtype=np.uint8)
        full = motion_estimate_rows(cur, [ref], 0, 4, cfg64)
        full.check_consistent()
        full.slice_rows(1, 2).check_consistent()
        MotionField.merge([full.slice_rows(0, 1), full.slice_rows(1, 3)]).check_consistent()

    @pytest.mark.parametrize(
        "name,narrow", [("sads", np.uint16), ("sads", np.int32),
                        ("mvs", np.int64), ("refs", np.intp)],
    )
    def test_rejects_wrong_dtype(self, rng, cfg64, name, narrow):
        ref = rng.integers(0, 256, (64, 64), dtype=np.uint8)
        f = motion_estimate_rows(ref, [ref], 0, 2, cfg64)
        getattr(f, name)[(8, 8)] = getattr(f, name)[(8, 8)].astype(narrow)
        with pytest.raises(ValueError, match=f"{name}.*dtype"):
            f.check_consistent()
        with pytest.raises(ValueError, match="dtype"):
            f.slice_rows(0, 1).check_consistent()
        with pytest.raises(ValueError, match="dtype"):
            MotionField.merge([f.slice_rows(0, 1), f.slice_rows(1, 1)]).check_consistent()

    def test_rejects_wrong_shape(self, rng, cfg64):
        ref = rng.integers(0, 256, (64, 64), dtype=np.uint8)
        f = motion_estimate_rows(ref, [ref], 0, 2, cfg64)
        f.refs[(16, 16)] = f.refs[(16, 16)][:1]
        with pytest.raises(ValueError, match="refs.*shape"):
            f.check_consistent()


@pytest.fixture
def cfg64():
    return CodecConfig(width=64, height=64, search_range=6, num_ref_frames=1)


class TestFullSearchExactness:
    @given(
        dy=st.integers(min_value=-6, max_value=6),
        dx=st.integers(min_value=-6, max_value=6),
    )
    @settings(max_examples=20, deadline=None)
    def test_finds_planted_translation(self, dy, dx):
        """Full search must recover any translation within the SA exactly."""
        rng = np.random.default_rng(1)
        ref = rng.integers(0, 256, (64, 64), dtype=np.uint8)
        cur = shifted(ref, dy, dx)
        cfg = CodecConfig(width=64, height=64, search_range=6)
        f = motion_estimate_rows(cur, [ref], 0, 4, cfg)
        # Interior MBs (away from wrap artifacts) must find (dy, dx) with SAD 0.
        inner = f.mvs[(16, 16)][1:-1, 1:-1, 0, :]
        sads = f.sads[(16, 16)][1:-1, 1:-1, 0]
        assert (sads == 0).all()
        assert (inner[..., 0] == dy).all()
        assert (inner[..., 1] == dx).all()

    def test_zero_motion_on_identical_frames(self, rng, cfg64):
        ref = rng.integers(0, 256, (64, 64), dtype=np.uint8)
        f = motion_estimate_rows(ref, [ref], 0, 4, cfg64)
        for shape in f.mode_shapes:
            assert (f.sads[shape] == 0).all()
            assert (f.mvs[shape] == 0).all()

    def test_subpartitions_track_independent_motion(self, rng):
        """Two halves of an MB moving differently get different (8,16) MVs."""
        ref = rng.integers(0, 256, (64, 64), dtype=np.uint8)
        cur = ref.copy()
        # Shift only the top half of MB (1,1) by (0, 2).
        cur[16:24, 16:32] = ref[16:24, 18:34]
        cfg = CodecConfig(width=64, height=64, search_range=4)
        f = motion_estimate_rows(cur, [ref], 1, 1, cfg)
        top_mv = f.mvs[(8, 16)][0, 1, 0]  # (h=8, w=16): top / bottom halves
        bot_mv = f.mvs[(8, 16)][0, 1, 1]
        assert tuple(top_mv) == (0, 2)
        assert tuple(bot_mv) == (0, 0)

    def test_sad_never_worse_than_zero_mv(self, rng, cfg64):
        ref = rng.integers(0, 256, (64, 64), dtype=np.uint8)
        cur = rng.integers(0, 256, (64, 64), dtype=np.uint8)
        f = motion_estimate_rows(cur, [ref], 0, 4, cfg64)
        for r in range(4):
            for c in range(4):
                zero_sad = sad(
                    cur[16 * r : 16 * r + 16, 16 * c : 16 * c + 16],
                    ref[16 * r : 16 * r + 16, 16 * c : 16 * c + 16],
                )
                assert f.sads[(16, 16)][r, c, 0] <= zero_sad


class TestMultiReference:
    def test_best_reference_selected(self, rng):
        """A frame identical to ref1 (not ref0) must pick ref index 1."""
        ref0 = rng.integers(0, 256, (64, 64), dtype=np.uint8)
        ref1 = rng.integers(0, 256, (64, 64), dtype=np.uint8)
        cfg = CodecConfig(width=64, height=64, search_range=4, num_ref_frames=2)
        f = motion_estimate_rows(ref1, [ref0, ref1], 0, 4, cfg)
        assert (f.refs[(16, 16)] == 1).all()
        assert (f.sads[(16, 16)] == 0).all()

    def test_ties_prefer_earlier_reference(self, rng):
        ref = rng.integers(0, 256, (64, 64), dtype=np.uint8)
        cfg = CodecConfig(width=64, height=64, search_range=4, num_ref_frames=2)
        f = motion_estimate_rows(ref, [ref, ref], 0, 4, cfg)
        assert (f.refs[(16, 16)] == 0).all()

    def test_ref_limit_respected(self, rng):
        ref0 = rng.integers(0, 256, (64, 64), dtype=np.uint8)
        ref1 = rng.integers(0, 256, (64, 64), dtype=np.uint8)
        cfg = CodecConfig(width=64, height=64, search_range=4, num_ref_frames=1)
        # ref1 matches cur exactly but is beyond the configured limit.
        f = motion_estimate_rows(ref1, [ref0, ref1], 0, 4, cfg)
        assert (f.refs[(16, 16)] == 0).all()


class TestBandsAndMerge:
    def test_band_matches_full_frame(self, rng, cfg64):
        ref = rng.integers(0, 256, (64, 64), dtype=np.uint8)
        cur = rng.integers(0, 256, (64, 64), dtype=np.uint8)
        full = motion_estimate_rows(cur, [ref], 0, 4, cfg64)
        band = motion_estimate_rows(cur, [ref], 1, 2, cfg64)
        for shape in full.mode_shapes:
            np.testing.assert_array_equal(band.mvs[shape], full.mvs[shape][1:3])
            np.testing.assert_array_equal(band.sads[shape], full.sads[shape][1:3])

    def test_merge_reassembles_full_field(self, rng, cfg64):
        ref = rng.integers(0, 256, (64, 64), dtype=np.uint8)
        cur = rng.integers(0, 256, (64, 64), dtype=np.uint8)
        full = motion_estimate_rows(cur, [ref], 0, 4, cfg64)
        parts = [
            motion_estimate_rows(cur, [ref], 0, 1, cfg64),
            motion_estimate_rows(cur, [ref], 1, 2, cfg64),
            motion_estimate_rows(cur, [ref], 3, 1, cfg64),
        ]
        merged = MotionField.merge(parts)
        for shape in full.mode_shapes:
            np.testing.assert_array_equal(merged.mvs[shape], full.mvs[shape])
            np.testing.assert_array_equal(merged.refs[shape], full.refs[shape])

    def test_merge_rejects_gap(self, rng, cfg64):
        ref = rng.integers(0, 256, (64, 64), dtype=np.uint8)
        cur = rng.integers(0, 256, (64, 64), dtype=np.uint8)
        a = motion_estimate_rows(cur, [ref], 0, 1, cfg64)
        c = motion_estimate_rows(cur, [ref], 2, 1, cfg64)
        with pytest.raises(ValueError, match="contiguous"):
            MotionField.merge([a, c])

    def test_merge_rejects_other_geometry(self, rng, cfg64):
        """A band from another configuration — narrower, or with fewer
        partition modes — is named, not concatenated."""
        ref = rng.integers(0, 256, (64, 64), dtype=np.uint8)
        top = motion_estimate_rows(ref, [ref], 0, 2, cfg64)
        narrower = CodecConfig(width=48, height=64, search_range=cfg64.search_range)
        other_cols = motion_estimate_rows(ref[:, :48], [ref[:, :48]], 2, 2, narrower)
        with pytest.raises(ValueError, match="mb_cols=3"):
            MotionField.merge([top, other_cols])
        fewer = CodecConfig(
            width=64, height=64, search_range=cfg64.search_range,
            enabled_partitions=((16, 16), (8, 8)),
        )
        other_modes = motion_estimate_rows(ref, [ref], 2, 2, fewer)
        with pytest.raises(ValueError, match="modes"):
            MotionField.merge([top, other_modes])

    def test_merge_empty_rejected(self):
        with pytest.raises(ValueError):
            MotionField.merge([])

    def test_zero_rows_band(self, rng, cfg64):
        ref = rng.integers(0, 256, (64, 64), dtype=np.uint8)
        cur = rng.integers(0, 256, (64, 64), dtype=np.uint8)
        f = motion_estimate_rows(cur, [ref], 2, 0, cfg64)
        assert f.nrows == 0
        assert f.mvs[(16, 16)].shape[0] == 0


class TestValidation:
    def test_band_out_of_range(self, rng, cfg64):
        ref = rng.integers(0, 256, (64, 64), dtype=np.uint8)
        with pytest.raises(ValueError):
            motion_estimate_rows(ref, [ref], 3, 2, cfg64)

    def test_requires_reference(self, rng, cfg64):
        cur = rng.integers(0, 256, (64, 64), dtype=np.uint8)
        with pytest.raises(ValueError):
            motion_estimate_rows(cur, [], 0, 1, cfg64)

    def test_prepadded_path_matches(self, rng, cfg64):
        ref = rng.integers(0, 256, (64, 64), dtype=np.uint8)
        cur = rng.integers(0, 256, (64, 64), dtype=np.uint8)
        a = motion_estimate_rows(cur, [ref], 0, 4, cfg64)
        padded = pad_plane(ref, cfg64.search_range)
        b = motion_estimate_rows(cur, [padded], 0, 4, cfg64, refs_prepadded=True)
        for shape in a.mode_shapes:
            np.testing.assert_array_equal(a.mvs[shape], b.mvs[shape])

    def test_wrong_prepadded_shape(self, rng, cfg64):
        ref = rng.integers(0, 256, (64, 64), dtype=np.uint8)
        with pytest.raises(ValueError, match="pre-padded"):
            motion_estimate_rows(ref, [ref], 0, 1, cfg64, refs_prepadded=True)
