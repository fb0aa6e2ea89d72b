"""DBL: boundary strengths, the whole-plane phases against the per-edge oracle."""

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

import repro.codec.deblock as deblock_module
from repro.codec.deblock import (
    ALPHA_TABLE,
    BETA_TABLE,
    TC0_TABLE,
    BlockInfo,
    boundary_strengths,
    deblock_frame,
    deblock_plane,
)
from repro.codec.frames import YuvFrame

from oracles import boundary_strength, reference_deblock_plane


def make_info(gh: int, gw: int) -> BlockInfo:
    return BlockInfo(
        mv=np.zeros((gh, gw, 2), dtype=np.int32),
        ref=np.zeros((gh, gw), dtype=np.int32),
        cnz=np.zeros((gh, gw), dtype=bool),
        intra=np.zeros((gh, gw), dtype=bool),
    )


def vertical_edge(info: BlockInfo, k: int) -> np.ndarray:
    """bS along the vertical grid edge between block columns k − 1 and k."""
    return boundary_strengths(info)[0][:, k - 1]


class TestTables:
    def test_table_lengths(self):
        assert len(ALPHA_TABLE) == 52
        assert len(BETA_TABLE) == 52
        assert TC0_TABLE.shape == (3, 52)

    def test_monotone_nondecreasing(self):
        assert (np.diff(ALPHA_TABLE) >= 0).all()
        assert (np.diff(BETA_TABLE) >= 0).all()
        assert (np.diff(TC0_TABLE, axis=1) >= 0).all()

    def test_zero_below_16(self):
        assert (ALPHA_TABLE[:16] == 0).all()
        assert (BETA_TABLE[:16] == 0).all()


class TestBoundaryStrength:
    def test_all_zero_when_static(self):
        bs_v, bs_h = boundary_strengths(make_info(8, 8))
        assert bs_v.shape == (8, 7) and bs_h.shape == (7, 8)
        assert not bs_v.any() and not bs_h.any()

    def test_intra_mb_edge_is_4(self):
        info = make_info(8, 8)
        info.intra[:, 4:] = True
        assert (vertical_edge(info, 4) == 4).all()

    def test_intra_inner_edge_is_3(self):
        info = make_info(8, 8)
        info.intra[:, :] = True
        assert (vertical_edge(info, 1) == 3).all()

    def test_coded_coeffs_give_2(self):
        info = make_info(8, 8)
        info.cnz[:, 4] = True
        assert (vertical_edge(info, 4) == 2).all()

    def test_mv_difference_gives_1(self):
        info = make_info(8, 8)
        info.mv[:, 4:, 1] = 4  # one full pel (4 quarter units)
        assert (vertical_edge(info, 4) == 1).all()

    def test_small_mv_difference_gives_0(self):
        info = make_info(8, 8)
        info.mv[:, 4:, 1] = 3  # < 4 quarter units
        assert (vertical_edge(info, 4) == 0).all()

    def test_ref_difference_gives_1(self):
        info = make_info(8, 8)
        info.ref[:, 4:] = 1
        assert (vertical_edge(info, 4) == 1).all()

    def test_horizontal_axis(self):
        info = make_info(8, 8)
        info.intra[4:, :] = True
        bs = boundary_strengths(info)[1][3]  # between block rows 3 and 4
        assert bs.shape == (8,)
        assert (bs == 4).all()

    def test_priority_intra_over_cnz(self):
        info = make_info(8, 8)
        info.cnz[:, :] = True
        info.intra[:, :] = True
        assert (vertical_edge(info, 4) == 4).all()

    def test_strong_only_on_macroblock_edges(self, rng):
        """What lets the luma phases stop after one link: no two bS 4 adjacent."""
        info = make_info(12, 16)
        info.intra[:] = rng.random((12, 16)) < 0.5
        bs_v, bs_h = boundary_strengths(info)
        assert not (np.delete(bs_v, np.s_[3::4], axis=1) == 4).any()
        assert not (np.delete(bs_h, np.s_[3::4], axis=0) == 4).any()

    def test_skip_rows_zero_their_horizontal_edge_only(self):
        info = make_info(8, 8)
        info.cnz[:, :] = True
        bs_v, bs_h = boundary_strengths(info, frozenset({16, 7, 0, 400}))
        assert (bs_v == 2).all()
        assert not bs_h[3].any() and (np.delete(bs_h, 3, axis=0) == 2).all()

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_grids_equal_the_per_edge_oracle(self, seed):
        rng = np.random.default_rng(seed)
        info = random_info(rng, 8, 12, ("inter", "intra", "mb_mix", "block_mix")[seed % 4])
        bs_v, bs_h = boundary_strengths(info)
        for k in range(1, 12):
            want = boundary_strength(info, axis=1, edge_idx=k, mb_edge=k % 4 == 0)
            np.testing.assert_array_equal(bs_v[:, k - 1], want)
        for k in range(1, 8):
            want = boundary_strength(info, axis=0, edge_idx=k, mb_edge=k % 4 == 0)
            np.testing.assert_array_equal(bs_h[k - 1], want)


class TestDeblockPlane:
    def test_flat_plane_unchanged(self):
        """Filtering a uniform plane is a no-op regardless of bS."""
        plane = np.full((32, 32), 90, dtype=np.uint8)
        info = make_info(8, 8)
        info.intra[:, :] = True  # maximal bS everywhere
        out = deblock_plane(plane, info, qp=40)
        np.testing.assert_array_equal(out, plane)

    def test_blocking_artifact_smoothed(self):
        """A step at an MB edge with bS=4 must shrink."""
        plane = np.full((32, 32), 80, dtype=np.uint8)
        plane[:, 16:] = 95  # step of 15 at MB boundary
        info = make_info(8, 8)
        info.intra[:, :] = True
        out = deblock_plane(plane, info, qp=36)
        step_before = abs(int(plane[0, 16]) - int(plane[0, 15]))
        step_after = abs(int(out[0, 16]) - int(out[0, 15]))
        assert step_after < step_before

    def test_real_edge_preserved_at_low_qp(self):
        """A huge step (real content edge) exceeds alpha and is untouched."""
        plane = np.full((32, 32), 30, dtype=np.uint8)
        plane[:, 16:] = 220
        info = make_info(8, 8)
        info.intra[:, :] = True
        out = deblock_plane(plane, info, qp=20)
        np.testing.assert_array_equal(out, plane)

    def test_bs0_everywhere_is_identity(self, rng):
        plane = rng.integers(0, 256, (32, 32), dtype=np.uint8)
        info = make_info(8, 8)
        out = deblock_plane(plane, info, qp=51)
        np.testing.assert_array_equal(out, plane)

    def test_chroma_plane_shape_and_smoothing(self):
        plane = np.full((16, 16), 80, dtype=np.uint8)  # chroma of a 32x32 frame
        plane[:, 8:] = 92
        info = make_info(8, 8)
        info.intra[:, :] = True
        out = deblock_plane(plane, info, qp=36, chroma=True)
        assert out.shape == plane.shape
        assert abs(int(out[0, 8]) - int(out[0, 7])) < 12

    def test_output_dtype_and_range(self, rng):
        plane = rng.integers(0, 256, (32, 32), dtype=np.uint8)
        info = make_info(8, 8)
        info.cnz[:, :] = True
        out = deblock_plane(plane, info, qp=45)
        assert out.dtype == np.uint8

    def test_input_plane_not_modified(self, rng):
        plane = rng.integers(100, 120, (32, 32), dtype=np.uint8)
        info = make_info(8, 8)
        info.cnz[:, :] = True
        before = plane.copy()
        assert not np.array_equal(deblock_plane(plane, info, qp=45), before)
        np.testing.assert_array_equal(plane, before)


class TestRejectsWhatInt16WouldWrap:
    """The per-edge int32 kernel absorbed all of these silently."""

    @pytest.mark.parametrize(
        "plane, grid, chroma, match",
        [
            # 669 samples were filtered with the wrong block's bS.
            (np.zeros((32, 32), np.uint8), (4, 4), False, r"grid \(4, 4\).*luma plane \(32, 32\)"),
            (np.zeros((32, 32), np.uint8), (16, 16), False, r"grid \(16, 16\).*expected \(8, 8\)"),
            (np.zeros((16, 16), np.uint8), (4, 4), True, r"chroma plane \(16, 16\).*expected \(8, 8\)"),
            (np.zeros((30, 30), np.uint8), (8, 8), False, "not 4x4-aligned"),
            (np.full((32, 32), 300, np.int32), (8, 8), False, "2-D uint8 array, got int32"),
            (np.zeros((32, 32), np.float64), (8, 8), False, "2-D uint8 array, got float64"),
            (np.zeros((2, 32, 32), np.uint8), (8, 8), False, "2-D uint8 array"),
        ],
    )
    def test_plane_and_grid_are_checked(self, plane, grid, chroma, match):
        with pytest.raises(ValueError, match=match):
            deblock_plane(plane, make_info(*grid), 36, chroma=chroma)

    def test_qp_range_checked(self):
        with pytest.raises(ValueError, match="qp must be in"):
            deblock_plane(np.zeros((16, 16), np.uint8), make_info(4, 4), 52)


# --- The whole-plane phases against the per-edge kernel they replaced ------


def random_info(rng: np.random.Generator, gh: int, gw: int, kind: str) -> BlockInfo:
    """BlockInfo of one of the four frame kinds the phases must handle."""
    if kind == "inter":
        intra = np.zeros((gh, gw), dtype=bool)
    elif kind == "intra":
        intra = np.ones((gh, gw), dtype=bool)
    elif kind == "mb_mix":
        per_mb = rng.random((-(-gh // 4), -(-gw // 4))) < 0.5
        intra = np.repeat(np.repeat(per_mb, 4, axis=0), 4, axis=1)[:gh, :gw]
    else:  # per-4×4 mix: bS 3 and 4 change along one edge
        intra = rng.random((gh, gw)) < 0.4
    mv = rng.integers(-6, 7, (gh, gw, 2)).astype(np.int32)
    if rng.random() < 0.5:  # partition-sized MV runs: many bS 0 edges
        mv = np.repeat(np.repeat(mv[::2, ::2], 2, axis=0), 2, axis=1)[:gh, :gw]
    return BlockInfo(
        mv=mv,
        ref=rng.integers(0, 2, (gh, gw)).astype(np.int32),
        cnz=rng.random((gh, gw)) < rng.random(),
        intra=intra,
    )


@st.composite
def dbl_cases(draw):
    """A luma or chroma plane, the BlockInfo of its frame, a QP, skip rows."""
    h, w = 8 * draw(st.integers(2, 8)), 8 * draw(st.integers(2, 8))  # 16..64
    chroma = draw(st.booleans())
    kind = draw(st.sampled_from(["inter", "intra", "mb_mix", "block_mix"]))
    content = draw(st.sampled_from(["blocky", "blocky", "narrow", "uniform"]))
    qp = draw(st.integers(0, 51))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    info = random_info(rng, h // 4, w // 4, kind)
    ph, pw = (h // 2, w // 2) if chroma else (h, w)
    if content == "uniform":
        plane = rng.integers(0, 256, (ph, pw))
    else:
        # Flat 4×4 blocks plus a little texture: steps sit on the grid and
        # stay under α/β, so most edges filter and chains of them form.
        spread = 256 if content == "blocky" else 24
        base = rng.integers(0, spread, (ph // 4, pw // 4)) + (256 - spread) // 2
        plane = np.kron(base, np.ones((4, 4), dtype=np.int64))
        plane += rng.integers(-5, 6, (ph, pw))
    skip = draw(st.sampled_from(["none", "some"]))
    rows = frozenset(
        int(r) for r in rng.choice(np.arange(0, h, 4), size=2)
    ) if skip == "some" else frozenset()
    return np.clip(plane, 0, 255).astype(np.uint8), info, qp, chroma, rows


def check_matches_reference(case) -> None:
    plane, info, qp, chroma, rows = case
    np.testing.assert_array_equal(
        deblock_plane(plane, info, qp, chroma=chroma, skip_luma_rows=rows),
        reference_deblock_plane(plane, info, qp, chroma=chroma, skip_luma_rows=rows),
    )


def rows_of(samples: list[int], height: int = 16) -> np.ndarray:
    """A plane of identical rows: the horizontal pass leaves it alone, so
    row 0 of the result is the vertical pass on ``samples``."""
    return np.tile(np.array(samples, dtype=np.uint8), (height, 1))


class TestMatchesReferenceKernel:
    @given(dbl_cases())
    @settings(max_examples=300, deadline=None)
    def test_identical_to_reference_deblock_plane(self, case):
        check_matches_reference(case)

    def test_frame_shares_the_grids_between_planes(self, rng):
        info = random_info(rng, 8, 12, "block_mix")
        y = rng.integers(90, 130, (32, 48), dtype=np.uint8)
        u, v = y[::2, ::2].copy(), y[1::2, 1::2].copy()
        skip = frozenset({16})
        got = deblock_frame(
            YuvFrame(y, u, v), info.mv, info.ref, info.cnz, info.intra, 38, skip
        )
        for name, plane, chroma in (("y", y, False), ("u", u, True), ("v", v, True)):
            np.testing.assert_array_equal(
                getattr(got, name),
                reference_deblock_plane(plane, info, 38, chroma, skip),
            )

    # One directed case per link the phases rely on. QP 40: α 80, β 13,
    # tc0 1 (bS 1) / 2 (bS 3). In each the *later* edge's outcome depends on
    # what the earlier edge wrote, so an evaluation from unfiltered samples
    # gets it wrong.

    def test_link_normal_to_normal_q1_changes_ap(self):
        """Edge 1's q1′ (113 → 112) brings edge 2's |p2 − p0| under β."""
        plane = rows_of([108] * 4 + [110, 113, 105, 100] + [80] * 8)
        info = make_info(4, 4)
        info.mv[:, 1:, 1], info.mv[:, 2:, 1] = 4, 8  # bS 1 on edges 1 and 2
        out = deblock_plane(plane, info, 40)
        np.testing.assert_array_equal(out, reference_deblock_plane(plane, info, 40))
        # ap on: tc = 3, so p0′ = 100 − 3, and p1 is filtered too.
        assert list(out[0, 5:9]) == [112, 104, 97, 83]
        info.mv[:, 1, 1] = 0  # edge 1 off: p2 stays 113, ap off, tc = 2
        assert list(deblock_plane(plane, info, 40)[0, 5:9]) == [113, 105, 98, 82]

    def test_link_strong_to_normal_q2_changes_filter_decision(self):
        """Strong edge 4's q2′ (113 → 108) switches edge 5 on: |p1 − p0| < β."""
        plane = rows_of([104] * 16 + [108, 110, 113, 100] + [80] * 12)
        info = make_info(4, 8)
        info.intra[:, :4], info.ref[:, :4] = True, -1  # bS 4 on edge 4
        info.mv[:, 5:, 1] = 4  # bS 1 on edge 5
        out = deblock_plane(plane, info, 40)
        np.testing.assert_array_equal(out, reference_deblock_plane(plane, info, 40))
        assert list(out[0, 18:21]) == [107, 97, 83]
        info.intra[:, :4], info.ref[:, :4] = False, 0  # edge 4 off (bS 0)
        assert list(deblock_plane(plane, info, 40)[0, 18:21]) == [113, 100, 80]

    def test_link_normal_to_strong_q0_enters_p2(self):
        """Strong edge 4's p2′ averages p3 = edge 3's q0′ (100 → 104)."""
        plane = rows_of([120] * 12 + [100] * 4 + [96] * 16)
        info = make_info(4, 8)
        info.intra[:, :4], info.ref[:, :4] = True, -1  # bS 3 edge 3, bS 4 edge 4
        out = deblock_plane(plane, info, 40)
        np.testing.assert_array_equal(out, reference_deblock_plane(plane, info, 40))
        # p2′ = (2·104 + 3·102 + 100 + 100 + 96 + 4) >> 3 = 101; from the
        # unfiltered p3 = p2 = 100 it would be 800 >> 3 = 100.
        assert list(out[0, 12:16]) == [104, 101, 100, 99]


class TestMutantsAreKilled:
    """The equivalence property must notice each dependency being broken."""

    @staticmethod
    def property_fails() -> None:
        run = settings(
            max_examples=300, deadline=None, derandomize=True, database=None,
            phases=[Phase.generate],
        )(given(dbl_cases())(check_matches_reference))
        with pytest.raises(AssertionError):
            run()

    def test_phase_c_reading_unfiltered_p2(self, mutant):
        """ap taken from p2 as it was before phase B wrote q1′ into it."""
        keep, stale = "q0_in, q1_in = q0.copy(), q1.copy()", "ap = np.abs(p2 - p0)"

        def edit(source: str) -> str:
            assert source.count(keep) == source.count(stale) == 1
            return source.replace(
                keep, "q0_in, q1_in, p2_in = q0.copy(), q1.copy(), p2.copy()"
            ).replace(stale, "ap = np.abs(p2_in - p0)")

        mutant(deblock_module, "_filter_luma", edit)
        self.property_fails()
        with pytest.raises(AssertionError):
            TestMatchesReferenceKernel().test_link_normal_to_normal_q1_changes_ap()

    def test_phases_b_and_c_swapped(self, mutant):
        def edit(source: str) -> str:
            b, c = source.index("    # B —"), source.index("    # C —")
            d = source.rindex("    if any_strong:")
            assert b < c < d
            return source[:b] + source[c:d] + source[b:c] + source[d:]

        mutant(deblock_module, "_filter_luma", edit)
        self.property_fails()
        with pytest.raises(AssertionError):
            TestMatchesReferenceKernel().test_link_normal_to_normal_q1_changes_ap()
