"""MC: motion-compensated prediction against the kernel it replaced."""

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

import repro.codec.mc as mc_module
from repro.codec.config import MB_SIZE, PARTITION_MODES, CodecConfig
from repro.codec.interpolation import interpolate_plane
from repro.codec.me import motion_estimate_rows
from repro.codec.partitions import get_mode
from repro.codec.sme import subpel_refine_rows

from oracles import reference_build_prediction

#: The parser's bound on a quarter-pel MV component (``codec/syntax.py``).
MV_BOUND = 1 << 16


def planes(rng: np.random.Generator, h: int, w: int, n_refs: int):
    """``n_refs`` random references: their SFs and ``(u, v)`` chroma planes."""
    sfs, chroma = [], []
    for _ in range(n_refs):
        sfs.append(interpolate_plane(rng.integers(0, 256, (h, w), dtype=np.uint8)))
        chroma.append(tuple(
            rng.integers(0, 256, (h // 2, w // 2), dtype=np.uint8) for _ in range(2)
        ))
    return sfs, chroma


@st.composite
def mc_cases(draw):
    """A 1–6 × 1–6 MB frame, 1–3 references, a mode subset and per-mode MVs."""
    mb_rows, mb_cols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    h, w = MB_SIZE * mb_rows, MB_SIZE * mb_cols
    n_refs = draw(st.integers(1, 3))
    extra = draw(st.sets(st.sampled_from(PARTITION_MODES[1:])))
    shapes = tuple(m for m in PARTITION_MODES if m == (16, 16) or m in extra)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # short: quarter-pel MVs inside the frame; fullpel: what subpel=False
    # hands MC (4·MV, never clamped); edges: far past every edge; bound: the
    # largest component the parser admits.
    kind = draw(st.sampled_from(["short", "fullpel", "edges", "bound"]))
    far = 4 * (MB_SIZE * max(mb_rows, mb_cols) + 24)
    qmvs, refs = {}, {}
    for shape in shapes:
        dims = (mb_rows, mb_cols, get_mode(shape).nparts)
        if kind == "short":
            qmv = rng.integers(-9, 10, dims + (2,))
        elif kind == "fullpel":
            qmv = 4 * rng.integers(-far // 4, far // 4 + 1, dims + (2,))
        elif kind == "edges":
            qmv = rng.integers(-far, far + 1, dims + (2,))
        else:
            qmv = rng.choice([-MV_BOUND, -MV_BOUND + 3, MV_BOUND - 5, MV_BOUND], dims + (2,))
        qmvs[shape] = qmv.astype(np.int32)
        refs[shape] = rng.integers(0, n_refs, dims).astype(np.int32)
    mode_idx = rng.integers(0, len(shapes), (mb_rows, mb_cols))
    sfs, chroma = planes(rng, h, w, n_refs)
    return mode_idx, shapes, qmvs, refs, sfs, chroma, h, w


def assert_predictions_identical(got, want) -> None:
    (pred, mv4, ref4), (want_pred, want_mv4, want_ref4) = got, want
    for name in ("y", "u", "v"):
        a, b = getattr(pred, name), getattr(want_pred, name)
        assert a.dtype == b.dtype, name
        np.testing.assert_array_equal(a, b, err_msg=name)
    for a, b, name in ((mv4, want_mv4, "mv4"), (ref4, want_ref4, "ref4")):
        assert a.dtype == b.dtype, name
        np.testing.assert_array_equal(a, b, err_msg=name)


def check_matches_reference(case) -> None:
    """Looks the kernel up at call time, so an installed mutant is what runs."""
    assert_predictions_identical(
        mc_module.build_prediction(*case), reference_build_prediction(*case)
    )


class TestMatchesReferenceKernel:
    @given(mc_cases())
    @settings(max_examples=80, deadline=None)
    def test_identical_to_reference_build_prediction(self, case):
        check_matches_reference(case)

    @pytest.mark.parametrize("sign", [1, -1])
    def test_mvs_at_the_parser_bound(self, sign):
        """Every partition ±2¹⁶ quarter-pels away: all reads clamp to a border,
        and the chroma pad stays one block wide."""
        rng = np.random.default_rng(11)
        h, w = 48, 64
        shapes = PARTITION_MODES
        qmvs = {
            s: np.full((3, 4, get_mode(s).nparts, 2), sign * MV_BOUND, dtype=np.int32)
            for s in shapes
        }
        refs = {s: rng.integers(0, 2, (3, 4, get_mode(s).nparts)).astype(np.int32)
                for s in shapes}
        mode_idx = rng.integers(0, len(shapes), (3, 4))
        sfs, chroma = planes(rng, h, w, 2)
        case = (mode_idx, shapes, qmvs, refs, sfs, chroma, h, w)
        check_matches_reference(case)

    @pytest.mark.parametrize("subpel", [False, True])
    def test_encoder_fields(self, rng, subpel):
        """Fields from the real ME → SME path; with ``subpel=False`` the
        chroma positions are 4·MV, unclamped."""
        cfg = CodecConfig(
            width=64, height=48, search_range=8, num_ref_frames=2, subpel=subpel
        )
        lumas = [rng.integers(0, 256, (48, 64), dtype=np.uint8) for _ in range(2)]
        cur = np.roll(lumas[1], (3, -5), axis=(0, 1))
        me = motion_estimate_rows(cur, lumas, 0, cfg.mb_rows, cfg)
        sfs = [interpolate_plane(y) for y in lumas]
        field = subpel_refine_rows(cur, sfs, me, 0, cfg.mb_rows, cfg)
        chroma = [(y[::2, ::2].copy(), y[1::2, 1::2].copy()) for y in lumas]
        for mode_i in range(len(field.mode_shapes)):
            mode_idx = np.full((cfg.mb_rows, cfg.mb_cols), mode_i)
            mode_idx[1] = (mode_i + 1) % len(field.mode_shapes)
            check_matches_reference((
                mode_idx, field.mode_shapes, field.qmvs, field.refs,
                sfs, chroma, 48, 64,
            ))


class TestMutantsAreKilled:
    @staticmethod
    def property_fails() -> None:
        run = settings(
            max_examples=60, deadline=None, derandomize=True, database=None,
            phases=[Phase.generate],
        )(given(mc_cases())(check_matches_reference))
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

    def test_chroma_weights_swapped(self, mutant):
        mutant(mc_module, "_chroma_predict", self.swap(
            ("wy = (cqy & 7)", "wy = (cqx & 7)"),
            ("wx = (cqx & 7)", "wx = (cqy & 7)"),
        ))
        self.property_fails()

    def test_cell_table_transposed(self, mutant):
        mutant(mc_module, "_cell_partitions", self.swap(
            ("return table", "return table.T"),
        ))
        self.property_fails()


class TestMissingReference:
    def test_reference_without_an_sf(self):
        """A ref index past the SFs is rejected, not predicted as zeros."""
        rng = np.random.default_rng(2)
        shapes = ((16, 16), (8, 8))
        qmvs = {s: np.zeros((2, 2, get_mode(s).nparts, 2), dtype=np.int32) for s in shapes}
        refs = {s: np.zeros((2, 2, get_mode(s).nparts), dtype=np.int32) for s in shapes}
        refs[(8, 8)][1, 0, 2] = 1
        mode_idx = np.array([[0, 0], [1, 0]])
        sfs, chroma = planes(rng, 32, 32, 1)
        with pytest.raises(ValueError, match=r"refs\[\(8, 8\)\].*reference 1.*1 SF"):
            mc_module.build_prediction(mode_idx, shapes, qmvs, refs, sfs, chroma, 32, 32)
        # Only the modes the MBs chose are read, so only they are checked.
        mode_idx[1, 0] = 0
        mc_module.build_prediction(mode_idx, shapes, qmvs, refs, sfs, chroma, 32, 32)

    def test_negative_reference(self):
        rng = np.random.default_rng(3)
        shapes = ((16, 16),)
        qmvs = {shapes[0]: np.zeros((1, 1, 1, 2), dtype=np.int32)}
        refs = {shapes[0]: np.full((1, 1, 1), -1, dtype=np.int32)}
        sfs, chroma = planes(rng, 16, 16, 1)
        with pytest.raises(ValueError, match="reference -1"):
            mc_module.build_prediction(
                np.zeros((1, 1), dtype=np.intp), shapes, qmvs, refs, sfs, chroma, 16, 16
            )
