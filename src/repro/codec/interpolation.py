"""INT: Sub-pixel interpolated Frame (SF) generation.

H.264/AVC quarter-pel motion compensation requires the reference frame
interpolated to quarter-sample resolution. Half-pel samples come from the
standard 6-tap FIR (1, −5, 20, 20, −5, 1)/32 — applied horizontally (``b``),
vertically (``h``) and on intermediate values for the centre position
(``j``) — and quarter-pel samples are rounded averages of the two nearest
integer/half samples (paper §II: "6-tap and linear filters").

The SF is stored as a dense ``(4H, 4W)`` uint8 plane where
``SF[4y + fy, 4x + fx]`` is the sample at fractional offset ``(fy/4, fx/4)``
from integer position ``(y, x)`` — hence the paper's remark that the SF
structure is as large as 16 reference frames.

The module exposes a full-plane kernel and a row-band kernel. The band
kernel is what the framework distributes (the ``l`` vector of Algorithm 2);
it is bit-exact with the corresponding rows of the full-plane result, which
is what makes cross-device stitching of the SF legal. Every read of an SF —
SME's patches, MC's and the decoder's blocks — goes through :func:`sf_rows`.
"""

from __future__ import annotations

import numpy as np

from repro.codec.config import MB_SIZE
from repro.codec.frames import pad_plane

#: Halo (integer pels) needed around a band: 6-tap reach (−2..+3) plus the
#: +1 sample used by quarter-pel averages.
PAD = 4

_TAPS = (1, -5, 20, 20, -5, 1)
_OFFS = (-2, -1, 0, 1, 2, 3)


def _filt6_h(a: np.ndarray, x0: int, width: int) -> np.ndarray:
    """Horizontal 6-tap filter (unrounded int32) at columns x0..x0+width-1."""
    out = np.zeros((a.shape[0], width), dtype=np.int32)
    for tap, off in zip(_TAPS, _OFFS, strict=True):
        out += tap * a[:, x0 + off : x0 + off + width].astype(np.int32)
    return out


def _filt6_v(a: np.ndarray, y0: int, height: int) -> np.ndarray:
    """Vertical 6-tap filter (unrounded int32) at rows y0..y0+height-1."""
    out = np.zeros((height, a.shape[1]), dtype=np.int32)
    for tap, off in zip(_TAPS, _OFFS, strict=True):
        out += tap * a[y0 + off : y0 + off + height, :].astype(np.int32, copy=False)
    return out


def _round_half(raw: np.ndarray) -> np.ndarray:
    """(raw + 16) >> 5, clipped to uint8 — one filter pass."""
    return np.clip((raw + 16) >> 5, 0, 255).astype(np.uint8)


def _avg(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Quarter-pel rounded average of two uint8 sample grids."""
    return ((a.astype(np.uint16) + b.astype(np.uint16) + 1) >> 1).astype(np.uint8)


def _interp_core(gpad: np.ndarray, height: int, width: int) -> np.ndarray:
    """Interpolate the ``(height, width)`` region of a PAD-padded plane."""
    p = PAD
    if gpad.shape != (height + 2 * p, width + 2 * p):
        raise ValueError(
            f"padded plane {gpad.shape} != {(height + 2 * p, width + 2 * p)}"
        )
    # Integer samples on the extended grid (one extra row/col for averages).
    ge = gpad[p : p + height + 1, p : p + width + 1]

    # b: horizontal half-pels. Rows: all padded rows (reused by j's vertical
    # pass); cols 0..width (extra col for m/k/r via the h grid instead).
    b_raw_full = _filt6_h(gpad, p, width)          # (H+2p, W)
    b_ext = _round_half(b_raw_full[p : p + height + 1, :])  # (H+1, W)
    b = b_ext[:height, :]

    # h: vertical half-pels, with one extra column for m = h(x+1).
    h_raw = _filt6_v(gpad[:, p : p + width + 1], p, height)  # (H, W+1)
    h_ext = _round_half(h_raw)
    h_half = h_ext[:, :width]

    # j: centre half-pel — vertical 6-tap over unrounded b values, exact in
    # int32: |b_raw| <= 42 * 255 = 10 710 and b_raw >= -10 * 255, so
    # |j_raw| <= 42 * 10 710 + 10 * 2 550 < 2**19.
    j_raw = _filt6_v(b_raw_full, p, height)
    j = np.clip((j_raw + 512) >> 10, 0, 255).astype(np.uint8)

    g_int = ge[:height, :width]
    g_right = ge[:height, 1:]
    g_down = ge[1:, :width]
    m = h_ext[:, 1:]      # h at x+1
    s = b_ext[1:, :]      # b at y+1

    sf = np.empty((4 * height, 4 * width), dtype=np.uint8)
    sf[0::4, 0::4] = g_int
    sf[0::4, 1::4] = _avg(g_int, b)
    sf[0::4, 2::4] = b
    sf[0::4, 3::4] = _avg(b, g_right)
    sf[1::4, 0::4] = _avg(g_int, h_half)
    sf[1::4, 1::4] = _avg(b, h_half)
    sf[1::4, 2::4] = _avg(b, j)
    sf[1::4, 3::4] = _avg(b, m)
    sf[2::4, 0::4] = h_half
    sf[2::4, 1::4] = _avg(h_half, j)
    sf[2::4, 2::4] = j
    sf[2::4, 3::4] = _avg(j, m)
    sf[3::4, 0::4] = _avg(h_half, g_down)
    sf[3::4, 1::4] = _avg(h_half, s)
    sf[3::4, 2::4] = _avg(j, s)
    sf[3::4, 3::4] = _avg(m, s)
    return sf


def interpolate_plane(y: np.ndarray) -> np.ndarray:
    """Quarter-pel SF of a whole luma plane: ``(H, W)`` → ``(4H, 4W)``."""
    h, w = y.shape
    return _interp_core(pad_plane(y, PAD), h, w)


def interpolate_rows(y: np.ndarray, row0: int, nrows: int) -> np.ndarray:
    """SF band for MB rows ``[row0, row0+nrows)``: shape ``(64*nrows, 4W)``.

    Bit-exact with ``interpolate_plane(y)[64*row0 : 64*(row0+nrows), :]`` —
    the property that lets the framework interpolate different bands on
    different devices and stitch the SF in host memory.
    """
    h, w = y.shape
    mb_rows = h // MB_SIZE
    if h % MB_SIZE:
        raise ValueError(f"plane height {h} not MB-aligned")
    if not 0 <= row0 <= mb_rows or nrows < 0 or row0 + nrows > mb_rows:
        raise ValueError(f"band [{row0}, {row0 + nrows}) outside 0..{mb_rows}")
    if nrows == 0:
        return np.empty((0, 4 * w), dtype=np.uint8)
    ypad = pad_plane(y, PAD)
    band_h = nrows * MB_SIZE
    strip = ypad[row0 * MB_SIZE : row0 * MB_SIZE + band_h + 2 * PAD, :]
    return _interp_core(strip, band_h, w)


def sf_rows(sf: np.ndarray, nrows: int, row_stride: int, span: int) -> np.ndarray:
    """View ``sf`` as windows of ``nrows`` overlapping rows of ``span`` bytes.

    Element ``[y, x]`` is ``nrows`` ``np.void`` rows, row ``i`` the bytes
    ``sf[y + row_stride·i, x : x + span]``, so fancy-indexing the view with
    two position arrays copies each row as one element instead of byte by
    byte. Its first two axes are exactly the positions at which the
    window fits: an index one past them raises instead of reading beyond
    the SF's buffer, which may be a shared-memory segment and is read in
    place (only a non-contiguous SF is copied first).
    """
    sf = np.ascontiguousarray(sf)
    s0 = sf.strides[0]
    return np.ndarray(
        (sf.shape[0] - row_stride * (nrows - 1), sf.shape[1] - span + 1, nrows),
        np.dtype((np.void, span)), sf, 0, (s0, 1, row_stride * s0),
    )


def subpel_blocks(
    sf: np.ndarray, qys: np.ndarray, qxs: np.ndarray, bh: int, bw: int
) -> np.ndarray:
    """Sample ``(bh, bw)`` blocks at arrays of quarter-pel positions.

    ``qys``/``qxs`` are equally-shaped integer arrays of quarter-pel
    top-left positions, already clamped to ``0 <= qy <= 4*(H - bh)`` (our SF
    covers exactly the frame, so SME and MC clamp identically — restricted-MV
    behaviour at frame borders, see DESIGN.md substitutions), and the result
    is ``qys.shape + (bh, bw)`` uint8. The block at ``(qy, qx)`` is ``bh``
    rows of :func:`sf_rows` at stride 4, every fourth of their
    ``4·bw − 3`` bytes: one index pair per block, one copy per block row.
    """
    span = 4 * bw - 3
    rows = sf_rows(sf, bh, 4, span)[qys, qxs]
    return rows.view(np.uint8).reshape(rows.shape + (span,))[..., ::4]
