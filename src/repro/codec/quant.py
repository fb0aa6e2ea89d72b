"""H.264/AVC quantization tables and QP arithmetic.

These are the standard multiplication-factor (MF) and rescaling (V) tables
of the 4×4 integer transform, indexed by ``QP % 6`` and the coefficient's
position class. Together with the ``QP // 6`` shift they implement
division-free quantization exactly as in the reference encoder.
"""

from __future__ import annotations

import numpy as np

from repro.util.validation import check_range

#: MF[qp % 6][pos_class] — forward quantization multipliers.
MF_TABLE = np.array(
    [
        [13107, 5243, 8066],
        [11916, 4660, 7490],
        [10082, 4194, 6554],
        [9362, 3647, 5825],
        [8192, 3355, 5243],
        [7282, 2893, 4559],
    ],
    dtype=np.int32,
)

#: V[qp % 6][pos_class] — dequantization (rescaling) multipliers.
V_TABLE = np.array(
    [
        [10, 16, 13],
        [11, 18, 14],
        [13, 20, 16],
        [14, 23, 18],
        [16, 25, 20],
        [18, 29, 23],
    ],
    dtype=np.int32,
)

#: Position-class matrix: 0 for (even,even), 1 for (odd,odd), 2 mixed.
POS_CLASS = np.array(
    [
        [0, 2, 0, 2],
        [2, 1, 2, 1],
        [0, 2, 0, 2],
        [2, 1, 2, 1],
    ],
    dtype=np.intp,
)

#: Chroma QP for luma QP 30..51 (identity below 30) — Table 8-15 of the spec.
_CHROMA_QP_HIGH = (
    29, 30, 31, 32, 32, 33, 34, 34, 35, 35, 36,
    36, 37, 37, 37, 38, 38, 38, 39, 39, 39, 39,
)


def chroma_qp(qp: int) -> int:
    """Map a luma QP to the chroma QP (H.264 Table 8-15)."""
    check_range("qp", qp, 0, 51)
    if qp < 30:
        return qp
    return _CHROMA_QP_HIGH[qp - 30]


def mf_matrix(qp: int) -> np.ndarray:
    """4×4 forward-quant multiplier matrix for the given QP."""
    check_range("qp", qp, 0, 51)
    return MF_TABLE[qp % 6][POS_CLASS]


def v_matrix(qp: int) -> np.ndarray:
    """4×4 rescale multiplier matrix for the given QP."""
    check_range("qp", qp, 0, 51)
    return V_TABLE[qp % 6][POS_CLASS]
