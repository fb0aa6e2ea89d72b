"""Frame container (4:2:0 planes) and edge-replicating plane padding."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class YuvFrame:
    """One 4:2:0 frame: uint8 planes ``y`` (H×W), ``u`` and ``v`` (H/2×W/2)."""

    y: np.ndarray
    u: np.ndarray
    v: np.ndarray

    def __post_init__(self) -> None:
        for name, plane in (("y", self.y), ("u", self.u), ("v", self.v)):
            if plane.dtype != np.uint8:
                raise TypeError(f"plane {name} must be uint8, got {plane.dtype}")
            if plane.ndim != 2:
                raise ValueError(f"plane {name} must be 2-D, got shape {plane.shape}")
        h, w = self.y.shape
        if self.u.shape != (h // 2, w // 2) or self.v.shape != (h // 2, w // 2):
            raise ValueError(
                "chroma planes must be half-size of luma: "
                f"y={self.y.shape} u={self.u.shape} v={self.v.shape}"
            )

    def copy(self) -> "YuvFrame":
        return YuvFrame(self.y.copy(), self.u.copy(), self.v.copy())

    @classmethod
    def blank(cls, width: int, height: int, value: int = 128) -> "YuvFrame":
        """Uniform frame (useful as an initial reference and in tests)."""
        return cls(
            y=np.full((height, width), value, dtype=np.uint8),
            u=np.full((height // 2, width // 2), value, dtype=np.uint8),
            v=np.full((height // 2, width // 2), value, dtype=np.uint8),
        )


def pad_plane(plane: np.ndarray, pad: int) -> np.ndarray:
    """Replicate-pad a plane by ``pad`` pixels on every side.

    H.264 permits unrestricted motion vectors: samples outside the picture
    are obtained by edge replication. FSBM and interpolation both search/
    filter over the padded plane so that boundary MBs see the full SA.
    """
    if pad < 0:
        raise ValueError(f"pad must be >= 0, got {pad}")
    if pad == 0:
        return plane.copy()
    return np.pad(plane, pad, mode="edge")
