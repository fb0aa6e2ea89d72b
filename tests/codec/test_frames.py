"""Frame container and plane padding."""

import numpy as np
import pytest

from repro.codec.frames import YuvFrame, pad_plane


class TestYuvFrame:
    def test_blank(self):
        f = YuvFrame.blank(64, 48, value=100)
        assert f.y.shape == (48, 64)
        assert f.u.shape == (24, 32)
        assert (f.y == 100).all()

    def test_dtype_enforced(self):
        with pytest.raises(TypeError):
            YuvFrame(
                y=np.zeros((48, 64), dtype=np.int32),
                u=np.zeros((24, 32), dtype=np.uint8),
                v=np.zeros((24, 32), dtype=np.uint8),
            )

    def test_chroma_shape_enforced(self):
        with pytest.raises(ValueError):
            YuvFrame(
                y=np.zeros((48, 64), dtype=np.uint8),
                u=np.zeros((48, 64), dtype=np.uint8),
                v=np.zeros((24, 32), dtype=np.uint8),
            )

    def test_copy_is_deep(self):
        f = YuvFrame.blank(32, 32)
        g = f.copy()
        g.y[0, 0] = 7
        assert f.y[0, 0] == 128


class TestPadPlane:
    def test_zero_pad_copies(self):
        a = np.arange(16, dtype=np.uint8).reshape(4, 4)
        b = pad_plane(a, 0)
        b[0, 0] = 99
        assert a[0, 0] == 0

    def test_edge_replication(self):
        a = np.array([[1, 2], [3, 4]], dtype=np.uint8)
        p = pad_plane(a, 2)
        assert p.shape == (6, 6)
        assert (p[:3, :3] == 1).all()  # top-left corner replicates a[0, 0]
        assert p[0, 0] == 1 and p[-1, -1] == 4

    def test_negative_pad_rejected(self):
        with pytest.raises(ValueError):
            pad_plane(np.zeros((4, 4), dtype=np.uint8), -1)
