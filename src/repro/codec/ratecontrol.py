"""Rate control: per-frame QP adaptation toward a target bitrate.

The paper encodes at fixed QP (VCEG common conditions); real deployments
need the encoder to hold a bitrate. This module implements the classic
buffer-based controller: a virtual decoder buffer drains at the target
rate and fills with each frame's actual bits, and the P-frame QP steps to
keep the buffer near half-full. QP moves are clamped to ±2 per frame to
avoid visible quality pumping.

Works with any encoder that takes a per-frame QP, and integrates with
:class:`ReferenceEncoder` through :class:`RateControlledEncoder`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.codec.config import CodecConfig
from repro.codec.encoder import EncodedFrame, ReferenceEncoder
from repro.codec.frames import YuvFrame
from repro.util.validation import check_positive, check_range


@dataclass
class RateController:
    """Virtual-buffer rate controller.

    Parameters
    ----------
    target_bps:
        Target bitrate in bits/second.
    fps:
        Display rate used to derive the per-frame bit budget.
    initial_qp:
        Starting P-frame QP.
    buffer_frames:
        Virtual buffer size in frame budgets (latency/quality trade-off).
    max_step:
        Maximum QP change per frame.
    """

    target_bps: float
    fps: float
    initial_qp: int = 30
    buffer_frames: float = 4.0
    max_step: int = 2
    qp_min: int = 8
    qp_max: int = 48

    _qp: int = field(init=False)
    _buffer_bits: float = field(init=False)
    _complexity: float | None = field(init=False, default=None)

    def __post_init__(self) -> None:
        check_positive("target_bps", self.target_bps)
        check_positive("fps", self.fps)
        check_range("initial_qp", self.initial_qp, 0, 51)
        check_positive("buffer_frames", self.buffer_frames)
        check_range("max_step", self.max_step, 1, 8)
        if not 0 <= self.qp_min <= self.qp_max <= 51:
            raise ValueError("require 0 <= qp_min <= qp_max <= 51")
        self._qp = self.initial_qp
        self._buffer_bits = 0.0  # deviation from the half-full ideal

    @property
    def frame_budget(self) -> float:
        """Bits available per frame at the target rate."""
        return self.target_bps / self.fps  # noqa: REP004 - fps validated > 0 in __post_init__

    @property
    def qp(self) -> int:
        """QP to use for the next P frame."""
        return self._qp

    def update(self, frame_bits: int) -> int:
        """Record a coded frame; returns the QP for the next frame.

        Model-based control: maintain an EWMA estimate of the content
        complexity ``C`` in the exponential rate model
        ``bits ≈ C · 2^(−QP/6)`` (one quantizer-step doubling per 6 QP),
        then invert the model toward a target that includes a gentle
        buffer-deviation correction. Unlike P-on-buffer control, the model
        inversion has a true fixed point at the budget, so it converges
        instead of hunting. Steps stay clamped to ``±max_step``.
        """
        import math

        if frame_bits < 0:
            raise ValueError("frame_bits must be >= 0")
        self._buffer_bits += frame_bits - self.frame_budget
        # Clamp the virtual buffer so one huge I frame cannot wind up an
        # unbounded debt that mutes the controller for seconds.
        limit = self.buffer_frames * self.frame_budget
        self._buffer_bits = max(-limit, min(limit, self._buffer_bits))

        # Complexity estimate from the frame just coded.
        observed = max(frame_bits, 1.0) * 2.0 ** (self._qp / 6.0)
        if self._complexity is None:
            self._complexity = observed
        else:
            self._complexity = 0.5 * self._complexity + 0.5 * observed

        # Aim slightly below/above budget to bleed off the buffer deviation.
        deviation = self._buffer_bits / self.frame_budget
        correction = max(0.5, min(2.0, 1.0 - 0.25 * deviation))
        target_bits = self.frame_budget * correction
        qp_star = 6.0 * math.log2(self._complexity / target_bits)
        step = qp_star - self._qp
        step = max(-self.max_step, min(self.max_step, step))
        self._qp = int(round(
            max(self.qp_min, min(self.qp_max, self._qp + step))
        ))
        return self._qp


class RateControlledEncoder:
    """IPPP encoder with closed-loop rate control.

    Re-instantiates the (frozen) codec config each frame with the QP the
    controller chose; everything else — references, SFs, GOP state — is
    carried by an internal :class:`ReferenceEncoder` whose config is
    swapped in place (allowed because only the QP fields change, which are
    per-frame parameters in H.264).
    """

    def __init__(
        self,
        cfg: CodecConfig,
        target_bps: float,
        fps: float = 25.0,
        gop_size: int = 0,
    ) -> None:
        self.base_cfg = cfg
        self.controller = RateController(
            target_bps=target_bps, fps=fps, initial_qp=cfg.qp_p
        )
        self._enc = ReferenceEncoder(cfg, gop_size=gop_size)
        self.qp_history: list[int] = []

    def encode_frame(self, frame: YuvFrame) -> EncodedFrame:
        """Encode one frame at the controller's current QP."""
        qp = self.controller.qp
        self.qp_history.append(qp)
        self._enc.cfg = self.base_cfg.with_qp(qp)
        encoded = self._enc.encode_frame(frame)
        self.controller.update(encoded.bits)
        return encoded

    def encode_sequence(self, frames: list[YuvFrame]) -> list[EncodedFrame]:
        return [self.encode_frame(f) for f in frames]

    def achieved_bps(self, outputs: list[EncodedFrame]) -> float:
        """Mean bitrate of an encoded sequence at the controller's fps."""
        if not outputs:
            raise ValueError("no encoded frames")
        return sum(f.bits for f in outputs) / len(outputs) * self.controller.fps
