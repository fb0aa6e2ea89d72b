"""MS_BOUNDS and LS_BOUNDS: data-reuse-aware additional-transfer sizing.

Paper Algorithm 2, constraints (16)–(17): when two modules access the same
buffer with different distributions — ME and SME share the CF and the ME
MVs; INT and SME share the SF — a device already holds the rows its first
module touched, and must only fetch the *difference* for the second module.
These routines compute, per accelerator, the extra row count Δ and the
concrete row segments, "taking into account the relative distance between
distributions for the same device and the offsets from the previously
enumerated devices" (paper §III.B.2).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.distribution import Distribution, missing_segments


@dataclass(frozen=True, slots=True)
class ExtraTransfers:
    """Additional rows a device needs for its SME band.

    ``segments`` are absolute half-open MB-row intervals; ``rows`` is their
    total length (the Δ value entering the LP).
    """

    segments: tuple[tuple[int, int], ...]
    rows: int

    @classmethod
    def from_segments(cls, segs: list[tuple[int, int]]) -> "ExtraTransfers":
        return cls(
            segments=tuple(segs), rows=sum(b - a for a, b in segs)
        )


def _expand(band: tuple[int, int], halo: int, total: int) -> tuple[int, int]:
    """Expand a band by ``halo`` rows on each side, clipped to the frame."""
    if band[0] >= band[1]:
        return band
    return max(0, band[0] - halo), min(total, band[1] + halo)


def ms_bounds(
    m: Distribution, s: Distribution, device: int
) -> ExtraTransfers:
    """MS_BOUNDS: extra CF/MV rows for SME relative to the device's ME band.

    The SME of rows ``[s_{i-1}, s_i)`` needs the CF rows and the ME MVs of
    exactly those rows; the device already holds the CF rows it fetched for
    ME and the MVs it computed itself.
    """
    need = s.band(device)
    have = m.band(device)
    return ExtraTransfers.from_segments(missing_segments(need, have))


def ls_bounds(
    l: Distribution, s: Distribution, device: int, halo: int = 0
) -> ExtraTransfers:
    """LS_BOUNDS: extra SF rows for SME relative to the device's INT band.

    SME candidates may reach ``halo`` MB rows above/below the band
    (vertical MV range), so the needed SF interval is the SME band expanded
    by the halo. The device holds the SF rows it interpolated itself.
    """
    if halo < 0:
        raise ValueError(f"halo must be >= 0, got {halo}")
    need = _expand(s.band(device), halo, s.total)
    have = l.band(device)
    return ExtraTransfers.from_segments(missing_segments(need, have))


def sf_remainder_segments(
    l: Distribution,
    s: Distribution,
    device: int,
    halo: int,
    budget_rows: int,
) -> tuple[ExtraTransfers, ExtraTransfers]:
    """Split the SF rows still missing on a device into (σ, σʳ).

    After phase 2 the device holds its own INT band plus the Δl rows
    fetched for SME. Everything else of the SF must eventually arrive so
    the device can run SME against this reference in later frames. σ is
    the part transferred in the τ2→τtot window of the *current* frame
    (limited to ``budget_rows`` — paper (14)); σʳ is the remainder deferred
    to the next frame's τ1 period (paper (15)).
    """
    if budget_rows < 0:
        raise ValueError(f"budget_rows must be >= 0, got {budget_rows}")
    total = l.total
    held = [l.band(device)]
    held += list(ls_bounds(l, s, device, halo).segments)
    # Missing = complement of held segments within [0, total).
    held = sorted((a, b) for a, b in held if b > a)
    missing: list[tuple[int, int]] = []
    cursor = 0
    for a, b in held:
        if a > cursor:
            missing.append((cursor, a))
        cursor = max(cursor, b)
    if cursor < total:
        missing.append((cursor, total))

    sigma: list[tuple[int, int]] = []
    remainder: list[tuple[int, int]] = []
    budget = budget_rows
    for a, b in missing:
        take = min(budget, b - a)
        if take > 0:
            sigma.append((a, a + take))
            budget -= take
        if take < b - a:
            remainder.append((a + take, b))
    return ExtraTransfers.from_segments(sigma), ExtraTransfers.from_segments(remainder)
