"""Platform topology: one CPU device plus zero or more GPU accelerators.

Mirrors the paper's Fig. 3: ``n_c`` CPU cores (modelled as one aggregate
CPU device) and ``n_w`` accelerators behind interconnection buses. Device
ordering follows the paper's convention for Algorithm 2: accelerators
first (``i = 1..n_w``, with the R*-selected accelerator at index 0 in the
GPU-centric configuration), then the CPU.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.hw.device import Device, DeviceSpec


@dataclass
class Platform:
    """A heterogeneous CPU + multi-GPU system instance."""

    name: str
    specs: list[DeviceSpec]
    devices: list[Device] = field(init=False)

    def __post_init__(self) -> None:
        if not self.specs:
            raise ValueError("a platform needs at least one device")
        names = [s.name for s in self.specs]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate device names: {names}")
        n_cpu = sum(1 for s in self.specs if s.kind == "cpu")
        if n_cpu > 1:
            raise ValueError("at most one aggregate CPU device is supported")
        self.devices = [Device(spec=s) for s in self.specs]

    @property
    def gpus(self) -> list[Device]:
        """Accelerators in declaration order."""
        return [d for d in self.devices if d.is_accelerator]

    @property
    def cpu(self) -> Device | None:
        """The aggregate CPU device, if present."""
        for d in self.devices:
            if not d.is_accelerator:
                return d
        return None

    @property
    def n_workers(self) -> int:
        """Paper's ``n_w``: number of accelerators."""
        return len(self.gpus)

    def device(self, name: str) -> Device:
        """Look up a device by name."""
        for d in self.devices:
            if d.name == name:
                return d
        raise KeyError(f"no device named {name!r} in platform {self.name!r}")
