"""What can be set above ``core/``, and which way the layers import.

The twin of ``tests/core/test_framework.py::TestOptionSurface`` for the
serving stack: every independently settable value of the service,
cluster and exec layers is listed here, so a knob cannot be added (or a
removed one return) without this file changing. The layering test pins
the other thing those layers must not grow back — an import of the
analysis package from the runtime.
"""

import ast
import dataclasses
import inspect
from pathlib import Path

import pytest

from repro.cluster import AutoscaleConfig, ClusterConfig, NodeSpec
from repro.exec.backend import ProcessBackend
from repro.exec.pool import KernelPool
from repro.exec.shm import SharedFrameStore
from repro.service import CoScheduler, ServiceConfig

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"


def fields(cls) -> set[str]:
    return {f.name for f in dataclasses.fields(cls)}


def parameters(cls) -> list[str]:
    """Parameter names of ``cls(...)``."""
    return list(inspect.signature(cls).parameters)


class TestServingOptionSurface:
    def test_config_fields_are_pinned(self):
        assert fields(ServiceConfig) == {
            "platform", "headroom", "max_queue", "faults", "backend",
            "exec_workers",
        }
        assert fields(ClusterConfig) == {
            "nodes", "policy", "global_queue", "node_faults", "autoscale",
        }
        assert fields(AutoscaleConfig) == {
            "enabled", "max_nodes", "template", "p99_slo_ms",
        }
        assert fields(NodeSpec) == {
            "node_id", "platform", "headroom", "max_queue",
        }

    def test_constructor_signatures_are_pinned(self):
        """No scheduler tunables, and no ``sanitize`` parameter anywhere:
        ``$REPRO_SANITIZE`` is the only switch."""
        assert parameters(CoScheduler) == []
        assert parameters(ProcessBackend) == ["platform", "codec_cfg", "fw_cfg"]
        assert parameters(KernelPool) == ["workers", "layout", "cfg"]
        assert parameters(SharedFrameStore) == ["cfg"]

    @pytest.mark.parametrize("build", [
        lambda: ClusterConfig(nodes=(NodeSpec("n0"),), share_lp_cache=False),
        lambda: ClusterConfig(nodes=(NodeSpec("n0"),), max_ticks=10),
        lambda: ServiceConfig(max_rounds=1),
        lambda: ServiceConfig(scheduler=None),
        lambda: NodeSpec("n0", backend="process"),
        lambda: AutoscaleConfig(queue_high=2),
        lambda: AutoscaleConfig(min_nodes=2),
        lambda: CoScheduler(object()),
    ], ids=[
        "share_lp_cache", "max_ticks", "max_rounds", "scheduler",
        "node-backend", "queue_high", "min_nodes", "scheduler-cfg",
    ])
    def test_removed_options_stay_removed(self, build):
        with pytest.raises(TypeError):
            build()


def imported_modules(path: Path) -> set[str]:
    """Every module a file imports, at any nesting depth (nothing runs)."""
    names: set[str] = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            names.add(node.module)
    return names


RUNTIME_LAYERS = (
    "core", "service", "cluster", "exec", "hw", "codec", "util", "video",
    "baselines", "report",
)


@pytest.mark.parametrize("layer", RUNTIME_LAYERS)
def test_runtime_never_imports_the_analysis_package(layer):
    """The runtime journals (``repro.util.journal``); ``repro.sanitizers``
    checks. The dependency runs one way — including function-level
    imports, which is how it used to be hidden."""
    files = sorted((SRC / layer).rglob("*.py"))
    assert files, f"no sources under {layer}/"
    offenders = {
        str(path.relative_to(SRC)): sorted(bad)
        for path in files
        if (bad := {
            m for m in imported_modules(path)
            if m == "repro.sanitizers" or m.startswith("repro.sanitizers.")
        })
    }
    assert not offenders
