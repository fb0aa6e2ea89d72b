"""Multi-stream encoding service.

Multiplexes N concurrent encoding sessions onto one shared simulated
platform: per-stream sessions with their own FEVES frameworks
(:mod:`~repro.service.session`), capacity-based admission control with a
bounded wait queue (:mod:`~repro.service.admission`), deadline-slack
weighted capacity partitioning (:mod:`~repro.service.scheduler`), open-
loop workload generation (:mod:`~repro.service.workload`), and per-stream
plus aggregate latency/deadline/utilization metrics
(:mod:`~repro.service.metrics`). The front door is
:class:`~repro.service.service.EncodingService` (CLI: ``repro serve``).
"""

from repro.service.admission import AdmissionController, CapacityModel
from repro.service.metrics import ServiceMetrics, StreamMetrics, per_class_summary
from repro.service.scheduler import CoScheduler
from repro.service.service import EncodingService, ServiceConfig
from repro.service.session import (
    DEADLINE_CLASSES,
    EncodingSession,
    FrameRecord,
    StreamSpec,
)
from repro.service.workload import (
    STREAM_MIXES,
    build_workload,
    parse_submit_specs,
    poisson_arrivals,
)

__all__ = [
    "AdmissionController",
    "CapacityModel",
    "CoScheduler",
    "DEADLINE_CLASSES",
    "EncodingService",
    "EncodingSession",
    "FrameRecord",
    "STREAM_MIXES",
    "ServiceConfig",
    "ServiceMetrics",
    "StreamMetrics",
    "StreamSpec",
    "build_workload",
    "parse_submit_specs",
    "per_class_summary",
    "poisson_arrivals",
]
