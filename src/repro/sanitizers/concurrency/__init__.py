"""Concurrency lint: layer 4 of the analysis stack.

One static rule for the really-parallel process backend, built on a
cheap interprocedural call graph (:mod:`callgraph`):

REP201
    Fork-safety: no thread/lock/file-handle creation or blocking call
    at import time, reachable from a pool initializer, or before the
    process pool is constructed (:mod:`forksafety`).

The backend's other contracts — tasks carry coordinates, an INT worker
writes only its band, staging → τ1 → SME order, every segment released —
are plain tests of the real path (``tests/exec/test_sanitize_exec.py``);
the static rules that once stated them, REP103 and REP202–REP204, saw
few of the bugs put into the real methods (DESIGN.md "Layer 4 —
concurrency lint (REP201, static)").

The rule table and the driver that runs it are
:mod:`repro.sanitizers.runner`.
"""
