"""Concurrency lint: layer 4 of the analysis stack.

Static concurrency-safety rules for the really-parallel process
backend, built on the layer-3 CFG/worklist engine plus a cheap
interprocedural call graph (:mod:`callgraph`):

REP201
    Fork-safety: no thread/lock/file-handle creation or blocking call
    at import time, reachable from a pool initializer, or before the
    process pool is constructed (:mod:`forksafety`).
REP202
    Cross-process payload hygiene: submissions carry scalar
    coordinates only — ndarrays, ``SharedMemory`` objects and closures
    over them are flagged at the submit site (:mod:`payload`).
REP203
    Shared-write confinement: a symbolic interval proof that every
    worker-side shared-memory write stays inside its ``(row0, nrows)``
    band, and no host-side write lands while submitted work is
    unbarriered (:mod:`bands`).
REP204
    Barrier-ordered phases: staging happens-before phase-1 submit,
    τ1 collection happens-before any SME submit or host SF read
    (:mod:`phases`).

There is no dynamic twin. A run-time access journal was retired: its
phase tags were constants written beside each access, so it could not
see the orderings REP203/REP204 prove. That the INT bands partition the
frame is a test of the chunks the host submits.

The rule table and the driver that runs them are
:mod:`repro.sanitizers.runner`.
"""
