"""Dataflow lint (layer 3): CFG + abstract interpretation.

Function-level CFGs (:mod:`cfg`), a worklist fixpoint solver
(:mod:`engine`), and two rules that need flow information a per-line
AST walk cannot provide:

REP102
    Unordered ``set`` iteration exposed to order-sensitive consumers —
    DES event insertion, heap tie-breaks, LP candidate ordering
    (:mod:`determinism`).
REP103
    A ``SharedMemory`` segment not closed/unlinked on every CFG path,
    including exception edges (:mod:`resources`).

The rule table and the driver that runs them are
:mod:`repro.sanitizers.runner`; :mod:`reporting` formats the findings.
"""
