"""Dataflow lint (layer 3): CFG + abstract interpretation.

Function-level CFGs (:mod:`cfg`), a worklist fixpoint solver
(:mod:`engine`), and one rule that needs flow information a per-line
AST walk cannot provide:

REP102
    Unordered ``set`` iteration exposed to order-sensitive consumers —
    DES event insertion, heap tie-breaks, LP candidate ordering
    (:mod:`determinism`).

The rule table and the driver that runs them are
:mod:`repro.sanitizers.runner`; :mod:`reporting` formats the findings.
"""
