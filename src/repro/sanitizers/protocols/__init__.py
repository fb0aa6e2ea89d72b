"""Protocol checks: layer 5 of the analysis stack.

The declarative specs in :mod:`spec` (one state machine or obligation set
per tracked class) compile once, into the SAN-G runtime monitor
(:mod:`monitor`, :func:`~monitor.check_protocols`): instrumented
classes journal lifecycle events under ``REPRO_SANITIZE`` and the monitor
replays them against the specs (SAN-G1 illegal transition / clock
regression, SAN-G2 unmet obligation / missing shutdown).

Two static rules guard the bug classes a replay sees only when a run
takes the broken path, each a whole-module pass over the AST:

REP302
    Monotone-clock discipline: simulated clocks may advance and
    compare, never rewind or cross-assign between domains
    (:mod:`clocks`).
REP304
    Invalidation-before-solve: a live-set mutation must be followed at
    once by ``note_live_set_change()`` — the stale-decision-cache class
    (:mod:`invalidation`).

The rule table and the driver that runs them are
:mod:`repro.sanitizers.runner`. Nothing at runtime imports this package:
the instrumented classes record into :mod:`repro.util.journal`, and the
dependency runs from here to there.
"""
