"""Protocol lint: layer 5 of the analysis stack.

Lifecycle/protocol rules over the runtime stack's stateful objects,
built on the layer-3 CFG/worklist engine and the layer-4 call graph.
The rules compile from the declarative specs in :mod:`spec` — the same
declarations the SAN-G runtime monitor (:mod:`monitor`, replaying the
events of :mod:`repro.util.journal`) checks, so the static and dynamic
halves cannot drift:

REP301
    Object-lifecycle typestate: no ``step()`` after ``retire()``, no
    ``view()`` after ``close()``, ``close`` before ``unlink``, pool
    used only between construction and shutdown — on every CFG path,
    including exception edges (:mod:`typestate`).
REP302
    Monotone-clock discipline: simulated clocks may advance and
    compare, never rewind or cross-assign between domains
    (:mod:`clocks`).
REP303
    Queue/admission conservation: every dequeue reaches a disposition
    (place/park/reject) on every normal exit path — the stranded-stream
    class (:mod:`conservation`).
REP304
    Invalidation-before-solve: a live-set mutation must be followed by
    ``note_live_set_change()`` before the next reachable solve — the
    stale-decision-cache class (:mod:`invalidation`).

The dynamic cross-check is SAN-G (:meth:`TimelineSanitizer.
check_protocols`): instrumented classes journal lifecycle events under
``REPRO_SANITIZE`` and the monitor replays them against the same specs
(SAN-G1 illegal transition / clock regression, SAN-G2 unmet
obligation / missing shutdown).

The rule table and the driver that runs them are
:mod:`repro.sanitizers.runner`. Nothing at runtime imports this package:
the instrumented classes record into :mod:`repro.util.journal`, and the
dependency runs from here to there.
"""
