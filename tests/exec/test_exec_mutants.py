"""Ordering and chunking mistakes in ``ProcessBackend.run_frame`` — the
one function that stages a frame and submits its plan's rows — die on
the checks that remain.

The SAN-F shared-memory access journal was retired on this evidence. It
tagged every access with a phase constant written beside it, so it could
not see an access run in the wrong phase; what it could see is covered:

* each ordering mutant, a ``str`` edit of ``run_frame``'s source, is
  flagged by REP203/REP204 (source only: bit-identity catches these only
  when the race happens to show), and the unmutated source is clean;
* each INT chunking mutant, installed on the host, fails the partition
  test of ``test_sanitize_exec.py`` — the overlap one while the output
  stays bit-identical, so nothing else sees it. ME and SME chunks need no
  such mutant: their bands are stitched by ``merge``, which refuses a gap
  or an overlap.
"""

import inspect
import textwrap

import pytest

import test_sanitize_exec as exec_tests
from repro.exec.backend import ProcessBackend
from repro.sanitizers.runner import analyze

# The clip and its serial encoding, shared with the partition test.
frames = exec_tests.frames
reference = exec_tests.reference

STAGE = "    # ---- stage the frame into shared memory"
PHASE1 = "    # ---- phase 1: ME + INT rows"
P1_COLLECT = "        p1_results = self._collect(p1_futs)\n"
SF0_READ = '        ctx.sf_new = np.array(store.view("sf0"), copy=True)\n'
SME_COLLECT = "        sme_results = self._collect(sme_futs)\n"


def move(source: str, block: str, anchor: str, indent: int = 0) -> str:
    """``source`` with ``block`` cut out and pasted (indented) before ``anchor``."""
    assert source.count(block) == 1 and source.count(anchor) == 1
    return source.replace(block, "").replace(
        anchor, textwrap.indent(block, " " * indent) + anchor
    )


def staging_after_submits(source: str) -> str:
    block = source[source.index(STAGE):source.index(PHASE1)]
    return move(source, block, P1_COLLECT, indent=4)


#: Ordering mutant -> (edit of run_frame's source, rules that must flag it).
ORDERING = {
    "staging_after_phase1_submits": (staging_after_submits, {"REP203", "REP204"}),
    "sf0_read_before_tau1_collect": (
        lambda s: move(s, SF0_READ, P1_COLLECT), {"REP204"},
    ),
    "phase1_collects_after_sme_submits": (
        lambda s: move(s, P1_COLLECT, SME_COLLECT), {"REP204"},
    ),
}


def fired(source: str) -> set[str]:
    violations, errors = analyze(
        source, "src/repro/exec/backend.py", rules=["REP203", "REP204"]
    )
    assert not errors, errors
    return {v.rule for v in violations}


def run_frame_source() -> str:
    return textwrap.dedent(inspect.getsource(ProcessBackend.run_frame))


class TestOrderingMutantsDie:
    @pytest.mark.parametrize("name", list(ORDERING))
    def test_mutant_is_flagged(self, name):
        edit, rules = ORDERING[name]
        assert fired(edit(run_frame_source())) == rules

    def test_unmutated_source_is_clean(self):
        assert fired(run_frame_source()) == set()


#: Where the pool submits a plan's INT row.
SUBMIT_INT = "pool.submit_int(row0, nrows, row.slot)"

#: Chunking mutant -> (INT submit it installs, output still bit-identical).
CHUNKING = {
    # Every chunk but the frame's first starts one MB row early.
    "int_chunks_overlap": (
        "pool.submit_int(max(row0 - 1, 0), nrows + (row0 > 0), row.slot)", True,
    ),
    # Every chunk of two or more MB rows leaves its last row unwritten.
    "int_chunks_gap": (
        "pool.submit_int(row0, nrows - (nrows > 1), row.slot)", False,
    ),
}


@pytest.mark.parametrize("name", list(CHUNKING))
def test_chunk_mutant_fails_partition(transplant, monkeypatch, frames,
                                      reference, name):
    submit, identical = CHUNKING[name]
    transplant(ProcessBackend, "run_frame", SUBMIT_INT, submit)
    chunks = exec_tests.record_chunks(monkeypatch)
    out = exec_tests.encode(frames, 4)
    with pytest.raises(AssertionError, match="int chunks"):
        exec_tests.assert_partitions(chunks)
    if identical:
        exec_tests.assert_identical(reference, out)
    else:
        with pytest.raises(AssertionError):
            exec_tests.assert_identical(reference, out)
