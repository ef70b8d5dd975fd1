"""Admission-filter and exchange tests (ISSUE 7 satellite 4).

The contract under test: a shared constraint that violates the receiving
engine's quantifier structure or prefix order is *rejected and logged,
never installed* — and sound traffic passes.
"""

import logging
import queue

from repro.core.formula import QBF
from repro.core.literals import EXISTS, FORALL
from repro.core.prefix import Prefix
from repro.cube.sharing import AdmissionFilter, Exchange
from repro.cube.splitter import cofactor


def _orig():
    # ∃ x1 x2 ∀ y3 ∃ z4
    prefix = Prefix.linear([(EXISTS, (1, 2)), (FORALL, (3,)), (EXISTS, (4,))])
    return QBF(prefix, [(1, 3, 4), (-1, 2), (-2, -3, 4)])


def test_admits_sound_clause_and_cube():
    f = _orig()
    filt = AdmissionFilter(f)
    assert filt.admit(False, (-1, 2)) == (-1, 2)
    assert filt.admit(True, (1, 2, 4)) == (1, 2, 4)
    assert filt.admitted == 2
    assert not filt.rejected


def test_rejects_quantifier_mismatch_and_logs(caplog):
    f = _orig()
    # receiver believes y3 is existential — a foreign/mangled prefix
    mangled = Prefix.linear([(EXISTS, (1, 2)), (EXISTS, (3,)), (EXISTS, (4,))])
    filt = AdmissionFilter(f, receiver_prefix=mangled, assumptions=())
    with caplog.at_level(logging.INFO, logger="repro.cube"):
        assert filt.admit(False, (2, 3)) is None
    assert filt.rejected["quantifier-mismatch"] == 1
    assert filt.admitted == 0
    assert any("quantifier-mismatch" in r.message for r in caplog.records)


def test_rejects_prefix_order_violation_and_logs(caplog):
    f = _orig()
    # receiver orders z4 *before* y3: prec(y3, z4) flips
    mangled = Prefix.linear([(EXISTS, (1, 2)), (EXISTS, (4,)), (FORALL, (3,))])
    filt = AdmissionFilter(f, receiver_prefix=mangled, assumptions=())
    with caplog.at_level(logging.INFO, logger="repro.cube"):
        assert filt.admit(False, (3, 4)) is None
    assert filt.rejected["prefix-order"] == 1
    assert any("prefix-order" in r.message for r in caplog.records)


def test_rejects_malformed_tautology_unbound_oversized():
    f = _orig()
    filt = AdmissionFilter(f, max_lits=2)
    assert filt.admit(False, (1, 0)) is None
    assert filt.admit(False, (1, "2")) is None
    assert filt.admit(False, (1, -1)) is None
    assert filt.admit(False, (1, 99)) is None
    assert filt.admit(False, (1, 2, 4)) is None  # > max_lits
    assert filt.rejected["malformed"] == 2
    assert filt.rejected["tautology"] == 1
    assert filt.rejected["unbound"] == 1
    assert filt.rejected["oversized"] == 1
    assert filt.admitted == 0


def test_rejects_cubes_on_incremental_path():
    f = _orig()
    filt = AdmissionFilter(f, cubes_ok=False)
    assert filt.admit(True, (1, 2, 4)) is None
    assert filt.rejected["cube-on-original-path"] == 1
    assert filt.admit(False, (-1, 2)) == (-1, 2)  # clauses still welcome


def test_strips_receiver_assumptions_on_cofactor_path():
    f = _orig()
    leaf, _ = cofactor(f, (1,))
    filt = AdmissionFilter(f, receiver_prefix=leaf.prefix, assumptions=(1,))
    # clause containing the assumption is satisfied locally: drop entirely
    assert filt.admit(False, (1, 3)) is None
    assert filt.rejected["assumption-subsumed"] == 1
    # clause containing its negation: strip the dead literal
    assert filt.admit(False, (-1, 2)) == (2,)
    # cube implied literal strips; contradicting cube is dead here
    assert filt.admit(True, (1, 2, 4)) == (2, 4)
    assert filt.admit(True, (-1, 4)) is None


def test_exchange_never_installs_rejected_traffic(caplog):
    f = _orig()
    mangled = Prefix.linear([(EXISTS, (1, 2)), (EXISTS, (3,)), (EXISTS, (4,))])
    filt = AdmissionFilter(f, receiver_prefix=mangled, assumptions=())
    bad = (99, False, (2, 3))   # quantifier mismatch under the receiver
    good = (99, False, (1, 2))
    ours = (7, False, (1, 4))   # own traffic must be skipped too
    inbox = queue.Queue()
    for item in (bad, good, ours):
        inbox.put(item)
    ex = Exchange(7, (), None, inbox, filt)
    with caplog.at_level(logging.INFO, logger="repro.cube"):
        installed = list(ex.drain())
    assert installed == [(False, (1, 2))]
    assert ex.imported == 1
    assert filt.rejected["quantifier-mismatch"] == 1
    assert any("rejected shared constraint" in r.message for r in caplog.records)


def test_exchange_lift_clause_and_cube():
    f = _orig()
    filt = AdmissionFilter(f)
    out = queue.Queue(maxsize=4)
    ex = Exchange(0, (1, -2), out, None, filt)
    ex.on_learned(False, (3, 4))       # clause: weaken by ¬A
    ex.on_learned(True, (4,))          # cube: strengthen by A
    ex.on_learned(False, (3, 4))       # duplicate: dropped
    items = [out.get_nowait() for _ in range(out.qsize())]
    lifted = {(cube, frozenset(lits)) for _, cube, lits in items}
    assert (False, frozenset((-1, 2, 3, 4))) in lifted
    assert (True, frozenset((1, -2, 4))) in lifted
    assert len(items) == 2 and ex.exported == 2
    # a clause mentioning an assumption positively lifts to a tautology
    ex.on_learned(False, (1, 3))
    assert ex.exported == 2


def test_exchange_unlifted_cubes_and_full_outbox():
    f = _orig()
    filt = AdmissionFilter(f)
    out = queue.Queue(maxsize=1)
    ex = Exchange(0, (1,), out, None, filt, lift_cubes=False)
    ex.on_learned(True, (2, 4))
    assert out.get_nowait() == (0, True, (2, 4))  # exported verbatim
    ex.on_learned(False, (3, 4))
    ex.on_learned(False, (2, 3))  # outbox full: dropped, counted
    assert ex.export_dropped == 1
