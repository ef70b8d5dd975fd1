"""Certification wired into the measurement layer and the batch harness."""

import json

from repro.certify.checker import INVALID, VERIFIED
from repro.core.formula import paper_example
from repro.core.result import Outcome
from repro.evalx.parallel import (
    Record,
    ResultsLog,
    SCHEMA_VERSION,
    STATUS_DISAGREEMENT,
    Task,
    disagreement_record,
    execute_task,
    measurement_from_dict,
    measurement_to_dict,
    run_tasks,
)
from repro.evalx.runner import (
    Budget,
    Measurement,
    SolverDisagreement,
    check_agreement,
    solve_po,
    solve_to,
)


class TestCertifiedRunners:
    def test_solve_po_records_verdict(self):
        m = solve_po(paper_example(), "paper", certify=True)
        assert m.outcome is Outcome.FALSE
        assert m.certificate_status == VERIFIED
        assert m.certificate_ok is True

    def test_solve_to_checks_against_the_tree(self):
        # The TO run solves the prenex form, yet its certificate must hold
        # under the original tree's partial order.
        m = solve_to(paper_example(), "paper", certify=True)
        assert m.outcome is Outcome.FALSE
        assert m.certificate_status == VERIFIED

    def test_uncertified_runs_have_no_verdict(self):
        m = solve_po(paper_example(), "paper")
        assert m.certificate_status is None
        assert m.certificate_ok is None


class TestTaskPlumbing:
    def test_fingerprint_unchanged_without_certify(self):
        # Resume keys of pre-existing results files must not shift.
        task = Task("i", "PO", paper_example(), budget=Budget(decisions=500))
        assert "certify" not in task.fingerprint()

    def test_fingerprint_differs_with_certify(self):
        plain = Task("i", "PO", paper_example(), budget=Budget(decisions=500))
        certified = Task(
            "i", "PO", paper_example(), budget=Budget(decisions=500), certify=True
        )
        assert plain.fingerprint() != certified.fingerprint()

    def test_execute_task_certifies(self):
        task = Task("i", "PO", paper_example(), certify=True)
        m = execute_task(task)
        assert m.certificate_status == VERIFIED

    def test_run_tasks_persists_certificate_fields(self, tmp_path):
        path = str(tmp_path / "results.jsonl")
        task = Task("i", "PO", paper_example(), certify=True)
        records = run_tasks([task], results=path)
        assert records[0].measurement.certificate_status == VERIFIED
        with open(path) as handle:
            row = json.loads(handle.readline())
        assert row["schema"] == SCHEMA_VERSION
        assert row["measurement"]["certificate_status"] == VERIFIED
        assert row["measurement"]["certificate_ok"] is True
        # Resume: the recorded run is reused, certificate verdict intact.
        again = run_tasks([task], results=path)
        assert again[0].measurement.certificate_status == VERIFIED


class TestSerialization:
    def test_measurement_roundtrip_with_certificate(self):
        m = solve_po(paper_example(), "paper", certify=True)
        back = measurement_from_dict(measurement_to_dict(m))
        assert back.certificate_status == m.certificate_status
        assert back.certificate_ok is True

    def test_v1_rows_still_load(self):
        data = {
            "instance": "i",
            "solver": "PO",
            "fingerprint": "",
            "status": "ok",
            "attempts": 1,
        }
        rec = Record.from_dict(data)
        assert rec.instance == "i"

    def test_newer_schema_rows_are_skipped_not_fatal(self, tmp_path):
        path = str(tmp_path / "results.jsonl")
        rows = [
            {"schema": SCHEMA_VERSION + 1, "instance": "future", "solver": "PO",
             "fingerprint": "f", "status": "ok", "attempts": 1,
             "some_field_we_do_not_know": {"x": 1}},
            {"schema": SCHEMA_VERSION, "instance": "now", "solver": "PO",
             "fingerprint": "f", "status": "ok", "attempts": 1},
        ]
        with open(path, "w") as fh:
            for row in rows:
                fh.write(json.dumps(row) + "\n")
        loaded = ResultsLog(path).load()
        assert ("now", "PO", "f") in loaded
        assert all(key[0] != "future" for key in loaded)


class TestCertifiedTriage:
    def _pair(self, a_status, b_status):
        a = Measurement("i", "TO", Outcome.TRUE, 10, 0.1, certificate_status=a_status)
        b = Measurement("i", "PO", Outcome.FALSE, 10, 0.1, certificate_status=b_status)
        return a, b

    def test_valid_proof_side_wins(self):
        a, b = self._pair(INVALID, VERIFIED)
        try:
            check_agreement(a, b)
        except SolverDisagreement as exc:
            assert exc.winner is b
            assert "PO" in str(exc)
        else:
            raise AssertionError("disagreement not raised")

    def test_no_winner_without_certificates(self):
        a, b = self._pair(None, None)
        try:
            check_agreement(a, b)
        except SolverDisagreement as exc:
            assert exc.winner is None
        else:
            raise AssertionError("disagreement not raised")

    def test_no_winner_when_both_verify(self):
        # Both certificates verifying for opposite outcomes means the
        # checker itself is broken; nobody gets to win that one.
        a, b = self._pair(VERIFIED, VERIFIED)
        try:
            check_agreement(a, b)
        except SolverDisagreement as exc:
            assert exc.winner is None
        else:
            raise AssertionError("disagreement not raised")

    def test_disagreement_record_carries_winner(self):
        a, b = self._pair(VERIFIED, INVALID)
        try:
            check_agreement(a, b)
        except SolverDisagreement as exc:
            rec = disagreement_record(exc)
            assert rec.status == STATUS_DISAGREEMENT
            assert rec.measurement is a
            assert "sides with" in rec.error
