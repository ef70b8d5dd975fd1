"""Certificate subsystem: logging, serialization, independent checking."""

import copy
import json

import pytest

from repro.certify import (
    INCOMPLETE,
    INVALID,
    UNKNOWN,
    VERIFIED,
    JsonlSink,
    MemorySink,
    ProofLogger,
    certificate_stats,
    certifying_config,
    check_certificate,
    read_certificate,
    solve_certified,
)
from repro.certify.store import (
    CONCLUSION,
    INITIAL_CUBE,
    INPUT_CLAUSE,
    REDUCTION,
    RESOLUTION,
)
from repro.core.formula import QBF, paper_example
from repro.core.literals import EXISTS, FORALL
from repro.core.prefix import Prefix
from repro.core.result import Outcome
from repro.core.solver import QdpllSolver, SolverConfig
from repro.prenexing.strategies import prenex


def _true_formula() -> QBF:
    """∀y ∃x . (y ∨ x)(¬y ∨ ¬x) — TRUE, needs both branches of y."""
    prefix = Prefix.linear([(FORALL, (1,)), (EXISTS, (2,))])
    return QBF(prefix, [(1, 2), (-1, -2)])


def _steps(cert):
    """Deep-copied step list, safe to corrupt."""
    return [copy.deepcopy(s) for s in cert]


class TestEndToEnd:
    def test_false_formula_verifies(self):
        result, cert, report = solve_certified(paper_example())
        assert result.outcome is Outcome.FALSE
        assert report.status == VERIFIED
        assert report.outcome == "false"

    def test_true_formula_verifies(self):
        result, cert, report = solve_certified(_true_formula())
        assert result.outcome is Outcome.TRUE
        assert report.status == VERIFIED
        assert report.outcome == "true"

    def test_prenex_certificate_checks_against_original_tree(self):
        # The TO pipeline solves the prenex form; its proof must validate
        # under the original tree's (stricter) d/f partial order too.
        phi = paper_example()
        flat = prenex(phi)
        _, cert, report = solve_certified(flat)
        assert report.status == VERIFIED
        assert check_certificate(phi, cert).status == VERIFIED

    def test_budget_exhausted_run_is_unknown(self):
        sink = MemorySink()
        cfg = certifying_config(SolverConfig(max_decisions=1))
        result = QdpllSolver(paper_example(), cfg, proof=ProofLogger(sink)).solve()
        assert result.outcome is Outcome.UNKNOWN
        assert check_certificate(paper_example(), sink).status == UNKNOWN

    def test_logging_is_passive(self):
        # A run with a logger attached must be decision-for-decision
        # identical to the same run without one.
        cfg = certifying_config(SolverConfig())
        for phi in (paper_example(), _true_formula(), prenex(paper_example())):
            bare = QdpllSolver(phi, cfg).solve()
            logged = QdpllSolver(phi, cfg, proof=ProofLogger(MemorySink())).solve()
            assert logged.outcome is bare.outcome
            assert logged.stats == bare.stats


class TestSerialization:
    def test_jsonl_roundtrip(self, tmp_path):
        path = str(tmp_path / "proof.jsonl")
        with JsonlSink(path) as sink:
            QdpllSolver(
                paper_example(), certifying_config(), proof=ProofLogger(sink)
            ).solve()
        # Every line is standalone JSON; the stream replays identically.
        steps = list(read_certificate(path))
        assert steps[0]["type"] == "header"
        assert steps[-1]["type"] == CONCLUSION
        assert check_certificate(paper_example(), path).status == VERIFIED
        assert check_certificate(paper_example(), steps).status == VERIFIED

    def test_stats(self):
        _, cert, _ = solve_certified(paper_example())
        stats = certificate_stats(cert)
        assert stats.outcome == "false"
        assert stats.complete is True
        assert stats.inputs > 0
        assert stats.resolutions > 0
        assert stats.steps == len(cert.steps)

    def test_blank_lines_are_skipped(self, tmp_path):
        path = str(tmp_path / "gaps.jsonl")
        _, cert, _ = solve_certified(paper_example())
        with open(path, "w") as fh:
            for step in cert:
                fh.write(json.dumps(step) + "\n\n")
        assert check_certificate(paper_example(), path).status == VERIFIED


class TestCorruption:
    """The checker must reject every tampered derivation."""

    def _verified_cert(self):
        result, cert, report = solve_certified(paper_example())
        assert report.status == VERIFIED
        return _steps(cert)

    def test_bad_resolvent_rejected(self):
        # Claim a resolvent that drops an existential literal: resolution
        # only removes the pivot, and no reduction may delete an existential
        # from a clause.
        steps = self._verified_cert()
        prefix = paper_example().prefix
        tampered = False
        for step in steps:
            if step["type"] != RESOLUTION or step.get("kind") != "clause":
                continue
            keep = [l for l in step["lits"] if prefix.is_existential(l)]
            if keep:
                step["lits"] = [l for l in step["lits"] if l != keep[0]]
                tampered = True
                break
        assert tampered
        report = check_certificate(paper_example(), steps)
        assert report.status == INVALID

    def test_invented_literal_rejected(self):
        steps = self._verified_cert()
        for step in steps:
            if step["type"] == RESOLUTION:
                step["lits"] = list(step["lits"]) + [999]
                break
        report = check_certificate(paper_example(), steps)
        assert report.status == INVALID

    def test_wrong_pivot_rejected(self):
        steps = self._verified_cert()
        for step in steps:
            if step["type"] == RESOLUTION:
                step["pivot"] = step["pivot"] + 1000
                break
        assert check_certificate(paper_example(), steps).status == INVALID

    def test_illegal_reduction_rejected(self):
        # ∀y ∃x with clause (y ∨ x): y ≺ x, so Lemma 3 forbids deleting the
        # universal y — a step claiming that reduction must be rejected.
        prefix = Prefix.linear([(FORALL, (1,)), (EXISTS, (2,))])
        phi = QBF(prefix, [(1, 2), (-1, -2)])
        steps = [
            {"type": "header", "format": "repro-cert", "version": 1},
            # claims clause 0 reduces to (2) by deleting universal 1 — but
            # 1 ≺ 2, so Lemma 3 forbids the deletion.
            {"type": INPUT_CLAUSE, "id": 1, "clause": 0, "lits": [2]},
        ]
        report = check_certificate(phi, steps)
        assert report.status == INVALID
        assert "blocked" in report.error

    def test_tree_reduction_invalid_under_total_order(self):
        # The converse of the TO-vs-tree compatibility: a derivation may use
        # a reduction that is legal under the tree's partial order but not
        # under any prenex linearization. φ = ∃x(∀y ∃a | ∀z ∃b) with matrix
        # (x∨y∨a)(¬x∨z∨b)(¬a)(¬b). The resolvent (y,z,b) reduces to (z,b)
        # under the tree (y ⊀ b: different branches) — but every prenexing
        # puts y's block before b's, making the deletion illegal.
        x, y, a, z, b = 1, 2, 3, 4, 5
        prefix = Prefix.tree(
            [
                (
                    EXISTS,
                    (x,),
                    (
                        (FORALL, (y,), ((EXISTS, (a,), ()),)),
                        (FORALL, (z,), ((EXISTS, (b,), ()),)),
                    ),
                )
            ]
        )
        phi = QBF(prefix, [(x, y, a), (-x, z, b), (-a,), (-b,)])
        steps = [
            {"type": "header", "format": "repro-cert", "version": 1},
            {"type": INPUT_CLAUSE, "id": 1, "clause": 0, "lits": [x, y, a]},
            {"type": INPUT_CLAUSE, "id": 2, "clause": 1, "lits": [-x, z, b]},
            {"type": INPUT_CLAUSE, "id": 3, "clause": 2, "lits": [-a]},
            {"type": INPUT_CLAUSE, "id": 4, "clause": 3, "lits": [-b]},
            {"type": RESOLUTION, "id": 5, "kind": "clause", "ant": [1, 2],
             "pivot": x, "lits": [y, a, z, b]},
            # resolvent (y, z, b); the tree deletes y, any prenexing forbids it
            {"type": RESOLUTION, "id": 6, "kind": "clause", "ant": [5, 3],
             "pivot": a, "lits": [z, b]},
            {"type": RESOLUTION, "id": 7, "kind": "clause", "ant": [6, 4],
             "pivot": b, "lits": []},
            {"type": CONCLUSION, "outcome": "false", "final": 7, "complete": True},
        ]
        assert check_certificate(phi, steps).status == VERIFIED
        from repro.prenexing.strategies import STRATEGIES

        for strategy in STRATEGIES:
            report = check_certificate(prenex(phi, strategy), steps)
            assert report.status == INVALID
            assert "blocked" in report.error

    _HEADER = {"type": "header", "format": "repro-cert", "version": 1}

    def test_cube_reduction_deleting_universal_rejected(self):
        # ∀y ∃x: the initial cube {y, ¬x} is legal, but universals never
        # leave a cube.
        steps = [
            self._HEADER,
            {"type": INITIAL_CUBE, "id": 1, "lits": [1, -2]},
            {"type": REDUCTION, "id": 2, "kind": "cube", "ant": [1], "lits": [-2]},
        ]
        report = check_certificate(_true_formula(), steps)
        assert report.status == INVALID
        assert "reduction deleted universal 1 from a cube" in report.error

    def test_blocked_existential_after_legal_drops_rejected(self):
        # ∃{1,2} | ∃{4}(∀{5}): 1 and 2 precede no universal and may leave
        # the cube {1,2,4,5}, but 4 ≺ 5 keeps 4. The legal drops of block
        # {1,2} are checked first (set order of small ints) and must not
        # make the checker wave 4 through.
        prefix = Prefix.tree([(EXISTS, (1, 2)), (EXISTS, (4,), ((FORALL, (5,)),))])
        phi = QBF(prefix, [(1, 5), (2, 4)])
        steps = [
            self._HEADER,
            {"type": INITIAL_CUBE, "id": 1, "lits": [1, 2, 4, 5]},
            {"type": REDUCTION, "id": 2, "kind": "cube", "ant": [1], "lits": [4, 5]},
            {"type": REDUCTION, "id": 3, "kind": "cube", "ant": [1], "lits": [5]},
        ]
        report = check_certificate(phi, steps[:3])
        assert report.status == INCOMPLETE  # legal so far, no conclusion
        report = check_certificate(phi, steps[:2] + steps[3:])
        assert report.status == INVALID
        assert "existential 4 is blocked by a deeper universal" in report.error

    @pytest.mark.parametrize(
        "lits, error",
        [
            ([1, 99], "literal 99 is not bound by the prefix"),
            ([1, -1, -2], "contradictory literals on variable 1"),
            ([1], "matrix clause 1 is not satisfied by the cube"),
        ],
    )
    def test_bad_initial_cube_rejected(self, lits, error):
        steps = [self._HEADER, {"type": INITIAL_CUBE, "id": 1, "lits": lits}]
        report = check_certificate(_true_formula(), steps)
        assert report.status == INVALID
        assert error in report.error

    def test_non_empty_final_constraint_rejected(self):
        steps = self._verified_cert()
        conclusion = steps[-1]
        assert conclusion["type"] == CONCLUSION
        # Point the conclusion at a non-empty derived constraint.
        non_empty = next(
            s["id"]
            for s in steps
            if s.get("type") in (RESOLUTION, REDUCTION, INPUT_CLAUSE) and s["lits"]
        )
        conclusion["final"] = non_empty
        report = check_certificate(paper_example(), steps)
        assert report.status == INVALID
        assert "not empty" in report.error

    def test_unknown_antecedent_rejected(self):
        steps = self._verified_cert()
        for step in steps:
            if step["type"] == RESOLUTION:
                step["ant"] = [98765, step["ant"][1]]
                break
        assert check_certificate(paper_example(), steps).status == INVALID

    def test_missing_header_rejected(self):
        steps = self._verified_cert()
        assert check_certificate(paper_example(), steps[1:]).status == INVALID

    def test_future_version_rejected(self):
        steps = self._verified_cert()
        steps[0]["version"] = 999
        assert check_certificate(paper_example(), steps).status == INVALID

    def test_step_after_conclusion_rejected(self):
        steps = self._verified_cert()
        steps.append(dict(steps[1], id=99991))
        assert check_certificate(paper_example(), steps).status == INVALID

    def test_malformed_json_line_rejected(self, tmp_path):
        path = str(tmp_path / "torn.jsonl")
        _, cert, _ = solve_certified(paper_example())
        with open(path, "w") as fh:
            for step in cert:
                fh.write(json.dumps(step) + "\n")
            fh.write('{"type": "res", "id":')
        assert check_certificate(paper_example(), path).status == INVALID


class TestIncomplete:
    def test_conclusion_without_derivation_is_incomplete(self):
        sink = MemorySink()
        logger = ProofLogger(sink)
        logger.register_formula(paper_example())
        logger.conclude("false", None, reason="verdict reached by chronological exhaustion")
        report = check_certificate(paper_example(), sink)
        assert report.status == INCOMPLETE
        assert report.outcome == "false"
        assert "chronological" in report.error

    def test_no_conclusion_is_incomplete(self):
        sink = MemorySink()
        logger = ProofLogger(sink)
        logger.register_formula(paper_example())
        report = check_certificate(paper_example(), sink)
        assert report.status == INCOMPLETE


class TestCertifyingConfig:
    def test_disables_pure_literals_and_enables_learning(self):
        cfg = certifying_config(
            SolverConfig(pure_literals=True, learn_clauses=False, max_decisions=7)
        )
        assert cfg.pure_literals is False
        assert cfg.learn_clauses is True
        assert cfg.learn_cubes is True
        assert cfg.max_decisions == 7  # other knobs untouched
