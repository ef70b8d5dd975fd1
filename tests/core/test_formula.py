"""Tests for the QBF container."""

import pytest

from repro.core.formula import QBF, paper_example
from repro.core.literals import EXISTS, FORALL
from repro.core.prefix import Prefix


class TestConstruction:
    def test_prenex_constructor(self):
        phi = QBF.prenex([(EXISTS, [1]), (FORALL, [2])], [(1, 2)])
        assert phi.is_prenex
        assert phi.num_vars == 2
        assert phi.num_clauses == 1

    def test_unbound_variable_rejected(self):
        with pytest.raises(ValueError):
            QBF.prenex([(EXISTS, [1])], [(1, 2)])

    def test_close_binds_free_variables_on_top(self):
        phi = QBF.close(Prefix.linear([(FORALL, [2])]), [(1, 2), (3,)])
        assert phi.prefix.quant(1) is EXISTS
        assert phi.prefix.quant(3) is EXISTS
        assert phi.prefix.prec(1, 2)
        assert phi.prefix.level(1) == 1

    def test_is_sat(self):
        assert QBF.prenex([(EXISTS, [1, 2])], [(1, 2)]).is_sat
        assert not paper_example().is_sat


class TestAssign:
    def test_assign_satisfies_and_shrinks(self):
        phi = QBF.prenex([(EXISTS, [1, 2])], [(1, 2), (-1, 2)])
        psi = phi.assign(1)
        assert psi.num_clauses == 1
        assert psi.clauses[0].lits == (2,)
        assert 1 not in psi.prefix

    def test_assign_can_produce_empty_clause(self):
        phi = QBF.prenex([(EXISTS, [1])], [(-1,)])
        assert phi.assign(1).has_empty_clause()

    def test_assign_negative_literal(self):
        phi = QBF.prenex([(EXISTS, [1, 2])], [(-1, 2)])
        psi = phi.assign(-1)
        assert psi.num_clauses == 0


class TestRenamed:
    def test_renaming_applies_to_prefix_and_matrix(self):
        phi = QBF.prenex([(EXISTS, [1]), (FORALL, [2])], [(1, -2)])
        psi = phi.renamed({1: 10, 2: 20})
        assert psi.prefix.quant(10) is EXISTS
        assert psi.prefix.quant(20) is FORALL
        assert psi.clauses[0].lits == (10, -20)

    def test_non_injective_renaming_rejected(self):
        phi = QBF.prenex([(EXISTS, [1, 2])], [(1, 2)])
        with pytest.raises(ValueError):
            phi.renamed({1: 5, 2: 5})


class TestDunder:
    def test_equality_is_structural(self):
        a = QBF.prenex([(EXISTS, [1])], [(1,)])
        b = QBF.prenex([(EXISTS, [1])], [(1,)])
        assert a == b
        assert hash(a) == hash(b)

    def test_inequality_on_matrix(self):
        a = QBF.prenex([(EXISTS, [1])], [(1,)])
        b = QBF.prenex([(EXISTS, [1])], [(-1,)])
        assert a != b

    def test_pretty_contains_clauses(self):
        text = paper_example().pretty()
        assert "∨" in text and "∃" in text


class TestPaperExample:
    def test_shape(self):
        phi = paper_example()
        assert phi.num_vars == 7
        assert phi.num_clauses == 8
        assert not phi.is_prenex
        assert phi.prefix.prefix_level == 3
