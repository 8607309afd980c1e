"""report.first_failure, the one clause protocol of multi-part identities.

A verifier with several clauses lists them as (part, residual, ring)
triples; first_failure reports the first nonzero one, or else the last,
through make_report.  The last test keeps every verifier on that route:
no make_report call in the verifier modules may name a part itself.
"""

import ast
from pathlib import Path

import pytest

from ringmat import derivations, identities
from ringmat.matrix import Matrix
from ringmat.report import first_failure, set_mutation
from ringmat.rings import ZZ


class Probe:
    """A stand-in ring over Python ints that logs each zero test."""

    def __init__(self, log, name):
        self.log, self.name = log, name

    def is_zero(self, value):
        self.log.append(self.name)
        return value == 0


@pytest.fixture
def mutate():
    yield set_mutation
    set_mutation(())


def test_first_nonzero_clause_wins_drawing_one_clause_past_it():
    drawn = []

    def clauses():
        for part, value in (("a", 0), ("b", 5), ("c", 0), ("d", 7)):
            drawn.append(part)
            yield part, value, ZZ
        raise AssertionError("drawn to the end")

    rep = first_failure("x", clauses(), {"k": 1})
    assert not rep.passed and rep.hypothesis_met
    assert (rep.residual, rep.residual_ring) == (5, ZZ)
    assert rep.inputs == {"k": 1, "failed_part": "b"}
    # one clause past the winner shows that it is not the last
    assert drawn == ["a", "b", "c"]


def test_all_zero_reports_from_the_last_clause_testing_each_once():
    log = []
    clauses = [(part, 0, Probe(log, part)) for part in "abc"]
    inputs = {"k": 1}
    rep = first_failure("x", clauses, inputs)
    assert rep.passed and rep.residual is None
    assert rep.inputs == {"k": 1} and rep.inputs is not inputs
    assert log == ["a", "b", "c"]


def test_a_failing_clause_is_tested_here_and_in_make_report():
    log = []
    clauses = [("a", 0, Probe(log, "a")), ("b", 2, Probe(log, "b")),
               ("c", 0, Probe(log, "c"))]
    rep = first_failure("x", clauses)
    assert rep.inputs == {"failed_part": "b"}
    assert log == ["a", "b", "b"]


def test_sentinel_names_no_part(mutate):
    clauses = [("a", 0, ZZ), (None, ZZ.zero(), ZZ)]
    rep = first_failure("x", clauses)
    assert rep.passed and rep.inputs == {}
    mutate(["x"])
    rep = first_failure("x", clauses)
    assert not rep.passed and rep.residual == 1
    assert "failed_part" not in rep.inputs


def test_matrix_and_element_residuals():
    zero = Matrix.zeros(ZZ, 2, 2)
    witness = Matrix(ZZ, 2, 2, [0, 3, 0, 0])
    rep = first_failure("x", [("m", zero, None), ("e", -4, ZZ)])
    assert (rep.residual, rep.residual_ring) == (-4, ZZ)
    assert rep.inputs["failed_part"] == "e"
    rep = first_failure("x", [("m", witness, None), ("e", 0, ZZ)])
    assert rep.residual == witness and rep.residual_ring is None
    assert rep.inputs["failed_part"] == "m"
    assert first_failure("x", [("e", 0, ZZ), ("m", zero, None)]).passed


def test_mutation_bumps_the_last_clause(mutate):
    mutate(["x"])
    rep = first_failure("x", [("a", 0, ZZ), ("b", 0, ZZ)])
    assert rep.inputs["failed_part"] == "b" and rep.residual == 1
    rep = first_failure("x", [("a", 0, ZZ),
                              ("m", Matrix.zeros(ZZ, 2, 2), None)])
    assert rep.inputs["failed_part"] == "m"
    assert rep.residual == Matrix(ZZ, 2, 2, [1, 0, 0, 0])
    # a nonzero clause before it is reported, and bumped, in its place
    rep = first_failure("x", [("a", 3, ZZ), ("b", 0, ZZ)])
    assert rep.inputs["failed_part"] == "a" and rep.residual == 4


@pytest.mark.parametrize("rows,cols", [(0, 0), (2, 0), (0, 3)])
def test_mutation_fails_an_empty_matrix_residual(mutate, rows, cols):
    # an empty residual has no entry to bump, so the witness grows to
    # at least one row and one column with a 1 in the first entry
    empty = Matrix.zeros(ZZ, rows, cols)
    assert first_failure("x", [("m", empty, None)]).passed
    mutate(["x"])
    rep = first_failure("x", [("m", empty, None)])
    assert not rep.passed and rep.inputs["failed_part"] == "m"
    size = (max(rows, 1), max(cols, 1))
    assert (rep.residual.rows, rep.residual.cols) == size
    assert rep.residual == Matrix(ZZ, *size, [1] + [0] * (size[0] * size[1] - 1))


@pytest.mark.parametrize("module", [identities, derivations],
                         ids=["identities", "derivations"])
def test_no_verifier_names_a_part_itself(module):
    tree = ast.parse(Path(module.__file__).read_text())
    offenders = [
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None))
        == "make_report"
        and any(kw.arg == "part" for kw in node.keywords)
    ]
    assert offenders == [], (
        f"make_report(..., part=...) at lines {offenders}: list the clauses "
        "and return report.first_failure instead")
