"""report.first_failure, the one clause protocol of multi-part identities,
and identities.verifier, the one frame every verifier runs in.

A verifier body yields its clauses as (part, lhs, rhs, ring) 4-tuples;
first_failure judges each by lhs == rhs, stops at the first that fails,
and forms lhs - rhs only for the clause the report carries: that one,
or the last under mutation.  The frame around the body owns the shape
check, the inputs record, the hypothesis gate and the report.  The last
tests keep every verifier in that frame and pin what the frame records.
"""

import ast
from pathlib import Path

import pytest

from helpers import RINGS8
from ringmat import derivations, identities
from ringmat.matrix import Matrix
from ringmat.report import _bump, first_failure, set_mutation
from ringmat.suite import run_suite
from ringmat.rings import ZZ


class Probe:
    """A stand-in ring over Python ints that logs each residual it forms
    and each zero test."""

    def __init__(self, log, name):
        self.log, self.name = log, name

    def sub(self, a, b):
        self.log.append(("sub", self.name))
        return a - b

    def is_zero(self, value):
        self.log.append(("is_zero", self.name))
        return value == 0


@pytest.fixture
def mutate():
    yield set_mutation
    set_mutation(())


def test_first_failing_clause_wins_drawing_none_past_it():
    drawn = []

    def clauses():
        for part, lhs, rhs in (("a", 2, 2), ("b", 5, 0), ("c", 0, 0),
                               ("d", 7, 0)):
            drawn.append(part)
            yield part, lhs, rhs, ZZ
        raise AssertionError("drawn to the end")

    rep = first_failure("x", clauses(), {"k": 1})
    assert not rep.passed and rep.hypothesis_met
    assert (rep.residual, rep.residual_ring) == (5, ZZ)
    assert rep.inputs == {"k": 1, "failed_part": "b"}
    # the first failing clause is reported without drawing the next
    assert drawn == ["a", "b"]


def test_all_passing_reports_no_part_and_forms_no_residual():
    log = []
    clauses = [(part, 3, 3, Probe(log, part)) for part in "abc"]
    inputs = {"k": 1}
    rep = first_failure("x", clauses, inputs)
    assert rep.passed and rep.residual is None and rep.residual_ring is None
    assert rep.inputs == {"k": 1} and rep.inputs is not inputs
    assert log == []


def test_only_the_failing_clause_forms_and_tests_a_residual():
    log = []
    clauses = [("a", 1, 1, Probe(log, "a")), ("b", 2, 0, Probe(log, "b")),
               ("c", 0, 0, Probe(log, "c"))]
    rep = first_failure("x", clauses)
    assert rep.inputs == {"failed_part": "b"} and rep.residual == 2
    assert log == [("sub", "b"), ("is_zero", "b")]


def test_sentinel_names_no_part(mutate):
    clauses = [("a", 4, 4, ZZ), (None, ZZ.zero(), ZZ.zero(), ZZ)]
    rep = first_failure("x", clauses)
    assert rep.passed and rep.inputs == {}
    mutate(["x"])
    rep = first_failure("x", clauses)
    assert not rep.passed and rep.residual == 1
    assert "failed_part" not in rep.inputs


def test_matrix_and_element_residuals():
    zero = Matrix.zeros(ZZ, 2, 2)
    ones = Matrix(ZZ, 2, 2, [1, 1, 1, 1])
    rep = first_failure("x", [("m", ones, ones, None), ("e", 3, 7, ZZ)])
    assert (rep.residual, rep.residual_ring) == (-4, ZZ)
    assert rep.inputs["failed_part"] == "e"
    rep = first_failure("x", [("m", Matrix(ZZ, 2, 2, [1, 4, 1, 1]), ones, None),
                              ("e", 0, 0, ZZ)])
    assert rep.residual == Matrix(ZZ, 2, 2, [0, 3, 0, 0])
    assert rep.residual_ring is None and rep.inputs["failed_part"] == "m"
    assert first_failure("x", [("e", 0, 0, ZZ), ("m", zero, zero, None)]).passed


def test_mutation_bumps_the_last_clause(mutate):
    mutate(["x"])
    rep = first_failure("x", [("a", 0, 0, ZZ), ("b", 2, 2, ZZ)])
    assert rep.inputs["failed_part"] == "b" and rep.residual == 1
    ones = Matrix(ZZ, 2, 2, [1, 1, 1, 1])
    rep = first_failure("x", [("a", 0, 0, ZZ), ("m", ones, ones, None)])
    assert rep.inputs["failed_part"] == "m"
    assert rep.residual == Matrix(ZZ, 2, 2, [1, 0, 0, 0])
    # a failing clause before it is reported, and bumped, in its place
    rep = first_failure("x", [("a", 5, 2, ZZ), ("b", 0, 0, ZZ)])
    assert rep.inputs["failed_part"] == "a" and rep.residual == 4


@pytest.mark.parametrize("rows,cols", [(0, 0), (2, 0), (0, 3)])
def test_mutation_fails_an_empty_matrix_residual(mutate, rows, cols):
    # an empty residual has no entry to bump, so the witness grows to
    # at least one row and one column with a 1 in the first entry
    empty = Matrix.zeros(ZZ, rows, cols)
    assert first_failure("x", [("m", empty, empty, None)]).passed
    mutate(["x"])
    rep = first_failure("x", [("m", empty, empty, None)])
    assert not rep.passed and rep.inputs["failed_part"] == "m"
    size = (max(rows, 1), max(cols, 1))
    assert (rep.residual.rows, rep.residual.cols) == size
    assert rep.residual == Matrix(ZZ, *size, [1] + [0] * (size[0] * size[1] - 1))


def _residual_is_zero(lhs, rhs, ring) -> bool:
    if ring is None:
        return (lhs - rhs).is_zero()
    return ring.is_zero(ring.sub(lhs, rhs))


@pytest.mark.parametrize("ring", [ring for _, ring in RINGS8],
                         ids=[label for label, _ in RINGS8])
def test_equality_agrees_with_the_residual(monkeypatch, ring):
    # every clause that every verifier body yields in a campaign: == on
    # its two sides must agree with a zero test of their difference, so
    # an unreduced residue or an untrimmed polynomial cannot split them;
    # a right side moved by 1 checks the failing direction as well
    judge, clauses_of = identities.first_failure, {}

    def both_ways(identity, clauses, inputs=None):
        clauses = list(clauses)
        for part, lhs, rhs, R in clauses:
            assert (lhs == rhs) is _residual_is_zero(lhs, rhs, R) is True, \
                (identity, part)
            if R is not None or (rhs.rows and rhs.cols):
                moved = _bump(rhs, R)
                assert (lhs == moved) is _residual_is_zero(lhs, moved, R), \
                    (identity, part)
        clauses_of[identity] = clauses_of.get(identity, 0) + len(clauses)
        return judge(identity, clauses, inputs)

    monkeypatch.setattr(identities, "first_failure", both_ways)
    reports = run_suite("all", ring=ring, count=2, size=3)
    assert all(r.passed for r in reports)
    judged = {r.identity for r in reports if r.hypothesis_met}
    assert set(clauses_of) == judged and len(judged) >= 25


_REPORT_CALLS = ("make_report", "first_failure", "hypothesis_not_met")


def _called(node):
    return getattr(node.func, "id", getattr(node.func, "attr", None))


def _recorded(module, frame: ast.Call) -> dict:
    """The key -> parameter map of a @verifier(...) call, as the frame
    reads it (keys is its second argument, "matrix:a" by default)."""
    spec = ([kw.value for kw in frame.keywords if kw.arg == "keys"]
            or frame.args[1:2])
    if not spec:
        text = "matrix:a"
    elif isinstance(spec[0], ast.Name):
        text = getattr(module, spec[0].id)
    else:
        text = spec[0].value
    return {key: param or key
            for key, _, param in (item.partition(":") for item in text.split())}


@pytest.mark.parametrize("module", [identities, derivations],
                         ids=["identities", "derivations"])
def test_every_verifier_runs_in_the_one_frame(module):
    tree = ast.parse(Path(module.__file__).read_text())
    frame_code = identities.verifier()(lambda a: (yield)).__code__
    offenders = []
    verifiers = [node for node in tree.body
                 if isinstance(node, ast.FunctionDef)
                 and node.name.startswith("verify_")]
    assert len(verifiers) >= 3
    for fn in verifiers:
        frames = fn.decorator_list
        if not (len(frames) == 1 and isinstance(frames[0], ast.Call)
                and _called(frames[0]) == "verifier"):
            offenders.append(f"{fn.name} is not under one @verifier(...)")
            continue
        recorded = _recorded(module, frames[0])
        family = any(kw.arg == "family" for kw in frames[0].keywords)
        checked = set(recorded.values()) if family else {recorded.get("matrix")}
        for node in ast.walk(fn):
            if isinstance(node, ast.Yield) and not (
                    isinstance(node.value, ast.Tuple)
                    and len(node.value.elts) == 4):
                offenders.append(f"{fn.name} yields no 4-tuple at line "
                                 f"{node.lineno}")
            if isinstance(node, ast.Dict):
                offenders.append(f"{fn.name} builds a dict at line {node.lineno}")
            if not isinstance(node, ast.Call):
                continue
            if _called(node) in _REPORT_CALLS:
                offenders.append(f"{fn.name} calls {_called(node)}")
            if (_called(node) == "require_square"
                    and getattr(node.func.value, "id", None) in checked):
                offenders.append(f"{fn.name} checks its recorded matrix itself")
    # the report calls live in the frame alone, and make_report nowhere
    frame = [node for node in tree.body if getattr(node, "name", "") == "verifier"]
    inside = {id(node) for f in frame for node in ast.walk(f)}
    offenders += [f"{_called(node)} at line {node.lineno}"
                  for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and _called(node) in _REPORT_CALLS
                  and (id(node) not in inside or _called(node) == "make_report")]
    assert offenders == []
    # and at run time every verify_* in the module is the frame's wrapper
    assert {name for name, fn in vars(module).items()
            if name.startswith("verify_") and fn.__code__ is frame_code} == {
        fn.name for fn in verifiers}


def _m(*rows):
    return Matrix.from_rows(ZZ, [list(r) for r in rows])


def test_keyword_and_positional_calls_record_alike():
    # suite._check passes block_commute's c, b, d in draw order
    a, b, c, d = _m((1, 0), (0, 1)), _m((1, 2), (3, 4)), _m((2, 0), (0, 2)), \
        _m((0, 1), (1, 0))
    by_keyword = identities.verify_block_commute(a, c=c, b=b, d=d)
    by_position = identities.verify_block_commute(a, b, c, d)
    assert list(by_keyword.inputs.items()) == list(by_position.inputs.items())
    assert list(by_keyword.inputs) == ["matrix", "matrix_b", "matrix_c",
                                       "matrix_d"]
    assert all(by_keyword.inputs[key] is m for key, m in
               zip(by_keyword.inputs, (a, b, c, d)))
    # the scalar is recorded coerced, and _adj_det passes through unrecorded
    assert identities.verify_det_scalar(a, lam=3).inputs == {
        "matrix": a, "scalar": "3"}
    p = identities.IndexSubset(2, (1,))
    rep = identities.verify_jacobi(a, q=p, p=p, _adj_det=(a.adjugate(), a.det()))
    assert rep.passed and list(rep.inputs.items()) == [
        ("matrix", a), ("P", [1]), ("Q", [1])]


def test_an_omitted_kmax_records_2n_plus_1():
    a = _m((1, 2, 0), (0, 1, 3), (4, 0, 1))
    assert identities.verify_trace_cayley_hamilton(a).inputs == {
        "matrix": a, "kmax": 7}
    assert identities.verify_trace_cayley_hamilton(a, kmax=2).inputs == {
        "matrix": a, "kmax": 2}
    assert identities.verify_trace_cayley_hamilton(a, 0).inputs["kmax"] == 0


def test_a_raised_hypothesis_reports_it_unmet():
    a = _m((1, 0), (0, 0))
    rep = identities.verify_almkvist(a, 1)
    assert rep.passed and not rep.hypothesis_met and rep.residual is None
    assert list(rep.inputs.items()) == [
        ("matrix", a), ("k", 1), ("reason", "A**2 is not the zero matrix")]
    assert list(rep.to_json()) == ["identity", "passed", "hypothesis_met",
                                   "residual", "inputs"]
    rep = identities.verify_nilpotency_criterion(a)
    assert rep.identity == "nilpotency" and not rep.hypothesis_met
    assert rep.inputs == {"matrix": a, "reason": "Tr(A**1) = 1 is nonzero"}


def test_a_mutated_verifier_bumps_its_last_clause(mutate):
    a, b = _m((1, 2), (3, 4)), _m((0, 1), (5, 2))
    mutate(["trace_product", "det_product", "laplace"])
    rep = identities.verify_trace_product(a, b)
    assert not rep.passed and rep.residual == 1
    assert rep.inputs == {"matrix": a, "matrix_b": b,
                          "failed_part": "cyclic_swap"}
    rep = identities.verify_det_product(a, b)
    assert not rep.passed and rep.residual == 1
    assert rep.inputs == {"matrix": a, "matrix_b": b}
    rep = identities.verify_laplace(a)      # a sentinel last clause
    assert not rep.passed and rep.inputs == {"matrix": a}
