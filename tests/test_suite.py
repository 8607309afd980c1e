"""Suite resolution, the identity table and its fuzz/single-matrix drivers."""

import ast
import inspect
import random
import re
import sys
from pathlib import Path

import pytest

from helpers import Z8, mat, scopes
from ringmat import derivations, identities, suite
from ringmat.fuzz import MAX_SAMPLE_DEPTH
from ringmat.identities import MAX_IMAX, MAX_K, PRIME_BOUND
from ringmat.matrix import Matrix
from ringmat.poly import PolynomialRing
from ringmat.report import set_mutation, summarize
from ringmat.rings import QQ, ZZ, GuardError, ModRing, ShapeError
from ringmat.suite import IDENTITY_NAMES, SUITES, resolve_suite, run_suite

A = mat(ZZ, [[1, 2], [3, 4]])


def test_registry_covers_every_suite():
    seen = set()
    for names in SUITES.values():
        seen.update(names)
        for n in names:
            assert n in IDENTITY_NAMES
    assert seen == set(IDENTITY_NAMES)
    # groups are disjoint
    assert sum(len(v) for v in SUITES.values()) == len(IDENTITY_NAMES)


def test_resolve_suite():
    assert resolve_suite("all") == IDENTITY_NAMES
    assert resolve_suite("adjugate") == SUITES["adjugate"]
    assert resolve_suite("jacobi") == ("jacobi",)
    assert resolve_suite("core,jacobi") == SUITES["core"] + ("jacobi",)
    # duplicates collapse, order is first-mention
    assert resolve_suite("jacobi,adjugate") == (
        "jacobi", "adj_product", "adj_of_adj", "adj_scalar")
    with pytest.raises(GuardError):
        resolve_suite("no_such_thing")
    with pytest.raises(GuardError):
        resolve_suite("")


def test_run_suite_requires_one_mode():
    with pytest.raises(ValueError):
        run_suite(("det_oracle",))
    with pytest.raises(ValueError):
        run_suite(("det_oracle",), ring=ZZ, matrix=A)


def test_fuzz_mode_is_deterministic():
    kw = dict(ring=Z8, seed=5, count=8, size=3)
    left = run_suite(("det_product", "jacobi"), **kw)
    right = run_suite(("det_product", "jacobi"), **kw)
    assert [r.to_json() for r in left] == [r.to_json() for r in right]
    other = run_suite(("det_product", "jacobi"), ring=Z8, seed=6, count=8,
                      size=3)
    assert [r.to_json() for r in left] != [r.to_json() for r in other]


def test_fuzz_reports_carry_case_index():
    reports = run_suite(("trace_coefficient",), ring=ZZ, seed=0, count=5,
                        size=3)
    assert [r.inputs["case"] for r in reports] == [0, 1, 2, 3, 4]
    assert all(r.passed for r in reports)


def test_fuzz_count_zero_is_empty():
    assert run_suite("all", ring=ZZ, seed=0, count=0, size=3) == []


def test_fuzz_rejects_bad_dimensions():
    with pytest.raises(GuardError):
        run_suite(("det_oracle",), ring=ZZ, seed=0, count=-1, size=3)
    with pytest.raises(GuardError):
        run_suite(("det_oracle",), ring=ZZ, seed=0, count=1, size=-1)


ORACLES = ("adj_via_charpoly", "adj_trace", "charpoly_derivative",
           "eval_zero_hom")


def test_oracle_size_guard_in_fuzz_mode():
    for name in ("adj_via_charpoly", "adj_trace"):
        with pytest.raises(GuardError):
            run_suite((name,), ring=ZZ, seed=1, count=20, size=9)
        reports = run_suite((name,), ring=ZZ, seed=1, count=3, size=8)
        assert len(reports) == 3 and all(r.passed for r in reports)
    # these two draw n <= 4 whatever the size, so no cap applies
    for name in ("charpoly_derivative", "eval_zero_hom"):
        reports = run_suite((name,), ring=ZZ, seed=1, count=3, size=20)
        assert all(r.passed and r.inputs["matrix"].rows <= 4
                   for r in reports)


def test_oracle_size_guard_in_matrix_mode():
    rng = random.Random(9)
    big = Matrix(ZZ, 9, 9, [rng.randint(-9, 9) for _ in range(81)])
    top = Matrix(ZZ, 8, 8, big._e[:64])
    for name in ORACLES:
        with pytest.raises(GuardError):
            run_suite((name,), matrix=big)
        assert run_suite((name,), matrix=top)[0].passed
    # identities without an exponential oracle still run at n = 9
    assert run_suite(("adj_inverse", "trace_cayley_hamilton"), matrix=big)
    # a non-square matrix keeps its shape error
    with pytest.raises(ShapeError):
        run_suite(ORACLES, matrix=Matrix(ZZ, 9, 3, big._e[:27]))


def test_block_suite_size_guard():
    with pytest.raises(GuardError):
        run_suite(("block_commute",), ring=ZZ, seed=0, count=1, size=7)
    with pytest.raises(GuardError):
        run_suite("blocks", ring=ZZ, seed=0, count=1, size=9)
    # non-block identities may go bigger
    reports = run_suite(("trace_product",), ring=ZZ, seed=0, count=2, size=7)
    assert all(r.passed for r in reports)


def test_adjugate_fuzz_includes_singulars():
    reports = run_suite(("adj_of_adj",), ring=ZZ, seed=3, count=20, size=4)
    assert len(reports) == 20
    assert all(r.passed for r in reports)
    # every fifth case pins det = 0; the recorded input is that matrix
    singulars = 0
    for r in reports:
        m = r.inputs["matrix"]
        if m.rows and m.det() == 0:
            singulars += 1
    assert singulars >= 4


def test_nilpotency_fuzz_exercises_the_gate():
    reports = run_suite(("nilpotency",), ring=Z8, seed=1, count=20, size=4)
    stats = summarize(reports)
    assert stats["failed"] == 0
    assert stats["hypothesis_not_met"] >= 1


def test_matrix_mode_runs_each_identity():
    reports = run_suite("all", matrix=A, seed=0)
    stats = summarize(reports)
    assert stats["failed"] == 0
    assert stats["total"] >= len(IDENTITY_NAMES)
    names = {r.identity for r in reports}
    assert "cayley_hamilton" in names and "jacobi" in names


def test_matrix_mode_jacobi_is_exhaustive_up_to_4():
    reports = run_suite(("jacobi",), matrix=mat(ZZ, [[1, 2, 0], [0, 1, 3],
                                                     [4, 0, 1]]), seed=0)
    assert len(reports) == 19   # sum of C(3,k)^2 for k = 1..3
    assert all(r.passed for r in reports)


def test_matrix_mode_gates_on_degenerate_shapes():
    empty = Matrix(ZZ, 0, 0, ())
    for name in ("adj_scalar", "jacobi", "rank1_block"):
        reports = run_suite((name,), matrix=empty, seed=0)
        assert len(reports) == 1
        assert not reports[0].hypothesis_met and reports[0].passed


def test_matrix_mode_det_oracle_guard_becomes_gate():
    big = Matrix.identity(ZZ, 9)
    reports = run_suite(("det_oracle",), matrix=big, seed=0)
    assert not reports[0].hypothesis_met


def test_params_reach_the_verifiers():
    a = mat(Z8, [[2]])
    rep = run_suite(("almkvist",), matrix=a, seed=0, params={"k": 2})[0]
    assert rep.passed and rep.hypothesis_met
    rep = run_suite(("almkvist",), matrix=a, seed=0, params={"k": 1})[0]
    assert not rep.hypothesis_met
    rep = run_suite(("frobenius_trace",), matrix=mat(ModRing(3), [[1, 2],
                                                                  [0, 1]]),
                    seed=0, params={"p": 3})[0]
    assert rep.passed and rep.hypothesis_met


def test_frobenius_defaults_to_the_characteristic():
    reports = run_suite(("frobenius_trace",), ring=ModRing(5), seed=0,
                        count=6, size=3)
    assert all(r.hypothesis_met and r.passed for r in reports)


def test_derivations_lift_non_polynomial_rings():
    # over Z the subject becomes tI + A over Z[t]; three derivations run
    reports = run_suite(("derivation_det",), matrix=A, seed=0)
    assert len(reports) == 3
    assert all(r.passed for r in reports)
    assert {r.inputs["derivation"]["label"] for r in reports} == \
        {"zero", "ddt", "g*ddt"}


def _nested(ring, depth):
    for _ in range(depth):
        ring = PolynomialRing(ring)
    return ring


def test_sampling_depth_guard_in_both_modes():
    # refused before any work: --count 0 and a 0 x 0 matrix are refused too
    deep = _nested(ZZ, MAX_SAMPLE_DEPTH + 1)
    for kwargs in ({"ring": deep, "count": 0, "size": 1},
                   {"matrix": Matrix(deep, 0, 0, ())}):
        with pytest.raises(GuardError, match="nested 4 deep"):
            run_suite(("det_product",), seed=0, **kwargs)
    ok = _nested(Z8, MAX_SAMPLE_DEPTH)
    reports = run_suite(("det_product",), ring=ok, seed=0, count=2, size=1)
    assert len(reports) == 2 and all(r.passed for r in reports)
    reports = run_suite(("det_product",), matrix=Matrix.zeros(ok, 1, 1), seed=0)
    assert reports[0].passed


def test_parameter_caps_come_before_any_work():
    for params, error, why in (
            ({"k": MAX_K + 1}, GuardError, "k = 257"),
            ({"k": -1}, ValueError, "k must be nonnegative"),
            ({"imax": MAX_IMAX + 1}, GuardError, "imax = 1001"),
            ({"imax": 0}, ValueError, "imax must be at least 1"),
            ({"p": PRIME_BOUND}, GuardError, "decided only below"),
            ({"p": 4}, ValueError, "p must be prime, got 4"),
            ({"p": 1}, ValueError, "p must be prime, got 1"),
            ({"p": -3}, ValueError, "p must be prime, got -3")):
        with pytest.raises(error, match=why):
            run_suite(("det_product",), ring=ZZ, seed=0, count=0, size=1,
                      params=params)
    reports = run_suite(("almkvist", "nilpotency_converse"), matrix=A, seed=0,
                        params={"k": MAX_K, "imax": MAX_IMAX})
    assert all(r.passed for r in reports)


def test_frobenius_cost_guard_comes_before_any_work():
    big = PolynomialRing(ModRing(1009))
    with pytest.raises(GuardError, match="Frobenius"):
        run_suite(("frobenius_trace",), ring=big, seed=0, count=0, size=1)
    with pytest.raises(GuardError, match="Frobenius"):
        run_suite(("det_product", "frobenius_trace"),
                  matrix=Matrix.zeros(big, 1, 1), seed=0)
    # p = 2 is nonzero over (Z/1009)[t]: a gate, so the run goes ahead
    reports = run_suite(("frobenius_trace",), ring=big, seed=0, count=2,
                        size=2, params={"p": 2})
    assert all(not r.hypothesis_met for r in reports)
    # a characteristic too large to decide falls back to p = 2 as well
    reports = run_suite(("frobenius_trace",), ring=ModRing(PRIME_BOUND + 2),
                        seed=0, count=2, size=2)
    assert all(r.inputs["p"] == 2 for r in reports)


def test_every_identity_has_one_consistent_row():
    assert tuple(suite._TABLE) == IDENTITY_NAMES
    generic = 0
    for name, (clamp, least, shape, aux, gate, caps) in suite._TABLE.items():
        verifier = suite._verifier(name)
        assert callable(verifier), name
        # the keywords the generic driver passes are the verifier's own
        params = inspect.signature(verifier).parameters
        for key, kind in suite._AUX[name]:
            assert key in params and kind in tuple("MSECRBPI"), name
        if isinstance(shape, str):
            generic += 1
            assert shape in ("r", "s", "u") and least in (0, 1), name
        else:
            assert least is None and len(shape) == 2, name
        assert gate is None or len(gate) == 3, name
        # a fuzz case that draws n up to --size is capped; leibniz_chain
        # draws no matrix at all
        if clamp is None and name != "leibniz_chain":
            assert caps[0] is not None, name
    assert generic >= 20


def _bullets(text, head):
    return [b for b in text.split("\n- ") if b.startswith(head)]


def test_readme_states_the_table_caps():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    guards = readme.split("Guards:", 1)[1].split("When a run exceeds", 1)[0]
    for column, head, want in ((0, "`fuzz --size` above {} is refused", [6, 8, 16]),
                               (1, "`verify` on a matrix with n above {}", [8])):
        capped = {}
        for name in IDENTITY_NAMES:
            cap = suite._TABLE[name][5][column]
            if cap is not None:
                capped.setdefault(cap, set()).add(name)
        assert sorted(capped) == want
        for cap, names in capped.items():
            (bullet,) = _bullets(guards, head.format(cap))
            named = set(re.findall(r"`(\w+)`", bullet)) & set(IDENTITY_NAMES)
            assert named == names, cap


def test_every_verifier_call_is_visible_to_a_module_wrapper(monkeypatch):
    # As bench/tracing.py does: replace each verify_* in every ringmat
    # namespace that binds it.  A driver that kept the original function
    # object would hide its calls from such a wrapper.
    through = {}

    def wrap(fn):
        def wrapper(*args, **kwargs):
            report = fn(*args, **kwargs)
            through[id(report)] = report
            return report
        return wrapper

    wrappers = {id(fn): wrap(fn) for module in (identities, derivations)
                for attr, fn in vars(module).items()
                if attr.startswith("verify_") and callable(fn)}
    for modname, module in list(sys.modules.items()):
        if modname == "ringmat" or modname.startswith("ringmat."):
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers:
                    monkeypatch.setattr(module, attr, wrappers[id(value)])
    for kwargs in ({"ring": Z8, "count": 6, "size": 3}, {"matrix": A}):
        through.clear()
        reports = run_suite("all", seed=2, **kwargs)
        assert len(reports) >= len(IDENTITY_NAMES)
        assert [r.identity for r in reports if through.get(id(r)) is not r] == []


def test_no_verifier_or_driver_builds_a_matrix_record():
    # reports hold their matrices by reference: to_json() builds the JSON
    # form on demand and the CLI writes a Matrix straight to text, so no
    # verify_* and no suite driver may build a Matrix.to_json() record
    package = Path(suite.__file__).parent
    found = []
    for module, only_verifiers in (("identities", True),
                                   ("derivations", True), ("suite", False)):
        for label, scope in scopes(package / f"{module}.py"):
            if only_verifiers and not label.startswith("verify_"):
                continue
            found += [f"{module}.{label}" for c in ast.walk(scope)
                      if isinstance(c, ast.Call)
                      and getattr(c.func, "attr", None) == "to_json"]
    assert found == []


def test_reports_record_their_matrices_by_reference():
    runs = ({"ring": Z8, "count": 3, "size": 3},
            {"ring": PolynomialRing(QQ), "count": 2, "size": 2},
            {"matrix": A})
    for kwargs in runs:
        for r in run_suite("all", seed=4, **kwargs):
            for key, value in r.inputs.items():
                assert not (isinstance(value, dict) and "entries" in value), \
                    (r.identity, key)
                if key.startswith("matrix"):
                    assert isinstance(value, Matrix), (r.identity, key)


# the rings of the benchmark's fuzz campaign, and a prime field
MUTANT_RINGS = {"int": ZZ, "mod:8": Z8, "rat": QQ,
                "poly:mod:8": PolynomialRing(Z8), "mod:7": ModRing(7)}


def test_every_mutant_is_caught_and_frobenius_only_over_a_prime_field():
    # each identity's RINGMAT_MUTATE mutant, alone, through a small
    # campaign per ring: it must fail a check (a failed report whose
    # hypothesis held) on one ring at least.  frobenius_trace's default p
    # is nonzero in every ring but the prime field, so it is caught there
    # only: the campaign rings alone never judge it.
    caught = {}
    for name in IDENTITY_NAMES:
        previous = set_mutation({name})
        try:
            caught[name] = {label for label, ring in MUTANT_RINGS.items()
                            if any(not r.passed and r.hypothesis_met
                                   for r in run_suite([name], ring=ring,
                                                      seed=1, count=2,
                                                      size=3))}
        finally:
            set_mutation(previous)
    assert [name for name, rings in caught.items() if not rings] == []
    assert caught["frobenius_trace"] == {"mod:7"}
