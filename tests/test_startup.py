"""What a CLI process loads, and the package's lazily resolved names.

charpoly and adjugate must not compile the verification engine (suite,
identities, derivations, fuzz) nor import dataclasses or inspect.  These
tests pin that in fresh interpreters by inspecting sys.modules, so they
involve no clock.  The rest checks that the lazy engine names behave like
the eager ones they replaced, and that the plain record classes keep the
equality and hashing their dataclass versions had.
"""

import json
import subprocess
import sys
import types

import pytest

import ringmat
from helpers import cli_env
from ringmat import (
    QQ,
    ZZ,
    CharPolyData,
    Derivation,
    Matrix,
    PolynomialRing,
    VerificationReport,
    charpoly,
)
from ringmat.identities import IndexSubset

ENGINE = ("ringmat.suite", "ringmat.identities", "ringmat.derivations",
          "ringmat.fuzz")
HEAVY = ENGINE + ("dataclasses", "inspect")
A_JSON = json.dumps({"ring": "int", "entries": [[1, 2], [3, 4]]})


def loaded_by(code: str) -> set:
    """Modules that running code adds to a fresh interpreter's sys.modules."""
    script = ("import json, sys\n"
              "before = set(sys.modules)\n"
              f"{code}\n"
              "sys.stdout.write('\\n' + json.dumps(sorted(set(sys.modules) - before)))\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=cli_env())
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def test_importing_the_cli_loads_no_engine():
    new = loaded_by("import ringmat.cli")
    assert "ringmat.cli" in new and "ringmat.matrix" in new
    assert not new & set(HEAVY), sorted(new & set(HEAVY))


@pytest.mark.parametrize("argv", [
    ["charpoly", "--matrix", A_JSON],
    ["charpoly", "--newton", "--ring", "rat", "--matrix", A_JSON],
    ["adjugate", "--matrix", A_JSON],
])
def test_compute_commands_load_no_engine(argv):
    new = loaded_by(f"from ringmat.cli import main; main({argv!r})")
    assert not new & set(HEAVY), sorted(new & set(HEAVY))


def test_verify_loads_the_engine():
    new = loaded_by(f"from ringmat.cli import main; "
                    f"main(['verify', 'core', '--matrix', {A_JSON!r}])")
    assert set(ENGINE) <= new


def test_charpoly_stays_the_function():
    # import ringmat.charpoly binds the submodule on the package; the
    # eager re-export must win over it, in a fresh process and here
    new = loaded_by("import ringmat.cli, ringmat, types\n"
                    "assert isinstance(ringmat.charpoly, types.FunctionType)")
    assert "ringmat.charpoly" in new
    assert isinstance(ringmat.charpoly, types.FunctionType)
    assert ringmat.charpoly is charpoly


def test_every_exported_name_resolves_and_is_listed():
    listed = dir(ringmat)
    for name in ringmat.__all__:
        assert getattr(ringmat, name) is not None, name
        assert name in listed, name
    namespace = {}
    exec("from ringmat import *", namespace)
    assert set(ringmat.__all__) <= set(namespace)
    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        ringmat.nope


def test_lazy_names_read_the_submodule_on_each_access(monkeypatch):
    from ringmat import suite
    assert ringmat.run_suite is suite.run_suite
    assert "run_suite" not in vars(ringmat)
    marker = object()
    monkeypatch.setattr(suite, "run_suite", marker)
    assert ringmat.run_suite is marker
    monkeypatch.undo()
    assert ringmat.run_suite is suite.run_suite


def test_verification_report_compares_but_does_not_hash():
    a = VerificationReport("x", True, inputs={"n": 1})
    b = VerificationReport(identity="x", passed=True, hypothesis_met=True,
                           residual=None, residual_ring=None, inputs={"n": 1})
    assert a == b and a != VerificationReport("x", False, inputs={"n": 1})
    assert VerificationReport("x", True).inputs == {}
    assert VerificationReport("x", True).inputs is not VerificationReport("x", True).inputs
    assert a != ("x", True, True, None, None, {"n": 1})

    class Annotated(VerificationReport):
        pass

    assert Annotated("x", True, inputs={"n": 1}) != a      # same class only
    assert VerificationReport.__hash__ is None
    with pytest.raises(TypeError):
        hash(a)
    a.passed = False                     # reports stay mutable
    assert a.passed is False
    assert repr(b) == ("VerificationReport(identity='x', passed=True, "
                       "hypothesis_met=True, residual=None, "
                       "residual_ring=None, inputs={'n': 1})")


def test_charpoly_data_is_a_frozen_value():
    m = Matrix.from_rows(ZZ, [[1, 2], [3, 4]])
    a, b = charpoly(m), charpoly(Matrix.from_rows(ZZ, [[1, 2], [3, 4]]))
    assert a == b and hash(a) == hash(b)
    assert a != charpoly(Matrix.from_rows(ZZ, [[1, 2], [3, 5]]))
    assert a == CharPolyData(n=a.n, chi=a.chi, c=a.c, matrix=a.matrix)
    assert a.D is a.D                    # cached on first access
    assert a == b                        # the cache is not a field
    with pytest.raises(AttributeError):
        a.n = 3
    with pytest.raises(AttributeError):
        del a.c


def test_derivation_is_a_frozen_value():
    from ringmat import ddt, standard_derivations
    L = PolynomialRing(QQ)
    f, g = ddt(L), ddt(L)
    assert f != g                        # distinct lambdas, as before
    same = Derivation(L, "ddt", f.fn)
    assert same == f and hash(same) == hash(f)
    assert standard_derivations(L)[0] != f
    assert "fn" not in repr(f) and "label='ddt'" in repr(f)
    with pytest.raises(AttributeError):
        f.label = "other"


def test_index_subset_is_a_frozen_value():
    p = IndexSubset(4, [1, 3])
    assert p == IndexSubset(4, (1, 3)) and hash(p) == hash(IndexSubset(4, (1, 3)))
    assert p != IndexSubset(5, (1, 3)) and p != IndexSubset(4, (1, 2))
    assert p.complement() == IndexSubset(4, (2, 4))
    assert len({p, IndexSubset(4, (1, 3))}) == 1
    assert repr(p) == "IndexSubset(n=4, members=(1, 3))"
    with pytest.raises(AttributeError):
        p.members = (2,)
    with pytest.raises(ValueError):
        IndexSubset(4, (3, 1))
