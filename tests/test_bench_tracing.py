"""The traced benchmark run patches ringmat by name from the outside.

bench/tracing.py wraps functions and methods it looks up by name (for
example Matrix.det_leibniz and charpoly.adjugate_via_charpoly), so
renaming or deleting one breaks the traced run and nothing else.  This
installs its Tracer, drives every layer it wraps, and checks that
uninstall() puts each original back.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"

# the submodules Tracer.install() patches, loaded before the snapshot
MODULES = ("charpoly", "cli", "derivations", "fuzz", "identities", "matrix",
           "poly", "report", "rings", "serialize", "suite")


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _namespaces() -> dict:
    """A copy of the namespace of every ringmat module and class."""
    out = {}
    for name, module in list(sys.modules.items()):
        if name != "ringmat" and not name.startswith("ringmat."):
            continue
        out[module] = dict(vars(module))
        for value in vars(module).values():
            if isinstance(value, type) and value.__module__ == module.__name__:
                out[value] = dict(vars(value))
    return out


def test_tracer_sees_every_layer_and_uninstalls(tmp_path):
    import ringmat
    for name in MODULES:
        importlib.import_module("ringmat." + name)
    cli = sys.modules["ringmat.cli"]
    tracing = _load_tracing()
    before = _namespaces()
    tracer = tracing.Tracer()
    tracer.install()
    patches = list(tracer._patches)
    try:
        for ring in ("int", "mod:8", "rat", "poly:mod:8"):
            assert cli.main(["fuzz", "--ring", ring, "--suite", "all",
                             "--size", "2", "--count", "1", "--seed", "1",
                             "--out", str(tmp_path / "report.json")]) == 0
        a = ringmat.Matrix.from_rows(ringmat.ZZ, [[2, 1, 0], [1, 3, 1],
                                                  [0, 1, 4]])
        a.det()
        ringmat.charpoly(a)
        a.adjugate()
        # the CLI writes reports from json_layout(), so call to_json here
        ringmat.run_suite(("laplace",), matrix=a)[0].to_json()
    finally:
        tracer.uninstall()
    assert patches
    for owner, attr, _ in patches:
        assert vars(owner)[attr] is before[owner][attr], (owner, attr)
    metrics = tracing.layer_metrics(tracer.aggregate())
    for key in ("rings.mul_calls", "poly.mul_calls", "matrix.det_calls",
                "matrix.adjugate_calls", "matrix.matmul_calls",
                "charpoly.charpoly_calls", "identities.calls",
                "fuzz.next_u64_calls", "report.to_json_calls"):
        assert metrics[key][0] > 0, key
