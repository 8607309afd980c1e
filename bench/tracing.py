"""Spans and op counts for the traced benchmark run.

The tracer patches ringmat from the outside: it replaces public
functions and methods with wrappers, in every module namespace that
binds them, and restores the originals on uninstall.  The library
itself carries no instrumentation.

Spans (name, start, end, parent) are kept in memory; self time is a
span's duration minus the durations of its direct children.  L0 ring
and polynomial operations and SplitMix64 draws are only counted, never
timed, because a clock read per call would cost more than the call.

A Tracer turns its spans into additive totals (aggregate), so totals
from several processes can be summed (merge) before the per-layer
metrics are derived from them (layer_metrics).
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict

# Identity whose verifier is not called verify_<identity name>.
_VERIFIER_ALIASES = {"nilpotency": "verify_nilpotency_criterion"}

# Spans whose matmul children are the D_k recursion that charpoly and
# charpoly_newton share.
_CHARPOLY_PARENTS = ("charpoly", "charpoly_newton")


class Tracer:
    """Install span and count wrappers on a loaded ringmat package."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(int)
        self.reports_total = 0
        self.reports_unmet = 0
        self._stack = []
        self._patches = []

    # -- installation -------------------------------------------------

    def install(self) -> None:
        charpoly, cli, derivations, fuzz, identities, matrix, poly, report, \
            rings, serialize, suite = map(_module, (
                "charpoly", "cli", "derivations", "fuzz", "identities",
                "matrix", "poly", "report", "rings", "serialize", "suite"))
        functions = {cli.main: "cli.main",
                     suite.run_suite: "run_suite",
                     serialize.matrix_from_json: "matrix_from_json"}
        for name in ("charpoly", "charpoly_newton", "power_traces",
                     "adjugate_via_charpoly"):
            functions[getattr(charpoly, name)] = name
        for module in (identities, derivations):
            for name, fn in vars(module).items():
                if name.startswith("verify_") and callable(fn):
                    functions[fn] = name
        for name, fn in vars(fuzz).items():
            if name.startswith("sample_") and callable(fn):
                functions[fn] = name
        for fn, name in functions.items():
            on_result = self._count_reports if name == "run_suite" else None
            self._patch_everywhere(fn, self._span(name, fn, on_result))

        M = matrix.Matrix
        self._patch(M, "det", self._span("det", M.det, name_of=_det_name))
        self._patch(M, "adjugate", self._span("adjugate", M.adjugate))
        self._patch(M, "__matmul__", self._span("matmul", M.__matmul__))
        self._patch(M, "det_leibniz", self._span("det_leibniz", M.det_leibniz))
        R = report.VerificationReport
        self._patch(R, "to_json", self._span("to_json", R.to_json))

        for cls in (rings.IntegerRing, rings.ModRing, rings.RationalRing):
            for attr, key in (("mul", "rings.mul"), ("add", "rings.add"),
                              ("sub", "rings.add"), ("neg", "rings.neg"),
                              ("is_zero", "rings.is_zero")):
                self._patch(cls, attr, self._counter(key, vars(cls)[attr]))
        P = poly.Polynomial
        self._patch(P, "__mul__", self._counter("poly.mul", P.__mul__))
        self._patch(P, "__add__", self._counter("poly.add", P.__add__))
        S = fuzz.SplitMix64
        self._patch(S, "next_u64", self._counter("fuzz.next_u64", S.next_u64))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _patch_everywhere(self, fn, wrapper) -> None:
        for modname, module in list(sys.modules.items()):
            if modname != "ringmat" and not modname.startswith("ringmat."):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._patch(module, attr, wrapper)

    # -- wrappers -----------------------------------------------------

    def _span(self, name, fn, on_result=None, name_of=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            label = name_of(args) if name_of else name
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (label, start, end, parent)
            if on_result is not None:
                on_result(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counter(self, key, fn):
        counts = self.counts

        def wrapper(*args):
            counts[key] += 1
            return fn(*args)

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_reports(self, reports) -> None:
        self.reports_total += len(reports)
        self.reports_unmet += sum(1 for r in reports if not r.hypothesis_met)

    # -- totals -------------------------------------------------------

    def aggregate(self) -> dict:
        """Additive totals of the recorded spans and counts."""
        if self._stack:
            raise RuntimeError("aggregate() called inside an open span")
        derivations, identities, suite = map(
            _module, ("derivations", "identities", "suite"))
        identity_of = {}
        for ident in suite.IDENTITY_NAMES:
            verifier = _VERIFIER_ALIASES.get(ident, "verify_" + ident)
            identity_of[verifier] = ident
        suite_of = {ident: name for name, members in suite.SUITES.items()
                    for ident in members}
        module_of = {name: mod.__name__.rsplit(".", 1)[1]
                     for mod in (identities, derivations)
                     for name in vars(mod) if name.startswith("verify_")}

        out = defaultdict(float)
        spans = self.spans
        child_time = [0.0] * len(spans)
        in_sample = [False] * len(spans)
        in_verify = [False] * len(spans)
        for idx, (name, start, end, parent) in enumerate(spans):
            if parent >= 0:
                child_time[parent] += end - start
                in_sample[idx] = in_sample[parent] or spans[parent][0].startswith("sample_")
                in_verify[idx] = in_verify[parent] or spans[parent][0].startswith("verify_")
        for idx, (name, start, end, parent) in enumerate(spans):
            dur = end - start
            out[f"span.{name}.calls"] += 1
            out[f"span.{name}.self_s"] += dur - child_time[idx]
            if name == "matmul" and parent >= 0 and spans[parent][0] in _CHARPOLY_PARENTS:
                out["charpoly.matmul_calls"] += 1
            if name.startswith("sample_") and not in_sample[idx]:
                out["fuzz.sample_s"] += dur
            if name.startswith("verify_"):
                out[f"{module_of.get(name, 'identities')}.calls"] += 1
                out[f"{module_of.get(name, 'identities')}.self_s"] += dur - child_time[idx]
                ident = identity_of.get(name)
                if not in_verify[idx] and ident in suite_of:
                    out[f"suite.{suite_of[ident]}_s"] += dur
        for key, value in self.counts.items():
            out[key + "_calls"] += value
        out["suite.reports"] += self.reports_total
        out["suite.unmet"] += self.reports_unmet
        return dict(out)


def _module(name):
    # The package rebinds some submodule names (ringmat.charpoly is the
    # function), so submodules are fetched by their full name.
    return importlib.import_module("ringmat." + name)


def _det_name(args):
    from ringmat import PolynomialRing
    return "det_poly" if isinstance(args[0].ring, PolynomialRing) else "det"


def merge(totals) -> dict:
    out = defaultdict(float)
    for t in totals:
        for key, value in t.items():
            out[key] += value
    return dict(out)


SUITE_NAMES = ("core", "adjugate", "blocks", "nilpotency", "traces",
               "derivations")


def layer_metrics(agg: dict) -> dict:
    """Per-layer metrics (value, unit) from merged aggregate totals."""
    def get(key):
        return agg.get(key, 0.0)

    def count(key):
        return int(round(get(key)))

    reports = get("suite.reports")
    m = {
        "rings.mul_calls": (count("rings.mul_calls"), "count"),
        "rings.add_calls": (count("rings.add_calls"), "count"),
        "rings.neg_calls": (count("rings.neg_calls"), "count"),
        "rings.is_zero_calls": (count("rings.is_zero_calls"), "count"),
        "poly.mul_calls": (count("poly.mul_calls"), "count"),
        "poly.add_calls": (count("poly.add_calls"), "count"),
        "matrix.det_calls": (count("span.det.calls") + count("span.det_poly.calls"), "count"),
        "matrix.det_poly_calls": (count("span.det_poly.calls"), "count"),
        "matrix.det_self_s": (get("span.det.self_s") + get("span.det_poly.self_s"), "s"),
        "matrix.adjugate_calls": (count("span.adjugate.calls"), "count"),
        "matrix.adjugate_self_s": (get("span.adjugate.self_s"), "s"),
        "matrix.matmul_calls": (count("span.matmul.calls"), "count"),
        "matrix.matmul_self_s": (get("span.matmul.self_s"), "s"),
        "matrix.det_leibniz_self_s": (get("span.det_leibniz.self_s"), "s"),
        "charpoly.charpoly_calls": (count("span.charpoly.calls"), "count"),
        "charpoly.charpoly_self_s": (get("span.charpoly.self_s"), "s"),
        "charpoly.matmul_calls": (count("charpoly.matmul_calls"), "count"),
        "charpoly.newton_self_s": (get("span.charpoly_newton.self_s"), "s"),
        "charpoly.power_traces_self_s": (get("span.power_traces.self_s"), "s"),
        "charpoly.adjugate_via_charpoly_self_s":
            (get("span.adjugate_via_charpoly.self_s"), "s"),
        "identities.calls": (count("identities.calls"), "count"),
        "identities.self_s": (get("identities.self_s"), "s"),
        "derivations.self_s": (get("derivations.self_s"), "s"),
        "suite.self_s": (get("span.run_suite.self_s"), "s"),
    }
    for name in SUITE_NAMES:
        m[f"suite.{name}_s"] = (get(f"suite.{name}_s"), "s")
    m["suite.judged_share"] = (
        1.0 - get("suite.unmet") / reports if reports else 0.0, "share")
    m["fuzz.sample_s"] = (get("fuzz.sample_s"), "s")
    m["fuzz.next_u64_calls"] = (count("fuzz.next_u64_calls"), "count")
    m["report.to_json_calls"] = (count("span.to_json.calls"), "count")
    m["report.to_json_self_s"] = (get("span.to_json.self_s"), "s")
    m["serialize.matrix_from_json_self_s"] = (
        get("span.matrix_from_json.self_s"), "s")
    m["cli.main_self_s"] = (get("span.cli.main.self_s"), "s")
    return m
