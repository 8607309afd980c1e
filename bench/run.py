"""ringmat benchmark: end-to-end metrics, or per-layer metrics from a traced run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --summary [--seed N] [--seconds S] [--out FILE]
    python3 bench/run.py --self-test

Run from the repository root; ringmat is imported from ./src.  The last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  The exit code is 0 when every output
check passed and 1 otherwise; it is 2, with no result printed, when the
library sources are missing.  See bench/README.md for the workloads,
the metrics and what each one should move.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from calibrate import REFERENCE_S, reference_s, scales
from tracing import Tracer, layer_metrics, merge
from workloads import (BENCH, ROOT, SRC, WORKLOADS, child_env, int_rows,
                       ring_samples, run_child, seeded)

# The seed whose outputs are pinned by SHA-256 in golden.json.
DEFAULT_SEED = 0
# A p90 needs at least ten samples beyond it; one round is one sample.
MIN_SAMPLES = 100
# Hard stop for one timed loop, well inside the 180 s a run may take.
MAX_LOOP_S = 120.0
SETUP_REPS = 5
# Rounds in the fixed traced corpus.  Round i is the same work in the
# timed loop and in the traced run.
TRACED_ROUNDS = {"fuzz_mixed": 4, "kernels_zz": 4, "kernels_qq": 4,
                 "cli_oneshot": 5}
GROWTH_SIZES = (4, 8, 12, 14)
MUTATED_IDENTITY = "det_product"

clock = time.perf_counter


def median_ms(values):
    return 1e3 * statistics.median(values)


def p90_ms(values):
    return 1e3 * statistics.quantiles(values, n=10)[-1]


# --- set-up ------------------------------------------------------------------


def child_import_s(env) -> float:
    """Time of `import ringmat.cli` in a fresh interpreter, measured inside it."""
    code = ("import time; t = time.perf_counter(); import ringmat.cli; "
            "print(repr(time.perf_counter() - t))")
    _, proc = run_child([sys.executable, "-c", code], env=env)
    if proc.returncode != 0:
        raise RuntimeError(f"importing ringmat failed: {proc.stderr[-500:]!r}")
    return float(proc.stdout)


def set_up(w, workdir: Path, reps: int) -> tuple:
    """Set the workload up reps times; returns (raw, calibrated) seconds.

    One set-up is the library import in a fresh interpreter plus corpus
    generation and warm-up in this process.  Each is calibrated by the
    mean of the reference times measured before and after it.
    """
    env = child_env()
    raw, calibrated = [], []
    for _ in range(reps):
        ref_before = reference_s()
        t_import = child_import_s(env)
        start = clock()
        w.setup(workdir)
        elapsed = t_import + clock() - start
        ref = (ref_before + reference_s()) / 2
        raw.append(elapsed)
        calibrated.append(elapsed * REFERENCE_S / ref)
    return raw, calibrated


# --- untraced run ------------------------------------------------------------


def timed_loop(w, seconds: float) -> tuple:
    """Closed loop of rounds until seconds have passed and MIN_SAMPLES
    rounds ran (or MAX_LOOP_S is reached).  Each round is one latency
    sample.

    Returns the rounds and the reference time measured before each one,
    plus one after the last.
    """
    rounds, refs = [], []
    start = clock()
    while True:
        refs.append(reference_s())
        rounds.append(w.run_round(len(rounds)))
        elapsed = clock() - start
        if (elapsed >= seconds and len(rounds) >= MIN_SAMPLES) or elapsed >= MAX_LOOP_S:
            refs.append(reference_s())
            return rounds, refs


def golden_mismatches(name: str, seed: int, rounds) -> list:
    """Digest mismatches against golden.json (default seed only).

    The pinned digest of each kind is that of its first occurrence.
    """
    firsts = first_digests(rounds)
    if seed != DEFAULT_SEED or not firsts:
        return []
    pinned = json.loads((BENCH / "golden.json").read_text())[name]
    return [f"{kind}: sha256 {got[:12]}.. differs from the pinned digest"
            for kind, got in firsts.items() if pinned.get(kind) != got]


def first_digests(rounds) -> dict:
    out = {}
    for r in rounds:
        for kind, digest in r.digests.items():
            out.setdefault(kind, digest)
    return out


def peak_rss_mb(name: str) -> float:
    # cli_oneshot does its work in children; the others in this process.
    who = resource.RUSAGE_CHILDREN if name == "cli_oneshot" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def untraced(name: str, w, seed: int, seconds: float, workdir: Path) -> dict:
    setups_raw, setups = set_up(w, workdir, SETUP_REPS)
    start = clock()
    rounds, refs = timed_loop(w, seconds)
    wall = clock() - start
    scale = scales(refs)
    errors = golden_mismatches(name, seed, rounds)
    attempted = sum(r.attempted for r in rounds)
    failed = min(attempted, sum(r.failed for r in rounds) + len(errors))
    errors += [e for r in rounds for e in r.errors]
    results = sum(r.results for r in rounds)
    raw = [r.busy_s for r in rounds]
    latencies = [r.busy_s * k for r, k in zip(rounds, scale)]
    busy_raw, busy = sum(raw), sum(latencies)
    metrics = {
        "results_per_s": (results / busy, "1/s"),
        "latency_ms_p50": (median_ms(latencies), "ms"),
        "latency_ms_p90": (p90_ms(latencies), "ms"),
        "peak_rss_mb": (peak_rss_mb(name), "MB"),
        "setup_s": (statistics.median(setups), "s"),
    }
    detail = {"failed_share": (failed / attempted, "share"),
              "samples": (len(latencies), "count"),
              "loop_wall_s": (wall, "s"),
              "reference_ms_p50": (median_ms(refs), "ms"),
              "raw_results_per_s": (results / busy_raw, "1/s"),
              "raw_latency_ms_p50": (median_ms(raw), "ms"),
              "raw_latency_ms_p90": (p90_ms(raw), "ms"),
              "raw_setup_s": (statistics.median(setups_raw), "s")}
    # The workloads' own names for these numbers, calibrated like them.
    for kind in w.kinds:
        values = [r.kinds[kind] * k for r, k in zip(rounds, scale) if kind in r.kinds]
        detail[f"{kind}_ms_p50"] = (median_ms(values), "ms")
        if name.startswith("kernels_"):
            detail[f"{kind}_ms_p90"] = (p90_ms(values), "ms")
    if name == "fuzz_mixed":
        detail["reports_per_s"] = metrics["results_per_s"]
    if name == "cli_oneshot":
        detail["cli_ms_p50"] = metrics["latency_ms_p50"]
        detail["cli_ms_p90"] = metrics["latency_ms_p90"]
    return {"attempted": attempted, "failed": failed, "metrics": metrics,
            "detail": detail, "errors": errors,
            "digests": first_digests(rounds)}


# --- traced run --------------------------------------------------------------


def ring_op_ns(samples) -> tuple:
    """Mean over the workload's rings of ns per Ring.mul / Ring.add call,
    timed in batches over sampled elements with no tracer installed."""
    mul, add = [], []
    for R, xs in samples:
        ys = xs[1:] + xs[:1]
        for fn, acc in ((R.mul, mul), (R.add, add)):
            reps = []
            for _ in range(9):
                start = clock()
                list(map(fn, xs, ys))
                reps.append((clock() - start) / len(xs))
            acc.append(statistics.median(reps))
    return 1e9 * statistics.fmean(mul), 1e9 * statistics.fmean(add)


def det_growth(seed: int) -> dict:
    """Median det time over ZZ at each n in GROWTH_SIZES."""
    from ringmat import ZZ, Matrix
    out = {}
    for n in GROWTH_SIZES:
        rng = seeded(seed, "growth", n)
        times = []
        for _ in range(3):
            a = Matrix.from_rows(ZZ, int_rows(rng, n))
            for _ in range(3):
                start = clock()
                a.det()
                times.append(clock() - start)
        out[f"matrix.det_ms.n{n}"] = (median_ms(times), "ms")
    return out


def interpreter_probes() -> dict:
    env = child_env()
    bare = [run_child([sys.executable, "-c", "pass"], env=env)[0] for _ in range(5)]
    imp = [run_child([sys.executable, "-c", "import ringmat.cli"], env=env)[0]
           for _ in range(5)]
    return {"cli.interpreter_s": (statistics.median(bare), "s"),
            "cli.import_s": (statistics.median(imp) - statistics.median(bare), "s")}


def traced_pass(w, n_rounds: int, tracer_cls):
    """Rounds 0..n_rounds-1, traced when tracer_cls is given."""
    tracer = tracer_cls() if tracer_cls else None
    rounds = [w.run_round(i, tracer) for i in range(n_rounds)]
    busy = sum(r.busy_s for r in rounds)
    if tracer is None:
        return rounds, busy, None
    totals = merge([tracer.aggregate()] + [t for r in rounds for t in r.traces])
    layers = layer_metrics(totals)
    layers["report.emit_bytes"] = (sum(r.emit_bytes for r in rounds), "bytes")
    layers["cli.stdout_bytes"] = (sum(r.stdout_bytes for r in rounds), "bytes")
    return rounds, busy, layers


def traced(name: str, w, seed: int, workdir: Path) -> dict:
    set_up(w, workdir, 1)
    reference_ms = median_ms([reference_s() for _ in range(5)])
    metrics = {}
    mul_ns, add_ns = ring_op_ns(ring_samples(seed, name, w.ring_texts))
    metrics["rings.mul_ns"] = (mul_ns, "ns")
    metrics["rings.add_ns"] = (add_ns, "ns")
    metrics.update(det_growth(seed))
    metrics.update(interpreter_probes())

    n = TRACED_ROUNDS[name]
    base_rounds, base_busy, _ = traced_pass(w, n, None)
    rounds_1, busy_1, layers_1 = traced_pass(w, n, Tracer)
    rounds_2, busy_2, layers_2 = traced_pass(w, n, Tracer)
    errors = []
    for key, (value, unit) in layers_1.items():
        if unit in ("count", "bytes") and layers_2[key][0] != value:
            errors.append(f"{key} did not repeat: {value} then {layers_2[key][0]}")
    metrics.update(layers_1)
    metrics["trace.overhead_ratio"] = ((busy_1 + busy_2) / 2 / base_busy, "ratio")
    rounds = base_rounds + rounds_1 + rounds_2
    attempted = sum(r.attempted for r in rounds)
    failed = min(attempted, sum(r.failed for r in rounds) + len(errors))
    errors += [e for r in rounds for e in r.errors]
    return {"attempted": attempted, "failed": failed, "metrics": metrics,
            "detail": {"traced_rounds": (n, "count"),
                       "reference_ms_p50": (reference_ms, "ms"),
                       "failed_share": (failed / attempted, "share")},
            "errors": errors, "digests": first_digests(base_rounds)}


# --- one workload run --------------------------------------------------------


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_workload(args) -> int:
    spec = load_spec()
    wanted = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    w = WORKLOADS[args.workload](args.seed)
    work_root = BENCH / ".work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    try:
        if args.trace:
            res = traced(args.workload, w, args.seed, workdir)
        else:
            res = untraced(args.workload, w, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    missing = [k for k in wanted if k not in res["metrics"]]
    if missing:
        raise RuntimeError(f"metrics not produced: {missing}")
    correct = res["failed"] == 0
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for key, (value, unit) in {**res["metrics"], **res["detail"]}.items():
        print(f"  {key:40s} {value:>14.6g} {unit}")
    for err in res["errors"][:20]:
        print(f"  error: {err}")
    if args.detail:
        Path(args.detail).write_text(json.dumps({
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "correct": correct, "attempted": res["attempted"],
            "failed": res["failed"],
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in res["metrics"].items()},
            "detail": {k: {"value": v, "unit": u} for k, (v, u) in res["detail"].items()},
            "digests": res["digests"], "errors": res["errors"][:100],
        }, indent=1) + "\n")
    print(json.dumps({
        "correct": correct, "attempted": res["attempted"], "failed": res["failed"],
        "metrics": {k: {"value": res["metrics"][k][0], "unit": res["metrics"][k][1]}
                    for k in wanted},
    }))
    return 0 if correct else 1


# --- summary and self-test ---------------------------------------------------


def run_child_bench(argv, env=None) -> tuple:
    """Run this script as a child; returns (exit code, last JSON line, detail)."""
    with tempfile.NamedTemporaryFile(dir=BENCH / ".work", suffix=".json",
                                     delete=False) as fh:
        detail_path = Path(fh.name)
    try:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__)), *argv, "--detail", str(detail_path)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=600)
        sys.stderr.write(proc.stderr)
        last = json.loads(proc.stdout.strip().splitlines()[-1]) if proc.stdout.strip() else None
        detail = json.loads(detail_path.read_text()) if detail_path.stat().st_size else None
    finally:
        detail_path.unlink(missing_ok=True)
    return proc.returncode, last, detail


def summary(args) -> int:
    """Every workload untraced, then traced; prints each metric with its unit."""
    (BENCH / ".work").mkdir(exist_ok=True)
    out, bad = {}, False
    for name in WORKLOADS:
        out[name] = {}
        for trace in (0, 1):
            rc, _, detail = run_child_bench(
                ["--workload", name, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(trace)])
            if detail is None:
                print(f"{name} trace={trace}: no result (exit {rc})")
                bad = True
                continue
            out[name]["traced" if trace else "untraced"] = detail
            share = detail["detail"]["failed_share"]["value"]
            bad |= rc != 0 or share > 0
            print(f"{name} ({'traced' if trace else 'untraced'}): "
                  f"failed_share {share:.6g} share")
            for key, m in {**detail["metrics"], **detail["detail"]}.items():
                print(f"  {key:40s} {m['value']:>14.6g} {m['unit']}")
    if args.out:
        Path(args.out).write_text(json.dumps(out, indent=1) + "\n")
    print("FAILED" if bad else "ok: failed_share is 0 on every workload")
    return 1 if bad else 0


def self_test(args) -> int:
    """The gate must fail under RINGMAT_MUTATE and pass without it."""
    (BENCH / ".work").mkdir(exist_ok=True)
    argv = ["--workload", "fuzz_mixed", "--seed", str(args.seed),
            "--seconds", "1", "--trace", "0"]
    clean_env = {k: v for k, v in os.environ.items() if k != "RINGMAT_MUTATE"}
    ok = True
    for label, env, want_failed in (
            ("mutated", dict(clean_env, RINGMAT_MUTATE=MUTATED_IDENTITY), True),
            ("unmutated", clean_env, False)):
        rc, last, _ = run_child_bench(argv, env)
        failed = last["failed"] if last else None
        share = failed / last["attempted"] if last else None
        passed = last is not None and (share > 0) == want_failed and (rc != 0) == want_failed
        ok &= passed
        print(f"{label}: exit {rc}, failed_share {share} -> "
              f"{'as expected' if passed else 'UNEXPECTED'}")
    print("self-test passed" if ok else "self-test FAILED")
    return 0 if ok else 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=float(load_spec()["run_seconds"]))
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--detail", help="also write every measurement to this JSON file")
    p.add_argument("--summary", action="store_true",
                   help="run every workload, untraced then traced")
    p.add_argument("--out", help="with --summary: write the combined results here")
    p.add_argument("--self-test", action="store_true",
                   help="check that a mutated identity fails the output gate")
    args = p.parse_args(argv)
    if args.summary:
        return summary(args)
    if args.self_test:
        return self_test(args)
    if not args.workload:
        p.error("--workload is required")
    return run_workload(args)


if __name__ == "__main__":
    if not (SRC / "ringmat" / "__init__.py").is_file():
        sys.stderr.write(f"error: ringmat sources not found under {SRC}; "
                         "run from a full checkout of the repository\n")
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    sys.exit(main())
