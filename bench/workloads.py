"""The four benchmark workloads and their output checks.

Each workload is a closed loop with one client: a round is issued only
after the previous one returned, calls are sequential, and at most one
child process runs at a time.  Inputs come from the benchmark seed
through Python's own random.Random; ringmat only ever sees the
generated matrices and argument lists.

A workload object offers setup() (corpus generation and warm-up) and
run_round(i), which performs round i of the loop, times its calls, then
checks their outputs outside the timed region.  Its kinds name the
calls a round can make, and ring_texts the rings its inputs live in.
Round i always issues the same calls for a given seed, so a fixed
number of rounds is a fixed amount of work, which the traced run
relies on.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
CHILD_TIMEOUT_S = 60

clock = time.perf_counter


@dataclass
class Round:
    """What one round did: timings, op outcomes and emitted bytes."""

    busy_s: float = 0.0                             # timed seconds: the latency sample
    kinds: dict = field(default_factory=dict)       # kind -> seconds
    results: int = 0
    attempted: int = 0
    failed: int = 0
    emit_bytes: int = 0
    stdout_bytes: int = 0
    digests: dict = field(default_factory=dict)
    traces: list = field(default_factory=list)      # child-process totals
    errors: list = field(default_factory=list)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    return env


def run_child(argv, env):
    """Run one child to completion; returns (seconds, CompletedProcess)."""
    start = clock()
    proc = subprocess.run(argv, capture_output=True, env=env, cwd=ROOT,
                          timeout=CHILD_TIMEOUT_S)
    return clock() - start, proc


@contextlib.contextmanager
def installed(tracer):
    """Install tracer (if any) for the duration of the block."""
    if tracer is None:
        yield
        return
    tracer.install()
    try:
        yield
    finally:
        tracer.uninstall()


def seeded(seed: int, *labels) -> random.Random:
    return random.Random(":".join(["ringbench", str(seed), *map(str, labels)]))


# --- independent arithmetic used by the checks ------------------------------


def det_by_elimination(rows) -> Fraction:
    """Determinant of a square matrix of ints or Fractions, by Gaussian
    elimination over the rationals.  Shares no code with ringmat."""
    a = [[Fraction(v) for v in row] for row in rows]
    n = len(a)
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            det = -det
        p = a[col][col]
        det *= p
        for r in range(col + 1, n):
            f = a[r][col] / p
            if f:
                row_r, row_c = a[r], a[col]
                for c in range(col, n):
                    row_r[c] -= f * row_c[c]
    return det


def matmul_lists(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)]
            for row in a]


def rows_of(m):
    return [m.row_list(i) for i in range(1, m.rows + 1)]


# --- input generation --------------------------------------------------------


def int_rows(rng: random.Random, n: int):
    return [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]


def rat_rows(rng: random.Random, n: int):
    return [[Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n)]
            for _ in range(n)]


def rat_json(v: Fraction):
    return {"num": str(v.numerator), "den": str(v.denominator)}


def ring_samples(seed: int, label: str, ring_texts, k: int = 1024):
    """k sampled elements per ring, for timing batches of ring ops."""
    import ringmat
    rng = seeded(seed, label, "ring_ns")
    out = []
    for text in ring_texts:
        R = ringmat.parse_ring(text)
        if text == "rat":
            vals = [v for row in rat_rows(rng, 32) for v in row][:k]
        elif text.startswith("poly:"):
            vals = [R.coerce([rng.randint(-9, 9), rng.randint(-9, 9)])
                    for _ in range(k)]
        else:
            vals = [R.coerce(rng.randint(-9, 9)) for _ in range(k)]
        out.append((R, vals))
    return out


# --- kernels_zz / kernels_qq ------------------------------------------------


class Kernels:
    """det, charpoly and adjugate, interleaved per matrix, over one ring."""

    kinds = ("det", "charpoly", "adjugate")
    corpus_size = 128

    def __init__(self, name: str, ring_name: str, n: int, seed: int):
        self.name, self.ring_name, self.n, self.seed = name, ring_name, n, seed
        self.ring_texts = (ring_name,)
        self.corpus = []

    def ring(self):
        import ringmat
        return ringmat.ZZ if self.ring_name == "int" else ringmat.QQ

    def setup(self, workdir: Path) -> None:
        from ringmat import Matrix
        R = self.ring()
        gen = int_rows if self.ring_name == "int" else rat_rows
        rng = seeded(self.seed, self.name)
        self.corpus = [Matrix.from_rows(R, gen(rng, self.n))
                       for _ in range(self.corpus_size)]
        self.run_round(0)

    def run_round(self, i: int, tracer=None) -> Round:
        import ringmat
        a = self.corpus[i % len(self.corpus)]
        out = Round()
        values = {}
        # Looked up at call time, so an installed tracer sees the calls.
        calls = {"det": lambda: a.det(), "charpoly": lambda: ringmat.charpoly(a),
                 "adjugate": lambda: a.adjugate()}
        with installed(tracer):
            for kind, call in calls.items():
                start = clock()
                try:
                    values[kind] = call()
                except Exception as exc:  # a raising op is a failed op
                    out.errors.append(f"{kind}: {exc!r}")
                dt = clock() - start
                out.kinds[kind] = dt
                out.busy_s += dt
        out.attempted = len(self.kinds)
        out.results = len(values)
        bad = self.check(a, values, out.errors) | (set(self.kinds) - set(values))
        out.failed = len(bad)
        return out

    def check(self, a, values, errors) -> set:
        """Algebraic cross-checks; returns the kinds whose output is wrong."""
        import ringmat
        if set(values) != set(self.kinds):
            return set()
        n = self.n
        rows = rows_of(a)
        det, cp, adj = values["det"], values["charpoly"], values["adjugate"]
        bad = set()
        if det != det_by_elimination(rows):
            bad.add("det")
            errors.append("det differs from elimination")
        adj_rows = rows_of(adj)
        det_i = [[det if r == c else 0 for c in range(n)] for r in range(n)]
        if (matmul_lists(rows, adj_rows) != det_i
                or matmul_lists(adj_rows, rows) != det_i):
            bad |= {"adjugate", "det"}
            errors.append("A adj(A) or adj(A) A differs from det(A) I")
        sign = -1 if n & 1 else 1
        if cp.c[n] != sign * det:
            bad |= {"charpoly", "det"}
            errors.append("c_n differs from (-1)^n det(A)")
        if cp.c[1] != -sum(rows[k][k] for k in range(n)):
            bad.add("charpoly")
            errors.append("c_1 differs from -tr(A)")
        if self.ring_name == "rat" and ringmat.charpoly_newton(a).c != cp.c:
            bad.add("charpoly")
            errors.append("charpoly differs from charpoly_newton")
        return bad


# --- fuzz_mixed --------------------------------------------------------------


FUZZ_RINGS = ("int", "mod:8", "rat", "poly:mod:8")
FUZZ_COUNT = 2
FUZZ_SIZE = 4


class FuzzMixed:
    """In-process fuzz campaigns of the whole registry, one per ring."""

    kinds = ring_texts = FUZZ_RINGS

    def __init__(self, name: str, seed: int):
        self.name, self.seed = name, seed
        self.workdir = None

    def campaign_seed(self, i: int, ring: str) -> int:
        return seeded(self.seed, self.name, i, ring).getrandbits(63)

    def setup(self, workdir: Path) -> None:
        self.workdir = workdir
        for ring in FUZZ_RINGS:
            self._campaign(ring, seed=self.campaign_seed(-1, ring), count=1)

    def _campaign(self, ring: str, seed: int, count: int):
        from ringmat import cli
        path = self.workdir / f"fuzz-{ring.replace(':', '_')}.json"
        argv = ["fuzz", "--ring", ring, "--suite", "all", "--size",
                str(FUZZ_SIZE), "--seed", str(seed), "--count", str(count),
                "--out", str(path)]
        buf = io.StringIO()
        start = clock()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(argv)
        return clock() - start, rc, buf.getvalue(), path

    def run_round(self, i: int, tracer=None) -> Round:
        out = Round()
        for ring in FUZZ_RINGS:
            out.attempted += 1
            try:
                with installed(tracer):
                    dt, rc, stdout, path = self._campaign(
                        ring, self.campaign_seed(i, ring), FUZZ_COUNT)
            except Exception as exc:  # a raising campaign is a failed op
                out.failed += 1
                out.errors.append(f"fuzz {ring}: {exc!r}")
                continue
            out.kinds[ring] = dt
            out.busy_s += dt
            out.stdout_bytes += len(stdout.encode())
            problem = f"exit code {rc}" if rc != 0 else None
            if problem is None:
                data = path.read_bytes()
                out.emit_bytes += len(data)
                out.digests[ring] = hashlib.sha256(data).hexdigest()
                summary = parse_summary(stdout)
                reports = _json_or_none(data)
                if summary is None or summary["failed"] != 0:
                    problem = f"summary {stdout.strip()!r}"
                elif reports is None or summary["total"] != len(reports) or any(
                        r["hypothesis_met"] and not r["passed"] for r in reports):
                    problem = "report file disagrees with the summary"
                else:
                    out.results += len(reports)
            if problem:
                out.failed += 1
                out.errors.append(f"fuzz {ring}: {problem}")
        return out


def parse_summary(text: str):
    """The 'total=.. passed=.. failed=.. hypothesis_not_met=..' line."""
    lines = text.strip().splitlines()
    if not lines:
        return None
    try:
        fields = dict(part.split("=", 1) for part in lines[-1].split())
        return {k: int(fields[k]) for k in
                ("total", "passed", "failed", "hypothesis_not_met")}
    except (KeyError, ValueError):
        return None


# --- cli_oneshot -------------------------------------------------------------


CLI_KINDS = ("charpoly_int2", "adjugate_mod8_2", "charpoly_newton_rat6",
             "verify_all_int4", "fuzz_core")


class CliOneshot:
    """Sequential CLI processes over a fixed five-command mix, one
    process per round."""

    kinds = CLI_KINDS
    ring_texts = ("int", "mod:8", "rat")

    def __init__(self, name: str, seed: int):
        self.name, self.seed = name, seed
        self.env = child_env()
        self.workdir = None

    def commands(self, i: int):
        """The five (kind, argv, check) triples of round i."""
        rng = seeded(self.seed, self.name, i)
        a2 = int_rows(rng, 2)
        m2 = [[v % 8 for v in row] for row in int_rows(rng, 2)]
        r6 = rat_rows(rng, 6)
        a4 = int_rows(rng, 4)
        s_verify, s_fuzz = rng.getrandbits(63), rng.getrandbits(63)

        def mat(ring, rows, conv=str):
            return json.dumps({"ring": ring, "rows": len(rows),
                               "cols": len(rows),
                               "entries": [[conv(v) for v in r] for r in rows]})

        return [
            ("charpoly_int2", ["charpoly", "--matrix", mat("int", a2)],
             lambda out: check_charpoly_2x2(out, a2)),
            ("adjugate_mod8_2", ["adjugate", "--matrix", mat("mod:8", m2)],
             lambda out: check_adjugate_mod8(out, m2)),
            ("charpoly_newton_rat6",
             ["charpoly", "--newton", "--matrix", mat("rat", r6, rat_json)],
             lambda out: check_charpoly_rat(out, r6)),
            ("verify_all_int4",
             ["verify", "all", "--matrix", mat("int", a4), "--seed", str(s_verify)],
             check_report_stdout),
            ("fuzz_core",
             ["fuzz", "--ring", "int", "--suite", "core", "--count", "5",
              "--size", "3", "--seed", str(s_fuzz)],
             check_report_stdout),
        ]

    def setup(self, workdir: Path) -> None:
        self.workdir = workdir
        argv = self.commands(-1)[0][1]
        run_child([sys.executable, "-m", "ringmat.cli", *argv], env=self.env)

    def run_round(self, i: int, tracer=None) -> Round:
        """One process: command i % 5 of the mix drawn for i // 5.

        With a tracer, the child runs under its own Tracer and its totals
        are returned in Round.traces.
        """
        kind, argv, check = self.commands(i // len(CLI_KINDS))[i % len(CLI_KINDS)]
        out = Round(attempted=1)
        if tracer is not None:
            totals = self.workdir / f"trace-{i}.json"
            cmd = [sys.executable, str(BENCH / "trace_child.py"), str(totals), *argv]
        else:
            cmd = [sys.executable, "-m", "ringmat.cli", *argv]
        try:
            out.busy_s, proc = run_child(cmd, env=self.env)
        except subprocess.TimeoutExpired:
            out.busy_s, out.failed = CHILD_TIMEOUT_S, 1
            out.errors.append(f"{kind}: timed out")
            return out
        out.kinds[kind] = out.busy_s
        out.results = 1
        out.stdout_bytes = len(proc.stdout)
        if kind in ("verify_all_int4", "fuzz_core"):
            out.emit_bytes = len(proc.stdout)
        out.digests[kind] = hashlib.sha256(proc.stdout).hexdigest()
        if tracer is not None:
            out.traces.append(json.loads(totals.read_text()))
            totals.unlink()
        problem = (f"exit code {proc.returncode}: {proc.stderr[-300:]!r}"
                   if proc.returncode != 0 else check(proc.stdout))
        if problem:
            out.failed = 1
            out.errors.append(f"{kind}: {problem}")
        return out


def _json_or_none(data: bytes):
    try:
        return json.loads(data)
    except ValueError:
        return None


def check_charpoly_2x2(stdout: bytes, a):
    obj = _json_or_none(stdout)
    (p, q), (r, s) = a
    want = [str(p * s - q * r), str(-(p + s)), "1"]
    if obj is None or obj.get("chi", {}).get("coeffs") != want:
        return "chi differs from t^2 - tr(A) t + det(A)"
    if obj.get("c") != want[::-1]:
        return "c differs from chi"
    return None


def check_adjugate_mod8(stdout: bytes, a):
    obj = _json_or_none(stdout)
    (p, q), (r, s) = a
    want = [[str(s % 8), str(-q % 8)], [str(-r % 8), str(p % 8)]]
    if obj is None or obj.get("entries") != want:
        return "adjugate differs from [[d, -b], [-c, a]] mod 8"
    return None


def check_charpoly_rat(stdout: bytes, a):
    obj = _json_or_none(stdout)
    n = len(a)
    if obj is None or obj.get("method") != "newton" or len(obj.get("c", [])) != n + 1:
        return "not a Newton charpoly of the right degree"
    c = [Fraction(int(v["num"]), int(v["den"])) for v in obj["c"]]
    sign = -1 if n & 1 else 1
    if c[0] != 1 or c[1] != -sum(a[k][k] for k in range(n)):
        return "c_0 or c_1 differs from 1, -tr(A)"
    if c[n] != sign * det_by_elimination(a):
        return "c_n differs from (-1)^n det(A)"
    return None


def check_report_stdout(stdout: bytes):
    text = stdout.decode()
    summary = parse_summary(text)
    if summary is None or summary["failed"] != 0:
        return f"summary {text.strip().splitlines()[-1:]!r}"
    body = text[:text.rstrip().rfind("\n")]
    reports = _json_or_none(body.encode())
    if reports is None or len(reports) != summary["total"]:
        return "report array disagrees with the summary"
    return None


# --- registry ----------------------------------------------------------------


WORKLOADS = {
    "fuzz_mixed": lambda seed: FuzzMixed("fuzz_mixed", seed),
    "kernels_zz": lambda seed: Kernels("kernels_zz", "int", 10, seed),
    "kernels_qq": lambda seed: Kernels("kernels_qq", "rat", 8, seed),
    "cli_oneshot": lambda seed: CliOneshot("cli_oneshot", seed),
}
