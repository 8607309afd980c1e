"""Acceptance gate: fourteen numbered end-to-end criteria.

One test per criterion, named test_criterion_NN_<slug>, so a verbose
pytest run prints exactly one pass/fail line for each.  Every check is
exact (zero tolerance): residuals must be the ring's zero, coefficient
lists must compare equal, CLI output must match byte for byte.  Each
criterion also carries a wall-clock budget that is asserted, not just
aspired to; corpora are frozen through the library's own seeded
generator so the timings are reproducible.
"""

import json
import subprocess
import sys
import time

import pytest

from helpers import (
    RINGS5,
    Z6,
    Z8,
    ZT,
    assert_multinomial_recurrence,
    cli_env,
    corpus,
    mat,
)
from ringmat import identities as ids
from ringmat.charpoly import (
    cayley_hamilton_residual,
    charpoly,
    charpoly_newton,
)
from ringmat.derivations import (
    standard_derivations,
    verify_derivation_det,
    verify_derivation_det_rows,
    verify_leibniz_chain,
)
from ringmat.fuzz import (
    sample_commuting,
    sample_element,
    sample_indicator,
    sample_matrix,
    sample_nilpotent,
    sample_strict_upper,
    stream,
)
from ringmat.identities import subset_pairs
from ringmat.matrix import Matrix
from ringmat.poly import PolynomialRing
from ringmat.rings import QQ, ZZ, ModRing


def _ok(rep):
    assert rep.passed and rep.hypothesis_met, (rep.identity, rep.inputs)
    return rep


class _Budget:
    def __init__(self, num: int, slug: str, cap: float):
        self.num, self.slug, self.cap = num, slug, cap
        self.t0 = time.perf_counter()

    def done(self, detail: str) -> None:
        dt = time.perf_counter() - self.t0
        assert dt < self.cap, (
            f"criterion {self.num} blew its {self.cap:.0f}s budget: {dt:.1f}s")
        print(f"criterion {self.num:02d} {self.slug}: PASS "
              f"({detail}; {dt:.2f}s < {self.cap:.0f}s)")


@pytest.fixture(scope="module")
def ch_corpus():
    # criteria 2 and 3 run on the same 200 matrices per ring
    return [(label, ring, corpus(ring, f"accept-ch-{label}", 200, 5))
            for label, ring in RINGS5]


def test_criterion_01_determinant_oracle():
    b = _Budget(1, "det equals permutation-sum det", 10)
    checked = 0
    for label, ring in RINGS5:
        for a in corpus(ring, f"accept-det-{label}", 500, 5):
            assert a.det() == a.det_leibniz(), (label, a.to_json())
            checked += 1
    b.done(f"{checked} matrices over 5 rings")


def test_criterion_02_cayley_hamilton(ch_corpus):
    b = _Budget(2, "chi_A(A) = 0", 10)
    checked = 0
    for label, ring, mats in ch_corpus:
        for a in mats:
            assert cayley_hamilton_residual(a).is_zero(), (label, a.to_json())
            checked += 1
    b.done(f"{checked} matrices")


def test_criterion_03_trace_cayley_hamilton(ch_corpus):
    b = _Budget(3, "trace recursion for k <= 2n+1", 20)
    checked = 0
    for label, ring, mats in ch_corpus:
        for a in mats:
            _ok(ids.verify_trace_cayley_hamilton(a))
            checked += 1
    b.done(f"{checked} matrices, all k")


def test_criterion_04_newton_agreement():
    b = _Budget(4, "direct charpoly = Newton charpoly over Q", 10)
    for a in corpus(QQ, "accept-newton", 200, 5):
        left = charpoly(a)
        right = charpoly_newton(a)
        assert left.chi == right.chi
        assert left.c == right.c
        assert left.D == right.D
    b.done("200 rational matrices")


def test_criterion_05_adjugate_identity_bundle():
    b = _Budget(5, "nine adjugate laws incl. singular inputs", 30)
    reports = 0
    for label, ring in RINGS5:
        singular = 0
        mats = corpus(ring, f"accept-adj-{label}", 100, 4, singular_every=5)
        for i, a in enumerate(mats):
            rng = stream(2026, f"accept-adj-aux-{label}", i)
            if a.rows and a.det() == ring.zero():
                singular += 1
            partner = sample_matrix(rng, ring, a.rows, a.rows)
            scalar = sample_element(rng, ring)
            _ok(ids.verify_adj_inverse(a))
            _ok(ids.verify_adj_via_charpoly(a))
            _ok(ids.verify_adj_product(a, partner))
            _ok(ids.verify_adj_of_adj(a))
            square1 = a if a.rows else sample_matrix(rng, ring, 1, 1)
            _ok(ids.verify_adj_scalar(square1, scalar))
            _ok(ids.verify_adj_trace(a))
            _ok(ids.verify_trace_coefficient(a))
            _ok(ids.verify_trace_of_D(a))
            _ok(ids.verify_coefficient_family(a))
            reports += 9
        assert singular >= 20, (label, singular)
    b.done(f"{reports} checks, >= 20 singular per ring")


def test_criterion_06_charpoly_derivative():
    b = _Budget(6, "d/dt chi = Tr adj(tI - A)", 20)
    for label, ring in RINGS5:
        for a in corpus(ring, f"accept-ddet-{label}", 100, 4):
            _ok(ids.verify_charpoly_derivative(a))
    b.done("100 matrices per ring")


def test_criterion_07_jacobi_exhaustive():
    b = _Budget(7, "Jacobi on every subset pair", 30)
    pairs = 0
    for label, ring in (("int", ZZ), ("mod8", Z8)):
        for i in range(50):
            rng = stream(2026, f"accept-jacobi-{label}", i)
            n = 1 + rng.below(4)
            a = sample_matrix(rng, ring, n, n)
            for p, q in subset_pairs(n):
                _ok(ids.verify_jacobi(a, p, q))
                pairs += 1
    b.done(f"{pairs} subset pairs on 100 matrices")


def test_criterion_08_block_and_commuting():
    b = _Budget(8, "six block laws on constructed instances", 30)
    cycle = (ZZ, Z6, Z8, QQ)
    for i in range(100):
        ring = cycle[i % 4]
        rng = stream(2026, "accept-block", i)
        n = rng.below(4)
        m = 1 + rng.below(3)
        a = sample_matrix(rng, ring, n, n)
        commuting = sample_commuting(rng, a)
        s = sample_matrix(rng, ring, n, n)
        _ok(ids.verify_commute_swap(a, commuting, s))
        _ok(ids.verify_block_commute(a, s, commuting,
                                     sample_matrix(rng, ring, n, n)))
        nn = max(n, 1)
        an = a if n else sample_matrix(rng, ring, 1, 1)
        d = sample_matrix(rng, ring, m, m)
        _ok(ids.verify_rank1_block(
            an, d,
            sample_matrix(rng, ring, nn, 1), sample_matrix(rng, ring, m, 1),
            sample_matrix(rng, ring, 1, m), sample_matrix(rng, ring, 1, nn)))
        _ok(ids.verify_matrix_det_lemma(
            a, sample_matrix(rng, ring, n, 1), sample_matrix(rng, ring, 1, n)))
        # bordered: m = 1 with unit glue
        one = Matrix.identity(ring, 1)
        _ok(ids.verify_rank1_block(
            an, sample_matrix(rng, ring, 1, 1),
            sample_matrix(rng, ring, nn, 1), one, one,
            sample_matrix(rng, ring, 1, nn)))
        # corner indicators
        _ok(ids.verify_rank1_block(
            an, d,
            sample_indicator(ring, nn, 1, nn, 1),
            sample_indicator(ring, m, 1, 1, 1),
            sample_indicator(ring, 1, m, 1, 1),
            sample_indicator(ring, 1, nn, 1, nn)))
    b.done("100 instances x 6 identities")


def test_criterion_09_nilpotency():
    b = _Budget(9, "nilpotency criterion and converse", 10)
    for label, ring in RINGS5:
        for i in range(100):
            rng = stream(2026, f"accept-nilp-{label}", i)
            n = 1 + rng.below(5)
            a = sample_strict_upper(rng, ring, n)
            _ok(ids.verify_nilpotency_criterion(a))
            _ok(ids.verify_nilpotency_converse(a, 2 * n + 1))
    # the residue-ring example: nilpotent matrix whose trace is not zero,
    # so the trace hypothesis gate must fire rather than fail
    rep = ids.verify_nilpotency_criterion(mat(Z8, [[2]]))
    assert rep.passed and not rep.hypothesis_met
    assert "2" in str(rep.inputs.get("reason", ""))
    b.done("500 strict-upper matrices + gate check")


def test_criterion_10_almkvist():
    b = _Budget(10, "nilpotent trace powers", 20)
    # anchored instance: A = (2) over Z/8, k = 2 (A^3 = 0)
    a = mat(Z8, [[2]])
    assert Z8.pow(a.trace(), 3) == 0          # (Tr A)^(nk+1) = 0
    assert Z8.pow(a.trace(), 2) == 4          # (Tr A)^(nk) = (2!/2!) (det A)^2
    assert Z8.mul(ids.multinomial(2, (2,)) % 8, Z8.pow(a.det(), 2)) == 4
    _ok(ids.verify_almkvist(a, 2))
    from ringmat.fuzz import power_nilpotent
    for label, ring, ch in (("int", ZZ, 0), ("mod4", ModRing(4), 4),
                            ("mod8", Z8, 8)):
        special = power_nilpotent(ch)
        for i in range(100):
            rng = stream(2026, f"accept-almkvist-{label}", i)
            if special and i % 2:
                # radical multiples: nilpotent with nonzero trace, the
                # case where the congruence has actual content
                e, k = special
                n = 1 + rng.below(2)
                a = sample_matrix(rng, ring, n, n).scale(ring.from_int(e))
            else:
                n = rng.below(5)
                k = rng.below(n + 1)
                a = sample_nilpotent(rng, ring, n, k)
            _ok(ids.verify_almkvist(a, k))
    b.done("anchor + 300 constructed nilpotents")


def test_criterion_11_multinomial_traces():
    b = _Budget(11, "trace-power multinomial family", 30)
    for label, ring in (("int", ZZ), ("mod6", Z6)):
        for i in range(50):
            rng = stream(2026, f"accept-multinom-{label}", i)
            n = rng.below(4)
            a = sample_matrix(rng, ring, n, n)
            for m in range(5):
                _ok(ids.verify_trace_multinomial(a, m))
    for i in range(100):
        ring = (ZZ, Z6)[i % 2]
        rng = stream(2026, "accept-rowrep", i)
        n = rng.below(5)
        _ok(ids.verify_row_replacement(sample_matrix(rng, ring, n, n),
                                       sample_matrix(rng, ring, n, n)))
    for m in range(1, 7):
        for n in range(5):
            assert_multinomial_recurrence(m, n)
    b.done("500 exhaustive m<=4 checks + 100 pairs + recurrence m<=6")


def test_criterion_12_frobenius():
    b = _Budget(12, "Tr(A^p) = (Tr A)^p in characteristic p", 10)
    targets = [(ModRing(2), 2), (ModRing(3), 3), (ModRing(5), 5),
               (PolynomialRing(ModRing(3)), 3)]
    for ring, p in targets:
        for i in range(100):
            rng = stream(2026, f"accept-frob-{p}-{ring!r}", i)
            n = rng.below(5)
            _ok(ids.verify_frobenius_trace(sample_matrix(rng, ring, n, n), p))
    b.done("100 matrices per ring, four rings")


def test_criterion_13_derivations():
    b = _Budget(13, "derivation determinant formulas", 20)
    bases = (ZT, PolynomialRing(Z6))
    for i in range(100):
        L = bases[i % 2]
        rng = stream(2026, "accept-deriv", i)
        n = rng.below(4)
        a = sample_matrix(rng, L, n, n, poly_degree=2)
        chain = [sample_element(rng, L, poly_degree=2) for _ in range(3)]
        for f in standard_derivations(L):
            _ok(verify_derivation_det(f, a))
            _ok(verify_derivation_det_rows(f, a))
            _ok(verify_leibniz_chain(f, chain))
    b.done("100 matrices x {zero, ddt, t*ddt} x 3 laws")


def test_criterion_14_cli_determinism_and_mutation(tmp_path):
    b = _Budget(14, "byte-identical reruns; mutation exits 1", 5)
    env = cli_env()

    def run(argv, **kw):
        return subprocess.run([sys.executable, "-m", "ringmat.cli", *argv],
                              capture_output=True, text=True, **kw)

    argv = ["fuzz", "--ring", "mod:8", "--suite", "core", "--seed", "42",
            "--count", "5", "--size", "3"]
    first = run(argv, env=env)
    second = run(argv, env=env)
    assert first.returncode == 0
    assert first.stdout == second.stdout and first.stdout
    broken_env = cli_env(RINGMAT_MUTATE="det_product")
    a_json = json.dumps({"ring": "int", "entries": [[1, 2], [3, 4]]})
    broken = run(["verify", "det_product", "--matrix", a_json],
                 env=broken_env)
    assert broken.returncode == 1
    reports = json.loads(broken.stdout.rsplit("\n", 2)[0])
    assert reports[0]["passed"] is False
    assert reports[0]["residual"] is not None
    b.done("2 identical campaigns + 1 witnessed violation")
