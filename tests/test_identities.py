"""The identity verifiers, one by one, on hand-checked inputs.

Each verifier returns a VerificationReport; a pass means the residual
was exactly zero in the ambient ring.  Gates (hypothesis not met) and
preconditions (incompatible inputs) are exercised alongside the happy
paths, because the distinction between the three is part of the
contract: gate -> report, precondition -> exception, violation ->
failed report with a witness.
"""

import pytest

from helpers import (
    RINGS8,
    Z6,
    Z8,
    ZT,
    assert_multinomial_recurrence,
    corpus,
    mat,
)
from ringmat import identities as ids
from ringmat.fuzz import sample_commuting, sample_nilpotent, stream
from ringmat.identities import IndexSubset, compositions, multinomial, subset_pairs
from ringmat.matrix import Matrix, char_matrix
from ringmat.poly import PolynomialRing
from ringmat.rings import (
    QQ,
    ZZ,
    GuardError,
    ModRing,
    PreconditionError,
    ShapeError,
)

A = mat(ZZ, [[1, 2], [3, 4]])
B = mat(ZZ, [[0, 1], [1, 1]])
A3 = mat(ZZ, [[1, 2, 3], [4, 5, 6], [7, 8, 10]])
SINGULAR = mat(ZZ, [[1, 2], [2, 4]])


def ok(rep):
    assert rep.passed and rep.hypothesis_met, (rep.identity, rep.inputs)
    assert rep.residual is None
    return rep


def gated(rep):
    assert rep.passed and not rep.hypothesis_met, (rep.identity, rep.inputs)
    return rep


class TestCoreIdentities:
    def test_det_oracle(self):
        ok(ids.verify_det_oracle(A3))
        ok(ids.verify_det_oracle(Matrix(ZZ, 0, 0, ())))

    def test_det_product(self):
        ok(ids.verify_det_product(A, B))
        ok(ids.verify_det_product(SINGULAR, B))

    def test_det_scalar(self):
        ok(ids.verify_det_scalar(A3, -3))
        ok(ids.verify_det_scalar(mat(Z8, [[2, 1], [0, 4]]), 2))

    def test_trace_product_rectangular(self):
        a = mat(ZZ, [[1, 2, 3], [4, 5, 6]])
        b = mat(ZZ, [[7, 8], [9, 10], [11, 12]])
        ok(ids.verify_trace_product(a, b))
        with pytest.raises(ShapeError):
            ids.verify_trace_product(a, a)

    def test_laplace_all_rows(self):
        ok(ids.verify_laplace(A3))
        ok(ids.verify_laplace(mat(Z6, [[2, 3], [3, 2]])))

    def test_row_of_product(self):
        a = mat(ZZ, [[1, 2], [3, 4], [5, 6]])
        b = mat(ZZ, [[1, 0, 2], [0, 1, 3]])
        ok(ids.verify_row_of_product(a, b))

    def test_adj_inverse_including_singular(self):
        ok(ids.verify_adj_inverse(A3))
        # adj still satisfies A adjA = detA I when detA = 0
        ok(ids.verify_adj_inverse(SINGULAR))

    def test_eval_zero_hom(self):
        ok(ids.verify_eval_zero_hom(A))
        ok(ids.verify_eval_zero_hom(mat(Z8, [[2, 7], [4, 4]])))

    def test_det_affine_degree(self):
        ok(ids.verify_det_affine_degree(A, B))
        ok(ids.verify_det_affine_degree(SINGULAR, SINGULAR))

    def test_cayley_hamilton(self):
        ok(ids.verify_cayley_hamilton(A))
        ok(ids.verify_cayley_hamilton(mat(Z8, [[2]])))

    def test_trace_cayley_hamilton(self):
        ok(ids.verify_trace_cayley_hamilton(A))
        ok(ids.verify_trace_cayley_hamilton(A3, kmax=9))

    def test_newton_agreement_gate_and_pass(self):
        gated(ids.verify_newton_agreement(A))
        ok(ids.verify_newton_agreement(mat(QQ, [[1, 2], [3, 4]])))

    def test_adj_via_charpoly(self):
        ok(ids.verify_adj_via_charpoly(A3))
        ok(ids.verify_adj_via_charpoly(Matrix(Z6, 0, 0, ())))

    def test_charpoly_derivative(self):
        rep = ok(ids.verify_charpoly_derivative(A3))
        assert rep.identity == "charpoly_derivative"

    def test_adj_trace(self):
        ok(ids.verify_adj_trace(A))
        ok(ids.verify_adj_trace(A3))
        ok(ids.verify_adj_trace(Matrix(ZZ, 0, 0, ())))

    def test_trace_of_D(self):
        ok(ids.verify_trace_of_D(A3))

    def test_coefficient_family(self):
        ok(ids.verify_coefficient_family(A3))
        ok(ids.verify_coefficient_family(mat(Z8, [[2, 1], [1, 6]])))

    def test_trace_coefficient(self):
        ok(ids.verify_trace_coefficient(A))


class TestAdjugateIdentities:
    def test_adj_product(self):
        ok(ids.verify_adj_product(A, B))
        ok(ids.verify_adj_product(SINGULAR, B))

    def test_adj_of_adj(self):
        ok(ids.verify_adj_of_adj(A))
        ok(ids.verify_adj_of_adj(A3))
        ok(ids.verify_adj_of_adj(SINGULAR))
        ok(ids.verify_adj_of_adj(mat(ZZ, [[3]])))

    def test_adj_scalar(self):
        ok(ids.verify_adj_scalar(A3, 2))
        with pytest.raises(ShapeError):
            ids.verify_adj_scalar(Matrix(ZZ, 0, 0, ()), 2)

    def test_jacobi_reference(self):
        p = IndexSubset(2, (1,))
        ok(ids.verify_jacobi(A, p, p))

    def test_jacobi_exhaustive_3x3(self):
        for a in (A3, mat(Z8, [[1, 2, 3], [0, 4, 1], [2, 2, 2]])):
            for p, q in subset_pairs(3):
                ok(ids.verify_jacobi(a, p, q))

    def test_jacobi_preconditions(self):
        with pytest.raises(PreconditionError):
            ids.verify_jacobi(A, IndexSubset(2, (1,)), IndexSubset(2, (1, 2)))
        with pytest.raises(PreconditionError):
            ids.verify_jacobi(A, IndexSubset(2, ()), IndexSubset(2, ()))


class TestBlockIdentities:
    def test_commute_swap(self):
        rng = stream(5, "commute")
        b = sample_commuting(rng, A)
        ok(ids.verify_commute_swap(A, b, mat(ZZ, [[2, 1], [1, 1]])))

    def test_commute_swap_precondition(self):
        with pytest.raises(PreconditionError):
            ids.verify_commute_swap(A, B, A)   # AB != BA

    def test_block_commute(self):
        c = A @ A   # commutes with A
        ok(ids.verify_block_commute(A, B, c, mat(ZZ, [[1, 1], [0, 1]])))
        with pytest.raises(PreconditionError):
            ids.verify_block_commute(A, B, B, B)

    def test_rank1_block_general(self):
        d = mat(ZZ, [[2, 0], [1, 1]])
        p = mat(ZZ, [[1], [2]])
        q = mat(ZZ, [[3], [4]])
        v = mat(ZZ, [[5, 6]])
        u = mat(ZZ, [[7, 8]])
        ok(ids.verify_rank1_block(A, d, p, q, v, u))

    def test_rank1_block_bordered(self):
        one = Matrix.identity(ZZ, 1)
        p = mat(ZZ, [[1], [0]])
        u = mat(ZZ, [[1, 0]])
        h = mat(ZZ, [[0]])
        rep = ok(ids.verify_rank1_block(Matrix.identity(ZZ, 2), h, p, one,
                                        one, u))
        # the bordered corollary is exercised as an extra part
        assert rep.identity == "rank1_block"

    def test_rank1_block_shape_errors(self):
        with pytest.raises(ShapeError):
            ids.verify_rank1_block(A, A, mat(ZZ, [[1], [2]]),
                                   mat(ZZ, [[1], [2]]), mat(ZZ, [[1, 2]]),
                                   mat(ZZ, [[1, 2, 3]]))

    def test_matrix_det_lemma(self):
        u = mat(ZZ, [[1], [2]])
        v = mat(ZZ, [[3, 4]])
        ok(ids.verify_matrix_det_lemma(A, u, v))
        ok(ids.verify_matrix_det_lemma(SINGULAR, u, v))


class TestNilpotencyAndTraces:
    def test_nilpotency_criterion_strict_upper(self):
        n = mat(ZZ, [[0, 2, 5], [0, 0, 7], [0, 0, 0]])
        ok(ids.verify_nilpotency_criterion(n))

    def test_nilpotency_criterion_rational_exact(self):
        # over a Q-algebra the factorial factors drop and A^n itself
        # must vanish, not just n! A^n
        ok(ids.verify_nilpotency_criterion(mat(QQ, [[0, 1], [0, 0]])))

    def test_nilpotency_gate_on_mod8(self):
        # (2) over Z/8 is nilpotent as a matrix, but Tr A = 2 != 0,
        # so the trace hypothesis fails and the check reports a gate
        rep = gated(ids.verify_nilpotency_criterion(mat(Z8, [[2]])))
        assert "2" in str(rep.inputs.get("reason"))

    def test_each_power_is_built_once(self, monkeypatch):
        # nilpotency: the trace loop's last power is A**n, so no second
        # a ** n, and the loop stops at the first nonzero trace, the one
        # reported; the power lists start at A, not at I @ A
        products = []
        matmul = Matrix.__matmul__

        def spy(x, y):
            products.append(x.rows)
            return matmul(x, y)

        monkeypatch.setattr(Matrix, "__matmul__", spy)
        strict = Matrix(ZZ, 5, 5, [j - i if j > i else 0
                                   for i in range(5) for j in range(5)])
        ok(ids.verify_nilpotency_criterion(strict))
        assert len(products) == 4
        products.clear()
        rep = gated(ids.verify_nilpotency_criterion(
            Matrix(ZZ, 5, 5, [1] * 25)))
        assert products == [] and "Tr(A**1) = 5" in rep.inputs["reason"]
        products.clear()
        ok(ids.verify_trace_multinomial(A, 4))
        assert len(products) == 3       # A**2, A**3, A**4
        products.clear()
        ok(ids.verify_coefficient_family(
            Matrix(ZZ, 5, 5, [(3 * i + j) % 7 - 3 for i in range(5)
                              for j in range(5)])))
        assert len(products) == 6 + 4   # A @ D_k for k = 0..5, A**2..A**5

    def test_nilpotency_converse(self):
        n = mat(ZZ, [[0, 3], [0, 0]])
        ok(ids.verify_nilpotency_converse(n, 5))
        gated(ids.verify_nilpotency_converse(A, 5))

    def test_almkvist_anchor(self):
        a = mat(Z8, [[2]])
        ok(ids.verify_almkvist(a, 2))       # A^3 = 0 in Z/8
        gated(ids.verify_almkvist(a, 1))    # but A^2 = 4 != 0

    def test_almkvist_zero_k(self):
        ok(ids.verify_almkvist(Matrix.zeros(ZZ, 2, 2), 0))
        with pytest.raises(ValueError):
            ids.verify_almkvist(A, -1)

    def test_almkvist_banded(self):
        rng = stream(11, "almkvist-banded")
        a = sample_nilpotent(rng, Z6, 4, 2)
        ok(ids.verify_almkvist(a, 2))

    def test_trace_multinomial_small(self):
        for m in range(5):
            ok(ids.verify_trace_multinomial(A, m))
        ok(ids.verify_trace_multinomial(Matrix(ZZ, 0, 0, ()), 0))

    def test_trace_multinomial_guard(self):
        big = Matrix.zeros(ZZ, 10, 10)
        with pytest.raises(GuardError):
            ids.verify_trace_multinomial(big, 11)

    def test_multinomial_recurrence(self):
        assert_multinomial_recurrence(6, 4)
        assert_multinomial_recurrence(1, 1)

    def test_row_replacement(self):
        ok(ids.verify_row_replacement(A, B))
        ok(ids.verify_row_replacement(SINGULAR, A))

    def test_frobenius_trace(self):
        z3 = ModRing(3)
        ok(ids.verify_frobenius_trace(mat(z3, [[1, 2], [2, 2]]), 3))
        ok(ids.verify_frobenius_trace(mat(ModRing(2), [[1, 1], [0, 1]]), 2))
        gated(ids.verify_frobenius_trace(A, 2))
        with pytest.raises(PreconditionError):
            ids.verify_frobenius_trace(A, 4)
        with pytest.raises(PreconditionError):
            ids.verify_frobenius_trace(A, 1)

    def test_frobenius_over_poly_ring(self):
        R = PolynomialRing(ModRing(3))
        t = R.t()
        a = Matrix.from_rows(R, [[t, R.one()], [t * t, R.coerce(2)]])
        ok(ids.verify_frobenius_trace(a, 3))


class TestCombinatorics:
    def test_index_subset_validation(self):
        s = IndexSubset(4, (1, 3))
        assert len(s) == 2 and s.weight() == 4
        assert s.complement().members == (2, 4)
        with pytest.raises(ValueError):
            IndexSubset(4, (3, 1))
        with pytest.raises(ValueError):
            IndexSubset(4, (0, 1))
        with pytest.raises(ValueError):
            IndexSubset(4, (1, 5))
        with pytest.raises(ValueError):
            IndexSubset(4, (2, 2))

    def test_subset_pairs_count(self):
        # sum over k of C(n,k)^2, k = 1..n: 4x4 gives 69
        assert len(list(subset_pairs(4))) == 69
        assert len(list(subset_pairs(1))) == 1
        assert list(subset_pairs(0)) == []

    def test_multinomial(self):
        assert multinomial(4, (2, 2)) == 6
        assert multinomial(0, ()) == 1
        assert multinomial(3, (3,)) == 1
        with pytest.raises(ValueError):
            multinomial(4, (2, 1))
        with pytest.raises(ValueError):
            multinomial(2, (-1, 3))

    def test_compositions(self):
        assert list(compositions(2, 2)) == [(0, 2), (1, 1), (2, 0)]
        assert list(compositions(0, 0)) == [()]
        assert list(compositions(3, 0)) == []
        assert len(list(compositions(4, 3))) == 15


class TestReportShape:
    def test_failure_carries_residual_witness(self):
        from ringmat.report import set_mutation
        set_mutation(["det_product"])
        try:
            rep = ids.verify_det_product(A, B)
        finally:
            set_mutation([])
        assert not rep.passed and rep.hypothesis_met
        assert rep.residual is not None

    def test_multipart_failure_names_the_part(self):
        from ringmat.report import set_mutation
        set_mutation(["adj_inverse"])
        try:
            rep = ids.verify_adj_inverse(A)
        finally:
            set_mutation([])
        assert not rep.passed
        assert rep.inputs.get("failed_part") == "left"

    def test_inputs_echo_the_operands(self):
        rep = ids.verify_det_product(A, B)
        blob = rep.to_json()
        assert blob["identity"] == "det_product"
        assert blob["inputs"]["matrix"]["entries"] == [["1", "2"], ["3", "4"]]
        assert blob["inputs"]["matrix_b"]["entries"] == [["0", "1"], ["1", "1"]]


class TestPrimality:
    def test_matches_a_sieve(self):
        limit = 20_000
        sieve = [True] * limit
        sieve[0] = sieve[1] = False
        for i in range(2, int(limit ** 0.5) + 1):
            if sieve[i]:
                sieve[i * i::i] = [False] * len(sieve[i * i::i])
        assert [p for p in range(-5, limit) if ids._is_prime(p)] == \
            [p for p in range(limit) if sieve[p]]

    def test_strong_pseudoprimes_are_composite(self):
        # strong pseudoprimes to every prime base up to 23 and up to 37,
        # so only the later bases expose them
        assert not ids._is_prime(3825123056546413051)
        assert not ids._is_prime(318665857834031151167461)

    def test_large_primes_below_the_bound(self):
        for p in (2 ** 61 - 1, 1000000000000000003, 10000000000000061,
                  2 ** 31 - 1):
            assert ids._is_prime(p)
        assert not ids._is_prime((2 ** 61 - 1) * 1000003)

    def test_bound_is_refused(self):
        for n in (ids.PRIME_BOUND, ids.PRIME_BOUND + 2, 2 ** 89 - 1):
            with pytest.raises(GuardError, match="not decided"):
                ids._is_prime(n)
        a = mat(ZZ, [[1]])
        with pytest.raises(GuardError):
            ids.verify_frobenius_trace(a, 2 ** 89 - 1)


class TestCostCaps:
    def test_k_cap(self):
        a = Matrix.zeros(ZZ, 2, 2)
        ok(ids.verify_almkvist(a, ids.MAX_K))
        with pytest.raises(GuardError, match="k = 257 exceeds the cap of 256"):
            ids.verify_almkvist(a, ids.MAX_K + 1)

    def test_imax_cap(self):
        a = Matrix.zeros(ZZ, 2, 2)
        ok(ids.verify_nilpotency_converse(a, ids.MAX_IMAX))
        with pytest.raises(GuardError, match="imax = 1001 exceeds"):
            ids.verify_nilpotency_converse(a, ids.MAX_IMAX + 1)

    def test_frobenius_over_polynomial_rings(self):
        R = PolynomialRing(ModRing(257))
        a = Matrix.from_rows(R, [[R.t()]])
        with pytest.raises(GuardError, match=r"p\*\*1 exceeds 256"):
            ids.verify_frobenius_trace(a, 257)
        R2 = PolynomialRing(PolynomialRing(ModRing(17)))
        with pytest.raises(GuardError, match=r"p\*\*2 exceeds 256"):
            ids.verify_frobenius_trace(Matrix.from_rows(R2, [[R2.t()]]), 17)
        # p**depth at the cap runs; p nonzero in the ring is a gate, not a refusal
        R = PolynomialRing(ModRing(251))
        ok(ids.verify_frobenius_trace(Matrix.from_rows(R, [[R.t()]]), 251))
        gated(ids.verify_frobenius_trace(
            Matrix.from_rows(PolynomialRing(ZZ), [[1]]), 1000000000000000003))


@pytest.mark.parametrize("label,ring", RINGS8)
def test_trace_oracle_is_the_trace_of_the_cofactor_adjugate(label, ring):
    # adj_trace and charpoly_derivative sum the n principal minors instead
    # of building all n**2 cofactors: the same value, exactly
    for i, a in enumerate(corpus(ring, f"trace-oracle-{label}", 12, 5)):
        assert ids._adjugate_trace_oracle(a) == a.adjugate_cofactor().trace()
        if i < 4:
            t = char_matrix(a)
            assert ids._adjugate_trace_oracle(t) == \
                t.adjugate_cofactor().trace()
