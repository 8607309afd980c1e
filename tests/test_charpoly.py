"""Characteristic polynomial, its coefficients, and the D_k expansion."""

from fractions import Fraction

import pytest

from helpers import (
    RINGS5,
    RINGS8,
    Z1,
    Z8,
    ZT,
    coefficient_matrices_oracle,
    corpus,
    mat,
)
from ringmat.charpoly import (
    adjugate_via_charpoly,
    cayley_hamilton_residual,
    charpoly,
    charpoly_newton,
    power_traces,
    trace_cayley_hamilton_residual,
)
from ringmat.matrix import Matrix, _encode, _matmul_fit, berkowitz, char_matrix
from ringmat.poly import Polynomial, PolynomialRing
from ringmat.rings import QQ, ZZ, QAlgebraRequiredError, ShapeError


def test_reference_2x2():
    data = charpoly(mat(ZZ, [[1, 2], [3, 4]]))
    assert data.n == 2
    assert data.chi.coeffs == (-2, -5, 1)       # t^2 - 5t - 2
    assert data.c == (1, -5, -2)
    assert data.D[1] == Matrix.identity(ZZ, 2)
    assert data.D[0] == mat(ZZ, [[-4, 2], [3, -1]])


def test_identity_matrix_gives_binomial_coefficients():
    data = charpoly(Matrix.identity(ZZ, 3))
    # chi = (t-1)^3 = t^3 - 3t^2 + 3t - 1
    assert data.chi.coeffs == (-1, 3, -3, 1)
    assert data.c == (1, -3, 3, -1)


def test_residue_ring_canonical_coefficients():
    data = charpoly(mat(Z8, [[2]]))
    assert data.chi.coeffs == (6, 1)            # t - 2, canonically t + 6
    assert data.c == (1, 6)


def test_empty_matrix():
    data = charpoly(Matrix(ZZ, 0, 0, ()))
    assert data.n == 0
    assert data.chi.coeffs == (1,)              # det of an empty matrix
    assert data.c == (1,)
    assert data.D == ()


def test_requires_square():
    with pytest.raises(ShapeError):
        charpoly(Matrix.zeros(ZZ, 2, 3))


def test_coefficient_accessors_zero_out_of_range():
    data = charpoly(mat(ZZ, [[1, 2], [3, 4]]))
    assert data.coefficient(0) == 1
    assert data.coefficient(2) == -2
    assert data.coefficient(7) == 0
    assert data.coefficient(-1) == 0
    assert data.coefficient_matrix(1) == Matrix.identity(ZZ, 2)
    assert data.coefficient_matrix(5) == Matrix.zeros(ZZ, 2, 2)
    assert data.coefficient_matrix(-1) == Matrix.zeros(ZZ, 2, 2)


def test_D_matches_polynomial_adjugate_oracle():
    # production D_k comes from a descending recursion; the oracle reads
    # the same matrices out of adj(tI - A) computed over K[t]
    for label, ring in RINGS5:
        for a in corpus(ring, f"D-oracle-{label}", 12, 4):
            data = charpoly(a)
            assert list(data.D) == coefficient_matrices_oracle(a), label


def test_cayley_hamilton_residual_vanishes():
    for label, ring in RINGS5:
        for a in corpus(ring, f"CH-{label}", 10, 4):
            assert cayley_hamilton_residual(a).is_zero()


def test_trace_cayley_hamilton_reference():
    a = mat(ZZ, [[1, 2], [3, 4]])
    # k = 2: 2*c_2 + Tr(A)c_1 + Tr(A^2)c_0 = -4 - 25 + 29 = 0
    assert power_traces(a, 2)[1:] == [5, 29]
    assert trace_cayley_hamilton_residual(a, 2) == 0
    for k in range(6):
        assert trace_cayley_hamilton_residual(a, k) == 0


def test_newton_agrees_with_direct_over_Q():
    for a in corpus(QQ, "newton", 25, 5):
        left = charpoly(a)
        right = charpoly_newton(a)
        assert left.chi == right.chi
        assert left.c == right.c
        assert left.D == right.D


QT = PolynomialRing(QQ)
QTU = PolynomialRing(QT)


def _sparse_rational_tower():
    # 2 x 2 over Q[t][u] with t- and u-degree 20: A @ A alone would take
    # 41 * 41 slots, so every product runs on Ring.dot
    t = Polynomial(QQ, [QQ.zero()] * 20 + [Fraction(1, 3)])
    u = Polynomial(QT, [QT.zero()] * 20 + [QT.coerce(Fraction(-5, 2))])
    return Matrix(QTU, 2, 2, [QTU.add(u, Polynomial(QT, [t])), QTU.one(),
                              QTU.coerce(Fraction(7, 4)), u])


def test_newton_agrees_with_direct_over_Q_towers():
    # c_k is the sum times the ring's own -1/k, a constant of Q[t] or
    # Q[t][u], on the lifted kernels and above MAX_SLOTS alike
    deep = _sparse_rational_tower()
    assert _encode(QTU, (deep._e, deep._e), _matmul_fit(2)) is None
    cases = (corpus(QT, "newton-qt", 12, 4) + corpus(QTU, "newton-qtu", 6, 3)
             + [deep])
    for a in cases:
        left, right = charpoly(a), charpoly_newton(a)
        assert left.c == right.c and left.chi == right.chi, a
        if a.rows <= 3:
            assert list(left.c) == _subset_dp_coefficients(a)


def _subset_dp_coefficients(a):
    chi = char_matrix(a).det_subset_dp()
    return [chi.coeff(a.rows - j) for j in range(a.rows + 1)]


def test_newton_requires_q_algebra():
    with pytest.raises(QAlgebraRequiredError):
        charpoly_newton(mat(ZZ, [[1, 2], [3, 4]]))
    with pytest.raises(QAlgebraRequiredError):
        charpoly_newton(mat(Z8, [[2]]))


def test_adjugate_via_charpoly_matches_cofactors():
    for label, ring in RINGS5:
        for a in corpus(ring, f"adjroute-{label}", 10, 4):
            assert adjugate_via_charpoly(a) == a.adjugate_cofactor(), label


def test_adjugate_via_charpoly_empty():
    e = Matrix(ZT, 0, 0, ())
    assert adjugate_via_charpoly(e) == e


def test_power_traces_indexing():
    a = mat(ZZ, [[2, 0], [0, 3]])
    tr = power_traces(a, 3)
    assert tr[1] == 5 and tr[2] == 13 and tr[3] == 35
    with pytest.raises(IndexError):
        tr[4]


def test_charpoly_matches_subset_dp_oracle():
    # Berkowitz over K against the subset DP over K[t]
    for label, ring in RINGS8:
        for a in corpus(ring, f"chi-oracle-{label}", 8, 6, singular_every=3):
            assert charpoly(a).chi == char_matrix(a).det_subset_dp(), label


def test_charpoly_edge_sizes():
    for label, ring in RINGS8:
        one = ring.one()
        data = charpoly(Matrix(ring, 0, 0, ()))
        assert data.c == (one,) and data.D == (), label
        a = Matrix(ring, 1, 1, (ring.from_int(3),))
        assert berkowitz(a) == [one, ring.neg(ring.from_int(3))], label
        assert charpoly(a).D == (Matrix.identity(ring, 1),), label


def test_zero_ring_charpoly_is_zero():
    data = charpoly(mat(Z1, [[1, 2], [3, 4]]))
    assert data.c == (0, 0, 0)
    assert data.chi.is_zero()


def test_coefficient_matrices_are_computed_on_first_use():
    a = mat(ZZ, [[1, 2], [3, 4]])
    data = charpoly(a)
    assert "D" not in vars(data)
    assert data.D[0] == mat(ZZ, [[-4, 2], [3, -1]])
    assert data.D is data.D
    assert data == charpoly(a)
