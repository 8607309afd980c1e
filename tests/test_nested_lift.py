"""Kernels over towers R[t][u]... on the multivariate Kronecker lift.

Over Z[t][u], (Z/m)[t][u], Q[t][u] and deeper towers, matmul, berkowitz,
the adjugate and the D_k recursion map t -> 2**w, u -> 2**(w*D), ...
and run over ZZ.  The oracles here never encode: the subset-DP
determinant, the cofactor adjugate, adj(t*I - A) by cofactors over the
next polynomial ring, the generic Ring.dot product and a plain Horner
recursion.  Towers whose results would take more than MAX_SLOTS digit
slots keep the generic route.
"""

import random
from fractions import Fraction

import pytest

from helpers import coefficient_matrices_oracle, plain_horner
from routes import (BASES, assert_no_element_arithmetic, counting,
                    recast_matrix, tower_calls)
from ringmat.charpoly import charpoly
from ringmat.matrix import (
    MAX_SLOTS,
    Matrix,
    _context,
    _encode,
    _minors_fit,
    _product,
    adjugate_coefficients,
    berkowitz,
    char_matrix,
    charpoly_coefficients,
)
from ringmat.poly import Polynomial, PolynomialRing
from ringmat.rings import QQ, ZZ, ModRing



def _tower_of(base, depth: int) -> list:
    """[base, base[t_1], ..., base[t_1]...[t_depth]]."""
    rings = [base]
    for _ in range(depth):
        rings.append(PolynomialRing(rings[-1]))
    return rings


def _element(rng, rings, level, top, degree):
    """A random element of rings[level]: degree -1..degree in each
    variable, coefficients of both signs up to top."""
    base = rings[0]
    if level == 0:
        v = rng.randint(-top, top)
        if base == QQ:
            v = Fraction(v, rng.randint(1, 12))
        return base.coerce(v)
    return Polynomial(rings[level - 1],
                      [_element(rng, rings, level - 1, top, degree)
                       for _ in range(rng.randint(0, degree + 1))])


def _matrix(rng, rings, n, m, top=9, degree=2):
    depth = len(rings) - 1
    return Matrix(rings[-1], n, m, [_element(rng, rings, depth, top, degree)
                                    for _ in range(n * m)])


def _cases(base, depth, nmax, degree):
    rng = random.Random(f"nested-{base!r}-{depth}")
    rings = _tower_of(base, depth)
    R = rings[-1]
    out = {
        "n0": Matrix(R, 0, 0, ()),
        "zero3": Matrix.zeros(R, 3, 3),
        "big3": _matrix(rng, rings, 3, 3, top=10**60, degree=degree),
        "negative3": Matrix(R, 3, 3, [
            R.neg(_element(rng, rings, depth, 9, degree)) for _ in range(9)]),
    }
    for n in range(1, nmax + 1):
        out[f"n{n}"] = _matrix(rng, rings, n, n, degree=degree)
    return out


CASES = [(f"{label}-d2", name, a) for label, base in BASES.items()
         for name, a in _cases(base, 2, 6, 2).items()]
CASES += [(f"{label}-d3", name, a) for label in ("int", "mod6", "rat")
          for name, a in _cases(BASES[label], 3, 6, 1).items()]
IDS = [f"{label}-{name}" for label, name, _ in CASES]


def test_towers_over_zz_zmod_qq_encode():
    # ZZ and Z/m need no encoding; QQ and every tower over the three do,
    # down the chain of coefficient rings
    def chain(ring):
        lifted = _encode(ring, ((ring.one(),),), _minors_fit(1))
        return lifted and lifted[1][0]

    for base in BASES.values():
        assert bool(chain(base)) == (base == QQ)
        for depth in (1, 2, 3, 64):
            rings = _tower_of(base, depth)
            assert chain(rings[-1]) == rings[::-1]


def test_width_and_strides_are_the_least_that_decode():
    # 2**(w-1) > bound >= 2**(w-2), and t_i -> 2**(w * D_1 * ... * D_(i-1))
    # with D_i one more than the t_i-degree bound
    chain = _tower_of(ZZ, 3)[::-1]
    for bound in (1, 2, 3, 7, 8, 2**64 - 1, 2**64):
        _, _, w, shifts, levels = _context(chain, 1, bound, [3, 5, 2])
        assert 2 ** (w - 2) <= bound < 2 ** (w - 1)
        assert shifts == [w, 4 * w, 24 * w]
        assert [size for _, size in levels] == [4, 6]
    # results of 10 * 10 * 10 = MAX_SLOTS slots still pack, 1100 do not
    assert _context(chain, 1, 1, [9, 9, 9]) is not None
    assert _context(chain, 1, 1, [9, 9, 10]) is None


@pytest.mark.parametrize("label,name,a", CASES, ids=IDS)
def test_kernels_match_generic_oracles(label, name, a):
    n = a.rows
    det = a.det()
    assert det == a.det_subset_dp()
    adj = a.adjugate()
    assert adj == a.adjugate_cofactor()
    assert a @ adj == _product(a, adj)
    assert a @ adj == Matrix.identity(a.ring, n).scale(det)
    data = charpoly(a)
    assert list(data.c) == berkowitz(a)
    if n:
        assert data.D[0] == (-adj if (n - 1) & 1 else adj)
    if n <= 3:
        assert list(data.D) == coefficient_matrices_oracle(a)
    else:
        assert list(data.D) == plain_horner(a, data.c)


@pytest.mark.parametrize("label", list(BASES))
def test_rectangular_products_match_ring_dot(label):
    rng = random.Random(f"rect-{label}")
    rings = _tower_of(BASES[label], 2)
    for n, k, m in ((3, 4, 2), (1, 1, 1), (2, 0, 3), (0, 2, 2), (4, 3, 5)):
        for top in (9, 10**60):
            a = _matrix(rng, rings, n, k, top=top)
            b = _matrix(rng, rings, k, m, top=top)
            got = a @ b
            assert got == _product(a, b)
            assert (got.rows, got.cols) == (n, m)


def test_results_are_canonical_nested_polynomials():
    rng = random.Random(8)
    for label, base in BASES.items():
        rings = _tower_of(base, 2)
        a = _matrix(rng, rings, 4, 4)
        for p in list((a @ a)._e) + list(a.adjugate()._e) + berkowitz(a):
            assert p.ring == rings[1]
            assert not p.coeffs or p.coeffs[-1].coeffs
            for q in p.coeffs:
                assert q.ring == base
                assert not q.coeffs or not base.is_zero(q.coeffs[-1])
                want = Fraction if base == QQ else int
                assert all(type(v) is want for v in q.coeffs), label
                if isinstance(base, ModRing):
                    assert all(0 <= v < base.m for v in q.coeffs)


def test_inner_degree_reaches_the_stride():
    # det(u*I - diag(t, ..., t)) = (u - t)**n: the u**0 coefficient has
    # t-degree n, the most D_t - 1 allows, and every coefficient of
    # (u - t)**n is a binomial up to C(n, n/2)
    for n in range(1, 7):
        ring = PolynomialRing(ZZ)
        a = Matrix.identity(ring, n).scale(ring.t())
        chi = char_matrix(a).det()
        assert chi == char_matrix(a).det_subset_dp()
        assert chi.coeff(0) == ring.coerce([0] * n + [(-1) ** n])


def test_product_width_covers_the_inner_dimension():
    # every coefficient of the product reaches k * N**2 exactly
    rings = _tower_of(ZZ, 2)
    R, top = rings[2], 2**64 - 1
    tu = R.coerce([rings[1].zero(), rings[1].coerce([0, top])])
    for k in (1, 2, 3, 5, 8):
        a = Matrix(R, 2, k, [tu] * (2 * k))
        b = Matrix(R, k, 2, [R.coerce([-top])] * (2 * k))
        want = R.coerce([rings[1].zero(), rings[1].coerce([0, -k * top * top])])
        assert (a @ b)._e == (want,) * 4


@pytest.mark.parametrize("label", ["int", "mod8", "mod2^61-1", "rat"])
def test_coefficient_degrees_follow_the_horner_steps(label):
    # each Horner step multiplies by a, so D_k reaches t_i-degree
    # (n-1-k) * deg_(t_i)(a): entries of degree 4 in both variables
    rings = _tower_of(BASES[label], 2)
    rng = random.Random(f"horner-{label}")
    for n in (2, 3, 5):
        a = _matrix(rng, rings, n, n, top=10**30, degree=4)
        assert adjugate_coefficients(a) == plain_horner(a, berkowitz(a))


@pytest.mark.parametrize("depth", [2, 3])
@pytest.mark.parametrize("label", ["int", "mod1", "mod6", "mod8", "rat"])
def test_kernels_do_no_element_arithmetic(label, depth):
    rng = random.Random(f"count-{label}-{depth}")
    assert_no_element_arithmetic(
        _matrix(rng, _tower_of(BASES[label], depth), 5, 5, degree=1))


def _sparse_tower_matrix(n, depth, variables=None):
    """The n x n matrix over a depth-deep tower over ZZ with every entry
    t_1 + ... + t_variables (all depth of them by default)."""
    rings = _tower_of(ZZ, depth)
    R = rings[-1]
    total = R.zero()
    for i in range(1, (variables or depth) + 1):
        v = ZZ.one()
        for level in range(1, depth + 1):
            coeffs = (rings[level - 1].zero(), v) if level == i else (v,)
            v = Polynomial(rings[level - 1], coeffs)
        total = R.add(total, v)
    return Matrix(R, n, n, [total] * (n * n))


@pytest.mark.parametrize("n,variables", [(1, 64), (2, 8), (3, 5)])
def test_deep_sparse_towers_fall_back_to_ring_dot(n, variables):
    # in a 64-deep tower c_k has degree k in each variable that occurs:
    # packing c_1 of t_1 + ... + t_64 densely would take 2**64 slots, c_2
    # of a 2 x 2 matrix of t_1 + ... + t_8 takes 3**8 and c_3 of a 3 x 3
    # one of t_1 + ... + t_5 4**5, so none packs.  At n <= 2 charpoly is
    # the closed form in the ring's own mul, add and neg, with no dot; at
    # n = 3 over a tower it keeps Ring.dot
    a = _sparse_tower_matrix(n, 64, variables)
    ring = counting(a.ring)
    data = charpoly(recast_matrix(a, ring))
    assert (tower_calls(ring)["dot"] > 0) == (n == 3)
    assert data.c[1] == a.ring.neg(a.trace())
    det = a.det_subset_dp()
    assert data.c[n] == (a.ring.neg(det) if n & 1 else det)


def test_slot_bound_decides_between_the_routes():
    # 3 x 3, entries t_1 + ... + t_d: c_k takes 4**d slots, matmul 3**d
    for depth in range(2, 9):
        a = _sparse_tower_matrix(3, depth)
        ring = counting(a.ring)
        counted = recast_matrix(a, ring)
        assert charpoly_coefficients(counted) == berkowitz(a)
        assert (tower_calls(ring)["dot"] == 0) == (4 ** depth <= MAX_SLOTS)
        ring = counting(a.ring)
        counted = recast_matrix(a, ring)
        assert (counted @ counted)._e == _product(a, a)._e
        assert (tower_calls(ring)["dot"] == 0) == (3 ** depth <= MAX_SLOTS)
