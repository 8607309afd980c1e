"""adj(A) and the D_k over ZZ by the trace Cayley-Hamilton recursion.

Over ZZ, adjugate() and adjugate_coefficients() take each c_j on the
way down their Horner chain, j * c_j = -tr(A @ H_(j-1)), and call no
berkowitz().  QQ and every tower that _encode accepts reach the same
kernel through the lift; bare Z/m keeps berkowitz() and Horner.  The
oracles are the cofactor adjugate and the plain Horner sum on the
berkowitz() coefficients, every product by plain triple loops.
"""

import random

import pytest

from helpers import Z1, Z8, ZT, plain_horner, plain_matmul
from ringmat.charpoly import charpoly
from ringmat.fuzz import sample_matrix, sample_singular, stream
from ringmat.matrix import (
    Matrix,
    _minors_fit,
    _packed_width,
    _trace_fit,
    adjugate_coefficients,
    berkowitz,
)
from ringmat.poly import PolynomialRing
from ringmat.rings import QQ, ZZ

RINGS = {
    "rat": QQ,
    "poly": ZT,
    "poly-poly": PolynomialRing(ZT),
    "poly-mod8": PolynomialRing(Z8),
    "poly-mod1": PolynomialRing(Z1),
}


def _random(rng, rows, cols):
    return Matrix(ZZ, rows, cols,
                  [rng.randint(-9, 9) for _ in range(rows * cols)])


def _invertible(rng, n):
    while not (a := _random(rng, n, n)).det():
        pass
    return a


def _rank(rng, n, r):
    """n x n of rank at most r: an n x r times an r x n factor."""
    return plain_matmul(_random(rng, n, r), _random(rng, r, n))


def _nilpotent(rng, n):
    """P @ U @ P**-1, U strictly upper and P = I + L, L strictly lower,
    so P**-1 = sum_k (-L)**k and every entry is dense."""
    u = Matrix(ZZ, n, n, [rng.randint(-3, 3) if j > i else 0
                          for i in range(n) for j in range(n)])
    low = Matrix(ZZ, n, n, [rng.randint(-2, 2) if j < i else 0
                            for i in range(n) for j in range(n)])
    one = Matrix.identity(ZZ, n)
    inverse, power = one, one
    for _ in range(1, n):
        power = plain_matmul(power, -low)
        inverse = inverse + power
    return plain_matmul(plain_matmul(one + low, u), inverse)


KINDS = {
    "invertible": _invertible,
    "rank-n-1": lambda rng, n: _rank(rng, n, max(n - 1, 0)),
    "rank-n-2": lambda rng, n: _rank(rng, n, max(n - 2, 0)),
    "nilpotent": _nilpotent,
}


@pytest.mark.parametrize("kind", KINDS)
def test_zz_adjugates_match_the_oracles(kind):
    for n in range(13):
        rng = random.Random(f"trace-{kind}-{n}")
        a = KINDS[kind](rng, n)
        adj = a.adjugate()
        ds = adjugate_coefficients(a)
        assert ds == plain_horner(a, berkowitz(a)), (kind, n)
        if n:
            assert ds[0] == (-adj if (n - 1) & 1 else adj)
        # the cofactor DP is exponential: every n for one kind, n <= 9 else
        if n <= 9 or kind == "invertible":
            assert adj == a.adjugate_cofactor(), (kind, n)
        assert plain_matmul(a, adj) == Matrix.identity(ZZ, n).scale(a.det())
        if kind == "rank-n-2" and n >= 2:
            assert adj.is_zero()
        if kind == "nilpotent" and n:
            # chi = t**n, so adj(A) = (-1)**(n-1) * A**(n-1)
            assert berkowitz(a)[1:] == [0] * n
            power = a ** (n - 1)
            assert adj == (-power if (n - 1) & 1 else power)


@pytest.mark.parametrize("label", RINGS)
def test_lifted_adjugates_match_the_oracles(label):
    ring = RINGS[label]
    for n in range(7):
        for i in range(3):
            rng = stream(15, "trace", label, n, i)
            a = (sample_singular(rng, ring, n) if i == 2 and n
                 else sample_matrix(rng, ring, n, n))
            assert a.adjugate() == a.adjugate_cofactor(), (label, n, i)
            assert adjugate_coefficients(a) == plain_horner(a, berkowitz(a))


@pytest.mark.parametrize("label,ring,calls", [
    ("int", ZZ, 0), ("rat", QQ, 0), ("poly", ZT, 0),
    ("poly-poly", RINGS["poly-poly"], 0), ("poly-mod8", RINGS["poly-mod8"], 0),
    ("mod8", Z8, 1), ("mod1", Z1, 1)])
def test_only_bare_mod_rings_call_berkowitz(berkowitz_rings, label, ring,
                                            calls):
    a = sample_matrix(stream(15, "calls", label), ring, 5, 5)
    want = plain_horner(a, berkowitz(a))
    berkowitz_rings.clear()
    assert a.adjugate() == want[0]        # n - 1 = 4 is even
    assert len(berkowitz_rings) == calls
    data = charpoly(a)
    berkowitz_rings.clear()
    assert list(data.D) == want
    assert len(berkowitz_rings) == calls


@pytest.mark.parametrize("k", [0, 1, 5, 64, 200])
def test_a_diagonal_slot_past_the_minors_fit_decodes(k):
    # at step j = 3 of a 4 x 4 A the diagonal slot (1, 1) of A @ H_2 holds
    # (D_0)_11 - c_3, the sum of the three principal 3 x 3 minors through
    # index 1: 12 * M**3 for the sign matrix below times M = 2**k.  That
    # is past 2**(w-1) for the D_k fit 3! * M**3 (w = 3k + 4), so slots
    # that wide would misread c_3; the trace fit 5 * 3! * M**3 takes
    # w = 3k + 6.  No integer matrix comes within a factor 2 of that bound
    # at n >= 4 (Hadamard), so the width test pins the formula instead.
    m = 2**k
    b = [[1, 1, 1, -1], [1, -1, 1, -1], [1, -1, -1, -1], [-1, -1, -1, -1]]
    a = Matrix.from_rows(ZZ, [[m * v for v in r] for r in b])
    h2 = plain_horner(a, berkowitz(a))[1]
    slot = plain_matmul(a, h2).entry(1, 1)
    assert slot == 12 * m**3
    narrow = _minors_fit(3)(m, [])[0].bit_length() + 1
    w = _packed_width(a, _trace_fit(4))
    assert (narrow, w) == (3 * k + 4, 3 * k + 6)
    assert 2 ** (narrow - 1) <= slot < 2 ** (w - 1)
    assert a.adjugate() == a.adjugate_cofactor()
    assert adjugate_coefficients(a) == plain_horner(a, berkowitz(a))
