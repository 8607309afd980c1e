"""Power traces by pairing, and p(A) on one integer lift.

power_traces(A, m) forms A, ..., A**h alone, h = ceil(m/2), and reads
Tr(A**k) for k > h as Tr(A**h @ A**(k-h)), one Ring.dot; over QQ and the
towers the chain runs over ZZ on one encoding B = L*A sized by
_power_fit(n, m), each trace decoded at L**k.  apply_poly(p, A) off ZZ
with deg p >= 2 encodes A and p once, runs the Horner sum over ZZ and
decodes p(A) once.  The oracles are the traces of the power list
(matrix.powers, one matmul per power) and sums of plain powers
(test_packed_horner._power_sum).
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

import pytest

import ringmat.matrix as matrix_mod
from helpers import RINGS8
from ringmat.charpoly import charpoly, power_traces
from ringmat.fuzz import sample_element, sample_matrix, stream
from ringmat.matrix import (MAX_SLOTS, Matrix, _encode, _power_fit,
                            apply_poly, powers)
from ringmat.poly import Polynomial, PolynomialRing
from ringmat.rings import QQ, IntegerRing, ModRing, RationalRing
from test_packed_horner import _power_sum

QT = PolynomialRing(QQ)
QTU = PolynomialRing(QT)


def _above_slots(n: int) -> Matrix:
    """An n x n matrix over Q[t][u] whose entries mix t**20 and u**20
    monomials with constants: Tr(A**k) has t- and u-degree up to 20*k,
    so from k = 1 on its lift would take 21 * 21 > MAX_SLOTS slots."""
    t = Polynomial(QQ, [QQ.zero()] * 20 + [Fraction(1, 3)])
    u = Polynomial(QT, [QT.zero()] * 20 + [QT.coerce(Fraction(-5, 2))])
    pool = [QTU.add(u, Polynomial(QT, [t])), QTU.one(),
            QTU.coerce(Fraction(7, 4)), u, QTU.zero(), QTU.from_int(-2)]
    return Matrix(QTU, n, n, [pool[(3 * i + i // n) % len(pool)]
                              for i in range(n * n)])


RINGS = RINGS8 + (("above-slots", QTU),)


def _matrices(label, ring):
    """Two draws per n = 0..5, and for the tower above MAX_SLOTS its fixed
    matrix at n = 0..3."""
    if label == "above-slots":
        return [_above_slots(n) for n in range(4)]
    return [sample_matrix(stream(2028, "lifted-powers", label, n, i), ring,
                          n, n) for n in range(6) for i in range(2)]


def _lifts_to_integers(ring) -> bool:
    return not isinstance(ring, (IntegerRing, ModRing))


@pytest.mark.parametrize("label,ring", RINGS, ids=[r[0] for r in RINGS])
def test_power_traces_match_the_power_list(label, ring, lifts):
    for a in _matrices(label, ring):
        n = a.rows
        want = [ring.zero()] + [p.trace() for p in powers(a, 2 * n + 2)]
        for m in range(2 * n + 3):
            lifts[0] = 0
            assert power_traces(a, m) == want[:m + 1], (label, n, m)
            if m and label != "above-slots":
                assert lifts[0] == _lifts_to_integers(ring), (label, n, m)


def test_the_tower_above_max_slots_takes_the_ring_route(lifts):
    # m = 1 still fits: t- and u-degree 20 take 21 * 21 = 441 slots
    a = _above_slots(3)
    assert _encode(QTU, (a._e,), _power_fit(3, 1))
    assert _encode(QTU, (a._e,), _power_fit(3, 2)) is None
    assert 21 * 21 <= MAX_SLOTS < 41 * 41
    power_traces(a, 1)
    assert lifts[0] == 1
    lifts[0] = 0
    power_traces(a, 7)
    assert lifts[0] == 0


def _polynomials(rng, a):
    """p = 0, then p of degree 0, 1 and 2 (random coefficients, so over
    Z/m the degree may drop), then chi_A."""
    R = a.ring
    out = [Polynomial(R)]
    for degree in range(3):
        out.append(Polynomial(R, [sample_element(rng, R)
                                  for _ in range(degree)] + [R.one()]))
    out.append(charpoly(a).chi)
    return out


@pytest.mark.parametrize("label,ring", RINGS, ids=[r[0] for r in RINGS])
def test_apply_poly_matches_plain_powers(label, ring, lifts):
    for a in _matrices(label, ring):
        rng = stream(2028, "lifted-poly", label, a.rows)
        for p in _polynomials(rng, a):
            lifts[0] = 0
            assert apply_poly(p, a) == _power_sum(p, a), (label, a.rows, p)
            if label != "above-slots":
                lifted = p.degree >= 2 and _lifts_to_integers(ring)
                assert lifts[0] == lifted, (label, a.rows, p)


class _CountingQQ(RationalRing):
    """QQ that counts its own mul, add, sub, neg and dot calls."""
    calls = 0

    def _count(self):
        type(self).calls += 1

    def mul(self, a, b):
        self._count()
        return super().mul(a, b)

    def add(self, a, b):
        self._count()
        return super().add(a, b)

    def sub(self, a, b):
        self._count()
        return super().sub(a, b)

    def neg(self, a):
        self._count()
        return super().neg(a)

    def dot(self, xs, ys):
        self._count()
        return super().dot(xs, ys)


@pytest.fixture
def products(monkeypatch):
    """The number of matrix._product calls, the integer products."""
    calls = [0]
    product = matrix_mod._product

    def counted(a, b):
        calls[0] += 1
        return product(a, b)

    monkeypatch.setattr(matrix_mod, "_product", counted)
    return calls


@pytest.mark.parametrize("n", range(1, 6))
def test_lifted_routes_take_no_ring_operation(n, products, lifts):
    # over a counting QQ the lifted routes make no ring mul, add or dot
    # call; the traces take ceil(m/2) - 1 integer products, and p(A)
    # one lift for all its Horner steps
    ring = _CountingQQ()
    a = sample_matrix(stream(2028, "counting", n), QQ, n, n)
    a = Matrix(ring, n, n, a._e)
    want = [QQ.zero()] + [p.trace() for p in powers(
        Matrix(QQ, n, n, a._e), 2 * n + 2)]
    chi = Polynomial(ring, charpoly(Matrix(QQ, n, n, a._e)).chi.coeffs)
    for m in range(1, 2 * n + 3):
        _CountingQQ.calls = products[0] = lifts[0] = 0
        assert power_traces(a, m) == want[:m + 1]
        assert (_CountingQQ.calls, products[0], lifts[0]) == (
            0, (m + 1) // 2 - 1, 1), m
    if n >= 2:
        _CountingQQ.calls = lifts[0] = 0
        got = apply_poly(chi, a)
        assert (_CountingQQ.calls, lifts[0]) == (0, 1)
        assert got.is_zero()


def test_the_trace_fit_is_tight_on_a_constant_tower_matrix():
    # every entry 1 + t: Tr(B**k) = n**k * (1 + t)**k has l1 norm
    # (n*N)**k exactly, N = 2, so _power_fit(n, m) is reached at k = m
    ring = PolynomialRing(ModRing(2**70))
    entry = Polynomial(ring.base, [1, 1])
    for n in (1, 2, 4):
        a = Matrix(ring, n, n, [entry] * (n * n))
        for m in (1, 2, 5, 9):
            tr = power_traces(a, m)
            for k in range(1, m + 1):
                want = Polynomial(ring.base, [comb(k, j) * n ** k
                                              for j in range(k + 1)])
                assert tr[k] == want, (n, m, k)
        assert _power_fit(n, 9)(2, [1]) == ((2 * n) ** 9, [9])


def test_the_poly_fit_covers_the_scale_of_a():
    # L = lcm(9, 8, 7, 5) = 2520 is above every entry of B = L*A
    # (N_B = 504), and the constant term q_0 * L**2 of P * L**2 * p(A)
    # passes 2**22 > 3 * (2 * 504)**2, a fit on N_B alone: the ring's 1
    # beside the entries of A puts L into N
    t, c = QT.t(), QT.coerce
    a = Matrix(QT, 2, 2, [t * c(Fraction(1, 9)), c(Fraction(1, 8)),
                          c(Fraction(1, 7)), t * c(Fraction(1, 5))])
    p = Polynomial(QT, [QT.one(), QT.zero(), QT.one()])
    assert _power_sum(p, a).entry(1, 1).coeffs[0] * 2520**2 > 2**22
    assert apply_poly(p, a) == _power_sum(p, a)
