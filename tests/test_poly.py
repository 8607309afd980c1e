"""Univariate polynomial arithmetic over arbitrary coefficient rings."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from helpers import Z6, Z8, ZT
from ringmat.poly import Polynomial, PolynomialRing
from ringmat.rings import (
    QQ,
    ZZ,
    ModRing,
    ParseError,
    Ring,
    RingMismatchError,
)


def P(*coeffs, ring=ZZ):
    return Polynomial.of(ring, list(coeffs))


def test_trailing_zeros_trim():
    assert P(1, 2, 0, 0).coeffs == (1, 2)
    assert P(0, 0, 0).coeffs == ()
    assert P().degree == -1
    assert P(5).degree == 0
    assert P(0, 0, 3).degree == 2


def test_trim_respects_the_ring():
    # 6 == 0 mod 6, so the leading coefficient vanishes on entry
    q = Polynomial.of(Z6, [1, 6])
    assert q.coeffs == (1,)
    assert q.degree == 0


def test_coeff_out_of_range_is_zero():
    q = P(3, 1)
    assert q.coeff(0) == 3
    assert q.coeff(5) == 0
    assert q.coeff(-1) == 0


def test_product_matches_convolution():
    a = P(1, 2)        # 1 + 2t
    b = P(3, 0, 1)     # 3 + t^2
    assert (a * b).coeffs == (3, 6, 1, 2)
    assert (a + b).coeffs == (4, 2, 1)
    assert (a - a).is_zero()


def test_zero_divisor_products_collapse():
    # (2t)(4) = 8t = 0 in Z/8[t]; degree is not additive here
    a = Polynomial.of(Z8, [0, 2])
    b = Polynomial.of(Z8, [4])
    assert (a * b).is_zero()


def test_derivative():
    q = P(7, 5, 0, 2)          # 7 + 5t + 2t^3
    assert q.derivative().coeffs == (5, 0, 6)
    assert P(9).derivative().is_zero()
    # 8t^7 differentiates to 56t^6 = 0 mod 8
    assert Polynomial.of(Z8, [0, 0, 0, 0, 0, 0, 0, 1]).derivative().coeffs \
        == (0, 0, 0, 0, 0, 0, 7)


def test_eval_zero_reads_the_constant_term():
    assert P(4, 1, 9).eval_zero() == 4
    assert P().eval_zero() == 0


def test_scale():
    assert P(1, 2, 3).scale(2).coeffs == (2, 4, 6)
    assert Polynomial.of(Z6, [1, 2, 3]).scale(3).coeffs == (3, 0, 3)


def test_indeterminate_and_constant():
    R = PolynomialRing(ZZ)
    t = R.t()
    assert t.coeffs == (0, 1)
    assert Polynomial.constant(ZZ, 5).coeffs == (5,)
    assert (t * t + Polynomial.constant(ZZ, 1)).coeffs == (1, 0, 1)


def test_ring_interface_round_trip():
    R = PolynomialRing(Z8)
    q = R.coerce([1, 10, -1])
    assert q.coeffs == (1, 2, 7)
    blob = R.element_to_json(q)
    assert blob == ["1", "2", "7"]
    assert R.element_from_json(blob) == q
    assert R.element_from_json(["1", "10", "-1"]) == q
    with pytest.raises(ParseError):
        R.element_from_json({"coeffs": [1]})


def test_foreign_base_rings_do_not_mix():
    R = PolynomialRing(ZZ)
    q6 = Polynomial.of(Z6, [1, 2])
    with pytest.raises(RingMismatchError):
        R.coerce(q6)
    with pytest.raises(RingMismatchError):
        P(1) + q6


def test_nested_polynomial_rings():
    # elements of (Z[t])[t'] have Z[t] coefficients
    R = PolynomialRing(ZT)
    inner = ZT.t()
    q = R.coerce([inner, ZT.one()])   # t + t'
    sq = q * q
    assert sq.coeff(0) == inner * inner
    assert sq.coeff(1).coeffs == (0, 2)
    assert sq.coeff(2) == ZT.one()
    assert R.is_q_algebra is False
    assert PolynomialRing(QQ).is_q_algebra is True


coeff_lists = st.lists(st.integers(-9, 9), max_size=6)


@settings(max_examples=200)
@given(coeff_lists, coeff_lists, coeff_lists)
def test_ring_laws_hold_mod6(xs, ys, zs):
    a, b, c = (Polynomial.of(Z6, v) for v in (xs, ys, zs))
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert (a + b).derivative() == a.derivative() + b.derivative()
    # Leibniz for d/dt
    assert (a * b).derivative() == a.derivative() * b + a * b.derivative()


def _poly(rng, ring):
    # zero polynomials and zero coefficients both occur
    base = ring.base
    if isinstance(base, PolynomialRing):
        coeffs = [_poly(rng, base) for _ in range(rng.randint(0, 2))]
    else:
        coeffs = [base.from_int(rng.randint(-3, 3))
                  for _ in range(rng.randint(0, 3))]
    return Polynomial(base, coeffs)


@pytest.mark.parametrize("ring", [
    ZT, PolynomialRing(Z8), PolynomialRing(Z6), PolynomialRing(ModRing(1)),
    PolynomialRing(QQ), PolynomialRing(ZT),
], ids=str)
def test_dot_matches_generic(ring):
    rng = random.Random(f"polydot-{ring}")
    assert ring.dot([], []) == Ring.dot(ring, [], []) == ring.zero()
    for length in range(8):
        for _ in range(10):
            xs = [_poly(rng, ring) for _ in range(length)]
            ys = [_poly(rng, ring) for _ in range(length)]
            assert ring.dot(xs, ys) == Ring.dot(ring, xs, ys)


def test_dot_trims_cancelled_top_terms():
    # (t + 1)(t - 1) + (-t)(t) = -1: the t**2 terms cancel
    t = ZT.t()
    got = ZT.dot([t + ZT.one(), -t], [t - ZT.one(), t])
    assert got.coeffs == (-1,)
