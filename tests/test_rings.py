"""Ring primitives: canonical values, integer embedding, no division."""

import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from helpers import Z6, Z8
from ringmat.poly import PolynomialRing
from ringmat.rings import (
    QQ,
    ZZ,
    ModRing,
    ParseError,
    Ring,
    RingMismatchError,
    MAX_INT_DIGITS,
    axiom_spotcheck,
    decimal,
    parse_decimal,
)

Z1 = ModRing(1)


def test_mod_residues_are_canonical():
    assert Z8.coerce(-3) == 5
    assert Z8.from_int(10) == 2
    assert Z8.neg(Z8.zero()) == 0
    assert Z6.add(4, 5) == 3
    assert Z6.mul(2, 3) == 0  # zero divisors are the point


def test_mod_rejects_bad_modulus():
    with pytest.raises(ValueError):
        ModRing(0)
    with pytest.raises(ValueError):
        ModRing(-5)


def test_zero_ring_is_legal():
    # m = 1 collapses everything, including the unity
    assert Z1.one() == Z1.zero() == 0
    assert Z1.is_zero(Z1.one())
    assert Z1.from_int(123456) == 0


def test_rational_values_are_reduced():
    assert QQ.coerce(Fraction(2, 4)) == Fraction(1, 2)
    assert QQ.element_from_json({"num": "2", "den": "-4"}) == Fraction(-1, 2)
    assert QQ.element_from_json("7") == Fraction(7)
    assert QQ.element_from_json(3) == Fraction(3)


def test_rational_json_rejects_zero_denominator():
    with pytest.raises(ParseError):
        QQ.element_from_json({"num": "1", "den": "0"})
    with pytest.raises(ParseError):
        QQ.element_from_json({"num": "1", "den": "2", "extra": "x"})


def test_foreign_values_are_rejected():
    with pytest.raises(RingMismatchError):
        ZZ.coerce(Fraction(1, 2))
    with pytest.raises(RingMismatchError):
        ZZ.coerce("3")
    with pytest.raises(RingMismatchError):
        Z8.coerce(1.5)


def test_element_json_round_trip():
    for ring, vals in ((ZZ, [-7, 0, 12]), (Z8, [0, 5]),
                       (QQ, [Fraction(-3, 4), Fraction(2)])):
        for v in vals:
            blob = ring.element_to_json(v)
            assert ring.element_from_json(blob) == v


def test_json_string_residues_reduce():
    assert Z8.element_from_json("10") == 2
    assert Z8.element_from_json("-1") == 7
    with pytest.raises(ParseError):
        Z8.element_from_json(True)
    with pytest.raises(ParseError):
        ZZ.element_from_json("3.5")


def test_pow_squares_and_multiplies():
    assert ZZ.pow(3, 5) == 243
    assert ZZ.pow(0, 0) == 1  # 0**0 = 1 by the empty product
    assert Z6.pow(2, 4) == 4
    with pytest.raises(ValueError):
        ZZ.pow(2, -1)


def _ring_classes(cls=Ring):
    yield cls
    for sub in cls.__subclasses__():
        yield from _ring_classes(sub)


def test_no_ring_divides():
    # a Q-algebra divides by k as a product with coerce(Fraction(1, k));
    # the protocol has no division method, and no ring class adds one
    classes = [c for c in _ring_classes() if c.__module__.startswith("ringmat")]
    assert {Ring, type(ZZ), type(Z8), type(QQ), PolynomialRing} <= set(classes)
    for cls in classes:
        assert not [name for name in vars(cls) if "div" in name], cls


@given(st.integers(-50, 50), st.integers(-50, 50))
def test_int_embed_is_a_ring_map(j, k):
    for ring in (ZZ, Z6, Z8, QQ, Z1):
        assert ring.from_int(j + k) == ring.add(ring.from_int(j),
                                                ring.from_int(k))
        assert ring.from_int(j * k) == ring.mul(ring.from_int(j),
                                                ring.from_int(k))
    assert Z8.from_int(1) == Z8.one()


def _triples(ring, raw):
    return [tuple(ring.from_int(v) for v in t) for t in raw]


def test_axiom_spotcheck_passes_on_stock_rings():
    raw = [(2, -3, 5), (0, 1, -1), (7, 7, -7), (4, 9, -2)]
    for ring in (ZZ, Z6, Z8, QQ, Z1):
        rep = axiom_spotcheck(ring, _triples(ring, raw))
        assert rep.passed, rep.inputs
        assert rep.identity == "ring_axioms"


def test_axiom_spotcheck_rejects_foreign_samples():
    with pytest.raises(RingMismatchError):
        axiom_spotcheck(ZZ, [(1, Fraction(1, 2), 3)])


def test_axiom_spotcheck_flags_a_broken_ring():
    class Lopsided(ModRing):
        # sabotage: addition forgets to reduce one argument
        def add(self, a, b):
            return (a + 2 * b) % self.m

    rep = axiom_spotcheck(Lopsided(7), _triples(ModRing(7), [(1, 2, 3)]))
    assert not rep.passed
    assert rep.inputs["failed_part"] == "add_commutes"


def test_ring_equality_is_structural():
    assert ModRing(8) == ModRing(8)
    assert ModRing(8) != ModRing(6)
    assert ZZ == ZZ and QQ == QQ
    assert ZZ != QQ
    assert len({ModRing(8), ModRing(8), ZZ}) == 2


def _vector(rng, ring, length):
    # about a third zeros, to exercise the generic zero skip
    def draw():
        if rng.random() < 0.35:
            return ring.zero()
        return ring.from_int(rng.randint(-10**6, 10**6))
    return [draw() for _ in range(length)]


# QQ has no override: rational kernels run on the integer lift instead
@pytest.mark.parametrize("ring", [ZZ, Z1, Z6, Z8, ModRing(2**61 - 1)],
                         ids=str)
def test_dot_overrides_match_generic(ring):
    rng = random.Random(f"dot-{ring}")
    assert type(ring).dot is not Ring.dot
    assert ring.dot([], []) == Ring.dot(ring, [], []) == ring.zero()
    for length in range(12):
        for _ in range(8):
            xs = _vector(rng, ring, length)
            ys = _vector(rng, ring, length)
            got = ring.dot(xs, ys)
            assert got == Ring.dot(ring, xs, ys)
            assert type(got) is type(ring.zero())


def test_dot_in_the_zero_ring_is_zero():
    assert Z1.dot([1, 2, 3], [4, 5, 6]) == 0
    assert Ring.dot(Z1, [0, 0], [0, 0]) == 0


def test_rational_dot_is_reduced():
    got = QQ.dot([Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 3), Fraction(1, 2)])
    assert got == Fraction(1, 3)
    assert (got.numerator, got.denominator) == (1, 3)
    assert QQ.dot([Fraction(1, 2)], [Fraction(-2)]) == Fraction(-1)


@pytest.mark.parametrize("limit", [640, 4300, 0])
def test_decimal_conversions_ignore_the_interpreter_limit(limit):
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        rng = random.Random(limit)
        for digits in (1, 639, 641, 4300, 4301, 9000, 20001):
            s = str(rng.randint(1, 9)) + "".join(
                rng.choice("0123456789") for _ in range(digits - 1))
            for text in (s, "-" + s, "+" + s):
                v = parse_decimal(text)
                assert decimal(v) == text.lstrip("+")
                assert ZZ.element_to_json(v) == text.lstrip("+")
            # leading zeros inside a split half stay digits
            assert parse_decimal("1" + "0" * digits) == 10 ** digits
            assert decimal(10 ** digits) == "1" + "0" * digits
        assert QQ.format(Fraction(-(10 ** 5000), 3)) == "-1" + "0" * 5000 + "/3"
        for bad in ("", "-", "1 2", "1" * 5000 + "x", "x" * 5000, "-+1" * 300):
            with pytest.raises(ValueError):
                parse_decimal(bad)
    finally:
        sys.set_int_max_str_digits(old)


def test_parse_int_caps_literal_length():
    assert ZZ.element_from_json(" -" + "7" * MAX_INT_DIGITS + " ") < 0
    with pytest.raises(ParseError, match="exceeds the cap"):
        ZZ.element_from_json("7" * (MAX_INT_DIGITS + 1))
    with pytest.raises(ParseError, match="invalid integer literal"):
        ZZ.element_from_json("7" * 5000 + "_")
