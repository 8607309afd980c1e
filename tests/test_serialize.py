"""JSON decoding: rings, matrices, polynomials, and their error paths."""

import pytest

from helpers import Z8, ZT, polynomial_from_json
from ringmat.poly import PolynomialRing
from ringmat.rings import QQ, ZZ, ModRing, ParseError
from ringmat.serialize import (
    MAX_RING_DEPTH,
    matrix_from_json,
    parse_ring,
    ring_from_descriptor,
)


def test_descriptor_round_trip():
    for ring in (ZZ, QQ, Z8, ZT, PolynomialRing(PolynomialRing(Z8))):
        assert ring_from_descriptor(ring.descriptor()) == ring


def test_shorthand_parsing():
    assert parse_ring("int") == ZZ
    assert parse_ring("rat") == QQ
    assert parse_ring("mod:8") == Z8
    assert parse_ring("poly:int") == ZT
    assert parse_ring("poly:poly:mod:6") == PolynomialRing(
        PolynomialRing(ModRing(6)))
    assert parse_ring(" mod:3 ") == ModRing(3)


def test_shorthand_errors():
    for bad in ("integers", "mod:", "mod:x", "mod:0", "mod:-2", "poly:",
                "rat:3"):
        with pytest.raises(ParseError):
            parse_ring(bad)
    with pytest.raises(ParseError):
        parse_ring(42)


def test_ring_nesting_is_capped():
    def nested(base, depth):
        for _ in range(depth):
            base = PolynomialRing(base)
        return base

    deep = nested(ZZ, MAX_RING_DEPTH)
    assert parse_ring("poly:" * MAX_RING_DEPTH + "int") == deep
    assert ring_from_descriptor(deep.descriptor()) == deep
    assert parse_ring(" poly: poly:mod:6") == nested(ModRing(6), 2)
    too_deep = nested(ZZ, MAX_RING_DEPTH + 1)
    for text in ("poly:" * (MAX_RING_DEPTH + 1) + "int", "poly:" * 100_000):
        with pytest.raises(ParseError, match="nested more than"):
            parse_ring(text)
    with pytest.raises(ParseError, match="nested more than"):
        ring_from_descriptor(too_deep.descriptor())
    with pytest.raises(ParseError, match="nested more than"):
        parse_ring(too_deep.descriptor())


def test_descriptor_errors_name_the_field():
    with pytest.raises(ParseError, match="ring.m"):
        ring_from_descriptor({"kind": "mod", "m": "x"})
    with pytest.raises(ParseError, match="m"):
        ring_from_descriptor({"kind": "mod"})
    with pytest.raises(ParseError, match="base"):
        ring_from_descriptor({"kind": "poly"})
    with pytest.raises(ParseError, match="kind"):
        ring_from_descriptor({"kind": "field"})
    with pytest.raises(ParseError):
        ring_from_descriptor({"kind": "mod", "m": 0})


def test_matrix_embedded_ring():
    m = matrix_from_json({"ring": "mod:8", "entries": [["10", -1], [0, 3]]})
    assert m.ring == Z8
    # canonicalization happens on entry: 10 -> 2, -1 -> 7
    assert m.row_list(1) == [2, 7]


def test_matrix_ring_override_wins():
    m = matrix_from_json({"ring": "int", "entries": [[5]]}, ring=Z8)
    assert m.ring == Z8


def test_matrix_needs_a_ring_somewhere():
    with pytest.raises(ParseError, match="ring"):
        matrix_from_json({"entries": [[1]]})


def test_matrix_shape_declarations_checked():
    good = {"ring": "int", "rows": 2, "cols": 2,
            "entries": [[1, 2], [3, 4]]}
    assert matrix_from_json(good).rows == 2
    with pytest.raises(ParseError, match="rows"):
        matrix_from_json({**good, "rows": 3})
    with pytest.raises(ParseError, match="cols"):
        matrix_from_json({**good, "cols": 1})
    with pytest.raises(ParseError, match="entries"):
        matrix_from_json({"ring": "int", "entries": [[1, 2], [3]]})
    with pytest.raises(ParseError, match="entries"):
        matrix_from_json({"ring": "int", "entries": "nope"})


def test_matrix_zero_rows_takes_cols_from_declaration():
    m = matrix_from_json({"ring": "int", "rows": 0, "cols": 3,
                          "entries": []})
    assert (m.rows, m.cols) == (0, 3)
    e = matrix_from_json({"ring": "int", "entries": []})
    assert (e.rows, e.cols) == (0, 0)


def test_matrix_entry_errors_are_located():
    with pytest.raises(ParseError, match=r"entries\[1\]\[0\]"):
        matrix_from_json({"ring": "int", "entries": [[1], ["oops"]]})


def test_matrix_rational_entries():
    m = matrix_from_json({
        "ring": {"kind": "rat"},
        "entries": [[{"num": "1", "den": "2"}, "3"]],
    })
    assert m.entry(1, 1) == QQ.coerce(1) / 2
    assert m.entry(1, 2) == QQ.coerce(3)


def test_matrix_polynomial_entries():
    m = matrix_from_json({
        "ring": "poly:int",
        "entries": [[["0", "1"], ["2"]], [["0"], []]],
    })
    assert m.entry(1, 1) == ZT.t()
    assert m.entry(2, 2).is_zero()


def test_matrix_round_trip():
    m = matrix_from_json({"ring": "mod:6", "entries": [[1, 2], [3, 4]]})
    again = matrix_from_json(m.to_json())
    assert again == m


def test_polynomial_from_json():
    q = polynomial_from_json({"coeffs": ["1", "0", "-1"]}, ZZ)
    assert q.coeffs == (1, 0, -1)
    assert polynomial_from_json({"coeffs": []}, Z8).is_zero()
    with pytest.raises(ParseError, match="coeffs"):
        polynomial_from_json({"coeffs": "t"}, ZZ)
    with pytest.raises(ParseError):
        polynomial_from_json(["1"], ZZ)
