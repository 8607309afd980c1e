"""Every input check raises its own exception type, and the CLI maps it
to its exit code.

One row per check, each on the smallest input that breaks its contract:
shape and ring errors exit 3, parse errors and bad parameters exit 2.
Messages are not pinned in that table, only the type (and for CLI rows
the exit code and the "error:" prefix), so rewording a message keeps
every row.  The one exception is each verifier's first shape check:
`verify` prints its message with exit 3, so the last test pins it word
for word, for every verifier.
"""

import io
import json

import pytest

from ringmat import cli
from ringmat import derivations as dv
from ringmat import identities as ids
from ringmat.charpoly import trace_cayley_hamilton_residual
from ringmat.fuzz import sample_element, sample_nilpotent, stream
from ringmat.identities import IndexSubset
from ringmat.matrix import Matrix, apply_poly, block2x2, char_matrix
from ringmat.poly import Polynomial, PolynomialRing
from ringmat.rings import (
    QQ, ZZ, ParseError, Ring, RingError, RingMismatchError, ShapeError,
    _parse_int,
)
from ringmat.serialize import matrix_from_json, ring_from_descriptor

ZT = PolynomialRing(ZZ)


def _z(rows, cols, ring=ZZ):
    return Matrix.zeros(ring, rows, cols)


def _i(n, ring=ZZ):
    return Matrix.identity(ring, n)


class _UnknownRing(Ring):
    """A Ring subclass no sampler knows."""


_TABLE = [
    # matrix.py
    ("negative_dimensions", lambda: Matrix(ZZ, -1, 0, ()), ShapeError),
    ("wrong_entry_count", lambda: Matrix(ZZ, 2, 2, (1, 2, 3)), ShapeError),
    ("sub_shapes", lambda: _z(2, 2) - _z(2, 3), ShapeError),
    ("pow_non_square", lambda: _z(2, 3) ** 2, ShapeError),
    ("pow_negative", lambda: _i(2) ** -1, ValueError),
    ("det_leibniz_non_square", lambda: _z(2, 3).det_leibniz(), ShapeError),
    ("apply_poly_non_square",
     lambda: apply_poly(Polynomial(ZZ, (1, 1)), _z(2, 3)), ShapeError),
    ("apply_poly_foreign_ring",
     lambda: apply_poly(Polynomial(QQ, (1, 1)), _i(2)), RingMismatchError),
    ("char_matrix_non_square", lambda: char_matrix(_z(2, 3)), ShapeError),
    ("block2x2_columns",
     lambda: block2x2(_z(1, 1), _z(1, 1), _z(1, 2), _z(1, 1)), ShapeError),
    # the same-size verifiers
    ("det_product_sizes",
     lambda: ids.verify_det_product(_i(2), _i(3)), ShapeError),
    ("det_affine_degree_sizes",
     lambda: ids.verify_det_affine_degree(_i(2), _i(3)), ShapeError),
    ("adj_product_sizes",
     lambda: ids.verify_adj_product(_i(2), _i(3)), ShapeError),
    ("commute_swap_sizes",
     lambda: ids.verify_commute_swap(_i(2), _i(2), _i(3)), ShapeError),
    ("block_commute_sizes",
     lambda: ids.verify_block_commute(_i(2), _i(2), _i(2), _i(3)),
     ShapeError),
    ("row_replacement_sizes",
     lambda: ids.verify_row_replacement(_i(2), _i(3)), ShapeError),
    # other verifier checks
    ("row_of_product_inner",
     lambda: ids.verify_row_of_product(_z(2, 3), _z(2, 2)), ShapeError),
    ("jacobi_subsets_over_another_n",
     lambda: ids.verify_jacobi(_i(2), IndexSubset(3, (1,)),
                               IndexSubset(3, (1,))), ShapeError),
    ("rank1_block_columns",
     lambda: ids.verify_rank1_block(_i(2), _i(1), _z(1, 1), _z(1, 1),
                                    _z(1, 1), _z(1, 2)), ShapeError),
    ("rank1_block_rows",
     lambda: ids.verify_rank1_block(_i(2), _i(1), _z(2, 1), _z(1, 1),
                                    _z(1, 2), _z(1, 2)), ShapeError),
    ("matrix_det_lemma_vectors",
     lambda: ids.verify_matrix_det_lemma(_i(2), _z(1, 2), _z(1, 2)),
     ShapeError),
    ("trace_cayley_hamilton_negative_kmax",
     lambda: ids.verify_trace_cayley_hamilton(_i(2), -3), ValueError),
    ("nilpotency_converse_imax_0",
     lambda: ids.verify_nilpotency_converse(_z(2, 2), 0), ValueError),
    ("trace_multinomial_negative_m",
     lambda: ids.verify_trace_multinomial(_i(2), -1), ValueError),
    ("derivation_det_non_square",
     lambda: dv.verify_derivation_det(dv.ddt(ZT), _z(2, 3, ZT)), ShapeError),
    ("derivation_det_foreign_ring",
     lambda: dv.verify_derivation_det(dv.ddt(ZT), _i(2)), RingMismatchError),
    ("derivation_det_rows_non_square",
     lambda: dv.verify_derivation_det_rows(dv.ddt(ZT), _z(2, 3, ZT)),
     ShapeError),
    ("derivation_det_rows_foreign_ring",
     lambda: dv.verify_derivation_det_rows(dv.ddt(ZT), _i(2)),
     RingMismatchError),
    ("matrix_image_foreign_ring",
     lambda: dv.ddt(ZT).matrix_image(_i(2)), RingMismatchError),
    ("scaled_ddt_not_polynomial",
     lambda: dv.scaled_ddt(ZZ, 1), RingMismatchError),
    # elsewhere
    ("trace_cayley_hamilton_negative_k",
     lambda: trace_cayley_hamilton_residual(_i(2), -1), ValueError),
    ("sample_element_unknown_ring",
     lambda: sample_element(stream(0), _UnknownRing()), RingError),
    ("sample_nilpotent_negative_k",
     lambda: sample_nilpotent(stream(0), ZZ, 2, -1), ValueError),
    ("matrix_from_json_non_object",
     lambda: matrix_from_json([[1]], ZZ), ParseError),
    ("matrix_from_json_row_not_list",
     lambda: matrix_from_json({"ring": "int", "entries": [1]}), ParseError),
    ("descriptor_base_not_object",
     lambda: ring_from_descriptor({"kind": "poly", "base": "int"}),
     ParseError),
    ("qq_coerce_foreign", lambda: QQ.coerce("1/2"), RingMismatchError),
    ("parse_int_float", lambda: _parse_int(1.5, "x"), ParseError),
]

_NON_SQUARE = json.dumps({"ring": "int", "entries": [[1, 2]]})
_SQUARE = json.dumps({"ring": "int", "entries": [[1, 2], [3, 4]]})
# non-square and outside the identity's n gate: the shape check still fires
_EMPTY_ROWS = json.dumps({"ring": "int", "rows": 0, "cols": 3, "entries": []})
_TALL = json.dumps({"ring": "int", "entries": [[1, 2]] * 9})

# (label, argv, stdin, exit code)
_CLI = [
    ("stdin_non_square", ["adjugate", "--matrix", "-"], _NON_SQUARE, 3),
    ("stdin_invalid_json", ["charpoly", "--matrix", "-"], "{", 2),
    ("stdin_verify_non_square", ["verify", "det_product", "--matrix", "-"],
     _NON_SQUARE, 3),
    ("verify_gated_0x3", ["verify", "jacobi", "--matrix", _EMPTY_ROWS], "", 3),
    ("verify_gated_9x2", ["verify", "det_oracle", "--matrix", _TALL], "", 3),
    ("ring_invalid_json",
     ["charpoly", "--matrix", _SQUARE, "--ring", "{"], "", 2),
]


@pytest.mark.parametrize(
    "thunk, expected",
    [(thunk, want) for _, thunk, want in _TABLE]
    + [((argv, stdin), code) for _, argv, stdin, code in _CLI],
    ids=[row[0] for row in _TABLE] + ["cli_" + row[0] for row in _CLI])
def test_every_input_check_fires(thunk, expected, capsys, monkeypatch):
    if isinstance(expected, int):
        argv, stdin = thunk
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
        code = cli.main(argv)
        captured = capsys.readouterr()
        assert code == expected
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1
        return
    with pytest.raises(expected) as info:
        thunk()
    assert info.type is expected


_W = _z(1, 2)
_ZT12 = _z(1, 2, ZT)


def _square(what):
    return ShapeError, f"{what} requires a square matrix, got 1 x 2"


def _one_size(what, *sizes):
    return ShapeError, f"{what} requires matrices of one size, got " + ", ".join(
        f"{n} x {n}" for n in sizes)


# (verifier call, exception type, message): every verifier on input that
# fails its first shape check, then the same-size half of the family checks
_SHAPES = {
    "det_oracle": (lambda: ids.verify_det_oracle(_W), *_square("det cross-check")),
    "det_product": (lambda: ids.verify_det_product(_W, _i(2)),
                    *_square("det product")),
    "det_scalar": (lambda: ids.verify_det_scalar(_W, 1),
                   *_square("scaled determinant")),
    "trace_product": (lambda: ids.verify_trace_product(_W, _W), ShapeError,
                      "need n x m against m x n, got 1 x 2 and 1 x 2"),
    "laplace": (lambda: ids.verify_laplace(_W), *_square("Laplace expansion")),
    "row_of_product": (lambda: ids.verify_row_of_product(_z(2, 3), _z(2, 2)),
                       ShapeError, "inner dimensions must agree"),
    "adj_inverse": (lambda: ids.verify_adj_inverse(_W), *_square("adjugate law")),
    "eval_zero_hom": (lambda: ids.verify_eval_zero_hom(_W),
                      *_square("evaluation check")),
    "det_affine_degree": (lambda: ids.verify_det_affine_degree(_W, _i(2)),
                          *_square("affine pencil")),
    "cayley_hamilton": (lambda: ids.verify_cayley_hamilton(_W),
                        *_square("Cayley-Hamilton")),
    "trace_cayley_hamilton": (lambda: ids.verify_trace_cayley_hamilton(_W, -3),
                              *_square("trace recursion")),
    "newton_agreement": (lambda: ids.verify_newton_agreement(_W),
                         *_square("trace-recursion agreement")),
    "adj_via_charpoly": (lambda: ids.verify_adj_via_charpoly(_W),
                         *_square("adjugate comparison")),
    "charpoly_derivative": (lambda: ids.verify_charpoly_derivative(_W),
                            *_square("characteristic derivative")),
    "adj_trace": (lambda: ids.verify_adj_trace(_W), *_square("adjugate trace")),
    "trace_of_D": (lambda: ids.verify_trace_of_D(_W),
                   *_square("adjugate coefficient traces")),
    "coefficient_family": (lambda: ids.verify_coefficient_family(_W),
                           *_square("coefficient family")),
    "trace_coefficient": (lambda: ids.verify_trace_coefficient(_W),
                          *_square("trace coefficient")),
    "adj_product": (lambda: ids.verify_adj_product(_W, _i(2)),
                    *_square("adjugate of product")),
    "adj_of_adj": (lambda: ids.verify_adj_of_adj(_W), *_square("iterated adjugate")),
    "adj_scalar": (lambda: ids.verify_adj_scalar(_W, 1), *_square("scaled adjugate")),
    "jacobi": (lambda: ids.verify_jacobi(_W, IndexSubset(3, (1,)),
                                         IndexSubset(3, (1, 2))),
               *_square("complementary minors")),
    "commute_swap": (lambda: ids.verify_commute_swap(_W, _i(2), _i(2)),
                     *_square("commuting swap")),
    "block_commute": (lambda: ids.verify_block_commute(_W, _i(2), _i(2), _i(2)),
                      *_square("commuting block determinant")),
    "rank1_block": (lambda: ids.verify_rank1_block(_W, _i(1), _z(1, 1), _z(1, 1),
                                                   _z(1, 1), _z(1, 1)),
                    *_square("rank-one block")),
    "matrix_det_lemma": (lambda: ids.verify_matrix_det_lemma(_W, _z(1, 1), _z(1, 1)),
                         *_square("rank-one update")),
    "nilpotency": (lambda: ids.verify_nilpotency_criterion(_W),
                   *_square("nilpotency criterion")),
    "nilpotency_converse": (lambda: ids.verify_nilpotency_converse(_W, 0),
                            *_square("nilpotency converse")),
    "almkvist": (lambda: ids.verify_almkvist(_W, -1),
                 *_square("nilpotent trace powers")),
    "trace_multinomial": (lambda: ids.verify_trace_multinomial(_W, -1),
                          *_square("trace multinomial")),
    "row_replacement": (lambda: ids.verify_row_replacement(_W, _i(2)),
                        *_square("row replacement")),
    "frobenius_trace": (lambda: ids.verify_frobenius_trace(_W, 4),
                        *_square("Frobenius trace")),
    "derivation_det": (lambda: dv.verify_derivation_det(dv.ddt(ZT), _ZT12),
                       *_square("determinant formula")),
    "derivation_det_rows": (lambda: dv.verify_derivation_det_rows(dv.ddt(ZT), _ZT12),
                            *_square("determinant formula")),
    # leibniz_chain takes no matrix: its first input check is a factor's ring
    "leibniz_chain": (lambda: dv.verify_leibniz_chain(dv.ddt(ZT), [1, "x"]),
                      RingMismatchError, "'x' is not an integer"),
    "det_product_sizes": (lambda: ids.verify_det_product(_i(2), _i(3)),
                          *_one_size("det product", 2, 3)),
    "det_affine_degree_sizes": (lambda: ids.verify_det_affine_degree(_i(2), _i(3)),
                                *_one_size("affine pencil", 2, 3)),
    "adj_product_sizes": (lambda: ids.verify_adj_product(_i(2), _i(3)),
                          *_one_size("adjugate of product", 2, 3)),
    "commute_swap_sizes": (lambda: ids.verify_commute_swap(_i(2), _i(2), _i(3)),
                           *_one_size("commuting swap", 2, 2, 3)),
    "block_commute_sizes": (lambda: ids.verify_block_commute(_i(2), _i(2), _i(2),
                                                             _i(3)),
                            *_one_size("commuting block determinant", 2, 2, 2, 3)),
    "row_replacement_sizes": (lambda: ids.verify_row_replacement(_i(2), _i(3)),
                              *_one_size("row replacement", 2, 3)),
}


def test_shape_table_covers_every_verifier():
    from ringmat.suite import IDENTITY_NAMES
    assert set(IDENTITY_NAMES) <= set(_SHAPES)


@pytest.mark.parametrize("thunk, expected, message", _SHAPES.values(),
                         ids=list(_SHAPES))
def test_every_verifier_states_its_first_shape_check(thunk, expected, message):
    # where a verifier has a later check, the input breaks it too (a bad
    # subset, kmax, imax, k, m or p): the shape check must come first
    with pytest.raises(expected) as info:
        thunk()
    assert info.type is expected
    assert str(info.value) == message
