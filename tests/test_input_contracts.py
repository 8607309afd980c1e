"""Every input check raises its own exception type, and the CLI maps it
to its exit code.

One row per check, each on the smallest input that breaks its contract:
shape and ring errors exit 3, parse errors and bad parameters exit 2.
Messages are not pinned here, only the type (and for CLI rows the exit
code and the "error:" prefix), so rewording a message keeps every row.
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
