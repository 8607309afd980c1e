"""Named identity suites with deterministic fuzzing.

Every identity in the library is registered here twice over: a fuzz
driver that manufactures fresh inputs from a seeded SplitMix64 stream,
and a single-matrix driver that instantiates the identity around one
caller-supplied matrix (drawing any auxiliary inputs from the same
seeded stream).  Reports come back in registry order, then case order,
so a fixed (suite, ring, seed, count, size) job always produces the
same reports in the same order, byte for byte once serialized.

Checks whose hypothesis an input fails to meet (a non-nilpotent matrix
fed to a nilpotency law, a prime that does not vanish in the ring)
return hypothesis-not-met reports; those are counted separately and are
not failures.
"""

from __future__ import annotations

from . import identities as ids
from .derivations import (
    standard_derivations,
    verify_derivation_det,
    verify_derivation_det_rows,
    verify_leibniz_chain,
)
from .fuzz import (
    MAX_SAMPLE_DEPTH,
    SplitMix64,
    characteristic,
    derive_seed,
    power_nilpotent,
    sample_commuting,
    sample_element,
    sample_indicator,
    sample_matrix,
    sample_nilpotent,
    sample_singular,
    sample_strict_upper,
    sample_subset,
    stream,
)
from .identities import IndexSubset, subset_pairs
from .matrix import Matrix, char_matrix
from .poly import PolynomialRing, ring_depth
from .report import hypothesis_not_met
from .rings import GuardError


def _maybe_singular(rng: SplitMix64, ring, n: int, case: int):
    """Every fifth case is singular (n forced positive), the rest random."""
    if case % 5 == 0:
        return sample_singular(rng, ring, max(n, 1))
    return sample_matrix(rng, ring, n, n)


def _derivation_ring(ring):
    return ring if isinstance(ring, PolynomialRing) else PolynomialRing(ring)


def _derivation_subject(a: Matrix):
    """The matrix a derivation check runs on: a itself over a polynomial
    ring, otherwise t*I + A over the lifted ring."""
    if isinstance(a.ring, PolynomialRing):
        return a
    return char_matrix(-a)


def _frobenius_p(ring, params):
    """params["p"] when given, else the characteristic if it is a prime
    below identities.PRIME_BOUND, else 2."""
    if params.get("p") is not None:
        return params["p"]
    ch = characteristic(ring)
    return ch if ch < ids.PRIME_BOUND and ids._is_prime(ch) else 2


# --- fuzz drivers ----------------------------------------------------------


def _fz_det_oracle(rng, ring, size, params, case):
    n = rng.below(min(size, 8) + 1)
    return [ids.verify_det_oracle(sample_matrix(rng, ring, n, n))]


def _fz_adj_inverse(rng, ring, size, params, case):
    n = rng.below(size + 1)
    return [ids.verify_adj_inverse(_maybe_singular(rng, ring, n, case))]


def _fz_det_product(rng, ring, size, params, case):
    n = rng.below(size + 1)
    a = sample_matrix(rng, ring, n, n)
    b = sample_matrix(rng, ring, n, n)
    return [ids.verify_det_product(a, b)]


def _fz_trace_product(rng, ring, size, params, case):
    n = rng.below(size + 1)
    m = rng.below(size + 1)
    a = sample_matrix(rng, ring, n, m)
    b = sample_matrix(rng, ring, m, n)
    return [ids.verify_trace_product(a, b)]


def _fz_laplace(rng, ring, size, params, case):
    n = 1 + rng.below(max(size, 1))
    return [ids.verify_laplace(sample_matrix(rng, ring, n, n))]


def _fz_det_scalar(rng, ring, size, params, case):
    n = rng.below(size + 1)
    a = sample_matrix(rng, ring, n, n)
    return [ids.verify_det_scalar(a, sample_element(rng, ring))]


def _fz_eval_zero_hom(rng, ring, size, params, case):
    n = rng.below(min(size, 4) + 1)
    return [ids.verify_eval_zero_hom(sample_matrix(rng, ring, n, n))]


def _fz_det_affine_degree(rng, ring, size, params, case):
    n = rng.below(min(size, 4) + 1)
    a = sample_matrix(rng, ring, n, n)
    b = sample_matrix(rng, ring, n, n)
    return [ids.verify_det_affine_degree(a, b)]


def _fz_row_of_product(rng, ring, size, params, case):
    n = rng.below(size + 1)
    k = rng.below(size + 1)
    m = rng.below(size + 1)
    a = sample_matrix(rng, ring, n, k)
    b = sample_matrix(rng, ring, k, m)
    return [ids.verify_row_of_product(a, b)]


def _fz_cayley_hamilton(rng, ring, size, params, case):
    n = rng.below(min(size, 5) + 1)
    return [ids.verify_cayley_hamilton(sample_matrix(rng, ring, n, n))]


def _fz_trace_cayley_hamilton(rng, ring, size, params, case):
    n = rng.below(min(size, 5) + 1)
    return [ids.verify_trace_cayley_hamilton(sample_matrix(rng, ring, n, n))]


def _fz_newton_agreement(rng, ring, size, params, case):
    n = rng.below(min(size, 5) + 1)
    return [ids.verify_newton_agreement(sample_matrix(rng, ring, n, n))]


def _fz_adj_via_charpoly(rng, ring, size, params, case):
    n = rng.below(size + 1)
    return [ids.verify_adj_via_charpoly(sample_matrix(rng, ring, n, n))]


def _fz_charpoly_derivative(rng, ring, size, params, case):
    n = rng.below(min(size, 4) + 1)
    return [ids.verify_charpoly_derivative(sample_matrix(rng, ring, n, n))]


def _fz_adj_trace(rng, ring, size, params, case):
    n = rng.below(size + 1)
    return [ids.verify_adj_trace(sample_matrix(rng, ring, n, n))]


def _fz_trace_of_D(rng, ring, size, params, case):
    n = rng.below(size + 1)
    return [ids.verify_trace_of_D(sample_matrix(rng, ring, n, n))]


def _fz_coefficient_family(rng, ring, size, params, case):
    n = rng.below(size + 1)
    return [ids.verify_coefficient_family(sample_matrix(rng, ring, n, n))]


def _fz_trace_coefficient(rng, ring, size, params, case):
    n = rng.below(size + 1)
    return [ids.verify_trace_coefficient(sample_matrix(rng, ring, n, n))]


def _fz_adj_product(rng, ring, size, params, case):
    n = rng.below(size + 1)
    a = _maybe_singular(rng, ring, n, case)
    b = (sample_singular(rng, ring, a.rows) if case % 5 == 3 and a.rows
         else sample_matrix(rng, ring, a.rows, a.rows))
    return [ids.verify_adj_product(a, b)]


def _fz_adj_of_adj(rng, ring, size, params, case):
    n = rng.below(size + 1)
    return [ids.verify_adj_of_adj(_maybe_singular(rng, ring, n, case))]


def _fz_adj_scalar(rng, ring, size, params, case):
    n = 1 + rng.below(max(size, 1))
    a = _maybe_singular(rng, ring, n, case)
    return [ids.verify_adj_scalar(a, sample_element(rng, ring))]


def _fz_jacobi(rng, ring, size, params, case):
    n = 1 + rng.below(max(min(size, 4), 1))
    a = _maybe_singular(rng, ring, n, case)
    n = a.rows
    k = 1 + rng.below(n)
    p = IndexSubset(n, sample_subset(rng, n, k))
    q = IndexSubset(n, sample_subset(rng, n, k))
    return [ids.verify_jacobi(a, p, q)]


def _fz_commute_swap(rng, ring, size, params, case):
    n = rng.below(min(size, 4) + 1)
    a = sample_matrix(rng, ring, n, n)
    b = sample_commuting(rng, a)
    s = sample_matrix(rng, ring, n, n)
    return [ids.verify_commute_swap(a, b, s)]


def _fz_block_commute(rng, ring, size, params, case):
    n = rng.below(min(size, 3) + 1)
    a = sample_matrix(rng, ring, n, n)
    c = sample_commuting(rng, a)
    b = sample_matrix(rng, ring, n, n)
    d = sample_matrix(rng, ring, n, n)
    return [ids.verify_block_commute(a, b, c, d)]


def _rank1_case(rng, ring, size, pattern):
    n = 1 + rng.below(max(min(size, 3), 1))
    m = 1 + rng.below(max(min(size, 3), 1))
    a = sample_matrix(rng, ring, n, n)
    if pattern == 1:
        # bordered: m = 1 and the 1 x 1 glue vectors are (1)
        d = sample_matrix(rng, ring, 1, 1)
        p = sample_matrix(rng, ring, n, 1)
        q = Matrix.identity(ring, 1)
        v = Matrix.identity(ring, 1)
        u = sample_matrix(rng, ring, 1, n)
    elif pattern == 2:
        # the corner-indicator corollary
        d = sample_matrix(rng, ring, m, m)
        p = sample_indicator(ring, n, 1, n, 1)
        v = sample_indicator(ring, 1, m, 1, 1)
        q = sample_indicator(ring, m, 1, 1, 1)
        u = sample_indicator(ring, 1, n, 1, n)
    else:
        d = sample_matrix(rng, ring, m, m)
        p = sample_matrix(rng, ring, n, 1)
        q = sample_matrix(rng, ring, m, 1)
        v = sample_matrix(rng, ring, 1, m)
        u = sample_matrix(rng, ring, 1, n)
    return ids.verify_rank1_block(a, d, p, q, v, u)


def _fz_rank1_block(rng, ring, size, params, case):
    return [_rank1_case(rng, ring, size, case % 3)]


def _fz_matrix_det_lemma(rng, ring, size, params, case):
    n = rng.below(size + 1)
    a = sample_matrix(rng, ring, n, n)
    u = sample_matrix(rng, ring, n, 1)
    v = sample_matrix(rng, ring, 1, n)
    return [ids.verify_matrix_det_lemma(a, u, v)]


def _fz_nilpotency(rng, ring, size, params, case):
    special = power_nilpotent(characteristic(ring))
    if case % 5 == 4:
        n = rng.below(min(size, 5) + 1)
        a = sample_matrix(rng, ring, n, n)     # gate exerciser
    elif case % 4 == 3 and special is not None:
        a = Matrix(ring, 1, 1, (ring.from_int(special[0]),))
    else:
        n = 1 + rng.below(max(min(size, 5), 1))
        a = sample_strict_upper(rng, ring, n)
    return [ids.verify_nilpotency_criterion(a)]


def _imax(params, n: int) -> int:
    """The power-trace bound: params["imax"] when given, else 2n + 1."""
    imax = params.get("imax")
    return 2 * n + 1 if imax is None else imax


def _fz_nilpotency_converse(rng, ring, size, params, case):
    n = 1 + rng.below(max(min(size, 5), 1))
    a = sample_strict_upper(rng, ring, n)
    return [ids.verify_nilpotency_converse(a, _imax(params, n))]


def _fz_almkvist(rng, ring, size, params, case):
    special = power_nilpotent(characteristic(ring))
    if case % 4 == 3 and special is not None:
        e, k = special
        a = Matrix(ring, 1, 1, (ring.from_int(e),))
    else:
        n = rng.below(min(size, 4) + 1)
        k = params["k"] if params.get("k") is not None else rng.below(n + 1)
        a = sample_nilpotent(rng, ring, n, k)
    return [ids.verify_almkvist(a, k)]


def _fz_trace_multinomial(rng, ring, size, params, case):
    n = rng.below(min(size, 3) + 1)
    m = rng.below(5)
    return [ids.verify_trace_multinomial(sample_matrix(rng, ring, n, n), m)]


def _fz_row_replacement(rng, ring, size, params, case):
    n = rng.below(size + 1)
    a = sample_matrix(rng, ring, n, n)
    b = sample_matrix(rng, ring, n, n)
    return [ids.verify_row_replacement(a, b)]


def _fz_frobenius_trace(rng, ring, size, params, case):
    p = _frobenius_p(ring, params)
    n = rng.below(size + 1)
    return [ids.verify_frobenius_trace(sample_matrix(rng, ring, n, n), p)]


def _fz_derivation_det(rng, ring, size, params, case):
    L = _derivation_ring(ring)
    n = rng.below(min(size, 3) + 1)
    a = sample_matrix(rng, L, n, n, poly_degree=2)
    f = standard_derivations(L)[case % 3]
    return [verify_derivation_det(f, a)]


def _fz_derivation_det_rows(rng, ring, size, params, case):
    L = _derivation_ring(ring)
    n = rng.below(min(size, 3) + 1)
    a = sample_matrix(rng, L, n, n, poly_degree=2)
    f = standard_derivations(L)[case % 3]
    return [verify_derivation_det_rows(f, a)]


def _fz_leibniz_chain(rng, ring, size, params, case):
    L = _derivation_ring(ring)
    count = 2 + rng.below(3)
    elems = [sample_element(rng, L, poly_degree=2) for _ in range(count)]
    f = standard_derivations(L)[case % 3]
    return [verify_leibniz_chain(f, elems)]


# --- single-matrix drivers -------------------------------------------------


def _on_det_oracle(a, rng, params):
    if a.rows > 8:
        return [hypothesis_not_met(
            "det_oracle", "the permutation-sum cross-check is capped at n = 8",
            {"matrix": a.to_json()})]
    return [ids.verify_det_oracle(a)]


def _on_adj_inverse(a, rng, params):
    return [ids.verify_adj_inverse(a)]


def _on_det_product(a, rng, params):
    return [ids.verify_det_product(a, sample_matrix(rng, a.ring, a.rows, a.rows))]


def _on_trace_product(a, rng, params):
    return [ids.verify_trace_product(a, sample_matrix(rng, a.ring, a.cols, a.rows))]


def _on_laplace(a, rng, params):
    return [ids.verify_laplace(a)]


def _on_det_scalar(a, rng, params):
    return [ids.verify_det_scalar(a, sample_element(rng, a.ring))]


def _on_eval_zero_hom(a, rng, params):
    return [ids.verify_eval_zero_hom(a)]


def _on_det_affine_degree(a, rng, params):
    return [ids.verify_det_affine_degree(a, sample_matrix(rng, a.ring, a.rows, a.rows))]


def _on_row_of_product(a, rng, params):
    return [ids.verify_row_of_product(a, sample_matrix(rng, a.ring, a.cols, a.cols))]


def _on_cayley_hamilton(a, rng, params):
    return [ids.verify_cayley_hamilton(a)]


def _on_trace_cayley_hamilton(a, rng, params):
    return [ids.verify_trace_cayley_hamilton(a)]


def _on_newton_agreement(a, rng, params):
    return [ids.verify_newton_agreement(a)]


def _on_adj_via_charpoly(a, rng, params):
    return [ids.verify_adj_via_charpoly(a)]


def _on_charpoly_derivative(a, rng, params):
    return [ids.verify_charpoly_derivative(a)]


def _on_adj_trace(a, rng, params):
    return [ids.verify_adj_trace(a)]


def _on_trace_of_D(a, rng, params):
    return [ids.verify_trace_of_D(a)]


def _on_coefficient_family(a, rng, params):
    return [ids.verify_coefficient_family(a)]


def _on_trace_coefficient(a, rng, params):
    return [ids.verify_trace_coefficient(a)]


def _on_adj_product(a, rng, params):
    return [ids.verify_adj_product(a, sample_matrix(rng, a.ring, a.rows, a.rows))]


def _on_adj_of_adj(a, rng, params):
    return [ids.verify_adj_of_adj(a)]


def _on_adj_scalar(a, rng, params):
    if a.rows == 0:
        return [hypothesis_not_met(
            "adj_scalar", "the scaled-adjugate law requires n >= 1",
            {"matrix": a.to_json()})]
    return [ids.verify_adj_scalar(a, sample_element(rng, a.ring))]


def _on_jacobi(a, rng, params):
    n = a.rows
    if n == 0:
        return [hypothesis_not_met(
            "jacobi", "complementary minors need n >= 1",
            {"matrix": a.to_json()})]
    if n <= 4:
        return [ids.verify_jacobi(a, p, q) for p, q in subset_pairs(n)]
    out = []
    for _ in range(20):
        k = 1 + rng.below(n)
        p = IndexSubset(n, sample_subset(rng, n, k))
        q = IndexSubset(n, sample_subset(rng, n, k))
        out.append(ids.verify_jacobi(a, p, q))
    return out


def _on_commute_swap(a, rng, params):
    b = sample_commuting(rng, a)
    s = sample_matrix(rng, a.ring, a.rows, a.rows)
    return [ids.verify_commute_swap(a, b, s)]


def _on_block_commute(a, rng, params):
    c = sample_commuting(rng, a)
    b = sample_matrix(rng, a.ring, a.rows, a.rows)
    d = sample_matrix(rng, a.ring, a.rows, a.rows)
    return [ids.verify_block_commute(a, b, c, d)]


def _on_rank1_block(a, rng, params):
    n = a.rows
    if n == 0:
        return [hypothesis_not_met(
            "rank1_block", "the block laws here need n >= 1",
            {"matrix": a.to_json()})]
    ring = a.ring
    out = []
    for pattern in (0, 1, 2):
        m = 1 + rng.below(3)
        if pattern == 1:
            d = sample_matrix(rng, ring, 1, 1)
            p = sample_matrix(rng, ring, n, 1)
            q = Matrix.identity(ring, 1)
            v = Matrix.identity(ring, 1)
            u = sample_matrix(rng, ring, 1, n)
        elif pattern == 2:
            d = sample_matrix(rng, ring, m, m)
            p = sample_indicator(ring, n, 1, n, 1)
            v = sample_indicator(ring, 1, m, 1, 1)
            q = sample_indicator(ring, m, 1, 1, 1)
            u = sample_indicator(ring, 1, n, 1, n)
        else:
            d = sample_matrix(rng, ring, m, m)
            p = sample_matrix(rng, ring, n, 1)
            q = sample_matrix(rng, ring, m, 1)
            v = sample_matrix(rng, ring, 1, m)
            u = sample_matrix(rng, ring, 1, n)
        out.append(ids.verify_rank1_block(a, d, p, q, v, u))
    return out


def _on_matrix_det_lemma(a, rng, params):
    u = sample_matrix(rng, a.ring, a.rows, 1)
    v = sample_matrix(rng, a.ring, 1, a.rows)
    return [ids.verify_matrix_det_lemma(a, u, v)]


def _on_nilpotency(a, rng, params):
    return [ids.verify_nilpotency_criterion(a)]


def _on_nilpotency_converse(a, rng, params):
    return [ids.verify_nilpotency_converse(a, _imax(params, a.rows))]


def _on_almkvist(a, rng, params):
    k = params["k"] if params.get("k") is not None else a.rows
    return [ids.verify_almkvist(a, k)]


def _on_trace_multinomial(a, rng, params):
    return [ids.verify_trace_multinomial(a, m) for m in range(4)]


def _on_row_replacement(a, rng, params):
    return [ids.verify_row_replacement(a, sample_matrix(rng, a.ring, a.rows, a.rows))]


def _on_frobenius_trace(a, rng, params):
    return [ids.verify_frobenius_trace(a, _frobenius_p(a.ring, params))]


def _on_derivation_det(a, rng, params):
    subject = _derivation_subject(a)
    return [verify_derivation_det(f, subject)
            for f in standard_derivations(subject.ring)]


def _on_derivation_det_rows(a, rng, params):
    subject = _derivation_subject(a)
    return [verify_derivation_det_rows(f, subject)
            for f in standard_derivations(subject.ring)]


def _on_leibniz_chain(a, rng, params):
    L = _derivation_ring(a.ring)
    elems = [sample_element(rng, L, poly_degree=2) for _ in range(3)]
    return [verify_leibniz_chain(f, elems) for f in standard_derivations(L)]


# --- registry ---------------------------------------------------------------

_REGISTRY = {
    "det_oracle": (_fz_det_oracle, _on_det_oracle),
    "adj_inverse": (_fz_adj_inverse, _on_adj_inverse),
    "det_product": (_fz_det_product, _on_det_product),
    "trace_product": (_fz_trace_product, _on_trace_product),
    "laplace": (_fz_laplace, _on_laplace),
    "det_scalar": (_fz_det_scalar, _on_det_scalar),
    "eval_zero_hom": (_fz_eval_zero_hom, _on_eval_zero_hom),
    "det_affine_degree": (_fz_det_affine_degree, _on_det_affine_degree),
    "row_of_product": (_fz_row_of_product, _on_row_of_product),
    "cayley_hamilton": (_fz_cayley_hamilton, _on_cayley_hamilton),
    "trace_cayley_hamilton": (_fz_trace_cayley_hamilton, _on_trace_cayley_hamilton),
    "newton_agreement": (_fz_newton_agreement, _on_newton_agreement),
    "adj_via_charpoly": (_fz_adj_via_charpoly, _on_adj_via_charpoly),
    "charpoly_derivative": (_fz_charpoly_derivative, _on_charpoly_derivative),
    "adj_trace": (_fz_adj_trace, _on_adj_trace),
    "trace_of_D": (_fz_trace_of_D, _on_trace_of_D),
    "coefficient_family": (_fz_coefficient_family, _on_coefficient_family),
    "trace_coefficient": (_fz_trace_coefficient, _on_trace_coefficient),
    "adj_product": (_fz_adj_product, _on_adj_product),
    "adj_of_adj": (_fz_adj_of_adj, _on_adj_of_adj),
    "adj_scalar": (_fz_adj_scalar, _on_adj_scalar),
    "jacobi": (_fz_jacobi, _on_jacobi),
    "commute_swap": (_fz_commute_swap, _on_commute_swap),
    "block_commute": (_fz_block_commute, _on_block_commute),
    "rank1_block": (_fz_rank1_block, _on_rank1_block),
    "matrix_det_lemma": (_fz_matrix_det_lemma, _on_matrix_det_lemma),
    "nilpotency": (_fz_nilpotency, _on_nilpotency),
    "nilpotency_converse": (_fz_nilpotency_converse, _on_nilpotency_converse),
    "almkvist": (_fz_almkvist, _on_almkvist),
    "trace_multinomial": (_fz_trace_multinomial, _on_trace_multinomial),
    "row_replacement": (_fz_row_replacement, _on_row_replacement),
    "frobenius_trace": (_fz_frobenius_trace, _on_frobenius_trace),
    "derivation_det": (_fz_derivation_det, _on_derivation_det),
    "derivation_det_rows": (_fz_derivation_det_rows, _on_derivation_det_rows),
    "leibniz_chain": (_fz_leibniz_chain, _on_leibniz_chain),
}

IDENTITY_NAMES = tuple(_REGISTRY)

SUITES = {
    "core": (
        "det_oracle", "adj_inverse", "det_product", "trace_product",
        "laplace", "det_scalar", "eval_zero_hom", "det_affine_degree",
        "row_of_product", "cayley_hamilton", "trace_cayley_hamilton",
        "newton_agreement", "adj_via_charpoly", "charpoly_derivative",
        "adj_trace", "trace_of_D", "coefficient_family", "trace_coefficient",
    ),
    "adjugate": ("adj_product", "adj_of_adj", "adj_scalar", "jacobi"),
    "blocks": ("commute_swap", "block_commute", "rank1_block",
               "matrix_det_lemma"),
    "nilpotency": ("nilpotency", "nilpotency_converse", "almkvist"),
    "traces": ("trace_multinomial", "row_replacement", "frobenius_trace"),
    "derivations": ("derivation_det", "derivation_det_rows", "leibniz_chain"),
}

_BLOCK_IDENTITIES = {"block_commute", "rank1_block"}

# Identities that take one side from an exponential oracle: the cofactor
# adjugate (n**2 subset-DP determinants) over K or K[t], or the subset-DP
# determinant.  Each case at n = 8 takes up to about 1 s over rat or
# poly:mod:8 and each step in n costs about 3x more, so n above
# _ORACLE_MAX_N is refused before any work.  In fuzz mode only the first
# two draw n up to --size; the other two draw n <= 4 at any size.
_ORACLE_IDENTITIES = ("adj_via_charpoly", "adj_trace", "charpoly_derivative",
                      "eval_zero_hom")
_ORACLE_FUZZ_IDENTITIES = ("adj_via_charpoly", "adj_trace")
_ORACLE_MAX_N = 8


def _oracle_guard(names, guarded, n: int, what: str) -> None:
    over = [name for name in names if name in guarded]
    if n > _ORACLE_MAX_N and over:
        raise GuardError(
            f"{what} > {_ORACLE_MAX_N} is refused for {', '.join(over)} "
            f"(one side is an exponential oracle)")


def _check_params(params) -> None:
    """Refuse an out-of-range imax, k or p before any work."""
    imax, k, p = params.get("imax"), params.get("k"), params.get("p")
    if imax is not None:
        if imax < 1:
            raise ValueError(f"imax must be at least 1, got {imax}")
        ids.check_cap("imax", imax, ids.MAX_IMAX)
    if k is not None:
        if k < 0:
            raise ValueError(f"k must be nonnegative, got {k}")
        ids.check_cap("k", k, ids.MAX_K)
    if p is not None and p >= ids.PRIME_BOUND:
        raise GuardError(f"p = {p} is refused: primality is decided only "
                         f"below {ids.PRIME_BOUND}")


def _frobenius_guard(names, ring, params) -> None:
    """Refuse a Frobenius check that would run too large a power."""
    if "frobenius_trace" in names:
        p = _frobenius_p(ring, params)
        if ring.is_zero(ring.from_int(p)):
            ids.frobenius_cost_guard(ring, p)


def _depth_guard(ring) -> None:
    depth = ring_depth(ring)
    if depth > MAX_SAMPLE_DEPTH:
        raise GuardError(
            f"polynomial rings nested {depth} deep are refused by verify and "
            f"fuzz (at most {MAX_SAMPLE_DEPTH}; sampling cost grows "
            f"exponentially with depth)")


def resolve_suite(spec: str) -> tuple:
    """Expand a comma-separated list of suite or identity names."""
    chosen = []
    for raw in spec.split(","):
        name = raw.strip()
        if not name:
            continue
        if name == "all":
            chosen.extend(IDENTITY_NAMES)
        elif name in SUITES:
            chosen.extend(SUITES[name])
        elif name in _REGISTRY:
            chosen.append(name)
        else:
            raise GuardError(
                f"unknown suite or identity {name!r}; known suites: "
                f"{', '.join(['all'] + sorted(SUITES))}")
    out = []
    for name in chosen:
        if name not in out:
            out.append(name)
    if not out:
        raise GuardError("no identities selected")
    return tuple(out)


def run_suite(names, *, ring=None, matrix=None, seed: int = 0,
              count: int = 100, size: int = 4, params: dict | None = None) -> list:
    """Run the named identity checks, either fuzzing or around one matrix.

    Exactly one of ring (fuzz mode, needs count and size) and matrix must
    be given.  Reports are deterministic functions of (names, ring or
    matrix, seed, count, size, params).
    """
    params = params or {}
    if isinstance(names, str):
        names = resolve_suite(names)
    if (ring is None) == (matrix is None):
        raise ValueError("pass exactly one of ring= (fuzz) or matrix=")
    _check_params(params)
    base = ring if ring is not None else matrix.ring
    _depth_guard(base)
    _frobenius_guard(names, base, params)
    if ring is not None:
        if count < 0:
            raise GuardError("count must be nonnegative")
        if size < 0:
            raise GuardError("size must be nonnegative")
        if size > 6 and any(n in _BLOCK_IDENTITIES for n in names):
            raise GuardError(
                "size > 6 is refused for block identities "
                "(glued dimension doubles)")
        _oracle_guard(names, _ORACLE_FUZZ_IDENTITIES, size, "size")
    elif matrix.is_square():    # a non-square one fails its shape check
        _oracle_guard(names, _ORACLE_IDENTITIES, matrix.rows, "n")
    reports = []
    for name in names:
        fuzz_fn, matrix_fn = _REGISTRY[name]
        if matrix is not None:
            rng = stream(seed, name)
            reports.extend(matrix_fn(matrix, rng, params))
        else:
            # stream(base_seed, case) is stream(seed, name, case) with the
            # identity's fold done once instead of once per case
            base_seed = derive_seed(seed, name)
            for case in range(count):
                rng = stream(base_seed, case)
                for rep in fuzz_fn(rng, ring, size, params, case):
                    rep.inputs["case"] = case
                    reports.append(rep)
    return reports
