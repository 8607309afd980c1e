"""Named identity suites with deterministic fuzzing.

Every identity is one row of _TABLE, whose rows are grouped by suite
(SUITES is read off the grouping): how a fuzz case draws n and A,
which further inputs its verifier takes in draw order, which matrices
get a hypothesis-not-met report instead of a check, and which sizes are
refused.  One generic driver turns a row into fuzz cases drawn from a
seeded SplitMix64 stream, and one runs it around a single caller-supplied
matrix (drawing any further inputs from the same seeded stream); the few
identities a row cannot describe name their own drivers in it.  Reports
come back in selection order, then case order, so a fixed (suite, ring,
seed, count, size) job always produces the same reports in the same
order, byte for byte once serialized.

Verifiers are looked up by name on the identities or derivations module
at each call, never held in the table, so a wrapper installed there
after import (as bench/tracing.py does) sees every call.

Checks whose hypothesis an input fails to meet (a non-nilpotent matrix
fed to a nilpotency law, a prime that does not vanish in the ring)
return hypothesis-not-met reports; those are counted separately and are
not failures.
"""

from __future__ import annotations

from math import inf

from . import derivations as dv
from . import identities as ids
from .fuzz import (
    MAX_SAMPLE_DEPTH, _draw, characteristic, derive_seed, power_nilpotent,
    sample_commuting, sample_element, sample_indicator, sample_matrix,
    sample_nilpotent, sample_singular, sample_strict_upper, sample_subset,
    stream,
)
from .identities import IndexSubset, subset_pairs
from .matrix import Matrix, char_matrix
from .poly import PolynomialRing, ring_depth
from .report import hypothesis_not_met
from .rings import GuardError


def _maybe_singular(rng, ring, n: int, case: int):
    """Every fifth case is singular (n forced positive), the rest random."""
    if case % 5 == 0:
        return sample_singular(rng, ring, max(n, 1))
    return sample_matrix(rng, ring, n, n)


def _derivation_ring(ring):
    return ring if isinstance(ring, PolynomialRing) else PolynomialRing(ring)


def _frobenius_p(ring, params):
    """--p if given, else the characteristic if a prime below PRIME_BOUND, else 2."""
    if params.get("p") is not None:
        return params["p"]
    ch = characteristic(ring)
    return ch if ch < ids.PRIME_BOUND and ids._is_prime(ch) else 2


def _verifier(name):
    """The identity's verifier, read from its module on every call."""
    module = dv if name in SUITES["derivations"] else ids
    return getattr(module, "verify_nilpotency_criterion" if name == "nilpotency"
                   else "verify_" + name)


# --- the generic drivers ----------------------------------------------------


def _check(name, a, rng, params, case=None):
    """Draw the row's further inputs in order and run its verifier on A;
    this is also the matrix-mode driver of every row without its own."""
    ring, n = a.ring, a.rows
    kwargs = {}
    for key, kind in _AUX[name]:
        if kind == "B":
            kwargs[key] = sample_commuting(rng, a)
        elif kind == "E":
            kwargs[key] = sample_element(rng, ring)
        elif kind == "P":
            kwargs[key] = _frobenius_p(ring, params)
        elif kind == "I":
            imax = params.get("imax")
            kwargs[key] = 2 * n + 1 if imax is None else imax
        elif kind == "S" and case is not None and case % 5 == 3 and n:
            kwargs[key] = sample_singular(rng, ring, n)
        else:
            rows, cols = {"C": (n, 1), "R": (1, n)}.get(kind, (n, n))
            kwargs[key] = sample_matrix(rng, ring, rows, cols)
    return [_verifier(name)(a, **kwargs)]


def _fuzz_case(name, rng, ring, size, params, case):
    least, shape = _TABLE[name][1:3]
    n = least + rng.below(max(size + 1 - least, 1))
    if shape == "u":
        a = sample_strict_upper(rng, ring, n)
    elif shape == "s":
        a = _maybe_singular(rng, ring, n, case)
    else:
        a = sample_matrix(rng, ring, n, n)
    return _check(name, a, rng, params, case)


# --- drivers for identities a row cannot describe ---------------------------
# Fuzz drivers take (name, rng, ring, size, params, case) with size
# already clamped; matrix drivers take (name, a, rng, params).


def _fz_trace_product(name, rng, ring, size, params, case):
    n, m = rng.below(size + 1), rng.below(size + 1)
    return [ids.verify_trace_product(sample_matrix(rng, ring, n, m),
                                     sample_matrix(rng, ring, m, n))]


def _on_trace_product(name, a, rng, params):
    return [ids.verify_trace_product(a, sample_matrix(rng, a.ring, a.cols, a.rows))]


def _fz_row_of_product(name, rng, ring, size, params, case):
    n, k, m = (rng.below(size + 1) for _ in range(3))
    return [ids.verify_row_of_product(sample_matrix(rng, ring, n, k),
                                      sample_matrix(rng, ring, k, m))]


def _on_row_of_product(name, a, rng, params):
    return [ids.verify_row_of_product(a, sample_matrix(rng, a.ring, a.cols, a.cols))]


def _jacobi_pair(rng, n: int):
    """One random pair of k-subsets of 1..n, k drawn first."""
    k = 1 + rng.below(n)
    return (IndexSubset(n, sample_subset(rng, n, k)),
            IndexSubset(n, sample_subset(rng, n, k)))


def _fz_jacobi(name, rng, ring, size, params, case):
    n = 1 + rng.below(max(size, 1))
    a = _maybe_singular(rng, ring, n, case)
    return [ids.verify_jacobi(a, *_jacobi_pair(rng, n))]


def _on_jacobi(name, a, rng, params):
    a.require_square("complementary minors")    # n = 0 draws no pair
    n = a.rows
    pairs = (subset_pairs(n) if n <= 4
             else [_jacobi_pair(rng, n) for _ in range(20)])
    known = a.adjugate(), a.det()       # shared by every pair around A
    return [ids.verify_jacobi(a, p, q, _adj_det=known) for p, q in pairs]


def _rank1_case(rng, a, m: int, pattern: int):
    """The rank-1 block law around A with an m x m corner D: pattern 0
    draws every glue vector, pattern 1 is the bordered case (m = 1 and
    q = v = (1)), pattern 2 the corner-indicator corollary."""
    ring, n = a.ring, a.rows
    if pattern == 1:
        d = sample_matrix(rng, ring, 1, 1)
        p = sample_matrix(rng, ring, n, 1)
        q, v = Matrix.identity(ring, 1), Matrix.identity(ring, 1)
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
    return ids.verify_rank1_block(a, d, p, q, v, u)


def _fz_rank1_block(name, rng, ring, size, params, case):
    n = 1 + rng.below(max(size, 1))
    m = 1 + rng.below(max(size, 1))
    return [_rank1_case(rng, sample_matrix(rng, ring, n, n), m, case % 3)]


def _on_rank1_block(name, a, rng, params):
    return [_rank1_case(rng, a, 1 + rng.below(3), pattern)
            for pattern in (0, 1, 2)]


def _fz_nilpotency(name, rng, ring, size, params, case):
    special = power_nilpotent(characteristic(ring))
    if case % 5 == 4:
        n = rng.below(size + 1)
        a = sample_matrix(rng, ring, n, n)     # gate exerciser
    elif case % 4 == 3 and special is not None:
        a = Matrix(ring, 1, 1, (ring.from_int(special[0]),))
    else:
        a = sample_strict_upper(rng, ring, 1 + rng.below(max(size, 1)))
    return [ids.verify_nilpotency_criterion(a)]


def _fz_almkvist(name, rng, ring, size, params, case):
    special = power_nilpotent(characteristic(ring))
    if case % 4 == 3 and special is not None:
        e, k = special
        a = Matrix(ring, 1, 1, (ring.from_int(e),))
    else:
        n = rng.below(size + 1)
        k = params["k"] if params.get("k") is not None else rng.below(n + 1)
        a = sample_nilpotent(rng, ring, n, k)
    return [ids.verify_almkvist(a, k)]


def _on_almkvist(name, a, rng, params):
    k = params.get("k")
    return [ids.verify_almkvist(a, a.rows if k is None else k)]


def _fz_trace_multinomial(name, rng, ring, size, params, case):
    n = rng.below(size + 1)
    m = rng.below(5)                           # drawn before A
    return [ids.verify_trace_multinomial(sample_matrix(rng, ring, n, n), m)]


def _on_trace_multinomial(name, a, rng, params):
    return [ids.verify_trace_multinomial(a, m) for m in range(4)]


def _fz_derivation(name, rng, ring, size, params, case):
    L = _derivation_ring(ring)
    n = rng.below(size + 1)
    a = sample_matrix(rng, L, n, n, poly_degree=2)
    return [_verifier(name)(dv.standard_derivations(L)[case % 3], a)]


def _on_derivation(name, a, rng, params):
    # the subject is A itself over a polynomial ring, else tI + A over
    # the lifted ring
    subject = a if isinstance(a.ring, PolynomialRing) else char_matrix(-a)
    verify = _verifier(name)
    return [verify(f, subject) for f in dv.standard_derivations(subject.ring)]


def _fz_leibniz_chain(name, rng, ring, size, params, case):
    L = _derivation_ring(ring)
    count = 2 + rng.below(3)
    elems = _draw(rng, L, count, 2)
    return [dv.verify_leibniz_chain(dv.standard_derivations(L)[case % 3], elems)]


def _on_leibniz_chain(name, a, rng, params):
    L = _derivation_ring(a.ring)
    elems = _draw(rng, L, 3, 2)
    return [dv.verify_leibniz_chain(f, elems) for f in dv.standard_derivations(L)]


# --- the table --------------------------------------------------------------

# Size caps as (fuzz --size, verify n), refused above before any work.  An
# oracle side costs O(n 2^n) ring ops: the cofactor adjugate took 11-18 ms
# at n = 8 over rat or poly:mod:8 on a 2-vCPU VM, 2.3-2.7x more per step
# in n, and `verify core` 1.4-1.9 s there in all.  A case drawing n up to
# --size costs O(n^4) ring ops on entries that grow with n: --count 2 of
# the 15 such identities takes about 1 s at --size 16 over int, rat or
# poly:mod:8, and over 90 s at 24 over poly:mod:8.
_FREE, _GLUED, _UNCLAMPED = (None, None), (6, None), (16, None)
_ORACLE, _ORACLE_SIDE = (8, 8), (None, 8)   # the latter draw n <= 4
_CAP_REASONS = {
    6: "block identities (glued dimension doubles)",
    8: "{} (one side is an exponential oracle)",
    16: "{} (n is drawn up to --size with no clamp)",
}

# Gates (lo, hi, reason): verify on a matrix with n outside lo..hi
# reports hypothesis-not-met instead of checking.
_DET_ORACLE_GATE = 0, 8, "the permutation-sum cross-check is capped at n = 8"
_ADJ_SCALAR_GATE = 1, inf, "the scaled-adjugate law requires n >= 1"
_JACOBI_GATE = 1, inf, "complementary minors need n >= 1"
_BLOCK_GATE = 1, inf, "the block laws here need n >= 1"

# One row per identity, grouped by suite, in registry order, with the
# columns
#   clamp  fuzz cases draw n <= min(--size, clamp); None: n <= --size
#   least  the least n a fuzz case draws
#   A      how a fuzz case samples A: "r" at random, "s" singular in
#          every fifth case (n forced positive), "u" strictly upper
#          triangular; or the (fuzz, matrix) drivers of an identity no
#          row can describe, which draw their own n, A and further inputs
#   aux    the verifier's further arguments as keyword:kind, in the order
#          they are drawn: M an n x n matrix, S one that is singular in
#          fuzz cases 3 mod 5, E an element, C an n x 1 column, R a 1 x n
#          row, B a matrix commuting with A, P --p (else the
#          characteristic if prime, else 2), I --imax (else 2n + 1)
#   gate, caps  as set out above
_TABLE_BY_SUITE = {
    "core": {
        # name                  clamp least A    aux            gate  caps
        "det_oracle":            (8,    0,   "r", "",   _DET_ORACLE_GATE, _FREE),
        "adj_inverse":           (None, 0,   "s", "",           None, _UNCLAMPED),
        "det_product":           (None, 0,   "r", "b:M",        None, _UNCLAMPED),
        "trace_product":         (None, None, (_fz_trace_product, _on_trace_product),
                                  "", None, _UNCLAMPED),
        "laplace":               (None, 1,   "r", "",           None, _UNCLAMPED),
        "det_scalar":            (None, 0,   "r", "lam:E",      None, _UNCLAMPED),
        "eval_zero_hom":         (4,    0,   "r", "",           None, _ORACLE_SIDE),
        "det_affine_degree":     (4,    0,   "r", "b:M",        None, _FREE),
        "row_of_product":        (None, None, (_fz_row_of_product, _on_row_of_product),
                                  "", None, _UNCLAMPED),
        "cayley_hamilton":       (5,    0,   "r", "",           None, _FREE),
        "trace_cayley_hamilton": (5,    0,   "r", "",           None, _FREE),
        "newton_agreement":      (5,    0,   "r", "",           None, _FREE),
        "adj_via_charpoly":      (None, 0,   "r", "",           None, _ORACLE),
        "charpoly_derivative":   (4,    0,   "r", "",           None, _ORACLE_SIDE),
        "adj_trace":             (None, 0,   "r", "",           None, _ORACLE),
        "trace_of_D":            (None, 0,   "r", "",           None, _UNCLAMPED),
        "coefficient_family":    (None, 0,   "r", "",           None, _UNCLAMPED),
        "trace_coefficient":     (None, 0,   "r", "",           None, _UNCLAMPED),
    },
    "adjugate": {
        "adj_product":           (None, 0,   "s", "b:S",        None, _UNCLAMPED),
        "adj_of_adj":            (None, 0,   "s", "",           None, _UNCLAMPED),
        "adj_scalar":            (None, 1,   "s", "lam:E",
                                  _ADJ_SCALAR_GATE, _UNCLAMPED),
        "jacobi":                (4,    None, (_fz_jacobi, _on_jacobi),
                                  "", _JACOBI_GATE, _FREE),
    },
    "blocks": {
        "commute_swap":          (4,    0,   "r", "b:B s:M",    None, _FREE),
        "block_commute":         (3,    0,   "r", "c:B b:M d:M", None, _GLUED),
        "rank1_block":           (3,    None, (_fz_rank1_block, _on_rank1_block),
                                  "", _BLOCK_GATE, _GLUED),
        "matrix_det_lemma":      (None, 0,   "r", "u:C v:R",    None, _UNCLAMPED),
    },
    "nilpotency": {
        "nilpotency":            (5,    None, (_fz_nilpotency, _check),
                                  "", None, _FREE),
        "nilpotency_converse":   (5,    1,   "u", "imax:I",     None, _FREE),
        "almkvist":              (4,    None, (_fz_almkvist, _on_almkvist),
                                  "", None, _FREE),
    },
    "traces": {
        "trace_multinomial":     (3,    None, (_fz_trace_multinomial,
                                               _on_trace_multinomial),
                                  "", None, _FREE),
        "row_replacement":       (None, 0,   "r", "b:M",        None, _UNCLAMPED),
        "frobenius_trace":       (None, 0,   "r", "p:P",        None, _UNCLAMPED),
    },
    "derivations": {
        "derivation_det":        (3,    None, (_fz_derivation, _on_derivation),
                                  "", None, _FREE),
        "derivation_det_rows":   (3,    None, (_fz_derivation, _on_derivation),
                                  "", None, _FREE),
        "leibniz_chain":         (None, None, (_fz_leibniz_chain, _on_leibniz_chain),
                                  "", None, _FREE),
    },
}
_TABLE = {name: row for rows in _TABLE_BY_SUITE.values()
          for name, row in rows.items()}
SUITES = {suite: tuple(rows) for suite, rows in _TABLE_BY_SUITE.items()}
IDENTITY_NAMES = tuple(_TABLE)
_AUX = {name: [item.split(":") for item in row[3].split()]
        for name, row in _TABLE.items()}


def _cap_guard(names, n: int, what: str, column: int) -> None:
    """Refuse n above the smallest cap it exceeds among the named rows."""
    over = [(cap, name) for name in names
            if (cap := _TABLE[name][5][column]) is not None and n > cap]
    if over:
        cap = min(over)[0]
        who = ", ".join(name for c, name in over if c == cap)
        raise GuardError(f"{what} > {cap} is refused for "
                         + _CAP_REASONS[cap].format(who))


def _check_params(params) -> None:
    """Refuse an out-of-range imax, k or p (p must be a prime below
    PRIME_BOUND) before any work."""
    imax, k, p = params.get("imax"), params.get("k"), params.get("p")
    if imax is not None:
        ids.check_imax(imax)
    if k is not None:
        ids.check_k(k)
    if p is not None:
        if p >= ids.PRIME_BOUND:
            raise GuardError(f"p = {p} is refused: primality is decided "
                             f"only below {ids.PRIME_BOUND}")
        if not ids._is_prime(p):
            raise ValueError(f"p must be prime, got {p}")


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
        elif name in _TABLE:
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
        _cap_guard(names, size, "size", 0)
    elif matrix.is_square():    # a non-square one fails its shape check
        _cap_guard(names, matrix.rows, "n", 1)
    reports = []
    for name in names:
        clamp, _, shape, _, gate, _ = _TABLE[name]
        fuzz_fn, matrix_fn = ((_fuzz_case, _check) if isinstance(shape, str)
                              else shape)
        if matrix is not None:
            # only a square matrix meets the gate: a non-square one
            # fails its shape check below
            if (gate and matrix.is_square()
                    and not gate[0] <= matrix.rows <= gate[1]):
                reports.append(hypothesis_not_met(
                    name, gate[2], {"matrix": matrix}))
            else:
                reports.extend(matrix_fn(name, matrix, stream(seed, name), params))
        else:
            clamped = size if clamp is None else min(size, clamp)
            # stream(base_seed, case) is stream(seed, name, case) with the
            # identity's fold done once instead of once per case
            base_seed = derive_seed(seed, name)
            for case in range(count):
                rng = stream(base_seed, case)
                for rep in fuzz_fn(name, rng, ring, clamped, params, case):
                    rep.inputs["case"] = case
                    reports.append(rep)
    return reports
