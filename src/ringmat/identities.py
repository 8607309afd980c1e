"""Mechanical checks for determinant and trace identities.

Every verify_* function instantiates one identity on concrete inputs,
computes both sides with exact ring arithmetic, and returns a
VerificationReport whose residual is the difference.  Nothing is proved
here; the point is that each equality is checked literally, over any
commutative ring, including rings with zero divisors.

Checks with a hypothesis (nilpotency, vanishing traces, prime
characteristic) first test the hypothesis on the given inputs and report
"hypothesis not met" without judging the identity; checks whose
precondition is the caller's responsibility (commuting factors) raise
PreconditionError instead, so a bad call is never confused with a
counterexample.

An identity with several clauses (a family over k, both sides of a
product, every row) lists them as (part, residual, ring) triples and
returns report.first_failure of the list: a failing report names its
first failing clause in inputs["failed_part"].  A (None, zero, ring)
sentinel last clause lets the check pass without naming a part.

The production kernels take separate routes (matrix.py).  Over ZZ, and
over QQ and the encodable towers on their integer encoding:
Matrix.det is Bareiss's elimination of A (_bareiss); the charpoly
coefficients c_j are the base 2**W digits of the same elimination run
on 2**W * I - A; Matrix.adjugate is that forward elimination of
[A | I] with back-substitution while its slots fit MAX_SOLVE_BITS, and
otherwise, like the D_k always, the Horner chain in A that reads its
own c_j off traces (the trace Cayley-Hamilton recursion).
Bare Z/m and towers above MAX_SLOTS take every c_j, those of det and
of the adjugate included, from matrix.berkowitz, and so do det and the
c_j over ZZ when the elimination would be too wide.  So the two sides
of an identity can share a kernel, or, over Z/m, all derive from one
Berkowitz pass, and a fault there could cancel out.  Such identities
take one side from an oracle that shares no recurrence with any
production route: det_subset_dp, adjugate_cofactor or det_leibniz.
The others compare
different routes: trace_cayley_hamilton checks eliminated c_k against
power traces from plain matmuls, cayley_hamilton evaluates chi_A at A
by Horner, and trace_of_D and coefficient_family set the c_j against
D_k from the trace chain, which takes its own c_j over ZZ.
"""

from __future__ import annotations

from itertools import chain, combinations
from math import comb, factorial

from .charpoly import (
    adjugate_via_charpoly,
    cayley_hamilton_residual,
    charpoly,
    charpoly_newton,
    power_traces,
    trace_cayley_hamilton_sum,
)
from .matrix import (Matrix, block2x2, char_matrix, ent, powers,
                     row_mixed, row_replacement_sum)
from .poly import Polynomial, PolynomialRing, ring_depth
from .record import FrozenRecord
from .report import (VerificationReport, first_failure, hypothesis_not_met,
                     make_report)
from .rings import GuardError, PreconditionError, ShapeError

TERM_GUARD = 100_000

# Caps on the integer parameters of the nilpotency checks.  A**(k+1) over
# Z[t] grows in degree with k: on a 3 x 3 matrix of linear entries k = 256
# took 0.3 s and k = 1000 took 17 s.  The converse check runs imax matmuls:
# on a nilpotent 8 x 8 integer matrix imax = 1000 took 65 ms and 10**5
# took 5.3 s.
MAX_K = 256
MAX_IMAX = 1000

# Miller-Rabin on the first 13 prime bases decides primality exactly below
# this bound, the least strong pseudoprime to all of them (Sorenson and
# Webster, Math. Comp. 86, 2017).
PRIME_BOUND = 3_317_044_064_679_887_385_961_981
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

# Over R[t] nested d deep in characteristic p, the entries of A**p carry
# up to (p * deg + 1)**d coefficients, so the Frobenius check refuses
# p**d above this cap there.  An 8 x 8 matrix of linear entries over
# (Z/251)[t] took 4 s, and fuzzing (Z/61)[t][u] at --size 4 --count 3
# took 20 s.
FROBENIUS_POLY_CAP = 256


class IndexSubset(FrozenRecord):
    """A subset of {1, .., n} kept as a strictly increasing member tuple."""

    _fields = ("n", "members")

    def __init__(self, n: int, members):
        members = tuple(members)
        if sorted(set(members)) != list(members):
            raise ValueError(f"members must be strictly increasing, got {members}")
        if members and not (1 <= members[0] and members[-1] <= n):
            raise ValueError(f"members {members} out of range 1..{n}")
        self._set(n=n, members=members)

    def __len__(self):
        return len(self.members)

    def weight(self) -> int:
        """Sum of the members (drives the sign in complementary-minor laws)."""
        return sum(self.members)

    def complement(self) -> "IndexSubset":
        chosen = set(self.members)
        return IndexSubset(self.n, [i for i in range(1, self.n + 1)
                                    if i not in chosen])


def subset_pairs(n: int):
    """All (P, Q) with P, Q subsets of {1..n}, |P| = |Q| >= 1, in a fixed order."""
    for k in range(1, n + 1):
        for p in combinations(range(1, n + 1), k):
            for q in combinations(range(1, n + 1), k):
                yield IndexSubset(n, p), IndexSubset(n, q)


def multinomial(m: int, parts) -> int:
    """m! / (i_1! * ... * i_n!) for a composition (i_1, .., i_n) of m."""
    parts = tuple(parts)
    if any(p < 0 for p in parts):
        raise ValueError(f"composition parts must be nonnegative, got {parts}")
    if sum(parts) != m:
        raise ValueError(f"parts {parts} sum to {sum(parts)}, expected {m}")
    out = factorial(m)
    for p in parts:
        out //= factorial(p)
    return out


def compositions(m: int, n: int):
    """All n-tuples of nonnegative integers summing to m, lexicographic."""
    if n == 0:
        if m == 0:
            yield ()
        return
    if n == 1:
        yield (m,)
        return
    for first in range(m + 1):
        for rest in compositions(m - first, n - 1):
            yield (first,) + rest


def _same_ring(*ms) -> None:
    for m in ms[1:]:
        ms[0]._check_ring(m)


def _square_family(what: str, *ms) -> None:
    """Require n x n matrices over one ring for one n: each square
    (ShapeError), then one ring (RingMismatchError), then one n."""
    for m in ms:
        m.require_square(what)
    _same_ring(*ms)
    if any(m.rows != ms[0].rows for m in ms):
        raise ShapeError(f"{what} requires matrices of one size, got "
                         + ", ".join(f"{m.rows} x {m.cols}" for m in ms))


def check_cap(name: str, value: int, cap: int) -> None:
    """Refuse a cost parameter above its cap with GuardError."""
    if value > cap:
        raise GuardError(f"{name} = {value} exceeds the cap of {cap}")


def check_imax(imax: int) -> None:
    """Refuse an imax (the converse check's last power) below 1 with
    ValueError or above MAX_IMAX with GuardError."""
    if imax < 1:
        raise ValueError(f"imax must be at least 1, got {imax}")
    check_cap("imax", imax, MAX_IMAX)


def check_k(k: int) -> None:
    """Refuse a k (Almkvist's nilpotency order) below 0 with ValueError
    or above MAX_K with GuardError."""
    if k < 0:
        raise ValueError(f"k must be nonnegative, got {k}")
    check_cap("k", k, MAX_K)


# ---------------------------------------------------------------------------
# determinant and trace basics


def verify_det_oracle(a: Matrix) -> VerificationReport:
    """Production determinant against the naive permutation sum (n <= 8)."""
    a.require_square("det cross-check")
    K = a.ring
    return make_report(
        "det_oracle", K.sub(a.det(), a.det_leibniz()), ring=K,
        inputs={"matrix": a},
    )


def verify_det_product(a: Matrix, b: Matrix) -> VerificationReport:
    """det(A @ B) = det(A) * det(B)."""
    _square_family("det product", a, b)
    K = a.ring
    return make_report(
        "det_product", K.sub((a @ b).det(), K.mul(a.det(), b.det())), ring=K,
        inputs={"matrix": a, "matrix_b": b},
    )


def verify_det_scalar(a: Matrix, lam) -> VerificationReport:
    """det(lam * A) = lam**n * det(A)."""
    a.require_square("scaled determinant")
    K = a.ring
    lam = K.coerce(lam)
    diff = K.sub(a.scale(lam).det(), K.mul(K.pow(lam, a.rows), a.det()))
    return make_report(
        "det_scalar", diff, ring=K,
        inputs={"matrix": a, "scalar": K.element_to_json(lam)},
    )


def verify_trace_product(a: Matrix, b: Matrix) -> VerificationReport:
    """Tr(A @ B) as the double sum over entries, and Tr(A @ B) = Tr(B @ A)."""
    _same_ring(a, b)
    if a.cols != b.rows or b.cols != a.rows:
        raise ShapeError(
            f"need n x m against m x n, got {a.rows} x {a.cols} "
            f"and {b.rows} x {b.cols}")
    K = a.ring
    acc = K.zero()
    for i in range(1, a.rows + 1):
        for j in range(1, a.cols + 1):
            acc = K.add(acc, K.mul(a.entry(i, j), b.entry(j, i)))
    tr_ab = (a @ b).trace()
    return first_failure("trace_product", (
        ("entry_double_sum", K.sub(tr_ab, acc), K),
        ("cyclic_swap", K.sub(tr_ab, (b @ a).trace()), K),
    ), {"matrix": a, "matrix_b": b})


def verify_laplace(a: Matrix) -> VerificationReport:
    """Cofactor expansion of det(A) along every row."""
    a.require_square("Laplace expansion")
    K = a.ring
    n = a.rows
    d = a.det()

    def rows():
        for p in range(1, n + 1):
            acc = K.zero()
            for q in range(1, n + 1):
                term = K.mul(a.entry(p, q), a.minor(p, q).det())
                if (p + q) & 1:
                    term = K.neg(term)
                acc = K.add(acc, term)
            yield f"row_{p}", K.sub(d, acc), K
        yield None, K.zero(), K

    return first_failure("laplace", rows(), {"matrix": a})


def verify_row_of_product(a: Matrix, b: Matrix) -> VerificationReport:
    """row_j(A @ B) = row_j(A) @ B for every row j."""
    _same_ring(a, b)
    if a.cols != b.rows:
        raise ShapeError("inner dimensions must agree")
    prod = a @ b
    rows = ((f"row_{j}", prod.row(j) - (a.row(j) @ b), None)
            for j in range(1, a.rows + 1))
    zero = Matrix.zeros(a.ring, 1, b.cols)
    return first_failure("row_of_product", chain(rows, [(None, zero, None)]),
                         {"matrix": a, "matrix_b": b})


def verify_adj_inverse(a: Matrix) -> VerificationReport:
    """A @ adj(A) = adj(A) @ A = det(A) * I."""
    a.require_square("adjugate law")
    K = a.ring
    n = a.rows
    adj = a.adjugate()
    target = Matrix.identity(K, n).scale(a.det())
    return first_failure("adj_inverse", (
        ("right", (a @ adj) - target, None),
        ("left", (adj @ a) - target, None),
    ), {"matrix": a})


def verify_eval_zero_hom(a: Matrix) -> VerificationReport:
    """Evaluation at t = 0 carries det, adjugate, and entries of t*I + A back to A.

    Exercises the fact that entrywise ring maps commute with det and adj,
    using the evaluation map of the polynomial ring.  The K side uses the
    subset-DP and cofactor oracles, so the two sides take different routes.
    """
    a.require_square("evaluation check")
    K = a.ring
    # t*I + A is the characteristic matrix of -A
    tia = char_matrix(-a)
    eps = Polynomial.eval_zero
    return first_failure("eval_zero_hom", (
        ("determinant", K.sub(eps(tia.det()), a.det_subset_dp()), K),
        ("adjugate",
         tia.adjugate().map_entries(eps, K) - a.adjugate_cofactor(), None),
        ("entries", tia.map_entries(eps, K) - a, None),
    ), {"matrix": a})


def verify_det_affine_degree(a: Matrix, b: Matrix) -> VerificationReport:
    """det(t*A + B) has degree <= n, constant term det(B), top term det(A)."""
    _square_family("affine pencil", a, b)
    K = a.ring
    L = PolynomialRing(K)
    n = a.rows
    t = L.t()
    pencil = Matrix(L, n, n, [
        t.scale(av) + Polynomial(K, (bv,))
        for av, bv in zip(a._e, b._e)
    ])
    p = pencil.det()
    # listed only when it fails, so a passing check tests no residual for it
    bound = [("degree_bound", p.coeff(p.degree), K)] if p.degree > n else []
    return first_failure("det_affine_degree", bound + [
        ("constant_term", K.sub(p.coeff(0), b.det()), K),
        ("top_term", K.sub(p.coeff(n), a.det()), K),
    ], {"matrix": a, "matrix_b": b})


# ---------------------------------------------------------------------------
# characteristic polynomial identities


def verify_cayley_hamilton(a: Matrix) -> VerificationReport:
    """chi_A(A) = 0."""
    a.require_square("Cayley-Hamilton")
    return make_report("cayley_hamilton", cayley_hamilton_residual(a),
                       inputs={"matrix": a})


def verify_trace_cayley_hamilton(a: Matrix, kmax: int | None = None) -> VerificationReport:
    """k*c_k + sum_i Tr(A**i)*c_(k-i) = 0 for k = 0 .. kmax (default 2n+1)."""
    a.require_square("trace recursion")
    K = a.ring
    n = a.rows
    if kmax is None:
        kmax = 2 * n + 1
    data = charpoly(a)
    tr = power_traces(a, kmax)
    sums = ((f"k_{k}", trace_cayley_hamilton_sum(data, tr, k), K)
            for k in range(kmax + 1))
    return first_failure("trace_cayley_hamilton",
                         chain(sums, [(None, K.zero(), K)]),
                         {"matrix": a, "kmax": kmax})


def verify_newton_agreement(a: Matrix) -> VerificationReport:
    """charpoly and charpoly_newton give the same chi (Q-algebras).

    chi is built from c, and D depends on A alone, so chi is all the two
    records can disagree on.
    """
    a.require_square("trace-recursion agreement")
    K = a.ring
    inputs = {"matrix": a}
    if not K.is_q_algebra:
        return hypothesis_not_met(
            "newton_agreement", f"ring {K} is not a Q-algebra", inputs)
    L = PolynomialRing(K)
    return first_failure("newton_agreement", (
        ("chi", L.sub(charpoly(a).chi, charpoly_newton(a).chi), L),
        (None, K.zero(), K),
    ), inputs)


def verify_adj_via_charpoly(a: Matrix) -> VerificationReport:
    """The production adjugate (charpoly.adjugate_via_charpoly:
    elimination, else the charpoly-coefficient formula) against the
    cofactor oracle."""
    a.require_square("adjugate comparison")
    return make_report(
        "adj_via_charpoly", adjugate_via_charpoly(a) - a.adjugate_cofactor(),
        inputs={"matrix": a},
    )


def _adjugate_trace_oracle(a: Matrix):
    """Tr(adj a) as the sum of the n principal (n-1) x (n-1) minors, each
    by the subset DP: the trace of adjugate_cofactor(), which reads its
    cofactors off two other DP tables, without the ones off the diagonal."""
    R = a.ring
    acc = R.zero()
    for i in range(1, a.rows + 1):
        acc = R.add(acc, a.minor(i, i).det_subset_dp())
    return acc


def verify_charpoly_derivative(a: Matrix) -> VerificationReport:
    """d/dt chi_A = Tr(adj(t*I - A)), as polynomials."""
    a.require_square("characteristic derivative")
    K = a.ring
    L = PolynomialRing(K)
    diff = L.sub(charpoly(a).chi.derivative(),
                 _adjugate_trace_oracle(char_matrix(a)))
    return make_report("charpoly_derivative", diff, ring=L,
                       inputs={"matrix": a})


def verify_adj_trace(a: Matrix) -> VerificationReport:
    """Tr(adj A) = (-1)**(n-1) * c_(n-1) (the coefficient of t**1 in chi_A)."""
    a.require_square("adjugate trace")
    K = a.ring
    n = a.rows
    data = charpoly(a)
    rhs = data.coefficient(n - 1)
    if (n - 1) & 1:
        rhs = K.neg(rhs)
    return make_report(
        "adj_trace", K.sub(_adjugate_trace_oracle(a), rhs), ring=K,
        inputs={"matrix": a},
    )


def verify_trace_of_D(a: Matrix) -> VerificationReport:
    """Tr(D_k) = (k+1) * c_(n-k-1) for every k, including out-of-range zeros."""
    a.require_square("adjugate coefficient traces")
    K = a.ring
    n = a.rows
    data = charpoly(a)

    def traces():
        for k in range(-1, n + 2):
            rhs = K.mul(K.from_int(k + 1), data.coefficient(n - k - 1))
            yield f"k_{k}", K.sub(data.coefficient_matrix(k).trace(), rhs), K
        yield None, K.zero(), K

    return first_failure("trace_of_D", traces(), {"matrix": a})


def verify_coefficient_family(a: Matrix) -> VerificationReport:
    """The two exact laws tying D_k to the coefficients of chi_A.

    Difference law: c_(n-k) * I = D_(k-1) - A @ D_k for k = 0..n, with
    D_j the zero matrix outside 0..n-1.  Summation law:
    sum_(i=0..k) c_(k-i) * A**i = D_(n-1-k) for k = 0..n (at k = n this
    is Cayley-Hamilton again, with a zero right side).
    """
    a.require_square("coefficient family")
    K = a.ring
    n = a.rows
    data = charpoly(a)
    c, D = data.coefficient, data.coefficient_matrix
    ident = Matrix.identity(K, n)

    def laws():
        for k in range(n + 1):
            rhs = D(k - 1) - (a @ D(k))
            yield f"difference_k_{k}", ident.scale(c(n - k)) - rhs, None
        pw = [ident] + powers(a, n)      # A**0 .. A**n
        for k in range(n + 1):
            total = Matrix.zeros(K, n, n)
            for i in range(k + 1):
                total = total + pw[i].scale(c(k - i))
            yield f"summation_k_{k}", total - D(n - 1 - k), None
        yield None, Matrix.zeros(K, n, n), None

    return first_failure("coefficient_family", laws(), {"matrix": a})


def verify_trace_coefficient(a: Matrix) -> VerificationReport:
    """c_1 = -Tr(A), i.e. the coefficient of t**(n-1) in chi_A."""
    a.require_square("trace coefficient")
    K = a.ring
    data = charpoly(a)
    diff = K.add(data.coefficient(1), a.trace())
    return make_report("trace_coefficient", diff, ring=K,
                       inputs={"matrix": a})


# ---------------------------------------------------------------------------
# adjugate identities


def verify_adj_product(a: Matrix, b: Matrix) -> VerificationReport:
    """adj(A @ B) = adj(B) @ adj(A) (order reverses)."""
    _square_family("adjugate of product", a, b)
    diff = (a @ b).adjugate() - (b.adjugate() @ a.adjugate())
    return make_report("adj_product", diff,
                       inputs={"matrix": a, "matrix_b": b})


def verify_adj_of_adj(a: Matrix) -> VerificationReport:
    """det(adj A) = det(A)**(n-1) and adj(adj A) = det(A)**(n-2) * A.

    The determinant half applies for n >= 1, the adjugate half for n >= 2;
    a 0 x 0 input passes vacuously.
    """
    a.require_square("iterated adjugate")
    K = a.ring
    n = a.rows
    clauses = []
    if n >= 1:
        adj, d = a.adjugate(), a.det()
        clauses.append(("det_of_adj", K.sub(adj.det(), K.pow(d, n - 1)), K))
    if n >= 2:
        clauses.append(
            ("adj_of_adj", adj.adjugate() - a.scale(K.pow(d, n - 2)), None))
    else:
        clauses.append((None, K.zero(), K))
    return first_failure("adj_of_adj", clauses, {"matrix": a})


def verify_adj_scalar(a: Matrix, lam) -> VerificationReport:
    """adj(lam * A) = lam**(n-1) * adj(A), n >= 1."""
    a.require_square("scaled adjugate")
    if a.rows == 0:
        raise ShapeError("scaled-adjugate law requires n >= 1")
    K = a.ring
    lam = K.coerce(lam)
    diff = a.scale(lam).adjugate() - a.adjugate().scale(K.pow(lam, a.rows - 1))
    return make_report(
        "adj_scalar", diff,
        inputs={"matrix": a, "scalar": K.element_to_json(lam)},
    )


def verify_jacobi(a: Matrix, p: IndexSubset, q: IndexSubset, *,
                  _adj_det=None) -> VerificationReport:
    """Jacobi's complementary-minor law for the adjugate.

    For |P| = |Q| = k >= 1:
        det(adj(A)[P, Q])
          = (-1)**(weight(P) + weight(Q)) * det(A)**(k-1)
            * det(A[complement(Q), complement(P)])
    Note the complements swap sides.  _adj_det is (adj(A), det(A)) when
    the caller already holds them: the suite's matrix driver computes
    them once for all the pairs it checks around one A.
    """
    a.require_square("complementary minors")
    n = a.rows
    if p.n != n or q.n != n:
        raise ShapeError(f"subsets are over 1..{p.n} and 1..{q.n}, matrix has n = {n}")
    k = len(p)
    if k != len(q):
        raise PreconditionError(f"|P| = {k} and |Q| = {len(q)} must be equal")
    if k == 0:
        raise PreconditionError("empty subsets are excluded (k >= 1)")
    K = a.ring
    adj, det = _adj_det or (a.adjugate(), a.det())
    lhs = adj.submatrix(p.members, q.members).det()
    rhs = K.mul(
        K.pow(det, k - 1),
        a.submatrix(q.complement().members, p.complement().members).det(),
    )
    if (p.weight() + q.weight()) & 1:
        rhs = K.neg(rhs)
    return make_report(
        "jacobi", K.sub(lhs, rhs), ring=K,
        inputs={"matrix": a, "P": list(p.members), "Q": list(q.members)},
    )


# ---------------------------------------------------------------------------
# block and perturbation identities


def verify_commute_swap(a: Matrix, b: Matrix, s: Matrix) -> VerificationReport:
    """If A and B commute then det(A @ S + B) = det(S @ A + B) for any S."""
    _square_family("commuting swap", a, b, s)
    if not ((a @ b) - (b @ a)).is_zero():
        raise PreconditionError("A and B do not commute; the law is not claimed")
    K = a.ring
    diff = K.sub(((a @ s) + b).det(), ((s @ a) + b).det())
    return make_report(
        "commute_swap", diff, ring=K,
        inputs={"matrix": a, "matrix_b": b, "matrix_s": s},
    )


def verify_block_commute(a: Matrix, b: Matrix, c: Matrix,
                         d: Matrix) -> VerificationReport:
    """If A and C commute then det([[A, B], [C, D]]) = det(A @ D - C @ B)."""
    _square_family("commuting block determinant", a, b, c, d)
    if not ((a @ c) - (c @ a)).is_zero():
        raise PreconditionError("A and C do not commute; the law is not claimed")
    K = a.ring
    diff = K.sub(block2x2(a, b, c, d).det(), ((a @ d) - (c @ b)).det())
    return make_report(
        "block_commute", diff, ring=K,
        inputs={"matrix": a, "matrix_b": b, "matrix_c": c, "matrix_d": d},
    )


def _is_indicator(m: Matrix, i: int, j: int) -> bool:
    """True when m is zero except for a 1 in position (i, j)."""
    K = m.ring
    for r in range(1, m.rows + 1):
        for c in range(1, m.cols + 1):
            want = K.one() if (r, c) == (i, j) else K.zero()
            if not K.is_zero(K.sub(m.entry(r, c), want)):
                return False
    return True


def verify_rank1_block(a: Matrix, d: Matrix, p: Matrix, q: Matrix,
                       v: Matrix, u: Matrix) -> VerificationReport:
    """det([[A, p@v], [q@u, D]]) = det(A)*det(D) - ent(u@adj(A)@p) * ent(v@adj(D)@q).

    A is n x n, D is m x m, p is n x 1, q is m x 1, v is 1 x m, u is 1 x n.
    When the inputs match the bordered pattern (m = 1, q = v = (1)) the
    bordered-determinant corollary is checked as well, and when p, v, q, u
    are the corner indicator vectors the complementary-minor corollary
    det(A)*det(D) - det(A minor n,n)*det(D minor 1,1) is checked too.
    """
    a.require_square("rank-one block")
    d.require_square("rank-one block")
    _same_ring(a, d, p, q, v, u)
    n, m = a.rows, d.rows
    if (p.rows, p.cols) != (n, 1) or (q.rows, q.cols) != (m, 1):
        raise ShapeError("p must be n x 1 and q must be m x 1")
    if (v.rows, v.cols) != (1, m) or (u.rows, u.cols) != (1, n):
        raise ShapeError("v must be 1 x m and u must be 1 x n")
    K = a.ring
    lhs = block2x2(a, p @ v, q @ u, d).det()
    det_a = a.det()
    det_ad = K.mul(det_a, d.det())
    uap = ent(u @ a.adjugate() @ p)
    rhs = K.sub(det_ad, K.mul(uap, ent(v @ d.adjugate() @ q)))
    clauses = [("general", K.sub(lhs, rhs), K)]
    if m == 1 and _is_indicator(q, 1, 1) and _is_indicator(v, 1, 1):
        bordered = K.sub(K.mul(ent(d), det_a), uap)
        clauses.append(("bordered", K.sub(lhs, bordered), K))
    if (n >= 1 and m >= 1
            and _is_indicator(p, n, 1) and _is_indicator(v, 1, 1)
            and _is_indicator(q, 1, 1) and _is_indicator(u, 1, n)):
        corner = K.sub(det_ad, K.mul(a.minor(n, n).det(),
                                     d.minor(1, 1).det()))
        clauses.append(("corner_indicators", K.sub(lhs, corner), K))
    else:
        clauses.append((None, K.zero(), K))
    return first_failure("rank1_block", clauses, {
        "matrix": a, "matrix_d": d, "p": p, "q": q, "v": v, "u": u})


def verify_matrix_det_lemma(a: Matrix, u: Matrix, v: Matrix) -> VerificationReport:
    """det(A + u@v) = det(A) + ent(v@adj(A)@u) for a column u and row v."""
    a.require_square("rank-one update")
    _same_ring(a, u, v)
    n = a.rows
    if (u.rows, u.cols) != (n, 1) or (v.rows, v.cols) != (1, n):
        raise ShapeError("u must be n x 1 and v must be 1 x n")
    K = a.ring
    diff = K.sub((a + u @ v).det(),
                 K.add(a.det(), ent(v @ a.adjugate() @ u)))
    return make_report(
        "matrix_det_lemma", diff, ring=K,
        inputs={"matrix": a, "u": u, "v": v},
    )


# ---------------------------------------------------------------------------
# nilpotency and trace-power identities


def verify_nilpotency_criterion(a: Matrix) -> VerificationReport:
    """Vanishing power traces force nilpotency.

    Hypothesis: Tr(A**i) = 0 for i = 1..n.  Consequences checked:
    n! * A**n = 0 and n! * chi_A = n! * t**n always; over a Q-algebra also
    A**n = 0 and chi_A = t**n on the nose.
    """
    a.require_square("nilpotency criterion")
    K = a.ring
    n = a.rows
    inputs = {"matrix": a}
    an = a          # A**i after step i; at n = 0 the 0 x 0 A is A**0
    for i in range(1, n + 1):
        if i > 1:
            an = an @ a
        tr = an.trace()
        if not K.is_zero(tr):
            return hypothesis_not_met(
                "nilpotency", f"Tr(A**{i}) = {K.format(tr)} is nonzero",
                inputs)
    nfact = K.from_int(factorial(n))
    L = PolynomialRing(K)
    chi = charpoly(a).chi
    tn = Polynomial(K, tuple([K.zero()] * n + [K.one()]))
    clauses = [("factorial_power", an.scale(nfact), None),
               ("factorial_charpoly",
                L.sub(chi.scale(nfact), tn.scale(nfact)), L)]
    if K.is_q_algebra:
        clauses += [("power", an, None), ("charpoly", L.sub(chi, tn), L)]
    clauses.append((None, K.zero(), K))
    return first_failure("nilpotency", clauses, inputs)


def verify_nilpotency_converse(a: Matrix, imax: int) -> VerificationReport:
    """If chi_A = t**n then Tr(A**i) = 0 for every positive i (checked to imax)."""
    a.require_square("nilpotency converse")
    check_imax(imax)
    K = a.ring
    n = a.rows
    inputs = {"matrix": a, "imax": imax}
    chi = charpoly(a).chi
    tn = Polynomial(K, tuple([K.zero()] * n + [K.one()]))
    L = PolynomialRing(K)
    if not L.is_zero(L.sub(chi, tn)):
        return hypothesis_not_met(
            "nilpotency_converse", "chi_A is not t**n", inputs)
    tr = power_traces(a, imax)
    traces = ((f"trace_power_{i}", tr[i], K) for i in range(1, imax + 1))
    return first_failure("nilpotency_converse",
                         chain(traces, [(None, K.zero(), K)]), inputs)


def verify_almkvist(a: Matrix, k: int) -> VerificationReport:
    """Trace powers of a nilpotent matrix.

    Hypothesis: A**(k+1) = 0.  Then Tr(A)**(n*k+1) = 0 and
    Tr(A)**(n*k) = ((n*k)! / (k!)**n) * det(A)**k, both exactly.
    """
    a.require_square("nilpotent trace powers")
    check_k(k)
    K = a.ring
    n = a.rows
    inputs = {"matrix": a, "k": k}
    if not (a ** (k + 1)).is_zero():
        return hypothesis_not_met(
            "almkvist", f"A**{k + 1} is not the zero matrix", inputs)
    t = a.trace()
    ratio = factorial(n * k) // factorial(k) ** n
    rhs = K.mul(K.from_int(ratio), K.pow(a.det(), k))
    return first_failure("almkvist", (
        ("vanishing_power", K.pow(t, n * k + 1), K),
        ("closed_form", K.sub(K.pow(t, n * k), rhs), K),
    ), inputs)


def verify_trace_multinomial(a: Matrix, m: int) -> VerificationReport:
    """Tr(A)**m as a multinomial-weighted sum of row-mixed determinants.

    Sum over all compositions (i_1, .., i_n) of m: the multinomial
    coefficient times det of the matrix whose row j is row j of A**(i_j).
    The number of terms is C(m+n-1, n-1), guarded at 10**5.
    """
    a.require_square("trace multinomial")
    if m < 0:
        raise ValueError("m must be nonnegative")
    K = a.ring
    n = a.rows
    if n > 0 and comb(m + n - 1, n - 1) > TERM_GUARD:
        raise GuardError(
            f"{comb(m + n - 1, n - 1)} terms exceed the guard of {TERM_GUARD}")
    inputs = {"matrix": a, "m": m}
    pw = [Matrix.identity(K, n)] + powers(a, m)     # A**0 .. A**m
    acc = K.zero()
    for parts in compositions(m, n):
        term = row_mixed(K, [pw[p] for p in parts]).det()
        acc = K.add(acc, K.mul(K.from_int(multinomial(m, parts)), term))
    diff = K.sub(K.pow(a.trace(), m), acc)
    return make_report("trace_multinomial", diff, ring=K, inputs=inputs)


def verify_row_replacement(a: Matrix, b: Matrix) -> VerificationReport:
    """Sum over j of det(B with row j replaced by row j of B@A) = Tr(A)*det(B)."""
    _square_family("row replacement", a, b)
    K = a.ring
    acc = row_replacement_sum(K, b, b @ a)
    diff = K.sub(acc, K.mul(a.trace(), b.det()))
    return make_report(
        "row_replacement", diff, ring=K,
        inputs={"matrix": a, "matrix_b": b},
    )


def _is_prime(p: int) -> bool:
    """Exact primality of p < PRIME_BOUND by deterministic Miller-Rabin.

    Larger p is refused with GuardError: no base set used here proves it
    prime.
    """
    if p >= PRIME_BOUND:
        raise GuardError(f"primality of {p} is not decided at or above "
                         f"{PRIME_BOUND}")
    if p < 2:
        return False
    for b in _PRIME_BASES:
        if p % b == 0:
            return p == b
    d, s = p - 1, 0
    while not d & 1:
        d, s = d >> 1, s + 1
    for b in _PRIME_BASES:
        x = pow(b, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def frobenius_cost_guard(K, p: int) -> None:
    """Refuse the Frobenius check over a polynomial ring when p**depth
    exceeds FROBENIUS_POLY_CAP."""
    depth = ring_depth(K)
    if depth and p ** depth > FROBENIUS_POLY_CAP:
        raise GuardError(
            f"Frobenius trace with p = {p} over polynomial rings nested "
            f"{depth} deep is refused: p**{depth} exceeds {FROBENIUS_POLY_CAP}")


def verify_frobenius_trace(a: Matrix, p: int) -> VerificationReport:
    """Tr(A**p) = Tr(A)**p when the prime p vanishes in the ring."""
    a.require_square("Frobenius trace")
    if not _is_prime(p):
        raise PreconditionError(f"{p} is not prime")
    K = a.ring
    inputs = {"matrix": a, "p": p}
    if not K.is_zero(K.from_int(p)):
        return hypothesis_not_met(
            "frobenius_trace", f"{p} is nonzero in {K}", inputs)
    frobenius_cost_guard(K, p)
    diff = K.sub((a ** p).trace(), K.pow(a.trace(), p))
    return make_report("frobenius_trace", diff, ring=K, inputs=inputs)
