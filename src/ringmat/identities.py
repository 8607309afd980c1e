"""Mechanical checks for determinant and trace identities.

Every verify_* function instantiates one identity on concrete inputs,
computes both sides with exact ring arithmetic, and returns a
VerificationReport that holds when the two sides are equal; a failing
report carries their difference as its residual.  Nothing is proved
here; the point is that each equality is checked literally, over any
commutative ring, including rings with zero divisors.

Checks with a hypothesis (nilpotency, vanishing traces, prime
characteristic) first test the hypothesis on the given inputs and report
"hypothesis not met" without judging the identity; checks whose
precondition is the caller's responsibility (commuting factors) raise
PreconditionError instead, so a bad call is never confused with a
counterexample.

Each verify_* is one body under the verifier decorator, and the body
only yields its clauses as (part, lhs, rhs, ring) 4-tuples, the two
sides of one equality with ring None for matrices: one
(None, lhs, rhs, ring) for a single equality, several for a family over
k, both sides of a product or every row.  A clause that states X = 0
(a trace Cayley-Hamilton sum, chi_A(A), A**n, Tr(A**i)) takes the
ring's zero or a zero matrix as rhs.  The decorator owns the rest
of the frame: the shape check, which runs before any other; the
report's inputs, the arguments by reference under fixed keys in a
fixed order; the hypothesis gate, turning a HypothesisNotMet the body
raises into a hypothesis-not-met report; and the report itself,
report.first_failure of the clauses, which judges each by lhs == rhs,
names the first failing one in inputs["failed_part"] and forms the
residual lhs - rhs for that clause alone, so a passing check forms
none.  A (None, zero, zero, ring) sentinel last clause lets a check
pass without naming a part.

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

from functools import wraps
from itertools import combinations
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
from .report import first_failure, hypothesis_not_met
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
# the verifier frame


class HypothesisNotMet(Exception):
    """Raised by a verifier body whose inputs fail the identity's
    hypothesis; the verifier then reports hypothesis-not-met, with the
    message as inputs["reason"], instead of judging the identity."""


def verifier(what=None, keys="matrix:a", *, family=False, identity=None):
    """Make a verify_* function of a body that yields its clauses, each
    a (part, lhs, rhs, ring) 4-tuple judged by lhs == rhs
    (report.first_failure); a passing check forms no residual.

    keys lists the report's input keys in order.  key:param records the
    body parameter param under key, by reference; a bare key records the
    parameter of that name or, if there is none, holds a place that the
    body fills in (a body whose first parameter is named inputs is
    passed the record).  An omitted argument is recorded as None, for
    the body to replace with the value it resolves.  what, if given,
    names the shape check run before the body: inputs["matrix"] must be
    square or, with family, every recorded matrix must be, over one ring
    and of one size.  The report takes the function's name less verify_,
    unless identity is given.  The body raises HypothesisNotMet when its
    inputs fail the identity's hypothesis.  Parameters and key order are
    resolved here, once, so a call only binds its arguments.
    """
    def wrap(body):
        code = body.__code__
        params = code.co_varnames[:code.co_argcount]
        takes_record = params[:1] == ("inputs",)
        params = params[takes_record:]
        slots = []
        for item in keys.split():
            key, _, param = item.partition(":")
            param = param or key
            index = params.index(param) if param in params else len(params)
            slots.append((key, index, param))
        name = identity or body.__name__[len("verify_"):]

        @wraps(body)
        def check(*args, **kwargs):
            inputs = {}
            # the call binds (and checks) the arguments; the body runs
            # only when first_failure draws its first clause
            clauses = (body(inputs, *args, **kwargs) if takes_record
                       else body(*args, **kwargs))
            given = len(args)
            for key, index, param in slots:
                inputs[key] = args[index] if index < given else kwargs.get(param)
            if family:
                _square_family(what, *inputs.values())
            elif what is not None:
                inputs["matrix"].require_square(what)
            try:
                return first_failure(name, clauses, inputs)
            except HypothesisNotMet as unmet:
                return hypothesis_not_met(name, str(unmet), inputs)

        return check
    return wrap


_PAIR = "matrix:a matrix_b:b"


# ---------------------------------------------------------------------------
# determinant and trace basics


@verifier("det cross-check")
def verify_det_oracle(a: Matrix):
    """Production determinant against the naive permutation sum (n <= 8)."""
    K = a.ring
    yield None, a.det(), a.det_leibniz(), K


@verifier("det product", _PAIR, family=True)
def verify_det_product(a: Matrix, b: Matrix):
    """det(A @ B) = det(A) * det(B)."""
    K = a.ring
    yield None, (a @ b).det(), K.mul(a.det(), b.det()), K


@verifier("scaled determinant", "matrix:a scalar")
def verify_det_scalar(inputs, a: Matrix, lam):
    """det(lam * A) = lam**n * det(A)."""
    K = a.ring
    lam = K.coerce(lam)
    inputs["scalar"] = K.element_to_json(lam)
    yield None, a.scale(lam).det(), K.mul(K.pow(lam, a.rows), a.det()), K


@verifier(keys=_PAIR)
def verify_trace_product(a: Matrix, b: Matrix):
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
    yield "entry_double_sum", tr_ab, acc, K
    yield "cyclic_swap", tr_ab, (b @ a).trace(), K


@verifier("Laplace expansion")
def verify_laplace(a: Matrix):
    """Cofactor expansion of det(A) along every row."""
    K = a.ring
    n = a.rows
    d = a.det()
    for p in range(1, n + 1):
        acc = K.zero()
        for q in range(1, n + 1):
            term = K.mul(a.entry(p, q), a.minor(p, q).det())
            if (p + q) & 1:
                term = K.neg(term)
            acc = K.add(acc, term)
        yield f"row_{p}", d, acc, K
    zero = K.zero()
    yield None, zero, zero, K


@verifier(keys=_PAIR)
def verify_row_of_product(a: Matrix, b: Matrix):
    """row_j(A @ B) = row_j(A) @ B for every row j."""
    _same_ring(a, b)
    if a.cols != b.rows:
        raise ShapeError("inner dimensions must agree")
    prod = a @ b
    for j in range(1, a.rows + 1):
        yield f"row_{j}", prod.row(j), a.row(j) @ b, None
    zero = Matrix.zeros(a.ring, 1, b.cols)
    yield None, zero, zero, None


@verifier("adjugate law")
def verify_adj_inverse(a: Matrix):
    """A @ adj(A) = adj(A) @ A = det(A) * I."""
    adj = a.adjugate()
    target = Matrix.identity(a.ring, a.rows).scale(a.det())
    yield "right", a @ adj, target, None
    yield "left", adj @ a, target, None


@verifier("evaluation check")
def verify_eval_zero_hom(a: Matrix):
    """Evaluation at t = 0 carries det, adjugate, and entries of t*I + A back to A.

    Exercises the fact that entrywise ring maps commute with det and adj,
    using the evaluation map of the polynomial ring.  The K side uses the
    subset-DP and cofactor oracles, so the two sides take different routes.
    """
    K = a.ring
    # t*I + A is the characteristic matrix of -A
    tia = char_matrix(-a)
    eps = Polynomial.eval_zero
    yield "determinant", eps(tia.det()), a.det_subset_dp(), K
    yield ("adjugate", tia.adjugate().map_entries(eps, K),
           a.adjugate_cofactor(), None)
    yield "entries", tia.map_entries(eps, K), a, None


@verifier("affine pencil", _PAIR, family=True)
def verify_det_affine_degree(a: Matrix, b: Matrix):
    """det(t*A + B) has degree <= n, constant term det(B), top term det(A)."""
    K = a.ring
    L = PolynomialRing(K)
    n = a.rows
    t = L.t()
    pencil = Matrix(L, n, n, [
        t.scale(av) + Polynomial(K, (bv,))
        for av, bv in zip(a._e, b._e)
    ])
    p = pencil.det()
    # yielded only when it fails, so a passing check compares nothing for it
    if p.degree > n:
        yield "degree_bound", p.coeff(p.degree), K.zero(), K
    yield "constant_term", p.coeff(0), b.det(), K
    yield "top_term", p.coeff(n), a.det(), K


# ---------------------------------------------------------------------------
# characteristic polynomial identities


@verifier("Cayley-Hamilton")
def verify_cayley_hamilton(a: Matrix):
    """chi_A(A) = 0."""
    yield (None, cayley_hamilton_residual(a),
           Matrix.zeros(a.ring, a.rows, a.rows), None)


@verifier("trace recursion", "matrix:a kmax")
def verify_trace_cayley_hamilton(inputs, a: Matrix, kmax: int | None = None):
    """k*c_k + sum_i Tr(A**i)*c_(k-i) = 0 for k = 0 .. kmax (default 2n+1)."""
    K = a.ring
    if kmax is None:
        kmax = inputs["kmax"] = 2 * a.rows + 1
    elif kmax < 0:
        raise ValueError("k must be nonnegative")
    data = charpoly(a)
    tr = power_traces(a, kmax)
    zero = K.zero()
    for k in range(kmax + 1):
        yield f"k_{k}", trace_cayley_hamilton_sum(data, tr, k), zero, K
    yield None, zero, zero, K


@verifier("trace-recursion agreement")
def verify_newton_agreement(a: Matrix):
    """charpoly and charpoly_newton give the same chi (Q-algebras).

    chi is built from c, and D depends on A alone, so chi is all the two
    records can disagree on.
    """
    K = a.ring
    if not K.is_q_algebra:
        raise HypothesisNotMet(f"ring {K} is not a Q-algebra")
    L = PolynomialRing(K)
    yield "chi", charpoly(a).chi, charpoly_newton(a).chi, L
    zero = K.zero()
    yield None, zero, zero, K


@verifier("adjugate comparison")
def verify_adj_via_charpoly(a: Matrix):
    """The production adjugate (charpoly.adjugate_via_charpoly:
    elimination, else the charpoly-coefficient formula) against the
    cofactor oracle."""
    yield None, adjugate_via_charpoly(a), a.adjugate_cofactor(), None


def _adjugate_trace_oracle(a: Matrix):
    """Tr(adj a) as the sum of the n principal (n-1) x (n-1) minors, each
    by the subset DP: the trace of adjugate_cofactor(), which reads its
    cofactors off two other DP tables, without the ones off the diagonal."""
    R = a.ring
    acc = R.zero()
    for i in range(1, a.rows + 1):
        acc = R.add(acc, a.minor(i, i).det_subset_dp())
    return acc


@verifier("characteristic derivative")
def verify_charpoly_derivative(a: Matrix):
    """d/dt chi_A = Tr(adj(t*I - A)), as polynomials."""
    L = PolynomialRing(a.ring)
    yield (None, charpoly(a).chi.derivative(),
           _adjugate_trace_oracle(char_matrix(a)), L)


@verifier("adjugate trace")
def verify_adj_trace(a: Matrix):
    """Tr(adj A) = (-1)**(n-1) * c_(n-1) (the coefficient of t**1 in chi_A)."""
    K = a.ring
    n = a.rows
    rhs = charpoly(a).coefficient(n - 1)
    if (n - 1) & 1:
        rhs = K.neg(rhs)
    yield None, _adjugate_trace_oracle(a), rhs, K


@verifier("adjugate coefficient traces")
def verify_trace_of_D(a: Matrix):
    """Tr(D_k) = (k+1) * c_(n-k-1) for every k, including out-of-range zeros."""
    K = a.ring
    n = a.rows
    data = charpoly(a)
    for k in range(-1, n + 2):
        rhs = K.mul(K.from_int(k + 1), data.coefficient(n - k - 1))
        yield f"k_{k}", data.coefficient_matrix(k).trace(), rhs, K
    zero = K.zero()
    yield None, zero, zero, K


@verifier("coefficient family")
def verify_coefficient_family(a: Matrix):
    """The two exact laws tying D_k to the coefficients of chi_A.

    Difference law: c_(n-k) * I = D_(k-1) - A @ D_k for k = 0..n, with
    D_j the zero matrix outside 0..n-1.  Summation law:
    sum_(i=0..k) c_(k-i) * A**i = D_(n-1-k) for k = 0..n (at k = n this
    is Cayley-Hamilton again, with a zero right side).
    """
    K = a.ring
    n = a.rows
    data = charpoly(a)
    c, D = data.coefficient, data.coefficient_matrix
    ident = Matrix.identity(K, n)
    for k in range(n + 1):
        rhs = D(k - 1) - (a @ D(k))
        yield f"difference_k_{k}", ident.scale(c(n - k)), rhs, None
    pw = [ident] + powers(a, n)      # A**0 .. A**n
    for k in range(n + 1):
        total = Matrix.zeros(K, n, n)
        for i in range(k + 1):
            total = total + pw[i].scale(c(k - i))
        yield f"summation_k_{k}", total, D(n - 1 - k), None
    zero = Matrix.zeros(K, n, n)
    yield None, zero, zero, None


@verifier("trace coefficient")
def verify_trace_coefficient(a: Matrix):
    """c_1 = -Tr(A), i.e. the coefficient of t**(n-1) in chi_A."""
    K = a.ring
    yield None, charpoly(a).coefficient(1), K.neg(a.trace()), K


# ---------------------------------------------------------------------------
# adjugate identities


@verifier("adjugate of product", _PAIR, family=True)
def verify_adj_product(a: Matrix, b: Matrix):
    """adj(A @ B) = adj(B) @ adj(A) (order reverses)."""
    yield None, (a @ b).adjugate(), b.adjugate() @ a.adjugate(), None


@verifier("iterated adjugate")
def verify_adj_of_adj(a: Matrix):
    """det(adj A) = det(A)**(n-1) and adj(adj A) = det(A)**(n-2) * A.

    The determinant half applies for n >= 1, the adjugate half for n >= 2;
    a 0 x 0 input passes vacuously.
    """
    K = a.ring
    n = a.rows
    if n >= 1:
        adj, d = a.adjugate(), a.det()
        yield "det_of_adj", adj.det(), K.pow(d, n - 1), K
    if n >= 2:
        yield "adj_of_adj", adj.adjugate(), a.scale(K.pow(d, n - 2)), None
    else:
        zero = K.zero()
        yield None, zero, zero, K


@verifier("scaled adjugate", "matrix:a scalar")
def verify_adj_scalar(inputs, a: Matrix, lam):
    """adj(lam * A) = lam**(n-1) * adj(A), n >= 1."""
    if a.rows == 0:
        raise ShapeError("scaled-adjugate law requires n >= 1")
    K = a.ring
    lam = K.coerce(lam)
    inputs["scalar"] = K.element_to_json(lam)
    yield (None, a.scale(lam).adjugate(),
           a.adjugate().scale(K.pow(lam, a.rows - 1)), None)


@verifier("complementary minors", "matrix:a P Q")
def verify_jacobi(inputs, a: Matrix, p: IndexSubset, q: IndexSubset, *,
                  _adj_det=None):
    """Jacobi's complementary-minor law for the adjugate.

    For |P| = |Q| = k >= 1:
        det(adj(A)[P, Q])
          = (-1)**(weight(P) + weight(Q)) * det(A)**(k-1)
            * det(A[complement(Q), complement(P)])
    Note the complements swap sides.  _adj_det is (adj(A), det(A)) when
    the caller already holds them: the suite's matrix driver computes
    them once for all the pairs it checks around one A.
    """
    n = a.rows
    if p.n != n or q.n != n:
        raise ShapeError(f"subsets are over 1..{p.n} and 1..{q.n}, matrix has n = {n}")
    k = len(p)
    if k != len(q):
        raise PreconditionError(f"|P| = {k} and |Q| = {len(q)} must be equal")
    if k == 0:
        raise PreconditionError("empty subsets are excluded (k >= 1)")
    inputs["P"], inputs["Q"] = list(p.members), list(q.members)
    K = a.ring
    adj, det = _adj_det or (a.adjugate(), a.det())
    lhs = adj.submatrix(p.members, q.members).det()
    rhs = K.mul(
        K.pow(det, k - 1),
        a.submatrix(q.complement().members, p.complement().members).det(),
    )
    if (p.weight() + q.weight()) & 1:
        rhs = K.neg(rhs)
    yield None, lhs, rhs, K


# ---------------------------------------------------------------------------
# block and perturbation identities


@verifier("commuting swap", "matrix:a matrix_b:b matrix_s:s", family=True)
def verify_commute_swap(a: Matrix, b: Matrix, s: Matrix):
    """If A and B commute then det(A @ S + B) = det(S @ A + B) for any S."""
    if not ((a @ b) - (b @ a)).is_zero():
        raise PreconditionError("A and B do not commute; the law is not claimed")
    K = a.ring
    yield None, ((a @ s) + b).det(), ((s @ a) + b).det(), K


@verifier("commuting block determinant",
          "matrix:a matrix_b:b matrix_c:c matrix_d:d", family=True)
def verify_block_commute(a: Matrix, b: Matrix, c: Matrix, d: Matrix):
    """If A and C commute then det([[A, B], [C, D]]) = det(A @ D - C @ B)."""
    if not ((a @ c) - (c @ a)).is_zero():
        raise PreconditionError("A and C do not commute; the law is not claimed")
    K = a.ring
    yield None, block2x2(a, b, c, d).det(), ((a @ d) - (c @ b)).det(), K


def _is_indicator(m: Matrix, i: int, j: int) -> bool:
    """True when m is zero except for a 1 in position (i, j)."""
    K = m.ring
    for r in range(1, m.rows + 1):
        for c in range(1, m.cols + 1):
            want = K.one() if (r, c) == (i, j) else K.zero()
            if not K.is_zero(K.sub(m.entry(r, c), want)):
                return False
    return True


@verifier("rank-one block", "matrix:a matrix_d:d p q v u")
def verify_rank1_block(a: Matrix, d: Matrix, p: Matrix, q: Matrix,
                       v: Matrix, u: Matrix):
    """det([[A, p@v], [q@u, D]]) = det(A)*det(D) - ent(u@adj(A)@p) * ent(v@adj(D)@q).

    A is n x n, D is m x m, p is n x 1, q is m x 1, v is 1 x m, u is 1 x n.
    When the inputs match the bordered pattern (m = 1, q = v = (1)) the
    bordered-determinant corollary is checked as well, and when p, v, q, u
    are the corner indicator vectors the complementary-minor corollary
    det(A)*det(D) - det(A minor n,n)*det(D minor 1,1) is checked too.
    """
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
    yield "general", lhs, rhs, K
    if m == 1 and _is_indicator(q, 1, 1) and _is_indicator(v, 1, 1):
        yield "bordered", lhs, K.sub(K.mul(ent(d), det_a), uap), K
    if (n >= 1 and m >= 1
            and _is_indicator(p, n, 1) and _is_indicator(v, 1, 1)
            and _is_indicator(q, 1, 1) and _is_indicator(u, 1, n)):
        corner = K.sub(det_ad, K.mul(a.minor(n, n).det(),
                                     d.minor(1, 1).det()))
        yield "corner_indicators", lhs, corner, K
    else:
        zero = K.zero()
        yield None, zero, zero, K


@verifier("rank-one update", "matrix:a u v")
def verify_matrix_det_lemma(a: Matrix, u: Matrix, v: Matrix):
    """det(A + u@v) = det(A) + ent(v@adj(A)@u) for a column u and row v."""
    _same_ring(a, u, v)
    n = a.rows
    if (u.rows, u.cols) != (n, 1) or (v.rows, v.cols) != (1, n):
        raise ShapeError("u must be n x 1 and v must be 1 x n")
    K = a.ring
    yield (None, (a + u @ v).det(),
           K.add(a.det(), ent(v @ a.adjugate() @ u)), K)


# ---------------------------------------------------------------------------
# nilpotency and trace-power identities


@verifier("nilpotency criterion", identity="nilpotency")
def verify_nilpotency_criterion(a: Matrix):
    """Vanishing power traces force nilpotency.

    Hypothesis: Tr(A**i) = 0 for i = 1..n.  Consequences checked:
    n! * A**n = 0 and n! * chi_A = n! * t**n always; over a Q-algebra also
    A**n = 0 and chi_A = t**n on the nose.
    """
    K = a.ring
    n = a.rows
    an = a          # A**i after step i; at n = 0 the 0 x 0 A is A**0
    for i in range(1, n + 1):
        if i > 1:
            an = an @ a
        tr = an.trace()
        if not K.is_zero(tr):
            raise HypothesisNotMet(f"Tr(A**{i}) = {K.format(tr)} is nonzero")
    nfact = K.from_int(factorial(n))
    L = PolynomialRing(K)
    chi = charpoly(a).chi
    tn = Polynomial(K, tuple([K.zero()] * n + [K.one()]))
    zeros = Matrix.zeros(K, n, n)
    yield "factorial_power", an.scale(nfact), zeros, None
    yield "factorial_charpoly", chi.scale(nfact), tn.scale(nfact), L
    if K.is_q_algebra:
        yield "power", an, zeros, None
        yield "charpoly", chi, tn, L
    zero = K.zero()
    yield None, zero, zero, K


@verifier("nilpotency converse", "matrix:a imax")
def verify_nilpotency_converse(a: Matrix, imax: int):
    """If chi_A = t**n then Tr(A**i) = 0 for every positive i (checked to imax)."""
    check_imax(imax)
    K = a.ring
    chi = charpoly(a).chi
    tn = Polynomial(K, tuple([K.zero()] * a.rows + [K.one()]))
    L = PolynomialRing(K)
    if not L.is_zero(L.sub(chi, tn)):
        raise HypothesisNotMet("chi_A is not t**n")
    tr = power_traces(a, imax)
    zero = K.zero()
    for i in range(1, imax + 1):
        yield f"trace_power_{i}", tr[i], zero, K
    yield None, zero, zero, K


@verifier("nilpotent trace powers", "matrix:a k")
def verify_almkvist(a: Matrix, k: int):
    """Trace powers of a nilpotent matrix.

    Hypothesis: A**(k+1) = 0.  Then Tr(A)**(n*k+1) = 0 and
    Tr(A)**(n*k) = ((n*k)! / (k!)**n) * det(A)**k, both exactly.
    """
    check_k(k)
    K = a.ring
    n = a.rows
    if not (a ** (k + 1)).is_zero():
        raise HypothesisNotMet(f"A**{k + 1} is not the zero matrix")
    t = a.trace()
    ratio = factorial(n * k) // factorial(k) ** n
    rhs = K.mul(K.from_int(ratio), K.pow(a.det(), k))
    yield "vanishing_power", K.pow(t, n * k + 1), K.zero(), K
    yield "closed_form", K.pow(t, n * k), rhs, K


@verifier("trace multinomial", "matrix:a m")
def verify_trace_multinomial(a: Matrix, m: int):
    """Tr(A)**m as a multinomial-weighted sum of row-mixed determinants.

    Sum over all compositions (i_1, .., i_n) of m: the multinomial
    coefficient times det of the matrix whose row j is row j of A**(i_j).
    The number of terms is C(m+n-1, n-1), guarded at 10**5.
    """
    if m < 0:
        raise ValueError("m must be nonnegative")
    K = a.ring
    n = a.rows
    if n > 0 and comb(m + n - 1, n - 1) > TERM_GUARD:
        raise GuardError(
            f"{comb(m + n - 1, n - 1)} terms exceed the guard of {TERM_GUARD}")
    pw = [Matrix.identity(K, n)] + powers(a, m)     # A**0 .. A**m
    acc = K.zero()
    for parts in compositions(m, n):
        term = row_mixed(K, [pw[p] for p in parts]).det()
        acc = K.add(acc, K.mul(K.from_int(multinomial(m, parts)), term))
    yield None, K.pow(a.trace(), m), acc, K


@verifier("row replacement", _PAIR, family=True)
def verify_row_replacement(a: Matrix, b: Matrix):
    """Sum over j of det(B with row j replaced by row j of B@A) = Tr(A)*det(B)."""
    K = a.ring
    acc = row_replacement_sum(K, b, b @ a)
    yield None, acc, K.mul(a.trace(), b.det()), K


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


@verifier("Frobenius trace", "matrix:a p")
def verify_frobenius_trace(a: Matrix, p: int):
    """Tr(A**p) = Tr(A)**p when the prime p vanishes in the ring."""
    if not _is_prime(p):
        raise PreconditionError(f"{p} is not prime")
    K = a.ring
    if not K.is_zero(K.from_int(p)):
        raise HypothesisNotMet(f"{p} is nonzero in {K}")
    frobenius_cost_guard(K, p)
    yield None, (a ** p).trace(), K.pow(a.trace(), p), K
