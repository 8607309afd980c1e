"""Commutative rings as first-class runtime values.

A Ring object bundles the arithmetic of one coefficient domain and acts on
plain canonical values rather than wrapped elements:

  * integers             -> Python int
  * integers mod m       -> int in [0, m), m >= 1 (m = 1 is the zero ring)
  * rationals            -> fractions.Fraction (reduced, positive denominator)
  * polynomials over R   -> ringmat.poly.Polynomial (no trailing zeros)

Equality of elements is structural equality of canonical values, so == on
the raw values is always the right test.  Rings compare equal when they
describe the same domain, and every ring knows its JSON descriptor.

A ring may declare itself a Q-algebra (is_q_algebra), meaning every
positive integer k is a unit: the ring's coerce accepts Fraction(1, k)
and gives its image, so dividing by k is a product with that image.
Rationals qualify, as do polynomial rings over a qualifying base.  Rings
have no division method: integers and mod-m rings never divide, even
when a particular quotient happens to exist.

Rationals have no dot kernel of their own, because the matrix kernels
never take an inner product of Fractions: the kernels on a rational
matrix A clear each row's denominators, B = D*A with D = diag(r_i) and
r_i the lcm of row i's denominators (matmul and the D_k take the whole
matrix as one row, one L), run over the integers, and divide at the end
(det(A) = det(B)/det D, adj(A) = (adj(B) @ D)/det D,
A1 @ A2 = (B1 @ B2)/(L1*L2); proofs in ringmat.matrix).  Each quotient
is the exact rational value, and Fraction keeps one reduced form per
value, so the results are exactly what the same kernels would give on
Fractions.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul

from .report import VerificationReport, make_report


class RingError(Exception):
    """Base class for all errors raised by this library."""


class RingMismatchError(RingError):
    """Operands or samples belong to different rings."""


class ShapeError(RingError):
    """Matrix dimensions do not fit the requested operation."""


class QAlgebraRequiredError(RingError):
    """A route that divides by integers was asked of a ring that is not a
    Q-algebra."""


class PreconditionError(RingError):
    """Inputs violate a stated precondition (distinct from identity failure)."""


class GuardError(RingError):
    """A resource guard (term count, size cap) was exceeded."""


class ParseError(RingError):
    """Malformed JSON input; the message names the offending field."""


class Ring:
    """Abstract commutative ring; subclasses implement the arithmetic."""

    is_q_algebra = False

    def zero(self):
        raise NotImplementedError

    def one(self):
        raise NotImplementedError

    def add(self, a, b):
        raise NotImplementedError

    def neg(self, a):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def dot(self, xs, ys):
        """Sum of x * y over the pairs zip(xs, ys) makes; zero when empty.

        The inner-product kernel of matmul and the characteristic
        polynomial.  This generic version skips zero x; subclasses
        override it with one that builds fewer intermediate values.
        """
        acc = self.zero()
        for x, y in zip(xs, ys):
            if not self.is_zero(x):
                acc = self.add(acc, self.mul(x, y))
        return acc

    def from_int(self, k: int):
        """Canonical image of the integer k (the unique map from the integers)."""
        raise NotImplementedError

    def is_zero(self, a) -> bool:
        raise NotImplementedError

    def pow(self, a, k: int):
        """a**k for k >= 0, with a**0 = 1 (even for a = 0)."""
        return power(a, k, self.mul, self.one)

    def coerce(self, v):
        """Canonical value for v, raising RingMismatchError if v is foreign."""
        raise NotImplementedError

    def descriptor(self) -> dict:
        """JSON descriptor of this ring."""
        raise NotImplementedError

    def element_to_json(self, a):
        raise NotImplementedError

    def element_from_json(self, obj, where: str = "element"):
        raise NotImplementedError

    def format(self, a) -> str:
        """Short human-readable rendering used in messages."""
        return str(a)


class IntegerRing(Ring):
    """The ring of integers."""

    def zero(self):
        return 0

    def one(self):
        return 1

    def add(self, a, b):
        return a + b

    def neg(self, a):
        return -a

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def dot(self, xs, ys):
        return sum(map(mul, xs, ys))

    def from_int(self, k):
        return k

    def is_zero(self, a):
        return a == 0

    def coerce(self, v):
        if isinstance(v, int):
            return v
        raise RingMismatchError(f"{v!r} is not an integer")

    def descriptor(self):
        return {"kind": "int"}

    def element_to_json(self, a):
        return decimal(a)

    def format(self, a):
        return decimal(a)

    def element_from_json(self, obj, where="element"):
        return _parse_int(obj, where)

    def __eq__(self, other):
        return isinstance(other, IntegerRing)

    def __hash__(self):
        return hash("int")

    def __repr__(self):
        return "ZZ"

    def __str__(self):
        return "int"


class ModRing(Ring):
    """Integers mod m, m >= 1.  Residues are kept in [0, m)."""

    def __init__(self, m: int):
        if not isinstance(m, int) or m < 1:
            raise ValueError(f"modulus must be a positive integer, got {m!r}")
        self.m = m

    def zero(self):
        return 0

    def one(self):
        return 1 % self.m

    def add(self, a, b):
        return (a + b) % self.m

    def neg(self, a):
        return (-a) % self.m

    def sub(self, a, b):
        return (a - b) % self.m

    def mul(self, a, b):
        return (a * b) % self.m

    def dot(self, xs, ys):
        return sum(map(mul, xs, ys)) % self.m

    def from_int(self, k):
        return k % self.m

    def is_zero(self, a):
        return a == 0

    def coerce(self, v):
        if isinstance(v, int):
            return v % self.m
        raise RingMismatchError(f"{v!r} is not a residue mod {self.m}")

    def descriptor(self):
        return {"kind": "mod", "m": self.m}

    def element_to_json(self, a):
        return decimal(a)

    def format(self, a):
        return decimal(a)

    def element_from_json(self, obj, where="element"):
        return _parse_int(obj, where) % self.m

    def __eq__(self, other):
        return isinstance(other, ModRing) and other.m == self.m

    def __hash__(self):
        return hash(("mod", self.m))

    def __repr__(self):
        return f"ModRing({decimal(self.m)})"

    def __str__(self):
        return f"mod {decimal(self.m)}"


class RationalRing(Ring):
    """The field of rational numbers (a Q-algebra, so Newton recursion works)."""

    is_q_algebra = True

    def zero(self):
        return Fraction(0)

    def one(self):
        return Fraction(1)

    def add(self, a, b):
        return a + b

    def neg(self, a):
        return -a

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def from_int(self, k):
        return Fraction(k)

    def is_zero(self, a):
        return a == 0

    def coerce(self, v):
        if isinstance(v, Fraction):
            return v
        if isinstance(v, int):
            return Fraction(v)
        raise RingMismatchError(f"{v!r} is not a rational")

    def descriptor(self):
        return {"kind": "rat"}

    def element_to_json(self, a):
        return {"num": decimal(a.numerator), "den": decimal(a.denominator)}

    def format(self, a):
        # str(a), without the interpreter's limit on its two integers
        if a.denominator == 1:
            return decimal(a.numerator)
        return f"{decimal(a.numerator)}/{decimal(a.denominator)}"

    def element_from_json(self, obj, where="element"):
        if isinstance(obj, (str, int)):
            return Fraction(_parse_int(obj, where))
        if not isinstance(obj, dict) or set(obj) - {"num", "den"}:
            raise ParseError(f"{where}: expected {{num, den}} for a rational")
        num = _parse_int(obj.get("num", "0"), f"{where}.num")
        den = _parse_int(obj.get("den", "1"), f"{where}.den")
        if den == 0:
            raise ParseError(f"{where}.den: denominator must be nonzero")
        return Fraction(num, den)

    def __eq__(self, other):
        return isinstance(other, RationalRing)

    def __hash__(self):
        return hash("rat")

    def __repr__(self):
        return "QQ"

    def __str__(self):
        return "rat"


ZZ = IntegerRing()
QQ = RationalRing()


def power(a, k: int, mul, one):
    """a**k for k >= 0 by binary powering, from the top bit of k down.

    mul(x, y) is the product and one() the empty product, built only at
    k = 0.  For k >= 1 this takes popcount(k) + bit_length(k) - 2
    products: one square per bit below the top one and one more product
    with a per further set bit.  Ring.pow and Matrix.__pow__ both use it.
    """
    if k < 0:
        raise ValueError("exponent must be nonnegative")
    if k == 0:
        return one()
    result = a
    for bit in bin(k)[3:]:
        result = mul(result, result)
        if bit == "1":
            result = mul(result, a)
    return result


# Integer literals longer than this many digits (sign excluded) are
# refused with ParseError, so the CLI exits 2 on them.  Converting a
# decimal string to an int and back takes time quadratic in its length,
# which is why the interpreter refuses, by default, any conversion longer
# than 4300 digits (sys.set_int_max_str_digits).  That limit would also
# refuse every result longer than 4300 digits, so this library keeps its
# own cap on what it reads instead, and converts in both directions
# without the interpreter's limit: parse_decimal and decimal below.  At
# the cap a literal converts in under 10 ms each way, and a fuzz
# campaign over Z/m with a modulus that long spends about 0.1 s a case
# on the division in each reduction mod m.
MAX_INT_DIGITS = 20_000


def _parse_int(obj, where: str) -> int:
    if isinstance(obj, bool):
        raise ParseError(f"{where}: expected an integer, got a boolean")
    if isinstance(obj, int):
        return obj
    if isinstance(obj, str):
        s = obj.strip()
        digits = len(s) - (s[:1] in ("+", "-"))
        if digits > MAX_INT_DIGITS:
            raise ParseError(f"{where}: integer literal of {digits} digits "
                             f"exceeds the cap of {MAX_INT_DIGITS}")
        try:
            return parse_decimal(s)
        except ValueError:
            raise ParseError(f"{where}: invalid integer literal {obj!r}") from None
    raise ParseError(f"{where}: expected an integer or decimal string")


def parse_decimal(s: str) -> int:
    """int(s, 10), also for plain digit strings longer than the
    interpreter's conversion limit: those are parsed in halves."""
    try:
        return int(s, 10)
    except ValueError:
        body = s[1:] if s[:1] in ("+", "-") else s
        if len(body) < 2 or not (body.isascii() and body.isdigit()):
            raise
    k = len(body) // 2
    v = parse_decimal(body[:-k]) * 10 ** k + parse_decimal(body[-k:])
    return -v if s[0] == "-" else v


def decimal(v: int) -> str:
    """str(v) for an int of any length: values longer than the
    interpreter's conversion limit are split by a power of ten."""
    try:
        return str(v)
    except ValueError:
        pass
    sign, v = ("-", -v) if v < 0 else ("", v)
    k = v.bit_length() * 3 // 20          # about half of v's digits
    hi, lo = divmod(v, 10 ** k)
    return sign + decimal(hi) + decimal(lo).zfill(k)


_AXIOMS = (
    ("add_commutes", lambda R, a, b, c: R.sub(R.add(a, b), R.add(b, a))),
    ("add_associates", lambda R, a, b, c:
        R.sub(R.add(R.add(a, b), c), R.add(a, R.add(b, c)))),
    ("mul_commutes", lambda R, a, b, c: R.sub(R.mul(a, b), R.mul(b, a))),
    ("mul_associates", lambda R, a, b, c:
        R.sub(R.mul(R.mul(a, b), c), R.mul(a, R.mul(b, c)))),
    ("distributes", lambda R, a, b, c:
        R.sub(R.mul(a, R.add(b, c)), R.add(R.mul(a, b), R.mul(a, c)))),
    ("one_acts", lambda R, a, b, c: R.sub(R.mul(R.one(), a), a)),
    ("zero_annihilates", lambda R, a, b, c: R.mul(R.zero(), a)),
    ("negation_cancels", lambda R, a, b, c: R.add(a, R.neg(a))),
)


def axiom_spotcheck(ring: Ring, samples) -> VerificationReport:
    """Check the commutative-ring axioms on concrete sample triples.

    samples is an iterable of (a, b, c) triples of elements of ring; a
    foreign value in any triple raises RingMismatchError.  The returned
    report carries the first violated axiom and its witness, if any.
    """
    checked = 0
    for a, b, c in samples:
        a, b, c = ring.coerce(a), ring.coerce(b), ring.coerce(c)
        checked += 1
        for name, law in _AXIOMS:
            diff = law(ring, a, b, c)
            if not ring.is_zero(diff):
                return make_report(
                    "ring_axioms", diff, ring=ring,
                    inputs={
                        "ring": ring.descriptor(),
                        "sample": [ring.element_to_json(x) for x in (a, b, c)],
                    },
                    part=name,
                )
    return make_report(
        "ring_axioms", ring.zero(), ring=ring,
        inputs={"ring": ring.descriptor(), "samples_checked": checked},
    )
