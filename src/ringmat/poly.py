"""Univariate polynomials over an arbitrary coefficient ring.

Coefficients are stored densely, index = degree, with trailing zeros
trimmed; the zero polynomial has an empty coefficient tuple and degree -1.
PolynomialRing(R) turns polynomials over R into ring elements in their own
right, so every matrix routine in this library works unchanged over R[t].
That instantiation is exactly how characteristic matrices t*I - A are
handled.

The L1 kernels (matmul, det, charpoly, adjugate and the D_k recursion) skip
this arithmetic over R[t] and over towers R[t][u]... when R is ZZ, Z/m
or QQ: ringmat.matrix packs each entry into one integer (Kronecker
substitution in several variables, t -> 2**w, u -> 2**(w*D), ..., after
clearing denominators over QQ), runs the integer kernels and unpacks the
results.  w is chosen so that no output coefficient overflows its w
bits, and each stride D exceeds the output's degree in the variables
below it; the proof is in that module.  A tower whose results would
take more than matrix.MAX_SLOTS digit slots is not packed, because a
dense packing of sparse multivariate results wastes that many slots.
PolynomialRing.dot and the Polynomial operations here serve towers
above the slot bound, the oracles and the identities' own element
arithmetic.
"""

from __future__ import annotations

from .rings import ParseError, Ring, RingMismatchError


class Polynomial:
    """Dense univariate polynomial over a fixed coefficient ring."""

    __slots__ = ("ring", "coeffs")

    def __init__(self, ring: Ring, coeffs=()):
        coeffs = tuple(coeffs)
        n = len(coeffs)
        while n and ring.is_zero(coeffs[n - 1]):
            n -= 1
        self.ring = ring
        self.coeffs = coeffs[:n]

    @classmethod
    def of(cls, ring: Ring, coeffs) -> "Polynomial":
        """Build from any coercible coefficient sequence (ints allowed)."""
        return cls(ring, [ring.coerce(c) for c in coeffs])

    @classmethod
    def constant(cls, ring: Ring, value) -> "Polynomial":
        return cls(ring, (ring.coerce(value),))

    @classmethod
    def indeterminate(cls, ring: Ring) -> "Polynomial":
        """The polynomial t."""
        return cls(ring, (ring.zero(), ring.one()))

    @property
    def degree(self) -> int:
        """Largest exponent with nonzero coefficient, -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def coeff(self, k: int):
        """Coefficient of t**k, zero for any k outside the stored range."""
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return self.ring.zero()

    def is_zero(self) -> bool:
        return not self.coeffs

    def _check(self, other: "Polynomial") -> None:
        if self.ring is not other.ring and self.ring != other.ring:
            raise RingMismatchError(
                f"polynomials over {self.ring} and {other.ring} cannot be combined")

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        R = self.ring
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, v in enumerate(b):
            out[i] = R.add(out[i], v)
        return Polynomial(R, out)

    def __neg__(self) -> "Polynomial":
        R = self.ring
        return Polynomial(R, [R.neg(c) for c in self.coeffs])

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        R = self.ring
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Polynomial(R)
        out = [R.zero()] * (len(a) + len(b) - 1)
        _add_product(out, R, a, b)
        return Polynomial(R, out)

    def scale(self, value) -> "Polynomial":
        """Multiply every coefficient by a base-ring value."""
        R = self.ring
        return Polynomial(R, [R.mul(value, c) for c in self.coeffs])

    def derivative(self) -> "Polynomial":
        """Formal derivative; over mod-m rings terms can vanish (8*t**7 = 0 mod 8)."""
        R = self.ring
        return Polynomial(
            R,
            [R.mul(R.from_int(k), self.coeffs[k]) for k in range(1, len(self.coeffs))],
        )

    def eval_zero(self):
        """Value at t = 0, i.e. the constant coefficient."""
        return self.coeff(0)

    def __eq__(self, other):
        return (isinstance(other, Polynomial)
                and self.ring == other.ring
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.ring, self.coeffs))

    def __repr__(self):
        if not self.coeffs:
            return "Polynomial(0)"
        terms = []
        for k, c in enumerate(self.coeffs):
            if self.ring.is_zero(c):
                continue
            base = self.ring.format(c)
            terms.append(base if k == 0 else f"({base})*t^{k}")
        return "Polynomial(" + " + ".join(terms) + ")"

    def to_json(self) -> dict:
        return {"coeffs": [self.ring.element_to_json(c) for c in self.coeffs]}


class PolynomialRing(Ring):
    """R[t] as a Ring whose elements are Polynomial values over R.

    A Q-algebra exactly when the base is: coerce takes Fraction(1, k) to
    the constant polynomial 1/k through the base.
    """

    def __init__(self, base: Ring):
        self.base = base

    @property
    def is_q_algebra(self):
        return self.base.is_q_algebra

    def zero(self):
        return Polynomial(self.base)

    def one(self):
        return Polynomial(self.base, (self.base.one(),))

    def t(self):
        return Polynomial.indeterminate(self.base)

    def add(self, a, b):
        return a + b

    def neg(self, a):
        return -a

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def dot(self, xs, ys):
        # every product accumulates into one coefficient list
        base = self.base
        out = []
        for x, y in zip(xs, ys):
            a, b = x.coeffs, y.coeffs
            if a and b:
                out.extend([base.zero()] * (len(a) + len(b) - 1 - len(out)))
                _add_product(out, base, a, b)
        return Polynomial(base, out)

    def from_int(self, k):
        return Polynomial(self.base, (self.base.from_int(k),))

    def is_zero(self, a):
        return not a.coeffs

    def coerce(self, v):
        if isinstance(v, Polynomial):
            if v.ring != self.base:
                raise RingMismatchError(
                    f"polynomial over {v.ring} is not an element of {self}")
            return v
        if isinstance(v, (list, tuple)):
            return Polynomial.of(self.base, v)
        return Polynomial(self.base, (self.base.coerce(v),))

    def descriptor(self):
        return {"kind": "poly", "base": self.base.descriptor()}

    def element_to_json(self, a):
        return [self.base.element_to_json(c) for c in a.coeffs]

    def element_from_json(self, obj, where="element"):
        if not isinstance(obj, list):
            raise ParseError(f"{where}: expected a coefficient array")
        coeffs = [
            self.base.element_from_json(c, f"{where}[{k}]")
            for k, c in enumerate(obj)
        ]
        return Polynomial(self.base, coeffs)

    def format(self, a):
        return repr(a)

    def __eq__(self, other):
        return isinstance(other, PolynomialRing) and other.base == self.base

    def __hash__(self):
        return hash(("poly", self.base))

    def __repr__(self):
        return f"PolynomialRing({self.base!r})"

    def __str__(self):
        return f"poly over {self.base}"


def _add_product(out: list, base: Ring, a, b) -> None:
    """Add the product of the nonempty coefficient sequences a and b over
    base into out, which has at least len(a) + len(b) - 1 entries: the one
    coefficient loop of Polynomial.__mul__ and PolynomialRing.dot."""
    for i, ai in enumerate(a):
        if not base.is_zero(ai):
            for j, bj in enumerate(b, i):
                out[j] = base.add(out[j], base.mul(ai, bj))


def ring_depth(ring: Ring) -> int:
    """How many polynomial rings are nested over the base ring."""
    depth = 0
    while isinstance(ring, PolynomialRing):
        ring, depth = ring.base, depth + 1
    return depth
