"""JSON input parsing: ring descriptors and matrices.

The wire format is deliberately plain.  A ring is either a shorthand
string ("int", "rat", "mod:8", "poly:mod:8") or a descriptor object
{"kind": ..., ...}; a matrix is {"ring": ..., "rows": n, "cols": m,
"entries": [[...], ...]}; an entry of R[t] is its coefficient array, with
the constant term first.  Everything coming in is canonicalized by the ring
(residues reduced, fractions lowered, polynomials trimmed), so two
inputs naming the same element always compare equal afterwards.
"""

from __future__ import annotations

from .matrix import Matrix
from .poly import PolynomialRing
from .rings import QQ, ZZ, ModRing, ParseError, Ring, _parse_int


# Polynomial rings nest at most this deep.  charpoly and adjugate on a 2 x 2
# matrix over Z[t_1]...[t_d] still run at d = 300 and hit the interpreter's
# recursion limit by d = 400; the cap leaves room for deeper call stacks.
MAX_RING_DEPTH = 64


def _check_depth(depth: int, where: str) -> None:
    if depth > MAX_RING_DEPTH:
        raise ParseError(f"{where}: polynomial rings nested more than "
                         f"{MAX_RING_DEPTH} deep are refused")


def _base_ring(kind, depth: int, modulus, where: str, m_where: str):
    """ZZ, QQ or Z/m (m parsed from modulus as m_where, refused below 1 as
    where) for kind "int", "rat" or "mod", nested depth deep; else None."""
    if kind == "mod":
        m = _parse_int(modulus, m_where)
        if m < 1:
            raise ParseError(f"{where}: modulus must be >= 1, got {m}")
        ring = ModRing(m)
    elif kind in ("int", "rat"):
        ring = ZZ if kind == "int" else QQ
    else:
        return None
    for _ in range(depth):
        ring = PolynomialRing(ring)
    return ring


def ring_from_descriptor(obj, where: str = "ring") -> Ring:
    """Build a ring from a {"kind": ...} descriptor object.

    Nested {"kind": "poly", "base": ...} levels are unwound in a loop and
    refused beyond MAX_RING_DEPTH.
    """
    top, depth = where, 0
    while True:
        if not isinstance(obj, dict):
            raise ParseError(f"{where}: expected a descriptor object, got "
                             f"{type(obj).__name__}")
        if obj.get("kind") != "poly":
            break
        if "base" not in obj:
            raise ParseError(f"{where}: polynomial descriptor needs \"base\"")
        depth += 1
        _check_depth(depth, top)
        obj, where = obj["base"], f"{where}.base"
    kind = obj.get("kind")
    if kind == "mod" and "m" not in obj:
        raise ParseError(f"{where}: modular descriptor needs \"m\"")
    ring = _base_ring(kind, depth, obj.get("m"), f"{where}.m", f"{where}.m")
    if ring is None:
        raise ParseError(f"{where}: unknown ring kind {kind!r}")
    return ring


def parse_ring(text_or_obj, where: str = "ring") -> Ring:
    """Accept a shorthand string or a descriptor object.

    Shorthands: "int", "rat", "mod:<m>", and "poly:<base>" where <base>
    is itself a shorthand, nesting up to MAX_RING_DEPTH deep.
    """
    if isinstance(text_or_obj, dict):
        return ring_from_descriptor(text_or_obj, where)
    if not isinstance(text_or_obj, str):
        raise ParseError(f"{where}: expected a string or descriptor object")
    text = text_or_obj.strip()
    depth = 0
    while text.startswith("poly:"):
        text = text[5:].strip()
        depth += 1
        _check_depth(depth, where)
    kind, colon, modulus = text.partition(":")
    # only "mod" takes a ":<m>" suffix
    if (kind == "mod") == bool(colon) and (ring := _base_ring(
            kind, depth, modulus, where, f"{where} modulus")):
        return ring
    raise ParseError(
        f"{where}: unknown ring {text!r} (expected int, rat, mod:<m>, "
        f"or poly:<base>)")


def matrix_from_json(obj, ring: Ring | None = None,
                     where: str = "matrix") -> Matrix:
    """Decode a matrix object, canonicalizing every entry.

    A ring passed by the caller overrides the one embedded in the
    object; one of the two must be present.
    """
    if not isinstance(obj, dict):
        raise ParseError(f"{where}: expected an object, got "
                         f"{type(obj).__name__}")
    if ring is None:
        if "ring" not in obj:
            raise ParseError(f"{where}: no ring given and none embedded")
        ring = parse_ring(obj["ring"], f"{where}.ring")
    entries = obj.get("entries")
    if not isinstance(entries, list):
        raise ParseError(f"{where}.entries: expected a list of rows")
    for i, row in enumerate(entries):
        if not isinstance(row, list):
            raise ParseError(f"{where}.entries[{i}]: expected a list")
    rows = len(entries)
    cols = len(entries[0]) if entries else 0
    if "rows" in obj:
        declared = _parse_int(obj["rows"], f"{where}.rows")
        if declared != rows:
            raise ParseError(f"{where}.rows: declared {declared}, "
                             f"entries have {rows}")
    if "cols" in obj:
        declared = _parse_int(obj["cols"], f"{where}.cols")
        cols = declared if rows == 0 else cols
        if rows and declared != cols:
            raise ParseError(f"{where}.cols: declared {declared}, "
                             f"entries have {cols}")
    data = []   # element_from_json gives canonical values: no coerce
    for i, row in enumerate(entries):
        if len(row) != cols:
            raise ParseError(f"{where}.entries[{i}]: expected {cols} "
                             f"entries, got {len(row)}")
        data.extend(ring.element_from_json(cell, f"{where}.entries[{i}][{j}]")
                    for j, cell in enumerate(row))
    return Matrix(ring, rows, cols, data)
