"""Verification reports produced by identity checks.

Every check in this library reduces to an exact equality between two ring
elements or two matrices, judged by == on their canonical values.  A
report records which identity was checked, whether its hypothesis was
satisfied, whether the equality held, and (on failure) the nonzero
difference as a witness: the difference is formed only for the clause
a report carries, never for a passing check.
"""

from __future__ import annotations

from .record import Record

# Identity names whose checks are deliberately corrupted.  Test-only hook:
# populated via set_mutation() or the RINGMAT_MUTATE environment variable
# (read by the CLI), never in normal library use.
_MUTATED: set[str] = set()


def set_mutation(names) -> frozenset:
    """Corrupt the named identities so their checks produce nonzero residuals.

    Passing an empty iterable (or None) clears the hook.  Returns the
    names it replaces, so a caller can put them back.

    A mutated check adds the ring's 1 to its residual.  Over the zero
    ring Z/1 (and towers over it) 1 = 0, so the hook cannot make any
    check fail there: a fully mutated campaign over mod:1 still reports
    failed=0.
    """
    previous = frozenset(_MUTATED)
    _MUTATED.clear()
    if names:
        _MUTATED.update(names)
    return previous


class VerificationReport(Record):
    """Outcome of one identity check.

    passed is True exactly when the hypothesis was met and the two sides
    were equal (for a mutated check, when its bumped residual was zero).
    hypothesis_met is False when the inputs do not satisfy the
    identity's hypothesis; such reports are not failures and carry no
    residual.  residual is None on success, otherwise a ring
    element (with residual_ring set) or a Matrix.  inputs holds the
    checked matrices by reference, as Matrix values; to_json() gives
    their JSON form.  Reports are mutable (callers annotate inputs), so
    they compare field-wise but do not hash.
    """

    _fields = ("identity", "passed", "hypothesis_met", "residual",
               "residual_ring", "inputs")
    __hash__ = None

    def __init__(self, identity: str, passed: bool, hypothesis_met: bool = True,
                 residual=None, residual_ring=None, inputs: dict | None = None):
        self.identity = identity
        self.passed = passed
        self.hypothesis_met = hypothesis_met
        self.residual = residual
        self.residual_ring = residual_ring
        self.inputs = {} if inputs is None else inputs

    def json_layout(self) -> dict:
        """The report's JSON keys in order, with every Matrix (a matrix
        residual, the matrices in inputs) left as the Matrix itself.
        to_json converts those; the command-line writer writes them
        straight to text without building their JSON objects."""
        res = self.residual
        if res is not None and self.residual_ring is not None:
            res = {"ring": self.residual_ring.descriptor(),
                   "value": self.residual_ring.element_to_json(res)}
        return {
            "identity": self.identity,
            "passed": self.passed,
            "hypothesis_met": self.hypothesis_met,
            "residual": res,
            "inputs": self.inputs,
        }

    def to_json(self) -> dict:
        """The report as plain JSON: json_layout with every Matrix in it
        replaced by its Matrix.to_json() form."""
        from .matrix import Matrix      # matrix imports rings, which imports this
        out = self.json_layout()
        if isinstance(out["residual"], Matrix):
            out["residual"] = out["residual"].to_json()
        out["inputs"] = {key: value.to_json() if isinstance(value, Matrix)
                         else value for key, value in self.inputs.items()}
        return out


def make_report(identity: str, residual, *, ring=None, inputs=None,
                part: str | None = None) -> VerificationReport:
    """Build a report from a computed residual (element or matrix).

    residual must be the exact difference of the two sides.  ring is
    required when residual is a bare ring element.  part names the first
    failing clause of a multi-clause identity.  first_failure calls this
    only for the clause its report carries; rings.axiom_spotcheck builds
    its reports here directly.
    """
    inputs = dict(inputs) if inputs else {}
    if identity in _MUTATED:
        residual = _bump(residual, ring)
    failed = not (ring.is_zero(residual) if ring is not None
                  else residual.is_zero())
    if failed and part is not None:
        inputs["failed_part"] = part
    return VerificationReport(
        identity=identity,
        passed=not failed,
        residual=residual if failed else None,
        residual_ring=ring if failed else None,
        inputs=inputs,
    )


def first_failure(identity: str, clauses, inputs=None) -> VerificationReport:
    """Report a multi-part identity by its first failing clause.

    clauses yields (part, lhs, rhs, ring) in order: the two sides of one
    equality, ring None for two matrices.  Values are canonical, so a
    clause holds exactly when lhs == rhs; clauses are drawn up to the
    first that fails and none past it.  Only the clause the report
    carries forms its residual lhs - rhs (ring.sub, or the Matrix
    difference), and make_report builds the report from it: the first
    failing clause, named in inputs["failed_part"], or, when every
    clause holds and the identity is mutated, the last clause, whose
    zero residual make_report bumps.  A passing check forms no residual.
    A (None, zero, zero, ring) sentinel last clause passes unnamed.
    """
    for part, lhs, rhs, ring in clauses:
        if lhs != rhs:
            break
    else:
        if identity not in _MUTATED:
            return VerificationReport(identity, True,
                                      inputs=dict(inputs) if inputs else {})
    residual = ring.sub(lhs, rhs) if ring is not None else lhs - rhs
    return make_report(identity, residual, ring=ring, inputs=inputs, part=part)


def hypothesis_not_met(identity: str, reason: str, inputs=None) -> VerificationReport:
    inputs = dict(inputs) if inputs else {}
    inputs["reason"] = reason
    return VerificationReport(
        identity=identity, passed=True, hypothesis_met=False, inputs=inputs,
    )


def _bump(residual, ring):
    # Add 1 somewhere so the corrupted check yields a genuine witness; an
    # empty matrix has nowhere to add it, so it grows to at least 1 x 1.
    if ring is not None:
        return ring.add(residual, ring.one())
    R = residual.ring
    rows, cols = max(residual.rows, 1), max(residual.cols, 1)
    entries = list(residual._e) or [R.zero()] * (rows * cols)
    entries[0] = R.add(entries[0], R.one())
    return type(residual)(R, rows, cols, entries)


def summarize(reports) -> dict:
    """Aggregate counts used for the one-line suite summary."""
    total = len(reports)
    unmet = sum(1 for r in reports if not r.hypothesis_met)
    failed = sum(1 for r in reports if r.hypothesis_met and not r.passed)
    return {
        "total": total,
        "passed": total - unmet - failed,
        "failed": failed,
        "hypothesis_not_met": unmet,
    }
