"""Per-class analysis framework: semilattice data with make/join/modify hooks.

An analysis attaches a value from a join-semilattice domain to every e-class.
The e-graph keeps this data consistent through the same worklist machinery
that restores congruence: when classes merge their data is joined, and when
a class's data changes its parents are re-made and re-joined.  Parents of a
class whose data did not change are not re-made.

Hook contract (rebuild calls these three hooks and no others):
  * ``make(egraph, node)`` is pure and monotone: its result is a function of
    the node's operator and its children's data alone.  The data names no
    node and no class id, and ``make`` reads nothing else of the graph, so
    a merge that leaves a child's data equal leaves every parent's ``make``
    equal too, and no merge can leave data stale.  Every shipped analysis
    keeps to this: constants, free-variable names, minimum costs.
  * Data is compared with ``==``: a merge re-makes the parents of a side
    whose data differs from the joined data.
  * ``join(into, other)`` is the semilattice join, directional: it returns
    ``(result, changed)`` where ``changed`` is True iff the result differs
    from ``into``.  During rebuild, ``changed`` decides which parents are
    re-made: a parent whose join reports no change does not pass the
    re-make on to its own parents.
  * ``modify(egraph, class_id)`` may add nodes to the class and merge them
    into it; it must be idempotent when nothing else changes.

Termination of rebuilding with an analysis attached is the user's
obligation: the domain must have finite join chains on the data reachable
from the graph, and modify-triggered additions must settle.  The shipped
domains (optional constants, free-variable sets, minimum costs) all do.
"""
from __future__ import annotations


class AnalysisError(Exception):
    """Raised when analysis maintenance cannot proceed."""


class AnalysisContradiction(AnalysisError):
    """Two classes carrying provably different facts were merged."""


class ConstantOverflow(AnalysisError):
    """Constant folding left the supported 64-bit signed range."""


INT64_MIN = -(2**63)
INT64_MAX = 2**63 - 1


def check_folded(value):
    """Reject folded constants outside the 64-bit signed envelope."""
    numerator = value.numerator if hasattr(value, "numerator") else value
    denominator = getattr(value, "denominator", 1)
    if not (INT64_MIN <= numerator <= INT64_MAX and denominator <= INT64_MAX):
        raise ConstantOverflow(f"folded constant out of range: {value!r}")
    return value


class Analysis:
    """No-op analysis over the unit domain; base class for real analyses."""

    def make(self, egraph, node):
        return None

    def join(self, into, other):
        return None, False

    def modify(self, egraph, class_id):
        pass

    def canonical_data(self, egraph, class_id, data):
        """Never called by eqsat; kept only for the benchmark's tracer,
        which wraps it, until that wrapper goes (ROADMAP item 1)."""
        return data

    def show(self, data) -> str:
        return repr(data)


def join_optional_constant(a, b):
    """Or-semantics on optional constants; both present must agree.

    Returns ``(value, changed)`` where changed tracks the left side.
    """
    if a is None:
        return (b, b is not None)
    if b is not None and a != b:
        raise AnalysisContradiction(f"conflicting constants: {a!r} vs {b!r}")
    return (a, False)
