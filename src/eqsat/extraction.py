"""Select an optimal represented term per class under a local cost function.

A cost function maps (node, child costs) to a cost; locality is what lets a
bottom-up fixpoint find the per-class minimum.  The same computation can be
maintained incrementally as an e-class analysis whose join keeps the
cheaper (node, cost) tuple.
"""
from __future__ import annotations

import math
from typing import Callable, Optional, Sequence

from .analysis import Analysis
from .egraph import EGraph, ENode, enode_sort_key
from .language import Leaf, Term


def _finite(cost) -> bool:
    return not (isinstance(cost, float) and not math.isfinite(cost))

CostFunction = Callable[[ENode, Sequence], object]


def ast_size(node: ENode, child_costs: Sequence) -> int:
    return 1 + sum(child_costs)


def ast_depth(node: ENode, child_costs: Sequence) -> int:
    return 1 + max(child_costs, default=0)


def weighted_ast_size(weights: dict, default=1) -> CostFunction:
    """AST size with per-operator weights."""

    def cost(node, child_costs):
        return weights.get(node.op, default) + sum(child_costs)

    return cost


class ExtractionError(Exception):
    pass


def build_cost_table(egraph: EGraph, cost_fn: CostFunction = ast_size) -> dict:
    """Fixpoint over all classes: per canonical class the (cost, node) pair
    of its cheapest e-node; ties break on the node's structural sort key so
    the table is deterministic.

    A sweep visits classes in id order.  When a class's entry improves, its
    parents that this sweep has passed or will not reach are swept again,
    until a sweep improves nothing: an acyclic graph whose ids follow its
    structure takes one sweep."""
    egraph.require_clean("build_cost_table")
    classes, find = egraph.classes, egraph.uf.find
    table: dict[int, tuple] = {}
    sweep, members = list(classes), classes.keys()  # class map ids ascend
    while sweep:
        again: set[int] = set()
        for class_id in sweep:
            eclass = classes[class_id]
            before = best = table.get(class_id)
            for node in eclass.nodes:
                kids = []
                for child in node.children:
                    entry = table.get(child)
                    if entry is None:
                        break
                    kids.append(entry[0])
                else:
                    cost = cost_fn(node, kids)
                    if not _finite(cost):
                        continue
                    candidate = (cost, enode_sort_key(node), node)
                    if best is None or candidate[:2] < best[:2]:
                        best = candidate
                        table[class_id] = candidate
            if best is not before:
                for _, parent in eclass.parents:
                    parent = find(parent)
                    if parent <= class_id or parent not in members:
                        again.add(parent)
        sweep, members = sorted(again), again
    return {cid: (cost, node) for cid, (cost, _, node) in table.items()}


def _op_key(op):
    """The op part of a term's structural sort key: operators before
    leaves, then by operator name or by leaf kind and value."""
    if isinstance(op, Leaf):
        return (1, op.kind, int(op.value) if op.kind == "bool" else op.value)
    return (0, op, 0)


class Extractor:
    """Cost table plus a canonical minimal term per class.

    Among the nodes achieving a class's minimum cost, the extracted term is
    the structurally least one; being id-free, two graphs with the same
    partition extract the same terms.  Only the chosen node of each class
    is kept; a ``Term`` is built for a class when ``best`` asks for it.
    """

    def __init__(self, egraph: EGraph, cost_fn: CostFunction = ast_size):
        self.egraph = egraph
        self.cost_fn = cost_fn
        self.table = build_cost_table(egraph, cost_fn)
        self.costs = {cid: entry[0] for cid, entry in self.table.items()}
        self.chosen: dict[int, ENode] = {}
        self._terms: dict[int, Term] = {}
        self._choose_nodes()

    def _choose_nodes(self) -> None:
        """Sweep the classes until none changes: a class takes the least of
        its minimum-cost nodes once some such node has every child chosen."""
        costs, chosen, cost_fn = self.costs, self.chosen, self.cost_fn
        progress = True
        while progress:
            progress = False
            for class_id, eclass in self.egraph.classes.items():
                if class_id in chosen or class_id not in costs:
                    continue
                best = None
                for node in eclass.nodes:
                    kids = node.children
                    if not all(c in chosen for c in kids):
                        continue
                    if cost_fn(node, [costs[c] for c in kids]) != costs[class_id]:
                        continue
                    if best is None or self._precedes(node, best):
                        best = node
                if best is not None:
                    chosen[class_id] = best
                    progress = True

    def _precedes(self, a: ENode, b: ENode) -> bool:
        """Is the term a node extracts to structurally less than b's?

        Terms compare as nested (op key, child keys) tuples.  In a clean
        graph distinct classes never represent the same term, so equal
        child ids mean equal subterms and the walk descends only into the
        first child pair whose ids differ.
        """
        chosen = self.chosen
        while a != b:
            key_a, key_b = _op_key(a.op), _op_key(b.op)
            if key_a != key_b:
                return key_a < key_b
            for x, y in zip(a.children, b.children):
                if x != y:
                    a, b = chosen[x], chosen[y]
                    break
            else:
                return len(a.children) < len(b.children)
        return False

    def _build(self, root: int) -> Term:
        """Expand the chosen nodes below `root` into a postorder Term."""
        chosen = self.chosen
        nodes: list[tuple] = []
        done: list[int] = []  # node indexes of finished subterms, in order
        # a class id expands its chosen node; its complement ~id emits it
        stack = [root]
        while stack:
            item = stack.pop()
            if item >= 0:
                kids = chosen[item].children
                if kids:
                    stack.append(~item)
                    stack.extend(reversed(kids))
                    continue
                node = chosen[item]
            else:
                node = chosen[~item]
            arity = len(node.children)
            nodes.append((node.op, tuple(done[len(done) - arity :])))
            del done[len(done) - arity :]
            done.append(len(nodes) - 1)
        return Term(tuple(nodes))

    def best(self, root: int) -> tuple[Term, object]:
        root = self.egraph.find(root)
        if root not in self.costs:
            raise ExtractionError(f"class {root} represents no finite-cost term")
        if root not in self.chosen:
            raise ExtractionError(f"no acyclic minimal term for class {root}")
        term = self._terms.get(root)
        if term is None:
            term = self._terms[root] = self._build(root)
        return term, self.costs[root]


def extract_best(
    egraph: EGraph, root: int, cost_fn: CostFunction = ast_size
) -> tuple[Term, object]:
    """Minimum-cost represented term of the root class, with its cost."""
    return Extractor(egraph, cost_fn).best(root)


class MinCostExtraction(Analysis):
    """Extraction as an e-class analysis: data is the (cost, node) tuple of
    the cheapest known e-node; join keeps the lower cost."""

    def __init__(self, cost_fn: CostFunction = ast_size):
        self.cost_fn = cost_fn

    def entry_for(self, node: ENode, child_entries: Sequence[tuple]):
        cost = self.cost_fn(node, [entry[0] for entry in child_entries])
        return (cost, node)

    def make(self, egraph, node):
        return self.entry_for(node, [egraph[c].data for c in node.children])

    def join(self, into, other):
        if into is None:
            return other, other is not None
        if other is None:
            return into, False
        into_key = (into[0], enode_sort_key(into[1]))
        other_key = (other[0], enode_sort_key(other[1]))
        return (other, True) if other_key < into_key else (into, False)

    def canonical_data(self, egraph, class_id, data):
        """The stored witness node can hold merged-away child ids; re-pick
        the least node among those achieving the converged cost."""
        if data is None:
            return None
        cost = data[0]
        best = None
        for node in egraph.classes[class_id].nodes:
            kids = []
            for child in node.children:
                entry = egraph.classes.get(egraph.find(child))
                if entry is None or entry.data is None:
                    break
                kids.append(entry.data[0])
            else:
                if self.cost_fn(node, kids) == cost:
                    key = enode_sort_key(node)
                    if best is None or key < best[0]:
                        best = (key, node)
        return data if best is None else (cost, best[1])

    def show(self, data):
        return "none" if data is None else f"cost={data[0]}"


def extract_as_analysis(egraph: EGraph, cost_fn: CostFunction = ast_size) -> dict:
    """Per-class (cost, node) table computed through the analysis hooks
    (entry construction plus semilattice join) instead of the sweep in
    build_cost_table; the two must agree."""
    egraph.require_clean("extract_as_analysis")
    analysis = MinCostExtraction(cost_fn)
    entries: dict[int, Optional[tuple]] = {cid: None for cid in egraph.classes}
    changed = True
    while changed:
        changed = False
        for class_id, eclass in egraph.classes.items():
            for node in eclass.nodes:
                kids = [entries[c] for c in node.children]
                if any(k is None for k in kids):
                    continue
                candidate = analysis.entry_for(node, kids)
                if not _finite(candidate[0]):
                    continue
                joined, did_change = analysis.join(entries[class_id], candidate)
                if did_change:
                    entries[class_id] = joined
                    changed = True
    return {cid: entry for cid, entry in entries.items() if entry is not None}
