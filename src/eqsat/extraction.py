"""Select an optimal represented term per class under a local cost function.

A cost function maps (node, child costs) to a cost; locality is what lets a
bottom-up fixpoint find the per-class minimum.  The same computation can be
maintained incrementally as an e-class analysis whose data is the cost
and whose join keeps the lower one.
"""
from __future__ import annotations

import math
from itertools import groupby
from typing import Callable, Sequence

from .analysis import Analysis
from .egraph import EGraph, ENode, enode_sort_key
from .language import Term


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
    """Fixpoint over all classes: per canonical class the least cost of a
    term it represents.  Which node achieves it is ``Extractor``'s choice.

    A sweep visits classes in id order.  When a class's cost falls, its
    parents that this sweep has passed or will not reach are swept again,
    until a sweep lowers nothing: an acyclic graph whose ids follow its
    structure takes one sweep."""
    egraph.require_clean("build_cost_table")
    classes, find = egraph.classes, egraph.uf.find
    costs: dict[int, object] = {}
    sweep, members = list(classes), classes.keys()  # class map ids ascend
    while sweep:
        again: set[int] = set()
        for class_id in sweep:
            eclass = classes[class_id]
            before = best = costs.get(class_id)
            for node in eclass.nodes:
                kids = []
                for child in node.children:
                    kid = costs.get(child)
                    if kid is None:
                        break
                    kids.append(kid)
                else:
                    cost = cost_fn(node, kids)
                    if _finite(cost) and (best is None or cost < best):
                        best = costs[class_id] = cost
            if best != before:
                for _, parent in eclass.parents:
                    parent = find(parent)
                    if parent <= class_id or parent not in members:
                        again.add(parent)
        sweep, members = sorted(again), again
    return costs


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
        self.costs = build_cost_table(egraph, cost_fn)
        self.chosen: dict[int, ENode] = {}
        self._terms: dict[int, Term] = {}
        self._choose_nodes()

    def _choose_nodes(self) -> None:
        """Settle the classes in ascending cost, each on the least of its
        minimum-cost nodes whose children are settled.  Within one cost,
        classes settle in rounds that read only earlier rounds, so no choice
        depends on class ids; only a zero-weight node waits a round for its
        child, and a class not ready by the end of its cost waits on."""
        costs, chosen, cost_fn = self.costs, self.chosen, self.cost_fn
        classes = self.egraph.classes
        pending: list[int] = []
        for _, same in groupby(sorted(costs, key=costs.__getitem__), costs.__getitem__):
            pending += same
            while pending:
                ready = {}
                for class_id in pending:
                    best = None
                    for node in classes[class_id].nodes:
                        kids = node.children
                        if not all(c in chosen for c in kids):
                            continue
                        if cost_fn(node, [costs[c] for c in kids]) != costs[class_id]:
                            continue
                        if best is None or self._precedes(node, best):
                            best = node
                    if best is not None:
                        ready[class_id] = best
                if not ready:
                    break
                chosen.update(ready)
                pending = [c for c in pending if c not in ready]

    def _precedes(self, a: ENode, b: ENode) -> bool:
        """Is the term a node extracts to structurally less than b's?

        Terms compare as nested (op key, child keys) tuples, the op key
        being the first three fields of ``enode_sort_key``.  In a clean
        graph distinct classes never represent the same term, so equal
        child ids mean equal subterms and the walk descends only into the
        first child pair whose ids differ.
        """
        chosen = self.chosen
        while a != b:
            key_a, key_b = enode_sort_key(a)[:3], enode_sort_key(b)[:3]
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
    """Extraction as an e-class analysis: data is the least cost of a term
    the class represents; join keeps the lower cost."""

    def __init__(self, cost_fn: CostFunction = ast_size):
        self.cost_fn = cost_fn

    def make(self, egraph, node):
        return self.cost_fn(node, [egraph[c].data for c in node.children])

    def join(self, into, other):
        return (other, True) if other < into else (into, False)

    def show(self, data):
        return f"cost={data}"

