"""The e-graph: union-find over class ids, class map, hashcons, and the
deferred rebuilding algorithm that restores its invariants.

Mutating operations (``add``, ``merge``) are cheap and may leave the graph
dirty; ``rebuild`` drains a deduplicated worklist of merged classes,
re-canonicalizing hashcons entries, upward-merging congruent parents, and
propagating analysis data until every invariant holds again.  Calling
``rebuild`` after every merge reproduces the traditional eager behavior;
deferring it amortizes the work.
"""
from __future__ import annotations

import copy
from typing import Iterable, NamedTuple, Optional

from .analysis import Analysis
from .language import Leaf, Op, Term, leaf_to_str


class ENode(NamedTuple):
    """Operator with child e-class ids; canonical iff every child id is."""

    op: Op
    children: tuple[int, ...]


def enode_sort_key(node: ENode):
    """The one node order: operators before leaves, then operator name or
    leaf kind and value, then child ids.  Its first three fields are the op
    part of a term's structural order, which extraction uses."""
    op = node.op
    if isinstance(op, Leaf):
        value = int(op.value) if op.kind == "bool" else op.value
        return (1, op.kind, value, node.children)
    return (0, op, 0, node.children)


class DirtyGraphError(AssertionError):
    """A query that needs the invariants (e-matching, extraction) was given
    a graph with merges not yet rebuilt; call ``rebuild`` first."""


class EClass:
    """An equivalence class: member nodes, parent back-references, and
    analysis data.  ``parents`` records every e-node that has this class as
    a child together with the class that e-node belongs to."""

    __slots__ = ("id", "nodes", "parents", "data")

    def __init__(self, class_id: int, nodes: list[ENode], data=None):
        self.id = class_id
        self.nodes = nodes
        self.parents: list[tuple[ENode, int]] = []
        self.data = data


class UnionFind:
    """Parent-pointer forest with path compression; ids are never reused."""

    __slots__ = ("parent",)

    def __init__(self):
        self.parent: list[int] = []

    def __len__(self) -> int:
        return len(self.parent)

    def make_set(self) -> int:
        new = len(self.parent)
        self.parent.append(new)
        return new

    def find(self, x: int) -> int:
        parent = self.parent
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    def union_into(self, leader: int, follower: int) -> int:
        self.parent[follower] = leader
        return leader


class EGraph:
    """The tuple (union-find, class map, hashcons) plus a rebuild worklist.

    ``clean`` is True iff the congruence, hashcons, and analysis invariants
    currently hold.  Queries (ematch, extraction) require a clean graph.

    Single-writer: mutation needs exclusive access, while a clean graph can
    be read concurrently.
    """

    def __init__(self, analysis: Optional[Analysis] = None, rebuild_after_merge=False):
        self.analysis = analysis if analysis is not None else Analysis()
        self.uf = UnionFind()
        self.classes: dict[int, EClass] = {}
        self.hashcons: dict[ENode, int] = {}
        self.worklist: list[int] = []
        # classes whose analysis data changed since their parents were last
        # re-made; repair re-makes the parents of these classes only
        self.data_changed: set[int] = set()
        self.clean = True
        # rebuild_after_merge emulates eager invariant maintenance: every
        # top-level merge immediately drains the worklist.
        self.rebuild_after_merge = rebuild_after_merge
        self._in_rebuild = False
        self._n_nodes = 0
        self._op_index: dict[Op, list[int]] = {}
        # instrumentation, exact and reproducible run-to-run
        self.repair_calls = 0
        self.hashcons_updates = 0
        self.rebuild_calls = 0
        self.union_count = 0

    # ------------------------------------------------------------------
    # queries

    def find(self, class_id: int) -> int:
        return self.uf.find(class_id)

    def require_clean(self, query: str) -> None:
        """Raise DirtyGraphError unless the invariants hold.  A real check,
        not an assert: queries trust canonical ids, so under ``python -O``
        a dirty graph would give wrong answers silently."""
        if not self.clean:
            raise DirtyGraphError(f"{query} needs a clean graph; call rebuild first")

    def equiv(self, a: int, b: int) -> bool:
        return self.uf.find(a) == self.uf.find(b)

    def canonicalize(self, node: ENode) -> ENode:
        find = self.uf.find
        for child in node.children:
            if find(child) != child:
                return ENode(node.op, tuple(find(c) for c in node.children))
        return node

    def lookup(self, node: ENode) -> Optional[int]:
        found = self.hashcons.get(self.canonicalize(node))
        return None if found is None else self.uf.find(found)

    def __getitem__(self, class_id: int) -> EClass:
        return self.classes[self.uf.find(class_id)]

    def n_classes(self) -> int:
        return len(self.classes)

    def n_nodes(self) -> int:
        return self._n_nodes

    def class_ids(self) -> Iterable[int]:
        return self.classes.keys()

    def classes_with_op(self, op: Op) -> list[int]:
        return self._op_index.get(op, [])

    # ------------------------------------------------------------------
    # mutation

    def add(self, node: ENode) -> int:
        node = self.canonicalize(node)
        existing = self.hashcons.get(node)
        if existing is not None:
            return self.uf.find(existing)
        class_id = self.uf.make_set()
        eclass = EClass(class_id, [node])
        self.classes[class_id] = eclass
        for child in dict.fromkeys(node.children):
            self.classes[child].parents.append((node, class_id))
        self.hashcons[node] = class_id
        self._n_nodes += 1
        self._op_index.setdefault(node.op, []).append(class_id)
        eclass.data = self.analysis.make(self, node)
        self.analysis.modify(self, class_id)
        return class_id

    def add_leaf(self, leaf: Leaf) -> int:
        return self.add(ENode(leaf, ()))

    def add_term(self, term: Term) -> int:
        ids: list[int] = []
        for op, kids in term.nodes:
            ids.append(self.add(ENode(op, tuple(ids[k] for k in kids))))
        return ids[-1]

    def merge(self, a: int, b: int) -> int:
        """Union two classes.  Does not restore congruence; the merged class
        is pushed onto the worklist for a later rebuild."""
        ra, rb = self.uf.find(a), self.uf.find(b)
        if ra == rb:
            return ra
        ca, cb = self.classes[ra], self.classes[rb]
        # leader election: more nodes wins, ties keep the lower id
        if (len(cb.nodes), -rb) > (len(ca.nodes), -ra):
            ra, rb, ca, cb = rb, ra, cb, ca
        self.uf.union_into(ra, rb)
        data, changed = self.analysis.join(ca.data, cb.data)
        # each side's parents were made from that side's data; they need
        # re-making if the joined data differs from it, or if they were
        # still owed a re-make
        marked = self.data_changed
        if changed or data != cb.data or rb in marked:
            marked.add(ra)
        marked.discard(rb)
        ca.data = data
        ca.nodes.extend(cb.nodes)
        ca.parents.extend(cb.parents)
        del self.classes[rb]
        self.worklist.append(ra)
        self.union_count += 1
        self.clean = False
        if self.rebuild_after_merge and not self._in_rebuild:
            self.rebuild()
        return ra

    def rebuild(self) -> None:
        """Restore congruence, hashcons, and analysis invariants.

        Drains the worklist in chunks: each chunk is the current worklist,
        canonicalized and deduplicated, before repair runs on each member.
        The deduplication is what coalesces overlapping upward-merge work.
        """
        if self._in_rebuild:
            return
        self.rebuild_calls += 1
        self._in_rebuild = True
        try:
            while self.worklist:
                todo = self.worklist
                self.worklist = []
                for class_id in sorted({self.uf.find(c) for c in todo}):
                    self._repair(self.uf.find(class_id))
            self._finish_rebuild()
        finally:
            self._in_rebuild = False

    def _repair(self, class_id: int) -> None:
        self.repair_calls += 1
        eclass = self.classes[class_id]
        find = self.uf.find

        # hashcons fix-up: drop the stale key, install the canonical one
        parents = list(eclass.parents)
        canonical = []
        for p_node, p_class in parents:
            self.hashcons.pop(p_node, None)
            node = self.canonicalize(p_node)
            self.hashcons[node] = find(p_class)
            self.hashcons_updates += 2
            canonical.append(node)

        # deduplicate parents; congruent parents merge (upward merging),
        # which pushes further worklist entries.  The fix-up's canonical
        # nodes hold until a merge here makes a union.
        new_parents: dict[ENode, int] = {}
        unions = self.union_count
        for (p_node, p_class), node in zip(parents, canonical):
            p_node = node if self.union_count == unions else self.canonicalize(p_node)
            seen = new_parents.get(p_node)
            if seen is not None:
                self.merge(p_class, seen)
            new_parents[p_node] = find(p_class)
        # merges above may have folded another class into this one (cycles),
        # appending parents beyond the snapshot, or merged this class away
        # entirely; either way the class is back on the worklist, so keep
        # the unprocessed entries for the next chunk
        if self.classes.get(find(class_id)) is eclass:
            extra = eclass.parents[len(parents):]
            eclass.parents = list(new_parents.items()) + extra

        # analysis maintenance: modify this class, then, if its data changed
        # since its parents were last made, re-make and re-join the data of
        # every parent, marking and re-enqueueing parents whose data changed.
        # make reads only the children's data, so an unmarked class's
        # parents would be re-made to what they already hold.
        class_id = find(class_id)
        self.analysis.modify(self, class_id)
        class_id = find(class_id)
        marked = self.data_changed
        if class_id not in marked:
            return
        marked.discard(class_id)
        for p_node, p_class in list(self.classes[class_id].parents):
            p_id = find(p_class)
            p_eclass = self.classes[p_id]
            made = self.analysis.make(self, self.canonicalize(p_node))
            new_data, changed = self.analysis.join(p_eclass.data, made)
            if changed:
                p_eclass.data = new_data
                marked.add(p_id)
                self.worklist.append(p_id)

    def _finish_rebuild(self) -> None:
        """Canonicalize, deduplicate, and sort every class's node list, then
        reconstruct the hashcons and op index so they hold exactly the
        canonical nodes.  Repair leaves unreachable stale keys behind when a
        node's other children merge later; this pass drops them."""
        n_nodes = 0
        hashcons: dict[ENode, int] = {}
        op_index: dict[Op, list[int]] = {}
        # only add inserts classes, with fresh ids, so the map ascends
        for class_id, eclass in self.classes.items():
            canon = sorted(
                {self.canonicalize(n) for n in eclass.nodes}, key=enode_sort_key
            )
            eclass.nodes = canon
            n_nodes += len(canon)
            for node in canon:
                hashcons[node] = class_id
                bucket = op_index.setdefault(node.op, [])
                if not bucket or bucket[-1] != class_id:
                    bucket.append(class_id)
        self._n_nodes = n_nodes
        self.hashcons = hashcons
        self._op_index = op_index
        self.clean = True

    # ------------------------------------------------------------------
    # verification and serialization

    def invariant_check(self) -> list[str]:
        """Exhaustively verify the congruence, hashcons, and analysis
        invariants; returns a list of violations (empty iff clean)."""
        violations = []
        find = self.uf.find
        owner: dict[ENode, int] = {}
        for class_id, eclass in self.classes.items():
            if find(class_id) != class_id:
                violations.append(f"class map key {class_id} is not canonical")
            keys = [enode_sort_key(n) for n in eclass.nodes]
            if any(a >= b for a, b in zip(keys, keys[1:])):
                violations.append(
                    f"nodes of class {class_id} are not sorted and deduplicated"
                )
            for node in eclass.nodes:
                canon = self.canonicalize(node)
                if canon != node:
                    violations.append(f"stale node {node} in class {class_id}")
                prior = owner.get(canon)
                if prior is not None and prior != class_id:
                    violations.append(
                        f"congruence violation: {canon} in classes {prior} and {class_id}"
                    )
                owner[canon] = class_id

        # what the class pass builds and what queries rely on
        ids, ascending = list(self.classes), sorted(self.classes)
        if ids != ascending:
            violations.append("class map ids do not ascend")
        n_nodes = sum(len(eclass.nodes) for eclass in self.classes.values())
        if self._n_nodes != n_nodes:
            violations.append(f"n_nodes() is {self._n_nodes}, classes hold {n_nodes}")
        op_index: dict[Op, list[int]] = {}
        for class_id in ascending:
            for op in dict.fromkeys(n.op for n in self.classes[class_id].nodes):
                op_index.setdefault(op, []).append(class_id)
        for op in {**op_index, **self._op_index}:
            bucket, expected = self._op_index.get(op, []), op_index.get(op, [])
            if bucket != expected:
                violations.append(
                    f"op index for {op!r} is {bucket}, expected {expected}"
                )
        if self.data_changed:
            violations.append(
                f"classes {sorted(self.data_changed)} still owe their parents a re-make"
            )

        for node, target in self.hashcons.items():
            if self.canonicalize(node) != node:
                violations.append(f"hashcons key {node} is not canonical")
            elif node not in owner:
                violations.append(f"hashcons key {node} not in any class")
            elif target != owner[node]:
                violations.append(
                    f"hashcons maps {node} to {target}, expected {owner[node]}"
                )
        for node, class_id in owner.items():
            if node not in self.hashcons:
                violations.append(f"hashcons entry missing for {node}")

        for class_id, eclass in self.classes.items():
            for node in eclass.nodes:
                for child in dict.fromkeys(node.children):
                    child_class = self.classes.get(find(child))
                    ok = child_class is not None and any(
                        self.canonicalize(p) == node and find(pc) == class_id
                        for p, pc in child_class.parents
                    )
                    if not ok:
                        violations.append(
                            f"parent list of class {find(child)} misses {node}"
                        )

        violations.extend(self._check_analysis_invariant())
        return violations

    def _check_analysis_invariant(self) -> list[str]:
        violations = []
        for class_id, eclass in list(self.classes.items()):
            if not eclass.nodes:
                continue
            try:
                joined = self.analysis.make(self, eclass.nodes[0])
                for node in eclass.nodes[1:]:
                    joined, _ = self.analysis.join(joined, self.analysis.make(self, node))
            except Exception as exc:  # surfaced as a violation, not a crash
                violations.append(f"analysis recomputation failed on {class_id}: {exc}")
                continue
            if joined != eclass.data:
                violations.append(
                    f"analysis data of class {class_id} is {eclass.data!r}, "
                    f"recomputed join gives {joined!r}"
                )
        # modify may add and merge, so probe it on a copy: checking never
        # changes the graph it checks
        probe = copy.deepcopy(self)
        before = (len(probe.classes), probe._n_nodes, probe.union_count)
        for class_id in list(probe.classes):
            probe.analysis.modify(probe, probe.uf.find(class_id))
        if (len(probe.classes), probe._n_nodes, probe.union_count) != before:
            violations.append("analysis modify hook is not at a fixpoint")
        return violations

    def format_node(self, node: ENode) -> str:
        if isinstance(node.op, Leaf):
            return leaf_to_str(node.op)
        if not node.children:
            return node.op
        return "(" + " ".join([node.op] + [str(c) for c in node.children]) + ")"

    def dump(self) -> str:
        """One line per canonical class: `<id>: {node, ...} data=<analysis>`."""
        lines = []
        for class_id in sorted(self.classes):
            eclass = self.classes[class_id]
            nodes = ", ".join(self.format_node(n) for n in eclass.nodes)
            lines.append(
                f"{class_id}: {{{nodes}}} data={self.analysis.show(eclass.data)}"
            )
        return "\n".join(lines)

    def to_json_dict(self) -> dict:
        def op_json(op: Op):
            if isinstance(op, Leaf):
                return {op.kind: leaf_to_str(op)}
            return op

        return {
            "schema": 1,
            "eclasses": len(self.classes),
            "enodes": self._n_nodes,
            "unionfind": list(self.uf.parent),
            "classes": {
                str(cid): {
                    "nodes": [
                        [op_json(n.op), list(n.children)] for n in eclass.nodes
                    ],
                    "data": self.analysis.show(eclass.data),
                }
                for cid, eclass in sorted(self.classes.items())
            },
        }
