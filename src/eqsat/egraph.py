"""The e-graph: union-find over class ids, class map, hashcons, and the
deferred rebuilding algorithm that restores its invariants.

Mutating operations (``add``, ``merge``) are cheap and may leave the graph
dirty; ``rebuild`` drains a deduplicated worklist of merged classes,
re-canonicalizing hashcons entries and upward-merging congruent parents,
then re-makes the parent nodes whose children's analysis data rose, until
every invariant holds again.  It then sorts only the classes it touched.
The hashcons, the op index and so the node count are kept exact by ``add``,
``merge`` and repair alone.  Calling ``rebuild`` after every merge reproduces
the traditional eager behavior; deferring it amortizes the work.
"""
from __future__ import annotations

from bisect import bisect_left
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


class _ProbeChange(Exception):
    """An analysis ``modify`` hook tried to change the graph while
    ``invariant_check`` probed it."""


class DirtyGraphError(AssertionError):
    """A query that needs the invariants (e-matching, extraction) was given
    a graph with merges not yet rebuilt; call ``rebuild`` first."""


class EClass:
    """An equivalence class: member nodes, parent back-references, and
    analysis data.  ``parents`` records every e-node that has this class as
    a child together with the class that e-node belongs to."""

    __slots__ = ("nodes", "parents", "data")

    def __init__(self, nodes: list[ENode], data=None):
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
        root = parent[x]
        if root == x:
            return x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    def union_into(self, leader: int, follower: int) -> int:
        self.parent[follower] = leader
        return leader


class EGraph:
    """The tuple (union-find, class map, hashcons) plus two rebuild worklists.

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
        # (parent node, parent class) pairs whose children's data rose
        self.analysis_pending: list[tuple[ENode, int]] = []
        self.clean = True
        # rebuild_after_merge emulates eager invariant maintenance: every
        # top-level merge immediately drains the worklist.
        self.rebuild_after_merge = rebuild_after_merge
        self._in_rebuild = False
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
        # an id is canonical iff it is its own union-find parent
        parent = self.uf.parent
        for child in node.children:
            if parent[child] != child:
                find = self.uf.find
                return ENode(node.op, tuple([find(c) for c in node.children]))
        return node

    def lookup(self, node: ENode) -> Optional[int]:
        found = self.hashcons.get(self.canonicalize(node))
        return None if found is None else self.uf.find(found)

    def __getitem__(self, class_id: int) -> EClass:
        if self.uf.parent[class_id] != class_id:
            class_id = self.uf.find(class_id)
        return self.classes[class_id]

    def n_classes(self) -> int:
        return len(self.classes)

    def n_nodes(self) -> int:
        return len(self.hashcons)

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
        eclass = EClass([node])
        self.classes[class_id] = eclass
        for child in dict.fromkeys(node.children):
            self.classes[child].parents.append((node, class_id))
        self.hashcons[node] = class_id
        # a fresh id is the largest yet, so the bucket stays sorted
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
        # re-making if the joined data differs from it
        if changed:
            self.analysis_pending.extend(ca.parents)
        if data != cb.data:
            self.analysis_pending.extend(cb.parents)
        for op in {n.op for n in cb.nodes}:
            bucket = self._op_index[op]
            del bucket[bisect_left(bucket, rb)]
            at = bisect_left(bucket, ra)
            if at == len(bucket) or bucket[at] != ra:
                bucket.insert(at, ra)
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
        When it is empty, one deduplicated chunk of pending parents is re-made.
        Only the classes repaired or holding a re-keyed parent are sorted.
        """
        if self._in_rebuild:
            return
        self.rebuild_calls += 1
        self._in_rebuild = True
        find = self.uf.find
        touched: set[int] = set()
        rekeyed: list[tuple[ENode, int]] = []
        try:
            while self.worklist or self.analysis_pending:
                if self.worklist:
                    todo = self.worklist
                    self.worklist = []
                    for class_id in sorted({find(c) for c in todo}):
                        touched.add(class_id)
                        rekeyed.extend(self._repair(find(class_id)))
                    continue
                # a class whose data rises goes on no worklist: no node changed
                todo = dict.fromkeys(
                    (self.canonicalize(n), find(c)) for n, c in self.analysis_pending
                )
                self.analysis_pending = []
                for node, class_id in todo:
                    eclass = self.classes[find(class_id)]
                    made = self.analysis.make(self, node)
                    data, changed = self.analysis.join(eclass.data, made)
                    if changed:
                        eclass.data = data
                        self.analysis_pending.extend(eclass.parents)
                        self.analysis.modify(self, find(class_id))
            self._finish_rebuild(touched, rekeyed)
        finally:
            self._in_rebuild = False

    def _repair(self, class_id: int) -> list[tuple[ENode, int]]:
        """Re-key and upward-merge the parents of one class.  Returns the
        (new key, parent class) pairs of the parents whose form changed."""
        self.repair_calls += 1
        eclass = self.classes[class_id]
        find = self.uf.find

        # per parent: drop its stale hashcons key, install the canonical
        # one, and merge it with an earlier parent of the same canonical
        # form (upward merging), which pushes further worklist entries
        parents = list(eclass.parents)
        new_parents: dict[ENode, int] = {}
        rekeyed = []
        for p_node, p_class in parents:
            self.hashcons.pop(p_node, None)
            node = self.canonicalize(p_node)
            self.hashcons[node] = find(p_class)
            self.hashcons_updates += 2
            if node is not p_node:
                rekeyed.append((node, p_class))
            seen = new_parents.get(node)
            if seen is not None:
                self.merge(p_class, seen)
            new_parents[node] = find(p_class)
        # merges above may have folded another class into this one (cycles),
        # appending parents beyond the snapshot, or merged this class away
        # entirely; either way the class is back on the worklist, so keep
        # the unprocessed entries for the next chunk
        if self.classes.get(find(class_id)) is eclass:
            extra = eclass.parents[len(parents):]
            eclass.parents = list(new_parents.items()) + extra

        self.analysis.modify(self, find(class_id))
        return rekeyed

    def _finish_rebuild(
        self, touched: set[int], rekeyed: list[tuple[ENode, int]]
    ) -> None:
        """Canonicalize, deduplicate, and sort the node lists of the touched
        classes and of the owners of re-keyed parents, re-keying their
        hashcons entries; no other class holds a stale node.  A key that
        repair installed goes stale when another child of its node merges
        later in the same rebuild; it is dropped first."""
        find, hashcons = self.uf.find, self.hashcons
        for node, p_class in rekeyed:
            if self.canonicalize(node) is not node:
                hashcons.pop(node, None)
            touched.add(p_class)
        for class_id in {find(c) for c in touched}:
            eclass = self.classes[class_id]
            for node in eclass.nodes:
                hashcons.pop(node, None)
            eclass.nodes = sorted(
                {self.canonicalize(n) for n in eclass.nodes}, key=enode_sort_key
            )
            hashcons.update(dict.fromkeys(eclass.nodes, class_id))
        self.clean = True

    # ------------------------------------------------------------------
    # verification and serialization

    def invariant_check(self) -> list[str]:
        """Exhaustively verify the congruence, hashcons, and analysis
        invariants; returns a list of violations (empty iff clean).  It
        shadows ``add`` and ``merge`` while it probes the analysis, so like
        a mutation it needs exclusive access."""
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

        # what add, merge and rebuild keep up and what queries rely on
        ids, ascending = list(self.classes), sorted(self.classes)
        if ids != ascending:
            violations.append("class map ids do not ascend")
        n_nodes = sum(len(eclass.nodes) for eclass in self.classes.values())
        if self.n_nodes() != n_nodes:
            violations.append(f"n_nodes() is {self.n_nodes()}, classes hold {n_nodes}")
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
        if self.analysis_pending:
            violations.append(
                f"{len(self.analysis_pending)} parent nodes still await an analysis re-make"
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

        # each child class's canonical (parent node, parent class) pairs,
        # built once: a scan per (node, child) is quadratic in fan-out
        parent_pairs: dict[int, set[tuple[ENode, int]]] = {}
        for class_id, eclass in self.classes.items():
            for node in eclass.nodes:
                for child in dict.fromkeys(node.children):
                    child_id = find(child)
                    pairs = parent_pairs.get(child_id)
                    if pairs is None and child_id in self.classes:
                        pairs = parent_pairs[child_id] = {
                            (self.canonicalize(p), find(pc))
                            for p, pc in self.classes[child_id].parents
                        }
                    if pairs is None or (node, class_id) not in pairs:
                        violations.append(f"parent list of class {child_id} misses {node}")

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
        # modify may add and merge; probe it in place with both shadowed, so
        # that a call that would change the graph raises instead: checking
        # never changes the graph it checks
        def probe_add(node: ENode) -> int:
            found = self.lookup(node)
            if found is None:
                raise _ProbeChange
            return found

        def probe_merge(a: int, b: int) -> int:
            if self.find(a) != self.find(b):
                raise _ProbeChange
            return self.find(a)

        self.add, self.merge = probe_add, probe_merge
        try:
            for class_id in list(self.classes):
                self.analysis.modify(self, self.find(class_id))
        except _ProbeChange:
            violations.append("analysis modify hook is not at a fixpoint")
        finally:
            del self.add, self.merge
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
            "enodes": self.n_nodes(),
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
