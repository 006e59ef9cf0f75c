"""Independent oracles and generators shared across the test suite.

Everything here deliberately avoids the library's own algorithms: congruence
closure by naive fixpoint scanning, pattern matching by direct recursion,
minimum term size by depth-bounded dynamic programming.
"""
from __future__ import annotations

import contextlib
import random
import sys
from fractions import Fraction

from eqsat import EGraph, ENode, Leaf, Term, build_cost_table, ematch, num, sym
from eqsat.language import leaf_to_str


class NaiveCongruence:
    """Reference congruence closure: plain lists, no hashcons, no worklist.

    Mirrors the e-graph API (add returns an id, merge unions) and restores
    congruence by rescanning all node pairs until a fixpoint.
    """

    def __init__(self):
        self.nodes: list[tuple[object, tuple[int, ...]]] = []
        self.parent: list[int] = []

    def find(self, x: int) -> int:
        while self.parent[x] != x:
            x = self.parent[x]
        return x

    def _union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra

    def add(self, op, children: tuple[int, ...]) -> int:
        key = (op, tuple(self.find(c) for c in children))
        for i, (node_op, kids) in enumerate(self.nodes):
            if node_op == op and tuple(self.find(c) for c in kids) == key[1]:
                return self.find(i)
        self.nodes.append((op, children))
        self.parent.append(len(self.nodes) - 1)
        return len(self.nodes) - 1

    def merge(self, a: int, b: int) -> None:
        self._union(a, b)

    def close(self) -> None:
        changed = True
        while changed:
            changed = False
            groups: dict[tuple, int] = {}
            for i, (op, kids) in enumerate(self.nodes):
                key = (op, tuple(self.find(c) for c in kids))
                seen = groups.get(key)
                if seen is None:
                    groups[key] = i
                elif self.find(seen) != self.find(i):
                    self._union(seen, i)
                    changed = True

    def equiv(self, a: int, b: int) -> bool:
        return self.find(a) == self.find(b)


SIGNATURE = {"a": 0, "b": 0, "f": 1, "g": 2, "h": 2}


def random_operations(rng: random.Random, max_adds=40, max_merges=15):
    """A random script of ('add', op, child slots) / ('merge', i, j) steps,
    merges interleaved anywhere after both their referents exist."""
    n_adds = rng.randint(2, max_adds)
    adds = [("add", "a", ()), ("add", "b", ())]
    while len(adds) < n_adds:
        op = rng.choice(sorted(SIGNATURE))
        arity = SIGNATURE[op]
        adds.append(
            ("add", op, tuple(rng.randrange(len(adds)) for _ in range(arity)))
        )
    gaps: dict[int, list] = {g: [] for g in range(n_adds + 1)}
    for _ in range(rng.randint(0, max_merges)):
        i, j = rng.randrange(n_adds), rng.randrange(n_adds)
        gaps[rng.randint(max(i, j) + 1, n_adds)].append(("merge", i, j))
    script = []
    for done, add in enumerate(adds, start=1):
        script.append(add)
        script.extend(gaps[done])
    return script


def leaf_for(op: str) -> Leaf:
    return sym(op)


def run_script_on_egraph(egraph: EGraph, script, ids=None) -> list[int]:
    """Execute an operation script; returns the id recorded per add.
    Passing an ids list resumes a partially executed script."""
    ids = [] if ids is None else ids
    for step in script:
        if step[0] == "add":
            _, op, slots = step
            children = tuple(ids[s] for s in slots)
            if SIGNATURE[op] == 0:
                ids.append(egraph.add(ENode(leaf_for(op), ())))
            else:
                ids.append(egraph.add(ENode(op, children)))
        else:
            _, i, j = step
            egraph.merge(ids[i], ids[j])
    return ids


def run_script_on_oracle(oracle: NaiveCongruence, script) -> list[int]:
    ids: list[int] = []
    for step in script:
        if step[0] == "add":
            _, op, slots = step
            children = tuple(ids[s] for s in slots)
            key = leaf_for(op) if SIGNATURE[op] == 0 else op
            ids.append(oracle.add(key, children))
        else:
            _, i, j = step
            oracle.merge(ids[i], ids[j])
    return ids


def same_partition(pairs_a, pairs_b, ids_a, ids_b) -> bool:
    """Do two id assignments induce the same partition over script indexes?"""
    n = len(ids_a)
    for i in range(n):
        for j in range(i + 1, n):
            if pairs_a(ids_a[i], ids_a[j]) != pairs_b(ids_b[i], ids_b[j]):
                return False
    return True


def is_pattern_var(op) -> bool:
    return isinstance(op, Leaf) and op.kind == "var"


def naive_match_node(egraph: EGraph, pattern, index: int, class_id: int, subst: dict):
    """Direct recursive e-matching of the pattern node at `index`, the
    reference for the compiled matcher."""
    class_id = egraph.find(class_id)
    op, kids = pattern.nodes[index]
    if is_pattern_var(op):
        bound = subst.get(op.value)
        if bound is not None:
            return [subst] if egraph.find(bound) == class_id else []
        extended = dict(subst)
        extended[op.value] = class_id
        return [extended]
    results = []
    for enode in egraph.classes[class_id].nodes:
        if enode.op != op or len(enode.children) != len(kids):
            continue
        partial = [subst]
        for pat_child, child in zip(kids, enode.children):
            partial = [
                ext
                for s in partial
                for ext in naive_match_node(egraph, pattern, pat_child, child, s)
            ]
        results.extend(partial)
    return results


def naive_ematch(egraph: EGraph, pattern):
    out = []
    for class_id in sorted(egraph.classes):
        substs = naive_match_node(egraph, pattern, -1, class_id, {})
        canon = {}
        for s in substs:
            fixed = {k: egraph.find(v) for k, v in s.items()}
            canon.setdefault(tuple(sorted(fixed.items())), fixed)
        if canon:
            out.append((class_id, sorted(canon.values(), key=lambda s: tuple(sorted(s.items())))))
    return out


def min_size_by_depth(egraph: EGraph, class_id: int, depth: int):
    """Minimum AST size over terms represented in the class at bounded
    depth, by dynamic programming; None when no term fits in the budget."""
    cache: dict[tuple[int, int], object] = {}

    def go(cid: int, d: int):
        cid = egraph.find(cid)
        if d <= 0:
            return None
        key = (cid, d)
        if key in cache:
            return cache[key]
        cache[key] = None  # cycle cut within this depth budget
        best = None
        for node in egraph.classes[cid].nodes:
            total = 1
            for child in node.children:
                sub = go(child, d - 1)
                if sub is None:
                    total = None
                    break
                total += sub
            if total is not None and (best is None or total < best):
                best = total
        cache[key] = best
        return best

    return go(class_id, depth)


def enumerate_terms(egraph: EGraph, class_id: int, depth: int) -> list[Term]:
    """All terms represented in the class within the depth budget."""
    def go(cid: int, d: int) -> list[Term]:
        cid = egraph.find(cid)
        if d <= 0:
            return []
        out = []
        for node in egraph.classes[cid].nodes:
            if isinstance(node.op, Leaf):
                out.append(Term.leaf(node.op))
                continue
            options = [go(c, d - 1) for c in node.children]
            if any(not opt for opt in options):
                continue
            stack = [()]
            for opts in options:
                stack = [chosen + (t,) for chosen in stack for t in opts]
            out.extend(Term.apply(node.op, *chosen) for chosen in stack)
        return out

    return go(class_id, depth)


def enumerate_decorated(egraph: EGraph, class_id: int, depth: int):
    """Represented terms annotated with the class of every node, as nested
    (class_id, op, children) tuples; the frontier for matching oracles."""

    def go(cid: int, d: int):
        cid = egraph.find(cid)
        if d <= 0:
            return []
        out = []
        for node in egraph.classes[cid].nodes:
            if isinstance(node.op, Leaf):
                out.append((cid, node.op, ()))
                continue
            options = [go(c, d - 1) for c in node.children]
            if any(not opt for opt in options):
                continue
            combos = [()]
            for opts in options:
                combos = [c + (t,) for c in combos for t in opts]
            out.extend((cid, node.op, combo) for combo in combos)
        return out

    return go(class_id, depth)


def syntactic_match(egraph: EGraph, pattern, index: int, decorated, subst):
    """Match the pattern node at `index` against one decorated term, binding
    variables to the classes of the subterms they cover."""
    cid, op, kids = decorated
    p_op, p_kids = pattern.nodes[index]
    if is_pattern_var(p_op):
        bound = subst.get(p_op.value)
        if bound is not None:
            return [subst] if egraph.find(bound) == egraph.find(cid) else []
        extended = dict(subst)
        extended[p_op.value] = egraph.find(cid)
        return [extended]
    if op != p_op or len(kids) != len(p_kids):
        return []
    outs = [subst]
    for p_child, d_child in zip(p_kids, kids):
        outs = [
            ext
            for s in outs
            for ext in syntactic_match(egraph, pattern, p_child, d_child, s)
        ]
    return outs


def pattern_depth(pattern, index: int = -1) -> int:
    _, kids = pattern.nodes[index]
    return 1 + max((pattern_depth(pattern, k) for k in kids), default=0)


def random_term(rng: random.Random, lang, depth: int, symbols=("a", "b", "c")) -> Term:
    if depth <= 1 or rng.random() < 0.3:
        if "num" in lang.leaf_kinds and rng.random() < 0.5:
            return Term.leaf(num(rng.randint(-3, 3)))
        return Term.leaf(sym(rng.choice(symbols)))
    op = rng.choice(sorted(lang.operators))
    arity = lang.operators[op]
    return Term.apply(op, *(random_term(rng, lang, depth - 1, symbols) for _ in range(arity)))


def random_small_egraph(rng: random.Random, lang, n_terms=4, n_merges=3):
    """Graph built from small random terms plus random merges, rebuilt."""
    egraph = EGraph()
    roots = [egraph.add_term(random_term(rng, lang, rng.randint(1, 3))) for _ in range(n_terms)]
    all_ids = list(egraph.classes)
    for _ in range(n_merges):
        if len(all_ids) >= 2:
            egraph.merge(rng.choice(all_ids), rng.choice(all_ids))
    egraph.rebuild()
    return egraph, roots


def random_rationals(rng: random.Random, names, lo=-6, hi=6):
    env = {}
    for name in names:
        denominator = rng.randint(1, 4)
        env[name] = Fraction(rng.randint(lo, hi), denominator)
    return env


@contextlib.contextmanager
def shallow_recursion_limit(headroom: int = 100):
    """Lower the recursion limit to the current frame depth plus `headroom`,
    so any walk that recurses once per term level fails on deep input."""
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    saved = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + headroom)
    try:
        yield
    finally:
        sys.setrecursionlimit(saved)


def reference_print(term: Term) -> str:
    """Render every subterm's full string bottom-up (quadratic in depth);
    the reference for print_term's output bytes."""
    rendered: list[str] = []
    for op, kids in term.nodes:
        if isinstance(op, Leaf):
            rendered.append(leaf_to_str(op))
        elif not kids:
            rendered.append(op)
        else:
            rendered.append("(" + " ".join([op] + [rendered[k] for k in kids]) + ")")
    return rendered[-1]


def term_key(term: Term):
    """Structural sort key of a term as nested tuples: operators before
    leaves, then operator name or leaf kind and value, then child keys."""
    keys = []
    for op, kids in term.nodes:
        if isinstance(op, Leaf):
            value = int(op.value) if op.kind == "bool" else op.value
            keys.append((1, op.kind, value, ()))
        else:
            keys.append((0, op, 0, tuple(keys[k] for k in kids)))
    return keys[-1]


def oracle_extracted_terms(egraph: EGraph, cost_fn) -> dict[int, Term]:
    """Per class, the least `term_key` term among the nodes achieving the
    class's minimum cost, built whole for every class.  Classes settle in
    ascending cost; within one cost, in rounds that see only the classes
    earlier rounds settled (a class settles in the first round in which
    some minimum-cost node has all its children settled), and what is not
    settled by the end of its cost waits for the next.  The costs come from
    build_cost_table; only the choice among minimum-cost nodes is redone."""
    costs = build_cost_table(egraph, cost_fn)
    terms: dict[int, Term] = {}
    pending: list[int] = []
    for cost in sorted(set(costs.values())):
        pending += [class_id for class_id in egraph.classes if costs.get(class_id) == cost]
        while pending:
            settled = {}
            for class_id in pending:
                best = None
                for node in egraph.classes[class_id].nodes:
                    if not all(c in terms for c in node.children):
                        continue
                    if cost_fn(node, [costs[c] for c in node.children]) != costs[class_id]:
                        continue
                    if isinstance(node.op, Leaf):
                        term = Term.leaf(node.op)
                    else:
                        term = Term.apply(node.op, *(terms[c] for c in node.children))
                    if best is None or term_key(term) < term_key(best):
                        best = term
                if best is not None:
                    settled[class_id] = best
            if not settled:
                break
            terms.update(settled)
            pending = [c for c in pending if c not in settled]
    return terms


def reference_cost_table(egraph: EGraph, cost_fn) -> dict:
    """Per class the least cost of a represented term, by full sweeps over
    the class map until one changes nothing: the reference for
    build_cost_table, which sweeps only classes whose children changed."""
    costs: dict = {}
    changed = True
    while changed:
        changed = False
        for class_id, eclass in egraph.classes.items():
            for node in eclass.nodes:
                if not all(c in costs for c in node.children):
                    continue
                cost = cost_fn(node, [costs[c] for c in node.children])
                if cost == float("inf"):
                    continue
                if class_id not in costs or cost < costs[class_id]:
                    costs[class_id] = cost
                    changed = True
    return costs


def matches_in_class(egraph: EGraph, pattern, class_id: int) -> bool:
    """Whether the pattern matches in the class of `class_id` (goal checks)."""
    root = egraph.find(class_id)
    return any(found.eclass == root for found in ematch(egraph, pattern))


def kept_matches(egraph: EGraph, rule, matches):
    """The matches whose conditions all hold on the clean graph, as
    ``(class id, substitutions)`` pairs: what `apply_rewrite` may be
    given, since it decides no condition itself."""
    kept = []
    for eclass, substs in matches:
        holding = [
            subst for subst in substs
            if all(cond(egraph, eclass, subst) for cond in rule.conditions)
        ]
        if holding:
            kept.append((eclass, holding))
    return kept


def run_without_memo(egraph: EGraph, roots, rules, iter_limit: int, scheduler="every"):
    """The saturation loop with no memo: every match the scheduler keeps
    whose conditions hold on the clean graph goes through `apply_rewrite`,
    every iteration, repeats included.  Same phases and stop test as
    `eqsat.run` without node, time or hook limits; returns the root class
    ids."""
    from eqsat.rewrite import apply_rewrite
    from eqsat.runner import make_scheduler

    scheduler = make_scheduler(scheduler)
    root_ids = [egraph.add_term(t) for t in roots]
    egraph.rebuild()
    for iteration in range(iter_limit):
        unions, nodes = egraph.union_count, egraph.n_nodes()
        collected, any_banned = [], False
        for rw in rules:
            if scheduler.banned(iteration, rw):
                any_banned = True
                continue
            matches, banned = scheduler.filter_matches(iteration, rw, rw.search(egraph))
            any_banned = any_banned or banned
            collected.append((rw, kept_matches(egraph, rw, matches)))
        for rw, matches in collected:
            apply_rewrite(egraph, rw, matches)
        egraph.rebuild()
        if egraph.union_count == unions and egraph.n_nodes() == nodes and not any_banned:
            break
    return root_ids
