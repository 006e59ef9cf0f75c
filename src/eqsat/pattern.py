"""Patterns with variables and e-matching.

Patterns compile to a small instruction program that a backtracking
virtual machine runs against the classes of a clean graph.  ``ematch`` runs
it over every candidate class and returns the substitutions under which
the pattern is represented there.  The candidates of a pattern with a ground
leaf are found by walking up from that leaf's class; the matches are sorted
only when read.
"""
from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import repeat
from operator import itemgetter
from typing import Iterable, NamedTuple, Optional

from .egraph import EGraph, ENode
from .language import LanguageDef, Leaf, Op, is_var, print_term, read_one


@dataclass(frozen=True)
class Pattern:
    """A term whose leaves may be variables (``Leaf("var", "?x")``), stored
    flat in postorder like ``Term``.  Its match program is compiled once,
    when the pattern is built."""

    nodes: tuple[tuple[Op, tuple[int, ...]], ...]
    program: "MatchProgram" = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "program", compile_pattern(self))

    def vars(self) -> tuple[str, ...]:
        """Variable names in first-occurrence order, deduplicated."""
        return tuple(dict.fromkeys(op.value for op, _ in self.nodes if is_var(op)))

    def __str__(self) -> str:
        return print_term(self)


def parse_pattern(text: str, lang: LanguageDef) -> Pattern:
    """Parse pattern text; atoms prefixed with `?` are variables."""
    return Pattern(read_one(text, lang, allow_vars=True))


# ----------------------------------------------------------------------
# compilation to a small virtual machine

class Bind(NamedTuple):
    """Check that the class held by `reg` has a node with this op/arity and
    load its children into registers `out` .. `out+arity-1`, trying every
    such node in turn.  A childless Bind is one hashcons probe."""

    reg: int
    op: object
    arity: int
    out: int


class Compare(NamedTuple):
    """Nonlinear-variable consistency: both registers must hold the same
    class."""

    reg: int
    other: int


@dataclass(frozen=True)
class MatchProgram:
    """A compiled pattern.  `anchor` is the ground leaf nearest the root
    (first in breadth-first order) and `path` the ``(op, arity, child
    position)`` steps from that leaf up to the root; a pattern whose root
    is a variable or a leaf, or that has no ground leaf, has no anchor."""

    instructions: tuple
    var_regs: tuple[tuple[str, int], ...]  # (variable name, register), by name
    n_regs: int
    anchor: Optional[Op] = None
    path: tuple[tuple[Op, int, int], ...] = ()


def compile_pattern(pattern: Pattern) -> MatchProgram:
    nodes = pattern.nodes
    instructions = []
    var_regs: dict[str, int] = {}
    n_regs = 1
    todo: list[tuple[int, int]] = [(len(nodes) - 1, 0)]
    above: list[tuple[int, int]] = [(0, 0)]  # (parent's place in todo, child position)
    leaf_at = 0
    # breadth-first: the loop visits what it appends
    for at, (index, reg) in enumerate(todo):
        op, kids = nodes[index]
        if is_var(op):
            if op.value in var_regs:
                instructions.append(Compare(reg, var_regs[op.value]))
            else:
                var_regs[op.value] = reg
        else:
            if not kids and not leaf_at:
                leaf_at = at
            instructions.append(Bind(reg, op, len(kids), n_regs))
            for i, kid in enumerate(kids):
                todo.append((kid, n_regs + i))
                above.append((at, i))
            n_regs += len(kids)
    anchor = nodes[todo[leaf_at][0]][0] if leaf_at else None
    path = []
    while leaf_at:  # from the anchor up to the root
        leaf_at, position = above[leaf_at]
        op, kids = nodes[todo[leaf_at][0]]
        path.append((op, len(kids), position))
    return MatchProgram(
        tuple(instructions), tuple(sorted(var_regs.items())), n_regs, anchor, tuple(path)
    )


def run_program(
    egraph: EGraph,
    program: MatchProgram,
    candidates: Iterable[tuple[int, Sequence[ENode]]],
) -> list[tuple[int, list[tuple[int, ...]]]]:
    """Execute a match program on a clean graph.  Each candidate is a class
    id and the distinct canonical nodes of that class that the root Bind
    searches for its op: the class's sorted node list, or nodes that all
    have the root op.  Returns ``(class id, matches)`` for the candidates
    that match, each match a tuple of class ids with one slot per variable
    in ``program.var_regs`` order.

    The matches of a class are distinct, in no particular order.  No set
    is needed: every node list the VM tries is deduplicated, and a canonical
    node lives in one class, so a binding tuple rebuilds bottom-up the one
    node each Bind picked (a leaf's node, or the op over the classes of its
    children) and the class it sits in; two different paths through the
    choices cannot give the same tuple.

    Every id the VM reads is already canonical in a clean graph, so it
    compares registers without ``find``.  Backtracking is an explicit stack
    of Bind frames ``[pc, nodes, next index, end]``."""
    code = program.instructions
    end = len(code)
    slots = [reg for _, reg in program.var_regs]
    # itemgetter returns a tuple only for two or more indexes
    pick = (
        itemgetter(*slots) if len(slots) > 1 else lambda r: tuple([r[i] for i in slots])
    )
    regs = [0] * program.n_regs
    classes, hashcons = egraph.classes, egraph.hashcons
    stack: list[list] = []
    results = []
    for class_id, roots in candidates:
        regs[0] = class_id
        found: list[tuple[int, ...]] = []
        pc = 0
        while True:
            while pc < end:
                ins = code[pc]
                if ins.__class__ is Compare:
                    if regs[ins.reg] != regs[ins.other]:
                        break
                elif not ins.arity:
                    # (op, ()) hashes and compares like ENode(op, ())
                    if hashcons.get((ins.op, ())) != regs[ins.reg]:
                        break
                else:
                    nodes = classes[regs[ins.reg]].nodes if pc else roots
                    op = ins.op
                    lo, hi = 0, len(nodes)
                    while lo < hi:  # bisect the operator prefix; leaves compare high
                        mid = (lo + hi) // 2
                        mid_op = nodes[mid].op
                        if mid_op.__class__ is str and mid_op < op:
                            lo = mid + 1
                        else:
                            hi = mid
                    hi = lo
                    while hi < len(nodes) and nodes[hi].op == op:
                        hi += 1
                    if pc + 1 < end:
                        stack.append([pc, nodes, lo, hi])
                        break
                    # the last instruction: each node in the run is a match
                    base, arity = ins.out, ins.arity
                    for node in nodes[lo:hi]:
                        kids = node.children
                        if len(kids) == arity:
                            regs[base : base + arity] = kids
                            found.append(pick(regs))
                    break
                pc += 1
            else:
                found.append(pick(regs))
            # resume the innermost Bind that has a node left to try
            while stack:
                frame = stack[-1]
                pc, nodes, i, hi = frame
                if i == hi:
                    stack.pop()
                    continue
                frame[2] = i + 1
                kids = nodes[i].children
                ins = code[pc]
                if len(kids) == ins.arity:
                    regs[ins.out : ins.out + ins.arity] = kids
                    pc += 1
                    break
            else:
                break
        if found:
            results.append((class_id, found))
    return results


def _anchored_roots(
    egraph: EGraph, program: MatchProgram
) -> list[tuple[int, list[ENode]]]:
    """The classes, ascending, whose nodes can sit at the pattern's root
    above its anchor leaf, each with those canonical root nodes: a walk up
    the parent lists from the leaf's class along `program.path`.  Parent
    lists may hold stale and repeated entries, hence ``find`` and the
    deduplication."""
    leaf_class = egraph.hashcons.get((program.anchor, ()))
    if leaf_class is None:
        return []
    classes, find, canonicalize = egraph.classes, egraph.uf.find, egraph.canonicalize
    level: dict = {leaf_class: None}
    for op, arity, pos in program.path:
        up: dict[int, dict[ENode, None]] = {}
        for class_id in level:
            for node, owner in classes[class_id].parents:
                kids = node.children
                if node.op == op and len(kids) == arity and find(kids[pos]) == class_id:
                    up.setdefault(find(owner), {})[canonicalize(node)] = None
        level = up
    return [(class_id, list(level[class_id])) for class_id in sorted(level)]


class Substitutions(Sequence):
    """A read-only list of substitutions kept as the VM's id tuples: one
    slot per name in `names`.  Reading an item builds its dict; ``len``
    needs none.  Compares equal to the list of dicts it reads as.

    It owns the list it is given and sorts it in place the first time
    `ids`, an item or an iteration is read; ``len`` never sorts, so a
    caller that only counts (a backoff ban) pays for no sort."""

    __slots__ = ("names", "_ids", "_sorted")

    def __init__(self, names: tuple[str, ...], ids: list[tuple[int, ...]]):
        self.names = names
        self._ids = ids
        self._sorted = False

    @property
    def ids(self) -> list[tuple[int, ...]]:
        """The id tuples, sorted."""
        if not self._sorted:
            self._ids.sort()
            self._sorted = True
        return self._ids

    def __len__(self) -> int:
        return len(self._ids)

    def __getitem__(self, index):
        names = self.names
        if isinstance(index, slice):
            return [dict(zip(names, ids)) for ids in self.ids[index]]
        return dict(zip(names, self.ids[index]))

    def __iter__(self):
        return map(dict, map(zip, repeat(self.names), self.ids))

    def __eq__(self, other):
        if isinstance(other, (list, Substitutions)):
            return list(self) == list(other)
        return NotImplemented

    __hash__ = None  # like the list it stands for

    def __repr__(self) -> str:
        return repr(list(self))


class SearchMatches(NamedTuple):
    """All substitutions under which a pattern matched one e-class."""

    eclass: int
    substs: Substitutions


def ematch(egraph: EGraph, pattern: Pattern) -> list[SearchMatches]:
    """Find every (substitution, class) pair where the pattern is
    represented: sound and complete up to canonicalization, read-only,
    results sorted by class id, each class's substitutions distinct and
    sorted, as read, by their class ids in variable-name order.

    A pattern with an anchor leaf starts from that leaf's class and walks
    up to the root nodes above it; any other tries the root op's run in
    every class that has the op (every class, for a variable)."""
    egraph.require_clean("ematch")
    program = pattern.program
    if program.anchor is not None:
        candidates = _anchored_roots(egraph, program)
    else:
        root = pattern.nodes[-1][0]
        class_ids = egraph.class_ids() if is_var(root) else egraph.classes_with_op(root)
        classes = egraph.classes
        candidates = [(c, classes[c].nodes) for c in class_ids]  # ascending when clean
    names = tuple([name for name, _ in program.var_regs])
    return [
        SearchMatches(class_id, Substitutions(names, matches))
        for class_id, matches in run_program(egraph, program, candidates)
    ]


class UnboundVariable(KeyError):
    pass


def _instantiate(pattern: Pattern, subst: dict[str, int], node_class) -> Optional[int]:
    """Postorder loop over the pattern: variables read from the substitution,
    every other node passed to `node_class`; None as soon as that gives None."""
    ids: list[int] = []
    for op, kids in pattern.nodes:
        if isinstance(op, Leaf) and op.kind == "var":  # is_var, inlined: hot loop
            try:
                ids.append(subst[op.value])
            except KeyError:
                raise UnboundVariable(op.value) from None
        else:
            found = node_class(ENode(op, tuple([ids[k] for k in kids])))
            if found is None:
                return None
            ids.append(found)
    return ids[-1]


def apply_subst(pattern: Pattern, subst: dict[str, int], egraph: EGraph) -> int:
    """Instantiate a pattern bottom-up via add; returns the root class id."""
    return _instantiate(pattern, subst, egraph.add)


def lookup_subst(
    pattern: Pattern, subst: dict[str, int], egraph: EGraph
) -> Optional[int]:
    """Like apply_subst but read-only: returns the class id the instantiated
    pattern would land in, or None if any piece of it is absent."""
    found = _instantiate(pattern, subst, egraph.lookup)
    return None if found is None else egraph.find(found)
