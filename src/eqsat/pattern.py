"""Patterns with variables and e-matching.

Patterns compile to a small instruction program that a backtracking
virtual machine runs against the classes of a clean graph.  ``ematch`` runs
it over every candidate class and returns the substitutions under which
the pattern is represented there.
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
    instructions: tuple
    var_regs: tuple[tuple[str, int], ...]  # (variable name, register), by name
    n_regs: int


def compile_pattern(pattern: Pattern) -> MatchProgram:
    nodes = pattern.nodes
    instructions = []
    var_regs: dict[str, int] = {}
    n_regs = 1
    todo: list[tuple[int, int]] = [(len(nodes) - 1, 0)]
    for index, reg in todo:  # breadth-first: the loop visits what it appends
        op, kids = nodes[index]
        if is_var(op):
            if op.value in var_regs:
                instructions.append(Compare(reg, var_regs[op.value]))
            else:
                var_regs[op.value] = reg
        else:
            instructions.append(Bind(reg, op, len(kids), n_regs))
            for i, kid in enumerate(kids):
                todo.append((kid, n_regs + i))
            n_regs += len(kids)
    return MatchProgram(tuple(instructions), tuple(sorted(var_regs.items())), n_regs)


def run_program(
    egraph: EGraph, program: MatchProgram, class_ids: Iterable[int]
) -> list[tuple[int, list[tuple[int, ...]]]]:
    """Execute a match program against each given class of a clean graph;
    returns ``(class id, matches)`` for the classes that match, where the
    matches are distinct and sorted, each a tuple of class ids with one
    slot per variable in ``program.var_regs`` order.

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
    for class_id in class_ids:
        regs[0] = class_id
        found: set[tuple[int, ...]] = set()
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
                    nodes = classes[regs[ins.reg]].nodes
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
                            found.add(pick(regs))
                    break
                pc += 1
            else:
                found.add(pick(regs))
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
            results.append((class_id, sorted(found)))
    return results


class Substitutions(Sequence):
    """A read-only list of substitutions kept as the VM's id tuples: one
    slot per name in `names`.  Reading an item builds its dict; ``len``
    and the tuples themselves (`ids`) need none.  Compares equal to the
    list of dicts it reads as."""

    __slots__ = ("names", "ids")

    def __init__(self, names: tuple[str, ...], ids: list[tuple[int, ...]]):
        self.names = names
        self.ids = ids

    def __len__(self) -> int:
        return len(self.ids)

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


def _var_names(program: MatchProgram) -> tuple[str, ...]:
    return tuple([name for name, _ in program.var_regs])


def ematch(egraph: EGraph, pattern: Pattern) -> list[SearchMatches]:
    """Find every (substitution, class) pair where the pattern is
    represented: sound and complete up to canonicalization, read-only,
    results sorted by class id, each class's substitutions sorted by their
    class ids in variable-name order."""
    egraph.require_clean("ematch")
    program = pattern.program
    root = pattern.nodes[-1][0]
    if is_var(root):
        candidates = sorted(egraph.classes)
    else:
        candidates = egraph.classes_with_op(root)  # ascending when clean
    names = _var_names(program)
    return [
        SearchMatches(class_id, Substitutions(names, matches))
        for class_id, matches in run_program(egraph, program, candidates)
    ]


def match_in_class(egraph: EGraph, pattern: Pattern, class_id: int) -> list[dict]:
    """Match a pattern inside one class only (goal checks); substitutions
    in the order ``ematch`` gives them."""
    egraph.require_clean("match_in_class")
    program = pattern.program
    found = run_program(egraph, program, [egraph.find(class_id)])
    return list(Substitutions(_var_names(program), found[0][1])) if found else []


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
