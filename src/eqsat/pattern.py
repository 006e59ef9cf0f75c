"""Patterns with variables and e-matching.

Patterns compile to a small instruction program executed against one class
at a time by a backtracking virtual machine; ``ematch`` runs the program
over every canonical class of a clean graph and returns the substitutions
under which the pattern is represented there.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Optional

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
    """Try every node with this op/arity in the class held by `reg`,
    loading its children into registers `out` .. `out+arity-1`."""

    reg: int
    op: object
    arity: int
    out: int


class Compare(NamedTuple):
    """Nonlinear-variable consistency: both registers must canonicalize
    to the same class."""

    reg: int
    other: int


@dataclass(frozen=True)
class MatchProgram:
    instructions: tuple
    var_regs: tuple[tuple[str, int], ...]  # variable name -> register
    n_regs: int


def compile_pattern(pattern: Pattern) -> MatchProgram:
    nodes = pattern.nodes
    instructions = []
    var_regs: dict[str, int] = {}
    n_regs = 1
    todo: list[tuple[int, int]] = [(len(nodes) - 1, 0)]
    while todo:
        index, reg = todo.pop(0)
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
    return MatchProgram(tuple(instructions), tuple(var_regs.items()), n_regs)


def run_program(
    egraph: EGraph, program: MatchProgram, class_id: int
) -> list[dict[str, int]]:
    """Execute a match program against one canonical class; returns the
    substitutions (variable name to canonical class id), deduplicated."""
    regs = [0] * program.n_regs
    regs[0] = class_id
    instructions = program.instructions
    find = egraph.uf.find
    classes = egraph.classes
    out: dict[tuple, dict[str, int]] = {}

    def step(i: int) -> None:
        if i == len(instructions):
            subst = {name: find(regs[reg]) for name, reg in program.var_regs}
            out.setdefault(tuple(sorted(subst.items())), subst)
            return
        ins = instructions[i]
        if type(ins) is Bind:
            eclass = classes[find(regs[ins.reg])]
            op, arity, base = ins.op, ins.arity, ins.out
            for node in eclass.nodes:
                if node.op == op and len(node.children) == arity:
                    regs[base : base + arity] = node.children
                    step(i + 1)
        else:
            if find(regs[ins.reg]) == find(regs[ins.other]):
                step(i + 1)

    step(0)
    return list(out.values())


class SearchMatches(NamedTuple):
    """All substitutions under which a pattern matched one e-class."""

    eclass: int
    substs: list[dict[str, int]]


def ematch(egraph: EGraph, pattern: Pattern) -> list[SearchMatches]:
    """Find every (substitution, class) pair where the pattern is
    represented: sound and complete up to canonicalization, read-only,
    results sorted by class id."""
    assert egraph.clean, "ematch on a dirty graph may miss matches; rebuild first"
    root = pattern.nodes[-1][0]
    if is_var(root):
        candidates = sorted(egraph.classes)
    else:
        candidates = sorted(egraph.classes_with_op(root))
    results = []
    for class_id in candidates:
        substs = run_program(egraph, pattern.program, class_id)
        if substs:
            substs.sort(key=lambda s: tuple(sorted(s.items())))
            results.append(SearchMatches(class_id, substs))
    return results


def match_in_class(egraph: EGraph, pattern: Pattern, class_id: int) -> list[dict]:
    """Match a pattern inside one class only (goal checks)."""
    assert egraph.clean
    return run_program(egraph, pattern.program, egraph.find(class_id))


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
