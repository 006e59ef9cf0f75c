"""Patterns with variables and e-matching.

A pattern compiles once, at construction, to a match program: a short list
of Bind and Compare instructions over registers.  On first use the program
becomes one generated Python function, its matcher (nested loops, one per
operator node), and the pattern one generated builder (straight-line
``add`` or ``lookup`` calls); see ``codegen``.  ``ematch`` runs the matcher
over every candidate class and returns the substitutions under which the
pattern is represented there.  Each search starts at the pattern node with
the fewest candidate classes (the join-order choice of relational
e-matching) and, below the root, walks the parent lists up from them to the
root nodes the matcher tries; the matches are sorted only when read.
"""
from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property
from itertools import repeat
from typing import Iterable, NamedTuple, Optional

from .egraph import EGraph, ENode
from .language import LanguageDef, Op, is_var, print_term, read_one


@dataclass(frozen=True)
class Pattern:
    """A term whose leaves may be variables (``Leaf("var", "?x")``), stored
    flat in postorder like ``Term``.  Its match program is compiled once,
    when the pattern is built."""

    nodes: tuple[tuple[Op, tuple[int, ...]], ...]
    program: "MatchProgram" = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "program", compile_pattern(self))

    @cached_property
    def builder(self):
        """The generated instantiation function (see
        ``codegen.generate_builder``), made on first use."""
        from .codegen import generate_builder

        return generate_builder(self)

    def vars(self) -> tuple[str, ...]:
        """Variable names in first-occurrence order, deduplicated."""
        return tuple(dict.fromkeys(op.value for op, _ in self.nodes if is_var(op)))

    def __str__(self) -> str:
        return print_term(self)


def parse_pattern(text: str, lang: LanguageDef) -> Pattern:
    """Parse pattern text; atoms prefixed with `?` are variables."""
    return Pattern(read_one(text, lang, allow_vars=True))


# ----------------------------------------------------------------------
# compilation to a match program

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


class Start(NamedTuple):
    """A non-variable pattern node, where a search may begin: its op and
    arity (a ground leaf has arity 0), the index in ``MatchProgram.starts``
    of its parent (-1 at the root) and its position among that parent's
    children."""

    op: Op
    arity: int
    parent: int
    position: int


@dataclass(frozen=True)
class MatchProgram:
    """A compiled pattern.  `starts` holds every non-variable node in
    breadth-first order, the root first (none for a variable root); the
    parent links give each node's ``(op, arity, child position)`` steps up
    to the root.  ``ematch`` begins a search at the one with the fewest
    candidate classes."""

    instructions: tuple
    var_regs: tuple[tuple[str, int], ...]  # (variable name, register), by name
    n_regs: int
    starts: tuple[Start, ...]

    @cached_property
    def matcher(self):
        """The generated function that `run_program` calls (see
        ``codegen.generate_matcher``), made on first use."""
        from .codegen import generate_matcher

        return generate_matcher(self)


def compile_pattern(pattern: Pattern) -> MatchProgram:
    nodes = pattern.nodes
    instructions = []
    var_regs: dict[str, int] = {}
    starts: list[Start] = []
    n_regs = 1
    # (node index, register, parent's index in starts, child position)
    todo: list[tuple[int, int, int, int]] = [(len(nodes) - 1, 0, -1, 0)]
    # breadth-first: the loop visits what it appends
    for index, reg, parent, position in todo:
        op, kids = nodes[index]
        if is_var(op):
            if op.value in var_regs:
                instructions.append(Compare(reg, var_regs[op.value]))
            else:
                var_regs[op.value] = reg
            continue
        instructions.append(Bind(reg, op, len(kids), n_regs))
        todo.extend((kid, n_regs + i, len(starts), i) for i, kid in enumerate(kids))
        starts.append(Start(op, len(kids), parent, position))
        n_regs += len(kids)
    return MatchProgram(
        tuple(instructions), tuple(sorted(var_regs.items())), n_regs, tuple(starts)
    )


def run_program(
    egraph: EGraph,
    program: MatchProgram,
    candidates: Iterable[tuple[int, Sequence[ENode]]],
) -> list[tuple[int, list[tuple[int, ...]]]]:
    """Run a program's matcher on a clean graph.  Each candidate is a class
    id and the distinct canonical nodes of that class that the root Bind
    searches for its op: the class's sorted node list, or nodes that all
    have the root op.  Returns ``(class id, matches)`` for the candidates
    that match, each match a tuple of class ids with one slot per variable
    in ``program.var_regs`` order.

    The matches of a class are distinct, in no particular order.  No set
    is needed: every node list the matcher tries is deduplicated, and a
    canonical node lives in one class, so a binding tuple rebuilds bottom-up
    the one node each Bind picked (a leaf's node, or the op over the classes
    of its children) and the class it sits in; two different paths through
    the choices cannot give the same tuple."""
    return program.matcher(egraph.classes, egraph.hashcons, candidates)


def _roots_above(
    egraph: EGraph, program: MatchProgram, at: int, level: Iterable[int]
) -> list[tuple[int, list[ENode]]]:
    """The classes, ascending, whose nodes can sit at the pattern's root
    above a class in `level` that holds ``program.starts[at]``, each with
    those canonical root nodes: a walk up the parent lists, one step per
    pattern node on the way.  Parent lists may hold stale and repeated
    entries, hence ``find`` and the deduplication."""
    classes, find, canonicalize = egraph.classes, egraph.uf.find, egraph.canonicalize
    starts = program.starts
    level = dict.fromkeys(level)
    while at:
        pos = starts[at].position
        at = starts[at].parent
        op, arity = starts[at].op, starts[at].arity
        up: dict[int, dict[ENode, None]] = {}
        for class_id in level:
            for node, owner in classes[class_id].parents:
                kids = node.children
                if node.op == op and len(kids) == arity and find(kids[pos]) == class_id:
                    up.setdefault(find(owner), {})[canonicalize(node)] = None
        level = up
    return [(class_id, list(level[class_id])) for class_id in sorted(level)]


class Substitutions(Sequence):
    """A read-only list of substitutions kept as the matcher's id tuples: one
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

    The search starts at the pattern node with the fewest candidate classes:
    the root's op bucket (every class, for a variable root), an inner op's
    bucket, or a ground leaf's one class (none if the leaf is absent); a tie
    keeps the node nearer the root.  Below the root, it walks the parent
    lists up from those classes, so the matcher tries only the root nodes
    above them; at the root, it tries the root op's run in each class."""
    egraph.require_clean("ematch")
    program = pattern.program
    at, level = 0, egraph.class_ids()
    for index, start in enumerate(program.starts):
        if start.arity:
            found = egraph.classes_with_op(start.op)
        else:
            leaf = egraph.hashcons.get((start.op, ()))
            found = () if leaf is None else (leaf,)
        if not index or len(found) < len(level):
            at, level = index, found
    if not level:
        return []
    if at:
        candidates = _roots_above(egraph, program, at, level)
    else:
        classes = egraph.classes
        candidates = [(c, classes[c].nodes) for c in level]  # ascending when clean
    names = tuple([name for name, _ in program.var_regs])
    return [
        SearchMatches(class_id, Substitutions(names, matches))
        for class_id, matches in run_program(egraph, program, candidates)
    ]


class UnboundVariable(KeyError):
    pass


def subst_ids(pattern: Pattern, subst: dict[str, int]) -> tuple[int, ...]:
    """The classes `subst` gives the pattern's variables, in its builder's
    (``program.var_regs``) order."""
    try:
        return tuple([subst[name] for name, _ in pattern.program.var_regs])
    except KeyError as exc:
        raise UnboundVariable(exc.args[0]) from None


def apply_subst(pattern: Pattern, subst: dict[str, int], egraph: EGraph) -> int:
    """Instantiate a pattern bottom-up via add; returns the root class id."""
    return pattern.builder(egraph.add, subst_ids(pattern, subst))


def lookup_subst(
    pattern: Pattern, subst: dict[str, int], egraph: EGraph
) -> Optional[int]:
    """Like apply_subst but read-only: returns the class id the instantiated
    pattern would land in, or None if any piece of it is absent."""
    found = pattern.builder(egraph.lookup, subst_ids(pattern, subst))
    return None if found is None else egraph.find(found)
