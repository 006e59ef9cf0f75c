"""Python source generated from compiled patterns: the matcher of a
`MatchProgram` and the builder of a `Pattern`.

Each is made on first use, never at import or when a rule is built, and
this module is imported only then.  Operators and leaves reach the source
only as the namespace constants ``K0``, ``K1``, ...; its identifiers are
registers ``r<n>``, those constants and fixed names, so no user text is
spliced into it.
"""
from __future__ import annotations

from .egraph import ENode
from .language import is_var
from .pattern import Bind, Compare, MatchProgram, Pattern

# CPython allows 20 statically nested blocks.  A matcher stage nests its
# outer loop, at most this many Bind loops and one bisect loop; a deeper
# pattern runs as a chain of stages.
STAGE_LOOPS = 16


def _define(lines: list[str], constants: list):
    """The function ``generated`` that `lines` define, with ``K<i>`` bound
    to ``constants[i]``."""
    namespace = {f"K{i}": value for i, value in enumerate(constants)}
    namespace.update(ENode=ENode, new=tuple.__new__)
    exec("\n".join(lines), namespace)
    return namespace["generated"]


def _regs(regs) -> str:
    """``r<n>, `` for each register: a target list or, in parentheses, a
    tuple display."""
    return "".join(f"r{reg}, " for reg in regs)


def _live(code: tuple, first: int, slots: list[int]) -> list[int]:
    """The registers that ``code[first:]`` or the match tuple reads and
    that the code before `first` sets."""
    read, later = set(slots), set()
    for ins in code[first:]:
        if ins.__class__ is Compare:
            read.update(ins)
        else:
            read.add(ins.reg)
            later.update(range(ins.out, ins.out + ins.arity))
    return sorted(read - later)


def generate_matcher(program: MatchProgram):
    """The program as nested loops over locals ``r<n>``, one per register:
    a ``for`` per operator Bind over the op's run in the class's sorted node
    list (found by bisecting the operator prefix; leaves sort last), an
    ``if ...: continue`` per Compare and per hashcons probe, each probe's
    lookup hoisted to the top.  Every id it reads is canonical in a clean
    graph, so registers compare without ``find``.  A program with more than
    STAGE_LOOPS operator Binds is cut into stages: each later stage is a
    function from the tuples of the registers still read to those of the
    next, and the first calls them in turn on each candidate's tuples."""
    code, cuts, n = list(program.instructions), [0], 0
    for pc, ins in enumerate(code):
        if ins.__class__ is Bind and ins.arity:
            n += 1
            if n > 1 and n % STAGE_LOOPS == 1:
                cuts.append(pc)
    slots = [reg for _, reg in program.var_regs]
    stages: list = []  # the later stages, in order
    for first, end in reversed(list(zip(cuts, cuts[1:] + [len(code)]))):
        constants: list = []
        head = [f"def generated(classes, hashcons, {'pending' if first else 'candidates'}):"]
        if first:
            head.append("    found = []")
            body = [f"    for {_regs(_live(code, first, slots))} in pending:"]
        else:
            body = ["    results = []", "    for r0, ns in candidates:", "        found = []"]
        depth = 2
        for pc in range(first, end):
            ins, pad, k = code[pc], "    " * depth, f"K{len(constants)}"
            if ins.__class__ is Compare:
                body.append(f"{pad}if r{ins.reg} != r{ins.other}: continue")
            elif not ins.arity:
                constants.append(ENode(ins.op, ()))
                probe = program.n_regs + len(constants)
                head.append(f"    r{probe} = hashcons.get({k})")
                body.append(f"{pad}if r{ins.reg} != r{probe}: continue")
            else:
                constants.append(ins.op)
                if pc:
                    body.append(f"{pad}ns = classes[r{ins.reg}].nodes")
                body += [
                    f"{pad}lo, hi = 0, len(ns)",
                    f"{pad}while lo < hi:",
                    f"{pad}    mid = (lo + hi) // 2",
                    f"{pad}    op = ns[mid][0]",
                    f"{pad}    if op.__class__ is str and op < {k}: lo = mid + 1",
                    f"{pad}    else: hi = mid",
                    f"{pad}for op, kids in ns[lo:]:",
                    f"{pad}    if op != {k}: break",
                    f"{pad}    if len(kids) != {ins.arity}: continue",
                    f"{pad}    {_regs(range(ins.out, ins.out + ins.arity))}= kids",
                ]
                depth += 1
        out = _live(code, end, slots) if end < len(code) else slots
        body.append(f"{'    ' * depth}found.append(({_regs(out)}))")
        if first:
            body.append("    return found")
        else:
            for stage in stages:
                body.append(f"        if found: found = K{len(constants)}(classes, hashcons, found)")
                constants.append(stage)
            body += ["        if found: results.append((r0, found))", "    return results"]
        stages.insert(0, _define(head + body, constants))
    return stages[0]


def generate_builder(pattern: Pattern):
    """Straight-line instantiation, ``generated(node_class, ids)``: each
    non-variable node, in postorder, goes to `node_class` (``EGraph.add`` or
    ``EGraph.lookup``) with its children's classes filled in; returns the
    root's class, or None as soon as `node_class` gives None.  `ids` holds
    one class per variable, in ``program.var_regs`` order."""
    slot = {name: i for i, (name, _) in enumerate(pattern.program.var_regs)}
    lines = ["def generated(node_class, ids):"]
    if slot:
        lines.append(f"    {_regs(range(len(slot)))}= ids")
    constants: list = []
    regs: list[str] = []
    for op, kids in pattern.nodes:
        if is_var(op):
            regs.append(f"r{slot[op.value]}")
            continue
        reg, k = f"r{len(slot) + len(regs)}", f"K{len(constants)}"
        if kids:
            constants.append(op)
            node = f"new(ENode, ({k}, ({''.join(regs[kid] + ', ' for kid in kids)})))"
        else:
            constants.append(ENode(op, ()))
            node = k
        lines += [f"    {reg} = node_class({node})", f"    if {reg} is None: return None"]
        regs.append(reg)
    lines.append(f"    return {regs[-1]}")
    return _define(lines, constants)
