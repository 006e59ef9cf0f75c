"""The three seeded workloads: request generators, the requests themselves,
and the references their outputs are checked against.

Every request calls eqsat through module attributes (``eqsat.parse_term``,
``eqsat.run`` ...) so that the traced run can wrap those entry points.  The
references never use eqsat: terms are evaluated, values computed and leaf
groups tracked by the generators below.

Requests come in blocks whose composition is fixed (the seed draws the terms
inside each stratum, not the stratum sizes), and a run always ends on a block
boundary.  That keeps the latency percentiles inside one stratum from seed to
seed; the strata are documented next to each generator.
"""
from __future__ import annotations

import random
import re
from fractions import Fraction

# Far above any request's run time: the limits that decide outputs are the
# iteration and e-node counts, never the clock.
TIME_LIMIT_S = 60.0


def derive(seed: int, *parts) -> random.Random:
    """Independent stream for one piece of one seed's input."""
    return random.Random(":".join(str(p) for p in (seed,) + parts))


# ----------------------------------------------------------------------
# a small s-expression reader and evaluator, independent of eqsat

def read_sexp(text: str):
    """Nested lists of atoms; iterative, so deep inputs are fine."""
    stack: list[list] = [[]]
    for token in re.findall(r"\(|\)|[^\s()]+", text):
        if token == "(":
            stack.append([])
        elif token == ")":
            done = stack.pop()
            stack[-1].append(done)
        else:
            stack[-1].append(token)
    if len(stack) != 1 or len(stack[0]) != 1:
        raise ValueError(f"not one s-expression: {text[:80]!r}")
    return stack[0][0]


def sexp_size(tree) -> int:
    size, todo = 0, [tree]
    while todo:
        node = todo.pop()
        size += 1
        if isinstance(node, list):
            todo.extend(node[1:])
    return size


class Undefined(Exception):
    """The expression divides by zero at this point."""


def eval_math(tree, env: dict[str, Fraction]) -> Fraction:
    if isinstance(tree, str):
        if tree in env:
            return env[tree]
        return Fraction(tree)
    op, a, b = tree[0], eval_math(tree[1], env), eval_math(tree[2], env)
    if op == "+":
        return a + b
    if op == "-":
        return a - b
    if op == "*":
        return a * b
    if op == "/":
        if b == 0:
            raise Undefined
        return a / b
    if op == "<<":
        if b.denominator != 1 or b < 0:
            raise Undefined
        return a * 2 ** int(b)
    raise ValueError(f"unknown operator {op!r}")


# ----------------------------------------------------------------------

class Workload:
    """One request kind.  ``make_block`` draws a block of requests;
    ``serve`` is the timed request and returns a small output record and the
    request's exact counters, never the e-graph; ``check`` compares an
    output with the reference."""

    name = ""
    trace_blocks = 1  # blocks the traced run covers
    # Whether outputs carry extracted costs (``sizes``) or proof verdicts
    # (``decided``); a workload with neither reports 1 for that ratio.
    extracts = False
    proves = False

    def config(self):
        return self.eqsat.RunnerConfig(
            iter_limit=30, node_limit=10_000, time_limit=TIME_LIMIT_S,
            scheduler="backoff",
        )

    def blocks(self, seed: int):
        index = 0
        while True:
            yield self.make_block(derive(seed, self.name, index))
            index += 1

    def failed(self, out) -> bool:
        """A run stopped by the clock or by an analysis contradiction fails,
        whatever its output."""
        return out.get("stop") in ("time_limit", "analysis_contradiction")

    def graph_counters(self, graph, report) -> tuple:
        iterations = report.iterations if report is not None else []
        matches = sum(st.searched for it in iterations for st in it.rules.values())
        applied = sum(st.applied for it in iterations for st in it.rules.values())
        return (
            graph.repair_calls, graph.hashcons_updates, graph.union_count,
            graph.rebuild_calls, graph.n_nodes(), graph.n_classes(),
            matches, applied, len(iterations),
            report.stop_reason.value if report is not None else "",
        )


COUNTER_NAMES = (
    "repairs", "hashcons_updates", "unions", "rebuild_calls", "enodes",
    "eclasses", "matches_kept", "applied", "iterations", "stop_reason",
)


# ----------------------------------------------------------------------
# math-simplify: parse, run with math_rules under the CLI defaults, extract

MATH_VARS = "abcdefgh"


class MathSimplify(Workload):
    """Block of 8: six terms wrapped in ``(/ (* e 2) 2)`` and two unwrapped
    terms of 3-6 atoms.  The wrapped inner terms are a variable (twice), and
    a sum, a quotient and two products of two distinct variables.  Every
    wrapped term runs to the 30-iteration limit (0.4-1 s with eqsat 0.1.0),
    every unwrapped one saturates in milliseconds, so p50 and p90 both fall
    in the iteration-limit mode.  The inner shapes are fixed because they set the
    size the graph reaches (1,300 e-nodes, or 2,300 for a product): p50
    falls among the first four, p90 among the products.  The seed draws the
    variables and the unwrapped terms."""

    name = "math-simplify"
    trace_blocks = 2
    extracts = True

    def setup(self):
        import eqsat
        from eqsat.domains import math as math_domain

        self.eqsat = eqsat
        self.lang = math_domain.MATH
        self.analysis = math_domain.MathFolding
        self.rules = math_domain.math_rules()

    @staticmethod
    def term(rng: random.Random, atoms: int) -> str:
        if atoms == 1:
            if rng.random() < 0.75:
                return rng.choice(MATH_VARS)
            return str(rng.randint(1, 5))
        left = rng.randint(1, atoms - 1)
        return (
            f"({rng.choice('+*/')} {MathSimplify.term(rng, left)} "
            f"{MathSimplify.term(rng, atoms - left)})"
        )

    def make_block(self, rng):
        def two(op):
            return f"({op} {' '.join(rng.sample(MATH_VARS, 2))})"

        inner = [rng.choice(MATH_VARS), rng.choice(MATH_VARS), two("+"),
                 two("/"), two("*"), two("*")]
        texts = [f"(/ (* {e} 2) 2)" for e in inner]
        texts += [self.term(rng, rng.randint(3, 6)) for _ in range(2)]
        rng.shuffle(texts)
        return [
            {"text": t, "points": rng.randrange(1 << 30)} for t in texts
        ]

    def serve(self, request, new_graph):
        eqsat = self.eqsat
        term = eqsat.parse_term(request["text"], self.lang)
        report = eqsat.run(new_graph(), [term], self.rules, self.config())
        best, cost = eqsat.Extractor(report.egraph).best(report.root_ids[0])
        text = eqsat.print_term(best)
        out = {"text": text, "cost": cost, "stop": report.stop_reason.value}
        return out, self.graph_counters(report.egraph, report)

    def check(self, request, out) -> bool:
        """The output must agree with the input at seeded rational points
        (skipping points where either divides by zero) and its cost must be
        its size, no larger than the input's."""
        before, after = read_sexp(request["text"]), read_sexp(out["text"])
        if out["cost"] != sexp_size(after) or out["cost"] > sexp_size(before):
            return False
        rng = random.Random(request["points"])
        checked = 0
        for _ in range(12):
            env = {
                v: Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for v in MATH_VARS
            }
            try:
                expected, got = eval_math(before, env), eval_math(after, env)
            except Undefined:
                continue
            if expected != got:
                return False
            checked += 1
            if checked == 3:
                break
        return True

    def sizes(self, request, out):
        return out["cost"], sexp_size(read_sexp(request["text"]))


# ----------------------------------------------------------------------
# lambda-equiv: check_equiv of a closed program against its value

COMPOSE = "(lam f (lam g (lam x (app (var f) (app (var g) (var x))))))"


def compose_chain(rng: random.Random, length: int) -> tuple[str, int]:
    """``(app (compose f1 (compose f2 ...)) arg)`` with each fi adding a
    constant; its value is arg plus the constants.  The constants are
    distinct two-digit numbers and the argument has three digits: repeated
    constants share e-classes, and a 5-chain with repeats reaches about
    1,000 e-nodes instead of 2,700, so the draw would set the cost."""
    adds = rng.sample(range(10, 100), length)
    fn = f"(lam y (+ (var y) {adds[-1]}))"
    for k in reversed(adds[:-1]):
        fn = f"(app (app {COMPOSE} (lam y (+ (var y) {k}))) {fn})"
    arg = rng.randint(100, 999)
    return f"(app {fn} {arg})", arg + sum(adds)


def let_chain(rng: random.Random, length: int) -> tuple[str, int]:
    """Nested lets, each binding an earlier variable plus a constant, with a
    body adding two of them."""
    names = [f"v{i}" for i in range(length)]
    values: dict[str, int] = {}
    opened = []
    for i, name in enumerate(names):
        if i == 0:
            values[name] = rng.randint(0, 9)
            bound = str(values[name])
        else:
            prev = names[rng.randrange(i)]
            k = rng.randint(1, 9)
            values[name] = values[prev] + k
            bound = f"(+ (var {prev}) {k})"
        opened.append(f"(let {name} {bound} ")
    a, b = rng.choice(names), rng.choice(names)
    body = f"(+ (var {a}) (var {b}))"
    return "".join(opened) + body + ")" * length, values[a] + values[b]


class LambdaEquiv(Workload):
    """Block of 9: compose chains of 2, 3, 3, 4, 5 and 5 functions, two
    let-chains of 2-6 bindings, and one 2-chain checked against a wrong
    value.  Sorted by time, the 3-chains hold the middle of the block and
    the 5-chains its top two, so p50 falls among the 3-chains and p90
    among the 5-chains, both away from a stratum's edge.  Wrong values go
    to 2-chains because a longer chain against a wrong value never
    saturates and spends all 30 iterations (about 5 s with eqsat 0.1.0)."""

    name = "lambda-equiv"
    trace_blocks = 4
    proves = True

    def setup(self):
        import eqsat
        from eqsat.domains import lam as lambda_domain

        self.eqsat = eqsat
        self.lang = lambda_domain.LAMBDA
        self.analysis = lambda_domain.LamAnalysis
        self.rules = lambda_domain.lambda_rules()

    def make_block(self, rng):
        block = []
        for length in (2, 3, 3, 4, 5, 5):
            text, value = compose_chain(rng, length)
            block.append({"text": text, "value": value, "true": True})
        for _ in range(2):
            text, value = let_chain(rng, rng.randint(2, 6))
            block.append({"text": text, "value": value, "true": True})
        text, value = compose_chain(rng, 2)
        wrong = value + rng.choice((-3, -2, -1, 1, 2, 3))
        block.append({"text": text, "value": wrong, "true": False})
        rng.shuffle(block)
        return block

    def serve(self, request, new_graph):
        eqsat = self.eqsat
        program = eqsat.parse_term(request["text"], self.lang)
        value = eqsat.parse_term(str(request["value"]), self.lang)
        result = eqsat.check_equiv(new_graph(), program, value, self.rules, self.config())
        out = {"equal": result.equal, "stop": result.report.stop_reason.value}
        return out, self.graph_counters(result.report.egraph, result.report)

    def check(self, request, out) -> bool:
        """A wrong value must never be proved; a true pair left unproved is
        counted in decided_ratio, not here."""
        return request["true"] or not out["equal"]

    def decided(self, request, out):
        return (1 if out["equal"] else 0, 1) if request["true"] else (0, 0)


# ----------------------------------------------------------------------
# congruence-deep: the direct congruence-closure API on deep spines

POOL = tuple(f"x{i}" for i in range(6))
INSTANCES = 3


class CongruenceDeep(Workload):
    """Block of 16: 15 spines with depths on a log ladder from 24 to 420 and
    one spine deeper than 1,100, past the reader's recursion cliff (just
    above depth 1,000 in eqsat 0.1.0), which fails, so the expected failed
    share is exactly 1/16.  Extraction is quadratic in depth in eqsat 0.1.0
    (a depth-900 request takes about 8 s and 1 GB), so the ladder stops at
    420; the deep spine keeps the cliff in the workload."""

    name = "congruence-deep"
    trace_blocks = 2
    extracts = True
    proves = True
    LADDER = (24, 420)
    PAST_CLIFF = (1100, 1400)

    def setup(self):
        import eqsat
        from eqsat.domains import math as math_domain

        self.eqsat = eqsat
        self.lang = math_domain.MATH
        self.analysis = eqsat.Analysis
        self.rules = []

    def depths(self, rng):
        """13 rungs of a log ladder, the middle one three times (so that p50
        falls inside a rung, not between two), and one depth past the
        cliff."""
        lo, hi = self.LADDER
        rungs = 13
        depths = [
            round(lo * (hi / lo) ** ((i + rng.uniform(0.3, 0.7)) / rungs))
            for i in list(range(rungs)) + [rungs // 2] * 2
        ]
        depths.append(rng.randint(*self.PAST_CLIFF))
        rng.shuffle(depths)
        return depths

    def make_block(self, rng):
        return [self.request(rng, depth) for depth in self.depths(rng)]

    def request(self, rng, depth):
        ops = [rng.choice("+*-") for _ in range(depth)]
        left = [rng.random() < 0.5 for _ in range(depth)]
        sides = [rng.choice(POOL) for _ in range(depth)]
        # The instances differ only in their deepest leaf.  One merge joins
        # the deepest leaves of two instances, so their spines merge
        # bottom-up through every level; the other two join leaves that no
        # other instance ends in.  Every request thus does one full-depth
        # upward merge and ends with two distinct spines.
        tails = rng.sample(POOL, INSTANCES)
        others = [leaf for leaf in POOL if leaf not in tails]
        texts = [self.render(ops, left, sides + [tail]) for tail in tails]
        joined = rng.sample(range(INSTANCES), 2)
        apart = next(i for i in range(INSTANCES) if i not in joined)
        merges = [
            (tails[joined[0]], tails[joined[1]]),
            (tails[apart], rng.choice(others)),
            tuple(rng.sample(others, 2)),
        ]
        rng.shuffle(merges)

        # reference: leaf groups after each round, and which roots must
        # then be equivalent
        group = {leaf: leaf for leaf in POOL}
        expected = []
        for a, b in merges:
            ga, gb = group[a], group[b]
            group = {leaf: (ga if g == gb else g) for leaf, g in group.items()}
            mapped = [self.mapped(t, group) for t in texts]
            expected.append([
                mapped[i] == mapped[j]
                for i in range(INSTANCES) for j in range(i + 1, INSTANCES)
            ])
        return {
            "depth": depth, "texts": texts, "merges": merges,
            "expected": expected, "groups": group,
        }

    @staticmethod
    def render(ops, left, leaves) -> str:
        """Spine of binary nodes, each with one pool leaf beside the rest;
        written the way ``print_term`` writes it."""
        text = leaves[-1]
        for op, on_left, leaf in zip(reversed(ops), reversed(left), leaves):
            text = f"({op} {text} {leaf})" if on_left else f"({op} {leaf} {text})"
        return text

    @staticmethod
    def mapped(text: str, group: dict[str, str]) -> str:
        return re.sub(r"x\d", lambda m: group[m.group(0)], text)

    def serve(self, request, new_graph):
        eqsat = self.eqsat
        graph = new_graph()
        terms = [eqsat.parse_term(t, self.lang) for t in request["texts"]]
        roots = [graph.add_term(t) for t in terms]
        graph.rebuild()
        verdicts = []
        for a, b in request["merges"]:
            graph.merge(graph.add_leaf(eqsat.sym(a)), graph.add_leaf(eqsat.sym(b)))
            graph.rebuild()
            verdicts.append([
                graph.equiv(roots[i], roots[j])
                for i in range(INSTANCES) for j in range(i + 1, INSTANCES)
            ])
        extractor = eqsat.Extractor(graph)
        extracted = []
        for root in roots:
            best, cost = extractor.best(root)
            extracted.append((eqsat.print_term(best), cost))
        out = {"verdicts": verdicts, "extracted": extracted}
        return out, self.graph_counters(graph, None)

    def check(self, request, out) -> bool:
        """Roots are equivalent exactly when their texts agree after mapping
        each leaf to its group; each extracted root, mapped the same way,
        equals its mapped input and costs the input's size."""
        if out["verdicts"] != request["expected"]:
            return False
        group = request["groups"]
        for text, (got, cost) in zip(request["texts"], out["extracted"]):
            if self.mapped(got, group) != self.mapped(text, group):
                return False
            if cost != 2 * request["depth"] + 1:
                return False
        return True

    def sizes(self, request, out):
        return (
            sum(cost for _, cost in out["extracted"]),
            INSTANCES * (2 * request["depth"] + 1),
        )

    def decided(self, request, out):
        proved = sum(
            v and e
            for vs, es in zip(out["verdicts"], request["expected"])
            for v, e in zip(vs, es)
        )
        return proved, sum(sum(es) for es in request["expected"])


WORKLOADS = {w.name: w for w in (MathSimplify(), LambdaEquiv(), CongruenceDeep())}
