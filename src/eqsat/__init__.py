"""eqsat: an e-graph library and equality saturation engine.

The e-graph stores a congruence relation over terms and defers invariant
maintenance to explicit rebuild points, which amortizes upward merging
across many mutations.  Per-class analyses attach semilattice facts
(constant folding, free variables) that rewrites and extraction can use.
"""

from .analysis import (
    Analysis,
    AnalysisContradiction,
    AnalysisError,
    ConstantOverflow,
)
from .egraph import DirtyGraphError, EClass, EGraph, ENode, UnionFind
from .extraction import (
    Extractor,
    ExtractionError,
    MinCostExtraction,
    ast_depth,
    ast_size,
    build_cost_table,
    extract_best,
    weighted_ast_size,
)
from .language import (
    ArityError,
    LanguageDef,
    LanguageError,
    Leaf,
    ParseError,
    Term,
    UnknownOperatorError,
    boolean,
    num,
    parse_term,
    print_term,
    sym,
)
from .pattern import (
    Pattern,
    SearchMatches,
    apply_subst,
    compile_pattern,
    ematch,
    parse_pattern,
)
from .rewrite import (
    Applier,
    ConditionEqual,
    PatternApplier,
    Rewrite,
    apply_rewrite,
    is_const,
    is_not_same_var,
    is_nonzero_const,
    parse_rules,
)
from .runner import (
    BackoffScheduler,
    EquivResult,
    IterationReport,
    RunReport,
    RunnerConfig,
    StopReason,
    check_equiv,
    check_equiv_batched,
    run,
)

__version__ = "0.1.0"

__all__ = [
    "Analysis",
    "AnalysisContradiction",
    "AnalysisError",
    "Applier",
    "ArityError",
    "BackoffScheduler",
    "ConditionEqual",
    "ConstantOverflow",
    "DirtyGraphError",
    "EClass",
    "EGraph",
    "ENode",
    "EquivResult",
    "ExtractionError",
    "Extractor",
    "IterationReport",
    "LanguageDef",
    "LanguageError",
    "Leaf",
    "MinCostExtraction",
    "ParseError",
    "Pattern",
    "PatternApplier",
    "Rewrite",
    "RunReport",
    "RunnerConfig",
    "SearchMatches",
    "StopReason",
    "Term",
    "UnionFind",
    "UnknownOperatorError",
    "apply_rewrite",
    "apply_subst",
    "ast_depth",
    "ast_size",
    "boolean",
    "build_cost_table",
    "check_equiv",
    "check_equiv_batched",
    "compile_pattern",
    "ematch",
    "extract_best",
    "is_const",
    "is_nonzero_const",
    "is_not_same_var",
    "num",
    "parse_pattern",
    "parse_rules",
    "parse_term",
    "print_term",
    "run",
    "sym",
    "weighted_ast_size",
]
