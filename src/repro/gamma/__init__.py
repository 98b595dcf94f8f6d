"""The Gamma model: General Abstract Model for Multiset mAnipulation.

Public surface:

* expressions (:mod:`repro.gamma.expr`) used in reaction conditions/actions,
* patterns and templates (:mod:`repro.gamma.pattern`),
* reactions and programs (:mod:`repro.gamma.reaction`, :mod:`repro.gamma.program`),
* execution engines implementing the Γ operator (:mod:`repro.gamma.engine`),
* classic Gamma programs (:mod:`repro.gamma.stdlib`),
* the textual DSL of the paper's Fig. 3 (:mod:`repro.gamma.dsl`).
"""

from .engine import (
    ChaoticEngine,
    ExecutionResult,
    GammaEngine,
    NonTerminationError,
    ParallelEngine,
    SequentialEngine,
    run,
    run_program,
)
from .compiled import (
    CompilationError,
    CompiledMatch,
    CompiledReaction,
    MatchPlan,
    compile_cache_info,
    compile_expr,
    compile_reaction,
)
from .expr import BinOp, BoolOp, Compare, Const, EvaluationError, Expr, Not, Var, const, var
from .matching import Match, Matcher, find_match, iter_matches
from .pattern import Binding, ElementPattern, ElementTemplate, pattern, template
from .program import GammaProgram, SequentialProgram, parallel, sequential
from .reaction import Branch, Reaction
from .scheduler import ReactionScheduler, greedy_disjoint_matches
from .tracer import FiringRecord, StepRecord, Trace
from .vectorized import (
    ColumnarKernel,
    VectorizedReaction,
    columnar_collect,
    vectorized_for,
)

__all__ = [
    # expressions
    "Expr", "Var", "Const", "BinOp", "Compare", "BoolOp", "Not", "var", "const",
    "EvaluationError",
    # patterns
    "ElementPattern", "ElementTemplate", "Binding", "pattern", "template",
    # reactions / programs
    "Reaction", "Branch", "GammaProgram", "SequentialProgram", "parallel", "sequential",
    # matching / scheduling
    "Match", "Matcher", "find_match", "iter_matches",
    "ReactionScheduler", "greedy_disjoint_matches",
    # reaction compilation
    "CompiledReaction", "CompiledMatch", "MatchPlan", "CompilationError",
    "compile_reaction", "compile_expr", "compile_cache_info",
    # engines
    "GammaEngine", "SequentialEngine", "ChaoticEngine", "ParallelEngine",
    "ExecutionResult", "NonTerminationError", "run", "run_program",
    # tracing
    "Trace", "StepRecord", "FiringRecord",
    # columnar vectorized kernel
    "VectorizedReaction", "vectorized_for", "ColumnarKernel", "columnar_collect",
]
