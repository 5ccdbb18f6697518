"""Strategy-driven purification of separation-logic entailments.

The package provides the entailment and strategy ASTs (`core`, `frontend`),
a first-order pattern matcher (`matcher`), the reduction engine with JSON
traces (`engine`), a conservative EUF+LIA side-condition solver (`smt`),
soundness-condition generation (`soundness`), and a CLI (`cli`).
"""

from .core import (
    AndA,
    Apply,
    Arith,
    Assertion,
    DataAt,
    DuplicateDeclarationError,
    Emp,
    Entailment,
    Eq,
    ExistsA,
    FieldAddr,
    ForallA,
    IntLit,
    Not,
    Bin,
    PredP,
    PredS,
    PureA,
    PureFormula,
    Rel,
    SepConj,
    Signature,
    SoundnessCondition,
    SpatialA,
    SpatialAtom,
    SymbolicHeap,
    Term,
    TrueF,
    Var,
    Wand,
    alpha_equivalent,
    free_vars,
    fresh_name,
    normalize,
    occurring_vars,
    substitute,
    well_formed,
    well_formed_report,
)
from .engine import (
    ReductionTrace,
    ReplayError,
    SideCondition,
    TraceStep,
    Verdict,
    replay_document,
    run,
    step,
    traces_to_document,
)
from .frontend import (
    FrontendError,
    ParseError,
    Program,
    Strategy,
    parse_assertion,
    parse_entailment,
    parse_entailments,
    parse_signature,
    parse_strategies,
    print_condition,
    print_entailment,
    print_heap,
    print_program,
    print_signature,
    print_strategy,
)
from .matcher import PatternSubstitution, match_atom, match_strategy
from .smt import ProofStatus, QueryResult, infer
from .soundness import soundness_of

__version__ = "0.1.0"
