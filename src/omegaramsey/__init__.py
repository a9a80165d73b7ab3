"""Desk-scale engine for Ramsey-style combinatorics over finite cover families.

The package realizes, over finite indexed families of point sets, the
accept/reject calculus on Ellentuck-style basic sets, the one-pick-per-inning
selection game with its proof-shaped strategies, pivot-tree homogenization
and the classical partition reductions, thin-family homogenization, and the
Mathias-style poset of stem-plus-side conditions.  Every solver is paired
with an independent brute-force oracle in `oracle`.
"""

from .ground import (
    FALSE,
    TRUE,
    UNKNOWN,
    ContractError,
    CoverVerdict,
    DegenerateError,
    EngineError,
    Family,
    InternalCheckError,
    LargenessParams,
    StructuralError,
    Subfamily,
    ThreeVal,
    Universe,
    admissible,
    check_d_omega_cover,
    enumerate_admissible,
)
from .ellentuck import (
    BasicUnionRegion,
    ComplementRegion,
    EllentuckBasic,
    ExplicitRegion,
    IntersectionRegion,
    MeagerPresentation,
    PredicateRegion,
    Region,
    UnionRegion,
    accepts,
    as_stem,
    baire_region,
    basic_contains,
    cr_witness,
    decide,
    is_nowhere_dense,
    nwd_witness,
    precedes,
    rejects,
    restrict,
    strong_reject_set,
)
from .games import (
    ConstantOne,
    FusionOne,
    GreedyTwo,
    LeastIndexTwo,
    MeagerAvoidOne,
    RejectionOne,
    StrategyFault,
    Transcript,
    decide_all_finite,
    play,
    s1_select,
    two_wins,
)
from .ramsey import (
    BranchResult,
    Coloring,
    PartitionResult,
    PartitionTree,
    branch_walk,
    build_partition_tree,
    counterexample_step,
    extract_homogeneous,
    merge_colors_solve,
    project_solve,
    solve_partition,
    stepup_solve,
)
from .barriers import (
    FiniteSetFamily,
    fg_witness,
    is_dense,
    is_thin,
    nw_homogenize,
    ramsey_via_nw,
)
from .mathias import (
    Chain,
    Condition,
    compatible,
    dense_meet,
    extends,
    gamma_eval,
    valid_condition,
)

__version__ = "0.1.0"
