"""Desk-scale engine for Ramsey-style combinatorics over finite cover families.

The package realizes, over finite indexed families of point sets, the
accept/reject calculus on Ellentuck-style basic sets, the one-pick-per-inning
selection game with its proof-shaped strategies, pivot-tree homogenization
and the classical partition reductions, thin-family homogenization, and the
Mathias-style poset of stem-plus-side conditions.  Every solver is paired
with an independent brute-force oracle in `oracle`.
"""

#: home module of each exported name; `omegaramsey.X` imports the module that
#: defines X on first use, so a process pays only for the modules it touches
_HOMES = {
    "ground": (
        "FALSE", "TRUE", "UNKNOWN", "ContractError", "CoverVerdict",
        "DegenerateError", "EngineError", "Family", "InternalCheckError",
        "LargenessParams", "StructuralError", "Subfamily", "ThreeVal", "Universe",
        "admissible", "check_d_omega_cover", "enumerate_admissible",
    ),
    "ellentuck": (
        "BasicUnionRegion", "ComplementRegion", "EllentuckBasic", "ExplicitRegion",
        "IntersectionRegion", "MeagerPresentation", "PredicateRegion", "Region",
        "UnionRegion", "accepts", "as_stem", "baire_region", "basic_contains",
        "cr_witness", "decide", "is_nowhere_dense", "nwd_witness", "precedes",
        "rejects", "restrict", "strong_reject_set",
    ),
    "games": (
        "ConstantOne", "FusionOne", "GreedyTwo", "LeastIndexTwo", "MeagerAvoidOne",
        "RejectionOne", "StrategyFault", "Transcript", "decide_all_finite", "play",
        "s1_select", "two_wins",
    ),
    "ramsey": (
        "BranchResult", "Coloring", "PartitionResult", "PartitionTree",
        "branch_walk", "build_partition_tree", "counterexample_step",
        "extract_homogeneous", "merge_colors_solve", "project_solve",
        "solve_partition", "stepup_solve",
    ),
    "barriers": (
        "FiniteSetFamily", "fg_witness", "is_dense", "is_thin", "nw_homogenize",
        "ramsey_via_nw",
    ),
    "mathias": (
        "Chain", "Condition", "compatible", "dense_meet", "extends", "gamma_eval",
        "valid_condition",
    ),
}
_HOME_OF = {name: module for module, names in _HOMES.items() for name in names}

__all__ = list(_HOME_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    # PEP 562: called only for names not yet in this module's globals.  A name
    # outside the table raises AttributeError, which is also how
    # `from omegaramsey import barriers` learns to import the submodule.
    try:
        module = _HOME_OF[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    from importlib import import_module

    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
