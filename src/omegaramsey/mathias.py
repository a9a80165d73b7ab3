"""The Mathias-style poset: stem-plus-side conditions and their extension order.

A condition pairs a finite committed stem with an admissible side of
candidates lying entirely above it.  Extension grows the stem only with
elements drawn from the weaker condition's side, and shrinks the side.  The
union of stems along a descending chain is the combinatorial shadow of the
generic object the poset builds.
"""

from __future__ import annotations

from typing import Callable, Optional

from .ground import (
    EXHAUSTIVE_CAP,
    TRUE,
    Family,
    LargenessParams,
    Record,
    StructuralError,
    Subfamily,
    admissible,
    admissible_subsets,
    json_indices,
    subsets_canonical,
)
from .ellentuck import Stem, as_stem, precedes, restrict


class Condition(Record):
    """A stem and a side; validity against params is checked separately."""

    __slots__ = ("stem", "side")

    def __init__(self, stem: Stem, side: Subfamily) -> None:
        if stem != as_stem(stem):
            raise StructuralError("condition stem must be sorted and duplicate free")
        object.__setattr__(self, "stem", stem)
        object.__setattr__(self, "side", side)

    @property
    def family(self) -> Family:
        return self.side.family

    def to_json(self) -> dict:
        return {"stem": list(self.stem), "side": self.side.to_json()}

    @classmethod
    def from_json(cls, data: dict, family: Family) -> "Condition":
        try:
            return cls(as_stem(json_indices(data["stem"])),
                       Subfamily.from_json(data["side"], family))
        except (KeyError, TypeError) as exc:
            raise StructuralError(f"malformed condition JSON: {exc!r}") from exc


def valid_condition(c: Condition, p: LargenessParams) -> bool:
    """Side above the stem, and admissible."""
    if not precedes(c.stem, c.side):
        return False
    return admissible(c.side, p) is TRUE


def extends(c1: Condition, c2: Condition) -> bool:
    """Does c1 refine c2?

    The stem grows, the side shrinks, and everything newly committed comes
    from c2's side past c2's stem.  Containments are non-strict, so every
    condition extends itself.
    """
    s1, s2 = set(c1.stem), set(c2.stem)
    if not s2 <= s1:
        return False
    if not set(c1.side.indices) <= set(c2.side.indices):
        return False
    allowed = set(restrict(c2.side, c2.stem).indices)
    return s1 - s2 <= allowed


def compatible(c1: Condition, c2: Condition,
               p: LargenessParams) -> Optional[Condition]:
    """A common refinement, or None.

    The only viable stem base is the union of the two stems, and enlarging
    the stem further or shrinking the side below the maximal leftover can
    only hurt admissibility, so a single candidate settles the question.
    """
    s1, s2 = set(c1.stem), set(c2.stem)
    side1, side2 = set(c1.side.indices), set(c2.side.indices)
    if not s2 - s1 <= set(restrict(c1.side, c1.stem).indices):
        return None
    if not s1 - s2 <= set(restrict(c2.side, c2.stem).indices):
        return None
    stem = as_stem(s1 | s2)
    side = restrict(Subfamily.of(c1.family, side1 & side2), stem)
    candidate = Condition(stem, side)
    if not valid_condition(candidate, p):
        return None
    if not (extends(candidate, c1) and extends(candidate, c2)):
        return None
    return candidate


class Chain(Record):
    """A descending sequence of conditions; each entry refines its predecessor."""

    __slots__ = ("conditions",)

    def __init__(self, conditions: tuple[Condition, ...]) -> None:
        if not conditions:
            raise StructuralError("a chain needs at least one condition")
        for earlier, later in zip(conditions, conditions[1:]):
            if not extends(later, earlier):
                raise StructuralError("chain entries must extend their predecessors")
        object.__setattr__(self, "conditions", conditions)


def gamma_eval(chain: Chain) -> Stem:
    """Union of the stems along the chain; equals the final stem."""
    out: set[int] = set()
    for c in chain.conditions:
        out |= set(c.stem)
    return as_stem(out)


def dense_meet(c: Condition, D: Callable[[Condition], bool],
               p: LargenessParams) -> Optional[Condition]:
    """Search below c for a condition satisfying the effect-free predicate D.

    Stem additions are tried smallest first in canonical order; for each stem
    the sides are tried largest first.  Every side tried costs one unit of
    budget, whether or not its candidate extends c; None after the budget
    runs out.
    """
    budget = p.search_bound
    for extra in subsets_canonical(c.side.indices):
        stem = as_stem(set(c.stem) | set(extra))
        pool = restrict(c.side, stem)
        if 2 ** len(pool.indices) > min(p.search_bound, EXHAUSTIVE_CAP):
            continue
        # every side lies in c's side, so whether a candidate extends c
        # depends on its stem alone
        if not extends(Condition(stem, pool), c):
            spent = len(admissible_subsets(pool, p))
            if spent > budget:
                return None
            budget -= spent
            continue
        for side_indices in admissible_subsets(pool, p, descending=True):
            budget -= 1
            if budget < 0:
                return None
            # stem is normalized and the side comes from a checked pool
            candidate = Condition._trusted(stem, Subfamily._trusted(c.family, side_indices))
            if D(candidate):
                return candidate
    return None
