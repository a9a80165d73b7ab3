"""Thin and dense families of finite index sets, and their homogenization.

A family of stems is thin when no stem is an initial segment of another in
the fixed index order; it is dense when every admissible subfamily contains
some stem as a subset.  fg_witness finds an admissible set all of whose
admissible subsets start with a stem of a dense family; nw_homogenize drives
a partition of a thin family into a single part over some admissible set.
Both searches follow the constructive argument first and re-verify, with an
exhaustive scan as the safety net.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from .ground import (
    EXHAUSTIVE_CAP,
    TRUE,
    UNKNOWN,
    ContractError,
    Family,
    LargenessParams,
    StructuralError,
    Subfamily,
    ThreeVal,
    admissible_subsets,
)
from .ellentuck import Stem, as_stem


@dataclass(frozen=True)
class FiniteSetFamily:
    """A set of stems over a family's index range."""

    family: Family
    stems: frozenset[Stem]

    def __post_init__(self) -> None:
        n = len(self.family)
        for stem in self.stems:
            if stem != as_stem(stem):
                raise StructuralError(f"stem {stem} is not sorted and duplicate free")
            if stem and stem[-1] > n:
                raise StructuralError(f"stem {stem} exceeds the index range 1..{n}")

    @classmethod
    def of(cls, family: Family, stems) -> "FiniteSetFamily":
        return cls(family, frozenset(as_stem(s) for s in stems))

    def to_json(self) -> dict:
        return {"stems": sorted((list(s) for s in self.stems))}

    @classmethod
    def from_json(cls, data: dict, family: Family) -> "FiniteSetFamily":
        if not isinstance(data, dict) or "stems" not in data:
            raise StructuralError("finite set family JSON needs 'stems'")
        try:
            return cls.of(family, (tuple(s) for s in data["stems"]))
        except TypeError as exc:
            raise StructuralError(f"malformed finite set family JSON: {exc!r}") from exc


def is_initial_segment(s: Stem, t: Stem) -> bool:
    """Is s the first len(s) entries of t in index order?  Equality counts."""
    return len(s) <= len(t) and t[:len(s)] == s


def is_thin(T: FiniteSetFamily) -> bool:
    """No stem is an initial segment of a different stem.  In sorted order a
    stem's extensions follow it directly, so its successor is the one to check."""
    stems = sorted(T.stems)
    return not any(is_initial_segment(s, t) for s, t in zip(stems, stems[1:]))


def partition_of(T: FiniteSetFamily, parts: Sequence) -> tuple[frozenset[Stem], ...]:
    """Validate and normalize a partition of T's stems into disjoint parts."""
    normalized = [frozenset(as_stem(s) for s in part) for part in parts]
    union: set[Stem] = set()
    total = 0
    for part in normalized:
        union.update(part)
        total += len(part)
    if union != set(T.stems) or total != len(T.stems):
        raise StructuralError("parts must be disjoint and cover every stem")
    return tuple(normalized)


def _admissible_in(family: Family, p: LargenessParams,
                   domain: Optional[tuple[int, ...]]) -> Iterator[tuple[int, ...]]:
    """The admissible sets of the family inside domain (all when None), in
    canonical order.  Raises EngineError on families over 16 members."""
    subs = admissible_subsets(Subfamily.full(family), p)
    dom = None if domain is None else set(domain)
    yield from subs if dom is None else (b for b in subs if dom.issuperset(b))


def _density_counterexample(S: FiniteSetFamily, p: LargenessParams,
                            domain: Optional[tuple[int, ...]]
                            ) -> Optional[tuple[int, ...]]:
    """First admissible set (within domain) containing no stem of S."""
    for b in _admissible_in(S.family, p, domain):
        b_set = set(b)
        if not any(b_set.issuperset(s) for s in S.stems):
            return b
    return None


def is_dense(S: FiniteSetFamily, p: LargenessParams) -> ThreeVal:
    """Does every admissible subfamily contain some stem of S as a subset?"""
    if 2 ** len(S.family) > min(p.search_bound, EXHAUSTIVE_CAP):
        return UNKNOWN
    return ThreeVal.of(_density_counterexample(S, p, None) is None)


@dataclass(frozen=True)
class FgOutcome:
    kind: str                     # "witness" | "not_found"
    witness: Optional[Subfamily]


def _fg_search(S: FiniteSetFamily, p: LargenessParams,
               domain: Optional[tuple[int, ...]]) -> Optional[tuple[int, ...]]:
    """First admissible set (within domain) whose admissible subsets all start
    with a stem of S: one that holds none of the admissible sets that don't."""
    stemless = [set(c) for c in _admissible_in(S.family, p, None)
                if not any(c[:j] in S.stems for j in range(len(c) + 1))]
    for b in _admissible_in(S.family, p, domain):
        b_set = set(b)
        if not any(c <= b_set for c in stemless):
            return b
    return None


def fg_witness(S: FiniteSetFamily, p: LargenessParams) -> FgOutcome:
    """An admissible B whose every admissible subset starts with a stem of S.

    Requires S dense; candidates are scanned in canonical order and the
    winner is verified by construction of the scan.
    """
    if is_dense(S, p) is not TRUE:
        raise ContractError("fg_witness needs a dense stem family")
    got = _fg_search(S, p, None)
    if got is None:
        return FgOutcome("not_found", None)
    return FgOutcome("witness", Subfamily(S.family, got))


@dataclass(frozen=True)
class NwOutcome:
    kind: str                     # "homogeneous" | "not_found"
    witness: Optional[Subfamily]
    part: Optional[int]           # 0-based part index


def nw_homogenize(T: FiniteSetFamily, parts: Sequence,
                  p: LargenessParams) -> NwOutcome:
    """Drive a partition of a thin family into one part on an admissible set.

    Follows the two-part argument, peeling one part at a time: a part that is
    not dense inside the current domain is avoided outright via the density
    counterexample; a dense part is pinned down through fg_witness and the
    thinness of T.  The output is re-verified, with an exhaustive scan as
    fallback.  A set is homogeneous for part i when the stems inside it meet
    no part but i.
    """
    if not is_thin(T):
        raise ContractError("nw_homogenize needs a thin family")
    normalized = partition_of(T, parts)
    fam = T.family
    stem_parts = [(set(s), i) for i, part in enumerate(normalized) for s in part]

    def parts_met(b: tuple[int, ...]) -> set[int]:
        b_set = set(b)
        return {i for s, i in stem_parts if s <= b_set}

    domain: Optional[tuple[int, ...]] = None
    for part_index, part in enumerate(normalized):
        if part_index == len(normalized) - 1:
            got = next(_admissible_in(fam, p, domain), None)
        elif not part:
            continue
        else:
            sub_family = FiniteSetFamily(fam, part)
            counter = _density_counterexample(sub_family, p, domain)
            if counter is not None:
                # no stem of this part fits inside `counter`: peel the part off
                domain = counter
                continue
            got = _fg_search(sub_family, p, domain)
        if got is not None and parts_met(got) <= {part_index}:
            return NwOutcome("homogeneous", Subfamily(fam, got), part_index)
        break

    for b in _admissible_in(fam, p, None):
        if not normalized:  # nothing to answer, but large families still raise
            break
        met = parts_met(b)
        if len(met) <= 1:
            return NwOutcome("homogeneous", Subfamily(fam, b), min(met, default=0))
    return NwOutcome("not_found", None, None)


def ramsey_via_nw(family: Family, f, p: LargenessParams
                  ) -> Optional[tuple[Subfamily, int]]:
    """Solve a partition instance by homogenizing the thin family of n-sets.

    The n-element index sets, partitioned by color, feed nw_homogenize; the
    returned part index is the color.
    """
    n, k = f.arity, f.colors
    stems = [tuple(c) for c in itertools.combinations(family.indices, n)]
    T = FiniteSetFamily.of(family, stems)
    parts = [[s for s in stems if f.of(s) == color] for color in range(k)]
    got = nw_homogenize(T, parts, p)
    if got.kind != "homogeneous":
        return None
    for combo in itertools.combinations(got.witness.indices, n):
        if f.of(combo) != got.part:
            raise ContractError("homogenization returned a miscolored set")
    return got.witness, got.part
