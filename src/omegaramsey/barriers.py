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
from functools import lru_cache
from typing import Optional, Sequence

from .ground import (
    CACHE_SIZE,
    EXHAUSTIVE_CAP,
    TRUE,
    UNKNOWN,
    ContractError,
    Family,
    LargenessParams,
    Record,
    StructuralError,
    Subfamily,
    ThreeVal,
    admissible_subsets,
    json_indices,
)
from .ellentuck import Stem, as_stem


class FiniteSetFamily(Record):
    """A set of stems over a family's index range."""

    __slots__ = ("family", "stems")

    def __init__(self, family: Family, stems: frozenset[Stem]) -> None:
        n = len(family)
        for stem in stems:
            if stem != as_stem(stem):
                raise StructuralError(f"stem {stem} is not sorted and duplicate free")
            if stem and stem[-1] > n:
                raise StructuralError(f"stem {stem} exceeds the index range 1..{n}")
        object.__setattr__(self, "family", family)
        object.__setattr__(self, "stems", stems)

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
            return cls.of(family, (tuple(json_indices(s)) for s in data["stems"]))
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


def _mask(indices) -> int:
    """The int with bit i set for each index i, so that s is contained in m
    when `s & ~m` is 0."""
    m = 0
    for i in indices:
        m |= 1 << i
    return m


@lru_cache(maxsize=CACHE_SIZE)
def _admissible_masked(family: Family, p: LargenessParams
                       ) -> tuple[tuple[tuple[int, ...], int], ...]:
    """The family's admissible sets in canonical order, each with its mask.
    Raises EngineError on families over 16 members."""
    return tuple((b, _mask(b)) for b in admissible_subsets(Subfamily.full(family), p))


def _within_budget(family: Family, p: LargenessParams) -> bool:
    """Whether the family is small enough to scan every admissible set."""
    return 2 ** len(family) <= min(p.search_bound, EXHAUSTIVE_CAP)


def _dense_pass(stems: Optional[frozenset[Stem]], stem_masks: list[int],
                family: Family, p: LargenessParams, domain: Optional[int]
                ) -> tuple[Optional[int], Optional[tuple[int, ...]]]:
    """One walk over the family's admissible sets in canonical order, for
    the density test and the fg search at once.

    Gives (mask, None) for the first admissible set within the domain mask
    (all when None) that holds none of the stem masks.  Failing that, gives
    (None, the fg answer): the first admissible set within the domain whose
    admissible subsets all start with a stem, that is, one that holds none
    of the admissible sets that don't.  Every proper subset of a set comes
    before it, so a set holding one of the minimal stemless sets seen so far
    is passed over, a stemless set is kept as minimal, and the first set
    left that starts with a stem and lies within the domain is the answer.
    A set holding no stem at all is stemless.  Once the answer is found,
    the walk goes on for the density test alone; `stems` None asks for that
    test alone from the start.
    """
    outside = 0 if domain is None else ~domain
    searching = stems is not None
    lengths = {len(s) for s in stems or ()}
    minimal: list[int] = []
    found: Optional[tuple[int, ...]] = None
    for c, m in _admissible_masked(family, p):
        out = ~m
        stemfree = all(map(out.__and__, stem_masks))
        if stemfree and not m & outside:
            return m, None
        if searching and all(map(out.__and__, minimal)):
            if stemfree or not any(c[:j] in stems for j in lengths):
                minimal.append(m)
            elif not m & outside:
                found, searching = c, False
    return None, found


def is_dense(S: FiniteSetFamily, p: LargenessParams) -> ThreeVal:
    """Does every admissible subfamily contain some stem of S as a subset?"""
    if not _within_budget(S.family, p):
        return UNKNOWN
    counter, _ = _dense_pass(None, [_mask(s) for s in S.stems], S.family, p, None)
    return ThreeVal.of(counter is None)


class FgOutcome(Record):
    """kind is 'witness' or 'not_found'."""

    __slots__ = ("kind", "witness")

    def __init__(self, kind: str, witness: Optional[Subfamily]) -> None:
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "witness", witness)


def fg_witness(S: FiniteSetFamily, p: LargenessParams) -> FgOutcome:
    """An admissible B whose every admissible subset starts with a stem of S.

    Requires S dense; candidates are scanned in canonical order and the
    winner is verified by construction of the scan, in the same walk that
    tests density.
    """
    dense = _within_budget(S.family, p)
    if dense:
        counter, got = _dense_pass(S.stems, [_mask(s) for s in S.stems],
                                   S.family, p, None)
        dense = counter is None
    if not dense:
        raise ContractError("fg_witness needs a dense stem family")
    if got is None:
        return FgOutcome("not_found", None)
    return FgOutcome("witness", Subfamily(S.family, got))


class NwOutcome(Record):
    """kind is 'homogeneous' or 'not_found'; part is a 0-based part index."""

    __slots__ = ("kind", "witness", "part")

    def __init__(self, kind: str, witness: Optional[Subfamily], part: Optional[int]) -> None:
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "witness", witness)
        object.__setattr__(self, "part", part)


def _parts_met(part_masks: list[list[int]], m: int) -> set[int]:
    """The parts with a stem inside the mask m."""
    outside = ~m
    return {i for i, stems in enumerate(part_masks)
            if not all(map(outside.__and__, stems))}


def _peel_parts(fam: Family, normalized: tuple[frozenset[Stem], ...],
                part_masks: list[list[int]], p: LargenessParams
                ) -> Optional[NwOutcome]:
    """The constructive route of nw_homogenize, or None where it gives out."""
    domain: Optional[int] = None
    for part_index, part in enumerate(normalized):
        if part_index == len(normalized) - 1:
            outside = 0 if domain is None else ~domain
            got = next((c for c, m in _admissible_masked(fam, p) if not m & outside),
                       None)
        elif not part:
            continue
        else:
            counter, got = _dense_pass(part, part_masks[part_index], fam, p, domain)
            if counter is not None:
                # no stem of this part fits inside `counter`: peel the part off
                domain = counter
                continue
        if got is not None and _parts_met(part_masks, _mask(got)) <= {part_index}:
            return NwOutcome("homogeneous", Subfamily(fam, got), part_index)
        return None
    return None


def _homogeneous_scan(fam: Family, part_masks: list[list[int]],
                      p: LargenessParams) -> NwOutcome:
    """The exhaustive fallback: the first admissible set whose stems meet at
    most one part.

    A set whose stems meet two parts passes that on to every superset, so
    the scan keeps the minimal such mixed sets and skips every set that
    holds one of them.
    """
    mixed: list[int] = []
    for b, m in _admissible_masked(fam, p):
        if not part_masks:  # nothing to answer, but large families still raise
            break
        if not all(map((~m).__and__, mixed)):
            continue
        met = _parts_met(part_masks, m)
        if len(met) <= 1:
            return NwOutcome("homogeneous", Subfamily(fam, b), min(met, default=0))
        mixed.append(m)
    return NwOutcome("not_found", None, None)


def nw_homogenize(T: FiniteSetFamily, parts: Sequence,
                  p: LargenessParams) -> NwOutcome:
    """Drive a partition of a thin family into one part on an admissible set.

    Follows the two-part argument, peeling one part at a time: a part that is
    not dense inside the current domain is avoided outright via the density
    counterexample; a dense part is pinned down through fg_witness and the
    thinness of T.  The output is re-verified, with an exhaustive scan that
    skips the supersets of mixed sets as fallback.  A set is homogeneous for
    part i when the stems inside it meet no part but i.
    """
    if not is_thin(T):
        raise ContractError("nw_homogenize needs a thin family")
    normalized = partition_of(T, parts)
    return _homogenize(T.family, normalized,
                       [[_mask(s) for s in part] for part in normalized], p)


def _homogenize(fam: Family, normalized: tuple[frozenset[Stem], ...],
                part_masks: list[list[int]], p: LargenessParams) -> NwOutcome:
    """nw_homogenize past its checks: the constructive route, then the scan."""
    return _peel_parts(fam, normalized, part_masks, p) or \
        _homogeneous_scan(fam, part_masks, p)


def ramsey_via_nw(family: Family, f, p: LargenessParams
                  ) -> Optional[tuple[Subfamily, int]]:
    """Solve a partition instance by homogenizing the thin family of n-sets.

    The n-element index sets, partitioned by color, are homogenized as
    nw_homogenize does; the returned part index is the color.  They come
    sorted and distinct from itertools.combinations, so they form a thin
    family and their parts a partition of it, without the checks.  A set
    below the arity holds no n-set and would be homogeneous for every part,
    so only sets of at least n indices count.
    """
    n, k = f.arity, f.colors
    if p.min_size < n:
        p = LargenessParams(p.d, n, p.search_bound)
    parts: list[list[Stem]] = [[] for _ in range(k)]
    for s in itertools.combinations(family.indices, n):
        parts[f.of(s)].append(s)
    got = _homogenize(family, tuple(map(frozenset, parts)),
                      [[_mask(s) for s in part] for part in parts], p)
    if got.kind != "homogeneous":
        return None
    for combo in itertools.combinations(got.witness.indices, n):
        if f.of(combo) != got.part:
            raise ContractError("homogenization returned a miscolored set")
    return got.witness, got.part
