"""Brute-force reference evaluators for everything the engine searches for.

Each function here is a direct transcription of a definition with every
quantifier expanded, no pruning and no shared search code with the engine
paths it validates.  Sizes are hard-guarded: past the guard the oracle
refuses outright rather than approximating, so an oracle answer is always
exact.  Engine-versus-oracle disagreements are resolved in the oracle's
favor during triage.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Optional, Sequence

from .ground import CACHE_SIZE, EngineError, Family, LargenessParams, Subfamily
from .ellentuck import ComplementRegion, Region, as_stem

SIZE_LIMIT = 12


class OracleSizeError(EngineError):
    """The instance is too large for exact brute force; refuse, never guess."""


def _guard(count: int, what: str) -> None:
    if count > SIZE_LIMIT:
        raise OracleSizeError(f"{what} of size {count} exceeds the oracle "
                              f"limit of {SIZE_LIMIT}")


def _is_admissible(family: Family, indices: tuple[int, ...],
                   p: LargenessParams) -> bool:
    # memoized on d and min_size alone: the search bound never changes the
    # answer, and ints hash faster than LargenessParams
    return _admissible_at(family, indices, p.d, p.min_size)


@lru_cache(maxsize=CACHE_SIZE)
def _admissible_at(family: Family, indices: tuple[int, ...], d: int,
                   min_size: int) -> bool:
    """Size gate plus cover check, written out point set by point set."""
    if len(indices) < min_size:
        return False
    members = [family.member(i) for i in indices]
    for size in range(1, d + 1):
        for points in itertools.combinations(family.universe.points(), size):
            if not any(set(points) <= m for m in members):
                return False
    return True


def brute_admissible(sub: Subfamily, p: LargenessParams) -> bool:
    """Is the subfamily admissible: the size gate and every point set of size
    at most d inside one of its members?"""
    return _is_admissible(sub.family, sub.indices, p)


def _subsets(pool: Sequence[int]):
    pool = sorted(pool)
    for size in range(len(pool) + 1):
        yield from itertools.combinations(pool, size)


def brute_accepts(B: Subfamily, s, R: Region, p: LargenessParams) -> bool:
    """Every admissible D with s <= D <= s u B and D \\ s above s lies in R."""
    _guard(len(B.indices), "reservoir")
    s = as_stem(s)
    fam = B.family
    for extra in _subsets(B.indices):
        d_indices = tuple(sorted(set(s) | set(extra)))
        if set(extra) - set(s) and s and min(set(extra) - set(s)) <= max(s):
            continue
        if not _is_admissible(fam, d_indices, p):
            continue
        if not R.contains(Subfamily(fam, d_indices)):
            return False
    return True


def brute_rejects(B: Subfamily, s, R: Region, p: LargenessParams) -> bool:
    """No admissible subset of B accepts s."""
    _guard(len(B.indices), "reservoir")
    s = as_stem(s)
    fam = B.family
    for combo in _subsets(B.indices):
        if not _is_admissible(fam, combo, p):
            continue
        if brute_accepts(Subfamily(fam, combo), s, R, p):
            return False
    return True


def brute_cr(R: Region, s, B: Subfamily,
             p: LargenessParams) -> Optional[tuple[str, Subfamily]]:
    """First admissible C <= B with [s, C] inside R or disjoint from R: C
    accepts s against R, or against R's complement.

    Returns ("inside", C) or ("outside", C), or None when no admissible
    subset of B is decided either way.
    """
    _guard(len(B.indices), "reservoir")
    s = as_stem(s)
    complement = ComplementRegion(R)
    for combo in _subsets(B.indices):
        if not _is_admissible(B.family, combo, p):
            continue
        C = Subfamily(B.family, combo)
        if brute_accepts(C, s, R, p):
            return ("inside", C)
        if brute_accepts(C, s, complement, p):
            return ("outside", C)
    return None


def brute_homogeneous(family: Family, f, r: int, k: int,
                      min_size: int) -> list[tuple[tuple[int, ...], int]]:
    """All subfamilies of size >= min_size on which f is constant.

    Powerset filter over the allowed sizes, smallest first; a set qualifies
    when it has at least one r-subset and all of them share one color.  A
    set's r-subsets are read only up to the first one of another color, so f
    must be total on the family.
    """
    _guard(len(family), "family")
    if f.arity != r or f.colors != k:
        raise EngineError("coloring shape does not match the requested check")
    out: list[tuple[tuple[int, ...], int]] = []
    pool = sorted(family.indices)
    for size in range(max(min_size, 1), len(pool) + 1):
        for combo in itertools.combinations(pool, size):
            colors = map(f.of, itertools.combinations(combo, r))
            first = next(colors, None)
            if first is None:
                continue
            if all(map(first.__eq__, colors)):
                out.append((combo, first))
    return out


def brute_nw(T, parts: Sequence, p: LargenessParams
             ) -> list[tuple[tuple[int, ...], int]]:
    """All (B, part index) with B admissible and every stem of T in B in
    that single part."""
    family = T.family
    _guard(len(family), "family")
    normalized = [frozenset(as_stem(s) for s in part) for part in parts]
    out: list[tuple[tuple[int, ...], int]] = []
    for combo in _subsets(family.indices):
        if not _is_admissible(family, combo, p):
            continue
        inside = [s for s in T.stems if set(s) <= set(combo)]
        for i, part in enumerate(normalized):
            if all(s in part for s in inside):
                out.append((combo, i))
    return out
