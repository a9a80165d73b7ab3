"""`is_nowhere_dense` and `dense_meet` against frozen copies of their first scans.

The copies below are the plain scans the engine started from: one membership
test per member of every basic's content, and one extension check per
candidate.  The engine may find the same answers with less work, so every
answer is compared with the copy's on random small families: the verdict of
`is_nowhere_dense` for every region kind, and for `dense_meet` the returned
condition together with the candidates handed to the predicate, in order.
"""

import itertools
import random

from hypothesis import given, settings, strategies as st

from omegaramsey import (
    FALSE,
    TRUE,
    UNKNOWN,
    BasicUnionRegion,
    ComplementRegion,
    Condition,
    EllentuckBasic,
    ExplicitRegion,
    Family,
    IntersectionRegion,
    LargenessParams,
    PredicateRegion,
    Subfamily,
    UnionRegion,
    as_stem,
    dense_meet,
    extends,
    is_nowhere_dense,
    restrict,
)
from omegaramsey.ellentuck import _all_basics_with_content
from omegaramsey.ground import EXHAUSTIVE_CAP, admissible_subsets, subsets_canonical


def reference_is_nowhere_dense(R, family, p):
    """The per-basic scan, kept as the reference."""
    if 3 ** len(family) > p.search_bound or 2 ** len(family) > 4096:
        return UNKNOWN
    basics = _all_basics_with_content(family, p)
    free = [keys for (_, _, keys) in basics
            if all(not R.contains(Subfamily(family, d)) for d in keys)]
    for _, _, keys in basics:
        if not any(v <= keys for v in free):
            return FALSE
    return TRUE


def reference_dense_meet(c, D, p):
    """The per-candidate scan, kept as the reference."""
    budget = p.search_bound
    for extra in subsets_canonical(c.side.indices):
        stem = as_stem(set(c.stem) | set(extra))
        pool = restrict(c.side, stem)
        if 2 ** len(pool.indices) > min(p.search_bound, EXHAUSTIVE_CAP):
            continue
        for side_indices in admissible_subsets(pool, p, descending=True):
            budget -= 1
            if budget < 0:
                return None
            candidate = Condition(stem, Subfamily(c.family, side_indices))
            if not extends(candidate, c):
                continue
            if D(candidate):
                return candidate
    return None


def index_sets(n, draw):
    """A sorted, duplicate-free index tuple over 1..n."""
    return tuple(sorted(draw(st.sets(st.integers(1, n), max_size=n))))


def large_index_sets(n, draw):
    """1..n less at most three indices, which is often admissible."""
    dropped = draw(st.sets(st.integers(1, n), max_size=3))
    return tuple(i for i in range(1, n + 1) if i not in dropped)


@st.composite
def families(draw, max_members=8):
    """4 to max_members sets of 2 or more points covering a 4- or 5-point universe."""
    size = draw(st.integers(4, 5))
    proper = [frozenset(c) for r in range(2, size)
              for c in itertools.combinations(range(1, size + 1), r)]
    members = draw(st.lists(st.sampled_from(proper), min_size=4, max_size=max_members)
                   .filter(lambda ms: len(frozenset().union(*ms)) == size))
    return Family.of(size, members)


def leaf_regions(family, draw):
    n = len(family)
    kind = draw(st.sampled_from(("explicit", "basics", "predicate")))
    if kind == "explicit":
        draw_set = draw(st.sampled_from((index_sets, large_index_sets)))
        return ExplicitRegion(frozenset(
            draw_set(n, draw) for _ in range(draw(st.integers(0, 6)))))
    if kind == "basics":
        basics = []
        for _ in range(draw(st.integers(0, 3))):
            stem = index_sets(n, draw)[:2]
            top = max(stem) if stem else 0
            reservoir = tuple(i for i in index_sets(n, draw) if i > top)
            basics.append(EllentuckBasic(stem, Subfamily(family, reservoir)))
        return BasicUnionRegion(tuple(basics))
    modulus = draw(st.integers(1, 5))
    residue = draw(st.integers(0, modulus - 1))
    return PredicateRegion(
        lambda D: sum(i * i for i in D.indices) % modulus == residue,
        f"squares = {residue} mod {modulus}")


@st.composite
def regions(draw, family, depth=2):
    """A leaf region, or a union, intersection or complement of smaller ones."""
    if depth == 0 or draw(st.booleans()):
        return leaf_regions(family, draw)
    kind = draw(st.sampled_from(("union", "intersection", "complement")))
    if kind == "complement":
        return ComplementRegion(draw(regions(family, depth - 1)))
    parts = tuple(draw(regions(family, depth - 1))
                  for _ in range(draw(st.integers(1, 3))))
    return UnionRegion(parts) if kind == "union" else IntersectionRegion(parts)


@st.composite
def region_cases(draw):
    family = draw(families())
    p = LargenessParams(d=1, min_size=draw(st.integers(1, 4)))
    return family, draw(regions(family)), p


@st.composite
def meet_cases(draw):
    """A condition, a predicate and params.

    Stems and sides are drawn independently, so a side may reach below the
    stem's top or overlap it, and some stem additions then fail the extension
    order; small search bounds run out part-way through the scan.  Stems
    stay low and sides are the family less a few members, so that most
    stem additions leave a pool with admissible subsets.
    """
    family = draw(families())
    n = len(family)
    stem = index_sets(4, draw)[:draw(st.integers(0, 3))]
    side = large_index_sets(n, draw)
    bound = draw(st.one_of(st.integers(5, 400), st.just(1_000_000)))
    p = LargenessParams(d=1, min_size=draw(st.integers(1, 3)), search_bound=bound)
    floor = draw(st.integers(0, 4))
    modulus = draw(st.integers(1, 7))
    kind = draw(st.sampled_from(("stem size", "stem and side sums", "never")))
    return Condition(stem, Subfamily(family, side)), (kind, floor, modulus), p


def logged(predicate):
    """The predicate D built from a drawn spec, and the list D appends to."""
    kind, floor, modulus = predicate
    seen = []

    def D(candidate):
        seen.append((candidate.stem, candidate.side.indices))
        if kind == "stem size":
            return len(candidate.stem) >= floor
        if kind == "stem and side sums":
            return (3 * sum(candidate.stem) + sum(candidate.side.indices)) % modulus == 0
        return False
    return D, seen


def meet_outcome(scan, c, predicate, p):
    D, seen = logged(predicate)
    got = scan(c, D, p)
    return (None if got is None else (got.stem, got.side.indices)), seen


class TestNowhereDenseReference:
    @settings(max_examples=150, deadline=None)
    @given(region_cases())
    def test_matches_the_per_basic_scan(self, case):
        family, region, p = case
        assert is_nowhere_dense(region, family, p) is \
            reference_is_nowhere_dense(region, family, p)

    def test_matches_on_the_grid_singletons_and_pairs(self, grid5, p_grid):
        adm = admissible_subsets(Subfamily.full(grid5), p_grid)
        rng = random.Random(15)
        verdicts = set()
        for _ in range(40):
            region = ExplicitRegion(frozenset(rng.sample(adm, rng.randint(1, 2))))
            got = is_nowhere_dense(region, grid5, p_grid)
            assert got is reference_is_nowhere_dense(region, grid5, p_grid)
            verdicts.add(got)
        assert verdicts == {TRUE, FALSE}


class TestDenseMeetReference:
    @settings(max_examples=300, deadline=None)
    @given(meet_cases())
    def test_matches_the_per_candidate_scan(self, case):
        c, predicate, p = case
        assert meet_outcome(dense_meet, c, predicate, p) == \
            meet_outcome(reference_dense_meet, c, predicate, p)

    def test_every_bound_on_sides_below_the_stem(self, grid5):
        # each side starts below its stem's top, so stem additions under the
        # top fail the extension order and their sides are charged unseen;
        # the bounds run out before, inside and after those blocks
        seen_kinds = set()
        for stem, side in (((3,), (1, 2, 4, 5, 6, 7)), ((2,), (1, 3, 4, 5, 6, 7))):
            c = Condition(stem, Subfamily(grid5, side))
            for predicate in (("stem size", 3, 1), ("never", 0, 1)):
                for bound in range(1, 130):
                    p = LargenessParams(d=1, min_size=2, search_bound=bound)
                    got = meet_outcome(dense_meet, c, predicate, p)
                    assert got == meet_outcome(reference_dense_meet, c, predicate, p)
                    seen_kinds.add((got[0] is None, bool(got[1])))
        # answers, budget spent before any candidate, and budget spent after some
        assert seen_kinds == {(False, True), (True, False), (True, True)}
