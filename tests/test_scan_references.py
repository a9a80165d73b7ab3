"""Engine scans against frozen copies of the plain scans they started from.

The copies below are kept as the reference: `is_nowhere_dense`'s membership
test per member of every basic's content and `dense_meet`'s extension check
per candidate; `cr_witness` with the check of the reservoir and the
largest-first scan written out as two loops; the descending admissible order
as a sort of the ascending one; `barriers`' density, fg and homogenization
scans, which build every mask they test, and a part's density scan and fg
scan run as two passes; the pivot tree's `_split` and the
exhaustive net, which read each color through `Coloring.of`; and the pair
solver's branch and classical walks, which split every level through that
`_split`, and its ranking, which builds a validated Subfamily and asks for
its admissibility once per ranked candidate and again for the result.  The
engine may find the same answers with less work, so every answer is
compared with the copy's on random small families: verdicts, witnesses and
the candidates handed to a predicate in order, and for colorings that miss
an entry, the error's type and message.
"""

import collections
import itertools
import random
from typing import Optional
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from omegaramsey import (
    FALSE,
    TRUE,
    UNKNOWN,
    BasicUnionRegion,
    BranchResult,
    Coloring,
    ComplementRegion,
    Condition,
    ContractError,
    DegenerateError,
    EllentuckBasic,
    ExplicitRegion,
    Family,
    FiniteSetFamily,
    IntersectionRegion,
    InternalCheckError,
    LargenessParams,
    PartitionResult,
    PredicateRegion,
    StructuralError,
    Subfamily,
    ThreeVal,
    UnionRegion,
    admissible,
    as_stem,
    build_partition_tree,
    branch_walk,
    cr_witness,
    dense_meet,
    extends,
    extract_homogeneous,
    fg_witness,
    is_dense,
    is_nowhere_dense,
    is_thin,
    nw_homogenize,
    precedes,
    ramsey_via_nw,
    restrict,
    solve_partition,
)
from omegaramsey import barriers, ground, ramsey
from omegaramsey.barriers import FgOutcome, NwOutcome, partition_of
from omegaramsey.ellentuck import (
    CrOutcome,
    _all_basics_with_content,
    _basic_content,
    _cr_constructive,
)
from omegaramsey.ground import (
    EXHAUSTIVE_CAP,
    EngineError,
    _admissible_cached,
    admissible_subsets,
    admissible_subsets_unknown_flag,
    colex_key,
    subsets_canonical,
)
from omegaramsey.ramsey import pair_size_guarantee


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


def reference_cr_witness(R, s, B, p, innings=4, subset_cap=3, route="auto"):
    """`cr_witness` testing B and the scanned candidates in two loops, kept
    as the reference."""
    s = as_stem(s)
    if not precedes(s, B):
        raise ContractError(f"stem {s} does not precede reservoir {B.indices}")
    if route not in ("auto", "exhaustive"):
        raise StructuralError(f"unknown cr_witness route {route!r}")
    if admissible(B, p) is TRUE:
        content, saw_unknown = _basic_content(B.family, s, B.indices, p)
        if not saw_unknown:
            flags = [R.contains(D) for D in content]
            if all(flags):
                return CrOutcome("inside", B)
            if not any(flags):
                return CrOutcome("outside", B)
    if route == "auto" and len(s) <= subset_cap:
        got = _cr_constructive(R, s, B, p, innings, subset_cap)
        if got is not None:
            return got
    for c_indices in admissible_subsets(B, p, descending=True):
        C = Subfamily(B.family, c_indices)
        content, saw_unknown = _basic_content(B.family, s, c_indices, p)
        if saw_unknown:
            continue
        flags = [R.contains(D) for D in content]
        if all(flags):
            return CrOutcome("inside", C)
        if not any(flags):
            return CrOutcome("outside", C)
    return CrOutcome("not_found", None)


def reference_descending(ascending):
    """The descending order as a sort of the ascending tuple, kept as the reference."""
    return tuple(sorted(ascending, key=lambda t: (-len(t), colex_key(t))))


def reference_scan(pool, p):
    """The admissible subsets of a pool in canonical order, and whether any
    subset's verdict was UNKNOWN."""
    verdicts = [(c, _admissible_cached(pool.family, c, p))
                for c in subsets_canonical(pool.indices, min_size=p.min_size)]
    return (tuple(c for c, v in verdicts if v is TRUE),
            any(v is UNKNOWN for _, v in verdicts))


def reference_mask(indices):
    m = 0
    for i in indices:
        m |= 1 << i
    return m


def reference_admissible_in(family, p, domain):
    """The admissible sets within the domain mask, each with a mask built anew."""
    masked = ((b, reference_mask(b))
              for b in admissible_subsets(Subfamily.full(family), p))
    return masked if domain is None else \
        (bm for bm in masked if bm[1] & domain == bm[1])


def reference_density_counterexample(stems, family, p, domain):
    """The per-set density scan, kept as the reference."""
    for _, m in reference_admissible_in(family, p, domain):
        if not any(s & m == s for s in stems):
            return m
    return None


def reference_fg_search(stems, family, p, domain):
    """The stemless-set scan, kept as the reference."""
    lengths = {len(s) for s in stems}
    minimal = []
    for c in admissible_subsets(Subfamily.full(family), p):
        if not any(c[:j] in stems for j in lengths):
            m = reference_mask(c)
            if not any(k & m == k for k in minimal):
                minimal.append(m)
    for b, m in reference_admissible_in(family, p, domain):
        if not any(k & m == k for k in minimal):
            return b
    return None


def reference_is_dense(S, p):
    if 2 ** len(S.family) > min(p.search_bound, EXHAUSTIVE_CAP):
        return UNKNOWN
    stems = [reference_mask(s) for s in S.stems]
    return ThreeVal.of(
        reference_density_counterexample(stems, S.family, p, None) is None)


def reference_fg_witness(S, p):
    if reference_is_dense(S, p) is not TRUE:
        raise ContractError("fg_witness needs a dense stem family")
    got = reference_fg_search(S.stems, S.family, p, None)
    if got is None:
        return FgOutcome("not_found", None)
    return FgOutcome("witness", Subfamily(S.family, got))


def reference_dense_part(part, family, p, domain):
    """A part's two passes, kept as the reference: the density scan within
    the domain mask, then, when it finds no counterexample, the fg scan from
    the start.  Gives (counterexample mask, None) or (None, fg answer)."""
    counter = reference_density_counterexample(
        [reference_mask(s) for s in part], family, p, domain)
    if counter is not None:
        return counter, None
    return None, reference_fg_search(part, family, p, domain)


def dense_part(part, family, p, domain):
    """The engine's one pass over a part, density test and fg search at once."""
    return barriers._dense_pass(part, [barriers._mask(s) for s in part], family, p,
                                domain)


def reference_nw_homogenize(T, parts, p):
    """The part-peeling homogenization, kept as the reference."""
    if not is_thin(T):
        raise ContractError("nw_homogenize needs a thin family")
    normalized = partition_of(T, parts)
    fam = T.family
    part_masks = [[reference_mask(s) for s in part] for part in normalized]

    def parts_met(m):
        return {i for i, stems in enumerate(part_masks)
                if any(s & m == s for s in stems)}

    domain = None
    for part_index, part in enumerate(normalized):
        if part_index == len(normalized) - 1:
            got = next(reference_admissible_in(fam, p, domain), (None,))[0]
        elif not part:
            continue
        else:
            counter = reference_density_counterexample(part_masks[part_index],
                                                       fam, p, domain)
            if counter is not None:
                domain = counter
                continue
            got = reference_fg_search(part, fam, p, domain)
        if got is not None and parts_met(reference_mask(got)) <= {part_index}:
            return NwOutcome("homogeneous", Subfamily(fam, got), part_index)
        break

    for b, m in reference_admissible_in(fam, p, None):
        if not normalized:
            break
        met = parts_met(m)
        if len(met) <= 1:
            return NwOutcome("homogeneous", Subfamily(fam, b), min(met, default=0))
    return NwOutcome("not_found", None, None)


def reference_ramsey_via_nw(family, f, p):
    n, k = f.arity, f.colors
    if p.min_size < n:  # a set below the arity would be homogeneous vacuously
        p = LargenessParams(p.d, n, p.search_bound)
    stems = [tuple(c) for c in itertools.combinations(family.indices, n)]
    T = FiniteSetFamily.of(family, stems)
    parts = [[s for s in stems if f.of(s) == color] for color in range(k)]
    got = reference_nw_homogenize(T, parts, p)
    if got.kind != "homogeneous":
        return None
    for combo in itertools.combinations(got.witness.indices, n):
        if f.of(combo) != got.part:
            raise ContractError("homogenization returned a miscolored set")
    return got.witness, got.part


def reference_split(content, pivot, f):
    """The pivot split reading each color through `Coloring.of`."""
    zero, one = [], []
    for n in content:
        if n <= pivot:
            continue
        (zero if f.of((pivot, n)) == 0 else one).append(n)
    return tuple(zero), tuple(one)


def reference_exhaustive_mono(family, f, domain, p, require_admissible):
    """The exhaustive net reading each face color through `Coloring.of`."""
    if 2 ** len(domain) > EXHAUSTIVE_CAP:
        return None
    r = f.arity
    floor = max(r, p.min_size) if require_admissible else r
    best: Optional[tuple] = None

    def is_admissible(indices):
        return _admissible_cached(family, indices, p) is TRUE

    def target():
        return len(best[0]) if best else floor

    def grow(chosen, color, joinable):
        nonlocal best
        size = len(chosen)
        if size >= floor and (best is None or (-size, colex_key(chosen)) <
                              (-len(best[0]), colex_key(best[0]))) and \
                (not require_admissible or is_admissible(chosen)):
            best = (chosen, color)
        if size + len(joinable) < target() or (
                require_admissible and joinable and
                not is_admissible(chosen + tuple(joinable))):
            return
        for pos, j in enumerate(joinable):
            rest = joinable[pos + 1:]
            if size + 1 + len(rest) < target():
                break
            grown = chosen + (j,)
            if len(grown) < r:
                grow(grown, None, rest)
                continue
            if len(grown) == r:
                c = f.of(grown)
                faces = list(itertools.combinations(grown, r - 1))
            else:
                c = color
                faces = [t + (j,) for t in itertools.combinations(chosen, r - 2)] \
                    if r > 1 else []
            for t in faces:
                rest = [k for k in rest if f.of(t + (k,)) == c]
            grow(grown, c, rest)

    grow((), None, sorted(domain))
    return best


def reference_branch_walk(family, f, domain=None):
    """`branch_walk` splitting every level through `reference_split`."""
    if f.arity != 2 or f.colors > 2:
        raise ContractError("branch walk needs a 2-coloring of pairs")
    domain = family.indices if domain is None else tuple(sorted(domain))
    content = domain
    pivots, colors = [], []
    for pivot in domain:
        if pivot in content:
            pivots.append(pivot)
        zero, one = reference_split(content, pivot, f)
        if not zero and not one:
            break
        if len(one) > len(zero):
            colors.append(1)
            content = one
        else:
            colors.append(0)
            content = zero
    if len(pivots) < 2:
        raise DegenerateError("family too small for a branch walk")
    return BranchResult(family, tuple(pivots), tuple(colors), domain)


def reference_extract_homogeneous(br, f):
    """`extract_homogeneous` finding each pivot's level in a dict over the domain."""
    *colored, last = br.pivots
    level = {index: m for m, index in enumerate(br.domain)}
    by_color = {0: [], 1: []}
    for pivot in colored:
        by_color[br.colors[level[pivot]]].append(pivot)
    color = 0 if len(by_color[0]) >= len(by_color[1]) else 1
    chosen = tuple(by_color[color]) + (last,)
    for pair in itertools.combinations(chosen, 2):
        if f.of(pair) != color:
            raise InternalCheckError(f"extracted class is not monochromatic at {pair}")
    return Subfamily(br.family, chosen), color


def reference_classical_pivot_walk(family, f, domain):
    """The minimum-pivot walk splitting every pool through `reference_split`."""
    pool = tuple(sorted(domain))
    pivots, colors = [], []
    while pool:
        pivot, rest = pool[0], pool[1:]
        pivots.append(pivot)
        if not rest:
            break
        zero, one = reference_split(rest, pivot, f)
        if len(one) > len(zero):
            colors.append(1)
            pool = one
        else:
            colors.append(0)
            pool = zero
    by_color = {0: [], 1: []}
    for pivot, c in zip(pivots, colors):
        by_color[c].append(pivot)
    color = 0 if len(by_color[0]) >= len(by_color[1]) else 1
    return tuple(by_color[color]) + (pivots[-1],), color


def reference_best_pair(family, f, p, domain, candidates):
    """`_best_pair` asking `admissible` of a validated Subfamily for every
    ranking and again for the result."""
    bound = pair_size_guarantee(len(domain))
    route_rank = {"branch": 0, "exhaustive": 1, "classical": 2}

    def rank(cand):
        indices, _, route = cand
        adm = admissible(Subfamily(family, indices), p) is TRUE
        return (0 if len(indices) >= bound else 1, 0 if adm else 1,
                route_rank[route])

    indices, color, route = min(candidates, key=rank)
    combos = list(itertools.combinations(sorted(indices), 2))
    if not combos or any(f.of(c) != color for c in combos):
        raise InternalCheckError("pair solver produced a non-monochromatic set")
    sub = Subfamily(family, indices)
    return PartitionResult(sub, color, admissible(sub, p), route)


def reference_pair_candidates(family, f, p, domain):
    """The pair solver's candidates from the frozen walks and net."""
    candidates = []
    try:
        chosen, color = reference_extract_homogeneous(
            reference_branch_walk(family, f, domain), f)
        candidates.append((chosen.indices, color, "branch"))
    except DegenerateError:
        pass
    if 2 ** len(domain) <= 4096:
        got = reference_exhaustive_mono(family, f, domain, p, True)
        if got is not None:
            candidates.append((got[0], got[1], "exhaustive"))
    chosen, color = reference_classical_pivot_walk(family, f, domain)
    candidates.append((chosen, color, "classical"))
    return candidates


def reference_solve_pairs_2(family, f, p, domain=None):
    """The 2-color pair solver built from the frozen pieces above."""
    domain = family.indices if domain is None else tuple(sorted(domain))
    if len(domain) < 2:
        return None
    return reference_best_pair(family, f, p, domain,
                               reference_pair_candidates(family, f, p, domain))


def outcome(fn, *args):
    """What a call gives: its value, or its error's type and message."""
    try:
        return fn(*args)
    except EngineError as err:
        return type(err), str(err)


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


@st.composite
def cr_cases(draw):
    """A region, a stem, a reservoir and params.

    Half the reservoirs are the family past the stem; the others are drawn
    apart from it, so the stem may fail to precede them.  One draw in four
    covers pairs (d=2), and one in four has a bound below the count of point
    sets, which leaves every cover verdict UNKNOWN.
    """
    family, region, _ = draw(region_cases())
    n = len(family)
    stem = index_sets(n, draw)[:draw(st.integers(0, 2))]
    if draw(st.booleans()):
        B = restrict(Subfamily.full(family), stem)
    else:
        B = Subfamily(family, draw(st.sampled_from((index_sets, large_index_sets)))(n, draw))
    bound = draw(st.integers(1, 16)) if draw(st.integers(0, 3)) == 3 else 1_000_000
    d = 2 if draw(st.integers(0, 3)) == 3 else 1
    p = LargenessParams(d=d, min_size=draw(st.integers(1, 4)), search_bound=bound)
    return region, stem, B, p


def cr_outcome(search, R, s, B, p, route):
    """What a cr_witness search gives, and the members it tests against R in order."""
    seen = []

    def contains(D):
        seen.append(D.indices)
        return R.contains(D)
    return outcome(search, PredicateRegion(contains, "logged"), s, B, p, 4, 3, route), seen


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


@st.composite
def pool_cases(draw):
    """A pool in a family of up to 10 members, and params.

    Bounds below the count of point sets leave every covering subset's
    verdict UNKNOWN, so those pools list no admissible subset and raise the
    UNKNOWN flag.
    """
    family = draw(families(max_members=10))
    draw_set = draw(st.sampled_from((index_sets, large_index_sets)))
    pool = Subfamily(family, draw_set(len(family), draw))
    bound = draw(st.one_of(st.integers(1, 16), st.just(1_000_000)))
    p = LargenessParams(d=draw(st.integers(1, 2)), min_size=draw(st.integers(1, 4)),
                        search_bound=bound)
    return pool, p


def both_orders(pool, p, descending_first):
    """The two orders of one pool, the requested one read first."""
    if descending_first:
        descending = admissible_subsets(pool, p, descending=True)
        return admissible_subsets(pool, p), descending
    ascending = admissible_subsets(pool, p)
    return ascending, admissible_subsets(pool, p, descending=True)


class TestCrWitnessReference:
    @settings(max_examples=300, deadline=None)
    @given(cr_cases(), st.sampled_from(("auto", "exhaustive")))
    def test_matches_the_two_loop_scan(self, case, route):
        region, stem, B, p = case
        assert cr_outcome(cr_witness, region, stem, B, p, route) == \
            cr_outcome(reference_cr_witness, region, stem, B, p, route)

    def test_seen_outcomes_on_the_grid(self, grid5, p_grid):
        # single basics [stem, C] over the grid's admissible sets, asked at
        # the stems below; B itself, a smaller candidate and no candidate answer
        full = Subfamily.full(grid5)
        kinds = collections.Counter()
        for c_indices in admissible_subsets(full, p_grid)[::3]:
            for stem in ((), (1,), (2,)):
                top = max(stem, default=0)
                region = BasicUnionRegion((EllentuckBasic(
                    stem, Subfamily(grid5, tuple(i for i in c_indices if i > top))),))
                B = restrict(full, stem)
                for route in ("auto", "exhaustive"):
                    got = cr_outcome(cr_witness, region, stem, B, p_grid, route)
                    assert got == cr_outcome(reference_cr_witness, region, stem, B,
                                             p_grid, route)
                    answer = got[0]
                    kinds[answer.kind, answer.witness == B] += 1
        assert {("inside", False), ("outside", True), ("outside", False)} <= set(kinds)


class TestDescendingOrderReference:
    @settings(max_examples=200, deadline=None)
    @given(pool_cases(), st.booleans())
    def test_matches_the_sort_cold_and_warm(self, case, descending_first):
        pool, p = case
        ascending, flag = reference_scan(pool, p)
        ground._admissible_subsets_asc.cache_clear()
        cold = both_orders(pool, p, descending_first)
        warm = both_orders(pool, p, not descending_first)
        assert ground._admissible_subsets_asc.cache_info().misses == 1
        for got in (cold, warm):
            assert got == (ascending, reference_descending(ascending))
        assert admissible_subsets_unknown_flag(pool, p) is flag

    def test_pools_with_and_without_unknown_sets(self, grid5, twelve6):
        # the grid's d=1 cover reads 5 point sets and twelve6's d=2 cover 21,
        # so bounds below those leave every covering subset UNKNOWN
        seen = set()
        for family, d in ((grid5, 1), (twelve6, 2)):
            for bound in (3, 4, 20, 1_000_000):
                p = LargenessParams(d=d, min_size=3, search_bound=bound)
                for pool in (Subfamily.full(family),
                             Subfamily(family, family.indices[1::2])):
                    ascending, flag = reference_scan(pool, p)
                    for descending_first in (True, False):
                        ground._admissible_subsets_asc.cache_clear()
                        for _ in range(2):
                            assert both_orders(pool, p, descending_first) == \
                                (ascending, reference_descending(ascending))
                    assert admissible_subsets_unknown_flag(pool, p) is flag
                    sizes = len({len(c) for c in ascending})
                    assert not (flag and sizes)
                    seen.add((flag, sizes > 1))
        # UNKNOWN pools list nothing; some others list subsets of several sizes
        assert {(True, False), (False, True)} <= seen


@st.composite
def stem_cases(draw):
    """A stem family and params: every k-set but a few, or stems of mixed sizes.

    The first kind is often dense and feeds fg_witness a witness search; the
    second is seldom dense and mostly exercises the density scan.
    """
    family = draw(families(max_members=9))
    n = len(family)
    if draw(st.booleans()):
        k = draw(st.integers(1, 2))
        every = list(itertools.combinations(range(1, n + 1), k))
        dropped = draw(st.sets(st.sampled_from(every), max_size=3))
        stems = [s for s in every if s not in dropped]
    else:
        stems = [index_sets(n, draw)[:draw(st.integers(0, 3))]
                 for _ in range(draw(st.integers(0, 8)))]
    p = LargenessParams(d=draw(st.integers(1, 2)), min_size=draw(st.integers(1, 4)))
    return FiniteSetFamily.of(family, stems), p


@st.composite
def partition_cases(draw):
    """A stem family of equal-length stems, mostly thin, cut into 1 to 3 parts.

    Some stems are cut short so that the family is not thin, and some parts
    drop a stem so that they no longer cover it.
    """
    family = draw(families(max_members=9))
    n = len(family)
    k = draw(st.integers(1, 3))
    stems = [s for s in itertools.combinations(range(1, n + 1), k)
             if draw(st.integers(0, 3))]
    if stems and draw(st.integers(0, 9)) == 0:
        stems.append(draw(st.sampled_from(stems))[:-1])
    count = draw(st.integers(1, 3))
    parts = [[] for _ in range(count)]
    for s in stems:
        parts[draw(st.integers(0, count - 1))].append(s)
    if stems and draw(st.integers(0, 9)) == 0:
        parts[0] = parts[0][1:]
    p = LargenessParams(d=draw(st.integers(1, 2)), min_size=draw(st.integers(1, 4)))
    return FiniteSetFamily.of(family, stems), parts, p


@st.composite
def colored_families(draw, arities=(2,), max_colors=2):
    """A family, a coloring of its index r-sets that may miss one entry, and params."""
    family = draw(families(max_members=9))
    n = len(family)
    arity = draw(st.sampled_from(arities))
    colors = draw(st.integers(2, max_colors))
    keys = list(itertools.combinations(range(1, n + 1), arity))
    values = draw(st.lists(st.integers(0, colors - 1), min_size=len(keys),
                           max_size=len(keys)))
    table = dict(zip(keys, values))
    if draw(st.integers(0, 3)) == 0:
        del table[draw(st.sampled_from(keys))]
    p = LargenessParams(d=draw(st.integers(1, 2)), min_size=draw(st.integers(1, 4)))
    return family, Coloring(arity, colors, table), p


def split_as_tuples(content, pivot, f):
    """`ramsey._split` with its two parts as tuples."""
    zero, one = ramsey._split(content, pivot, f)
    return tuple(zero), tuple(one)


def with_reference_split(fn, *args):
    """What fn gives when the pivot tree splits through `reference_split`."""
    with mock.patch.object(ramsey, "_split", reference_split):
        return outcome(fn, *args)


def reference_split_calls(fn, *args):
    """How often fn splits when the pivot tree splits through `reference_split`."""
    with mock.patch.object(ramsey, "_split", wraps=reference_split) as split:
        outcome(fn, *args)
    return split.call_count


class TestBarrierScansReference:
    @settings(max_examples=200, deadline=None)
    @given(stem_cases())
    def test_density_and_fg_match_the_mask_building_scans(self, case):
        S, p = case
        assert outcome(is_dense, S, p) is reference_is_dense(S, p)
        assert outcome(fg_witness, S, p) == outcome(reference_fg_witness, S, p)

    @settings(max_examples=200, deadline=None)
    @given(stem_cases(), st.data())
    def test_one_part_matches_density_then_fg_within_a_domain(self, case, data):
        # the domain masks are those a peeled part leaves behind: none, most
        # of the indices, or any subset of them
        S, p = case
        n = len(S.family)
        kind = data.draw(st.sampled_from(("none", "large", "any")))
        domain = None if kind == "none" else reference_mask(
            (large_index_sets if kind == "large" else index_sets)(n, data.draw))
        assert outcome(dense_part, S.stems, S.family, p, domain) == \
            outcome(reference_dense_part, S.stems, S.family, p, domain)

    @settings(max_examples=200, deadline=None)
    @given(partition_cases())
    def test_homogenization_matches_the_mask_building_scan(self, case):
        T, parts, p = case
        assert outcome(nw_homogenize, T, parts, p) == \
            outcome(reference_nw_homogenize, T, parts, p)

    @settings(max_examples=150, deadline=None)
    @given(colored_families(max_colors=3))
    def test_ramsey_via_nw_matches_on_pair_colorings(self, case):
        family, f, p = case
        assert outcome(ramsey_via_nw, family, f, p) == \
            outcome(reference_ramsey_via_nw, family, f, p)

    def test_seen_outcomes(self, eight5, twelve6):
        # the scans above reach each kind of answer on these fixed cases
        p = LargenessParams(d=2, min_size=3)
        pairs = list(itertools.combinations(eight5.indices, 2))
        dense = FiniteSetFamily.of(eight5, pairs)
        sparse = FiniteSetFamily.of(eight5, pairs[:3])
        assert (is_dense(dense, p), is_dense(sparse, p)) == (TRUE, FALSE)
        assert fg_witness(dense, p) == reference_fg_witness(dense, p)
        assert fg_witness(dense, p).kind == "witness"
        kinds = set()
        for parts in ([[q for q in pairs if 1 in q], [q for q in pairs if 1 not in q]],
                      [pairs[::2], pairs[1::2]]):
            got = nw_homogenize(dense, parts, p)
            assert got == reference_nw_homogenize(dense, parts, p)
            kinds.add(got.kind)
        assert kinds == {"homogeneous", "not_found"}
        rng = random.Random(16)
        f = Coloring(2, 2, {c: rng.randrange(2)
                            for c in itertools.combinations(twelve6.indices, 2)})
        assert ramsey_via_nw(twelve6, f, p) == reference_ramsey_via_nw(twelve6, f, p)

    def test_seeded_twelve_member_sweep(self, twelve6):
        # 2-colorings of a 12-member family's pairs, past the hypothesis
        # cases' 9 members: the one-pass fg scan and the fallback that skips
        # supersets of mixed sets meet the frozen scans on every coloring,
        # and the sweep reaches each way of answering
        p = LargenessParams(d=2, min_size=3)
        pairs = list(itertools.combinations(twelve6.indices, 2))
        rng = random.Random(17)
        kinds = set()
        for _ in range(200):
            f = Coloring(2, 2, {c: rng.randrange(2) for c in pairs})
            with mock.patch.object(barriers, "_homogeneous_scan",
                                   wraps=barriers._homogeneous_scan) as fallback:
                got = ramsey_via_nw(twelve6, f, p)
            assert got == reference_ramsey_via_nw(twelve6, f, p)
            kinds.add("not_found" if got is None else
                      "fallback" if fallback.called else "constructive")
        assert kinds == {"constructive", "fallback", "not_found"}


class TestPairWalksReference:
    @settings(max_examples=200, deadline=None)
    @given(colored_families(), st.data())
    def test_walks_match_the_split_through_of(self, case, data):
        family, f, p = case
        n = len(family)
        domain = index_sets(n, data.draw)
        for pivot in domain:
            # the two parts may be lists: same elements, same order, same error
            assert outcome(split_as_tuples, domain, pivot, f) == \
                outcome(reference_split, domain, pivot, f)
        for args in ((family, f), (family, f, domain)):
            assert outcome(branch_walk, *args) == \
                with_reference_split(branch_walk, *args)
        if domain:  # its one caller passes two indices or more
            assert outcome(ramsey._classical_pivot_walk, f, domain) == \
                with_reference_split(ramsey._classical_pivot_walk, f, domain)
        # the walks split through the patched `_split`, not a copy of it:
        # every walk of two indices or more splits at its first level
        assert reference_split_calls(branch_walk, family, f) > 0
        if len(domain) >= 2:    # as the candidates' one caller passes
            assert reference_split_calls(branch_walk, family, f, domain) > 0
            assert reference_split_calls(ramsey._classical_pivot_walk, f, domain) > 0
            assert outcome(ramsey._pair_candidates, family, f, p, domain) == \
                with_reference_split(ramsey._pair_candidates, family, f, p, domain)
        for args in ((family, f, p), (family, f, p, domain)):
            assert outcome(ramsey._solve_pairs_2, *args) == \
                with_reference_split(ramsey._solve_pairs_2, *args)
        for depth in range(min(n, 5) + 1):
            assert outcome(build_partition_tree, family, f, depth) == \
                with_reference_split(build_partition_tree, family, f, depth)

    @settings(max_examples=200, deadline=None)
    @given(colored_families(arities=(1, 2, 3, 4), max_colors=4), st.data())
    def test_exhaustive_net_matches_the_faces_through_of(self, case, data):
        family, f, p = case
        domain = index_sets(len(family), data.draw)
        for require_admissible in (True, False):
            assert outcome(ramsey._exhaustive_mono, family, f, domain, p,
                           require_admissible) == \
                outcome(reference_exhaustive_mono, family, f, domain, p,
                        require_admissible)

    def test_seeded_twelve_member_exhaustive_sweep(self, twelve6, p_pairs):
        # the scan shapes of the merge and step-up routes on the 12-member
        # family, past the hypothesis cases' 9 members: pair colorings with
        # 2 to 4 colors and arity 3 and 4 with 2 colors, on the whole family
        # and on part of it, with and without the admissibility cut; every
        # fourth table misses one entry
        rng = random.Random(24)
        kinds = collections.Counter()
        for arity, colors in ((2, 2), (2, 3), (2, 4), (3, 2), (4, 2)):
            keys = list(itertools.combinations(twelve6.indices, arity))
            for trial in range(16):
                table = {c: rng.randrange(colors) for c in keys}
                if trial % 4 == 3:
                    del table[rng.choice(keys)]
                f = Coloring(arity, colors, table)
                domain = twelve6.indices if trial % 2 else \
                    tuple(sorted(rng.sample(twelve6.indices, rng.randint(5, 11))))
                for require_admissible in (True, False):
                    got = outcome(ramsey._exhaustive_mono, twelve6, f, domain,
                                  p_pairs, require_admissible)
                    assert got == outcome(reference_exhaustive_mono, twelve6, f,
                                          domain, p_pairs, require_admissible)
                    kinds["none" if got is None else
                          "error" if got[0] is StructuralError else "set"] += 1
        assert set(kinds) == {"none", "error", "set"}

    @pytest.mark.parametrize("missing", [(1, 2), (3, 7), (8, 9)])
    def test_a_missing_pair_names_the_same_key(self, twelve6, p_pairs, missing):
        rng = random.Random(16)
        table = {c: rng.randrange(2)
                 for c in itertools.combinations(twelve6.indices, 2)}
        del table[missing]
        f = Coloring(2, 2, table)
        calls = [(branch_walk, twelve6, f),
                 (ramsey._classical_pivot_walk, f, twelve6.indices),
                 (build_partition_tree, twelve6, f, 8)]
        for fn, *args in calls:
            got = outcome(fn, *args)
            assert got == with_reference_split(fn, *args)
        assert outcome(ramsey._exhaustive_mono, twelve6, f, twelve6.indices,
                       p_pairs, False) == \
            outcome(reference_exhaustive_mono, twelve6, f, twelve6.indices,
                    p_pairs, False)
        for split in (ramsey._split, reference_split):
            assert outcome(split, twelve6.indices, missing[0], f) == \
                (StructuralError, f"coloring is not defined on {missing}")


@st.composite
def pair_colorings(draw):
    """`colored_families`' pair colorings, one in four made one-colored: all
    zeros or all ones on two colors, or the one-color table of zeros."""
    family, f, p = draw(colored_families())
    kind = draw(st.sampled_from(("drawn", "drawn", "drawn", "zeros", "ones", "one color")))
    if kind != "drawn":
        colors, value = (1, 0) if kind == "one color" else (2, int(kind == "ones"))
        f = Coloring(2, colors, dict.fromkeys(f._table, value))
    return family, f, p


def lone_survivor_table(family):
    """A 2-coloring of a 12-member family's pairs whose branch walk keeps 12
    alone after level 4, so that levels 5 to 11 each read only (pivot, 12)."""
    table = dict.fromkeys(itertools.combinations(family.indices, 2), 0)
    table.update({(1, n): 1 for n in range(2, 7)})     # level 1 keeps 7..12
    table.update({(2, n): 1 for n in (7, 8, 9)})       # level 2 keeps 10, 11, 12
    table[3, 10] = 1                                   # level 3 keeps 11, 12
    table[4, 11] = 1                                   # level 4 keeps 12
    return table


class TestPairSolverReference:
    @settings(max_examples=300, deadline=None)
    @given(pair_colorings(), st.data())
    def test_walks_and_ranking_match_the_frozen_copies(self, case, data):
        family, f, p = case
        domain = index_sets(len(family), data.draw)
        for args in ((family, f), (family, f, domain)):
            got = outcome(branch_walk, *args)
            assert got == outcome(reference_branch_walk, *args)
            if isinstance(got, BranchResult):
                assert outcome(extract_homogeneous, got, f) == \
                    outcome(reference_extract_homogeneous, got, f)
        if domain:  # its one caller passes two indices or more
            assert outcome(ramsey._classical_pivot_walk, f, domain) == \
                outcome(reference_classical_pivot_walk, family, f, domain)
        # the candidates' one caller passes two indices or more
        candidates = len(domain) >= 2 and \
            outcome(reference_pair_candidates, family, f, p, domain)
        if candidates:
            assert outcome(ramsey._pair_candidates, family, f, p, domain) == candidates
        if isinstance(candidates, list):
            # every nonempty choice of candidates, so each rank decides somewhere
            chosen = data.draw(st.lists(st.sampled_from(candidates), min_size=1,
                                        max_size=3))
            assert outcome(ramsey._best_pair, family, f, p, domain, chosen) == \
                outcome(reference_best_pair, family, f, p, domain, chosen)
        for args in ((family, f, p), (family, f, p, domain)):
            assert outcome(ramsey._solve_pairs_2, *args) == \
                outcome(reference_solve_pairs_2, *args)

    @pytest.mark.parametrize("missing", [None, (5, 12), (8, 12), (11, 12), (5, 11)])
    def test_a_lone_survivor_reads_its_own_pairs(self, twelve6, p_pairs, missing):
        table = lone_survivor_table(twelve6)
        whole = reference_branch_walk(twelve6, Coloring(2, 2, table))
        assert whole.pivots == (1, 12) and len(whole.colors) == 11
        if missing is not None:
            del table[missing]
        f = Coloring(2, 2, table)
        for domain in (twelve6.indices, (1, 2, 3, 4, 6, 8, 10, 11, 12)):
            got = outcome(branch_walk, twelve6, f, domain)
            assert got == outcome(reference_branch_walk, twelve6, f, domain)
            assert outcome(ramsey._solve_pairs_2, twelve6, f, p_pairs, domain) == \
                outcome(reference_solve_pairs_2, twelve6, f, p_pairs, domain)
        # the walk over the whole family reads (5, 12) to (11, 12) past level
        # 4, and never (5, 11)
        if missing in ((5, 12), (8, 12), (11, 12)):
            assert outcome(branch_walk, twelve6, f) == \
                (StructuralError, f"coloring is not defined on {missing}")
        else:
            assert branch_walk(twelve6, f).pivots == (1, 12)

    def test_seeded_big64_sweep(self, big64, p_pairs):
        # the benchmark's 64-member pair colorings: the solver meets the
        # frozen pieces on set, color, admissibility and route
        pairs = list(itertools.combinations(big64.indices, 2))
        rng = random.Random(22)
        routes = collections.Counter()
        for _ in range(200):
            f = Coloring(2, 2, {c: rng.randrange(2) for c in pairs})
            got = solve_partition(big64, f, p_pairs)
            want = reference_solve_pairs_2(big64, f, p_pairs)
            assert (got.subfamily, got.color, got.admissible, got.route) == \
                (want.subfamily, want.color, want.admissible, want.route)
            routes[got.route] += 1
        assert set(routes) == {"branch", "classical"}
