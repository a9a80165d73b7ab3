import itertools

import pytest
from hypothesis import given, settings, strategies as st

from omegaramsey import (
    BasicUnionRegion,
    Coloring,
    ComplementRegion,
    EllentuckBasic,
    EngineError,
    ExplicitRegion,
    Family,
    FiniteSetFamily,
    IntersectionRegion,
    LargenessParams,
    PredicateRegion,
    Subfamily,
    UnionRegion,
    as_stem,
)
from omegaramsey.oracle import (
    SIZE_LIMIT,
    OracleSizeError,
    brute_accepts,
    brute_admissible,
    brute_cr,
    brute_homogeneous,
    brute_nw,
    brute_rejects,
)

ALWAYS = PredicateRegion(lambda D: True, "always")
NEVER = ExplicitRegion.empty()


class TestAcceptReject:
    def test_trivial_regions(self, full_grid, p_grid):
        assert brute_accepts(full_grid, (), ALWAYS, p_grid)
        assert not brute_rejects(full_grid, (), ALWAYS, p_grid)
        assert not brute_accepts(full_grid, (), NEVER, p_grid)
        assert brute_rejects(full_grid, (), NEVER, p_grid)

    def test_size_guard_refuses(self, p_grid):
        from omegaramsey import Family
        fam = Family.of(6, [{1, 2, 3}] * 13)
        with pytest.raises(OracleSizeError):
            brute_accepts(Subfamily.full(fam), (), ALWAYS, p_grid)


class TestCr:
    def test_mirrors_trivial_witnesses(self, full_grid, p_grid):
        got = brute_cr(ALWAYS, (), full_grid, p_grid)
        assert got is not None and got[0] == "inside"
        got = brute_cr(NEVER, (), full_grid, p_grid)
        assert got is not None and got[0] == "outside"


class TestHomogeneous:
    def test_constant_includes_full_family(self, tree4):
        f = Coloring(2, 2, {c: 1 for c in
                            itertools.combinations(range(1, 5), 2)})
        found = brute_homogeneous(tree4, f, 2, 2, 4)
        assert ((1, 2, 3, 4), 1) in found

    def test_tree_fixture_contains_the_extracted_class(self, tree4):
        f = Coloring(2, 2, {(1, 2): 0, (1, 3): 0, (1, 4): 1,
                            (2, 3): 0, (2, 4): 1, (3, 4): 0})
        found = brute_homogeneous(tree4, f, 2, 2, 3)
        assert ((1, 2, 3), 0) in found

    def test_min_size_above_family(self, tree4):
        f = Coloring(2, 2, {c: 0 for c in
                            itertools.combinations(range(1, 5), 2)})
        assert brute_homogeneous(tree4, f, 2, 2, 5) == []


def reference_brute_homogeneous(family, f, r, k, min_size):
    """`brute_homogeneous` reading every r-subset's color, kept as the reference."""
    if len(family) > SIZE_LIMIT:
        raise OracleSizeError(f"family of size {len(family)} exceeds the oracle "
                              f"limit of {SIZE_LIMIT}")
    if f.arity != r or f.colors != k:
        raise EngineError("coloring shape does not match the requested check")
    out = []
    for size in range(len(family) + 1):
        for combo in itertools.combinations(family.indices, size):
            if len(combo) < max(min_size, 1):
                continue
            tuples = list(itertools.combinations(combo, r))
            if not tuples:
                continue
            colors = {f.of(t) for t in tuples}
            if len(colors) == 1:
                out.append((combo, colors.pop()))
    return out


def outcome(fn, *args):
    try:
        return fn(*args)
    except EngineError as err:
        return type(err), str(err)


@st.composite
def homogeneous_cases(draw):
    """A family of up to 9 members, a total coloring of its 1- to 4-sets of
    indices, the shape asked for (now and then not the coloring's), and a
    size floor.  Most colorings are one color with a few exceptions, so that
    large homogeneous sets occur."""
    n = draw(st.integers(1, 9))
    arity = draw(st.integers(1, 4))
    colors = draw(st.integers(1, 3))
    keys = list(itertools.combinations(range(1, n + 1), arity))
    color = st.integers(0, colors - 1)
    if draw(st.booleans()):
        table = dict(zip(keys, draw(st.lists(color, min_size=len(keys),
                                             max_size=len(keys)))))
    else:
        table = dict.fromkeys(keys, draw(color))
        for key in draw(st.lists(st.sampled_from(keys), max_size=4)) if keys else ():
            table[key] = draw(color)
    shape = draw(st.sampled_from([(arity, colors)] * 8 +
                                 [(arity % 4 + 1, colors), (arity, colors + 1)]))
    family = Family.of(2, [{1}] * n)
    return family, Coloring(arity, colors, table), shape, draw(st.integers(0, n + 1))


class TestHomogeneousReference:
    @settings(max_examples=300, deadline=None)
    @given(homogeneous_cases())
    def test_matches_the_full_color_read(self, case):
        family, f, (r, k), min_size = case
        assert outcome(brute_homogeneous, family, f, r, k, min_size) == \
            outcome(reference_brute_homogeneous, family, f, r, k, min_size)

    def test_size_guard_refuses(self):
        fam = Family.of(2, [{1}] * (SIZE_LIMIT + 1))
        f = Coloring(1, 1, {(i,): 0 for i in fam.indices})
        assert outcome(brute_homogeneous, fam, f, 1, 1, 1) == \
            outcome(reference_brute_homogeneous, fam, f, 1, 1, 1)
        with pytest.raises(OracleSizeError):
            brute_homogeneous(fam, f, 1, 1, 1)


def reference_brute_cr(R, s, B, p):
    """`brute_cr` with its own loop over the members of [s, C], kept as the
    reference."""
    if len(B.indices) > SIZE_LIMIT:
        raise OracleSizeError(f"reservoir of size {len(B.indices)} exceeds the "
                              f"oracle limit of {SIZE_LIMIT}")
    s = as_stem(s)
    fam = B.family
    for size in range(len(B.indices) + 1):
        for combo in itertools.combinations(B.indices, size):
            if not brute_admissible(Subfamily(fam, combo), p):
                continue
            inside = outside = True
            for k in range(len(combo) + 1):
                for extra in itertools.combinations(combo, k):
                    d_indices = tuple(sorted(set(s) | set(extra)))
                    if set(extra) - set(s) and s and min(set(extra) - set(s)) <= max(s):
                        continue
                    if not brute_admissible(Subfamily(fam, d_indices), p):
                        continue
                    if R.contains(Subfamily(fam, d_indices)):
                        outside = False
                    else:
                        inside = False
            if inside:
                return ("inside", Subfamily(fam, combo))
            if outside:
                return ("outside", Subfamily(fam, combo))
    return None


def index_tuples(n):
    return st.sets(st.integers(1, n), max_size=n).map(lambda xs: tuple(sorted(xs)))


def basics(family):
    """A basic [stem, reservoir] over the family, the reservoir cut above the stem."""
    n = len(family)

    def basic(stem, reservoir):
        return EllentuckBasic(stem, Subfamily(
            family, tuple(i for i in reservoir if i > max(stem, default=0))))
    return st.builds(basic, index_tuples(n).map(lambda t: t[:2]), index_tuples(n))


def regions(family):
    """Explicit and basic-union regions under union, intersection and complement."""
    leaves = (st.frozensets(index_tuples(len(family)), max_size=6).map(ExplicitRegion)
              | st.lists(basics(family), max_size=3).map(
                  lambda bs: BasicUnionRegion(tuple(bs))))
    return st.recursive(leaves, lambda inner: (
        st.lists(inner, min_size=1, max_size=3).map(lambda ps: UnionRegion(tuple(ps)))
        | st.lists(inner, min_size=1, max_size=3).map(
            lambda ps: IntersectionRegion(tuple(ps)))
        | inner.map(ComplementRegion)), max_leaves=6)


@st.composite
def cr_cases(draw):
    """A region, a stem, a reservoir the stem may not precede, and params,
    over 4 to 8 members of 2 or more points that cover 4 or 5 points; one
    draw in four covers pairs (d=2)."""
    size = draw(st.integers(4, 5))
    proper = [frozenset(c) for r in range(2, size)
              for c in itertools.combinations(range(1, size + 1), r)]
    members = draw(st.lists(st.sampled_from(proper), min_size=4, max_size=8)
                   .filter(lambda ms: len(frozenset().union(*ms)) == size))
    family = Family.of(size, members)
    n = len(family)
    stem = draw(index_tuples(n))[:draw(st.integers(0, 2))]
    if draw(st.booleans()):
        pool = tuple(i for i in family.indices if i > max(stem, default=0))
    else:
        pool = draw(index_tuples(n))
    d = 2 if draw(st.integers(0, 3)) == 3 else 1
    p = LargenessParams(d=d, min_size=draw(st.integers(1, 4)))
    return draw(regions(family)), stem, Subfamily(family, pool), p


class TestCrReference:
    @settings(max_examples=300, deadline=None)
    @given(cr_cases())
    def test_matches_the_member_loop(self, case):
        region, stem, B, p = case
        assert outcome(brute_cr, region, stem, B, p) == \
            outcome(reference_brute_cr, region, stem, B, p)

    def test_size_guard_refuses(self, p_grid):
        fam = Family.of(6, [{1, 2, 3}] * (SIZE_LIMIT + 1))
        B = Subfamily.full(fam)
        assert outcome(brute_cr, NEVER, (), B, p_grid) == \
            outcome(reference_brute_cr, NEVER, (), B, p_grid)
        with pytest.raises(OracleSizeError):
            brute_cr(NEVER, (), B, p_grid)


class TestNw:
    def test_all_pairs_are_returned(self, eight5, p_grid):
        T = FiniteSetFamily.of(eight5,
                               itertools.combinations(range(1, 9), 2))
        stems = sorted(T.stems)
        parts = [stems, []]
        found = brute_nw(T, parts, p_grid)
        assert found
        assert all(i == 0 for _, i in found)

    def test_vacuous_sets_match_every_part(self, eight5, p_grid):
        T = FiniteSetFamily.of(eight5, [(7, 8)])
        parts = [[(7, 8)], []]
        found = brute_nw(T, parts, p_grid)
        without = [b for b, i in found if not {7, 8} <= set(b)]
        for b in without:
            assert (b, 0) in found and (b, 1) in found
