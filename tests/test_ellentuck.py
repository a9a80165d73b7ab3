import collections
import itertools

import pytest
from hypothesis import given, settings, strategies as st

from omegaramsey import (
    BasicUnionRegion,
    ComplementRegion,
    ContractError,
    DegenerateError,
    EllentuckBasic,
    ExplicitRegion,
    FALSE,
    Family,
    IntersectionRegion,
    LargenessParams,
    PredicateRegion,
    StructuralError,
    Subfamily,
    TRUE,
    UNKNOWN,
    UnionRegion,
    accepts,
    admissible,
    as_stem,
    basic_contains,
    cr_witness,
    decide,
    enumerate_admissible,
    is_nowhere_dense,
    nwd_witness,
    precedes,
    rejects,
    restrict,
    strong_reject_set,
)
from omegaramsey.ellentuck import (
    MeagerPresentation,
    _cr_witness,
    basic_content,
    nwd_meager_report,
    region_from_json,
    region_to_json,
)
from omegaramsey import oracle

ALWAYS = PredicateRegion(lambda D: True, "always")
NEVER = ExplicitRegion.empty()


class TestBasics:
    def test_precedes(self, grid5):
        assert precedes((1, 2), Subfamily.of(grid5, [3, 7]))
        assert precedes((), Subfamily.of(grid5, [1]))
        assert not precedes((4,), Subfamily.of(grid5, [3, 7]))
        assert precedes((4,), Subfamily.of(grid5, []))

    def test_restrict(self, grid5):
        B = Subfamily.of(grid5, [3, 5, 6, 7])
        assert restrict(B, (2, 5)).indices == (6, 7)
        assert restrict(B, ()).indices == (3, 5, 6, 7)
        assert restrict(B, (7,)).indices == ()

    def test_basic_contains(self, grid5):
        b = EllentuckBasic((1,), Subfamily.of(grid5, [2, 4]))
        assert basic_contains(b, Subfamily.of(grid5, [1, 4]))
        assert not basic_contains(b, Subfamily.of(grid5, [4]))
        b2 = EllentuckBasic((3,), Subfamily.of(grid5, [5, 6]))
        assert not basic_contains(b2, Subfamily.of(grid5, [1, 3, 5]))

    def test_as_stem_refuses_a_bool(self):
        # True passes for 1 in `==` and used to be kept as given
        with pytest.raises(StructuralError, match="^stem entry True is not a positive index$"):
            as_stem([True, 3])

    def test_basic_needs_order(self, grid5):
        with pytest.raises(ContractError):
            EllentuckBasic((4,), Subfamily.of(grid5, [3, 7]))

    def test_reservoir_monotone(self, grid5, p_grid):
        small = EllentuckBasic((1,), Subfamily.of(grid5, [2, 4]))
        large = EllentuckBasic((1,), Subfamily.of(grid5, [2, 3, 4, 5]))
        for D in enumerate_admissible(Subfamily.full(grid5), p_grid):
            if basic_contains(small, D):
                assert basic_contains(large, D)


class TestAcceptsRejects:
    def test_accepts_trivial(self, full_grid, p_grid):
        assert accepts(full_grid, (), NEVER, p_grid) is FALSE
        assert accepts(full_grid, (), ALWAYS, p_grid) is TRUE

    def test_rejects_trivial(self, full_grid, p_grid):
        assert rejects(full_grid, (), NEVER, p_grid) is TRUE
        assert rejects(full_grid, (), ALWAYS, p_grid) is FALSE

    def test_order_contract(self, grid5, p_grid):
        with pytest.raises(ContractError):
            accepts(Subfamily.of(grid5, [2, 3]), (4,), ALWAYS, p_grid)

    def test_matches_oracle_on_basic_region(self, grid5, full_grid, p_grid):
        region = BasicUnionRegion((
            EllentuckBasic((1,), Subfamily.of(grid5, [2, 3, 4, 5])),))
        for stem in [(), (1,), (2,), (1, 3)]:
            B = restrict(full_grid, stem)
            got_a = accepts(B, stem, region, p_grid)
            got_r = rejects(B, stem, region, p_grid)
            assert got_a is TRUE or got_a is FALSE
            assert (got_a is TRUE) == oracle.brute_accepts(B, stem, region, p_grid)
            assert (got_r is TRUE) == oracle.brute_rejects(B, stem, region, p_grid)

    def test_hereditary_acceptance_and_rejection(self, grid5, full_grid, p_grid):
        region = BasicUnionRegion((
            EllentuckBasic((1,), Subfamily.of(grid5, [2, 3, 4, 5])),))
        stem = (1,)
        B = restrict(full_grid, stem)
        verdict = {}
        for C in enumerate_admissible(B, p_grid):
            verdict[C.indices] = accepts(C, stem, region, p_grid)
        for c_indices, v in verdict.items():
            if v is not TRUE:
                continue
            for smaller in verdict:
                if set(smaller) <= set(c_indices):
                    assert verdict[smaller] is TRUE

    def test_never_both(self, grid5, full_grid, p_grid):
        region = BasicUnionRegion((
            EllentuckBasic((2,), Subfamily.of(grid5, [3, 4, 5, 6])),))
        for stem in [(), (1,), (2,)]:
            B = restrict(full_grid, stem)
            a = accepts(B, stem, region, p_grid)
            r = rejects(B, stem, region, p_grid)
            assert not (a is TRUE and r is TRUE)

    def test_budget_gives_unknown(self, grid5, full_grid):
        starved = LargenessParams(d=1, min_size=3, search_bound=3)
        assert accepts(full_grid, (), ALWAYS, starved) is UNKNOWN


class TestDecide:
    def test_trivial_outcomes(self, full_grid, p_grid):
        got = decide(full_grid, (), ALWAYS, p_grid)
        assert got.kind == "accepts" and got.witness.indices == full_grid.indices
        got = decide(full_grid, (), NEVER, p_grid)
        assert got.kind == "rejects" and got.witness.indices == full_grid.indices

    def test_degenerate(self, grid5, p_grid):
        with pytest.raises(DegenerateError):
            decide(Subfamily.of(grid5, [6, 7]), (5,), ALWAYS, p_grid)

    def test_matches_oracle_trichotomy(self, grid5, full_grid, p_grid):
        region = BasicUnionRegion((
            EllentuckBasic((1,), Subfamily.of(grid5, [2, 3, 4, 5])),
            EllentuckBasic((2,), Subfamily.of(grid5, [4, 5, 6])),))
        for stem in [(), (1,), (2,), (3,)]:
            B = restrict(full_grid, stem)
            got = decide(B, stem, region, p_grid)
            want = "rejects" if oracle.brute_rejects(B, stem, region, p_grid) \
                else "accepts"
            assert got.kind == want
            if got.kind == "accepts":
                assert oracle.brute_accepts(got.witness, stem, region, p_grid)


class TestStrongReject:
    def test_everything_rejects(self, full_grid, p_grid):
        got = strong_reject_set((), full_grid, NEVER, p_grid)
        assert got.subfamily.indices == full_grid.indices
        assert got.admissible is TRUE

    def test_precondition(self, full_grid, p_grid):
        with pytest.raises(ContractError):
            strong_reject_set((), full_grid, ALWAYS, p_grid)

    def test_elementwise_against_oracle(self, grid5, full_grid, p_grid):
        region = BasicUnionRegion((
            EllentuckBasic((1,), Subfamily.of(grid5, [2, 3, 4, 5])),))
        stem = (2,)
        B = restrict(full_grid, stem)
        if rejects(B, stem, region, p_grid) is not TRUE:
            pytest.skip("fixture does not reject here")
        got = strong_reject_set(stem, B, region, p_grid)
        for u in B.indices:
            ext = as_stem(stem + (u,))
            want = oracle.brute_rejects(restrict(B, ext), ext, region, p_grid)
            assert (u in got.subfamily.indices) == want


class TestCrWitness:
    def test_trivial(self, full_grid, p_grid):
        got = cr_witness(ALWAYS, (), full_grid, p_grid)
        assert got.kind == "inside" and got.witness.indices == full_grid.indices
        got = cr_witness(NEVER, (), full_grid, p_grid)
        assert got.kind == "outside" and got.witness.indices == full_grid.indices

    def test_witness_reverified_by_oracle(self, grid5, full_grid, p_grid):
        regions = [
            BasicUnionRegion((
                EllentuckBasic((1,), Subfamily.of(grid5, [2, 3, 4, 5])),)),
            BasicUnionRegion((
                EllentuckBasic((), Subfamily.of(grid5, [1, 2, 3, 4])),
                EllentuckBasic((3,), Subfamily.of(grid5, [4, 5, 6, 7])),)),
        ]
        for region in regions:
            for stem in [(), (1,), (2,)]:
                B = restrict(full_grid, stem)
                got = cr_witness(region, stem, B, p_grid)
                if got.kind == "inside":
                    assert oracle.brute_accepts(got.witness, stem, region, p_grid)
                elif got.kind == "outside":
                    assert oracle.brute_accepts(got.witness, stem,
                                                ComplementRegion(region), p_grid)
                want = oracle.brute_cr(region, stem, B, p_grid)
                assert (got.kind == "not_found") == (want is None)

    def test_exhaustive_route_same_success(self, grid5, full_grid, p_grid):
        region = BasicUnionRegion((
            EllentuckBasic((1,), Subfamily.of(grid5, [2, 3, 4, 5])),))
        auto = cr_witness(region, (), full_grid, p_grid, route="auto")
        fast = cr_witness(region, (), full_grid, p_grid, route="exhaustive")
        assert (auto.kind == "not_found") == (fast.kind == "not_found")


class TestCrWitnessArguments:
    """innings and subset_cap are exact ints, refused otherwise whatever the
    memo holds; their ranges are not checked."""

    @staticmethod
    def query():
        # TestCrConstructiveWitness's outside case: auto reaches the play,
        # which takes subset_cap as a range bound
        fam = Family.of(5, [[1, 2, 3], [1, 3, 4], [1, 2, 5], [3, 4, 5], [1, 3, 5],
                            [2, 4, 5], [3, 4, 5], [1, 2, 5], [2, 3, 5], [3, 4, 5]])
        region = region_from_json({"type": "basicUnion", "basics": [
            {"stem": [1, 8], "reservoir": [9, 10]}]}, fam)
        return region, (1,), restrict(Subfamily.full(fam), (1,)), \
            LargenessParams(d=1, min_size=3)

    @pytest.mark.parametrize("kwargs, shown", [
        ({"subset_cap": 3.0}, "subset_cap must be an integer, got 3.0"),
        ({"subset_cap": True}, "subset_cap must be an integer, got True"),
        ({"innings": 4.0}, "innings must be an integer, got 4.0"),
        ({"innings": True}, "innings must be an integer, got True"),
        ({"innings": "4"}, "innings must be an integer, got '4'"),
    ])
    def test_non_integers_are_refused_cold_and_warm(self, kwargs, shown):
        _cr_witness.cache_clear()
        with pytest.raises(StructuralError, match=f"^cr_witness {shown}$"):
            cr_witness(*self.query(), **kwargs)
        assert cr_witness(*self.query(), innings=4, subset_cap=3).kind == "outside"
        with pytest.raises(StructuralError, match=f"^cr_witness {shown}$"):
            cr_witness(*self.query(), **kwargs)

    def test_ranges_are_not_checked(self):
        default = cr_witness(*self.query())
        # the play takes at least min_size + 3 innings, and a stem longer than
        # subset_cap skips the play
        assert cr_witness(*self.query(), innings=-2) == default
        assert cr_witness(*self.query(), subset_cap=-1) == \
            cr_witness(*self.query(), route="exhaustive")


@st.composite
def duality_cases(draw):
    """A family of 4 to 10 sets of 2 or more points covering 4 or 5 points, a
    basic-union, explicit or predicate region over it, a stem of at most one
    index, the family past the stem, and params."""
    size = draw(st.integers(4, 5))
    proper = [c for r in range(2, size)
              for c in itertools.combinations(range(1, size + 1), r)]
    members = draw(st.lists(st.sampled_from(proper), min_size=4, max_size=10)
                   .filter(lambda ms: len(set().union(*ms)) == size))
    fam = Family.of(size, members)
    n = len(fam)
    index_sets = st.sets(st.integers(1, n)).map(lambda s: tuple(sorted(s)))
    kind = draw(st.sampled_from(("basics", "explicit", "predicate")))
    if kind == "basics":
        basics = []
        for stem, reservoir in draw(st.lists(st.tuples(index_sets, index_sets),
                                             max_size=3)):
            stem = stem[:2]
            top = max(stem, default=0)
            basics.append(EllentuckBasic(
                stem, Subfamily(fam, tuple(i for i in reservoir if i > top))))
        region = BasicUnionRegion(tuple(basics))
    elif kind == "explicit":
        region = ExplicitRegion(frozenset(draw(st.lists(index_sets, max_size=6))))
    else:
        modulus = draw(st.integers(1, 5))
        region = PredicateRegion(lambda D: sum(D.indices) % modulus == 0,
                                 f"sum = 0 mod {modulus}")
    stem = draw(st.sampled_from(((), (1,), (2,))))
    p = LargenessParams(d=1, min_size=draw(st.integers(1, 3)))
    return region, stem, restrict(Subfamily.full(fam), stem), p


class TestComplementDuality:
    """cr_witness on the complement of R swaps inside and outside and keeps
    the witness on the exhaustive route: the scan's skip and stop tests are
    symmetric in R, and an admissible candidate's content is never empty."""

    SWAP = {"inside": "outside", "outside": "inside", "not_found": "not_found"}

    def assert_dual(self, region, stem, B, p):
        # the second round is answered from the memo
        for _ in range(2):
            got = cr_witness(region, stem, B, p, route="exhaustive")
            dual = cr_witness(ComplementRegion(region), stem, B, p,
                              route="exhaustive")
            assert (dual.kind, dual.witness) == (self.SWAP[got.kind], got.witness)
        return got.kind

    def test_grid_and_twelve(self, grid5, twelve6, p_grid, p_pairs):
        kinds = set()
        grid_regions = [
            BasicUnionRegion((EllentuckBasic((1,), Subfamily.of(grid5, [2, 3, 4, 5])),)),
            BasicUnionRegion((EllentuckBasic((), Subfamily.of(grid5, [1, 2, 3, 4])),
                              EllentuckBasic((3,), Subfamily.of(grid5, [4, 5, 6, 7])))),
            ExplicitRegion(frozenset([(1, 2, 3), (2, 3, 4, 5)])),
            ALWAYS,
        ]
        for region in grid_regions:
            for stem in [(), (1,), (2,), (1, 2)]:
                B = restrict(Subfamily.full(grid5), stem)
                kinds.add(self.assert_dual(region, stem, B, p_grid))
        twelve_region = BasicUnionRegion((
            EllentuckBasic((1,), Subfamily.of(twelve6, [2, 3, 4, 5, 6])),))
        for stem in [(1, 2, 3, 4, 5), (1, 2, 3, 4, 5, 6)]:
            B = restrict(Subfamily.full(twelve6), stem)
            kinds.add(self.assert_dual(twelve_region, stem, B, p_pairs))
        assert {"inside", "outside"} <= kinds

    @settings(max_examples=100, deadline=None)
    @given(duality_cases())
    def test_random_families(self, case):
        self.assert_dual(*case)


class TestClosureSmoke:
    def test_composed_regions_stay_decidable(self, grid5, full_grid, p_grid):
        r = BasicUnionRegion((
            EllentuckBasic((1,), Subfamily.of(grid5, [2, 3, 4, 5])),))
        s = BasicUnionRegion((
            EllentuckBasic((2,), Subfamily.of(grid5, [3, 4, 5, 6])),))
        stems = [(), (1,), (2,)]
        base_ok = all(
            cr_witness(t, stem, restrict(full_grid, stem), p_grid,
                       route="exhaustive").kind != "not_found"
            for t in (r, s) for stem in stems)
        if not base_ok:
            pytest.skip("fixture regions not decidable everywhere")
        for composed in (UnionRegion((r, s)), IntersectionRegion((r, s)),
                         ComplementRegion(r)):
            for stem in stems:
                got = cr_witness(composed, stem, restrict(full_grid, stem),
                                 p_grid, route="exhaustive")
                assert got.kind != "not_found"


class TestNowhereDense:
    def test_empty_region(self, grid5, p_grid):
        assert is_nowhere_dense(NEVER, grid5, p_grid) is TRUE

    def test_everything_region(self, grid5, p_grid):
        assert is_nowhere_dense(ALWAYS, grid5, p_grid) is FALSE

    def brute_nwd(self, family, region, p):
        # independent quantifier expansion over admissible-reservoir basics
        n = len(family)
        basics = []
        for stem_size in range(n + 1):
            for stem in itertools.combinations(range(1, n + 1), stem_size):
                top = max(stem) if stem else 0
                tail = [i for i in range(1, n + 1) if i > top]
                for r_size in range(len(tail) + 1):
                    for res in itertools.combinations(tail, r_size):
                        if admissible(Subfamily.of(family, res), p) is not TRUE:
                            continue
                        content = []
                        for e_size in range(len(res) + 1):
                            for extra in itertools.combinations(res, e_size):
                                d = Subfamily.of(family, set(stem) | set(extra))
                                if admissible(d, p) is TRUE:
                                    content.append(d)
                        if content:
                            basics.append(content)
        def keyset(content):
            return frozenset(d.indices for d in content)
        free = [keyset(c) for c in basics
                if all(not region.contains(d) for d in c)]
        return all(any(v <= keyset(c) for v in free) for c in basics)

    @pytest.mark.parametrize("inside, want", [
        (lambda D: False, TRUE),
        (lambda D: D.indices in {(1, 2, 3, 5), (1, 2, 4, 5)}, TRUE),
        (lambda D: len(D.indices) <= 4, FALSE),
    ])
    def test_predicate_sees_each_member_once(self, grid5, p_grid, inside, want):
        """A predicate region is effect-free and total, so the engine may test
        each member once, in any order, and reuse the answer."""
        seen = collections.Counter()

        def counting(D):
            seen[D.indices] += 1
            return inside(D)

        region = PredicateRegion(counting, "counting")
        for _ in range(2):
            seen.clear()
            assert is_nowhere_dense(region, grid5, p_grid) is want
            assert seen and max(seen.values()) == 1

    def test_singleton_matches_brute(self, grid5, p_grid):
        adm = list(enumerate_admissible(Subfamily.full(grid5), p_grid))
        for D in (adm[0], adm[40], adm[-1]):
            region = ExplicitRegion.of([D])
            want = self.brute_nwd(grid5, region, p_grid)
            assert (is_nowhere_dense(region, grid5, p_grid) is TRUE) == want


class TestNwdWitness:
    def test_empty_region_gives_full_reservoir(self, full_grid, p_grid):
        got = nwd_witness(NEVER, (), full_grid, p_grid)
        assert got.kind == "witness" and got.witness.indices == full_grid.indices

    def test_region_outside_basic(self, grid5, p_grid):
        B = Subfamily.of(grid5, [1, 2, 3, 4, 5, 6])
        region = ExplicitRegion(frozenset([(1, 2, 3, 7)]))
        got = nwd_witness(region, (), B, p_grid)
        assert got.kind == "witness" and got.witness.indices == B.indices

    def test_not_nwd_contract(self, full_grid, p_grid):
        with pytest.raises(ContractError):
            nwd_witness(ALWAYS, (), full_grid, p_grid)

    def test_witness_verified_exhaustively(self, grid5, full_grid, p_grid):
        # a pair verified nowhere dense by the brute check in TestNowhereDense
        region = ExplicitRegion(frozenset([(1, 2, 3, 5), (1, 2, 4, 5)]))
        assert is_nowhere_dense(region, grid5, p_grid) is TRUE
        got = nwd_witness(region, (), full_grid, p_grid)
        assert got.kind == "witness"
        assert oracle.brute_accepts(got.witness, (),
                                    ComplementRegion(region), p_grid)


class TestMeagerReport:
    def test_report_shape(self, grid5, p_grid):
        adm = list(enumerate_admissible(Subfamily.full(grid5), p_grid))
        lvl1 = ExplicitRegion.of([s for s in adm if len(s) == 4][:1])
        lvl2 = ExplicitRegion.of([s for s in adm if len(s) == 4][:2])
        report = nwd_meager_report(MeagerPresentation((lvl1, lvl2)),
                                   grid5, p_grid)
        assert set(report) == {"levels", "union", "agreement"}
        assert len(report["levels"]) == 2


class TestRegionJson:
    def test_round_trip(self, grid5):
        region = UnionRegion((
            ExplicitRegion(frozenset([(1, 2, 3)])),
            ComplementRegion(BasicUnionRegion((
                EllentuckBasic((1,), Subfamily.of(grid5, [2, 3])),))),
        ))
        data = region_to_json(region)
        back = region_from_json(data, grid5)
        assert region_to_json(back) == data

    def test_predicates_not_serializable(self):
        with pytest.raises(Exception):
            region_to_json(ALWAYS)

    def test_basic_content_exposed(self, grid5, p_grid):
        b = EllentuckBasic((1,), Subfamily.of(grid5, [2, 3, 4, 5]))
        content = basic_content(b, p_grid)
        assert all(basic_contains(b, D) for D in content)
        assert all(admissible(D, p_grid) is TRUE for D in content)


class TestCrConstructiveRoute:
    def test_rejection_refinement_produces_outside(self):
        # a singleton region on a non-minimal admissible set has no acceptor
        # at the empty stem, so the constructive route must go through the
        # rejection refinement and return a verified outside witness
        from omegaramsey import Family
        from omegaramsey.ellentuck import _cr_constructive

        pats = [frozenset({1, 2, 3}), frozenset({2, 3, 4}),
                frozenset({1, 3, 4}), frozenset({1, 2, 4})]
        fam = Family.of(4, [pats[i % 4] for i in range(10)])
        p = LargenessParams(d=1, min_size=3)
        full = Subfamily.full(fam)
        region = ExplicitRegion(frozenset([(5, 6, 7, 8)]))
        got = _cr_constructive(region, (), full, p, 4, 3)
        assert got is not None and got.kind == "outside"
        assert admissible(got.witness, p) is TRUE
        assert oracle.brute_accepts(got.witness, (),
                                    ComplementRegion(region), p)


class TestCrConstructiveWitness:
    """Instances where `cr_witness`'s constructive route gives the answer.

    Three-point members over 5 points at d=1, min_size 3, found among random
    instances of 6 to 10 members; the route answered about 3 in 1,000 of them.
    Here B's own check fails, and the play's witness is smaller than the one
    the exhaustive route's largest-first scan finds.
    """

    CASES = [
        # the play decides its picks accept the stem, and the picks answer
        ([[2, 3, 4], [1, 2, 5], [3, 4, 5], [1, 3, 5], [1, 2, 5], [1, 3, 4],
          [1, 3, 5], [1, 4, 5], [1, 2, 4], [2, 3, 5]], (),
         {"type": "complement", "inner": {"type": "basicUnion", "basics": [
             {"stem": [4, 8], "reservoir": [9, 10]}]}},
         ("inside", (1, 2, 3, 4, 5, 6)), ("inside", (1, 2, 3, 4, 5, 6, 7, 9, 10))),
        # the stem is rejected, and the rejection play's picks answer
        ([[1, 2, 3], [1, 3, 4], [1, 2, 5], [3, 4, 5], [1, 3, 5], [2, 4, 5],
          [3, 4, 5], [1, 2, 5], [2, 3, 5], [3, 4, 5]], (1,),
         {"type": "basicUnion", "basics": [{"stem": [1, 8], "reservoir": [9, 10]}]},
         ("outside", (2, 3, 4)), ("outside", (2, 3, 4, 5, 6, 7, 8, 9))),
    ]

    @pytest.mark.parametrize("members,stem,region_json,auto,exhaustive", CASES,
                             ids=["inside", "outside"])
    def test_the_play_answers_first(self, members, stem, region_json, auto,
                                    exhaustive):
        from omegaramsey import Family
        fam = Family.of(5, members)
        p = LargenessParams(d=1, min_size=3)
        region = region_from_json(region_json, fam)
        B = restrict(Subfamily.full(fam), stem)
        got = {route: cr_witness(region, stem, B, p, route=route)
               for route in ("auto", "exhaustive")}
        assert {route: (o.kind, o.witness.indices) for route, o in got.items()} == \
            {"auto": auto, "exhaustive": exhaustive}
        want = region if auto[0] == "inside" else ComplementRegion(region)
        for outcome in got.values():
            assert oracle.brute_accepts(outcome.witness, stem, want, p)


class TestBaireRegion:
    def test_symmetric_difference_membership(self, grid5, p_grid):
        from omegaramsey.ellentuck import baire_region
        open_part = BasicUnionRegion((
            EllentuckBasic((1,), Subfamily.of(grid5, [2, 3, 4, 5])),))
        ladder = MeagerPresentation((
            ExplicitRegion(frozenset([(1, 2, 3, 5)])),
            ExplicitRegion(frozenset([(1, 2, 3, 5), (1, 2, 4, 5)])),))
        region = baire_region(open_part, ladder)
        meager_union = UnionRegion(ladder.levels)
        for D in enumerate_admissible(Subfamily.full(grid5), p_grid):
            want = open_part.contains(D) != meager_union.contains(D)
            assert region.contains(D) == want

    def test_flows_through_the_witness_search(self, grid5, full_grid, p_grid):
        from omegaramsey.ellentuck import baire_region
        open_part = BasicUnionRegion((
            EllentuckBasic((1,), Subfamily.of(grid5, [2, 3, 4, 5])),))
        ladder = MeagerPresentation((
            ExplicitRegion(frozenset([(1, 2, 3, 5)])),))
        region = baire_region(open_part, ladder)
        got = cr_witness(region, (), full_grid, p_grid, route="exhaustive")
        if got.kind == "inside":
            assert oracle.brute_accepts(got.witness, (), region, p_grid)
        elif got.kind == "outside":
            assert oracle.brute_accepts(got.witness, (),
                                        ComplementRegion(region), p_grid)


class TestDecideUnknown:
    def test_starved_budget_reports_unknown(self, grid5, full_grid):
        starved = LargenessParams(d=1, min_size=3, search_bound=3)
        got = decide(full_grid, (), ALWAYS, starved)
        assert got.kind == "unknown" and got.witness is None


class TestUnknownAdmissibility:
    """Cover checks that run out of budget inside the calculus.

    Over 20 points at d=2 the cover check reads 210 point sets, and the pair
    {1, 20} lies in none of the four member shapes; it comes 192nd.  Under a
    bound of 100, every subfamily that covers the singletons is UNKNOWN and
    every other one FALSE, so none is admissible.  Six members take the
    exhaustive branches and eight the budgeted lazy ones.
    """

    SHAPES = (range(1, 20), range(2, 21), range(1, 19), range(3, 21))

    @pytest.mark.parametrize("n", [6, 8])
    @pytest.mark.parametrize("stem", [(), (1,)])
    def test_every_answer_is_unknown(self, n, stem):
        from omegaramsey import Family
        fam = Family.of(20, [set(self.SHAPES[i % 4]) for i in range(n)])
        p = LargenessParams(d=2, min_size=2, search_bound=100)
        B = restrict(Subfamily.full(fam), stem)
        assert (2 ** len(B) <= p.search_bound) is (n == 6)
        assert admissible(B, p) is UNKNOWN
        for region in (NEVER, ALWAYS):
            assert accepts(B, stem, region, p) is UNKNOWN
            assert rejects(B, stem, region, p) is UNKNOWN
            assert decide(B, stem, region, p).kind == "unknown"
            for route in ("auto", "exhaustive"):
                assert cr_witness(region, stem, B, p, route=route).kind == "not_found"
        assert nwd_witness(NEVER, stem, B, p).kind == "not_found"


class TestLazyPathAgainstOracle:
    """accepts/rejects on the budgeted (lazy) branch, checked by the oracle.

    The lazy branch runs when 2**len(B) exceeds search_bound.  The bounds
    here sit between the count of subsets of B at the size gate and
    2**len(B) - 1, so rejects' scan can finish and definite answers come
    back; each is compared with the oracle on the first call and again on
    the repeated call.
    """

    @staticmethod
    def regions(family):
        full = Subfamily.full(family)
        from omegaramsey.ground import subsets_canonical
        return [BasicUnionRegion(())] + [
            BasicUnionRegion((EllentuckBasic(stem, restrict(full, stem)),))
            for stem in subsets_canonical(range(1, len(family) + 1))]

    @staticmethod
    def lazy_bounds(n, min_size):
        gated = sum(1 for k in range(min_size, n + 1)
                    for _ in itertools.combinations(range(n), k))
        return sorted({max(gated, 1), (gated + 2 ** n - 1) // 2, 2 ** n - 1})

    def check(self, fn, brute, B, stem, region, p):
        first = fn(B, stem, region, p)
        if first is UNKNOWN:
            return None
        want = TRUE if brute(B, stem, region, p) else FALSE
        assert first is want, (fn.__name__, B.indices, stem, region, p)
        assert fn(B, stem, region, p) is want
        return want

    def test_definite_lazy_answers_match_the_oracle(self, grid5, full_grid):
        seen = {}
        for region in self.regions(grid5):
            for stem in [(), (1,), (2,), (1, 2), (2, 3)]:
                B = restrict(full_grid, stem)
                for bound in self.lazy_bounds(len(B), 3):
                    assert 2 ** len(B) > bound
                    p = LargenessParams(d=1, min_size=3, search_bound=bound)
                    for fn, brute in ((accepts, oracle.brute_accepts),
                                      (rejects, oracle.brute_rejects)):
                        got = self.check(fn, brute, B, stem, region, p)
                        if got is not None:
                            key = (fn.__name__, got)
                            seen[key] = seen.get(key, 0) + 1
        assert seen.get(("accepts", FALSE), 0) >= 100
        assert seen.get(("rejects", TRUE), 0) >= 100
        assert seen.get(("rejects", FALSE), 0) >= 10

    @pytest.mark.parametrize("bound", [99, 113, 127])
    def test_seven_member_rejects(self, grid5, full_grid, bound):
        p = LargenessParams(d=1, min_size=3, search_bound=bound)
        verdicts = set()
        for region in self.regions(grid5):
            got = self.check(rejects, oracle.brute_rejects, full_grid, (),
                             region, p)
            assert got is not None
            verdicts.add(got)
        assert verdicts == {TRUE, FALSE}
