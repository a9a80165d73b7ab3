import itertools

import pytest
from hypothesis import given, settings, strategies as st

from omegaramsey import (
    FALSE,
    TRUE,
    Family,
    LargenessParams,
    StructuralError,
    Subfamily,
    ThreeVal,
    UNKNOWN,
    admissible,
    check_d_omega_cover,
    enumerate_admissible,
)
from omegaramsey.ground import subsets_canonical


def member_index(family, points):
    wanted = frozenset(points)
    for i, m in enumerate(family.members, start=1):
        if m == wanted:
            return i
    raise AssertionError(f"no member {points}")


class TestCoverCheck:
    def test_quads_cover_depth_two(self, quads6, p_pairs):
        got = check_d_omega_cover(Subfamily.full(quads6), p_pairs)
        assert got.status is TRUE

    def test_quads_fail_depth_five(self, quads6):
        p = LargenessParams(d=5, min_size=3)
        got = check_d_omega_cover(Subfamily.full(quads6), p)
        assert got.status is FALSE
        assert got.witness == frozenset({1, 2, 3, 4, 5})

    def test_empty_subfamily_misses_first_point(self, quads6):
        got = check_d_omega_cover(Subfamily.of(quads6, []),
                                  LargenessParams(d=1, min_size=1))
        assert got.status is FALSE
        assert got.witness == frozenset({1})

    def test_depth_must_stay_below_universe(self, quads6):
        with pytest.raises(StructuralError):
            check_d_omega_cover(Subfamily.full(quads6),
                                LargenessParams(d=6, min_size=1))

    def test_tiny_budget_gives_unknown(self, quads6):
        p = LargenessParams(d=2, min_size=3, search_bound=2)
        got = check_d_omega_cover(Subfamily.full(quads6), p)
        assert got.status is UNKNOWN

    def test_witness_is_genuine(self, grid5):
        p = LargenessParams(d=2, min_size=1)
        sub = Subfamily.of(grid5, [1, 2])
        got = check_d_omega_cover(sub, p)
        assert got.status is FALSE
        assert all(not got.witness <= m for m in sub.members())


class TestAdmissible:
    def test_full_quads(self, quads6, p_pairs):
        assert admissible(Subfamily.full(quads6), p_pairs) is TRUE

    def test_size_gate_first(self, quads6, p_pairs):
        assert admissible(Subfamily.of(quads6, [1, 2]), p_pairs) is FALSE

    def test_derived_triple(self, quads6, p_pairs):
        tri = [member_index(quads6, s)
               for s in ({1, 2, 3, 4}, {1, 2, 5, 6}, {3, 4, 5, 6})]
        assert admissible(Subfamily.of(quads6, tri), p_pairs) is TRUE


class TestEnumerateAdmissible:
    def test_empty_pool(self, quads6, p_pairs):
        assert list(enumerate_admissible(Subfamily.of(quads6, []), p_pairs)) == []

    def test_minsize_equals_pool(self, quads6):
        p = LargenessParams(d=2, min_size=15)
        got = list(enumerate_admissible(Subfamily.full(quads6), p))
        assert len(got) == 1 and got[0].indices == quads6.indices

    def test_count_matches_powerset_filter(self, quads6, p_pairs):
        full = Subfamily.full(quads6)

        def brute_ok(indices):
            if len(indices) < p_pairs.min_size:
                return False
            members = [quads6.member(i) for i in indices]
            return all(any(set(pair) <= m for m in members)
                       for pair in itertools.combinations(range(1, 7), 2))

        # restrict to a 6-member pool to keep the brute filter quick
        pool = Subfamily.of(quads6, range(1, 7))
        want = sum(1 for size in range(len(pool.indices) + 1)
                   for c in itertools.combinations(pool.indices, size)
                   if brute_ok(c))
        got = sum(1 for _ in enumerate_admissible(pool, p_pairs))
        assert got == want

    def test_limit_and_order(self, quads6, p_pairs):
        full = Subfamily.full(quads6)
        first = list(enumerate_admissible(full, p_pairs, limit=5))
        assert len(first) == 5
        sizes = [len(s) for s in first]
        assert sizes == sorted(sizes)
        again = list(enumerate_admissible(full, p_pairs, limit=5))
        assert [s.indices for s in first] == [s.indices for s in again]

    def test_yields_only_admissible(self, grid5, p_grid):
        for sub in enumerate_admissible(Subfamily.full(grid5), p_grid):
            assert admissible(sub, p_grid) is TRUE


def small_family():
    universes = st.integers(min_value=2, max_value=5)

    def build(m):
        points = st.frozensets(st.integers(1, m), min_size=1, max_size=m - 1)
        return st.lists(points, min_size=1, max_size=5).map(
            lambda ms: Family.of(m, ms))
    return universes.flatmap(build)


@st.composite
def family_and_nested_subs(draw):
    family = draw(small_family())
    n = len(family)
    big = draw(st.frozensets(st.integers(1, n)))
    small = draw(st.frozensets(st.sampled_from(sorted(big)) if big else
                               st.nothing()))
    return family, Subfamily.of(family, small), Subfamily.of(family, big)


class TestProperties:
    @settings(max_examples=60, deadline=None)
    @given(family_and_nested_subs())
    def test_cover_monotone_in_subfamily(self, data):
        family, small, big = data
        p = LargenessParams(d=1, min_size=1)
        if check_d_omega_cover(small, p).status is TRUE:
            assert check_d_omega_cover(big, p).status is TRUE

    @settings(max_examples=60, deadline=None)
    @given(small_family(), st.data())
    def test_cover_monotone_in_depth(self, family, data):
        m = family.universe.size
        if m < 3:
            return
        d_hi = data.draw(st.integers(2, m - 1))
        d_lo = data.draw(st.integers(1, d_hi))
        sub = Subfamily.full(family)
        hi = check_d_omega_cover(sub, LargenessParams(d=d_hi, min_size=1))
        lo = check_d_omega_cover(sub, LargenessParams(d=d_lo, min_size=1))
        if hi.status is TRUE:
            assert lo.status is TRUE

    def test_canonical_order_is_size_then_colex(self):
        got = list(subsets_canonical([1, 2, 3], min_size=2))
        assert got == [(1, 2), (1, 3), (2, 3), (1, 2, 3)]

    def test_no_duplicates_in_enumeration(self, grid5, p_grid):
        seen = [s.indices for s in
                enumerate_admissible(Subfamily.full(grid5), p_grid)]
        assert len(seen) == len(set(seen))


class TestJsonRoundTrip:
    def test_family(self, grid5):
        assert Family.from_json(grid5.to_json()) == grid5

    def test_subfamily(self, grid5):
        sub = Subfamily.of(grid5, [2, 5, 7])
        assert Subfamily.from_json(sub.to_json(), grid5) == sub

    def test_bad_family_json(self):
        with pytest.raises(StructuralError):
            Family.from_json({"universe": 4})


class TestExactIntegers:
    """`True` and `1.0` equal 1 and hash like it, so each would be stored as
    given, or be answered from the memo entry of the int it equals."""

    @pytest.mark.parametrize("point", [True, 1.0], ids=["bool", "float"])
    def test_family_points(self, point):
        members = [[point, 2, 3], [2, 4]]
        with pytest.raises(StructuralError, match=r"^member 1 has point .*not an integer$"):
            Family.of(4, members)
        with pytest.raises(StructuralError, match="not an integer"):
            Family.from_json({"universe": 4, "members": members})

    def test_subfamily_indices(self, twelve6):
        with pytest.raises(StructuralError, match=r"^index True is not an integer$"):
            Subfamily(twelve6, (True, 2))
        with pytest.raises(StructuralError, match=r"^index 2.0 is not an integer$"):
            Subfamily.of(twelve6, [2.0, 3])

    @pytest.mark.parametrize("args, shown", [
        ((1.0, 3), "d 1.0"),
        ((True, 3), "d True"),
        ((1, 3.0), "min_size 3.0"),
        ((1, 3, 500.0), "search_bound 500.0"),
        ((1, 3, True), "search_bound True"),
    ])
    def test_largeness_params(self, quads6, args, shown):
        # refused with the memo entry of the equal ints filled
        admissible(Subfamily.full(quads6), LargenessParams(*[int(a) for a in args]))
        with pytest.raises(StructuralError, match=f"^largeness {shown} is not an integer$"):
            LargenessParams(*args)


class TestThreeVal:
    def test_no_bool_coercion(self):
        with pytest.raises(TypeError):
            bool(TRUE)

    def test_of(self):
        assert ThreeVal.of(True) is TRUE and ThreeVal.of(False) is FALSE
