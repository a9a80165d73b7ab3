"""The engine's one cache policy: every memo is an lru_cache of CACHE_SIZE.

Memoization must bound memory and must never change an answer, so these
tests pin the bound on every cache, watch one cache fill and evict, and
compare answers given warm with answers given after every cache is cleared.
"""

import importlib
import itertools

import pytest

from omegaramsey import (
    BasicUnionRegion,
    ComplementRegion,
    EllentuckBasic,
    EngineError,
    ExplicitRegion,
    LargenessParams,
    Subfamily,
    accepts,
    admissible,
    cr_witness,
    decide,
    rejects,
    restrict,
)
from omegaramsey import barriers, ground
from omegaramsey.ground import admissible_subsets, subsets_canonical

ENGINE_MODULES = ("ground", "ellentuck", "games", "ramsey", "barriers",
                  "mathias", "oracle", "cli")


def engine_caches():
    """Every functools cache wrapper among the engine modules' attributes."""
    found = {}
    for name in ENGINE_MODULES:
        module = importlib.import_module(f"omegaramsey.{name}")
        for attr, value in vars(module).items():
            if callable(getattr(value, "cache_info", None)):
                found[f"{value.__module__}.{value.__qualname__}"] = value
    return found


def clear_engine_caches():
    for cache in engine_caches().values():
        cache.cache_clear()


class TestPolicy:
    def test_every_memo_is_capped(self):
        caches = engine_caches()
        assert set(caches) == {
            "omegaramsey.ground._admissible_cached",
            "omegaramsey.ground._admissible_subsets_asc",
            "omegaramsey.ellentuck._basic_content",
            "omegaramsey.ellentuck._all_basics_with_content",
            "omegaramsey.ellentuck._rejects",
            "omegaramsey.ellentuck._decide",
            "omegaramsey.oracle._admissible_at",
            "omegaramsey.barriers._admissible_masked",
        }
        for name, cache in caches.items():
            assert cache.cache_info().maxsize == ground.CACHE_SIZE, name

    @pytest.mark.parametrize("module, attr", [
        ("ellentuck", "_REJECTS_CACHE"),
        ("ellentuck", "_DECIDE_CACHE"),
        ("oracle", "_ADM_MEMO"),
    ])
    def test_hand_rolled_caches_are_gone(self, module, attr):
        assert not hasattr(importlib.import_module(f"omegaramsey.{module}"),
                           attr)

    def test_cache_size_is_not_exported(self):
        import omegaramsey
        assert "CACHE_SIZE" not in omegaramsey.__all__


class TestMaskMemo:
    def test_entries_pair_each_admissible_set_with_its_mask(self, grid5, p_grid):
        expected = tuple((b, barriers._mask(b))
                         for b in admissible_subsets(Subfamily.full(grid5), p_grid))
        assert expected
        assert barriers._admissible_masked(grid5, p_grid) == expected
        assert all(m == sum(1 << i for i in b) for b, m in expected)

    def test_large_family_raises_and_is_not_stored(self, p_pairs):
        members = [c for r in (2, 3) for c in itertools.combinations(range(1, 7), r)]
        family = ground.Family.of(6, members[:17])
        assert len(family) == 17
        memo = barriers._admissible_masked
        before = memo.cache_info()
        with pytest.raises(EngineError):
            memo(family, p_pairs)
        after = memo.cache_info()
        assert (after.currsize, after.hits) == (before.currsize, before.hits)


class TestEviction:
    def test_admissibility_cache_fills_and_evicts(self, quads6, p_pairs):
        assert len(quads6) >= 15
        cache = ground._admissible_cached
        cache.cache_clear()
        probes = list(itertools.islice(subsets_canonical(quads6.indices),
                                       ground.CACHE_SIZE + 100))
        verdicts = [admissible(Subfamily(quads6, c), p_pairs) for c in probes]
        info = cache.cache_info()
        assert info.misses == len(probes)
        assert info.currsize == ground.CACHE_SIZE
        # the oldest probes were evicted and come back as misses
        for combo, verdict in zip(probes[:50:7], verdicts[:50:7]):
            before = cache.cache_info().misses
            assert admissible(Subfamily(quads6, combo), p_pairs) is verdict
            assert cache.cache_info().misses == before + 1
        assert cache.cache_info().currsize == ground.CACHE_SIZE
        # the newest probe is still held
        before = cache.cache_info().hits
        assert admissible(Subfamily(quads6, probes[-1]), p_pairs) is verdicts[-1]
        assert cache.cache_info().hits == before + 1


def grid_queries(family, p):
    full = Subfamily.full(family)
    basics = [EllentuckBasic(stem, restrict(full, stem))
              for stem in [(1,), (2,), (1, 3), (2, 4)]]
    regions = [BasicUnionRegion(()), BasicUnionRegion((basics[0],)),
               BasicUnionRegion(tuple(basics[1:3])),
               ComplementRegion(BasicUnionRegion((basics[3],))),
               ExplicitRegion(frozenset([(1, 2, 3), (2, 3, 4, 5)]))]
    budgets = [p, LargenessParams(p.d, p.min_size, search_bound=100)]
    for region in regions:
        for stem in [(), (1,), (2,), (1, 2)]:
            B = restrict(full, stem)
            for q in budgets:
                yield (accepts, B, stem, region, q)
                yield (rejects, B, stem, region, q)
                yield (decide, B, stem, region, q)
            yield (cr_witness, region, stem, B, p)


def twelve_queries(family, p):
    full = Subfamily.full(family)
    basic = EllentuckBasic((1,), Subfamily.of(family, [2, 3, 4, 5, 6]))
    regions = [BasicUnionRegion((basic,)),
               ComplementRegion(BasicUnionRegion((basic,)))]
    for region in regions:
        for stem in [(1,), (1, 2, 3, 4, 5)]:
            B = restrict(full, stem)
            yield (accepts, B, stem, region, p)
            yield (rejects, B, stem, region, p)
            yield (decide, B, stem, region, p)
        yield (cr_witness, region, (1, 2, 3, 4, 5),
               restrict(full, (1, 2, 3, 4, 5)), p)


def answers(queries):
    out = []
    for fn, *args in queries:
        try:
            out.append(fn(*args))
        except EngineError as err:  # an error is an answer too, and is not cached
            out.append((type(err), str(err)))
    return out


class TestAnswersIgnoreCacheState:
    @pytest.mark.parametrize("fixture, params, make", [
        ("grid5", "p_grid", grid_queries),
        ("twelve6", "p_pairs", twelve_queries),
    ])
    def test_warm_and_cleared_answers_agree(self, request, fixture, params,
                                            make):
        family = request.getfixturevalue(fixture)
        p = request.getfixturevalue(params)
        queries = list(make(family, p))
        warm_up = answers(queries)
        warm = answers(queries)
        cold = []
        for query in queries:
            # alone, so no entry another query left can answer it
            clear_engine_caches()
            cold += answers([query])
        assert warm == warm_up
        assert cold == warm
        kinds = {type(a).__name__ for a in cold}
        assert {"ThreeVal", "DecideOutcome", "CrOutcome"} <= kinds
