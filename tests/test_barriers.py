"""Thin and dense stem families, fg witnesses and Nash-Williams homogenization.

Besides the unit tests, a golden battery pins is_thin, is_dense, fg_witness
and nw_homogenize (outcome or error) on seeded small cases, so a rewrite of
the searches that changes any witness, part index or error shows up as a
diff.  The expected results live in tests/golden/barriers.json.  After an
intended change of results, rewrite them from the repository root with

    PYTHONPATH=src python tests/test_barriers.py

and review the diff.
"""

import itertools
import json
import random
from pathlib import Path

import pytest

from omegaramsey import (
    Coloring,
    ContractError,
    EngineError,
    FALSE,
    Family,
    FiniteSetFamily,
    LargenessParams,
    StructuralError,
    Subfamily,
    TRUE,
    admissible,
    enumerate_admissible,
    fg_witness,
    is_dense,
    is_thin,
    nw_homogenize,
    ramsey_via_nw,
    solve_partition,
)
from omegaramsey.barriers import is_initial_segment, partition_of
from omegaramsey import oracle


def pairs_family(family):
    return FiniteSetFamily.of(
        family, itertools.combinations(family.indices, 2))


class TestThin:
    def test_pairs_are_thin(self, eight5):
        assert is_thin(pairs_family(eight5))

    def test_prefix_violation(self, eight5):
        assert not is_thin(FiniteSetFamily.of(eight5, [(1,), (1, 2)]))

    def test_empty_family_is_thin(self, eight5):
        assert is_thin(FiniteSetFamily.of(eight5, []))

    def test_thin_means_prefix_antichain(self, eight5):
        # cross-check against an independent pairwise formulation
        import random
        rng = random.Random(4)
        pool = list(itertools.chain(
            itertools.combinations(range(1, 9), 1),
            itertools.combinations(range(1, 9), 2),
            itertools.combinations(range(1, 9), 3)))
        for _ in range(30):
            stems = rng.sample(pool, rng.randint(1, 8))
            fam = FiniteSetFamily.of(eight5, stems)
            want = all(not (s != t and t[:len(s)] == s)
                       for s in fam.stems for t in fam.stems)
            assert is_thin(fam) == want

    def test_initial_segment_relation_is_a_partial_order(self):
        stems = [(), (1,), (1, 2), (1, 3), (2,)]
        for s in stems:
            assert is_initial_segment(s, s)
        for s, t in itertools.permutations(stems, 2):
            if is_initial_segment(s, t) and is_initial_segment(t, s):
                assert s == t
        for s, t, u in itertools.permutations(stems, 3):
            if is_initial_segment(s, t) and is_initial_segment(t, u):
                assert is_initial_segment(s, u)


class TestDense:
    def test_singletons_are_dense(self, eight5, p_grid):
        S = FiniteSetFamily.of(eight5, [(i,) for i in range(1, 9)])
        assert is_dense(S, p_grid) is TRUE

    def test_empty_family_not_dense(self, eight5, p_grid):
        assert is_dense(FiniteSetFamily.of(eight5, []), p_grid) is FALSE

    def test_matches_exhaustive_oracle(self, eight5, p_grid):
        S = FiniteSetFamily.of(eight5, [(1, 2), (3, 4), (5, 6), (7, 8)])
        got = is_dense(S, p_grid)
        admissible_sets = [b.indices for b in
                           enumerate_admissible(Subfamily.full(eight5), p_grid)]
        want = all(any(set(s) <= set(b) for s in S.stems)
                   for b in admissible_sets)
        assert (got is TRUE) == want


class TestFgWitness:
    def test_singletons_give_first_admissible(self, eight5, p_grid):
        S = FiniteSetFamily.of(eight5, [(i,) for i in range(1, 9)])
        got = fg_witness(S, p_grid)
        first = next(iter(enumerate_admissible(Subfamily.full(eight5), p_grid)))
        assert got.kind == "witness"
        assert got.witness.indices == first.indices

    def test_needs_density(self, eight5, p_grid):
        with pytest.raises(ContractError):
            fg_witness(FiniteSetFamily.of(eight5, [(1, 2)]), p_grid)

    def test_witness_verified_exhaustively(self, eight5, p_grid):
        S = FiniteSetFamily.of(eight5,
                               [(1,), (2,), (3, 4), (3, 5), (3, 6), (3, 7),
                                (3, 8), (4, 5), (4, 6), (4, 7), (4, 8),
                                (5, 6), (5, 7), (5, 8), (6, 7), (6, 8),
                                (7, 8), (3,)])
        if is_dense(S, p_grid) is not TRUE:
            pytest.skip("fixture stems not dense at these params")
        got = fg_witness(S, p_grid)
        assert got.kind == "witness"
        for C in enumerate_admissible(got.witness, p_grid):
            c = C.indices
            assert any(c[:j] in S.stems for j in range(len(c) + 1))


class TestNwHomogenize:
    def test_everything_in_first_part(self, eight5, p_grid):
        T = pairs_family(eight5)
        got = nw_homogenize(T, [sorted(T.stems), []], p_grid)
        assert got.kind == "homogeneous" and got.part == 0
        first = next(iter(enumerate_admissible(Subfamily.full(eight5), p_grid)))
        assert got.witness.indices == first.indices

    def test_single_part(self, eight5, p_grid):
        T = pairs_family(eight5)
        got = nw_homogenize(T, [sorted(T.stems)], p_grid)
        assert got.kind == "homogeneous" and got.part == 0

    def test_thinness_required(self, eight5, p_grid):
        T = FiniteSetFamily.of(eight5, [(1,), (1, 2)])
        with pytest.raises(ContractError):
            nw_homogenize(T, [[(1,)], [(1, 2)]], p_grid)

    def test_partition_validated(self, eight5, p_grid):
        T = pairs_family(eight5)
        with pytest.raises(StructuralError):
            nw_homogenize(T, [sorted(T.stems), [(1, 2)]], p_grid)

    def test_parity_partition_appears_in_oracle(self, eight5, p_grid):
        T = pairs_family(eight5)
        parts = [[s for s in sorted(T.stems) if s[0] % 2 == 1],
                 [s for s in sorted(T.stems) if s[0] % 2 == 0]]
        got = nw_homogenize(T, parts, p_grid)
        all_pairs = oracle.brute_nw(T, parts, p_grid)
        if got.kind == "homogeneous":
            assert (got.witness.indices, got.part) in all_pairs
        else:
            assert not all_pairs

    def test_output_is_sound(self, eight5, p_grid):
        T = FiniteSetFamily.of(eight5, itertools.combinations(range(1, 9), 3))
        parts = [[s for s in sorted(T.stems) if sum(s) % 2 == 0],
                 [s for s in sorted(T.stems) if sum(s) % 2 == 1]]
        got = nw_homogenize(T, parts, p_grid)
        if got.kind != "homogeneous":
            pytest.skip("no homogeneous set at this fixture")
        inside = [s for s in T.stems
                  if set(s) <= set(got.witness.indices)]
        normalized = partition_of(T, parts)
        assert all(s in normalized[got.part] for s in inside)


class TestRamseyViaNw:
    def test_constant_coloring(self, eight5, p_grid):
        f = Coloring(2, 2, {c: 1 for c in
                            itertools.combinations(range(1, 9), 2)})
        got = ramsey_via_nw(eight5, f, p_grid)
        assert got is not None and got[1] == 1

    def test_agrees_with_partition_solver(self, eight5, p_grid):
        import random
        rng = random.Random(12)
        agreements = 0
        for _ in range(8):
            table = {c: rng.randrange(2)
                     for c in itertools.combinations(range(1, 9), 2)}
            f = Coloring(2, 2, table)
            via_nw = ramsey_via_nw(eight5, f, p_grid)
            direct = solve_partition(eight5, f, p_grid)
            if via_nw is None:
                continue
            B, color = via_nw
            assert all(f.of(c) == color
                       for c in itertools.combinations(B.indices, 2))
            assert direct is not None
            agreements += 1
        assert agreements >= 4

    @pytest.mark.parametrize("arity", [1, 2, 3])
    def test_sets_below_the_arity_do_not_count(self, arity):
        # a set with fewer indices than the arity holds no n-set, so it is not
        # homogeneous; with min_size below the arity such a set was answered,
        # under the last part's color, for every arity-3 coloring here
        family = Family.of(4, [{1, 2}, {2, 3}, {3, 4}, {1, 4}, {1, 3}])
        keys = list(itertools.combinations(family.indices, arity))
        rng = random.Random(24)
        answered = 0
        for min_size in range(1, arity + 1):
            p = LargenessParams(d=1, min_size=min_size)
            for _ in range(40):
                f = Coloring(arity, 2, {c: rng.randrange(2) for c in keys})
                got = ramsey_via_nw(family, f, p)
                found = [(b, c) for b, c in
                         oracle.brute_homogeneous(family, f, arity, 2, min_size)
                         if admissible(Subfamily(family, b), p) is TRUE]
                if got is None:
                    assert found == []
                else:
                    assert (got[0].indices, got[1]) in found
                    answered += 1
        assert answered

    def test_pigeonhole_arity_one(self, eight5, p_grid):
        f = Coloring(1, 2, {(i,): i % 2 for i in range(1, 9)})
        got = ramsey_via_nw(eight5, f, p_grid)
        if got is not None:
            B, color = got
            assert all(f.of((i,)) == color for i in B.indices)
            assert admissible(B, p_grid) is TRUE


# --- golden battery ------------------------------------------------------------

GOLDEN = Path(__file__).resolve().parent / "golden" / "barriers.json"


def _random_case(rng: random.Random) -> dict:
    """A 5-10-member family, small params, a stem family and 0-4 parts.

    Half the stem families are all r-sets of indices (thin, dense when r is at
    most min_size); the rest are random 1-3-sets, often not thin or dense.
    Stems are dealt to the parts at random, so some parts stay empty.
    """
    u = rng.randint(4, 6)
    members = [sorted(rng.sample(range(1, u + 1), rng.randint(u - 2, u - 1)))
               for _ in range(rng.randint(5, 10))]
    indices = range(1, len(members) + 1)
    if rng.random() < 0.5:
        stems = list(itertools.combinations(indices, rng.randint(1, 3)))
    else:
        pool = [c for r in (1, 2, 3) for c in itertools.combinations(indices, r)]
        stems = sorted(rng.sample(pool, rng.randint(0, 8)))
    k = rng.randint(0, 4)
    parts = [[] for _ in range(k)]
    if k:
        for s in stems:
            parts[rng.randrange(k)].append(s)
    return {"universe": u, "members": members, "d": rng.randint(1, 2),
            "min_size": rng.randint(1, 4), "stems": stems, "parts": parts}


def _pair_coloring_case(rng: random.Random) -> dict:
    """ramsey_via_nw's shape: all pairs of an 11-14-member family as stems,
    dealt to 2-3 parts by a random coloring.

    Members are 3- and 4-sets of 6 points at d=2, min_size=3, as in the
    twelve-member partition family, so the constructive path often gives up
    and the fallback scan walks every admissible set (up to about 6,300).
    """
    members = [sorted(rng.sample(range(1, 7), rng.randint(3, 4)))
               for _ in range(rng.randint(11, 14))]
    stems = list(itertools.combinations(range(1, len(members) + 1), 2))
    parts = [[] for _ in range(rng.randint(2, 3))]
    for s in stems:
        parts[rng.randrange(len(parts))].append(s)
    return {"universe": 6, "members": members, "d": 2, "min_size": 3,
            "stems": stems, "parts": parts}


def golden_cases() -> dict:
    rng = random.Random(5)
    cases = {f"random-{i:03d}": _random_case(rng) for i in range(200)}
    rng = random.Random(9)
    cases.update((f"pairs-{i:02d}", _pair_coloring_case(rng)) for i in range(12))
    eight = [[1, 2, 3], [3, 4, 5], [1, 4, 5], [2, 4, 5], [1, 2, 5], [2, 3, 4],
             [1, 3, 4], [2, 3, 5]]
    cases["empty-stems-no-parts"] = {
        "universe": 5, "members": eight, "d": 1, "min_size": 3,
        "stems": [], "parts": []}
    # part 0 is peeled off into the domain (1, 2, 3, 4), where part 2 is dense;
    # its fg witness (1, 2, 3, 4) holds the stem (3,) of part 3, so the
    # constructive path gives up and the fallback scan answers with part 2
    cases["fallback-answers"] = {
        "universe": 4, "d": 1, "min_size": 4,
        "members": [[1, 2, 3], [3, 4], [1, 2, 3], [2, 3, 4], [1, 2, 4], [1, 2, 3],
                    [1, 2, 4], [2, 3, 4], [1, 2, 4], [2, 3, 4]],
        "stems": [(i,) for i in range(1, 11)],
        "parts": [[(6,)], [], [(1,), (2,), (4,), (7,), (8,), (10,)], [(3,), (5,), (9,)]]}
    # the fallback scan's first candidate holding stems of at most one part
    # holds none at all, which counts as homogeneous for part 0
    cases["fallback-meets-no-part"] = {
        "universe": 5, "d": 1, "min_size": 3,
        "members": [[1, 2, 3, 4], [1, 2, 4], [1, 2, 4, 5], [2, 4, 5], [2, 3, 4, 5],
                    [1, 2, 3, 5]],
        "stems": [(1, 2, 3), (1, 3), (1, 4), (1, 5, 6), (2, 4, 5), (2, 5, 6), (3, 6), (4,)],
        "parts": [[(1, 4), (2, 4, 5)], [(1, 2, 3), (1, 5, 6), (2, 5, 6), (4,)],
                  [(1, 3), (3, 6)]]}
    cases["over-16-members"] = {
        "universe": 5, "d": 1, "min_size": 3,
        "members": [list(c) for c in itertools.combinations(range(1, 6), 3)]
        + [list(c) for c in itertools.combinations(range(1, 6), 4)] + [[1, 2], [3, 4]],
        "stems": [(i,) for i in range(1, 18)],
        "parts": [[(i,) for i in range(1, 18) if i % 2],
                  [(i,) for i in range(1, 18) if not i % 2]]}
    return cases


def _outcome(call):
    try:
        return call()
    except EngineError as exc:
        return {"error": type(exc).__name__, "message": str(exc)}


def _indices(sub):
    return None if sub is None else list(sub.indices)


def barrier_results(case: dict) -> dict:
    family = Family.of(case["universe"], case["members"])
    p = LargenessParams(d=case["d"], min_size=case["min_size"])
    T = FiniteSetFamily.of(family, case["stems"])

    def fg():
        got = fg_witness(T, p)
        return {"kind": got.kind, "witness": _indices(got.witness)}

    def nw():
        got = nw_homogenize(T, case["parts"], p)
        return {"kind": got.kind, "witness": _indices(got.witness), "part": got.part}

    return {"is_thin": is_thin(T), "is_dense": is_dense(T, p).value,
            "fg_witness": _outcome(fg), "nw_homogenize": _outcome(nw)}


def _record(case: dict) -> dict:
    return json.loads(json.dumps(barrier_results(case)))


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_every_golden_case_is_recorded(golden):
    assert sorted(golden) == sorted(golden_cases())


@pytest.mark.parametrize("name", sorted(golden_cases()))
def test_barrier_results_match_golden(name, golden):
    assert _record(golden_cases()[name]) == golden[name]


def write_golden() -> None:
    records = {name: _record(case) for name, case in golden_cases().items()}
    lines = [f"{json.dumps(name)}: {json.dumps(rec, sort_keys=True)}"
             for name, rec in sorted(records.items())]
    GOLDEN.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")


if __name__ == "__main__":
    write_golden()
