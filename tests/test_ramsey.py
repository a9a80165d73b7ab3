import itertools
import math
import random
from collections import namedtuple
from enum import IntEnum
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from omegaramsey import (
    Coloring,
    ContractError,
    DegenerateError,
    Family,
    GreedyTwo,
    LargenessParams,
    StructuralError,
    Subfamily,
    TRUE,
    admissible,
    branch_walk,
    build_partition_tree,
    counterexample_step,
    extract_homogeneous,
    merge_colors_solve,
    project_solve,
    solve_partition,
    stepup_solve,
)
from omegaramsey.ramsey import (
    LargenessFailure,
    NoStep,
    Step,
    _exhaustive_mono,
    _merge_colors_inner,
    _solve_pairs_2,
    _stepup_play,
    _stored_as_given,
    pair_size_guarantee,
)
from omegaramsey import games, oracle, ramsey

TREE_COLORS = {(1, 2): 0, (1, 3): 0, (1, 4): 1,
               (2, 3): 0, (2, 4): 1, (3, 4): 0}


def tree_coloring():
    return Coloring(2, 2, TREE_COLORS)


def constant_coloring(n, arity, color, colors=2):
    return Coloring(arity, colors,
                    {c: color for c in itertools.combinations(range(1, n + 1),
                                                              arity)})


def random_coloring(n, arity, colors, rng):
    return Coloring(arity, colors,
                    {c: rng.randrange(colors)
                     for c in itertools.combinations(range(1, n + 1), arity)})


def exhaustive_solver(family, p):
    """Test-side solver: largest admissible monochromatic set inside a domain."""

    def run(domain, coloring):
        pool = sorted(domain)
        floor = max(p.min_size, coloring.arity)
        for size in range(len(pool), floor - 1, -1):
            for combo in itertools.combinations(pool, size):
                colors = {coloring.of(t)
                          for t in itertools.combinations(combo,
                                                          coloring.arity)}
                if len(colors) != 1:
                    continue
                if admissible(Subfamily.of(family, combo), p) is not TRUE:
                    continue
                return combo, colors.pop()
        return None
    return run


class TestTreeBuild:
    def test_fixture_tree(self, tree4):
        tree = build_partition_tree(tree4, tree_coloring(), 2)
        assert tree.node((0,)) == (2, 3)
        assert tree.node((1,)) == (4,)
        assert tree.node((0, 0)) == (3,)
        assert tree.node((0, 1)) == ()

    def test_constant_coloring_tree(self):
        fam = Family.of(6, [{i} for i in range(1, 6)])
        f = constant_coloring(5, 2, 0)
        tree = build_partition_tree(fam, f, 3)
        for level in range(1, 4):
            assert tree.node(tuple([1] * level)) == ()
            assert tree.node(tuple([0] * level)) == \
                tuple(range(level + 1, 6))

    def test_empty_family_tree(self):
        fam = Family(Family.of(3, [{1}]).universe, ())
        tree = build_partition_tree(fam, Coloring(2, 2, {}), 2)
        assert tree.node(()) == ()
        assert all(content == () for path, content in tree.nodes if path)

    def test_siblings_partition_filtered_remainder(self, tree4):
        tree = build_partition_tree(tree4, tree_coloring(), 3)
        for path, content in tree.nodes:
            if len(path) >= tree.depth:
                continue
            m = len(path) + 1
            zero = set(tree.node(path + (0,)))
            one = set(tree.node(path + (1,)))
            assert zero.isdisjoint(one)
            assert zero | one == {i for i in content if i > m}


class TestBranchWalk:
    def test_fixture_walk(self, tree4):
        br = branch_walk(tree4, tree_coloring())
        assert br.pivots == (1, 2, 3)
        assert br.colors == (0, 0)

    def test_constant_walk_collects_everything(self):
        fam = Family.of(6, [{i} for i in range(1, 6)])
        br = branch_walk(fam, constant_coloring(5, 2, 0))
        assert br.pivots == (1, 2, 3, 4, 5)
        assert set(br.colors) == {0}

    def test_single_member_family_degenerates(self):
        fam = Family.of(3, [{1}])
        with pytest.raises(DegenerateError):
            branch_walk(fam, Coloring(2, 2, {}))

    def test_branch_invariant_against_tree(self, big64):
        rng = random.Random(11)
        f = random_coloring(64, 2, 2, rng)
        br = branch_walk(big64, f)
        depth = min(len(br.colors), 8)
        tree = build_partition_tree(big64, f, depth)
        for m in range(1, depth + 1):
            node = set(tree.node(br.colors[:m]))
            residual = {i for i in br.pivots if i > m}
            assert residual <= node


class TestExtract:
    def test_fixture_extract(self, tree4):
        f = tree_coloring()
        C, color = extract_homogeneous(branch_walk(tree4, f), f)
        assert C.indices == (1, 2, 3) and color == 0
        for pair in itertools.combinations(C.indices, 2):
            assert f.of(pair) == 0

    def test_constant_coloring_takes_full_branch(self):
        fam = Family.of(6, [{i} for i in range(1, 6)])
        f = constant_coloring(5, 2, 1)
        C, color = extract_homogeneous(branch_walk(fam, f), f)
        assert color == 1 and C.indices == (1, 2, 3, 4, 5)

    def test_alternating_colors_keep_majority_plus_last(self):
        # known coloring where the branch alternates: i_m = m mod 2
        n = 7
        table = {}
        for i, j in itertools.combinations(range(1, n + 1), 2):
            table[(i, j)] = i % 2
        fam = Family.of(8, [{i} for i in range(1, n + 1)])
        f = Coloring(2, 2, table)
        br = branch_walk(fam, f)
        C, color = extract_homogeneous(br, f)
        assert len(C.indices) >= (len(br.pivots) - 1 + 1) // 2 + 1


def view_branch(family, f, domain):
    """Reference walk: renumber the domain as a family of its own, walk the
    pivot tree there, and map the extracted class back to family indices."""
    view = Family(family.universe, tuple(family.member(i) for i in domain))
    g = Coloring(2, 2, {pair: f.of((domain[pair[0] - 1], domain[pair[1] - 1]))
                        for pair in itertools.combinations(view.indices, 2)})
    br = branch_walk(view, g)
    C, color = extract_homogeneous(br, g)
    return (tuple(domain[i - 1] for i in br.pivots), br.colors,
            tuple(domain[i - 1] for i in C.indices), color)


class TestDomainWalk:
    def test_walk_in_place_matches_renumbered_view(self, big64, twelve6,
                                                   p_pairs):
        rng = random.Random(31)
        branch_answers = 0
        for family in (big64, twelve6):
            n = len(family)
            for _ in range(30):
                f = random_coloring(n, 2, 2, rng)
                domain = tuple(sorted(rng.sample(range(1, n + 1),
                                                 rng.randint(2, n - 1))))
                try:
                    expected = view_branch(family, f, domain)
                except DegenerateError:
                    with pytest.raises(DegenerateError):
                        branch_walk(family, f, domain)
                    continue
                br = branch_walk(family, f, domain)
                C, color = extract_homogeneous(br, f)
                assert (br.pivots, br.colors, C.indices, color) == expected
                got = _solve_pairs_2(family, f, p_pairs, domain)
                if got.route == "branch":
                    branch_answers += 1
                    assert (got.subfamily.indices, got.color) == expected[2:]
        assert branch_answers >= 5

    def test_default_domain_is_the_whole_family(self, big64):
        f = random_coloring(64, 2, 2, random.Random(4))
        assert branch_walk(big64, f) == branch_walk(big64, f, big64.indices)

    @pytest.mark.parametrize("domain, message", [
        ((1, 1, 2, 3), "indices must be strictly increasing"),
        ((1, 2, 2, 3, 4, 5, 6, 7), "indices must be strictly increasing"),
        ((3, 2, 3), "indices must be strictly increasing"),
        ((0, 1, 2, 3), "index 0 out of range 1..12"),
        ((1, 2, 13), "index 13 out of range 1..12"),
        # True passes for 1 in `==` and was walked as a pivot
        ((True, 2, 3, 4, 5), "index True is not an integer"),
    ])
    def test_a_given_domain_is_an_index_set_of_the_family(self, twelve6, p_pairs,
                                                          domain, message):
        # the sorted domain must be a Subfamily's indices; a repeated index
        # used to be walked twice, or read as a missing pair (2, 2)
        pairs = random_coloring(12, 2, 2, random.Random(5))
        many = random_coloring(12, 2, 3, random.Random(5))
        solver = exhaustive_solver(twelve6, p_pairs)
        calls = [
            lambda: branch_walk(twelve6, pairs, domain),
            lambda: _solve_pairs_2(twelve6, pairs, p_pairs, domain),
            lambda: merge_colors_solve(twelve6, many, solver, p_pairs, domain),
            lambda: project_solve(twelve6, pairs, solver, 3, p_pairs, domain),
            lambda: stepup_solve(twelve6, constant_coloring(12, 3, 0), solver,
                                 GreedyTwo(p_pairs), 8, p_pairs, domain),
        ]
        for call in calls:
            with pytest.raises(StructuralError) as err:
                call()
            assert str(err.value) == message


def growth_reference(family, f, p):
    """Largest monochromatic subset of a domain, from the oracle's list:
    the largest size (admissible sets only, when asked), then colex-first."""
    found = oracle.brute_homogeneous(family, f, f.arity, f.colors, f.arity)

    def run(domain, require_admissible):
        sets = [(b, c) for b, c in found if set(b) <= set(domain) and
                (not require_admissible or oracle._is_admissible(family, b, p))]
        if not sets:
            return None
        return min(sets, key=lambda bc: (-len(bc[0]), tuple(reversed(bc[0]))))
    return run


class TestExhaustiveGrowth:
    def test_matches_oracle_reference(self, twelve6):
        rng = random.Random(41)
        for trial in range(36):
            arity, colors = 2 + trial % 3, 2 + (trial // 3) % 3
            f = random_coloring(12, arity, colors, rng)
            p = LargenessParams(d=rng.randint(1, 2),
                                min_size=rng.randint(1, 5))
            reference = growth_reference(twelve6, f, p)
            for domain in (twelve6.indices,
                           tuple(sorted(rng.sample(range(1, 13),
                                                   rng.randint(arity, 11))))):
                for require in (True, False):
                    assert _exhaustive_mono(twelve6, f, domain, p, require) \
                        == reference(domain, require)

    @pytest.mark.parametrize("arity", [2, 3, 4])
    def test_one_color_everywhere(self, twelve6, arity):
        # the worst case for growth: every subset is monochromatic
        f = constant_coloring(12, arity, 1, colors=3)
        for min_size in (3, 13):
            p = LargenessParams(d=2, min_size=min_size)
            reference = growth_reference(twelve6, f, p)
            for require in (True, False):
                assert _exhaustive_mono(twelve6, f, twelve6.indices, p,
                                        require) == \
                    reference(twelve6.indices, require)

    @pytest.mark.parametrize("domain", [(1, 1, 2, 3, 4, 5), (2, 3, 3, 4, 5, 6, 7)])
    def test_a_repeated_index_is_refused(self, twelve6, p_pairs, domain):
        # an index set is the scan's domain in both modes, and a public
        # reduction that falls back to the scan passes its domain on
        f = random_coloring(12, 2, 2, random.Random(3))
        for require in (True, False):
            with pytest.raises(StructuralError, match="strictly increasing"):
                _exhaustive_mono(twelve6, f, domain, p_pairs, require)
        with pytest.raises(StructuralError, match="strictly increasing"):
            merge_colors_solve(twelve6, f, lambda domain, g: None, p_pairs, domain)

    def test_depth_at_universe_size_is_refused(self, twelve6):
        f = constant_coloring(12, 2, 1, colors=2)
        p = LargenessParams(d=6, min_size=3)
        for _ in range(2):
            with pytest.raises(StructuralError, match="cover depth d=6"):
                _exhaustive_mono(twelve6, f, twelve6.indices, p, True)


class TestRoute:
    @pytest.mark.parametrize("arity, colors, seed", [(3, 2, 0), (2, 3, 5)])
    def test_fallback_answers_report_exhaustive(self, twelve6, p_pairs,
                                                arity, colors, seed):
        # the step-up play faults ("tuple solver found nothing") and the
        # merge induction dies on a residual domain: the direct scan answers
        f = random_coloring(12, arity, colors, random.Random(seed))
        got = solve_partition(twelve6, f, p_pairs)
        assert got.route == "exhaustive" and got.admissible is TRUE
        assert (got.subfamily.indices, got.color) == \
            _exhaustive_mono(twelve6, f, twelve6.indices, p_pairs, True)

    def test_step_up_without_fallback_leaves_the_scan_to_the_caller(
            self, twelve6, p_pairs):
        f = random_coloring(12, 3, 2, random.Random(0))
        solver = exhaustive_solver(twelve6, p_pairs)
        assert _stepup_play(twelve6, f, solver, GreedyTwo(p_pairs), 8, p_pairs,
                            twelve6.indices) is None
        W, color = stepup_solve(twelve6, f, solver, GreedyTwo(p_pairs), 8,
                                p_pairs)
        assert (W.indices, color) == \
            _exhaustive_mono(twelve6, f, twelve6.indices, p_pairs, True)

    def test_merge_without_an_answer_leaves_the_scan_to_the_public_call(
            self, twelve6, p_pairs):
        # the induction dies on a residual domain; merge_colors_solve's own
        # scan answers, as the step-up's does
        f = random_coloring(12, 2, 3, random.Random(5))
        solver = exhaustive_solver(twelve6, p_pairs)
        assert _merge_colors_inner(twelve6, f, solver, p_pairs,
                                   twelve6.indices) is None
        B, color = merge_colors_solve(twelve6, f, solver, p_pairs)
        assert (B.indices, color) == \
            _exhaustive_mono(twelve6, f, twelve6.indices, p_pairs, True)

    def test_step_up_play_answers_a_constant_triple_coloring(self):
        # the play completes on this 12-member family, and the colored picks
        # past the first two form an admissible set
        family = Family.of(4, [
            {3, 4}, {1, 3, 4}, {2, 3, 4}, {1, 2, 4}, {2, 3, 4}, {2, 3},
            {1, 2, 3}, {1, 3}, {1, 3}, {2, 3, 4}, {1, 3}, {1, 2, 4}])
        p = LargenessParams(d=2, min_size=2)
        f = Coloring(3, 2, {c: 1 for c in itertools.combinations(family.indices, 3)})
        got = solve_partition(family, f, p)
        assert got.route == "stepup" and got.admissible is TRUE
        assert (got.subfamily.indices, got.color) == ((4, 5, 6, 7, 8), 1)
        assert oracle.brute_admissible(got.subfamily, p)
        assert (got.subfamily.indices, got.color) in \
            oracle.brute_homogeneous(family, f, 3, 2, p.min_size)

    def test_nested_step_up_play_gets_a_nonempty_pool(self, quads6, p_pairs):
        # the next pool is the move minus the pick: keeping only the indices
        # past the pick handed a nested play an empty pool (IndexError)
        f = constant_coloring(15, 4, 0)
        got = solve_partition(quads6, f, p_pairs)
        assert got.route == "exhaustive" and got.admissible is TRUE
        assert (got.subfamily.indices, got.color) == (quads6.indices, 0)


def reference_nested(family, f, p):
    """solve_partition's merge or step-up answer through its nested solvers
    as first written: the pair solver, then the admissible exhaustive scan
    run again, with the merge's scan run for two colors too."""
    two = GreedyTwo(p)
    innings = max(games.DEFAULT_INNINGS, f.arity + p.min_size + 3)

    def base2(domain, g):
        # through the module, so that a patched scan sees the second run
        got = ramsey._solve_pairs_2(family, g, p, domain)
        if got is not None and got.admissible is TRUE:
            return got.subfamily.indices, got.color
        return ramsey._exhaustive_mono(family, g, domain, p,
                                       require_admissible=True)

    def solve(domain, g):
        if g.arity == 2:
            got = merge_colors_solve(family, g, base2, p, domain)
        else:
            got = stepup_solve(family, g, solve, two, innings, p, domain)
        return None if got is None else (got[0].indices, got[1])

    if f.arity == 2:
        return _merge_colors_inner(family, f, base2, p, family.indices)
    return _stepup_play(family, f, solve, two, innings, p, family.indices)


def scan_keys(scan):
    """(coloring, domain, require_admissible) of each exhaustive scan a
    mock saw; the mock holds every coloring, so no id is reused."""
    keys = []
    for call in scan.call_args_list:
        family, f, domain, p, *flag = call.args
        keys.append((id(f), tuple(domain),
                     flag[0] if flag else call.kwargs["require_admissible"]))
    return keys


class TestScansOnce:
    @pytest.mark.parametrize("arity, colors", [(2, 3), (2, 4), (3, 2), (4, 2)])
    @pytest.mark.parametrize("min_size", [2, 3])
    def test_each_coloring_and_domain_is_scanned_once(self, twelve6, arity,
                                                      colors, min_size):
        # merge and step-up instances on twelve6: the nested two-color solver
        # reads the scan it ran among the pair solver's candidates instead of
        # scanning again, and the answers are those of the rescanning solvers
        p = LargenessParams(d=2, min_size=min_size)
        rng = random.Random(17)
        rescans = 0
        for _ in range(8):
            f = random_coloring(12, arity, colors, rng)
            with mock.patch.object(ramsey, "_exhaustive_mono",
                                   wraps=ramsey._exhaustive_mono) as scan:
                got = solve_partition(twelve6, f, p)
                keys = scan_keys(scan)
                scan.reset_mock()
                want = reference_nested(twelve6, f, p)
                old_keys = scan_keys(scan)
            assert keys and len(set(keys)) == len(keys)
            rescans += len(old_keys) - len(set(old_keys))
            if want is None:
                assert got.route == "exhaustive"
            else:
                assert (got.route, got.subfamily, got.color) == \
                    ("merge" if arity == 2 else "stepup", *want)
        assert rescans > 0      # the rescanning solvers did scan twice

    def test_a_scan_answer_ranked_below_the_walks_is_kept(self):
        # the walks find the seven {1, 2} members, monochromatic but not a
        # cover; the scan's one admissible answer, the {3, 4} member with
        # another, ranks below them on the size guarantee, and base2 hands
        # it on without scanning again
        family = Family.of(4, [{1, 2}, {3, 4}] + [{1, 2}] * 7)
        p = LargenessParams(d=1, min_size=2)
        table = {c: int(2 in c) for c in itertools.combinations(family.indices, 2)}
        f = Coloring(2, 3, table)
        with mock.patch.object(ramsey, "_exhaustive_mono",
                               wraps=ramsey._exhaustive_mono) as scan:
            got = solve_partition(family, f, p)
            keys = scan_keys(scan)
        assert len(set(keys)) == len(keys)
        assert (got.route, got.subfamily.indices, got.color) == ("merge", (1, 2), 1)
        assert reference_nested(family, f, p) == (got.subfamily, got.color)
        assert ramsey._solve_pairs_2(family, Coloring(2, 2, table), p).route == \
            "branch"


class TestSolvePartition:
    def test_constant_pair_coloring(self, big64, p_pairs):
        got = solve_partition(big64, constant_coloring(64, 2, 1), p_pairs)
        assert got is not None and got.color == 1
        assert len(got.subfamily) >= pair_size_guarantee(64)

    def test_random_pairs_meet_size_guarantee(self, big64, p_pairs):
        rng = random.Random(5)
        for _ in range(20):
            f = random_coloring(64, 2, 2, rng)
            got = solve_partition(big64, f, p_pairs)
            assert got is not None
            assert len(got.subfamily) >= 3
            for pair in itertools.combinations(got.subfamily.indices, 2):
                assert f.of(pair) == got.color

    def test_adversarial_coloring_still_meets_bound(self, big64, p_pairs):
        # halving coloring that starves the tree walk at pivotless levels
        table = {}
        for i, j in itertools.combinations(range(1, 65), 2):
            table[(i, j)] = 1 if (j - i) % 2 else 0
        f = Coloring(2, 2, table)
        got = solve_partition(big64, f, p_pairs)
        assert got is not None
        assert len(got.subfamily) >= pair_size_guarantee(64)

    def test_singleton_pigeonhole(self, twelve6, p_pairs):
        f = Coloring(1, 3, {(i,): i % 3 for i in range(1, 13)})
        got = solve_partition(twelve6, f, p_pairs)
        assert got is not None
        assert all(f.of((i,)) == got.color for i in got.subfamily.indices)

    def test_three_colors_verified(self, twelve6, p_pairs):
        rng = random.Random(9)
        hits = 0
        for _ in range(10):
            f = random_coloring(12, 2, 3, rng)
            got = solve_partition(twelve6, f, p_pairs)
            if got is None:
                continue
            hits += 1
            matches = oracle.brute_homogeneous(twelve6, f, 2, 3, 3)
            if got.admissible is TRUE:
                assert (got.subfamily.indices, got.color) in matches
        assert hits >= 5

    def test_triples_against_oracle(self, twelve6, p_pairs):
        fam10 = Family.of(6, list(twelve6.members)[:10])
        rng = random.Random(3)
        f = random_coloring(10, 3, 2, rng)
        got = solve_partition(fam10, f, p_pairs)
        if got is not None and got.admissible is TRUE:
            matches = oracle.brute_homogeneous(fam10, f, 3, 2,
                                               len(got.subfamily))
            assert (got.subfamily.indices, got.color) in matches


class TestMergeColors:
    def test_constant_many_colors(self, twelve6, p_pairs):
        f = constant_coloring(12, 2, 2, colors=4)
        got = merge_colors_solve(twelve6, f, exhaustive_solver(twelve6, p_pairs),
                                 p_pairs)
        assert got is not None
        assert got[1] == 2

    def test_unused_top_colors_reduce_directly(self, twelve6, p_pairs):
        rng = random.Random(2)
        table = {c: rng.randrange(2)
                 for c in itertools.combinations(range(1, 13), 2)}
        f = Coloring(2, 3, table)   # color 2 never used
        got = merge_colors_solve(twelve6, f, exhaustive_solver(twelve6, p_pairs),
                                 p_pairs)
        assert got is not None
        B, color = got
        assert color in (0, 1)
        assert all(f.of(c) == color
                   for c in itertools.combinations(B.indices, 2))

    def test_random_three_colorings_verified(self, twelve6, p_pairs):
        rng = random.Random(7)
        solver = exhaustive_solver(twelve6, p_pairs)
        for _ in range(12):
            f = random_coloring(12, 2, 3, rng)
            got = merge_colors_solve(twelve6, f, solver, p_pairs)
            if got is None:
                continue
            B, color = got
            matches = oracle.brute_homogeneous(twelve6, f, 2, 3, len(B))
            assert (B.indices, color) in matches


class TestProject:
    def test_requires_n_above_two(self, twelve6, p_pairs):
        f = constant_coloring(12, 2, 0)
        with pytest.raises(ContractError):
            project_solve(twelve6, f, exhaustive_solver(twelve6, p_pairs), 2,
                          p_pairs)

    def test_constant_passes(self, twelve6, p_pairs):
        f = constant_coloring(12, 2, 1)
        got = project_solve(twelve6, f, exhaustive_solver(twelve6, p_pairs), 3,
                            p_pairs)
        assert got is not None and got[1] == 1

    def test_parity_coloring_agrees_with_oracle(self, p_pairs):
        fam10 = Family.of(6, [
            {1, 2, 3, 4}, {1, 2, 5, 6}, {3, 4, 5, 6}, {1, 3, 5}, {2, 4, 6},
            {1, 4, 6}, {2, 3, 5}, {1, 2, 3, 5}, {1, 3, 4, 6}, {2, 4, 5, 6}])
        table = {c: min(c) % 2
                 for c in itertools.combinations(range(1, 11), 2)}
        f = Coloring(2, 2, table)
        got = project_solve(fam10, f, exhaustive_solver(fam10, p_pairs), 3,
                            p_pairs)
        solvable = [
            (b, c) for b, c in oracle.brute_homogeneous(fam10, f, 2, 2,
                                                        p_pairs.min_size)
            if admissible(Subfamily.of(fam10, b), p_pairs) is TRUE]
        assert (got is None) == (not solvable)
        if got is not None:
            B, color = got
            assert all(f.of(c) == color
                       for c in itertools.combinations(B.indices, 2))


class TestStepUp:
    def test_constant_triple_coloring(self, twelve6, p_pairs):
        f = constant_coloring(12, 3, 1)
        got = stepup_solve(twelve6, f, exhaustive_solver(twelve6, p_pairs),
                           GreedyTwo(p_pairs), 8, p_pairs)
        assert got is not None
        W, color = got
        assert color == 1
        assert admissible(W, p_pairs) is TRUE

    def test_triple_from_pair_structure_verified(self, twelve6, p_pairs):
        rng = random.Random(21)
        pair_table = {c: rng.randrange(2)
                      for c in itertools.combinations(range(1, 13), 2)}
        table = {c: pair_table[c[:2]]
                 for c in itertools.combinations(range(1, 13), 3)}
        f = Coloring(3, 2, table)
        got = stepup_solve(twelve6, f, exhaustive_solver(twelve6, p_pairs),
                           GreedyTwo(p_pairs), 8, p_pairs)
        if got is None:
            pytest.skip("no admissible color class at this seed")
        W, color = got
        matches = oracle.brute_homogeneous(twelve6, f, 3, 2, len(W))
        assert (W.indices, color) in matches

    def test_too_few_innings(self, twelve6, p_pairs):
        f = constant_coloring(12, 3, 0)
        got = stepup_solve(twelve6, f, exhaustive_solver(twelve6, p_pairs),
                           GreedyTwo(p_pairs), 2, p_pairs)
        # two innings cannot reach the admissibility size gate by picks alone
        if got is not None:
            assert got[0].indices  # the exhaustive net may still answer


class TestCounterexampleStep:
    PATTERNS = [frozenset({1, 2, 4}), frozenset({1, 2, 3}),
                frozenset({2, 3, 4}), frozenset({1, 3, 4})]

    def family14(self):
        return Family.of(4, [self.PATTERNS[i % 4] for i in range(1, 15)])

    def split_coloring(self):
        table = {}
        for i, j in itertools.combinations(range(1, 15), 2):
            if i == 2:
                table[(i, j)] = j % 2
            elif i == 4:
                table[(i, j)] = 1 if j in (6, 8, 10) else 0
            else:
                table[(i, j)] = 0
        return Coloring(2, 2, table)

    def test_constant_coloring_walks_one_branch(self):
        fam = self.family14()
        p = LargenessParams(d=1, min_size=3)
        const = constant_coloring(14, 2, 0)
        tree = build_partition_tree(fam, const, 4)
        got = counterexample_step(Subfamily.full(fam), tree, p)
        assert isinstance(got, NoStep)

    def test_split_found_and_verified(self):
        fam = self.family14()
        p = LargenessParams(d=1, min_size=3)
        tree = build_partition_tree(fam, self.split_coloring(), 4)
        got = counterexample_step(Subfamily.full(fam), tree, p)
        assert isinstance(got, Step)
        assert got.k == 2
        residual = {i for i in range(1, 15) if i > got.k}
        assert not residual <= set(got.node)
        assert got.escape in residual - set(got.node)
        assert set(got.continuation.indices) == residual & set(got.node)
        assert admissible(got.continuation, p) is TRUE

    def test_iteration_moves_strictly_deeper(self):
        fam = self.family14()
        p = LargenessParams(d=1, min_size=3)
        tree = build_partition_tree(fam, self.split_coloring(), 4)
        first = counterexample_step(Subfamily.full(fam), tree, p)
        assert isinstance(first, Step)
        second = counterexample_step(first.continuation, tree, p)
        assert isinstance(second, Step)
        assert second.k > first.k

    def test_largeness_failure_reported_distinctly(self):
        fam = Family.of(4, [{1, 2, 3}, {2, 3, 4}, {1, 3, 4}, {1, 2, 4},
                            {1, 2}, {3, 4}, {1, 4}, {2, 3}])
        p = LargenessParams(d=1, min_size=3)
        table = {c: 0 for c in itertools.combinations(range(1, 9), 2)}
        for n in range(3, 9):
            table[(2, n)] = n % 2
        tree = build_partition_tree(fam, Coloring(2, 2, table), 4)
        first = counterexample_step(Subfamily.full(fam), tree, p)
        assert isinstance(first, Step)
        second = counterexample_step(first.continuation, tree, p)
        assert isinstance(second, (Step, NoStep, LargenessFailure))
        assert isinstance(second, LargenessFailure)


def reference_built(arity, colors, table):
    """The per-key constructor as a plain function, kept as the reference.

    Every key is sorted and checked on its own.  Returns what `built` below
    returns for the coloring: its `to_json` and the color of each entry.
    """
    if arity < 1:
        raise StructuralError("coloring arity must be >= 1")
    if colors < 1:
        raise StructuralError("coloring needs at least one color")
    stored = {}
    for key, value in table.items():
        key = tuple(sorted(key))
        if len(key) != arity or len(set(key)) != arity:
            raise StructuralError(f"coloring key {key} is not an {arity}-set")
        if type(value) is not int:
            raise StructuralError(f"color {value!r} is not an integer")
        if not 0 <= value < colors:
            raise StructuralError(f"color {value} out of range 0..{colors - 1}")
        stored[key] = value
    data = {"arity": arity, "colors": colors,
            "entries": [[list(k), v] for k, v in sorted(stored.items())]}
    return data, [v for _, v in data["entries"]]


def built(arity, colors, table):
    """The coloring's `to_json`, and `of` read back on every entry."""
    f = Coloring(arity, colors, table)
    data = f.to_json()
    return data, [f.of(tuple(k)) for k, _ in data["entries"]]


def outcome(build):
    """repr of what `build()` returns, or the type and message it raises."""
    try:
        return "ok", repr(build())
    except Exception as exc:  # the exception itself is what is compared
        return "raised", type(exc), str(exc)


#: a tuple subclass: equal and hashable like a plain pair, but not of type tuple
Pair = namedtuple("Pair", "lo hi")


class Shade(IntEnum):
    """An int subclass: equal to 0 and 1, but not of type int."""
    LIGHT = 0
    DARK = 1


#: tables where one key or color equals a clean one but is of another type,
#: so counting exact types must leave them to the key-by-key pass
MIXED_TYPE_TABLES = [
    {(1, 2): 0, (1, 3): False}, {(1, 2): 0, (1, 3): 0.0},
    {(1, 2): 0, Pair(1, 3): 1}, {(1, 2): 0, (1, 3): Shade.DARK},
]

ODD_COLORS = st.sampled_from([-1, 0.0, 1.0, 0.5, -0.5, True, False, math.nan,
                              2 ** 70])


@st.composite
def coloring_tables(draw):
    """(arity, colors, table): clean tables with at most a few faults mixed in.

    Clean keys are the sorted r-sets of a small domain; faulty keys come
    unsorted, with repeated indices, with the wrong length, as frozensets or
    as strings, and faulty colors are negative, float, bool, NaN or too big.
    """
    arity = draw(st.integers(0, 4))
    colors = draw(st.integers(0, 4))
    r = max(arity, 1)
    domain = draw(st.integers(0, 7))
    keys = [c for c in itertools.combinations(range(1, domain + 1), r)
            if draw(st.booleans())]
    table = {key: draw(st.integers(0, max(colors - 1, 0))) for key in keys}
    for _ in range(draw(st.integers(0, 3))):
        ints = draw(st.lists(st.integers(0, 6), min_size=max(r - 1, 0),
                             max_size=r + 1))
        key = draw(st.sampled_from([
            tuple(ints), tuple(sorted(ints)), tuple(sorted(ints, reverse=True)),
            frozenset(ints), "".join("abcdefg"[i] for i in ints)]))
        if isinstance(key, str) and any(isinstance(k, tuple) for k in table):
            continue    # mixed str and int keys cannot be sorted for to_json
        table[key] = draw(st.one_of(st.integers(-1, colors), ODD_COLORS))
    if table and draw(st.booleans()):
        key = draw(st.sampled_from(sorted(table, key=repr)))
        table[key] = draw(ODD_COLORS)
    return arity, colors, table


class TestColoringConstructor:
    @settings(max_examples=400, deadline=None)
    @given(coloring_tables())
    def test_matches_the_per_key_reference(self, case):
        arity, colors, table = case
        assert outcome(lambda: built(arity, colors, table)) == \
            outcome(lambda: reference_built(arity, colors, table))

    @pytest.mark.parametrize("table", [
        {}, {(1, 2): 0, (1, 3): 1}, {(2, 1): 0}, {(1, 1): 0}, {(1, 2, 3): 0},
        {frozenset({1, 2}): 1}, {"ab": 0}, {(1, 2): -1}, {(1, 2): 0.5},
        {(1, 2): True}, {(1, 2): 1.0}, {(1, 2): math.nan}, {(1, 2): 2},
        {(1, 2): [0]}, {(1, "a"): 0}, {(1, 2): 0, (2, 1): 1},
        {(1,): 0}, {(): 0}, {(1, 2): 0, (1, 2, 3): 1}, {(1, 2): 0, (3,): 1},
        {(1, None): 0}, {Pair(1, 2): 0}, *MIXED_TYPE_TABLES,
    ], ids=repr)
    def test_edge_tables_match_the_reference(self, table):
        assert outcome(lambda: built(2, 2, table)) == \
            outcome(lambda: reference_built(2, 2, table))

    @pytest.mark.parametrize("arity,colors,message", [
        (2.0, 2, "coloring arity 2.0 is not an integer"),
        (True, 2, "coloring arity True is not an integer"),
        ("2", 2, "coloring arity '2' is not an integer"),
        (2, 2.5, "coloring color count 2.5 is not an integer"),
        (2, 2.0, "coloring color count 2.0 is not an integer"),
        (2, True, "coloring color count True is not an integer"),
        (Shade.DARK, 2, "coloring arity <Shade.DARK: 1> is not an integer"),
    ])
    def test_arity_and_color_count_must_be_ints(self, arity, colors, message):
        with pytest.raises(StructuralError) as info:
            Coloring(arity, colors, {(1, 2): 0})
        assert str(info.value) == message

    @pytest.mark.parametrize("table", MIXED_TYPE_TABLES, ids=repr)
    def test_mixed_types_take_the_key_by_key_pass(self, table):
        assert not _stored_as_given(2, 2, table)

    def test_input_mutation_after_construction_is_not_seen(self):
        table = {(1, 2): 0, (1, 3): 1, (2, 3): 0}
        f = Coloring(2, 2, table)
        table[(1, 2)] = 1
        del table[(2, 3)]
        table[(3, 4)] = 1
        assert (f.of((1, 2)), f.of((2, 3))) == (0, 0)
        with pytest.raises(StructuralError):
            f.of((3, 4))

    def test_of_reads_any_ordering_of_a_key(self):
        f = Coloring(3, 3, {(1, 2, 5): 2, (1, 3, 4): 1})
        for key in [(1, 2, 5), (5, 1, 2), [2, 5, 1], frozenset({1, 2, 5}),
                    iter((5, 2, 1))]:
            assert f.of(key) == 2
        assert f.of((4, 3, 1)) == 1

    @pytest.mark.parametrize("key", [(1, 2, 4), (4, 2, 1), [4, 1, 2],
                                     frozenset({1, 2, 4}), (1, 2), "abc"])
    def test_of_undefined_key_raises(self, key):
        f = Coloring(3, 2, {(1, 2, 5): 1})
        with pytest.raises(StructuralError,
                           match=r"^coloring is not defined on \("):
            f.of(key)


class TestColoringJson:
    def test_round_trip(self, tree4):
        f = tree_coloring()
        back = Coloring.from_json(f.to_json(), tree4)
        assert back.to_json() == f.to_json()

    def test_totality_enforced_at_load(self, tree4):
        data = tree_coloring().to_json()
        data["entries"] = data["entries"][:-1]
        with pytest.raises(StructuralError):
            Coloring.from_json(data, tree4)

    @pytest.mark.parametrize("entries", [[[[1, 2], 0, 5]], [[[1, 2]]], {"a": 1}, [5]])
    def test_malformed_entries_are_structural_errors(self, tree4, entries):
        with pytest.raises(StructuralError, match="^malformed coloring JSON: "):
            Coloring.from_json({"arity": 2, "colors": 2, "entries": entries}, tree4)

    def test_color_range_checked(self):
        with pytest.raises(StructuralError):
            Coloring(2, 2, {(1, 2): 2})

    @pytest.mark.parametrize("first, extra, message", [
        ([1, 2], [[0, 99], 1], "coloring key (0, 99) holds 0, not an index 1..4"),
        ([1, 2], [[3, 5], 0], "coloring key (3, 5) holds 5, not an index 1..4"),
        ([1, 2], [["a", "b"], 0], "coloring key ('a', 'b') holds 'a', not an index 1..4"),
        ([1.0, 2.0], None, "coloring key (1.0, 2.0) holds 1.0, not an index 1..4"),
        ([2, 1.0], None, "coloring key (1.0, 2) holds 1.0, not an index 1..4"),
    ])
    def test_every_key_is_an_index_set_of_the_family(self, tree4, first, extra,
                                                     message):
        # a total coloring with one more entry, or with its first key rewritten
        data = tree_coloring().to_json()
        data["entries"][0][0] = first
        if extra is not None:
            data["entries"].append(extra)
        with pytest.raises(StructuralError) as err:
            Coloring.from_json(data, tree4)
        assert str(err.value) == message


class TestScaleGuard:
    def test_arity_and_color_caps(self, twelve6, p_pairs):
        big_arity = constant_coloring(12, 5, 0)
        with pytest.raises(StructuralError):
            solve_partition(twelve6, big_arity, p_pairs)
        many_colors = Coloring(2, 9, {c: 0 for c in
                                      itertools.combinations(range(1, 13), 2)})
        with pytest.raises(StructuralError):
            solve_partition(twelve6, many_colors, p_pairs)
