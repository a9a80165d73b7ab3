import itertools
import json

import pytest

from omegaramsey import (
    BasicUnionRegion,
    Coloring,
    ComplementRegion,
    ConstantOne,
    ContractError,
    EllentuckBasic,
    ExplicitRegion,
    FALSE,
    Family,
    GreedyTwo,
    LargenessParams,
    LeastIndexTwo,
    MeagerPresentation,
    PredicateRegion,
    StrategyFault,
    Subfamily,
    TRUE,
    play,
    restrict,
    s1_select,
    two_wins,
)
from omegaramsey.games import (
    DecideAllFailed,
    DecidedAll,
    FusionOne,
    MeagerAvoidOne,
    RejectionOne,
    Selection,
    NotFound,
    decide_all_finite,
    two_wins_picks,
)
from omegaramsey import oracle
from omegaramsey.ramsey import _StepUpOne

ALWAYS = PredicateRegion(lambda D: True, "always")
NEVER = ExplicitRegion.empty()


def member_index(family, points):
    wanted = frozenset(points)
    for i, m in enumerate(family.members, start=1):
        if m == wanted:
            return i
    raise AssertionError


class TestPlay:
    def test_constant_vs_least_index(self, grid5, p_grid):
        move = Subfamily.of(grid5, [2, 3, 4, 5])
        t = play(ConstantOne(move), LeastIndexTwo(), 3, p_grid)
        assert t.picks == (2, 2, 2)
        assert t.winner == "ONE"  # duplicate picks collapse below min_size

    def test_bad_pick_is_a_fault(self, grid5, p_grid):
        class BadTwo:
            label = "bad"

            def pick(self, moves, picks, current):
                return 99

        with pytest.raises(StrategyFault) as err:
            play(ConstantOne(Subfamily.of(grid5, [1, 2, 3, 4])), BadTwo(),
                 2, p_grid)
        assert err.value.inning == 1

    def test_inadmissible_move_is_a_fault(self, grid5, p_grid):
        with pytest.raises(StrategyFault):
            play(ConstantOne(Subfamily.of(grid5, [1, 2])), LeastIndexTwo(),
                 1, p_grid)

    def test_deterministic_replay(self, grid5, full_grid, p_grid):
        region = BasicUnionRegion((
            EllentuckBasic((1,), Subfamily.of(grid5, [2, 3, 4, 5])),))
        t1 = play(FusionOne((), full_grid, NEVER, p_grid), GreedyTwo(p_grid),
                  4, p_grid)
        t2 = play(FusionOne((), full_grid, NEVER, p_grid), GreedyTwo(p_grid),
                  4, p_grid)
        assert json.dumps(t1.to_json(), sort_keys=True) == \
            json.dumps(t2.to_json(), sort_keys=True)

    def test_transcript_schema(self, grid5, p_grid):
        move = Subfamily.of(grid5, [1, 2, 3, 4])
        t = play(ConstantOne(move), GreedyTwo(p_grid), 3, p_grid)
        data = t.to_json()
        assert set(data) == {"innings", "winner", "certificates"}
        for inning in data["innings"]:
            assert inning["two"] in inning["one"]


class TestTwoWins:
    def test_spread_picks_win(self, quads6, p_pairs):
        picks = tuple(member_index(quads6, s)
                      for s in ({1, 2, 3, 4}, {1, 2, 5, 6}, {3, 4, 5, 6}))
        assert two_wins_picks(quads6, picks, p_pairs) is TRUE

    def test_repeated_pick_fails_size_gate(self, quads6, p_pairs):
        assert two_wins_picks(quads6, (1, 1, 1), p_pairs) is FALSE

    def test_uncovered_pair_detected(self, quads6, p_pairs):
        picks = tuple(member_index(quads6, s)
                      for s in ({1, 2, 3, 4}, {1, 2, 3, 5}, {1, 2, 3, 6}))
        assert two_wins_picks(quads6, picks, p_pairs) is FALSE

    def test_transcript_wrapper(self, grid5, p_grid):
        t = play(ConstantOne(Subfamily.of(grid5, [1, 2, 3, 4])),
                 GreedyTwo(p_grid), 3, p_grid)
        assert two_wins(t, p_grid) is (TRUE if t.winner == "TWO" else FALSE)


class TestS1Select:
    def test_three_full_covers(self, quads6, p_pairs):
        covers = [Subfamily.full(quads6)] * 3
        got = s1_select(covers, p_pairs)
        assert isinstance(got, Selection)
        union = Subfamily.of(quads6, got.indices)
        assert two_wins_picks(quads6, got.indices, p_pairs) is TRUE
        # the greedy selection covers all fifteen pairs
        pairs = set()
        for i in set(got.indices):
            pairs.update(itertools.combinations(sorted(quads6.member(i)), 2))
        assert len(pairs) == 15

    def test_two_covers_cannot_reach_minsize(self, quads6, p_pairs):
        got = s1_select([Subfamily.full(quads6)] * 2, p_pairs)
        assert isinstance(got, NotFound)

    def test_single_member_covers_miss_a_pair(self, quads6, p_pairs):
        one = Subfamily.of(quads6, [1])
        got = s1_select([one, one, one], p_pairs)
        assert isinstance(got, NotFound)

    def test_greedy_failure_falls_back_to_backtracking(self, quads6, p_pairs):
        # admissible covers engineered so the greedy run dead-ends: greedy
        # picks {1,2,3,4} then {1,2,5,6}, and the third cover cannot finish;
        # the triple {1,4,5,6}, {1,2,3,5}, {2,3,4,6} still covers every pair
        def idx(*sets):
            return [member_index(quads6, s) for s in sets]

        covers = [
            Subfamily.of(quads6, idx({1, 2, 3, 4}, {1, 4, 5, 6}, {2, 3, 5, 6})),
            Subfamily.of(quads6, idx({1, 2, 3, 5}, {1, 2, 5, 6},
                                     {1, 3, 4, 6}, {2, 4, 5, 6})),
            Subfamily.of(quads6, idx({1, 2, 4, 5}, {1, 3, 5, 6}, {2, 3, 4, 6})),
        ]
        greedy_picks = []
        covered = set()
        for cover in covers:
            best, gain = None, -1
            for i in cover.indices:
                new = {p for p in itertools.combinations(
                    sorted(quads6.member(i)), 2)} - covered
                if len(new) > gain:
                    best, gain = i, len(new)
            greedy_picks.append(best)
            covered |= {p for p in itertools.combinations(
                sorted(quads6.member(best)), 2)}
        assert two_wins_picks(quads6, tuple(greedy_picks), p_pairs) is FALSE

        got = s1_select(covers, p_pairs)
        assert isinstance(got, Selection)
        assert two_wins_picks(quads6, got.indices, p_pairs) is TRUE
        assert all(i in cov.indices for i, cov in zip(got.indices, covers))


class TestFusion:
    def test_always_region_keeps_reservoir(self, grid5, full_grid, p_grid):
        t = play(FusionOne((), full_grid, ALWAYS, p_grid), GreedyTwo(p_grid),
                 3, p_grid)
        expected = full_grid
        for move, pick in zip(t.moves, t.picks):
            assert move.indices == expected.indices
            expected = restrict(expected, (pick,))

    def test_never_region_keeps_reservoir(self, grid5, full_grid, p_grid):
        t = play(FusionOne((), full_grid, NEVER, p_grid), GreedyTwo(p_grid),
                 3, p_grid)
        expected = full_grid
        for move, pick in zip(t.moves, t.picks):
            assert move.indices == expected.indices
            expected = restrict(expected, (pick,))

    def test_moves_shrink_past_picks(self, grid5, full_grid, p_grid):
        t = play(FusionOne((), full_grid, NEVER, p_grid), GreedyTwo(p_grid),
                 4, p_grid)
        for k in range(1, len(t.moves)):
            allowed = set(t.moves[k - 1].indices) - \
                {i for i in t.moves[k - 1].indices if i <= t.picks[k - 1]}
            assert set(t.moves[k].indices) <= allowed

    def test_decided_all_verified_by_oracle(self, grid5, full_grid, p_grid):
        got = decide_all_finite((), full_grid, NEVER, 4, p_grid)
        assert isinstance(got, DecidedAll)
        table = dict(got.table)
        for stem, verdict in table.items():
            tail = restrict(got.picks, stem)
            if verdict == "accepts":
                assert oracle.brute_accepts(tail, stem, NEVER, p_grid)
            else:
                assert oracle.brute_rejects(tail, stem, NEVER, p_grid)

    def test_one_basic_region_play_fully_decided(self, grid5, full_grid,
                                                 p_grid):
        # a single-basic region on which the four-inning play completes
        region = BasicUnionRegion((
            EllentuckBasic((3, 4, 5), Subfamily.of(grid5, [6, 7])),))
        got = decide_all_finite((), full_grid, region, 4, p_grid)
        assert isinstance(got, DecidedAll)
        stems = set(dict(got.table))
        from omegaramsey.ground import subsets_canonical
        for stem in subsets_canonical(got.terminal.indices, max_size=3):
            assert stem in stems
        for stem, verdict in got.table:
            # the claimed verdict transfers hereditarily to the picks past
            # the stem; on tiny tails both sides can hold at once, so the
            # check is one implication per verdict, not a biconditional
            tail = restrict(got.picks, stem)
            if verdict == "accepts":
                assert oracle.brute_accepts(tail, stem, region, p_grid)
            else:
                assert oracle.brute_rejects(tail, stem, region, p_grid)

    def test_draining_opponent_fails_cleanly(self, grid5, full_grid, p_grid):
        class MaxTwo:
            label = "max"

            def pick(self, moves, picks, current):
                return current.indices[-1]

        got = decide_all_finite((), full_grid, NEVER, 4, p_grid, two=MaxTwo())
        assert isinstance(got, (DecidedAll, DecideAllFailed))

    def test_failure_is_reported_not_masked(self, grid5, full_grid, p_grid):
        region = BasicUnionRegion((
            EllentuckBasic((1,), Subfamily.of(grid5, [2, 3, 4, 5])),))
        got = decide_all_finite((), full_grid, region, 4, p_grid)
        assert isinstance(got, (DecidedAll, DecideAllFailed))
        if isinstance(got, DecideAllFailed):
            assert got.reason


class TestRejection:
    def _decided_base(self, full_grid, region, p):
        got = decide_all_finite((), full_grid, region, 4, p)
        if not isinstance(got, DecidedAll):
            pytest.skip("fusion did not complete on this fixture")
        return got.picks

    def test_first_move_is_strong_reject_pool(self, grid5, full_grid, p_grid):
        base = self._decided_base(full_grid, NEVER, p_grid)
        strat = RejectionOne((), base, NEVER, p_grid)
        t = play(strat, GreedyTwo(p_grid), 1, p_grid)
        assert set(t.moves[0].indices) <= set(base.indices)

    def test_precondition_checked(self, grid5, full_grid, p_grid):
        base = self._decided_base(full_grid, NEVER, p_grid)
        with pytest.raises(ContractError):
            RejectionOne((), base, ALWAYS, p_grid)

    def test_certificates_verified_by_oracle(self, grid5, full_grid, p_grid):
        base = self._decided_base(full_grid, NEVER, p_grid)
        strat = RejectionOne((), base, NEVER, p_grid)
        t = play(strat, GreedyTwo(p_grid), 2, p_grid)
        assert t.certificates
        for cert in t.certificates:
            assert cert["claim"] == "rejects"
            tail = Subfamily.of(grid5, cert["set"])
            assert oracle.brute_rejects(tail, tuple(cert["stem"]), NEVER, p_grid)


class TestMeagerAvoid:
    LEVELS = (ExplicitRegion(frozenset([(1, 2, 3, 5)])),
              ExplicitRegion(frozenset([(1, 2, 3, 5), (1, 2, 4, 5)])))

    def test_certificates_all_verify(self, grid5, full_grid, p_grid):
        ladder = MeagerPresentation(self.LEVELS)
        t = play(MeagerAvoidOne((), full_grid, ladder, p_grid),
                 GreedyTwo(p_grid), 4, p_grid)
        assert t.certificates
        for cert in t.certificates:
            level = ladder.level(cert["level"])
            W = Subfamily.of(grid5, cert["set"])
            assert oracle.brute_accepts(W, tuple(cert["stem"]),
                                        ComplementRegion(level), p_grid)

    def test_terminal_picks_avoid_every_level(self, grid5, full_grid, p_grid):
        ladder = MeagerPresentation(self.LEVELS)
        t = play(MeagerAvoidOne((), full_grid, ladder, p_grid),
                 GreedyTwo(p_grid), 4, p_grid)
        picks = Subfamily.of(grid5, t.picks)
        # the played-out reservoir start misses the whole ladder
        for level in self.LEVELS:
            assert oracle.brute_accepts(picks, (), ComplementRegion(level),
                                        p_grid)

    def test_non_nwd_level_faults(self, grid5, full_grid, p_grid):
        ladder = MeagerPresentation((ALWAYS,))
        with pytest.raises((StrategyFault, ContractError)):
            play(MeagerAvoidOne((), full_grid, ladder, p_grid),
                 GreedyTwo(p_grid), 2, p_grid)


class TestShrinkInvariant:
    """Every bundled ONE strategy shrinks its moves past TWO's picks."""

    def assert_shrinks(self, transcript):
        for k in range(1, len(transcript.moves)):
            prev = set(transcript.moves[k - 1].indices)
            allowed = {i for i in prev if i > transcript.picks[k - 1]}
            assert set(transcript.moves[k].indices) <= allowed

    def test_fusion(self, grid5, full_grid, p_grid):
        t = play(FusionOne((), full_grid, NEVER, p_grid), GreedyTwo(p_grid),
                 4, p_grid)
        self.assert_shrinks(t)

    def test_rejection(self, grid5, full_grid, p_grid):
        got = decide_all_finite((), full_grid, NEVER, 4, p_grid)
        assert isinstance(got, DecidedAll)
        t = play(RejectionOne((), got.picks, NEVER, p_grid),
                 GreedyTwo(p_grid), 2, p_grid)
        self.assert_shrinks(t)

    def test_meager_avoid(self, grid5, full_grid, p_grid):
        ladder = MeagerPresentation(TestMeagerAvoid.LEVELS)
        t = play(MeagerAvoidOne((), full_grid, ladder, p_grid),
                 GreedyTwo(p_grid), 4, p_grid)
        self.assert_shrinks(t)


class TestMeagerTrivialLevel:
    def test_single_empty_level_just_shrinks(self, grid5, full_grid, p_grid):
        ladder = MeagerPresentation((NEVER,))
        t = play(MeagerAvoidOne((), full_grid, ladder, p_grid),
                 GreedyTwo(p_grid), 3, p_grid)
        expected = full_grid
        for move, pick in zip(t.moves, t.picks):
            assert move.indices == expected.indices
            expected = restrict(expected, (pick,))
        # the disjointness claims are trivially true against the empty region
        for cert in t.certificates:
            W = Subfamily.of(grid5, cert["set"])
            assert oracle.brute_accepts(W, tuple(cert["stem"]),
                                        ComplementRegion(NEVER), p_grid)


class TestFinalState:
    """The play hands back ONE's state after its last move."""

    @staticmethod
    def replayed(strategy, picks):
        state = strategy.start()
        for k in range(len(picks)):
            _, state = strategy.move(state, picks[:k])
        return state

    def test_fusion(self, grid5, full_grid, p_grid):
        strategy = FusionOne((), full_grid, NEVER, p_grid)
        t = play(strategy, GreedyTwo(p_grid), 4, p_grid)
        assert t.state == self.replayed(strategy, t.picks)
        assert t.state["reservoir"] == t.moves[-1]
        assert dict(t.state["table"])

    def test_rejection(self, grid5, full_grid, p_grid):
        got = decide_all_finite((), full_grid, NEVER, 4, p_grid)
        assert isinstance(got, DecidedAll)
        strategy = RejectionOne((), got.picks, NEVER, p_grid)
        t = play(strategy, GreedyTwo(p_grid), 2, p_grid)
        assert t.state == self.replayed(strategy, t.picks)
        assert t.state == {"prev": t.moves[-1]}

    def test_meager_avoid(self, grid5, full_grid, p_grid):
        ladder = MeagerPresentation(TestMeagerAvoid.LEVELS)
        strategy = MeagerAvoidOne((), full_grid, ladder, p_grid)
        t = play(strategy, GreedyTwo(p_grid), 4, p_grid)
        assert t.state == self.replayed(strategy, t.picks)
        assert t.state["claims"] == t.certificates

    def test_step_up(self):
        # the constant triple coloring on which the step-up play completes
        family = Family.of(4, [
            {3, 4}, {1, 3, 4}, {2, 3, 4}, {1, 2, 4}, {2, 3, 4}, {2, 3},
            {1, 2, 3}, {1, 3}, {1, 3}, {2, 3, 4}, {1, 3}, {1, 2, 4}])
        p = LargenessParams(d=2, min_size=2)
        f = Coloring(3, 2, {c: 1 for c in itertools.combinations(family.indices, 3)})

        def pairs(domain, g):
            return tuple(sorted(domain)), g.of(tuple(sorted(domain))[:2])

        strategy = _StepUpOne(family, f, pairs, family.indices, 2)
        t = play(strategy, GreedyTwo(p), 8, p)
        assert t.state == self.replayed(strategy, t.picks)
        # every pick but the last was homogenized around, all to color 1
        assert t.state["colors"] == {pk: 1 for pk in t.picks[:-1]}
        assert t.state["pool"] == t.moves[-1].indices
