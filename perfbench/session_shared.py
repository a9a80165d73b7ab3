"""session_shared: one process answering many queries about a few fixed families.

decide and cr_witness run over a fixed pool of basics on one 10-member
family whose points the seed renames; fusion, rejection and avoidance plays
on the 7-member grid; thin-family homogenization, density, initial-segment
witnesses and admissible enumeration on the 8-member family; Mathias
conditions on the 12-member family; and one-pick-per-cover selection on the
fifteen quads.
A warm-up cycle from another stream fills the caches first, so almost every
admissibility and basic-content lookup hits: this is the opposite use of
the caches to calculus_fresh, and the only workload that runs `barriers`
and `mathias`.

Every query kind gets the same number of slots in a cycle.  The engine has
no recorded usage to weight them by, and the acceptance tests' counts follow
how many cases each law needs (10,000 extension triples against 48
homogenization cases), so equal slots is the mix that favours no layer.
"""

from __future__ import annotations

import itertools

from omegaramsey import barriers, ellentuck, games, ground, mathias, oracle

from .common import (admissible_sets, canonical, indices_of, is_admissible,
                     random_admissible, random_basic, random_family, rename_points, rng_for,
                     spread)
from .workload import INVARIANT, ORACLE, UNCHECKED, Answer, Check, Workload

GRID5 = [frozenset(m) for m in ({1, 2, 3}, {3, 4, 5}, {1, 4, 5}, {2, 4, 5},
                                {1, 2, 5}, {2, 3, 4}, {1, 3, 4})]
EIGHT5 = GRID5 + [frozenset({2, 3, 5})]
TWELVE6 = [frozenset(m) for m in (
    {1, 2, 3, 4}, {1, 2, 5, 6}, {3, 4, 5, 6}, {1, 3, 5}, {2, 4, 6},
    {1, 4, 6}, {2, 3, 5}, {1, 2, 3, 5}, {1, 3, 4, 6}, {2, 4, 5, 6},
    {1, 2, 4, 6}, {1, 3, 4, 5})]
QUADS6 = [frozenset(c) for c in itertools.combinations(range(1, 7), 4)]
F10_SIZE = 10

KINDS = ("decide", "cr_witness", "fusion", "rejection", "avoidance", "nw", "fg",
         "enumerate", "valid_condition", "extends", "compatible", "dense_meet",
         "s1_select")
#: query kind -> slots per cycle
SCHEDULE = spread({kind: 6 for kind in KINDS})


def tail(indices, stem) -> list[int]:
    top = max(stem) if stem else 0
    return [i for i in indices if i > top]


def own_extends(c1, c2) -> bool:
    """The extension order written out over (stem, side) index lists."""
    (s1, side1), (s2, side2) = c1, c2
    return set(s2) <= set(s1) and set(side1) <= set(side2) and \
        set(s1) - set(s2) <= set(tail(side2, s2))


class SessionShared(Workload):
    name = "session_shared"
    cycle_size = len(SCHEDULE)

    def __init__(self, seed: int, workdir: str) -> None:
        super().__init__(seed, workdir)
        # As in calculus_fresh, the pools and the queries drawn from them
        # come from streams the seed does not touch.  The seed renames the
        # 10-member family's points and shuffles the order of each cycle's
        # queries; neither changes what a cycle costs, so seed-to-seed
        # spread measures the machine rather than which queries were drawn.
        shape = rng_for(0, "session_shared", "pools")
        self.f10_members = [frozenset(m) for m in rename_points(
            rng_for(seed, "session_shared", "points"),
            random_family(shape, F10_SIZE, 5, 3, 1, 3), 5)]
        self.f10_basics = [random_basic(shape, F10_SIZE) for _ in range(12)]
        self.f10_stems = [s for s in ([], [1], [2]) if is_admissible(
            self.f10_members, tail(range(1, F10_SIZE + 1), s), 5, 1, 3)]
        self.grid_basics = [random_basic(shape, len(GRID5)) for _ in range(12)]
        self.grid_adm = admissible_sets(GRID5, range(1, 8), 5, 1, 3)
        self.eight_adm = admissible_sets(EIGHT5, range(1, 9), 5, 1, 3)
        self.twelve_adm = set(admissible_sets(TWELVE6, range(1, 13), 6, 2, 3))

        self.judged: dict[str, Check] = {}
        self.p1 = ground.LargenessParams(d=1, min_size=3)
        self.p2 = ground.LargenessParams(d=2, min_size=3)
        self.f10 = ground.Family.of(5, self.f10_members)
        self.grid5 = ground.Family.of(5, GRID5)
        self.eight5 = ground.Family.of(5, EIGHT5)
        self.twelve6 = ground.Family.of(6, TWELVE6)
        self.quads6 = ground.Family.of(6, QUADS6)

    # --- generation (plain data only) ----------------------------------------

    def _condition(self, rng):
        """A valid (stem, side) on the 12-member family."""
        while True:
            k = rng.randint(0, 2)
            stem = sorted(rng.sample(range(1, 9), k)) if k else []
            pool = tail(range(1, 13), stem)
            side = sorted(rng.sample(pool, rng.randint(3, len(pool))))
            if tuple(side) in self.twelve_adm:
                return stem, side

    def _extension(self, rng, cond):
        """A valid extension of cond, or cond itself when sampling fails."""
        stem, side = cond
        for _ in range(60):
            moved = rng.sample(side, rng.randint(0, max(0, min(2, len(side) - 3))))
            new_stem = sorted(set(stem) | set(moved))
            pool = tail(side, new_stem)
            if len(pool) < 3:
                continue
            new_side = sorted(rng.sample(pool, rng.randint(3, len(pool))))
            if tuple(new_side) in self.twelve_adm:
                return new_stem, new_side
        return cond

    def _query(self, rng, kind: str) -> dict:
        q = {"kind": kind}
        if kind in ("decide", "cr_witness"):
            q["stem"] = rng.choice(self.f10_stems)
            q["basics"] = rng.sample(self.f10_basics, rng.randint(1, 2))
        elif kind in ("fusion", "rejection"):
            q["stem"] = [] if kind == "rejection" else rng.choice(([], [1]))
            q["basics"] = [] if rng.random() < 0.25 else [rng.choice(self.grid_basics)]
        elif kind == "avoidance":
            a, b = rng.sample(self.grid_adm, 2)
            q["levels"] = [[list(a)], [list(a), list(b)]]
            q["stem"] = rng.choice(([], [1]))
        elif kind == "nw":
            pairs = list(itertools.combinations(range(1, 9), 2))
            stems = rng.sample(pairs, rng.randint(6, len(pairs)))
            left = set(rng.sample(stems, rng.randint(0, len(stems))))
            q["stems"] = [list(s) for s in stems]
            q["parts"] = [[list(s) for s in stems if s in left],
                          [list(s) for s in stems if s not in left]]
        elif kind == "fg":
            stems = [[i] for i in rng.sample(range(1, 9), rng.randint(2, 8))]
            stems += [sorted(rng.sample(range(1, 9), 2)) for _ in range(rng.randint(0, 6))]
            q["stems"] = stems
        elif kind == "enumerate":
            q["indices"] = sorted(rng.sample(range(1, 9), rng.randint(5, 8)))
            q["limit"] = rng.randint(1, 12)
        elif kind == "valid_condition":
            stem, side = self._condition(rng)
            if rng.random() < 0.3:   # some invalid ones: drop members from the side
                side = side[:rng.randint(1, len(side))]
            q["cond"] = (stem, side)
        elif kind == "extends":
            weaker = self._condition(rng)
            stronger = self._extension(rng, weaker)
            q["pair"] = (stronger, weaker) if rng.random() < 0.7 else (weaker, stronger)
        elif kind == "compatible":
            base = self._condition(rng)
            q["pair"] = (self._extension(rng, base), self._extension(rng, base))
        elif kind == "dense_meet":
            q["cond"] = self._condition(rng)
            q["floor"] = rng.randint(1, 2)
        else:
            q["covers"] = [random_admissible(rng, QUADS6, 6, 2, 3) for _ in range(3)]
        return q

    def generate(self, cycle: int) -> list:
        rng = rng_for(0, "session_shared", cycle)
        queries = [self._query(rng, kind) for kind in SCHEDULE]
        rng_for(self.seed, "session_shared", "order", cycle).shuffle(queries)
        return queries

    def warm_up(self) -> None:
        rng = rng_for(0, "session_shared", "warm-up")
        for kind in SCHEDULE:
            self.run(self._query(rng, kind))

    # --- the timed queries -------------------------------------------------

    @staticmethod
    def _region(family, q):
        return ellentuck.BasicUnionRegion(tuple(
            ellentuck.EllentuckBasic(tuple(b["stem"]),
                                     ground.Subfamily.of(family, b["reservoir"]))
            for b in q["basics"]))

    def _condition_of(self, cond):
        stem, side = cond
        return mathias.Condition(tuple(stem), ground.Subfamily.of(self.twelve6, side))

    def run(self, q) -> Answer:
        kind = q["kind"]
        return getattr(self, "_run_" + kind)(q)

    def _run_decide(self, q) -> Answer:
        region = self._region(self.f10, q)
        stem = ellentuck.as_stem(q["stem"])
        B = ground.Subfamily.of(self.f10, tail(range(1, F10_SIZE + 1), stem))
        got = ellentuck.decide(B, stem, region, self.p1)
        return Answer(["decide", got.kind, indices_of(got.witness)],
                      got.kind == "unknown", (region, stem, B, got))

    def _run_cr_witness(self, q) -> Answer:
        region = self._region(self.f10, q)
        stem = ellentuck.as_stem(q["stem"])
        B = ground.Subfamily.of(self.f10, tail(range(1, F10_SIZE + 1), stem))
        got = ellentuck.cr_witness(region, stem, B, self.p1)
        return Answer(["cr_witness", got.kind, indices_of(got.witness)], False,
                      (region, stem, B, got))

    def _run_fusion(self, q) -> Answer:
        region = self._region(self.grid5, q)
        stem = ellentuck.as_stem(q["stem"])
        B = ground.Subfamily.of(self.grid5, tail(range(1, 8), stem))
        got = games.decide_all_finite(stem, B, region, 4, self.p1)
        if isinstance(got, games.DecidedAll):
            record = ["fusion", list(got.picks.indices),
                      [[list(s), v] for s, v in got.table]]
        else:
            record = ["fusion", "failed", got.inning, got.reason]
        return Answer(record, False, (region, got))

    def _run_rejection(self, q) -> Answer:
        region = self._region(self.grid5, q)
        full = ground.Subfamily.full(self.grid5)
        fused = games.decide_all_finite((), full, region, 4, self.p1)
        if not isinstance(fused, games.DecidedAll) or dict(fused.table).get(()) != "rejects":
            return Answer(["rejection", "no rejecting fusion"], False, (region, None))
        try:
            strategy = games.RejectionOne((), fused.picks, region, self.p1)
            transcript = games.play(strategy, games.GreedyTwo(self.p1), 2, self.p1)
        except (games.StrategyFault, ground.ContractError) as exc:
            return Answer(["rejection", "fault", str(exc)], False, (region, None))
        certs = [dict(sorted(c.items())) for c in transcript.certificates]
        return Answer(["rejection", list(transcript.picks), certs], False, (region, certs))

    def _run_avoidance(self, q) -> Answer:
        levels = tuple(ellentuck.ExplicitRegion(frozenset(
            ground.Subfamily.of(self.grid5, s).indices for s in level))
            for level in q["levels"])
        verdicts = [ellentuck.is_nowhere_dense(lvl, self.grid5, self.p1).value
                    for lvl in levels]
        if verdicts != ["true"] * len(levels):
            return Answer(["avoidance", verdicts], "unknown" in verdicts, (levels, None))
        ladder = ellentuck.MeagerPresentation(levels)
        stem = ellentuck.as_stem(q["stem"])
        B = ground.Subfamily.of(self.grid5, tail(range(1, 8), stem))
        try:
            strategy = games.MeagerAvoidOne(stem, B, ladder, self.p1)
            transcript = games.play(strategy, games.GreedyTwo(self.p1), 4, self.p1)
        except (games.StrategyFault, ground.ContractError) as exc:
            return Answer(["avoidance", verdicts, "fault", str(exc)], False, (levels, None))
        certs = [dict(sorted(c.items())) for c in transcript.certificates]
        return Answer(["avoidance", verdicts, list(transcript.picks), certs], False,
                      (ladder, certs))

    def _run_nw(self, q) -> Answer:
        T = barriers.FiniteSetFamily.of(self.eight5, [tuple(s) for s in q["stems"]])
        parts = [[tuple(s) for s in part] for part in q["parts"]]
        got = barriers.nw_homogenize(T, parts, self.p1)
        return Answer(["nw", got.kind, indices_of(got.witness), got.part], False,
                      (T, parts, got))

    def _run_fg(self, q) -> Answer:
        S = barriers.FiniteSetFamily.of(self.eight5, [tuple(s) for s in q["stems"]])
        dense = barriers.is_dense(S, self.p1)
        witness = None
        if dense is ground.TRUE:
            got = barriers.fg_witness(S, self.p1)
            witness = indices_of(got.witness)
        return Answer(["fg", dense.value, witness], dense is ground.UNKNOWN, (dense, witness))

    def _run_enumerate(self, q) -> Answer:
        B = ground.Subfamily.of(self.eight5, q["indices"])
        got = [list(s.indices) for s in ground.enumerate_admissible(B, self.p1, q["limit"])]
        return Answer(["enumerate", got])

    def _run_valid_condition(self, q) -> Answer:
        ok = mathias.valid_condition(self._condition_of(q["cond"]), self.p2)
        return Answer(["valid_condition", ok])

    def _run_extends(self, q) -> Answer:
        c1, c2 = (self._condition_of(c) for c in q["pair"])
        return Answer(["extends", mathias.extends(c1, c2)])

    def _run_compatible(self, q) -> Answer:
        c1, c2 = (self._condition_of(c) for c in q["pair"])
        got = mathias.compatible(c1, c2, self.p2)
        return Answer(["compatible", None if got is None else got.to_json()])

    def _run_dense_meet(self, q) -> Answer:
        floor = q["floor"]
        got = mathias.dense_meet(self._condition_of(q["cond"]),
                                 lambda c: len(c.stem) >= floor, self.p2)
        return Answer(["dense_meet", None if got is None else got.to_json()])

    def _run_s1_select(self, q) -> Answer:
        covers = [ground.Subfamily.of(self.quads6, c) for c in q["covers"]]
        got = games.s1_select(covers, self.p2)
        if isinstance(got, games.Selection):
            return Answer(["s1_select", list(got.indices)])
        return Answer(["s1_select", "not_found", got.reason],
                      got.reason == "search budget exhausted")

    # --- checks --------------------------------------------------------------

    def check(self, q, answer: Answer) -> Check:
        if answer.failed:
            return UNCHECKED
        # queries repeat in a session: judge each distinct query and answer once
        key = canonical([q, answer.record])
        if key not in self.judged:
            self.judged[key] = getattr(self, "_check_" + q["kind"])(q, answer)
        return self.judged[key]

    def _accepts_within(self, W, stem, region, B) -> bool:
        """W is an admissible part of B on which [stem, W] lies inside region."""
        return set(W.indices) <= set(B.indices) and \
            is_admissible(self.f10_members, W.indices, 5, 1, 3) and \
            oracle.brute_accepts(W, stem, region, self.p1)

    def _check_decide(self, q, answer: Answer) -> Check:
        region, stem, B, got = answer.ctx
        if got.kind == "accepts":
            return Check(ORACLE, self._accepts_within(got.witness, stem, region, B))
        return Check(ORACLE, oracle.brute_rejects(B, stem, region, self.p1))

    def _check_cr_witness(self, q, answer: Answer) -> Check:
        region, stem, B, got = answer.ctx
        if got.kind == "not_found":
            return Check(ORACLE, oracle.brute_cr(region, stem, B, self.p1) is None)
        target = region if got.kind == "inside" else ellentuck.ComplementRegion(region)
        return Check(ORACLE, self._accepts_within(got.witness, stem, target, B))

    def _check_fusion(self, q, answer: Answer) -> Check:
        region, got = answer.ctx
        if not isinstance(got, games.DecidedAll):
            return UNCHECKED
        for stem, verdict in got.table:
            rest = ground.Subfamily.of(self.grid5, tail(got.picks.indices, stem))
            brute = oracle.brute_accepts if verdict == "accepts" else oracle.brute_rejects
            if not brute(rest, stem, region, self.p1):
                return Check(ORACLE, False)
        return Check(ORACLE, True)

    def _check_rejection(self, q, answer: Answer) -> Check:
        region, certs = answer.ctx
        if certs is None:
            return UNCHECKED
        return Check(ORACLE, all(
            oracle.brute_rejects(ground.Subfamily.of(self.grid5, c["set"]),
                                 tuple(c["stem"]), region, self.p1) for c in certs))

    def _check_avoidance(self, q, answer: Answer) -> Check:
        ladder, certs = answer.ctx
        if certs is None:
            return UNCHECKED
        return Check(ORACLE, all(
            oracle.brute_accepts(ground.Subfamily.of(self.grid5, c["set"]),
                                 tuple(c["stem"]),
                                 ellentuck.ComplementRegion(ladder.level(c["level"])),
                                 self.p1) for c in certs))

    def _check_nw(self, q, answer: Answer) -> Check:
        T, parts, got = answer.ctx
        found = oracle.brute_nw(T, parts, self.p1)
        if got.kind == "homogeneous":
            return Check(ORACLE, (got.witness.indices, got.part) in found)
        return Check(ORACLE, not found)

    def _check_fg(self, q, answer: Answer) -> Check:
        dense, witness = answer.ctx
        stems = {tuple(s) for s in q["stems"]}
        own_dense = all(any(set(s) <= set(b) for s in stems) for b in self.eight_adm)
        if (dense is ground.TRUE) != own_dense:
            return Check(INVARIANT, False)
        if witness is None:
            return Check(INVARIANT, True)
        return Check(INVARIANT, all(
            any(c[:j] in stems for j in range(len(c) + 1))
            for c in admissible_sets(EIGHT5, witness, 5, 1, 3)))

    def _check_enumerate(self, q, answer: Answer) -> Check:
        want = sorted(admissible_sets(EIGHT5, q["indices"], 5, 1, 3),
                      key=lambda c: (len(c), c[::-1]))[:q["limit"]]
        return Check(INVARIANT, answer.record[1] == [list(c) for c in want])

    def _check_valid_condition(self, q, answer: Answer) -> Check:
        stem, side = q["cond"]
        want = tail(side, stem) == side and tuple(side) in self.twelve_adm
        return Check(INVARIANT, answer.record[1] == want)

    def _check_extends(self, q, answer: Answer) -> Check:
        return Check(INVARIANT, answer.record[1] == own_extends(*q["pair"]))

    def _valid_below(self, cond, *weaker) -> bool:
        stem, side = cond
        return tail(side, stem) == side and tuple(side) in self.twelve_adm and \
            all(own_extends(cond, w) for w in weaker)

    def _check_compatible(self, q, answer: Answer) -> Check:
        got = answer.record[1]
        if got is None:
            return UNCHECKED
        return Check(INVARIANT, self._valid_below((got["stem"], got["side"]), *q["pair"]))

    def _check_dense_meet(self, q, answer: Answer) -> Check:
        got = answer.record[1]
        if got is None:
            return UNCHECKED
        return Check(INVARIANT, len(got["stem"]) >= q["floor"] and
                     self._valid_below((got["stem"], got["side"]), q["cond"]))

    def _check_s1_select(self, q, answer: Answer) -> Check:
        covers = q["covers"]
        if answer.record[1] == "not_found":
            return Check(INVARIANT, not any(
                is_admissible(QUADS6, picks, 6, 2, 3)
                for picks in itertools.product(*covers)))
        picks = answer.record[1]
        return Check(INVARIANT, len(picks) == len(covers) and
                     all(i in c for i, c in zip(picks, covers)) and
                     is_admissible(QUADS6, picks, 6, 2, 3))
