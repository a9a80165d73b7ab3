"""calculus_fresh: `ellentuck`, `ground` and `games` with cold caches.

Every instance brings a new random family of 8-10 three-point members over
5 points (d=1, min_size=3), a random nested region, a stem of size <= 1 and
one of decide / accepts / rejects / cr_witness.  No family is shared, so each
per-family set-up cost and cache entry is paid fresh.  A third of the
instances run with a small search_bound, which forces the lazy branch of
accepts/rejects, and one in twenty uses a 17-member reservoir with a small
bound.  There the README promises UNKNOWN, but decide and cr_witness raise
EngineError instead (cr_witness after an unbudgeted 2^17 scan); those
instances stay in the mix and count as failed.  Op, size, bound and stem
follow a fixed pattern over a cycle's positions.
"""

from __future__ import annotations

import itertools

from omegaramsey import ellentuck, ground, oracle

from .common import (indices_of, is_admissible, random_family, random_region,
                     rename_points, rng_for)
from .workload import INVARIANT, ORACLE, UNCHECKED, Answer, Check, Workload

OPS = ("decide", "accepts", "rejects", "cr_witness")
UNIVERSE, MEMBER_SIZE, D, MIN_SIZE = 5, 3, 1, 3
SMALL_BOUND = 300
LARGE_RESERVOIR = 17


class CalculusFresh(Workload):
    name = "calculus_fresh"
    cycle_size = 240

    def _instance(self, shape, relabel, i: int) -> dict:
        """Draw the instance's structure from `shape`, then rename its points
        with a permutation drawn from `relabel`."""
        if i % 20 == 19:
            op, n, bound = OPS[(i // 20) % 4], LARGE_RESERVOIR, SMALL_BOUND
        else:
            op, n = OPS[i % 4], 8 + (i // 4) % 3
            bound = SMALL_BOUND if i % 3 == 0 else 1_000_000
        members = random_family(shape, n, UNIVERSE, MEMBER_SIZE, D, MIN_SIZE)
        stem = []
        if n < LARGE_RESERVOIR and shape.random() < 0.5:
            # keep the stem only when its tail can still be decided
            tail = range(2, n + 1)
            if is_admissible([frozenset(m) for m in members], tail, UNIVERSE, D, MIN_SIZE):
                stem = [1]
        return {"op": op, "members": rename_points(relabel, members, UNIVERSE),
                "bound": bound, "stem": stem, "region": random_region(shape, n)}

    def generate(self, cycle: int) -> list:
        # The structures come from a stream the seed does not touch and the
        # seed renames the points of every family.  Verdicts are invariant
        # under renaming and costs nearly so, so seed-to-seed spread measures
        # the machine rather than which of very unequal instances were drawn,
        # while every instance still brings a family no other one shares.
        shape = rng_for(0, "calculus_fresh", cycle)
        relabel = rng_for(self.seed, "calculus_fresh", cycle)
        return [self._instance(shape, relabel, i) for i in range(self.cycle_size)]

    def warm_up(self) -> None:
        rng = rng_for(self.seed, "calculus_fresh", "warm-up")
        for i in range(4):
            self.run(self._instance(rng, rng, i))

    def run(self, inst) -> Answer:
        fam = ground.Family.of(UNIVERSE, inst["members"])
        p = ground.LargenessParams(d=D, min_size=MIN_SIZE, search_bound=inst["bound"])
        region = ellentuck.region_from_json(inst["region"], fam)
        stem = ellentuck.as_stem(inst["stem"])
        B = ellentuck.restrict(ground.Subfamily.full(fam), stem)
        op = inst["op"]
        ctx = (fam, p, region, stem, B)
        try:
            if op in ("accepts", "rejects"):
                verdict = getattr(ellentuck, op)(B, stem, region, p)
                return Answer([op, verdict.value], verdict is ground.UNKNOWN, ctx + (verdict,))
            if op == "decide":
                got = ellentuck.decide(B, stem, region, p)
            else:
                got = ellentuck.cr_witness(region, stem, B, p)
        except ground.EngineError as exc:
            return Answer([op, "error", type(exc).__name__], True, ctx + (None,))
        return Answer([op, got.kind, indices_of(got.witness)], got.kind == "unknown",
                      ctx + (got,))

    def check(self, inst, answer: Answer) -> Check:
        if answer.failed:
            return UNCHECKED
        fam, p, region, stem, B, got = answer.ctx
        op = inst["op"]
        members = [frozenset(m) for m in inst["members"]]
        if len(B) > oracle.SIZE_LIMIT:
            return self._check_large(op, members, fam, p, region, stem, B, got)

        def inside(W, R):
            return set(W.indices) <= set(B.indices) and \
                is_admissible(members, W.indices, UNIVERSE, D, MIN_SIZE) and \
                oracle.brute_accepts(W, stem, R, p)

        if op == "accepts":
            return Check(ORACLE, (got is ground.TRUE) == oracle.brute_accepts(B, stem, region, p))
        if op == "rejects":
            return Check(ORACLE, (got is ground.TRUE) == oracle.brute_rejects(B, stem, region, p))
        if op == "decide":
            if got.kind == "accepts":
                return Check(ORACLE, inside(got.witness, region))
            return Check(ORACLE, oracle.brute_rejects(B, stem, region, p))
        if got.kind == "inside":
            return Check(ORACLE, inside(got.witness, region))
        if got.kind == "outside":
            return Check(ORACLE, inside(got.witness, ellentuck.ComplementRegion(region)))
        return Check(ORACLE, oracle.brute_cr(region, stem, B, p) is None)

    def _check_large(self, op, members, fam, p, region, stem, B, got) -> Check:
        """Past the oracle's guard, re-find the witness a FALSE verdict implies.

        The lazy branch scans candidates in size order within search_bound,
        so a FALSE it reports has a witness among the first search_bound
        candidates of that order.
        """
        if got is not ground.FALSE:
            return UNCHECKED
        if op == "accepts":
            candidates = (tuple(sorted(set(stem) | set(extra)))
                          for k in range(len(B) + 1)
                          for extra in itertools.combinations(B.indices, k))
            for d_indices in itertools.islice(candidates, p.search_bound):
                if is_admissible(members, d_indices, UNIVERSE, D, MIN_SIZE) and \
                        not region.contains(ground.Subfamily(fam, d_indices)):
                    return Check(INVARIANT, True)
            return Check(INVARIANT, False)
        candidates = (c for k in range(MIN_SIZE, oracle.SIZE_LIMIT + 1)
                      for c in itertools.combinations(B.indices, k))
        for c in itertools.islice(candidates, p.search_bound):
            if is_admissible(members, c, UNIVERSE, D, MIN_SIZE) and \
                    oracle.brute_accepts(ground.Subfamily(fam, c), stem, region, p):
                return Check(INVARIANT, True)
        return Check(INVARIANT, False)
