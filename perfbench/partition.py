"""partition: fresh colorings over two shared families, mostly `ramsey` work.

A cycle follows the instance counts of acceptance tests 1 and 6: all 200
2-color pair colorings of acceptance 1 on the 64-member family (the first
64 four-subsets of 8 points, d=2, min_size=3), and half of acceptance 6's
30 on the 12-member family: 4 three-color and 4 four-color pair colorings
(merge route), 4 two-color pair colorings through `ramsey_via_nw`
(acceptance 6 runs these through a projection) and 3 step-up colorings,
split 2 of arity 3 and 1 of arity 4 so that both arities are played.
Halving acceptance 6 keeps the 12-member instances, each three to ten times
the cost of a 64-member one, under a tenth of the instances, so
latency_p90_ms falls inside the uniform 64-member population rather than
at the edge of a small heavy one.  `ground` does almost no work here, so a
cover-check optimisation should leave this workload unchanged.
"""

from __future__ import annotations

import itertools

from omegaramsey import barriers, ground, oracle, ramsey

from .common import is_admissible, monochromatic, relabeled_coloring, rng_for, spread
from .workload import INVARIANT, ORACLE, Answer, Check, Workload

BIG64 = [frozenset(c) for c in itertools.combinations(range(1, 9), 4)][:64]
TWELVE6 = [frozenset(m) for m in (
    {1, 2, 3, 4}, {1, 2, 5, 6}, {3, 4, 5, 6}, {1, 3, 5}, {2, 4, 6},
    {1, 4, 6}, {2, 3, 5}, {1, 2, 3, 5}, {1, 3, 4, 6}, {2, 4, 5, 6},
    {1, 2, 4, 6}, {1, 3, 4, 5})]
D, MIN_SIZE = 2, 3

#: (family, arity, colors, solver) -> instances per cycle
MIX = {
    ("big64", 2, 2, "solve"): 200,
    ("twelve6", 2, 3, "solve"): 4,
    ("twelve6", 2, 4, "solve"): 4,
    ("twelve6", 2, 2, "nw"): 4,
    ("twelve6", 3, 2, "solve"): 2,
    ("twelve6", 4, 2, "solve"): 1,
}
SCHEDULE = spread(MIX)
WARM_UP = 20


class Partition(Workload):
    name = "partition"
    cycle_size = len(SCHEDULE)

    def __init__(self, seed: int, workdir: str) -> None:
        super().__init__(seed, workdir)
        self.big64 = ground.Family.of(8, BIG64)
        self.twelve6 = ground.Family.of(6, TWELVE6)
        self.p = ground.LargenessParams(d=D, min_size=MIN_SIZE)

    def _instances(self, shape, relabel, slots) -> list:
        out = []
        for family, arity, colors, solver in slots:
            n = 64 if family == "big64" else 12
            table = relabeled_coloring(shape, relabel, n, arity, colors)
            out.append({"family": family, "arity": arity, "colors": colors,
                        "solver": solver, "table": table})
        return out

    def generate(self, cycle: int) -> list:
        # The colorings come from a stream the seed does not touch and the
        # seed only swaps colors, so seed-to-seed spread measures the
        # machine rather than which instances were drawn.
        return self._instances(rng_for(0, "partition", cycle),
                               rng_for(self.seed, "partition", cycle), SCHEDULE)

    def warm_up(self) -> None:
        for inst in self._instances(rng_for(0, "partition", "warm-up"),
                                    rng_for(self.seed, "partition", "warm-up"),
                                    SCHEDULE[:WARM_UP]):
            self.run(inst)

    def run(self, inst) -> Answer:
        family = self.big64 if inst["family"] == "big64" else self.twelve6
        f = ramsey.Coloring(inst["arity"], inst["colors"], inst["table"])
        if inst["solver"] == "nw":
            got = barriers.ramsey_via_nw(family, f, self.p)
            record = None if got is None else [list(got[0].indices), got[1]]
            return Answer(["nw", record], ctx=(family, f, got))
        res = ramsey.solve_partition(family, f, self.p)
        if res is None:
            return Answer(["solve", None], ctx=(family, f, res))
        return Answer(["solve", list(res.subfamily.indices), res.color,
                       res.admissible.value],
                      failed=res.admissible is ground.UNKNOWN,
                      ctx=(family, f, res))

    def check(self, inst, answer: Answer) -> Check:
        family, f, got = answer.ctx
        members = BIG64 if inst["family"] == "big64" else TWELVE6
        universe = family.universe.size
        table, arity = inst["table"], inst["arity"]

        def adm(indices):
            return is_admissible(members, indices, universe, D, MIN_SIZE)

        if inst["solver"] == "nw":
            if got is None:
                found = oracle.brute_homogeneous(family, f, arity, inst["colors"], MIN_SIZE)
                return Check(ORACLE, not any(adm(b) for b, _ in found))
            indices, color = got[0].indices, got[1]
            found = oracle.brute_homogeneous(family, f, arity, inst["colors"], len(indices))
            return Check(ORACLE, (indices, color) in found and adm(indices))
        if got is None:
            return Check(ORACLE if len(family) <= oracle.SIZE_LIMIT else INVARIANT, False)
        indices, color = got.subfamily.indices, got.color
        claim_ok = got.admissible is ground.UNKNOWN or \
            (got.admissible is ground.TRUE) == adm(indices)
        if len(family) > oracle.SIZE_LIMIT:
            # past the oracle's guard: monochromatic and of the promised size
            return Check(INVARIANT, claim_ok and len(indices) >= MIN_SIZE
                         and monochromatic(table, indices, arity, color))
        found = oracle.brute_homogeneous(family, f, arity, inst["colors"], len(indices))
        return Check(ORACLE, claim_ok and (indices, color) in found)
