"""The acceptance battery: one test per criterion, one printed verdict line each.

Grid constants are pinned here.  The decide/cr grids run over the 7-member
family with depth-1 covers; the deduplicated pool of stem-indexed basics is
capped so the exhaustive sweeps stay inside their runtime budgets, and every
sweep asserts engine/oracle agreement on 100% of its cases.
"""

import io
import itertools
import json
import random
import time
from contextlib import redirect_stdout

from omegaramsey import (
    BasicUnionRegion,
    ComplementRegion,
    Coloring,
    ContractError,
    EllentuckBasic,
    ExplicitRegion,
    Family,
    GreedyTwo,
    IntersectionRegion,
    LargenessParams,
    MeagerPresentation,
    RejectionOne,
    StrategyFault,
    Subfamily,
    TRUE,
    UnionRegion,
    admissible,
    cr_witness,
    decide,
    enumerate_admissible,
    is_nowhere_dense,
    nw_homogenize,
    play,
    restrict,
    solve_partition,
)
from omegaramsey.games import (
    DecidedAll,
    MeagerAvoidOne,
    decide_all_finite,
)
from omegaramsey.ramsey import (
    merge_colors_solve,
    project_solve,
    stepup_solve,
)
from omegaramsey.barriers import FiniteSetFamily, fg_witness, is_dense
from omegaramsey.mathias import (
    Chain,
    Condition,
    compatible,
    extends,
    gamma_eval,
    valid_condition,
)
from omegaramsey import oracle
from omegaramsey.cli import canonical_dumps, run as cli_run

from pathlib import Path

FIXTURES = Path(__file__).parent / "fixtures"


def report(line: str) -> None:
    print(line)


GRID_FAMILY = Family.of(5, [{1, 2, 3}, {3, 4, 5}, {1, 4, 5}, {2, 4, 5},
                            {1, 2, 5}, {2, 3, 4}, {1, 3, 4}])
GRID_P = LargenessParams(d=1, min_size=3)

#: cap on the deduplicated stem-indexed basic pool for the decide grid;
#: the grid family yields 111 distinct contents, all of which fit the budget
POOL_CAP = 128
#: cap on the single-basic pool feeding the closure sweep
CLOSURE_POOL_CAP = 32
#: cap on the fully-decidable regions paired up in the closure sweep
CLOSURE_PAIR_CAP = 12


def stem_indexed_basics(family, p, cap):
    """Maximal-reservoir basics, one per stem, deduplicated by content."""
    full = Subfamily.full(family)
    seen = set()
    pool = []
    n = len(family)
    from omegaramsey.ground import subsets_canonical
    for stem in subsets_canonical(range(1, n + 1)):
        reservoir = restrict(full, stem)
        basic = EllentuckBasic(stem, reservoir)
        content = frozenset(
            D.indices for D in _basic_members(basic, p))
        if not content or content in seen:
            continue
        seen.add(content)
        pool.append(basic)
        if len(pool) >= cap:
            break
    return pool


def _basic_members(basic, p):
    from omegaramsey.ellentuck import basic_content
    return basic_content(basic, p)


def eval_stems(family, p):
    """Stems whose full tail still holds an admissible subfamily."""
    from omegaramsey.ground import subsets_canonical
    full = Subfamily.full(family)
    out = []
    for stem in subsets_canonical(range(1, len(family) + 1)):
        tail = restrict(full, stem)
        if any(True for _ in enumerate_admissible(tail, p, limit=1)):
            out.append(stem)
    return out


class TestAcceptance:
    def test_01_branch_walk_size_guarantee(self, big64, p_pairs):
        """200 seeded pair colorings on 64 members, all solved at size >= 3."""
        runs = 200
        bound = 3
        start = time.perf_counter()
        failures = 0
        for trial in range(runs):
            rng = random.Random(1000 + trial)
            table = {pair: rng.randint(0, 1)
                     for pair in itertools.combinations(range(1, 65), 2)}
            f = Coloring(2, 2, table)
            got = solve_partition(big64, f, p_pairs)
            ok = (got is not None and len(got.subfamily) >= bound and
                  all(f.of(c) == got.color
                      for c in itertools.combinations(got.subfamily.indices, 2)))
            if not ok:
                failures += 1
        elapsed = time.perf_counter() - start
        assert failures == 0
        assert elapsed < 5.0
        report(f"ACCEPTANCE 1 branch-walk size guarantee: PASS "
               f"({runs} runs, 0 undersized, {elapsed:.2f}s < 5s)")

    def test_02_decide_trichotomy_grid(self):
        """decide equals the oracle trichotomy on the full region grid."""
        start = time.perf_counter()
        pool = stem_indexed_basics(GRID_FAMILY, GRID_P, POOL_CAP)
        regions = [BasicUnionRegion(())]
        regions += [BasicUnionRegion((b,)) for b in pool]
        regions += [BasicUnionRegion(pair)
                    for pair in itertools.combinations(pool, 2)]
        stems = eval_stems(GRID_FAMILY, GRID_P)
        full = Subfamily.full(GRID_FAMILY)
        cases = 0
        mismatches = 0
        for region in regions:
            for stem in stems:
                B = restrict(full, stem)
                got = decide(B, stem, region, GRID_P)
                want = "rejects" if oracle.brute_rejects(B, stem, region,
                                                         GRID_P) else "accepts"
                cases += 1
                if got.kind != want:
                    mismatches += 1
        elapsed = time.perf_counter() - start
        assert mismatches == 0
        assert elapsed < 60.0
        report(f"ACCEPTANCE 2 accept/reject trichotomy: PASS "
               f"({cases} cases over {len(regions)} regions x {len(stems)} "
               f"stems, 0 mismatches, {elapsed:.1f}s < 60s)")

    def test_03_completely_ramsey_closure(self):
        """Regions decidable everywhere stay decidable under u, n, complement."""
        start = time.perf_counter()
        pool = stem_indexed_basics(GRID_FAMILY, GRID_P, CLOSURE_POOL_CAP)
        regions = [BasicUnionRegion((b,)) for b in pool]
        full = Subfamily.full(GRID_FAMILY)

        pairs_grid = []
        from omegaramsey.ground import subsets_canonical
        for stem in subsets_canonical(range(1, len(GRID_FAMILY) + 1)):
            tail = restrict(full, stem)
            for B in enumerate_admissible(tail, GRID_P):
                pairs_grid.append((stem, B))

        def succeeds_everywhere(region):
            return all(
                cr_witness(region, stem, B, GRID_P,
                           route="exhaustive").kind != "not_found"
                for stem, B in pairs_grid)

        def verify(region, stem, B):
            got = cr_witness(region, stem, B, GRID_P, route="exhaustive")
            if got.kind == "inside":
                return oracle.brute_accepts(got.witness, stem, region, GRID_P)
            if got.kind == "outside":
                return oracle.brute_accepts(got.witness, stem,
                                            ComplementRegion(region), GRID_P)
            return False

        decidable = [r for r in regions if succeeds_everywhere(r)]
        paired = decidable[:CLOSURE_PAIR_CAP]
        assert len(paired) >= 2, "closure sweep needs at least two regions"

        checks = 0
        bad = 0
        for r in paired:
            comp = ComplementRegion(r)
            for stem, B in pairs_grid:
                checks += 1
                if not verify(comp, stem, B):
                    bad += 1
        for r, s in itertools.combinations(paired, 2):
            for composed in (UnionRegion((r, s)), IntersectionRegion((r, s))):
                for stem, B in pairs_grid:
                    checks += 1
                    if not verify(composed, stem, B):
                        bad += 1
        elapsed = time.perf_counter() - start
        assert bad == 0
        report(f"ACCEPTANCE 3 completely-Ramsey closure: PASS "
               f"({len(paired)} regions, {len(pairs_grid)} stem/reservoir "
               f"pairs, {checks} composed checks, 0 failures, {elapsed:.1f}s)")

    def test_04_fusion_decides_all_small_stems(self):
        """Completed fusion runs leave every stem of size <= 3 decided."""
        start = time.perf_counter()
        pool = stem_indexed_basics(GRID_FAMILY, GRID_P, 20)
        everything = BasicUnionRegion((
            EllentuckBasic((), Subfamily.full(GRID_FAMILY)),))
        regions = [BasicUnionRegion(()), everything] + \
            [BasicUnionRegion((b,)) for b in pool]
        bases = [s for s in eval_stems(GRID_FAMILY, GRID_P) if len(s) <= 1]
        full = Subfamily.full(GRID_FAMILY)
        completed = 0
        attempted = 0
        undecided = 0
        for region in regions:
            for t in bases:
                attempted += 1
                B = restrict(full, t)
                got = decide_all_finite(t, B, region, 4, GRID_P)
                if not isinstance(got, DecidedAll):
                    continue
                completed += 1
                table = dict(got.table)
                for stem, verdict in table.items():
                    tail = restrict(got.picks, stem)
                    if verdict == "accepts":
                        ok = oracle.brute_accepts(tail, stem, region, GRID_P)
                    else:
                        ok = oracle.brute_rejects(tail, stem, region, GRID_P)
                    if not ok:
                        undecided += 1
        elapsed = time.perf_counter() - start
        assert completed > 0
        assert undecided == 0
        rate = completed / attempted
        report(f"ACCEPTANCE 4 fusion decidedness: PASS "
               f"(completion rate {completed}/{attempted} = {rate:.0%}, "
               f"0 unverified verdicts on completions, {elapsed:.1f}s)")

    def test_05_rejection_and_avoidance_certificates(self):
        """Every emitted certificate passes its oracle re-check."""
        start = time.perf_counter()
        full = Subfamily.full(GRID_FAMILY)
        checked = 0
        bad = 0

        # rejection certificates, seeded from completed fusion runs
        pool = stem_indexed_basics(GRID_FAMILY, GRID_P, 12)
        regions = [BasicUnionRegion(())] + \
            [BasicUnionRegion((b,)) for b in pool]
        for region in regions:
            got = decide_all_finite((), full, region, 4, GRID_P)
            if not isinstance(got, DecidedAll):
                continue
            if dict(got.table).get(()) != "rejects":
                continue
            try:
                strategy = RejectionOne((), got.picks, region, GRID_P)
                transcript = play(strategy, GreedyTwo(GRID_P), 2, GRID_P)
            except (StrategyFault, ContractError):
                continue
            for cert in transcript.certificates:
                checked += 1
                tail = Subfamily.of(GRID_FAMILY, cert["set"])
                if not oracle.brute_rejects(tail, tuple(cert["stem"]),
                                            region, GRID_P):
                    bad += 1

        # avoidance certificates over ladders of verified nowhere dense levels
        adm = [s.indices for s in enumerate_admissible(full, GRID_P)]
        nwd_sets = [a for a in adm
                    if is_nowhere_dense(ExplicitRegion(frozenset([a])),
                                        GRID_FAMILY, GRID_P) is TRUE]
        assert len(nwd_sets) >= 4
        ladders = [
            (ExplicitRegion(frozenset(nwd_sets[:1])),
             ExplicitRegion(frozenset(nwd_sets[:2]))),
            (ExplicitRegion(frozenset(nwd_sets[2:3])),
             ExplicitRegion(frozenset(nwd_sets[2:4]))),
        ]
        plays = 0
        for levels in ladders:
            ladder = MeagerPresentation(levels)
            if any(is_nowhere_dense(lvl, GRID_FAMILY, GRID_P) is not TRUE
                   for lvl in levels):
                continue
            for stem in [(), (1,)]:
                try:
                    strategy = MeagerAvoidOne(stem, restrict(full, stem),
                                              ladder, GRID_P)
                    transcript = play(strategy, GreedyTwo(GRID_P), 4, GRID_P)
                except (StrategyFault, ContractError):
                    continue
                plays += 1
                for cert in transcript.certificates:
                    checked += 1
                    level = ladder.level(cert["level"])
                    W = Subfamily.of(GRID_FAMILY, cert["set"])
                    if not oracle.brute_accepts(W, tuple(cert["stem"]),
                                                ComplementRegion(level),
                                                GRID_P):
                        bad += 1
        elapsed = time.perf_counter() - start
        assert checked > 0 and plays > 0
        assert bad == 0
        report(f"ACCEPTANCE 5 strategy certificates: PASS "
               f"({checked} certificates re-checked, 0 failures, "
               f"{elapsed:.1f}s)")

    def test_06_reduction_chain(self, twelve6, p_pairs):
        """Merge, projection and step-up return verified sets when solvable."""
        start = time.perf_counter()

        def exhaustive(domain, coloring):
            pool = sorted(domain)
            floor = max(p_pairs.min_size, coloring.arity)
            for size in range(len(pool), floor - 1, -1):
                for combo in itertools.combinations(pool, size):
                    seen = {coloring.of(t) for t in
                            itertools.combinations(combo, coloring.arity)}
                    if len(seen) != 1:
                        continue
                    if admissible(Subfamily.of(twelve6, combo),
                                  p_pairs) is not TRUE:
                        continue
                    return combo, seen.pop()
            return None

        def solvable(coloring):
            return any(
                admissible(Subfamily.of(twelve6, b), p_pairs) is TRUE
                for b, _ in oracle.brute_homogeneous(
                    twelve6, coloring, coloring.arity, coloring.colors,
                    p_pairs.min_size))

        def check(coloring, got):
            if got is None:
                return not solvable(coloring)
            B, color = got
            matches = oracle.brute_homogeneous(
                twelve6, coloring, coloring.arity, coloring.colors, len(B))
            return (B.indices, color) in matches and \
                admissible(B, p_pairs) is TRUE

        cases = 0
        bad = 0
        for colors in (3, 4):
            for trial in range(8):
                rng = random.Random(600 + 10 * colors + trial)
                f = Coloring(2, colors, {
                    c: rng.randrange(colors)
                    for c in itertools.combinations(range(1, 13), 2)})
                got = merge_colors_solve(twelve6, f, exhaustive, p_pairs)
                cases += 1
                if not check(f, got):
                    bad += 1
        for trial in range(8):
            rng = random.Random(700 + trial)
            f = Coloring(2, 2, {
                c: rng.randrange(2)
                for c in itertools.combinations(range(1, 13), 2)})
            got = project_solve(twelve6, f, exhaustive, 3, p_pairs)
            cases += 1
            if not check(f, got):
                bad += 1
        for trial in range(6):
            rng = random.Random(800 + trial)
            f = Coloring(3, 2, {
                c: rng.randrange(2)
                for c in itertools.combinations(range(1, 13), 3)})
            got = stepup_solve(twelve6, f, exhaustive, GreedyTwo(p_pairs),
                               8, p_pairs)
            cases += 1
            if not check(f, got):
                bad += 1
        elapsed = time.perf_counter() - start
        assert bad == 0
        report(f"ACCEPTANCE 6 reduction chain: PASS ({cases} instances, "
               f"all outputs verified or honestly unsolvable, {elapsed:.1f}s)")

    def test_07_thin_family_homogenization(self, eight5, p_grid):
        """50 curated thin-family cases, outputs inside the oracle's list."""
        start = time.perf_counter()
        all_pairs = list(itertools.combinations(range(1, 9), 2))
        cases = []
        rng = random.Random(77)
        for trial in range(48):
            size = rng.randint(6, len(all_pairs))
            stems = rng.sample(all_pairs, size)
            left = set(rng.sample(stems, rng.randint(0, len(stems))))
            parts = [[s for s in stems if s in left],
                     [s for s in stems if s not in left]]
            cases.append((stems, parts))
        cases.append((all_pairs, [all_pairs, []]))
        cases.append((all_pairs, [[s for s in all_pairs if s[0] % 2 == 1],
                                  [s for s in all_pairs if s[0] % 2 == 0]]))

        nw_bad = 0
        for stems, parts in cases:
            T = FiniteSetFamily.of(eight5, stems)
            got = nw_homogenize(T, parts, p_grid)
            matches = oracle.brute_nw(T, parts, p_grid)
            if got.kind == "homogeneous":
                if (got.witness.indices, got.part) not in matches:
                    nw_bad += 1
            elif matches:
                nw_bad += 1

        fg_checked = 0
        fg_bad = 0
        for trial in range(20):
            rng2 = random.Random(900 + trial)
            stems = [(i,) for i in rng2.sample(range(1, 9),
                                               rng2.randint(2, 8))]
            stems += [tuple(sorted(rng2.sample(range(1, 9), 2)))
                      for _ in range(rng2.randint(0, 6))]
            S = FiniteSetFamily.of(eight5, stems)
            if is_dense(S, p_grid) is not TRUE:
                continue
            got = fg_witness(S, p_grid)
            if got.kind != "witness":
                continue
            fg_checked += 1
            for C in enumerate_admissible(got.witness, p_grid):
                c = C.indices
                if not any(c[:j] in S.stems for j in range(len(c) + 1)):
                    fg_bad += 1
        elapsed = time.perf_counter() - start
        assert nw_bad == 0
        assert fg_checked > 0 and fg_bad == 0
        report(f"ACCEPTANCE 7 thin-family homogenization: PASS "
               f"({len(cases)} partition cases, {fg_checked} dense-family "
               f"witnesses verified, {elapsed:.1f}s)")

    def test_08_poset_laws(self, twelve6, p_pairs):
        """Extension transitivity, stem unions, and compatibility witnesses."""
        start = time.perf_counter()
        rng = random.Random(4242)
        n = len(twelve6)

        def sample_condition(max_tries=400):
            for _ in range(max_tries):
                stem_size = rng.randint(0, 2)
                stem = tuple(sorted(rng.sample(range(1, n - 3), stem_size))) \
                    if stem_size else ()
                top = max(stem) if stem else 0
                tail = list(range(top + 1, n + 1))
                side = sorted(rng.sample(tail, rng.randint(3, len(tail))))
                cond = Condition(stem, Subfamily.of(twelve6, side))
                if valid_condition(cond, p_pairs):
                    return cond
            raise AssertionError("sampling failed")

        def sample_extension(cond, max_tries=60):
            side = list(cond.side.indices)
            for _ in range(max_tries):
                room = min(2, len(side) - 3)
                moved = sorted(rng.sample(side, rng.randint(0, max(room, 0))))
                stem = tuple(sorted(set(cond.stem) | set(moved)))
                pool = [i for i in side if (not stem or i > max(stem))]
                if len(pool) < 3:
                    continue
                keep = sorted(rng.sample(pool, rng.randint(3, len(pool))))
                cand = Condition(stem, Subfamily.of(twelve6, keep))
                if valid_condition(cand, p_pairs) and extends(cand, cond):
                    return cand
            return None

        triples = 0
        violations = 0
        while triples < 10_000:
            c3 = sample_condition()
            c2 = sample_extension(c3)
            if c2 is None:
                continue
            c1 = sample_extension(c2)
            if c1 is None:
                continue
            triples += 1
            if not extends(c1, c3):
                violations += 1

        chains = 0
        gamma_bad = 0
        while chains < 1_000:
            c0 = sample_condition()
            c1 = sample_extension(c0)
            if c1 is None:
                continue
            c2 = sample_extension(c1)
            if c2 is None:
                continue
            chains += 1
            chain = Chain((c0, c1, c2))
            if gamma_eval(chain) != c2.stem:
                gamma_bad += 1

        compat_seen = 0
        compat_bad = 0
        attempts = 0
        while compat_seen < 300 and attempts < 5_000:
            attempts += 1
            base = sample_condition()
            a = sample_extension(base)
            b = sample_extension(base)
            if a is None or b is None:
                continue
            got = compatible(a, b, p_pairs)
            if got is None:
                continue
            compat_seen += 1
            if not (extends(got, a) and extends(got, b)):
                compat_bad += 1
        elapsed = time.perf_counter() - start
        assert violations == 0
        assert gamma_bad == 0
        assert compat_seen > 0 and compat_bad == 0
        report(f"ACCEPTANCE 8 poset laws: PASS ({triples} transitivity "
               f"triples, {chains} chains, {compat_seen} compatibility "
               f"witnesses, 0 violations, {elapsed:.1f}s)")

    def test_09_cli_determinism_and_round_trip(self):
        """Reports are byte-reproducible; fixture JSON round-trips exactly."""
        start = time.perf_counter()
        invocations = [
            ["suite", "--seed", "3", "--cases", "6", "--d", "2",
             "--minsize", "3"],
            ["cover-check", "--family", str(FIXTURES / "family_quads6.json"),
             "--sub", str(FIXTURES / "sub_quads_all.json"),
             "--d", "2", "--minsize", "3"],
            ["ramsey-solve", "--family", str(FIXTURES / "family_tree4.json"),
             "--coloring", str(FIXTURES / "coloring_tree4.json"),
             "--d", "1", "--minsize", "3"],
            ["decide", "--family", str(FIXTURES / "family_grid5.json"),
             "--region", str(FIXTURES / "region_basic_grid.json"),
             "--d", "1", "--minsize", "3", "--stem", "1"],
        ]
        for argv in invocations:
            outs = []
            for _ in range(2):
                buf = io.StringIO()
                with redirect_stdout(buf):
                    code = cli_run(argv)
                outs.append((code, buf.getvalue()))
            assert outs[0] == outs[1], f"non-reproducible: {argv}"

        round_trips = 0
        for path in sorted(FIXTURES.glob("*.json")):
            raw = path.read_text()
            assert canonical_dumps(json.loads(raw)) == raw, path.name
            round_trips += 1
        elapsed = time.perf_counter() - start
        report(f"ACCEPTANCE 9 determinism and formats: PASS "
               f"({len(invocations)} reproducible invocations, "
               f"{round_trips} fixture files round-tripped, {elapsed:.1f}s)")
