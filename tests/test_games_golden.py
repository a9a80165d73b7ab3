"""Golden battery for the results the selection game packages.

Pins, on seeded small cases, what `decide_all_finite` returns (the DecidedAll
terminal, picks and verdict table, or the failure's inning and reason) and
what a step-up play answers without the exhaustive scan, next to
`solve_partition`'s answer and route on the same coloring, so a rewrite of the
strategies or of the play that changes any pick, verdict or fault shows up as
a diff.  The expected results live in tests/golden/games.json.  After an
intended change of results, rewrite them from the repository root with

    PYTHONPATH=src python tests/test_games_golden.py

and review the diff.
"""

import itertools
import json
import random
from pathlib import Path

import pytest

from omegaramsey import (
    Coloring,
    EngineError,
    Family,
    GreedyTwo,
    LargenessParams,
    Subfamily,
    restrict,
    solve_partition,
)
from omegaramsey.ellentuck import region_from_json
from omegaramsey.games import DecidedAll, decide_all_finite
from omegaramsey.ramsey import _exhaustive_mono, _stepup_play

GOLDEN = Path(__file__).resolve().parent / "golden" / "games.json"


def _random_family(rng: random.Random) -> tuple[int, list[list[int]]]:
    """A universe of 4-6 points and 5-10 members of one or two points less."""
    u = rng.randint(4, 6)
    members = [sorted(rng.sample(range(1, u + 1), rng.randint(u - 2, u - 1)))
               for _ in range(rng.randint(5, 10))]
    return u, members


def _random_region(rng: random.Random, n: int) -> dict:
    """Region JSON: explicit sets, a union of basics, or a complement."""
    indices = list(range(1, n + 1))

    def some_sets():
        return [sorted(rng.sample(indices, rng.randint(2, n)))
                for _ in range(rng.randint(0, 4))]

    def basic():
        stem = sorted(rng.sample(indices[:3], rng.randint(0, 1)))
        tail = [i for i in indices if not stem or i > stem[-1]]
        return {"stem": stem,
                "reservoir": sorted(rng.sample(tail, rng.randint(1, len(tail))))}

    kind = rng.choice(["explicit", "basicUnion", "complement"])
    if kind == "explicit":
        return {"type": "explicit", "sets": some_sets()}
    if kind == "basicUnion":
        return {"type": "basicUnion",
                "basics": [basic() for _ in range(rng.randint(1, 2))]}
    return {"type": "complement",
            "inner": {"type": "explicit", "sets": some_sets()}}


def _decide_case(rng: random.Random, roomy: bool) -> dict:
    """A fusion run; roomy cases (three points, d=1) often complete."""
    if roomy:
        u, d = 3, 1
        members = [sorted(rng.sample(range(1, 4), 2))
                   for _ in range(rng.randint(5, 10))]
    else:
        (u, members), d = _random_family(rng), rng.randint(1, 2)
    return {"universe": u, "members": members, "d": d,
            "min_size": rng.randint(1, 3 if roomy else 4),
            "search_bound": rng.choice([1_000_000, 1_000_000, 40]),
            "stem": rng.choice([[], [1]]), "innings": rng.randint(2, 5),
            "region": _random_region(rng, len(members))}


def _stepup_case(rng: random.Random, roomy: bool) -> dict:
    """A 5-10-member family and a 3-/4-coloring: constant, biased, random,
    or set by the least index.

    Roomy cases (three points, d=1, 8-10 members of two points, arity 3, at
    least two innings fewer than members) let many plays run to the end; the
    others mostly fault when a pool runs dry.
    """
    if roomy:
        u, n, d, arity = 3, rng.randint(8, 10), 1, 3
        members = [sorted(rng.sample(range(1, 4), 2)) for _ in range(n)]
        innings = rng.randint(6, n - 2)
    else:
        u, members = _random_family(rng)
        n, d = len(members), rng.randint(1, 2)
        arity = rng.choice([3, 3, 4]) if n >= 6 else 3
        innings = rng.randint(4, 8)
    colors = rng.randint(1, 3)
    kind = rng.choice(["constant", "biased", "least", "random"])
    base = rng.randrange(colors)
    table = []
    for key in itertools.combinations(range(1, n + 1), arity):
        if kind == "least":
            color = key[0] % colors
        elif kind == "constant" or (kind == "biased" and rng.random() < 0.9):
            color = base
        else:
            color = rng.randrange(colors)
        table.append([list(key), color])
    return {"universe": u, "members": members, "d": d,
            "min_size": rng.randint(1, 3), "innings": innings,
            "arity": arity, "colors": colors, "entries": table}


def golden_cases() -> dict:
    rng = random.Random(8)
    cases = {f"decide-{i:03d}": _decide_case(rng, roomy=i % 2 == 0)
             for i in range(100)}
    cases.update({f"stepup-{i:03d}": _stepup_case(rng, roomy=i % 2 == 0)
                  for i in range(100)})
    return cases


CASES = golden_cases()


def _outcome(call):
    try:
        return call()
    except EngineError as exc:
        return {"error": type(exc).__name__, "message": str(exc)}


def decide_results(case: dict) -> dict:
    family = Family.of(case["universe"], case["members"])
    p = LargenessParams(d=case["d"], min_size=case["min_size"],
                        search_bound=case["search_bound"])
    stem = tuple(case["stem"])
    B = restrict(Subfamily.full(family), stem)
    R = region_from_json(case["region"], family)

    def run():
        got = decide_all_finite(stem, B, R, case["innings"], p)
        if isinstance(got, DecidedAll):
            return {"kind": "decided", "terminal": list(got.terminal.indices),
                    "picks": list(got.picks.indices),
                    "table": [[list(s), v] for s, v in got.table]}
        return {"kind": "failed", "inning": got.inning, "reason": got.reason}

    return {"decide_all_finite": _outcome(run)}


def stepup_results(case: dict) -> dict:
    family = Family.of(case["universe"], case["members"])
    p = LargenessParams(d=case["d"], min_size=case["min_size"])
    f = Coloring(case["arity"], case["colors"],
                 {tuple(k): v for k, v in case["entries"]})

    def nsolver(domain, g):
        return _exhaustive_mono(family, g, domain, p, True)

    def stepup():
        got = _stepup_play(family, f, nsolver, GreedyTwo(p), case["innings"],
                           p, family.indices)
        return None if got is None else \
            {"indices": list(got[0].indices), "color": got[1]}

    def solved():
        got = solve_partition(family, f, p)
        return None if got is None else \
            {"indices": list(got.subfamily.indices), "color": got.color,
             "admissible": got.admissible.value, "route": got.route}

    return {"stepup_solve": _outcome(stepup), "solve_partition": _outcome(solved)}


def _record(name: str, case: dict) -> dict:
    results = decide_results if name.startswith("decide") else stepup_results
    return json.loads(json.dumps(results(case)))


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_every_golden_case_is_recorded(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_game_results_match_golden(name, golden):
    assert _record(name, CASES[name]) == golden[name]


def write_golden() -> None:
    records = {name: _record(name, case) for name, case in CASES.items()}
    lines = [f"{json.dumps(name)}: {json.dumps(rec, sort_keys=True)}"
             for name, rec in sorted(records.items())]
    GOLDEN.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")


if __name__ == "__main__":
    write_golden()
