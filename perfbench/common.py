"""Plain-data helpers shared by the workload generators and answer checks.

Everything here works on plain Python data (tuples, lists, dicts) and never
calls the engine, so generators stay independent of the code they feed and
checks stay independent of the code they judge.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from typing import Iterable, Sequence

Members = Sequence[frozenset]


def rng_for(seed: int, *labels) -> random.Random:
    """A random stream fixed by the seed and a label path, e.g. ("cycle", 3)."""
    key = ":".join([str(seed)] + [str(x) for x in labels])
    return random.Random(int.from_bytes(hashlib.sha256(key.encode()).digest()[:8], "big"))


def spread(mix: dict) -> tuple:
    """A cycle's schedule: each key repeated mix[key] times, spread evenly."""
    return tuple(key for _, key in sorted(
        ((j + 0.5) / count, key) for key, count in mix.items() for j in range(count)))


def is_admissible(members: Members, indices: Iterable[int], universe: int,
                  d: int, min_size: int) -> bool:
    """Size gate plus depth-d cover, written out over plain point sets.

    `members` is 0-based storage of the 1-based indexed family.
    """
    chosen = [members[i - 1] for i in set(indices)]
    if len(chosen) < min_size:
        return False
    for size in range(1, d + 1):
        for pts in itertools.combinations(range(1, universe + 1), size):
            if not any(m.issuperset(pts) for m in chosen):
                return False
    return True


def admissible_sets(members: Members, pool: Sequence[int], universe: int,
                    d: int, min_size: int) -> list[tuple[int, ...]]:
    """Every admissible subset of pool, smallest first."""
    pool = sorted(pool)
    return [c for k in range(min_size, len(pool) + 1)
            for c in itertools.combinations(pool, k)
            if is_admissible(members, c, universe, d, min_size)]


def random_admissible(rng: random.Random, members: Members, universe: int,
                      d: int, min_size: int) -> list[int]:
    """A random admissible subset of the family's indices, by rejection."""
    n = len(members)
    while True:
        pick = sorted(rng.sample(range(1, n + 1), rng.randint(min_size, n)))
        if is_admissible(members, pick, universe, d, min_size):
            return pick


def random_family(rng: random.Random, n: int, universe: int, member_size: int,
                  d: int, min_size: int) -> list[list[int]]:
    """n random member_size-point members, redrawn until the full family is admissible."""
    points = range(1, universe + 1)
    while True:
        members = [sorted(rng.sample(points, member_size)) for _ in range(n)]
        if is_admissible([frozenset(m) for m in members], range(1, n + 1),
                         universe, d, min_size):
            return members


def rename_points(rng: random.Random, members: Sequence, universe: int) -> list[list[int]]:
    """The same family with its points renamed by a random permutation.

    Admissibility, and so every verdict, is invariant under the renaming and
    the cost of reaching it nearly so (only which uncovered point a failed
    cover check meets first can change), yet the renamed family is a new value
    that no cache has seen.
    """
    points = rng.sample(range(1, universe + 1), universe)
    return [sorted(points[p - 1] for p in m) for m in members]


def random_basic(rng: random.Random, n: int) -> dict:
    """A basic [stem, reservoir] in the CLI's JSON shape, with stem < reservoir."""
    k = rng.choice((0, 0, 1, 1, 2))
    stem = sorted(rng.sample(range(1, n), k)) if k else []
    tail = list(range((stem[-1] if stem else 0) + 1, n + 1))
    reservoir = sorted(rng.sample(tail, rng.randint(min(3, len(tail)), len(tail))))
    return {"stem": stem, "reservoir": reservoir}


def random_region(rng: random.Random, n: int, depth: int = 0) -> dict:
    """A region in the CLI's JSON shape: basic unions under union,
    intersection and complement, nested at most two levels."""
    roll = rng.random()
    if depth >= 2 or roll < 0.4:
        return {"type": "basicUnion",
                "basics": [random_basic(rng, n) for _ in range(rng.randint(1, 3))]}
    if roll < 0.8:
        kind = "union" if roll < 0.6 else "intersection"
        return {"type": kind, "parts": [random_region(rng, n, depth + 1)
                                        for _ in range(2)]}
    return {"type": "complement", "inner": random_region(rng, n, depth + 1)}


def total_coloring(rng: random.Random, n: int, arity: int, colors: int) -> dict:
    """A coloring defined on every arity-subset of 1..n."""
    return {c: rng.randrange(colors)
            for c in itertools.combinations(range(1, n + 1), arity)}


def relabeled_coloring(shape: random.Random, relabel: random.Random, n: int,
                       arity: int, colors: int) -> dict:
    """A total coloring drawn from `shape`; for two colors, a draw from
    `relabel` decides whether they swap.

    Swapping two colors leaves the cost of every solver route nearly
    unchanged (only ties break the other way).  Permuting three or four
    colors changes which ones the merge route merges, and with it the cost,
    so those colorings are left as drawn.
    """
    table = total_coloring(shape, n, arity, colors)
    if colors == 2 and relabel.random() < 0.5:
        table = {c: 1 - v for c, v in table.items()}
    return table


def monochromatic(table: dict, indices: Sequence[int], arity: int, color: int) -> bool:
    combos = list(itertools.combinations(sorted(indices), arity))
    return bool(combos) and all(table[c] == color for c in combos)


def canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def digest(records: Iterable) -> str:
    h = hashlib.sha256()
    for rec in records:
        h.update(canonical(rec).encode())
        h.update(b"\n")
    return h.hexdigest()


def indices_of(sub) -> list[int] | None:
    """The index list of an engine Subfamily, or None."""
    return None if sub is None else list(sub.indices)
