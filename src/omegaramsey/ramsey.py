"""Partition calculus: colorings, the pivot tree, and homogeneous extraction.

The central object is the binary partition tree of a 2-coloring of index
pairs: level m splits the surviving indices above m by their color against
pivot m.  Walking the tree while keeping the larger child yields a pivot set
on which the coloring is determined by the earlier pivot, and the majority
color class (plus the final pivot) is monochromatic.

On top of the pair machinery sit three reductions: merging the top two colors
to cut the color count, projecting an n-tuple coloring down to its two
smallest entries, and a game-driven step-up from arity n to n+1.  Each runs
its construction, then the exhaustive scan if that gives nothing;
solve_partition runs the constructions alone, scans itself, and re-verifies
every output before returning it.
"""

from __future__ import annotations

import itertools
import math
from operator import countOf, itemgetter, lt
from typing import Callable, Optional, Sequence

from .ground import (
    EXHAUSTIVE_CAP,
    TRUE,
    ContractError,
    DegenerateError,
    Family,
    InternalCheckError,
    LargenessParams,
    Record,
    StructuralError,
    Subfamily,
    ThreeVal,
    _admissible_cached,
    admissible,
    json_indices,
)

#: A pluggable solver: takes an index domain and a coloring, returns
#: (indices, color) with the indices admissible and monochromatic, or None.
Solver = Callable[[tuple[int, ...], "Coloring"], Optional[tuple[tuple[int, ...], int]]]


def _stored_as_given(arity: int, colors: int,
                     table: dict[tuple[int, ...], int]) -> bool:
    """Whether the key-by-key pass would store `table` unchanged.

    True when every key is a strictly increasing `arity`-tuple and every
    color is an int in range(colors).  Key and color types are counted, not
    collected: the count of exact `tuple` keys and of exact `int` colors must
    each be the table's size.  Pairs are checked in one pass of `lt` over
    the keys, where a key of any other length raises TypeError; other
    arities check key lengths, then order a whole column at a time.  Colors
    are typed one by one, since a set of them would keep 0 and drop an equal
    0.0; any other type (bool, float, NaN) is left to that pass, and
    `range.__contains__` answers for ints without building the range.
    """
    try:
        if countOf(map(type, table), tuple) != len(table):
            return False
        if arity == 2:
            if not all(itertools.starmap(lt, table)):
                return False
        else:
            if set(map(len, table)) != {arity}:
                return False
            for i in range(arity - 1):
                if not all(map(lt, map(itemgetter(i), table),
                               map(itemgetter(i + 1), table))):
                    return False
        return countOf(map(type, table.values()), int) == len(table) and \
            all(map(range(colors).__contains__, set(table.values())))
    except TypeError:
        return False


class Coloring:
    """A coloring of r-element index sets with colors 0..k-1.

    The table may be scoped to a sub-domain; `ensure_total` checks totality
    on a given index range, which the JSON loader enforces for the whole
    family.
    """

    def __init__(self, arity: int, colors: int,
                 table: dict[tuple[int, ...], int]) -> None:
        if type(arity) is not int:
            raise StructuralError(f"coloring arity {arity!r} is not an integer")
        if type(colors) is not int:
            raise StructuralError(f"coloring color count {colors!r} is not an integer")
        if arity < 1:
            raise StructuralError("coloring arity must be >= 1")
        if colors < 1:
            raise StructuralError("coloring needs at least one color")
        self.arity = arity
        self.colors = colors
        if _stored_as_given(arity, colors, table):
            self._table = dict(table)
            return
        # the key-by-key pass sorts what it can and names the first fault
        self._table = {}
        for key, value in table.items():
            key = tuple(sorted(key))
            if len(key) != arity or len(set(key)) != arity:
                raise StructuralError(f"coloring key {key} is not an {arity}-set")
            if type(value) is not int:
                raise StructuralError(f"color {value!r} is not an integer")
            if not 0 <= value < colors:
                raise StructuralError(f"color {value} out of range 0..{colors - 1}")
            self._table[key] = value

    def of(self, indices) -> int:
        try:
            return self._table[indices]     # every stored key is sorted
        except (KeyError, TypeError):
            pass
        key = tuple(sorted(indices))
        try:
            return self._table[key]
        except KeyError:
            raise StructuralError(f"coloring is not defined on {key}") from None

    def ensure_total(self, domain: tuple[int, ...]) -> None:
        for key in itertools.combinations(sorted(domain), self.arity):
            if key not in self._table:
                raise StructuralError(f"coloring is missing an entry for {key}")

    def to_json(self) -> dict:
        return {"arity": self.arity, "colors": self.colors,
                "entries": [[list(k), v] for k, v in sorted(self._table.items())]}

    @classmethod
    def from_json(cls, data: dict, family: Family) -> "Coloring":
        if not isinstance(data, dict):
            raise StructuralError("coloring JSON must be an object")
        n = len(family)
        try:
            entries = {}
            for k, v in data["entries"]:
                key = tuple(sorted(json_indices(k)))
                for i in key:
                    if type(i) is not int or not 1 <= i <= n:
                        raise StructuralError(
                            f"coloring key {key} holds {i!r}, not an index 1..{n}")
                if key in entries:
                    raise StructuralError(f"coloring key {key} is given twice")
                entries[key] = v
            coloring = cls(data["arity"], data["colors"], entries)
        except (KeyError, TypeError, ValueError) as exc:
            raise StructuralError(f"malformed coloring JSON: {exc}") from exc
        coloring.ensure_total(family.indices)
        return coloring


class PartitionTree(Record):
    """Binary tree of index sets: node paths are color strings."""

    __slots__ = ("family", "depth", "nodes")

    def __init__(self, family: Family, depth: int,
                 nodes: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]) -> None:
        object.__setattr__(self, "family", family)
        object.__setattr__(self, "depth", depth)
        object.__setattr__(self, "nodes", nodes)

    def node(self, path: tuple[int, ...]) -> tuple[int, ...]:
        found = dict(self.nodes).get(path)
        if found is None:
            raise StructuralError(f"no node at path {path}")
        return found

    def level(self, k: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
        return [(path, content) for path, content in self.nodes if len(path) == k]


class BranchResult(Record):
    """The pivots collected along a walked branch and the branch colors.

    The walk runs over `domain` in increasing order: the pivot of level m is
    domain[m-1], and colors[m-1] is the color kept at that level.
    """

    __slots__ = ("family", "pivots", "colors", "domain")

    def __init__(self, family: Family, pivots: tuple[int, ...], colors: tuple[int, ...],
                 domain: tuple[int, ...]) -> None:
        object.__setattr__(self, "family", family)
        object.__setattr__(self, "pivots", pivots)
        object.__setattr__(self, "colors", colors)
        object.__setattr__(self, "domain", domain)


def _domain(family: Family, domain: Optional[Sequence[int]]) -> tuple[int, ...]:
    """The sorted index domain: the whole family, or a given index set of it."""
    return family.indices if domain is None else \
        Subfamily(family, tuple(sorted(domain))).indices


def _split(content: Sequence[int], pivot: int,
           f: Coloring) -> tuple[list[int], list[int]]:
    """The pivot split: the indices of `content` above `pivot` of color 0
    against it, and the others.  A missing entry raises `f.of`'s error at
    the first index that reads it."""
    table = f._table
    zero: list[int] = []
    one: list[int] = []
    try:
        for n in content:
            if n > pivot:       # so the key (pivot, n) is sorted
                (one if table[pivot, n] else zero).append(n)
    except KeyError:
        f.of((pivot, n))        # raises the missing-entry error
        raise
    return zero, one


def build_partition_tree(family: Family, f: Coloring, depth: int) -> PartitionTree:
    """Materialize the pivot tree down to `depth` (empty nodes included).

    The node at a path of length m collects the indices above m that survive
    the parent and get color path[m-1] against pivot m.
    """
    if f.arity != 2 or f.colors != 2:
        raise ContractError("the pivot tree needs a 2-coloring of pairs")
    if depth < 0:
        raise StructuralError("depth must be >= 0")
    if 2 ** depth > 16384:
        raise StructuralError("tree depth too large to materialize")
    nodes: list[tuple[tuple[int, ...], tuple[int, ...]]] = [((), family.indices)]
    frontier = [((), family.indices)]
    for m in range(1, depth + 1):
        next_frontier = []
        for path, content in frontier:
            zero, one = _split(content, m, f)
            for bit, child in ((0, zero), (1, one)):
                entry = (path + (bit,), tuple(child))
                nodes.append(entry)
                next_frontier.append(entry)
        frontier = next_frontier
    return PartitionTree(family, depth, tuple(nodes))


def branch_walk(family: Family, f: Coloring,
                domain: Optional[tuple[int, ...]] = None) -> BranchResult:
    """Walk the pivot tree keeping the larger child (color 0 on ties).

    The tree is built over `domain` (default: the whole family), read in
    place: level m pivots on the m-th smallest domain index.  Collects the
    pivots that are present in the node at their own level; the walk ends
    when no index survives above the current level, which always happens at
    a collected pivot, so the last pivot carries no color.
    """
    if f.arity != 2 or f.colors > 2:
        raise ContractError("branch walk needs a 2-coloring of pairs")
    domain = _domain(family, domain)
    pivots, colors, _ = _branch_levels(f, domain)
    if len(pivots) < 2:
        raise DegenerateError("family too small for a branch walk")
    return BranchResult(family, tuple(pivots), tuple(colors), domain)


def _branch_levels(f: Coloring, domain: tuple[int, ...]
                   ) -> tuple[list[int], list[int],
                              tuple[list[int], list[int], Sequence[int]]]:
    """The branch walk over a sorted domain: its pivots and colors, and the
    classical walk's state where the two walks part.

    Every index left in the content at level m is at least domain[m], so
    the pivot is in the content exactly when it is the content's minimum,
    which is the classical walk's pivot; both walks keep the larger class,
    color 0 on ties.  So they share every level up to the first pivot
    missing from the content, or up to a lone survivor, and the classical
    walk resumes from the pivots, colors and content of those levels.
    """
    content: Sequence[int] = domain
    pivots: list[int] = []
    colors: list[int] = []
    shared: Optional[int] = None    # the number of levels the walks share
    for m, pivot in enumerate(domain):
        if content[0] == pivot:
            pivots.append(pivot)
        elif shared is None:
            shared, pool = m, content
        zero, one = _split(content, pivot, f)
        if len(one) > len(zero):
            colors.append(1)
            content = one
        elif zero:
            colors.append(0)
            content = zero
        else:
            break
        if len(content) == 1:
            # every level up to the lone survivor keeps it, under its own
            # color against that level's pivot, and its own level ends the walk
            last = content[0]
            tail = domain[m + 1:domain.index(last, m + 1)]
            try:
                colors.extend([f._table[q, last] for q in tail])
            except KeyError:
                for q in tail:
                    f.of((q, last))     # raises the missing-entry error
                raise
            pivots.append(last)
            break
    if shared is None:
        # the walks never part: the classical walk is left with the last pivot
        shared, pool = max(len(pivots) - 1, 0), pivots[-1:]
    return pivots, colors, (pivots[:shared], colors[:shared], pool)


def extract_homogeneous(br: BranchResult, f: Coloring) -> tuple[Subfamily, int]:
    """Majority color class of the colored pivots, plus the final pivot.

    The result is re-verified monochromatic; a failure here is a bug, not a
    data condition.
    """
    chosen, color = _majority(br.pivots, br.colors, br.domain)
    for pair in itertools.combinations(chosen, 2):
        if f.of(pair) != color:
            raise InternalCheckError(
                f"extracted class is not monochromatic at {pair}")
    return Subfamily(br.family, chosen), color


def _majority(pivots: Sequence[int], colors: Sequence[int],
              levels: Sequence[int]) -> tuple[tuple[int, ...], int]:
    """The larger color class of the colored pivots, color 0 on ties, plus
    the last pivot, and that color.

    Level m of the walk pivots on levels[m] and keeps colors[m], so each
    pivot has the color of its own level; the last pivot's is not read.
    """
    *colored, last = pivots
    by_color: dict[int, list[int]] = {0: [], 1: []}
    for pivot in colored:
        by_color[colors[levels.index(pivot)]].append(pivot)
    color = 0 if len(by_color[0]) >= len(by_color[1]) else 1
    return tuple(by_color[color]) + (last,), color


def _classical_pivot_walk(f: Coloring, domain: tuple[int, ...],
                          start: Optional[tuple[list[int], list[int], Sequence[int]]]
                          = None) -> tuple[tuple[int, ...], int]:
    """Minimum-pivot construction: split the rest, keep the larger class.

    Collects at least floor(log2 |domain|) + 1 pivots for every coloring,
    which the tree walk cannot promise once a level loses its pivot.  The
    walk starts afresh, or resumes from the pivots, colors and pool of the
    levels it shares with the branch walk (`_branch_levels`).
    """
    pivots, colors, pool = ([], [], sorted(domain)) if start is None else start
    while pool:
        pivot = pool[0]
        pivots.append(pivot)
        if len(pool) == 1:
            break
        zero, one = _split(pool, pivot, f)
        if len(one) > len(zero):
            colors.append(1)
            pool = one
        else:
            colors.append(0)
            pool = zero
    # level m pivots on the least index of its pool, which is pivots[m]
    return _majority(pivots, colors, pivots)


def _verify_mono(f: Coloring, indices: tuple[int, ...], color: int) -> bool:
    combos = list(itertools.combinations(sorted(indices), f.arity))
    return bool(combos) and all(f.of(c) == color for c in combos)


def pair_size_guarantee(n: int) -> int:
    """The monochromatic size promised for a 2-colored n-member domain."""
    if n < 2:
        return n
    return math.ceil(math.floor(math.log2(n)) / 2) + 1


class PartitionResult(Record):
    """A verified monochromatic set, its color, and how it was found."""

    __slots__ = ("subfamily", "color", "admissible", "route")

    def __init__(self, subfamily: Subfamily, color: int, admissible: ThreeVal,
                 route: str) -> None:
        object.__setattr__(self, "subfamily", subfamily)
        object.__setattr__(self, "color", color)
        object.__setattr__(self, "admissible", admissible)
        object.__setattr__(self, "route", route)


def _exhaustive_mono(family: Family, f: Coloring, domain: tuple[int, ...],
                     p: LargenessParams,
                     require_admissible: bool) -> Optional[tuple[tuple[int, ...], int]]:
    """Largest monochromatic subset of the domain; admissible ones if asked.

    Monochromatic sets are closed under subsets, so they are grown one index
    at a time in increasing order: an index joins when every (r-1)-subset of
    the set so far, together with it, has the set's color.  Sets that are not
    admissible are closed under subsets too, so a branch whose every set lies
    inside one is cut.  Canonical order (size, then colex) breaks size ties.
    Only callable on small domains.

    Index sets are int masks with bit i for index i, so among sets of one
    size colex order is the masks' int order: the highest differing bit
    decides.  Each face t, an (r-1)-set, gets one mask per color of the
    domain indices k above t whose entry t + (k,) has that color, and one of
    those whose entry is missing, built the first time t is used; narrowing
    the joinable indices is then one AND per face.
    """
    if 2 ** len(domain) > EXHAUSTIVE_CAP:
        return None
    r = f.arity
    table = f._table
    missing = f.colors      # the slot of a face's missing entries
    floor = max(r, p.min_size) if require_admissible else r
    ordered = sorted(domain)
    if len(set(ordered)) < len(ordered):
        # the masks would merge a repeated index; the domain is an index set
        raise StructuralError("indices must be strictly increasing")
    bits = [1 << i for i in ordered]
    best: Optional[tuple[tuple[int, ...], int]] = None
    best_key: Optional[tuple[int, int]] = None
    target = floor      # the size a set must reach to be worth growing
    verdicts: dict[int, bool] = {}
    faces: dict[tuple[int, ...], list[int]] = {}

    def is_admissible(chosen: tuple[int, ...], mask: int, joinable: int = 0) -> bool:
        """Whether chosen (of mask `mask`) and the joinable indices make an
        admissible set."""
        ok = verdicts.get(mask | joinable)
        if ok is None:
            # every probe meets the size gate, so a miss still checks the depth
            indices = chosen + tuple(itertools.compress(ordered,
                                                        map(joinable.__and__, bits)))
            ok = verdicts[mask | joinable] = \
                _admissible_cached(family, indices, p) is TRUE
        return ok

    def color_masks(t: tuple[int, ...]) -> list[int]:
        masks = faces[t] = [0] * (missing + 1)
        top = t[-1] if t else 0
        for k in ordered:
            if k > top:     # so t + (k,) is a sorted key
                masks[table.get(t + (k,), missing)] |= 1 << k
        return masks

    def grow(chosen: tuple[int, ...], mask: int, color: Optional[int],
             joinable: int) -> None:
        nonlocal best, best_key, target
        size = len(chosen)
        if size >= floor:
            key = (-size, mask)
            if (best_key is None or key < best_key) and \
                    (not require_admissible or is_admissible(chosen, mask)):
                best, best_key, target = (chosen, color), key, size
        if size + joinable.bit_count() < target or (
                require_admissible and joinable and
                not is_admissible(chosen, mask, joinable)):
            return
        # past the arity, the faces of chosen + (j,) that leave j out were
        # used when `joinable` was narrowed; the others are a base plus j
        bases = list(itertools.combinations(chosen, r - 2)) if 1 < r <= size else ()
        rest = joinable
        while rest:
            low = rest & -rest
            rest ^= low         # the joinable indices above j
            if size + 1 + rest.bit_count() < target:
                break
            j = low.bit_length() - 1
            grown = chosen + (j,)
            if size + 1 < r:
                grow(grown, mask | low, None, rest)
                continue
            if size + 1 == r:
                c = f.of(grown)
                through = itertools.combinations(grown, r - 1)
            else:
                c = color
                through = [t + (j,) for t in bases]
            narrowed = rest
            for t in through:
                masks = faces.get(t) or color_masks(t)
                gap = narrowed & masks[missing]
                if gap:     # f.of raises at the lowest missing entry
                    f.of(t + ((gap & -gap).bit_length() - 1,))
                narrowed &= masks[c]
            # a set that cannot reach the target can neither be the best nor
            # grow into it, so it is not visited
            if size + 1 + narrowed.bit_count() >= target:
                grow(grown, mask | low, c, narrowed)

    grow((), 0, None, sum(bits))
    return best


def _scan(family: Family, f: Coloring, domain: tuple[int, ...],
          p: LargenessParams, require_admissible: bool = True
          ) -> Optional[tuple[Subfamily, int]]:
    """The exhaustive net: _exhaustive_mono's answer as (Subfamily, color)."""
    got = _exhaustive_mono(family, f, domain, p, require_admissible)
    return None if got is None else (Subfamily(family, got[0]), got[1])


#: the pair solver runs the exhaustive upgrade on domains of at most 12 indices
_PAIR_SCAN_CAP = 4096

#: the pair solver's route order, its last tie-break between candidates
_ROUTE_RANK = {"branch": 0, "exhaustive": 1, "classical": 2}


def _pair_candidates(family: Family, f: Coloring, p: LargenessParams,
                     domain: tuple[int, ...]
                     ) -> list[tuple[tuple[int, ...], int, str]]:
    """The pair solver's candidates on a sorted domain of two indices or
    more, in route order: branch walk, exhaustive upgrade (when it found an
    admissible set), classical net."""
    candidates: list[tuple[tuple[int, ...], int, str]] = []
    pivots, colors, shared = _branch_levels(f, domain)
    if len(pivots) >= 2:
        chosen, color = _majority(pivots, colors, domain)
        candidates.append((chosen, color, "branch"))
    if 2 ** len(domain) <= _PAIR_SCAN_CAP:
        got = _exhaustive_mono(family, f, domain, p, require_admissible=True)
        if got is not None:
            candidates.append((got[0], got[1], "exhaustive"))
    chosen, color = _classical_pivot_walk(f, domain, shared)
    candidates.append((chosen, color, "classical"))
    return candidates


def _solve_pairs_2(family: Family, f: Coloring, p: LargenessParams,
                   domain: Optional[tuple[int, ...]] = None
                   ) -> Optional[PartitionResult]:
    """The 2-color pair solver: branch walk, exhaustive upgrade, classical net."""
    domain = _domain(family, domain)
    if len(domain) < 2:
        return None
    return _best_pair(family, f, p, domain, _pair_candidates(family, f, p, domain))


def _best_pair(family: Family, f: Coloring, p: LargenessParams,
               domain: tuple[int, ...],
               candidates: list[tuple[tuple[int, ...], int, str]]
               ) -> PartitionResult:
    """The verified best candidate.

    Candidates are ranked by: meets the size guarantee, then admissible, then
    route order (branch walk, exhaustive, classical).  Admissibility is asked
    only as far as the ranking needs it: of the candidates that share the
    best size rank, in route order, until one is admissible, and at most
    once per distinct candidate.
    """
    bound = pair_size_guarantee(len(domain))
    ranked = sorted(candidates, key=lambda cand: (len(cand[0]) < bound,
                                                   _ROUTE_RANK[cand[2]]))
    best = ranked[0]
    # the indices are the solver's own, drawn in increasing order from
    # family.indices
    verdicts: dict[tuple[int, ...], tuple[Subfamily, ThreeVal]] = {}
    for cand in ranked:
        if (len(cand[0]) < bound) is not (len(best[0]) < bound):
            break
        if cand[0] not in verdicts:
            sub = Subfamily._trusted(family, cand[0])
            verdicts[cand[0]] = sub, admissible(sub, p)
        if verdicts[cand[0]][1] is TRUE:
            best = cand
            break
    indices, color, route = best
    # the candidates are sorted, and building them read each of their pairs
    pairs = list(itertools.combinations(indices, 2))
    if not pairs or countOf(map(f._table.get, pairs), color) != len(pairs):
        raise InternalCheckError("pair solver produced a non-monochromatic set")
    sub, verdict = verdicts[indices]
    return PartitionResult(sub, color, verdict, route)


def merge_colors_solve(family: Family, f: Coloring, base2solver: Solver,
                       p: LargenessParams,
                       domain: Optional[tuple[int, ...]] = None
                       ) -> Optional[tuple[Subfamily, int]]:
    """Cut a many-color pair instance down to two colors by merging the top.

    The top two colors become one; the reduced instance is solved
    recursively, and when the merged color wins, the two-color solver reruns
    on the residual domain to split it back apart.  Output is verified
    monochromatic and admissible.  When the induction finds nothing, a
    direct exhaustive scan answers instead.
    """
    if f.arity != 2:
        raise ContractError("color merging works on pair colorings")
    domain = _domain(family, domain)
    # the induction can die on a residual domain that happens to lack an
    # admissible monochromatic set; the direct scan settles solvability
    return _merge_colors_inner(family, f, base2solver, p, domain) or \
        _scan(family, f, domain, p)


def _merge_colors_inner(family: Family, f: Coloring, base2solver: Solver,
                        p: LargenessParams, domain: tuple[int, ...]
                        ) -> Optional[tuple[Subfamily, int]]:
    if f.colors <= 2:
        return _check_solver_output(family, f, base2solver(domain, f), p)
    c = f.colors
    g = Coloring(2, c - 1, {pair: min(f.of(pair), c - 2)
                            for pair in itertools.combinations(domain, 2)})
    sub = _merge_colors_inner(family, g, base2solver, p, domain)
    if sub is None:
        return None
    B, i = sub
    if i < c - 2:
        return _check_solver_output(family, f, (B.indices, i), p)
    h = Coloring(2, 2, {pair: f.of(pair) - (c - 2)
                        for pair in itertools.combinations(B.indices, 2)})
    got = base2solver(B.indices, h)
    if got is None:
        return None
    indices, j = got
    return _check_solver_output(family, f, (indices, (c - 2) + j), p)


def _check_solver_output(family: Family, f: Coloring,
                         got: Optional[tuple[tuple[int, ...], int]],
                         p: LargenessParams) -> Optional[tuple[Subfamily, int]]:
    if got is None:
        return None
    indices, color = got
    sub = Subfamily.of(family, indices)
    if not _verify_mono(f, sub.indices, color):
        raise ContractError("solver returned a non-monochromatic set")
    if admissible(sub, p) is not TRUE:
        raise ContractError("solver returned an inadmissible set")
    return sub, color


def project_solve(family: Family, f: Coloring, nsolver: Solver, n: int,
                  p: LargenessParams,
                  domain: Optional[tuple[int, ...]] = None
                  ) -> Optional[tuple[Subfamily, int]]:
    """Solve a pair instance through an n-tuple solver, n > 2.

    Each n-set inherits the color of its two smallest entries.  The n-tuple
    answer is checked on every pair; the top pairs of a finite answer can
    escape the induced constraint, so a failed check falls back to a direct
    exhaustive pair search.
    """
    if n <= 2:
        raise ContractError("projection needs n > 2")
    if f.arity != 2:
        raise ContractError("projection starts from a pair coloring")
    domain = _domain(family, domain)
    g = Coloring(n, f.colors, {combo: f.of(combo[:2])
                               for combo in itertools.combinations(domain, n)})
    got = nsolver(domain, g)
    if got is not None:
        indices, color = got
        if _verify_mono(f, tuple(sorted(indices)), color) and \
                admissible(Subfamily.of(family, indices), p) is TRUE:
            return Subfamily.of(family, indices), color
    return _scan(family, f, domain, p)


def stepup_solve(family: Family, f: Coloring, nsolver: Solver, two,
                 innings: int, p: LargenessParams,
                 domain: Optional[tuple[int, ...]] = None
                 ) -> Optional[tuple[Subfamily, int]]:
    """Lift an n-tuple solver to (n+1)-tuples by playing the selection game.

    Each inning ONE fixes the latest pick, homogenizes the coloring of the
    n-tuples completed by it, and plays the homogeneous pool; the picks whose
    recorded colors agree, past the first n of them, are the candidate output.
    When the play faults or no color class is admissible, a direct
    exhaustive scan answers instead.
    """
    domain = _domain(family, domain)
    # a faulted play or an inadmissible color class still leaves the instance
    # solvable at desk scale; the exhaustive net settles it either way
    return _stepup_play(family, f, nsolver, two, innings, p, domain) or \
        _scan(family, f, domain, p)


def _stepup_play(family: Family, f: Coloring, nsolver: Solver, two,
                 innings: int, p: LargenessParams, domain: tuple[int, ...]
                 ) -> Optional[tuple[Subfamily, int]]:
    """The step-up play alone: None when it faults or no class is admissible."""
    from . import games

    n = f.arity - 1
    if n < 1:
        raise ContractError("step-up needs arity at least 2")
    strategy = _StepUpOne(family, f, nsolver, domain, n)
    try:
        transcript = games.play(strategy, two, innings, p)
    except games.StrategyFault:
        return None
    colors = transcript.state["colors"]
    for i in sorted(set(colors.values())):
        w = tuple(pk for pos, pk in enumerate(transcript.picks, start=1)
                  if pos > n and colors.get(pk) == i)
        sub = Subfamily.of(family, w)
        if admissible(sub, p) is TRUE and _verify_mono(f, sub.indices, i):
            return sub, i
    return None


class _StepUpOne:
    """ONE's strategy for the step-up: homogenize around the latest pick.

    The state holds the pool the next inning homogenizes and the color each
    pick got when it was homogenized around.
    """

    def __init__(self, family: Family, f: Coloring, nsolver: Solver,
                 domain: tuple[int, ...], n: int) -> None:
        self.family = family
        self.f = f
        self.nsolver = nsolver
        self.domain = domain
        self.n = n

    def start(self) -> dict:
        return {"pool": None, "colors": {}}

    def _homogenize(self, fixed: int, pool: tuple[int, ...], inning: int
                    ) -> tuple[tuple[int, ...], int]:
        from . import games

        g = Coloring(self.n, self.f.colors,
                     {combo: self.f.of(tuple(sorted((fixed,) + combo)))
                      for combo in itertools.combinations(pool, self.n)})
        got = self.nsolver(pool, g)
        if got is None:
            raise games.StrategyFault(inning, "tuple solver found nothing")
        return tuple(sorted(got[0])), got[1]

    def move(self, state, picks):
        inning = len(picks) + 1
        if picks:
            fixed, pool = picks[-1], state["pool"]
        else:
            fixed, pool = self.domain[0], self.domain
        pool = tuple(i for i in pool if i != fixed)
        indices, color = self._homogenize(fixed, pool, inning)
        colors = {**state["colors"], fixed: color} if picks else state["colors"]
        return Subfamily(self.family, indices), {"pool": indices, "colors": colors}

    def certificates(self, state, picks):
        return ()


def solve_partition(family: Family, f: Coloring,
                    p: LargenessParams) -> Optional[PartitionResult]:
    """Dispatch a partition instance across the bundled reductions.

    Pairs with two colors go to the branch-walk solver; more colors are
    merged down, higher arities stepped up, and when that construction gives
    nothing the direct scan answers as route `exhaustive`.  Singleton
    colorings are plain pigeonhole.  Every output is verified; admissibility
    is reported, not required, except where a reduction needs it.
    """
    from . import games

    if len(family) == 0:
        return None
    n, k = f.arity, f.colors
    if n > 4 or k > 8:
        raise StructuralError("partition instances are capped at arity 4 and "
                              "8 colors so they stay exhaustively checkable")
    innings = max(games.DEFAULT_INNINGS, n + p.min_size + 3)
    two = games.GreedyTwo(p)

    if n == 1:
        classes: list[tuple[tuple[int, ...], int]] = []
        for color in range(k):
            cls = tuple(i for i in family.indices if f.of((i,)) == color)
            if cls:
                classes.append((cls, color))
        if not classes:
            return None
        for cls, color in classes:
            sub = Subfamily(family, cls)
            if admissible(sub, p) is TRUE:
                return PartitionResult(sub, color, TRUE, "pigeonhole")
        cls, color = max(classes, key=lambda c: (len(c[0]), -c[1]))
        sub = Subfamily(family, cls)
        return PartitionResult(sub, color, admissible(sub, p), "pigeonhole")

    def base2(domain: tuple[int, ...], g: Coloring
              ) -> Optional[tuple[tuple[int, ...], int]]:
        """The pair solver's answer when admissible, else the admissible
        exhaustive scan's, which small domains have among the candidates."""
        domain = tuple(sorted(domain))
        if len(domain) < 2:
            return None     # below the scan's floor of two indices
        candidates = _pair_candidates(family, g, p, domain)
        got = _best_pair(family, g, p, domain, candidates)
        if got.admissible is TRUE:
            return got.subfamily.indices, got.color
        if 2 ** len(domain) > _PAIR_SCAN_CAP:
            return _exhaustive_mono(family, g, domain, p, require_admissible=True)
        return next(((indices, color) for indices, color, route in candidates
                     if route == "exhaustive"), None)

    def solve(domain: tuple[int, ...], g: Coloring
              ) -> Optional[tuple[tuple[int, ...], int]]:
        """The nested solver: merge pairs down, step higher arities up."""
        if g.arity > 2:
            got = stepup_solve(family, g, solve, two, innings, p, domain)
        elif g.colors > 2:
            got = merge_colors_solve(family, g, base2, p, domain)
        else:
            # on two colors merging is base2 alone, which answers None only
            # when the admissible exhaustive scan found nothing
            got = _check_solver_output(family, g, base2(domain, g), p)
        return None if got is None else (got[0].indices, got[1])

    if n == 2 and k == 2:
        return _solve_pairs_2(family, f, p)
    if n == 2:
        got = _merge_colors_inner(family, f, base2, p, family.indices)
        route = "merge"
    else:
        got = _stepup_play(family, f, solve, two, innings, p, family.indices)
        route = "stepup"
    if got is None:
        # the reduction gave out: the direct scan answers, admissibly if it can
        route = "exhaustive"
        got = _scan(family, f, family.indices, p) or \
            _scan(family, f, family.indices, p, require_admissible=False)
        if got is None:
            return None
    sub, color = got
    return PartitionResult(sub, color, admissible(sub, p), route)


# --- the splitting step of the no-homogeneous-set analysis --------------------

class Step(Record):
    """A level where the candidate set escapes every admissible node.

    escape is an index of B past k outside the node, and continuation is B
    past k, intersected with the node.
    """

    __slots__ = ("k", "node_path", "node", "escape", "continuation")

    def __init__(self, k: int, node_path: tuple[int, ...], node: tuple[int, ...],
                 escape: int, continuation: Subfamily) -> None:
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "node_path", node_path)
        object.__setattr__(self, "node", node)
        object.__setattr__(self, "escape", escape)
        object.__setattr__(self, "continuation", continuation)


class NoStep(Record):
    """No level within the tree depth splits the candidate set."""

    __slots__ = ()


class LargenessFailure(Record):
    """A level split the set, but no admissible node met it admissibly."""

    __slots__ = ("k",)

    def __init__(self, k: int) -> None:
        object.__setattr__(self, "k", k)


def counterexample_step(B: Subfamily, tree: PartitionTree,
                        p: LargenessParams):
    """Find the least level where B leaves every admissible node behind.

    At such a level k the admissible node meeting B admissibly (canonical
    path order) is returned together with an escaping index and the
    continuation set, ready for iterating.  NoStep means B tracks a single
    branch through the materialized depth.
    """
    if B.family != tree.family:
        raise StructuralError("subfamily and tree come from different families")
    b_set = set(B.indices)
    for k in range(1, tree.depth + 1):
        if k not in b_set:
            continue
        residual = tuple(i for i in B.indices if i > k)
        nodes = [(path, content, set(content)) for path, content in tree.level(k)
                 if admissible(Subfamily(tree.family, content), p) is TRUE]
        if any(members.issuperset(residual) for _, _, members in nodes):
            continue
        meets = []
        for path, content, members in sorted(nodes, key=itemgetter(0)):
            overlap = tuple(i for i in residual if i in members)
            if admissible(Subfamily(tree.family, overlap), p) is TRUE:
                meets.append((path, content, members, overlap))
        if not meets:
            return LargenessFailure(k)
        path, content, members, overlap = meets[0]
        outside = [i for i in residual if i not in members]
        if not outside:
            raise InternalCheckError("escape index must exist at a split level")
        return Step(k, path, content, outside[0],
                    Subfamily(tree.family, overlap))
    return NoStep()
