"""Ellentuck basic sets, the accept/reject/decide calculus, and region handling.

A basic set [s, B] consists of every subfamily D with stem s <= D <= s u B
whose non-stem part lies entirely above the stem in the fixed enumeration.
Regions are sets of admissible subfamilies given explicitly, as finite unions
of basics, or as predicates; they are closed under union, intersection and
complement so that closure laws can be tested on composed values directly.

A reservoir B accepts a stem s against a region R when every admissible
member of [s, B] lies in R; it rejects s when no admissible subset of B
accepts s.  The decide search realizes the accept-or-reject dichotomy, and
cr_witness looks for a sub-reservoir on which a region is decided one way or
the other (the completely Ramsey property at finite scale).
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Iterable, Optional

from .ground import (
    CACHE_SIZE,
    EXHAUSTIVE_CAP,
    FALSE,
    TRUE,
    UNKNOWN,
    ContractError,
    DegenerateError,
    Family,
    LargenessParams,
    Record,
    StructuralError,
    Subfamily,
    ThreeVal,
    _admissible_cached,
    admissible,
    admissible_subsets,
    admissible_subsets_unknown_flag,
    json_indices,
    subsets_canonical,
    subsets_lazy,
)

Stem = tuple[int, ...]


def as_stem(indices: Iterable[int]) -> Stem:
    """Normalize an index iterable into a sorted, duplicate-free stem."""
    out = tuple(sorted(set(indices)))
    for i in out:
        if not isinstance(i, int) or i < 1:
            raise StructuralError(f"stem entry {i!r} is not a positive index")
    return out


def precedes(s: Iterable[int], B) -> bool:
    """s < B: the stem is empty or every index of s is below every index of B."""
    s_t = tuple(s)
    b_t = B.indices if isinstance(B, Subfamily) else tuple(B)
    if not s_t or not b_t:
        return True
    return max(s_t) < min(b_t)


def restrict(B: Subfamily, s: Iterable[int]) -> Subfamily:
    """B past s: the members of B whose index exceeds every index in s."""
    s_t = tuple(s)
    if not s_t:
        return B
    cut = max(s_t)
    return Subfamily(B.family, tuple(i for i in B.indices if i > cut))


class EllentuckBasic(Record):
    """A basic set [s, B]: stem plus reservoir, with s < B."""

    __slots__ = ("stem", "reservoir")

    def __init__(self, stem: Stem, reservoir: Subfamily) -> None:
        if stem != as_stem(stem):
            raise StructuralError("basic stem must be sorted and duplicate free")
        if not precedes(stem, reservoir):
            raise ContractError("basic needs stem < reservoir")
        object.__setattr__(self, "stem", stem)
        object.__setattr__(self, "reservoir", reservoir)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.stem, self.reservoir) == (other.stem, other.reservoir)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.stem, self.reservoir))

    def to_json(self) -> dict:
        return {"stem": list(self.stem), "reservoir": self.reservoir.to_json()}

    @classmethod
    def from_json(cls, data: dict, family: Family) -> "EllentuckBasic":
        try:
            return cls(as_stem(json_indices(data["stem"])),
                       Subfamily.from_json(data["reservoir"], family))
        except (KeyError, TypeError) as exc:
            raise StructuralError(f"malformed basic JSON: {exc!r}") from exc


def basic_contains(b: EllentuckBasic, D: Subfamily) -> bool:
    """Is D a member of [s, B]?  Needs s <= D <= s u B with D \\ s above s."""
    s = set(b.stem)
    d = set(D.indices)
    if not s <= d:
        return False
    if not d <= s | set(b.reservoir.indices):
        return False
    return precedes(b.stem, tuple(d - s))


class Region:
    """A set of admissible subfamilies with a total membership test."""

    __slots__ = ()

    def contains(self, D: Subfamily) -> bool:
        raise NotImplementedError


class ExplicitRegion(Region, Record):
    """A finite list of subfamilies, held as index tuples."""

    __slots__ = ("member_sets",)

    def __init__(self, member_sets: frozenset[tuple[int, ...]]) -> None:
        object.__setattr__(self, "member_sets", member_sets)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.member_sets,) == (other.member_sets,)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.member_sets,))

    @classmethod
    def of(cls, subfamilies: Iterable[Subfamily]) -> "ExplicitRegion":
        return cls(frozenset(sf.indices for sf in subfamilies))

    @classmethod
    def empty(cls) -> "ExplicitRegion":
        return cls(frozenset())

    def contains(self, D: Subfamily) -> bool:
        return D.indices in self.member_sets


class BasicUnionRegion(Region, Record):
    """A finite union of Ellentuck basics; the open sets of the engine."""

    __slots__ = ("basics",)

    def __init__(self, basics: tuple[EllentuckBasic, ...]) -> None:
        object.__setattr__(self, "basics", basics)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.basics,) == (other.basics,)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.basics,))

    def contains(self, D: Subfamily) -> bool:
        return any(basic_contains(b, D) for b in self.basics)


class PredicateRegion(Region, Record):
    """A region given by an effect-free, total predicate on subfamilies.

    The engine may test each member once, in any order, and reuse the answer.
    Two predicate regions are equal only when they are the same object.
    """

    __slots__ = ("fn", "label")

    def __init__(self, fn: Callable[[Subfamily], bool], label: str = "predicate") -> None:
        object.__setattr__(self, "fn", fn)
        object.__setattr__(self, "label", label)

    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def contains(self, D: Subfamily) -> bool:
        return bool(self.fn(D))


class UnionRegion(Region, Record):
    __slots__ = ("parts",)

    def __init__(self, parts: tuple[Region, ...]) -> None:
        object.__setattr__(self, "parts", parts)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.parts,) == (other.parts,)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.parts,))

    def contains(self, D: Subfamily) -> bool:
        return any(r.contains(D) for r in self.parts)


class IntersectionRegion(Region, Record):
    __slots__ = ("parts",)

    def __init__(self, parts: tuple[Region, ...]) -> None:
        object.__setattr__(self, "parts", parts)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.parts,) == (other.parts,)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.parts,))

    def contains(self, D: Subfamily) -> bool:
        return all(r.contains(D) for r in self.parts)


class ComplementRegion(Region, Record):
    """Complement relative to the admissible subfamilies (the ambient space)."""

    __slots__ = ("inner",)

    def __init__(self, inner: Region) -> None:
        object.__setattr__(self, "inner", inner)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.inner,) == (other.inner,)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.inner,))

    def contains(self, D: Subfamily) -> bool:
        return not self.inner.contains(D)


class MeagerPresentation(Record):
    """An increasing finite ladder of regions, each intended nowhere dense."""

    __slots__ = ("levels",)

    def __init__(self, levels: tuple[Region, ...]) -> None:
        if not levels:
            raise StructuralError("a meager presentation needs at least one level")
        object.__setattr__(self, "levels", levels)

    def level(self, k: int) -> Region:
        """1-based level access, clamped at the top (the ladder is increasing)."""
        return self.levels[min(k, len(self.levels)) - 1]


def region_to_json(region: Region) -> dict:
    if isinstance(region, ExplicitRegion):
        return {"type": "explicit",
                "sets": sorted((list(t) for t in region.member_sets))}
    if isinstance(region, BasicUnionRegion):
        return {"type": "basicUnion",
                "basics": [b.to_json() for b in region.basics]}
    if isinstance(region, UnionRegion):
        return {"type": "union", "parts": [region_to_json(r) for r in region.parts]}
    if isinstance(region, IntersectionRegion):
        return {"type": "intersection",
                "parts": [region_to_json(r) for r in region.parts]}
    if isinstance(region, ComplementRegion):
        return {"type": "complement", "inner": region_to_json(region.inner)}
    raise StructuralError(f"region of type {type(region).__name__} is not serializable")


def region_from_json(data: dict, family: Family) -> Region:
    if not isinstance(data, dict) or "type" not in data:
        raise StructuralError("region JSON needs a 'type' tag")
    kind = data["type"]
    try:
        if kind == "explicit":
            return ExplicitRegion(frozenset(Subfamily.of(family, json_indices(s)).indices
                                            for s in data["sets"]))
        if kind == "basicUnion":
            return BasicUnionRegion(tuple(
                EllentuckBasic.from_json(b, family) for b in data["basics"]))
        if kind == "union":
            return UnionRegion(tuple(region_from_json(r, family) for r in data["parts"]))
        if kind == "intersection":
            return IntersectionRegion(tuple(
                region_from_json(r, family) for r in data["parts"]))
        if kind == "complement":
            return ComplementRegion(region_from_json(data["inner"], family))
    except (KeyError, TypeError) as exc:
        raise StructuralError(f"malformed {kind} region JSON: {exc!r}") from exc
    raise StructuralError(f"unknown region type {kind!r}")


# --- accept / reject / decide ------------------------------------------------

class DecideOutcome(Record):
    """kind is 'accepts', 'rejects' or 'unknown'; witness carries the set."""

    __slots__ = ("kind", "witness")

    def __init__(self, kind: str, witness: Optional[Subfamily]) -> None:
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "witness", witness)


class CrOutcome(Record):
    """kind is 'inside', 'outside' or 'not_found'."""

    __slots__ = ("kind", "witness")

    def __init__(self, kind: str, witness: Optional[Subfamily]) -> None:
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "witness", witness)


class NwdOutcome(Record):
    """kind is 'witness' or 'not_found'."""

    __slots__ = ("kind", "witness")

    def __init__(self, kind: str, witness: Optional[Subfamily]) -> None:
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "witness", witness)


class StrongRejectResult(Record):
    """The element-wise rejection filter, plus whether it stayed admissible."""

    __slots__ = ("subfamily", "admissible")

    def __init__(self, subfamily: Subfamily, admissible: ThreeVal) -> None:
        object.__setattr__(self, "subfamily", subfamily)
        object.__setattr__(self, "admissible", admissible)


def _require_precedes(s: Stem, B: Subfamily) -> None:
    if not precedes(s, B):
        raise ContractError(f"stem {s} does not precede reservoir {B.indices}")


@lru_cache(maxsize=CACHE_SIZE)
def _basic_content(family: Family, stem: Stem, reservoir: tuple[int, ...],
                   p: LargenessParams) -> tuple[tuple[Subfamily, ...], bool]:
    """The admissible members of [stem, reservoir], ascending canonical order.

    Second component flags UNKNOWN admissibility somewhere in the block.
    """
    out = []
    saw_unknown = False
    for extra in subsets_canonical(reservoir):
        d_indices = tuple(sorted(set(stem) | set(extra)))
        verdict = _admissible_cached(family, d_indices, p)
        if verdict is TRUE:
            out.append(Subfamily(family, d_indices))
        elif verdict is UNKNOWN:
            saw_unknown = True
    return tuple(out), saw_unknown


def basic_content(b: EllentuckBasic, p: LargenessParams) -> tuple[Subfamily, ...]:
    """Admissible members of a basic, for callers that want the list itself."""
    content, _ = _basic_content(b.reservoir.family, b.stem, b.reservoir.indices, p)
    return content


def accepts(B: Subfamily, s: Stem, R: Region, p: LargenessParams) -> ThreeVal:
    """Does every admissible member of [s, B] lie in R?"""
    s = as_stem(s)
    _require_precedes(s, B)
    if 2 ** len(B.indices) <= min(p.search_bound, EXHAUSTIVE_CAP):
        content, saw_unknown = _basic_content(B.family, s, B.indices, p)
        for D in content:
            if not R.contains(D):
                return FALSE
        return UNKNOWN if saw_unknown else TRUE
    budget = p.search_bound
    saw_unknown = False
    for extra in subsets_lazy(B.indices):
        budget -= 1
        if budget < 0:
            return UNKNOWN
        d_indices = tuple(sorted(set(s) | set(extra)))
        verdict = _admissible_cached(B.family, d_indices, p)
        if verdict is UNKNOWN:
            saw_unknown = True
        elif verdict is TRUE and not R.contains(Subfamily(B.family, d_indices)):
            return FALSE
    return UNKNOWN if saw_unknown else TRUE


def rejects(B: Subfamily, s: Stem, R: Region, p: LargenessParams) -> ThreeVal:
    """Does no admissible subset of B accept s?"""
    s = as_stem(s)
    _require_precedes(s, B)
    return _rejects(B, s, R, p)


@lru_cache(maxsize=CACHE_SIZE)
def _rejects(B: Subfamily, s: Stem, R: Region, p: LargenessParams) -> ThreeVal:
    if 2 ** len(B.indices) <= min(p.search_bound, EXHAUSTIVE_CAP):
        saw_unknown = admissible_subsets_unknown_flag(B, p)
        for c_indices in admissible_subsets(B, p):
            a = accepts(Subfamily(B.family, c_indices), s, R, p)
            if a is TRUE:
                return FALSE
            if a is UNKNOWN:
                saw_unknown = True
        return UNKNOWN if saw_unknown else TRUE
    budget = p.search_bound
    saw_unknown = False
    for combo in subsets_lazy(B.indices, min_size=p.min_size):
        budget -= 1
        if budget < 0:
            return UNKNOWN
        verdict = _admissible_cached(B.family, combo, p)
        if verdict is UNKNOWN:
            saw_unknown = True
            continue
        if verdict is FALSE:
            continue
        a = accepts(Subfamily(B.family, combo), s, R, p)
        if a is TRUE:
            return FALSE
        if a is UNKNOWN:
            saw_unknown = True
    return UNKNOWN if saw_unknown else TRUE


def decide(B: Subfamily, s: Stem, R: Region, p: LargenessParams) -> DecideOutcome:
    """Find an admissible C <= B accepting s, else report that B rejects s.

    Candidates are scanned largest first (size descending, colex ties), so the
    full reservoir is tried before any shrinking.  Raises DegenerateError when
    B has no admissible subset at all.
    """
    s = as_stem(s)
    _require_precedes(s, B)
    return _decide(B, s, R, p)


@lru_cache(maxsize=CACHE_SIZE)
def _decide(B: Subfamily, s: Stem, R: Region, p: LargenessParams) -> DecideOutcome:
    candidates = admissible_subsets(B, p, descending=True)
    saw_unknown = admissible_subsets_unknown_flag(B, p)
    if not candidates:
        if saw_unknown:
            return DecideOutcome("unknown", None)
        raise DegenerateError("reservoir has no admissible subset to decide with")
    for c_indices in candidates:
        a = accepts(Subfamily(B.family, c_indices), s, R, p)
        if a is TRUE:
            return DecideOutcome("accepts", Subfamily(B.family, c_indices))
        if a is UNKNOWN:
            saw_unknown = True
    return DecideOutcome("unknown", None) if saw_unknown else DecideOutcome("rejects", B)


def strong_reject_set(t: Stem, B: Subfamily, R: Region,
                      p: LargenessParams) -> StrongRejectResult:
    """The elements u of B whose tail past t u {u} still rejects t u {u}.

    Requires that B past t rejects t.  The result is the candidate pool for
    the rejection-propagating strategy; whether it stayed admissible is
    reported rather than assumed, since finite truncation can break it.
    """
    t = as_stem(t)
    if rejects(restrict(B, t), t, R, p) is not TRUE:
        raise ContractError("strong_reject_set needs `B past t rejects t` to hold")
    kept = []
    for u in B.indices:
        stem_u = as_stem(t + (u,))
        if rejects(restrict(B, stem_u), stem_u, R, p) is TRUE:
            kept.append(u)
    sub = Subfamily(B.family, tuple(kept))
    return StrongRejectResult(sub, admissible(sub, p))


def cr_witness(R: Region, s: Stem, B: Subfamily, p: LargenessParams,
               innings: int = 4, subset_cap: int = 3,
               route: str = "auto") -> CrOutcome:
    """Find admissible C <= B with [s, C] inside R or disjoint from R.

    route 'auto' tries the constructive path first (decide the finite subsets
    along a play, then propagate rejection) and falls back to the exhaustive
    scan; 'exhaustive' skips straight to the scan.  Success is the same either
    way, the routes differ in which witness comes back first.  Every witness
    is re-verified before being returned.
    """
    s = as_stem(s)
    _require_precedes(s, B)
    if route not in ("auto", "exhaustive"):
        raise StructuralError(f"unknown cr_witness route {route!r}")

    got = None
    # B itself settles the trivial cases and is the best witness when it works
    if admissible(B, p) is TRUE:
        got = _cr_scan(R, s, B.family, (B.indices,), p)
    if got is None and route == "auto" and len(s) <= subset_cap:
        got = _cr_constructive(R, s, B, p, innings, subset_cap)
    if got is None:
        got = _cr_scan(R, s, B.family, admissible_subsets(B, p, descending=True), p)
    return got or CrOutcome("not_found", None)


def _cr_scan(R: Region, s: Stem, family: Family, candidates: Iterable[tuple[int, ...]],
             p: LargenessParams) -> Optional[CrOutcome]:
    """The first admissible candidate C with [s, C] inside or outside R, in order.

    A candidate with UNKNOWN admissibility in its content is skipped.
    """
    for c_indices in candidates:
        content, saw_unknown = _basic_content(family, s, c_indices, p)
        if saw_unknown:
            continue
        flags = [R.contains(D) for D in content]
        if all(flags):
            return CrOutcome("inside", Subfamily(family, c_indices))
        if not any(flags):
            return CrOutcome("outside", Subfamily(family, c_indices))
    return None


def _cr_constructive(R: Region, s: Stem, B: Subfamily, p: LargenessParams,
                     innings: int, subset_cap: int) -> Optional[CrOutcome]:
    from . import games  # local import; games builds on this module

    # the refinement play consumes picks from the decided base, so the base
    # play gets extra innings and the refinement only as many as largeness
    # needs
    base_innings = max(innings, p.min_size + 3)
    refine_innings = max(2, p.min_size)
    try:
        outcome = games.decide_all_finite(s, B, R, base_innings, p,
                                          subset_cap=subset_cap)
    except (ContractError, DegenerateError, games.StrategyFault):
        return None
    if not isinstance(outcome, games.DecidedAll):
        return None
    picks = outcome.picks
    verdict = dict(outcome.table).get(s)
    if verdict == "accepts":
        if accepts(picks, s, R, p) is TRUE:
            return CrOutcome("inside", picks)
        return None
    if verdict != "rejects":
        return None
    try:
        strategy = games.RejectionOne(s, picks, R, p, subset_cap=subset_cap)
        transcript = games.play(strategy, games.GreedyTwo(p), refine_innings, p)
    except (ContractError, games.StrategyFault):
        return None
    D = Subfamily(B.family, transcript.picks)
    if admissible(D, p) is not TRUE:
        return None
    if accepts(D, s, ComplementRegion(R), p) is TRUE:
        return CrOutcome("outside", D)
    return None


class _BasicsTable(tuple):
    """A tuple of (stem, reservoir, content keyset) entries, with `members`,
    the union of their keysets."""

    def __new__(cls, entries):
        self = super().__new__(cls, entries)
        self.members = frozenset().union(*(keys for _, _, keys in entries))
        return self


@lru_cache(maxsize=CACHE_SIZE)
def _all_basics_with_content(family: Family, p: LargenessParams) -> _BasicsTable:
    """Every basic with an admissible reservoir and nonempty admissible content.

    Reservoirs are required admissible: they stand in for the infinite large
    reservoirs of the idealized setting, and keeping them large is what stops
    single-point basics from acting as atoms.  Entries are (stem, reservoir,
    content keyset) in canonical order over stems, then reservoirs; the
    table's `members` is the union of the keysets, kept with the entries
    since it depends on nothing else.  Callers keep the family to at most 12
    members.
    """
    full = Subfamily.full(family)
    out = []
    for stem in subsets_canonical(full.indices):
        for reservoir in admissible_subsets(restrict(full, stem), p):
            content, _ = _basic_content(family, stem, reservoir, p)
            if content:
                out.append((stem, reservoir,
                            frozenset(D.indices for D in content)))
    return _BasicsTable(out)


def is_nowhere_dense(R: Region, family: Family, p: LargenessParams) -> ThreeVal:
    """Can every nonempty basic be shrunk to a nonempty sub-basic missing R?

    Quantifies over basics with admissible reservoirs and nonempty admissible
    content; sub-basic means containment of the admissible member sets.
    UNKNOWN when 3^n passes the search budget or the family has over 12
    members.
    """
    if 3 ** len(family) > p.search_bound or 2 ** len(family) > 4096:
        return UNKNOWN
    basics = _all_basics_with_content(family, p)
    # R is effect-free and total: one test per distinct member settles every
    # basic holding it
    inside = {d for d in basics.members if R.contains(Subfamily._trusted(family, d))}
    free = [keys for _, _, keys in basics if keys.isdisjoint(inside)]
    # a free basic is its own sub-basic missing R; only the others need one
    for _, _, keys in basics:
        if not keys.isdisjoint(inside) and not any(v <= keys for v in free):
            return FALSE
    return TRUE


def nwd_witness(R: Region, s: Stem, B: Subfamily, p: LargenessParams) -> NwdOutcome:
    """Find admissible C <= B with [s, C] disjoint from a nowhere dense R.

    The nowhere-density of R is checked first; a definite failure is a
    contract violation.  Candidates are scanned largest first.
    """
    s = as_stem(s)
    _require_precedes(s, B)
    nd = is_nowhere_dense(R, B.family, p)
    if nd is FALSE:
        raise ContractError("nwd_witness needs a nowhere dense region")
    for c_indices in admissible_subsets(B, p, descending=True):
        content, saw_unknown = _basic_content(B.family, s, c_indices, p)
        if saw_unknown:
            continue
        if all(not R.contains(D) for D in content):
            return NwdOutcome("witness", Subfamily(B.family, c_indices))
    return NwdOutcome("not_found", None)


def baire_region(open_part: BasicUnionRegion,
                 meager: MeagerPresentation) -> Region:
    """Symmetric difference of an open region and a meager ladder's union.

    This is the only Baire-style shape the engine represents: open sets are
    finite unions of basics, meager sets come as explicit ladders, and
    everything else has to be composed from these.
    """
    m = UnionRegion(meager.levels)
    return UnionRegion((
        IntersectionRegion((open_part, ComplementRegion(m))),
        IntersectionRegion((m, ComplementRegion(open_part))),
    ))


def nwd_meager_report(pres: MeagerPresentation, family: Family,
                      p: LargenessParams) -> dict:
    """Compare levelwise nowhere-density with nowhere-density of the union.

    At finite scale a union of nowhere dense levels need not be nowhere
    dense, so the two checks are exposed side by side and any disagreement
    is flagged instead of papered over.
    """
    level_verdicts = [is_nowhere_dense(r, family, p) for r in pres.levels]
    union_verdict = is_nowhere_dense(UnionRegion(pres.levels), family, p)
    agree: ThreeVal
    if any(v is UNKNOWN for v in level_verdicts) or union_verdict is UNKNOWN:
        agree = UNKNOWN
    else:
        all_levels_nwd = all(v is TRUE for v in level_verdicts)
        agree = ThreeVal.of(all_levels_nwd == (union_verdict is TRUE))
    return {"levels": [v.value for v in level_verdicts],
            "union": union_verdict.value,
            "agreement": agree.value}
