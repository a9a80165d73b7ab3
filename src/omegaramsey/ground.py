"""Finite ground objects: universes, indexed families, and the largeness predicate.

A Family is a finite, bijectively indexed sequence of proper nonempty subsets
of a finite point universe.  A Subfamily selects some of those indices.  The
largeness notion used throughout the package is the depth-d cover test: every
point set of size at most d must lie inside some selected member.  Subfamilies
that pass the cover test and a minimum-size gate are called admissible; they
are the finite stand-in for infinite large subfamilies, and every search in
the package quantifies over them.

Members may never equal the whole universe, so a cover at depth M is
impossible by construction; the depth is required to stay strictly below the
universe size.  That restriction is the price of working at finite scale.
"""

from __future__ import annotations

import itertools
from enum import Enum
from functools import lru_cache
from typing import Iterable, Iterator, Optional, Sequence


class EngineError(Exception):
    """Base class for all errors raised by this package."""


class StructuralError(EngineError):
    """Malformed value: bad indices, bad points, bad shapes."""


class ContractError(EngineError):
    """A documented precondition of an operation was violated."""


class DegenerateError(EngineError):
    """The input is too small or too empty for the operation to mean anything."""


class InternalCheckError(EngineError):
    """A self-verification that must never fail did fail; this is a bug."""


class ThreeVal(Enum):
    """Three-valued verdict.  UNKNOWN means a search budget ran out.

    Deliberately not coercible to bool so that UNKNOWN can never be silently
    treated as a definite answer.
    """

    TRUE = "true"
    FALSE = "false"
    UNKNOWN = "unknown"

    @classmethod
    def of(cls, flag: bool) -> "ThreeVal":
        return cls.TRUE if flag else cls.FALSE

    def __bool__(self) -> bool:
        raise TypeError("ThreeVal does not coerce to bool; compare against "
                        "ThreeVal.TRUE / FALSE / UNKNOWN explicitly")


TRUE = ThreeVal.TRUE
FALSE = ThreeVal.FALSE
UNKNOWN = ThreeVal.UNKNOWN

#: Hard cap on exhaustive subset enumerations taken in one gulp.  Above this
#: the budgeted streaming paths are used instead.
EXHAUSTIVE_CAP = 65536

#: Entry cap of every memo in the engine and the oracle; each is an
#: `lru_cache`, so memory stays bounded however many families a process sees.
CACHE_SIZE = 16384


def colex_key(t: Sequence[int]) -> tuple[int, ...]:
    """Sort key realizing colexicographic order on sorted index tuples."""
    return tuple(reversed(t))


def subsets_canonical(pool: Iterable[int], min_size: int = 0,
                      max_size: Optional[int] = None) -> Iterator[tuple[int, ...]]:
    """All subsets of pool in canonical order: size ascending, colex within size."""
    items = sorted(pool)
    hi = len(items) if max_size is None else min(max_size, len(items))
    for size in range(min_size, hi + 1):
        yield from sorted(itertools.combinations(items, size), key=colex_key)


def subsets_lazy(pool: Iterable[int], min_size: int = 0) -> Iterator[tuple[int, ...]]:
    """Size-ascending subset stream without the colex sort.

    Used by budgeted scans over pools too large to materialize a size layer;
    those scans are order-independent, so only laziness matters here.
    """
    items = sorted(pool)
    for size in range(min_size, len(items) + 1):
        yield from itertools.combinations(items, size)


class Record:
    """Base of the engine's immutable value records.

    A record class names its fields in `__slots__`, in declaration order, and
    writes an `__init__` that validates its arguments and sets each field
    with `object.__setattr__`; `_trusted` builds one without that check.
    Records print as `Name(field=value, ...)`, are equal when they are of one
    class with equal field tuples, hash as their field tuple, refuse
    assignment and deletion, and copy and pickle by calling their class with
    their field values.  Records used as cache keys define `__eq__` and
    `__hash__` over their fields inline, which is faster than the generic
    pair here.
    """

    __slots__ = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        # each field's slot descriptor setter, which `_trusted` calls directly
        cls._slot_setters = tuple([getattr(cls, name).__set__ for name in cls.__slots__])

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __repr__(self) -> str:
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self.__slots__])
        return f"{self.__class__.__qualname__}({fields})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, self._values()

    @classmethod
    def _trusted(cls, *values):
        """An instance with `values` set as its fields in `__slots__` order,
        without running `__init__`.

        Only for values the engine built itself and knows to be valid, such
        as index tuples taken from `admissible_subsets` of a checked pool;
        anything read from a caller or a file goes through the class itself.
        """
        self = object.__new__(cls)
        for setter, value in zip(cls._slot_setters, values):
            setter(self, value)
        return self


class Universe(Record):
    """A finite point universe; points are 1..size."""

    __slots__ = ("size",)

    def __init__(self, size: int) -> None:
        if not isinstance(size, int) or size < 2:
            raise StructuralError(f"universe size must be an integer >= 2, got {size!r}")
        object.__setattr__(self, "size", size)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.size,) == (other.size,)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.size,))

    def points(self) -> range:
        return range(1, self.size + 1)


class Family(Record):
    """An indexed sequence of proper nonempty point sets.

    Indices are 1-based and fixed: they are labels, so duplicate point sets at
    distinct indices are allowed.
    """

    __slots__ = ("universe", "members")

    def __init__(self, universe: Universe, members: tuple[frozenset[int], ...]) -> None:
        pts = set(universe.points())
        for i, m in enumerate(members, start=1):
            if not isinstance(m, frozenset):
                raise StructuralError(f"member {i} must be a frozenset")
            if not m:
                raise StructuralError(f"member {i} is empty")
            if not m <= pts:
                raise StructuralError(f"member {i} has points outside the universe")
            if m == pts:
                raise StructuralError(f"member {i} equals the whole universe")
        object.__setattr__(self, "universe", universe)
        object.__setattr__(self, "members", members)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.universe, self.members) == (other.universe, other.members)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.universe, self.members))

    def __len__(self) -> int:
        return len(self.members)

    @property
    def indices(self) -> tuple[int, ...]:
        return tuple(range(1, len(self.members) + 1))

    def member(self, index: int) -> frozenset[int]:
        if not 1 <= index <= len(self.members):
            raise StructuralError(f"index {index} out of range 1..{len(self.members)}")
        return self.members[index - 1]

    @classmethod
    def of(cls, universe_size: int, members: Iterable[Iterable[int]]) -> "Family":
        return cls(Universe(universe_size),
                   tuple(frozenset(m) for m in members))

    def to_json(self) -> dict:
        return {"universe": self.universe.size,
                "members": [sorted(m) for m in self.members]}

    @classmethod
    def from_json(cls, data: dict) -> "Family":
        if not isinstance(data, dict) or "universe" not in data or "members" not in data:
            raise StructuralError("family JSON needs 'universe' and 'members'")
        try:
            return cls.of(data["universe"], data["members"])
        except TypeError as exc:
            raise StructuralError(f"malformed family JSON: {exc}") from exc


def json_indices(values):
    """An index array read from JSON, refused when it holds `true` or `false`:
    JSON booleans load as Python bools, which pass for the ints 1 and 0."""
    for v in values:
        if v is True or v is False:
            raise StructuralError(f"index {str(v).lower()} is not an integer")
    return values


class Subfamily(Record):
    """A sorted set of indices into a Family."""

    __slots__ = ("family", "indices")

    def __init__(self, family: Family, indices: tuple[int, ...]) -> None:
        n = len(family)
        last = 0
        for i in indices:
            if not isinstance(i, int) or not 1 <= i <= n:
                raise StructuralError(f"index {i!r} out of range 1..{n}")
            if i <= last:
                raise StructuralError("indices must be strictly increasing")
            last = i
        object.__setattr__(self, "family", family)
        object.__setattr__(self, "indices", indices)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.family, self.indices) == (other.family, other.indices)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.family, self.indices))

    @classmethod
    def of(cls, family: Family, indices: Iterable[int]) -> "Subfamily":
        return cls(family, tuple(sorted(set(indices))))

    @classmethod
    def full(cls, family: Family) -> "Subfamily":
        return cls(family, family.indices)

    def __len__(self) -> int:
        return len(self.indices)

    def members(self) -> tuple[frozenset[int], ...]:
        return tuple(self.family.member(i) for i in self.indices)

    def to_json(self) -> list[int]:
        return list(self.indices)

    @classmethod
    def from_json(cls, data: list, family: Family) -> "Subfamily":
        if not isinstance(data, list):
            raise StructuralError("subfamily JSON must be an index array")
        try:
            return cls.of(family, json_indices(data))
        except TypeError as exc:
            raise StructuralError(f"malformed subfamily JSON: {exc}") from exc


class LargenessParams(Record):
    """Parameters of the largeness predicate and the search budgets.

    d is the cover depth, min_size the size gate for admissibility, and
    search_bound caps enumeration work before an operation gives up and
    answers UNKNOWN.
    """

    __slots__ = ("d", "min_size", "search_bound")

    def __init__(self, d: int, min_size: int, search_bound: int = 1_000_000) -> None:
        if d < 1:
            raise StructuralError("cover depth d must be >= 1")
        if min_size < 1:
            raise StructuralError("min_size must be >= 1")
        if search_bound < 1:
            raise StructuralError("search_bound must be >= 1")
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "min_size", min_size)
        object.__setattr__(self, "search_bound", search_bound)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return ((self.d, self.min_size, self.search_bound)
                    == (other.d, other.min_size, other.search_bound))
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.d, self.min_size, self.search_bound))


class CoverVerdict(Record):
    """Outcome of a depth-d cover check.

    status TRUE means cover; FALSE carries a concrete uncovered point set as
    witness; UNKNOWN means the enumeration budget ran out first.
    """

    __slots__ = ("status", "witness")

    def __init__(self, status: ThreeVal, witness: Optional[frozenset[int]] = None) -> None:
        object.__setattr__(self, "status", status)
        object.__setattr__(self, "witness", witness)


def _check_depth(family: Family, p: LargenessParams) -> None:
    if p.d >= family.universe.size:
        raise StructuralError(
            f"cover depth d={p.d} must be smaller than the universe size "
            f"{family.universe.size}")


def check_d_omega_cover(sub: Subfamily, p: LargenessParams) -> CoverVerdict:
    """Does every point set of size <= d lie inside some member of sub?

    Point sets are scanned in canonical order (size ascending, colex), so the
    witness of a failed check is deterministic.
    """
    fam = sub.family
    _check_depth(fam, p)
    members = sub.members()
    budget = p.search_bound
    for size in range(1, p.d + 1):
        for f_tuple in sorted(itertools.combinations(fam.universe.points(), size),
                              key=colex_key):
            budget -= 1
            if budget < 0:
                return CoverVerdict(UNKNOWN)
            f_set = frozenset(f_tuple)
            if not any(f_set <= m for m in members):
                return CoverVerdict(FALSE, f_set)
    return CoverVerdict(TRUE)


@lru_cache(maxsize=CACHE_SIZE)
def _admissible_cached(family: Family, indices: tuple[int, ...],
                       p: LargenessParams) -> ThreeVal:
    if len(indices) < p.min_size:
        return FALSE
    return check_d_omega_cover(Subfamily(family, indices), p).status


def admissible(sub: Subfamily, p: LargenessParams) -> ThreeVal:
    """Size gate plus depth-d cover, as a three-valued verdict."""
    _check_depth(sub.family, p)
    return _admissible_cached(sub.family, sub.indices, p)


def enumerate_admissible(B: Subfamily, p: LargenessParams,
                         limit: Optional[int] = None) -> Iterator[Subfamily]:
    """Admissible subsets of B in canonical order (size ascending, colex).

    Yields at most `limit` items; exhaustive when the total count fits.
    """
    if limit is not None and limit < 0:
        raise StructuralError("limit must be >= 0")
    emitted = 0
    for combo in subsets_canonical(B.indices, min_size=p.min_size):
        if limit is not None and emitted >= limit:
            return
        if _admissible_cached(B.family, combo, p) is TRUE:
            yield Subfamily(B.family, combo)
            emitted += 1


@lru_cache(maxsize=CACHE_SIZE)
def _admissible_subsets_asc(family: Family, indices: tuple[int, ...], p: LargenessParams
                            ) -> tuple[tuple[tuple[int, ...], ...], bool,
                                       tuple[tuple[int, ...], ...]]:
    """All admissible subsets of an index pool, in both orders.

    Entries are (ascending, saw_unknown, descending).  The ascending tuple is
    in canonical order; saw_unknown flags whether any subset had UNKNOWN
    admissibility; the descending tuple holds the same subsets with the size
    blocks reversed and colex order kept within each size, built once here
    so that no caller sorts.  Only used when the pool is small enough to
    enumerate exhaustively.
    """
    out = []
    saw_unknown = False
    for combo in subsets_canonical(indices, min_size=p.min_size):
        verdict = _admissible_cached(family, combo, p)
        if verdict is TRUE:
            out.append(combo)
        elif verdict is UNKNOWN:
            saw_unknown = True
    blocks = [tuple(block) for _, block in itertools.groupby(out, key=len)]
    return tuple(out), saw_unknown, tuple(itertools.chain.from_iterable(reversed(blocks)))


def admissible_subsets(B: Subfamily, p: LargenessParams,
                       descending: bool = False) -> tuple[tuple[int, ...], ...]:
    """Cached exhaustive list of admissible subsets of B.

    Ascending canonical order by default; descending flips the size order
    while keeping colex ties, which is the order used by witness searches.
    Both orders come from one cache entry, so neither is sorted per call.
    Callers must keep the pool small (2**len(B) <= EXHAUSTIVE_CAP).
    """
    if 2 ** len(B.indices) > EXHAUSTIVE_CAP:
        raise EngineError(f"pool of {len(B.indices)} indices is too large for "
                          f"exhaustive admissible-subset listing")
    asc, _, desc = _admissible_subsets_asc(B.family, B.indices, p)
    return desc if descending else asc


def admissible_subsets_unknown_flag(B: Subfamily, p: LargenessParams) -> bool:
    """True when some subset of B had UNKNOWN admissibility in the cached scan."""
    return _admissible_subsets_asc(B.family, B.indices, p)[1]
