"""The one-pick-per-inning selection game and the strategies built on it.

Player ONE plays an admissible subfamily each inning, TWO picks one index out
of it; TWO wins a bounded play when the set of picks is itself admissible.
Besides the plain engine (play / two_wins / s1_select) this module bundles
the three proof-shaped ONE strategies: the fusion strategy that decides every
small finite stem along the play, the rejection strategy that propagates a
rejection certificate, and the avoidance strategy that steers the play clear
of an increasing ladder of nowhere dense regions.  Each strategy carries its
bookkeeping as explicit state, which the play hands back with the transcript,
and emits checkable certificates.
"""

from __future__ import annotations

import itertools
from typing import Optional, Sequence

from .ground import (
    FALSE,
    TRUE,
    UNKNOWN,
    ContractError,
    DegenerateError,
    EngineError,
    Family,
    LargenessParams,
    Record,
    StructuralError,
    Subfamily,
    ThreeVal,
    admissible,
    subsets_canonical,
)
from .ellentuck import (
    MeagerPresentation,
    Region,
    Stem,
    as_stem,
    decide,
    nwd_witness,
    precedes,
    rejects,
    restrict,
    strong_reject_set,
)

DEFAULT_INNINGS = 8
DEFAULT_SUBSET_CAP = 3


class StrategyFault(EngineError):
    """A strategy could not produce a legal move; carries the inning."""

    def __init__(self, inning: int, reason: str) -> None:
        super().__init__(f"inning {inning}: {reason}")
        self.inning = inning
        self.reason = reason


class Transcript(Record):
    """A bounded play: ONE's moves, TWO's picks, the verdict ("ONE", "TWO" or
    "unknown"), and ONE's state after its last move."""

    __slots__ = ("moves", "picks", "winner", "state", "certificates")

    def __init__(self, moves: tuple[Subfamily, ...], picks: tuple[int, ...], winner: str,
                 state: dict, certificates: tuple[dict, ...] = ()) -> None:
        object.__setattr__(self, "moves", moves)
        object.__setattr__(self, "picks", picks)
        object.__setattr__(self, "winner", winner)
        object.__setattr__(self, "state", state)
        object.__setattr__(self, "certificates", certificates)

    def to_json(self) -> dict:
        return {
            "innings": [{"one": list(m.indices), "two": t}
                        for m, t in zip(self.moves, self.picks)],
            "winner": self.winner,
            "certificates": [dict(sorted(c.items())) for c in self.certificates],
        }


class OneStrategy:
    """ONE's side: an initial state and a pure move function."""

    def start(self) -> dict:
        return {}

    def move(self, state: dict, picks: tuple[int, ...]) -> tuple[Subfamily, dict]:
        """Return (move, new state) for the next inning."""
        raise NotImplementedError

    def certificates(self, state: dict, picks: tuple[int, ...]) -> tuple[dict, ...]:
        return ()


class TwoStrategy:
    """TWO's side: pick one index out of ONE's current move."""

    def pick(self, moves: tuple[Subfamily, ...], picks: tuple[int, ...],
             current: Subfamily) -> int:
        raise NotImplementedError


class ConstantOne(OneStrategy):
    """Plays the same fixed subfamily every inning."""

    def __init__(self, move: Subfamily) -> None:
        self._move = move

    def move(self, state, picks):
        return self._move, state


class LeastIndexTwo(TwoStrategy):
    def pick(self, moves, picks, current):
        return current.indices[0]


class GreedyTwo(TwoStrategy):
    """Picks the member covering the most still-uncovered depth-d point sets.

    Ties break toward the least index, so plays are reproducible.
    """

    def __init__(self, p: LargenessParams) -> None:
        self.p = p

    def pick(self, moves, picks, current):
        fam = current.family
        d = self.p.d
        covered: set[tuple[int, ...]] = set()
        for i in picks:
            covered.update(itertools.combinations(sorted(fam.member(i)), d))
        best_index = None
        best_gain = -1
        for i in current.indices:
            gain = sum(1 for c in itertools.combinations(sorted(fam.member(i)), d)
                       if c not in covered)
            if gain > best_gain:
                best_gain = gain
                best_index = i
        return best_index


def play(one: OneStrategy, two: TwoStrategy, innings: int,
         p: LargenessParams) -> Transcript:
    """Run a bounded play, validating every move and pick.

    Deterministic for deterministic strategies.  An inadmissible move or an
    illegal pick raises StrategyFault naming the inning.
    """
    if innings < 1:
        raise StructuralError("a play needs at least one inning")
    state = one.start()
    moves: list[Subfamily] = []
    picks: list[int] = []
    for inning in range(1, innings + 1):
        try:
            move, state = one.move(state, tuple(picks))
        except (ContractError, DegenerateError) as exc:
            raise StrategyFault(inning, f"strategy failed: {exc}") from exc
        if admissible(move, p) is not TRUE:
            raise StrategyFault(inning, "ONE emitted an inadmissible cover")
        pick = two.pick(tuple(moves), tuple(picks), move)
        if pick not in move.indices:
            raise StrategyFault(inning, f"TWO picked {pick} outside ONE's move")
        moves.append(move)
        picks.append(pick)
    verdict = two_wins_picks(moves[0].family, tuple(picks), p)
    winner = {TRUE: "TWO", FALSE: "ONE", UNKNOWN: "unknown"}[verdict]
    certs = one.certificates(state, tuple(picks))
    return Transcript(tuple(moves), tuple(picks), winner, state, certs)


def two_wins_picks(family: Family, picks: tuple[int, ...],
                   p: LargenessParams) -> ThreeVal:
    return admissible(Subfamily.of(family, picks), p)


def two_wins(t: Transcript, p: LargenessParams) -> ThreeVal:
    """Is the set of TWO's picks admissible?  Duplicate picks collapse."""
    if not t.moves:
        return FALSE
    return two_wins_picks(t.moves[0].family, t.picks, p)


class Selection(Record):
    __slots__ = ("indices",)


class NotFound(Record):
    __slots__ = ("reason",)

    def __init__(self, reason: str = "") -> None:
        object.__setattr__(self, "reason", reason)


def s1_select(covers: Sequence[Subfamily], p: LargenessParams):
    """Pick one member per cover so that the picks form an admissible set.

    Greedy first (largest fresh depth-d coverage, least index on ties), then
    exhaustive backtracking in canonical order.  NotFound only after the
    backtracker ran out of options or budget.  Callers are expected to hand
    in admissible covers; degenerate covers are searched all the same and
    simply cannot yield a selection.
    """
    if not covers:
        raise StructuralError("need at least one cover")
    fam = covers[0].family
    for i, cover in enumerate(covers):
        if len(cover) == 0:
            raise StructuralError(f"cover {i + 1} is empty")
        if cover.family is not fam and cover.family != fam:
            raise StructuralError("covers must share one family")

    d = p.d
    member_sets = {i: frozenset(itertools.combinations(sorted(fam.member(i)), d))
                   for c in covers for i in c.indices}

    picks: list[int] = []
    covered: set = set()
    for cover in covers:
        best, best_gain = None, -1
        for i in cover.indices:
            gain = len(member_sets[i] - covered)
            if gain > best_gain:
                best, best_gain = i, gain
        picks.append(best)
        covered |= member_sets[best]
    if admissible(Subfamily.of(fam, picks), p) is TRUE:
        return Selection(tuple(picks))

    budget = p.search_bound

    def backtrack(pos: int, chosen: tuple[int, ...]) -> Optional[tuple[int, ...]]:
        nonlocal budget
        if pos == len(covers):
            if admissible(Subfamily.of(fam, chosen), p) is TRUE:
                return chosen
            return None
        for i in covers[pos].indices:
            budget -= 1
            if budget < 0:
                return None
            got = backtrack(pos + 1, chosen + (i,))
            if got is not None:
                return got
        return None

    got = backtrack(0, ())
    if got is not None:
        return Selection(got)
    return NotFound("no selection with admissible picks" if budget >= 0
                    else "search budget exhausted")


# --- the fusion strategy and its wrapper --------------------------------------

def _new_stems(base: Stem, picks: tuple[int, ...], cap: int) -> list[Stem]:
    """Stems of size <= cap inside base u picks that involve the latest pick
    (or, on the first inning, every stem inside the base)."""
    pool = tuple(sorted(set(base) | set(picks)))
    out = []
    for stem in subsets_canonical(pool, max_size=cap):
        if picks and picks[-1] not in stem:
            continue
        out.append(stem)
    return out


class FusionOne(OneStrategy):
    """Decides every small stem inside base u picks, shrinking the reservoir.

    Each inning the newly reachable stems are decided in canonical order
    against the target region; an accepting sub-reservoir replaces the
    reservoir, a rejection keeps it.  The decided-verdict table rides along
    in the state.
    """

    def __init__(self, t: Stem, B: Subfamily, R: Region, p: LargenessParams,
                 subset_cap: int = DEFAULT_SUBSET_CAP) -> None:
        self.t = as_stem(t)
        if not precedes(self.t, B):
            raise ContractError("fusion needs base stem < reservoir")
        self.B = B
        self.R = R
        self.p = p
        self.cap = subset_cap

    def start(self) -> dict:
        return {"reservoir": self.B, "table": ()}

    def move(self, state, picks):
        inning = len(picks) + 1
        reservoir: Subfamily = state["reservoir"]
        if picks:
            reservoir = restrict(reservoir, (picks[-1],))
        table = dict(state["table"])
        for stem in _new_stems(self.t, picks, self.cap):
            if stem in table:
                continue
            outcome = decide(reservoir, stem, self.R, self.p)
            if outcome.kind == "unknown":
                raise StrategyFault(inning, "decide ran out of budget")
            if outcome.kind == "accepts":
                reservoir = outcome.witness
            table[stem] = outcome.kind
        return reservoir, {"reservoir": reservoir,
                           "table": tuple(sorted(table.items()))}


class DecidedAll(Record):
    """A finished fusion run: terminal set (base stem together with the
    picks), the picks alone, and the verdict table."""

    __slots__ = ("terminal", "picks", "table")


class DecideAllFailed(Record):
    __slots__ = ("inning", "reason")


def decide_all_finite(t: Stem, B: Subfamily, R: Region, innings: int,
                      p: LargenessParams,
                      subset_cap: int = DEFAULT_SUBSET_CAP,
                      two: Optional[TwoStrategy] = None):
    """Run the fusion strategy against greedy TWO and package the result.

    Succeeds when the play completes, TWO's picks are admissible, and every
    stem of size <= cap inside t u picks has a recorded verdict.  Verdicts
    attach to the picks past the stem, which is the set the hereditary
    transfer lands on.
    """
    t = as_stem(t)
    strategy = FusionOne(t, B, R, p, subset_cap=subset_cap)
    opponent = two if two is not None else GreedyTwo(p)
    try:
        transcript = play(strategy, opponent, innings, p)
    except StrategyFault as fault:
        return DecideAllFailed(fault.inning, fault.reason)
    if transcript.winner != "TWO":
        return DecideAllFailed(None, f"picks not admissible ({transcript.winner})")
    picks = Subfamily.of(B.family, transcript.picks)
    terminal = Subfamily.of(B.family, set(t) | set(transcript.picks))
    # one more decision pass so stems involving the final pick get verdicts,
    # exactly as the next inning would have decided them
    try:
        _, state = strategy.move(transcript.state, transcript.picks)
    except StrategyFault as fault:
        return DecideAllFailed(fault.inning, fault.reason)
    except (ContractError, DegenerateError) as exc:
        return DecideAllFailed(len(transcript.picks) + 1, str(exc))
    table = dict(state["table"])
    for stem in subsets_canonical(terminal.indices, max_size=subset_cap):
        if stem not in table:
            return DecideAllFailed(None, f"stem {stem} left undecided")
    return DecidedAll(terminal, picks, tuple(sorted(table.items())))


# --- the rejection-propagating strategy ---------------------------------------

class RejectionOne(OneStrategy):
    """Keeps only elements whose every small stem extension still rejects.

    Needs a reservoir that already rejects the base stem; the first move is
    the element-wise rejection filter, later moves re-filter past each pick.
    The post-play certificate claims that the picks past any small F reject
    base u F.
    """

    def __init__(self, s: Stem, B: Subfamily, R: Region, p: LargenessParams,
                 subset_cap: int = DEFAULT_SUBSET_CAP) -> None:
        self.s = as_stem(s)
        self.B = B
        self.R = R
        self.p = p
        self.cap = subset_cap
        if rejects(restrict(B, self.s), self.s, R, p) is not TRUE:
            raise ContractError("rejection strategy needs `B past s rejects s`")

    def start(self) -> dict:
        return {"prev": None}

    def move(self, state, picks):
        inning = len(picks) + 1
        if inning == 1:
            got = strong_reject_set(self.s, restrict(self.B, self.s), self.R, self.p)
            if got.admissible is not TRUE:
                raise StrategyFault(
                    inning, "rejection filter left an inadmissible pool "
                            "(largeness lost at finite scale)")
            move = got.subfamily
        else:
            prev: Subfamily = state["prev"]
            kept = []
            for u in restrict(prev, (picks[-1],)).indices:
                ok = True
                for f_stem in subsets_canonical(sorted(set(picks) | {u}),
                                                max_size=self.cap):
                    target = as_stem(self.s + f_stem)
                    if rejects(restrict(prev, f_stem), target, self.R, self.p) is not TRUE:
                        ok = False
                        break
                if not ok:
                    continue
                kept.append(u)
            move = Subfamily(self.B.family, tuple(kept))
            if admissible(move, self.p) is not TRUE:
                raise StrategyFault(
                    inning, "rejection filter left an inadmissible pool "
                            "(largeness lost at finite scale)")
        return move, {"prev": move}

    def certificates(self, state, picks):
        picks_sub = Subfamily.of(self.B.family, picks)
        out = []
        for f_stem in subsets_canonical(picks, max_size=self.cap):
            out.append({
                "claim": "rejects",
                "stem": list(as_stem(self.s + f_stem)),
                "set": list(restrict(picks_sub, f_stem).indices),
            })
        return tuple(out)


# --- the meager-avoidance strategy --------------------------------------------

class MeagerAvoidOne(OneStrategy):
    """Shrinks the reservoir so each move misses one more ladder level.

    At inning k the move is refined, one small stem extension at a time, so
    that [s u F, move] avoids level k of the ladder for every F inside the
    picks so far.  Those disjointness claims are the emitted certificates.
    """

    def __init__(self, s: Stem, B: Subfamily, ladder: MeagerPresentation,
                 p: LargenessParams, subset_cap: int = DEFAULT_SUBSET_CAP) -> None:
        self.s = as_stem(s)
        if not precedes(self.s, B):
            raise ContractError("avoidance needs stem < reservoir")
        self.B = B
        self.ladder = ladder
        self.p = p
        self.cap = subset_cap

    def start(self) -> dict:
        return {"prev": None, "claims": ()}

    def move(self, state, picks):
        inning = len(picks) + 1
        pool = self.B if inning == 1 else restrict(state["prev"], (picks[-1],))
        level = self.ladder.level(inning)
        claims = list(state["claims"])
        current = pool
        for f_stem in subsets_canonical(picks, max_size=self.cap):
            target = as_stem(self.s + f_stem)
            got = nwd_witness(level, target, current, self.p)
            if got.kind != "witness":
                raise StrategyFault(inning,
                                    f"no avoidance witness for stem {target}")
            current = got.witness
            claims.append({"claim": "disjoint", "level": inning,
                           "stem": list(target), "set": list(current.indices)})
        # earlier shrink steps stay valid: the final move is a sub-reservoir
        claims = [c if c["level"] != inning else
                  {**c, "set": list(current.indices)} for c in claims]
        return current, {"prev": current, "claims": tuple(claims)}

    def certificates(self, state, picks):
        return tuple(state["claims"])

