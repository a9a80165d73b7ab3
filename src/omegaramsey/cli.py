"""Batch front end: load JSON fixtures, run one operation, emit a report.

Every invocation prints a single report (JSON by default, stable key order)
and exits 0 when the operation produced a definite result, 2 when it ended
in NotFound or Unknown, and 1 on usage, structural, or contract errors.
Reports are byte-reproducible for a fixed seed.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
from typing import Optional

# ground only: each handler imports the engine modules it uses, so a process
# pays for those alone
from . import ground

REPORT_SCHEMA = "omegaramsey-report/1"

#: environment override for the default enumeration budget
BOUND_ENV_VAR = "OMEGARAMSEY_SEARCH_BOUND"


def default_search_bound() -> int:
    raw = os.environ.get(BOUND_ENV_VAR)
    if raw is None:
        return 1_000_000
    try:
        return int(raw)
    except ValueError:
        raise ground.StructuralError(
            f"{BOUND_ENV_VAR} must be an integer, got {raw!r}")

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NOT_FOUND = 2


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except FileNotFoundError:
        raise ground.StructuralError(f"no such file: {path}")
    except OSError as exc:
        raise ground.StructuralError(f"cannot read {path}: {exc.strerror}")
    except UnicodeDecodeError:
        raise ground.StructuralError(f"{path} is not UTF-8 text")
    except json.JSONDecodeError as exc:
        raise ground.StructuralError(
            f"malformed JSON in {path} at line {exc.lineno}, column {exc.colno}: "
            f"{exc.msg}")


def canonical_dumps(data) -> str:
    return json.dumps(data, sort_keys=True, indent=2) + "\n"


def _family(args) -> ground.Family:
    return ground.Family.from_json(_load_json(args.family))


def _basic_inputs(args):
    """The stem, the reservoir (--sub, or the full tail past the stem) and the
    region of an Ellentuck-style query."""
    from . import ellentuck

    fam = _family(args)
    stem = ellentuck.as_stem(args.stem)
    if args.sub:
        B = ground.Subfamily.from_json(_load_json(args.sub), fam)
    else:
        B = ellentuck.restrict(ground.Subfamily.full(fam), stem)
    region = ellentuck.region_from_json(_load_json(args.region), fam)
    return stem, B, region


def _stems_partition(args, fam: ground.Family):
    from . import barriers

    T = barriers.FiniteSetFamily.from_json(_load_json(args.stems), fam)
    try:
        parts = [[tuple(ground.json_indices(s)) for s in part]
                 for part in _load_json(args.partition)]
    except TypeError as exc:
        raise ground.StructuralError(f"malformed partition JSON: {exc!r}") from exc
    return T, parts


def _emit(args, result: dict) -> None:
    report = {
        "schema": REPORT_SCHEMA,
        "command": args.command,
        "params": {"d": args.d, "minsize": args.minsize,
                   "searchBound": args.search_bound},
        "result": result,
    }
    if args.seed is not None:
        report["seed"] = args.seed
    if args.format == "json":
        sys.stdout.write(canonical_dumps(report))
    else:
        sys.stdout.write(f"{args.command}: {json.dumps(result, sort_keys=True)}\n")


# --- subcommand handlers -----------------------------------------------------
#
# Each handler loads its own inputs, runs one operation and returns the
# report's result together with the exit code; run() writes the report.

def _cmd_cover_check(args, p):
    fam = _family(args)
    sub = ground.Subfamily.from_json(_load_json(args.sub), fam)
    verdict = ground.check_d_omega_cover(sub, p)
    result = {"verdict": verdict.status.value}
    if verdict.witness is not None:
        result["witness"] = sorted(verdict.witness)
    return result, EXIT_NOT_FOUND if verdict.status is ground.UNKNOWN else EXIT_OK


def _verdict(outcome) -> dict:
    """The verdict of a decide, cr-witness or nwd-witness outcome, with its
    witness when there is one."""
    result = {"verdict": outcome.kind}
    if outcome.witness is not None:
        result["witness"] = outcome.witness.to_json()
    return result


def _cmd_decide(args, p):
    from . import ellentuck

    stem, B, region = _basic_inputs(args)
    outcome = ellentuck.decide(B, stem, region, p)
    return _verdict(outcome), EXIT_NOT_FOUND if outcome.kind == "unknown" else EXIT_OK


def _oracle_agrees(outcome: ellentuck.CrOutcome, region, stem,
                   B: ground.Subfamily, p) -> bool:
    """The oracle's check of the engine's own witness C: an admissible subset
    of the reservoir with every admissible member of [stem, C] inside the
    region ('inside') or outside it ('outside')."""
    from . import ellentuck, oracle

    C = outcome.witness
    if not set(C.indices) <= set(B.indices) or not oracle.brute_admissible(C, p):
        return False
    if outcome.kind == "outside":
        region = ellentuck.ComplementRegion(region)
    return oracle.brute_accepts(C, stem, region, p)


def _cmd_cr_witness(args, p):
    from . import ellentuck, oracle

    stem, B, region = _basic_inputs(args)
    outcome = ellentuck.cr_witness(region, stem, B, p, innings=args.innings,
                                   subset_cap=args.subset_cap)
    result = _verdict(outcome)
    if outcome.kind != "not_found" and len(B.indices) <= oracle.SIZE_LIMIT:
        result["oracleAgrees"] = _oracle_agrees(outcome, region, stem, B, p)
    return result, EXIT_NOT_FOUND if outcome.kind == "not_found" else EXIT_OK


def _cmd_nwd_witness(args, p):
    from . import ellentuck

    stem, B, region = _basic_inputs(args)
    outcome = ellentuck.nwd_witness(region, stem, B, p)
    return _verdict(outcome), EXIT_NOT_FOUND if outcome.kind == "not_found" else EXIT_OK


def _one_strategy(args, fam, p) -> games.OneStrategy:
    from . import ellentuck, games

    stem = ellentuck.as_stem(args.stem)
    base = ellentuck.restrict(ground.Subfamily.full(fam), stem)
    if args.one == "constant":
        if not args.one_move:
            raise ground.StructuralError("constant strategy needs --one-move")
        move = ground.Subfamily.from_json(_load_json(args.one_move), fam)
        return games.ConstantOne(move)
    if args.one == "fusion":
        if not args.region:
            raise ground.StructuralError("fusion strategy needs --region")
        region = ellentuck.region_from_json(_load_json(args.region), fam)
        return games.FusionOne(stem, base, region, p, subset_cap=args.subset_cap)
    if not args.ladder:
        raise ground.StructuralError("avoidance strategy needs --ladder")
    levels = tuple(ellentuck.region_from_json(r, fam)
                   for r in _load_json(args.ladder))
    ladder = ellentuck.MeagerPresentation(levels)
    return games.MeagerAvoidOne(stem, base, ladder, p, subset_cap=args.subset_cap)


def _cmd_play(args, p):
    from . import games

    one = _one_strategy(args, _family(args), p)
    two = games.GreedyTwo(p) if args.two == "greedy" else games.LeastIndexTwo()
    try:
        transcript = games.play(one, two, args.innings, p)
    except games.StrategyFault as fault:
        return ({"verdict": "fault", "inning": fault.inning,
                 "reason": fault.reason}, EXIT_NOT_FOUND)
    return transcript.to_json(), EXIT_OK


def _cmd_s1_select(args, p):
    from . import games

    fam = _family(args)
    covers = [ground.Subfamily.from_json(c, fam) for c in _load_json(args.covers)]
    got = games.s1_select(covers, p)
    if isinstance(got, games.Selection):
        return {"verdict": "selection", "picks": list(got.indices)}, EXIT_OK
    return {"verdict": "not_found", "reason": got.reason}, EXIT_NOT_FOUND


def _cmd_ramsey_solve(args, p):
    from . import oracle, ramsey

    fam = _family(args)
    coloring = ramsey.Coloring.from_json(_load_json(args.coloring), fam)
    got = ramsey.solve_partition(fam, coloring, p)
    if got is None:
        return {"verdict": "not_found"}, EXIT_NOT_FOUND
    result = {"verdict": "solved", "set": got.subfamily.to_json(),
              "color": got.color, "admissible": got.admissible.value,
              "route": got.route}
    if len(fam) <= oracle.SIZE_LIMIT:
        matches = oracle.brute_homogeneous(fam, coloring, coloring.arity,
                                           coloring.colors, len(got.subfamily))
        result["oracleVerified"] = (got.subfamily.indices, got.color) in matches
    return result, EXIT_OK


def _cmd_tree_build(args, p):
    from . import ramsey

    fam = _family(args)
    coloring = ramsey.Coloring.from_json(_load_json(args.coloring), fam)
    tree = ramsey.build_partition_tree(fam, coloring, args.depth)
    nodes = {"".join(map(str, path)): list(content)
             for path, content in tree.nodes}
    return {"depth": tree.depth, "nodes": nodes}, EXIT_OK


def _cmd_nw(args, p):
    from . import barriers

    got = barriers.nw_homogenize(*_stems_partition(args, _family(args)), p)
    if got.kind != "homogeneous":
        return {"verdict": "not_found"}, EXIT_NOT_FOUND
    return ({"verdict": "homogeneous", "set": got.witness.to_json(),
             "part": got.part}, EXIT_OK)


def _cmd_fg(args, p):
    from . import barriers

    fam = _family(args)
    S = barriers.FiniteSetFamily.from_json(_load_json(args.stems), fam)
    got = barriers.fg_witness(S, p)
    if got.kind != "witness":
        return {"verdict": "not_found"}, EXIT_NOT_FOUND
    return {"verdict": "witness", "set": got.witness.to_json()}, EXIT_OK


def _cmd_mathias_check(args, p):
    from . import mathias

    cond = mathias.Condition.from_json(_load_json(args.condition), _family(args))
    return {"valid": mathias.valid_condition(cond, p)}, EXIT_OK


def _cmd_mathias_extends(args, p):
    from . import mathias

    fam = _family(args)
    c1 = mathias.Condition.from_json(_load_json(args.condition), fam)
    c2 = mathias.Condition.from_json(_load_json(args.weaker), fam)
    return {"extends": mathias.extends(c1, c2)}, EXIT_OK


def _cmd_mathias_meet(args, p):
    from . import mathias

    cond = mathias.Condition.from_json(_load_json(args.condition), _family(args))
    floor = args.min_stem_size

    def predicate(c: mathias.Condition) -> bool:
        return len(c.stem) >= floor

    got = mathias.dense_meet(cond, predicate, p)
    if got is None:
        return {"verdict": "not_found"}, EXIT_NOT_FOUND
    return {"verdict": "met", "condition": got.to_json()}, EXIT_OK


def _cmd_oracle_accepts(args, p):
    from . import oracle

    stem, B, region = _basic_inputs(args)
    return {"accepts": oracle.brute_accepts(B, stem, region, p)}, EXIT_OK


def _cmd_oracle_rejects(args, p):
    from . import oracle

    stem, B, region = _basic_inputs(args)
    return {"rejects": oracle.brute_rejects(B, stem, region, p)}, EXIT_OK


def _cmd_oracle_cr(args, p):
    from . import oracle

    stem, B, region = _basic_inputs(args)
    got = oracle.brute_cr(region, stem, B, p)
    if got is None:
        return {"verdict": "none"}, EXIT_NOT_FOUND
    return {"verdict": got[0], "witness": got[1].to_json()}, EXIT_OK


def _cmd_oracle_homogeneous(args, p):
    from . import oracle, ramsey

    fam = _family(args)
    coloring = ramsey.Coloring.from_json(_load_json(args.coloring), fam)
    found = oracle.brute_homogeneous(fam, coloring, coloring.arity,
                                     coloring.colors, args.min_set_size)
    return ({"count": len(found), "sets": [[list(b), c] for b, c in found]},
            EXIT_OK)


def _cmd_oracle_nw(args, p):
    from . import oracle

    found = oracle.brute_nw(*_stems_partition(args, _family(args)), p)
    return ({"count": len(found), "pairs": [[list(b), i] for b, i in found]},
            EXIT_OK)


def _cmd_suite(args, p):
    """A compact deterministic battery: pair solving plus decide-vs-oracle."""
    import random

    from . import barriers, ellentuck, mathias, oracle, ramsey

    if args.seed is None:
        raise ground.StructuralError("suite needs an explicit --seed")
    rng = random.Random(args.seed)
    cases = 0
    failures = []

    members = [frozenset(c) for c in itertools.combinations(range(1, 7), 4)]
    fam = ground.Family(ground.Universe(6), tuple(members))
    for trial in range(args.cases):
        table = {pair: rng.randint(0, 1)
                 for pair in itertools.combinations(fam.indices, 2)}
        coloring = ramsey.Coloring(2, 2, table)
        got = ramsey.solve_partition(fam, coloring, p)
        cases += 1
        bound = ramsey.pair_size_guarantee(len(fam))
        if got is None or len(got.subfamily) < bound:
            failures.append(f"pair case {trial}: undersized result")

    grid_fam = ground.Family.of(
        5, [{1, 2, 3}, {3, 4, 5}, {1, 4, 5}, {2, 4, 5}, {1, 2, 5},
            {2, 3, 4}, {1, 3, 4}])
    gp = ground.LargenessParams(d=1, min_size=3, search_bound=args.search_bound)
    full = ground.Subfamily.full(grid_fam)
    region = ellentuck.BasicUnionRegion((
        ellentuck.EllentuckBasic((1,), ground.Subfamily.of(grid_fam, [2, 3, 4, 5])),))
    for stem in [(), (1,), (2,)]:
        B = ellentuck.restrict(full, stem)
        engine = ellentuck.decide(B, stem, region, gp).kind
        against = "rejects" if oracle.brute_rejects(B, stem, region, gp) \
            else "accepts"
        cases += 1
        if engine != against:
            failures.append(f"decide grid stem {stem}: {engine} vs {against}")

    # extension-order transitivity on sampled descending chains
    twelve = ground.Family.of(6, [
        {1, 2, 3, 4}, {1, 2, 5, 6}, {3, 4, 5, 6}, {1, 3, 5}, {2, 4, 6},
        {1, 4, 6}, {2, 3, 5}, {1, 2, 3, 5}, {1, 3, 4, 6}, {2, 4, 5, 6},
        {1, 2, 4, 6}, {1, 3, 4, 5}])
    checked = 0
    while checked < 50:
        side = sorted(rng.sample(range(1, 13), rng.randint(6, 12)))
        c3 = mathias.Condition((), ground.Subfamily.of(twelve, side))
        if not mathias.valid_condition(c3, p):
            continue
        moved = sorted(rng.sample(side, rng.randint(0, 2)))
        stem = tuple(moved)
        keep = [i for i in side if (not stem or i > max(stem))]
        if len(keep) < 3:
            continue
        c2 = mathias.Condition(stem, ground.Subfamily.of(twelve, keep))
        if not (mathias.valid_condition(c2, p) and mathias.extends(c2, c3)):
            continue
        keep2 = sorted(rng.sample(keep, max(3, len(keep) - 1)))
        c1 = mathias.Condition(stem, ground.Subfamily.of(twelve, keep2))
        if not (mathias.valid_condition(c1, p) and mathias.extends(c1, c2)):
            continue
        checked += 1
        cases += 1
        if not mathias.extends(c1, c3):
            failures.append("extension order failed to compose")

    # thin pair families homogenize into a part the oracle also reports
    eight = ground.Family.of(5, [{1, 2, 3}, {3, 4, 5}, {1, 4, 5}, {2, 4, 5},
                                 {1, 2, 5}, {2, 3, 4}, {1, 3, 4}, {2, 3, 5}])
    pairs = [(i, j) for i in range(1, 9) for j in range(i + 1, 9)]
    for _ in range(5):
        stems = rng.sample(pairs, rng.randint(6, len(pairs)))
        left = set(rng.sample(stems, rng.randint(0, len(stems))))
        parts = [[s for s in stems if s in left],
                 [s for s in stems if s not in left]]
        T = barriers.FiniteSetFamily.of(eight, stems)
        got = barriers.nw_homogenize(T, parts, gp)
        matches = oracle.brute_nw(T, parts, gp)
        cases += 1
        if got.kind == "homogeneous":
            if (got.witness.indices, got.part) not in matches:
                failures.append("homogenization left the oracle's result set")
        elif matches:
            failures.append("homogenization missed a solvable partition")

    result = {"cases": cases, "failures": failures, "pass": not failures}
    return result, EXIT_OK if not failures else EXIT_NOT_FOUND


# --- argument wiring ----------------------------------------------------------

def _add_common(sp: argparse.ArgumentParser, family: bool = True) -> None:
    if family:
        sp.add_argument("--family", required=True, help="family JSON file")
    sp.add_argument("--d", type=int, default=2, help="cover depth")
    sp.add_argument("--minsize", type=int, default=3,
                    help="admissibility size gate")
    sp.add_argument("--search-bound", dest="search_bound", type=int,
                    default=None,
                    help=f"enumeration budget (default 1000000, or "
                         f"${BOUND_ENV_VAR})")
    sp.add_argument("--format", choices=("json", "text"), default="json")
    sp.add_argument("--seed", type=int, default=None)


def _option(flag: str, **kwargs) -> tuple[str, dict]:
    return flag, kwargs


_STEM_REGION = (
    _option("--stem", type=int, nargs="*", default=[]),
    _option("--sub", help="reservoir JSON (defaults to the full tail)"),
    _option("--region", required=True, help="region JSON file"),
)
_INNINGS_CAP = (
    _option("--innings", type=int, default=4),
    _option("--subset-cap", dest="subset_cap", type=int, default=3),
)
_STEMS_PARTITION = (
    _option("--stems", required=True),
    _option("--partition", required=True),
)

#: subcommand -> (help line, its options after the common ones, in help order),
#: in the order the top-level help lists them.  The handler of a subcommand is
#: _cmd_<its name with "_" for "-">, looked up when its parser is built.
_COMMANDS = {
    "cover-check": ("depth-d cover check", (_option("--sub", required=True),)),
    "decide": ("accept-or-reject search", _STEM_REGION),
    "cr-witness": ("inside/outside witness search", _STEM_REGION + _INNINGS_CAP),
    "nwd-witness": ("avoidance witness search", _STEM_REGION),
    "play": ("run a bounded play of the selection game", (
        _option("--one", choices=("constant", "fusion", "meager"), required=True),
        _option("--two", choices=("greedy", "least"), default="greedy"),
        *_INNINGS_CAP,
        _option("--stem", type=int, nargs="*", default=[]),
        _option("--one-move", dest="one_move", help="move JSON for the constant strategy"),
        _option("--region", help="region JSON for the fusion strategy"),
        _option("--ladder", help="JSON list of regions for avoidance"),
    )),
    "s1-select": ("one pick per cover, admissible union", (
        _option("--covers", required=True, help="JSON list of subfamily index arrays"),)),
    "ramsey-solve": ("find a monochromatic subfamily", (
        _option("--coloring", required=True),)),
    "tree-build": ("materialize the pivot tree", (
        _option("--coloring", required=True),
        _option("--depth", type=int, default=4),
    )),
    "nw": ("homogenize a partition of a thin family", _STEMS_PARTITION),
    "fg": ("initial-segment witness for a dense family", (
        _option("--stems", required=True),)),
    "mathias-check": ("validate a condition", (_option("--condition", required=True),)),
    "mathias-extends": ("test the extension order", (
        _option("--condition", required=True),
        _option("--weaker", required=True),
    )),
    "mathias-meet": ("meet a stem-size requirement", (
        _option("--condition", required=True),
        _option("--min-stem-size", dest="min_stem_size", type=int, required=True),
    )),
    "oracle-accepts": ("brute-force accepts evaluation", _STEM_REGION),
    "oracle-rejects": ("brute-force rejects evaluation", _STEM_REGION),
    "oracle-cr": ("brute-force cr evaluation", _STEM_REGION),
    "oracle-homogeneous": ("brute-force homogeneous evaluation", (
        _option("--coloring", required=True),
        _option("--min-set-size", dest="min_set_size", type=int, default=1),
    )),
    "oracle-nw": ("brute-force nw evaluation", _STEMS_PARTITION),
    "suite": ("compact deterministic check battery", (
        _option("--cases", type=int, default=20),)),
}


def build_parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """The parser of every subcommand, or with `command` one holding only that
    subcommand's parser.

    The one-subcommand parser still names every subcommand in its usage, so
    a process that parses one subcommand's arguments prints the same usage,
    help and errors without building the other eighteen parsers.
    """
    parser = argparse.ArgumentParser(
        prog="omegaramsey",
        description="Finite engine for cover-family Ramsey combinatorics")
    if command is None:
        names, metavar = list(_COMMANDS), None
    else:
        names, metavar = [command], "{" + ",".join(_COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in names:
        summary, options = _COMMANDS[name]
        sp = sub.add_parser(name, help=summary)
        _add_common(sp, family=name != "suite")
        for flag, kwargs in options:
            sp.add_argument(flag, **kwargs)
        sp.set_defaults(handler=globals()["_cmd_" + name.replace("-", "_")])
    return parser


def run(argv: Optional[list[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # a known subcommand first: build its parser alone; anything else (help,
    # no arguments, an unknown word) gets the full parser and its messages
    parser = build_parser(argv[0] if argv and argv[0] in _COMMANDS else None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_ERROR if exc.code not in (0, None) else EXIT_OK
    try:
        if args.search_bound is None:
            args.search_bound = default_search_bound()
        p = ground.LargenessParams(d=args.d, min_size=args.minsize,
                                   search_bound=args.search_bound)
        result, code = args.handler(args, p)
    except (ground.StructuralError, ground.ContractError,
            ground.DegenerateError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_ERROR
    except ground.EngineError as exc:
        # an oracle's size refusal is the caller's error; it can only come
        # from an oracle this process has loaded
        oracle = sys.modules.get("omegaramsey.oracle")
        refused = oracle is not None and isinstance(exc, oracle.OracleSizeError)
        sys.stderr.write(f"{'error' if refused else 'engine error'}: {exc}\n")
        return EXIT_ERROR
    _emit(args, result)
    return code


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
