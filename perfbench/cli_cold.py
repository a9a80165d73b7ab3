"""cli_cold: one `python -m omegaramsey.cli ...` process per instance, no warm-up.

The four README examples run verbatim on tests/fixtures, next to seeded
inputs for cr-witness, s1-select, ramsey-solve, nw, fg, mathias-meet,
play --one fusion and tree-build.  Every cache starts empty and the import
is paid on every call, so engine speed-ups should leave this workload
unchanged while import-time or set-up work shows up here first.  Each
report must be byte-identical to `cli.run` of the same argv, run in the
worker during set-up.  peak_rss_mb is the largest peak of any one CLI
process, each started by the small spawner process (spawner.py).
"""

from __future__ import annotations

import io
import itertools
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

from omegaramsey import cli

from .common import (admissible_sets, random_admissible, random_family, random_region,
                     relabeled_coloring, rename_points, rng_for)
from .workload import INVARIANT, ORACLE, Answer, Check, Workload

FIXTURES = os.path.join("tests", "fixtures")

README_EXAMPLES = (
    ["cover-check", "--family", "tests/fixtures/family_quads6.json",
     "--sub", "tests/fixtures/sub_quads_all.json", "--d", "2", "--minsize", "3"],
    ["decide", "--family", "tests/fixtures/family_grid5.json",
     "--region", "tests/fixtures/region_basic_grid.json", "--d", "1", "--minsize", "3",
     "--stem", "1"],
    ["ramsey-solve", "--family", "tests/fixtures/family_tree4.json",
     "--coloring", "tests/fixtures/coloring_tree4.json", "--d", "1", "--minsize", "3"],
    ["suite", "--seed", "7"],
)

#: seeded invocations per command in every cycle
VARIANTS = 3
D1 = ["--d", "1", "--minsize", "3"]
D2 = ["--d", "2", "--minsize", "3"]


def _fixture(name: str) -> dict:
    with open(os.path.join(FIXTURES, name), encoding="utf-8") as f:
        return json.load(f)


def _members(family: dict) -> list[frozenset]:
    return [frozenset(m) for m in family["members"]]


def reference(argv: list[str]) -> tuple[int, str]:
    """Exit code and report of `cli.run(argv)` in this process."""
    report = io.StringIO()
    with redirect_stdout(report), redirect_stderr(io.StringIO()):
        code = cli.run(list(argv))
    return code, report.getvalue()


class CliCold(Workload):
    name = "cli_cold"

    def __init__(self, seed: int, workdir: str) -> None:
        super().__init__(seed, workdir)
        self.tracer = None
        self.peak_rss_kb = 0
        self.argvs = list(README_EXAMPLES) + self._seeded(
            rng_for(0, "cli_cold", "shape"), rng_for(seed, "cli_cold"))
        self.cycle_size = len(self.argvs)
        self.expected = [reference(argv) for argv in self.argvs]
        self.spawner = subprocess.Popen(
            [sys.executable, "-S", os.path.join(os.path.dirname(__file__), "spawner.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def _write(self, name: str, data) -> str:
        path = os.path.join(self.workdir, name)
        with open(path, "w", encoding="utf-8") as f:
            json.dump(data, f)
        return path

    def _seeded(self, shape, rng) -> list[list[str]]:
        """Seeded invocations.  As in calculus_fresh, what sets an
        invocation's cost (family and region structure, colorings,
        conditions, depths) comes from `shape`, which the seed does not
        touch; the seed renames points, swaps two-color colorings (as in
        partition) and draws covers and stems."""
        eight5 = _fixture("family_eight5.json")
        quads6 = _fixture("family_quads6.json")
        twelve6 = _fixture("family_twelve6.json")
        twelve_path = os.path.join(FIXTURES, "family_twelve6.json")
        eight_adm = admissible_sets(_members(eight5), range(1, 9), 5, 1, 3)
        twelve_adm = set(admissible_sets(_members(twelve6), range(1, 13), 6, 2, 3))
        out = []
        for v in range(VARIANTS):
            def path(kind, data):
                return self._write(f"{kind}-{v}.json", data)

            n = 8 + v
            fam = {"universe": 5, "members": rename_points(
                rng, random_family(shape, n, 5, 3, 1, 3), 5)}
            out.append(["cr-witness", "--family", path("crfam", fam),
                        "--region", path("crregion", random_region(shape, n))] + D1)

            covers = [random_admissible(rng, _members(quads6), 6, 2, 3) for _ in range(3)]
            out.append(["s1-select", "--family", os.path.join(FIXTURES, "family_quads6.json"),
                        "--covers", path("covers", covers)] + D2)

            colors = 2 + v % 2
            table = relabeled_coloring(shape, rng, 12, 2, colors)
            coloring = {"arity": 2, "colors": colors,
                        "entries": [[list(k), c] for k, c in sorted(table.items())]}
            out.append(["ramsey-solve", "--family", twelve_path,
                        "--coloring", path("coloring", coloring)] + D2)

            pairs = list(itertools.combinations(range(1, 9), 2))
            stems = rng.sample(pairs, rng.randint(6, len(pairs)))
            left = set(rng.sample(stems, rng.randint(0, len(stems))))
            out.append(["nw", "--family", os.path.join(FIXTURES, "family_eight5.json"),
                        "--stems", path("nwstems", {"stems": [list(s) for s in stems]}),
                        "--partition", path("partition", [
                            [list(s) for s in stems if s in left],
                            [list(s) for s in stems if s not in left]])] + D1)

            while True:   # fg needs a dense stem family
                dense = [[i] for i in rng.sample(range(1, 9), rng.randint(2, 8))]
                if all(any(s[0] in b for s in dense) for b in eight_adm):
                    break
            out.append(["fg", "--family", os.path.join(FIXTURES, "family_eight5.json"),
                        "--stems", path("fgstems", {"stems": dense})] + D1)

            while True:
                side = sorted(shape.sample(range(1, 13), shape.randint(6, 12)))
                if tuple(side) in twelve_adm:
                    break
            out.append(["mathias-meet", "--family", twelve_path,
                        "--condition", path("condition", {"stem": [], "side": side}),
                        "--min-stem-size", str(shape.randint(1, 2))] + D2)

            basic_stem = shape.choice(([], [1]))
            reservoir = sorted(shape.sample(range(2, 8), shape.randint(3, 6)))
            region = {"type": "basicUnion",
                      "basics": [{"stem": basic_stem, "reservoir": reservoir}]}
            out.append(["play", "--one", "fusion", "--family",
                        os.path.join(FIXTURES, "family_grid5.json"),
                        "--region", path("fusionregion", region), "--innings", "4"] + D1)

            tree = {"arity": 2, "colors": 2,
                    "entries": [[list(k), c] for k, c in
                                sorted(relabeled_coloring(shape, rng, 12, 2, 2).items())]}
            out.append(["tree-build", "--family", twelve_path,
                        "--coloring", path("tree", tree),
                        "--depth", str(shape.randint(3, 4))] + D2)
        return out

    def generate(self, cycle: int) -> list:
        return list(range(len(self.argvs)))

    def use_tracer(self, tracer) -> None:
        self.tracer = tracer

    def run(self, k: int) -> Answer:
        argv = self.argvs[k]
        if self.tracer is None:
            cmd = [sys.executable, "-m", "omegaramsey.cli"] + argv
            dump_path = None
        else:
            dump_path = os.path.join(self.workdir, f"spans-{k}.json")
            cmd = [sys.executable, "-m", "perfbench.launcher", dump_path] + argv
        out_path = os.path.join(self.workdir, "report.json")
        self.spawner.stdin.write("\0".join([out_path] + cmd) + "\n")
        self.spawner.stdin.flush()
        code, rss_kb = map(int, self.spawner.stdout.readline().split())
        self.peak_rss_kb = max(self.peak_rss_kb, rss_kb)
        with open(out_path, encoding="utf-8") as out:
            stdout = out.read()
        failed = code == 1 or '"unknown"' in stdout or "search budget exhausted" in stdout
        return Answer([k, code, stdout], failed, dump_path)

    def peak_rss_mb(self) -> float:
        return self.peak_rss_kb / 1024

    def close(self) -> None:
        self.spawner.stdin.close()
        self.spawner.wait()

    def check(self, k: int, answer: Answer) -> Check:
        if answer.ctx is not None:
            with open(answer.ctx, encoding="utf-8") as f:
                self.tracer.absorb(json.load(f), self.tracer.instance)
            os.remove(answer.ctx)
        _, code, stdout = answer.record
        ok = code in (0, 2) and (code, stdout) == self.expected[k]
        result = json.loads(stdout)["result"] if ok else {}
        # the engine's own verdicts on itself: oracle agreement, and the suite's pass
        claims = [result[key] for key in ("oracleAgrees", "oracleVerified", "pass")
                  if key in result]
        return Check(ORACLE if claims else INVARIANT,
                     ok and all(claims) and not result.get("failures"))
