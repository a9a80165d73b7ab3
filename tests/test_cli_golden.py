"""Byte-exact CLI output: stdout, stderr and exit code of fixed invocations.

Every subcommand, every ONE strategy, the text format, the top-level and a
subcommand help page, and the file and usage errors are pinned here, so a
change to the front end that alters any report shows up as a diff.  The expected outputs live in
tests/golden/cli_reports.json.  After an intended change of output,
rewrite them from the repository root with

    PYTHONPATH=src python tests/test_cli_golden.py

and review the diff.  Paths are relative to the repository root, so error
messages do not depend on where the repository is checked out.
"""

from __future__ import annotations

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from omegaramsey.cli import BOUND_ENV_VAR, canonical_dumps, run

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden" / "cli_reports.json"

F = "tests/fixtures/"
D1 = ["--d", "1", "--minsize", "3"]
D2 = ["--d", "2", "--minsize", "3"]
GRID = ["--family", F + "family_grid5.json"]
GRID_REGION = GRID + ["--region", F + "region_basic_grid.json"]
NWD_REGION = GRID + ["--region", F + "region_nwd_grid.json"]
QUADS = ["--family", F + "family_quads6.json"]
TREE = ["--family", F + "family_tree4.json", "--coloring", F + "coloring_tree4.json"]
EIGHT = ["--family", F + "family_eight5.json"]
NW = EIGHT + ["--stems", F + "stems_pairs8.json", "--partition", F + "partition_pairs8.json"]
TWELVE = ["--family", F + "family_twelve6.json"]

#: case name -> (argv, value of the search-bound environment variable)
CASES = {
    "cover-check": (["cover-check"] + QUADS + ["--sub", F + "sub_quads_all.json"] + D2, None),
    "cover-check-witness": (
        ["cover-check"] + QUADS + ["--sub", F + "sub_quads_all.json", "--d", "5",
                                   "--minsize", "3"], None),
    "cover-check-text": (
        ["cover-check"] + QUADS + ["--sub", F + "sub_quads_all.json", "--format", "text"] + D2,
        None),
    "cover-check-env-bound": (
        ["cover-check"] + QUADS + ["--sub", F + "sub_quads_all.json"] + D2, "2"),
    "cover-check-flag-beats-env": (
        ["cover-check"] + QUADS + ["--sub", F + "sub_quads_all.json",
                                   "--search-bound", "100000"] + D2, "2"),
    "decide": (["decide"] + GRID_REGION + D1 + ["--stem", "1"], None),
    "decide-sub": (["decide"] + GRID_REGION + ["--sub", F + "sub_grid_tail.json",
                                               "--stem", "1"] + D1, None),
    "cr-witness": (["cr-witness"] + GRID_REGION + D1, None),
    "cr-witness-stem": (["cr-witness"] + NWD_REGION + ["--stem", "1"] + D1, None),
    "nwd-witness": (["nwd-witness"] + NWD_REGION + D1, None),
    "nwd-witness-dense-region": (["nwd-witness"] + GRID_REGION + D1, None),
    "play-constant": (["play"] + GRID + ["--one", "constant", "--one-move",
                                         F + "sub_grid_all.json", "--innings", "3"] + D1,
                      None),
    "play-constant-least": (
        ["play"] + GRID + ["--one", "constant", "--one-move", F + "sub_grid_all.json",
                           "--two", "least", "--innings", "3"] + D1, None),
    "play-constant-no-move": (["play"] + GRID + ["--one", "constant"] + D1, None),
    "play-fusion": (["play"] + NWD_REGION + ["--one", "fusion", "--innings", "3"] + D1,
                    None),
    "play-fusion-fault": (["play"] + GRID_REGION + ["--one", "fusion", "--innings", "3"] + D1,
                          None),
    "play-meager": (["play"] + GRID + ["--one", "meager", "--ladder", F + "ladder_grid.json",
                                       "--innings", "2"] + D1, None),
    "s1-select": (["s1-select"] + QUADS + ["--covers", F + "covers_quads.json"] + D2, None),
    "ramsey-solve": (["ramsey-solve"] + TREE + D1, None),
    "ramsey-solve-exhaustive": (
        ["ramsey-solve"] + TWELVE + ["--coloring", F + "coloring_twelve6_3.json"] + D2, None),
    "tree-build": (["tree-build"] + TREE + ["--depth", "2"] + D1, None),
    "nw": (["nw"] + NW + D1, None),
    "fg": (["fg"] + EIGHT + ["--stems", F + "stems_singles8.json"] + D1, None),
    "mathias-check": (["mathias-check"] + TWELVE + ["--condition", F + "condition_a.json"] + D2,
                      None),
    "mathias-extends": (["mathias-extends"] + TWELVE + [
        "--condition", F + "condition_a.json", "--weaker", F + "condition_b.json"] + D2, None),
    "mathias-meet": (["mathias-meet"] + TWELVE + ["--condition", F + "condition_b.json",
                                                  "--min-stem-size", "2"] + D2, None),
    "oracle-accepts": (["oracle-accepts"] + GRID_REGION + ["--stem", "1"] + D1, None),
    "oracle-rejects": (["oracle-rejects"] + GRID_REGION + ["--stem", "2"] + D1, None),
    "oracle-cr": (["oracle-cr"] + GRID_REGION + D1, None),
    "oracle-homogeneous": (["oracle-homogeneous"] + TREE + ["--min-set-size", "3"] + D1, None),
    "oracle-nw": (["oracle-nw"] + NW + D1, None),
    "suite": (["suite", "--seed", "7"], None),
    "suite-no-seed": (["suite", "--cases", "2"], None),
    "help": (["cover-check", "--help"], None),
    "help-top": (["--help"], None),
    "no-arguments": ([], None),
    "unknown-subcommand": (["no-such-command", "--d", "1"], None),
    "unknown-option": (["cover-check"] + QUADS + ["--sub", F + "sub_quads_all.json",
                                                  "--bogus"], None),
    "invalid-int": (["cover-check"] + QUADS + ["--sub", F + "sub_quads_all.json",
                                               "--d", "x"], None),
    "missing-file": (["cover-check", "--family", "missing.json",
                      "--sub", F + "sub_quads_all.json"], None),
    "malformed-json": (["cover-check", "--family", "tests/golden/truncated_family.json",
                        "--sub", F + "sub_quads_all.json"], None),
}


def invoke(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run(list(argv))
    return {"exit": code,
            "stdout": out.getvalue().splitlines(keepends=True),
            "stderr": err.getvalue().splitlines(keepends=True)}


def _prepare(mp: pytest.MonkeyPatch, bound) -> None:
    mp.chdir(ROOT)
    # help pages wrap at the terminal width, which argparse reads from COLUMNS
    mp.setenv("COLUMNS", "80")
    mp.delenv(BOUND_ENV_VAR, raising=False)
    if bound is not None:
        mp.setenv(BOUND_ENV_VAR, bound)


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_every_case_has_a_golden_report(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_is_byte_identical(name, golden, monkeypatch):
    argv, bound = CASES[name]
    _prepare(monkeypatch, bound)
    assert invoke(argv) == golden[name]


def write_golden() -> None:
    reports = {}
    for name, (argv, bound) in CASES.items():
        with pytest.MonkeyPatch.context() as mp:
            _prepare(mp, bound)
            reports[name] = invoke(argv)
    GOLDEN.write_text(canonical_dumps(reports), encoding="utf-8")


if __name__ == "__main__":
    write_golden()
