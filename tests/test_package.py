"""The names `import omegaramsey` exports, where each one comes from, and which
modules a fresh process loads for them."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import omegaramsey

#: home module -> the public names the package exports from it
EXPORTS = {
    "ground": [
        "FALSE", "TRUE", "UNKNOWN", "ContractError", "CoverVerdict",
        "DegenerateError", "EngineError", "Family", "InternalCheckError",
        "LargenessParams", "StructuralError", "Subfamily", "ThreeVal", "Universe",
        "admissible", "check_d_omega_cover", "enumerate_admissible",
    ],
    "ellentuck": [
        "BasicUnionRegion", "ComplementRegion", "EllentuckBasic", "ExplicitRegion",
        "IntersectionRegion", "MeagerPresentation", "PredicateRegion", "Region",
        "UnionRegion", "accepts", "as_stem", "baire_region", "basic_contains",
        "cr_witness", "decide", "is_nowhere_dense", "nwd_witness", "precedes",
        "rejects", "restrict", "strong_reject_set",
    ],
    "games": [
        "ConstantOne", "FusionOne", "GreedyTwo", "LeastIndexTwo", "MeagerAvoidOne",
        "RejectionOne", "StrategyFault", "Transcript", "decide_all_finite", "play",
        "s1_select", "two_wins",
    ],
    "ramsey": [
        "BranchResult", "Coloring", "PartitionResult", "PartitionTree",
        "branch_walk", "build_partition_tree", "counterexample_step",
        "extract_homogeneous", "merge_colors_solve", "project_solve",
        "solve_partition", "stepup_solve",
    ],
    "barriers": [
        "FiniteSetFamily", "fg_witness", "is_dense", "is_thin", "nw_homogenize",
        "ramsey_via_nw",
    ],
    "mathias": [
        "Chain", "Condition", "compatible", "dense_meet", "extends", "gamma_eval",
        "valid_condition",
    ],
}

HOMED = [(module, name) for module, names in EXPORTS.items() for name in names]


def test_seventy_five_names_none_twice():
    names = [name for _, name in HOMED]
    assert len(names) == len(set(names)) == 75


@pytest.mark.parametrize("module,name", HOMED, ids=[n for _, n in HOMED])
def test_name_is_its_home_modules_object(module, name):
    home = importlib.import_module(f"omegaramsey.{module}")
    assert getattr(omegaramsey, name) is getattr(home, name)


def test_star_import_binds_every_name():
    namespace = {}
    exec("from omegaramsey import *", namespace)
    for module, name in HOMED:
        assert namespace[name] is getattr(sys.modules[f"omegaramsey.{module}"], name)


def test_dir_lists_every_name():
    assert {name for _, name in HOMED} <= set(dir(omegaramsey))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError):
        omegaramsey.no_such_name
    assert not hasattr(omegaramsey, "no_such_name")


def test_from_import_of_a_submodule():
    namespace = {}
    exec("from omegaramsey import barriers", namespace)
    assert namespace["barriers"] is sys.modules["omegaramsey.barriers"]


# --- what a fresh interpreter loads ---------------------------------------------

FIXTURES = Path(__file__).parent / "fixtures"
SRC = Path(omegaramsey.__file__).resolve().parent.parent

#: the standard-library modules a CLI process should not pay for: dataclasses
#: imports inspect, which imports ast, dis and tokenize
HEAVY = ("dataclasses", "inspect")

#: runs the code in argv[1], then prints the omegaramsey modules it loaded and,
#: on a second line, the HEAVY modules loaded
PROBE = f"""
import io, sys
from contextlib import redirect_stdout
with redirect_stdout(io.StringIO()):
    exec(sys.argv[1])
print(" ".join(sorted(m for m in sys.modules if m.split(".")[0] == "omegaramsey")))
print(" ".join(m for m in {HEAVY!r} if m in sys.modules))
"""

BASE = {"omegaramsey", "omegaramsey.cli", "omegaramsey.ground"}
ENGINE = {f"omegaramsey.{m}" for m in (
    "ground", "ellentuck", "games", "ramsey", "barriers", "mathias", "oracle")}


def loaded_by(code: str) -> tuple[set[str], set[str]]:
    """The omegaramsey modules and the HEAVY modules loaded by running code in
    a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", PROBE, code], env=env,
                          capture_output=True, text=True, timeout=60, check=True)
    ours, heavy = done.stdout.split("\n")[:2]
    return set(ours.split()), set(heavy.split())


@pytest.fixture(scope="module")
def bare_heavy() -> set[str]:
    """The HEAVY modules a bare interpreter has loaded already."""
    return loaded_by("pass")[1]


def cli_run(*argv: str) -> str:
    args = [str(FIXTURES / a) if a.endswith(".json") else a for a in argv]
    return f"from omegaramsey import cli; assert cli.run({args!r}) == 0"


@pytest.mark.parametrize("code,modules", [
    ("import omegaramsey", {"omegaramsey"}),
    ("from omegaramsey import barriers; assert barriers.__file__",
     {"omegaramsey", "omegaramsey.barriers", "omegaramsey.ellentuck",
      "omegaramsey.ground"}),
    (cli_run("cover-check", "--family", "family_quads6.json",
             "--sub", "sub_quads_all.json"), BASE),
    (cli_run("tree-build", "--family", "family_tree4.json",
             "--coloring", "coloring_tree4.json", "--d", "1"),
     BASE | {"omegaramsey.ramsey"}),
    (cli_run("decide", "--family", "family_grid5.json",
             "--region", "region_basic_grid.json", "--d", "1", "--stem", "1"),
     BASE | {"omegaramsey.ellentuck"}),
    (cli_run("suite", "--seed", "7", "--cases", "2"),
     {"omegaramsey", "omegaramsey.cli"} | ENGINE),
], ids=["import", "from-import-submodule", "cover-check", "tree-build", "decide", "suite"])
def test_fresh_process_loads_only_what_it_uses(code, modules, bare_heavy):
    ours, heavy = loaded_by(code)
    assert ours == modules
    assert heavy <= bare_heavy
