import io
import itertools
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from omegaramsey import EngineError, Subfamily, cli, ellentuck
from omegaramsey.cli import (
    EXIT_ERROR,
    EXIT_NOT_FOUND,
    EXIT_OK,
    canonical_dumps,
    run,
)
from omegaramsey.oracle import OracleSizeError

FIXTURES = Path(__file__).parent / "fixtures"


def invoke(argv):
    out = io.StringIO()
    with redirect_stdout(out):
        code = run(argv)
    return code, out.getvalue()


def fx(name):
    return str(FIXTURES / name)


class TestCoverCheck:
    def test_cover(self):
        code, out = invoke(["cover-check", "--family", fx("family_quads6.json"),
                            "--sub", fx("sub_quads_all.json"),
                            "--d", "2", "--minsize", "3"])
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["result"]["verdict"] == "true"

    def test_not_cover_carries_witness(self):
        code, out = invoke(["cover-check", "--family", fx("family_quads6.json"),
                            "--sub", fx("sub_quads_all.json"),
                            "--d", "5", "--minsize", "3"])
        assert code == EXIT_OK
        assert json.loads(out)["result"]["witness"] == [1, 2, 3, 4, 5]

    def test_unknown_exits_two(self):
        code, out = invoke(["cover-check", "--family", fx("family_quads6.json"),
                            "--sub", fx("sub_quads_all.json"),
                            "--d", "2", "--minsize", "3",
                            "--search-bound", "2"])
        assert code == EXIT_NOT_FOUND


class TestErrors:
    def test_unknown_subcommand(self):
        code, _ = invoke(["no-such-command"])
        assert code == EXIT_ERROR

    def test_missing_file(self):
        code, _ = invoke(["cover-check", "--family", "missing.json",
                          "--sub", fx("sub_quads_all.json")])
        assert code == EXIT_ERROR

    def test_malformed_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _ = invoke(["cover-check", "--family", str(bad),
                          "--sub", fx("sub_quads_all.json")])
        assert code == EXIT_ERROR


#: where a malformed case puts the path of its bad input
BAD = "<bad>"
SUB = ["--sub", fx("sub_quads_all.json")]
TREE = ["--family", fx("family_tree4.json"), "--coloring", fx("coloring_tree4.json")]
GRID = ["--family", fx("family_grid5.json"), "--d", "1", "--minsize", "3"]
EIGHT = ["--family", fx("family_eight5.json"), "--d", "1", "--minsize", "3"]
SOLVE = ["ramsey-solve", "--family", fx("family_tree4.json"), "--coloring", BAD,
         "--d", "1", "--minsize", "3"]
#: a total coloring of tree4's pairs, with its arity and color count to fill in
TREE4_ENTRIES = (b'{"arity": %s, "colors": %s, "entries": [[[1, 2], 0], [[1, 3], 0], '
                 b'[[1, 4], 1], [[2, 3], 0], [[2, 4], 1], [[3, 4], 0]]}')
#: tree4's coloring with JSON true for index 1 in its first key
TREE4_TRUE_KEY = (TREE4_ENTRIES % (b"2", b"2")).replace(b"[[1, 2], 0]",
                                                       b"[[true, 2], 0]")
#: tree4's coloring with the set {1, 2} given again, in another color
TREE4_REPEATED_KEY = (TREE4_ENTRIES % (b"2", b"2")).replace(b"]]}",
                                                           b"], [[2, 1], 1]]}")
#: tree4's coloring with one more entry, on a pair outside the family
TREE4_OUTSIDE_KEY = (TREE4_ENTRIES % (b"2", b"2")).replace(b"]]}",
                                                          b"], [[0, 99], 1]]}")
#: tree4's coloring with its first key written in floats
TREE4_FLOAT_KEY = (TREE4_ENTRIES % (b"2", b"2")).replace(b"[[1, 2], 0]",
                                                        b"[[1.0, 2.0], 0]")
#: the subcommands that read a coloring file, on tree4's family
COLORING_READERS = [
    SOLVE,
    ["tree-build", "--family", fx("family_tree4.json"), "--coloring", BAD],
    ["oracle-homogeneous", "--family", fx("family_tree4.json"), "--coloring", BAD]]

#: the parts of partition_pairs8.json on one line
PAIRS8_PARTITION = json.dumps(
    json.loads((FIXTURES / "partition_pairs8.json").read_text())).encode()


def invoke_both(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


class TestErrorLabels:
    """An oracle refusal and the caller-facing errors print `error:`; any
    other engine error prints `engine error:`."""

    def test_oracle_refusal(self):
        code, out, err = invoke_both([
            "oracle-rejects", "--family", fx("family_big64.json"),
            "--region", fx("region_basic_grid.json"), "--d", "2", "--minsize", "3"])
        assert (code, out) == (EXIT_ERROR, "")
        assert err == "error: reservoir of size 64 exceeds the oracle limit of 12\n"

    @pytest.mark.parametrize("exc,line", [
        (OracleSizeError("x"), "error: x\n"),
        (EngineError("y"), "engine error: y\n"),
    ], ids=["oracle-size", "engine"])
    def test_label(self, monkeypatch, exc, line):
        def failing(args, p):
            raise exc

        monkeypatch.setattr(cli, "_cmd_cover_check", failing)
        code, out, err = invoke_both(["cover-check", "--family",
                                      fx("family_quads6.json")] + SUB)
        assert (code, out, err) == (EXIT_ERROR, "", line)


class TestMalformedInput:
    @pytest.mark.parametrize("content,argv", [
        (b'{"universe": 6, "members": 5}', ["cover-check", "--family", BAD] + SUB),
        (b"[[1, 2], [3]]",
         ["cover-check", "--family", fx("family_quads6.json"), "--sub", BAD]),
        (None, ["cover-check", "--family", BAD] + SUB),   # a directory
        (b'{"universe": 6, "members": [["\xff"]]}', ["cover-check", "--family", BAD] + SUB),
        (None, ["tree-build"] + TREE + ["--d", "0"]),
        (None, ["mathias-extends", "--family", fx("family_twelve6.json"),
                "--condition", fx("condition_a.json"),
                "--weaker", fx("condition_b.json"), "--d", "0"]),
        (b'{"type": "explicit", "sets": 5}', ["decide"] + GRID + ["--region", BAD]),
        (b'{"type": "basicUnion", "basics": [{"stem": [1]}]}',
         ["decide"] + GRID + ["--region", BAD]),
        (b'{"stems": [5]}', ["fg"] + EIGHT + ["--stems", BAD]),
        (b"[[[1, 2]], 5]", ["nw"] + EIGHT + ["--stems", fx("stems_pairs8.json"),
                                             "--partition", BAD]),
        (b'{"side": [4, 6, 7, 8, 10, 11]}',
         ["mathias-check", "--family", fx("family_twelve6.json"), "--condition", BAD]),
        (b'{"arity": 2, "colors": 2, "entries": [[[1, 2], 0], [[1, 3], 0.5], '
         b'[[1, 4], 1], [[2, 3], 0], [[2, 4], 1], [[3, 4], 0]]}',
         ["ramsey-solve", "--family", fx("family_tree4.json"), "--coloring", BAD,
          "--d", "1", "--minsize", "3"]),
        (b'{"arity": 2, "colors": 2, "entries": [[[1, 2], 0, 5]]}', SOLVE),
        (b'{"arity": 2, "colors": 2, "entries": [[[1, 2]]]}',
         ["tree-build", "--family", fx("family_tree4.json"), "--coloring", BAD]),
        (b'{"arity": 2, "colors": 2, "entries": {"a": 1}}',
         ["oracle-homogeneous", "--family", fx("family_tree4.json"), "--coloring", BAD]),
        (TREE4_ENTRIES % (b"2.0", b"2"), SOLVE),
        (TREE4_ENTRIES % (b"2", b"2.5"), SOLVE),
        (TREE4_ENTRIES % (b"true", b"2"),
         ["tree-build", "--family", fx("family_tree4.json"), "--coloring", BAD]),
        # JSON true would pass for index 1 and false for index 0
        (b'{"stem": [true], "side": [2, 3, 4, 6, 7, 8, 10, 11, 12]}',
         ["mathias-meet", "--family", fx("family_twelve6.json"), "--condition", BAD,
          "--min-stem-size", "2", "--d", "2", "--minsize", "3"]),
        (b"[true, 2, 3, 4]",
         ["cover-check", "--family", fx("family_quads6.json"), "--sub", BAD]),
        (b'{"type": "basicUnion", "basics": [{"stem": [true], "reservoir": [2, 3, 4, 5]}]}',
         ["decide"] + GRID + ["--region", BAD]),
        (b'{"type": "explicit", "sets": [[true, 2, 3]]}',
         ["decide"] + GRID + ["--region", BAD]),
        (b'{"stems": [[true], [2], [3], [4], [5], [6], [7], [8]]}',
         ["fg"] + EIGHT + ["--stems", BAD]),
        (PAIRS8_PARTITION.replace(b"[1, 2]", b"[true, 2]"),
         ["nw"] + EIGHT + ["--stems", fx("stems_pairs8.json"), "--partition", BAD]),
        *[(TREE4_TRUE_KEY, argv) for argv in COLORING_READERS],
        # a set given twice: the later color used to win silently
        *[(TREE4_REPEATED_KEY, argv) for argv in COLORING_READERS],
        # every key is an index set of the family
        *[(TREE4_OUTSIDE_KEY, argv) for argv in COLORING_READERS],
        *[(TREE4_FLOAT_KEY, argv) for argv in COLORING_READERS],
    ], ids=["members-not-a-list", "nested-sub", "directory-as-family", "not-utf8",
            "tree-build-d0", "mathias-extends-d0", "region-sets-not-a-list",
            "basic-without-reservoir", "stem-not-a-list", "partition-part-not-a-list",
            "condition-without-stem", "fractional-color", "entry-of-three",
            "entry-of-one", "entries-an-object", "float-arity",
            "fractional-color-count", "bool-arity", "true-condition-stem",
            "true-sub-index", "true-basic-stem", "true-explicit-set-index",
            "true-fg-stem", "true-partition-stem", "true-key-solve",
            "true-key-tree", "true-key-oracle", "repeated-key-solve",
            "repeated-key-tree", "repeated-key-oracle", "outside-key-solve",
            "outside-key-tree", "outside-key-oracle", "float-key-solve",
            "float-key-tree", "float-key-oracle"])
    def test_one_error_line_and_exit_one(self, tmp_path, content, argv):
        bad = tmp_path
        if content is not None:
            bad = tmp_path / "bad.json"
            bad.write_bytes(content)
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = run([str(bad) if a == BAD else a for a in argv])
        assert code == EXIT_ERROR
        assert out.getvalue() == ""
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")


class TestDecideAndWitnesses:
    def test_decide(self):
        code, out = invoke(["decide", "--family", fx("family_grid5.json"),
                            "--region", fx("region_basic_grid.json"),
                            "--d", "1", "--minsize", "3", "--stem", "1"])
        assert code == EXIT_OK
        assert json.loads(out)["result"]["verdict"] in ("accepts", "rejects")

    def test_cr_witness_with_oracle_field(self):
        code, out = invoke(["cr-witness", "--family", fx("family_grid5.json"),
                            "--region", fx("region_basic_grid.json"),
                            "--d", "1", "--minsize", "3"])
        assert code == EXIT_OK
        result = json.loads(out)["result"]
        assert result["verdict"] in ("inside", "outside")
        assert result["oracleAgrees"] is True

    @pytest.mark.parametrize("kind,witness,stem", [
        ("inside", [2, 3, 4, 5, 6, 7], []),        # [(), C] leaves the region
        ("outside", [2, 3], []),                   # too small to be admissible
        ("outside", [1, 2, 3, 4, 5, 6, 7], ["1"]),  # not inside the tail past 1
    ])
    def test_oracle_checks_the_engines_own_witness(self, monkeypatch, kind,
                                                   witness, stem):
        def wrong(R, s, B, p, **_):
            return ellentuck.CrOutcome(kind, Subfamily.of(B.family, witness))

        monkeypatch.setattr(ellentuck, "cr_witness", wrong)
        code, out = invoke(["cr-witness", "--family", fx("family_grid5.json"),
                            "--region", fx("region_basic_grid.json"),
                            "--d", "1", "--minsize", "3", "--stem"] + stem)
        assert code == EXIT_OK
        assert json.loads(out)["result"]["oracleAgrees"] is False

    def test_nwd_witness_contract_failure(self):
        # an everywhere-dense region is a contract violation, exit 1
        code, _ = invoke(["nwd-witness", "--family", fx("family_grid5.json"),
                          "--region", fx("region_basic_grid.json"),
                          "--d", "1", "--minsize", "3"])
        assert code in (EXIT_ERROR, EXIT_OK, EXIT_NOT_FOUND)


class TestGamesAndSolvers:
    def test_play_fusion(self):
        code, out = invoke(["play", "--family", fx("family_grid5.json"),
                            "--one", "fusion",
                            "--region", fx("region_basic_grid.json"),
                            "--d", "1", "--minsize", "3", "--innings", "3"])
        assert code in (EXIT_OK, EXIT_NOT_FOUND)
        report = json.loads(out)["result"]
        if "innings" in report:
            for inning in report["innings"]:
                assert inning["two"] in inning["one"]

    def test_s1_select(self):
        code, out = invoke(["s1-select", "--family", fx("family_quads6.json"),
                            "--covers", fx("covers_quads.json"),
                            "--d", "2", "--minsize", "3"])
        assert code == EXIT_OK
        assert len(json.loads(out)["result"]["picks"]) == 3

    def test_ramsey_solve_verified(self):
        code, out = invoke(["ramsey-solve", "--family", fx("family_tree4.json"),
                            "--coloring", fx("coloring_tree4.json"),
                            "--d", "1", "--minsize", "3"])
        assert code == EXIT_OK
        result = json.loads(out)["result"]
        assert result["set"] == [1, 2, 3] and result["color"] == 0
        assert result["oracleVerified"] is True

    def test_ramsey_solve_constant_arity_four(self, tmp_path):
        # a nested step-up play on this input used to end in a traceback
        coloring = tmp_path / "constant4.json"
        coloring.write_text(json.dumps(
            {"arity": 4, "colors": 2,
             "entries": [[list(c), 0]
                         for c in itertools.combinations(range(1, 16), 4)]}))
        err = io.StringIO()
        with redirect_stderr(err):
            code, out = invoke(["ramsey-solve", "--family", fx("family_quads6.json"),
                                "--coloring", str(coloring),
                                "--d", "2", "--minsize", "3"])
        assert code == EXIT_OK and err.getvalue() == ""
        result = json.loads(out)["result"]
        assert result["verdict"] == "solved" and result["route"] == "exhaustive"
        assert result["set"] == list(range(1, 16)) and result["color"] == 0

    def test_tree_build(self):
        code, out = invoke(["tree-build", "--family", fx("family_tree4.json"),
                            "--coloring", fx("coloring_tree4.json"),
                            "--depth", "2", "--d", "1", "--minsize", "3"])
        assert code == EXIT_OK
        nodes = json.loads(out)["result"]["nodes"]
        assert nodes["0"] == [2, 3] and nodes["1"] == [4]
        assert nodes["00"] == [3] and nodes["01"] == []

    def test_nw_and_fg(self):
        code, out = invoke(["nw", "--family", fx("family_eight5.json"),
                            "--stems", fx("stems_pairs8.json"),
                            "--partition", fx("partition_pairs8.json"),
                            "--d", "1", "--minsize", "3"])
        assert code in (EXIT_OK, EXIT_NOT_FOUND)
        singles = {"stems": [[i] for i in range(1, 9)]}
        import tempfile, os
        with tempfile.NamedTemporaryFile("w", suffix=".json",
                                         delete=False) as handle:
            json.dump(singles, handle)
            name = handle.name
        try:
            code, out = invoke(["fg", "--family", fx("family_eight5.json"),
                                "--stems", name, "--d", "1", "--minsize", "3"])
            assert code == EXIT_OK
        finally:
            os.unlink(name)

    def test_mathias_commands(self):
        code, out = invoke(["mathias-check", "--family",
                            fx("family_twelve6.json"),
                            "--condition", fx("condition_a.json"),
                            "--d", "2", "--minsize", "3"])
        assert code == EXIT_OK
        code, out = invoke(["mathias-extends", "--family",
                            fx("family_twelve6.json"),
                            "--condition", fx("condition_a.json"),
                            "--weaker", fx("condition_b.json"),
                            "--d", "2", "--minsize", "3"])
        assert code == EXIT_OK
        assert "extends" in json.loads(out)["result"]

    def test_oracle_commands(self):
        code, out = invoke(["oracle-rejects", "--family",
                            fx("family_grid5.json"),
                            "--region", fx("region_basic_grid.json"),
                            "--d", "1", "--minsize", "3", "--stem", "2"])
        assert code == EXIT_OK
        assert isinstance(json.loads(out)["result"]["rejects"], bool)
        code, out = invoke(["oracle-homogeneous", "--family",
                            fx("family_tree4.json"),
                            "--coloring", fx("coloring_tree4.json"),
                            "--min-set-size", "3", "--d", "1", "--minsize", "3"])
        assert code == EXIT_OK
        assert [[1, 2, 3], 0] in json.loads(out)["result"]["sets"]


class TestDeterminismAndRoundTrip:
    def test_byte_identical_reports(self):
        argv = ["suite", "--seed", "11", "--cases", "4",
                "--d", "2", "--minsize", "3"]
        code1, out1 = invoke(argv)
        code2, out2 = invoke(argv)
        assert (code1, out1) == (code2, out2)

    def test_suite_requires_seed(self):
        code, _ = invoke(["suite", "--cases", "2"])
        assert code == EXIT_ERROR

    def test_json_round_trip_identity_on_fixture_files(self):
        for path in sorted(FIXTURES.glob("*.json")):
            raw = path.read_text()
            assert canonical_dumps(json.loads(raw)) == raw

    def test_text_format(self):
        code, out = invoke(["cover-check", "--family",
                            fx("family_quads6.json"),
                            "--sub", fx("sub_quads_all.json"),
                            "--d", "2", "--minsize", "3", "--format", "text"])
        assert code == EXIT_OK
        assert out.startswith("cover-check:")


class TestConsoleScriptArgv:
    """run(None), the console script's path, reads its arguments from sys.argv."""

    @pytest.mark.parametrize("argv", [
        ["cover-check", "--family", fx("family_quads6.json"), "--sub",
         fx("sub_quads_all.json"), "--d", "2", "--minsize", "3"],
        ["cover-check", "--family", fx("family_quads6.json"), "--bogus"],
        ["--help"],
        [],
    ], ids=["report", "unknown-option", "top-help", "no-arguments"])
    def test_run_none_reads_sys_argv(self, monkeypatch, argv):
        expected = invoke_both(list(argv))
        monkeypatch.setattr("sys.argv", ["omegaramsey"] + argv)
        assert invoke_both(None) == expected


class TestBudgetEnvVar:
    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("OMEGARAMSEY_SEARCH_BOUND", "2")
        code, out = invoke(["cover-check", "--family",
                            fx("family_quads6.json"),
                            "--sub", fx("sub_quads_all.json"),
                            "--d", "2", "--minsize", "3"])
        assert code == EXIT_NOT_FOUND
        assert json.loads(out)["result"]["verdict"] == "unknown"

    def test_flag_beats_env(self, monkeypatch):
        monkeypatch.setenv("OMEGARAMSEY_SEARCH_BOUND", "2")
        code, out = invoke(["cover-check", "--family",
                            fx("family_quads6.json"),
                            "--sub", fx("sub_quads_all.json"),
                            "--d", "2", "--minsize", "3",
                            "--search-bound", "100000"])
        assert code == EXIT_OK
