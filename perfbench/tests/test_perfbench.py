"""The benchmark's own tests.  Run from the repository root:

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

import gc
import json
import os
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

from perfbench import clock, spans
from perfbench.metrics import END_TO_END, PER_LAYER
from perfbench.worker import WORKLOADS, load

ROOT = Path(__file__).resolve().parents[2]
ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def inputs(name, seed, workdir):
    """A workload's first-cycle inputs, with set-up file paths made relative."""
    workload = load(name)(seed, str(workdir))
    if name != "cli_cold":
        return workload.generate(0)
    out = []
    for argv in workload.argvs:
        for arg in argv:
            if arg.startswith(str(workdir)):
                out.append(Path(arg).name + ":" + Path(arg).read_text())
            else:
                out.append(arg)
    return out


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generators_repeat_for_a_seed_and_differ_across_seeds(name, tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)
    dirs = [tmp_path / d for d in ("a", "b", "c")]
    for d in dirs:
        d.mkdir()
    first = inputs(name, 11, dirs[0])
    assert first == inputs(name, 11, dirs[1])
    assert first != inputs(name, 12, dirs[2])


def test_metric_catalogue_matches_benchmark_json():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in bench["end_to_end"]] == \
        list(END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == \
        list(PER_LAYER)
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd, env=ENV,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_every_printed_metric_is_declared(trace):
    done = run_bench("--workload", "session_shared", "--seed", "3", "--seconds", "1",
                     "--trace", trace)
    assert done.returncode == 0, done.stderr
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"] for m in bench["end_to_end"] + bench["per_layer"]}
    *lines, last = done.stdout.strip().splitlines()
    printed = {m.group(1) for m in map(re.compile(r"^(\S+) = \S+ \S+").match, lines) if m}
    result = json.loads(last)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    wanted = bench["per_layer"] if trace == "1" else bench["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    assert printed and printed <= declared


def worker(name, mode):
    done = subprocess.run([sys.executable, "-m", "perfbench.worker", "--workload", name,
                           "--seed", "5", "--mode", mode, "--cycles", "1"],
                          cwd=ROOT, env=ENV, capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("name", ["partition", "session_shared", "cli_cold"])
def test_traced_and_untraced_answers_digest_equal(name):
    plain, traced = worker(name, "run"), worker(name, "traced")
    assert plain["digests"] == traced["digests"]
    assert plain["wrong"] == traced["wrong"] == 0
    assert sum(v["calls"] for v in traced["layers"].values()) > 0


def test_benchmark_refuses_to_run_without_the_engine(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run_bench("--workload", "partition", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert not any(line.startswith("{") for line in done.stdout.splitlines())


def busy(seconds):
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def test_self_time_excludes_children_and_recursion_counts_once():
    tracer = spans.Tracer()

    def inner():
        busy(0.01)

    def outer():
        busy(0.01)
        inner()
        inner()

    def recurse(n):
        busy(0.002)
        if n:
            recurse(n - 1)

    inner = tracer.wrap("inner", inner)
    outer = tracer.wrap("outer", outer)
    recurse = tracer.wrap("recurse", recurse)
    tracer.enabled = True
    outer()
    recurse(3)
    tracer.enabled = False

    durations = {}
    for nid, start, end in zip(tracer.span_name, tracer.span_start, tracer.span_end):
        durations.setdefault(tracer.names[nid], []).append(end - start)
    totals = tracer.summary(["inner", "outer", "recurse"])
    assert totals["inner"]["calls"] == 2
    assert totals["outer"]["self_s"] == pytest.approx(
        totals["outer"]["total_s"] - totals["inner"]["total_s"], abs=1e-9)
    assert totals["outer"]["self_s"] >= 0.01
    # the four nested recurse spans count once in total_s, each in self_s
    assert totals["recurse"]["calls"] == 4
    assert totals["recurse"]["total_s"] == pytest.approx(durations["recurse"][0])
    assert totals["recurse"]["self_s"] == pytest.approx(totals["recurse"]["total_s"], abs=1e-9)


def test_benchmark_reads_no_private_engine_name():
    private = re.compile(
        r"\b(omegaramsey|ground|ellentuck|games|ramsey|barriers|mathias|oracle|cli)\._\w"
        r"|from omegaramsey[\w.]* import [^\n]*\b_\w")
    for path in (ROOT / "perfbench").rglob("*.py"):
        assert not private.search(path.read_text()), path


def test_spawner_reports_the_childs_own_peak_rss():
    # this test process is far larger than a bare interpreter; the spawner
    # must keep its peak out of the child's ru_maxrss
    done = subprocess.run(
        [sys.executable, "-S", str(ROOT / "perfbench" / "spawner.py")],
        input="\0".join([os.devnull, sys.executable, "-S", "-c", "pass"]) + "\n",
        capture_output=True, text=True, timeout=60)
    code, rss_kb = map(int, done.stdout.split())
    assert code == 0
    assert rss_kb < 12 * 1024


def test_calibration_burst_allocates_no_tracked_object():
    # gc settings an engine change might make then leave the burst's speed alone
    gc.disable()
    try:
        before = gc.get_count()[0]
        clock.burst()
        assert gc.get_count()[0] == before
    finally:
        gc.enable()


def test_interior_bursts_leave_the_scaled_time_alone():
    # a long instance gets bursts inside it; their time is taken out of its
    # own, so the scaled time stays that of the work alone
    def spin():
        end = time.process_time() + 0.3
        while time.process_time() < end:
            pass

    times = {}
    for interior in (False, True):
        scaler = clock.Scaler(interior=interior)
        scaler.timed(spin)
        [times[interior]] = scaler.scaled()
        assert (scaler.count > 2 * clock.FIRST_BURSTS) is interior
    assert times[True] == pytest.approx(times[False], rel=0.35)
