"""Benchmark entry point: one workload, one seed, one JSON result on the last line.

    python3 perfbench/run.py --workload partition --seed 1 --seconds 12 --trace 0

Run it from the repository root.  Each workload runs as a single closed-loop
client in fresh interpreters (`python -m perfbench.worker`), one at a time:

- --trace 0 prints the end-to-end metrics.  Four set-up-only interpreters and
  the measuring one each report when they were ready; setup_s is the median.
- --trace 1 prints the per-module metrics: an untraced run, then a traced
  run of the same cycles, whose answers must digest identically.

Every time metric is scaled to a reference machine speed by calibration
bursts timed next to the work (clock.py), so that a shared host's changing
speed does not pass for a change in the engine.

Workloads: partition, calculus_fresh, session_shared, cli_cold.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from perfbench import clock  # noqa: E402
from perfbench.metrics import END_TO_END, PER_LAYER, RATIOS  # noqa: E402
from perfbench.worker import OUT_DIR, WORKLOADS  # noqa: E402

SETUP_SAMPLES = 5
CLI_PROBES = 5
#: every run must end within this many seconds
RUN_LIMIT_S = 170


class BenchError(Exception):
    pass


def worker_env() -> dict:
    return dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))


def run_process(cmd: list, deadline: float, env: dict) -> subprocess.CompletedProcess:
    """Run cmd in its own process group; kill the whole group past the deadline."""
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{' '.join(cmd[1:4])} ran past the time limit")
    return subprocess.CompletedProcess(cmd, proc.returncode, out, None)


def spawn(args, mode: str, deadline: float, env: dict, **extra) -> dict:
    cmd = [sys.executable, "-m", "perfbench.worker", "--workload", args.workload,
           "--seed", str(args.seed), "--mode", mode]
    for key, value in extra.items():
        cmd += [f"--{key}", str(value)]
    before = clock.bursts()
    started = time.monotonic()
    done = run_process(cmd, deadline, env)
    if done.returncode != 0:
        raise BenchError(f"worker ({mode}) exited with {done.returncode}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    # scaled by the machine speed just before the start and just after set-up
    speed = statistics.mean((before, result["ready_burst"]))
    result["setup_s"] = (result["ready"] - started) * clock.REF_BURST_S / speed
    return result


def probe_cli(deadline: float, env: dict) -> tuple[float, float]:
    """Median bare interpreter start, and the median extra for importing the CLI."""
    def median_time(code: str) -> float:
        times = []
        for _ in range(CLI_PROBES):
            t0 = time.perf_counter()
            if run_process([sys.executable, "-c", code], deadline, env).returncode != 0:
                raise BenchError(f"probe {code!r} failed")
            times.append(time.perf_counter() - t0)
        return statistics.median(times)
    bare = median_time("pass")
    return bare, median_time("import omegaramsey.cli") - bare


def pin_to_one_cpu() -> None:
    """Keep this process and every process it starts on one CPU.

    The work and the calibration bursts that scale its times (clock.py) then
    always run on the same CPU, whichever process runs them; the benchmark is
    a single closed-loop client, so nothing it starts waits for a second CPU.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def machine() -> dict:
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            cpu = next((line.split(":", 1)[1].strip() for line in info
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    head = os.path.join(ROOT, ".git", "HEAD")
    if os.path.exists(head):
        with open(head, encoding="utf-8") as f:
            ref = f.read().strip()
        commit = ref
        if ref.startswith("ref: "):
            ref_path = os.path.join(ROOT, ".git", ref[5:])
            if os.path.exists(ref_path):
                with open(ref_path, encoding="utf-8") as f:
                    commit = f.read().strip()
    src = hashlib.sha256()
    pkg = os.path.join(ROOT, "src", "omegaramsey")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as f:
                src.update(name.encode() + b"\0" + f.read())
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "commit": commit, "source_sha256": src.hexdigest()[:16]}


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def report_common(main: dict) -> None:
    attempted = main["attempted"]
    print(f"instances: {attempted} timed in {main['cycles']} cycles of "
          f"{main['cycle_size']} (latency_p90_ms needs >= 100: "
          f"{'valid' if attempted >= 100 else 'INVALID'})")
    print(f"times scaled to the reference speed by {main['bursts']} calibration "
          f"bursts (a burst taking {1000 * clock.REF_BURST_S:g} ms)")
    print(f"answers_digest: {main['digests'][0]} (first cycle, "
          f"{main['cycle_size']} answers)")
    print(f"failed_rate = {main['failed'] / attempted:.6g} share "
          f"({main['failed']} of {attempted} attempted)")
    print(f"wrong_rate = {main['wrong'] / max(main['checked'], 1):.6g} share "
          f"({main['wrong']} of {main['checked']} checked, "
          f"{main['oracle_checked']} by the oracle)")


def end_to_end(args, deadline: float, env: dict) -> tuple[dict, dict]:
    setups = [spawn(args, "setup", deadline, env)["setup_s"]
              for _ in range(SETUP_SAMPLES - 1)]
    main = spawn(args, "run", deadline, env, seconds=args.seconds)
    setups.append(main["setup_s"])
    values = {
        "instances_per_s": main["attempted"] / main["scaled_s"],
        "latency_p50_ms": main["latency_p50_ms"],
        "latency_p90_ms": main["latency_p90_ms"],
        "setup_s": statistics.median(setups),
        "peak_rss_mb": main["peak_rss_mb"],
    }
    return main, {name: metric(values[name], unit) for name, unit, _ in END_TO_END}


def per_layer(args, deadline: float, env: dict) -> tuple[dict, dict, bool]:
    base = spawn(args, "run", deadline, env, seconds=args.seconds)
    traced = spawn(args, "traced", deadline, env, cycles=base["cycles"])
    same = traced["digests"] == base["digests"]
    print(f"traced answers_digest: {traced['digests'][0]} "
          f"({'equal to' if same else 'DIFFERENT FROM'} the untraced run, "
          f"{traced['cycles']} cycles compared)")
    interpreter_s, import_s = probe_cli(deadline, env)
    counts = traced["counts"]
    values = {}
    for name, fields in traced["layers"].items():
        for field, value in fields.items():
            values[f"{name}.{field}"] = value
    for name, (num, den) in RATIOS.items():
        values[name] = counts.get(num, 0) / counts[den] if counts.get(den) else 0.0
    values.update({
        "oracle.checked_ratio": traced["oracle_checked"] / traced["attempted"],
        "cli.interpreter_s": interpreter_s,
        "cli.import_s": import_s,
        "trace.overhead_ratio": traced["scaled_s"] / base["scaled_s"],
        "failed_rate": base["failed"] / base["attempted"],
        "wrong_rate": base["wrong"] / max(base["checked"], 1),
    })
    out = {}
    for name, unit, _ in PER_LAYER:
        out[name] = metric(values.get(name, counts.get(name, 0)), unit)
    ok = same and traced["wrong"] == 0
    return base, out, ok


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    deadline = time.monotonic() + RUN_LIMIT_S
    if not os.path.exists(os.path.join(ROOT, "src", "omegaramsey", "__init__.py")):
        sys.stderr.write("perfbench: no engine source under src/omegaramsey\n")
        return 2
    env = worker_env()
    pin_to_one_cpu()
    try:
        os.makedirs(os.path.join(ROOT, OUT_DIR), exist_ok=True)
        # compile once, untimed, so no interpreter pays for writing bytecode
        if run_process([sys.executable, "-m", "compileall", "-q", "src/omegaramsey",
                        "perfbench"], deadline, env).returncode != 0:
            raise BenchError("compiling the sources failed")
        print(f"perfbench: workload={args.workload} seed={args.seed} "
              f"seconds={args.seconds} trace={args.trace}")
        print(f"machine: {json.dumps(machine(), sort_keys=True)}")
        if args.trace:
            main_run, metrics, ok = per_layer(args, deadline, env)
        else:
            main_run, metrics = end_to_end(args, deadline, env)
            ok = True
    except BenchError as exc:
        sys.stderr.write(f"perfbench: {exc}\n")
        return 1
    report_common(main_run)
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    result = {"correct": ok and main_run["wrong"] == 0,
              "attempted": main_run["attempted"], "failed": main_run["failed"],
              "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
