"""One workload in one fresh interpreter: set up, run timed cycles, check.

Started by run.py as `python -m perfbench.worker` from the repository root.
It prints one JSON object with its measurements on stdout.  Modes:

- setup:  import, build inputs and warm up, then report when it was ready;
- run:    also run whole cycles until `--seconds` of timed work have passed
          and at least MIN_INSTANCES were timed, checking every answer;
- traced: the same with span tracing installed.

Instance latencies are scaled to a reference machine speed by calibration
bursts run between the instances (clock.py).

`--cycles N` runs exactly N cycles instead, so a traced run can repeat the
instances of an untraced one.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import shutil
import statistics
import sys
import time

from . import clock
from .common import digest
from .workload import ORACLE

WORKLOADS = {
    "partition": "perfbench.partition:Partition",
    "calculus_fresh": "perfbench.calculus_fresh:CalculusFresh",
    "session_shared": "perfbench.session_shared:SessionShared",
    "cli_cold": "perfbench.cli_cold:CliCold",
}

#: p90 needs at least ten samples beyond it
MIN_INSTANCES = 100

OUT_DIR = ".perfbench_out"


def load(name: str):
    module, cls = WORKLOADS[name].split(":")
    return getattr(importlib.import_module(module), cls)


def percentile(values: list, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="perfbench.worker")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "run", "traced"), required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--cycles", type=int, default=0)
    args = ap.parse_args(argv)

    tracer = None
    if args.mode == "traced":
        from . import spans
        tracer = spans.Tracer()
        spans.install(tracer)

    workdir = os.path.abspath(os.path.join(OUT_DIR, f"tmp-{args.workload}-{os.getpid()}"))
    os.makedirs(workdir)
    try:
        workload = load(args.workload)(args.seed, workdir)
        try:
            result = measure(workload, args, tracer)
        finally:
            workload.close()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if tracer is not None:
        with open(os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.json"),
                  "w", encoding="utf-8") as f:
            json.dump(tracer.dump(), f)
        result["layers"] = tracer.summary()
        result["counts"] = dict(tracer.counts)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


def measure(workload, args, tracer) -> dict:
    pending = workload.generate(0)
    workload.warm_up()
    ready = time.monotonic()
    ready_burst = clock.bursts()
    if args.mode == "setup":
        return {"ready": ready, "ready_burst": ready_burst}
    if tracer is not None:
        workload.use_tracer(tracer)

    # latencies are raw until the run ends, then scaled to the reference
    # speed (clock.py); wall is raw and only decides when the run stops
    scaler = clock.Scaler(interior=tracer is None)
    latencies: list[float] = []
    digests: list[str] = []
    wall = 0.0
    peak_rss_mb = None
    totals = dict(attempted=0, failed=0, checked=0, oracle_checked=0, wrong=0)
    cycle = 0
    while True:
        insts = pending if cycle == 0 else workload.generate(cycle)
        first_id = len(latencies)
        answers = []
        if tracer is not None:
            tracer.enabled = True
        start = time.perf_counter()
        for k, inst in enumerate(insts):
            if tracer is not None:
                tracer.instance = first_id + k
            answer, took = scaler.timed(workload.run, inst)
            answers.append(answer)
            latencies.append(took)
        wall += time.perf_counter() - start
        if peak_rss_mb is None:
            # memory after a fixed amount of work, whatever the machine speed
            peak_rss_mb = workload.peak_rss_mb()
        for k, (inst, answer) in enumerate(zip(insts, answers)):
            if tracer is not None:
                tracer.instance = first_id + k
            verdict = workload.check(inst, answer)
            totals["attempted"] += 1
            totals["failed"] += answer.failed
            if verdict.how is not None:
                totals["checked"] += 1
                totals["oracle_checked"] += verdict.how == ORACLE
                if not verdict.ok:
                    totals["wrong"] += 1
                    sys.stderr.write(f"wrong answer: {args.workload} seed {args.seed} "
                                     f"instance {first_id + k}: {answer.record}\n")
        if tracer is not None:
            tracer.enabled = False
        digests.append(digest(a.record for a in answers))
        cycle += 1
        if args.cycles:
            if cycle >= args.cycles:
                break
        elif wall >= args.seconds and len(latencies) >= MIN_INSTANCES:
            break

    latencies = scaler.scaled()
    return dict(totals, ready=ready, ready_burst=ready_burst, cycles=cycle,
                cycle_size=workload.cycle_size, wall_s=wall, scaled_s=sum(latencies),
                bursts=scaler.count, peak_rss_mb=peak_rss_mb, digests=digests,
                latency_p50_ms=1000 * statistics.median(latencies),
                latency_p90_ms=1000 * percentile(latencies, 90))


if __name__ == "__main__":
    sys.exit(main())
