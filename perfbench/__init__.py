"""Seeded end-to-end and per-module benchmark for the omegaramsey engine.

Run it from the repository root:

    python3 perfbench/run.py --workload partition --seed 1 --seconds 12 --trace 0

`run.py` is the entry point; every workload runs in fresh interpreters started
with `python -m perfbench.worker`, so module-level caches and RSS start empty.
"""
