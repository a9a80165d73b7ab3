"""The benchmark's metric catalogue: names, units and which way is better.

BENCHMARK.json lists the same names; a test keeps the two in step.
"""

from __future__ import annotations

from .spans import ROUTES, TRACED

#: (name, unit, better); printed with --trace 0
END_TO_END = (
    ("instances_per_s", "1/s", "higher"),
    ("latency_p50_ms", "ms", "lower"),
    ("latency_p90_ms", "ms", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

#: printed by name with every run, but not bounded: both can be 0
OUTCOME_RATES = (
    ("failed_rate", "share", "lower"),
    ("wrong_rate", "share", "lower"),
)

#: derived counters: name -> (numerator count, denominator count)
RATIOS = {
    "games.play.completed_ratio": ("games.play.completed", "games.play.calls"),
    "games.decide_all_finite.completed_ratio": ("games.decide_all_finite.completed",
                                                "games.decide_all_finite.calls"),
    "ramsey.solve_partition.admissible_ratio": ("ramsey.solve_partition.admissible",
                                                "ramsey.solve_partition.answered"),
    "barriers.nw_homogenize.homogeneous_ratio": ("barriers.nw_homogenize.homogeneous",
                                                 "barriers.nw_homogenize.calls"),
}

#: routes that fall back rather than construct: fewer is better
FALLBACK_ROUTES = ("exhaustive", "classical", "other")


def _per_layer() -> tuple:
    out = []
    for module, names in TRACED.items():
        for fn in names:
            out.append((f"{module}.{fn}.calls", "count", "lower"))
            out.append((f"{module}.{fn}.total_s", "s", "lower"))
            if module != "cli":
                out.append((f"{module}.{fn}.self_s", "s", "lower"))
    for route in ROUTES + ("other",):
        out.append((f"ramsey.solve_partition.route.{route}", "count",
                    "lower" if route in FALLBACK_ROUTES else "higher"))
    out += [(name, "ratio", "higher") for name in RATIOS]
    out += [
        ("oracle.checked_ratio", "ratio", "higher"),
        ("cli.interpreter_s", "s", "lower"),
        ("cli.import_s", "s", "lower"),
        ("trace.overhead_ratio", "ratio", "lower"),
    ]
    return tuple(out) + OUTCOME_RATES


#: (name, unit, better); printed with --trace 1
PER_LAYER = _per_layer()
