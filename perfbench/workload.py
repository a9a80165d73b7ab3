"""The interface every workload implements, and the answer record it returns."""

from __future__ import annotations

import resource
from dataclasses import dataclass, field
from typing import Any, Optional

#: check outcomes: how an answer was judged
ORACLE = "oracle"
INVARIANT = "invariant"


@dataclass
class Answer:
    """One instance's result.

    record is the JSON-able verdict and witness that goes into the answers
    digest; failed marks an EngineError, an UNKNOWN verdict or a budget
    NotFound; ctx carries engine objects the check needs.
    """

    record: Any
    failed: bool = False
    ctx: Any = field(default=None, repr=False)


@dataclass
class Check:
    """How an answer was judged (ORACLE, INVARIANT or None for unchecked)."""

    how: Optional[str]
    ok: bool = True


UNCHECKED = Check(None)


class Workload:
    """A seeded stream of instances, answered one at a time (closed loop).

    Constructing the workload is part of set-up.  `generate(cycle)` returns
    `cycle_size` plain-data instances for that cycle; `run` is the only
    method timed; `check` judges an answer outside the timer.  Every cycle
    has the same mix, so throughput does not depend on where a run stops.
    """

    name = ""
    cycle_size = 0

    def __init__(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.workdir = workdir

    def warm_up(self) -> None:
        """Fill caches and finish lazy set-up before timing (default: none)."""

    def generate(self, cycle: int) -> list:
        raise NotImplementedError

    def run(self, inst) -> Answer:
        raise NotImplementedError

    def check(self, inst, answer: Answer) -> Check:
        raise NotImplementedError

    def peak_rss_mb(self) -> float:
        """Peak RSS of the process that does the work (default: this one)."""
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def close(self) -> None:
        """Stop what set-up started (default: nothing)."""

    def use_tracer(self, tracer) -> None:
        """Called before the timed cycles of a traced run (default: nothing)."""
