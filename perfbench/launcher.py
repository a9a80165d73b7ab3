"""Stand-in for `python -m omegaramsey.cli` in the traced cli_cold run.

    python -m perfbench.launcher SPANS_OUT ARGV...

installs the span wrappers, runs `omegaramsey.cli.run(ARGV)`, writes the
spans to SPANS_OUT as JSON and exits with the CLI's exit code.
"""

from __future__ import annotations

import json
import sys


def main() -> int:
    from . import spans

    out_path, argv = sys.argv[1], sys.argv[2:]
    tracer = spans.Tracer()
    spans.install(tracer)
    from omegaramsey import cli

    tracer.enabled = True
    try:
        return cli.run(argv)
    finally:
        tracer.enabled = False
        with open(out_path, "w", encoding="utf-8") as f:
            json.dump(tracer.dump(), f)


if __name__ == "__main__":
    sys.exit(main())
