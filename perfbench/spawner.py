"""Starts each CLI process of the cli_cold workload from a small parent.

    python3 -S perfbench/spawner.py

A child's ru_maxrss is at least the peak RSS of the process that started
it, and the cli_cold worker, which holds the benchmark's own modules, is
larger than most CLI processes.  This process imports nothing beyond os and
sys and stays below any interpreter that loads the engine, so the ru_maxrss
that wait4 returns is the CLI process's own peak.

One line each way per command: the worker writes the output path and the
command, NUL-separated; the spawner runs the command with stdout to that
path and stderr discarded, waits for it, and answers
"<exit code> <ru_maxrss in kB>".  It exits at the end of its input.
"""

import os
import sys


def main() -> int:
    while True:
        line = sys.stdin.readline()
        if not line:
            return 0
        out_path, *cmd = line.rstrip("\n").split("\0")
        pid = os.posix_spawnp(cmd[0], cmd, os.environ, file_actions=[
            (os.POSIX_SPAWN_OPEN, 1, out_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o600),
            (os.POSIX_SPAWN_OPEN, 2, os.devnull, os.O_WRONLY, 0)])
        _, status, usage = os.wait4(pid, 0)
        sys.stdout.write(f"{os.waitstatus_to_exitcode(status)} {usage.ru_maxrss}\n")
        sys.stdout.flush()


if __name__ == "__main__":
    sys.exit(main())
