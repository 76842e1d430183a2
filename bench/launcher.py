"""Job launcher: starts each job the benchmark asks for and reports its exit
code, wall time and peak RSS.

    python3 bench/launcher.py

`run.py` starts it once, before it imports numpy or kuelsh, and talks to it
over stdin and stdout: one JSON request line `[argv, env, out_path, err_path,
timeout_s]` per job, one JSON reply line `[exit code, wall s, peak RSS MB,
spawn clock, exit clock]`.  It exits at the end of its input.

Jobs are started from this small process because of how Linux counts peak
RSS.  `posix_spawn` starts a child that shares the caller's memory until it
execs, and at exec the kernel carries the old memory's peak RSS into the
child's `ru_maxrss`.  Spawned straight from the driver, which holds numpy,
kuelsh and the inputs, every job would report at least the driver's peak.
This process imports neither, so its floor lies below any kuelsh job.
"""

from __future__ import annotations

import json
import os
import signal
import sys
import threading
import time


def spawn(argv, env, out_path, err_path, timeout_s):
    """Run argv to completion with stdout and stderr in files.

    The peak RSS comes from `wait4` on this child alone.
    """
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, out_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, err_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
    ]
    start = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, env, file_actions=actions)
    timer = threading.Timer(timeout_s, os.kill, (pid, signal.SIGKILL))
    timer.start()
    try:
        _, status, usage = os.wait4(pid, 0)
    finally:
        timer.cancel()
    end = time.perf_counter()
    return os.waitstatus_to_exitcode(status), end - start, usage.ru_maxrss / 1024, start, end


def main():
    for line in sys.stdin:
        print(json.dumps(spawn(*json.loads(line))), flush=True)


if __name__ == "__main__":
    main()
