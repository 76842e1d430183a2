"""Compare the reports of this checkout with those of another source tree.

    python3 tools/byte_identity.py PARENT_TREE

Runs the same `kuelsh` commands from this checkout's `src/` and from
`PARENT_TREE/src/` and compares stdout and exit code, run by run:

* every job of the benchmark's workloads (`bench/workloads.py`), on inputs
  written once by `bench/inputs.write_inputs` for seeds 1 and 2;
* `validate`, `degree0 --n 1`, `degree0 --n 3`, `hh --max-degree 3`,
  `hh --max-degree 4 --force`, `kappa --m 1 --n 1`, `kappa --m 1 --n 1 --hat`,
  `kappa --m 0 --n 2 --hat` and `kappa --m 2 --n 1` on every `corpus/*.json`
  of this checkout.  The last one checks degree-2 cocycles and degree-2p
  cycles on both kappa routes of the symmetric inputs;
* the four large runs `kappa corpus/dual_f3.json --m 7 --n 1 --hat`,
  `--m 8 --n 1 --hat`, `kappa corpus/dual_f2.json --m 8 --n 1 --hat` and
  `kappa corpus/ut3_f3.json --m 2 --n 1 --hat`, once each, which add about
  30 s per tree.  The third runs the packed GF(2) elimination on T(k[eps])'s
  degree-8 blocks; the last builds HH_6 of UT3 over F3, which peaks at about
  1.4 GB and which a tree whose homology builds each block's int64 cycle
  basis cannot finish under the 3 GB limit (it exits 1, so that run
  differs).

Each child runs with one BLAS thread under a 3 GB RLIMIT_AS, set on the child
only, and its peak RSS is read from `os.wait4` on both sides.  Prints each
differing run, then the five largest increases in peak RSS and the five
largest decreases, then the wall time and peak RSS of the large runs on
both sides, then `N runs, D differ`, and exits 1 when D > 0: only stdout and
exit codes count.  The `bench/` modules are imported, never written.
"""

from __future__ import annotations

import glob
import os
import resource
import subprocess
import sys
import tempfile
import threading
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEEDS = (1, 2)
CORPUS_COMMANDS = (
    ("validate",),
    ("degree0", "--n", "1"),
    ("degree0", "--n", "3"),
    ("hh", "--max-degree", "3"),
    ("hh", "--max-degree", "4", "--force"),
    ("kappa", "--m", "1", "--n", "1"),
    ("kappa", "--m", "1", "--n", "1", "--hat"),
    ("kappa", "--m", "0", "--n", "2", "--hat"),
    ("kappa", "--m", "2", "--n", "1"),
)
WALLS = (
    ("kappa", "dual_f3.json", "--m", "7", "--n", "1", "--hat"),
    ("kappa", "dual_f3.json", "--m", "8", "--n", "1", "--hat"),
    ("kappa", "dual_f2.json", "--m", "8", "--n", "1", "--hat"),
    ("kappa", "ut3_f3.json", "--m", "2", "--n", "1", "--hat"),
)
MEMORY_LIMIT = 3 * 2**30
TIMEOUT_S = 600


def _limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT, MEMORY_LIMIT))


def run(tree, argv, cwd):
    """(exit code, stdout, peak RSS in MB, wall seconds) of `python -m
    kuelsh.cli argv` on tree's sources; the child is reaped by `os.wait4` for
    its rusage."""
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"), PYTHONHASHSEED="0")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-m", "kuelsh.cli", *argv],
        env=env,
        cwd=cwd,
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        preexec_fn=_limit_memory,
    )
    killed = []
    timer = threading.Timer(TIMEOUT_S, lambda: killed.append(proc.kill()))
    timer.start()
    with proc.stdout:
        out = proc.stdout.read()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)  # a late kill is a no-op
    timer.cancel()
    code = "timeout" if killed else proc.returncode
    return code, out, usage.ru_maxrss / 1024, time.perf_counter() - start


def commands(work):
    """Every compared argv; benchmark inputs are written under work."""
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")]
    import inputs
    import workloads

    out = []
    specs = list(dict.fromkeys(s for w in workloads.WORKLOADS.values() for s in w.specs))
    for seed in SEEDS:
        paths = inputs.write_inputs(specs, seed, os.path.join(work, f"seed{seed}"))
        for w in workloads.WORKLOADS.values():
            out += [[job.command, paths[job.spec], *job.args] for job in w.jobs]
    for path in sorted(glob.glob(os.path.join(ROOT, "corpus", "*.json"))):
        out += [[cmd[0], path, *cmd[1:]] for cmd in CORPUS_COMMANDS]
    out += [[cmd, os.path.join(ROOT, "corpus", name), *rest] for cmd, name, *rest in WALLS]
    return out


def main(argv=None):
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1 or not os.path.isfile(os.path.join(args[0], "src", "kuelsh", "cli.py")):
        print("usage: byte_identity.py PARENT_TREE (a source tree with src/kuelsh)", file=sys.stderr)
        return 2
    parent = os.path.abspath(args[0])
    with tempfile.TemporaryDirectory() as work:
        runs = commands(work)
        differ, peaks, walls = 0, [], []
        for i, cmd in enumerate(runs):
            code, out, peak, wall = run(ROOT, cmd, work)
            parent_code, parent_out, parent_peak, parent_wall = run(parent, cmd, work)
            shown = " ".join(cmd).replace(work + os.sep, "").replace(ROOT + os.sep, "")
            peaks.append((peak - parent_peak, parent_peak, peak, shown))
            if i >= len(runs) - len(WALLS):
                before = f"{parent_wall:.1f} s, {parent_peak:.1f} MB"
                walls.append(f"large run {before} -> {wall:.1f} s, {peak:.1f} MB: {shown}")
            if (code, out) != (parent_code, parent_out):
                differ += 1
                what = f"exit {parent_code} -> {code}" if code != parent_code else "stdout"
                print(f"differs ({what}): {shown}", flush=True)
        ranked = sorted(peaks, reverse=True)
        for rise, before, after, shown in ranked[:5] + ranked[:-6:-1]:
            print(f"peak RSS {rise:+.1f} MB ({before:.1f} -> {after:.1f}): {shown}")
        print(*walls, sep="\n")
        print(f"{len(runs)} runs, {differ} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
