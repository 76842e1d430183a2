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
* four usage errors on `corpus/dual_f3.json`: a negative degree, `kappa`
  without `--m`, an unknown option and `--format xml`, each of which exits 2
  with nothing on stdout;
* the five large runs `kappa corpus/dual_f3.json --m 7 --n 1 --hat`,
  `--m 8 --n 1 --hat`, `kappa corpus/dual_f2.json --m 8 --n 1 --hat`,
  `kappa corpus/ut3_f3.json --m 2 --n 1 --hat` and `hh --max-degree 6
  --force` on the benchmark's seed-1 input T_dual_f3 in its dense basis,
  once each, which add about 35 s per tree.  The third runs the packed
  GF(2) elimination on T(k[eps])'s degree-8 blocks; the fourth builds HH_6
  of UT3 over F3, which peaks at about 0.9 GB and which a tree whose
  homology builds each block's int64 cycle basis cannot finish under the
  3 GB limit (it exits 1, so that run differs).  The first four are graded;
  the last has one weight class per degree, so each of its differentials,
  up to b_7 (2916 x 8748) and delta_6 (8748 x 2916), is one block.

Each child runs with one BLAS thread under a 3 GB RLIMIT_AS, set on the child
only, and its peak RSS is read from `os.wait4` on both sides.  Prints each
differing run, then the five largest increases in peak RSS and the five
largest decreases, then the wall time and peak RSS of the large runs on
both sides, then the median peak RSS and wall time of `python -c "import
kuelsh.cli"` on each side over 10 runs, alternating between the trees (the
floor of every process), then `N runs, D differ`, and exits 1 when D > 0:
only stdout and exit codes of the compared runs count.  The `bench/` modules
are imported, never written.
"""

from __future__ import annotations

import glob
import os
import resource
import statistics
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
USAGE_ERRORS = (
    ("hh", "dual_f3.json", "--max-degree", "-1"),
    ("kappa", "dual_f3.json", "--n", "1"),
    ("hh", "dual_f3.json", "--no-such-option"),
    ("hh", "dual_f3.json", "--format", "xml"),
)
WALLS = (
    ("kappa", "dual_f3.json", "--m", "7", "--n", "1", "--hat"),
    ("kappa", "dual_f3.json", "--m", "8", "--n", "1", "--hat"),
    ("kappa", "dual_f2.json", "--m", "8", "--n", "1", "--hat"),
    ("kappa", "ut3_f3.json", "--m", "2", "--n", "1", "--hat"),
)
DENSE_WALL = ("hh", ("T_dual_f3", True), "--max-degree", "6", "--force")  # a benchmark spec
MEMORY_LIMIT = 3 * 2**30
TIMEOUT_S = 600
IMPORT_RUNS = 10


def _limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT, MEMORY_LIMIT))


def run(tree, argv, cwd, python=("-m", "kuelsh.cli")):
    """(exit code, stdout, peak RSS in MB, wall seconds) of `python -m
    kuelsh.cli argv`, or of python with other leading arguments, on tree's
    sources; the child is reaped by `os.wait4` for its rusage."""
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"), PYTHONHASHSEED="0")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, *python, *argv],
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

    out, written = [], {}
    specs = list(dict.fromkeys(s for w in workloads.WORKLOADS.values() for s in w.specs))
    for seed in SEEDS:
        paths = written[seed] = inputs.write_inputs(specs, seed, os.path.join(work, f"seed{seed}"))
        for w in workloads.WORKLOADS.values():
            out += [[job.command, paths[job.spec], *job.args] for job in w.jobs]
    for path in sorted(glob.glob(os.path.join(ROOT, "corpus", "*.json"))):
        out += [[cmd[0], path, *cmd[1:]] for cmd in CORPUS_COMMANDS]
    rest = USAGE_ERRORS + WALLS  # the large runs come last
    out += [[cmd, os.path.join(ROOT, "corpus", name), *args] for cmd, name, *args in rest]
    cmd, spec, *args = DENSE_WALL
    return out + [[cmd, written[1][spec], *args]]


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
            if i >= len(runs) - len(WALLS) - 1:
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
        starts = [[], []]  # (peak RSS, wall) of the parent's runs, then of this tree's
        for _ in range(IMPORT_RUNS):
            for tree, times in zip((parent, ROOT), starts):
                times.append(run(tree, [], work, ("-c", "import kuelsh.cli"))[2:])
        (old_rss, old_wall), (rss, wall) = (map(statistics.median, zip(*t)) for t in starts)
        print(f"import kuelsh.cli, median of {IMPORT_RUNS}: {old_wall * 1e3:.1f} ms, "
              f"{old_rss:.2f} MB -> {wall * 1e3:.1f} ms, {rss:.2f} MB")
        print(f"{len(runs)} runs, {differ} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
