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
  cycles on both kappa routes of the symmetric inputs.

Each child runs with one BLAS thread under a 3 GB RLIMIT_AS, set on the child
only.  Prints each differing run, then `N runs, D differ`, and exits 1 when
D > 0.  The `bench/` modules are imported, never written.
"""

from __future__ import annotations

import glob
import os
import resource
import subprocess
import sys
import tempfile

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
MEMORY_LIMIT = 3 * 2**30
TIMEOUT_S = 600


def _limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT, MEMORY_LIMIT))


def run(tree, argv, cwd):
    """(exit code, stdout) of `python -m kuelsh.cli argv` on tree's sources."""
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"), PYTHONHASHSEED="0")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "kuelsh.cli", *argv],
            env=env,
            cwd=cwd,
            capture_output=True,
            preexec_fn=_limit_memory,
            timeout=TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return "timeout", b""
    return proc.returncode, proc.stdout


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
    return out


def main(argv=None):
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1 or not os.path.isfile(os.path.join(args[0], "src", "kuelsh", "cli.py")):
        print("usage: byte_identity.py PARENT_TREE (a source tree with src/kuelsh)", file=sys.stderr)
        return 2
    parent = os.path.abspath(args[0])
    with tempfile.TemporaryDirectory() as work:
        runs = commands(work)
        differ = 0
        for cmd in runs:
            (code, out), (parent_code, parent_out) = run(ROOT, cmd, work), run(parent, cmd, work)
            if (code, out) != (parent_code, parent_out):
                differ += 1
                what = f"exit {parent_code} -> {code}" if code != parent_code else "stdout"
                shown = " ".join(cmd).replace(work + os.sep, "").replace(ROOT + os.sep, "")
                print(f"differs ({what}): {shown}", flush=True)
        print(f"{len(runs)} runs, {differ} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
