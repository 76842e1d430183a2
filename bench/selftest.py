"""The benchmark's own tests.

    python3 bench/selftest.py

It checks that a job started through the launcher reports its own peak RSS,
not the driver's, and for each workload that:
- the same seed, run twice, gives byte-identical stdout for every job and
  identical per-layer counts in the trace;
- traced and untraced stdout are byte-identical;
- another seed changes the input bytes (of at least one input) but none of
  the invariants.
Exits 1 if any check failed.
"""

from __future__ import annotations

import os
import resource
import sys

import run

SEED, OTHER_SEED = 11, 12


def counts(results):
    from tracer import PER_LAYER_METRICS, aggregate

    layer = aggregate(results)
    return {name: layer[name] for name, unit in PER_LAYER_METRICS if unit != "s"}


def check_workload(workload, references):
    first = run.Runner(workload, SEED, references)
    second = run.Runner(workload, SEED, references)
    other = run.Runner(workload, OTHER_SEED, references)
    try:
        plain = first.run_pass()
        traced = first.run_pass(traced=True)
        again = second.run_pass(traced=True)
        moved = other.run_pass()
        if not all(r["ok"] for r in plain + traced + again + moved):
            return "a job failed its invariant check"
        for job, a, b, c in zip(workload.jobs, plain, traced, again):
            if a["stdout"] != b["stdout"]:
                return f"{job.key}: traced stdout differs from untraced"
            if b["stdout"] != c["stdout"]:
                return f"{job.key}: stdout differs between two runs of seed {SEED}"
        if counts(traced) != counts(again):
            return f"per-layer counts differ between two runs of seed {SEED}"
        # dual_f2 has a single basis change of this kind, so not every input can move
        changed = 0
        for spec, path in first.paths.items():
            with open(path, "rb") as fa, open(other.paths[spec], "rb") as fb:
                changed += fa.read() != fb.read()
        if not changed:
            return f"seeds {SEED} and {OTHER_SEED} give the same inputs"
    finally:
        for runner in (first, second, other):
            runner.close()
    return None


def check_launcher():
    """`python -c pass` must report well under the driver's own peak RSS."""
    out = os.path.join(run.WORK_ROOT, "launcher.out")
    os.makedirs(run.WORK_ROOT, exist_ok=True)
    try:
        code, _, rss, _, _ = run.spawn([sys.executable, "-c", "pass"], run.child_env(), out, out)
    finally:
        os.remove(out)
    driver = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if code != 0 or rss > driver / 2:
        return f"`python -c pass` exited {code} with peak RSS {rss:.1f} MB; the driver's is {driver:.1f} MB"
    return None


def report(name, problem):
    print(f"{'FAIL' if problem else 'ok':4} {name}" + (f": {problem}" if problem else ""))
    return problem is not None


def main():
    try:
        run.prepare()
        from check import load_references
        from workloads import WORKLOADS

        references = load_references()
        failed = report("launcher", check_launcher())
        for name, workload in WORKLOADS.items():
            failed |= report(name, check_workload(workload, references))
    finally:
        run.close_launcher()
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
