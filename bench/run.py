"""kuelsh benchmark runner.

    python3 bench/run.py --workload hh_monomial --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload all --seed 1

Runs from the root of a source checkout (it imports `src/kuelsh`, nothing
installed).  One parent process runs the workload's `kuelsh` jobs one at a
time, one subprocess per job (a closed loop with a single client).  The jobs
are started by `launcher.py`, a small process of their own, so that their
peak RSS does not include the driver's.

Set-up writes the seeded inputs and runs one untimed `kuelsh validate` as a
warm-up.  Then iterations repeat for `--seconds` (at least one whole
iteration).  Each runs `kuelsh validate` once on every input, then one pass
over the job list; `setup_s` is the median of all validate runs, spread over
the whole window.  With `--trace 0` the window is cut between two runs: no
run starts once it is over.  Every job's report is checked against the
stored invariants.  With `--trace 0` the last stdout line is the end-to-end
result: `wall_s` is the sum over jobs of each job's median wall time,
`peak_rss_mb` the largest over jobs of each job's median peak RSS.  With
`--trace 1` each iteration also runs one traced pass, iterations are whole,
and the result holds the per-layer metrics (medians over the traced
passes).  `--workload all` runs every workload untraced, prints a table with
`fail_frac`, and exits 1 when any check failed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".bench_work")
JOB_TIMEOUT_S = 150
# One BLAS thread per job: on a small shared VM a second thread waits on the
# busiest core, and the spread between runs grows with it.
THREADS = "1"

_launcher = None


def prepare():
    """Start the job launcher, then import kuelsh from src/.

    The launcher has to start before numpy and kuelsh are imported here; see
    launcher.py.  `close_launcher` stops it.
    """
    global _launcher
    if not os.path.isfile(os.path.join(SRC, "kuelsh", "cli.py")):
        sys.exit(f"error: no kuelsh sources under {SRC}; run from a source checkout")
    _launcher = subprocess.Popen(
        [sys.executable, os.path.join(BENCH_DIR, "launcher.py")],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        text=True,
    )
    sys.path[:0] = [SRC, BENCH_DIR]
    import kuelsh

    if not os.path.abspath(kuelsh.__file__).startswith(SRC + os.sep):
        sys.exit(f"error: imported kuelsh from {kuelsh.__file__}, not from {SRC}")


def child_env(cache_dir=None):
    env = {k: v for k, v in os.environ.items() if k != "KUELSH_CACHE_DIR"}
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = THREADS
    if cache_dir:
        env["KUELSH_CACHE_DIR"] = cache_dir
    return env


def close_launcher():
    if _launcher:
        _launcher.stdin.close()
        _launcher.wait()


def spawn(argv, env, out_path, err_path):
    """Run argv to completion through the launcher.

    Returns (exit code, wall seconds, peak RSS in MB, spawn clock, exit clock).
    """
    _launcher.stdin.write(json.dumps([argv, env, out_path, err_path, JOB_TIMEOUT_S]) + "\n")
    _launcher.stdin.flush()
    reply = _launcher.stdout.readline()
    if not reply:
        raise RuntimeError("the job launcher exited")
    return tuple(json.loads(reply))


class Runner:
    """Inputs and scratch space of one workload run, under WORK_ROOT."""

    def __init__(self, workload, seed, references):
        from inputs import write_inputs

        self.workload = workload
        self.references = references
        os.makedirs(WORK_ROOT, exist_ok=True)
        self.dir = tempfile.mkdtemp(prefix=f"{workload.name}-{seed}-", dir=WORK_ROOT)
        self.paths = write_inputs(workload.specs, seed, os.path.join(self.dir, "inputs"))
        self._count = 0

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)

    def _files(self):
        self._count += 1
        base = os.path.join(self.dir, f"job{self._count}")
        return base + ".out", base + ".err", base + ".spans.json"

    def validate(self, paths=None, deadline=None):
        """`kuelsh validate` on each input (or on `paths`): (seconds per run, failures).

        With a deadline, inputs not yet started when it has passed are skipped.
        """
        times, failed = [], 0
        for path in self.paths.values() if paths is None else paths:
            if deadline is not None and time.perf_counter() > deadline:
                break
            out, err, _ = self._files()
            argv = [sys.executable, "-m", "kuelsh.cli", "validate", path]
            code, wall, _, _, _ = spawn(argv, child_env(), out, err)
            times.append(wall)
            with open(out, "rb") as fh:
                report = fh.read()
            try:
                valid = json.loads(report)["valid"] is True
            except (ValueError, KeyError, TypeError):
                valid = False
            failed += code != 0 or not valid
        return times, failed

    def run_job(self, job, cache_dir=None, traced=False):
        """One job: dict with code, wall, rss, stdout bytes, ok, and spans if traced."""
        out, err, spans_path = self._files()
        path = self.paths[job.spec]
        if traced:
            head = [sys.executable, os.path.join(BENCH_DIR, "tracer.py"), spans_path, job.key, "--"]
        else:
            head = [sys.executable, "-m", "kuelsh.cli"]
        argv = head + [job.command, path, *job.args]
        code, wall, rss, t0, t1 = spawn(argv, child_env(cache_dir), out, err)
        with open(out, "rb") as fh:
            stdout = fh.read()
        result = {"code": code, "wall": wall, "rss": rss, "stdout": stdout, "spawn": t0, "exit": t1}
        result["ok"] = code == 0 and self.check(job, stdout)
        if traced and code == 0:
            with open(spans_path) as fh:
                result["spans"] = json.load(fh)["spans"]
        if not result["ok"]:
            with open(err, "rb") as fh:
                tail = fh.read()[-2000:].decode(errors="replace")
            print(f"FAILED {job.key} (dense={job.dense}): exit {code}\n{tail}", file=sys.stderr)
        return result

    def check(self, job, stdout):
        from check import job_invariants

        try:
            got = job_invariants(job.command, stdout)
        except ValueError as exc:
            print(f"{job.key}: {exc}", file=sys.stderr)
            return False
        want = self.references.get(job.key)
        if got != want:
            print(f"{job.key}: invariants {got} != reference {want}", file=sys.stderr)
            return False
        return True

    def run_pass(self, traced=False, deadline=None):
        """The jobs once, in order; a fresh disk cache when the workload uses one.

        With a deadline, jobs not yet started when it has passed are skipped.
        """
        cache_dir = None
        if self.workload.disk_cache:
            self._count += 1
            cache_dir = os.path.join(self.dir, f"cache{self._count}")
            os.makedirs(cache_dir)
        results = []
        try:
            for job in self.workload.jobs:
                if deadline is not None and time.perf_counter() > deadline:
                    break
                results.append(self.run_job(job, cache_dir, traced))
            return results
        finally:
            if cache_dir:
                shutil.rmtree(cache_dir, ignore_errors=True)


def measure(workload, seed, seconds, trace, references):
    """One benchmark run; returns (attempted, failed, metrics)."""
    runner = Runner(workload, seed, references)
    try:
        # untimed warm-up: loads the interpreter, numpy and kuelsh from disk
        attempted, failed = 1, runner.validate([next(iter(runner.paths.values()))])[1]
        if trace:
            tried, bad, metrics = _measure_layers(runner, seconds)
        else:
            tried, bad, metrics = _measure_end_to_end(runner, seconds)
    finally:
        runner.close()
    return attempted + tried, failed + bad, metrics


def _measure_end_to_end(runner, seconds):
    """Validate runs and passes, repeated until `seconds` have elapsed.

    The window is cut between two jobs, once one whole iteration is done.
    """
    setup_times, walls, rss = [], [[] for _ in runner.workload.jobs], [[] for _ in runner.workload.jobs]
    attempted = failed = 0
    deadline = None
    start = time.perf_counter()
    while deadline is None or time.perf_counter() <= deadline:
        times, bad = runner.validate(deadline=deadline)
        setup_times += times
        attempted += len(times)
        failed += bad
        plain = runner.run_pass(deadline=deadline)
        attempted += len(plain)
        failed += sum(not r["ok"] for r in plain)
        for i, r in enumerate(plain):
            walls[i].append(r["wall"])
            rss[i].append(r["rss"])
        deadline = start + seconds
    metrics = {
        "wall_s": {"value": sum(statistics.median(w) for w in walls), "unit": "s"},
        "peak_rss_mb": {"value": max(statistics.median(r) for r in rss), "unit": "MB"},
        "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
    }
    return attempted, failed, metrics


def _measure_layers(runner, seconds):
    """Validate runs, an untraced and a traced pass, repeated until `seconds`
    have elapsed; per-layer metrics are medians over the traced passes."""
    from tracer import PER_LAYER_METRICS, aggregate

    layers = []
    attempted = failed = 0
    start = time.perf_counter()
    while not attempted or time.perf_counter() - start < seconds:
        times, bad = runner.validate()
        attempted += len(times)
        failed += bad
        plain = runner.run_pass()
        traced = runner.run_pass(traced=True)
        attempted += len(plain) + len(traced)
        failed += sum(not r["ok"] for r in plain + traced)
        if all(r["ok"] for r in traced):
            layer = aggregate(traced)
            layer["trace.overhead_s"] = sum(r["wall"] for r in traced) - sum(r["wall"] for r in plain)
            layers.append(layer)
    metrics = {
        name: {"value": statistics.median(p[name] for p in layers) if layers else 0.0, "unit": unit}
        for name, unit in PER_LAYER_METRICS
    }
    return attempted, failed, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description="kuelsh benchmark")
    parser.add_argument("--workload", required=True, help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        prepare()
        return run_workloads(args)
    finally:
        close_launcher()


def run_workloads(args):
    from check import load_references
    from workloads import WORKLOADS

    if args.workload != "all" and args.workload not in WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)} or 'all'")
    references = load_references()

    if args.workload == "all":
        bad = 0
        print(f"{'workload':<14} {'wall_s':>9} {'peak_rss_mb':>12} {'setup_s':>8} {'fail_frac':>10}")
        for name, workload in WORKLOADS.items():
            attempted, failed, m = measure(workload, args.seed, 0, 0, references)
            bad += failed
            print(
                f"{name:<14} {m['wall_s']['value']:>8.3f}s {m['peak_rss_mb']['value']:>10.1f}MB "
                f"{m['setup_s']['value']:>7.3f}s {failed / attempted:>10.4f}"
            )
        return 1 if bad else 0

    attempted, failed, metrics = measure(
        WORKLOADS[args.workload], args.seed, args.seconds, args.trace, references
    )
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
