"""Outside-in tracer: wraps the public functions of each `kuelsh` module from
the benchmark's own files, so the program itself is not changed.

Run as a script it is the traced stand-in for `python -m kuelsh.cli`:

    python3 bench/tracer.py SPANS.json JOB_ID -- hh input.json --max-degree 4

It installs the wrappers, calls `kuelsh.cli.main(argv)`, writes the spans it
kept in memory to SPANS.json and exits with main's return code.  Every
binding of a wrapped function is replaced, not only the defining one (for
example `kuelsh.hochschild.row_reduce` and `kuelsh.cli.homology`).

`aggregate` turns the spans of one pass into the per-layer metrics.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time

import numpy as np

# layer -> wrapped names, as "module:qualname" under the kuelsh package
LAYERS = {
    "fieldlin.rref": (
        "fieldlin:row_reduce",
        "fieldlin:RowReduction.__init__",
        "fieldlin:RowReduction.solve",
        "fieldlin:RowReduction.kernel",
        "fieldlin:Subspace.__init__",
    ),
    "fieldlin.subspace": (
        "fieldlin:Subspace.reduce",
        "fieldlin:Subspace.contains",
        "fieldlin:Subspace.quotient_basis",
        "fieldlin:Subspace.quotient_map",
        "fieldlin:Subspace.__and__",
        "fieldlin:preimage",
    ),
    "fieldlin.mat_mul": ("fieldlin:FiniteField.mat_mul",),
    "algebra": (
        "algebra:Algebra.multiply",
        "algebra:Algebra.power",
        "algebra:Algebra.multiply_basis_left",
        "algebra:Algebra.multiply_basis_right",
        "algebra:Algebra.left_mult_matrix",
        "algebra:algebra_validate",
        "algebra:symmetrizing_form_search",
        "algebra:BilinearForm.from_linear_form",
        "algebra:trivial_extension",
        "algebra:algebra_from_json",
    ),
    "hochschild.build": (
        "hochschild:boundary_matrix",
        "hochschild:coboundary_matrix",
        "hochschild:induced_chain_map",
    ),
    "hochschild.homology": (
        "hochschild:homology",
        "hochschild:cohomology",
        "hochschild:HomologyBasis.express",
        "hochschild:hh_of_map",
    ),
    "hochschild.cochain": (
        "hochschild:cup_product",
        "hochschild:cup_power",
        "hochschild:coboundary_apply",
        "hochschild:pairing_vector",
        "hochschild:pairing",
        "hochschild:gram_matrix",
    ),
    "kappa": (
        "kappa:kappa_m_n",
        "kappa:kappa_hat",
        "kappa:kappa_compare_symmetric",
    ),
    "degree0": (
        "degree0:commutator_space",
        "degree0:center",
        "degree0:ppower_on_HH0",
        "degree0:kulshammer_T",
        "degree0:perp",
        "degree0:zeta_n",
        "degree0:kappa_n_direct",
        "degree0:annihilator_in_dual",
        "degree0:bhz_check",
        "degree0:degree0_report",
    ),
    "cli": ("cli:main",),
}

LAYER_OF = {name: layer for layer, names in LAYERS.items() for name in names}

# span names whose calls are reported as counts
COUNTED = {
    "fieldlin.subspace.reduce_calls": "fieldlin:Subspace.reduce",
    "algebra.multiply.calls": "algebra:Algebra.multiply",
    "algebra.trivial_extension.calls": "algebra:trivial_extension",
    "hochschild.coboundary_apply.calls": "hochschild:coboundary_apply",
    "hochschild.pairing_vector.calls": "hochschild:pairing_vector",
    "kappa.kappa_hat.calls": "kappa:kappa_hat",
    "degree0.bhz_check.calls": "degree0:bhz_check",
}

PER_LAYER_METRICS = (
    [(f"{layer}.self_s", "s") for layer in LAYERS]
    + [
        ("fieldlin.rref.calls", "count"),
        ("fieldlin.rref.entries", "count"),
        ("fieldlin.rref.rank_per_row", "ratio"),
        ("fieldlin.mat_mul.calls", "count"),
        ("fieldlin.mat_mul.flops", "count"),
        ("hochschild.build.bytes", "B"),
        ("hochschild.build.memo_hit_ratio", "ratio"),
        ("hochschild.disk_cache.hit_ratio", "ratio"),
        ("hochschild.disk_cache.bytes", "B"),
    ]
    + [(name, "count") for name in COUNTED]
    + [
        ("process.startup_s", "s"),
        ("process.exit_s", "s"),
        ("trace.residual_s", "s"),
        ("trace.overhead_s", "s"),
    ]
)


# -- probes: counters recorded at the wrapped boundaries ------------------------
# Each takes the call's arguments and returns a callable that, given the
# result, returns the span's counters (or None).


def _probe_rowreduction_init(self, matrix):
    return lambda _: {"entries": matrix.rows * matrix.cols, "rank": self.rank, "rows": matrix.rows}


def _probe_subspace_init(self, field, ambient_dim, rows=None):
    if rows is None:
        n = 0
    elif hasattr(rows, "rows"):
        n = rows.rows
    else:
        n = np.asarray(rows).size // max(ambient_dim, 1)
    return lambda _: {"entries": n * ambient_dim, "rank": self.dim, "rows": n}


def _probe_solve(self, b):
    if self._transform is not None:
        return None
    m, n = self.matrix.rows, self.matrix.cols
    return lambda _: {"entries": m * (n + m), "rank": m, "rows": m}


def _probe_mat_mul(self, a, b):
    if a.ndim != 2 or b.ndim != 2:
        return None
    flops = 2 * a.shape[0] * a.shape[1] * b.shape[1] * self.r**2
    return lambda _: {"flops": flops}


def _cached_build(kind):
    def probe(A, m):
        from kuelsh import hochschild

        if (kind, m) in A._cache:
            return lambda _: {"memo": 1}
        path = hochschild._disk_cache_path(A, kind, m) if kind == "boundary" else None
        hit = bool(path) and os.path.exists(path)

        def after(M):
            info = {"memo": 0}
            if path:
                info["disk"] = int(hit)
                info["disk_bytes"] = os.path.getsize(path) if os.path.exists(path) else 0
            if not hit:
                info["bytes"] = M.data.size * 8
            return info

        return after

    return probe


def _probe_chain_map(theta, m):
    return lambda M: {"bytes": M.data.size * 8}


PROBES = {
    "fieldlin:RowReduction.__init__": _probe_rowreduction_init,
    "fieldlin:Subspace.__init__": _probe_subspace_init,
    "fieldlin:RowReduction.solve": _probe_solve,
    "fieldlin:FiniteField.mat_mul": _probe_mat_mul,
    "hochschild:boundary_matrix": _cached_build("boundary"),
    "hochschild:coboundary_matrix": _cached_build("coboundary"),
    "hochschild:induced_chain_map": _probe_chain_map,
}


class Tracer:
    """Spans of one job, kept in memory as (id, name, start, end, parent, info).

    All spans of a process belong to one job, so `dump` stores the job id
    once, next to them.
    """

    def __init__(self, job):
        self.job = job
        self.spans = []
        self._stack = []
        self._next_id = 0

    def wrap(self, name, fn):
        probe = PROBES.get(name)
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else -1
            after = probe(*args, **kwargs) if probe else None
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
            info = after(result) if after else None
            spans.append((sid, name, start, end, parent, info))
            return result

        return traced

    def install(self):
        """Wrap every name in LAYERS at every binding inside the kuelsh package."""
        import importlib

        modules = [m for k, m in list(sys.modules.items()) if k == "kuelsh" or k.startswith("kuelsh.")]
        for name in LAYER_OF:
            modname, qualname = name.split(":")
            module = importlib.import_module(f"kuelsh.{modname}")
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[attr]
                if isinstance(original, property):
                    replaced = property(self.wrap(name, original.fget))
                elif isinstance(original, classmethod):
                    replaced = classmethod(self.wrap(name, original.__func__))
                else:
                    replaced = self.wrap(name, original)
                setattr(cls, attr, replaced)
                continue
            original = getattr(module, qualname)
            wrapped = self.wrap(name, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapped)

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"job": self.job, "spans": self.spans}, fh)


# -- parent side: per-layer metrics from the spans of one pass ---------------------


def aggregate(jobs):
    """Per-layer metrics summed over traced jobs.

    `jobs` holds one dict per job with its `spans` (as dumped) and the
    parent's `spawn` and `exit` clock readings around the process.
    """
    m = {name: 0.0 for name, _ in PER_LAYER_METRICS}
    rref_rank = rref_rows = 0
    memo_calls = memo_hits = disk_lookups = disk_hits = 0
    wall = self_total = 0.0
    for job in jobs:
        spans = job["spans"]
        child = {}
        for sid, name, start, end, parent, info in spans:
            child[parent] = child.get(parent, 0.0) + (end - start)
        main = None
        for sid, name, start, end, parent, info in spans:
            self_s = (end - start) - child.get(sid, 0.0)
            layer = LAYER_OF[name]
            m[f"{layer}.self_s"] += self_s
            self_total += self_s
            if name == "cli:main":
                main = (start, end)
            if info:
                if layer == "fieldlin.rref":
                    m["fieldlin.rref.calls"] += 1
                    m["fieldlin.rref.entries"] += info["entries"]
                    rref_rank += info["rank"]
                    rref_rows += info["rows"]
                elif layer == "fieldlin.mat_mul":
                    m["fieldlin.mat_mul.calls"] += 1
                    m["fieldlin.mat_mul.flops"] += info["flops"]
                else:
                    m["hochschild.build.bytes"] += info.get("bytes", 0)
                    if "memo" in info:
                        memo_calls += 1
                        memo_hits += info["memo"]
                    if "disk" in info:
                        disk_lookups += 1
                        disk_hits += info["disk"]
                        m["hochschild.disk_cache.bytes"] += info["disk_bytes"]
        for metric, name in COUNTED.items():
            m[metric] += sum(1 for s in spans if s[1] == name)
        wall += job["exit"] - job["spawn"]
        m["process.startup_s"] += main[0] - job["spawn"]
        m["process.exit_s"] += job["exit"] - main[1]
    m["fieldlin.rref.rank_per_row"] = rref_rank / rref_rows if rref_rows else 0.0
    m["hochschild.build.memo_hit_ratio"] = memo_hits / memo_calls if memo_calls else 0.0
    m["hochschild.disk_cache.hit_ratio"] = disk_hits / disk_lookups if disk_lookups else 0.0
    m["trace.residual_s"] = wall - m["process.startup_s"] - m["process.exit_s"] - self_total
    return m


def main():
    spans_path, job = sys.argv[1], sys.argv[2]
    argv = sys.argv[4:] if sys.argv[3:4] == ["--"] else sys.argv[3:]
    import kuelsh.cli

    tracer = Tracer(job)
    tracer.install()
    try:
        code = kuelsh.cli.main(argv)
    finally:
        sys.stdout.flush()
        tracer.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main())
