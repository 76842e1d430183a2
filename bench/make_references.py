"""Regenerate bench/references.json from the monomial bases.

    PYTHONPATH=src python3 bench/make_references.py

Runs every distinct job of every workload in-process on the unpermuted
monomial-basis algebra and stores the invariants `check.invariants`
extracts.  Before writing, `oracle_check` checks the Hochschild dimensions
of T(k[eps]) against the oracles in `kuelsh.oracle`.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile

from check import REFERENCE_FILE, invariants
from inputs import FIELDS, monomial_algebra
from workloads import WORKLOADS

from kuelsh.algebra import algebra_to_json, morphism_validate
from kuelsh.catalog import dual_numbers
from kuelsh.cli import main as kuelsh_main
from kuelsh.oracle import kunneth_dim_check, periodic_hh_dual_numbers, ta_iso_dual


def reference(job, directory):
    path = os.path.join(directory, f"{job.input}.json")
    with open(path, "w") as fh:
        json.dump(algebra_to_json(monomial_algebra(job.input)), fh)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = kuelsh_main([job.command, path, *job.args])
    if code != 0:
        raise RuntimeError(f"{job.key} exited with {code} on the monomial basis")
    return invariants(job.command, json.loads(out.getvalue()))


def oracle_check(refs):
    """Check the stored HH_m of T(k[eps]) three ways.

    `ta_iso_dual` must be an isomorphism T(k[eps]) -> k[eps] (x) k[eps];
    `kunneth_dim_check` must hold and its tensor side equal the stored
    dimensions; and its product side must equal the Kunneth sum of the
    period-2 dimensions `periodic_hh_dual_numbers` gives for k[eps].
    """
    for key, ref in refs.items():
        command, name = key.split()[:2]
        if command != "hh" or not name.startswith("T_dual_"):
            continue
        F = FIELDS[name.split("_")[-1]]()
        if not morphism_validate(ta_iso_dual(F)):
            raise ValueError(f"T(k[eps]) -> k[eps]^(x)2 is not an isomorphism over {F}")
        stored = [row["hh_dim"] for row in ref["table"]]
        periodic = [periodic_hh_dual_numbers(F, m).dimension for m in range(len(stored))]
        product = [sum(periodic[i] * periodic[m - i] for i in range(m + 1)) for m in range(len(stored))]
        verdicts = kunneth_dim_check(dual_numbers(F), len(stored) - 1)
        if (
            not all(v.ok for v in verdicts)
            or [v.tensor_side for v in verdicts] != stored
            or [v.product_side for v in verdicts] != product
        ):
            raise ValueError(f"{key}: oracles {verdicts} and periodic {periodic} disagree with {stored}")


def main():
    jobs = {job.key: job for w in WORKLOADS.values() for job in w.jobs}
    refs = {}
    with tempfile.TemporaryDirectory() as tmp:
        for key in sorted(jobs):
            print(key, file=sys.stderr)
            refs[key] = reference(jobs[key], tmp)
    oracle_check(refs)
    with open(REFERENCE_FILE, "w") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
