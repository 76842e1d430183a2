"""Invariant gate: basis-independent facts extracted from each job's report,
compared with references computed once from the monomial bases.

`references.json` is written by `make_references.py`, which also checks it
against the independent oracles in `kuelsh.oracle`.
"""

from __future__ import annotations

import json
import os

REFERENCE_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "references.json")


def _dims(subspaces):
    return [len(rows) for rows in subspaces]


def invariants(command, doc):
    """The basis-independent part of a parsed `kuelsh <command>` report."""
    if command == "hh":
        return {"form_status": doc["form_status"], "table": doc["table"]}
    if command == "kappa":
        out = {"form_status": doc["form_status"], "routes_equal": doc.get("routes_equal")}
        for route in ("kappa", "kappa_hat"):
            if route in doc:
                out[route] = {
                    k: doc[route][k]
                    for k in ("domain_degree", "codomain_degree", "twist", "rank")
                }
        return out
    if command == "degree0":
        out = {
            "form_status": doc["form_status"],
            "KA": len(doc["KA"]),
            "center": len(doc["center"]),
            "T": _dims(doc["T"]),
            "ann_dual": _dims(doc["ann_dual"]),
            "bhz": doc["bhz"],
        }
        if "T_perp" in doc:
            out["T_perp"] = _dims(doc["T_perp"])
        return out
    raise ValueError(f"no invariants defined for {command!r}")


def job_invariants(command, stdout):
    """Invariants of raw stdout bytes; raises ValueError on a malformed report."""
    try:
        doc = json.loads(stdout)
    except json.JSONDecodeError as exc:
        raise ValueError(f"report is not JSON: {exc}") from exc
    try:
        return invariants(command, doc)
    except (KeyError, TypeError) as exc:
        raise ValueError(f"report lacks {exc}") from exc


def load_references(path=REFERENCE_FILE):
    with open(path) as fh:
        return json.load(fh)
