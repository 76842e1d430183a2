"""Command line front end: algebra ingestion, invariant computation, reports.

Input is the algebra JSON schema produced by `algebra_to_json`; output is a
deterministic JSON document on stdout (identical inputs give byte-identical
reports).  Exit codes: 0 success, 1 mathematical failure (invalid algebra,
degenerate form, exceeded budget) or allocation failure, 2 I/O or parse errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .algebra import (
    BilinearForm,
    algebra_from_json,
    algebra_validate,
    symmetrizing_form_search,
)
from .degree0 import degree0_report
from .errors import (
    BudgetExceeded,
    DegenerateForm,
    KuelshError,
    NotSymmetric,
    ValidationFailure,
)
from .fieldlin import _rank
from .hochschild import chain_dim, cohomology, gram_matrix, homology
from .kappa import kappa_compare_symmetric, kappa_hat

DEFAULT_COLUMN_BUDGET = 10_000


class ParseFailure(Exception):
    """Schema or file level problem; maps to exit code 2."""


def _degree(text):
    """argparse type of --m, --n, --max-degree and --budget: an integer >= 0."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {text!r}")
    return int(text)


def _load_algebra(path):
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ParseFailure(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseFailure(
            f"invalid JSON in {path}: {exc.msg} at line {exc.lineno} column {exc.colno}"
        ) from exc
    try:
        return algebra_from_json(doc)
    except (ValueError, KuelshError) as exc:
        raise ParseFailure(f"malformed algebra document {path}: {exc}") from exc


def _require_valid(A):
    rep = algebra_validate(A)
    if not rep.ok:
        raise ValidationFailure(
            "algebra axioms fail: "
            f"{len(rep.unit_violations)} unit and "
            f"{len(rep.associativity_violations)} associativity violations"
        )


def _resolve_form(A, choice):
    """Returns (lam or None, status string)."""
    if choice == "none":
        return None, "none"
    if choice == "auto":
        res = symmetrizing_form_search(A)
        return res.form, res.status
    try:
        with open(choice) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ParseFailure(f"cannot read form file {choice}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseFailure(f"invalid JSON in form file {choice}: {exc.msg}") from exc
    values = doc.get("form") if isinstance(doc, dict) else doc
    if not isinstance(values, list) or len(values) != A.dim:
        raise ParseFailure("form file must hold one scalar per basis vector")
    try:
        lam = np.array([A.field.decode_scalar(v) for v in values], dtype=np.int64)
    except ValueError as exc:
        raise ParseFailure(f"malformed form file {choice}: {exc}") from exc
    form = BilinearForm.from_linear_form(A, lam)
    if not form.is_symmetric() or not form.is_nondegenerate():
        raise DegenerateForm("supplied form is not symmetrizing or is degenerate")
    return lam, "supplied"


def _enc_vector(F, v):
    return [F.encode_scalar(int(x)) for x in v]


def _enc_matrix(F, M):
    return [_enc_vector(F, row) for row in M.data]


def _enc_subspace(F, S):
    return _enc_matrix(F, S.basis)


def _enc_semilinear(F, sm):
    return {"matrix": _enc_matrix(F, sm.matrix), "twist": sm.twist}


def _enc_kappa(F, km):
    return {
        "domain_degree": km.domain_degree,
        "codomain_degree": km.codomain_degree,
        "rank": km.rank,
        **_enc_semilinear(F, km.map),
    }


def _emit(doc):
    sys.stdout.write(json.dumps(doc, sort_keys=True, indent=1))
    sys.stdout.write("\n")


def cmd_validate(args):
    A = _load_algebra(args.path)
    rep = algebra_validate(A)
    _emit(
        {
            "valid": rep.ok,
            "dim": A.dim,
            "unit_violations": [list(v) for v in rep.unit_violations],
            "associativity_violations": [list(v) for v in rep.associativity_violations],
        }
    )
    return 0 if rep.ok else 1


def cmd_degree0(args):
    A = _load_algebra(args.path)
    _require_valid(A)
    lam, status = _resolve_form(A, args.form)
    rep = degree0_report(A, args.n, lam)
    F = A.field
    doc = {
        "form_status": status,
        "form": None if lam is None else _enc_vector(F, lam),
        "KA": _enc_subspace(F, rep.ka),
        "center": _enc_subspace(F, rep.z),
        "T": [_enc_subspace(F, t) for t in rep.t],
        "ann_dual": [_enc_subspace(F, a) for a in rep.ann],
        "bhz": rep.bhz,
    }
    if lam is not None:
        doc["T_perp"] = [_enc_subspace(F, t) for t in rep.t_perp]
        doc["zeta"] = _enc_semilinear(F, rep.zeta)
        doc["kappa"] = _enc_semilinear(F, rep.kappa)
    _emit(doc)
    return 0


def cmd_hh(args):
    A = _load_algebra(args.path)
    _require_valid(A)
    # HH_m builds the boundary b_{m+1}, whose columns span degree m + 1
    top = args.max_degree + 1
    top_cols = chain_dim(A, top)
    if top_cols > args.budget and not args.force:
        raise BudgetExceeded(
            f"degree-{top} chain space has {top_cols} columns, over the budget "
            f"{args.budget}; pass --force to compute anyway"
        )
    lam, status = _resolve_form(A, args.form)
    rows = []
    for m in range(args.max_degree + 1):
        entry = {"degree": m, "hh_dim": homology(A, m).dimension}
        if lam is not None:
            entry["cohh_dim"] = cohomology(A, m).dimension
            entry["gram_rank"] = _rank(gram_matrix(A, lam, m))
        rows.append(entry)
    if args.format == "csv":
        cols = ["degree", "hh_dim"] + (
            ["cohh_dim", "gram_rank"] if lam is not None else []
        )
        sys.stdout.write(",".join(cols) + "\n")
        for entry in rows:
            sys.stdout.write(",".join(str(entry[c]) for c in cols) + "\n")
    else:
        _emit({"form_status": status, "table": rows})
    return 0


def cmd_kappa(args):
    A = _load_algebra(args.path)
    _require_valid(A)
    lam, status = _resolve_form(A, args.form)
    doc = {"form_status": status, "m": args.m, "n": args.n}
    F = A.field
    if not args.hat and lam is None:
        raise NotSymmetric(
            "no symmetrizing form found; only the trivial-extension route "
            "(--hat) is defined for this algebra"
        )
    if lam is not None:
        both = kappa_compare_symmetric(A, lam, args.m, args.n)
        doc["kappa"] = _enc_kappa(F, both.kappa)
        doc["kappa_hat"] = _enc_kappa(F, both.kappa_hat)
        doc["routes_equal"] = both.equal
    else:
        doc["kappa_hat"] = _enc_kappa(F, kappa_hat(A, args.m, args.n))
    _emit(doc)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="kuelsh",
        description="Exact Kulshammer-type invariants of finite dimensional algebras",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check the algebra axioms of an input file")
    p.add_argument("path")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("degree0", help="commutator space, centre, T_n and friends")
    p.add_argument("path")
    p.add_argument("--n", type=_degree, default=1, help="largest power index n")
    p.add_argument(
        "--form",
        default="auto",
        help="'auto' (search), 'none', or a path to a JSON form file",
    )
    p.set_defaults(func=cmd_degree0)

    p = sub.add_parser("hh", help="Hochschild homology dimension table")
    p.add_argument("path")
    p.add_argument("--max-degree", type=_degree, default=3, dest="max_degree")
    p.add_argument("--budget", type=_degree, default=DEFAULT_COLUMN_BUDGET)
    p.add_argument("--force", action="store_true")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--form", default="auto")
    p.set_defaults(func=cmd_hh)

    p = sub.add_parser("kappa", help="higher Kulshammer maps")
    p.add_argument("path")
    p.add_argument("--m", type=_degree, required=True)
    p.add_argument("--n", type=_degree, required=True)
    p.add_argument("--hat", action="store_true", help="trivial-extension route")
    p.add_argument("--form", default="auto")
    p.set_defaults(func=cmd_kappa)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParseFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KuelshError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # numpy's allocation failures subclass it
        detail = f": {exc}" if str(exc) else ""
        print(f"error: out of memory{detail}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    # the process only read its input and wrote stdout and stderr: once both
    # are flushed, nothing is left for interpreter teardown to do but take time
    code = main()
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(code)
