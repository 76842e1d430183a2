"""Command line front end: algebra ingestion, invariant computation, reports.

Input is the algebra JSON schema produced by `algebra_to_json`; output is a
deterministic JSON document on stdout (identical inputs give byte-identical
reports).  Exit codes: 0 success, 1 mathematical failure (invalid algebra,
degenerate form, exceeded budget) or allocation failure, 2 I/O or parse errors.
"""

from __future__ import annotations

import json
import os
import sys
from types import SimpleNamespace

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


def _load_algebra(path):
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ParseFailure(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseFailure(f"{path} is not UTF-8 text: {exc.reason} at byte {exc.start}") from exc
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
        with open(choice, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ParseFailure(f"cannot read form file {choice}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseFailure(
            f"form file {choice} is not UTF-8 text: {exc.reason} at byte {exc.start}"
        ) from exc
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


# -- command line -----------------------------------------------------------------
# One table drives parsing, the usage line and the help.  A command is (function,
# help, options); an option is (name, metavar, parse, default, help): `parse`
# turns the option's text into its value and raises ValueError on a bad one, a
# flag has neither metavar nor parse and is False unless given, and an option
# whose default is _REQUIRED must be given.  Options stand before or after the
# path, as `--name value` or `--name=value`; the last one given counts.

_REQUIRED = object()


def _degree(text):
    """The value of --m, --n, --max-degree and --budget: an integer >= 0."""
    if not text.isdecimal():
        raise ValueError(f"expected an integer >= 0, got {text!r}")
    return int(text)


def _format(text):
    if text not in ("json", "csv"):
        raise ValueError(f"invalid choice: {text!r} (choose from 'json', 'csv')")
    return text


_FORM = ("--form", "FORM", str, "auto", "'auto' (search; the default), 'none', or a JSON form file")
COMMANDS = {
    "validate": (cmd_validate, "check the algebra axioms of an input file", ()),
    "degree0": (
        cmd_degree0,
        "commutator space, centre, T_n and friends",
        (("--n", "N", _degree, 1, "largest power index n (default 1)"), _FORM),
    ),
    "hh": (
        cmd_hh,
        "Hochschild homology dimension table",
        (
            ("--max-degree", "MAX_DEGREE", _degree, 3, "last degree of the table (default 3)"),
            (
                "--budget",
                "BUDGET",
                _degree,
                DEFAULT_COLUMN_BUDGET,
                f"most columns of b_(max-degree+1) (default {DEFAULT_COLUMN_BUDGET})",
            ),
            ("--force", None, None, False, "compute over the budget"),
            ("--format", "{json,csv}", _format, "json", "report format (default json)"),
            _FORM,
        ),
    ),
    "kappa": (
        cmd_kappa,
        "higher Kulshammer maps",
        (
            ("--m", "M", _degree, _REQUIRED, "degree m of the codomain HH_m"),
            ("--n", "N", _degree, _REQUIRED, "power index n: the domain is HH_(p^n m)"),
            ("--hat", None, None, False, "trivial-extension route"),
            _FORM,
        ),
    ),
}


def _word(name, metavar):
    return f"{name} {metavar}" if metavar else name


def _usage(command):
    if command is None:
        return "usage: kuelsh [-h] {" + ",".join(COMMANDS) + "} ..."
    words = [f"usage: kuelsh {command} [-h]"]
    for name, metavar, _, default, _ in COMMANDS[command][2]:
        word = _word(name, metavar)
        words.append(word if default is _REQUIRED else f"[{word}]")
    return " ".join(words + ["path"])


def _help(command):
    """Print the usage and help of the program or of one command; exit 0."""
    if command is None:
        lines = ["Exact Kulshammer-type invariants of finite dimensional algebras", "", "commands:"]
        rows = [(name, text) for name, (_, text, _) in COMMANDS.items()]
        rows.append(("", "`kuelsh COMMAND -h` lists a command's options"))
    else:
        _, text, options = COMMANDS[command]
        lines = [text, "", "arguments:"]
        rows = [("path", "algebra JSON file"), ("-h, --help", "show this help and exit")]
        rows += [(_word(name, metavar), text) for name, metavar, _, _, text in options]
    width = max(len(word) for word, _ in rows) + 2
    lines += [f"  {word:<{width}}{text}" for word, text in rows]
    sys.stdout.write(_usage(command) + "\n\n" + "\n".join(lines) + "\n")
    raise SystemExit(0)


def _fail(command, message):
    """A usage error: the usage line and the message on stderr; exit 2."""
    prog = "kuelsh" if command is None else f"kuelsh {command}"
    sys.stderr.write(f"{_usage(command)}\n{prog}: error: {message}\n")
    raise SystemExit(2)


def _is_option(token):
    # a lone "-" and negative numbers are values
    return len(token) > 1 and token[0] == "-" and not token[1:].replace(".", "", 1).isdigit()


def parse_args(argv):
    """The function of the command that argv (the arguments after the program
    name) names, and its arguments: `path` and one attribute per option.
    After `--` every token is a path."""
    if not argv or argv[0] in ("-h", "--help"):
        if argv:
            _help(None)
        _fail(None, "the following arguments are required: command")
    command, tokens = argv[0], iter(argv[1:])
    if command not in COMMANDS:
        choices = ", ".join(map(repr, COMMANDS))
        _fail(None, f"argument command: invalid choice: {command!r} (choose from {choices})")
    func, _, options = COMMANDS[command]
    spec = {option[0]: option for option in options}
    values = {name: default for name, _, _, default, _ in options}
    paths, unknown, literal = [], [], False
    for token in tokens:
        if literal or not _is_option(token):
            paths.append(token)
            continue
        if token == "--":
            literal = True
            continue
        if token in ("-h", "--help"):
            _help(command)
        name, equals, text = token.partition("=")
        if name not in spec:
            unknown.append(token)
            continue
        parse = spec[name][2]
        if parse is None:
            if equals:
                _fail(command, f"argument {name}: ignored explicit argument {text!r}")
            values[name] = True
            continue
        if not equals:
            text = next(tokens, None)
            if text is None or _is_option(text):
                _fail(command, f"argument {name}: expected one argument")
        try:
            values[name] = parse(text)
        except ValueError as exc:
            _fail(command, f"argument {name}: {exc}")
    missing = [] if paths else ["path"]
    missing += [name for name, value in values.items() if value is _REQUIRED]
    if missing:
        _fail(command, "the following arguments are required: " + ", ".join(missing))
    if paths[1:] + unknown:
        _fail(None, "unrecognized arguments: " + " ".join(paths[1:] + unknown))
    attrs = {name[2:].replace("-", "_"): value for name, value in values.items()}
    return func, SimpleNamespace(path=paths[0], **attrs)


def main(argv=None):
    func, args = parse_args(sys.argv[1:] if argv is None else argv)
    try:
        return func(args)
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
