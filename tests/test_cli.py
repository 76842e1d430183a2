import contextlib
import importlib.util
import io
import json
import os
import random
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kuelsh.cli
import kuelsh.kappa
from kuelsh.algebra import algebra_to_json
from kuelsh.catalog import dual_numbers, full_matrix_algebra, write_corpus
from kuelsh.cli import main
from kuelsh.fieldlin import FiniteField

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CORPUS_DIR = os.path.join(ROOT, "corpus")


def corpus(name):
    return os.path.join(CORPUS_DIR, f"{name}.json")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# -- validate -------------------------------------------------------------------


def test_validate_corpus_files(capsys):
    for name in (
        "dual_f2",
        "dual_f3",
        "dual_f5",
        "trunc2_f2",
        "trunc3_f3",
        "ut2_f2",
        "ut2_f3",
        "ut3_f2",
        "ut3_f3",
        "m2_f3",
        "k_f2",
    ):
        code, out, _ = run(capsys, "validate", corpus(name))
        assert code == 0, name
        assert json.loads(out)["valid"] is True


def test_validate_truncated_file(tmp_path, capsys):
    doc = open(corpus("dual_f3")).read()
    bad = tmp_path / "broken.json"
    bad.write_text(doc[: len(doc) // 2])
    code, _, err = run(capsys, "validate", str(bad))
    assert code == 2
    assert "line" in err  # position info


def test_validate_missing_file(capsys):
    code, _, err = run(capsys, "validate", "/nonexistent/thing.json")
    assert code == 2


def test_validate_non_utf8_file_exit_2(tmp_path, capsys):
    bad = tmp_path / "latin1.json"
    bad.write_bytes(b"\xff" + open(corpus("dual_f3"), "rb").read())
    code, out, err = run(capsys, "validate", str(bad))
    assert code == 2
    assert out == "" and err.startswith("error: ") and "UTF-8" in err


def test_validate_bad_algebra(tmp_path, capsys):
    doc = json.load(open(corpus("dual_f2")))
    doc["structure_constants"][1][0][1] = 0  # break the unit axiom
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "validate", str(bad))
    assert code == 1
    assert json.loads(out)["valid"] is False


def test_validate_characteristic_out_of_scope(tmp_path, capsys):
    doc = {"field": {"p": 4294967311}, "dim": 1, "basis": ["1"]}
    doc["structure_constants"] = [[[1]]]
    bad = tmp_path / "big_p.json"
    bad.write_text(json.dumps(doc))
    code, out, err = run(capsys, "validate", str(bad))
    assert code == 2
    assert out == "" and "out of scope" in err


def test_validate_large_reducible_extension_exits_at_once(tmp_path):
    # order p^2 > 512 is out of scope before any factor of the modulus is sought
    doc = {"field": {"p": 2147483647, "r": 2, "modulus": [7, 0, 1]}, "dim": 1, "basis": ["1"]}
    doc["structure_constants"] = [[[[1, 0]]]]
    bad = tmp_path / "big_ext.json"
    bad.write_text(json.dumps(doc))
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "kuelsh.cli", "validate", str(bad)],
        env=env, capture_output=True, text=True, timeout=30,
    )
    assert proc.returncode == 2
    assert proc.stdout == "" and "out of scope" in proc.stderr


def test_module_run_ends_with_mains_exit_code_and_whole_report(tmp_path, capsys):
    # `python -m kuelsh.cli` flushes stdout and stderr and ends with
    # os._exit(main()), skipping interpreter teardown: the exit code and every
    # byte of the output are main's, also for a report larger than a pipe's
    # buffer (a 16-dimensional non-associative table, about 110 KB of
    # violations)
    doc = algebra_to_json(full_matrix_algebra(FiniteField(3), 4))
    rng = random.Random(0)
    doc["structure_constants"] = [
        [[rng.randrange(3) for _ in row] for row in plane] for plane in doc["structure_constants"]
    ]
    bad = tmp_path / "nonassociative.json"
    bad.write_text(json.dumps(doc))
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    env.pop("PYTHONUNBUFFERED", None)  # block-buffered pipes, as by default
    for argv, code, size in (
        (["validate", corpus("dual_f3")], 0, 80),
        (["validate", str(bad)], 1, 100_000),
        (["validate", str(tmp_path / "missing.json")], 2, 0),
    ):
        proc = subprocess.run(
            [sys.executable, "-m", "kuelsh.cli", *argv], env=env, capture_output=True, text=True,
            timeout=60,
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == run(capsys, *argv), argv
        assert proc.returncode == code and len(proc.stdout) >= size
        assert (proc.stderr != "") == (code == 2)


def _document(name):
    if name == "dual_f4":
        return algebra_to_json(dual_numbers(FiniteField(2, 2, [1, 1, 1])))
    with open(corpus(name)) as fh:
        return json.load(fh)


@pytest.mark.parametrize(
    "name, path, value",
    [
        ("dual_f2", ("structure_constants",), 5),
        ("dual_f2", ("structure_constants",), [[[1, 0], [0, 1]], [[0, 1], 5]]),
        ("dual_f2", ("field", "p"), "2"),
        ("dual_f2", ("field", "r"), 1.0),
        ("dual_f4", ("field", "modulus"), 7),
        ("dual_f4", ("structure_constants", 0, 0, 0), ["1", 0]),
        ("k_f2", ("dim",), True),
        ("dual_f2", ("structure_constants", 0, 0, 0), True),
        ("dual_f2", ("basis",), [1, None]),
        ("dual_f4", ("structure_constants", 0, 0, 0), [True, 0]),
    ],
)
def test_validate_malformed_types_exit_2(tmp_path, capsys, name, path, value):
    doc = _document(name)
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, out, err = run(capsys, "validate", str(bad))
    assert code == 2
    assert out == "" and "malformed" in err


# small JSON values of every type
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats(-2, 2) | st.text(max_size=2),
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.text(max_size=2), kids),
    max_leaves=5,
)
PRIMES_NEAR_2_31 = (2147483647, 2147483629, 2147483587)
NOT_PRIME_BELOW_2_31 = st.integers(-3, 1) | st.builds(
    lambda a, b: a * b, st.integers(2, 46340), st.integers(2, 46340)
)


def _not_null(v):
    return v is not None


def _all_str(values):
    return all(isinstance(x, str) for x in values)


def _zero_cube(shape):
    a, b, c = shape
    return [[[0] * c for _ in range(b)] for _ in range(a)]


@st.composite
def _malformed_documents(draw):
    """The dual numbers over F_3 with one part made malformed."""
    doc = _document("dual_f3")
    part = draw(st.sampled_from(["document", "missing", "field", "dim", "basis", "cube", "entry"]))
    if part == "document":
        return draw(JSON_VALUES.filter(lambda v: not isinstance(v, dict)))
    if part == "missing":
        del doc[draw(st.sampled_from(sorted(doc)))]
    elif part == "field":
        doc["field"] = draw(
            JSON_VALUES.filter(lambda v: not isinstance(v, dict))
            | st.fixed_dictionaries({"p": JSON_VALUES.filter(lambda v: type(v) is not int)})
            | st.fixed_dictionaries({"p": NOT_PRIME_BELOW_2_31 | st.integers(2**31, 2**40)})
            | st.fixed_dictionaries({"p": st.just(3), "r": JSON_VALUES.filter(lambda v: v != 1)})
            | st.fixed_dictionaries({"p": st.just(3), "modulus": JSON_VALUES.filter(_not_null)})
            | st.fixed_dictionaries(
                {
                    "p": st.sampled_from(PRIMES_NEAR_2_31),
                    "r": st.integers(2, 4),
                    "modulus": st.none() | st.lists(st.integers(-2**40, 2**40), max_size=6),
                }
            )
        )
    elif part == "dim":
        doc["dim"] = draw(JSON_VALUES.filter(lambda v: not (type(v) is int and v == 2)))
    elif part == "basis":
        doc["basis"] = draw(
            JSON_VALUES.filter(lambda v: not (isinstance(v, list) and len(v) == 2 and _all_str(v)))
        )
    elif part == "cube":
        shape = draw(st.tuples(*[st.integers(0, 3)] * 3).filter(lambda s: s != (2, 2, 2)))
        doc["structure_constants"] = _zero_cube(shape)
    else:
        i, j, k = draw(st.tuples(*[st.integers(0, 1)] * 3))
        doc["structure_constants"][i][j][k] = draw(JSON_VALUES.filter(lambda v: type(v) is not int))
    return doc


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_malformed_documents())
def test_validate_malformed_document_property(doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "bad.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["validate", path])
    assert code == 2
    assert out.getvalue() == ""
    assert err.getvalue().startswith("error:") and err.getvalue().count("\n") == 1


# -- degree0 --------------------------------------------------------------------


def test_degree0_dual_f3(capsys):
    code, out, _ = run(capsys, "degree0", corpus("dual_f3"), "--n", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["T"] == [[[0, 1]], [[0, 1]]]
    assert doc["T_perp"] == [[[0, 1]], [[0, 1]]]
    assert doc["bhz"] == [True, True]
    assert doc["form"] == [0, 1]


def test_degree0_ut2(capsys):
    code, out, _ = run(capsys, "degree0", corpus("ut2_f2"), "--n", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["form_status"] == "none"
    assert doc["T"] == [[[0, 0, 1]], [[0, 0, 1]]]
    assert len(doc["ann_dual"][0]) == 2
    assert doc["bhz"] == [True, True]
    assert "zeta" not in doc


def test_degree0_field_algebra(capsys):
    code, out, _ = run(capsys, "degree0", corpus("k_f2"))
    assert code == 0
    doc = json.loads(out)
    assert doc["KA"] == []
    assert doc["T"] == [[]]
    assert doc["bhz"] == [True]


def test_degree0_with_form_file(tmp_path, capsys):
    form = tmp_path / "form.json"
    form.write_text(json.dumps({"form": [0, 1]}))
    code, out, _ = run(capsys, "degree0", corpus("dual_f3"), "--form", str(form))
    assert code == 0
    assert json.loads(out)["form_status"] == "supplied"


def test_degree0_degenerate_form_rejected(tmp_path, capsys):
    form = tmp_path / "form.json"
    form.write_text(json.dumps({"form": [1, 0]}))  # degenerate on dual numbers
    code, _, err = run(capsys, "degree0", corpus("dual_f3"), "--form", str(form))
    assert code == 1


def test_degree0_nonsymmetric_form_rejected(tmp_path, capsys):
    form = tmp_path / "form.json"
    # lam = e12* + e21* on M2(F3): nondegenerate, but lam(e11 e12) != lam(e12 e11)
    form.write_text(json.dumps({"form": [0, 0, 1, 1]}))
    code, out, err = run(capsys, "degree0", corpus("m2_f3"), "--form", str(form))
    assert code == 1
    assert out == "" and "not symmetrizing" in err


def test_degree0_non_utf8_form_file_exit_2(tmp_path, capsys):
    form = tmp_path / "form.json"
    form.write_bytes(b'{"form": [0, 1]}\xff')
    code, out, err = run(capsys, "degree0", corpus("dual_f3"), "--form", str(form))
    assert code == 2
    assert out == "" and "form file" in err and "UTF-8" in err


@pytest.mark.parametrize("doc", [{"form": [False, True]}, {"lam": [0, 1]}])
def test_degree0_malformed_form_file_exit_2(tmp_path, capsys, doc):
    form = tmp_path / "form.json"
    form.write_text(json.dumps(doc))
    code, out, err = run(capsys, "degree0", corpus("dual_f3"), "--form", str(form))
    assert code == 2
    assert out == "" and "form file" in err


# -- hh --------------------------------------------------------------------------


def test_hh_dual_f3(capsys):
    code, out, _ = run(capsys, "hh", corpus("dual_f3"), "--max-degree", "6")
    assert code == 0
    doc = json.loads(out)
    assert [r["hh_dim"] for r in doc["table"]] == [2, 1, 1, 1, 1, 1, 1]
    assert [r["gram_rank"] for r in doc["table"]] == [2, 1, 1, 1, 1, 1, 1]


def test_hh_dual_f2(capsys):
    code, out, _ = run(capsys, "hh", corpus("dual_f2"), "--max-degree", "6")
    assert code == 0
    doc = json.loads(out)
    assert [r["hh_dim"] for r in doc["table"]] == [2] * 7


def test_hh_ut2_csv(capsys):
    code, out, _ = run(
        capsys, "hh", corpus("ut2_f2"), "--max-degree", "3", "--format", "csv"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "degree,hh_dim"
    assert [l.split(",")[1] for l in lines[1:]] == ["2", "0", "0", "0"]


def test_hh_ignores_cache_dir(tmp_path, monkeypatch, capsys):
    # a leftover KUELSH_CACHE_DIR changes no output and writes no file
    args = ("hh", corpus("dual_f3"), "--max-degree", "3")
    code, plain, _ = run(capsys, *args)
    assert code == 0
    monkeypatch.setenv("KUELSH_CACHE_DIR", str(tmp_path))
    assert run(capsys, *args)[:2] == (0, plain)
    assert list(tmp_path.iterdir()) == []


def test_hh_budget(capsys):
    code, _, err = run(capsys, "hh", corpus("ut3_f3"), "--max-degree", "6")
    assert code == 1
    assert "budget" in err


def test_hh_budget_force(capsys):
    code, _, err = run(capsys, "hh", corpus("dual_f2"), "--max-degree", "2", "--budget", "1")
    assert code == 1
    code, out, _ = run(
        capsys, "hh", corpus("dual_f2"), "--max-degree", "2", "--budget", "1", "--force"
    )
    assert code == 0
    assert [r["hh_dim"] for r in json.loads(out)["table"]] == [2, 2, 2]


@pytest.mark.parametrize("budget, code", [("12", 1), ("24", 0)])
def test_hh_budget_counts_the_widest_boundary(capsys, budget, code):
    # HH_2 of UT2 (dim 3) builds b_3 on chain_dim(3) = 24 columns, not 12
    args = ("hh", corpus("ut2_f2"), "--max-degree", "2", "--budget", budget)
    got, _, err = run(capsys, *args)
    assert got == code
    assert ("budget" in err) == bool(code)


# -- kappa ------------------------------------------------------------------------


def test_kappa_dual_f2_hat(capsys):
    code, out, _ = run(capsys, "kappa", corpus("dual_f2"), "--m", "1", "--n", "1", "--hat")
    assert code == 0
    doc = json.loads(out)
    assert doc["kappa"]["rank"] == 1
    assert doc["kappa"]["domain_degree"] == 2
    assert doc["kappa_hat"]["rank"] == 0
    assert doc["routes_equal"] is False


def test_kappa_ut2_hat_empty(capsys):
    code, out, _ = run(capsys, "kappa", corpus("ut2_f2"), "--m", "1", "--n", "1", "--hat")
    assert code == 0
    doc = json.loads(out)
    assert doc["form_status"] == "none"
    assert "kappa" not in doc
    assert doc["kappa_hat"]["rank"] == 0
    assert doc["kappa_hat"]["matrix"] == []


def test_kappa_computes_each_route_once(monkeypatch, capsys):
    calls = {"kappa_m_n": 0, "kappa_hat": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in calls:
        wrapped = counted(name, getattr(kuelsh.kappa, name))
        monkeypatch.setattr(kuelsh.kappa, name, wrapped)
        monkeypatch.setattr(kuelsh.cli, name, wrapped, raising=False)
    code, out, _ = run(capsys, "kappa", corpus("dual_f3"), "--m", "1", "--n", "1")
    assert code == 0
    doc = json.loads(out)
    assert {"kappa", "kappa_hat", "routes_equal"} <= set(doc)
    assert calls == {"kappa_m_n": 1, "kappa_hat": 1}


@pytest.mark.parametrize(
    "exc",
    [MemoryError(), MemoryError("Unable to allocate 13.1 GiB for an array with shape (18750, 93750)")],
)
def test_allocation_failure_is_one_error_line(monkeypatch, capsys, exc):
    def fail(*args):
        raise exc

    monkeypatch.setattr(kuelsh.cli, "kappa_hat", fail)
    code, out, err = run(capsys, "kappa", corpus("ut3_f3"), "--m", "2", "--n", "1", "--hat")
    assert code == 1
    assert out == ""
    assert err.startswith("error: out of memory") and err.count("\n") == 1
    assert str(exc) in err


@pytest.mark.parametrize(
    "argv",
    [
        ["kappa", corpus("trunc3_f3"), "--m", "64", "--n", "0"],
        ["kappa", corpus("trunc3_f3"), "--m", "70", "--n", "0", "--hat"],
    ],
    ids=["m64", "m70-hat"],
)
def test_unallocatable_shape_is_out_of_memory(capsys, argv):
    # the differential matrix has more bytes than numpy can even address
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error: out of memory: cannot allocate") and err.count("\n") == 1


def test_kappa_hat_in_degree_120_fails_within_its_memory_limit():
    # A's chains stay 2-dimensional in degree 3 * 40; T(A)'s degree-40
    # cochains cannot be addressed, and the run says so before it allocates.
    # Run only under the address-space limit: without a bound on the push
    # of A's cycles into T(A), this ran until the machine's memory gave out.
    resource = pytest.importorskip("resource")
    limit = 1 << 30
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "kuelsh.cli", "kappa", corpus("dual_f3"), "--m", "40", "--n", "1"],
        env=env, capture_output=True, text=True, timeout=60,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
    )
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.count("\n") == 1
    assert proc.stderr.startswith("error: out of memory: cannot allocate a ")
    assert proc.stderr.endswith(" int64 matrix\n")


def test_kappa_requires_symmetry_without_hat(capsys):
    code, _, err = run(capsys, "kappa", corpus("ut2_f2"), "--m", "1", "--n", "1")
    assert code == 1
    assert "symmetrizing" in err or "hat" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["kappa", corpus("dual_f3"), "--m", "-1", "--n", "1"],
        ["kappa", corpus("dual_f3"), "--m", "1", "--n", "-1"],
        ["degree0", corpus("dual_f3"), "--n", "-2"],
        ["hh", corpus("dual_f3"), "--max-degree", "-1"],
        ["hh", corpus("dual_f3"), "--budget", "-1"],
    ],
    ids=["kappa-m", "kappa-n", "degree0-n", "hh-max-degree", "hh-budget"],
)
def test_negative_degrees_rejected_with_usage(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out = capsys.readouterr()
    assert exc.value.code == 2
    assert out.out == ""
    assert out.err.startswith("usage:") and "expected an integer >= 0" in out.err


@pytest.mark.parametrize(
    "argv, options",
    [
        (["-h"], ["validate", "degree0", "hh", "kappa"]),
        (["--help"], ["validate", "degree0", "hh", "kappa"]),
        (["validate", "-h"], ["path"]),
        (["degree0", "--help"], ["path", "--n", "--form"]),
        (
            ["hh", corpus("dual_f3"), "-h"],
            ["--max-degree", "--budget", "--force", "--format", "--form"],
        ),
        (["kappa", "--help", "--m", "x"], ["--m", "--n", "--hat", "--form"]),
    ],
    ids=["top-h", "top-help", "validate", "degree0", "hh-after-path", "kappa-before-bad-value"],
)
def test_help_exits_0_with_usage_on_stdout(capsys, argv, options):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out = capsys.readouterr()
    assert exc.value.code == 0
    prog = "kuelsh" if argv[0].startswith("-") else f"kuelsh {argv[0]}"
    assert out.out.startswith(f"usage: {prog} ") and out.err == ""
    assert all(name in out.out for name in options)


@pytest.mark.parametrize(
    "argv, named",
    [
        ([], "command"),
        (["bogus", corpus("dual_f3")], "bogus"),
        (["hh", corpus("dual_f3"), "--bogus"], "--bogus"),
        (["hh", corpus("dual_f3"), "extra"], "extra"),
        (["hh"], "path"),
        (["kappa", corpus("dual_f3"), "--n", "1"], "--m"),
        (["kappa", corpus("dual_f3"), "--m", "1", "--n"], "--n"),
        (["hh", corpus("dual_f3"), "--format", "xml"], "--format"),
        (["hh", corpus("dual_f3"), "--format=xml"], "--format"),
        (["hh", corpus("dual_f3"), "--max-degree", "two"], "--max-degree"),
        (["degree0", corpus("dual_f3"), "--n=1.5"], "--n"),
        (["hh", corpus("dual_f3"), "--force=yes"], "--force"),
    ],
    ids=[
        "no-command", "unknown-command", "unknown-option", "extra-path", "missing-path",
        "kappa-without-m", "option-without-value", "format-xml", "format-xml-equals",
        "non-integer-degree", "non-integer-degree-equals", "flag-with-value",
    ],
)
def test_usage_errors_exit_2_naming_the_argument(capsys, argv, named):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out = capsys.readouterr()
    assert exc.value.code == 2
    assert out.out == ""
    assert out.err.startswith("usage:") and named in out.err


def test_options_take_equals_and_stand_before_or_after_the_path(capsys):
    path = corpus("dual_f3")
    code, plain, _ = run(capsys, "hh", path, "--max-degree", "2")
    assert code == 0
    for argv in (
        ["hh", "--max-degree=2", path],
        ["hh", "--max-degree", "2", path],
        ["hh", path, "--max-degree=2", "--format", "json", "--form=auto"],
        ["hh", "--max-degree", "5", path, "--max-degree", "2"],  # the last one counts
        ["hh", "--max-degree", "2", "--", path],  # after "--" every token is a path
    ):
        assert run(capsys, *argv) == (0, plain, ""), argv
    code, plain, _ = run(capsys, "kappa", path, "--m", "1", "--n", "1", "--hat")
    assert code == 0
    assert run(capsys, "kappa", "--hat", "--n=1", "--m=1", path) == (0, plain, "")


def test_degree_zero_accepted(capsys):
    code, out, _ = run(capsys, "hh", corpus("dual_f3"), "--max-degree", "0")
    assert code == 0
    assert [r["degree"] for r in json.loads(out)["table"]] == [0]
    code, _, _ = run(capsys, "kappa", corpus("dual_f3"), "--m", "0", "--n", "0")
    assert code == 0


# -- determinism -------------------------------------------------------------------


def test_reports_byte_identical(capsys):
    outs = []
    for _ in range(2):
        code, out, _ = run(capsys, "degree0", corpus("m2_f3"), "--n", "2")
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]
    outs = []
    for _ in range(2):
        code, out, _ = run(capsys, "kappa", corpus("dual_f3"), "--m", "1", "--n", "1")
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]


def test_corpus_writer_reproduces_bundled_files(tmp_path):
    written = write_corpus(tmp_path)
    names = sorted(os.path.basename(path) for path in written)
    assert names == sorted(f for f in os.listdir(CORPUS_DIR) if f.endswith(".json"))
    for name in names:
        with open(tmp_path / name, "rb") as new, open(corpus(name[:-5]), "rb") as old:
            assert new.read() == old.read(), name


# -- the benchmark's tracer ----------------------------------------------------------


def _tracer_layers():
    """bench/tracer.py's map from span name to layer, read without running it."""
    spec = importlib.util.spec_from_file_location("bench_tracer", os.path.join(ROOT, "bench", "tracer.py"))
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.LAYER_OF


@pytest.mark.parametrize(
    "argv, layers",
    [
        (
            ["kappa", corpus("dual_f3"), "--m", "1", "--n", "1", "--hat"],
            {"cli", "algebra", "fieldlin.rref", "fieldlin.mat_mul", "hochschild.homology"}
            | {"hochschild.cochain", "kappa"},
        ),
        (
            ["degree0", corpus("m2_f3"), "--n", "2"],
            {"cli", "algebra", "degree0", "fieldlin.rref", "fieldlin.mat_mul"},
        ),
        # symmetric, so hh also reaches the cochain layer (the Gram matrix)
        (
            ["hh", corpus("dual_f3"), "--max-degree", "3"],
            {"cli", "fieldlin.rref", "hochschild.homology", "hochschild.cochain"},
        ),
    ],
    ids=["kappa", "degree0", "hh"],
)
def test_traced_run_matches_untraced(tmp_path, argv, layers):
    # bench/tracer.py wraps library functions by name; a renamed one breaks
    # it, and one it no longer reaches leaves its layer without spans
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    spans = tmp_path / "spans.json"
    tracer = [sys.executable, os.path.join(ROOT, "bench", "tracer.py"), str(spans), "job", "--"]
    traced = subprocess.run(tracer + argv, env=env, capture_output=True, timeout=300)
    plain = subprocess.run(
        [sys.executable, "-m", "kuelsh.cli"] + argv, env=env, capture_output=True, timeout=300
    )
    assert traced.returncode == 0, traced.stderr.decode()[-2000:]
    assert plain.returncode == 0
    assert traced.stdout == plain.stdout
    layer_of = _tracer_layers()
    seen = {layer_of[span[1]] for span in json.loads(spans.read_text())["spans"]}
    assert layers <= seen, sorted(layers - seen)


# -- imports --------------------------------------------------------------------


_LOADED = """
import contextlib, io, json, sys
import kuelsh.cli
with contextlib.redirect_stdout(io.StringIO()):
    code = kuelsh.cli.main(sys.argv[1:])
print(json.dumps([code, sorted(sys.modules)]))
"""


EVERY_COMMAND = pytest.mark.parametrize(
    "argv",
    [
        ["validate", corpus("dual_f3")],
        ["hh", corpus("dual_f3"), "--max-degree", "2"],
        ["degree0", corpus("dual_f3")],
        ["kappa", corpus("dual_f3"), "--m", "1", "--n", "1"],
    ],
    ids=["validate", "hh", "degree0", "kappa"],
)


def _modules_after(argv):
    """The modules loaded by `import kuelsh.cli` and one in-process run."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run(
        [sys.executable, "-c", _LOADED] + argv, env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    code, modules = json.loads(proc.stdout)
    assert code == 0
    return set(modules)


@EVERY_COMMAND
def test_no_command_loads_hashlib(argv):
    # hashlib loads OpenSSL's libcrypto, a few MB that no command needs; each
    # process would also pay argparse's and dataclasses' import and set-up
    assert not {"hashlib", "_hashlib", "argparse", "dataclasses"} & _modules_after(argv)


@EVERY_COMMAND
def test_no_command_loads_oracle_or_catalog(argv):
    # each process compiles what it imports, and no command needs these two:
    # `kuelsh` loads `oracle`, which loads `catalog`, on first use of its names
    assert not {"kuelsh.oracle", "kuelsh.catalog"} & _modules_after(argv)


def test_every_exported_name_resolves():
    import kuelsh
    from kuelsh import oracle

    assert all(getattr(kuelsh, name) is not None for name in kuelsh.__all__)
    assert kuelsh.ta_iso_dual is oracle.ta_iso_dual
    with pytest.raises(AttributeError):
        kuelsh.no_such_name
