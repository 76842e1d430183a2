import json
import os

import pytest

from kuelsh.cli import main

CORPUS_DIR = os.path.join(os.path.dirname(__file__), "..", "corpus")


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


def test_kappa_requires_symmetry_without_hat(capsys):
    code, _, err = run(capsys, "kappa", corpus("ut2_f2"), "--m", "1", "--n", "1")
    assert code == 1
    assert "symmetrizing" in err or "hat" in err


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
