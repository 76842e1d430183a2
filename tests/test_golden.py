"""Canonical outputs pinned as sha256 digests.

`test_reports_byte_identical` compares two runs of the same code; these
digests compare against the outputs recorded before the elimination kernels
were rebuilt on packed words and column-restricted updates.  Any change to a
canonical basis, representative or report shows here.  Print the current
digests with `PYTHONPATH=src python tests/test_golden.py`, and paste them in
only when a change of output is intended.
"""

import contextlib
import hashlib
import io
import os

from kuelsh.algebra import trivial_extension
from kuelsh.catalog import dual_numbers, upper_triangular
from kuelsh.cli import main
from kuelsh.fieldlin import FiniteField
from kuelsh.hochschild import homology

CORPUS_DIR = os.path.join(os.path.dirname(__file__), "..", "corpus")

CORPUS = (
    "dual_f2",
    "dual_f3",
    "dual_f5",
    "k_f2",
    "m2_f3",
    "trunc2_f2",
    "trunc3_f3",
    "ut2_f2",
    "ut2_f3",
    "ut3_f2",
    "ut3_f3",
)

# (algebra name, max degree m): representatives of HH_0 .. HH_m
HOMOLOGY = (("T(dual_f2)", 4), ("T(dual_f3)", 4), ("ut3_f2", 3))

GOLDEN = {
    "degree0 dual_f2 --n 2": "86962bd78981df2549b2a4e067c488c5012d446733738fb1bffd4d9626514424",
    "kappa dual_f2 --m 1 --n 1 --hat": "b6617897ada84740b71353764ee51fbd4f422c7f499f55e1b7f89d93184527c7",
    "degree0 dual_f3 --n 2": "86962bd78981df2549b2a4e067c488c5012d446733738fb1bffd4d9626514424",
    "kappa dual_f3 --m 1 --n 1 --hat": "d76204f126470abdfeba30f1335385775cfb9b2d37f6ad9cd514f79f87ce74df",
    "degree0 dual_f5 --n 2": "86962bd78981df2549b2a4e067c488c5012d446733738fb1bffd4d9626514424",
    "kappa dual_f5 --m 1 --n 1 --hat": "47b0fb3ccc6abe8c33255adc045417e06342ffa6f429acbd0c861fb0b910ef9b",
    "degree0 k_f2 --n 2": "560d45b50d846d91763cbe8aa9e66512c487a1cfe94104302f4a47dfef546db6",
    "kappa k_f2 --m 1 --n 1 --hat": "601ee0d7be0837c00b666a2fd839d6d6ba0862912bed6c65af4eeaae5aced41f",
    "degree0 m2_f3 --n 2": "7a23cc03dc27200c440d341b49f0ecf959308d7ea5bfb155a379d0194874e8ba",
    "kappa m2_f3 --m 1 --n 1 --hat": "d95e7224bc8feae33a26ac3aba0bbb45719324e336734c8e2f67c78de263e543",
    "degree0 trunc2_f2 --n 2": "86962bd78981df2549b2a4e067c488c5012d446733738fb1bffd4d9626514424",
    "kappa trunc2_f2 --m 1 --n 1 --hat": "b6617897ada84740b71353764ee51fbd4f422c7f499f55e1b7f89d93184527c7",
    "degree0 trunc3_f3 --n 2": "b51fd13028cf10ea5d2c9a5ec8b81fab18de17d25b26273565fd4ab070718225",
    "kappa trunc3_f3 --m 1 --n 1 --hat": "2443726d5049f2850d0ff3f34db319dcb506c8bf5d90a6026a754d5ba6d3fa57",
    "degree0 ut2_f2 --n 2": "badadd2d7815a7d5244d4a37c9904bbff6c4dc8bcad16248a338f2237dbabc71",
    "kappa ut2_f2 --m 1 --n 1 --hat": "b1364e51110713206dc016067b75c99c7f52bfbb45e0caa4a774422e597d6516",
    "degree0 ut2_f3 --n 2": "badadd2d7815a7d5244d4a37c9904bbff6c4dc8bcad16248a338f2237dbabc71",
    "kappa ut2_f3 --m 1 --n 1 --hat": "4dda20a84977cce072ba5dbfaae78bb0bd879fbf8c040e779df201d9301d4c33",
    "degree0 ut3_f2 --n 2": "cea5ea08718731901826bc70205060a0e8296c4df1d767ee53bd554663d06395",
    "kappa ut3_f2 --m 1 --n 1 --hat": "b1364e51110713206dc016067b75c99c7f52bfbb45e0caa4a774422e597d6516",
    "degree0 ut3_f3 --n 2": "cea5ea08718731901826bc70205060a0e8296c4df1d767ee53bd554663d06395",
    "kappa ut3_f3 --m 1 --n 1 --hat": "4dda20a84977cce072ba5dbfaae78bb0bd879fbf8c040e779df201d9301d4c33",
    "homology T(dual_f2) 0": "b24a918c46bf78fbd8922df31b8b1a160dbd2b3b167a5dc6cacd47ae5ece06ef",
    "homology T(dual_f2) 1": "4648fb18662ce248d41f3d7fceefc3ef3e6a0abeffab9bdee2fc8ecb4d16d5d9",
    "homology T(dual_f2) 2": "0856987869ec019be9985ae772bcf5741352eda9778e2a4e45ec6dcae72ce88f",
    "homology T(dual_f2) 3": "4b37dab05481a4a54ff14ea1b342d49b5e8686c232d33003ee1cc98a000f938c",
    "homology T(dual_f2) 4": "e25e94d7385a41b7e762bb6dab3ba46d2cf2da9e805e3fcc88384262fb1a091c",
    "homology T(dual_f3) 0": "b24a918c46bf78fbd8922df31b8b1a160dbd2b3b167a5dc6cacd47ae5ece06ef",
    "homology T(dual_f3) 1": "73955ad1b40225f3a55ba942c1b435cfa7820af7e2c23b53a7221ee90fe7f5a6",
    "homology T(dual_f3) 2": "865401b3ea0e201e55d97981030b167e6bb41a00c3ad1915b057504d965dfa04",
    "homology T(dual_f3) 3": "eae00d911cbbcbf50654792c80fecf0bf29bd28d968f8fb996a6d6aabb2f18c4",
    "homology T(dual_f3) 4": "364c9fd41cc2eadfa210e8a3a204725281dc4c092002ab45c1bea3e2fa10b950",
    "homology ut3_f2 0": "eea8dba1b6b7f8b153ade478f685ce165ba605854b6092e53bff9a03bfda61c9",
    "homology ut3_f2 1": "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
    "homology ut3_f2 2": "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
    "homology ut3_f2 3": "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
}


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _cli_digest(*argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(list(argv))
    return _sha(f"exit {code}\n{buf.getvalue()}")


def _algebra(name):
    if name == "ut3_f2":
        return upper_triangular(FiniteField(2), 3)
    p = {"T(dual_f2)": 2, "T(dual_f3)": 3}[name]
    return trivial_extension(dual_numbers(FiniteField(p))).algebra


def digests():
    out = {}
    for name in CORPUS:
        path = os.path.join(CORPUS_DIR, f"{name}.json")
        out[f"degree0 {name} --n 2"] = _cli_digest("degree0", path, "--n", "2")
        out[f"kappa {name} --m 1 --n 1 --hat"] = _cli_digest(
            "kappa", path, "--m", "1", "--n", "1", "--hat"
        )
    for name, top in HOMOLOGY:
        A = _algebra(name)
        for m in range(top + 1):
            reps = [row.tolist() for row in homology(A, m).representatives]
            out[f"homology {name} {m}"] = _sha(repr(reps))
    return out


def test_outputs_match_recorded_digests():
    assert digests() == GOLDEN


if __name__ == "__main__":
    for key, value in digests().items():
        print(f'    "{key}": "{value}",')
