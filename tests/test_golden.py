"""Canonical outputs pinned as sha256 digests.

`test_reports_byte_identical` compares two runs of the same code; these
digests compare against the outputs recorded before the elimination kernels
were rebuilt on packed words and column-restricted updates, and (for the
extension-field kappa maps) before the cochain layer became slot
contractions through `mat_mul`.  Any change to a
canonical basis, representative or report shows here.  Print the current
digests with `PYTHONPATH=src python tests/test_golden.py`, and paste them in
only when a change of output is intended.
"""

import contextlib
import hashlib
import io
import os

from kuelsh.algebra import symmetrizing_form_search, trivial_extension
from kuelsh.catalog import dual_numbers, truncated_polynomial, upper_triangular
from kuelsh.cli import main
from kuelsh.fieldlin import FiniteField
from kuelsh.hochschild import homology
from kuelsh.kappa import kappa_hat, kappa_m_n

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

# corpus files whose `kappa --m 2 --n 1 --hat` report is pinned
KAPPA_M2 = ("dual_f5", "trunc3_f3")

# corpus files and `kappa` arguments pinned in degree p^n m >= 9
KAPPA_HIGH = (
    ("dual_f3", "--m", "2", "--n", "2"),
    ("dual_f2", "--m", "3", "--n", "3"),
    ("trunc3_f3", "--m", "1", "--n", "2", "--hat"),
)

# (algebra name, max degree m): representatives of HH_0 .. HH_m
HOMOLOGY = (("T(dual_f2)", 4), ("T(dual_f3)", 4), ("ut3_f2", 3))

# (algebra name, m, n) over extension fields: matrix and twist of both routes
KAPPA_EXT = (("dual_f4", 2, 1), ("dual_f9", 1, 1), ("trunc3_f9", 1, 1))

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
    # recorded when the bar boundary and chain maps became slot contractions;
    # the earlier code ran out of memory on these two
    "kappa dual_f5 --m 2 --n 1 --hat": "a0284a623ab8ba6bae29b5c70c6c436c40cbc50e6530310acffc2acf806eb7cc",
    "kappa trunc3_f3 --m 2 --n 1 --hat": "633b8b1f03879230031ed84bb2a1b3df88492d24d8b7705233ccd0d57e414f3b",
    # recorded when kappa began pairing one slot group at a time; the earlier
    # code ran out of memory on these three
    "kappa dual_f3 --m 2 --n 2": "e9f6280c26e513b1a4237b7e8fab050bfeaef23a65cc1a731162160fd2888b02",
    "kappa dual_f2 --m 3 --n 3": "13ed7b0f9b69649cbadfbdaee7fd2f16423f22cbeed352c422e5c10e224509a3",
    "kappa trunc3_f3 --m 1 --n 2 --hat": "6f2f69d67dcbe58c33eec14374bc59bae2555d7adfdde4eaa0c1d687ddc7dc28",
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
    "kappa dual_f4 --m 2 --n 1": "6178465d76e70aefe23a722d0ee7b845e0fd6b0b6cbdbce60f4fe912aff63488",
    "kappa_hat dual_f4 --m 2 --n 1": "69b4b69a7438f910447d75d3119130d596d0188ff56635f6b60575f34904ada3",
    "kappa dual_f9 --m 1 --n 1": "7b3ecf9a33e17c493d6b41b15b2a76b60e8f30f357b1d97a49cfbf1357742389",
    "kappa_hat dual_f9 --m 1 --n 1": "7b3ecf9a33e17c493d6b41b15b2a76b60e8f30f357b1d97a49cfbf1357742389",
    "kappa trunc3_f9 --m 1 --n 1": "0758c20b2c159c10c6bc32d312debc5f7c99023a66741435cbd5765873c69fe6",
    "kappa_hat trunc3_f9 --m 1 --n 1": "0758c20b2c159c10c6bc32d312debc5f7c99023a66741435cbd5765873c69fe6",
}


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _cli_digest(*argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(list(argv))
    return _sha(f"exit {code}\n{buf.getvalue()}")


def _algebra(name):
    F4 = FiniteField(2, 2, [1, 1, 1])
    F9 = FiniteField(3, 2, [1, 0, 1])
    if name == "ut3_f2":
        return upper_triangular(FiniteField(2), 3)
    if name in ("dual_f4", "dual_f9"):
        return dual_numbers(F4 if name == "dual_f4" else F9)
    if name == "trunc3_f9":
        return truncated_polynomial(F9, 3)
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
    for name in KAPPA_M2:
        path = os.path.join(CORPUS_DIR, f"{name}.json")
        out[f"kappa {name} --m 2 --n 1 --hat"] = _cli_digest(
            "kappa", path, "--m", "2", "--n", "1", "--hat"
        )
    for name, *args in KAPPA_HIGH:
        path = os.path.join(CORPUS_DIR, f"{name}.json")
        out[" ".join(("kappa", name, *args))] = _cli_digest("kappa", path, *args)
    for name, top in HOMOLOGY:
        A = _algebra(name)
        for m in range(top + 1):
            reps = [row.tolist() for row in homology(A, m).representatives]
            out[f"homology {name} {m}"] = _sha(repr(reps))
    for name, m, n in KAPPA_EXT:
        A = _algebra(name)
        lam = symmetrizing_form_search(A).form
        for route, k in (("kappa", kappa_m_n(A, lam, m, n)), ("kappa_hat", kappa_hat(A, m, n))):
            key = f"{route} {name} --m {m} --n {n}"
            out[key] = _sha(repr((k.matrix.data.tolist(), k.twist)))
    return out


def test_outputs_match_recorded_digests():
    assert digests() == GOLDEN


if __name__ == "__main__":
    for key, value in digests().items():
        print(f'    "{key}": "{value}",')
