"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

All arithmetic is exact; every comparison below is exact equality (tolerance
zero).  Criteria that carry a runtime budget assert it too.
"""

import itertools
import random
import time

import numpy as np

from kuelsh.algebra import (
    BilinearForm,
    symmetrizing_form_search,
    trivial_extension,
)
from kuelsh.catalog import dual_numbers, standard_corpus
from kuelsh.degree0 import (
    commutator_space,
    hh0_data,
    kappa_n_direct,
    kulshammer_T,
    perp,
    ppower_on_HH0,
    zeta_n,
    center,
    bhz_check,
)
from kuelsh.fieldlin import FiniteField, Matrix, Subspace, row_reduce
from kuelsh.hochschild import (
    Cochain,
    boundary_matrix,
    chain_dim,
    coboundary_apply,
    coboundary_matrix,
    cochain_dim,
    cohomology,
    cup_product,
    gram_matrix,
    hh_of_map,
    homology,
    pairing_vector,
)
from kuelsh.kappa import kappa_hat, kappa_m_n
from kuelsh.oracle import brute_force_Tn, periodic_hh_dual_numbers

F2, F3, F4, F5 = (
    FiniteField(2),
    FiniteField(3),
    FiniteField(2, 2, [1, 1, 1]),
    FiniteField(5),
)

CORPUS = standard_corpus()
SYMMETRIC = ["dual_f2", "dual_f3", "dual_f5", "trunc2_f2", "trunc3_f3", "m2_f3", "k_f2"]
COLUMN_BUDGET = 10_000


def verdict(name, ok, detail=""):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}{' - ' + detail if detail else ''}")
    return ok


def lam_of(A):
    res = symmetrizing_form_search(A)
    assert res.status == "found"
    return res.form


def test_acceptance_1_dual_numbers_hh_dimensions():
    start = time.monotonic()
    ok = True
    for F, expected in ((F2, [2] * 7), (F3, [2, 1, 1, 1, 1, 1, 1]), (F5, [2, 1, 1, 1, 1, 1, 1])):
        A = dual_numbers(F)
        bar = [homology(A, m).dimension for m in range(7)]
        oracle = [periodic_hh_dual_numbers(F, m).dimension for m in range(7)]
        ok = ok and bar == oracle == expected
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 10.0
    assert verdict("1 dual-numbers HH dims, bar == periodic oracle", ok, f"{elapsed:.2f}s")


def test_acceptance_2_kappa_hat_ranks_char_two():
    A = dual_numbers(F2)
    r1 = kappa_hat(A, 1, 1).rank
    r2 = kappa_hat(A, 2, 1).rank
    ok = r1 == 1 and r2 == 1
    verdict("2a kappa-hat ranks p=2 (expected 1, 1)", ok, f"computed {r1}, {r2}")
    assert ok, (
        f"computed ranks ({r1}, {r2}) instead of (1, 1): the canonical form of the "
        "trivial extension vanishes on the embedded copy of the algebra, so every "
        "cup power pairs to zero against pushed cycles and the composite "
        "projection . kappa . inclusion is identically zero on the dual numbers"
    )


def test_acceptance_2_kappa_hat_ranks_char_three():
    start = time.monotonic()
    A = dual_numbers(F3)
    r_m1 = kappa_hat(A, 1, 1).rank  # expected 0
    r_m2 = kappa_hat(A, 2, 1).rank  # expected 1; the 4 * 3^6 = 2916 column case
    elapsed = time.monotonic() - start
    ok = r_m1 == 0 and r_m2 == 1 and elapsed < 120.0
    verdict(
        "2b kappa-hat ranks p=3 (expected m=2: 1, m=1: 0)",
        ok,
        f"computed {r_m2}, {r_m1} in {elapsed:.1f}s",
    )
    assert r_m1 == 0
    assert elapsed < 120.0
    assert r_m2 == 1, (
        f"computed rank {r_m2} instead of 1: the image of the extension-level map "
        "consists of socle-coefficient classes, which the projection annihilates; "
        "the composite vanishes identically on classes pushed from the base algebra"
    )


def test_acceptance_3_degree0_coherence():
    ok = True
    for name in ("dual_f2", "dual_f3", "trunc2_f2", "trunc3_f3"):
        A = CORPUS[name]
        lam = lam_of(A)
        for n in (1, 2):
            via_hh = kappa_m_n(A, lam, 0, n)
            direct = kappa_n_direct(A, lam, n)
            ok = ok and via_hh.map == direct
    assert verdict("3 degree-0 coherence of kappa routes", ok)


def test_acceptance_4_bhz_identity():
    ok = True
    for name in ("ut2_f2", "ut2_f3", "ut3_f2", "ut3_f3", "m2_f3", "dual_f2", "dual_f3", "dual_f5"):
        A = CORPUS[name]
        lam = None
        if name in SYMMETRIC:
            lam = lam_of(A)
        for n in (1, 2):
            rep = bhz_check(A, n, lam)
            ok = ok and rep.holds
            if lam is not None:
                ok = ok and rep.pullback_holds
    assert verdict("4 trivial-extension identity for T_n-perp", ok)


def test_acceptance_5_direct_factor():
    ok = True
    checked = 0
    vacuous = 0
    for name, A in CORPUS.items():
        te = trivial_extension(A)
        for m in range(4):
            hA = homology(A, m)
            if hA.dimension == 0:
                vacuous += 1  # identity on the zero space, nothing to compute
                continue
            up = hh_of_map(te.iota, m)
            down = hh_of_map(te.pi, m)
            ok = ok and (down @ up == Matrix.identity(A.field, hA.dimension))
            checked += 1
    assert verdict(
        "5 split injection into the trivial extension", ok, f"{checked} honest, {vacuous} vacuous"
    )


def test_acceptance_6_zeta_image():
    ok = True
    for name in SYMMETRIC:
        A = CORPUS[name]
        lam = lam_of(A)
        form = BilinearForm.from_linear_form(A, lam)
        Z = center(A)
        for n in (1, 2):
            z = zeta_n(A, lam, n)
            img = z.image()
            ambient_img = (
                Subspace(A.field, A.dim, np.stack([Z.lift(r) for r in img.basis.data]))
                if img.dim
                else Subspace(A.field, A.dim)
            )
            ok = ok and ambient_img == perp(form, kulshammer_T(A, n), Z)
    assert verdict("6 image of zeta_n equals T_n-perp", ok)


def _max_budget_degree(A, cap):
    m = 0
    while m < cap and chain_dim(A, m + 1) <= COLUMN_BUDGET:
        m += 1
    return m


def test_acceptance_7_property_suites():
    rng = random.Random(2024)
    results = {}

    ok = True
    for name, A in CORPUS.items():
        top = _max_budget_degree(A, 7)
        for m in range(2, top + 1):
            ok = ok and (boundary_matrix(A, m - 1) @ boundary_matrix(A, m)).is_zero()
    results["b.b=0"] = ok

    ok = True
    for name, A in CORPUS.items():
        top = _max_budget_degree(A, 6)
        for m in range(0, max(0, top - 1)):
            ok = ok and (coboundary_matrix(A, m + 1) @ coboundary_matrix(A, m)).is_zero()
    results["delta.delta=0"] = ok

    ok = True
    for name in ("dual_f2", "dual_f3", "ut2_f2"):
        A = CORPUS[name]
        for _ in range(100):
            mf, mg = rng.randrange(0, 3), rng.randrange(0, 3)
            f = Cochain(A, mf, np.array([rng.randrange(A.field.q) for _ in range(cochain_dim(A, mf))]))
            g = Cochain(A, mg, np.array([rng.randrange(A.field.q) for _ in range(cochain_dim(A, mg))]))
            lhs = coboundary_apply(cup_product(f, g)).flat()
            sign = 1 if mf % 2 == 0 else A.field.neg(1)
            rhs = A.field.vadd(
                cup_product(coboundary_apply(f), g).flat(),
                A.field.vmul(sign, cup_product(f, coboundary_apply(g)).flat()),
            )
            ok = ok and np.array_equal(lhs, rhs)
    results["leibniz"] = ok

    ok = True
    for name in ("dual_f2", "dual_f3", "trunc3_f3"):
        A = CORPUS[name]
        lam = lam_of(A)
        for m in range(1, 4):
            bnd = boundary_matrix(A, m + 1)
            for zf in cohomology(A, m).representatives:
                w = pairing_vector(lam, Cochain.from_flat(A, m, zf))
                ok = ok and all(
                    A.field.vdot(w, bnd.data[:, c]) == 0 for c in range(bnd.cols)
                )
            delta = coboundary_matrix(A, m - 1)
            for c in range(delta.cols):
                w = pairing_vector(lam, Cochain.from_flat(A, m, delta.data[:, c]))
                ok = ok and all(
                    A.field.vdot(w, x) == 0 for x in homology(A, m).representatives
                )
    results["pairing-descent"] = ok

    ok = True
    for name in SYMMETRIC:
        A = CORPUS[name]
        lam = lam_of(A)
        for m in range(4):
            G = gram_matrix(A, lam, m)
            ok = ok and G.rows == G.cols == homology(A, m).dimension
            ok = ok and row_reduce(G).rank == G.rows
    results["gram-invertible"] = ok

    ok = True
    A4 = dual_numbers(F4)
    mu = ppower_on_HH0(A4, 1)
    for _ in range(100):
        v = np.array([rng.randrange(4) for _ in range(2)])
        c = rng.randrange(4)
        lhs = mu.apply(F4.vmul(c, v))
        rhs = F4.vmul(F4.frobenius(c, 1), mu.apply(v))
        ok = ok and np.array_equal(lhs, rhs)
    results["semilinearity-f4"] = ok

    ok = True
    for name, A in CORPUS.items():
        ka = commutator_space(A)
        if ka.dim == 0:
            continue
        _, _, qmap = hh0_data(A)
        for _ in range(100):
            x = np.array([rng.randrange(A.field.q) for _ in range(A.dim)])
            c = ka.lift(np.array([rng.randrange(A.field.q) for _ in range(ka.dim)]))
            lhs = qmap @ A.power(A.field.vadd(x, c), A.field.p)
            rhs = qmap @ A.power(x, A.field.p)
            ok = ok and np.array_equal(lhs, rhs)
    results["p-power-well-defined"] = ok

    ok = True
    for name, A in CORPUS.items():
        if A.field.q**A.dim > 3**6:
            continue
        for n in (1, 2):
            ok = ok and brute_force_Tn(A, n) == kulshammer_T(A, n)
    results["brute-force-Tn"] = ok

    all_ok = all(results.values())
    failed = [k for k, v in results.items() if not v]
    assert verdict("7 property suites", all_ok, "all green" if all_ok else f"failed: {failed}")


def test_acceptance_8_kunneth_dimensions():
    ok = True
    for F, expected in ((F2, [4, 8, 12, 16, 20]), (F3, [4, 4, 5, 6, 7])):
        A = dual_numbers(F)
        te = trivial_extension(A)
        factor = [homology(A, m).dimension for m in range(5)]
        lhs = [homology(te.algebra, m).dimension for m in range(5)]
        rhs = [sum(factor[i] * factor[m - i] for i in range(m + 1)) for m in range(5)]
        ok = ok and lhs == rhs == expected
    assert verdict("8 Kunneth dimension count on the trivial extension", ok)
