import itertools
import random

import numpy as np
import pytest

from kuelsh.algebra import BilinearForm, symmetrizing_form_search, trivial_extension
from kuelsh.catalog import (
    dual_numbers,
    field_algebra,
    full_matrix_algebra,
    standard_corpus,
    truncated_polynomial,
    upper_triangular,
)
from kuelsh.degree0 import (
    annihilator_in_dual,
    bhz_check,
    center,
    commutator_space,
    hh0_data,
    kappa_n_direct,
    kulshammer_T,
    perp,
    ppower_on_HH0,
    zeta_n,
)
from kuelsh.fieldlin import FiniteField, Matrix, Subspace, row_reduce

F2 = FiniteField(2)
F3 = FiniteField(3)
F4 = FiniteField(2, 2, [1, 1, 1])

CORPUS = standard_corpus()
SYMMETRIC = ["dual_f2", "dual_f3", "dual_f5", "trunc2_f2", "trunc3_f3", "m2_f3", "k_f2"]


def spanned_by_brute_force_commutators(A):
    vecs = []
    for i in range(A.dim):
        for j in range(A.dim):
            vecs.append(
                A.field.vsub(
                    A.multiply(A.basis_vector(i), A.basis_vector(j)),
                    A.multiply(A.basis_vector(j), A.basis_vector(i)),
                )
            )
    return Subspace(A.field, A.dim, np.stack(vecs))


# -- commutator space --------------------------------------------------------


def test_commutator_space_commutative():
    assert commutator_space(dual_numbers(F3)).dim == 0
    assert commutator_space(truncated_polynomial(F3, 3)).dim == 0


def test_commutator_space_ut2():
    A = upper_triangular(F2, 2)
    ka = commutator_space(A)
    assert ka == spanned_by_brute_force_commutators(A)
    assert ka.dim == 1
    # span{e12}: basis index 2 in the normalized basis (1, e11, e12)
    assert ka.contains_vector([0, 0, 1])


def test_commutator_space_m2_is_trace_zero():
    A = full_matrix_algebra(F3, 2)
    ka = commutator_space(A)
    assert ka == spanned_by_brute_force_commutators(A)
    assert ka.dim == 3


# -- center ------------------------------------------------------------------


def test_center_commutative_is_everything():
    A = dual_numbers(F3)
    assert center(A).dim == 2


def test_center_ut2_is_scalars():
    A = upper_triangular(F2, 2)
    Z = center(A)
    assert Z.dim == 1
    assert Z.contains_vector(A.unit())
    # cross-check by enumerating all 8 elements of UT2 over F_2
    central = []
    for v in itertools.product(range(2), repeat=3):
        v = np.array(v)
        if all(
            np.array_equal(A.multiply(v, A.basis_vector(i)), A.multiply(A.basis_vector(i), v))
            for i in range(3)
        ):
            central.append(v)
    assert len(central) == 2  # 0 and 1


def test_center_m2_is_scalars():
    A = full_matrix_algebra(F3, 2)
    Z = center(A)
    assert Z.dim == 1
    assert Z.contains_vector(A.unit())


# -- p-power map ---------------------------------------------------------------


def test_ppower_on_field_algebra_is_identity():
    A = field_algebra(F3)
    mu = ppower_on_HH0(A, 1)
    assert mu.twist == 0  # r = 1 normalizes twist 1 to 0
    assert mu.matrix == Matrix.identity(F3, 1)


def test_ppower_dual_numbers_rank_one():
    A = dual_numbers(F3)
    mu = ppower_on_HH0(A, 1)
    # (a + b eps)^3 = a^3: the matrix kills eps and fixes the class of 1
    assert row_reduce(mu.matrix).rank == 1
    assert np.array_equal(mu.matrix.data[:, 0], np.array([1, 0]))
    assert not mu.matrix.data[:, 1].any()


def test_ppower_ut2_invertible():
    A = upper_triangular(F2, 2)
    mu = ppower_on_HH0(A, 1)
    # reps of A/KA are classes of 1 and e11; both are idempotent
    assert row_reduce(mu.matrix).rank == 2
    assert mu.matrix == Matrix.identity(F2, 2)


def test_ppower_twist_over_f4():
    A = dual_numbers(F4)
    mu = ppower_on_HH0(A, 1)
    assert mu.twist == 1
    # semilinearity: mu(c v) = c^p mu(v)
    rng = random.Random(4)
    for _ in range(50):
        v = np.array([rng.randrange(4), rng.randrange(4)])
        c = rng.randrange(4)
        lhs = mu.apply(F4.vmul(c, v))
        rhs = F4.vmul(F4.frobenius(c, 1), mu.apply(v))
        assert np.array_equal(lhs, rhs)


# -- T_n ------------------------------------------------------------------------


def test_T_of_field_algebra_is_zero():
    assert kulshammer_T(field_algebra(F3), 1).dim == 0
    assert kulshammer_T(field_algebra(F3), 2).dim == 0


def test_T_dual_numbers_is_eps_line():
    A = dual_numbers(F3)
    for n in (1, 2, 3):
        tn = kulshammer_T(A, n)
        assert tn.dim == 1
        assert tn.contains_vector([0, 1])


def test_T_ut2_equals_KA():
    A = upper_triangular(F2, 2)
    for n in (1, 2):
        assert kulshammer_T(A, n) == commutator_space(A)


def test_T_chain_and_KA_containment():
    for name, A in CORPUS.items():
        ka = commutator_space(A)
        prev = ka
        for n in (1, 2, 3):
            tn = kulshammer_T(A, n)
            assert tn.contains(prev), (name, n)
            prev = tn


# -- perp -----------------------------------------------------------------------


def lam_of(name):
    res = symmetrizing_form_search(CORPUS[name])
    assert res.status == "found"
    return res.form


def test_perp_of_zero_is_ambient():
    A = dual_numbers(F3)
    lam = lam_of("dual_f3")
    form = BilinearForm.from_linear_form(A, lam)
    Z = center(A)
    assert perp(form, Subspace(F3, 2), Z) == Z


def test_perp_dual_numbers():
    A = dual_numbers(F3)
    form = BilinearForm.from_linear_form(A, lam_of("dual_f3"))
    t1 = kulshammer_T(A, 1)
    p = perp(form, t1, center(A))
    assert p.dim == 1 and p.contains_vector([0, 1])


def test_perp_truncated_polynomial():
    A = truncated_polynomial(F3, 3)
    lam = np.array([0, 0, 1])  # coefficient of t^2
    form = BilinearForm.from_linear_form(A, lam)
    t1 = kulshammer_T(A, 1)
    assert t1.dim == 2  # span{t, t^2}
    p = perp(form, t1, center(A))
    assert p.dim == 1 and p.contains_vector([0, 0, 1])
    # cross-check: <t^2, t^j> = lam(t^{2+j}) = 0 for j >= 1
    for j in (1, 2):
        assert form.pairing(A.basis_vector(2), A.basis_vector(j)) == 0


# -- zeta -----------------------------------------------------------------------


def test_zeta_field_algebra_identity():
    A = field_algebra(F3)
    z = zeta_n(A, np.array([1]), 1)
    assert z.matrix == Matrix.identity(F3, 1)


def test_zeta_dual_numbers():
    A = dual_numbers(F3)
    z = zeta_n(A, lam_of("dual_f3"), 1)
    # zeta(a + b eps) = b^{1/p} eps: kills 1, fixes eps; twist -1 mod 1 = 0
    assert np.array_equal(z.matrix.data, np.array([[0, 0], [0, 1]]))
    assert z.image() == kulshammer_T(A, 1)  # T_1^perp = k eps = T_1 here


def test_zeta_truncated_image():
    A = truncated_polynomial(F3, 3)
    lam = np.array([0, 0, 1])
    z = zeta_n(A, lam, 1)
    img = z.image()  # in center coordinates; center = A here
    Z = center(A)
    ambient_img = Subspace(F3, 3, np.stack([Z.lift(row) for row in img.basis.data]))
    assert ambient_img.dim == 1
    assert ambient_img.contains_vector([0, 0, 1])


def test_zeta_defining_identity_random():
    rng = random.Random(11)
    for name in SYMMETRIC:
        A = CORPUS[name]
        lam = lam_of(name)
        form = BilinearForm.from_linear_form(A, lam)
        Z = center(A)
        for n in (1, 2):
            z = zeta_n(A, lam, n)
            pn = A.field.p**n
            for _ in range(100):
                coeffs = np.array([rng.randrange(A.field.q) for _ in range(Z.dim)])
                a = Z.lift(coeffs)
                b = np.array([rng.randrange(A.field.q) for _ in range(A.dim)])
                za = Z.lift(z.apply(coeffs))
                lhs = form.pairing(a, A.power(b, pn)) if pn >= 1 else None
                rhs = A.field.pow(form.pairing(za, b), pn)
                assert lhs == rhs, name


def test_zeta_image_is_T_perp():
    for name in SYMMETRIC:
        A = CORPUS[name]
        lam = lam_of(name)
        form = BilinearForm.from_linear_form(A, lam)
        Z = center(A)
        for n in (1, 2):
            z = zeta_n(A, lam, n)
            img = z.image()
            ambient = (
                Subspace(A.field, A.dim, np.stack([Z.lift(r) for r in img.basis.data]))
                if img.dim
                else Subspace(A.field, A.dim)
            )
            assert ambient == perp(form, kulshammer_T(A, n), Z), (name, n)


def test_T_perp_descending_chain():
    for name in SYMMETRIC:
        A = CORPUS[name]
        form = BilinearForm.from_linear_form(A, lam_of(name))
        Z = center(A)
        perps = [perp(form, kulshammer_T(A, n), Z) for n in (1, 2, 3)]
        assert perps[0].contains(perps[1])
        assert perps[1].contains(perps[2])


# -- kappa ----------------------------------------------------------------------


def test_kappa_field_algebra_identity():
    A = field_algebra(F3)
    k = kappa_n_direct(A, np.array([1]), 1)
    assert k.matrix == Matrix.identity(F3, 1)


def test_kappa_dual_numbers_rank_one():
    A = dual_numbers(F3)
    k = kappa_n_direct(A, lam_of("dual_f3"), 1)
    # kappa_1(b0 + b1 eps) = b1^{1/p} eps
    assert np.array_equal(k.matrix.data, np.array([[0, 0], [0, 1]]))
    assert row_reduce(k.matrix).rank == 1


def test_kappa_truncated_by_enumeration():
    A = truncated_polynomial(F3, 3)
    lam = np.array([0, 0, 1])
    k = kappa_n_direct(A, lam, 1)
    # kappa_1(b) = b_{p-1} t^{p-1}: over F_3, inverse Frobenius is trivial
    expect = np.zeros((3, 3), dtype=np.int64)
    expect[2, 2] = 1
    assert np.array_equal(k.matrix.data, expect)
    # oracle: the defining identity on every (a, b) pair of F_3[t]/t^3
    form = BilinearForm.from_linear_form(A, lam)
    for a in itertools.product(range(3), repeat=3):
        for b in itertools.product(range(3), repeat=3):
            a, b = np.array(a), np.array(b)
            lhs = form.pairing(A.power(a, 3), b) if a.any() else 0
            rhs = F3.pow(form.pairing(a, k.matrix @ b), 3)
            assert lhs == rhs


def test_kappa_defining_identity_random():
    rng = random.Random(23)
    for name in SYMMETRIC:
        A = CORPUS[name]
        lam = lam_of(name)
        form = BilinearForm.from_linear_form(A, lam)
        Z = center(A)
        _, reps, qmap = hh0_data(A)
        for n in (1, 2):
            k = kappa_n_direct(A, lam, n)
            pn = A.field.p**n
            for _ in range(100):
                zc = np.array([rng.randrange(A.field.q) for _ in range(Z.dim)])
                a = Z.lift(zc)
                b = np.array([rng.randrange(A.field.q) for _ in range(A.dim)])
                if not a.any():
                    continue
                kb = k.apply(qmap @ b)  # coordinates in A/KA
                kb_vec = reps.transpose() @ kb
                lhs = form.pairing(A.power(a, pn), b)
                rhs = A.field.pow(form.pairing(a, kb_vec), pn)
                assert lhs == rhs, (name, n)


# -- annihilator -----------------------------------------------------------------


def test_annihilator_of_zero_is_everything():
    A = dual_numbers(F3)
    assert annihilator_in_dual(A, Subspace(F3, 2)).dim == 2


def test_annihilator_ut2():
    A = upper_triangular(F2, 2)
    t1 = kulshammer_T(A, 1)
    ann = annihilator_in_dual(A, t1)
    assert ann.dim == 2
    for f in ann.basis.data:
        assert F2.vdot(f, t1.basis.data[0]) == 0


def test_annihilator_dual_numbers():
    A = dual_numbers(F3)
    ann = annihilator_in_dual(A, kulshammer_T(A, 1))
    assert ann.dim == 1
    assert ann.contains_vector([1, 0])


def test_annihilator_dimension_formula():
    rng = random.Random(31)
    for name, A in CORPUS.items():
        for _ in range(10):
            k = rng.randrange(0, A.dim + 1)
            rows = [
                [rng.randrange(A.field.q) for _ in range(A.dim)] for _ in range(k)
            ]
            W = Subspace(A.field, A.dim, np.array(rows).reshape(-1, A.dim))
            assert annihilator_in_dual(A, W).dim + W.dim == A.dim


# -- BHZ identity -----------------------------------------------------------------


def test_bhz_field_algebra():
    assert bhz_check(field_algebra(F2), 1).holds


def test_bhz_ut2():
    A = upper_triangular(F2, 2)
    for n in (1, 2):
        assert bhz_check(A, n).holds


def test_bhz_dual_numbers_with_pullback():
    A = dual_numbers(F3)
    rep = bhz_check(A, 1, lam=lam_of("dual_f3"))
    assert rep.holds
    assert rep.pullback_holds


def test_bhz_whole_corpus():
    for name in ("ut2_f2", "ut2_f3", "ut3_f2", "ut3_f3", "m2_f3", "dual_f2", "dual_f3"):
        A = CORPUS[name]
        for n in (1, 2):
            assert bhz_check(A, n).holds, (name, n)
