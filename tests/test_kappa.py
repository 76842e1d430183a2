import random

import numpy as np
import pytest

import kuelsh.kappa
from kuelsh import hochschild
from kuelsh.algebra import (
    BilinearForm,
    symmetrizing_form_search,
    tensor_product,
    trivial_extension,
)
from kuelsh.catalog import dual_numbers, field_algebra, standard_corpus, upper_triangular
from kuelsh.degree0 import hh0_data, kappa_n_direct
from kuelsh.errors import DimensionMismatch, NotACycle
from kuelsh.fieldlin import FiniteField, Matrix, row_reduce
from kuelsh.hochschild import (
    Cochain,
    boundary_matrix,
    chain_dim,
    coboundary_matrix,
    cohomology,
    cup_power,
    hh_of_map,
    homology,
    induced_chain_map,
    pairing_vector,
)
from kuelsh.kappa import _kappa_on_cycles, kappa_compare_symmetric, kappa_hat, kappa_m_n
from kuelsh.oracle import periodic_hh_dual_numbers

F2 = FiniteField(2)
F3 = FiniteField(3)
F4 = FiniteField(2, 2, [1, 1, 1])

CORPUS = standard_corpus()
SYMMETRIC = ["dual_f2", "dual_f3", "dual_f5", "trunc2_f2", "trunc3_f3", "m2_f3", "k_f2"]


def lam_of(A):
    res = symmetrizing_form_search(A)
    assert res.status == "found"
    return res.form


# -- degree-0 coherence --------------------------------------------------------


def test_kappa_m0_equals_direct_construction():
    for name in ("dual_f2", "dual_f3", "trunc2_f2", "trunc3_f3"):
        A = CORPUS[name]
        lam = lam_of(A)
        for n in (1, 2):
            via_hh = kappa_m_n(A, lam, 0, n)
            direct = kappa_n_direct(A, lam, n)
            assert via_hh.map == direct, (name, n)


def test_kappa_m0_full_symmetric_corpus():
    for name in SYMMETRIC:
        A = CORPUS[name]
        lam = lam_of(A)
        assert kappa_m_n(A, lam, 0, 1).map == kappa_n_direct(A, lam, 1), name


# -- degenerate and empty cases --------------------------------------------------


def test_kappa_on_field_algebra_higher_degrees_empty():
    A = field_algebra(F3)
    lam = np.array([1])
    for m in (1, 2):
        k = kappa_m_n(A, lam, m, 1)
        assert k.matrix.rows == 0 and k.matrix.cols == 0
        assert k.rank == 0


def test_kappa_hat_ut2_empty():
    A = upper_triangular(F2, 2)
    for m in (1, 2):
        k = kappa_hat(A, m, 1)
        assert k.matrix.cols == 0
        assert k.rank == 0


# -- dual numbers, the worked example ---------------------------------------------


def test_kappa_dual_f2_m1_rank_one():
    A = dual_numbers(F2)
    k = kappa_m_n(A, lam_of(A), 1, 1)
    assert (k.domain_degree, k.codomain_degree) == (2, 1)
    assert k.rank == 1


def test_kappa_dual_f3_even_degree_rank_one():
    A = dual_numbers(F3)
    lam = lam_of(A)
    assert kappa_m_n(A, lam, 2, 1).rank == 1
    assert kappa_m_n(A, lam, 1, 1).rank == 0  # odd-degree generator dies


def test_kappa_over_extension_is_nonzero_but_socle_valued():
    # Over the trivial extension the map itself is nonzero, but its image
    # consists of socle-coefficient classes, which the projection kills:
    # the canonical form of TA vanishes identically on the embedded copy
    # of A, so cup powers paired against pushed classes give 0.
    A = dual_numbers(F2)
    te = trivial_extension(A)
    TA = te.algebra
    dom = homology(TA, 2)
    kTA = _kappa_on_cycles(TA, te.lam, 1, 1, list(dom.representatives))
    assert row_reduce(kTA).rank == 2
    down = hh_of_map(te.pi, 1)
    assert not (down @ Matrix(F2, kTA.data)).data.any()


def test_kappa_hat_dual_numbers_vanishes():
    # The projection-after-kappa-after-inclusion composite is zero on the
    # dual numbers in every degree tested; the extension's canonical form
    # pairs the algebra against its dual, so it kills the embedded copy.
    for F in (F2, F3):
        A = dual_numbers(F)
        for m, n in ((1, 1), (2, 1)):
            k = kappa_hat(A, m, n)
            assert (k.domain_degree, k.codomain_degree) == (F.p**n * m, m)
            assert k.rank == 0


def test_kappa_hat_dual_f5_m2_is_zero():
    # the vanishing of the README at p = 5, which once ran out of memory
    F5 = FiniteField(5)
    k = kappa_hat(dual_numbers(F5), 2, 1)
    shape = (periodic_hh_dual_numbers(F5, 2).dimension, periodic_hh_dual_numbers(F5, 10).dimension)
    assert k.matrix.data.shape == shape == (1, 1)
    assert not k.matrix.data.any()


def test_kappa_hat_builds_no_extension_boundary(monkeypatch):
    # the p^n m = 6 cycles are checked and pushed by slot contraction; only
    # HH_2(TA) needs boundary matrices, b_2 and b_3
    A = dual_numbers(F3)
    TA = trivial_extension(A).algebra
    built = []

    def spy(B, m):
        built.append((B is TA, m))
        return boundary_matrix(B, m)

    monkeypatch.setattr(hochschild, "boundary_matrix", spy)
    monkeypatch.setattr(kuelsh.kappa, "boundary_matrix", spy, raising=False)
    kappa_hat(A, 2, 1)
    assert max(m for on_ta, m in built if on_ta) == 3


def test_kappa_on_cycles_builds_one_gram_matrix(monkeypatch):
    A = CORPUS["dual_f3"]
    lam = lam_of(A)
    build = BilinearForm.from_linear_form.__func__
    calls = []

    def counted(cls, *args):
        calls.append(args)
        return build(cls, *args)

    monkeypatch.setattr(BilinearForm, "from_linear_form", classmethod(counted))
    _kappa_on_cycles(A, lam, 2, 1, homology(A, 6).block)
    assert len(calls) == 1


def test_kappa_compare_reports_consistently():
    # the comparison report must agree with an exact matrix comparison
    for name, pairs in (("dual_f2", ((1, 1), (2, 1))), ("dual_f3", ((1, 1), (2, 1)))):
        A = CORPUS[name]
        lam = lam_of(A)
        for m, n in pairs:
            rep = kappa_compare_symmetric(A, lam, m, n)
            assert rep.equal == (rep.kappa.map == rep.kappa_hat.map)
            if kappa_m_n(A, lam, m, n).rank > 0:
                # nonzero direct route, vanishing extension route
                assert not rep.equal


def test_kappa_compare_tensor_square_degree_zero():
    A = tensor_product(dual_numbers(F2), dual_numbers(F2))
    lam = lam_of(A)
    rep = kappa_compare_symmetric(A, lam, 0, 1)
    assert rep.equal == (rep.kappa.map == rep.kappa_hat.map)


# -- invariants -------------------------------------------------------------------


def test_representative_independence():
    for name in ("dual_f2", "dual_f3"):
        A = CORPUS[name]
        lam = lam_of(A)
        for m, n in ((1, 1), (2, 1)):
            e = A.field.p**n
            dom = homology(A, e * m)
            if dom.dimension == 0:
                continue
            base = _kappa_on_cycles(A, lam, m, n, list(dom.representatives))
            bnd = boundary_matrix(A, e * m + 1)
            if bnd.cols == 0:
                continue
            shifted = [
                A.field.vadd(rep, bnd.data[:, rep_i % bnd.cols])
                for rep_i, rep in enumerate(dom.representatives)
            ]
            again = _kappa_on_cycles(A, lam, m, n, shifted)
            assert base == again, (name, m, n)


def test_cohomology_representative_independence():
    # replacing a cocycle representative by rep + coboundary leaves the
    # pairing vector's action on cycles unchanged
    A = dual_numbers(F2)
    lam = lam_of(A)
    m, n = 1, 1
    coh = cohomology(A, m)
    delta = coboundary_matrix(A, m - 1)
    hom2 = homology(A, A.field.p**n * m)
    for zf in coh.representatives:
        z = Cochain.from_flat(A, m, zf)
        wz = pairing_vector(lam, cup_power(z, A.field.p**n))
        for col in range(delta.cols):
            zb = Cochain.from_flat(A, m, A.field.vadd(zf, delta.data[:, col]))
            wb = pairing_vector(lam, cup_power(zb, A.field.p**n))
            for x in hom2.representatives:
                assert A.field.vdot(wz, x) == A.field.vdot(wb, x)


def test_kappa_on_cycles_checks_every_row():
    A = dual_numbers(F3)
    lam = lam_of(A)
    m, n = 2, 1
    dom = homology(A, 3 * m)
    bnd = boundary_matrix(A, 3 * m)
    non_cycle = next(e for e in np.eye(chain_dim(A, 3 * m), dtype=np.int64) if (bnd @ e).any())
    assert _kappa_on_cycles(A, lam, m, n, dom.block[:0]).data.shape == (homology(A, m).dimension, 0)
    for block in ([non_cycle], np.vstack([dom.block, non_cycle])):
        with pytest.raises(NotACycle):
            _kappa_on_cycles(A, lam, m, n, block)
    for bad in (dom.block[0], dom.block[:, 1:]):
        with pytest.raises(DimensionMismatch):
            _kappa_on_cycles(A, lam, m, n, bad)


def test_kappa_semilinearity_over_f4():
    A = dual_numbers(F4)
    lam = lam_of(A)
    m, n = 1, 1
    e = A.field.p**n
    dom = homology(A, e * m)
    x = dom.representatives[0]
    rng = random.Random(12)
    for _ in range(20):
        c = rng.randrange(1, 4)
        scaled = A.field.vmul(c, x)
        M = _kappa_on_cycles(A, lam, m, n, [x, scaled])
        expect = A.field.vmul(A.field.frobenius(c, -n), M.data[:, 0])
        assert np.array_equal(M.data[:, 1], expect)


def test_kappa_hat_m0_equals_degree0_composition():
    for name in ("dual_f3", "ut2_f2", "m2_f3"):
        A = CORPUS[name]
        n = 1
        te = trivial_extension(A)
        TA = te.algebra
        hat = kappa_hat(A, 0, n)
        # the same composite assembled purely from degree-0 machinery
        _, repsA, qmapA = hh0_data(A)
        _, repsTA, qmapTA = hh0_data(TA)
        up = np.stack(
            [qmapTA @ (te.iota.matrix @ repsA.data[j]) for j in range(repsA.rows)],
            axis=1,
        )
        down = np.stack(
            [qmapA @ (te.pi.matrix @ repsTA.data[j]) for j in range(repsTA.rows)],
            axis=1,
        )
        mid = kappa_n_direct(TA, te.lam, n)
        F = A.field
        composite = F.mat_mul(down, F.mat_mul(mid.matrix.data, F.vfrob(up, -n)))
        assert np.array_equal(hat.matrix.data, composite), name
        assert hat.twist == mid.twist


def test_kappa_twist_bookkeeping_over_f4():
    A = dual_numbers(F4)
    lam = lam_of(A)
    k = kappa_m_n(A, lam, 1, 1)
    assert k.twist == (-1) % 2 == 1
