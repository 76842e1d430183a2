import random

import numpy as np
import pytest

import kuelsh.kappa
from kuelsh import hochschild
from kuelsh.algebra import (
    Algebra,
    AlgebraMorphism,
    BilinearForm,
    algebra_validate,
    identity_morphism,
    morphism_validate,
    symmetrizing_form_search,
    tensor_product,
    trivial_extension,
)
from kuelsh.catalog import (
    dual_numbers,
    field_algebra,
    standard_corpus,
    truncated_polynomial,
    upper_triangular,
)
from kuelsh.degree0 import hh0_data, kappa_n_direct
from kuelsh.errors import DimensionMismatch, NotACocycle, NotACycle
from kuelsh.fieldlin import FiniteField, Matrix, row_reduce
from kuelsh.hochschild import (
    Cochain,
    HomologyBasis,
    _pairing_rows,
    boundary_apply,
    boundary_matrix,
    chain_dim,
    chain_map_apply,
    coboundary_apply,
    coboundary_matrix,
    cochain_dim,
    cohomology,
    cup_power,
    gram_matrix,
    hh_of_map,
    homology,
    induced_chain_map,
    pairing_vector,
)
from kuelsh.kappa import (
    _kappa_on_cycles,
    _pairing_of_powers,
    kappa_compare_symmetric,
    kappa_hat,
    kappa_m_n,
)
from kuelsh.oracle import periodic_hh_dual_numbers, ta_iso_dual

F2 = FiniteField(2)
F3 = FiniteField(3)
F4 = FiniteField(2, 2, [1, 1, 1])
F5 = FiniteField(5)
F9 = FiniteField(3, 2, [1, 0, 1])

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


def test_kappa_m0_high_power_takes_logarithmic_products(monkeypatch):
    # at m = 0 each slot group is one index, so the p^n contractions are one
    # matrix power: n = 20 takes a few dozen products, not 3^20
    mat_mul, calls = FiniteField.mat_mul, []

    def spy(*args):
        calls.append(None)
        if len(calls) > 2000:
            raise RuntimeError("more than 2000 products")
        return mat_mul(*args)

    lams = {name: lam_of(CORPUS[name]) for name in ("dual_f3", "trunc3_f3")}
    monkeypatch.setattr(FiniteField, "mat_mul", spy)
    for name, lam in lams.items():
        A = CORPUS[name]
        calls.clear()
        assert kappa_m_n(A, lam, 0, 20).map == kappa_n_direct(A, lam, 20), name
    calls.clear()
    kappa_hat(CORPUS["dual_f3"], 0, 20)


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
    k = kappa_hat(dual_numbers(F5), 2, 1)
    shape = (periodic_hh_dual_numbers(F5, 2).dimension, periodic_hh_dual_numbers(F5, 10).dimension)
    assert k.matrix.data.shape == shape == (1, 1)
    assert not k.matrix.data.any()


def test_kappa_hat_builds_no_extension_boundary(monkeypatch):
    # the p^n m = 6 cycles are checked by slot contraction; only
    # HH_2(TA) needs boundary matrices, b_2 and b_3, whole or in blocks
    A = dual_numbers(F3)
    TA = trivial_extension(A).algebra
    built = []
    terms = hochschild._boundary_terms

    def spy(B, m):
        built.append((B is TA, m))
        return boundary_matrix(B, m)

    def spy_terms(B, m):
        built.append((B is TA, m))
        return terms(B, m)

    monkeypatch.setattr(hochschild, "boundary_matrix", spy)
    monkeypatch.setattr(hochschild, "_boundary_terms", spy_terms)
    monkeypatch.setattr(kuelsh.kappa, "boundary_matrix", spy, raising=False)
    kappa_hat(A, 2, 1)
    assert max(m for on_ta, m in built if on_ta) == 3


def test_kappa_rejects_a_representative_that_is_not_a_cocycle(monkeypatch):
    # the last of HH^1's three representatives is swapped for a cochain with a
    # nonzero coboundary: every row is checked, not only the first
    A = CORPUS["trunc3_f3"]
    coh = cohomology(A, 1)
    assert coh.dimension >= 2
    delta = coboundary_matrix(A, 1).data
    bad = next(e for e in np.eye(cochain_dim(A, 1), dtype=np.int64) if (delta @ e).any())
    reps = np.vstack([coh.representatives[:-1], bad])
    fake = HomologyBasis(coh.degree, reps, coh.field, coh.blocks, coh.pivots)
    monkeypatch.setattr(kuelsh.kappa, "cohomology", lambda T, m: fake)
    with pytest.raises(NotACocycle):
        kappa_m_n(A, lam_of(A), 1, 1)


def test_kappa_on_cycles_builds_one_gram_matrix(monkeypatch):
    A = CORPUS["dual_f3"]
    lam = lam_of(A)
    build = BilinearForm.from_linear_form.__func__
    calls = []

    def counted(cls, *args):
        calls.append(args)
        return build(cls, *args)

    monkeypatch.setattr(BilinearForm, "from_linear_form", classmethod(counted))
    _kappa_on_cycles(A, lam, 2, 1, homology(A, 6).representatives)
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
    empty = _kappa_on_cycles(A, lam, m, n, dom.representatives[:0])
    assert empty.data.shape == (homology(A, m).dimension, 0)
    for block in ([non_cycle], np.vstack([dom.representatives, non_cycle])):
        with pytest.raises(NotACycle):
            _kappa_on_cycles(A, lam, m, n, block)
    for bad in (dom.representatives[0], dom.representatives[:, 1:]):
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


# -- the dense reference route ------------------------------------------------------
#
# kappa once formed the cup powers z^e and the pushed cycles in full, in the
# degree-e*m chain and cochain spaces of the algebra T that carries the form.
# That route is kept here as the reference for the factor-at-a-time pairing.


def ref_pairing_of_powers(theta, lam, m, e, cochains, X):
    """<z_i^e, theta_* x_j> from the cup power, its pairing vector in degree
    e*m and the pushed chain, each built in full."""
    T = theta.target
    form = BilinearForm.from_linear_form(T, lam)
    powers = [cup_power(Cochain.from_flat(T, m, z), e).flat() for z in cochains]
    W = _pairing_rows(form, e * m, np.reshape(powers, (len(powers), cochain_dim(T, e * m))))
    return T.field.mat_mul(chain_map_apply(theta, e * m, X), W.T)


def ref_kappa_on_cycles(T, lam, m, n, cycles, theta=None):
    """kappa on theta_* of the cycles by the dense route, with its dense
    checks: the pushed cycles are cycles of T and d(z^e) = 0."""
    theta = theta or identity_morphism(T)
    F, e = T.field, T.field.p**n
    pushed = chain_map_apply(theta, e * m, cycles)
    if e * m >= 1 and boundary_apply(T, e * m, pushed).any():
        raise NotACycle("kappa applied to a chain that is not a cycle")
    reps = cohomology(T, m).representatives
    for z in reps:
        assert coboundary_apply(cup_power(Cochain.from_flat(T, m, z), e)).is_zero()
    B = F.vfrob(ref_pairing_of_powers(theta, lam, m, e, reps, cycles), -n)
    return Matrix(F, row_reduce(gram_matrix(T, lam, m)).solve(B).T)


def _basis_change(A, seed):
    """The identity of A, from its basis to a random one f_0 = 1, f_1..f_{d-1}
    whose f_i all have a nonzero unit coordinate: theta_bar then has
    components along the unit."""
    F, d = A.field, A.dim
    rng = np.random.default_rng(seed)
    while True:
        rest = np.hstack([rng.integers(1, F.q, (d - 1, 1)), rng.integers(0, F.q, (d - 1, d - 1))])
        P = np.vstack([A.unit(), rest])
        red = row_reduce(Matrix(F, P.T))
        if red.rank == d:
            break
    Q = np.stack([red.solve(e) for e in np.eye(d, dtype=np.int64)])  # e_k in f-coordinates
    const = [[F.mat_mul(A.multiply(P[a], P[b]), Q) for b in range(d)] for a in range(d)]
    B = Algebra(F, A.labels, const)
    assert algebra_validate(B).ok
    return AlgebraMorphism(A, B, Matrix(F, Q.T))


def _pairing_cases():
    """(theta, m, e) over F2, F3, F5, F4, F9: the identity of, the inclusion
    into T(A) of, and a unit-mixing basis change of k, k[eps], k[t]/t^3 and
    UT2 and of their trivial extensions, plus T(k[eps]) -> k[eps] (x) k[eps]."""
    for F in (F2, F3, F5, F4, F9):
        thetas = [ta_iso_dual(F)]
        bases = (field_algebra(F), dual_numbers(F), truncated_polynomial(F, 3), upper_triangular(F, 2))
        for A in bases:
            te = trivial_extension(A)
            thetas.append(te.iota)
            for B in (A, te.algebra):
                thetas += [identity_morphism(B), _basis_change(B, B.dim)]
        for theta in thetas:
            for m in range(4):
                for e in range(1, 4):
                    if chain_dim(theta.target, e * m) <= 4000:
                        yield theta, m, e


def test_cup_power_pairing_matches_dense_route():
    rng = np.random.default_rng(13)
    unit_mixing = total = nonzero = 0
    for case, (theta, m, e) in enumerate(_pairing_cases()):
        A, T = theta.source, theta.target
        F = T.field
        unit_mixing += bool(theta.matrix.data[0, 1:].any())
        k, kz = rng.integers(1, 4, 2)
        if case % 7 == 0:
            k = 0
        X = rng.integers(0, F.q, (k, chain_dim(A, e * m)))
        Z = rng.integers(0, F.q, (kz, cochain_dim(T, m))) * (case % 7 != 1)  # zero cochains
        lam = rng.integers(0, F.q, T.dim)
        got = _pairing_of_powers(theta, lam, m, e, Z, X)
        assert got.shape == (k, kz)
        assert np.array_equal(got, ref_pairing_of_powers(theta, lam, m, e, Z, X)), (F, A.dim, m, e)
        total += 1
        nonzero += bool(got.any())
    assert unit_mixing >= 30
    assert total >= 600 and nonzero > total // 2, (total, nonzero)


def _corpus_routes(m, n):
    """(T, lam, cycles, theta) for kappa and kappa-hat on the corpus, where the
    dense reference fits in a few megabytes."""
    for name, A in CORPUS.items():
        e = A.field.p**n
        if chain_dim(A, e * m + 1) > 5_000:
            continue
        cycles = homology(A, e * m).representatives
        if name in SYMMETRIC:
            yield A, lam_of(A), cycles, None
        te = trivial_extension(A)
        if chain_dim(te.algebra, e * m) <= 100_000:
            yield te.algebra, te.lam, cycles, te.iota


def test_kappa_on_cycles_matches_dense_route_on_corpus():
    seen = 0
    for m, n in ((1, 1), (2, 1), (0, 1)):
        for T, lam, cycles, theta in _corpus_routes(m, n):
            got = _kappa_on_cycles(T, lam, m, n, cycles, theta)
            assert got == ref_kappa_on_cycles(T, lam, m, n, cycles, theta), (T.dim, m, n)
            seen += 1
    assert seen >= 45


def test_kappa_dual_f3_high_degree_ranks():
    # degree 18: the symmetric map survives, the trivial-extension route vanishes
    A = CORPUS["dual_f3"]
    rep = kappa_compare_symmetric(A, lam_of(A), 2, 2)
    assert (rep.kappa.domain_degree, rep.kappa.codomain_degree) == (18, 2)
    assert (rep.kappa.rank, rep.kappa_hat.rank, rep.equal) == (1, 0, False)


def test_kappa_makes_no_degree_em_cochain_or_chain(monkeypatch):
    # only T's degree-m spaces are built: no cup power, no push of the
    # degree-e*m cycles, and pairing vectors in degree m alone (Gram matrix)
    A = dual_numbers(F3)
    te = trivial_extension(A)
    m, n = 2, 1
    calls = []

    def spy(name, real):
        def wrapped(*args):
            calls.append((name, args[1] if name != "cup_power" else None))
            return real(*args)

        return wrapped

    for name in ("cup_power", "chain_map_apply", "_pairing_rows"):
        wrapped = spy(name, getattr(hochschild, name))
        monkeypatch.setattr(hochschild, name, wrapped)
        monkeypatch.setattr(kuelsh.kappa, name, wrapped, raising=False)
    kappa_m_n(A, lam_of(A), m, n)
    kappa_hat(A, m, n)
    assert ("_pairing_rows", m) in calls and ("chain_map_apply", m) in calls  # hh_of_map(pi, m)
    assert all(name != "cup_power" and degree == m for name, degree in calls), calls
    e = A.field.p**n
    basis = np.eye(chain_dim(A, e * m), dtype=np.int64)
    non_cycle = next(x for x in basis if boundary_apply(A, e * m, x[None]).any())
    assert morphism_validate(te.iota)
    with pytest.raises(NotACycle):
        _kappa_on_cycles(te.algebra, te.lam, m, n, [non_cycle], te.iota)
