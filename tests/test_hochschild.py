import itertools
import random

import numpy as np
import pytest

from kuelsh.algebra import (
    Algebra,
    AlgebraMorphism,
    BilinearForm,
    algebra_validate,
    identity_morphism,
    symmetrizing_form_search,
    trivial_extension,
)
from kuelsh.catalog import (
    dual_numbers,
    field_algebra,
    full_matrix_algebra,
    standard_corpus,
    truncated_polynomial,
    upper_triangular,
)
from kuelsh.degree0 import center, commutator_space, hh0_data
from kuelsh.errors import DimensionMismatch, NotACocycle, NotACycle, NotUnital
from kuelsh.fieldlin import FiniteField, Matrix, Subspace, row_reduce
from kuelsh.hochschild import (
    Cochain,
    boundary_apply,
    boundary_matrix,
    chain_dim,
    chain_map_apply,
    coboundary_apply,
    coboundary_matrix,
    cochain_dim,
    cohomology,
    cup_power,
    cup_product,
    gram_matrix,
    hh_of_map,
    homology,
    induced_chain_map,
    pairing,
    pairing_vector,
)

F2 = FiniteField(2)
F3 = FiniteField(3)
F4 = FiniteField(2, 2, [1, 1, 1])
F5 = FiniteField(5)
F9 = FiniteField(3, 2, [1, 0, 1])

CORPUS = standard_corpus()
SYMMETRIC = ["dual_f2", "dual_f3", "dual_f5", "trunc3_f3", "m2_f3", "k_f2"]

BUDGET_COLUMNS = 10_000


def max_budget_degree(A, cap):
    m = 0
    while m < cap and chain_dim(A, m + 1) <= BUDGET_COLUMNS:
        m += 1
    return m


# -- full (unnormalized) bar complex, used only as an oracle here -------------


def full_bar_boundary(A, m):
    d = A.dim
    F = A.field

    def index(tup):
        idx = 0
        for t in tup:
            idx = idx * d + t
        return idx

    out = np.zeros((d**m, d ** (m + 1)), dtype=np.int64)
    minus_one = F.neg(1)
    for tup in itertools.product(range(d), repeat=m + 1):
        col = index(tup)
        sign = 1
        for i in range(m):
            prod = A.const[tup[i], tup[i + 1]]
            for t in np.flatnonzero(prod):
                row = index(tup[:i] + (int(t),) + tup[i + 2 :])
                val = int(prod[t]) if sign == 1 else F.mul(int(prod[t]), minus_one)
                out[row, col] = F.add(int(out[row, col]), val)
            sign = -sign
        prod = A.const[tup[m], tup[0]]
        for t in np.flatnonzero(prod):
            row = index((int(t),) + tup[1:m])
            val = int(prod[t]) if sign == 1 else F.mul(int(prod[t]), minus_one)
            out[row, col] = F.add(int(out[row, col]), val)
    return Matrix(F, out, copy=False)


def full_bar_hh_dim(A, m):
    F = A.field
    if m == 0:
        cycles_dim = A.dim
    else:
        cycles_dim = row_reduce(full_bar_boundary(A, m)).kernel.dim
    image_rank = row_reduce(full_bar_boundary(A, m + 1)).rank
    return cycles_dim - image_rank


# -- boundary matrices ---------------------------------------------------------


def test_dual_numbers_b1_zero_b2_is_2eps():
    for F in (F3, F5):
        A = dual_numbers(F)
        assert boundary_matrix(A, 1).is_zero()
        b2 = boundary_matrix(A, 2)
        two_eps = (2 * A.left_mult_matrix(A.basis_vector(1))) % F.p
        assert np.array_equal(b2.data, two_eps)


def test_dual_numbers_b2_vanishes_in_char_two():
    A = dual_numbers(F2)
    assert boundary_matrix(A, 2).is_zero()


def test_field_algebra_chain_spaces_vanish():
    A = field_algebra(F3)
    for m in range(1, 5):
        assert chain_dim(A, m) == 0
    assert homology(A, 0).dimension == 1
    for m in range(1, 4):
        assert homology(A, m).dimension == 0
        assert cohomology(A, m).dimension == 0


def test_ut2_b1_image_is_commutator_space():
    A = upper_triangular(F2, 2)
    b1 = boundary_matrix(A, 1)
    img = Subspace(F2, A.dim, b1.data.T)
    assert img == commutator_space(A)


def test_b_squared_zero_within_budget():
    for name, A in CORPUS.items():
        top = max_budget_degree(A, 7)
        for m in range(2, top + 1):
            prod = boundary_matrix(A, m - 1) @ boundary_matrix(A, m)
            assert prod.is_zero(), (name, m)


def test_delta_squared_zero_within_budget():
    for name, A in CORPUS.items():
        top = max_budget_degree(A, 6)
        for m in range(0, top - 1):
            prod = coboundary_matrix(A, m + 1) @ coboundary_matrix(A, m)
            assert prod.is_zero(), (name, m)


# -- coboundaries ---------------------------------------------------------------


def test_degree_zero_cocycles_are_center():
    for name in ("dual_f3", "ut2_f2", "m2_f3"):
        A = CORPUS[name]
        ker = row_reduce(coboundary_matrix(A, 0)).kernel
        assert ker == center(A)


def test_dual_f2_delta1_zero_and_hh1_dim_two():
    A = dual_numbers(F2)
    assert coboundary_matrix(A, 1).is_zero()
    assert cohomology(A, 1).dimension == 2


# -- homology dimensions ----------------------------------------------------------


def test_dual_numbers_hh_dims_odd_char():
    for F in (F3, F5):
        A = dual_numbers(F)
        dims = [homology(A, m).dimension for m in range(7)]
        assert dims == [2, 1, 1, 1, 1, 1, 1]


def test_dual_numbers_hh_dims_char_two():
    A = dual_numbers(F2)
    dims = [homology(A, m).dimension for m in range(7)]
    assert dims == [2] * 7


def test_ut2_hh_dims():
    A = upper_triangular(F2, 2)
    dims = [homology(A, m).dimension for m in range(4)]
    assert dims == [2, 0, 0, 0]


def test_degree_zero_identifications():
    for name in ("dual_f3", "ut2_f2", "ut3_f3", "m2_f3"):
        A = CORPUS[name]
        hb = homology(A, 0)
        _, reps, _ = hh0_data(A)
        assert np.array_equal(np.stack(hb.representatives), reps.data)
        cb = cohomology(A, 0)
        assert Subspace(A.field, A.dim, np.stack(cb.representatives)) == center(A)


def test_normalized_matches_full_bar_complex():
    small = [
        CORPUS["dual_f2"],
        CORPUS["dual_f3"],
        CORPUS["ut2_f2"],
        CORPUS["m2_f3"],
        CORPUS["k_f2"],
    ]
    for A in small:
        for m in range(3):
            assert homology(A, m).dimension == full_bar_hh_dim(A, m), (A, m)


def test_symmetric_duality_dimensions():
    for name in SYMMETRIC:
        A = CORPUS[name]
        for m in range(4):
            assert homology(A, m).dimension == cohomology(A, m).dimension, (name, m)


# -- functoriality ----------------------------------------------------------------


def test_induced_chain_map_identity():
    A = dual_numbers(F3)
    for m in range(3):
        M = induced_chain_map(identity_morphism(A), m)
        assert M == Matrix.identity(F3, chain_dim(A, m))


def test_induced_chain_map_not_unital():
    A = dual_numbers(F2)
    theta = AlgebraMorphism(A, A, Matrix.zeros(F2, 2, 2))
    with pytest.raises(NotUnital):
        induced_chain_map(theta, 1)


def test_pi_iota_chain_level_identity():
    for name in ("dual_f3", "ut2_f2"):
        A = CORPUS[name]
        te = trivial_extension(A)
        for m in range(4):
            down = induced_chain_map(te.pi, m)
            up = induced_chain_map(te.iota, m)
            assert down @ up == Matrix.identity(A.field, chain_dim(A, m))


def test_chain_map_commutes_with_boundary():
    for name in ("dual_f3", "ut2_f2"):
        A = CORPUS[name]
        te = trivial_extension(A)
        TA = te.algebra
        top = max_budget_degree(TA, 5)
        for theta, src, tgt in ((te.iota, A, TA), (te.pi, TA, A)):
            for m in range(1, top + 1):
                lhs = boundary_matrix(tgt, m) @ induced_chain_map(theta, m)
                rhs = induced_chain_map(theta, m - 1) @ boundary_matrix(src, m)
                assert lhs == rhs, (name, m)


def test_homology_keeps_no_differential_matrix():
    A = truncated_polynomial(F3, 3)
    for m in range(4):
        homology(A, m)
        cohomology(A, m)
    kept = [key for key in A._cache if key[0] in ("boundary", "coboundary")]
    assert kept == []


def test_iota_sends_eps_cycle_to_ta_tuple():
    A = dual_numbers(F3)
    te = trivial_extension(A)
    TA = te.algebra
    up = induced_chain_map(te.iota, 2)
    # cycle eps (x) eps (x) eps has chain index, in A, of tuple (1, 1, 1)
    # (i_0, i_1, i_2) sits at multi-index (i_0, i_1 - 1, i_2 - 1) of (d, d-1, d-1)
    src = np.zeros(chain_dim(A, 2), dtype=np.int64)
    src[np.ravel_multi_index((1, 0, 0), (A.dim, A.dim - 1, A.dim - 1))] = 1
    img = up @ src
    expect = np.zeros(chain_dim(TA, 2), dtype=np.int64)
    expect[np.ravel_multi_index((1, 0, 0), (TA.dim, TA.dim - 1, TA.dim - 1))] = 1
    assert np.array_equal(img, expect)


def test_hh_of_identity_map():
    A = dual_numbers(F3)
    for m in range(3):
        h = homology(A, m)
        M = hh_of_map(identity_morphism(A), m)
        assert M == Matrix.identity(F3, h.dimension)


def test_hh_pi_after_iota_identity():
    for name in ("dual_f3", "dual_f2", "ut2_f2", "trunc3_f3"):
        A = CORPUS[name]
        te = trivial_extension(A)
        for m in range(4):
            hA = homology(A, m)
            if hA.dimension == 0:
                continue
            hTA = homology(te.algebra, m)
            up = hh_of_map(te.iota, m, source_basis=hA, target_basis=hTA)
            down = hh_of_map(te.pi, m, source_basis=hTA, target_basis=hA)
            assert down @ up == Matrix.identity(A.field, hA.dimension), (name, m)


def test_hh0_of_iota_matches_degree0_route():
    for name in ("dual_f3", "ut2_f2", "m2_f3"):
        A = CORPUS[name]
        te = trivial_extension(A)
        TA = te.algebra
        M = hh_of_map(te.iota, 0)
        _, repsA, _ = hh0_data(A)
        _, repsTA, qmapTA = hh0_data(TA)
        expected = np.stack(
            [qmapTA @ (te.iota.matrix @ repsA.data[j]) for j in range(repsA.rows)],
            axis=1,
        )
        assert np.array_equal(M.data, expected)


def ref_express(hb, v):
    """Coordinates by the former solver: v as a combination of the
    representatives and the boundary basis, via an augmented-identity RREF."""
    cols = list(hb.representatives) + list(hb.boundaries.basis.data)
    n = hb.cycles.ambient_dim
    M = np.stack(cols, axis=1) if cols else np.zeros((n, 0), dtype=np.int64)
    sol = row_reduce(Matrix(hb.cycles.field, M, copy=False)).solve(v)
    return None if sol is None else sol[: hb.dimension]


def test_express_matches_solver_reference():
    rng = random.Random(23)
    for A in (trivial_extension(dual_numbers(F3)).algebra, upper_triangular(F5, 2)):
        q = A.field.q
        for hb in [homology(A, m) for m in range(3)] + [cohomology(A, m) for m in range(3)]:
            Z, n = hb.cycles, hb.cycles.ambient_dim
            for _ in range(5):
                v = Z.lift([rng.randrange(q) for _ in range(Z.dim)])
                assert np.array_equal(hb.express(v), ref_express(hb, v))
            outside = [e for e in np.eye(n, dtype=np.int64) if not Z.contains_vector(e)]
            for e in outside[:3]:
                assert ref_express(hb, e) is None
                with pytest.raises(NotACycle):
                    hb.express(e)


@pytest.mark.parametrize("F", [F2, F3, F4, F9], ids=repr)
def test_block_express_matches_single_rows(F):
    # field_algebra has 0-dimensional chain spaces from degree 1 on
    rng = random.Random(29 * F.q)
    for A in (field_algebra(F), dual_numbers(F), trivial_extension(dual_numbers(F)).algebra):
        hbs = [homology(A, m) for m in range(3)] + [cohomology(A, m) for m in range(2)]
        for hb in hbs:
            Z, n = hb.cycles, hb.cycles.ambient_dim
            for k in (0, 1, 5):
                C = np.array([[rng.randrange(F.q) for _ in range(Z.dim)] for _ in range(k)])
                V = Z.lift(C.reshape(k, Z.dim))
                coords = hb.express(V)
                assert coords.shape == (k, hb.dimension)
                assert coords.tolist() == [hb.express(v).tolist() for v in V]
                outside = [e for e in np.eye(n, dtype=np.int64) if not Z.contains_vector(e)]
                if outside and k:
                    V[-1] = outside[0]
                    with pytest.raises(NotACycle):
                        hb.express(V)


def test_hh_of_map_matches_rep_by_rep():
    # iota and pi between A and TA: rectangular maps, one column per source rep
    for name in ("k_f2", "dual_f2", "dual_f3", "ut2_f3"):
        te = trivial_extension(CORPUS[name])
        for theta in (te.iota, te.pi):
            for m in range(3):
                src, tgt = homology(theta.source, m), homology(theta.target, m)
                chain = induced_chain_map(theta, m)
                cols = [tgt.express(chain @ rep) for rep in src.representatives]
                expect = np.array(cols, dtype=np.int64).reshape(src.dimension, tgt.dimension).T
                M = hh_of_map(theta, m)
                assert M.data.shape == expect.shape
                assert M.data.tolist() == expect.tolist(), (name, m)


# -- cup products -----------------------------------------------------------------


def test_cup_with_unit_cocycle():
    A = dual_numbers(F3)
    one = Cochain.unit(A)
    f = Cochain(A, 1, np.array([[1, 2], [0, 1]])[:1])
    assert cup_product(one, f) == f
    assert cup_product(f, one) == f


def test_cup_degree_zero_is_multiplication():
    A = truncated_polynomial(F3, 3)
    x = Cochain(A, 0, np.array([1, 2, 0]))
    y = Cochain(A, 0, np.array([0, 1, 1]))
    z = cup_product(x, y)
    assert np.array_equal(z.coeffs[0], A.multiply([1, 2, 0], [0, 1, 1]))


def test_cup_square_of_degree_one_generator_char_two():
    A = dual_numbers(F2)
    z = Cochain(A, 1, np.array([[1, 0]]))  # eps-bar maps to 1
    zz = cup_product(z, z)
    assert coboundary_apply(zz).is_zero()
    cls = cohomology(A, 2).express(zz.flat())
    assert cls.any()  # nonzero degree-2 class


def test_cup_power_by_squaring_matches_iterated():
    A = dual_numbers(F2)
    rng = random.Random(6)
    f = Cochain(A, 1, np.array([[rng.randrange(2), rng.randrange(2)]]))
    p4 = cup_power(f, 4)
    it = f
    for _ in range(3):
        it = cup_product(it, f)
    assert p4 == it


def test_leibniz_rule_random_cochains():
    rng = random.Random(41)
    for name in ("dual_f2", "dual_f3", "ut2_f2"):
        A = CORPUS[name]
        d = A.dim
        for _ in range(50):
            mf = rng.randrange(0, 3)
            mg = rng.randrange(0, 3)
            f = Cochain(
                A, mf, np.array([rng.randrange(A.field.q) for _ in range(cochain_dim(A, mf))])
            )
            g = Cochain(
                A, mg, np.array([rng.randrange(A.field.q) for _ in range(cochain_dim(A, mg))])
            )
            lhs = coboundary_apply(cup_product(f, g)).flat()
            t1 = cup_product(coboundary_apply(f), g).flat()
            t2 = cup_product(f, coboundary_apply(g)).flat()
            sign = 1 if mf % 2 == 0 else A.field.neg(1)
            rhs = A.field.vadd(t1, A.field.vmul(sign, t2))
            assert np.array_equal(lhs, rhs), (name, mf, mg)


def test_coboundary_apply_matches_matrix():
    algebras = (
        CORPUS["dual_f3"],
        CORPUS["ut2_f2"],
        dual_numbers(F4),
        truncated_polynomial(F9, 3),
        upper_triangular(F3, 2),
    )
    for A in algebras:
        rng = random.Random(9)
        for m in range(0, 4):
            delta = coboundary_matrix(A, m)
            vec = np.array([rng.randrange(A.field.q) for _ in range(cochain_dim(A, m))])
            f = Cochain(A, m, vec)
            assert np.array_equal(coboundary_apply(f).flat(), delta @ vec)


# Scalar references for the cochain contractions, the differentials and the
# chain maps, written with field scalar operations only.


def ref_pairing_vector(lam, f):
    """w[(i0, J)] = lam(f(J) e_i0)."""
    A = f.algebra
    F, d, c = A.field, A.dim, A.const
    rows = f.coeffs.shape[0]
    w = np.zeros(d * rows, dtype=np.int64)
    for i0 in range(d):
        for J in range(rows):
            acc = 0
            for k in range(d):
                for t in range(d):
                    term = F.mul(int(f.coeffs[J, k]), F.mul(int(c[k, i0, t]), int(lam[t])))
                    acc = F.add(acc, term)
            w[i0 * rows + J] = acc
    return w


def ref_cup_product(f, g):
    """(f cup g)(I, J) = f(I) . g(J)."""
    A = f.algebra
    F, d, c = A.field, A.dim, A.const
    rf, rg = f.coeffs.shape[0], g.coeffs.shape[0]
    out = np.zeros((rf * rg, d), dtype=np.int64)
    for I in range(rf):
        for J in range(rg):
            for a in range(d):
                for b in range(d):
                    s = F.mul(int(f.coeffs[I, a]), int(g.coeffs[J, b]))
                    for k in range(d):
                        out[I * rg + J, k] = F.add(
                            int(out[I * rg + J, k]), F.mul(s, int(c[a, b, k]))
                        )
    return out


def _chain_tuples(d, m):
    """Chain basis tuples (i_0, i_1..i_m), i_1..i_m >= 1, in chain order."""
    for i0, rest in itertools.product(range(d), itertools.product(range(1, d), repeat=m)):
        yield (i0, *rest)


def _chain_index(d, tup):
    idx = tup[0]
    for t in tup[1:]:
        idx = idx * (d - 1) + (t - 1)
    return idx


def _arg_index(d, args):
    idx = 0
    for t in args:
        idx = idx * (d - 1) + (t - 1)
    return idx


def ref_boundary_matrix(A, m):
    """The bar boundary, one chain tuple and one product component at a time."""
    F, d, c = A.field, A.dim, A.const
    out = np.zeros((chain_dim(A, m - 1), chain_dim(A, m)), dtype=np.int64)
    minus_one = F.neg(1)
    for col, tup in enumerate(_chain_tuples(d, m)):
        sign = 1
        for i in range(m):
            prod = c[tup[i], tup[i + 1]]
            lo = 0 if i == 0 else 1  # inner slots drop the unit component
            for t in range(lo, d):
                coeff = int(prod[t])
                if coeff:
                    row = _chain_index(d, tup[:i] + (t,) + tup[i + 2 :])
                    val = coeff if sign == 1 else F.mul(coeff, minus_one)
                    out[row, col] = F.add(int(out[row, col]), val)
            sign = -sign
        prod = c[tup[m], tup[0]]  # cyclic term: (-1)^m (a_m a_0) (x) a_1 ... a_{m-1}
        for t in range(d):
            coeff = int(prod[t])
            if coeff:
                row = _chain_index(d, (t,) + tup[1:m])
                val = coeff if sign == 1 else F.mul(coeff, minus_one)
                out[row, col] = F.add(int(out[row, col]), val)
    return out


def ref_coboundary_matrix(A, m):
    """The coboundary, one basis cochain (J -> e_k) at a time."""
    F, d, c = A.field, A.dim, A.const
    out = np.zeros((cochain_dim(A, m + 1), cochain_dim(A, m)), dtype=np.int64)
    minus_one = F.neg(1)

    def emit(args, valvec, sign, col):
        base = _arg_index(d, args) * d
        for kk in range(d):
            coeff = int(valvec[kk])
            if coeff:
                val = coeff if sign == 1 else F.mul(coeff, minus_one)
                out[base + kk, col] = F.add(int(out[base + kk, col]), val)

    for J in itertools.product(range(1, d), repeat=m):
        jbase = _arg_index(d, J) * d
        for k in range(d):
            col = jbase + k
            for a in range(1, d):
                emit((a, *J), c[a, k], 1, col)  # a . f(args)
            sign = -1
            for i in range(1, m + 1):
                for x in range(1, d):
                    for y in range(1, d):
                        coeff = int(c[x, y, J[i - 1]])
                        if coeff:
                            base = _arg_index(d, J[: i - 1] + (x, y) + J[i:]) * d
                            val = coeff if sign == 1 else F.mul(coeff, minus_one)
                            out[base + k, col] = F.add(int(out[base + k, col]), val)
                sign = -sign
            for b in range(1, d):
                emit((*J, b), c[k, b], sign, col)  # f(args) . b
    return out


def ref_induced_chain_map(theta, m):
    """theta on every slot, the unit component dropped in slots 1..m."""
    A, B = theta.source, theta.target
    F = B.field
    out = np.zeros((chain_dim(B, m), chain_dim(A, m)), dtype=np.int64)
    cols = theta.matrix.data  # theta(e_i) = cols[:, i]
    for col, tup in enumerate(_chain_tuples(A.dim, m)):
        images = [cols[:, t] for t in tup]
        supports = [np.flatnonzero(images[0])] + [
            np.flatnonzero(img[1:]) + 1 for img in images[1:]
        ]
        for combo in itertools.product(*supports):
            coeff = 1
            for slot, t in enumerate(combo):
                coeff = F.mul(coeff, int(images[slot][t]))
            row = _chain_index(B.dim, combo)
            out[row, col] = F.add(int(out[row, col]), coeff)
    return out


def _kernel_algebras():
    for F in (F2, F3, F4, F9):
        yield dual_numbers(F)
        yield truncated_polynomial(F, 3)
        yield upper_triangular(F, 2)


def _random_cochain(A, m, rng):
    size = cochain_dim(A, m)
    return Cochain(A, m, np.array([rng.randrange(A.field.q) for _ in range(size)]))


def test_pairing_vector_matches_scalar_reference():
    rng = random.Random(21)
    for A in _kernel_algebras():
        for m in range(3):
            lam = np.array([rng.randrange(A.field.q) for _ in range(A.dim)])
            f = _random_cochain(A, m, rng)
            assert np.array_equal(pairing_vector(lam, f), ref_pairing_vector(lam, f))


def test_cup_product_matches_scalar_reference():
    rng = random.Random(22)
    for A in _kernel_algebras():
        for m, mp in ((0, 0), (0, 2), (1, 1), (2, 1)):
            f = _random_cochain(A, m, rng)
            g = _random_cochain(A, mp, rng)
            cup = cup_product(f, g)
            assert cup.degree == m + mp
            assert np.array_equal(cup.coeffs, ref_cup_product(f, g))


def _dense_basis(A, seed):
    """A in a dense random basis f_0 = 1, f_1..f_{d-1} with all-nonzero coordinates."""
    F, d = A.field, A.dim
    rng = np.random.default_rng(seed)
    while True:
        P = np.vstack([A.unit(), rng.integers(1, F.q, (d - 1, d))])
        red = row_reduce(Matrix(F, P.T))
        if red.rank == d:
            break
    # a vector with e-coordinates v has f-coordinates v @ Q
    Q = np.stack([red.solve(e) for e in np.eye(d, dtype=np.int64)])
    const = [[F.mat_mul(A.multiply(P[a], P[b]), Q) for b in range(d)] for a in range(d)]
    dense = Algebra(F, A.labels, const)
    assert algebra_validate(dense).ok
    return dense


def _builder_algebras():
    yield from _kernel_algebras()
    yield _dense_basis(truncated_polynomial(F5, 3), 41)
    yield _dense_basis(upper_triangular(F5, 2), 42)


def test_differentials_match_scalar_reference():
    for A in (*_builder_algebras(), trivial_extension(dual_numbers(F3)).algebra):
        for m in range(4):
            if m >= 1:
                want = ref_boundary_matrix(A, m)
                assert np.array_equal(boundary_matrix(A, m).data, want), (A.field, A.dim, m)
            want = ref_coboundary_matrix(A, m)
            assert np.array_equal(coboundary_matrix(A, m).data, want), (A.field, A.dim, m)


def test_chain_maps_match_scalar_reference():
    for A in _builder_algebras():
        te = trivial_extension(A)
        for theta in (te.iota, te.pi, identity_morphism(te.algebra)):
            for m in range(4):
                got = induced_chain_map(theta, m)
                assert np.array_equal(got.data, ref_induced_chain_map(theta, m)), (A.field, m)
        chain0 = induced_chain_map(te.iota, 0)
        assert not np.shares_memory(chain0.data, te.iota.matrix.data)


APPLY_FIELDS = (F2, F3, F5, F4, F9, FiniteField(2**31 - 1))


def _apply_algebras(F):
    yield dual_numbers(F)
    yield truncated_polynomial(F, 3)
    yield upper_triangular(F, 2)
    yield trivial_extension(dual_numbers(F)).algebra


def _random_block(F, k, n, rng):
    return rng.integers(0, F.q, (k, n), dtype=np.int64)


@pytest.mark.parametrize("F", APPLY_FIELDS, ids=repr)
def test_boundary_apply_matches_matrix(F):
    rng = np.random.default_rng(F.q % 1000)
    for A in _apply_algebras(F):
        for m in range(1, 5):
            for k in (0, 3):
                X = _random_block(F, k, chain_dim(A, m), rng)
                got = boundary_apply(A, m, X)
                want = F.mat_mul(X, boundary_matrix(A, m).data.T)
                assert got.shape == (k, chain_dim(A, m - 1))
                assert np.array_equal(got, want), (F, A.dim, m, k)


@pytest.mark.parametrize("F", APPLY_FIELDS, ids=repr)
def test_chain_map_apply_matches_scalar_reference(F):
    rng = np.random.default_rng(F.q % 1000 + 1)
    algebras = list(_apply_algebras(F))
    te = trivial_extension(algebras[0])  # its algebra is the fourth, T(k[eps])
    thetas = [te.iota, te.pi, *(trivial_extension(A).iota for A in algebras[1:3])]
    for theta in thetas + [identity_morphism(A) for A in algebras]:
        A = theta.source
        for m in range(5):
            ref = ref_induced_chain_map(theta, m)
            for k in (0, 3):
                X = _random_block(F, k, chain_dim(A, m), rng)
                got = chain_map_apply(theta, m, X)
                assert got.shape == (k, chain_dim(theta.target, m))
                assert np.array_equal(got, F.mat_mul(X, ref.T)), (F, A.dim, m, k)


def test_apply_operators_reject_bad_blocks():
    A = dual_numbers(F3)
    theta = identity_morphism(A)
    for bad in (np.zeros(chain_dim(A, 2), dtype=np.int64), np.zeros((1, 3), dtype=np.int64)):
        with pytest.raises(DimensionMismatch):
            boundary_apply(A, 2, bad)
        with pytest.raises(DimensionMismatch):
            chain_map_apply(theta, 2, bad)
    with pytest.raises(ValueError):
        boundary_apply(A, 0, np.zeros((1, 2), dtype=np.int64))
    nonunital = AlgebraMorphism(A, A, Matrix.zeros(F3, 2, 2))
    with pytest.raises(NotUnital):
        chain_map_apply(nonunital, 1, np.zeros((1, 2), dtype=np.int64))


# -- pairing ----------------------------------------------------------------------


def lam_of(name):
    res = symmetrizing_form_search(CORPUS[name])
    assert res.status == "found"
    return res.form


def test_pairing_degree_zero_collapse():
    A = dual_numbers(F3)
    lam = lam_of("dual_f3")
    z = Cochain(A, 0, np.array([1, 2]))
    a = np.array([2, 1])
    assert pairing(lam, z, a) == F3.vdot(lam, A.multiply([1, 2], [2, 1]))


def test_pairing_rejects_noncocycle():
    A = upper_triangular(F2, 2)
    f = Cochain(A, 0, np.array([0, 1, 0]))  # e11 is not central
    with pytest.raises(NotACocycle):
        pairing(np.array([0, 0, 1]), f, np.zeros(3, dtype=np.int64))


def test_gram_dual_f2_degree_one_invertible():
    A = dual_numbers(F2)
    lam = lam_of("dual_f2")
    G = gram_matrix(A, lam, 1)
    assert G.rows == 2 and G.cols == 2
    assert row_reduce(G).rank == 2


def test_gram_invertible_for_symmetric_corpus():
    for name in SYMMETRIC:
        A = CORPUS[name]
        lam = lam_of(name)
        for m in range(4):
            h = homology(A, m).dimension
            G = gram_matrix(A, lam, m)
            assert G.rows == G.cols == h
            assert row_reduce(G).rank == h, (name, m)


def test_pairing_descends():
    # cocycle against boundary = 0, coboundary against cycle = 0, exhaustively
    for name in ("dual_f2", "dual_f3", "trunc3_f3"):
        A = CORPUS[name]
        lam = lam_of(name)
        for m in range(1, 4):
            coh = cohomology(A, m)
            hom = homology(A, m)
            bnd = boundary_matrix(A, m + 1)
            for zf in coh.representatives:
                z = Cochain.from_flat(A, m, zf)
                w = pairing_vector(lam, z)
                for col in range(bnd.cols):
                    assert A.field.vdot(w, bnd.data[:, col]) == 0
            delta = coboundary_matrix(A, m - 1)
            for col in range(delta.cols):
                cob = Cochain.from_flat(A, m, delta.data[:, col])
                w = pairing_vector(lam, cob)
                for x in hom.representatives:
                    assert A.field.vdot(w, x) == 0
