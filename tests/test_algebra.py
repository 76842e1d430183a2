import itertools
import random

import numpy as np
import pytest

from kuelsh.algebra import (
    Algebra,
    AlgebraMorphism,
    BilinearForm,
    algebra_from_json,
    algebra_to_json,
    algebra_validate,
    find_unit,
    identity_morphism,
    morphism_validate,
    normalize_unit,
    opposite,
    symmetrizing_form_search,
    tensor_product,
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
from kuelsh.errors import DimensionMismatch, FieldMismatch
from kuelsh import rref
from kuelsh.fieldlin import FiniteField, Matrix, row_reduce

F2 = FiniteField(2)
F3 = FiniteField(3)
F4 = FiniteField(2, 2, [1, 1, 1])
F9 = FiniteField(3, 2, [1, 0, 1])

CORPUS = standard_corpus()


def test_dual_numbers_validate():
    for F in (F2, F3, F4):
        A = dual_numbers(F)
        assert algebra_validate(A).ok


def test_dual_numbers_eps_squared_zero():
    A = dual_numbers(F3)
    eps = A.basis_vector(1)
    assert not A.multiply(eps, eps).any()


def test_unit_multiplication():
    for A in CORPUS.values():
        one = A.unit()
        for i in range(A.dim):
            e = A.basis_vector(i)
            assert np.array_equal(A.multiply(one, e), e)
            assert np.array_equal(A.multiply(e, one), e)


def test_ut2_validates_after_unit_normalization():
    A = upper_triangular(F2, 2)
    assert A.dim == 3
    assert algebra_validate(A).ok
    assert A.labels[0] == "1"


def test_broken_algebra_reported():
    # eps * eps = eps together with a broken unit row
    c = np.zeros((2, 2, 2), dtype=np.int64)
    c[0, 0, 0] = 1
    c[0, 1, 1] = 1
    # missing c[1,0,1]: eps * 1 = 0, so e_0 is not a two-sided unit
    c[1, 1, 1] = 1
    from kuelsh.algebra import Algebra

    rep = algebra_validate(Algebra(F2, ("1", "eps"), c))
    assert not rep.ok
    assert rep.unit_violations


def test_unit_violations_in_basis_order():
    rng = random.Random(3)
    d = 4
    c = np.array([[[rng.randrange(3) for _ in range(d)] for _ in range(d)] for _ in range(d)])
    c[0, 2] = c[2, 0] = np.eye(d, dtype=np.int64)[2]  # e_2 alone is unit-compatible
    A = Algebra(F3, ("a", "b", "c", "d"), c)
    ref = []
    for i in range(d):
        e = A.basis_vector(i)
        if not np.array_equal(A.multiply(A.unit(), e), e):
            ref.append(("left", i))
        if not np.array_equal(A.multiply(e, A.unit()), e):
            ref.append(("right", i))
    assert ("left", 0) in ref and ("right", 3) in ref and ("left", 2) not in ref
    assert algebra_validate(A).unit_violations == ref


def test_validate_reports_nonassociative_triple():
    from kuelsh.algebra import Algebra

    # b*b = c, b*c = b, c*anything = 0 except via unit: (bb)b = cb = 0 but b(bb) = bc = b
    c = np.zeros((3, 3, 3), dtype=np.int64)
    for i in range(3):
        c[0, i, i] = 1
        c[i, 0, i] = 1
    c[1, 1, 2] = 1
    c[1, 2, 1] = 1
    rep = algebra_validate(Algebra(F2, ("1", "b", "c"), c))
    assert not rep.ok
    assert (1, 1, 1) in rep.associativity_violations


# -- exactness at the largest accepted characteristic ---------------------------

P_BIG = 2**31 - 1
F_BIG = FiniteField(P_BIG)


def _poly_constants(tail):
    """k[x]/(x^d - sum_i tail[i] x^i) on 1, x, .., x^(d-1), from Python ints mod p."""
    p, d = P_BIG, len(tail)
    powers = [[int(i == s) for i in range(d)] for s in range(d)]
    for _ in range(d - 1):
        prev = powers[-1]  # x . prev, with x^d replaced by the tail
        powers.append([((prev[i - 1] if i else 0) + prev[-1] * tail[i]) % p for i in range(d)])
    return [[powers[i + j] for j in range(d)] for i in range(d)]


def _py_inverse(M):
    """Inverse of a square matrix mod P_BIG, by Gauss-Jordan on Python ints."""
    p, d = P_BIG, len(M)
    aug = [list(row) + [int(i == j) for j in range(d)] for i, row in enumerate(M)]
    for col in range(d):
        piv = next(r for r in range(col, d) if aug[r][col] % p)
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = pow(aug[col][col], p - 2, p)
        aug[col] = [x * inv % p for x in aug[col]]
        for r in range(d):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [(x - f * y) % p for x, y in zip(aug[r], aug[col])]
    return [row[d:] for row in aug]


def _py_change_basis(const, P):
    """Constants in the basis f_a = sum_i P[a][i] e_i (P invertible mod p)."""
    p, d = P_BIG, len(const)
    Q = _py_inverse(P)
    return [
        [
            [
                sum(
                    P[a][i] * P[b][j] * const[i][j][k] * Q[k][l]
                    for i in range(d)
                    for j in range(d)
                    for k in range(d)
                )
                % p
                for l in range(d)
            ]
            for b in range(d)
        ]
        for a in range(d)
    ]


def _py_assoc_violations(const):
    p, d = P_BIG, len(const)

    def times(u, k):  # u . e_k
        return [sum(u[t] * const[t][k][l] for t in range(d)) % p for l in range(d)]

    def left(i, u):  # e_i . u
        return [sum(u[t] * const[i][t][l] for t in range(d)) % p for l in range(d)]

    return [
        (i, j, k)
        for i in range(d)
        for j in range(d)
        for k in range(d)
        if times(const[i][j], k) != left(i, const[j][k])
    ]


def test_multiply_exact_at_large_prime():
    p = P_BIG
    c = np.zeros((2, 2, 2), dtype=np.int64)
    c[0, 0, 0] = c[0, 1, 1] = c[1, 0, 1] = 1
    c[1, 1, 1] = p - 1  # x^2 = (p-1) x
    A = Algebra(F_BIG, ("1", "x"), c)
    assert A.multiply([0, p - 1], [0, p - 1]).tolist() == [0, p - 1]
    assert A.multiply_basis_left(1, [0, p - 1]).tolist() == [0, 1]
    assert A.multiply_basis_right([0, p - 1], 1).tolist() == [0, 1]
    assert A.left_mult_matrix([0, p - 1]).tolist() == [[0, 0], [p - 1, 1]]


def test_products_and_forms_exact_at_large_prime():
    p = P_BIG
    rng = np.random.default_rng(31)
    # products and forms need no axioms; dense constants make int64 sums wrap
    const = rng.integers(0, p, (3, 3, 3)).tolist()
    A = Algebra(F_BIG, ("1", "x", "y"), const)
    for _ in range(10):
        u = rng.integers(0, p, 3).tolist()
        v = rng.integers(0, p, 3).tolist()
        prod = [
            sum(u[i] * v[j] * const[i][j][k] for i in range(3) for j in range(3)) % p
            for k in range(3)
        ]
        assert A.multiply(u, v).tolist() == prod
        gram = [
            [sum(const[i][j][k] * u[k] for k in range(3)) % p for j in range(3)]
            for i in range(3)
        ]
        assert BilinearForm.from_linear_form(A, u).gram.data.tolist() == gram


def test_validate_exact_at_large_prime():
    p = P_BIG
    labels = ("1", "x", "x2", "x3")
    assert algebra_validate(Algebra(F_BIG, labels, _poly_constants([1, 2, 3, 4]))).ok
    # the same kind of algebra in a dense random basis: associative, with
    # every constant of size ~p, so the int64 sums of four products wrap
    P = np.random.default_rng(32).integers(0, p, (4, 4)).tolist()
    const = _py_change_basis(_poly_constants([p - 2, p - 3, p - 5, p - 7]), P)
    assert not _py_assoc_violations(const)
    assert algebra_validate(Algebra(F_BIG, labels, const)).associativity_violations == []
    const[3][3] = [(x + p - 1) % p for x in const[3][3]]  # bend one product
    want = _py_assoc_violations(const)
    assert want
    assert algebra_validate(Algebra(F_BIG, labels, const)).associativity_violations == want


def test_extension_field_vectors_out_of_range_rejected():
    A = dual_numbers(F4)
    with pytest.raises(FieldMismatch):
        A.multiply([-1, 0], [1, 0])
    with pytest.raises(FieldMismatch):
        A.multiply([7, 0], [1, 0])
    const = np.array(A.const)
    const[1, 1, 1] = 4
    with pytest.raises(FieldMismatch):
        Algebra(F4, A.labels, const)


def test_trivial_extension_is_memoized():
    A = dual_numbers(F3)
    te = trivial_extension(A)
    assert trivial_extension(A) is te
    assert not te.lam.flags.writeable


def test_power_by_squaring():
    A = truncated_polynomial(F3, 3)
    t = A.basis_vector(1)
    assert np.array_equal(A.power(t, 2), A.basis_vector(2))
    assert not A.power(t, 3).any()
    x = np.array([1, 2, 1])
    direct = x
    for _ in range(4):
        direct = A.multiply(direct, x)
    assert np.array_equal(A.power(x, 5), direct)


def test_opposite_of_commutative_is_same():
    A = dual_numbers(F3)
    assert np.array_equal(opposite(A).const, A.const)


def test_opposite_reverses_products():
    A = upper_triangular(F2, 2)
    Aop = opposite(A)
    for i in range(A.dim):
        for j in range(A.dim):
            assert np.array_equal(
                Aop.multiply(A.basis_vector(i), A.basis_vector(j)),
                A.multiply(A.basis_vector(j), A.basis_vector(i)),
            )


def test_tensor_with_ground_field():
    k = field_algebra(F3)
    A = upper_triangular(F3, 2)
    T = tensor_product(k, A)
    assert T.dim == A.dim
    assert np.array_equal(T.const, A.const)


def test_tensor_dual_dual():
    A = dual_numbers(F3)
    T = tensor_product(A, A)
    assert T.dim == 4
    assert algebra_validate(T).ok
    x = T.basis_vector(2)  # eps(x)1
    y = T.basis_vector(1)  # 1(x)eps
    assert not T.multiply(x, x).any()
    assert not T.multiply(y, y).any()
    assert np.array_equal(T.multiply(x, y), T.multiply(y, x))
    assert np.array_equal(T.multiply(x, y), T.basis_vector(3))


def ref_tensor_const(A, B):
    F, da, db = A.field, A.dim, B.dim
    c = np.zeros((da * db,) * 3, dtype=np.int64)
    for i1, j1, i2, j2, k1, k2 in itertools.product(range(da), range(db), repeat=3):
        a, b = int(A.const[i1, i2, k1]), int(B.const[j1, j2, k2])
        c[i1 * db + j1, i2 * db + j2, k1 * db + k2] = F.mul(a, b)
    return c


def test_tensor_product_matches_scalar_reference():
    # non-commutative factors of different dimensions, so every axis matters
    for F in (F2, F3, F4, F9):
        ut2 = upper_triangular(F, 2)
        for A, B in ((ut2, dual_numbers(F)), (truncated_polynomial(F, 3), ut2)):
            assert tensor_product(A, B).const.tolist() == ref_tensor_const(A, B).tolist()


@pytest.mark.parametrize("F", [F2, F3, F4, F9], ids=repr)
def test_block_products_match_single_rows(F):
    rng = random.Random(17 * F.q)
    for A in (
        trivial_extension(upper_triangular(F, 2)).algebra,
        truncated_polynomial(F, 3),
        field_algebra(F),
    ):
        d = A.dim
        for k in (0, 1, 6):
            X, Y = (
                np.array([[rng.randrange(F.q) for _ in range(d)] for _ in range(k)]).reshape(k, d)
                for _ in range(2)
            )
            prod = A.multiply(X, Y)
            assert prod.shape == (k, d)
            assert prod.tolist() == [A.multiply(x, y).tolist() for x, y in zip(X, Y)]
            for a, b in ((X, Y[:-1]), (X[:-1], Y), (X, A.unit())):
                if a.shape != b.shape:
                    with pytest.raises(DimensionMismatch):
                        A.multiply(a, b)
            for e in (1, 2, F.p, 5):
                pw = A.power(X, e)
                assert pw.shape == (k, d)
                assert pw.tolist() == [A.power(x, e).tolist() for x in X]


def test_tensor_corpus_pairs_validate():
    small = [CORPUS["dual_f2"], CORPUS["ut2_f2"], CORPUS["k_f2"]]
    for A in small:
        for B in small:
            T = tensor_product(A, B)
            assert T.dim == A.dim * B.dim
            assert algebra_validate(T).ok


# -- trivial extension -------------------------------------------------------


def test_trivial_extension_dual_numbers_relations():
    A = dual_numbers(F3)
    te = trivial_extension(A)
    TA = te.algebra
    assert TA.dim == 4
    assert algebra_validate(TA).ok
    # basis: 1, eps-hat, sigma = eps*, delta = 1*
    eps_hat = TA.basis_vector(1)
    sigma = TA.basis_vector(2)
    delta = TA.basis_vector(3)
    assert not TA.multiply(eps_hat, eps_hat).any()
    assert not TA.multiply(delta, delta).any()
    assert np.array_equal(TA.multiply(eps_hat, delta), sigma)
    assert np.array_equal(TA.multiply(delta, eps_hat), sigma)


def test_trivial_extension_of_field_is_dual_numbers():
    te = trivial_extension(field_algebra(F2))
    assert te.algebra.dim == 2
    assert np.array_equal(te.algebra.const, dual_numbers(F2).const)


def test_trivial_extension_form_properties():
    for name in ("dual_f3", "ut2_f2", "ut3_f3", "m2_f3", "k_f2"):
        A = CORPUS[name]
        te = trivial_extension(A)
        form = te.form
        assert form.is_symmetric()
        assert form.is_nondegenerate()
        assert form.is_associative(te.algebra)
        d = A.dim
        expect = np.zeros((2 * d, 2 * d), dtype=np.int64)
        expect[:d, d:] = np.eye(d, dtype=np.int64)
        expect[d:, :d] = np.eye(d, dtype=np.int64)
        assert np.array_equal(form.gram.data, expect)


def test_trivial_extension_dual_part_square_zero():
    for name in ("dual_f3", "ut2_f3", "m2_f3"):
        A = CORPUS[name]
        TA = trivial_extension(A).algebra
        d = A.dim
        for i in range(d, 2 * d):
            for j in range(d, 2 * d):
                prod = TA.multiply(TA.basis_vector(i), TA.basis_vector(j))
                assert not prod.any()


def test_iota_pi_are_morphisms_splitting():
    for A in CORPUS.values():
        te = trivial_extension(A)
        assert morphism_validate(te.iota)
        assert morphism_validate(te.pi)
        comp = te.pi.compose(te.iota)
        assert comp.matrix == Matrix.identity(A.field, A.dim)


def test_trivial_extension_ut2_gram_invertible():
    te = trivial_extension(upper_triangular(F2, 2))
    assert te.algebra.dim == 6
    assert row_reduce(te.form.gram).rank == 6


# -- symmetrizing forms -------------------------------------------------------


def test_form_search_dual_numbers():
    res = symmetrizing_form_search(dual_numbers(F3))
    assert res.status == "found"
    assert np.array_equal(res.form, np.array([0, 1]))
    form = BilinearForm.from_linear_form(dual_numbers(F3), res.form)
    assert np.array_equal(form.gram.data, np.array([[0, 1], [1, 0]]))


def test_form_search_ut2_definitely_none():
    res = symmetrizing_form_search(upper_triangular(F2, 2))
    assert res.status == "none"


def test_form_search_trivial_extension_found():
    te = trivial_extension(upper_triangular(F2, 2))
    res = symmetrizing_form_search(te.algebra)
    assert res.status == "found"
    form = BilinearForm.from_linear_form(te.algebra, res.form)
    assert form.is_symmetric() and form.is_nondegenerate()
    assert form.is_associative(te.algebra)


def test_form_search_m2():
    res = symmetrizing_form_search(CORPUS["m2_f3"])
    assert res.status == "found"


def test_form_search_samples_past_the_exhaustive_bound():
    # over F_{2^31-1} every solution space of dimension s >= 1 has q^s > 2^20
    # candidates, so the search samples; with no hit it cannot say "none"
    F = FiniteField(2**31 - 1)
    for A, status in [
        (dual_numbers(F), "found"),
        (truncated_polynomial(F, 3), "found"),
        (upper_triangular(F, 2), "unknown"),
    ]:
        res = symmetrizing_form_search(A)
        assert res.status == status
        if status == "found":
            form = BilinearForm.from_linear_form(A, res.form)
            assert form.is_symmetric() and form.is_nondegenerate()
            assert np.array_equal(symmetrizing_form_search(A).form, res.form)
        else:
            assert res.form is None


def test_found_forms_are_symmetrizing():
    for name in ("dual_f2", "dual_f3", "dual_f5", "trunc3_f3", "m2_f3", "k_f2"):
        A = CORPUS[name]
        res = symmetrizing_form_search(A)
        assert res.status == "found", name
        lam = res.form
        for i in range(A.dim):
            for j in range(A.dim):
                ab = A.multiply(A.basis_vector(i), A.basis_vector(j))
                ba = A.multiply(A.basis_vector(j), A.basis_vector(i))
                assert A.field.vdot(lam, ab) == A.field.vdot(lam, ba)


# -- morphisms ----------------------------------------------------------------


def test_identity_morphism_validates():
    A = dual_numbers(F2)
    assert morphism_validate(identity_morphism(A))


def test_zero_map_not_unital():
    A = dual_numbers(F2)
    theta = AlgebraMorphism(A, A, Matrix.zeros(F2, 2, 2))
    assert not morphism_validate(theta)


def test_unital_maps_checked_on_products():
    for F in (F2, F3, F4):
        A = dual_numbers(F)
        # eps -> 1 + eps keeps the unit but not eps^2 = 0
        assert not morphism_validate(AlgebraMorphism(A, A, Matrix(F, [[1, 1], [0, 1]])))
        # eps -> c eps is an automorphism for every nonzero c
        for c in range(1, F.q):
            assert morphism_validate(AlgebraMorphism(A, A, Matrix(F, [[1, 0], [0, c]])))


def test_is_associative_matches_triple_loop():
    rng = random.Random(9)
    seen = set()
    for A in (upper_triangular(F3, 2), dual_numbers(F4), trivial_extension(dual_numbers(F2)).algebra):
        F, d = A.field, A.dim
        lams = [[rng.randrange(F.q) for _ in range(d)] for _ in range(3)]
        grams = [[[rng.randrange(F.q) for _ in range(d)] for _ in range(d)] for _ in range(3)]
        forms = [BilinearForm.from_linear_form(A, lam) for lam in lams]
        forms += [BilinearForm(F, g) for g in grams]
        for form in forms:
            e = A.basis_vector
            expect = all(
                form.pairing(A.multiply(e(i), e(j)), e(k)) == form.pairing(e(i), A.multiply(e(j), e(k)))
                for i, j, k in itertools.product(range(d), repeat=3)
            )
            assert form.is_associative(A) == expect
            seen.add(expect)
    assert seen == {True, False}


# -- JSON round trip ----------------------------------------------------------


def test_json_round_trip():
    for A in CORPUS.values():
        doc = algebra_to_json(A)
        B = algebra_from_json(doc)
        assert B.field == A.field
        assert B.labels == A.labels
        assert np.array_equal(B.const, A.const)


def test_json_round_trip_extension_field():
    A = dual_numbers(F4)
    doc = algebra_to_json(A)
    assert doc["field"]["modulus"] == [1, 1, 1]
    B = algebra_from_json(doc)
    assert B.field == F4
    assert np.array_equal(B.const, A.const)


def test_json_malformed_rejected():
    with pytest.raises(ValueError):
        algebra_from_json({"dim": 2})
    with pytest.raises(ValueError):
        algebra_from_json({"field": {"p": 2}, "dim": 2, "basis": ["1"], "structure_constants": []})


# -- unit normalization -------------------------------------------------------


def test_normalize_unit_rejects_unitless():
    import numpy as np

    c = np.zeros((1, 1, 1), dtype=np.int64)  # x*x = 0 has no unit
    from kuelsh.errors import KuelshError

    with pytest.raises(KuelshError):
        normalize_unit(F2, ("x",), c)


def ref_completion(F, u):
    """The greedy completion of {u} to a basis by elimination: the pivot
    columns of [u | I] past the first name the e_j kept."""
    d = len(u)
    aug = np.hstack([u[:, None], np.eye(d, dtype=np.int64)])
    return [j - 1 for j in row_reduce(Matrix(F, aug)).pivots[1:]]


def _rebased(A, P):
    """Structure constants of A in the basis f_a = sum_b P[a, b] e_b."""
    F, d = A.field, A.dim
    to_new = row_reduce(Matrix(F, P.T)).solve(np.eye(d, dtype=np.int64))
    prods = A.multiply(np.repeat(P, d, axis=0), np.tile(P, (d, 1)))
    return F.mat_mul(prods, to_new).reshape(d, d, d)


@pytest.mark.parametrize("F", [F2, F3, FiniteField(5), F4, F9, F_BIG], ids=repr)
def test_unit_completion_matches_elimination_route(F):
    # normalize_unit keeps every e_j but the last one u_j != 0; the kept
    # labels are those the pivots of [u | I] name
    rng = random.Random(F.q)
    seen = 0
    for A in (dual_numbers(F), truncated_polynomial(F, 3), upper_triangular(F, 2), full_matrix_algebra(F, 2)):
        d = A.dim
        for _ in range(8):
            P = np.array([[rng.randrange(F.q) for _ in range(d)] for _ in range(d)], dtype=np.int64)
            if row_reduce(Matrix(F, P)).rank < d:
                continue
            const = _rebased(A, P)
            u = find_unit(F, const)
            if u[0] == 1 and not u[1:].any():
                continue
            labels = [f"f{a}" for a in range(d)]
            B = normalize_unit(F, labels, const)
            assert B.labels == ("1", *(labels[j] for j in ref_completion(F, u)))
            assert algebra_validate(B).ok and find_unit(F, B.const).tolist() == [1] + [0] * (d - 1)
            seen += 1
    assert seen >= 12


def test_normalize_unit_makes_one_elimination_per_answer(monkeypatch):
    # building UT2 over F3 normalizes the unit e11 + e22: one elimination
    # finds it, one inverts the basis change, and the completion needs none
    calls = []
    real = rref._echelon

    def spy(F, i, j, v, shape, right=False):
        if shape[0] * shape[1]:  # a zero-size block needs no elimination
            calls.append(shape)
        return real(F, i, j, v, shape, right)

    monkeypatch.setattr(rref, "_echelon", spy)
    A = upper_triangular(F3, 2)
    assert len(calls) == 2
    assert A.labels == ("1", "e11", "e12")


def test_normalized_matrix_algebras_validate():
    for alg in (upper_triangular(F3, 3), full_matrix_algebra(F3, 2)):
        assert algebra_validate(alg).ok
        assert alg.labels[0] == "1"


def test_m2_has_four_dimensions_and_trace_form():
    A = full_matrix_algebra(F3, 2)
    assert A.dim == 4
    res = symmetrizing_form_search(A)
    assert res.status == "found"
    form = BilinearForm.from_linear_form(A, res.form)
    assert form.is_nondegenerate() and form.is_symmetric()
