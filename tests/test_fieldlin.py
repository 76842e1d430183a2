import contextlib
import functools
import io
import itertools
import os
import random
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kuelsh import rref
from kuelsh.algebra import BilinearForm, trivial_extension
from kuelsh.catalog import dual_numbers, truncated_polynomial
from kuelsh.errors import (
    AmbientMismatch,
    DimensionMismatch,
    FieldMismatch,
    NonPrimeCharacteristic,
    NotASubspace,
    ReducibleModulus,
)
from kuelsh.fieldlin import (
    FiniteField,
    Matrix,
    SemilinearMap,
    Subspace,
    preimage,
    row_reduce,
)
from kuelsh.rref import _elimination_dtype, _rref_generic, _rref_gf2, _rref_prime, _rref_rows
from kuelsh.degree0 import ppower_on_HH0
from kuelsh.hochschild import Cochain, cohomology, cup_power, homology, pairing

F2 = FiniteField(2)
F3 = FiniteField(3)
F4 = FiniteField(2, 2, [1, 1, 1])
F5 = FiniteField(5)
F7 = FiniteField(7)
F8 = FiniteField(2, 3, [1, 1, 0, 1])  # x^3 + x + 1
F9 = FiniteField(3, 2, [1, 0, 1])  # x^2 + 1, irreducible over F_3


def rand_matrix(field, rows, cols, rng):
    data = [[rng.randrange(field.q) for _ in range(cols)] for _ in range(rows)]
    return Matrix(field, data)


# -- field construction ----------------------------------------------------


def test_prime_fields():
    assert (F2.p, F2.r, F2.q) == (2, 1, 2)
    assert (F3.p, F3.r, F3.q) == (3, 1, 3)


def test_nonprime_rejected():
    with pytest.raises(NonPrimeCharacteristic):
        FiniteField(6)


def test_f4_modulus_has_no_roots():
    # irreducibility oracle for degree 2: exhaustive root check over F_2
    for x in range(2):
        assert (x * x + x + 1) % 2 != 0
    assert F4.q == 4


def test_reducible_modulus_rejected():
    with pytest.raises(ReducibleModulus):
        FiniteField(2, 2, [0, 1, 1])  # x^2 + x = x(x+1)
    with pytest.raises(ReducibleModulus):
        FiniteField(3, 2, [2, 0, 1])  # x^2 + 2 = x^2 - 1 has root 1


def ref_is_irreducible(f, p):
    """Brute-force factor search: the monic f (constant term first) has no
    monic factor over F_p of degree 1 .. deg(f) // 2."""
    r = len(f) - 1
    for deg in range(1, r // 2 + 1):
        for low in itertools.product(range(p), repeat=deg):
            g, rem = list(low) + [1], list(f)
            for k in range(r, deg - 1, -1):  # subtract rem[k] x^(k - deg) g
                c = rem[k]
                for t, gt in enumerate(g):
                    rem[k - deg + t] = (rem[k - deg + t] - c * gt) % p
            if not any(rem[:deg]):
                return False
    return True


# (p, r, number of monic irreducibles of degree r over F_p, by Gauss's formula)
IRREDUCIBLE_COUNTS = [
    (2, 2, 1), (2, 3, 2), (2, 4, 3), (2, 5, 6), (2, 6, 9),
    (3, 2, 3), (3, 3, 8), (3, 4, 18),
    (5, 2, 10), (5, 3, 40),
    (7, 2, 21),
]


@pytest.mark.parametrize("p, r, count", IRREDUCIBLE_COUNTS)
def test_modulus_accepted_iff_irreducible(p, r, count):
    accepted = 0
    for low in itertools.product(range(p), repeat=r):
        f = list(low) + [1]
        if ref_is_irreducible(f, p):
            assert FiniteField(p, r, f).modulus == tuple(f)
            accepted += 1
        else:
            with pytest.raises(ReducibleModulus):
                FiniteField(p, r, f)
    assert accepted == count


def test_field_arithmetic_axioms():
    for F in (F2, F3, F4, F9):
        for a in F.elements():
            assert F.add(a, 0) == a
            assert F.mul(a, 1) == a
            assert F.add(a, F.neg(a)) == 0
            if a:
                assert F.mul(a, F.inv(a)) == 1
        for a in F.elements():
            for b in F.elements():
                assert F.add(a, b) == F.add(b, a)
                assert F.mul(a, b) == F.mul(b, a)


def test_f4_generator_square():
    omega = 2  # digits (0, 1)
    assert F4.mul(omega, omega) == 3  # omega^2 = omega + 1


@pytest.mark.parametrize("F", [F5, F4, F9], ids=repr)
def test_power_edge_cases(F):
    for a in F.elements():
        assert F.pow(a, 0) == 1
        if a:
            for e in range(1, 2 * F.q):
                assert F.pow(a, -e) == F.pow(F.inv(a), e)
    A = truncated_polynomial(F, 3)
    with pytest.raises(ValueError):
        A.power(A.basis_vector(1), 0)
    f = Cochain(A, 1, np.ones((2, 3), dtype=np.int64))
    with pytest.raises(ValueError):
        cup_power(f, 0)
    assert cup_power(f, 1) == f
    # mu^n of the p-power map is mu composed with itself n times
    mu = ppower_on_HH0(A, 1)
    loop = mu
    for n in range(2, 5):
        loop = mu.compose(loop)
        assert ppower_on_HH0(A, n) == loop


# -- frobenius -------------------------------------------------------------


def test_frobenius_identity_on_prime_field():
    for x in F2.elements():
        for s in (-3, -1, 0, 1, 5):
            assert F2.frobenius(x, s) == x


def test_frobenius_f4():
    omega = 2
    assert F4.frobenius(omega, 1) == F4.mul(omega, omega) == 3
    assert F4.frobenius(omega, -1) == 3  # phi^{-1} = phi when r = 2


def test_frobenius_inverse_exhaustive():
    for F in (F4, F9):
        for x in F.elements():
            for s in range(-3, 4):
                assert F.frobenius(F.frobenius(x, s), -s) == x


def test_scalar_serialization():
    assert F3.encode_scalar(2) == 2
    assert F4.encode_scalar(3) == [1, 1]
    assert F4.decode_scalar([1, 1]) == 3
    assert F9.decode_scalar(F9.encode_scalar(7)) == 7


# -- row reduction ---------------------------------------------------------


def test_rref_identity():
    red = row_reduce(Matrix.identity(F3, 4))
    assert red.rank == 4
    assert red.kernel.dim == 0


def test_rref_zero():
    red = row_reduce(Matrix.zeros(F3, 3, 3))
    assert red.rank == 0
    assert red.kernel.dim == 3


def test_rref_f2_rank_one():
    M = Matrix(F2, [[1, 1], [1, 1]])
    red = row_reduce(M)
    # oracle: enumerate all 4 vectors of F_2^2
    kernel_vectors = [
        v
        for v in itertools.product(range(2), repeat=2)
        if not (M @ np.array(v)).any()
    ]
    assert red.rank == 1
    assert sorted(kernel_vectors) == [(0, 0), (1, 1)]
    assert red.kernel.dim == 1
    assert red.kernel.contains_vector([1, 1])


def test_rank_nullity_and_solve_random():
    rng = random.Random(71)
    for F in (F2, F3, F4, F5):
        for _ in range(200):
            m, n = rng.randrange(1, 6), rng.randrange(1, 6)
            M = rand_matrix(F, m, n, rng)
            red = row_reduce(M)
            assert red.rank + red.kernel.dim == n
            x = np.array([rng.randrange(F.q) for _ in range(n)])
            b = M @ x
            sol = red.solve(b)
            assert sol is not None
            assert np.array_equal(M @ sol, b)


def test_solve_reports_unsolvable():
    M = Matrix(F3, [[1, 0], [0, 0]])
    assert row_reduce(M).solve([0, 1]) is None
    with pytest.raises(DimensionMismatch):
        row_reduce(M).solve([1, 2, 3])


def test_rref_idempotent():
    rng = random.Random(5)
    for F in (F2, F3, F4, F5):
        for _ in range(25):
            M = rand_matrix(F, rng.randrange(1, 5), rng.randrange(1, 5), rng)
            R = row_reduce(M).rref
            assert row_reduce(R).rref == R


def test_gf2_packed_path_matches_generic():
    rng = random.Random(13)
    for _ in range(50):
        m, n = rng.randrange(1, 8), rng.randrange(1, 8)
        data = [[rng.randrange(2) for _ in range(n)] for _ in range(m)]
        red2 = row_reduce(Matrix(F2, data))
        # the same matrix over F_3 ranks at least as high, and mod-2 pivots agree
        # with a brute-force rank computed by vector enumeration
        span = set()
        for coeffs in itertools.product(range(2), repeat=m):
            v = tuple(np.array(coeffs) @ np.array(data) % 2)
            span.add(v)
        assert 2**red2.rank == len(span)


# -- subspaces ------------------------------------------------------------


def test_subspace_equal_case():
    V = Subspace(F3, 3, [[1, 0, 2], [0, 1, 1]])
    W = Subspace(F3, 3, [[1, 1, 0], [1, 2, 1]])  # same row space
    assert V == W
    assert (V & W) == V
    assert V.quotient_basis(W).rows == 0


def test_quotient_of_full_by_zero():
    V = Subspace.full(F3, 3)
    W = Subspace(F3, 3)
    Q = V.quotient_basis(W)
    assert Q == Matrix.identity(F3, 3)


def test_quotient_dim_f2_cube():
    V = Subspace(F2, 3, [[1, 0, 0], [0, 1, 0]])
    W = Subspace(F2, 3, [[1, 1, 0]])
    Q = V.quotient_basis(W)
    assert Q.rows == 1
    # oracle: enumerate cosets of W inside V
    vecs = [tuple((np.array(a) * 1 + 0) % 2) for a in V.basis.data]
    elems = set()
    for c in itertools.product(range(2), repeat=V.dim):
        elems.add(tuple(np.array(c) @ V.basis.data % 2))
    cosets = {tuple(W.reduce(np.array(v))) for v in elems}
    assert len(cosets) == 2  # quotient of dim 1 over F_2


def test_sum_intersection_dimension_formula():
    rng = random.Random(99)
    for F in (F2, F3, F4):
        for _ in range(40):
            n = rng.randrange(1, 6)
            V = row_reduce(rand_matrix(F, rng.randrange(1, 4), n, rng)).kernel
            W = row_reduce(rand_matrix(F, rng.randrange(1, 4), n, rng)).kernel
            S = V + W
            I = V & W
            assert S.dim + I.dim == V.dim + W.dim
            assert S.contains(V) and S.contains(W)
            assert V.contains(I) and W.contains(I)


def test_quotient_requires_containment():
    V = Subspace(F2, 3, [[1, 0, 0]])
    W = Subspace(F2, 3, [[0, 1, 0]])
    with pytest.raises(NotASubspace):
        V.quotient_basis(W)


def test_quotient_map_roundtrip():
    full = Subspace.full(F3, 4)
    W = Subspace(F3, 4, [[1, 2, 0, 1]])
    qmap, reps = full.quotient_map(W)
    assert qmap.rows == 3 and qmap.cols == 4
    # the reps map to the standard coordinates
    for i, rep in enumerate(reps.data):
        coords = qmap @ rep
        expected = np.zeros(3, dtype=np.int64)
        expected[i] = 1
        assert np.array_equal(coords, expected)
    # vectors in W map to zero
    assert not (qmap @ W.basis.data[0]).any()


# -- preimage --------------------------------------------------------------


def test_preimage_full_target():
    M = Matrix(F3, [[1, 2], [0, 1]])
    assert preimage(M, Subspace.full(F3, 2)).dim == 2


def test_preimage_zero_target_is_kernel():
    M = Matrix(F3, [[1, 0], [1, 0]])
    P = preimage(M, Subspace(F3, 2))
    assert P == row_reduce(M).kernel


def test_preimage_diag_example():
    # M = diag(1, 0) over F_3, W = span{e1}: every vector maps into W
    M = Matrix(F3, [[1, 0], [0, 0]])
    W = Subspace(F3, 2, [[1, 0]])
    P = preimage(M, W)
    assert P.dim == 2
    # oracle: enumerate all 9 vectors
    for v in itertools.product(range(3), repeat=2):
        img = M @ np.array(v)
        assert W.contains_vector(img)


# -- semilinear maps -------------------------------------------------------


def test_semilinear_compose_identity():
    rng = random.Random(3)
    M = SemilinearMap(rand_matrix(F4, 3, 3, rng), twist=1)
    I = SemilinearMap(Matrix.identity(F4, 3), twist=0)
    assert M.compose(I) == M
    assert I.compose(M).matrix == M.matrix


def test_semilinear_prime_field_kernel_is_linear_kernel():
    M = Matrix(F3, [[1, 1, 0], [0, 0, 0]])
    assert SemilinearMap(M, twist=1).kernel() == row_reduce(M).kernel


def test_f4_double_frobenius_is_identity():
    f = SemilinearMap(Matrix.identity(F4, 2), twist=1)
    ff = f.compose(f)
    assert ff.twist == 0
    for v in itertools.product(range(4), repeat=2):
        assert np.array_equal(ff.apply(np.array(v)), np.array(v))
        assert np.array_equal(f.apply(f.apply(np.array(v))), np.array(v))


def test_semilinear_law_random():
    rng = random.Random(17)
    for F in (F4, F9):
        for _ in range(40):
            n = rng.randrange(1, 4)
            s = rng.randrange(0, F.r)
            f = SemilinearMap(rand_matrix(F, n, n, rng), twist=s)
            u = np.array([rng.randrange(F.q) for _ in range(n)])
            v = np.array([rng.randrange(F.q) for _ in range(n)])
            c = rng.randrange(F.q)
            lhs = f.apply(F.vadd(u, F.vmul(c, v)))
            rhs = F.vadd(f.apply(u), F.vmul(F.frobenius(c, s), f.apply(v)))
            assert np.array_equal(lhs, rhs)


def test_semilinear_kernel_twisted():
    # over F_4 with twist 1: kernel of (M, 1) is phi^{-1} of kernel of M
    M = Matrix(F4, [[1, 2]])  # kernel of M spanned by (2, 1): x + 2y = 0
    ker = SemilinearMap(M, twist=1).kernel()
    for coeffs in itertools.product(range(4), repeat=ker.dim):
        v = ker.lift(np.array(coeffs))
        assert not SemilinearMap(M, twist=1).apply(v).any()
    assert ker.dim == 1


def test_semilinear_compose_dimension_mismatch():
    f = SemilinearMap(Matrix.zeros(F3, 2, 3), twist=0)
    g = SemilinearMap(Matrix.zeros(F3, 2, 3), twist=0)
    with pytest.raises(DimensionMismatch):
        f.compose(g)


def test_matrix_matmul_ext_field():
    rng = random.Random(8)
    shapes = [(3, 4, 2), (1, 7, 5), (6, 1, 1), (0, 3, 2), (2, 0, 3)]
    for F, (m, k, n) in itertools.product((F4, F8, F9), shapes):
        A = Matrix(F, np.array([rng.randrange(F.q) for _ in range(m * k)]).reshape(m, k))
        B = Matrix(F, np.array([rng.randrange(F.q) for _ in range(k * n)]).reshape(k, n))
        C = A @ B
        assert C.data.shape == (m, n)
        for i in range(m):
            for j in range(n):
                acc = 0
                for t in range(k):
                    acc = F.add(acc, F.mul(int(A.data[i, t]), int(B.data[t, j])))
                assert C.data[i, j] == acc


# -- extension fields against a pure-int reference ----------------------------

F343 = FiniteField(7, 3, [5, 0, 0, 1])  # x^3 + 5: 2 is not a cube mod 7
F512 = FiniteField(2, 9, [1, 0, 0, 0, 1, 0, 0, 0, 0, 1])  # x^9 + x^4 + 1
REF_FIELDS = (F4, F8, F9, F343, F512)


class RefField:
    """F_{p^r} in Python ints, independent of the field's tables: an element
    is its digit list, the coefficients of a polynomial of degree < r; a
    product is the convolution of two lists, reduced from the top term down
    by x^r = x^r - modulus."""

    def __init__(self, F):
        self.p, self.r, self.q = F.p, F.r, F.q
        self.powers = [F.p**i for i in range(F.r)]
        self.digits = [[a // w % F.p for w in self.powers] for a in range(F.q)]
        self.rule = [(t, -c) for t, c in enumerate(F.modulus[:-1]) if c]

    def index(self, digits):
        return sum(c % self.p * w for c, w in zip(digits, self.powers))

    def add(self, a, b):
        return self.index([x + y for x, y in zip(self.digits[a], self.digits[b])])

    def neg(self, a):
        return self.index([-x for x in self.digits[a]])

    def mul(self, a, b):
        r = self.r
        conv = [0] * (2 * r - 1)
        for i, x in enumerate(self.digits[a]):
            if x:
                for j, y in enumerate(self.digits[b]):
                    conv[i + j] += x * y
        for k in range(2 * r - 2, r - 1, -1):
            for t, c in self.rule:
                conv[k - r + t] += c * conv[k]
        return self.index(conv[:r])

    def pow(self, a, e):
        out = 1
        for bit in bin(e)[2:]:
            out = self.mul(out, out)
            if bit == "1":
                out = self.mul(out, a)
        return out


@functools.cache
def ref_field(F):
    return RefField(F)


@functools.cache
def ref_tables(F):
    """The reference's add, neg, mul, inv and Frobenius tables of F."""
    R, q = ref_field(F), F.q
    add = np.array([[R.add(a, b) for b in range(q)] for a in range(q)])
    mul = np.zeros((q, q), dtype=np.int64)
    for a in range(q):
        for b in range(a, q):  # the convolution is symmetric in a and b
            mul[a, b] = mul[b, a] = R.mul(a, b)
    neg = np.array([R.neg(a) for a in range(q)])
    inv = np.array([R.pow(a, q - 2) for a in range(q)])  # a^(q-2); 0 for a = 0
    frob = np.array([[R.pow(a, F.p**s) for a in range(q)] for s in range(F.r)])
    return add, neg, mul, inv, frob


@pytest.mark.parametrize("F", REF_FIELDS, ids=repr)
def test_tables_match_pure_int_reference(F):
    add, neg, mul, inv, frob = ref_tables(F)
    want = {"_ADD": add, "_SUB": add[:, neg], "_NEG": neg, "_MUL": mul, "_INV": inv, "_FROB": frob}
    for name, table in want.items():
        assert np.array_equal(getattr(F, name), table), name


@pytest.mark.parametrize("F", REF_FIELDS, ids=repr)
def test_scalar_methods_match_pure_int_reference(F):
    add, neg, mul, inv, frob = ref_tables(F)
    q, r = F.q, F.r
    for a in range(q):
        assert F.neg(a) == neg[a]
        if a:
            assert F.inv(a) == inv[a]
        assert F.pow(a, F.p) == frob[1, a]
        for s in range(-r, r + 1):
            assert F.frobenius(a, s) == frob[s % r, a]
        assert F.encode_scalar(a) == ref_field(F).digits[a]
        assert F.decode_scalar(F.encode_scalar(a)) == a
        for b in range(q):
            assert (F.add(a, b), F.sub(a, b), F.mul(a, b)) == (add[a, b], add[a, neg[b]], mul[a, b])


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_mat_mul_matches_pure_int_reference(data):
    # test_matrix_matmul_ext_field checks mat_mul against F.mul, and both
    # come from the digit-plane fold; this checks both against the reference
    F = data.draw(st.sampled_from(REF_FIELDS), label="field")
    m, k, n = data.draw(st.tuples(*[st.integers(0, 5)] * 3), label="shape")
    entries = st.lists(st.integers(0, F.q - 1), min_size=k * (m + n), max_size=k * (m + n))
    flat = np.array(data.draw(entries, label="entries"), dtype=np.int64)
    a, b = flat[: m * k].reshape(m, k), flat[m * k :].reshape(k, n)
    R = ref_field(F)
    want = [[0] * n for _ in range(m)]
    for i, j, t in itertools.product(range(m), range(n), range(k)):
        want[i][j] = R.add(want[i][j], R.mul(int(a[i, t]), int(b[t, j])))
    assert F.mat_mul(a, b).tolist() == want
    if m and n:
        assert F.vdot(a[0], b[:, 0]) == want[0][0]


# -- elimination kernels against a pure-python reference -------------------


def ref_rref(F, rows, n):
    """Gauss-Jordan on python lists with the field's scalar operations (plain
    mod-p integer arithmetic for prime fields).  Returns the full m x n
    reduced matrix and the pivot columns."""
    mul = functools.lru_cache(maxsize=None)(F.mul)
    sub = functools.lru_cache(maxsize=None)(F.sub)
    R = [[int(x) for x in r] for r in rows]
    pivots = []
    row = 0
    for col in range(n):
        pr = next((i for i in range(row, len(R)) if R[i][col]), None)
        if pr is None:
            continue
        R[row], R[pr] = R[pr], R[row]
        inv = F.inv(R[row][col])
        R[row] = [mul(inv, x) for x in R[row]]
        for i, r in enumerate(R):
            c = r[col]
            if i != row and c:
                R[i] = [sub(x, mul(c, y)) for x, y in zip(r, R[row])]
        pivots.append(col)
        row += 1
    return R, pivots


def rand_rank(F, m, n, rank, rng):
    """A dense m x n matrix of exactly the given rank."""
    if rank == 0:
        return np.zeros((m, n), dtype=np.int64)
    # rank independent rows of [I | X] with shuffled columns, mixed by an
    # invertible lower unitriangular matrix, padded with combinations of them
    top = np.zeros((rank, n), dtype=np.int64)
    cols = rng.sample(range(n), n)
    for i in range(rank):
        top[i, cols[i]] = 1
        for j in cols[rank:]:
            top[i, j] = rng.randrange(F.q)
    L = np.eye(rank, dtype=np.int64)
    for i in range(rank):
        for j in range(i):
            L[i, j] = rng.randrange(F.q)
    C = np.array(
        [[rng.randrange(F.q) for _ in range(rank)] for _ in range(m - rank)],
        dtype=np.int64,
    ).reshape(m - rank, rank)
    indep = F.mat_mul(L, top)
    out = np.vstack([indep, F.mat_mul(C, indep)])
    return out[rng.sample(range(m), m)]


KERNEL_SHAPES = [(0, n) for n in (0, 1, 63, 64, 65, 130)] + [
    (1, 0),
    (5, 0),
    (1, 1),
    (3, 1),
    (20, 63),
    (70, 63),
    (30, 64),
    (66, 64),
    (40, 65),
    (67, 65),
    (50, 130),
]


def kernel_cases(F, rng, shapes=KERNEL_SHAPES):
    for m, n in shapes:
        full = min(m, n)
        for rank in sorted({0, full // 2, full}):
            yield rand_rank(F, m, n, rank, rng), rank


NARROW = (np.int16, np.int32, np.int64)


def check_kernel(F, kernel, data, rank, dtypes=NARROW):
    """Run the kernel on a copy of data in each integer type: it must leave
    the reference RREF in that buffer, in its type, and return its pivots."""
    ref, ref_piv = ref_rref(F, data.tolist(), data.shape[1])
    assert len(ref_piv) == rank
    for dtype in dtypes:
        R = data.astype(dtype)
        assert kernel(R) == ref_piv
        assert R.dtype == dtype and R.shape == data.shape
        assert R.tolist() == ref


def test_rref_gf2_matches_reference():
    rng = random.Random(2024)
    for data, rank in kernel_cases(F2, rng, KERNEL_SHAPES + [(133, 130)]):
        check_kernel(F2, _rref_gf2, data, rank)


@pytest.mark.parametrize("F", [F3, F5, F7, F4, F9], ids=repr)
def test_rref_generic_matches_reference(F):
    rng = random.Random(F.q)
    for data, rank in kernel_cases(F, rng):
        check_kernel(F, lambda d: _rref_generic(F, d), data, rank)


def test_rref_generic_update_stays_narrow():
    # the operation tables are int16, like the buffer, so a pivot's update
    # gathers no int64 temporaries the size of the trailing block (5.6 MiB
    # above this 0.7 MiB buffer with int64 tables)
    R = np.random.default_rng(9).integers(0, F9.q, size=(600, 600)).astype(np.int16)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        _rref_generic(F9, R)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak < 3 * 2**20, peak


def test_rref_largest_prime_matches_reference():
    F = FiniteField(2**31 - 1)
    rng = random.Random(31)
    for data, rank in kernel_cases(F, rng, [(4, 6), (6, 4), (5, 5), (0, 3), (3, 0)]):
        check_kernel(F, lambda d: _rref_generic(F, d), data, rank, (np.int64,))


@pytest.mark.parametrize("F", [F3, F5, F7], ids=repr)
def test_rref_prime_matches_reference(F):
    rng = random.Random(11 * F.q)
    for data, rank in kernel_cases(F, rng):
        check_kernel(F, lambda d: _rref_prime(F.p, d), data, rank)


def test_rref_prime_largest_prime_matches_reference():
    # at p = 2^31 - 1 only two unreduced updates fit in int64, so the wider
    # shapes reduce the trailing block every other pivot, dozens of times
    F = FiniteField(2**31 - 1)
    rng = random.Random(37)
    shapes = [(4, 6), (6, 4), (40, 65), (67, 65), (0, 3), (3, 0)]
    for data, rank in kernel_cases(F, rng, shapes):
        check_kernel(F, lambda d: _rref_prime(F.p, d), data, rank, (np.int64,))


@pytest.mark.parametrize("p, dtype", [(181, np.int16), (46337, np.int32)])
def test_rref_prime_reduces_midway_in_a_narrow_buffer(p, dtype):
    # one unreduced update fits, fewer than the pivots: the trailing block is
    # reduced before every update after the first
    F = FiniteField(p)
    assert (np.iinfo(dtype).max - p) // (p - 1) ** 2 == 1
    rng = random.Random(p)
    for data, rank in kernel_cases(F, rng, [(20, 30), (40, 65), (67, 65)]):
        check_kernel(F, lambda d: _rref_prime(p, d), data, rank, (dtype,))
    with pytest.raises(TypeError):
        _rref_prime(p, np.ones((2, 2), dtype=np.int8))


def _dense_kernel(F):
    if F.r > 1:
        return lambda R: _rref_generic(F, R)
    return _rref_gf2 if F.p == 2 else lambda R: _rref_prime(F.p, R)


SPARSE_SHAPES = [(0, 0), (0, 6), (5, 0), (1, 1), (4, 9), (9, 4), (30, 70), (70, 30), (40, 130)]


@pytest.mark.parametrize("F", [F2, F3, F5, F4, F9, FiniteField(2**31 - 1)], ids=repr)
def test_sparse_rows_kernel_matches_dense_kernels(F):
    # insertion order does not move pivots or the RREF: the sparse kernel
    # gives the dense kernels' pivots and reduced rows, in the buffer's type,
    # left to right and right to left (through the reversed columns)
    rng, pick = np.random.default_rng(F.q % 1009), random.Random(F.q)
    dense = _dense_kernel(F)
    for m, n in SPARSE_SHAPES:
        cases = [rng.integers(1, F.q, (m, n)) * (rng.random((m, n)) < density)
                 for density in (0.0, 0.05, 0.3, 1.0)]
        cases.append(rand_rank(F, m, n, min(m, n), pick))
        for data, flip in itertools.product(cases, (False, True)):
            dtype = _elimination_dtype(F, m, n)
            X = data[:, ::-1] if flip else data
            want = data.astype(dtype)
            view = want[:, ::-1] if flip else want
            pivots = dense(view)
            i, j = np.nonzero(X)
            got, rows = _rref_rows(F, i, j, X[i, j], n, dtype)
            assert got == pivots, (m, n, flip)
            assert rows.dtype == dtype and rows.shape == (len(pivots), n)
            assert rows.tolist() == view[: len(pivots)].tolist() and not view[len(pivots):].any()


WIDE_PRIMES = [FiniteField(p) for p in (191, 46349, 2**31 - 1)]


@pytest.mark.parametrize(
    "F", [F2, F3, F5, F7, F4, F9] + WIDE_PRIMES, ids=repr
)
def test_elimination_dtype_is_narrowest_exact(F):
    for rows, cols in [(0, 5), (5, 0), (1, 1), (10, 300), (300, 10), (2000, 3000)]:
        dtype = _elimination_dtype(F, rows, cols)
        if F.r > 1:
            assert dtype == np.int16
        else:
            # int64 is the widest: past its range `_rref_prime` reduces mid-way
            bound = max(min(rows, cols), 1) * (F.p - 1) ** 2 + F.p
            assert bound <= np.iinfo(dtype).max or dtype == np.int64
            narrower = [t for t in NARROW if np.iinfo(t).max < np.iinfo(dtype).max]
            assert all(bound > np.iinfo(t).max for t in narrower)


ECHELON_SHAPES = [(0, 0), (0, 5), (5, 0), (1, 1), (4, 9), (9, 4), (30, 70), (70, 30)]


@pytest.mark.parametrize("F", [F2, F3, F5, F4, F9] + WIDE_PRIMES, ids=repr)
def test_echelon_matches_reference(F):
    # the one entry point gives the reference RREF's pivots and rows, one per
    # pivot, in the type `_elimination_dtype` picks, on either route, left to
    # right and right to left (the RREF of the reversed columns, read back),
    # on empty, rank-deficient and full shapes
    rng = random.Random(23 * F.q)
    for data, rank in kernel_cases(F, rng, ECHELON_SHAPES):
        m, n = data.shape
        i, j = np.nonzero(data)
        for sparse, right in itertools.product((False, True), repeat=2):
            ref, piv = ref_rref(F, (data[:, ::-1] if right else data).tolist(), n)
            want = np.array(ref, dtype=np.int64).reshape(m, n)[:rank]
            if right:
                want, piv = want[:, ::-1], [n - 1 - q for q in piv]
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(rref, "_sparse", lambda *shape: sparse)
                pivots, rows = rref._echelon(F, i, j, data[i, j], (m, n), right)
            where = (m, n, rank, sparse, right)
            assert pivots == piv, where
            assert rows.dtype == _elimination_dtype(F, m, n), where
            assert rows.shape == (rank, n) and rows.tolist() == want.tolist(), where


KERNELS = ("_rref_rows", "_rref_gf2", "_rref_prime", "_rref_generic")


def test_kernels_are_reached_only_through_echelon(monkeypatch):
    # every elimination, of the small-matrix layer, a lone rank and homology,
    # is one call of `rref._echelon`: each kernel, at every binding in the
    # package, is called from its frame alone, and every kernel is reached
    callers = []
    package = [m for k, m in sys.modules.items() if k == "kuelsh" or k.startswith("kuelsh.")]
    for name in KERNELS:
        real = getattr(rref, name)

        def spy(*args, real=real, name=name):
            callers.append((name, sys._getframe(1).f_code))
            return real(*args)

        for module in package:
            if vars(module).get(name) is real:
                monkeypatch.setattr(module, name, spy)
    rng = random.Random(41)
    for F in (F2, F3, F4):
        for m, n in ((3, 4), (40, 45)):  # a small block is sparse, this dense one not
            M = Matrix(F, rand_rank(F, m, n, m - 1, rng))
            red = row_reduce(M)
            red.kernel, red.rank, red.solve(M.data[:, 0])
            V, W = Subspace(F, n, M), Subspace(F, n, rand_rank(F, m, n, m, rng))
            V & W
            SemilinearMap(M, 1).kernel(), SemilinearMap(M, 1).rank
    TA = trivial_extension(dual_numbers(F3)).algebra
    homology(TA, 5), cohomology(TA, 5)
    assert {name for name, _ in callers} == set(KERNELS)
    assert all(code is rref._echelon.__code__ for _, code in callers)


@pytest.mark.parametrize("F", WIDE_PRIMES, ids=repr)
def test_zero_dimensional_spaces_over_wide_primes(F):
    # a shape with no pivots still gets room for one unreduced update
    assert Subspace(F, 3).dim == 0
    assert Subspace.full(F, 0).dim == 0
    assert row_reduce(Matrix.identity(F, 2)).kernel.dim == 0
    assert row_reduce(Matrix.zeros(F, 0, 4)).kernel == Subspace.full(F, 4)


@pytest.mark.parametrize("F", [F2, F3, F4], ids=repr)
def test_row_reduce_leaves_its_matrix(F):
    # the public entry copies: only internal elimination consumes a buffer
    data = rand_rank(F, 6, 9, 4, random.Random(F.q))
    M = Matrix(F, data)
    red = row_reduce(M)
    assert M.data.tolist() == data.tolist()
    assert red.rref.data.tolist() == ref_rref(F, data.tolist(), 9)[0]


@pytest.mark.parametrize("F", [F2, F3, F4, F9], ids=repr)
def test_batched_reduce_matches_single_rows(F):
    rng = random.Random(7 * F.q)
    for n, wdim, k in [(1, 0, 3), (5, 2, 0), (9, 4, 6), (65, 20, 30), (130, 0, 2)]:
        W = Subspace(F, n, rand_rank(F, wdim, n, wdim, rng))
        X = np.array(
            [[rng.randrange(F.q) for _ in range(n)] for _ in range(k)], dtype=np.int64
        ).reshape(k, n)
        block = W.reduce(X)
        assert block.shape == (k, n)
        assert block.tolist() == [W.reduce(x).tolist() for x in X]
        # contains and quotient_basis keep their row-by-row meaning
        V = W + Subspace(F, n, X)
        for sub in (W, Subspace(F, n, X)):
            assert V.contains(sub) == all(V.contains_vector(r) for r in sub.basis.data)
            assert sub.contains(V) == all(sub.contains_vector(r) for r in V.basis.data)
        single = [W.reduce(r).tolist() for r in V.basis.data]
        ref, piv = ref_rref(F, single, n)
        assert V.quotient_basis(W).data.tolist() == ref[: len(piv)]


def rand_block(F, k, n, rng):
    return np.array(
        [[rng.randrange(F.q) for _ in range(n)] for _ in range(k)], dtype=np.int64
    ).reshape(k, n)


def ref_kernel(F, data):
    """The kernel by the elimination route: the left-to-right RREF, the
    kernel vectors K read off it, then K reduced again into a Subspace."""
    n = data.shape[1]
    R, piv = ref_rref(F, data.tolist(), n)
    free = [j for j in range(n) if j not in piv]
    K = np.zeros((len(free), n), dtype=np.int64)
    K[np.arange(len(free)), free] = 1
    K[:, piv] = F.vneg(np.array(R, dtype=np.int64).reshape(len(R), n)[: len(piv)][:, free].T)
    return Subspace(F, n, K)


def ref_quotient_basis(V, W):
    """The quotient by the elimination route: V's basis reduced modulo W,
    then reduced again into a Subspace."""
    return Subspace(V.field, V.ambient_dim, W.reduce(V.basis.data)).basis


QUOTIENT_SHAPES = [(0, 0), (0, 5), (5, 0), (1, 1), (4, 4), (6, 11), (11, 6), (20, 70)]


@pytest.mark.parametrize("F", [F2, F3, F5, F4, F9, FiniteField(2**31 - 1)], ids=repr)
def test_kernel_and_quotient_match_elimination_routes(F):
    # the right-to-left kernel and the quotient selected by pivot are the
    # RREF bases the elimination routes give, on zero, full-rank and
    # rank-deficient shapes; each nested pair W <= V is compared too
    rng = random.Random(3 * F.q)
    for m, n in QUOTIENT_SHAPES:
        for rank in sorted({0, min(m, n) // 2, min(m, n)}):
            data = rand_rank(F, m, n, rank, rng)
            ker = row_reduce(Matrix(F, data)).kernel
            ref = ref_kernel(F, data)
            assert ker == ref and ker.pivots == ref.pivots
            assert ker.dim == n - rank and ker.basis.data.base is None
            for V in (ker, Subspace(F, n, data)):
                subs = [Subspace(F, n), V]
                for k in range(V.dim + 1):
                    rows = F.mat_mul(rand_block(F, k, V.dim, rng), V.basis.data)
                    subs.append(Subspace(F, n, rows))
                for W in subs:
                    Q = V.quotient_basis(W)
                    assert Q == ref_quotient_basis(V, W)
                    assert Q.rows == V.dim - W.dim


def ref_intersection(V, W):
    """V & W by the kernel route: the kernel of [V^T | -W^T], its product with
    V's basis, then reduced again into a Subspace."""
    F, n = V.field, V.ambient_dim
    ker = ref_kernel(F, np.hstack([V.basis.data.T, F.vneg(W.basis.data.T)]))
    return Subspace(F, n, F.mat_mul(ker.basis.data[:, : V.dim], V.basis.data))


def ref_solve(F, data, b):
    """Mx = b by an elimination of [M | I]: its right block T has
    T M = RREF(M), so x is T b at the pivots, or None when T b is nonzero
    past the rank."""
    m, n = data.shape
    aug = np.hstack([data, np.eye(m, dtype=np.int64)])
    i, j = np.nonzero(aug)
    _, R = rref._echelon(F, i, j, aug[i, j], aug.shape)
    piv = ref_rref(F, data.tolist(), n)[1]
    y = F.mat_mul(b, R[:, n:].astype(np.int64).T)
    if y[..., len(piv) :].any():
        return None
    x = np.zeros(b.shape[:-1] + (n,), dtype=np.int64)
    x[..., piv] = y[..., : len(piv)]
    return x


ROUTE_FIELDS = [F2, F3, F5, F4, F9, FiniteField(2**31 - 1)]


@pytest.mark.parametrize("F", ROUTE_FIELDS, ids=repr)
def test_rref_and_solve_match_elimination_routes(F):
    # rref, pivots, rank and solve read one [M | I] elimination; they match the
    # reference RREF and the int64 [M | I] solver on solvable and unsolvable blocks
    rng = random.Random(5 * F.q)
    unsolvable = 0
    for m, n in QUOTIENT_SHAPES:
        for rank in sorted({0, min(m, n) // 2, min(m, n)}):
            data = rand_rank(F, m, n, rank, rng)
            red = row_reduce(Matrix(F, data))
            R, piv = ref_rref(F, data.tolist(), n)
            assert red.rref.data.dtype == np.int64 and red.rref.rows == m
            assert red.rref.data.tolist() == np.array(R, dtype=np.int64).reshape(m, n).tolist()
            assert red.pivots == tuple(piv) and red.rank == rank
            solvable = F.mat_mul(rand_block(F, 3, n, rng), data.T)
            for b in (solvable, solvable[:1], rand_block(F, 2, m, rng), rand_block(F, 1, m, rng)[0]):
                x, ref = red.solve(b), ref_solve(F, data, b)
                assert (x is None) == (ref is None)
                unsolvable += x is None
                if x is not None:
                    assert x.tolist() == ref.tolist()
                    assert F.mat_mul(x, data.T).tolist() == b.tolist()
    assert unsolvable


@pytest.mark.parametrize("F", ROUTE_FIELDS, ids=repr)
def test_intersection_matches_kernel_route(F):
    # one Zassenhaus elimination gives the RREF basis of the kernel route on
    # zero-size and zero spaces, nested pairs, V & W = 0 and random pairs
    rng = random.Random(9 * F.q)
    for n in (0, 1, 4, 9, 20):
        for _ in range(4):
            frame = rand_rank(F, n, n, n, rng)  # a basis of F^n
            a = rng.randrange(n + 1)
            V = Subspace(F, n, frame[:a])
            pairs = [
                (Subspace(F, n), V),
                (Subspace.full(F, n), V),
                (V, V + Subspace(F, n, rand_block(F, 2, n, rng))),
                (V, Subspace(F, n, frame[a : a + rng.randrange(n - a + 1)])),
            ]
            for k, r in ((rng.randrange(n + 1), rng.randrange(n + 1)) for _ in range(3)):
                pairs.append((Subspace(F, n, rand_rank(F, k, n, min(k, r), rng)), V))
            for X, Y in pairs:
                for P, Q in ((X, Y), (Y, X)):
                    meet, ref = P & Q, ref_intersection(P, Q)
                    assert meet == ref and meet.pivots == ref.pivots
                    assert meet.basis.data.dtype == np.int64 and meet.basis.data.base is None
                    assert P.contains(meet) and Q.contains(meet)
            assert (V & pairs[2][1]) == V
            assert (V & pairs[3][1]).dim == 0


@pytest.mark.parametrize("F", [F4, F8, F9], ids=repr)
def test_twisted_kernel_matches_reelimination(F):
    # phi^-s of the kernel's RREF basis, kept as it is, is the RREF basis the
    # re-elimination of the twisted rows gives
    rng = random.Random(17 * F.q)
    for m, n in [(0, 0), (0, 4), (3, 0), (1, 1), (2, 5), (4, 9), (9, 4)]:
        for rank in sorted({0, min(m, n) // 2, min(m, n)}):
            data = rand_rank(F, m, n, rank, rng)
            for s in range(F.r):
                S = SemilinearMap(Matrix(F, data), s)
                ker = S.kernel()
                twisted = F.vfrob(ref_kernel(F, data).basis.data, -s)
                ref = Subspace(F, n, twisted)
                assert ker == ref and ker.pivots == ref.pivots and ker.dim == n - rank
                assert all(not S.apply(v).any() for v in ker.basis.data)


def _spy_echelon(monkeypatch, record):
    """Call record(shape) for each block `rref._echelon` eliminates; a
    zero-size block needs no elimination and is not counted."""
    real = rref._echelon

    def spy(F, i, j, v, shape, right=False):
        if shape[0] * shape[1]:
            record(shape)
        return real(F, i, j, v, shape, right)

    monkeypatch.setattr(rref, "_echelon", spy)


def test_each_answer_makes_one_elimination(monkeypatch):
    # construction eliminates nothing, each answer once, known RREFs never
    shapes = []
    _spy_echelon(monkeypatch, shapes.append)

    def count(f):
        shapes.clear()
        f()
        return len(shapes)

    M = Matrix(F3, [[1, 2, 0, 1], [0, 1, 1, 2], [1, 0, 2, 0]])
    assert count(lambda: row_reduce(M)) == 0
    assert count(lambda: row_reduce(M).kernel) == 1

    def every_answer():
        red = row_reduce(M)
        return red.rank, red.solve([1, 1, 1]), red.pivots, red.rref

    assert count(every_answer) == 1 and shapes == [(3, 7)]
    V = Subspace(F3, 4, [[1, 0, 1, 0], [0, 1, 0, 1]])
    W = Subspace(F3, 4, [[1, 1, 0, 0], [0, 0, 1, 1]])
    assert count(lambda: V & W) == 1 and (V & W).dim == 1
    S = SemilinearMap(Matrix(F4, [[1, 2, 3], [0, 1, 1]]), 1)
    assert count(S.kernel) == 1
    for F in (F3, F4, FiniteField(2**31 - 1)):
        assert count(lambda: Subspace.full(F, 5)) == 0
        assert count(lambda: Subspace.full(F, 0)) == 0


def test_rank_reads_eliminate_only_the_matrix(monkeypatch):
    # a caller that reads only a rank reduces one m x n copy of M, not [M | I]
    import kuelsh.cli
    from kuelsh.catalog import dual_numbers
    from kuelsh.degree0 import kappa_n_direct

    calls = []
    gram = kuelsh.cli.gram_matrix
    _spy_echelon(monkeypatch, calls.append)
    monkeypatch.setattr(
        kuelsh.cli, "gram_matrix", lambda *a: calls.append("gram") or gram(*a)
    )
    assert SemilinearMap(Matrix(F4, [[1, 2, 3], [0, 1, 1]]), 1).rank == 2
    assert calls == [(2, 3)]
    A = dual_numbers(F3)
    form = BilinearForm.from_linear_form(A, [0, 1])
    calls.clear()
    assert form.is_nondegenerate() and calls == [(2, 2)]
    calls.clear()
    kappa_n_direct(A, [0, 1], 1)
    assert calls[0] == (2, 2)
    path = os.path.join(os.path.dirname(__file__), "..", "corpus", "dual_f3.json")
    with contextlib.redirect_stdout(io.StringIO()):
        assert kuelsh.cli.main(["hh", path, "--max-degree", "2"]) == 0
    after = [calls[i + 1] for i, c in enumerate(calls) if c == "gram"]
    assert len(after) == 3 and all(shape[0] == shape[1] for shape in after)


@pytest.mark.parametrize("F", [F2, F3, F4, F9], ids=repr)
def test_block_solve_matches_single_rows(F):
    rng = random.Random(11 * F.q)
    for m, n, rank, k in [(1, 1, 0, 3), (5, 7, 3, 0), (6, 4, 4, 5), (9, 12, 5, 8), (0, 3, 0, 2)]:
        M = Matrix(F, rand_rank(F, m, n, rank, rng))
        red = row_reduce(M)
        B = F.mat_mul(rand_block(F, k, n, rng), M.data.T)  # rows M x: solvable
        sol = red.solve(B)
        assert sol.shape == (k, n)
        assert sol.tolist() == [red.solve(b).tolist() for b in B]
        assert F.mat_mul(sol, M.data.T).tolist() == B.tolist()
        if rank == m or k == 0:
            continue
        # one unsolvable row, placed last, makes the whole block unsolvable
        bad = next(b for b in rand_block(F, 100, m, rng) if red.solve(b) is None)
        B[-1] = bad
        assert red.solve(B) is None


@pytest.mark.parametrize("F", [F2, F3, F4, F9], ids=repr)
def test_block_coords_and_lift_match_single_rows(F):
    rng = random.Random(13 * F.q)
    for n, wdim, k in [(1, 0, 3), (5, 2, 0), (9, 4, 6), (65, 20, 7), (4, 4, 2)]:
        W = Subspace(F, n, rand_rank(F, wdim, n, wdim, rng))
        C = rand_block(F, k, wdim, rng)
        V = W.lift(C)
        assert V.shape == (k, n)
        assert V.tolist() == [W.lift(c).tolist() for c in C]
        assert W.coords(V).tolist() == C.tolist()
        assert W.coords(V).tolist() == [W.coords(v).tolist() for v in V]
        outside = next((e for e in np.eye(n, dtype=np.int64) if not W.contains_vector(e)), None)
        if outside is not None and k:
            V[-1] = outside
            with pytest.raises(NotASubspace):
                W.coords(V)


def test_reduce_rejects_bad_shapes():
    # every row-block API, each taking rows of length 3
    A = truncated_polynomial(F3, 3)
    W = Subspace(F3, 3, [[1, 0, 0]])
    apis = [
        W.reduce,
        W.coords,
        Subspace.full(F3, 3).lift,
        row_reduce(Matrix.identity(F3, 3)).solve,
        lambda v: A.multiply(v, A.unit()),
        lambda v: A.multiply(A.unit(), v),
        lambda v: A.power(v, 2),
        homology(A, 0).express,
    ]
    for api in apis:
        for bad in ([1, 2], [[1, 2]], np.zeros((1, 1, 3), dtype=np.int64)):
            with pytest.raises(DimensionMismatch):
                api(bad)
    # the constructor takes one vector or a (k, 3) block, nothing reshaped
    for bad in ([1, 2], [[1, 2]], np.zeros((1, 1, 3), dtype=np.int64), [1, 2, 0, 0, 1, 1]):
        with pytest.raises(AmbientMismatch, match="shape"):
            Subspace(F3, 3, bad)
    assert Subspace(F3, 3, [1, 2, 0]) == Subspace(F3, 3, [[1, 2, 0]])


def test_single_vector_apis_reject_blocks():
    # every entry point that takes exactly one vector of length 3
    A = truncated_polynomial(F3, 3)
    form = BilinearForm.from_linear_form(A, [0, 0, 1])
    lam = [0, 0, 1]
    apis = [
        Matrix.identity(F3, 3).mul_vec,
        SemilinearMap(Matrix.identity(F3, 3)).apply,
        lambda v: pairing(lam, Cochain.unit(A), v),
        lambda v: BilinearForm.from_linear_form(A, v),
        lambda v: form.pairing(v, A.unit()),
        lambda v: form.pairing(A.unit(), v),
        lambda v: A.multiply_basis_left(1, v),
        lambda v: A.multiply_basis_right(v, 1),
        A.left_mult_matrix,
    ]
    for api in apis:
        api(np.array([1, 2, 0]))
        for bad in ([[1, 2, 0]], np.zeros((2, 3), dtype=np.int64), [1, 2], 1):
            with pytest.raises(DimensionMismatch):
                api(bad)


# -- entries outside 0..q-1 ------------------------------------------------


def test_prime_field_entries_are_reduced():
    assert row_reduce(Matrix(F2, [[2]])).rank == 0
    assert Subspace(F2, 2, [[2, 1]]).basis.data.tolist() == [[0, 1]]
    M = Matrix(F3, [[3, 1]])
    assert M.data.tolist() == [[0, 1]]
    assert row_reduce(M).rank == 1
    assert Matrix(F5, [[-1, 12]]).data.tolist() == [[4, 2]]
    assert Subspace(F3, 2, [[1, 0]]).reduce([[4, -1]]).tolist() == [[0, 2]]


def test_extension_field_entries_out_of_range_rejected():
    with pytest.raises(FieldMismatch):
        Matrix(F4, [[-1, 7]])
    with pytest.raises(FieldMismatch):
        Subspace(F9, 2, [[9, 0]])
    with pytest.raises(FieldMismatch):
        Subspace(F4, 2, [[1, 0]]).reduce([0, 4])


def test_operands_over_different_fields_rejected():
    M5, M3 = Matrix(F5, [[4]]), Matrix(F3, [[2]])
    for op in (lambda a, b: a @ b, lambda a, b: a + b, lambda a, b: a - b):
        with pytest.raises(FieldMismatch):
            op(M5, M3)
    with pytest.raises(FieldMismatch):
        preimage(M5, Subspace(F3, 1, [[1]]))
    with pytest.raises(FieldMismatch):
        Subspace(F4, 2, Matrix(F5, [[4, 3]]))
    assert (Matrix(F5, [[4]]) @ M5).data.tolist() == [[1]]


# -- large characteristic --------------------------------------------------


def test_characteristic_bound():
    for p in (2**31, 4294967311):
        with pytest.raises(ValueError):
            FiniteField(p)
    assert FiniteField(2**31 - 1).p == 2**31 - 1


def test_largest_prime_products_exact():
    p = 2**31 - 1
    F = FiniteField(p)
    rng = random.Random(61)

    def entry():
        return rng.choice([p - 1, rng.randrange(p)])

    for m, k, n in [(1, 2, 1), (3, 7, 2), (2, 1, 4), (2, 0, 3)]:
        a = [[entry() for _ in range(k)] for _ in range(m)]
        b = [[entry() for _ in range(n)] for _ in range(k)]
        want = [
            [sum(a[i][t] * b[t][j] for t in range(k)) % p for j in range(n)]
            for i in range(m)
        ]
        got = F.mat_mul(
            np.array(a, dtype=np.int64).reshape(m, k),
            np.array(b, dtype=np.int64).reshape(k, n),
        )
        assert got.tolist() == want
    x = [p - 1] * 5
    assert F.vdot(np.array(x), np.array(x)) == 5 * (p - 1) ** 2 % p
