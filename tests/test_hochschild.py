import itertools
import json
import os
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kuelsh.algebra import (
    Algebra,
    AlgebraMorphism,
    BilinearForm,
    algebra_from_json,
    algebra_validate,
    identity_morphism,
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
from kuelsh import fieldlin, hochschild
from kuelsh.degree0 import center, commutator_space, hh0_data
from kuelsh.kappa import kappa_hat
from kuelsh.errors import DimensionMismatch, FieldMismatch, NotACocycle, NotACycle, NotUnital
from kuelsh.fieldlin import FiniteField, Matrix, Subspace, row_reduce
from kuelsh.hochschild import (
    Cochain,
    _grading,
    _homology_basis,
    _weight_classes,
    _zeros,
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


@pytest.mark.parametrize("p", [191, 46349, 2**31 - 1])
def test_field_algebra_homology_over_wide_primes(p):
    # every chain space past degree 0 is zero-dimensional: the differentials
    # are 1 x 0, 0 x 1 and 0 x 0 buffers, which must still eliminate
    A = field_algebra(FiniteField(p))
    for m in range(3):
        assert homology(A, m).dimension == cohomology(A, m).dimension == (m == 0)


def test_homology_keeps_only_basis_rows():
    # each differential is reduced in a buffer of its own; a subspace keeps
    # its basis rows as an int64 array, not a view that holds the buffer
    TA = trivial_extension(dual_numbers(F3)).algebra
    for H in (homology(TA, 4), cohomology(TA, 4)):
        for sub in (H.cycles, H.boundaries):
            assert sub.basis.data.base is None and sub.basis.data.dtype == np.int64
        assert H.representatives.base is None


def test_homology_eliminates_each_differential_once(monkeypatch):
    # the cycles are read off one right-to-left elimination of the outgoing
    # map and the representatives are selected by pivot: each weight block of
    # a differential is eliminated once (a block with no rows or no columns
    # is a zero map and needs none), nothing else is, and the one product per
    # block is the containment check, made when the block has boundaries and
    # its outgoing map has rank, that is when it has both to compare
    TA = trivial_extension(dual_numbers(F3)).algebra
    calls = []
    rref, mat_mul = fieldlin._rref, FiniteField.mat_mul
    blocks = hochschild._blocks

    def spy_blocks(*args):
        for M in blocks(*args):
            calls.append("block" if M.size else "zero")
            yield M

    monkeypatch.setattr(fieldlin, "_rref", lambda *a: calls.append("rref") or rref(*a))
    monkeypatch.setattr(FiniteField, "mat_mul", lambda *a: calls.append("mul") or mat_mul(*a))
    monkeypatch.setattr(Subspace, "quotient_basis", lambda *a: calls.append("quotient"))
    monkeypatch.setattr(hochschild, "_blocks", spy_blocks)
    for m in range(1, 5):
        for H in (homology, cohomology):
            calls.clear()
            hb = H(TA, m)
            lead = (hb.representatives != 0).argmax(axis=1)
            checked = 0  # 0, 3, 6 and 10 blocks in degrees 1 to 4
            for idx, rows, _ in hb.blocks:
                rank = len(idx) - len(rows) - np.isin(lead, idx).sum()
                checked += bool(len(rows)) and rank > 0
            assert len(hb.blocks) > 1 and checked >= 3 * (m > 1), (H.__name__, m)
            assert calls.count("rref") == calls.count("block") > 0, (H.__name__, m)
            assert calls.count("mul") == checked, (H.__name__, m)
            assert "quotient" not in calls, (H.__name__, m)


def test_homology_on_a_dense_basis_holds_no_cycles():
    # the hh_dense shape: T(k[eps]) over F3 in a dense basis, one block per
    # degree; 3.43 MiB with the int64 cycle basis and the reduction of every
    # boundary by it, 2.16 MiB reading the representatives off the echelon form
    TA = _dense_basis(trivial_extension(dual_numbers(F3)).algebra, 43)
    tracemalloc.start()
    try:
        homology(TA, 4)
        cohomology(TA, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.6 * 2**20, peak


def test_homology_peak_memory_is_below_two_int64_differentials():
    # built once in a narrow integer type and reduced in place, no
    # differential of degrees 0..5 costs more than twice b_6 in int64 bytes
    TA = trivial_extension(dual_numbers(F3)).algebra
    limit = 2 * chain_dim(TA, 5) * chain_dim(TA, 6) * 8
    tracemalloc.start()
    try:
        for m in range(6):
            homology(TA, m)
            cohomology(TA, m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= limit, (peak, limit)


def test_unaddressable_differential_is_out_of_memory():
    # 3 * 2^63 chains of k[t]/t^3 in degree 64: no index array is attempted
    A = truncated_polynomial(F3, 3)
    for build in (boundary_matrix, coboundary_matrix):
        with pytest.raises(MemoryError, match="cannot allocate a "):
            build(A, 64)


def test_zeros_counts_the_bytes_of_its_type(monkeypatch):
    assert _zeros(3, 4, np.int16).dtype == np.int16
    for rows, dtype in ((2**62, np.int16), (2**61, np.int32), (2**60, np.int64)):
        with pytest.raises(MemoryError, match=f"{rows} x 2 {np.dtype(dtype)} matrix"):
            _zeros(rows, 2, dtype)
    # 2^62 bytes in int16 is addressable, so the guard passes it to numpy
    calls = []
    monkeypatch.setattr(np, "zeros", lambda shape, dtype: calls.append((shape, dtype)))
    _zeros(2**61, 1, np.int16)
    assert calls == [((2**61, 1), np.dtype(np.int16))]
    with pytest.raises(MemoryError, match="int64"):
        _zeros(2**61, 1, np.int64)


# -- weight blocks ---------------------------------------------------------------


def _whole_matrix_homology(A, m, cochains):
    """`_homology_basis` fed the whole differentials, as one block."""
    if cochains:
        n, out = cochain_dim(A, m), iter([coboundary_matrix(A, m).data.copy()])
        into = iter([coboundary_matrix(A, m - 1).data.copy() if m else np.zeros((n, 0), int)])
    else:
        n = chain_dim(A, m)
        out = iter([boundary_matrix(A, m).data.copy() if m else np.zeros((0, n), int)])
        into = iter([boundary_matrix(A, m + 1).data.copy()])
    return _homology_basis(A.field, m, n, [np.arange(n)], out, into)


def _graded_algebras():
    """(algebra, top degree, rank of its weight grading)."""
    for F in (F2, F3, F4, F5, F9):
        yield trivial_extension(dual_numbers(F)).algebra, 4, 2
    yield upper_triangular(F3, 2), 4, 1
    yield upper_triangular(F2, 3), 3, 2
    yield full_matrix_algebra(F3, 2), 4, 1
    yield truncated_polynomial(F3, 4), 4, 1
    yield tensor_product(dual_numbers(F2), dual_numbers(F2)), 3, 2


def test_block_homology_matches_whole_matrix():
    # the blocks' RREFs, laid out by pivot, are the whole differentials' RREFs
    for A, top, _ in _graded_algebras():
        for m in range(top + 1):
            for H, cochains in ((homology, False), (cohomology, True)):
                got, want = H(A, m), _whole_matrix_homology(A, m, cochains)
                for attr in ("cycles", "boundaries"):
                    g, w = getattr(got, attr), getattr(want, attr)
                    assert g.pivots == w.pivots, (A.field, A.dim, m, H.__name__, attr)
                    assert g.basis.data.dtype == w.basis.data.dtype == np.int64
                    assert g.basis.data.shape == w.basis.data.shape
                    assert g.basis.data.tobytes() == w.basis.data.tobytes()
                assert got.representatives.shape == want.representatives.shape
                assert got.representatives.tobytes() == want.representatives.tobytes()


def _block_bytes(hb):
    """The bytes of the arrays a HomologyBasis holds."""
    arrays = [hb.representatives]
    for block in hb.blocks:
        arrays += block
    return sum(a.nbytes for a in arrays)


def test_block_bases_are_small():
    # in degree 5 the global int64 RREFs of T(k[eps]) over F3 were 734 x 972
    # cycles and 726 x 972 boundaries, 10.8 MB; each block keeps its own
    TA = trivial_extension(dual_numbers(F3)).algebra
    held = _block_bytes(homology(TA, 5)) + _block_bytes(cohomology(TA, 5))
    assert held < 0.2 * 2**20, held  # 205 536 bytes


def test_block_bases_keep_no_cycles():
    # each block holds its index array, its boundary RREF rows in one byte
    # and their pivots; the cycles, the boundaries plus the representatives,
    # are not kept
    for A, top, _ in _graded_algebras():
        for m in range(top + 1):
            for hb in (homology(A, m), cohomology(A, m)):
                for idx, rows, pivots in hb.blocks:
                    assert rows.dtype == np.uint8 and rows.shape == (len(pivots), len(idx))
                    assert pivots.dtype == np.int64 and (rows[np.arange(len(rows)), pivots] == 1).all()
    # 1.49 MiB when each block also kept its cycles, 0.57 MiB with int64
    # boundaries; their rows are now one byte an entry
    TA = trivial_extension(dual_numbers(F3)).algebra
    for hb in (homology(TA, 5), cohomology(TA, 5)):
        assert all(rows.nbytes == rows.size for _, rows, _ in hb.blocks)
    held = _block_bytes(homology(TA, 5)) + _block_bytes(cohomology(TA, 5))
    assert held < 0.2 * 2**20, held


def test_blocks_are_weight_classes():
    # each block is one weight class: no classes are merged into wider runs
    for A, top, _ in _graded_algebras():
        for m in range(top + 1):
            for H, cochains in ((homology, False), (cohomology, True)):
                got = sorted(idx.tolist() for idx, *_ in H(A, m).blocks)
                classes = _weight_classes(A, m + 1, cochains)(m).values()
                assert got == sorted(idx.tolist() for idx in classes), (A.field, A.dim, m, H.__name__)
    # UT3 over F3 in degree 4 peaked at 16.7 MiB when classes were merged,
    # at 12.0 MiB when each term's entries were found for all blocks at once,
    # and at 10.4 MiB when each block built its int64 cycle basis
    A = upper_triangular(F3, 3)
    tracemalloc.start()
    try:
        homology(A, 4)
        cohomology(A, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4.5 * 2**20, peak


def test_differential_matrices_are_read_only_int64():
    # the narrow buffer a block is built in never leaves the module
    TA = trivial_extension(dual_numbers(F3)).algebra
    for M in (boundary_matrix(TA, 3), coboundary_matrix(TA, 2)):
        assert M.data.dtype == np.int64 and not M.data.flags.writeable
        with pytest.raises(ValueError):
            M.data[0, 0] = 1


def test_negative_degrees_are_value_errors():
    A = dual_numbers(F3)
    calls = (
        lambda: chain_dim(A, -1),
        lambda: cochain_dim(A, -1),
        lambda: homology(A, -1),
        lambda: cohomology(A, -1),
        lambda: Cochain(A, -1, [0, 1]),
        lambda: kappa_hat(A, -1, 1),
    )
    for call in calls:
        with pytest.raises(ValueError, match="is negative"):
            call()


def test_homology_assembles_only_the_representatives(monkeypatch):
    # no (k, n) cycles or boundaries array is built until one is read, and a
    # read assembles it anew
    assembled, assemble = [], hochschild._assemble

    def spy(n, parts):
        assembled.append(assemble(n, parts))
        return assembled[-1]

    monkeypatch.setattr(hochschild, "_assemble", spy)
    for A, top, _ in _graded_algebras():
        for m in range(top + 1):
            for H in (homology, cohomology):
                assembled.clear()
                hb = H(A, m)
                assert [out[0] is hb.representatives for out in assembled] == [True]
                assert hb.cycles is not hb.cycles and len(assembled) == 3


def _global_express(hb, v):
    """`HomologyBasis.express` by a reduction against the assembled global
    boundaries, or None for a row that is not a cycle."""
    F, reps = hb.field, hb.representatives
    w = hb.boundaries.reduce(v)
    coords = w[..., [np.flatnonzero(r)[0] for r in reps]]
    return None if F.vsub(w, F.mat_mul(coords, reps)).any() else coords


def test_block_express_matches_global_reduction():
    rng = np.random.default_rng(31)
    for A, top, _ in _graded_algebras():
        q = A.field.q
        for m in range(top + 1):
            for hb in (homology(A, m), cohomology(A, m)):
                Z, n = hb.cycles, hb.representatives.shape[1]
                for k in (0, 1, 5):
                    V = Z.lift(rng.integers(0, q, (k, Z.dim)))
                    assert np.array_equal(hb.express(V), _global_express(hb, V))
                    if Z.dim < n and k:
                        V[-1] = rng.integers(0, q, n)
                        while Z.contains_vector(V[-1]):
                            V[-1] = rng.integers(0, q, n)
                        assert _global_express(hb, V) is None
                        with pytest.raises(NotACycle):
                            hb.express(V)


def test_block_rows_are_narrow_and_match_whole_matrix():
    # each block stores its boundary rows in the narrowest unsigned type that
    # holds a scalar index; express and the assembled boundaries agree with
    # the whole differentials reduced as one int64-assembled block
    rng = np.random.default_rng(37)
    for F, narrow in ((F2, np.uint8), (F3, np.uint8), (F4, np.uint8), (F9, np.uint8),
                      (FiniteField(2**31 - 1), np.uint32)):
        assert np.min_scalar_type(F.q - 1) == narrow
        A = trivial_extension(dual_numbers(F)).algebra
        for m in range(4):
            for cochains, H in ((False, homology), (True, cohomology)):
                got, want = H(A, m), _whole_matrix_homology(A, m, cochains)
                assert all(rows.dtype == narrow for _, rows, _ in got.blocks + want.blocks)
                assert got.boundaries == want.boundaries, (F, m, H.__name__)
                Z, n = got.cycles, got.representatives.shape[1]
                V = Z.lift(rng.integers(0, F.q, (4, Z.dim)))
                assert np.array_equal(got.express(V), want.express(V)), (F, m, H.__name__)
                assert np.array_equal(got.express(V[0]), want.express(V[0]))
                if Z.dim < n:
                    V[-1] = rng.integers(0, F.q, n)
                    while Z.contains_vector(V[-1]):
                        V[-1] = rng.integers(0, F.q, n)
                    for hb in (got, want):
                        with pytest.raises(NotACycle):
                            hb.express(V)


def test_grading_ranks():
    for A, _, rank in _graded_algebras():
        assert {len(w) for w in _grading(A)} == {rank}, (A.field, A.dim)
    assert {len(w) for w in _grading(truncated_polynomial(F5, 5))} == {1}
    # no grading survives a dense basis change: one block in every degree
    for A in (
        _dense_basis(trivial_extension(dual_numbers(F3)).algebra, 43),
        _dense_basis(upper_triangular(F5, 2), 42),
    ):
        assert _grading(A) == [()] * A.dim
        for cochains in (False, True):
            classes = _weight_classes(A, 4, cochains)
            assert [len(classes(m)) for m in range(5)] == [1] * 5


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_rescaled_monomial_basis_keeps_its_weights(data):
    # e_i -> s_i e_i, s_0 = 1, keeps the unit and the nonzero pattern of c
    F = data.draw(st.sampled_from([F3, F4, F5, F9]), label="field")
    build = data.draw(st.sampled_from(range(4)), label="algebra")
    A = (
        trivial_extension(dual_numbers(F)).algebra,
        upper_triangular(F, 3),
        full_matrix_algebra(F, 2),
        truncated_polynomial(F, 4),
    )[build]
    s = np.array([1] + [data.draw(st.integers(1, F.q - 1)) for _ in range(A.dim - 1)])
    inv = np.array([F.inv(int(x)) for x in s])
    scale = F.vmul(F.vmul(s[:, None, None], s[None, :, None]), inv[None, None, :])
    B = Algebra(F, A.labels, F.vmul(scale, A.const))
    assert algebra_validate(B).ok
    W = _grading(B)
    assert W == _grading(A) and len(W[0]) >= 1
    for i, j, k in zip(*np.nonzero(B.const)):
        assert W[k] == tuple(a + b for a, b in zip(W[i], W[j]))


def test_graded_homology_eliminates_no_whole_differential(monkeypatch):
    # b_5 of T(k[eps]) is 324 x 972 and b_6 is 972 x 2916; the widest weight
    # class of 972 chains or cochains in degree 5 has 110
    TA = trivial_extension(dual_numbers(F3)).algebra
    widths = []
    rref = fieldlin._rref
    monkeypatch.setattr(fieldlin, "_rref", lambda F, R: widths.append(R.shape[1]) or rref(F, R))
    for H in (homology, cohomology):
        widths.clear()
        H(TA, 5)
        assert max(widths) == 110, H.__name__


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
            up = hh_of_map(te.iota, m)
            down = hh_of_map(te.pi, m)
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


def test_cochain_checks_its_coefficients():
    A, B = dual_numbers(F4), dual_numbers(F3)
    # an extension-field index out of range names no element
    for bad in ([-1, 0], [7, 0]):
        with pytest.raises(FieldMismatch):
            cup_product(Cochain(A, 0, bad), Cochain.unit(A))
    # prime-field coefficients are reduced mod p
    assert Cochain(B, 0, [-1, 0]) == Cochain(B, 0, [2, 0])
    with pytest.raises(DimensionMismatch):
        Cochain(A, 1, [1, 2, 3])


def test_cochains_over_different_algebras_differ():
    assert Cochain(dual_numbers(F3), 1, [1, 0]) != Cochain(dual_numbers(F5), 1, [1, 0])
    # one algebra built twice is the same algebra
    assert Cochain(dual_numbers(F3), 1, [1, 0]) == Cochain(dual_numbers(F3), 1, [1, 0])


def test_algebras_compare_by_content():
    # two loads of one corpus file are one algebra; a change of field, of one
    # label or of one structure constant makes another
    path = os.path.join(os.path.dirname(__file__), "..", "corpus", "ut2_f3.json")

    def load():
        with open(path) as fh:
            return algebra_from_json(json.load(fh))

    A, B = load(), load()
    assert A is not B
    f = np.arange(cochain_dim(A, 1)) % 3
    assert Cochain(A, 1, f) == Cochain(B, 1, f)
    assert cup_product(Cochain(A, 1, f), Cochain.unit(B)) == Cochain(B, 1, f)
    composite = identity_morphism(A).compose(identity_morphism(B))
    assert composite.source is B and composite.target is A
    assert composite.matrix == Matrix.identity(F3, A.dim)
    const = A.const.copy()
    const[1, 1, 0] = (const[1, 1, 0] + 1) % 3
    others = [
        Algebra(F5, A.labels, A.const),
        Algebra(F3, ("x",) + A.labels[1:], A.const),
        Algebra(F3, A.labels, const),
    ]
    for C in others:
        assert Cochain(A, 1, f) != Cochain(C, 1, f)
        with pytest.raises(DimensionMismatch):
            identity_morphism(A).compose(identity_morphism(C))


def test_cochain_owns_its_coefficients():
    A = dual_numbers(F3)
    a = np.array([1, 0])
    f = Cochain(A, 0, a)
    a[0] = 2
    assert f.coeffs.tolist() == [[1, 0]]
    for view in (f.coeffs, f.flat()):
        with pytest.raises(ValueError):
            view[0] = 2


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
    for A in (field_algebra(F), *_apply_algebras(F)):  # d = 1: reduced slots of size 0
        for m in range(1, 5):
            for k in (0, 3):
                X = _random_block(F, k, chain_dim(A, m), rng)
                got = boundary_apply(A, m, X)
                want = F.mat_mul(X, boundary_matrix(A, m).data.T)
                assert got.shape == (k, chain_dim(A, m - 1))
                assert np.array_equal(got, want), (F, A.dim, m, k)


def test_coboundary_apply_matches_matrix():
    # the boundary test's fields and algebras, and two corpus algebras: blocks
    # of rows through _apply, single cochains through coboundary_apply
    rng = np.random.default_rng(9)
    grid = [A for F in APPLY_FIELDS for A in (field_algebra(F), *_apply_algebras(F))]
    for A in grid + [CORPUS["dual_f3"], CORPUS["ut2_f2"]]:
        F = A.field
        for m in range(5):
            delta = coboundary_matrix(A, m).data
            for k in (0, 3):
                X = _random_block(F, k, cochain_dim(A, m), rng)
                got = hochschild._apply(F, hochschild._coboundary_terms(A, m), X)
                assert got.shape == (k, cochain_dim(A, m + 1))
                assert np.array_equal(got, F.mat_mul(X, delta.T)), (F, A.dim, m, k)
            f = Cochain(A, m, _random_block(F, 1, cochain_dim(A, m), rng)[0])
            assert np.array_equal(coboundary_apply(f).flat(), F.mat_mul(delta, f.flat()))


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
