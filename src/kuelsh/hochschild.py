"""Normalized bar complex: homology, cohomology, induced maps, cup products
and the chain-level duality pairing for symmetric algebras.

Chains in degree m are spanned by tuples (i_0, i_1, ..., i_m) with i_0 any
basis index and i_1..i_m in 1..d-1 (the reduced part excludes the unit line),
ordered lexicographically; the chain space has dimension d(d-1)^m.  Cochains
of degree m are coefficient tensors of shape (d-1)^m x d encoding multilinear
maps on the reduced algebra with values in A.

The boundary and coboundary matrices are built only for elimination, term
by term: each term of the differential is a product of two neighbouring
slots, which `np.einsum` exposes as a writeable diagonal view of the zero
matrix (the unchanged slots are repeated labels), and only the nonzero
structure constants are added onto it.  They are the largest arrays the
program allocates, so each is built when `homology` or `cohomology` needs it
and not kept: it is dropped once its elimination is done.

Everything applied to given chains or cochains (boundary, chain maps,
coboundary, cup product, pairing vector, Gram matrix) is slot contractions:
the block is reshaped so that the slot being multiplied is one matrix axis,
contracted with the structure constants in one `FiniteField.mat_mul`, and
reshaped back.  Each operation is a fixed number of such products, exact over
prime and extension fields alike.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .algebra import BilinearForm
from .errors import (
    AlgebraMismatch,
    NotACocycle,
    NotACycle,
    NotUnital,
)
from .fieldlin import Matrix, Subspace, _as_rows, row_reduce


def chain_dim(A, m):
    return A.dim * (A.dim - 1) ** m


def cochain_dim(A, m):
    return (A.dim - 1) ** m * A.dim


def _add_term(F, out, shape, spec, values, sign):
    """Add sign * values onto the diagonal view np.einsum(spec, out.reshape(shape)).

    The view's leading axes are the identity labels and its last axes index
    `values`; only nonzero values are written, and no two land on one entry.
    """
    view = np.einsum(spec, out.reshape(shape))
    at = (Ellipsis, *np.nonzero(values))
    view[at] = (F.vadd if sign > 0 else F.vsub)(view[at], values[at[1:]])


def _slot_mul(F, M, x, before, after):
    """M applied to the middle axis of x viewed as (before, M.shape[1], after),
    as one mat_mul; the result has shape (before, M.shape[0], after)."""
    rows, cols = M.shape
    x = x.reshape(before, cols, after).transpose(1, 0, 2).reshape(cols, before * after)
    return F.mat_mul(M, x).reshape(rows, before, after).transpose(1, 0, 2)


def _disk_cache_path(A, kind, m):
    # There is no disk cache.  bench/tracer.py's build probe calls this by
    # name; the stub goes when spans inside the library replace that tracer
    # (ROADMAP item 4).
    return None


def boundary_matrix(A, m):
    """The bar boundary from degree m to degree m-1 (m >= 1); b o b = 0."""
    if m < 1:
        raise ValueError("boundary needs m >= 1")
    F, d, c = A.field, A.dim, A.const
    n, rest = d - 1, (d - 1) ** (m - 1)
    out = np.zeros((chain_dim(A, m - 1), chain_dim(A, m)), dtype=np.int64)
    # (a_0 a_1) (x) a_2 .. a_m, the whole product
    _add_term(F, out, (d, rest, d, n, rest), "trxyr->rtxy", c[:, 1:].transpose(2, 0, 1), 1)
    # (-1)^i .. (x) a_i a_{i+1} (x) .., inner slots drop the unit component
    inner = c[1:, 1:, 1:].transpose(2, 0, 1)
    for i in range(1, m):
        before, after = d * n ** (i - 1), n ** (m - i - 1)
        shape = (before, n, after, before, n, n, after)
        _add_term(F, out, shape, "btpbxyp->bptxy", inner, (-1) ** i)
    # cyclic term: (-1)^m (a_m a_0) (x) a_1 .. a_{m-1}
    _add_term(F, out, (d, rest, d, rest, n), "tjxjy->jtxy", c[1:].transpose(2, 1, 0), (-1) ** m)
    return Matrix(F, out, copy=False)


def boundary_apply(A, m, X):
    """The bar boundary of each row of a (k, chain_dim(A, m)) block, m >= 1:
    X @ boundary_matrix(A, m).T as m + 1 slot contractions."""
    if m < 1:
        raise ValueError("boundary needs m >= 1")
    F, d, c = A.field, A.dim, A.const
    X = _as_rows(F, X, chain_dim(A, m), ndim=2)
    n, k, rest = d - 1, len(X), (d - 1) ** (m - 1)
    shape = (k, chain_dim(A, m - 1))
    # (a_0 a_1) (x) a_2 .. a_m, the whole product
    acc = _slot_mul(F, c[:, 1:].reshape(d * n, d).T, X, k, rest).reshape(shape)
    # (-1)^i .. (x) a_i a_{i+1} (x) .., inner slots drop the unit component
    inner = c[1:, 1:, 1:].reshape(n * n, n).T
    for i in range(1, m):
        term = _slot_mul(F, inner, X, k * d * n ** (i - 1), n ** (m - i - 1)).reshape(shape)
        acc = F.vsub(acc, term) if i % 2 else F.vadd(acc, term)
    # cyclic term: (-1)^m (a_m a_0) (x) a_1 .. a_{m-1}
    x = X.reshape(k, d, rest, n).transpose(0, 3, 1, 2)
    term = _slot_mul(F, c[1:].reshape(n * d, d).T, x, k, rest).reshape(shape)
    return F.vsub(acc, term) if m % 2 else F.vadd(acc, term)


def coboundary_matrix(A, m):
    """The Hochschild coboundary from degree-m to degree-(m+1) cochains."""
    if m < 0:
        raise ValueError("coboundary needs m >= 0")
    F, d, c = A.field, A.dim, A.const
    n, rows = d - 1, (d - 1) ** m
    out = np.zeros((cochain_dim(A, m + 1), cochain_dim(A, m)), dtype=np.int64)
    # a_0 . f(a_1, .., a_m)
    _add_term(F, out, (n, rows, d, rows, d), "ajtjk->jatk", c[1:].transpose(0, 2, 1), 1)
    # (-1)^i f(.., a_{i-1} a_i, ..), reduced part of the product
    for i in range(1, m + 1):
        before, after = n ** (i - 1), n ** (m - i)
        shape = (before, n, n, after, d, before, n, after, d)
        _add_term(F, out, shape, "bxypkbzpk->bpkxyz", c[1:, 1:, 1:], (-1) ** i)
    # (-1)^(m+1) f(a_0, .., a_{m-1}) . a_m
    shape = (rows, n, d, rows, d)
    _add_term(F, out, shape, "jbtjk->jbtk", c[:, 1:].transpose(1, 2, 0), (-1) ** (m + 1))
    return Matrix(F, out, copy=False)


# -- cochains and cup products ------------------------------------------------


class Cochain:
    """Multilinear map on the reduced algebra, stored as a coefficient tensor."""

    __slots__ = ("algebra", "degree", "coeffs")

    def __init__(self, algebra, degree, coeffs):
        coeffs = np.asarray(coeffs, dtype=np.int64).reshape(
            (algebra.dim - 1) ** degree, algebra.dim
        )
        self.algebra = algebra
        self.degree = degree
        self.coeffs = coeffs

    @classmethod
    def from_flat(cls, algebra, degree, flat):
        return cls(algebra, degree, np.asarray(flat, dtype=np.int64))

    @classmethod
    def unit(cls, algebra):
        return cls(algebra, 0, algebra.unit())

    def flat(self):
        return self.coeffs.reshape(-1)

    def is_zero(self):
        return not self.coeffs.any()

    def __eq__(self, other):
        return (
            isinstance(other, Cochain)
            and self.degree == other.degree
            and np.array_equal(self.coeffs, other.coeffs)
        )


def cup_product(f, g):
    """(f cup g)(args) = f(front) . g(back); strictly associative on cochains."""
    if f.algebra is not g.algebra and f.algebra.content_hash() != g.algebra.content_hash():
        raise AlgebraMismatch("cup product needs cochains over one algebra")
    A = f.algebra
    F, d, c = A.field, A.dim, A.const
    # t[I, b, k]: f(I) . e_b, then out[I, J, k] = sum_b g(J)_b t[I, b, k]
    t = F.mat_mul(f.coeffs, c.reshape(d, d * d))
    out = _slot_mul(F, g.coeffs, t, f.coeffs.shape[0], d)
    return Cochain(A, f.degree + g.degree, out)


def cup_power(f, e):
    """e-th cup power by iterated squaring; e >= 1."""
    if e < 1:
        raise ValueError("cup powers need e >= 1")
    out = None
    base = f
    while e:
        if e & 1:
            out = base if out is None else cup_product(out, base)
        e >>= 1
        if e:
            base = cup_product(base, base)
    return out


def coboundary_apply(f):
    """Apply the coboundary to one cochain directly (no matrix build).

    (df)(a_0, .., a_m) = a_0 f(a_1, ..) + sum_i (-1)^i f(.., a_{i-1} a_i, ..)
    + (-1)^(m+1) f(a_0, .., a_{m-1}) a_m, one contraction per term.
    """
    A = f.algebra
    F, d, c = A.field, A.dim, A.const
    m, n, fc = f.degree, A.dim - 1, f.coeffs
    rows = n**m
    # a_0 . f(J'): [J', a, k] reordered to [a, J', k]
    left = F.mat_mul(fc, c[1:].transpose(1, 0, 2).reshape(d, n * d))
    acc = left.reshape(rows, n, d).transpose(1, 0, 2).reshape(n * rows, d)
    # reduced part of a_{i-1} a_i, as rows (x, y) and columns t
    prod = c[1:, 1:, 1:].reshape(n * n, n)
    for i in range(1, m + 1):
        term = _slot_mul(F, prod, fc, n ** (i - 1), n ** (m - i) * d).reshape(n * rows, d)
        acc = F.vsub(acc, term) if i % 2 else F.vadd(acc, term)
    # f(J') . a_m: [J', b, k] is already in row order
    right = F.mat_mul(fc, c[:, 1:].reshape(d, n * d)).reshape(n * rows, d)
    acc = F.vsub(acc, right) if (m + 1) % 2 else F.vadd(acc, right)
    return Cochain(A, m + 1, acc)


# -- homology -------------------------------------------------------------------


@dataclass
class HomologyBasis:
    degree: int
    representatives: tuple  # vectors in the chain (or cochain) space
    cycles: Subspace
    boundaries: Subspace

    @property
    def dimension(self):
        return len(self.representatives)

    @property
    def block(self):
        """The representatives as one (dimension, n) block of rows."""
        n = self.cycles.ambient_dim
        return np.array(self.representatives, dtype=np.int64).reshape(self.dimension, n)

    def express(self, v):
        """Coordinates of a cycle's class in this basis, or of each row's class
        for a (k, n) block of cycles.

        The representatives are in RREF and reduced modulo the boundaries, so
        the class of v is w = boundaries.reduce(v), and its coordinates are w
        read at the representatives' pivots.
        """
        F, reps = self.cycles.field, self.block
        w = self.boundaries.reduce(v)
        coords = w[..., [np.flatnonzero(r)[0] for r in reps]]
        if F.vsub(w, F.mat_mul(coords, reps)).any():
            raise NotACycle("vector is not a cycle modulo boundaries")
        return coords


def _homology_basis(F, m, n, outgoing, incoming):
    """Degree-m homology on an n-dimensional space: cycles are the kernel of
    outgoing(), boundaries the row space of incoming() transposed, built in
    that order (None is a zero map), representatives the quotient basis.
    Each matrix is dropped once reduced, so the two never coexist."""
    cycles = Subspace.full(F, n) if outgoing is None else row_reduce(outgoing()).kernel
    boundaries = Subspace(F, n) if incoming is None else Subspace(F, n, incoming().data.T)
    reps = cycles.quotient_basis(boundaries)
    return HomologyBasis(m, tuple(row for row in reps.data), cycles, boundaries)


def homology(A, m):
    """HH_m via the normalized bar complex, with canonical representatives."""
    key = ("homology", m)
    if key not in A._cache:
        outgoing = partial(boundary_matrix, A, m) if m else None
        incoming = partial(boundary_matrix, A, m + 1)
        A._cache[key] = _homology_basis(A.field, m, chain_dim(A, m), outgoing, incoming)
    return A._cache[key]


def cohomology(A, m):
    """HH^m via normalized cochains, with canonical representatives."""
    key = ("cohomology", m)
    if key not in A._cache:
        outgoing = partial(coboundary_matrix, A, m)
        incoming = partial(coboundary_matrix, A, m - 1) if m else None
        A._cache[key] = _homology_basis(A.field, m, cochain_dim(A, m), outgoing, incoming)
    return A._cache[key]


# -- functoriality ---------------------------------------------------------------


def chain_map_apply(theta, m, X):
    """The degree-m chain map of a unital morphism theta on each row of a
    (k, chain_dim(source, m)) block: theta on slot 0, and theta_bar, the
    block of theta on the reduced parts, on slots 1..m."""
    A, B, M = theta.source, theta.target, theta.matrix
    if not np.array_equal(M @ A.unit(), B.unit()):
        raise NotUnital("induced chain maps need a unital morphism")
    F, nA, nB = B.field, A.dim - 1, B.dim - 1
    X = _as_rows(F, X, chain_dim(A, m), ndim=2)
    k = len(X)
    Y = _slot_mul(F, M.data, X, k, nA**m)
    for i in range(1, m + 1):
        Y = _slot_mul(F, M.data[1:, 1:], Y, k * B.dim * nB ** (i - 1), nA ** (m - i))
    return Y.reshape(k, chain_dim(B, m))


def induced_chain_map(theta, m):
    """Chain map of the normalized bar complexes for a unital morphism."""
    eye = np.eye(chain_dim(theta.source, m), dtype=np.int64)
    return Matrix(theta.target.field, chain_map_apply(theta, m, eye).T)


def hh_of_map(theta, m, source_basis=None, target_basis=None):
    """The induced map on degree-m homology, on the canonical bases."""
    A, B = theta.source, theta.target
    src = source_basis if source_basis is not None else homology(A, m)
    tgt = target_basis if target_basis is not None else homology(B, m)
    images = chain_map_apply(theta, m, src.block)  # one row per rep
    if m >= 1 and boundary_apply(B, m, images).any():
        raise NotACycle("induced image of a cycle is not a cycle")
    return Matrix(B.field, tgt.express(images).T, copy=False)


# -- duality pairing ---------------------------------------------------------------


def _pairing_rows(form, m, cochains):
    """The pairing vector of each row of a (k, cochain_dim(A, m)) block of
    degree-m cochain coefficients, for the form <a, b> = lam(a b) on A.

    w[(i, J)] = lam(f(J) e_i) = sum_k f(J)_k G[k, i] with G[k, i] = lam(e_k e_i).
    """
    gram, d = form.gram.data, form.gram.rows
    cochains = np.asarray(cochains, dtype=np.int64)
    k, rows = len(cochains), (d - 1) ** m
    prod = form.field.mat_mul(cochains.reshape(k * rows, d), gram)
    return prod.reshape(k, rows, d).transpose(0, 2, 1).reshape(k, d * rows)


def pairing_vector(lam, f):
    """w with <f, c> = w . c for every chain c of f's degree."""
    form = BilinearForm.from_linear_form(f.algebra, lam)
    return _pairing_rows(form, f.degree, f.coeffs[None])[0]


def pairing(lam, f, c):
    """Chain-level duality pairing <f, a_0 (x) args> = lam(f(args) . a_0)."""
    A = f.algebra
    c = _as_rows(A.field, c, chain_dim(A, f.degree), ndim=1)
    if not coboundary_apply(f).is_zero():
        raise NotACocycle("pairing needs a cocycle")
    if f.degree >= 1 and boundary_apply(A, f.degree, c[None]).any():
        raise NotACycle("pairing needs a cycle")
    return A.field.vdot(pairing_vector(lam, f), c)


def gram_matrix(A, lam, m):
    """Pairing of cohomology and homology representatives; invertible iff the
    degree-m duality is nondegenerate on the chosen bases."""
    W = _pairing_rows(BilinearForm.from_linear_form(A, lam), m, cohomology(A, m).block)
    return Matrix(A.field, A.field.mat_mul(W, homology(A, m).block.T), copy=False)
