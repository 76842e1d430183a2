"""Normalized bar complex: homology, cohomology, induced maps, cup products
and the chain-level duality pairing for symmetric algebras.

Chains in degree m are spanned by tuples (i_0, i_1, ..., i_m) with i_0 any
basis index and i_1..i_m in 1..d-1 (the reduced part excludes the unit line),
ordered lexicographically; the chain space has dimension d(d-1)^m.  Cochains
of degree m are coefficient tensors of shape (d-1)^m x d encoding multilinear
maps on the reduced algebra with values in A.

Homology is computed one weight block at a time.  Integer weights w of the
basis with w_0 = 0 and w_k = w_i + w_j wherever c[i,j,k] != 0 (a free
grading, found by an exact integer nullspace) give a chain (i_0, .., i_m)
the weight sum w_{i_t} and a cochain (J, k) the weight w_k - sum w_J, and
every differential preserves it: it maps each weight class into the class
of the same weight in the next degree.  `homology` and `cohomology` split
the degree-m space into its weight classes and, in one loop over them,
reduce only the blocks of the outgoing and incoming maps on each.  Each
map's nonzero entries are made once, a few thousand columns at a time, and
dealt to the classes (`_dealt`); a dense basis has one class, which gets
them all.  A block that `sparse._sparse` picks, small or with few entries a
row, is reduced as sparse rows (`sparse._rref_rows`), and any other is
filled from its entries into a buffer of the narrowest integer type in
which its elimination is exact (see `fieldlin`).
No cycle basis is built: a block's representatives are read off the
right-to-left echelon form of its outgoing map, and one product checks that
its boundaries are cycles.  A `HomologyBasis` keeps each block's boundary
RREF in the block's own coordinates, one byte an entry up to q = 256, and
lays out only the representatives in F^n, with their pivots; the cycles,
their span, are derived.  The blocks' RREFs have disjoint supports, so the
global boundaries, their union sorted by pivot and the RREF of the whole
differential, are assembled as int64 only on request.  `boundary_matrix`
and `coboundary_matrix` fill the whole differential from the same dealt
entries, as one class of all columns, and return it as an int64 `Matrix`.

The boundary b and the coboundary delta are defined once, by the terms
`_boundary_terms` and `_coboundary_terms` yield.  One list of a
differential's terms, made once per call, feeds `_dealt`, which finds
each term's nonzero entries by `_entries`, and `_apply`, which
acts on a block of rows with one `FiniteField.mat_mul` per term.  Chain maps, cup products,
pairing vectors and Gram matrices are slot contractions: the block is
reshaped so that the slot being multiplied is one matrix axis, contracted
with the structure constants in one mat_mul, and reshaped back.  All of it
is exact over prime and extension fields alike.
"""

from __future__ import annotations

import math

import numpy as np

from . import fieldlin
from .algebra import BilinearForm
from .errors import (
    AlgebraMismatch, DimensionMismatch, NotACocycle, NotACycle, NotASubspace, NotUnital,
)
from .fieldlin import (
    Matrix, Subspace, _as_rows, _elimination_dtype, _entry_rows, _in_range, _indices, _null_rows,
    _power, _rref_right, _rref_rows,
)


def chain_dim(A, m):
    if m < 0:
        raise ValueError(f"degree {m} is negative")
    return A.dim * (A.dim - 1) ** m


cochain_dim = chain_dim  # (d-1)^m x d coefficients: as many as chains


def _labels(spec):
    """A term spec "COLS>ROWS:VALUES" as COLS, ROWS, the labels of COLS that
    the values read and the labels they add.

    A column index is the mixed-radix number with digits labelled COLS, a row
    index the one labelled ROWS.  The term's values have axes VALUES: first
    labels of COLS, which the term sums over, then labels only ROWS has.  A
    column sends each value to the row made of its own digits on the labels
    both share and the value's on the rest.
    """
    col_axes, row_axes, val_axes = spec.replace(">", ":").split(":")
    key = [a for a in val_axes if a in col_axes]
    return col_axes, row_axes, key, list(val_axes[len(key) :])


def _entries(cols, spec, sizes, values):
    """The nonzero entries of one term (see `_labels`; label a has size
    sizes[a]) of a differential in the columns `cols`: (position in cols, row
    index, value), by position; no two land on one entry."""
    col_axes, row_axes, key, new = _labels(spec)
    digit = dict(zip(col_axes, np.unravel_index(cols, [sizes[a] for a in col_axes])))
    vals = values[tuple(digit[a] for a in key)].reshape(len(cols), math.prod(sizes[a] for a in new))
    at, o = np.nonzero(vals)
    digit = {a: digit[a][at] for a in row_axes if a in digit}
    digit.update(zip(new, np.unravel_index(o, [sizes[a] for a in new])))
    row = np.ravel_multi_index([digit[a] for a in row_axes], [sizes[a] for a in row_axes])
    return at, row, vals[at, o]


def _apply(F, terms, X):
    """X @ D.T for a (k, cols) block X and the differential D whose terms
    (see `_labels`) `terms` yields: per term, the digits of X's columns that
    the values read are moved last, contracted with the values in one
    mat_mul, and the product's digits put in row order."""
    k, acc = len(X), 0  # the scalar 0 broadcasts in vadd and vsub
    for spec, sizes, values, sign in terms:
        col_axes, row_axes, key, new = _labels(spec)
        keep = [a for a in col_axes if a not in key]
        width, inner, outer = (math.prod(sizes[a] for a in axes) for axes in (keep, key, new))
        x = X.reshape(k, *(sizes[a] for a in col_axes))
        x = x.transpose(0, *(1 + col_axes.index(a) for a in keep + key)).reshape(k * width, inner)
        y = F.mat_mul(x, values.reshape(inner, outer)).reshape(k, *(sizes[a] for a in keep + new))
        y = y.transpose(0, *(1 + (keep + new).index(a) for a in row_axes))
        y = y.reshape(k, math.prod(sizes[a] for a in row_axes))
        acc = F.vadd(acc, y) if sign > 0 else F.vsub(acc, y)
    return acc


def _boundary_terms(A, m):
    """The terms of the bar boundary b_m, m >= 1, for `_dealt` and `_apply`."""
    d, c, n = A.dim, A.const, A.dim - 1
    rest = n ** (m - 1)
    # (a_0 a_1) (x) a_2 .. a_m, the whole product
    yield "xyr>tr:xyt", dict(x=d, y=n, r=rest, t=d), c[:, 1:], 1
    # (-1)^i .. (x) a_i a_{i+1} (x) .., inner slots drop the unit component
    for i in range(1, m):
        sizes = dict(b=d * n ** (i - 1), x=n, y=n, p=n ** (m - i - 1), t=n)
        yield "bxyp>btp:xyt", sizes, c[1:, 1:, 1:], (-1) ** i
    # cyclic term: (-1)^m (a_m a_0) (x) a_1 .. a_{m-1}
    yield "xjy>tj:yxt", dict(x=d, j=rest, y=n, t=d), c[1:], (-1) ** m


def _coboundary_terms(A, m):
    """The terms of the Hochschild coboundary delta_m, m >= 0, for `_dealt`
    and `_apply`; a cochain index is (J, k), the value's coordinate k at the
    arguments J."""
    d, c, n = A.dim, A.const, A.dim - 1
    # a_0 . f(a_1, .., a_m)
    yield "jk>ajt:kat", dict(j=n**m, k=d, a=n, t=d), c[1:].transpose(1, 0, 2), 1
    # (-1)^i f(.., a_{i-1} a_i, ..), reduced part of the product
    for i in range(1, m + 1):
        sizes = dict(b=n ** (i - 1), z=n, p=n ** (m - i), k=d, x=n, y=n)
        yield "bzpk>bxypk:zxy", sizes, c[1:, 1:, 1:].transpose(2, 0, 1), (-1) ** i
    # (-1)^(m+1) f(a_0, .., a_{m-1}) . a_m
    yield "jk>jbt:kbt", dict(j=n**m, k=d, b=n, t=d), c[:, 1:], (-1) ** (m + 1)


def _slot_mul(F, M, x, before, after):
    """M applied to the middle axis of x viewed as (before, M.shape[1], after),
    as one mat_mul; the result has shape (before, M.shape[0], after)."""
    rows, cols = M.shape
    x = x.reshape(before, cols, after).transpose(1, 0, 2).reshape(cols, before * after)
    return F.mat_mul(M, x).reshape(rows, before, after).transpose(1, 0, 2)


def _addressable(rows, cols, dtype):
    """Raise MemoryError for a rows x cols array of dtype whose byte count
    numpy cannot even represent, where numpy would raise ValueError."""
    dtype = np.dtype(dtype)
    if rows * cols * dtype.itemsize > np.iinfo(np.intp).max:
        raise MemoryError(f"cannot allocate a {rows} x {cols} {dtype} matrix")
    return dtype


def _zeros(rows, cols, dtype):
    """A zero matrix of the integer type dtype, if addressable."""
    return np.zeros((rows, cols), dtype=_addressable(rows, cols, dtype))


def _disk_cache_path(A, kind, m):
    # There is no disk cache.  bench/tracer.py's build probe calls this by
    # name; the stub goes when spans inside the library replace that tracer.
    return None


def _whole(A, terms, m, rows, cols):
    """The whole rows x cols differential as an int64 Matrix, filled from its
    entries as `_dealt` deals them to one class of all columns; out of memory
    before any index array when numpy cannot address it."""
    out = _zeros(rows, cols, np.int64)
    if out.size:
        j, i, v = _dealt(A.field, list(terms(A, m)), {0: np.arange(cols)}, np.arange(rows))[0]
        out[i, j] = v
    return Matrix(A.field, out, copy=False)


def boundary_matrix(A, m):
    """The bar boundary from degree m to degree m-1 (m >= 1); b o b = 0."""
    if m < 1:
        raise ValueError("boundary needs m >= 1")
    return _whole(A, _boundary_terms, m, chain_dim(A, m - 1), chain_dim(A, m))


def boundary_apply(A, m, X):
    """The bar boundary of each row of a (k, chain_dim(A, m)) block, m >= 1:
    X @ boundary_matrix(A, m).T, one mat_mul per term."""
    if m < 1:
        raise ValueError("boundary needs m >= 1")
    return _apply(A.field, _boundary_terms(A, m), _as_rows(A.field, X, chain_dim(A, m), ndim=2))


def coboundary_matrix(A, m):
    """The Hochschild coboundary from degree-m to degree-(m+1) cochains."""
    if m < 0:
        raise ValueError("coboundary needs m >= 0")
    return _whole(A, _coboundary_terms, m, cochain_dim(A, m + 1), cochain_dim(A, m))


# -- cochains and cup products ------------------------------------------------


class Cochain:
    """Multilinear map on the reduced algebra, stored as a coefficient tensor."""

    __slots__ = ("algebra", "degree", "coeffs")

    def __init__(self, algebra, degree, coeffs):
        coeffs = _in_range(algebra.field, _indices(coeffs, copy=True))  # a copy it owns
        if coeffs.size != cochain_dim(algebra, degree):
            raise DimensionMismatch(f"degree-{degree} cochain coefficients of shape {coeffs.shape}")
        coeffs.setflags(write=False)
        self.algebra = algebra
        self.degree = degree
        self.coeffs = coeffs.reshape((algebra.dim - 1) ** degree, algebra.dim)

    @classmethod
    def from_flat(cls, algebra, degree, flat):
        return cls(algebra, degree, flat)

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
            and self.algebra.same_as(other.algebra)
            and self.degree == other.degree
            and np.array_equal(self.coeffs, other.coeffs)
        )


def cup_product(f, g):
    """(f cup g)(args) = f(front) . g(back); strictly associative on cochains."""
    if not f.algebra.same_as(g.algebra):
        raise AlgebraMismatch("cup product needs cochains over one algebra")
    A = f.algebra
    F, d, c = A.field, A.dim, A.const
    # t[I, b, k]: f(I) . e_b, then out[I, J, k] = sum_b g(J)_b t[I, b, k]
    t = F.mat_mul(f.coeffs, c.reshape(d, d * d))
    out = _slot_mul(F, g.coeffs, t, f.coeffs.shape[0], d)
    return Cochain(A, f.degree + g.degree, out)


def cup_power(f, e):
    """e-th cup power by repeated squaring; e >= 1."""
    return _power(cup_product, f, e)


def coboundary_apply(f):
    """The coboundary of one cochain, one mat_mul per term of delta, without
    building coboundary_matrix."""
    A, m = f.algebra, f.degree
    return Cochain(A, m + 1, _apply(A.field, _coboundary_terms(A, m), f.flat()[None])[0])


# -- homology -------------------------------------------------------------------


class HomologyBasis:
    """Canonical homology basis in degree m of an n-dimensional space.

    `blocks` holds one (idx, rows, pivots) triple per weight block: the RREF
    of the block's boundaries on its coordinates idx, stored in the narrowest
    unsigned type that holds a scalar index, and their pivots.  Only the
    representatives, an int64 RREF, are laid out in F^n, with their pivots."""

    def __init__(self, degree, representatives, field, blocks, pivots):
        self.degree = degree
        self.representatives = representatives  # read-only (dimension, n) RREF block of rows
        self.field = field
        self.blocks = blocks  # (idx, rows, pivots): each weight block's boundary RREF in F^len(idx)
        self.pivots = pivots  # the representatives' leading columns, ascending

    dimension = property(lambda self: len(self.representatives))

    # the global int64 RREFs in F^n, anew on each read: the boundaries
    # assembled by pivot, the cycles reduced from them and the representatives
    @property
    def boundaries(self):
        n = self.representatives.shape[1]
        return Subspace._of_buffer(self.field, n, *_assemble(n, self.blocks))

    @property
    def cycles(self):
        B = self.boundaries.basis.data
        return Subspace(self.field, B.shape[1], np.vstack([B, self.representatives]))

    def express(self, v):
        """Coordinates of a cycle's class in this basis, or of each row's class
        for a (k, n) block of cycles.

        The representatives are in RREF and reduced modulo the boundaries, so
        the class of v is w, v reduced in each block by its boundaries (one
        product per block), and its coordinates are w at the representatives'
        pivots.
        """
        F, reps = self.field, self.representatives
        w = _as_rows(F, v, reps.shape[1]).copy()
        for idx, rows, pivots in self.blocks:
            if len(rows):
                x = w[..., idx]
                w[..., idx] = F.vsub(x, F.mat_mul(x[..., pivots], rows))
        coords = w[..., self.pivots]
        if F.vsub(w, F.mat_mul(coords, reps)).any():
            raise NotACycle("vector is not a cycle modulo boundaries")
        return coords


def _assemble(n, parts):
    """One int64 RREF basis in F^n and its pivots from RREF blocks (idx, rows,
    pivots) on disjoint ascending coordinate sets idx: each block's rows go to
    their global pivots idx[pivots], in ascending order."""
    pivots = np.sort(np.concatenate([np.zeros(0, np.int64)] + [idx[p] for idx, _, p in parts]))
    out = np.zeros((len(pivots), n), dtype=np.int64)
    for idx, rows, p in parts:
        out[np.searchsorted(pivots, idx[p])[:, None], idx] = rows
    return out, pivots.tolist()


def _grading(A):
    """Integer weights of A's basis, d tuples of g ints: a basis of all w with
    w_0 = 0 and w_k = w_i + w_j wherever c[i, j, k] != 0.  Every differential
    preserves the total weight of a chain or cochain.

    Computed once per algebra and exactly: the rational kernel of the
    constraint matrix M is that of the d x d integer matrix M^T M, reduced
    here in Python integers.  The weights are checked on every nonzero
    structure constant; g = 0, one weight class, when there are no nonzero
    weights or the check fails.
    """
    if "grading" not in A._cache:
        d, (i, j, k) = A.dim, np.nonzero(A.const)
        eye = np.eye(d, dtype=np.int64)
        M = np.vstack([eye[k] - eye[i] - eye[j], eye[:1]])
        rows, pivots = (M.T @ M).tolist(), []
        for q in range(d):  # Gauss-Jordan without fractions
            r = next((r for r in range(len(pivots), d) if rows[r][q]), None)
            if r is not None:
                rows[r], rows[len(pivots)] = rows[len(pivots)], rows[r]
                piv = rows[len(pivots)]
                for t, row in enumerate(rows):
                    if row is not piv and row[q]:
                        row = [piv[q] * x - row[q] * y for x, y in zip(row, piv)]
                        g = math.gcd(*row) or 1
                        rows[t] = [x // g for x in row]
                pivots.append(q)
        # one kernel vector per free coordinate f, integral after scaling
        scale, kernel = math.lcm(*(rows[t][q] for t, q in enumerate(pivots))), []
        for f in sorted(set(range(d)) - set(pivots)):
            w = [scale * (q == f) for q in range(d)]
            for t, q in enumerate(pivots):
                w[q] = -rows[t][f] * scale // rows[t][q]
            g = math.gcd(*w)
            kernel.append([x // g for x in w])
        W = list(zip(*kernel)) or [()] * d
        sums = (W[c] == tuple(map(sum, zip(W[a], W[b]))) for a, b, c in zip(i, j, k))
        valid = not any(W[0]) and all(sums)
        A._cache["grading"] = W if valid else [()] * d
    return A._cache["grading"]


def _weight_classes(A, top, cochains):
    """The weight classes of A's chains, or cochains, as a function of the
    degree: {key: ascending indices}, one entry per class in degrees <= top.

    A chain (i_0, .., i_m) weighs sum w_{i_t}, a cochain (J, k) w_k - sum
    w_J.  Its key is the weight read in base `base`, which separates every
    weight of those degrees; it is additive, so every differential maps a
    class into the class of the same key, even where int64 sums wrap.
    """
    W = _grading(A)
    base = 2 * (top + 1) * max((abs(x) for w in W for x in w), default=0) + 1
    u = [sum(x * base**c for c, x in enumerate(w)) % 2**64 for w in W]
    u = np.array(u, dtype=np.uint64).view(np.int64)

    def classes(m):
        _addressable(chain_dim(A, m), 1, np.int64)
        keys = np.zeros(1, np.int64) if cochains else u
        for _ in range(m):
            keys = np.add.outer(keys, -u[1:] if cochains else u[1:]).ravel()
        if cochains:
            keys = np.add.outer(keys, u).ravel()
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        first = np.flatnonzero(np.diff(keys, prepend=keys[:1] - 1)).tolist()
        ends = first[1:] + [len(keys)]
        return {w: order[a:b] for w, a, b in zip(keys[first].tolist(), first, ends)}

    return classes


def _positions(classes, n):
    """The position of each of n indices within its weight class."""
    pos = np.empty(n, np.int64)
    for idx in classes.values():
        pos[idx] = np.arange(len(idx))
    return pos


def _dealt(F, terms, classes, pos):
    """The entries of the differential whose terms the list `terms` holds,
    dealt to the weight classes of its columns: {key: (col, row, value)},
    col an entry's position in its column's class and row, by `pos`, its row's
    position in its class; one entry per place, nonzero, in narrow types.
    Whole classes are taken together, about `_CHUNK` columns at a time, with
    one `_entries` call per term; the entries of the terms are summed by one
    sort, which also orders them by class."""
    items, dealt = list(classes.items()), {}
    narrow = np.min_scalar_type(max([len(pos)] + [len(idx) for _, idx in items]))
    cuts, size = [], _CHUNK  # the first class opens a batch; no class (d = 1), no batch
    for t, (_, idx) in enumerate(items):
        if size >= _CHUNK:
            cuts, size = cuts + [t], 0
        size += len(idx)
    for batch in (items[a:b] for a, b in zip(cuts, cuts[1:] + [len(items)])):
        cols = np.concatenate([idx for _, idx in batch])
        starts = np.cumsum([0] + [len(idx) for _, idx in batch])
        found = [_entries(cols, *term[:3]) for term in terms]
        at, row = (np.concatenate([e[t] for e in found]) for t in (0, 1))
        val = np.concatenate([v if t[3] > 0 else F.vneg(v) for (_, _, v), t in zip(found, terms)])
        key = at * len(pos) + row
        order = np.argsort(key, kind="stable")  # the default sort's code costs 0.4 MB of RSS
        key = key[order]
        first = np.flatnonzero(np.diff(key, prepend=-1))
        if F.r == 1:
            val = np.add.reduceat(val[order], first) % F.p
        else:  # the sum of the base-p digits
            val = np.add.reduceat(F._DIG[val[order]], first) % F.p @ F._ENC
        at, row = np.divmod(key[first][val != 0], len(pos))
        val = val[val != 0].astype(np.min_scalar_type(F.q - 1))
        col = (at - starts[np.searchsorted(starts, at, "right") - 1]).astype(narrow)
        row = pos[row].astype(narrow)
        ends = np.searchsorted(at, starts).tolist()
        for (w, _), a, b in zip(batch, ends, ends[1:]):
            dealt[w] = col[a:b], row[a:b], val[a:b]
    return dealt


_CHUNK = 2048


def _echelon(F, i, j, v, shape, right):
    """The RREF of the block of the given shape with entries v at (i, j):
    its pivots and its rows, reduced right to left if `right` (as by
    `_rref_right`).  A block `sparse._sparse` picks is reduced as sparse
    rows by `_rref_rows`, any other in a dense buffer by the dense kernels."""
    k, n = shape
    dtype = _elimination_dtype(F, k, n)
    if not k * n:  # a zero map: nothing to eliminate
        return [], np.zeros((0, n), dtype)
    if not fieldlin._sparse(k, n, len(v)):
        R = _zeros(k, n, dtype)
        R[i, j] = v
        pivots = _rref_right(F, R) if right else fieldlin._rref(F, R)
        return pivots, R
    if right:
        j = n - 1 - j.astype(np.int64)
    pivots, R = _rref_rows(F, _entry_rows(F, i, j, v), n, dtype)
    return ([n - 1 - q for q in pivots], R[:, ::-1]) if right else (pivots, R)


def _homology_basis(A, m, terms, step):
    """Degree-m homology of the complex whose differential from degree k to
    k + step has the terms `terms(A, k)`, one weight class at a time.

    The term lists of the maps leaving degree m and entering it from degree
    m - step are made once, where that map exists.  Each maps a class into
    the class of the same key, so the split is exact; a class with no partner
    there meets a zero map, a block with no rows or no columns, which is not
    eliminated.  Each map's entries are made once and dealt to the classes
    by `_dealt`, all of them to the one class of a dense basis, and each
    block is reduced by `_echelon`.
    The outgoing map is reduced right to left, to rows R with pivots
    q_i: the cycles' RREF rows are e_f - sum_i R[i, f] e_{q_i}, one per free
    column f, and are never built.  The incoming map is reduced transposed,
    to the boundaries' RREF rows B.  The boundaries lie in the cycles iff
    R B^T = 0, one product; the representatives are the cycles' rows at the
    free columns that are not boundary pivots, and those columns are their
    pivots.  A block keeps only B, one byte an entry up to q = 256, and its
    pivots; the representatives are laid out in F^n, by pivot.
    """
    F, n, narrow = A.field, chain_dim(A, m), np.min_scalar_type(A.field.q - 1)
    classes, none = _weight_classes(A, m + 1, step > 0), np.zeros(0, np.int64)
    up, down = m + step, m - step  # the outgoing map's target, the incoming map's source
    targets, out = (classes(up), list(terms(A, m))) if up >= 0 else ({}, [])
    sources, into = (classes(down), list(terms(A, down))) if down >= 0 else ({}, [])
    mine = classes(m)
    out = _dealt(F, out, mine, _positions(targets, chain_dim(A, up))) if out else {}
    into = _dealt(F, into, sources, _positions(mine, n)) if into else {}
    parts, rep, nothing = [], [], (none, none, none)
    for w, idx in mine.items():
        tgt, src = targets.get(w, none), sources.get(w, none)
        j, i, v = out.pop(w, nothing)  # a chunk's arrays go with its last class
        q, R = _echelon(F, i, j, v, (len(tgt), len(idx)), True)
        R = R[: len(q)].copy()  # frees the map's buffer
        # dealt as (col, row, value): the incoming map's block, transposed
        pivots, B = _echelon(F, *into.pop(w, nothing), (len(src), len(idx)), False)
        B = B[: len(pivots)].astype(narrow)
        if len(R) and len(B) and F.mat_mul(R, B.T).any():
            raise NotASubspace("quotient requires the second space inside the first")
        keep = sorted(set(range(len(idx))) - set(q) - set(pivots))
        parts.append((idx, B, np.array(pivots, dtype=np.int64)))
        rep.append((idx, _null_rows(F, R, q, keep), keep))
    reps, leads = _assemble(n, rep)
    reps.setflags(write=False)
    return HomologyBasis(m, reps, F, parts, leads)


def homology(A, m):
    """HH_m via the normalized bar complex, with canonical representatives."""
    key = ("homology", m)
    if key not in A._cache:
        A._cache[key] = _homology_basis(A, m, _boundary_terms, -1)
    return A._cache[key]


def cohomology(A, m):
    """HH^m via normalized cochains, with canonical representatives."""
    key = ("cohomology", m)
    if key not in A._cache:
        A._cache[key] = _homology_basis(A, m, _coboundary_terms, 1)
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


def hh_of_map(theta, m):
    """The induced map on degree-m homology, on the canonical bases."""
    B = theta.target
    src, tgt = homology(theta.source, m), homology(B, m)
    images = chain_map_apply(theta, m, src.representatives)  # one row per rep
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
    W = _pairing_rows(BilinearForm.from_linear_form(A, lam), m, cohomology(A, m).representatives)
    return Matrix(A.field, A.field.mat_mul(W, homology(A, m).representatives.T), copy=False)
