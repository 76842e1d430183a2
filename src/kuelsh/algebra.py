"""Structure-constant model of finite dimensional unital associative algebras.

An algebra is a field, a list of basis labels and a (d, d, d) tensor c with
e_i e_j = sum_k c[i,j,k] e_k.  Basis vector 0 is required to be the unit;
`normalize_unit` performs the basis change for inputs that come in another
basis.  The module also builds the opposite algebra, tensor products, the
trivial extension with its canonical symmetrizing form, and searches for
symmetrizing forms of a given algebra.
"""

from __future__ import annotations

import random

import numpy as np

from .errors import DimensionMismatch, FieldMismatch, KuelshError
from .fieldlin import (
    FiniteField,
    Matrix,
    Subspace,
    _as_rows,
    _in_range,
    _indices,
    _is_int,
    _power,
    _rank,
    row_reduce,
)

_FORM_EXHAUST_BOUND = 2**20
_FORM_SAMPLES = 64


class Algebra:
    """Finite dimensional associative unital algebra over a finite field."""

    __slots__ = ("field", "labels", "const", "_cache")

    def __init__(self, field, labels, structure_constants):
        const = _indices(structure_constants, copy=True)
        d = len(labels)
        if const.shape != (d, d, d):
            raise DimensionMismatch(
                f"structure constants must be ({d},{d},{d}), got {const.shape}"
            )
        const = _in_range(field, const)
        const.setflags(write=False)
        self.field = field
        self.labels = tuple(labels)
        self.const = const
        self._cache = {}

    @property
    def dim(self):
        return len(self.labels)

    def basis_vector(self, i):
        v = np.zeros(self.dim, dtype=np.int64)
        v[i] = 1
        return v

    def unit(self):
        return self.basis_vector(0)

    def multiply(self, a, b):
        """a b for two vectors, or row by row for two (k, d) blocks."""
        F, d = self.field, self.dim
        a = _as_rows(F, a, d)
        b = _as_rows(F, b, d)
        if a.shape != b.shape:
            raise DimensionMismatch(f"cannot multiply rows of shapes {a.shape} and {b.shape}")
        ab = F.vmul(a[..., :, None], b[..., None, :])  # a_i b_j
        return F.mat_mul(ab.reshape(ab.shape[:-2] + (d * d,)), self.const.reshape(d * d, d))

    def power(self, a, e):
        """a^e by repeated squaring, for a vector or each row of a block; e >= 1."""
        return _power(self.multiply, _as_rows(self.field, a, self.dim), e)

    def multiply_basis_left(self, i, v):
        """e_i . v"""
        v = _as_rows(self.field, v, self.dim, ndim=1)
        return self.field.mat_mul(v, self.const[i])

    def multiply_basis_right(self, v, j):
        """v . e_j"""
        v = _as_rows(self.field, v, self.dim, ndim=1)
        return self.field.mat_mul(v, self.const[:, j])

    def left_mult_matrix(self, a):
        """Matrix of x -> a x."""
        a = _as_rows(self.field, a, self.dim, ndim=1)
        d = self.dim
        return self.field.mat_mul(a, self.const.reshape(d, d * d)).reshape(d, d).T

    def same_as(self, other):
        """True iff other is this algebra or has its field, labels and constants."""
        return self is other or (
            self.field == other.field
            and self.labels == other.labels
            and np.array_equal(self.const, other.const)
        )

    def __repr__(self):
        return f"Algebra(dim {self.dim} over {self.field!r})"


class ValidationReport:
    def __init__(self, ok, unit_violations, associativity_violations):
        self.ok = ok
        self.unit_violations = unit_violations  # (side, i) pairs
        self.associativity_violations = associativity_violations  # (i, j, k) triples


def algebra_validate(A):
    """Check the unit and associativity axioms; reports every violated triple."""
    F, d, c = A.field, A.dim, A.const
    # 1 . e_i is row i of c[0], e_i . 1 is row i of c[:, 0]
    eye = np.eye(d, dtype=np.int64)
    left, right = (c[0] != eye).any(axis=1), (c[:, 0] != eye).any(axis=1)
    unit_bad = [
        (side, i)
        for i in range(d)
        for side, bad in (("left", left), ("right", right))
        if bad[i]
    ]
    # (e_i e_j) e_k against e_i (e_j e_k), both as [i, j, k, l] tensors
    pairs = c.reshape(d * d, d)
    lhs = F.mat_mul(pairs, c.reshape(d, d * d)).reshape(d, d, d, d)
    rhs = F.mat_mul(pairs, c.transpose(1, 0, 2).reshape(d, d * d))
    rhs = rhs.reshape(d, d, d, d).transpose(2, 0, 1, 3)
    assoc_bad = [
        (int(i), int(j), int(k))
        for i, j, k in zip(*np.nonzero((lhs != rhs).any(axis=3)))
    ]
    return ValidationReport(not unit_bad and not assoc_bad, unit_bad, assoc_bad)


def opposite(A):
    return Algebra(A.field, A.labels, np.swapaxes(A.const, 0, 1))


def tensor_product(A, B):
    """A tensor B with basis e_i x f_j in lexicographic order."""
    if A.field != B.field:
        raise FieldMismatch("tensor factors must share the ground field")
    F = A.field
    da, db = A.dim, B.dim
    labels = [f"{la}(x){lb}" for la in A.labels for lb in B.labels]
    # c[(i1, j1), (i2, j2), (k1, k2)] = a[i1, i2, k1] b[j1, j2, k2]
    c = F.vmul(A.const[:, None, :, None, :, None], B.const[None, :, None, :, None, :])
    d = da * db
    return Algebra(F, labels, c.reshape(d, d, d))


# -- forms ------------------------------------------------------------------


class BilinearForm:
    """Bilinear form given by its Gram matrix on the algebra basis."""

    __slots__ = ("field", "gram")

    def __init__(self, field, gram):
        if not isinstance(gram, Matrix):
            gram = Matrix(field, gram)
        if gram.rows != gram.cols:
            raise DimensionMismatch("Gram matrix must be square")
        self.field = field
        self.gram = gram

    @classmethod
    def from_linear_form(cls, A, lam):
        """The form <a, b> = lam(a b)."""
        lam = _as_rows(A.field, lam, A.dim, ndim=1)
        d = A.dim
        g = A.field.mat_mul(A.const.reshape(d * d, d), lam).reshape(d, d)
        return cls(A.field, Matrix(A.field, g, copy=False))

    def pairing(self, x, y):
        x = _as_rows(self.field, x, self.gram.rows, ndim=1)
        y = _as_rows(self.field, y, self.gram.rows, ndim=1)
        return self.field.vdot(self.field.mat_mul(x, self.gram.data), y)

    def is_symmetric(self):
        return np.array_equal(self.gram.data, self.gram.data.T)

    def is_nondegenerate(self):
        return _rank(self.gram) == self.gram.rows

    def is_associative(self, A):
        """<xy, z> == <x, yz> on all basis triples."""
        F, d, G = self.field, A.dim, self.gram.data
        pairs = A.const.reshape(d * d, d)
        left = F.mat_mul(pairs, G)  # [(i, j), k] = <e_i e_j, e_k>
        right = F.mat_mul(G, pairs.T)  # [i, (j, k)] = <e_i, e_j e_k>
        return np.array_equal(left.ravel(), right.ravel())


class FormSearchResult:
    def __init__(self, status, form):
        self.status = status  # "found" | "none" | "unknown"
        self.form = form  # linear form vector when found


def commutator_space(A):
    """Span of all commutators ab - ba (basis pairs i < j suffice by bilinearity)."""
    F, c = A.field, A.const
    i, j = np.triu_indices(A.dim, 1)
    return Subspace(F, A.dim, F.vsub(c[i, j], c[j, i]))


def symmetrizing_form_search(A):
    """Find lam with lam(ab) = lam(ba) and nondegenerate induced Gram matrix.

    Exhausts the solution space of the symmetry conditions when it is small
    enough, otherwise falls back to bounded sampling and reports "unknown".
    """
    F = A.field
    comm = commutator_space(A)
    sol = row_reduce(comm.basis).kernel  # forms vanishing on commutators
    s = sol.dim
    if s == 0:
        return FormSearchResult("none", None)

    def candidate(coeffs):
        return sol.lift(np.array(coeffs, dtype=np.int64))

    def good(lam):
        return BilinearForm.from_linear_form(A, lam).is_nondegenerate()

    if F.q**s <= _FORM_EXHAUST_BOUND:
        for idx in range(1, F.q**s):
            coeffs, t = [], idx
            for _ in range(s):
                coeffs.append(t % F.q)
                t //= F.q
            lam = candidate(coeffs)
            if good(lam):
                return FormSearchResult("found", lam)
        return FormSearchResult("none", None)
    rng = random.Random(0)
    for _ in range(_FORM_SAMPLES):
        coeffs = [rng.randrange(F.q) for _ in range(s)]
        if not any(coeffs):
            continue
        lam = candidate(coeffs)
        if good(lam):
            return FormSearchResult("found", lam)
    return FormSearchResult("unknown", None)


# -- morphisms ---------------------------------------------------------------


class AlgebraMorphism:
    def __init__(self, source, target, matrix):
        self.source = source
        self.target = target
        self.matrix = matrix  # d_target x d_source

    def apply(self, v):
        return self.matrix.mul_vec(v)

    def compose(self, other):
        if not other.target.same_as(self.source):
            raise DimensionMismatch("morphism composition mismatch")
        return AlgebraMorphism(other.source, self.target, self.matrix @ other.matrix)


def identity_morphism(A):
    return AlgebraMorphism(A, A, Matrix.identity(A.field, A.dim))


def morphism_validate(theta):
    """True iff theta is unital and multiplicative on all basis pairs."""
    A, B, M = theta.source, theta.target, theta.matrix
    if M.rows != B.dim or M.cols != A.dim:
        return False
    if not np.array_equal(M @ A.unit(), B.unit()):
        return False
    # theta(e_i e_j) against theta(e_i) theta(e_j), one row per pair (i, j)
    d, images = A.dim, M.data.T
    lhs = B.field.mat_mul(A.const.reshape(d * d, d), images)
    rhs = B.multiply(np.repeat(images, d, axis=0), np.tile(images, (d, 1)))
    return np.array_equal(lhs, rhs)


# -- trivial extension -------------------------------------------------------


class TrivialExtension:
    def __init__(self, algebra, form, lam, iota, pi):
        self.algebra = algebra
        self.form = form  # the canonical symmetrizing form of TA
        self.lam = lam  # linear form with <x,y> = lam(xy)
        self.iota = iota  # A -> TA
        self.pi = pi  # TA -> A


def trivial_extension(A):
    """A + A* with A* square-zero, canonical form <(a,f),(b,g)> = f(b) + g(a).

    Basis order: the A part first, the dual basis second, so iota and pi
    are plain coordinate inclusion/projection.  Built once per algebra and
    kept in `A._cache`, so every caller shares TA and the homology cached on it.
    """
    key = ("trivial_extension",)
    if key in A._cache:
        return A._cache[key]
    F, d, c = A.field, A.dim, A.const
    dt = 2 * d
    ct = np.zeros((dt, dt, dt), dtype=np.int64)
    ct[:d, :d, :d] = c
    # u_i . v_j = sum_t c[t,i,j] v_t   and   v_j . u_i = sum_t c[i,t,j] v_t
    ct[:d, d:, d:] = c.transpose(1, 2, 0)
    ct[d:, :d, d:] = c.transpose(2, 0, 1)
    labels = list(A.labels) + [f"{lbl}^*" for lbl in A.labels]
    TA = Algebra(F, labels, ct)
    lam = np.zeros(dt, dtype=np.int64)
    lam[d] = 1  # evaluation of the functional part at the unit
    lam.setflags(write=False)
    form = BilinearForm.from_linear_form(TA, lam)
    incl = np.zeros((dt, d), dtype=np.int64)
    incl[:d, :d] = np.eye(d, dtype=np.int64)
    proj = np.zeros((d, dt), dtype=np.int64)
    proj[:d, :d] = np.eye(d, dtype=np.int64)
    iota = AlgebraMorphism(A, TA, Matrix(F, incl, copy=False))
    pi = AlgebraMorphism(TA, A, Matrix(F, proj, copy=False))
    te = TrivialExtension(TA, form, lam, iota, pi)
    A._cache[key] = te
    return te


# -- JSON schema (CLI input format) -------------------------------------------


def algebra_to_json(A):
    F = A.field
    field_obj = {"p": F.p, "r": F.r}
    if F.modulus is not None:
        field_obj["modulus"] = list(F.modulus)
    return {
        "field": field_obj,
        "dim": A.dim,
        "basis": list(A.labels),
        "structure_constants": [
            [[F.encode_scalar(int(x)) for x in row] for row in plane]
            for plane in A.const
        ],
    }


def _field_from_json(fobj):
    if not isinstance(fobj, dict) or "p" not in fobj:
        raise ValueError("field must be an object with at least a prime p")
    p, r, modulus = fobj["p"], fobj.get("r", 1), fobj.get("modulus")
    if not _is_int(p) or not _is_int(r):
        raise ValueError("field p and r must be integers")
    if modulus is not None and (
        not isinstance(modulus, list) or not all(_is_int(c) for c in modulus)
    ):
        raise ValueError("field modulus must be a list of integers")
    return FiniteField(p, r, modulus)


def _is_cube(raw, dim):
    """raw is a dim x dim x dim nest of lists."""
    return (
        isinstance(raw, list)
        and len(raw) == dim
        and all(isinstance(plane, list) and len(plane) == dim for plane in raw)
        and all(
            isinstance(row, list) and len(row) == dim for plane in raw for row in plane
        )
    )


def algebra_from_json(obj):
    """Parse the CLI algebra schema; raises ValueError on malformed input."""
    if not isinstance(obj, dict):
        raise ValueError("algebra document must be a JSON object")
    try:
        field = _field_from_json(obj["field"])
        dim = obj["dim"]
        labels = obj["basis"]
        raw = obj["structure_constants"]
    except KeyError as exc:
        raise ValueError(f"missing key {exc}") from exc
    if not _is_int(dim) or dim < 1:
        raise ValueError("dim must be a positive integer")
    if (
        not isinstance(labels, list)
        or len(labels) != dim
        or not all(isinstance(x, str) for x in labels)
    ):
        raise ValueError("basis must list one string label per dimension")
    if not _is_cube(raw, dim):
        raise ValueError("structure_constants must be a dim^3 array")
    const = np.array(
        [[[field.decode_scalar(x) for x in row] for row in plane] for plane in raw],
        dtype=np.int64,
    )
    return Algebra(field, labels, const)


# -- unit normalization -------------------------------------------------------


def find_unit(field, const):
    """Coordinates of the unit element, or None if the algebra has none."""
    d = const.shape[0]
    # x e_j = e_j and e_j x = e_j: sum_i x_i c[i,j,k] = delta_jk = sum_i x_i c[j,i,k]
    rows = np.concatenate([const.transpose(1, 2, 0), const.transpose(0, 2, 1)])
    rhs = np.tile(np.eye(d, dtype=np.int64).ravel(), 2)
    return row_reduce(Matrix(field, rows.reshape(2 * d * d, d))).solve(rhs)


def normalize_unit(field, labels, const):
    """Return an equivalent algebra whose basis vector 0 is the unit."""
    const = np.asarray(const, dtype=np.int64)
    u = find_unit(field, const)
    if u is None:
        raise KuelshError("the given span contains no unit element")
    d = const.shape[0]
    if u[0] == 1 and not u[1:].any():
        return Algebra(field, labels, const)
    # greedy completion of {unit} to a basis: e_j lies in span(u, e_0..e_{j-1})
    # iff u is supported on 0..j with u_j != 0, so only the last such j drops
    eye = np.eye(d, dtype=np.int64)
    last = np.flatnonzero(u)[-1]
    kept = [j for j in range(d) if j != last]
    B = np.vstack([u, eye[kept]])  # rows: new basis in old coordinates
    to_new = row_reduce(Matrix(field, B.T)).solve(eye)  # row k: e_k in new coordinates
    prods = Algebra(field, labels, const).multiply(np.repeat(B, d, axis=0), np.tile(B, (d, 1)))
    newc = field.mat_mul(prods, to_new).reshape(d, d, d)
    return Algebra(field, ["1"] + [labels[i] for i in kept], newc)
