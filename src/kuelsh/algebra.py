"""Structure-constant model of finite dimensional unital associative algebras.

An algebra is a field, a list of basis labels and a (d, d, d) tensor c with
e_i e_j = sum_k c[i,j,k] e_k.  Basis vector 0 is required to be the unit;
`normalize_unit` performs the basis change for inputs that come in another
basis.  The module also builds the opposite algebra, tensor products, the
trivial extension with its canonical symmetrizing form, and searches for
symmetrizing forms of a given algebra.
"""

from __future__ import annotations

import hashlib
import itertools
import random
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, FieldMismatch, KuelshError
from .fieldlin import FiniteField, Matrix, Subspace, _as_vector, _in_range, _is_int, row_reduce

_FORM_EXHAUST_BOUND = 2**20
_FORM_SAMPLES = 64


class Algebra:
    """Finite dimensional associative unital algebra over a finite field."""

    __slots__ = ("field", "labels", "const", "_cache")

    def __init__(self, field, labels, structure_constants):
        const = np.array(structure_constants, dtype=np.int64)
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
        F, d = self.field, self.dim
        a = _as_vector(F, a, d)
        b = _as_vector(F, b, d)
        ab = F.vmul(a[:, None], b[None, :]).reshape(d * d)  # a_i b_j
        return F.mat_mul(ab, self.const.reshape(d * d, d))

    def power(self, a, e):
        """a^e by repeated squaring; e >= 1."""
        if e < 1:
            raise ValueError("element powers need e >= 1")
        a = _as_vector(self.field, a, self.dim)
        out = None
        base = a
        while e:
            if e & 1:
                out = base if out is None else self.multiply(out, base)
            e >>= 1
            if e:
                base = self.multiply(base, base)
        return out

    def multiply_basis_left(self, i, v):
        """e_i . v"""
        v = _as_vector(self.field, v, self.dim)
        return self.field.mat_mul(v, self.const[i])

    def multiply_basis_right(self, v, j):
        """v . e_j"""
        v = _as_vector(self.field, v, self.dim)
        return self.field.mat_mul(v, self.const[:, j])

    def left_mult_matrix(self, a):
        """Matrix of x -> a x."""
        a = _as_vector(self.field, a, self.dim)
        d = self.dim
        return self.field.mat_mul(a, self.const.reshape(d, d * d)).reshape(d, d).T

    def content_hash(self):
        h = hashlib.sha256()
        h.update(repr((self.field.p, self.field.r, self.field.modulus)).encode())
        h.update(repr(self.labels).encode())
        h.update(self.const.tobytes())
        return h.hexdigest()

    def __repr__(self):
        return f"Algebra(dim {self.dim} over {self.field!r})"


@dataclass
class ValidationReport:
    ok: bool
    unit_violations: list
    associativity_violations: list


def algebra_validate(A):
    """Check the unit and associativity axioms; reports every violated triple."""
    F, d, c = A.field, A.dim, A.const
    unit_bad = []
    for i in range(d):
        ei = A.basis_vector(i)
        if not np.array_equal(A.multiply(A.unit(), ei), ei):
            unit_bad.append(("left", i))
        if not np.array_equal(A.multiply(ei, A.unit()), ei):
            unit_bad.append(("right", i))
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
    if F.r == 1:
        c = np.einsum("ace,bdf->abcdef", A.const, B.const) % F.p
        c = c.reshape(da * db, da * db, da * db)
        return Algebra(F, labels, c)
    d = da * db
    c = np.zeros((d, d, d), dtype=np.int64)
    for i1, j1, i2, j2 in itertools.product(range(da), range(db), range(da), range(db)):
        prod_a = A.const[i1, i2]
        prod_b = B.const[j1, j2]
        for k1 in np.flatnonzero(prod_a):
            for k2 in np.flatnonzero(prod_b):
                c[i1 * db + j1, i2 * db + j2, k1 * db + k2] = F.mul(
                    int(prod_a[k1]), int(prod_b[k2])
                )
    return Algebra(F, labels, c)


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
        lam = _as_vector(A.field, lam, A.dim)
        d = A.dim
        g = A.field.mat_mul(A.const.reshape(d * d, d), lam).reshape(d, d)
        return cls(A.field, Matrix(A.field, g, copy=False))

    def pairing(self, x, y):
        x = _as_vector(self.field, x, self.gram.rows)
        y = _as_vector(self.field, y, self.gram.rows)
        return self.field.vdot(self.field.mat_mul(x, self.gram.data), y)

    def is_symmetric(self):
        return np.array_equal(self.gram.data, self.gram.data.T)

    def is_nondegenerate(self):
        return row_reduce(self.gram).rank == self.gram.rows

    def is_associative(self, A):
        """<xy, z> == <x, yz> on all basis triples."""
        for i in range(A.dim):
            for j in range(A.dim):
                for k in range(A.dim):
                    left = self.pairing(A.multiply(A.basis_vector(i), A.basis_vector(j)), A.basis_vector(k))
                    right = self.pairing(A.basis_vector(i), A.multiply(A.basis_vector(j), A.basis_vector(k)))
                    if left != right:
                        return False
        return True


@dataclass
class FormSearchResult:
    status: str  # "found" | "none" | "unknown"
    form: object  # linear form vector when found


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


@dataclass
class AlgebraMorphism:
    source: Algebra
    target: Algebra
    matrix: Matrix  # d_target x d_source

    def apply(self, v):
        return self.matrix.mul_vec(v)

    def compose(self, other):
        if other.target is not self.source and other.target.content_hash() != self.source.content_hash():
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
    for i in range(A.dim):
        for j in range(A.dim):
            lhs = M @ A.const[i, j]
            rhs = B.multiply(M.data[:, i], M.data[:, j])
            if not np.array_equal(lhs, rhs):
                return False
    return True


# -- trivial extension -------------------------------------------------------


@dataclass
class TrivialExtension:
    algebra: Algebra
    form: BilinearForm  # the canonical symmetrizing form of TA
    lam: np.ndarray  # linear form with <x,y> = lam(xy)
    iota: AlgebraMorphism  # A -> TA
    pi: AlgebraMorphism  # TA -> A


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
    for i in range(d):
        for j in range(d):
            ct[i, d + j, d:] = c[:, i, j]
            ct[d + j, i, d:] = c[i, :, j]
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


# -- unit normalization -------------------------------------------------------


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


def find_unit(field, const):
    """Coordinates of the unit element, or None if the algebra has none."""
    d = const.shape[0]
    rows = []
    rhs = []
    for j in range(d):
        for k in range(d):
            rows.append(const[:, j, k])  # sum_i x_i c[i,j,k] = delta_jk
            rhs.append(1 if j == k else 0)
            rows.append(const[j, :, k])
            rhs.append(1 if j == k else 0)
    M = Matrix(field, np.stack(rows))
    return row_reduce(M).solve(np.array(rhs, dtype=np.int64))


def normalize_unit(field, labels, const):
    """Return an equivalent algebra whose basis vector 0 is the unit."""
    const = np.asarray(const, dtype=np.int64)
    u = find_unit(field, const)
    if u is None:
        raise KuelshError("the given span contains no unit element")
    d = const.shape[0]
    if u[0] == 1 and not u[1:].any():
        return Algebra(field, labels, const)
    # greedy deterministic completion of {unit} to a basis
    chosen = [u]
    chosen_labels = ["1"]
    space = Subspace(field, d, [u])
    for i in range(d):
        if space.dim == d:
            break
        e = np.zeros(d, dtype=np.int64)
        e[i] = 1
        if not space.contains_vector(e):
            chosen.append(e)
            chosen_labels.append(labels[i])
            space = space + Subspace(field, d, [e])
    B = np.stack(chosen)  # rows: new basis in old coordinates
    Binv_cols = []
    red = row_reduce(Matrix(field, B.T))
    for k in range(d):
        e = np.zeros(d, dtype=np.int64)
        e[k] = 1
        Binv_cols.append(red.solve(e))
    to_new = np.stack(Binv_cols, axis=1)  # old coords -> new coords
    helper = Algebra(field, labels, const)
    newc = np.zeros((d, d, d), dtype=np.int64)
    for a in range(d):
        for b in range(d):
            prod_old = helper.multiply(B[a], B[b])
            newc[a, b] = field.mat_mul(to_new, prod_old)
    return Algebra(field, chosen_labels, newc)
