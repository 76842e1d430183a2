"""Exact dense linear algebra over small finite fields F_{p^r}.

Scalars are integer indices 0..p^r-1; the base-p digits of an index are the
coefficients (constant term first) of the residue polynomial.  Everything is
deterministic: row reduction pivots left to right and takes the first nonzero
row, so identical inputs always produce identical bases and representatives.

Matrices are dense int64 numpy arrays of scalar indices.  Over F_2 the
elimination kernel packs each row into uint64 words and clears a pivot column
with one vectorized XOR of the rows that hit it.  Over odd prime fields it
updates only the columns right of the pivot and delays reduction mod p: each
pivot reduces its column and its row, the trailing update has no `%`, and the
trailing block is reduced only after (2^63 - p) // (p-1)^2 updates, the most
that cannot wrap int64: every second update at p = 2^31 - 1, and for p <= 7
after more than 10^17, so never.  Matrix products over an extension field
split both factors into base-p digit planes, multiply all plane pairs in one
float64 product, and fold x^i x^j back into the power basis.  That fold is
the one definition of the product: the operation tables of an extension
field (add, sub, neg, mul, inverse, Frobenius) are built from it, and the
scalar operations are the vector operations on single entries.  Prime fields
are limited to p < 2^31, so every product of two reduced entries plus a
reduced entry fits in int64.

The vector operations (solve, reduce, coordinates and lift) take one vector
or a (k, n) block of row vectors and act row by row: a block is one matrix
product, and a single vector goes through the same code.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    AmbientMismatch,
    DimensionMismatch,
    FieldMismatch,
    NonPrimeCharacteristic,
    NotASubspace,
    ReducibleModulus,
)

_MAX_EXT_ORDER = 512  # extension fields get dense q x q op tables
_MAX_PRIME = 2**31  # (p-1)^2 + (p-1) < 2^63: int64 products stay exact


def _is_int(x):
    """An int that is not a bool (JSON true/false are not scalars)."""
    return isinstance(x, int) and not isinstance(x, bool)


def _is_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _poly_divmod(num, den, p):
    """Polynomial division over F_p; coefficient lists, constant term first."""
    num = list(num)
    dlead = den[-1]
    dinv = pow(dlead, p - 2, p)
    deg_d = len(den) - 1
    for k in range(len(num) - 1, deg_d - 1, -1):
        c = num[k] * dinv % p
        if c:
            for t in range(deg_d + 1):
                num[k - deg_d + t] = (num[k - deg_d + t] - c * den[t]) % p
        num[k] = 0  # quotient coefficient, not needed
    return num[:deg_d]


def _monic_polys(p, deg):
    for idx in range(p**deg):
        coeffs = []
        t = idx
        for _ in range(deg):
            coeffs.append(t % p)
            t //= p
        yield coeffs + [1]


def _is_irreducible(modulus, p):
    r = len(modulus) - 1
    if r < 1 or modulus[-1] != 1:
        return False
    for deg in range(1, r // 2 + 1):
        for g in _monic_polys(p, deg):
            if not any(_poly_divmod(modulus, g, p)):
                return False
    return True


class FiniteField:
    """F_{p^r} with total exact arithmetic on integer-index scalars."""

    def __init__(self, p, r=1, modulus=None):
        if p >= _MAX_PRIME:
            raise ValueError(f"characteristic {p} out of scope (must be < 2^31)")
        if not _is_prime(p):
            raise NonPrimeCharacteristic(f"{p} is not prime")
        if r < 1:
            raise ValueError("extension degree must be >= 1")
        if r == 1:
            if modulus is not None:
                raise ValueError("prime fields take no modulus")
        else:
            if modulus is None:
                raise ReducibleModulus("extension field needs a modulus")
            modulus = [c % p for c in modulus]
            if len(modulus) != r + 1 or modulus[-1] != 1:
                raise ReducibleModulus(
                    f"modulus must be monic of degree {r} (got {modulus})"
                )
            if not _is_irreducible(modulus, p):
                raise ReducibleModulus(f"modulus {modulus} is reducible over F_{p}")
            if p**r > _MAX_EXT_ORDER:
                raise ValueError(f"extension field order {p**r} out of scope")
        self.p = p
        self.r = r
        self.q = p**r
        self.modulus = tuple(modulus) if modulus is not None else None
        if r > 1:
            self._build_tables()

    # -- scalar arithmetic ------------------------------------------------

    def _index(self, digits):
        a = 0
        for c in reversed(digits):
            a = a * self.p + c % self.p
        return a

    def _build_tables(self):
        """Operation tables of F_{p^r}; the product is the digit-plane fold.

        _FOLD_F[i, j] holds the power-basis coefficients of x^{i+j}, the one
        definition of multiplication: `mat_mul` contracts digit planes with
        it, and _MUL is the same contraction over every pair of elements.
        """
        p, r, q = self.p, self.r, self.q
        # x^s mod modulus for s = 0 .. 2r-2, the padding makes each r long
        x_pow = [_poly_divmod([0] * s + [1] + [0] * r, self.modulus, p) for s in range(2 * r - 1)]
        fold = np.array([[x_pow[i + j] for j in range(r)] for i in range(r)])
        self._FOLD_F = fold.astype(np.float64)
        self._ENC = p ** np.arange(r, dtype=np.int64)
        dig = (np.arange(q)[:, None] // self._ENC) % p
        self._DIG = dig
        self._ADD = ((dig[:, None] + dig[None]) % p) @ self._ENC
        self._NEG = ((-dig) % p) @ self._ENC
        self._SUB = self._ADD[:, self._NEG]
        conv = np.einsum("ai,bj,ijk->abk", dig, dig, fold, optimize=True)
        self._MUL = (conv % p) @ self._ENC
        self._INV = np.argmax(self._MUL == 1, axis=1)  # row 0 has no 1: _INV[0] = 0
        # a^p by p - 1 table lookups (p <= 19 here), then a^{p^s} = (a^{p^{s-1}})^p
        a = np.arange(q)
        a_p = a
        for _ in range(p - 1):
            a_p = self._MUL[a_p, a]
        frob = [a]
        for _ in range(r - 1):
            frob.append(a_p[frob[-1]])
        self._FROB = np.array(frob)

    def add(self, a, b):
        return int(self.vadd(a, b))

    def sub(self, a, b):
        return int(self.vsub(a, b))

    def neg(self, a):
        return int(self.vneg(a))

    def mul(self, a, b):
        return int(self.vmul(a, b))

    def inv(self, a):
        if a % self.q == 0:
            raise ZeroDivisionError("inverting zero field element")
        if self.r == 1:
            return pow(a, self.p - 2, self.p)
        return int(self._INV[a])

    def pow(self, a, e):
        if e < 0:
            return self.pow(self.inv(a), -e)
        out, base = 1, a
        while e:
            if e & 1:
                out = self.mul(out, base)
            base = self.mul(base, base)
            e >>= 1
        return out

    def frobenius(self, a, s=1):
        """a^{p^s}; negative s means the inverse Frobenius (s is taken mod r)."""
        return int(self.vfrob(a, s))

    def elements(self):
        return range(self.q)

    def encode_scalar(self, a):
        """Serialization form: bare int for prime fields, digit list otherwise."""
        if self.r == 1:
            return int(a)
        return [int(c) for c in self._DIG[int(a)]]

    def decode_scalar(self, obj):
        if self.r == 1:
            if not _is_int(obj):
                raise ValueError(f"prime field scalar must be an int, got {obj!r}")
            return obj % self.p
        if (
            not isinstance(obj, (list, tuple))
            or len(obj) != self.r
            or not all(_is_int(c) for c in obj)
        ):
            raise ValueError(f"scalar must be a length-{self.r} integer coefficient list")
        return self._index(list(obj))

    def __eq__(self, other):
        return (
            isinstance(other, FiniteField)
            and (self.p, self.r, self.modulus) == (other.p, other.r, other.modulus)
        )

    def __hash__(self):
        return hash((self.p, self.r, self.modulus))

    def __repr__(self):
        if self.r == 1:
            return f"F_{self.p}"
        return f"F_{self.p}^{self.r}"

    # -- vectorized arithmetic on index arrays ----------------------------

    def vadd(self, x, y):
        if self.r == 1:
            return (x + y) % self.p
        return self._ADD[x, y]

    def vsub(self, x, y):
        if self.r == 1:
            return (x - y) % self.p
        return self._SUB[x, y]

    def vneg(self, x):
        if self.r == 1:
            return (-x) % self.p
        return self._NEG[x]

    def vmul(self, x, y):
        if self.r == 1:
            return (x * y) % self.p
        return self._MUL[x, y]

    def vfrob(self, x, s=1):
        s %= self.r
        if self.r == 1 or s == 0:
            return np.array(x, dtype=np.int64, copy=True)
        return self._FROB[s][x]

    def vdot(self, x, y):
        return int(self.mat_mul(x, y))

    def mat_mul(self, a, b):
        """Exact product of index matrices; float64 BLAS when provably exact."""
        if a.ndim == 1:
            return self.mat_mul(a[None, :], b)[0]
        if b.ndim == 1:
            return self.mat_mul(a, b[:, None])[:, 0]
        if a.shape[1] != b.shape[0]:
            raise DimensionMismatch(f"cannot multiply {a.shape} by {b.shape}")
        if self.r == 1:
            n = a.shape[1]
            if n and n * (self.p - 1) ** 2 < 2**52:
                prod = a.astype(np.float64) @ b.astype(np.float64)
                return prod.astype(np.int64) % self.p
            # int64 partial sums of `step` terms, reduced before they can wrap
            step = (2**63 - self.p) // (self.p - 1) ** 2
            out = np.zeros((a.shape[0], b.shape[1]), dtype=np.int64)
            for k in range(0, n, step):
                out = (out + a[:, k : k + step] @ b[k : k + step]) % self.p
            return out
        # digit planes a = sum_i a_i x^i and b = sum_j b_j x^j: every a_i b_j
        # in one float64 product, then x^i x^j folded into the power basis;
        # exact while r^2 n (p-1)^3 < 2^53, which q <= 512 keeps for n < 10^11
        r, p = self.r, self.p
        m, n, k = a.shape[0], a.shape[1], b.shape[1]
        pa = self._DIG[a].transpose(2, 0, 1).reshape(r * m, n).astype(np.float64)
        pb = self._DIG[b].transpose(0, 2, 1).reshape(n, r * k).astype(np.float64)
        prod = (pa @ pb).reshape(r, m, r, k)
        planes = np.tensordot(self._FOLD_F, prod, axes=([0, 1], [0, 2]))
        return np.tensordot(self._ENC, planes.astype(np.int64) % p, 1)


# -- matrices -------------------------------------------------------------


def _in_range(field, arr):
    """arr with every entry a scalar index 0..q-1.

    Prime-field entries outside that range are reduced mod p; an extension
    field index outside it names no element and is rejected.
    """
    if arr.size and (arr.min() < 0 or arr.max() >= field.q):
        if field.r > 1:
            raise FieldMismatch(
                f"scalar index out of range 0..{field.q - 1} for {field!r}"
            )
        arr = arr % field.p
    return arr


def _as_rows(field, v, length, ndim=None):
    """v as a vector or a (k, length) block of row vectors, entries in range;
    ndim=1 accepts only a vector and ndim=2 only a block."""
    arr = np.asarray(v, dtype=np.int64)
    if arr.ndim not in ((1, 2) if ndim is None else (ndim,)) or arr.shape[-1] != length:
        raise DimensionMismatch(f"expected rows of length {length}, got shape {arr.shape}")
    return _in_range(field, arr)


class Matrix:
    """Immutable dense matrix of scalar indices over a finite field."""

    __slots__ = ("field", "data")

    def __init__(self, field, data, copy=True):
        if copy:
            arr = np.array(data, dtype=np.int64)
        else:
            arr = np.asarray(data, dtype=np.int64)
        if arr.ndim != 2:
            raise DimensionMismatch(f"matrix data must be 2-d, got {arr.ndim}-d")
        arr = _in_range(field, arr)
        arr.setflags(write=False)
        self.field = field
        self.data = arr

    @classmethod
    def zeros(cls, field, rows, cols):
        return cls(field, np.zeros((rows, cols), dtype=np.int64), copy=False)

    @classmethod
    def identity(cls, field, n):
        return cls(field, np.eye(n, dtype=np.int64), copy=False)

    @property
    def rows(self):
        return self.data.shape[0]

    @property
    def cols(self):
        return self.data.shape[1]

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.field == other.field
            and self.data.shape == other.data.shape
            and np.array_equal(self.data, other.data)
        )

    def __add__(self, other):
        self._check_same_shape(other)
        return Matrix(self.field, self.field.vadd(self.data, other.data), copy=False)

    def __sub__(self, other):
        self._check_same_shape(other)
        return Matrix(self.field, self.field.vsub(self.data, other.data), copy=False)

    def __neg__(self):
        return Matrix(self.field, self.field.vneg(self.data), copy=False)

    def __matmul__(self, other):
        if isinstance(other, Matrix):
            return Matrix(
                self.field, self.field.mat_mul(self.data, other.data), copy=False
            )
        return self.mul_vec(other)

    def _check_same_shape(self, other):
        if self.data.shape != other.data.shape:
            raise DimensionMismatch(
                f"shape mismatch {self.data.shape} vs {other.data.shape}"
            )

    def mul_vec(self, v):
        v = _as_rows(self.field, v, self.cols, ndim=1)
        return self.field.mat_mul(self.data, v)

    def transpose(self):
        return Matrix(self.field, self.data.T.copy(), copy=False)

    def frobenius(self, s=1):
        return Matrix(self.field, self.field.vfrob(self.data, s), copy=False)

    def is_zero(self):
        return not self.data.any()

    def __repr__(self):
        return f"Matrix({self.field!r}, {self.data.tolist()!r})"


# -- row reduction --------------------------------------------------------


def _rref_gf2(data):
    m, n = data.shape
    if m == 0 or n == 0:
        return data.copy(), []
    # bit j of row i is bit j % 64 of word j // 64, little-endian throughout
    nwords = (n + 63) // 64
    packed = np.zeros((m, 8 * nwords), dtype=np.uint8)
    bits = np.packbits(data.astype(bool), axis=1, bitorder="little")
    packed[:, : bits.shape[1]] = bits
    W = packed.view("<u8")
    pivots = []
    row = 0
    for col in range(n):
        w = col // 64
        hit = np.flatnonzero(W[:, w] & np.uint64(1 << (col % 64)))
        k = np.searchsorted(hit, row)
        if k == hit.size:
            continue
        pr = hit[k]
        # the pivot row is zero left of `col`, so words below w stay as they are
        W[np.delete(hit, k), w:] ^= W[pr, w:]
        if pr != row:
            W[[row, pr]] = W[[pr, row]]
        pivots.append(col)
        row += 1
        if row == m:
            break
    # only the first `row` rows are nonzero; the rest stay untouched zero pages
    out = np.zeros((m, n), dtype=np.int64)
    out[:row] = np.unpackbits(
        W[:row].view(np.uint8), axis=1, count=n, bitorder="little"
    )
    return out, pivots


def _rref_generic(field, data):
    R = data.copy()
    m, n = R.shape
    pivots = []
    row = 0
    for col in range(n):
        if row == m:
            break
        nz = np.flatnonzero(R[row:, col])
        if nz.size == 0:
            continue
        pr = row + int(nz[0])
        if pr != row:
            R[[row, pr]] = R[[pr, row]]
        # rows at and below `row` are zero left of `col`: only columns col.. change
        piv = R[row, col:]
        pv = int(piv[0])
        if pv != 1:
            piv[:] = field.vmul(field.inv(pv), piv)
        others = np.flatnonzero(R[:, col])
        others = others[others != row]
        if others.size:
            c = R[others, col]
            R[others, col:] = field.vsub(R[others, col:], field.vmul(c[:, None], piv))
        pivots.append(col)
        row += 1
    return R, pivots


def _rref_prime(p, data):
    """RREF over an odd prime field F_p with delayed reduction mod p.

    Only the pivot column and the pivot row are reduced at each pivot; the
    trailing update subtracts c * piv with no `%`.  Entries start in 0..p-1
    and each update subtracts at most (p-1)^2, so `lazy` updates in a row
    cannot wrap int64; the trailing block is reduced before the next one.
    """
    R = data.copy()
    m, n = R.shape
    lazy = (2**63 - p) // (p - 1) ** 2
    pivots = []
    row = due = 0
    for col in range(n):
        if row == m:
            break
        below = np.flatnonzero(R[row:, col] % p)
        if below.size == 0:
            continue
        pr = row + int(below[0])
        c = R[:, col] % p
        # rows at and below `row` are 0 mod p left of `col`: only columns col.. change
        piv = R[pr, col:]
        piv %= p
        if c[pr] != 1:
            piv *= pow(int(c[pr]), p - 2, p)
            piv %= p
        c[pr] = 0
        others = np.flatnonzero(c)
        if others.size:
            if due == lazy:
                R[:, col:] %= p
                due = 0
            R[others, col:] -= c[others, None] * piv
            due += 1
        if pr != row:
            R[[row, pr]] = R[[pr, row]]
        pivots.append(col)
        row += 1
    R %= p
    return R, pivots


def _rref(field, data):
    if field.r > 1:
        return _rref_generic(field, data)
    if field.p == 2:
        return _rref_gf2(data)
    return _rref_prime(field.p, data)


class RowReduction:
    """RREF of a matrix plus rank, kernel and a linear solver."""

    def __init__(self, matrix):
        if not isinstance(matrix, Matrix):
            raise TypeError("row_reduce expects a Matrix")
        self.matrix = matrix
        R, piv = _rref(matrix.field, matrix.data)
        self.rref = Matrix(matrix.field, R, copy=False)
        self.pivots = tuple(piv)
        self.rank = len(piv)
        self._kernel = None
        self._transform = None

    @property
    def kernel(self):
        if self._kernel is None:
            F = self.matrix.field
            n = self.matrix.cols
            pivset = set(self.pivots)
            free = [j for j in range(n) if j not in pivset]
            K = np.zeros((len(free), n), dtype=np.int64)
            if free:
                K[np.arange(len(free)), free] = 1
                if self.pivots:
                    sub = self.rref.data[: self.rank][:, free]
                    K[:, list(self.pivots)] = F.vneg(sub.T)
            self._kernel = Subspace(F, n, K)
        return self._kernel

    def solve(self, b):
        """Some x with Mx = b, or None when b is not in the column space.

        For a (k, rows) block b, the (k, cols) solutions row by row, or None
        when any row is outside the column space.
        """
        F = self.matrix.field
        m, n = self.matrix.rows, self.matrix.cols
        b = _as_rows(F, b, m)
        if self._transform is None:
            aug = np.hstack([self.matrix.data, np.eye(m, dtype=np.int64)])
            Raug, _ = _rref(F, aug)
            self._transform = Raug[:, n:]
        y = F.mat_mul(b, self._transform.T)
        if y[..., self.rank :].any():
            return None
        x = np.zeros(b.shape[:-1] + (n,), dtype=np.int64)
        x[..., list(self.pivots)] = y[..., : self.rank]
        return x


def row_reduce(matrix):
    return RowReduction(matrix)


# -- subspaces ------------------------------------------------------------


class Subspace:
    """Row space stored as a canonical RREF basis."""

    __slots__ = ("field", "ambient_dim", "basis", "pivots")

    def __init__(self, field, ambient_dim, rows=None):
        if rows is None:
            data = np.zeros((0, ambient_dim), dtype=np.int64)
        elif isinstance(rows, Matrix):
            data = rows.data
        else:
            arr = _in_range(field, np.asarray(rows, dtype=np.int64))
            if arr.size == 0:
                data = arr.reshape(0, ambient_dim)
            else:
                data = arr.reshape(-1, ambient_dim)
        if data.shape[1] != ambient_dim:
            raise AmbientMismatch(
                f"rows of width {data.shape[1]} in ambient of dim {ambient_dim}"
            )
        R, piv = _rref(field, data)
        self.field = field
        self.ambient_dim = ambient_dim
        self.basis = Matrix(field, R[: len(piv)], copy=False)
        self.pivots = tuple(piv)

    @classmethod
    def full(cls, field, n):
        return cls(field, n, np.eye(n, dtype=np.int64))

    @property
    def dim(self):
        return self.basis.rows

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.field == other.field
            and self.ambient_dim == other.ambient_dim
            and np.array_equal(self.basis.data, other.basis.data)
        )

    def __repr__(self):
        return f"Subspace(dim {self.dim} of {self.ambient_dim})"

    def _check_ambient(self, other):
        if self.ambient_dim != other.ambient_dim or self.field != other.field:
            raise AmbientMismatch("subspaces live in different ambient spaces")

    def reduce(self, v):
        """Canonical representative modulo this subspace of a vector, or of
        each row of a (k, n) block."""
        v = _as_rows(self.field, v, self.ambient_dim)
        if self.dim == 0:
            return v.copy()
        coeffs = v[..., list(self.pivots)]
        return self.field.vsub(v, self.field.mat_mul(coeffs, self.basis.data))

    def contains_vector(self, v):
        return not self.reduce(v).any()

    def contains(self, other):
        self._check_ambient(other)
        return not self.reduce(other.basis.data).any()

    def coords(self, v):
        """Coordinates in the RREF basis of a vector, or of each row of a
        (k, n) block; every row must lie in the subspace."""
        v = _as_rows(self.field, v, self.ambient_dim)
        if self.reduce(v).any():
            raise NotASubspace("vector outside subspace has no coordinates")
        return v[..., list(self.pivots)]

    def lift(self, coords):
        """The vector with these coordinates in the RREF basis, or each row's."""
        coords = _as_rows(self.field, coords, self.dim)
        return self.field.mat_mul(coords, self.basis.data)

    def __add__(self, other):
        self._check_ambient(other)
        stacked = np.vstack([self.basis.data, other.basis.data])
        return Subspace(self.field, self.ambient_dim, stacked)

    def __and__(self, other):
        self._check_ambient(other)
        if self.dim == 0 or other.dim == 0:
            return Subspace(self.field, self.ambient_dim)
        lhs = self.basis.data.T
        rhs = self.field.vneg(other.basis.data.T)
        ker = row_reduce(Matrix(self.field, np.hstack([lhs, rhs]), copy=False)).kernel
        vecs = self.field.mat_mul(ker.basis.data[:, : self.dim], self.basis.data)
        return Subspace(self.field, self.ambient_dim, vecs)

    def quotient_basis(self, other):
        """Coset representatives of self/other; requires other <= self."""
        self._check_ambient(other)
        if not self.contains(other):
            raise NotASubspace("quotient requires the second space inside the first")
        if self.dim == 0:
            return Matrix.zeros(self.field, 0, self.ambient_dim)
        R, piv = _rref(self.field, other.reduce(self.basis.data))
        return Matrix(self.field, R[: len(piv)], copy=False)

    def quotient_map(self, other):
        """Matrix sending x to the coordinates of x+other in the pivot-rule basis.

        Only valid when self is the full ambient space.
        """
        if self.dim != self.ambient_dim:
            raise NotASubspace("quotient_map is defined on the full ambient space")
        reps = self.quotient_basis(other)
        n = self.ambient_dim
        eye = np.eye(n, dtype=np.int64)
        if other.dim:
            picked = eye[:, list(other.pivots)]
            reduced = self.field.vsub(
                eye, self.field.mat_mul(picked, other.basis.data)
            )
        else:
            reduced = eye
        rep_space = Subspace(self.field, n, reps)
        coords = reduced[:, list(rep_space.pivots)].T  # (h, n)
        return Matrix(self.field, coords, copy=False), reps


def preimage(matrix, target):
    """{x : Mx in target} as a subspace of the domain."""
    if matrix.rows != target.ambient_dim:
        raise DimensionMismatch(
            f"matrix with {matrix.rows} rows cannot land in ambient {target.ambient_dim}"
        )
    ann = row_reduce(target.basis).kernel  # functionals vanishing on target
    comp = matrix.field.mat_mul(ann.basis.data, matrix.data)
    return row_reduce(Matrix(matrix.field, comp, copy=False)).kernel


# -- semilinear maps ------------------------------------------------------


class SemilinearMap:
    """v -> M . phi^s(v) for the entrywise Frobenius phi; twist s is mod r."""

    __slots__ = ("matrix", "twist")

    def __init__(self, matrix, twist=0):
        self.matrix = matrix
        self.twist = twist % matrix.field.r

    @property
    def field(self):
        return self.matrix.field

    def apply(self, v):
        v = _as_rows(self.field, v, self.matrix.cols, ndim=1)
        return self.matrix.mul_vec(self.field.vfrob(v, self.twist))

    def compose(self, other):
        """self after other: (M, s) o (N, t) = (M . phi^s(N), s + t)."""
        if self.matrix.cols != other.matrix.rows:
            raise DimensionMismatch("incompatible semilinear composition")
        twisted = self.field.vfrob(other.matrix.data, self.twist)
        prod = self.field.mat_mul(self.matrix.data, twisted)
        return SemilinearMap(
            Matrix(self.field, prod, copy=False), self.twist + other.twist
        )

    def kernel(self):
        lin = row_reduce(self.matrix).kernel
        if self.twist == 0 or lin.dim == 0:
            return lin
        shifted = self.field.vfrob(lin.basis.data, -self.twist)
        return Subspace(self.field, self.matrix.cols, shifted)

    def image(self):
        return Subspace(self.field, self.matrix.rows, self.matrix.data.T)

    @property
    def rank(self):
        return row_reduce(self.matrix).rank

    def __eq__(self, other):
        return (
            isinstance(other, SemilinearMap)
            and self.matrix == other.matrix
            and self.twist == other.twist
        )

    def __repr__(self):
        return f"SemilinearMap({self.matrix.rows}x{self.matrix.cols}, twist={self.twist})"
