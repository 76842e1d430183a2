"""Exact dense linear algebra over small finite fields F_{p^r}.

Scalars are integer indices 0..p^r-1; the base-p digits of an index are the
coefficients (constant term first) of the residue polynomial.  Everything is
deterministic: row reduction pivots left to right and takes the first nonzero
row, so identical inputs always produce identical bases and representatives.

Matrices are dense int64 numpy arrays of scalar indices; operands must share
one field.  Row reduction works in place on one buffer in the narrowest of
int16, int32 and int64 in which max(min(rows, cols), 1) (p-1)^2 + p fits
(int16 over extension fields, whose entries are table indices below 512).
Internal elimination consumes its buffer and keeps only the basis rows, as
int64; `row_reduce` and `Subspace` reduce a copy.  Each answer costs one
elimination, and none where the RREF is known: a kernel is one right-to-left
reduction, RREF, rank and solver share one of [M | I] and a lone rank one of
M, V & W is one Zassenhaus reduction, V/W takes V's basis rows at the pivots
W lacks.  Over F_2 the
elimination kernel packs each row into uint64 words and clears a pivot column
with one vectorized XOR of the rows that hit it.  Over odd prime fields it
updates only the columns right of the pivot and delays reduction mod p: each
pivot reduces its column and its row, the trailing update has no `%`, and the
trailing block is reduced only after (max - p) // (p-1)^2 updates, max the
largest value of the buffer's type: in the type chosen above never, in int64
at p = 2^31 - 1 every second update.  Matrix products over an extension field
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


def _power(mul, x, e):
    """x^e by repeated squaring for the associative product mul; e >= 1."""
    if e < 1:
        raise ValueError("powers need e >= 1")
    out = None
    while True:
        if e & 1:
            out = x if out is None else mul(out, x)
        e >>= 1
        if not e:
            return out
        x = mul(x, x)


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
            if p**r > _MAX_EXT_ORDER:
                raise ValueError(f"extension field order {p**r} out of scope")
        self.p = p
        self.r = r
        self.q = p**r
        self.modulus = tuple(modulus) if modulus is not None else None
        if r > 1:
            self._build_tables()
            # F_p[x]/(modulus) is a field iff no nonzero element is a zero
            # divisor, that is iff every nonzero row of _MUL holds a 1
            if not (self._MUL[1:] == 1).any(axis=1).all():
                raise ReducibleModulus(f"modulus {modulus} is reducible over F_{p}")

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
        # int16 like the elimination buffers, since every index is below 512:
        # a gather through a table is then no wider than the block it updates
        self._ADD = (((dig[:, None] + dig[None]) % p) @ self._ENC).astype(np.int16)
        self._NEG = (((-dig) % p) @ self._ENC).astype(np.int16)
        self._SUB = self._ADD[:, self._NEG]
        conv = np.einsum("ai,bj,ijk->abk", dig, dig, fold, optimize=True)
        self._MUL = ((conv % p) @ self._ENC).astype(np.int16)
        self._INV = np.argmax(self._MUL == 1, axis=1).astype(np.int16)  # row 0 has no 1: _INV[0] = 0
        # a^p through the table, then a^{p^s} = (a^{p^{s-1}})^p
        a = np.arange(q, dtype=np.int16)
        a_p = _power(self.vmul, a, p)
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
        return _power(self.mul, a, e) if e else 1

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
            a, b = a.astype(np.int64, copy=False), b.astype(np.int64, copy=False)
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


def _same_field(field, other):
    if field != other:
        raise FieldMismatch(f"operands over {field!r} and {other!r}")


class Matrix:
    """Read-only dense int64 matrix of scalar indices over a finite field."""

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
        self._check_operand(other)
        return Matrix(self.field, self.field.vadd(self.data, other.data), copy=False)

    def __sub__(self, other):
        self._check_operand(other)
        return Matrix(self.field, self.field.vsub(self.data, other.data), copy=False)

    def __neg__(self):
        return Matrix(self.field, self.field.vneg(self.data), copy=False)

    def __matmul__(self, other):
        if isinstance(other, Matrix):
            _same_field(self.field, other.field)
            return Matrix(
                self.field, self.field.mat_mul(self.data, other.data), copy=False
            )
        return self.mul_vec(other)

    def _check_operand(self, other):
        _same_field(self.field, other.field)
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
# The kernels reduce the buffer they are given in place and return the pivot
# columns.  A buffer holds reduced scalar indices in a signed integer type;
# `_elimination_dtype` picks the narrowest one in which that stays exact.


def _elimination_dtype(field, rows, cols):
    """The narrowest of int16, int32 and int64 in which eliminating a rows x
    cols matrix never wraps: over F_p each of at most min(rows, cols) pivots
    subtracts at most (p-1)^2 from an entry in 0..p-1, so `_rref_prime` needs
    no reduction mid-way.  Room for one update is kept even with no pivots,
    which `_rref_prime` asks of every buffer and which keeps the product of
    two entries exact.  Extension-field entries are indices below 512."""
    if field.r > 1:
        return np.dtype(np.int16)
    bound = max(min(rows, cols), 1) * (field.p - 1) ** 2 + field.p
    for t in (np.int16, np.int32):
        if bound <= np.iinfo(t).max:
            return np.dtype(t)
    return np.dtype(np.int64)


def _rref_gf2(R):
    m, n = R.shape
    if m == 0 or n == 0:
        return []
    # bit j of row i is bit j % 64 of word j // 64, little-endian throughout
    nwords = (n + 63) // 64
    packed = np.zeros((m, 8 * nwords), dtype=np.uint8)
    bits = np.packbits(R.astype(bool), axis=1, bitorder="little")
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
    # only the first `row` rows are nonzero
    R[:row] = np.unpackbits(W[:row].view(np.uint8), axis=1, count=n, bitorder="little")
    R[row:] = 0
    return pivots


def _rref_generic(field, R):
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
    return pivots


def _rref_prime(p, R):
    """RREF over an odd prime field F_p with delayed reduction mod p.

    Only the pivot column and the pivot row are reduced at each pivot; the
    trailing update subtracts c * piv with no `%`.  Entries start in 0..p-1
    and each update subtracts at most (p-1)^2, so `lazy` updates in a row
    cannot wrap R's integer type; the trailing block is reduced before the
    next one.  In the type `_elimination_dtype` picks, `lazy` is at least
    the number of pivots, so that never happens.
    """
    m, n = R.shape
    lazy = (int(np.iinfo(R.dtype).max) - p) // (p - 1) ** 2
    if lazy < 1:
        raise TypeError(f"{R.dtype} cannot hold one unreduced update mod {p}")
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
    return pivots


def _rref(field, R):
    """Reduce the buffer R to its RREF in place; returns the pivot columns."""
    if field.r > 1:
        return _rref_generic(field, R)
    if field.p == 2:
        return _rref_gf2(R)
    return _rref_prime(field.p, R)


def _narrow_copy(field, data):
    """An owned row-major copy of data in the type `_elimination_dtype` picks."""
    return data.astype(_elimination_dtype(field, *data.shape), order="C")


def _rref_right(field, R):
    """Reduce the buffer R in place right to left, the RREF of its columns in
    reverse order; returns the pivots q_i, one per nonzero row i, descending.
    Row i is then 1 at q_i, zero right of it and zero at every other pivot."""
    n = R.shape[1]
    return [n - 1 - j for j in _rref(field, R[:, ::-1])]


def _null_rows(field, R, pivots, free):
    """The kernel vectors e_f - sum_i R[i, f] e_{q_i} of a matrix reduced right
    to left into R with pivots q_i, one int64 row per free column f.  Each
    leads at f; over all free columns, in order, they are the kernel's RREF."""
    K = np.zeros((len(free), R.shape[1]), dtype=np.int64)
    K[np.arange(len(free)), free] = 1
    K[:, pivots] = field.vneg(R[: len(pivots)][:, free].T)
    return K


def _kernel(field, R):
    """The kernel of the matrix in the owned buffer R, reduced in place."""
    pivots = _rref_right(field, R)
    free = sorted(set(range(R.shape[1])) - set(pivots))
    return Subspace._of_buffer(field, R.shape[1], _null_rows(field, R, pivots, free), free)


class RowReduction:
    """A matrix M with its kernel, RREF, pivots, rank and a linear solver, at
    one elimination per answer and none on construction: `kernel` reduces a
    copy of M right to left on each read; `rref`, `pivots`, `rank` and `solve`
    read one left-to-right reduction of [M | I], run on first use."""

    def __init__(self, matrix):
        if not isinstance(matrix, Matrix):
            raise TypeError("row_reduce expects a Matrix")
        self.matrix = matrix
        self._transform = None

    @property
    def kernel(self):
        F = self.matrix.field
        return _kernel(F, _narrow_copy(F, self.matrix.data))

    def _reduce(self):
        if self._transform is None:
            F, m, n = self.matrix.field, self.matrix.rows, self.matrix.cols
            R = _narrow_copy(F, np.hstack([self.matrix.data, np.eye(m, dtype=np.int64)]))
            # pivots in the identity columns never touch the left block, so it
            # is RREF(M); the right block T has T M = RREF(M)
            self._pivots = tuple(q for q in _rref(F, R) if q < n)
            self._rref = Matrix(F, R[:, :n])
            self._transform = R[:, n:]
        return self

    rref = property(lambda self: self._reduce()._rref)
    pivots = property(lambda self: self._reduce()._pivots)
    rank = property(lambda self: len(self.pivots))

    def solve(self, b):
        """Some x with Mx = b, or None when b is not in the column space.

        For a (k, rows) block b, the (k, cols) solutions row by row, or None
        when any row is outside the column space.
        """
        F = self.matrix.field
        b = _as_rows(F, b, self.matrix.rows)
        y = F.mat_mul(b, self._reduce()._transform.T)
        if y[..., self.rank :].any():
            return None
        x = np.zeros(b.shape[:-1] + (self.matrix.cols,), dtype=np.int64)
        x[..., list(self.pivots)] = y[..., : self.rank]
        return x


def _rank(matrix):
    """The rank of a Matrix, from one elimination of a narrow copy of it."""
    return len(_rref(matrix.field, _narrow_copy(matrix.field, matrix.data)))


def row_reduce(matrix):
    """The RREF of a copy of matrix; the matrix itself is left as it is."""
    return RowReduction(matrix)


# -- subspaces ------------------------------------------------------------


class Subspace:
    """Row space stored as a canonical RREF basis; `rows` is None, a Matrix,
    one vector of length ambient_dim or a (k, ambient_dim) block."""

    __slots__ = ("field", "ambient_dim", "basis", "pivots")

    def __init__(self, field, ambient_dim, rows=None):
        if rows is None:  # the zero space is its own RREF
            self._span(field, ambient_dim, np.zeros((0, ambient_dim), dtype=np.int64), ())
            return
        if isinstance(rows, Matrix):
            _same_field(field, rows.field)
            data = rows.data
        else:
            data = _in_range(field, np.asarray(rows, dtype=np.int64))
        if data.ndim not in (1, 2) or data.shape[-1] != ambient_dim:
            raise AmbientMismatch(f"rows of shape {data.shape} in ambient of dim {ambient_dim}")
        self._span(field, ambient_dim, _narrow_copy(field, np.atleast_2d(data)))

    @classmethod
    def _of_buffer(cls, field, ambient_dim, R, pivots=None):
        """The row space of an owned (k, ambient_dim) buffer of scalar indices,
        reduced in place; given its pivots, R is an int64 RREF and is the basis."""
        self = cls.__new__(cls)
        self._span(field, ambient_dim, R, pivots)
        return self

    def _span(self, field, ambient_dim, R, pivots=None):
        if pivots is None:  # an owned int64 copy of the basis rows frees R
            pivots = _rref(field, R)
            R = R[: len(pivots)].astype(np.int64)
        self.field = field
        self.ambient_dim = ambient_dim
        self.basis = Matrix(field, R, copy=False)
        self.pivots = tuple(pivots)

    @classmethod
    def full(cls, field, n):
        return cls._of_buffer(field, n, np.eye(n, dtype=np.int64), range(n))

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
        """V & W by one Zassenhaus elimination of [[V, V], [W, 0]]: its RREF rows
        with a pivot q >= n are zero on the left, and their right halves are the
        RREF basis of V & W, with pivots q - n."""
        self._check_ambient(other)
        F, n, V, W = self.field, self.ambient_dim, self.basis.data, other.basis.data
        R = _narrow_copy(F, np.block([[V, V], [W, np.zeros_like(W)]]))
        pivots = _rref(F, R)
        k = sum(q < n for q in pivots)
        meet = R[k : len(pivots), n:].astype(np.int64)
        return Subspace._of_buffer(F, n, meet, [q - n for q in pivots[k:]])

    def quotient_basis(self, other):
        """Coset representatives of self/other; requires other <= self.  They
        are self's basis rows at the pivots other lacks: other's pivots are among
        self's, these rows are zero there, so they are the RREF of self mod other."""
        self._check_ambient(other)
        if not self.contains(other):
            raise NotASubspace("quotient requires the second space inside the first")
        lacking = set(other.pivots)
        keep = [i for i, q in enumerate(self.pivots) if q not in lacking]
        return Matrix(self.field, self.basis.data[keep], copy=False)

    def quotient_map(self, other):
        """Matrix sending x to the coordinates of x+other in the pivot-rule basis.

        Only valid when self is the full ambient space.  The representatives
        are in RREF and reduced modulo other, so the class of x is
        other.reduce(x), and its coordinates are that read at their pivots.
        """
        if self.dim != self.ambient_dim:
            raise NotASubspace("quotient_map is defined on the full ambient space")
        reps = self.quotient_basis(other)
        lead = [np.flatnonzero(r)[0] for r in reps.data]
        reduced = other.reduce(np.eye(self.ambient_dim, dtype=np.int64))
        return Matrix(self.field, reduced[:, lead].T, copy=False), reps


def preimage(matrix, target):
    """{x : Mx in target} as a subspace of the domain."""
    _same_field(matrix.field, target.field)
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
        # the Frobenius fixes 0 and 1: it keeps an RREF basis RREF, pivots and all
        shifted = self.field.vfrob(lin.basis.data, -self.twist)
        return Subspace._of_buffer(self.field, self.matrix.cols, shifted, lin.pivots)

    def image(self):
        return Subspace(self.field, self.matrix.rows, self.matrix.data.T)

    @property
    def rank(self):
        return _rank(self.matrix)

    def __eq__(self, other):
        return (
            isinstance(other, SemilinearMap)
            and self.matrix == other.matrix
            and self.twist == other.twist
        )

    def __repr__(self):
        return f"SemilinearMap({self.matrix.rows}x{self.matrix.cols}, twist={self.twist})"
