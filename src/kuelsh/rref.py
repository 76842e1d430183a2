"""Row reduction over F_{p^r}: every elimination of the package goes through
`_echelon`, which takes a block as its nonzero entries and returns its RREF.

A block `_sparse` picks, small or with at most 4 nonzeros a row, is reduced as
sparse rows by `_rref_rows`, with no numpy call per column: a row is a Python
int whose bit j is column j over F_2, a {column: value} dict otherwise.  Rows
may be inserted in any order: the leading columns of every echelon basis of a
span, in a fixed column order, are the pivots of its RREF, and
back-substitution gives the RREF, which is unique.  Any other block is filled
into a dense buffer of the narrowest of int16, int32 and int64 in which
max(min(rows, cols), 1) (p-1)^2 + p fits (int16 over extension fields, whose
entries are table indices below 512) and reduced there in place.  Over F_2
the dense kernel packs each row into uint64 words and clears a pivot column
with one vectorized XOR of the rows that hit it.  Over odd prime fields it
updates only the columns right of the pivot and delays reduction mod p: each
pivot reduces its column and its row, the trailing update has no `%`, and the
trailing block is reduced only after (max - p) // (p-1)^2 updates, max the
largest value of the buffer's type: in the type chosen above never, in int64
at p = 2^31 - 1 every second update.  Every route gives the same RREF, so
identical inputs always produce identical bases.

A right-to-left reduction, the RREF of the columns in reverse order, reduces a
reversed view of the dense buffer, or the sparse rows with their columns
flipped.  The kernel of a matrix is read off it by `_null_rows`.

This module is apart from `fieldlin` because every process compiles the
package from source, and the compiler's transient memory, which sets the
floor of every process's peak RSS, grows with the largest module.
"""

from __future__ import annotations

import numpy as np


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


def _sparse(rows, cols, nnz):
    """Whether a rows x cols block with nnz nonzero entries is reduced faster
    as sparse rows by `_rref_rows` than by a dense kernel.  Measured on the
    blocks of the benchmark's workloads: a small block spends its time in
    numpy's per-column overhead, and one with at most 4 nonzeros a row fills
    in little; a larger, denser one, as on a dense basis, fills in and is
    several times slower as sparse rows."""
    return rows * cols <= 1000 or nnz <= 4 * rows


def _rref_rows(field, i, j, v, n, dtype):
    """The RREF of the span of the rows of width n with entries v at (i, j),
    distinct and nonzero.  Returns its pivots, ascending, and its rows as a
    (rank, n) array of dtype.

    Each row is inserted by reducing it against the row whose leading column
    is its own until it leads at a new column or vanishes, so the leading
    columns are those of every echelon basis of the span, the RREF's pivots,
    whatever the order of insertion; shortest rows go first, to keep fill-in
    small.  Back-substitution from the last pivot makes the RREF, which is
    unique.
    """
    echelon, rows = {}, {}
    if field.q == 2:
        for a, b in zip(i.tolist(), j.tolist()):
            rows[a] = rows.get(a, 0) | 1 << b
        for x in rows.values():
            while x and (k := (x & -x).bit_length() - 1) in echelon:
                x ^= echelon[k]
            if x:
                echelon[k] = x
        mask = sum(1 << k for k in echelon)
        for k in sorted(echelon, reverse=True):  # rows of later pivots are reduced
            x, t = echelon[k], echelon[k] & mask ^ 1 << k
            while t:
                x ^= echelon[(t & -t).bit_length() - 1]
                t &= t - 1
            echelon[k] = x
        pivots = sorted(echelon)
        size = (n + 7) // 8
        data = b"".join(echelon[k].to_bytes(size, "little") for k in pivots)
        bits = np.frombuffer(data, np.uint8).reshape(len(pivots), size)
        return pivots, np.unpackbits(bits, axis=1, count=n, bitorder="little").astype(dtype)
    for a, b, c in zip(i.tolist(), j.tolist(), v.tolist()):
        rows.setdefault(a, {})[b] = c
    if field.r == 1:
        p = field.p
        scaled = lambda s, v: s * v % p

        def eliminate(x, k):  # x - x[k] * echelon[k], in place
            s = x[k]
            for c, v in echelon[k].items():
                if t := (x.get(c, 0) - s * v) % p:
                    x[c] = t
                else:
                    del x[c]
    else:
        mul, sub = field._MUL.tolist(), field._SUB.tolist()
        scaled = lambda s, v: mul[s][v]

        def eliminate(x, k):
            s = mul[x[k]]
            for c, v in echelon[k].items():
                if t := sub[x.get(c, 0)][s[v]]:
                    x[c] = t
                else:
                    del x[c]

    for x in sorted(rows.values(), key=len):
        while x and (k := min(x)) in echelon:
            eliminate(x, k)
        if x:
            s = field.inv(x[k])
            echelon[k] = {c: scaled(s, v) for c, v in x.items()}
    for k in sorted(echelon, reverse=True):
        x = echelon[k]
        for c in [c for c in x if c != k and c in echelon]:
            eliminate(x, c)
    pivots = sorted(echelon)
    out = np.zeros((len(pivots), n), dtype=dtype)
    at = [t for t, k in enumerate(pivots) for _ in echelon[k]]
    cols = [c for k in pivots for c in echelon[k]]
    out[at, cols] = [v for k in pivots for v in echelon[k].values()]
    return pivots, out


# -- dense kernels ---------------------------------------------------------
# Each reduces the buffer it is given in place and returns the pivot columns.
# A buffer holds reduced scalar indices in a signed integer type;
# `_elimination_dtype` picks the narrowest one in which that stays exact.


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


# -- the entry point -------------------------------------------------------


def _echelon(field, i, j, v, shape, right=False):
    """The RREF of the block of the given shape with entries v at (i, j),
    distinct and nonzero: its pivots and its rows, one per pivot, in the
    type `_elimination_dtype` picks; reduced right to left if `right`, to
    pivots q_i, descending, and rows with row i 1 at q_i, zero right of it
    and zero at every other pivot.  The rows may be a view of a larger
    buffer, which a caller that keeps them copies.  A block `_sparse` picks
    is reduced as sparse rows, any other in a dense buffer."""
    k, n = shape
    dtype = _elimination_dtype(field, k, n)
    if not k * n:  # a zero map: nothing to eliminate
        return [], np.zeros((0, n), dtype)
    if _sparse(k, n, len(v)):
        pivots, R = _rref_rows(field, i, n - 1 - j.astype(np.int64) if right else j, v, n, dtype)
        R = R[:, ::-1] if right else R
    else:
        R = _zeros(k, n, dtype)
        R[i, j] = v
        view = R[:, ::-1] if right else R
        if field.r > 1:
            pivots = _rref_generic(field, view)
        elif field.p == 2:
            pivots = _rref_gf2(view)
        else:
            pivots = _rref_prime(field.p, view)
        R = R[: len(pivots)]
    return ([n - 1 - q for q in pivots] if right else pivots), R


def _rref(field, M, right=False):
    """`_echelon` of the dense matrix M, which is left as it is."""
    i, j = np.nonzero(M)
    return _echelon(field, i, j, M[i, j], M.shape, right)


def _null_rows(field, R, pivots, free):
    """The kernel vectors e_f - sum_i R[i, f] e_{q_i} of a matrix reduced right
    to left to rows R with pivots q_i, one int64 row per free column f.  Each
    leads at f; over all free columns, in order, they are the kernel's RREF."""
    K = np.zeros((len(free), R.shape[1]), dtype=np.int64)
    K[np.arange(len(free)), free] = 1
    K[:, pivots] = field.vneg(R[:, free].T)
    return K
