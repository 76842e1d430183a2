"""Row reduction of sparse rows over F_{p^r}, for blocks that are small or
have few nonzeros a row.

A row is a Python int whose bit j is column j over F_2, a {column: value}
dict otherwise.  Rows may be inserted in any order: the leading columns of
every echelon basis of a span, in a fixed column order, are the pivots of
its RREF, and back-substitution gives the RREF, which is unique.  So the
result is the dense kernels' (`fieldlin`), with no numpy call per column.
This module is apart from `fieldlin` because every process compiles the
package from source, and the compiler's transient memory, which sets the
floor of every process's peak RSS, grows with the largest module.
"""

from __future__ import annotations

import numpy as np


def _sparse(rows, cols, nnz):
    """Whether a rows x cols block with nnz nonzero entries is reduced faster
    as sparse rows by `_rref_rows` than by a dense kernel.  Measured on the
    blocks of the benchmark's workloads: a small block spends its time in
    numpy's per-column overhead, and one with at most 4 nonzeros a row fills
    in little; a larger, denser one, as on a dense basis, fills in and is
    several times slower as sparse rows."""
    return rows * cols <= 1000 or nnz <= 4 * rows


def _rref_rows(field, rows, n, dtype):
    """The RREF of the span of sparse rows of width n: ints whose bit j is
    column j over F_2, {column: nonzero value} dicts otherwise, consumed.
    Returns its pivots, ascending, and its rows as a (rank, n) array of dtype.

    Each row is inserted by reducing it against the row whose leading column
    is its own until it leads at a new column or vanishes, so the leading
    columns are those of every echelon basis of the span, the RREF's pivots,
    whatever the order of insertion; shortest rows go first, to keep fill-in
    small.  Back-substitution from the last pivot makes the RREF, which is
    unique.
    """
    echelon = {}
    if field.q == 2:
        for x in rows:
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

    for x in sorted(rows, key=len):
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


def _entry_rows(field, i, j, v):
    """The rows of a block with entries v at (i, j), distinct and nonzero, as
    `_rref_rows` takes them."""
    rows = {}
    if field.q == 2:
        for a, b in zip(i.tolist(), j.tolist()):
            rows[a] = rows.get(a, 0) | 1 << b
    else:
        for a, b, c in zip(i.tolist(), j.tolist(), v.tolist()):
            rows.setdefault(a, {})[b] = c
    return list(rows.values())
