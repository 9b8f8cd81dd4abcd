"""Linear algebra over GF(2^p).

Matrices are numpy integer arrays whose entries are field element codes.
Everything here is vectorized through the field's multiplication table:
a dense product, a product with a sparse matrix given by its nonzeros, and
Gaussian elimination that returns the row transform instead of the
reduced matrix.
"""

from __future__ import annotations

import numpy as np

from .gf import GF

_PRODUCT_ENTRIES = 1 << 22  # most entries of one chunk of the product table


def gf_matmul(field: GF, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product over GF(q): xor-accumulated entrywise products.

    The (rows, inner, cols) product table is built and reduced in chunks
    of the inner axis, each of at most 2^22 entries or one inner index.
    """
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"shape mismatch {a.shape} x {b.shape}")
    mul = field.mul_table
    out = np.zeros((a.shape[0], b.shape[1]), dtype=mul.dtype)
    step = max(1, _PRODUCT_ENTRIES // max(1, out.size))
    for k in range(0, a.shape[1], step):
        # products[i, k, j] = a[i, k] * b[k, j]
        products = mul[a[:, k : k + step, None], b[None, k : k + step, :]]
        out ^= np.bitwise_xor.reduce(products, axis=1)
    return out


def gf_sparse_matmul(
    field: GF, x: np.ndarray, rows: np.ndarray, cols: np.ndarray, vals: np.ndarray, n_cols: int
) -> np.ndarray:
    """x · S over GF(q), for the sparse S with S[rows[e], cols[e]] = vals[e].

    The entries must be grouped by column (equal `cols` adjacent).  One
    `reduceat` xor-reduces each column's products over the last axis of x,
    and the sums are scattered into the columns that have entries; the
    other columns of the (..., n_cols) result stay zero.
    """
    mul = field.mul_table
    out = np.zeros(x.shape[:-1] + (n_cols,), dtype=mul.dtype)
    if len(rows):
        starts = np.flatnonzero(np.diff(cols, prepend=-1))
        out[..., cols[starts]] = np.bitwise_xor.reduceat(mul[x[..., rows], vals], starts, axis=-1)
    return out


def gf_rref(field: GF, a: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Row transform of the reduced row-echelon form over GF(q).

    Returns (T, pivot_cols): T is an invertible m x m matrix, in the dtype
    of the field's table, such that T·a is the RREF of the m x n matrix a.
    Columns are never swapped and each pivot is the first nonzero at or
    below the current row, so pivot columns come in increasing order and
    len(pivot_cols) is the rank.

    The columns of a are reduced 2m at a time next to T: the working
    matrix is [T·a[:, block] | T], and row operations touch only its
    columns at or right of the pivot.  The first block is a itself (T = I
    then); a later one is T times a's nonzeros in the block.  Elimination
    stops at rank m, so a full-rank a whose pivots lie in its first 2m
    columns never forms a second block.
    """
    a = np.asarray(a)
    if a.ndim != 2:
        raise ValueError("expected a 2-D matrix")
    mul = field.mul_table
    m, n = a.shape
    width = max(1, 2 * m)
    t = np.eye(m, dtype=mul.dtype)
    pivot_cols: list[int] = []
    row = 0
    for lo in range(0, n, width):
        if row == m:
            break
        hi = min(lo + width, n)
        work = np.empty((m, hi - lo + m), dtype=mul.dtype)
        if lo:
            cols, rows = np.nonzero(a[:, lo:hi].T)  # grouped by column
            work[:, : hi - lo] = gf_sparse_matmul(field, t, rows, cols, a[rows, lo + cols], hi - lo)
        else:
            work[:, : hi - lo] = a[:, :hi]
        work[:, hi - lo :] = t
        for col in range(hi - lo):
            if row == m:
                break
            nz = work[row:, col].nonzero()[0]
            if nz.size == 0:
                continue
            pivot = row + nz[0]
            if pivot != row:
                work[[row, pivot], col:] = work[[pivot, row], col:]
            # left of col, the pivot row and every row below it are zero
            prow = work[row, col:]
            prow[:] = mul[field.inv(int(prow[0])), prow]
            others = work[:, col].nonzero()[0]
            others = others[others != row]
            if others.size:
                work[others, col:] ^= mul[work[others, col][:, None], prow]
            pivot_cols.append(lo + col)
            row += 1
        t = work[:, hi - lo :]
    return np.ascontiguousarray(t), pivot_cols
