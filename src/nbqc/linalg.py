"""Dense linear algebra over GF(2^p).

Matrices are numpy integer arrays whose entries are field element codes.
Everything here is vectorized through the field's multiplication table,
which keeps Gaussian elimination usable up to a few thousand columns.
"""

from __future__ import annotations

import numpy as np

from .gf import GF


def gf_matmul(field: GF, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product over GF(q): xor-accumulated entrywise products."""
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"shape mismatch {a.shape} x {b.shape}")
    mul = field.mul_table
    # products[i, k, j] = a[i, k] * b[k, j]
    products = mul[a[:, :, None], b[None, :, :]]
    return np.bitwise_xor.reduce(products, axis=1)


def gf_matvec(field: GF, a: np.ndarray, x: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=np.int64)
    x = np.asarray(x, dtype=np.int64)
    if a.shape[1] != x.shape[0]:
        raise ValueError(f"shape mismatch {a.shape} x {x.shape}")
    if a.shape[1] == 0:
        return np.zeros(a.shape[0], dtype=np.int64)
    return np.bitwise_xor.reduce(field.mul_table[a, x[None, :]], axis=1)


def gf_rref(field: GF, a: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Reduced row-echelon form over GF(q).

    Returns (R, pivot_cols).  Rows are permuted/scaled/combined in place on
    a copy; columns are never swapped, so pivot columns are reported in
    increasing order and len(pivot_cols) is the rank.
    """
    r = np.array(a, dtype=np.int64, copy=True)
    if r.ndim != 2:
        raise ValueError("expected a 2-D matrix")
    mul = field.mul_table
    m, n = r.shape
    pivot_cols: list[int] = []
    row = 0
    for col in range(n):
        if row >= m:
            break
        nz = np.nonzero(r[row:, col])[0]
        if nz.size == 0:
            continue
        pivot = row + nz[0]
        if pivot != row:
            r[[row, pivot]] = r[[pivot, row]]
        inv = field.inv(int(r[row, col]))
        r[row] = mul[inv, r[row]]
        others = np.nonzero(r[:, col])[0]
        others = others[others != row]
        if others.size:
            factors = r[others, col]
            r[others] ^= mul[factors[:, None], r[row][None, :]]
        pivot_cols.append(col)
        row += 1
    return r, pivot_cols
