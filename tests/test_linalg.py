import numpy as np
import pytest

from helpers import plain_rank, reference_rref
from nbqc.gf import GF
from nbqc.linalg import gf_matmul, gf_rref, gf_sparse_matmul


def elimination_cases(rng, field):
    """(name, matrix) pairs covering the shapes the blocked elimination meets."""
    q = field.q

    def dense(m, n):
        return rng.integers(0, q, size=(m, n))

    def sparse(m, n, density=0.3):
        return dense(m, n) * (rng.random((m, n)) < density)

    deficient = dense(5, 9)
    deficient[3] = gf_matmul(field, [[1, 0, 1, 0, 0]], deficient)[0]  # row 0 + row 2
    deficient[4] = 0
    zero_lines = sparse(6, 11)
    zero_lines[[1, 4]] = 0
    zero_lines[:, [0, 5, 10]] = 0
    late = np.zeros((3, 20), dtype=np.int64)  # first pivot at column 8, past the 2m = 6 block
    late[:, 8:] = sparse(3, 12, 0.5)
    late[0, 8] = late[1, 15] = late[2, 19] = 1
    # rank 3 of 4, so every 8-column block is filled: an RREF with pivots
    # 2, 11 and 30, rows mixed by an invertible matrix, and a dependent row
    echelon = sparse(3, 40, 0.3)
    for r, c in enumerate((2, 11, 30)):
        echelon[:, c] = 0
        echelon[r, :c], echelon[r, c] = 0, 1
    mix = np.tril(dense(3, 3), -1) + np.eye(3, dtype=np.int64)
    spread = np.zeros((4, 40), dtype=np.int64)
    spread[:3] = gf_matmul(field, mix, echelon)
    spread[3] = spread[0] ^ spread[2]
    return [
        ("square", dense(6, 6)),
        ("wide", sparse(5, 17)),
        ("tall", dense(9, 4)),  # m > n
        ("rank-deficient", deficient),
        ("zero rows and columns", zero_lines),
        ("pivots past the first block", late),
        ("rank-deficient across blocks", spread),
        ("all zero", np.zeros((3, 7), dtype=np.int64)),
        ("one row", sparse(1, 9, 0.5)),
    ]


@pytest.mark.parametrize("p", range(1, 9))
def test_row_transform_reduces_like_the_dense_oracle(p):
    field = GF(p)
    rng = np.random.default_rng(100 + p)
    past_first_block = False
    for name, a in elimination_cases(rng, field):
        t, pivots = gf_rref(field, a)
        r, want_pivots = reference_rref(field, a)
        assert pivots == want_pivots, name
        assert np.array_equal(gf_matmul(field, t, a), r), name
        assert t.shape == (len(a), len(a)) and plain_rank(field, t) == len(a), name
        past_first_block |= bool(pivots) and pivots[-1] >= 2 * len(a)
        if name == "rank-deficient across blocks":
            assert pivots == [2, 11, 30]
    assert past_first_block  # the sparse block fill ran


@pytest.mark.parametrize("p", [1, 4, 8])
def test_sparse_product_equals_dense_product(p):
    field = GF(p)
    rng = np.random.default_rng(p)
    s = rng.integers(0, field.q, size=(7, 9)) * (rng.random((7, 9)) < 0.3)
    s[:, 4] = 0  # a column without entries
    cols, rows = np.nonzero(s.T)
    x = rng.integers(0, field.q, size=(3, 5, 7))
    got = gf_sparse_matmul(field, x, rows, cols, s[rows, cols], 9)
    want = gf_matmul(field, x.reshape(-1, 7), s).reshape(3, 5, 9)
    assert got.dtype == field.mul_table.dtype and np.array_equal(got, want)
    empty = gf_sparse_matmul(field, x[0, 0], rows[:0], cols[:0], s[rows, cols][:0], 4)
    assert np.array_equal(empty, np.zeros(4))
