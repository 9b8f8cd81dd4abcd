import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import PolyMatrix, RingPoly
from nbqc.gf import GF
from nbqc.linalg import gf_matmul
from nbqc.lifter import Monomial

F4 = GF(2)
F16 = GF(4)


def rand_poly(rng, field, s):
    return RingPoly(field, tuple(int(v) for v in rng.integers(0, field.q, size=s)))


# ----------------------------------------------------------------------
# addition / multiplication
# ----------------------------------------------------------------------
def test_add_basics():
    a = RingPoly(F4, (1, 1, 0))  # x + 1
    b = RingPoly(F4, (1, 0, 1))  # x^2 + 1
    assert (a + b).coeffs == (0, 1, 1)  # x^2 + x
    zero = RingPoly.zero(F4, 3)
    assert a + zero == a
    assert (a + a).is_zero()


def test_mul_wraps_exponents():
    x2 = RingPoly.monomial_poly(F4, 3, 1, 2)
    assert (x2 * x2).coeffs == (0, 1, 0)  # x^4 = x in s=3
    one = RingPoly.one(F4, 3)
    a = RingPoly(F4, (2, 3, 1))
    assert a * one == a


def test_mul_gf4_coefficients():
    # (2x) * (3x^3) = (2*3) x^4 = 1 in GF(4)[x]/(x^4 - 1)
    a = RingPoly.monomial_poly(F4, 4, 2, 1)
    b = RingPoly.monomial_poly(F4, 4, 3, 3)
    assert (a * b) == RingPoly.one(F4, 4)


def test_size_mismatch_rejected():
    a = RingPoly(F4, (1, 0, 0))
    b = RingPoly(F4, (1, 0, 0, 0))
    with pytest.raises(ValueError):
        a + b
    with pytest.raises(ValueError):
        a * b


def test_field_mismatch_rejected():
    a = RingPoly(F4, (1, 0, 0))
    b = RingPoly(F16, (1, 0, 0))
    with pytest.raises(ValueError):
        a + b


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**30), st.integers(2, 8), st.sampled_from([F4, F16]))
def test_ring_axioms_random(seed, s, field):
    rng = np.random.default_rng(seed)
    a, b, c = (rand_poly(rng, field, s) for _ in range(3))
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


# ----------------------------------------------------------------------
# monomials
# ----------------------------------------------------------------------
def test_mono_zero_beta_rejected():
    with pytest.raises(ValueError):
        Monomial(0, 1)


# ----------------------------------------------------------------------
# determinant
# ----------------------------------------------------------------------
def test_determinant_identity():
    for k in range(1, 5):
        m = PolyMatrix.identity(F4, 3, k)
        assert m.determinant() == RingPoly.one(F4, 3)


def test_determinant_2x2_formula():
    rng = np.random.default_rng(0)
    for _ in range(25):
        a, b, c, d = (rand_poly(rng, F16, 5) for _ in range(4))
        m = PolyMatrix.from_entries(F16, 5, [[a, b], [c, d]])
        assert m.determinant() == a * d + b * c


def test_determinant_cycle_example():
    x = RingPoly.monomial_poly(F4, 3, 1, 1)
    one = RingPoly.one(F4, 3)
    m = PolyMatrix.from_entries(F4, 3, [[x, one], [one, one]])
    det = m.determinant()
    assert det.coeffs == (1, 1, 0)  # x + 1
    assert not det.is_zero()


def test_determinant_repeated_row_is_zero():
    rng = np.random.default_rng(1)
    row = [rand_poly(rng, F4, 4) for _ in range(3)]
    other = [rand_poly(rng, F4, 4) for _ in range(3)]
    m = PolyMatrix.from_entries(F4, 4, [row, other, row])
    assert m.determinant().is_zero()


def test_determinant_invariant_under_row_swap():
    rng = np.random.default_rng(2)
    rows = [[rand_poly(rng, F4, 3) for _ in range(3)] for _ in range(3)]
    m1 = PolyMatrix.from_entries(F4, 3, rows)
    m2 = PolyMatrix.from_entries(F4, 3, [rows[1], rows[0], rows[2]])
    assert m1.determinant() == m2.determinant()


def test_determinant_size_limits():
    zero = RingPoly.zero(F4, 2)
    grid7 = [[zero] * 7 for _ in range(7)]
    with pytest.raises(ValueError):
        PolyMatrix.from_entries(F4, 2, grid7).determinant()
    with pytest.raises(ValueError):
        PolyMatrix.from_entries(F4, 2, [[zero, zero]]).determinant()


# ----------------------------------------------------------------------
# expansion
# ----------------------------------------------------------------------
def test_expand_zero_block():
    assert not RingPoly.zero(F4, 4).expand().any()


def test_expand_monomial_first_column_convention():
    # beta x^z puts the single entry of column 0 in row z
    e = RingPoly.monomial_poly(F16, 5, 7, 3).expand()
    assert e[3, 0] == 7
    for c in range(5):
        col = e[:, c]
        assert (col != 0).sum() == 1
        assert col[(3 + c) % 5] == 7


def test_expand_reference_block_matrix():
    zero = RingPoly.zero(F4, 3)
    one = RingPoly.one(F4, 3)
    h = PolyMatrix.from_entries(
        F4,
        3,
        [
            [zero, RingPoly.monomial_poly(F4, 3, 1, 2), RingPoly.monomial_poly(F4, 3, 2, 1)],
            [one, zero, RingPoly.monomial_poly(F4, 3, 3, 2)],
        ],
    )
    expected = np.array(
        [
            [0, 0, 0, 0, 1, 0, 0, 0, 2],
            [0, 0, 0, 0, 0, 1, 2, 0, 0],
            [0, 0, 0, 1, 0, 0, 0, 2, 0],
            [1, 0, 0, 0, 0, 0, 0, 3, 0],
            [0, 1, 0, 0, 0, 0, 0, 0, 3],
            [0, 0, 1, 0, 0, 0, 3, 0, 0],
        ]
    )
    assert np.array_equal(h.expand(), expected)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**30), st.integers(2, 8), st.sampled_from([F4, F16]))
def test_expand_is_ring_homomorphism(seed, s, field):
    rng = np.random.default_rng(seed)
    a, b = rand_poly(rng, field, s), rand_poly(rng, field, s)
    ea, eb = a.expand(), b.expand()
    assert np.array_equal((a + b).expand(), ea ^ eb)
    assert np.array_equal((a * b).expand(), gf_matmul(field, ea, eb))
