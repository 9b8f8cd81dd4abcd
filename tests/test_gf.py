import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from helpers import clmul_reduce
from nbqc.gf import DEFAULT_PRIMITIVE_POLY, GF


def test_gf4_spot_values():
    f = GF(2)
    assert f.mul(2, 3) == 1  # alpha * alpha^2 = alpha^3 = 1
    assert f.mul(2, 2) == 3
    assert f.inv(2) == 3
    assert f.inv(1) == 1


def test_identity_and_absorbing():
    f = GF(4)
    for a in range(f.q):
        assert f.mul(a, 1) == a
        assert f.mul(a, 0) == 0


@pytest.mark.parametrize("p", [2, 3, 4, 6, 8])
def test_inverse_exhaustive(p):
    f = GF(p)
    for a in range(1, f.q):
        assert f.mul(a, f.inv(a)) == 1


def test_inv_of_zero_rejected():
    with pytest.raises(ValueError):
        GF(3).inv(0)


@pytest.mark.parametrize("p", [2, 3, 4, 6])
def test_mul_matches_carryless_oracle_all_pairs(p):
    f = GF(p)
    poly = DEFAULT_PRIMITIVE_POLY[p]
    for a in range(f.q):
        for b in range(f.q):
            assert f.mul(a, b) == clmul_reduce(a, b, poly, p)


@pytest.mark.parametrize("p", [2, 3, 4, 8])
def test_field_axioms_exhaustive(p):
    """Associativity, commutativity, distributivity over every triple."""
    f = GF(p)
    t = f.mul_table.astype(np.int64)
    q = f.q
    a = np.arange(q)[:, None, None]
    b = np.arange(q)[None, :, None]
    c = np.arange(q)[None, None, :]
    assert np.array_equal(t, t.T)
    assert np.array_equal(t[t[a, b], c], t[a, t[b, c]])
    assert np.array_equal(t[a, b ^ c], t[a, b] ^ t[a, c])
    # every nonzero row of the table hits 1 somewhere: inverses exist
    assert (t[1:] == 1).any(axis=1).all()


def test_exp_log_tables_consistent():
    f = GF(6)
    for a in range(1, f.q):
        assert f.exp_table[f.log_table[a]] == a
    for i in range(f.q - 1):
        assert f.exp_table[i + f.q - 1] == f.exp_table[i]


def test_tables_read_only_and_scalars_python_ints():
    f = GF(4)
    for table in (f.exp_table, f.log_table):
        assert table.dtype == np.int64
        with pytest.raises(ValueError, match="read-only"):
            table[1] = 0
    assert len(f.exp_table) == 2 * f.q
    assert type(f.mul(3, 7)) is int and type(f.inv(5)) is int


def test_non_primitive_polynomials_rejected():
    # x^4 + x^3 + x^2 + x + 1 is irreducible but has order 5, not 15
    with pytest.raises(ValueError):
        GF(4, primitive_poly=0b11111)
    # x^4 + x^2 + 1 is reducible
    with pytest.raises(ValueError):
        GF(4, primitive_poly=0b10101)
    with pytest.raises(ValueError):
        GF(4, primitive_poly=0b111)  # wrong degree


def test_degree_is_capped_where_int16_table_entries_end():
    # x^15 + x + 1 is primitive: the largest field whose elements fit int16
    assert GF(15, primitive_poly=0b1000000000000011).q == 1 << 15
    for p, poly in ((16, 0b10000000000101101), (0, 0b1)):
        message = f"GF(2^{p}) is not supported: the degree must be from 1 to 15"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            GF(p, primitive_poly=poly)


def test_custom_primitive_polynomial_accepted():
    # x^4 + x^3 + 1 is the reciprocal primitive polynomial for p=4
    f = GF(4, primitive_poly=0b11001)
    for a in range(1, f.q):
        assert f.mul(a, f.inv(a)) == 1


def test_field_equality_and_hash():
    assert GF(4) == GF(4)
    assert GF(4) != GF(4, primitive_poly=0b11001)
    assert hash(GF(6)) == hash(GF(6))


@given(st.integers(0, 15), st.integers(0, 15), st.integers(0, 15))
def test_axioms_hypothesis_gf16(a, b, c):
    f = GF(4)
    assert f.mul(a, b) == f.mul(b, a)
    assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
    assert f.mul(a, b ^ c) == f.mul(a, b) ^ f.mul(a, c)
