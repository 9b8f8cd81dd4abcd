import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import brute_force_cycles, random_base_matrix
from nbqc.base_graph import (
    AceVector,
    BaseMatrix,
    Cycle,
    ace_vector,
    all_cycles,
    cycle_ace,
    cycles_through,
    girth,
    lex_compare,
    validate,
)

EX_BASE = BaseMatrix([[0, 1, 1], [1, 0, 1]])


# ----------------------------------------------------------------------
# construction and text format
# ----------------------------------------------------------------------
def test_rejects_bad_inputs():
    with pytest.raises(ValueError):
        BaseMatrix([[0, 2], [1, 0]])
    with pytest.raises(ValueError):
        BaseMatrix(np.zeros((0, 3)))


def test_text_round_trip():
    text = EX_BASE.to_text()
    assert text == "2 3\n0 1 1\n1 0 1\n"
    assert BaseMatrix.from_text(text) == EX_BASE


def test_from_text_with_comments():
    h = BaseMatrix.from_text("# header\n2 2\n\n1 1  # row one\n1 1\n")
    assert h == BaseMatrix([[1, 1], [1, 1]])


@pytest.mark.parametrize(
    "text",
    ["", "2 2\n1 1\n", "2 2\n1 1\n1 2\n", "x y\n", "1 2\n1 1 1\n"],
)
def test_from_text_errors(text):
    with pytest.raises(ValueError):
        BaseMatrix.from_text(text)


def test_bits_are_read_only():
    with pytest.raises(ValueError):
        EX_BASE.bits[0, 0] = 1


# ----------------------------------------------------------------------
# validate
# ----------------------------------------------------------------------
def test_validate_small_example():
    diag = validate(EX_BASE)
    assert (diag.m, diag.n) == (2, 3)
    assert float(diag.rate_lower_bound) == pytest.approx(1 / 3)
    assert diag.column_degrees == (1, 1, 2)
    assert not diag.column_regular


def test_validate_high_rate_base():
    bits = np.zeros((4, 33), dtype=int)
    bits[0, :] = 1  # degrees irrelevant to the rate bound
    diag = validate(BaseMatrix(bits))
    assert diag.rate_lower_bound.numerator == 29
    assert diag.rate_lower_bound.denominator == 33
    assert float(diag.rate_lower_bound) == pytest.approx(0.8788, abs=1e-4)


def test_validate_all_zero_rejected():
    with pytest.raises(ValueError):
        validate(BaseMatrix([[0, 0], [0, 0]]))


def test_validate_flags_zero_columns():
    diag = validate(BaseMatrix([[1, 0], [1, 0]]))
    assert any("column" in w for w in diag.warnings)


# ----------------------------------------------------------------------
# cycle enumeration
# ----------------------------------------------------------------------
def test_tree_base_has_no_cycles():
    for j in range(3):
        assert cycles_through(EX_BASE, j, 12) == []


def test_two_by_two_all_ones_single_cycle():
    h = BaseMatrix([[1, 1], [1, 1]])
    cycles = cycles_through(h, 0, 4)
    assert len(cycles) == 1
    c = cycles[0]
    assert c.length == 4
    assert c.rows == {0, 1} and c.cols == {0, 1}
    c.check_against(h)


def test_canonical_form_same_from_every_column():
    h = BaseMatrix([[1, 1, 0], [1, 0, 1], [0, 1, 1]])  # single 6-cycle
    per_col = [cycles_through(h, j, 6) for j in range(3)]
    assert all(len(cs) == 1 for cs in per_col)
    assert per_col[0][0] == per_col[1][0] == per_col[2][0]
    assert len(all_cycles(h, 6)) == 1


def test_larger_depth_gives_superset():
    rng = np.random.default_rng(7)
    for _ in range(5):
        h = random_base_matrix(rng, 4, 6)
        small = set(all_cycles(h, 6))
        large = set(all_cycles(h, 8))
        assert small <= large


@pytest.mark.parametrize("seed", range(6))
def test_matches_brute_force_enumerator(seed):
    rng = np.random.default_rng(seed)
    h = random_base_matrix(rng, 4, 8)
    assert set(all_cycles(h, 8)) == brute_force_cycles(h, 8)


def test_cycles_through_only_returns_cycles_through_j():
    rng = np.random.default_rng(3)
    h = random_base_matrix(rng, 4, 8)
    for j in range(h.n):
        for c in cycles_through(h, j, 8):
            assert j in c.cols
            c.check_against(h)


def test_cycle_cap_truncates_with_warning():
    h = BaseMatrix(np.ones((4, 4), dtype=int))
    with pytest.warns(UserWarning, match="cycle cap"):
        capped = cycles_through(h, 0, 4, cap=2)
    assert len([c for c in capped if c.length == 4]) == 2
    full = cycles_through(h, 0, 4)
    assert len(full) > 2


@pytest.mark.parametrize("seed", range(8))
def test_all_cycles_order_is_first_discovery_over_columns(seed):
    rng = np.random.default_rng(100 + seed)
    h = random_base_matrix(rng, 4 + seed % 2, 7)
    union = dict.fromkeys(c for j in range(h.n) for c in cycles_through(h, j, 8))
    assert all_cycles(h, 8) == list(union)


def test_all_cycles_cap_counts_per_smallest_column():
    h = BaseMatrix(np.ones((4, 5), dtype=int))
    full = all_cycles(h, 6)
    assert full.truncated is False
    with pytest.warns(UserWarning, match="cycle cap"):
        capped = all_cycles(h, 6, cap=3)
    assert capped.truncated is True
    kept: Counter = Counter()
    expected = []
    for c in full:
        key = (min(c.cols), c.length)
        if kept[key] < 3:
            kept[key] += 1
            expected.append(c)
    assert capped == expected


# ----------------------------------------------------------------------
# ACE accounting
# ----------------------------------------------------------------------
def test_cycle_ace_degree_two_columns():
    h = BaseMatrix([[1, 1], [1, 1]])
    (c,) = cycles_through(h, 0, 4)
    assert cycle_ace(h, c) == 0


def test_cycle_ace_three_by_two_all_ones():
    h = BaseMatrix(np.ones((3, 2), dtype=int))
    c = cycles_through(h, 0, 4)[0]
    assert cycle_ace(h, c) == 2


def test_cycle_ace_mixed_degrees_six_cycle():
    # 6-cycle over columns of degree 2, 3, 4: ACE = 0 + 1 + 2 = 3
    bits = np.zeros((4, 3), dtype=int)
    for i, j in [(0, 0), (1, 0), (1, 1), (2, 1), (2, 2), (0, 2)]:
        bits[i, j] = 1
    bits[3, 1] = 1  # pad col 1 to degree 3
    bits[3, 2] = bits[1, 2] = 1  # pad col 2 to degree 4
    h = BaseMatrix(bits)
    assert h.column_degrees == (2, 3, 4)
    six = [c for c in all_cycles(h, 6) if c.length == 6 and c.cols == {0, 1, 2}]
    target = [c for c in six if c.rows == {0, 1, 2}]
    assert target and cycle_ace(h, target[0]) == 3


def test_cycle_ace_nonnegative_and_zero_iff_degree_two():
    rng = np.random.default_rng(13)
    for _ in range(8):
        h = random_base_matrix(rng, 4, 7)
        for c in all_cycles(h, 8):
            ace = cycle_ace(h, c)
            assert ace >= 0
            all_deg2 = all(h.column_degrees[j] == 2 for j in c.cols)
            assert (ace == 0) == all_deg2


def test_ace_vector_cases():
    h = BaseMatrix(np.ones((3, 4), dtype=int))
    cycles = all_cycles(h, 6)
    four = [c for c in cycles if c.length == 4]
    six = [c for c in cycles if c.length == 6]

    assert ace_vector(h, [(c, True) for c in cycles], 8).values == (
        math.inf,
        math.inf,
        math.inf,
    )

    one_active = [(four[0], False)] + [(c, True) for c in cycles if c is not four[0]]
    vec = ace_vector(h, one_active, 8)
    assert vec.values == (cycle_ace(h, four[0]), math.inf, math.inf)

    # minimum over two surviving 6-cycles
    status = [(c, True) for c in four] + [(c, i >= 2) for i, c in enumerate(six)]
    vec = ace_vector(h, status, 8)
    assert vec.values[1] == min(cycle_ace(h, c) for c in six[:2])
    assert vec.values[0] == math.inf


def test_ace_vector_monotone_under_elimination():
    rng = np.random.default_rng(5)
    h = random_base_matrix(rng, 4, 7)
    cycles = all_cycles(h, 8)
    if not cycles:
        pytest.skip("no cycles drawn")
    status = [bool(rng.integers(0, 2)) for _ in cycles]
    base_vec = ace_vector(h, list(zip(cycles, status)), 8)
    for idx in range(len(cycles)):
        if status[idx]:
            continue
        bumped = list(status)
        bumped[idx] = True
        new_vec = ace_vector(h, list(zip(cycles, bumped)), 8)
        assert lex_compare(base_vec, new_vec) <= 0


# ----------------------------------------------------------------------
# lexicographic comparison
# ----------------------------------------------------------------------
def test_lex_compare_reference_orderings():
    a = AceVector(8, (1, 2, 3))
    assert lex_compare(a, AceVector(8, (2, 2, 3))) == -1
    assert lex_compare(a, AceVector(8, (1, 3, 3))) == -1
    assert lex_compare(a, AceVector(8, (1, 2, 3))) == 0


def test_lex_compare_infinity_dominates():
    assert lex_compare(AceVector(6, (math.inf, 1)), AceVector(6, (5, 9))) == 1


def test_lex_compare_depth_mismatch():
    with pytest.raises(ValueError):
        lex_compare(AceVector(6, (1, 2)), AceVector(8, (1, 2, 3)))


def test_ace_vector_validation():
    with pytest.raises(ValueError):
        AceVector(8, (1, 2))
    with pytest.raises(ValueError):
        AceVector(7, (1, 2))
    with pytest.raises(ValueError):
        AceVector(6, (-1, 2))


finite_or_inf = st.one_of(st.integers(0, 30), st.just(math.inf))


@settings(max_examples=100)
@given(
    st.tuples(finite_or_inf, finite_or_inf),
    st.tuples(finite_or_inf, finite_or_inf),
    st.tuples(finite_or_inf, finite_or_inf),
)
def test_lex_compare_total_order(va, vb, vc):
    a, b, c = (AceVector(6, v) for v in (va, vb, vc))
    assert lex_compare(a, b) == -lex_compare(b, a)
    if lex_compare(a, b) <= 0 and lex_compare(b, c) <= 0:
        assert lex_compare(a, c) <= 0


# ----------------------------------------------------------------------
# girth
# ----------------------------------------------------------------------
def test_girth_examples():
    assert girth(EX_BASE) == math.inf
    assert girth(BaseMatrix([[1, 1], [1, 1]])) == 4
    assert girth(BaseMatrix([[1, 1, 0], [1, 0, 1], [0, 1, 1]])) == 6


def test_girth_accepts_scalar_matrix():
    h = np.array([[1, 2], [3, 1]])
    assert girth(h) == 4


def test_expanded_tree_girth_against_enumeration_oracle():
    # lifting an acyclic base yields an acyclic expansion; cross-check the
    # BFS girth against the exhaustive enumerator on the expanded pattern
    from nbqc.gf import GF
    from nbqc.lifter import Lifting, Monomial

    lifting = Lifting(
        EX_BASE,
        3,
        GF(2),
        {
            (0, 1): Monomial(1, 2),
            (0, 2): Monomial(2, 1),
            (1, 0): Monomial(1, 0),
            (1, 2): Monomial(3, 2),
        },
    )
    expanded = lifting.expand()
    assert girth(expanded) == math.inf
    pattern = BaseMatrix((expanded != 0).astype(int))
    assert brute_force_cycles(pattern, 12) == set()


@pytest.mark.parametrize("seed", range(5))
def test_girth_matches_shortest_enumerated_cycle(seed):
    rng = np.random.default_rng(seed)
    h = random_base_matrix(rng, 4, 6)
    cycles = brute_force_cycles(h, 8)
    expected = min((c.length for c in cycles), default=math.inf)
    got = girth(h)
    if expected is not math.inf:
        assert got == expected
    else:
        # columns are few enough that any cycle has length <= 8
        assert got == math.inf
