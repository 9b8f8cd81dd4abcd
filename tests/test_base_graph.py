import hashlib
import math
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    ace_vector,
    brute_force_cycles,
    cycles_through,
    example_lifting,
    random_base_matrix,
    random_weighted_base,
)
from nbqc import base_graph
from nbqc.base_graph import (
    BaseMatrix,
    Cycle,
    CycleList,
    ace_text,
    all_cycles,
    cycle_ace,
    cycle_aces,
    girth,
)
from nbqc.cli import _analyze_base

EX_BASE = BaseMatrix([[0, 1, 1], [1, 0, 1]])
INPUTS = Path(__file__).resolve().parents[1] / "perfbench" / "inputs"


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


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6), st.integers(1, 8), st.booleans(), st.integers(0, 2**32 - 1))
def test_edges_numbered_once_column_by_column(m, n, empty, seed):
    rng = np.random.default_rng(seed)
    bits = rng.random((m, n)) < 0.5
    if empty:  # an empty row and an empty column
        bits[rng.integers(m)] = bits[:, rng.integers(n)] = False
    h = BaseMatrix(bits)
    assert h.ones() == [(i, j) for j in range(n) for i in range(m) if bits[i, j]]
    n_edges = int(bits.sum())
    assert np.array_equal(h.edge_index[h.edge_rows, h.edge_cols], np.arange(n_edges))
    assert np.array_equal(h.edge_index == -1, ~bits)
    for table in (h.edge_rows, h.edge_cols, h.edge_index):
        with pytest.raises(ValueError, match="read-only"):
            table[...] = 0


# text -> the start of the expected message, which names the offending line
FROM_TEXT_ERRORS = {
    "": "empty base matrix file",
    "2 2\n1 1\n": "line 1: expected 2 matrix rows, found 1",
    "2 2\n1 1\n1 2\n": "line 3: entries must be 0 or 1",
    "x y\n": "line 1: expected header",
    "1 2\n1 1 1\n": "line 2: expected 2 entries",
    "2 3\n1 1 0\n": "line 1: expected 2 matrix rows, found 1",
    "-1 3\n": "line 1: non-positive dimensions",
    "0 0\n": "line 1: non-positive dimensions",
    "2 2\n1 1\n1 1\n1 1\n": "line 4: expected 2 matrix rows, found 3",
    "# c\n2 2\n\n1 1\n1 1\n0 1\n": "line 6: expected 2 matrix rows, found 3",
}


@pytest.mark.parametrize("text", list(FROM_TEXT_ERRORS))
def test_from_text_errors(text):
    with pytest.raises(ValueError, match=f"^{FROM_TEXT_ERRORS[text]}"):
        BaseMatrix.from_text(text)


def test_bits_are_read_only():
    with pytest.raises(ValueError):
        EX_BASE.bits[0, 0] = 1


# ----------------------------------------------------------------------
# validation, as `nbqc analyze` reports it
# ----------------------------------------------------------------------
def analyzed(h: BaseMatrix, capsys) -> list[str]:
    _analyze_base(h, 4, None)
    return capsys.readouterr().out.splitlines()


def test_validate_small_example(capsys):
    out = analyzed(EX_BASE, capsys)
    assert out[:3] == [
        "base matrix: 2 x 3",
        "rate lower bound: 1/3 (0.3333)",
        "column weights: 1x2, 2x1",
    ]
    # irregular columns: no distance ceiling
    assert not any(line.startswith("distance upper bound") for line in out)


def test_validate_high_rate_base(capsys):
    bits = np.zeros((4, 33), dtype=int)
    bits[0, :] = 1  # degrees irrelevant to the rate bound
    assert "rate lower bound: 29/33 (0.8788)" in analyzed(BaseMatrix(bits), capsys)


def test_validate_all_zero_rejected(capsys):
    with pytest.raises(ValueError, match="^degenerate base matrix: no nonzero entries$"):
        _analyze_base(BaseMatrix([[0, 0], [0, 0]]), 4, None)
    assert capsys.readouterr().out == ""


def test_validate_flags_zero_columns(capsys):
    out = analyzed(BaseMatrix([[1, 0], [1, 0]]), capsys)
    assert "warning: matrix has all-zero columns" in out
    assert "warning: matrix has all-zero rows" not in out


# ----------------------------------------------------------------------
# cycle enumeration
# ----------------------------------------------------------------------
def test_tree_base_has_no_cycles():
    assert all_cycles(EX_BASE, 12) == []


def test_two_by_two_all_ones_single_cycle():
    h = BaseMatrix([[1, 1], [1, 1]])
    cycles = all_cycles(h, 4)
    assert len(cycles) == 1
    c = cycles[0]
    assert c.length == 4
    assert set(c.rows) == {0, 1} and set(c.cols) == {0, 1}


@pytest.mark.parametrize("depth", [2, 5, 14])
def test_all_cycles_checks_depth(depth):
    with pytest.raises(ValueError, match="^depth "):
        all_cycles(BaseMatrix([[1, 1], [1, 1]]), depth)


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


def test_cycle_cap_truncates_with_warning():
    h = BaseMatrix(np.ones((4, 4), dtype=int))
    with pytest.warns(UserWarning, match="cycle cap"):
        capped = all_cycles(h, 4, cap=2)
    assert len([c for c in capped if min(c.cols) == 0 and c.length == 4]) == 2
    full = all_cycles(h, 4)
    assert len([c for c in full if min(c.cols) == 0]) > 2


def by_length(cycles) -> list:
    """The cycles stably sorted by length: all_cycles' order from the depth-first one."""
    return sorted(cycles, key=lambda c: c.length)


@pytest.mark.parametrize("seed", range(8))
def test_all_cycles_order_is_first_discovery_over_columns(seed):
    rng = np.random.default_rng(100 + seed)
    h = random_base_matrix(rng, 4 + seed % 2, 7)
    union = dict.fromkeys(c for j in range(h.n) for c in cycles_through(h, j, 8))
    assert all_cycles(h, 8) == by_length(union)


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


def depth_first_cycles(h: BaseMatrix, depth: int, cap: int | None = None):
    """all_cycles by the oracle walk: each column's own cycles in cycles_through's order,
    then stably sorted by length.

    Keeps the first `cap` cycles of each (smallest column, length) and
    returns them with the warning texts of the pairs the cap cut.
    """
    kept, texts = [], set()
    for j in range(h.n):
        seen: Counter = Counter()
        for c in cycles_through(h, j, depth):
            if c.cols[0] != j:
                continue  # found again from its smallest column
            seen[c.length] += 1
            if cap is None or seen[c.length] <= cap:
                kept.append(c)
            else:
                texts.add(
                    f"cycle cap {cap} reached for length {c.length} at column {j}; "
                    "enumeration truncated"
                )
    return by_length(kept), texts


def _oracle_bases():
    """(base, depth): random bases with column weights 1 to 4 and up to 6 rows.

    Bases get fewer columns as the depth grows, so that the brute force
    over column sequences stays quick.
    """
    rng = np.random.default_rng(16)
    cases = [(BaseMatrix(np.ones((4, 5), dtype=int)), 8)]
    for depth, most_cols in ((4, 8), (6, 8), (8, 7), (10, 7), (12, 7)):
        for _ in range(8):
            m = int(rng.integers(max(2, depth // 2 - 1), 7))  # room for the longest cycles
            weights = [0]
            while sum(weights) < m:  # enough ones to cover every row
                n = int(rng.integers(max(2, depth // 2), most_cols + 1))
                weights = np.minimum(rng.integers(1 + depth // 10, 5, size=n), m).tolist()
            cases.append((random_weighted_base(rng, m, weights), depth))
    return cases


@pytest.mark.parametrize("chunk", [None, 3])
def test_all_cycles_matches_the_depth_first_oracle(chunk, monkeypatch):
    if chunk is not None:  # many chunks per step: walks must carry across them
        monkeypatch.setattr(base_graph, "_WALK_CHUNK", chunk)
    longest = set()
    for h, depth in _oracle_bases():
        want, _ = depth_first_cycles(h, depth)
        got = all_cycles(h, depth)
        assert got == want, (h.bits, depth)
        longest |= {depth} & set(got.lengths.tolist())
        assert set(got) == brute_force_cycles(h, depth)
        assert got.truncated is False
        for cap in range(1, 6):
            want, texts = depth_first_cycles(h, depth, cap)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                got = all_cycles(h, depth, cap=cap)
            assert got == want, (h.bits, depth, cap)
            assert got.truncated is bool(texts)
            messages = [str(w.message) for w in caught]
            assert sorted(messages) == sorted(texts)  # one warning per capped pair
    assert longest == {4, 6, 8, 10, 12}  # every depth reached its own length


def test_cycle_list_reads_as_a_list_of_cycles():
    h = BaseMatrix(np.ones((3, 4), dtype=int))
    cycles = all_cycles(h, 6)
    listed = list(cycles)
    assert isinstance(cycles, CycleList) and all(isinstance(c, Cycle) for c in listed)
    assert cycles == listed and listed == cycles
    assert cycles != listed[:-1] and cycles != listed[::-1]
    assert len(cycles) == len(listed) == len(set(cycles)) == 42
    assert [cycles[t] for t in range(-len(cycles), 0)] == listed
    for t, c in enumerate(listed):
        again = cycles[t]
        assert again == c and hash(again) == hash(c) and again is not c
    with pytest.raises(IndexError):
        cycles[len(cycles)]
    with pytest.raises(IndexError):
        cycles[-len(cycles) - 1]
    assert CycleList.from_cycles(listed) == cycles
    assert CycleList.from_cycles([]) == [] == all_cycles(EX_BASE, 4)
    assert cycle_aces(h, cycles).tolist() == [cycle_ace(h, c) for c in listed]


def test_depth_12_cycles_of_the_paper_base_keep_their_order():
    # pins the counts and the order (by length, each length in depth-first walk
    # order) on the paper's 8x66 base; the order decides which cycles a cap
    # keeps, while construct and analyze outputs do not depend on it
    h = BaseMatrix.from_file(INPUTS / "base_8x66.txt")
    cycles = all_cycles(h, 12)
    assert Counter(cycles.lengths.tolist()) == {
        4: 48,
        6: 751,
        8: 6555,
        10: 48384,
        12: 276720,
    }
    assert len(cycles) == 332_458
    assert (
        hashlib.sha256(repr(list(cycles)).encode()).hexdigest()
        == "863994c8d67c93c9184d02c4c7309368a25ab1f0988e7c502e08d1876bb64dea"
    )


# ----------------------------------------------------------------------
# ACE accounting
# ----------------------------------------------------------------------
def test_cycle_ace_degree_two_columns():
    h = BaseMatrix([[1, 1], [1, 1]])
    (c,) = all_cycles(h, 4)
    assert cycle_ace(h, c) == 0


def test_cycle_ace_three_by_two_all_ones():
    h = BaseMatrix(np.ones((3, 2), dtype=int))
    c = all_cycles(h, 4)[0]
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
    six = [c for c in all_cycles(h, 6) if c.length == 6 and set(c.cols) == {0, 1, 2}]
    target = [c for c in six if set(c.rows) == {0, 1, 2}]
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

    assert ace_vector(h, [(c, True) for c in cycles], 8) == (
        math.inf,
        math.inf,
        math.inf,
    )

    one_active = [(four[0], False)] + [(c, True) for c in cycles if c is not four[0]]
    vec = ace_vector(h, one_active, 8)
    assert vec == (cycle_ace(h, four[0]), math.inf, math.inf)

    # minimum over two surviving 6-cycles
    status = [(c, True) for c in four] + [(c, i >= 2) for i, c in enumerate(six)]
    vec = ace_vector(h, status, 8)
    assert vec[1] == min(cycle_ace(h, c) for c in six[:2])
    assert vec[0] == math.inf


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
        assert base_vec <= new_vec


def test_ace_text():
    assert ace_text((math.inf,)) == "(inf)"
    assert ace_text((0, 2.0, math.inf)) == "(0, 2, inf)"


# ----------------------------------------------------------------------
# girth
# ----------------------------------------------------------------------
def test_girth_examples():
    assert girth(EX_BASE) == math.inf
    assert girth(BaseMatrix([[1, 1], [1, 1]])) == 4
    assert girth(BaseMatrix([[1, 1, 0], [1, 0, 1], [0, 1, 1]])) == 6


def test_girth_accepts_scalar_matrix():
    h = np.array([[1, 2], [3, 1]])
    assert girth(BaseMatrix(h != 0)) == 4


def test_expanded_tree_girth_against_enumeration_oracle():
    # lifting an acyclic base yields an acyclic expansion; cross-check the
    # BFS girth against the exhaustive enumerator on the expanded pattern
    lifting = example_lifting()
    assert lifting.base == EX_BASE
    expanded = lifting.expand()
    pattern = BaseMatrix(expanded != 0)
    assert girth(pattern) == math.inf
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
