import itertools
import json
import math
from fractions import Fraction

import numpy as np
import pytest

from helpers import (
    cycle_submatrix,
    plain_nullity,
    poly_matrix,
    random_base_matrix,
    random_weighted_base,
    reference_greedy_lift,
)
from nbqc.alist_io import serialize_qc
from nbqc.base_graph import BaseMatrix, all_cycles, cycles_through, girth, lex_compare
from nbqc.gf import GF
from nbqc.lifter import (
    ConstructionConfig,
    Lifting,
    Monomial,
    cycle_eliminated,
    cycles_eliminated,
    distance_upper_bound,
    expanded_girth,
    greedy_lift,
    rate_lower_bound,
)

F4 = GF(2)
F16 = GF(4)

EX_BASE = BaseMatrix([[0, 1, 1], [1, 0, 1]])
ALL2 = BaseMatrix([[1, 1], [1, 1]])


def random_lifting(rng, base, s, field):
    return Lifting(
        base,
        s,
        field,
        {
            pos: Monomial(int(rng.integers(1, field.q)), int(rng.integers(0, s)))
            for pos in base.ones()
        },
    )


# ----------------------------------------------------------------------
# cycle elimination test
# ----------------------------------------------------------------------
def test_trivial_assignment_never_eliminates_four_cycles():
    lifting = Lifting.trivial(ALL2, 3, F4)
    (c,) = cycles_through(ALL2, 0, 4)
    assert cycle_eliminated(lifting, c) is False


def test_gf4_beta_cancellation():
    # coefficients 2,1,1,3 with zero shifts: 2*3 == 1*1 in GF(4), so det = 0
    lifting = Lifting.trivial(ALL2, 3, F4)
    lifting.assignment[(0, 0)] = Monomial(2, 0)
    lifting.assignment[(1, 1)] = Monomial(3, 0)
    (c,) = cycles_through(ALL2, 0, 4)
    assert cycle_eliminated(lifting, c) is False


def test_single_shift_eliminates():
    lifting = Lifting.trivial(ALL2, 3, F4)
    lifting.assignment[(0, 0)] = Monomial(1, 1)
    (c,) = cycles_through(ALL2, 0, 4)
    assert cycle_eliminated(lifting, c) is True
    det = cycle_submatrix(lifting, c).determinant()
    assert det.coeffs == (1, 1, 0)


@pytest.mark.parametrize("s,q", [(3, 4), (5, 4), (8, 16), (6, 16)])
def test_fast_path_agrees_with_determinant(s, q):
    field = GF(q.bit_length() - 1)
    rng = np.random.default_rng(s * 100 + q)
    for _ in range(300):
        lifting = random_lifting(rng, ALL2, s, field)
        (c,) = cycles_through(ALL2, 0, 4)
        fast = cycle_eliminated(lifting, c)
        det = cycle_submatrix(lifting, c).determinant()
        assert fast == (not det.is_zero())


def test_support_determinant_agrees_on_longer_cycles():
    # 6-cycle submatrices, including bases with extra in-span entries
    rng = np.random.default_rng(42)
    triangle = BaseMatrix([[1, 1, 0], [1, 0, 1], [0, 1, 1]])
    dense = BaseMatrix([[1, 1, 1], [1, 1, 1], [0, 1, 1]])
    for base in (triangle, dense):
        cycles = [c for c in all_cycles(base, 6) if c.length == 6]
        assert cycles
        for _ in range(200):
            lifting = random_lifting(rng, base, 5, F16)
            for c in cycles:
                got = cycle_eliminated(lifting, c)
                det = cycle_submatrix(lifting, c).determinant()
                assert got == (not det.is_zero())


def test_elimination_vs_expanded_nullity_two_by_two():
    # For 2x2 monomial submatrices: det == 0 iff nullity(expansion) >= s
    rng = np.random.default_rng(9)
    for s, q in [(3, 4), (4, 4), (6, 16), (8, 16)]:
        field = GF(q.bit_length() - 1)
        for _ in range(60):
            lifting = random_lifting(rng, ALL2, s, field)
            (c,) = cycles_through(ALL2, 0, 4)
            eliminated = cycle_eliminated(lifting, c)
            nullity = plain_nullity(field, cycle_submatrix(lifting, c).expand())
            assert eliminated == (nullity < s)


def test_zero_determinant_implies_singular_expansion():
    rng = np.random.default_rng(10)
    dense = BaseMatrix([[1, 1, 1], [1, 1, 1], [1, 1, 1]])
    cycles = [c for c in all_cycles(dense, 6) if c.length == 6]
    seen_zero = 0
    for _ in range(200):
        lifting = random_lifting(rng, dense, 3, F4)
        for c in cycles:
            sub = cycle_submatrix(lifting, c)
            if sub.determinant().is_zero():
                seen_zero += 1
                assert plain_nullity(F4, sub.expand()) >= 3
    assert seen_zero > 0


def test_batch_elimination_matches_single_cycle_tests():
    rng = np.random.default_rng(12)
    h = random_base_matrix(rng, 4, 7)
    cycles = all_cycles(h, 8)
    for _ in range(5):
        lifting = random_lifting(rng, h, 5, F4)
        got = cycles_eliminated(lifting, cycles)
        assert got.tolist() == [cycle_eliminated(lifting, c) for c in cycles]
        assert got.tolist() == [
            not cycle_submatrix(lifting, c).determinant().is_zero() for c in cycles
        ]


def test_unassigned_edge_raises():
    lifting = Lifting.trivial(ALL2, 3, F4)
    (c,) = cycles_through(ALL2, 0, 4)
    del lifting.assignment[(0, 0)]
    with pytest.raises(RuntimeError):
        cycle_eliminated(lifting, c)


# ----------------------------------------------------------------------
# lifting plumbing
# ----------------------------------------------------------------------
def test_lifting_validation():
    with pytest.raises(ValueError):
        Lifting(ALL2, 3, F4, {(0, 0): Monomial(1, 0)})
    with pytest.raises(ValueError):
        Lifting(
            ALL2, 3, F4, {pos: Monomial(1, 5) for pos in ALL2.ones()}
        )  # shift >= s
    with pytest.raises(ValueError):
        Lifting(
            ALL2, 3, F4, {pos: Monomial(9, 0) for pos in ALL2.ones()}
        )  # beta >= q


def test_trivial_expansion_is_identity_blocks():
    lifting = Lifting.trivial(ALL2, 4, F4)
    expanded = lifting.expand()
    assert np.array_equal(expanded, np.kron(ALL2.bits, np.eye(4, dtype=int)))


@pytest.mark.parametrize("q", [2, 4, 16, 64])
def test_expansion_matches_dense_circulant_oracle(q):
    field = GF(q.bit_length() - 1)
    rng = np.random.default_rng(q)
    for s in range(1, 10):
        for _ in range(3):
            h = random_base_matrix(rng, int(rng.integers(1, 5)), int(rng.integers(1, 7)))
            lifting = random_lifting(rng, h, s, field)
            expanded = lifting.expand()
            assert expanded.dtype == np.int64
            assert np.array_equal(expanded, poly_matrix(lifting).expand())


# ----------------------------------------------------------------------
# greedy construction
# ----------------------------------------------------------------------
def test_greedy_on_acyclic_base_reports_all_inf():
    cfg = ConstructionConfig(s=3, q=4, depth=8, trials_per_edge=5, rng_seed=0)
    lifting, report = greedy_lift(EX_BASE, cfg)
    assert all(math.isinf(v) for v in report.ace.values)
    assert report.cycle_counts == {4: (0, 0), 6: (0, 0), 8: (0, 0)}
    assert math.isinf(report.expanded_girth)
    assert set(lifting.assignment) == set(EX_BASE.ones())
    # with nothing to break, every draw (the first included) is kept
    assert report.trials_accepted == report.trials_total


def test_eliminating_assignments_exist_s3_q4():
    # exhaustive: redrawing one edge of the trivial assignment eliminates the
    # 4-cycle for every (beta, shift) except the identity draw
    (c,) = cycles_through(ALL2, 0, 4)
    eliminating = 0
    for beta in range(1, 4):
        for shift in range(3):
            lifting = Lifting.trivial(ALL2, 3, F4)
            lifting.assignment[(0, 0)] = Monomial(beta, shift)
            if cycle_eliminated(lifting, c):
                eliminating += 1
    assert eliminating == 8  # 9 draws, only (beta=1, shift=0) keeps det = 0


def test_greedy_eliminates_single_four_cycle():
    cfg = ConstructionConfig(s=3, q=4, depth=4, trials_per_edge=100, rng_seed=2)
    lifting, report = greedy_lift(ALL2, cfg)
    (c,) = cycles_through(ALL2, 0, 4)
    assert cycle_eliminated(lifting, c)
    assert report.ace.values == (math.inf,)
    assert report.cycle_counts[4] == (0, 1)


def test_greedy_deterministic_given_seed():
    rng = np.random.default_rng(1)
    h = random_base_matrix(rng, 3, 6)
    cfg = ConstructionConfig(s=8, q=16, depth=6, trials_per_edge=30, rng_seed=123)
    l1, r1 = greedy_lift(h, cfg)
    l2, r2 = greedy_lift(h, cfg)
    assert l1.assignment == l2.assignment
    assert r1.ace == r2.ace
    assert r1.accepted_log == r2.accepted_log
    l3, _ = greedy_lift(h, ConstructionConfig(s=8, q=16, depth=6, trials_per_edge=30, rng_seed=124))
    assert l3.assignment != l1.assignment


def test_accepted_sequence_non_decreasing_and_final_not_worse():
    rng = np.random.default_rng(8)
    h = random_base_matrix(rng, 3, 6)
    cfg = ConstructionConfig(s=8, q=16, depth=6, trials_per_edge=40, rng_seed=3)
    lifting, report = greedy_lift(h, cfg)
    prev = None
    for trial in report.accepted_log:
        if prev is not None:
            assert prev <= trial.ace
        prev = trial.ace

    from nbqc.base_graph import ace_vector

    initial = Lifting.trivial(h, cfg.s, lifting.field)
    cycles = all_cycles(h, cfg.depth)
    init_vec = ace_vector(
        h, [(c, cycle_eliminated(initial, c)) for c in cycles], cfg.depth
    )
    assert lex_compare(init_vec, report.ace) <= 0


def test_incremental_state_matches_full_recomputation():
    rng = np.random.default_rng(5)
    h = random_base_matrix(rng, 4, 7)
    cfg = ConstructionConfig(s=6, q=16, depth=8, trials_per_edge=25, rng_seed=7)
    lifting, report = greedy_lift(h, cfg)

    from nbqc.base_graph import ace_vector

    cycles = all_cycles(h, cfg.depth)
    statuses = [(c, cycle_eliminated(lifting, c)) for c in cycles]
    assert ace_vector(h, statuses, cfg.depth) == report.ace
    for length in range(4, cfg.depth + 1, 2):
        of_len = [elim for c, elim in statuses if c.length == length]
        assert report.cycle_counts[length] == (
            len(of_len) - sum(of_len),
            sum(of_len),
        )


# (column weights, q, s, depth, seed): every weight profile with every q,
# s from 2 upward and depths 4, 6 and 8
EXACTNESS_CASES = [
    (kind, q, 2 + t % 7, (4, 6, 8)[t % 3], seed)
    for seed in (0, 1)
    for t, (kind, q) in enumerate(
        itertools.product(("weight2", "weight3", "mixed"), (2, 4, 16, 64))
    )
]


@pytest.mark.parametrize("kind,q,s,depth,seed", EXACTNESS_CASES)
def test_greedy_matches_sequential_reference(kind, q, s, depth, seed):
    rng = np.random.default_rng([seed, q, s, depth])
    m = int(rng.integers(3, 6))
    n = int(rng.integers(4, 7))
    weights = {
        "weight2": [2] * n,
        "weight3": [3] * n,
        "mixed": [int(w) for w in rng.integers(1, 4, size=n)],
    }[kind]
    h = random_weighted_base(rng, m, weights)
    cfg = ConstructionConfig(
        s=s, q=q, depth=depth, trials_per_edge=int(rng.integers(2, 6)), rng_seed=seed
    )
    lifting, report = greedy_lift(h, cfg)
    ref_lifting, ref_report = reference_greedy_lift(h, cfg)
    assert serialize_qc(lifting) == serialize_qc(ref_lifting)
    assert json.dumps(report.to_dict(), indent=2, sort_keys=True) == json.dumps(
        ref_report.to_dict(), indent=2, sort_keys=True
    )


def test_capped_run_reports_truncation():
    h = BaseMatrix(np.ones((4, 4), dtype=int))
    cfg = ConstructionConfig(s=5, q=4, depth=6, trials_per_edge=2, rng_seed=0, cycle_cap=1)
    with pytest.warns(UserWarning, match="cycle cap"):
        _, report = greedy_lift(h, cfg)
    assert report.to_dict()["enumeration_truncated"] is True
    _, full = greedy_lift(h, ConstructionConfig(s=5, q=4, depth=6, trials_per_edge=2))
    assert full.to_dict()["enumeration_truncated"] is False


def test_plateau_moves_clear_disjoint_equal_minimum_cycles():
    # two disjoint ACE-0 4-cycles: no single redraw improves the global
    # minimum, so progress relies on accepting equal vectors
    h = BaseMatrix(
        [
            [1, 1, 0, 0, 1, 0],
            [1, 1, 1, 1, 0, 0],
            [0, 0, 1, 1, 0, 1],
        ]
    )
    cfg = ConstructionConfig(s=16, q=16, depth=4, trials_per_edge=100, rng_seed=0)
    lifting, report = greedy_lift(h, cfg)
    assert report.ace.values == (math.inf,)


def test_uneliminated_four_cycle_shows_in_expanded_girth():
    # a surviving 4-cycle must appear as a length-4 cycle in the expansion
    trivial = Lifting.trivial(ALL2, 3, F4)
    (c,) = cycles_through(ALL2, 0, 4)
    assert not cycle_eliminated(trivial, c)
    assert expanded_girth(trivial) == 4

    rng = np.random.default_rng(20)
    surviving_seen = 0
    for _ in range(200):
        lifting = random_lifting(rng, ALL2, 4, F4)
        if not cycle_eliminated(lifting, c):
            surviving_seen += 1
            assert expanded_girth(lifting) == 4
    assert surviving_seen > 0


def test_expanded_girth_representative_sources_match_full_scan():
    rng = np.random.default_rng(11)
    for seed in range(4):
        h = random_base_matrix(rng, 3, 5)
        cfg = ConstructionConfig(s=5, q=4, depth=6, trials_per_edge=10, rng_seed=seed)
        lifting, _ = greedy_lift(h, cfg)
        assert expanded_girth(lifting) == girth(lifting.expand())


def test_config_validation():
    with pytest.raises(ValueError):
        ConstructionConfig(s=1, q=4)
    with pytest.raises(ValueError):
        ConstructionConfig(s=4, q=6)
    with pytest.raises(ValueError):
        ConstructionConfig(s=4, q=4, depth=5)
    with pytest.raises(ValueError):
        ConstructionConfig(s=4, q=4, depth=14)
    with pytest.raises(ValueError):
        ConstructionConfig(s=4, q=4, trials_per_edge=0)


def test_greedy_rejects_empty_base():
    with pytest.raises(ValueError):
        greedy_lift(BaseMatrix([[0, 0], [0, 0]]), ConstructionConfig(s=3, q=4))


# ----------------------------------------------------------------------
# bounds
# ----------------------------------------------------------------------
def test_rate_lower_bound_values():
    assert rate_lower_bound((2, 3)) == Fraction(1, 3)
    assert rate_lower_bound((4, 33)) == Fraction(29, 33)
    assert rate_lower_bound((8, 66)) == Fraction(29, 33)
    assert rate_lower_bound(EX_BASE) == Fraction(1, 3)


def test_distance_upper_bound_values():
    assert distance_upper_bound(2, 4) == 40
    assert distance_upper_bound(2, 8) == 1152
    assert distance_upper_bound(1, 1) == 2


def test_distance_upper_bound_fractional_weight():
    got = distance_upper_bound(2.5, 4)
    assert got == pytest.approx(math.factorial(2) * 2.5**2 * 5)


def test_distance_upper_bound_rejects_bad_inputs():
    with pytest.raises(ValueError):
        distance_upper_bound(0, 4)
    with pytest.raises(ValueError):
        distance_upper_bound(2, 0)
