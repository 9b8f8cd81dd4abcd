import itertools
import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from helpers import (
    ace_vector,
    cycle_submatrix,
    plain_nullity,
    poly_matrix,
    random_base_matrix,
    random_lifting,
    random_weighted_base,
    reference_cycle_matchings,
    reference_greedy_lift,
)
from nbqc.alist_io import serialize_qc
from nbqc.base_graph import BaseMatrix, Cycle, CycleList, all_cycles, girth, weight2_base
from nbqc.gf import GF
from nbqc import lifter
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
INPUTS = Path(__file__).resolve().parents[1] / "perfbench" / "inputs"


# ----------------------------------------------------------------------
# cycle elimination test
# ----------------------------------------------------------------------
def test_trivial_assignment_never_eliminates_four_cycles():
    lifting = Lifting.trivial(ALL2, 3, F4)
    (c,) = all_cycles(ALL2, 4)
    assert cycle_eliminated(lifting, c) is False


def test_gf4_beta_cancellation():
    # coefficients 2,1,1,3 with zero shifts: 2*3 == 1*1 in GF(4), so det = 0
    # ALL2's edges in column-major order: (0,0), (1,0), (0,1), (1,1)
    lifting = Lifting(ALL2, 3, F4, beta=[2, 1, 1, 3], shift=[0, 0, 0, 0])
    (c,) = all_cycles(ALL2, 4)
    assert cycle_eliminated(lifting, c) is False


def test_single_shift_eliminates():
    lifting = Lifting(ALL2, 3, F4, beta=[1, 1, 1, 1], shift=[1, 0, 0, 0])
    (c,) = all_cycles(ALL2, 4)
    assert cycle_eliminated(lifting, c) is True
    det = cycle_submatrix(lifting, c).determinant()
    assert det.coeffs == (1, 1, 0)


@pytest.mark.parametrize("s,q", [(3, 4), (5, 4), (8, 16), (6, 16)])
def test_fast_path_agrees_with_determinant(s, q):
    field = GF(q.bit_length() - 1)
    rng = np.random.default_rng(s * 100 + q)
    for _ in range(300):
        lifting = random_lifting(rng, ALL2, s, field)
        (c,) = all_cycles(ALL2, 4)
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
            (c,) = all_cycles(ALL2, 4)
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


def _matching_bases():
    """(base, depth): random bases with column weights 1 to 4, and all-ones ones."""
    rng = np.random.default_rng(15)
    cases = [(BaseMatrix(np.ones((3, 3))), 6), (BaseMatrix(np.ones((4, 4))), 8)]
    for depth in (4, 6, 8, 10):
        for _ in range(10):
            m = int(rng.integers(4, 7))
            weights = rng.integers(1, 5, size=int(rng.integers(4, 8)))
            cases.append((random_weighted_base(rng, m, weights), depth))
    return cases


@pytest.mark.parametrize("chunk", [None, 5])
def test_cycle_matchings_match_permutation_search(chunk, monkeypatch):
    if chunk is not None:  # many chunks per length: owners must carry across them
        monkeypatch.setattr(lifter, "_MATCH_CHUNK", chunk)
    most = 0
    for base, depth in _matching_bases():
        cycles = all_cycles(base, depth)
        owner, edges = lifter._cycle_matchings(base, cycles)
        ones = base.ones() + [None]  # the padding index
        got = [set() for _ in cycles]
        for c, row in zip(owner.tolist(), edges.tolist()):
            matching = frozenset(ones[e] for e in row) - {None}
            assert matching not in got[c], "a matching found twice"
            got[c].add(matching)
        for c, found in zip(cycles, got):
            assert found == reference_cycle_matchings(base, c), c
            most = max(most, len(found))
        assert (np.diff(owner) >= 0).all()  # cycles by length: owners ascend
    assert most > 2  # chords give some cycle more than its two alternating matchings


# ----------------------------------------------------------------------
# lifting plumbing
# ----------------------------------------------------------------------
def test_lifting_validation():
    bad = [(1, 5, "shift"), (1, -1, "shift"), (9, 0, "coefficient"), (0, 0, "coefficient")]
    for beta, shift, what in bad:
        # (1, 0) is ALL2's second edge in column-major order
        with pytest.raises(ValueError, match=rf"^{what} out of range at \(1, 0\)$"):
            Lifting(ALL2, 3, F4, beta=[1, beta, 1, 1], shift=[0, shift, 0, 0])


def test_lifting_holds_read_only_per_edge_arrays():
    base = BaseMatrix([[1, 1, 0], [0, 1, 1]])  # edges (0,0), (0,1), (1,1), (1,2)
    beta, shift = np.array([3, 1, 2, 2]), np.array([0, 4, 1, 3])
    lifting = Lifting(base, 5, F4, beta, shift)
    assert lifting.assignment == {
        (0, 0): Monomial(3, 0),
        (0, 1): Monomial(1, 4),
        (1, 1): Monomial(2, 1),
        (1, 2): Monomial(2, 3),
    }
    assert list(lifting.assignment) == base.ones()
    for values in (lifting.beta, lifting.shift):
        assert values.dtype == np.int64
        with pytest.raises(ValueError, match="read-only"):
            values[0] = 1
    beta[0] = 1  # the lifting holds its own copy
    assert lifting.beta[0] == 3
    for name in ("beta", "shift"):
        for wrong in ([1, 1, 1], [1, 1, 1, 1, 1], [1.0, 1.0, 1.0, 1.0]):
            arrays = {"beta": beta, "shift": shift, name: wrong}
            with pytest.raises(ValueError, match=f"^{name} must hold one integer per base edge"):
                Lifting(base, 5, F4, **arrays)


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
            assert expanded.dtype == field.mul_table.dtype
            assert np.array_equal(expanded, poly_matrix(lifting).expand())


# ----------------------------------------------------------------------
# greedy construction
# ----------------------------------------------------------------------
def test_greedy_on_acyclic_base_reports_all_inf():
    cfg = ConstructionConfig(s=3, q=4, depth=8, trials_per_edge=5, rng_seed=0)
    lifting, report = greedy_lift(EX_BASE, cfg)
    assert all(math.isinf(v) for v in report.ace)
    assert report.cycle_counts == {4: (0, 0), 6: (0, 0), 8: (0, 0)}
    assert math.isinf(report.expanded_girth)
    assert lifting.beta.shape == lifting.shift.shape == (len(EX_BASE.ones()),)
    # with nothing to break, every draw (the first included) is kept
    assert report.trials_accepted == report.trials_total


def test_eliminating_assignments_exist_s3_q4():
    # exhaustive: redrawing one edge of the trivial assignment eliminates the
    # 4-cycle for every (beta, shift) except the identity draw
    (c,) = all_cycles(ALL2, 4)
    eliminating = 0
    for beta in range(1, 4):
        for shift in range(3):
            lifting = Lifting(ALL2, 3, F4, beta=[beta, 1, 1, 1], shift=[shift, 0, 0, 0])
            if cycle_eliminated(lifting, c):
                eliminating += 1
    assert eliminating == 8  # 9 draws, only (beta=1, shift=0) keeps det = 0


def test_greedy_eliminates_single_four_cycle():
    cfg = ConstructionConfig(s=3, q=4, depth=4, trials_per_edge=100, rng_seed=2)
    lifting, report = greedy_lift(ALL2, cfg)
    (c,) = all_cycles(ALL2, 4)
    assert cycle_eliminated(lifting, c)
    assert report.ace == (math.inf,)
    assert report.cycle_counts[4] == (0, 1)


def test_greedy_deterministic_given_seed():
    rng = np.random.default_rng(1)
    h = random_base_matrix(rng, 3, 6)
    cfg = ConstructionConfig(s=8, q=16, depth=6, trials_per_edge=30, rng_seed=123)
    l1, r1 = greedy_lift(h, cfg)
    l2, r2 = greedy_lift(h, cfg)
    assert serialize_qc(l1) == serialize_qc(l2)
    assert r1.ace == r2.ace
    assert r1.accepted_log == r2.accepted_log
    l3, _ = greedy_lift(h, ConstructionConfig(s=8, q=16, depth=6, trials_per_edge=30, rng_seed=124))
    assert serialize_qc(l3) != serialize_qc(l1)


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

    initial = Lifting.trivial(h, cfg.s, lifting.field)
    cycles = all_cycles(h, cfg.depth)
    init_vec = ace_vector(
        h, [(c, cycle_eliminated(initial, c)) for c in cycles], cfg.depth
    )
    assert init_vec <= report.ace


def test_incremental_state_matches_full_recomputation():
    rng = np.random.default_rng(5)
    h = random_base_matrix(rng, 4, 7)
    cfg = ConstructionConfig(s=6, q=16, depth=8, trials_per_edge=25, rng_seed=7)
    lifting, report = greedy_lift(h, cfg)

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


def open_draws_inputs(lifting: Lifting, cycles):
    """Per base edge e, the cycles through e (ascending) and _open_draws's
    arguments for them under this lifting."""
    field, s = lifting.field, lifting.s
    owner, edges = lifter._cycle_matchings(lifting.base, cycles)
    log_sum = np.append(field.log_table[lifting.beta], 0)[edges].sum(axis=1) % (field.q - 1)
    shift_sum = np.append(lifting.shift, 0)[edges].sum(axis=1) % s
    for e in range(lifting.base.edge_rows.size):
        hit = np.unique(owner[(edges == e).any(axis=1)])
        rows = np.flatnonzero(np.isin(owner, hit))
        yield hit, (
            np.searchsorted(hit, owner[rows]),
            (edges[rows] == e).any(axis=1),
            log_sum[rows],
            shift_sum[rows],
            int(field.log_table[lifting.beta[e]]),
            int(lifting.shift[e]),
            hit.size,
            field,
            s,
        )


def open_draw_mismatches(lifting: Lifting, cycles, zero_determinants, edges=None) -> int:
    """Draws of an edge under which _open_draws gets the open cycles wrong.

    For each base edge (or each one in `edges`) and each of its (q - 1) * s
    draws, the cycles through the edge that _open_draws reports open under
    the draw (open under every draw, or paired with the draw's key) are
    compared with those that zero_determinants(lifting with the edge set to
    the draw, CycleList of the cycles through the edge) flags.  Returns the
    number of (edge, draw) pairs where the two differ.
    """
    field, s = lifting.field, lifting.s
    mismatches = 0
    for e, (hit, args) in enumerate(open_draws_inputs(lifting, cycles)):
        if edges is not None and e not in edges:
            continue
        always, cycle, key = lifter._open_draws(*args)
        through = CycleList(cycles.cols[hit], cycles.rows[hit])
        beta, shift = lifting.beta.copy(), lifting.shift.copy()
        for lg, z in itertools.product(range(field.q - 1), range(s)):
            reported = np.zeros(hit.size, dtype=bool)
            reported[always] = True
            reported[cycle[key == lg * s + z]] = True
            beta[e], shift[e] = field.exp_table[lg], z
            drawn = Lifting(lifting.base, s, field, beta, shift)
            mismatches += not np.array_equal(reported, zero_determinants(drawn, through))
    return mismatches


def zero_matching_determinants(lifting: Lifting, cycles) -> np.ndarray:
    return ~cycles_eliminated(lifting, cycles)


def zero_cofactor_determinants(lifting: Lifting, cycles) -> np.ndarray:
    return np.array([cycle_submatrix(lifting, c).determinant().is_zero() for c in cycles])


@pytest.mark.parametrize(
    "name,s,q,edges",
    # each 8x66 edge has 63 * 70 draws, checked in about 3 s: one edge, of a middle column
    [("base_4x16.txt", 12, 16, None), ("base_8x66.txt", 70, 64, (77,))],
    ids=["4x16", "8x66"],
)
def test_chordless_closed_form_matches_the_determinant(name, s, q, edges):
    h = BaseMatrix.from_file(INPUTS / name)
    lifting = random_lifting(np.random.default_rng(q), h, s, GF(q.bit_length() - 1))
    cycles = all_cycles(h, 8)
    # a weight-2 base: every cycle is chordless, so _open_draws takes its closed form
    assert all(args[0].size == 2 * args[6] for _, args in open_draws_inputs(lifting, cycles))
    assert open_draw_mismatches(lifting, cycles, zero_matching_determinants, edges) == 0


# columns 0 and 3 have weight 3, so some edges meet chorded cycles; the
# edges of the 4-cycle on rows 3, 4 x columns 4, 5 meet chordless ones only
MIXED_WEIGHT = BaseMatrix(
    [
        [1, 1, 1, 0, 0, 0],
        [1, 1, 0, 1, 0, 0],
        [1, 0, 1, 1, 0, 0],
        [0, 0, 0, 1, 1, 1],
        [0, 0, 0, 0, 1, 1],
    ]
)


@pytest.mark.parametrize(
    "lifting",
    [
        random_lifting(np.random.default_rng(16), MIXED_WEIGHT, 5, F16),
        # a full 3 x 3 block under beta 1, shift 0: each 6-cycle's six x^0
        # matchings cancel in A and in B, so it stays open under every draw
        Lifting.trivial(BaseMatrix(np.ones((3, 3), dtype=int)), 5, F16),
    ],
    ids=["mixed-weight", "full-3x3"],
)
def test_alignment_search_matches_the_cofactor_determinant(lifting):
    cycles = all_cycles(lifting.base, 8)
    assert open_draw_mismatches(lifting, cycles, zero_cofactor_determinants) == 0


def test_greedy_takes_both_branches_on_a_mixed_weight_base():
    h = MIXED_WEIGHT
    # per edge that meets a cycle, whether _open_draws takes the closed form
    chordless = [
        args[0].size == 2 * args[6]
        for _, args in open_draws_inputs(Lifting.trivial(h, 5, F16), all_cycles(h, 8))
        if args[6] > 0
    ]
    assert 0 < sum(chordless) < len(chordless)
    cfg = ConstructionConfig(s=5, q=16, depth=8, trials_per_edge=4, rng_seed=2)
    lifting, report = greedy_lift(h, cfg)
    ref_lifting, ref_report = reference_greedy_lift(h, cfg)
    assert serialize_qc(lifting) == serialize_qc(ref_lifting)
    assert report.to_dict() == ref_report.to_dict()


@pytest.mark.parametrize(
    "h,cfg",
    [
        (
            BaseMatrix.from_file(INPUTS / "base_4x16.txt"),
            ConstructionConfig(s=12, q=16, depth=8, trials_per_edge=20, rng_seed=3),
        ),
        # some edge's draws keep open cycles of one length but different ACE here
        (MIXED_WEIGHT, ConstructionConfig(s=5, q=16, depth=8, trials_per_edge=20, rng_seed=1)),
    ],
    ids=["4x16", "mixed-weight"],
)
def test_greedy_lift_does_not_depend_on_the_order_within_a_length(h, cfg, monkeypatch):
    def outputs():
        lifting, report = greedy_lift(h, cfg)
        return serialize_qc(lifting), json.dumps(report.to_dict(), indent=2, sort_keys=True)

    def reversed_within_lengths(base, depth, cap=None):
        cycles = all_cycles(base, depth, cap)
        order = np.lexsort((-np.arange(len(cycles)), cycles.lengths))
        return CycleList(cycles.cols[order], cycles.rows[order], cycles.truncated)

    assert reversed_within_lengths(h, cfg.depth) != all_cycles(h, cfg.depth)
    want = outputs()
    monkeypatch.setattr(lifter, "all_cycles", reversed_within_lengths)
    assert outputs() == want


def test_greedy_lift_builds_no_cycle_objects(monkeypatch):
    built = []
    init = Cycle.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Cycle, "__init__", counting_init)
    h = BaseMatrix.from_file(INPUTS / "base_4x16.txt")
    _, report = greedy_lift(h, ConstructionConfig(s=12, q=16, depth=8, trials_per_edge=3))
    assert sum(e + u for e, u in report.cycle_counts.values()) == 233
    assert built == []
    all_cycles(h, 4)[0]  # a read builds one: the counter sees every construction
    assert len(built) == 1


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
    assert report.ace == (math.inf,)


def test_uneliminated_four_cycle_shows_in_expanded_girth():
    # a surviving 4-cycle must appear as a length-4 cycle in the expansion
    trivial = Lifting.trivial(ALL2, 3, F4)
    (c,) = all_cycles(ALL2, 4)
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
    # the girth of the circulant edge list, searched from one variable per
    # column block, against a full scan of the independent dense expansion
    rng = np.random.default_rng(11)
    for s in range(1, 10):
        for _ in range(8):
            m = int(rng.integers(1, 5))
            weights = rng.integers(1, min(m, 3) + 1, size=int(rng.integers(m, 9)))
            h = random_weighted_base(rng, m, weights)
            lifting = random_lifting(rng, h, s, F4)
            assert expanded_girth(lifting) == girth(BaseMatrix(poly_matrix(lifting).expand() != 0))
    for seed in range(4):
        h = random_base_matrix(rng, 3, 5)
        cfg = ConstructionConfig(s=5, q=4, depth=6, trials_per_edge=10, rng_seed=seed)
        lifting, _ = greedy_lift(h, cfg)
        assert expanded_girth(lifting) == girth(BaseMatrix(poly_matrix(lifting).expand() != 0))


def test_config_validation():
    with pytest.raises(ValueError):
        ConstructionConfig(s=1, q=4)
    with pytest.raises(ValueError):
        ConstructionConfig(s=4, q=6)
    with pytest.raises(ValueError):
        ConstructionConfig(s=4, q=4, depth=5)
    with pytest.raises(ValueError, match="^depth above 12 is not supported$"):
        ConstructionConfig(s=4, q=4, depth=14)
    with pytest.raises(ValueError, match="^q must be a power of 2 from 2 to 256, got 512$"):
        ConstructionConfig(s=4, q=512)
    with pytest.raises(ValueError):
        ConstructionConfig(s=4, q=4, trials_per_edge=0)
    with pytest.raises(ValueError, match="rng_seed"):
        ConstructionConfig(s=4, q=4, rng_seed=-1)


@pytest.mark.parametrize(
    "field,value",
    [
        ("s", 3.5),
        ("q", 4.0),
        ("depth", 6.0),
        ("depth", True),
        ("trials_per_edge", 2.5),
        ("trials_per_edge", True),
        ("rng_seed", 1.5),
        ("cycle_cap", 2.5),
        ("cycle_cap", 0),
        ("cycle_cap", None),
    ],
)
def test_config_rejects_mistyped_values(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be an integer"):
        ConstructionConfig(**{"s": 4, "q": 4, field: value})


def test_config_takes_numpy_integers():
    cfg = ConstructionConfig(s=np.int64(4), q=np.uint8(16), depth=np.int32(6))
    assert (cfg.s, cfg.q, cfg.depth) == (4, 16, 6) and type(cfg.q) is int
    assert cfg.make_field().q == 16


def test_greedy_rejects_empty_base():
    with pytest.raises(ValueError):
        greedy_lift(BaseMatrix([[0, 0], [0, 0]]), ConstructionConfig(s=3, q=4))


# ----------------------------------------------------------------------
# bounds
# ----------------------------------------------------------------------
def test_rate_lower_bound_values():
    assert rate_lower_bound(weight2_base(4, 33)) == Fraction(29, 33)
    assert rate_lower_bound(weight2_base(8, 66)) == Fraction(29, 33)
    assert rate_lower_bound(EX_BASE) == Fraction(1, 3)


def test_distance_upper_bound_values():
    assert distance_upper_bound(2, 4) == 40
    assert distance_upper_bound(2, 8) == 1152
    assert distance_upper_bound(1, 1) == 2


def test_distance_upper_bound_rejects_bad_inputs():
    with pytest.raises(ValueError):
        distance_upper_bound(0, 4)
    with pytest.raises(ValueError):
        distance_upper_bound(2, 0)
