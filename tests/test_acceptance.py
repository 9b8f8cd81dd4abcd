"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with `pytest -s tests/test_acceptance.py` to see them).
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from helpers import (
    PolyMatrix,
    RingPoly,
    brute_force_cycles,
    cycle_submatrix,
    example_lifting,
    modulate_and_transmit,
    plain_nullity,
    plain_rank,
    random_base_matrix,
    random_lifting,
)
from nbqc.base_graph import BaseMatrix, all_cycles, weight2_base
from nbqc.channel import (
    SimConfig,
    build_code,
    make_modulation,
    modulate,
    run_monte_carlo,
    symbol_likelihoods,
)
from nbqc.cli import main as cli_main
from nbqc.gf import GF
from nbqc.lifter import (
    ConstructionConfig,
    Lifting,
    cycle_eliminated,
    distance_upper_bound,
    greedy_lift,
    rate_lower_bound,
)


def report(number: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE criterion {number}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


# ----------------------------------------------------------------------
def test_criterion_1_distance_bounds():
    ok = distance_upper_bound(2, 4) == 40 and distance_upper_bound(2, 8) == 1152
    report(1, ok, "distance ceilings 40 (l=2, m=4) and 1152 (l=2, m=8), exact")


def test_criterion_2_rate_arithmetic():
    r1 = rate_lower_bound(weight2_base(4, 33))
    r2 = rate_lower_bound(weight2_base(8, 66))
    ok = (
        r1 == r2 == Fraction(29, 33)
        and 33 * 140 == 4620
        and 66 * 70 == 4620
        and Fraction(4060, 4620) == Fraction(29, 33)
    )
    report(2, ok, "rate bound 29/33 for both base sizes; K/N = 4060/4620 exactly 29/33")


def test_criterion_3_reference_expansion():
    f4 = GF(2)
    zero = RingPoly.zero(f4, 3)
    one = RingPoly.one(f4, 3)
    h_poly = PolyMatrix.from_entries(
        f4,
        3,
        [
            [zero, RingPoly.monomial_poly(f4, 3, 1, 2), RingPoly.monomial_poly(f4, 3, 2, 1)],
            [one, zero, RingPoly.monomial_poly(f4, 3, 3, 2)],
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
    ok = np.array_equal(h_poly.expand(), expected)
    report(3, ok, "2x3 monomial matrix expands to the reference 6x9 matrix entry-for-entry")


def test_criterion_4_elimination_oracle_equivalence():
    """Three independent determinant computations must agree on every sample.

    Legs: the 4-cycle closed form (2x2 only), the cofactor determinant,
    and the greedy path's permutation-sum determinant.  For the expanded
    scalar matrix, Gaussian elimination supplies the sound cross-checks:
    a vanishing determinant always leaves the expansion rank-deficient,
    and for 2x2 monomial submatrices the determinant vanishes exactly
    when the nullity reaches s.  (Plain "expansion is singular" is NOT
    equivalent: a nonzero determinant that shares a factor with x^s - 1
    still expands to a singular matrix, e.g. [[x, 1], [1, 1]] at s=3.)
    """
    base2 = BaseMatrix(np.ones((2, 2), dtype=int))
    base3 = BaseMatrix(np.ones((3, 3), dtype=int))
    (cyc2,) = all_cycles(base2, 4)
    cyc3 = next(c for c in all_cycles(base3, 6) if c.length == 6)
    rng = np.random.default_rng(2024)
    samples = disagreements = 0
    for q in (4, 16):
        field = GF(q.bit_length() - 1)
        for s in range(3, 9):
            for _ in range(50):
                for base, cyc in ((base2, cyc2), (base3, cyc3)):
                    samples += 1
                    lifting = random_lifting(rng, base, s, field)
                    support_path = cycle_eliminated(lifting, cyc)
                    det = cycle_submatrix(lifting, cyc).determinant()
                    cofactor_path = not det.is_zero()
                    nullity = plain_nullity(field, cycle_submatrix(lifting, cyc).expand())
                    legs = {support_path, cofactor_path}
                    if base is base2:
                        # edges (0,0), (1,0), (0,1), (1,1) in column-major order
                        b11, b21, b12, b22 = lifting.beta.tolist()
                        z11, z21, z12, z22 = lifting.shift.tolist()
                        closed_form = not (
                            (z11 + z22 - z12 - z21) % s == 0
                            and field.mul(b11, b22) == field.mul(b12, b21)
                        )
                        legs.add(closed_form)
                        legs.add(nullity < s)
                    if not cofactor_path and nullity == 0:
                        legs.add("zero det with full-rank expansion")
                    if len(legs) != 1:
                        disagreements += 1
    ok = samples >= 1000 and disagreements == 0
    report(
        4,
        ok,
        f"{samples} random monomial 2x2/3x3 submatrices (s in 3..8, q in {{4,16}}), "
        f"{disagreements} disagreements between closed form, cofactor determinant, "
        "permutation-sum determinant and expansion-rank cross-checks",
    )


def test_criterion_5_cycle_enumeration_oracle():
    mismatches = 0
    for seed in range(50):
        rng = np.random.default_rng(seed)
        h = random_base_matrix(rng, 4, 8)
        if set(all_cycles(h, 8)) != brute_force_cycles(h, 8):
            mismatches += 1
    report(
        5,
        mismatches == 0,
        f"50 random 4x8 bases, depth 8: {mismatches} mismatches against the "
        "exhaustive permutation enumerator (canonical-cycle multisets)",
    )


def test_criterion_6_greedy_monotone_and_eliminates():
    base = BaseMatrix(
        [
            [1, 1, 1, 1, 1, 0],
            [1, 1, 1, 1, 0, 1],
            [1, 1, 0, 0, 1, 1],
        ]
    )
    assert set(base.column_degrees) == {2, 3}
    wins = 0
    monotone = True
    for seed in range(10):
        cfg = ConstructionConfig(
            s=16, q=16, depth=8, trials_per_edge=100, rng_seed=seed
        )
        _, rep = greedy_lift(base, cfg)
        seq = [t.ace for t in rep.accepted_log]
        monotone &= all(a <= b for a, b in zip(seq, seq[1:]))
        if math.isinf(rep.ace[0]):
            wins += 1
    report(
        6,
        monotone and wins >= 9,
        f"3x6 base (weights 2-3), s=16, q=16, depth=8: accepted vectors "
        f"non-decreasing in all seeds; e4=inf in {wins}/10 seeds (need >= 9)",
    )


def test_criterion_7_decoder_sanity():
    lifting = example_lifting()
    code = build_code(lifting)
    mod = make_modulation("bpsk")

    noiseless_ok = True
    rng = np.random.default_rng(0)
    for _ in range(100):
        cw = code.encode(rng.integers(0, 4, size=(1, code.k)))[0]
        lik = symbol_likelihoods(modulate(cw[None], 2, mod), mod, 300.0, 2, code.n)
        (word,), (conv,), _ = code.decoder().decode_batch(lik, 10)
        noiseless_ok &= conv and np.array_equal(word, cw)

    from nbqc.channel import CodeInstance

    toy = CodeInstance(lifting.field, np.array([[1, 2, 0], [0, 1, 3]]))
    single_ok = True
    for info in range(4):
        cw = toy.encode(np.array([[info]]))[0]
        for pos in range(3):
            for wrong in range(4):
                if wrong == cw[pos]:
                    continue
                lik = np.full((3, 4), 1e-6)
                lik[np.arange(3), cw] = 1.0
                lik[pos] = 1e-6
                lik[pos, wrong] = 1.0
                lik /= lik.sum(axis=1, keepdims=True)
                (word,), (conv,), _ = toy.decoder().decode_batch(lik[None], 20)
                single_ok &= conv and np.array_equal(word, cw)

    syndrome_ok = True
    converged_seen = 0
    for idx in range(80):
        frng = np.random.default_rng([41, idx])
        cw = code.encode(frng.integers(0, 4, size=(1, code.k)))[0]
        rx = modulate_and_transmit(cw[None], 2, mod, 1.0, frng)
        lik = symbol_likelihoods(rx, mod, 1.0, 2, code.n)
        (word,), (conv,), _ = code.decoder().decode_batch(lik, 15)
        if conv:
            converged_seen += 1
            syndrome_ok &= not code.syndrome(word).any()
    ok = noiseless_ok and single_ok and syndrome_ok and converged_seen > 0
    report(
        7,
        ok,
        "noiseless frames decode at iteration 0; every single-symbol error "
        f"corrected on the toy GF(4) code; {converged_seen} converged noisy "
        "frames all satisfy the parity checks",
    )


def test_criterion_8_construction_benefit():
    """Desk-scale A/B: greedy lifting vs the all-(1, x^0) lifting.

    GF(16) codes from one 4x16 weight-2 base at s=12 (N=192 symbols,
    768 BPSK channel uses), compared at the Es/N0 where the trivial
    lifting operates near frame-error rate 1e-1.
    """
    base = weight2_base(4, 16)
    f16 = GF(4)
    cfg = ConstructionConfig(s=12, q=16, depth=8, trials_per_edge=100, rng_seed=11)
    greedy, _ = greedy_lift(base, cfg)
    trivial = Lifting.trivial(base, 12, f16)
    with pytest.warns(UserWarning, match="rank-deficient"):
        code_trivial = build_code(trivial)
    code_greedy = build_code(greedy)

    sim = SimConfig(
        modulation="bpsk",
        snr_db=(5.2,),
        max_frames=20_000,
        max_errors=10**9,
        decoder_max_iterations=30,
        rng_seed=5,
    )
    pt_trivial = run_monte_carlo(code_trivial, sim).points[0]
    pt_greedy = run_monte_carlo(code_greedy, sim).points[0]

    trivial_near_tenth = 0.05 <= pt_trivial.bler <= 0.2
    greedy_hi = pt_greedy.confidence_interval[1]
    trivial_lo = pt_trivial.confidence_interval[0]
    halved = greedy_hi <= 0.5 * trivial_lo
    ok = trivial_near_tenth and halved
    report(
        8,
        ok,
        f"at 5.2 dB over {pt_trivial.frames} frames each: trivial BLER "
        f"{pt_trivial.bler:.3e} (~1e-1), greedy BLER {pt_greedy.bler:.3e}; "
        f"95% upper bound {greedy_hi:.3e} <= half the trivial lower bound "
        f"{0.5 * trivial_lo:.3e}",
    )


def test_criterion_9_error_floor_flagging(tmp_path, capsys):
    small = tmp_path / "m4.txt"
    small.write_text(weight2_base(4, 33).to_text())
    large = tmp_path / "m8.txt"
    large.write_text(weight2_base(8, 66).to_text())

    assert cli_main(["analyze", str(small), "--depth", "4"]) == 0
    out_small = capsys.readouterr().out
    assert cli_main(["analyze", str(large), "--depth", "4"]) == 0
    out_large = capsys.readouterr().out

    ok = (
        "distance upper bound: 40" in out_small
        and "error-floor prone" in out_small
        and "distance upper bound: 1152" in out_large
        and "error-floor prone" not in out_large
    )
    report(
        9,
        ok,
        "analyze flags the l=2, m=4 base (bound 40) as floor-prone and "
        "leaves the l=2, m=8 base (bound 1152) unflagged",
    )
