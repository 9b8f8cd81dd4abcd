import math
import concurrent.futures
import dataclasses
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest

from helpers import (
    _wht,
    argsort_gathers,
    direct_xor_convolution,
    example_lifting,
    modulate_and_transmit,
    plain_rank,
    reference_decode_batch,
    reference_encode,
    reference_observation_weights,
)
from nbqc import channel
from nbqc.alist_io import load_matrix_file, parse_full, serialize_full
from nbqc.base_graph import BaseMatrix, weight2_base
from nbqc.channel import (
    CodeInstance,
    QspaDecoder,
    SimConfig,
    build_code,
    make_modulation,
    modulate,
    noise_sigma,
    observation_weights,
    run_monte_carlo,
    symbol_likelihoods,
    symbols_to_bits,
    wilson_interval,
)
from nbqc.gf import GF
from nbqc.lifter import ConstructionConfig, Lifting, greedy_lift
from nbqc.linalg import gf_matmul

F4 = GF(2)
F16 = GF(4)

# [3, 1] GF(4) code with tree Tanner graph and non-binary coefficients;
# codewords are (t, 3t, t) for t in GF(4), minimum distance 3
TOY_H = np.array([[1, 2, 0], [0, 1, 3]])


def toy_code():
    return CodeInstance(F4, TOY_H)


def high_confidence_priors(code, word, eps=1e-6):
    lik = np.full((code.n, code.field.q), eps)
    lik[np.arange(code.n), word] = 1.0
    return lik / lik.sum(axis=1, keepdims=True)


# ----------------------------------------------------------------------
# code building and encoding
# ----------------------------------------------------------------------
def test_build_code_expanded_example():
    lifting = example_lifting()
    code = build_code(lifting)
    assert code.n == 9
    assert code.rank == plain_rank(F4, code.h)
    assert code.k == 9 - code.rank
    # dimension can only exceed the design floor n*s - m*s
    from fractions import Fraction

    from nbqc.lifter import rate_lower_bound

    assert Fraction(code.k, code.n) >= rate_lower_bound(lifting.base)
    rng = np.random.default_rng(0)
    for _ in range(20):
        cw = code.encode(rng.integers(0, 4, size=code.k))
        assert not code.syndrome(cw).any()


def test_single_edge_base_trivial_code():
    base = BaseMatrix([[1]])
    lifting = Lifting.trivial(base, 1, F4)
    code = build_code(lifting)
    assert (code.n, code.k) == (1, 0)


def test_rank_deficient_warns_and_adjusts():
    h = np.array([[1, 1], [1, 1]])
    with pytest.warns(UserWarning, match="rank-deficient"):
        code = CodeInstance(F4, h)
    assert code.rank == 1 and code.k == 1


def test_encode_linearity_and_zero():
    code = toy_code()
    assert not code.encode(np.zeros(1, dtype=int)).any()
    for a in range(4):
        for b in range(4):
            ca = code.encode(np.array([a]))
            cb = code.encode(np.array([b]))
            cab = code.encode(np.array([a ^ b]))
            assert np.array_equal(ca ^ cb, cab)


def test_encode_random_syndromes_zero():
    lifting = example_lifting()
    code = build_code(lifting)
    rng = np.random.default_rng(1)
    infos = rng.integers(0, 4, size=(1000, code.k))
    words = code.encode(infos)
    for w in words[:: 100]:
        assert not code.syndrome(w).any()
    contrib = F4.mul_table[code.h[None, :, :], words[:, None, :]]
    assert not np.bitwise_xor.reduce(contrib, axis=2).any()


def test_encode_length_mismatch():
    with pytest.raises(ValueError):
        toy_code().encode(np.zeros(5, dtype=int))


PERFBENCH_INPUTS = Path(__file__).resolve().parents[1] / "perfbench" / "inputs"


@pytest.mark.parametrize("name", ["gf16_4x16_s12.alist", "gf64_8x66_s70.alist"])
def test_encode_matches_rref_parity_map_on_perfbench_liftings(name):
    lifting = load_matrix_file(PERFBENCH_INPUTS / name)
    code = build_code(lifting)
    info = np.random.default_rng(23).integers(0, code.field.q, size=(8, code.k))
    words = code.encode(info)
    assert np.array_equal(words, reference_encode(code.field, lifting.expand(), info))
    assert not code.syndrome(words).any()


@pytest.mark.parametrize("name", ["gf16_4x16_s12.alist", "gf64_8x66_s70.alist"])
def test_dense_h_is_rebuilt_from_the_edge_list_of_a_lifting(name):
    lifting = load_matrix_file(PERFBENCH_INPUTS / name)
    h = build_code(lifting).h
    assert h.dtype == lifting.field.mul_table.dtype
    assert np.array_equal(h, lifting.expand())


def test_dense_h_is_rebuilt_from_the_edge_list_of_a_full_nbalist():
    # an all-zero column: the rebuilt matrix keeps the shape, not just the edges' span
    field, parsed = parse_full(serialize_full(F4, np.array([[1, 2, 0, 0], [0, 1, 3, 0]])))
    code = CodeInstance(field, parsed)
    assert code.shape == (2, 4) and np.array_equal(code.h, parsed)


def arrays_held(obj):
    """Every numpy array an object's attributes hold, inside tuples and lists too,
    with the arrays they are views of."""
    stack, found = list(vars(obj).values()), []
    while stack:
        x = stack.pop()
        if isinstance(x, np.ndarray):
            found.append(x)
            if x.base is not None:
                stack.append(x.base)
        elif isinstance(x, (tuple, list)):
            stack.extend(x)
    return found


def test_n4620_code_and_decoder_hold_no_dense_sized_array():
    code = build_code(load_matrix_file(PERFBENCH_INPUTS / "gf64_8x66_s70.alist"))
    m, n = code.shape
    for obj in (code, code.decoder()):
        held = arrays_held(obj)
        assert len(held) >= 5
        assert max(a.size for a in held) < m * n


def test_encode_matches_rref_parity_map_on_irregular_and_deficient_codes():
    rng = np.random.default_rng(24)
    cases = [(GF(p), random_irregular_h(rng, GF(p))) for p in (1, 2, 4, 6, 8) for _ in range(4)]
    cases += [
        (F4, np.array([[1, 2, 0], [0, 0, 0], [0, 1, 3]])),
        # an all-zero row and column, and row 3 = 2 * row 0
        (F16, np.array([[1, 5, 0, 7], [0, 0, 0, 0], [3, 15, 0, 9], [2, 10, 0, 14]])),
    ]
    deficient = 0
    for field, h in cases:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # random H may be rank-deficient
            code = CodeInstance(field, h)
        deficient += code.rank < len(h)
        info = rng.integers(0, field.q, size=(8, code.k))
        assert np.array_equal(code.encode(info), reference_encode(field, h, info))
        assert np.array_equal(code.encode(info[0]), reference_encode(field, h, info[:1])[0])
    assert deficient >= 2


def test_syndrome_equals_dense_product():
    rng = np.random.default_rng(25)
    for p in (1, 4, 8):
        field = GF(p)
        h = random_irregular_h(rng, field)
        h[1] = 0  # an empty check
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code = CodeInstance(field, h)
        words = rng.integers(0, field.q, size=(6, code.n))
        want = gf_matmul(field, h, words.T).T
        assert np.array_equal(code.syndrome(words), want)
        assert np.array_equal(code.syndrome(words[2]), want[2])
        assert want.any() and not want[:, 1].any()


# ----------------------------------------------------------------------
# modulation
# ----------------------------------------------------------------------
def test_bpsk_mapping_convention():
    mod = make_modulation("bpsk")
    cw = np.zeros(4, dtype=int)
    assert np.allclose(modulate(cw, 2, mod), 1.0)
    assert np.allclose(mod.points, [1.0, -1.0])


def test_symbol_bit_packing_msb_first():
    bits = symbols_to_bits(np.array([0b0110, 0b1001]), 4)
    assert bits.tolist() == [0, 1, 1, 0, 1, 0, 0, 1]


@pytest.mark.parametrize("name,order", [("4qam", 4), ("16qam", 16), ("64qam", 64)])
def test_qam_unit_energy(name, order):
    mod = make_modulation(name)
    assert mod.points.size == order
    assert np.mean(np.abs(mod.points) ** 2) == pytest.approx(1.0)


def test_qam_gray_labelling():
    # nearest horizontal/vertical neighbours differ in exactly one bit
    mod = make_modulation("16qam")
    step = 2 / math.sqrt(10)
    pts = mod.points
    for a in range(16):
        for b in range(16):
            d = pts[a] - pts[b]
            if abs(abs(d.real) - step) < 1e-9 and abs(d.imag) < 1e-9:
                assert bin(a ^ b).count("1") == 1
            if abs(abs(d.imag) - step) < 1e-9 and abs(d.real) < 1e-9:
                assert bin(a ^ b).count("1") == 1


def test_modulation_validation():
    with pytest.raises(ValueError):
        make_modulation("8qam")
    with pytest.raises(ValueError):
        make_modulation("psk31")
    with pytest.raises(ValueError):
        modulate(np.zeros(1, dtype=int), 2, make_modulation("16qam"))


def test_infinite_snr_reception_is_transmitted():
    rng = np.random.default_rng(2)
    cw = rng.integers(0, 4, size=6)
    mod = make_modulation("bpsk")
    rx = modulate_and_transmit(cw, 2, mod, 300.0, rng)
    assert np.allclose(rx, modulate(cw, 2, mod), atol=1e-12)


def test_noise_variance_within_one_percent():
    rng = np.random.default_rng(3)
    snr_db = 4.0
    n0 = 10 ** (-snr_db / 10)
    cw = np.zeros(250_000, dtype=int)  # 1e6 BPSK observations at p=4
    mod = make_modulation("bpsk")
    rx = modulate_and_transmit(cw, 4, mod, snr_db, rng)
    measured = np.mean(np.abs(rx - modulate(cw, 4, mod)) ** 2)
    assert abs(measured - n0) / n0 < 0.01
    assert noise_sigma(snr_db) == pytest.approx(math.sqrt(n0 / 2))


# ----------------------------------------------------------------------
# demapping
# ----------------------------------------------------------------------
ALIGNMENTS = [
    (p, name) for p in range(1, 9) for name in ("bpsk", "4qam", "16qam", "64qam", "256qam")
]


def alignment_codeword(rng, p, mod, frames, periods):
    """Random GF(2^p) symbols filling whole lcm(p, k)-bit periods."""
    n = math.lcm(p, mod.bits_per_symbol) // p * periods
    return rng.integers(0, 1 << p, size=(frames, n))


@pytest.mark.parametrize("p, name", ALIGNMENTS)
def test_noiseless_likelihoods_are_deltas(p, name):
    rng = np.random.default_rng(4)
    mod = make_modulation(name)
    cw = alignment_codeword(rng, p, mod, 2, 3)
    rx = modulate(cw, p, mod)
    lik = symbol_likelihoods(rx, mod, 300.0, p, cw.shape[1])
    assert np.allclose(lik.sum(axis=2), 1.0, atol=1e-9)
    assert np.array_equal(lik.argmax(axis=2), cw)
    assert lik.max(axis=2) == pytest.approx(1.0)


def test_likelihoods_sum_to_one_noisy():
    rng = np.random.default_rng(5)
    for name, p, n in [("bpsk", 2, 6), ("16qam", 4, 8), ("64qam", 6, 4)]:
        mod = make_modulation(name)
        cw = rng.integers(0, 1 << p, size=n)
        rx = modulate_and_transmit(cw, p, mod, 2.0, rng)
        lik = symbol_likelihoods(rx, mod, 2.0, p, n)
        assert np.allclose(lik.sum(axis=1), 1.0, atol=1e-9)
        assert (lik >= 0).all()


def test_gf4_bpsk_likelihoods_match_bit_products():
    rng = np.random.default_rng(6)
    cw = rng.integers(0, 4, size=5)
    mod = make_modulation("bpsk")
    snr_db = 1.5
    n0 = 10 ** (-snr_db / 10)
    rx = modulate_and_transmit(cw, 2, mod, snr_db, rng)
    lik = symbol_likelihoods(rx, mod, snr_db, 2, 5)
    for v in range(5):
        expected = np.zeros(4)
        for val in range(4):
            prob = 1.0
            for t, bit in enumerate(((val >> 1) & 1, val & 1)):
                y = rx[2 * v + t]
                point = 1.0 if bit == 0 else -1.0
                prob *= math.exp(-abs(y - point) ** 2 / n0)
            expected[val] = prob
        expected /= expected.sum()
        assert np.allclose(lik[v], expected, atol=1e-9)


def test_shared_observation_marginalization():
    # GF(4) symbols under 16-QAM: two symbols share each observation
    rng = np.random.default_rng(7)
    mod = make_modulation("16qam")
    cw = rng.integers(0, 4, size=6)
    rx = modulate_and_transmit(cw, 2, mod, 5.0, rng)
    lik = symbol_likelihoods(rx, mod, 5.0, 2, 6)
    n0 = 10 ** (-5.0 / 10)
    w = np.exp(-np.abs(rx[:, None] - mod.points[None, :]) ** 2 / n0)
    for v in range(6):
        obs, slot = divmod(v, 2)
        expected = np.zeros(4)
        for val in range(4):
            for label in range(16):
                part = (label >> 2) if slot == 0 else (label & 3)
                if part == val:
                    expected[val] += w[obs, label]
        expected /= expected.sum()
        assert np.allclose(lik[v], expected, atol=1e-9)


@pytest.mark.parametrize("p, name", ALIGNMENTS)
def test_generic_alignment_path(p, name):
    # brute force over the codeword's bit stream: bit g of the stream is
    # bit g % k (MSB first) of observation g // k's label, so each symbol
    # value's probability is the product, over the observations its bits
    # fall in, of the summed weight of the labels agreeing on those bits
    rng = np.random.default_rng(8)
    mod = make_modulation(name)
    k = mod.bits_per_symbol
    cw = alignment_codeword(rng, p, mod, 2, 2)
    n = cw.shape[1]
    rx = modulate_and_transmit(cw, p, mod, 8.0, rng)
    lik = symbol_likelihoods(rx, mod, 8.0, p, n)
    n0 = 10 ** (-8.0 / 10)
    w = np.exp(-np.abs(rx[..., None] - mod.points) ** 2 / n0)
    value_bits = (np.arange(1 << p)[:, None] >> np.arange(p - 1, -1, -1)) & 1
    label_bits = (np.arange(1 << k)[:, None] >> np.arange(k - 1, -1, -1)) & 1
    for v in range(n):
        expected = np.ones((len(cw), 1 << p))
        for obs in range((v * p) // k, (v * p + p - 1) // k + 1):
            # symbol bits t sharing observation obs, at label bits pos
            t = np.array([t for t in range(p) if (v * p + t) // k == obs])
            pos = (v * p + t) % k
            agree = (value_bits[:, None, t] == label_bits[None, :, pos]).all(axis=2)
            expected *= w[:, obs] @ agree.T
        expected /= expected.sum(axis=1, keepdims=True)
        assert np.allclose(lik[:, v], expected, atol=1e-9)


def test_length_mismatch_rejected():
    mod = make_modulation("bpsk")
    with pytest.raises(ValueError):
        symbol_likelihoods(np.zeros(7), mod, 1.0, 2, 4)


# ----------------------------------------------------------------------
# decoder
# ----------------------------------------------------------------------
def test_noiseless_decoding_iteration_zero():
    code = build_code(example_lifting())
    mod = make_modulation("bpsk")
    rng = np.random.default_rng(9)
    for _ in range(100):
        cw = code.encode(rng.integers(0, 4, size=code.k))
        rx = modulate(cw, 2, mod)
        lik = symbol_likelihoods(rx, mod, 300.0, 2, code.n)
        (word,), (converged,), (iters,) = code.decoder().decode_batch(lik[None], 10)
        assert converged and iters == 0
        assert np.array_equal(word, cw)


def test_all_single_symbol_errors_corrected():
    code = toy_code()
    for info in range(4):
        cw = code.encode(np.array([info]))
        for pos in range(3):
            for wrong in range(4):
                if wrong == cw[pos]:
                    continue
                lik = high_confidence_priors(code, cw)
                lik[pos] = 1e-6
                lik[pos, wrong] = 1.0
                lik[pos] /= lik[pos].sum()
                (word,), (converged,), _ = code.decoder().decode_batch(lik[None], 20)
                assert converged
                assert np.array_equal(word, cw), (info, pos, wrong)


def test_converged_outputs_have_zero_syndrome():
    code = build_code(example_lifting())
    mod = make_modulation("bpsk")
    rng = np.random.default_rng(10)
    convergences = 0
    for _ in range(60):
        cw = code.encode(rng.integers(0, 4, size=code.k))
        rx = modulate_and_transmit(cw, 2, mod, 1.0, rng)
        lik = symbol_likelihoods(rx, mod, 1.0, 2, code.n)
        (word,), (converged,), _ = code.decoder().decode_batch(lik[None], 15)
        if converged:
            convergences += 1
            assert not code.syndrome(word).any()
    assert convergences > 0


def test_wht_convolution_matches_direct():
    rng = np.random.default_rng(11)
    for q in (4, 8, 16):
        a = rng.random(q)
        a /= a.sum()
        b = rng.random(q)
        b /= b.sum()
        via_wht = _wht((_wht(a[None])[0] * _wht(b[None])[0])[None])[0] / q
        assert np.allclose(via_wht, direct_xor_convolution(a, b), atol=1e-12)


def test_check_node_update_matches_direct_convolution():
    # single check x0 + 2 x1 + 3 x2 = 0 over GF(4): the message to x0 is the
    # xor-convolution of the coefficient-permuted incoming messages,
    # re-permuted by the edge coefficient
    h = np.array([[1, 2, 3]])
    code = CodeInstance(F4, h)
    dec = QspaDecoder(code)
    rng = np.random.default_rng(12)
    priors = rng.random((1, 3, 4))
    priors /= priors.sum(axis=2, keepdims=True)

    word, converged, iters = dec.decode_batch(priors, 1)

    def permute(msg, coeff):
        return np.array([msg[F4.mul(F4.inv(coeff), t)] for t in range(4)])

    m1 = permute(priors[0, 1], 2)
    m2 = permute(priors[0, 2], 3)
    conv = direct_xor_convolution(m1, m2)
    expect_to_x0 = np.array([conv[F4.mul(1, x)] for x in range(4)])
    expect_post = priors[0, 0] * expect_to_x0
    assert word[0][0] == expect_post.argmax()


def record_message_steps(monkeypatch, dec, measure):
    """Patch both message steps of `dec`; per step, the list of measure(output) of each call."""
    seen = {"_clamp_edges": [], "_normalize_edges": []}  # check-to-variable, variable-to-check
    for step, values in seen.items():

        def record(msgs, original=getattr(dec, step), values=values):
            out = original(msgs)
            values.append(measure(out))
            return out

        monkeypatch.setattr(dec, step, record)
    return seen


def test_message_normalization_preserved(monkeypatch):
    code = build_code(example_lifting())
    dec = QspaDecoder(code)
    # check-to-variable messages are only clamped: they must sum to 1 already
    sums = record_message_steps(monkeypatch, dec, lambda out: np.abs(out.sum(axis=2) - 1.0).max())
    rng = np.random.default_rng(13)
    priors = rng.random((4, code.n, 4))
    priors /= priors.sum(axis=2, keepdims=True)
    dec.decode_batch(priors, 5)
    assert all(seen and max(seen) < 1e-9 for seen in sums.values())


def test_batch_equals_single_frame_decoding():
    code = build_code(example_lifting())
    mod = make_modulation("bpsk")
    rng = np.random.default_rng(14)
    batch = []
    for _ in range(12):
        cw = code.encode(rng.integers(0, 4, size=code.k))
        rx = modulate_and_transmit(cw, 2, mod, 2.0, rng)
        batch.append(symbol_likelihoods(rx, mod, 2.0, 2, code.n))
    priors = np.stack(batch)
    words_b, conv_b, iters_b = code.decoder().decode_batch(priors, 12)
    for t in range(12):
        (w,), (c,), (i,) = code.decoder().decode_batch(priors[t : t + 1], 12)
        assert np.array_equal(w, words_b[t])
        assert c == conv_b[t] and i == iters_b[t]


def test_hadamard_product_matches_butterfly():
    rng = np.random.default_rng(15)
    for p in range(1, 9):
        dec = QspaDecoder(CodeInstance(GF(p), [[1, 1]]))
        x = rng.standard_normal((3, 5, dec.q))
        assert np.allclose(x @ dec.hadamard, _wht(x), rtol=0, atol=1e-12)
        assert np.allclose(x @ dec.hadamard_inv, _wht(x) / dec.q, rtol=0, atol=1e-12)


def random_irregular_h(rng, field):
    """Check degrees 1-6, variable degrees 0, 1, 2 and 3+, one all-zero column."""
    while True:
        m, n = int(rng.integers(3, 9)), int(rng.integers(7, 16))
        h = np.zeros((m, n), dtype=np.int64)
        live = rng.permutation(n)[1:]
        for row, d in zip(h, rng.integers(1, 7, size=m)):
            row[rng.choice(live, size=d, replace=False)] = rng.integers(1, field.q, size=d)
        col, row = (h != 0).sum(axis=0), (h != 0).sum(axis=1)
        if {0, 1, 2} <= set(col) and col.max() >= 3 and row.min() < row.max():
            return h


def noisy_codeword_priors(rng, code, frames):
    """Random priors leaning, by a random margin, towards a random codeword."""
    q = code.field.q
    words = code.encode(rng.integers(0, q, size=(frames, code.k)))
    priors = rng.random((frames, code.n, q))
    priors[np.arange(frames)[:, None], np.arange(code.n), words] += 2 * rng.random((frames, code.n))
    return priors / priors.sum(axis=2, keepdims=True)


def assert_same_decoding(code, priors, max_iter):
    got = code.decoder().decode_batch(priors, max_iter)
    want = reference_decode_batch(code, priors, max_iter)
    for g, w in zip(got, want):
        assert np.array_equal(g, w)
    return want


def test_decoder_matches_padded_slot_reference_on_irregular_codes():
    rng = np.random.default_rng(16)
    iterated = stuck = degree_2_checks = 0
    for case in range(48):  # every max_iter 0-10 and 30 with q = 2, 4, 16 and 64
        field = GF((1, 2, 4, 6)[case % 4])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # random H may be rank-deficient
            code = CodeInstance(field, random_irregular_h(rng, field))
        degree_2_checks += any(d == 2 for _, d, _ in code.decoder().check_classes)
        priors = noisy_codeword_priors(rng, code, (1, 7)[case // 4 % 2])
        words, converged, iters = assert_same_decoding(code, priors, (*range(11), 30)[case // 4])
        # a variable without edges keeps its channel decision
        lone = np.bincount(code.edge_var, minlength=code.n) == 0
        assert np.array_equal(words[:, lone], priors[:, lone].argmax(axis=2))
        iterated += int((iters > 0).sum())
        stuck += int((~converged).sum())
    assert iterated and stuck  # both converging and failing frames were compared
    assert degree_2_checks  # the leave-one-out scan at d = 2 was compared too


def n192_priors(seed, frames, snr_db=1.5):
    """The perfbench N=192 GF(16) lifting and BPSK priors of random codewords."""
    code = build_code(load_matrix_file(PERFBENCH_INPUTS / "gf16_4x16_s12.alist"))
    mod = make_modulation("bpsk")
    rng = np.random.default_rng(seed)
    words = code.encode(rng.integers(0, 16, size=(frames, code.k)))
    rx = modulate_and_transmit(words, 4, mod, snr_db, rng)
    return code, symbol_likelihoods(rx, mod, snr_db, 4, code.n)


@pytest.mark.parametrize("p", range(1, 9))
def test_gathers_equal_the_argsort_built_ones_for_every_coefficient(p):
    field = GF(p)
    coeffs = np.arange(1, field.q)
    h = np.zeros((3, field.q), dtype=np.int64)  # column degrees 1 to 3
    h[0, :-1] = coeffs
    h[1, 1:] = coeffs[::-1]
    h[2, ::3] = coeffs[: h[2, ::3].size]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # H may be rank-deficient
        code = CodeInstance(field, h)
    dec = QspaDecoder(code)
    for got, want in zip((dec.gather_vc, dec.gather_cv), argsort_gathers(code)):
        assert got.dtype == want.dtype and np.array_equal(got, want)


def test_decoder_matches_padded_slot_reference_on_n192_lifting():
    code, priors = n192_priors(17, 48)
    _, converged, iters = assert_same_decoding(code, priors, 30)
    assert (iters > 1).any() and not converged.all()


@pytest.fixture
def pool_sizes(monkeypatch):
    """Report 3 usable CPUs; the list of the worker counts of the pools started."""
    pools = []

    class RecordingPool(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(channel, "_usable_cpus", lambda: 3)
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", RecordingPool)
    return pools


def test_threaded_decoding_matches_reference_and_unsplit_decode(pool_sizes):
    code, priors = n192_priors(19, 300)  # 14.7 MB of messages: four chunks of up to 86 frames
    before = set(threading.enumerate())
    got = code.decoder().decode_batch(priors, 30)
    # the caller and two pool threads pull the four decode chunks; the demapper started none
    assert pool_sizes == [2]
    assert set(threading.enumerate()) <= before  # no pool thread outlives the call
    for g, u in zip(got, code.decoder()._decode(priors, 30)):
        assert np.array_equal(g, u)
    words, converged, iters = got
    ref_words, ref_converged, ref_iters = reference_decode_batch(code, priors, 30)
    assert np.array_equal(converged, ref_converged) and np.array_equal(iters, ref_iters)
    # a frame still failing after 30 iterations may end one symbol apart: the
    # butterfly and the BLAS Hadamard product round differently (frame 120 here)
    assert np.array_equal(words[converged], ref_words[converged])
    for chunk in np.array_split(np.arange(300), 3):  # every third compacts its active set
        assert len(set(iters[chunk][converged[chunk]])) > 2 and not converged[chunk].all()


def test_one_frame_or_one_cpu_starts_no_thread(pool_sizes, monkeypatch):
    code, priors = n192_priors(20, 64)
    dec = code.decoder()
    unsplit = dec._decode(priors, 30)
    pool_sizes.clear()
    for g, u in zip(dec.decode_batch(priors[:1], 30), unsplit):
        assert np.array_equal(g, u[:1])
    monkeypatch.setattr(channel, "_usable_cpus", lambda: 1)
    for g, u in zip(dec.decode_batch(priors, 30), unsplit):
        assert np.array_equal(g, u)
    assert pool_sizes == []


def test_a_64_frame_n192_batch_is_split_over_3_cpus(pool_sizes, monkeypatch):
    code, priors = n192_priors(20, 64)  # 3.1 MB of messages: under one 86-frame byte fit
    dec = code.decoder()
    unsplit = dec._decode(priors, 30)
    sizes = []

    def recording(chunk, max_iter):
        sizes.append(len(chunk))
        return QspaDecoder._decode(dec, chunk, max_iter)

    monkeypatch.setattr(dec, "_decode", recording)
    pool_sizes.clear()
    got = dec.decode_batch(priors, 30)
    assert pool_sizes == [2] and sorted(sizes) == [20, 22, 22]
    for g, u in zip(got, unsplit):
        assert np.array_equal(g, u)


def test_one_frame_chunks_match_unsplit_decode(pool_sizes, monkeypatch):
    code, priors = n192_priors(19, 300)
    dec = code.decoder()
    unsplit = dec._decode(priors, 30)
    _, ref_converged, ref_iters = reference_decode_batch(code, priors, 30)
    assert not ref_converged.all()
    monkeypatch.setattr(channel, "_CHUNK_BYTES", 1)  # every frame is its own chunk
    assert dec.chunk_frames == 1
    sizes = []

    def recording(chunk, max_iter):
        sizes.append(len(chunk))
        return QspaDecoder._decode(dec, chunk, max_iter)

    monkeypatch.setattr(dec, "_decode", recording)
    switch = sys.getswitchinterval()
    for cpus, pools in ((1, []), (3, [2])):
        monkeypatch.setattr(channel, "_usable_cpus", lambda: cpus)
        sizes.clear()
        pool_sizes.clear()
        sys.setswitchinterval(1e-5)  # threads interleave often between queue pulls
        try:
            words, converged, iters = dec.decode_batch(priors, 30)
        finally:
            sys.setswitchinterval(switch)
        assert pool_sizes == pools
        # every frame decoded once, and no call decodes more than one chunk
        assert sorted(sizes) == [1] * 300
        for g, u in zip((words, converged, iters), unsplit):
            assert np.array_equal(g, u)
        assert np.array_equal(converged, ref_converged) and np.array_equal(iters, ref_iters)


def test_worker_error_reaches_the_caller(pool_sizes, monkeypatch):
    code, priors = n192_priors(19, 300)
    dec = code.decoder()
    monkeypatch.setattr(channel, "_CHUNK_BYTES", 1)
    caller, raised, calls = threading.get_ident(), threading.Event(), []

    def failing(chunk, max_iter):
        calls.append(len(chunk))
        if threading.get_ident() != caller:
            raised.set()
            raise RuntimeError("worker failed")
        assert raised.wait(30)  # the caller's chunk ends only after a worker failed
        return QspaDecoder._decode(dec, chunk, max_iter)

    monkeypatch.setattr(dec, "_decode", failing)
    before = set(threading.enumerate())
    with pytest.raises(RuntimeError, match="worker failed"):
        dec.decode_batch(priors, 30)
    assert pool_sizes == [2]  # the demapper ran on the calling thread
    assert set(threading.enumerate()) <= before  # every pool thread was joined
    assert len(calls) < 300  # the workers stopped before the queue was empty


@pytest.mark.parametrize("p", [4, 6, 8])
@pytest.mark.parametrize("name", ["bpsk", "16qam", "64qam", "256qam"])
def test_demapping_in_one_frame_chunks_is_exact(pool_sizes, monkeypatch, p, name):
    rng = np.random.default_rng(22)
    mod = make_modulation(name)
    cw = alignment_codeword(rng, p, mod, 5, 3)
    rx = modulate_and_transmit(cw, p, mod, 6.0, rng)
    chunks = []

    def recording(received, *args):
        chunks.append(len(received))
        return observation_weights(received, *args)

    monkeypatch.setattr(channel, "observation_weights", recording)
    whole = symbol_likelihoods(rx, mod, 6.0, p, cw.shape[1])
    monkeypatch.setattr(channel, "_CHUNK_BYTES", 1)
    split = symbol_likelihoods(rx, mod, 6.0, p, cw.shape[1])
    # the blocks follow the byte fit alone, and at 3 usable CPUs no pool starts
    assert chunks == [5, 1, 1, 1, 1, 1] and pool_sizes == []
    assert np.array_equal(split, whole)


def test_zero_frame_batches_give_empty_arrays():
    code = toy_code()
    mod = make_modulation("bpsk")
    assert code.encode(np.zeros((0, code.k), dtype=int)).shape == (0, code.n)
    rx = np.zeros((0, code.n * 2), dtype=complex)
    priors = symbol_likelihoods(rx, mod, 3.0, 2, code.n)
    assert priors.shape == (0, code.n, 4)
    words, converged, iters = code.decoder().decode_batch(priors, 10)
    assert words.shape == (0, code.n) and converged.shape == iters.shape == (0,)


@pytest.mark.parametrize("max_iter", [-1, 2.5, True])
def test_decode_batch_rejects_a_bad_max_iter(max_iter):
    code = toy_code()
    priors = high_confidence_priors(code, np.array([1, 3, 1]))[None]
    with pytest.raises(ValueError, match=r"max_iter must be an integer >= 0, got "):
        code.decoder().decode_batch(priors, max_iter)


class LazyFrames:
    """A frame sequence that makes each slice when it is read: edit(priors[lo:hi] copied).

    `reads` lists each slice read as (lo, hi); `extra` frames are claimed
    beyond those the priors hold.
    """

    def __init__(self, priors, edit=lambda chunk: chunk, extra=0):
        self.priors, self.edit, self.extra, self.reads = priors, edit, extra, []

    def __len__(self):
        return len(self.priors) + self.extra

    def __getitem__(self, frames):
        self.reads.append((frames.start, frames.stop))
        return self.edit(self.priors[frames].copy())


@pytest.mark.parametrize("cpus", [1, 3])
def test_a_lazy_frame_sequence_decodes_as_its_array(pool_sizes, monkeypatch, cpus):
    code, priors = n192_priors(20, 64)
    dec = code.decoder()
    monkeypatch.setattr(channel, "_usable_cpus", lambda: cpus)
    want = dec.decode_batch(priors, 30)
    pool_sizes.clear()
    frames = LazyFrames(priors)
    got = dec.decode_batch(frames, 30)
    for g, w in zip(got, want):
        assert np.array_equal(g, w)
    # each chunk's slice is read once: one 64-frame chunk, or 22, 22 and 20 on three workers
    assert sorted(frames.reads) == ([(0, 64)] if cpus == 1 else [(0, 22), (22, 44), (44, 64)])
    assert pool_sizes == ([] if cpus == 1 else [2])


@pytest.mark.parametrize("cpus", [1, 3])
def test_a_prior_slice_of_the_wrong_shape_is_rejected(pool_sizes, monkeypatch, cpus):
    code = toy_code()
    dec = code.decoder()
    priors = np.stack([high_confidence_priors(code, np.array([t, 3 * t % 4, t])) for t in range(4)])
    monkeypatch.setattr(channel, "_usable_cpus", lambda: cpus)
    for bad in (
        LazyFrames(priors, edit=lambda chunk: chunk[:, :2]),  # a variable short
        LazyFrames(priors, extra=1),  # the last slice a frame short
        priors[0],  # one frame's (n, q) priors, read as n frames
    ):
        with pytest.raises(ValueError, match="^prior shape does not match the code$"):
            dec.decode_batch(bad, 5)
    # at 3 CPUs every call starts a pool: 2, 3 and 3 chunks of 4, 5 and 3 frames
    assert pool_sizes == ([] if cpus == 1 else [1, 2, 2])


@pytest.mark.parametrize("name", ["bpsk", "4qam", "16qam", "64qam", "256qam"])
def test_observation_weights_match_the_one_expression(name):
    mod = make_modulation(name)
    rng = np.random.default_rng(26)
    # n0 is below the floor at 400 dB and 0.0 at 4000 dB, where the floor keeps 0/0 out
    for snr_db in (-10.0, 0.0, 5.2, 18.0, 60.0, 400.0, 4000.0):
        tx = mod.points[rng.integers(0, len(mod.points), size=(3, 40))]
        sigma = noise_sigma(snr_db)
        rx = tx + rng.normal(scale=sigma, size=tx.shape) + 1j * rng.normal(scale=sigma, size=tx.shape)
        got = observation_weights(rx, mod, snr_db)
        # the per-axis factors round apart from the 2-D distances, within 1e-12
        assert np.abs(got - reference_observation_weights(rx, mod, snr_db)).max() <= 1e-12
        assert np.isfinite(got).all() and got.min() >= 0.0 and got.max() <= 1.0
        assert (got.max(axis=-1) == 1.0).all()


def test_empty_checks_are_always_satisfied():
    word = np.array([1, 3, 1])  # (t, 3t, t) with t = 1, a codeword of TOY_H
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # both matrices are rank-deficient
        codes = [CodeInstance(F4, h) for h in ([[1, 2, 0], [0, 0, 0], [0, 1, 3]], np.zeros((2, 3)))]
    for code in codes:
        words, converged, iters = code.decoder().decode_batch(high_confidence_priors(code, word)[None], 5)
        assert converged[0] and iters[0] == 0 and np.array_equal(words[0], word)


def test_q256_decoding_stays_finite_at_high_snr(monkeypatch):
    cfg = ConstructionConfig(s=8, q=256, depth=6, trials_per_edge=5, rng_seed=0)
    lifting, _ = greedy_lift(weight2_base(4, 16), cfg)
    code = build_code(lifting)
    dec = code.decoder()
    finite = record_message_steps(monkeypatch, dec, lambda out: bool(np.isfinite(out).all()))
    mod = make_modulation("256qam")
    rng = np.random.default_rng(18)
    for snr_db in (22.0, 60.0, 200.0):
        sent = code.encode(rng.integers(0, 256, size=(20, code.k)))
        rx = modulate_and_transmit(sent, 8, mod, snr_db, rng)
        priors = symbol_likelihoods(rx, mod, snr_db, 8, code.n)
        assert np.isfinite(priors).all()
        words, converged, iters = dec.decode_batch(priors, 30)
        if snr_db > 22.0:
            assert np.array_equal(words, sent) and converged.all() and not iters.any()
    assert all(seen and all(seen) for seen in finite.values())


# ----------------------------------------------------------------------
# Monte-Carlo driver
# ----------------------------------------------------------------------
def test_monte_carlo_deterministic_and_batch_invariant(monkeypatch):
    code = toy_code()
    cfg = SimConfig(
        modulation="bpsk", snr_db=(0.0, 2.0), max_frames=300, max_errors=10**9, rng_seed=7
    )
    r1 = run_monte_carlo(code, cfg)
    r2 = run_monte_carlo(code, cfg)
    monkeypatch.setattr(channel, "_BATCH_FRAMES", 11)
    r3 = run_monte_carlo(code, cfg)
    assert r1 == r2 == r3
    assert r1.to_text() == r3.to_text()


def test_monte_carlo_draws_each_frame_from_its_own_stream(monkeypatch):
    # frame i of every SNR point has the stream default_rng([seed, i]), which
    # gives its information symbols, then the real and then the imaginary
    # part of its noise
    code = toy_code()
    n_obs = code.n * 2  # BPSK: one observation per bit of GF(4)
    batches = []
    encode, demap = code.encode, channel.symbol_likelihoods

    def recording_encode(info):
        batches.append([info.copy(), []])
        return encode(info)

    def recording_demap(rx, modulation, snr_db, *rest):
        batches[-1][1].append(rx.copy())
        batches[-1][2:] = [snr_db]
        return demap(rx, modulation, snr_db, *rest)

    def silent(words, p, mod):  # the received samples are the noise itself
        return np.zeros((len(words), n_obs), complex)

    monkeypatch.setattr(code, "encode", recording_encode)
    monkeypatch.setattr(channel, "symbol_likelihoods", recording_demap)
    monkeypatch.setattr(channel, "modulate", silent)
    # one-frame chunks demapped in frame order: a batch's samples are its calls' in turn
    monkeypatch.setattr(channel, "_usable_cpus", lambda: 1)
    monkeypatch.setattr(channel, "_CHUNK_BYTES", 1)
    monkeypatch.setattr(channel, "_BATCH_FRAMES", 2)
    for seed in (0, 7, 123):
        batches.clear()
        cfg = SimConfig(modulation="bpsk", snr_db=(1.0, 4.0), max_frames=3, rng_seed=seed)
        run_monte_carlo(code, cfg)
        index = {1.0: 0, 4.0: 0}  # per SNR point, the next frame's index
        for info, chunks, snr_db in batches:
            assert [len(rx) for rx in chunks] == [1] * len(info)
            rx = np.concatenate(chunks)
            sigma = noise_sigma(snr_db)
            for t in range(len(info)):
                rng = np.random.default_rng([seed, index[snr_db]])
                assert np.array_equal(info[t], rng.integers(0, 4, size=code.k))
                assert np.array_equal(rx[t].real, rng.normal(scale=sigma, size=n_obs))
                assert np.array_equal(rx[t].imag, rng.normal(scale=sigma, size=n_obs))
                index[snr_db] += 1
        assert index == {1.0: 3, 4.0: 3}  # three frames at each SNR point, in two batches


def test_monte_carlo_point_alone_equals_the_point_among_others():
    # a point's frames do not depend on how many frames the points before it
    # used: here the first point stops early and the others run all 150
    cfg = SimConfig(
        modulation="bpsk", snr_db=(-8.0, -1.0, 2.0), max_frames=150, max_errors=20, rng_seed=6
    )
    together = run_monte_carlo(toy_code(), cfg).points
    assert [pt.frames for pt in together] == [89, 150, 150]
    for point in together:
        alone = dataclasses.replace(cfg, snr_db=(point.snr_db,))
        assert run_monte_carlo(toy_code(), alone).points == (point,)


def test_monte_carlo_early_stop_is_batch_size_independent(monkeypatch):
    # the first point stops at its 20th error; the second runs all its frames
    cfg = SimConfig(
        modulation="bpsk", snr_db=(-8.0, -1.0), max_frames=400, max_errors=20, rng_seed=6
    )
    results = {}
    for b in (1, 7, 64, 400):
        monkeypatch.setattr(channel, "_BATCH_FRAMES", b)
        results[b] = run_monte_carlo(toy_code(), cfg)
    first = results[1].points[0]
    assert first.errors == 20 and first.frames < 400
    assert results[1].points[1].frames == 400
    for b in (7, 64, 400):
        assert results[b].to_text() == results[1].to_text()


def test_monte_carlo_early_stop_sizes_batches_by_missing_errors(monkeypatch):
    # one 400-frame batch would decode 400 frames and count 89 of them
    cfg = SimConfig(modulation="bpsk", snr_db=(-8.0,), max_frames=400, max_errors=20, rng_seed=6)
    monkeypatch.setattr(channel, "_BATCH_FRAMES", 1)
    want = run_monte_carlo(toy_code(), cfg)
    decoded = []
    original = QspaDecoder.decode_batch

    def counting(self, priors, max_iter):
        decoded.append(len(priors))
        return original(self, priors, max_iter)

    monkeypatch.setattr(QspaDecoder, "decode_batch", counting)
    monkeypatch.setattr(channel, "_BATCH_FRAMES", 400)
    got = run_monte_carlo(toy_code(), cfg)
    assert got == want and (got.points[0].frames, got.points[0].errors) == (89, 20)
    # max_errors frames first, then the 16 missing errors at 4 errors in 20 frames
    assert decoded == [20, 80]


def monte_carlo_decodes(monkeypatch, code, cfg, whole_batch):
    """run_monte_carlo's results text and each batch's decoder outputs.

    With `whole_batch`, each batch is demapped at once and its prior array
    decoded, as the driver did before every decoding chunk demapped its own
    frames.
    """
    original, outputs = QspaDecoder.decode_batch, []

    def recording(self, priors, max_iter):
        if whole_batch:
            got = original(self, priors[0 : len(priors)], max_iter)
        else:
            got = original(self, priors, max_iter)
        outputs.append(got)
        return got

    with monkeypatch.context() as m:
        m.setattr(QspaDecoder, "decode_batch", recording)
        text = run_monte_carlo(code, cfg).to_text()
    return text, outputs


def n192_code():
    return build_code(load_matrix_file(PERFBENCH_INPUTS / "gf16_4x16_s12.alist"))


@pytest.mark.parametrize("case", ["toy", "n192"])
def test_monte_carlo_chunk_demapping_equals_whole_batch_demapping(monkeypatch, case):
    if case == "toy":
        code, snr_db, frames = toy_code(), (-4.0, 0.0), 150
    else:
        code, snr_db, frames = n192_code(), (1.5,), 96
    cfg = SimConfig(
        modulation="bpsk", snr_db=snr_db, max_frames=frames, max_errors=10**9, rng_seed=4
    )
    monkeypatch.setattr(channel, "_usable_cpus", lambda: 1)
    want_text, want = monte_carlo_decodes(monkeypatch, code, cfg, whole_batch=True)
    # frames that iterate and frames in error are compared too
    assert (np.concatenate([iters for _, _, iters in want]) > 1).any()
    assert int(want_text.splitlines()[1].split()[2]) > 0
    switch = sys.getswitchinterval()
    for chunk_bytes in (channel._CHUNK_BYTES, 1):
        monkeypatch.setattr(channel, "_CHUNK_BYTES", chunk_bytes)
        for cpus in (1, 3):
            monkeypatch.setattr(channel, "_usable_cpus", lambda: cpus)
            sys.setswitchinterval(1e-5)  # workers interleave often inside their chunks
            try:
                text, got = monte_carlo_decodes(monkeypatch, code, cfg, whole_batch=False)
            finally:
                sys.setswitchinterval(switch)
            assert text == want_text and len(got) == len(want)
            for outs, want_outs in zip(got, want):
                for g, w in zip(outs, want_outs):
                    assert np.array_equal(g, w)


@pytest.mark.parametrize("chunk_frames", [86, 8])
def test_monte_carlo_demaps_one_decoding_chunk_per_call(pool_sizes, monkeypatch, chunk_frames):
    code = n192_code()
    dec = code.decoder()
    # 49152 bytes of messages per frame: 384 edges of 16 float64 values
    monkeypatch.setattr(channel, "_CHUNK_BYTES", (chunk_frames - 1) * 49152 + 1)
    assert dec.chunk_frames == chunk_frames
    demap, encode = channel.symbol_likelihoods, code.encode
    sizes, batches = [], []

    def recording_demap(rx, *args):
        sizes.append(len(rx))
        return demap(rx, *args)

    def recording_encode(info):
        batches.append(len(info))
        return encode(info)

    monkeypatch.setattr(channel, "symbol_likelihoods", recording_demap)
    monkeypatch.setattr(code, "encode", recording_encode)
    cfg = SimConfig(modulation="bpsk", snr_db=(5.2,), max_frames=200, rng_seed=8)
    assert run_monte_carlo(code, cfg).points[0].frames == 200
    assert batches == [64, 64, 64, 8]
    assert sum(sizes) == 200 and max(sizes) <= chunk_frames
    assert pool_sizes == [2] * 4  # one pool per batch: the demapping inside a chunk starts none


def test_monte_carlo_demaps_each_decoding_chunk_in_byte_blocks(monkeypatch):
    # 256-QAM on N=192 GF(16): 96 observations of 256 points, a block fit of
    # 4 MiB // (16 * 96 * 256) = 10 frames, under the decoder's 86-frame fit
    code = n192_code()
    assert code.decoder().chunk_frames == 86
    blocks = []

    def recording(received, *args):
        blocks.append(len(received))
        return observation_weights(received, *args)

    monkeypatch.setattr(channel, "observation_weights", recording)
    monkeypatch.setattr(channel, "_usable_cpus", lambda: 1)  # one 64-frame chunk per batch
    cfg = SimConfig(modulation="256qam", snr_db=(30.0,), max_frames=128, rng_seed=5)
    assert run_monte_carlo(code, cfg).points[0].frames == 128
    assert blocks == ([10] * 6 + [4]) * 2


def test_monte_carlo_demap_error_in_a_worker_reaches_the_caller(pool_sizes, monkeypatch):
    monkeypatch.setattr(channel, "_CHUNK_BYTES", 1)
    caller, raised, calls = threading.get_ident(), threading.Event(), []

    def failing(received, *args):
        calls.append(len(received))
        if threading.get_ident() != caller:
            raised.set()
            raise RuntimeError("demap worker failed")
        assert raised.wait(30)  # the caller's chunk ends only after a worker failed
        return observation_weights(received, *args)

    monkeypatch.setattr(channel, "observation_weights", failing)
    before = set(threading.enumerate())
    cfg = SimConfig(modulation="bpsk", snr_db=(3.0,), max_frames=30, rng_seed=9)
    with pytest.raises(RuntimeError, match="demap worker failed"):
        run_monte_carlo(toy_code(), cfg)
    assert pool_sizes == [2]
    assert set(threading.enumerate()) <= before  # every pool thread was joined
    assert len(calls) < 30  # the workers stopped before the queue was empty


def test_monte_carlo_high_snr_error_free():
    cfg = SimConfig(
        modulation="bpsk", snr_db=(60.0,), max_frames=200, max_errors=10**9, rng_seed=1
    )
    result = run_monte_carlo(toy_code(), cfg)
    assert result.points[0].errors == 0
    assert result.points[0].frames == 200


def test_monte_carlo_max_errors_stops_early(monkeypatch):
    cfg = SimConfig(
        modulation="bpsk",
        snr_db=(-12.0,),
        max_frames=100_000,
        max_errors=25,
        rng_seed=2,
    )
    monkeypatch.setattr(channel, "_BATCH_FRAMES", 16)
    result = run_monte_carlo(toy_code(), cfg)
    pt = result.points[0]
    assert pt.errors >= 25
    assert pt.frames < 100_000


def test_monte_carlo_matches_ml_oracle_on_toy_code():
    code = toy_code()
    mod = make_modulation("bpsk")
    snr_db = 0.0
    frames = 4000
    codewords = np.stack([code.encode(np.array([t])) for t in range(4)])
    bp_errors = ml_errors = 0
    for idx in range(frames):
        rng = np.random.default_rng([99, idx])
        info = rng.integers(0, 4, size=1)
        cw = code.encode(info)
        rx = modulate_and_transmit(cw, 2, mod, snr_db, rng)
        lik = symbol_likelihoods(rx, mod, snr_db, 2, 3)
        (word,), _, _ = code.decoder().decode_batch(lik[None], 20)
        bp_errors += int(not np.array_equal(word, cw))
        scores = np.log(lik[np.arange(3)[None, :], codewords]).sum(axis=1)
        ml_errors += int(not np.array_equal(codewords[scores.argmax()], cw))
    bp_lo, bp_hi = wilson_interval(bp_errors, frames)
    ml_lo, ml_hi = wilson_interval(ml_errors, frames)
    assert bp_lo <= ml_hi and ml_lo <= bp_hi  # overlapping confidence intervals
    assert ml_errors > 0  # the operating point actually exercises errors


def test_fer_monotone_in_snr_within_confidence():
    cfg = SimConfig(
        modulation="bpsk",
        snr_db=(-2.0, 1.0, 4.0),
        max_frames=800,
        max_errors=10**9,
        rng_seed=3,
    )
    result = run_monte_carlo(toy_code(), cfg)
    pts = result.points
    for a, b in zip(pts, pts[1:]):
        assert b.bler <= a.confidence_interval[1] + 1e-12


def test_modulation_divisibility_enforced():
    code = toy_code()  # 3 GF(4) symbols -> 6 bits
    cfg = SimConfig(
        modulation="16qam", snr_db=(5.0,), max_frames=10, max_errors=10, rng_seed=0
    )
    with pytest.raises(ValueError, match="not a multiple"):
        run_monte_carlo(code, cfg)


def test_gf64_with_64qam_smoke():
    f64 = GF(6)
    base = BaseMatrix([[1, 1]])
    lifting = Lifting(base, 2, f64, beta=[5, 9], shift=[1, 0])
    code = build_code(lifting)
    cfg = SimConfig(
        modulation="64qam", snr_db=(40.0,), max_frames=50, max_errors=10**9, rng_seed=4
    )
    result = run_monte_carlo(code, cfg)
    assert result.points[0].errors == 0


def test_wilson_interval_sanity():
    lo, hi = wilson_interval(0, 100)
    assert lo == 0.0 and 0 < hi < 0.05
    lo, hi = wilson_interval(50, 100)
    assert lo < 0.5 < hi
    assert wilson_interval(0, 0) == (0.0, 1.0)


def test_wilson_interval_edges_are_exact():
    # the formula cancels at both edges; rounding must not leave a remainder
    for n in range(1, 3001):
        assert wilson_interval(0, n)[0] == 0.0
        assert wilson_interval(n, n)[1] == 1.0


def test_sim_config_validation():
    with pytest.raises(ValueError):
        SimConfig(modulation="bogus", snr_db=(1.0,), max_frames=1, max_errors=1)
    with pytest.raises(ValueError):
        SimConfig(modulation="bpsk", snr_db=(), max_frames=1, max_errors=1)
    with pytest.raises(ValueError):
        SimConfig(modulation="bpsk", snr_db=(1.0,), max_frames=0, max_errors=1)


@pytest.mark.parametrize(
    "field,value",
    [
        ("max_frames", "5"),
        ("decoder_max_iterations", 2.5),
        ("max_errors", True),
        ("rng_seed", "7"),
        ("rng_seed", -1),
        ("modulation", 4),
        ("snr_db", [1.0, "2"]),
        ("snr_db", [float("nan")]),
        ("snr_db", 5),
        ("snr_db", [1.0, -4000.0]),  # noise variance 10^400 overflows
    ],
)
def test_sim_config_rejects_mistyped_values(field, value):
    kwargs = {"modulation": "bpsk", "snr_db": (1.0,), "max_frames": 5, field: value}
    with pytest.raises(ValueError, match=field):
        SimConfig(**kwargs)


def test_sim_config_defaults_and_numpy_values():
    cfg = SimConfig(
        modulation="bpsk", snr_db=np.array([1, 2.5]), max_frames=np.int64(7), rng_seed=np.uint8(3)
    )
    assert cfg.snr_db == (1.0, 2.5) and cfg.max_errors == 7 and cfg.rng_seed == 3
    # plain ints, so the CLI's manifest can be written as JSON
    assert type(cfg.max_frames) is int and type(cfg.max_errors) is int


def test_snr_whose_noise_variance_overflows_fails_in_direct_calls():
    bpsk = make_modulation("bpsk")
    calls = [
        lambda: noise_sigma(-4000.0),
        lambda: observation_weights(np.ones(4, dtype=complex), bpsk, -4000.0),
        lambda: symbol_likelihoods(np.ones((1, 4)), bpsk, -4000.0, 2, 2),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="^snr_db -4000 overflows the noise variance$"):
            call()


def test_sim_config_takes_the_lowest_snr_with_a_finite_noise_variance():
    assert SimConfig(modulation="bpsk", snr_db=(-3082.0,), max_frames=1).snr_db == (-3082.0,)
    assert noise_sigma(-3082.0) > 0
    with pytest.raises(ValueError, match="^snr_db -3083 overflows the noise variance"):
        SimConfig(modulation="bpsk", snr_db=(np.float64(-3083.0),), max_frames=1)
