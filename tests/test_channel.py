import math
import concurrent.futures
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest

from helpers import _wht, direct_xor_convolution, plain_rank, reference_decode_batch
from nbqc import channel
from nbqc.alist_io import load_matrix_file
from nbqc.base_graph import BaseMatrix, weight2_base
from nbqc.channel import (
    CodeInstance,
    QspaDecoder,
    SimConfig,
    build_code,
    make_modulation,
    modulate,
    modulate_and_transmit,
    noise_sigma,
    observation_weights,
    qspa_decode,
    run_monte_carlo,
    symbol_likelihoods,
    symbols_to_bits,
    wilson_interval,
)
from nbqc.gf import GF
from nbqc.lifter import ConstructionConfig, Lifting, Monomial, greedy_lift

F4 = GF(2)
F16 = GF(4)

# [3, 1] GF(4) code with tree Tanner graph and non-binary coefficients;
# codewords are (t, 3t, t) for t in GF(4), minimum distance 3
TOY_H = np.array([[1, 2, 0], [0, 1, 3]])


def toy_code():
    return CodeInstance(F4, TOY_H)


def example_lifting():
    base = BaseMatrix([[0, 1, 1], [1, 0, 1]])
    return Lifting(
        base,
        3,
        F4,
        {
            (0, 1): Monomial(1, 2),
            (0, 2): Monomial(2, 1),
            (1, 0): Monomial(1, 0),
            (1, 2): Monomial(3, 2),
        },
    )


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
            cab = code.encode(np.array([F4.add(a, b)]))
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
        word, converged, iters = qspa_decode(code, lik, 10)
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
                word, converged, _ = qspa_decode(code, lik, 20)
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
        word, converged, _ = qspa_decode(code, lik, 15)
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


def test_message_normalization_preserved(monkeypatch):
    code = build_code(example_lifting())
    dec = QspaDecoder(code)
    sums = []
    original = dec._normalize_edges

    def recording(msgs):
        out = original(msgs)
        sums.append(np.abs(out.sum(axis=2) - 1.0).max())
        return out

    monkeypatch.setattr(dec, "_normalize_edges", recording)
    rng = np.random.default_rng(13)
    priors = rng.random((4, code.n, 4))
    priors /= priors.sum(axis=2, keepdims=True)
    dec.decode_batch(priors, 5)
    assert sums and max(sums) < 1e-9


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
        w, c, i = qspa_decode(code, priors[t], 12)
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
    iterated = stuck = 0
    for case in range(44):  # every max_iter 0-10 with q = 2, 4, 16 and 64
        field = GF((1, 2, 4, 6)[case % 4])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # random H may be rank-deficient
            code = CodeInstance(field, random_irregular_h(rng, field))
        priors = noisy_codeword_priors(rng, code, (1, 7)[case // 4 % 2])
        _, converged, iters = assert_same_decoding(code, priors, case % 11)
        iterated += int((iters > 0).sum())
        stuck += int((~converged).sum())
    assert iterated and stuck  # both converging and failing frames were compared


def n192_priors(seed, frames, snr_db=1.5):
    """The perfbench N=192 GF(16) lifting and BPSK priors of random codewords."""
    alist = Path(__file__).resolve().parents[1] / "perfbench" / "inputs" / "gf16_4x16_s12.alist"
    code = build_code(load_matrix_file(alist))
    mod = make_modulation("bpsk")
    rng = np.random.default_rng(seed)
    words = code.encode(rng.integers(0, 16, size=(frames, code.k)))
    rx = modulate_and_transmit(words, 4, mod, snr_db, rng)
    return code, symbol_likelihoods(rx, mod, snr_db, 4, code.n)


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
    assert pool_sizes == [2]  # the caller and two pool threads pull the four chunks
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


def test_small_batches_start_no_thread(pool_sizes):
    code, priors = n192_priors(20, 64)  # 3.1 MB of messages: one 86-frame chunk
    got = code.decoder().decode_batch(priors, 30)
    assert pool_sizes == []
    for g, w in zip(got, code.decoder()._decode(priors, 30)):
        assert np.array_equal(g, w)


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
    assert pool_sizes == [2]
    assert set(threading.enumerate()) <= before  # every pool thread was joined
    assert len(calls) < 300  # the workers stopped before the queue was empty


@pytest.mark.parametrize("p", [4, 6, 8])
@pytest.mark.parametrize("name", ["bpsk", "16qam", "64qam", "256qam"])
def test_demapping_in_one_frame_chunks_is_exact(monkeypatch, p, name):
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
    assert chunks == [5, 1, 1, 1, 1, 1]
    assert np.array_equal(split, whole)


def test_empty_checks_are_always_satisfied():
    word = np.array([1, 3, 1])  # (t, 3t, t) with t = 1, a codeword of TOY_H
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # both matrices are rank-deficient
        codes = [CodeInstance(F4, h) for h in ([[1, 2, 0], [0, 0, 0], [0, 1, 3]], np.zeros((2, 3)))]
    for code in codes:
        words, converged, iters = code.decoder().decode_batch(high_confidence_priors(code, word), 5)
        assert converged[0] and iters[0] == 0 and np.array_equal(words[0], word)


def test_q256_decoding_stays_finite_at_high_snr(monkeypatch):
    cfg = ConstructionConfig(s=8, q=256, depth=6, trials_per_edge=5, rng_seed=0)
    lifting, _ = greedy_lift(weight2_base(4, 16), cfg)
    code = build_code(lifting)
    dec = code.decoder()
    finite = []
    original = dec._normalize_edges

    def recording(msgs):
        out = original(msgs)
        finite.append(bool(np.isfinite(out).all()))
        return out

    monkeypatch.setattr(dec, "_normalize_edges", recording)
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
    assert finite and all(finite)


# ----------------------------------------------------------------------
# Monte-Carlo driver
# ----------------------------------------------------------------------
def test_monte_carlo_deterministic_and_batch_invariant():
    code = toy_code()
    cfg = SimConfig(
        modulation="bpsk", snr_db=(0.0, 2.0), max_frames=300, max_errors=10**9, rng_seed=7
    )
    r1 = run_monte_carlo(code, cfg)
    r2 = run_monte_carlo(code, cfg)
    r3 = run_monte_carlo(code, cfg, batch_size=11)
    assert r1 == r2 == r3
    assert r1.to_text() == r3.to_text()


def test_monte_carlo_early_stop_is_batch_size_independent():
    # the first point stops at its 20th error; the second runs all its frames
    cfg = SimConfig(
        modulation="bpsk", snr_db=(-8.0, -1.0), max_frames=400, max_errors=20, rng_seed=6
    )
    results = {b: run_monte_carlo(toy_code(), cfg, batch_size=b) for b in (1, 7, 64, 400)}
    first = results[1].points[0]
    assert first.errors == 20 and first.frames < 400
    assert results[1].points[1].frames == 400
    for b in (7, 64, 400):
        assert results[b].to_text() == results[1].to_text()


@pytest.mark.parametrize("batch_size", [0, -3])
def test_monte_carlo_rejects_empty_batches(batch_size):
    cfg = SimConfig(modulation="bpsk", snr_db=(1.0,), max_frames=5, max_errors=5)
    with pytest.raises(ValueError, match="batch_size must be at least 1"):
        run_monte_carlo(toy_code(), cfg, batch_size=batch_size)


def test_monte_carlo_high_snr_error_free():
    cfg = SimConfig(
        modulation="bpsk", snr_db=(60.0,), max_frames=200, max_errors=10**9, rng_seed=1
    )
    result = run_monte_carlo(toy_code(), cfg)
    assert result.points[0].errors == 0
    assert result.points[0].frames == 200


def test_monte_carlo_max_errors_stops_early():
    cfg = SimConfig(
        modulation="bpsk",
        snr_db=(-12.0,),
        max_frames=100_000,
        max_errors=25,
        rng_seed=2,
    )
    result = run_monte_carlo(toy_code(), cfg, batch_size=16)
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
        word, _, _ = qspa_decode(code, lik, 20)
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
    lifting = Lifting(base, 2, f64, {(0, 0): Monomial(5, 1), (0, 1): Monomial(9, 0)})
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
