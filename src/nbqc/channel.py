"""AWGN / QAM Monte-Carlo verification with a q-ary sum-product decoder.

The pipeline mirrors a conventional link simulation: expand a lifting to
its scalar parity-check matrix, derive a systematic encoder by Gaussian
elimination, map codeword symbols to Gray-labelled constellation points
of unit average energy, add complex Gaussian noise at a configured Es/N0,
demap to per-symbol probability vectors over GF(q) (from one table, per
lcm(p, k)-bit period, of the labels agreeing with each value), and decode with
probability-domain belief propagation (flooding schedule, per-edge
normalization, no damping).

Check-node updates are convolutions over the additive group of GF(2^p),
computed as products in the Walsh-Hadamard domain after permuting each
incoming message by its edge coefficient; each transform is one matrix
product with the q x q Sylvester-Hadamard matrix.  Messages sit in
degree-class blocks, in check order for the check update and in variable
order for the variable update (see `_degree_layout`).  The decoder is
vectorized over a batch of frames, with per-frame early exit on a zero
syndrome; batching never changes any individual frame's result.

Work buffers are bounded by bytes, not by the batch.  The demapper builds
its distance and weight tables for one chunk of frames at a time, and the
decoder decodes a batch in chunks of the fewest frames whose messages
reach 4 MiB; every usable CPU pulls chunks from a shared queue until it is
empty.  A smaller working set also decodes faster per frame.  A chunk is
demapped and decoded exactly as the whole batch would be, so no frame's
result depends on the split.

Conventions fixed for reproducibility:
  * field symbols become bits most-significant-bit first, in codeword order;
  * a k-bit constellation label uses its first k/2 bits (MSB first) for the
    in-phase axis and the rest for quadrature, each axis reflected-Gray
    mapped onto the odd-integer amplitude grid;
  * Es/N0 is relative to the unit-energy constellation, so the complex
    noise variance is 10^(-snr_db/10).
"""

from __future__ import annotations

import functools
import math
import numbers
import os
import warnings
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .gf import GF
from .lifter import Lifting
from .linalg import gf_matmul, gf_rref

_PROB_FLOOR = 1e-30
# frame-chunk size, in bytes of decoder messages or of demapper distances
_CHUNK_BYTES = 4 << 20


# ----------------------------------------------------------------------
# modulation
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Modulation:
    name: str
    bits_per_symbol: int
    points: np.ndarray  # complex, indexed by the bit label, unit average energy


def _gray_decode(g: int) -> int:
    b = 0
    while g:
        b ^= g
        g >>= 1
    return b


def make_modulation(name: str) -> Modulation:
    """BPSK or a square Gray-mapped M-QAM for M in {4, 16, 64, 256}."""
    key = name.strip().lower()
    if key == "bpsk":
        points = np.array([1.0 + 0.0j, -1.0 + 0.0j])
        return Modulation("bpsk", 1, points)
    if key.endswith("qam"):
        try:
            order = int(key[:-3])
        except ValueError:
            raise ValueError(f"unknown modulation {name!r}") from None
        k = order.bit_length() - 1
        if order < 4 or (1 << k) != order or k % 2:
            raise ValueError(f"QAM order must be a power of 4, got {order}")
        side = 1 << (k // 2)
        scale = math.sqrt(2.0 * (order - 1) / 3.0)
        points = np.empty(order, dtype=complex)
        for label in range(order):
            gi = label >> (k // 2)
            gq = label & (side - 1)
            ai = 2 * _gray_decode(gi) - (side - 1)
            aq = 2 * _gray_decode(gq) - (side - 1)
            points[label] = (ai + 1j * aq) / scale
        return Modulation(f"{order}qam", k, points)
    raise ValueError(f"unknown modulation {name!r}")


def symbols_to_bits(symbols: np.ndarray, p: int) -> np.ndarray:
    """Field symbols to a flat bit array, MSB first within each symbol."""
    symbols = np.asarray(symbols, dtype=np.int64)
    shifts = np.arange(p - 1, -1, -1)
    return ((symbols[..., None] >> shifts) & 1).reshape(*symbols.shape[:-1], -1)


def bits_to_symbols(bits: np.ndarray, p: int) -> np.ndarray:
    bits = np.asarray(bits, dtype=np.int64)
    weights = 1 << np.arange(p - 1, -1, -1)
    return bits.reshape(*bits.shape[:-1], -1, p) @ weights


def modulate(codeword: np.ndarray, p: int, modulation: Modulation) -> np.ndarray:
    """Map a codeword (or batch) of GF(2^p) symbols to constellation points."""
    bits = symbols_to_bits(np.atleast_2d(codeword), p)
    k = modulation.bits_per_symbol
    if bits.shape[-1] % k:
        raise ValueError(
            f"{bits.shape[-1]} codeword bits not divisible by {k} bits/symbol"
        )
    labels = bits_to_symbols(bits, k)
    out = modulation.points[labels]
    return out[0] if np.asarray(codeword).ndim == 1 else out


def noise_sigma(snr_db: float) -> float:
    """Per-component standard deviation of the complex noise at Es/N0 = snr_db."""
    n0 = 10.0 ** (-snr_db / 10.0)
    return math.sqrt(n0 / 2.0)


def modulate_and_transmit(
    codeword: np.ndarray,
    p: int,
    modulation: Modulation,
    snr_db: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Modulate and add complex AWGN of variance 10^(-snr_db/10)."""
    tx = modulate(codeword, p, modulation)
    sigma = noise_sigma(snr_db)
    noise = rng.normal(scale=sigma, size=tx.shape) + 1j * rng.normal(
        scale=sigma, size=tx.shape
    )
    return tx + noise


# ----------------------------------------------------------------------
# demapping
# ----------------------------------------------------------------------
def observation_weights(
    received: np.ndarray, modulation: Modulation, snr_db: float
) -> np.ndarray:
    """Per-observation Gaussian likelihood of each constellation point.

    Rows are max-normalized (not summed to 1); only ratios matter
    downstream, and the normalization keeps very high SNR finite.
    """
    n0 = 10.0 ** (-snr_db / 10.0)
    d2 = np.abs(received[..., None] - modulation.points) ** 2
    d2 -= d2.min(axis=-1, keepdims=True)
    return np.exp(-d2 / max(n0, _PROB_FLOOR))


def symbol_likelihoods(
    received: np.ndarray,
    modulation: Modulation,
    snr_db: float,
    p: int,
    n_symbols: int,
) -> np.ndarray:
    """Per-field-symbol probability vectors over GF(2^p), rows summing to 1.

    A symbol's distribution is the product, over the observations sharing
    its bits, of each observation's marginal probability of the shared
    bits (its other bits summed out).  Symbols and k-bit observations line
    up again every lcm(p, k) bits, so the weights are viewed as (frames,
    periods, labels of one period) and `_demap_table` says, for each
    symbol of a period, which labels agree with each value.

    The weights are built for one chunk of frames at a time, the frames
    whose complex distances to the constellation fit in 4 MiB (at least
    one), and each chunk fills its rows of the output.
    """
    rx = np.atleast_2d(received)
    k = modulation.bits_per_symbol
    if n_symbols * p != rx.shape[1] * k:
        raise ValueError("received length inconsistent with symbol count")
    table = _demap_table(p, k)
    # a frame's distances: one complex128 per observation and constellation point
    size = max(1, _CHUNK_BYTES // (16 * rx.shape[1] * len(modulation.points)))
    probs = None
    for lo in range(0, len(rx), size):
        w = observation_weights(rx[lo : lo + size], modulation, snr_db)
        w = w.reshape(len(w), n_symbols // len(table), -1)
        if probs is None:  # after the first weights, so one chunk peaks as one batch did
            probs = np.empty((len(rx),) + w.shape[1:2] + (len(table), 1 << p))
        _demap_chunk(w, table, probs[lo : lo + size])
    probs = probs.reshape(len(rx), n_symbols, -1)
    probs += _PROB_FLOOR
    probs /= probs.sum(axis=2, keepdims=True)
    return probs if np.ndim(received) == 2 else probs[0]


def _demap_chunk(w: np.ndarray, table: list, probs: np.ndarray) -> None:
    """Fill (frames, periods, symbols, q) `probs` from (frames, periods, labels) `w`."""
    for s, entries in enumerate(table):
        for j, (labels, agree) in enumerate(entries):
            dest = None if j else probs[:, :, s]  # the first marginal lands in place
            if agree is None:  # one label per value
                marg = np.take(w, labels, axis=2, out=dest, mode="clip")
            else:  # sum the labels agreeing with each value
                marg = np.matmul(w[:, :, labels], agree, out=dest)
            if j:
                probs[:, :, s] *= marg


@functools.cache
def _demap_table(p: int, k: int) -> list[list[tuple]]:
    """Per symbol of an lcm(p, k)-bit period, a (labels, agree) pair for each
    observation sharing its bits, in order; label l of observation o is
    number o * 2^k + l.  If the symbol holds all k bits, agree is None and
    labels[val] is the one label agreeing with value val; otherwise labels
    slices out observation o and agree[l, val] is 1 where label l agrees
    with val on the shared bits.
    """
    value_bits = symbols_to_bits(np.arange(1 << p)[:, None], p)
    label_bits = symbols_to_bits(np.arange(1 << k)[:, None], k)
    table = []
    for s in range(math.lcm(p, k) // p):
        obs = np.arange(s * p, (s + 1) * p) // k
        table.append([])
        for o in np.unique(obs):
            t = np.nonzero(obs == o)[0]  # the shared bits of the symbol
            pos = (s * p + t) % k  # the same bits of the label
            agree = (label_bits[:, None, pos] == value_bits[None, :, t]).all(axis=2)
            if t.size == k:
                table[-1].append(((o << k) + agree.argmax(axis=0), None))
            else:
                table[-1].append((slice(o << k, (o + 1) << k), agree.astype(float)))
    return table


# ----------------------------------------------------------------------
# code instance and encoder
# ----------------------------------------------------------------------
class CodeInstance:
    """Expanded parity-check matrix with a systematic encoder.

    The encoder comes from the reduced row-echelon form of H: pivot
    columns carry parity symbols, the remaining columns carry information
    symbols, and row r of the RREF expresses pivot symbol r as the
    xor-product combination of the information symbols.
    """

    def __init__(self, field: GF, h: np.ndarray) -> None:
        h = np.array(h, dtype=np.int64)
        if h.ndim != 2 or h.size == 0:
            raise ValueError("parity-check matrix must be non-empty and 2-D")
        if h.min() < 0 or h.max() >= field.q:
            raise ValueError("matrix entries out of field range")
        self.field = field
        self.h = h
        self.n = h.shape[1]
        rref, pivots = gf_rref(field, h)
        self.rank = len(pivots)
        if self.rank < h.shape[0]:
            warnings.warn(
                f"parity-check matrix is rank-deficient: rank {self.rank} of "
                f"{h.shape[0]} rows; code dimension adjusted",
                stacklevel=2,
            )
        self.k = self.n - self.rank
        self.pivot_cols = np.array(pivots, dtype=np.int64)
        mask = np.ones(self.n, dtype=bool)
        mask[self.pivot_cols] = False
        self.info_cols = np.nonzero(mask)[0]
        self.parity_map = rref[: self.rank][:, self.info_cols]
        self._decoder: QspaDecoder | None = None

    @property
    def rate(self) -> float:
        return self.k / self.n

    def encode(self, info: np.ndarray) -> np.ndarray:
        """Systematic codeword for one info vector or a batch of them."""
        info = np.asarray(info, dtype=np.int64)
        single = info.ndim == 1
        u = np.atleast_2d(info)
        if u.shape[1] != self.k:
            raise ValueError(f"expected {self.k} information symbols, got {u.shape[1]}")
        out = np.zeros((u.shape[0], self.n), dtype=np.int64)
        out[:, self.info_cols] = u
        out[:, self.pivot_cols] = gf_matmul(self.field, u, self.parity_map.T)
        return out[0] if single else out

    def syndrome(self, word: np.ndarray) -> np.ndarray:
        return gf_matmul(self.field, self.h, np.asarray(word)[:, None])[:, 0]

    def decoder(self) -> "QspaDecoder":
        if self._decoder is None:
            self._decoder = QspaDecoder(self)
        return self._decoder


def build_code(lifting: Lifting) -> CodeInstance:
    """Expand a lifting and wrap it as a decodable, encodable code."""
    return CodeInstance(lifting.field, lifting.expand())


# ----------------------------------------------------------------------
# q-ary sum-product decoder
# ----------------------------------------------------------------------
def _degree_layout(owner: np.ndarray, other: np.ndarray, n_owners: int):
    """Degree-class edge order of checks or variables: (order, owners, classes).

    `owners` ranks the owners by (degree, index); an owner's edges take
    slots 0..d-1 by increasing `other`.  A class (edges, d, ranks) says
    that order[edges] is the slot-major (d, n) block of the edges of
    owners[ranks]: a (frames, d, n, q) view of messages in this order.
    """
    deg = np.bincount(owner, minlength=n_owners)
    by_owner = np.lexsort((other, owner))
    slot = np.empty_like(by_owner)
    slot[by_owner] = np.arange(owner.size) - np.repeat(np.cumsum(deg) - deg, deg)
    order = np.lexsort((owner, slot, deg[owner]))
    degrees, counts = np.unique(deg, return_counts=True)
    ends, firsts = np.cumsum(degrees * counts), np.cumsum(counts) - counts
    spans = zip(degrees.tolist(), counts.tolist(), ends.tolist(), firsts.tolist())
    classes = [(slice(e - d * c, e), d, slice(f, f + c)) for d, c, e, f in spans if d]
    return order, np.argsort(deg, kind="stable"), classes


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _leave_one_out(g: np.ndarray, out: np.ndarray) -> None:
    """out[:, k] = product of g[:, j] over j != k, for (f, d, n, q) blocks.

    A prefix scan g0*g1*... fills `out`, then a running suffix
    g[d-1]*g[d-2]*... multiplies into it; a swap when d = 2.
    """
    d = g.shape[1]
    if d == 2:
        out[:, 0], out[:, 1] = g[:, 1], g[:, 0]
        return
    out[:, 0] = 1.0
    for k in range(1, d):
        np.multiply(out[:, k - 1], g[:, k - 1], out=out[:, k])
    suffix = g[:, d - 1].copy()
    for k in range(d - 2, -1, -1):
        out[:, k] *= suffix
        if k:
            suffix *= g[:, k]


class QspaDecoder:
    """Probability-domain belief propagation over GF(2^p), batched over frames."""

    def __init__(self, code: CodeInstance) -> None:
        # no back-reference to `code`: code.decoder() caches this object, and a
        # cycle would keep the dense H and its RREF alive until a cyclic GC pass
        field = self.field = code.field
        q = self.q = field.q
        h = code.h
        self.n_checks, self.n_vars = h.shape
        checks, vars_ = np.nonzero(h)  # edges grouped by check, for the syndrome
        self.n_edges = checks.size
        self.edge_var, self.edge_coeff = vars_, h[checks, vars_]
        self.check_starts = np.flatnonzero(np.diff(checks, prepend=-1))

        c_order, _, self.check_classes = _degree_layout(checks, vars_, self.n_checks)
        v_order, self.var_order, self.var_classes = _degree_layout(vars_, checks, self.n_vars)
        self.var_pos = np.argsort(self.var_order)
        # variable-order edges read the prior of their variable's rank
        self.edge_vrank = self.var_pos[vars_[v_order]]

        # check->variable: message about x recovered from t = coeff * x;
        # variable->check: message about t = coeff * x, the inverse permutation
        perm_cv = field.mul_table[self.edge_coeff[:, None], np.arange(q)]
        perm_vc = np.argsort(perm_cv, axis=1)
        # flat (edge * q + symbol) gathers between the two orders
        v_pos, c_pos = np.argsort(v_order), np.argsort(c_order)
        self.gather_vc = (v_pos[c_order, None] * q + perm_vc[c_order]).ravel()
        self.gather_cv = (c_pos[v_order, None] * q + perm_cv[v_order]).ravel()

        # Sylvester-Hadamard matrix H[i, j] = (-1)^popcount(i & j): the WHT is x @ H
        self.hadamard = np.ones((1, 1))
        for _ in range(field.p):
            self.hadamard = np.kron(self.hadamard, [[1.0, 1.0], [1.0, -1.0]])
        self.hadamard_inv = self.hadamard / q

    def _normalize_edges(self, msgs: np.ndarray) -> np.ndarray:
        """Floor and normalize each edge's message, in place."""
        np.maximum(msgs, 0.0, out=msgs)
        msgs += _PROB_FLOOR
        msgs /= msgs.sum(axis=2, keepdims=True)
        return msgs

    def _converged(self, hard: np.ndarray) -> np.ndarray:
        contrib = self.field.mul_table[self.edge_coeff[None, :], hard[:, self.edge_var]]
        synd = np.bitwise_xor.reduceat(contrib, self.check_starts, axis=1)
        return ~synd.any(axis=1)

    @property
    def chunk_frames(self) -> int:
        """Frames per decoding chunk: the fewest whose float64 messages reach 4 MiB."""
        return max(1, -(-_CHUNK_BYTES // max(self.n_edges * self.q * 8, 1)))

    def decode_batch(
        self, priors: np.ndarray, max_iter: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Decode a (frames, n, q) prior batch.

        Returns (words, converged, iterations).  A frame's output freezes
        at its first zero-syndrome hard decision; iteration counts say
        when that happened (0 = the channel decision already satisfied
        every check).

        Frames are decoded in chunks of the fewest frames whose (edges, q)
        message arrays reach 4 MiB (one frame if a frame alone does), so the
        work buffers are bounded by bytes, not by the batch.  A batch of one
        chunk is decoded directly.  Otherwise W = min(usable CPUs, chunks)
        workers, the caller and W - 1 pool threads, take chunk starts from
        a shared queue until it is empty, each writing a chunk's outputs at
        its rows; after an error the others stop at their next chunk, and
        the error reaches the caller.  A chunk decodes exactly as the whole
        batch would, so no frame's result depends on the split.
        """
        priors = np.asarray(priors, dtype=float)
        if priors.ndim == 2:
            priors = priors[None]
        if priors.shape[1] != self.n_vars or priors.shape[2] != self.q:
            raise ValueError("prior shape does not match the code")

        frames, size = priors.shape[0], self.chunk_frames
        if frames <= size:
            return self._decode(priors, max_iter)
        # imported here: the pool modules cost 0.6 MB that small batches never use
        import queue
        import threading
        from concurrent.futures import ThreadPoolExecutor

        starts = range(0, frames, size)
        todo, failed = queue.SimpleQueue(), threading.Event()
        for lo in starts:
            todo.put(lo)
        outs = (
            np.empty((frames, self.n_vars), dtype=np.intp),
            np.empty(frames, dtype=bool),
            np.empty(frames, dtype=np.int64),
        )

        def work() -> None:
            try:
                while not failed.is_set():
                    lo = todo.get_nowait()
                    for out, part in zip(outs, self._decode(priors[lo : lo + size], max_iter)):
                        out[lo : lo + size] = part
            except queue.Empty:
                pass
            except BaseException:
                failed.set()
                raise

        w = min(_usable_cpus(), len(starts))
        if w == 1:
            work()
            return outs
        with ThreadPoolExecutor(max_workers=w - 1) as pool:
            rest = [pool.submit(work) for _ in range(w - 1)]
            work()
        for r in rest:
            r.result()
        return outs

    def _decode(
        self, priors: np.ndarray, max_iter: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """`decode_batch` on one thread, for a validated (frames, n, q) batch."""
        words = priors.argmax(axis=2)
        converged = self._converged(words)
        iterations = np.where(converged, 0, max_iter)
        if converged.all() or max_iter == 0 or self.n_edges == 0:
            return words, converged, iterations

        # iterate only the `a` still-active frames, whose messages, priors and
        # posteriors fill the first rows of their buffers; priors and posteriors
        # are kept in var_order
        q = self.q
        active = np.flatnonzero(~converged)
        a = active.size
        priors_a = priors[active][:, self.var_order]
        post = priors_a.copy()  # a variable without edges keeps its prior
        buf = np.empty((2, a, self.n_edges, q))
        np.take(priors_a, self.edge_vrank, axis=1, out=buf[1], mode="clip")
        v2c = self._normalize_edges(buf[1])

        for it in range(1, max_iter + 1):
            t, u = buf[0, :a], buf[1, :a]
            # check-node update in the transform domain
            np.take(v2c.reshape(a, -1), self.gather_vc, axis=1, out=t.reshape(a, -1), mode="clip")
            np.matmul(t.reshape(-1, q), self.hadamard, out=u.reshape(-1, q))
            for edges, d, _ in self.check_classes:
                _leave_one_out(u[:, edges].reshape(a, d, -1, q), t[:, edges].reshape(a, d, -1, q))
            np.matmul(t.reshape(-1, q), self.hadamard_inv, out=u.reshape(-1, q))
            np.take(u.reshape(a, -1), self.gather_cv, axis=1, out=t.reshape(a, -1), mode="clip")
            c2v = self._normalize_edges(t)

            # variable-node update and posterior
            for edges, d, owners in self.var_classes:
                g = c2v[:, edges].reshape(a, d, -1, q)
                loo = u[:, edges].reshape(a, d, -1, q)
                _leave_one_out(g, loo)
                np.multiply(loo[:, -1], g[:, -1], out=post[:a, owners])
                post[:a, owners] *= priors_a[:a, owners]
                loo *= priors_a[:a, None, owners]
            v2c = self._normalize_edges(u)

            hard = post[:a].argmax(axis=2)[:, self.var_pos]
            ok = self._converged(hard)
            words[active] = hard
            iterations[active[ok]] = it
            converged[active[ok]] = True
            if ok.all():
                break
            if ok.any():
                # move the still-active frames to the front, in place
                keep = np.flatnonzero(~ok)
                for i, j in enumerate(keep.tolist()):
                    if i != j:
                        for arr in (v2c, priors_a, post):
                            arr[i] = arr[j]
                active, a = active[keep], keep.size
                v2c = v2c[:a]

        return words, converged, iterations


def qspa_decode(
    code: CodeInstance, likelihoods: np.ndarray, max_iter: int
) -> tuple[np.ndarray, bool, int]:
    """Decode one frame of per-symbol probability vectors."""
    words, converged, iters = code.decoder().decode_batch(
        np.asarray(likelihoods)[None], max_iter
    )
    return words[0], bool(converged[0]), int(iters[0])


# ----------------------------------------------------------------------
# Monte-Carlo driver
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SimConfig:
    """Settings of a Monte-Carlo run, checked on construction.

    Counts are Python or numpy integers, not bools; `max_errors` defaults
    to `max_frames`, and the seed is non-negative.  Each error names the
    field at fault.
    """

    modulation: str
    snr_db: tuple[float, ...]
    max_frames: int
    max_errors: int | None = None
    decoder_max_iterations: int = 30
    rng_seed: int = 0

    def __post_init__(self) -> None:
        if not isinstance(self.modulation, str):
            raise ValueError(f"modulation must be a string, got {self.modulation!r}")
        make_modulation(self.modulation)
        not_finite = "snr_db must be a list of finite numbers"
        if isinstance(self.snr_db, str) or not isinstance(self.snr_db, Iterable):
            raise ValueError(not_finite)
        snr = tuple(self.snr_db)
        for v in snr:
            if not isinstance(v, numbers.Real) or isinstance(v, bool) or not math.isfinite(v):
                raise ValueError(not_finite)
        if not snr:
            raise ValueError("snr_db needs at least one SNR point")
        object.__setattr__(self, "snr_db", tuple(float(v) for v in snr))
        if self.max_errors is None:
            object.__setattr__(self, "max_errors", self.max_frames)
        for name, low in (
            ("max_frames", 1),
            ("max_errors", 1),
            ("decoder_max_iterations", 0),
            ("rng_seed", 0),
        ):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral) or isinstance(value, bool) or value < low:
                raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")
            object.__setattr__(self, name, int(value))


@dataclass(frozen=True)
class SnrPoint:
    snr_db: float
    frames: int
    errors: int
    avg_iterations: float

    @property
    def bler(self) -> float:
        return self.errors / self.frames

    @property
    def confidence_interval(self) -> tuple[float, float]:
        return wilson_interval(self.errors, self.frames)


@dataclass(frozen=True)
class SimResult:
    points: tuple[SnrPoint, ...]

    def to_text(self) -> str:
        lines = ["# snr_db frames errors bler ci95_low ci95_high avg_iterations"]
        for pt in self.points:
            lo, hi = pt.confidence_interval
            lines.append(
                f"{pt.snr_db:g} {pt.frames} {pt.errors} {pt.bler:.6e} "
                f"{lo:.6e} {hi:.6e} {pt.avg_iterations:.3f}"
            )
        return "\n".join(lines) + "\n"


def wilson_interval(errors: int, n: int, z: float = 1.959964) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion."""
    if n == 0:
        return 0.0, 1.0
    phat = errors / n
    denom = 1.0 + z * z / n
    center = (phat + z * z / (2 * n)) / denom
    half = (z / denom) * math.sqrt(phat * (1 - phat) / n + z * z / (4 * n * n))
    return max(0.0, center - half), min(1.0, center + half)


def run_monte_carlo(
    code: CodeInstance, cfg: SimConfig, batch_size: int = 64
) -> SimResult:
    """Frame-error simulation over the configured SNR points.

    Each point decodes frames until `max_frames` frames, or until the
    frame that brings its errors to `max_errors`.  Every frame draws its
    information symbols and its noise from a generator seeded by
    (rng_seed, global frame index), and the index advances only over
    counted frames, so results are exactly the same at every batch size
    and across runs with one seed.  A batch may decode frames past the
    stopping one; they are dropped uncounted.
    """
    if batch_size < 1:
        raise ValueError(f"batch_size must be at least 1, got {batch_size}")
    modulation = make_modulation(cfg.modulation)
    decoder = code.decoder()
    p = code.field.p
    if (code.n * p) % modulation.bits_per_symbol:
        raise ValueError(
            f"codeword bit length {code.n * p} is not a multiple of "
            f"{modulation.bits_per_symbol} bits per channel symbol"
        )
    n_obs = code.n * p // modulation.bits_per_symbol
    frame_counter = 0
    points = []
    for snr_db in cfg.snr_db:
        frames = errors = 0
        iter_sum = 0
        while frames < cfg.max_frames and errors < cfg.max_errors:
            b = min(batch_size, cfg.max_frames - frames)
            info = np.zeros((b, code.k), dtype=np.int64)
            noise = np.zeros((b, n_obs), dtype=complex)
            sigma = noise_sigma(snr_db)
            for t in range(b):
                rng = np.random.default_rng([cfg.rng_seed, frame_counter + t])
                info[t] = rng.integers(0, code.field.q, size=code.k)
                noise[t] = rng.normal(scale=sigma, size=n_obs) + 1j * rng.normal(
                    scale=sigma, size=n_obs
                )
            tx_words = code.encode(info)
            rx = modulate(tx_words, p, modulation) + noise
            priors = symbol_likelihoods(rx, modulation, snr_db, p, code.n)
            decoded, _, iters = decoder.decode_batch(priors, cfg.decoder_max_iterations)
            failed = np.cumsum((decoded != tx_words).any(axis=1))
            # count frames up to and including the one that reaches max_errors
            used = min(b, int(np.searchsorted(failed, cfg.max_errors - errors)) + 1)
            errors += int(failed[used - 1])
            frames += used
            frame_counter += used
            iter_sum += int(iters[:used].sum())
        points.append(
            SnrPoint(
                snr_db=snr_db,
                frames=frames,
                errors=errors,
                avg_iterations=iter_sum / frames,
            )
        )
    return SimResult(tuple(points))
