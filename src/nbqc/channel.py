"""AWGN / QAM Monte-Carlo verification with a q-ary sum-product decoder.

The pipeline mirrors a conventional link simulation: expand a lifting to
its scalar parity-check matrix, derive a systematic encoder by Gaussian
elimination, map codeword symbols to Gray-labelled constellation points
of unit average energy, add complex Gaussian noise at a configured Es/N0,
demap to per-symbol probability vectors over GF(q) (from one table, per
lcm(p, k)-bit period, of the labels agreeing with each value), and decode with
probability-domain belief propagation (flooding schedule, no damping).  A
variable-to-check message gets a floor added and is scaled to sum 1; a
check-to-variable message already sums to 1 and is only clamped at the floor.

The code keeps H only as its edge list; the dense matrix exists while
it is eliminated, and on demand.  The encoder keeps the elimination's
row transform T (T·H is the reduced row-echelon form), not the reduced
matrix.  A frame x holding the information symbols and zeros at the
pivot columns gets its parity symbols as T[:rank]·(H·x): the sparse
product H·x over the edge list, then a rank x m dense product.  The same
sparse H·x gives `syndrome` and the decoder's convergence test.

Check-node updates are convolutions over the additive group of GF(2^p),
computed as products in the Walsh-Hadamard domain after permuting each
incoming message by its edge coefficient; each transform is one matrix
product with the q x q Sylvester-Hadamard matrix.  Messages sit in
degree-class blocks, in check order for the check update and in variable
order for the variable update (see `_degree_layout`).  A decoding
worker holds the two (edges x q) message arrays and one prior array of
its chunk; each variable's posterior forms in place among the
check-to-variable messages.  The decoder is vectorized over a batch of
frames, with per-frame early exit on a zero syndrome; batching never
changes any individual frame's result.

The decoder's frame chunks are the only thread pool (`_each_chunk`):
every usable CPU pulls chunks from a shared queue until it is empty.  A
chunk holds at most the fewest frames whose messages reach 4 MiB (a
smaller working set also decodes faster per frame) and at most
ceil(frames / usable CPUs), so every CPU gets a share of even a small
batch.  The decoder reads a frame sequence, whose slice lo:hi is those
frames' prior array, and each chunk reads its slice on the worker that
decodes it.  The Monte-Carlo driver's sequence demaps a slice when it
is read, so each chunk demaps its own frames on the worker that decodes
them and a batch's priors are never held at once.
The demapper works in blocks of the frames that have 16 bytes per
observation and constellation point within the same 4 MiB, one after
another on the thread that calls it.  A chunk or block is demapped and
decoded exactly as the whole batch would be, so no frame's result
depends on the split.

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
import threading
import warnings
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass

import numpy as np

from .gf import GF
from .lifter import Lifting, check_int
from .linalg import gf_matmul, gf_rref, gf_sparse_matmul

_PROB_FLOOR = 1e-30
_BATCH_FRAMES = 64  # most frames per Monte-Carlo batch; results do not depend on it
# bytes of decoder messages per frame chunk, or of demapper distances per block
_CHUNK_BYTES = 4 << 20


# ----------------------------------------------------------------------
# modulation
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Modulation:
    """A square constellation: label gi·len(q_levels) + gq is i_levels[gi] + 1j·q_levels[gq]."""

    name: str
    bits_per_symbol: int
    i_levels: np.ndarray  # in-phase amplitude of each in-phase label
    q_levels: np.ndarray  # quadrature amplitude of each quadrature label; [0.0] for BPSK

    @functools.cached_property
    def points(self) -> np.ndarray:
        """Complex points indexed by the bit label, of unit average energy."""
        return (self.i_levels[:, None] + 1j * self.q_levels).ravel()


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
        return Modulation("bpsk", 1, np.array([1.0, -1.0]), np.zeros(1))
    if key.endswith("qam"):
        try:
            order = int(key[:-3])
        except ValueError:
            raise ValueError(f"unknown modulation {name!r}") from None
        k = order.bit_length() - 1
        if not 4 <= order <= 256 or (1 << k) != order or k % 2:
            raise ValueError(f"QAM order must be a power of 4 from 4 to 256, got {order}")
        side = 1 << (k // 2)
        scale = math.sqrt(2.0 * (order - 1) / 3.0)
        levels = np.array([2 * _gray_decode(g) - (side - 1) for g in range(side)]) / scale
        return Modulation(f"{order}qam", k, levels, levels)
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


def _noise_variance(snr_db: float) -> float:
    """The complex noise variance 10^(-snr_db/10); a ValueError if it overflows a float."""
    try:
        return 10.0 ** (-float(snr_db) / 10.0)
    except OverflowError:
        raise ValueError(f"snr_db {snr_db:g} overflows the noise variance") from None


def noise_sigma(snr_db: float) -> float:
    """Per-component standard deviation of the complex noise at Es/N0 = snr_db."""
    return math.sqrt(_noise_variance(snr_db) / 2.0)


# ----------------------------------------------------------------------
# frame chunks
# ----------------------------------------------------------------------
def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _chunk_size(frames: int, fit: int, cpus: int) -> int:
    """Frames per chunk: at most `fit` and ceil(frames / cpus), at least one."""
    return max(1, min(fit, -(-frames // cpus)))


def _each_chunk(frames: int, fit: int, work: Callable[[int, int], None]) -> None:
    """Call work(lo, hi) once for each chunk [lo, hi) of a batch of frames.

    Chunks hold `_chunk_size(frames, fit, usable CPUs)` frames (the last
    one the rest).  W = min(usable CPUs, chunks) workers, the caller and
    W - 1 pool threads, take chunks from a shared queue until it is
    empty; with one worker the caller works alone and no thread starts.
    After an error the others stop at their next chunk, the error reaches
    the caller, and no pool thread outlives the call.
    """
    cpus = _usable_cpus()
    size = _chunk_size(frames, fit, cpus)
    chunks = [(lo, min(lo + size, frames)) for lo in range(0, frames, size)]
    w = min(cpus, len(chunks))
    if w <= 1:
        for lo, hi in chunks:
            work(lo, hi)
        return
    # imported here: the pool modules cost 0.6 MB that a one-worker batch never uses
    import queue
    from concurrent.futures import ThreadPoolExecutor

    todo, failed = queue.SimpleQueue(), threading.Event()
    for chunk in chunks:
        todo.put(chunk)

    def pull() -> None:
        try:
            while not failed.is_set():
                work(*todo.get_nowait())
        except queue.Empty:
            pass
        except BaseException:
            failed.set()
            raise

    # the caller works too, not a w-thread pool.map: one thread and malloc arena fewer
    with ThreadPoolExecutor(max_workers=w - 1) as pool:
        rest = [pool.submit(pull) for _ in range(w - 1)]
        pull()
    for r in rest:
        r.result()


# ----------------------------------------------------------------------
# demapping
# ----------------------------------------------------------------------
def observation_weights(
    received: np.ndarray, modulation: Modulation, snr_db: float
) -> np.ndarray:
    """Per-observation Gaussian likelihood of each constellation point.

    Rows are max-normalized (not summed to 1); only ratios matter
    downstream, and the normalization keeps very high SNR finite.  A
    point's weight is the product of its in-phase and its quadrature
    weight, each taken from the squared distances to that axis's levels,
    less their smallest; BPSK's one quadrature level has weight 1.
    """
    n0 = max(_noise_variance(snr_db), _PROB_FLOOR)
    wi = _axis_weights(received.real, modulation.i_levels, n0)
    grid = np.empty((*received.shape, modulation.i_levels.size, modulation.q_levels.size))
    if modulation.q_levels.size == 1:
        grid[..., 0] = np.moveaxis(wi, 0, -1)
    else:
        wq = _axis_weights(received.imag, modulation.q_levels, n0)
        np.einsum("i...,j...->...ij", wi, wq, out=grid)
    return grid.reshape(*received.shape, -1)


def _axis_weights(x: np.ndarray, levels: np.ndarray, n0: float) -> np.ndarray:
    """exp(-(d2 - min d2) / n0) of the squared distances d2 from x to each level.

    The levels lead, (levels, *x.shape), so the minimum is an element-wise
    one over a few rows, not a reduction over a short last axis.
    """
    d2 = np.subtract.outer(levels, x)
    np.square(d2, out=d2)
    d2 -= d2.min(axis=0)
    np.divide(d2, -n0, out=d2)
    return np.exp(d2, out=d2)


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

    The frames are demapped one block after another on the calling
    thread.  A block holds the frames that have 16 bytes per observation
    and constellation point within 4 MiB (their float64 weights take 8),
    and at least one frame; it writes its rows of the output.
    """
    rx = np.atleast_2d(received)
    k = modulation.bits_per_symbol
    if n_symbols * p != rx.shape[1] * k:
        raise ValueError("received length inconsistent with symbol count")
    table = _demap_table(p, k)
    frames, q = len(rx), 1 << p
    probs = np.empty((frames, n_symbols // len(table), len(table), q))

    fit = max(1, _CHUNK_BYTES // (16 * rx.shape[1] * len(modulation.points)))
    for lo in range(0, frames, fit):
        hi = min(lo + fit, frames)
        w = observation_weights(rx[lo:hi], modulation, snr_db)
        _demap_chunk(w.reshape(hi - lo, probs.shape[1], -1), table, probs[lo:hi])
        out = probs[lo:hi].reshape(hi - lo, n_symbols, q)
        out += _PROB_FLOOR
        out /= out.sum(axis=2, keepdims=True)
    probs = probs.reshape(frames, n_symbols, q)
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

    H is kept once, as its edge list grouped by check (`edge_check`,
    `edge_var`, `edge_coeff`) and its `shape`, which `syndrome`, the
    encoder and the decoder read; `h` rebuilds the dense matrix, in the
    dtype of the field's table, on each read.  Elimination gives the
    row transform T for which T·H is in reduced row-echelon form: pivot
    columns carry parity symbols and the other columns information
    symbols.  Row r of T·H says that pivot symbol r is the sum of the
    information symbols times that row's entries, so with x the frame
    holding the information symbols and zeros at the pivots, the parity
    symbols are `parity_transform`·(H·x), where `parity_transform` is
    T[:rank] and H·x is sparse.
    """

    def __init__(self, field: GF, h: np.ndarray) -> None:
        h = np.asarray(h)
        if h.ndim != 2 or h.size == 0:
            raise ValueError("parity-check matrix must be non-empty and 2-D")
        if h.min() < 0 or h.max() >= field.q:
            raise ValueError("matrix entries out of field range")
        h = h.astype(field.mul_table.dtype, copy=False)
        self.field = field
        self.shape = h.shape
        self.n = h.shape[1]
        self.edge_check, self.edge_var = np.nonzero(h)
        self.edge_coeff = h[self.edge_check, self.edge_var]
        transform, pivots = gf_rref(field, h)
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
        self.parity_transform = transform[: self.rank]
        self._decoder: QspaDecoder | None = None

    @property
    def h(self) -> np.ndarray:
        """The dense parity-check matrix, rebuilt from the edge list."""
        h = np.zeros(self.shape, dtype=self.field.mul_table.dtype)
        h[self.edge_check, self.edge_var] = self.edge_coeff
        return h

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
        # x = out, zeros at the pivots: parity = T[:rank]·(H·x)
        out[:, self.pivot_cols] = gf_matmul(self.field, self.syndrome(out), self.parity_transform.T)
        return out[0] if single else out

    def syndrome(self, word: np.ndarray) -> np.ndarray:
        """H·word over GF(q), for one word or for each row of a batch."""
        edges = self.edge_var, self.edge_check, self.edge_coeff  # H^T's nonzeros
        return gf_sparse_matmul(self.field, np.asarray(word), *edges, self.shape[0])

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


def _leave_one_out(g: np.ndarray, out: np.ndarray) -> None:
    """out[:, k] = product of g[:, j] over j != k, for (f, d, n, q) blocks.

    A prefix scan g0*g1*... fills `out`, then a running suffix
    g[d-1]*g[d-2]*... multiplies into it.
    """
    d = g.shape[1]
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
        # cycle would keep H and its row transform alive until a cyclic GC pass
        field = self.field = code.field
        q = self.q = field.q
        self.n_checks, self.n_vars = code.shape
        checks, vars_, coeffs = code.edge_check, code.edge_var, code.edge_coeff
        self.n_edges = checks.size
        self.edges = vars_, checks, coeffs  # H^T's nonzeros, for H·x

        c_order, _, self.check_classes = _degree_layout(checks, vars_, self.n_checks)
        v_order, self.var_order, self.var_classes = _degree_layout(vars_, checks, self.n_vars)
        self.var_pos = np.argsort(self.var_order)
        # variable-order edges read the prior of their variable's rank
        self.edge_vrank = self.var_pos[vars_[v_order]]

        # check->variable: message about x recovered from t = coeff * x, the
        # table row of coeff; variable->check: message about t = coeff * x,
        # the table row of coeff's inverse
        mul = field.mul_table
        inverse = field.exp_table[q - 1 - field.log_table[coeffs]]
        # flat (edge * q + symbol) gathers between the two orders: an int64
        # offset per edge plus its int16 table row
        v_pos, c_pos = np.argsort(v_order), np.argsort(c_order)
        self.gather_vc = np.add((v_pos[c_order] * q)[:, None], mul[inverse[c_order]]).ravel()
        self.gather_cv = np.add((c_pos[v_order] * q)[:, None], mul[coeffs[v_order]]).ravel()

        # Sylvester-Hadamard matrix H[i, j] = (-1)^popcount(i & j): the WHT is x @ H
        self.hadamard = np.ones((1, 1))
        for _ in range(field.p):
            self.hadamard = np.kron(self.hadamard, [[1.0, 1.0], [1.0, -1.0]])
        self.hadamard_inv = self.hadamard / q

    @staticmethod
    def _normalize_edges(msgs: np.ndarray) -> np.ndarray:
        """Add the floor to each variable-to-check message and scale it to sum 1, in place.

        The floor keeps a high-degree variable's product from underflowing to all zeros.
        """
        msgs += _PROB_FLOOR
        msgs /= msgs.sum(axis=2, keepdims=True)
        return msgs

    @staticmethod
    def _clamp_edges(msgs: np.ndarray) -> np.ndarray:
        """Raise each check-to-variable message entry to at least the floor, in place.

        No sum and divide: a leave-one-out product's 0th Hadamard coefficient
        is the product of the incoming messages' sums, each 1, so the message
        already sums to 1 up to rounding.
        """
        return np.maximum(msgs, _PROB_FLOOR, out=msgs)

    def _converged(self, hard: np.ndarray) -> np.ndarray:
        return ~gf_sparse_matmul(self.field, hard, *self.edges, self.n_checks).any(axis=1)

    @property
    def chunk_frames(self) -> int:
        """Most frames per decoding chunk: the fewest whose float64 messages reach 4 MiB."""
        return max(1, -(-_CHUNK_BYTES // max(self.n_edges * self.q * 8, 1)))

    def decode_batch(
        self, priors: Sequence[np.ndarray], max_iter: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Decode a sequence of frames: `len(priors)` frames, of which
        priors[lo:hi] is the (hi - lo, n, q) prior array, as a numpy
        batch of shape (frames, n, q) is.

        Returns (words, converged, iterations).  A frame's output freezes
        at its first zero-syndrome hard decision; iteration counts say
        when that happened (0 = the channel decision already satisfied
        every check).  `max_iter` is a non-negative integer.

        Frames are decoded in chunks (see `_each_chunk`) of at most
        `chunk_frames`, so the work buffers are bounded by bytes, not by
        the batch, and every usable CPU gets a share; each chunk writes
        its outputs at its rows.  Each chunk reads its slice on the worker
        that decodes it, so a sequence that makes its slices when read has
        only the chunks being decoded in memory.  A slice of the wrong
        shape raises a ValueError.  A chunk decodes exactly as the whole
        batch would, so no frame's result depends on the split.
        """
        max_iter = check_int("max_iter", max_iter, 0)
        frames = len(priors)
        outs = (
            np.empty((frames, self.n_vars), dtype=np.intp),
            np.empty(frames, dtype=bool),
            np.empty(frames, dtype=np.int64),
        )

        def chunk_priors(lo: int, hi: int) -> np.ndarray:
            chunk = np.asarray(priors[lo:hi], dtype=float)
            if chunk.shape != (hi - lo, self.n_vars, self.q):
                raise ValueError("prior shape does not match the code")
            return chunk

        def work(lo: int, hi: int) -> None:
            # no local name holds the chunk's priors, so `_decode` can free them early
            for out, part in zip(outs, self._decode(chunk_priors(lo, hi), max_iter)):
                out[lo:hi] = part

        _each_chunk(frames, self.chunk_frames, work)
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
        # hard decisions fill the first rows of their buffers; priors and hard
        # decisions are kept in var_order
        q, n = self.q, self.n_vars
        active = np.flatnonzero(~converged)
        a = active.size
        rows = (active[:, None] * n + self.var_order).ravel()
        priors_a = np.take(priors.reshape(-1, q), rows, axis=0).reshape(a, n, q)
        # free priors made for this chunk before the messages are allocated: a worker's
        # heap then stays under malloc's trim threshold (N=192: 2 MB fewer page faults a chunk)
        del priors
        # a variable without edges keeps its channel decision
        hard_r = words.take(rows).reshape(a, n)
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
            c2v = self._clamp_edges(t)

            # variable-node update; each posterior forms in slot 0 of its class in c2v
            for edges, d, owners in self.var_classes:
                g = c2v[:, edges].reshape(a, d, -1, q)
                loo = u[:, edges].reshape(a, d, -1, q)
                prior = priors_a[:a, owners]
                if d == 2:  # each slot gets the other's message times the prior
                    np.multiply(g[:, ::-1], prior[:, None], out=loo)
                    g[:, 0] *= g[:, 1]
                else:
                    _leave_one_out(g, loo)
                    np.multiply(loo[:, -1], g[:, -1], out=g[:, 0])
                    loo *= prior[:, None]
                g[:, 0] *= prior
                g[:, 0].argmax(axis=2, out=hard_r[:a, owners])
            v2c = self._normalize_edges(u)

            hard = hard_r[:a, self.var_pos]
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
                        for arr in (v2c, priors_a, hard_r):
                            arr[i] = arr[j]
                active, a = active[keep], keep.size
                v2c = v2c[:a]

        return words, converged, iterations


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
            _noise_variance(v)
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
            object.__setattr__(self, name, check_int(name, getattr(self, name), low))


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


def wilson_interval(errors: int, n: int) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion.

    The bounds are exactly 0 at 0 errors and 1 at n errors, where the
    formula cancels but rounding would leave a remainder.
    """
    if n == 0:
        return 0.0, 1.0
    phat = errors / n
    z = 1.959964  # the standard normal's 97.5% quantile
    denom = 1.0 + z * z / n
    center = (phat + z * z / (2 * n)) / denom
    half = (z / denom) * math.sqrt(phat * (1 - phat) / n + z * z / (4 * n * n))
    lo = 0.0 if errors == 0 else max(0.0, center - half)
    hi = 1.0 if errors == n else min(1.0, center + half)
    return lo, hi


class _Demapped:
    """The priors of received frames, demapped when read: self[lo:hi] is
    symbol_likelihoods(rx[lo:hi], *args)."""

    def __init__(self, rx: np.ndarray, *args) -> None:
        self.rx, self.args = rx, args

    def __len__(self) -> int:
        return len(self.rx)

    def __getitem__(self, frames: slice) -> np.ndarray:
        # looked up at each call, so a wrapper set on the module sees every demap
        return symbol_likelihoods(self.rx[frames], *self.args)


def run_monte_carlo(code: CodeInstance, cfg: SimConfig) -> SimResult:
    """Frame-error simulation over the configured SNR points.

    Each point decodes frames until `max_frames` frames, or until the
    frame that brings its errors to `max_errors`.  Frame t of every point
    draws its information symbols and its noise from a generator seeded by
    (rng_seed, t), so a point's results depend on its own SNR and budget
    alone, and are exactly the same at every batch size and across runs
    with one seed.

    A batch is at most _BATCH_FRAMES frames and the frames left, and at
    most the frames the point's error rate so far needs to reach
    `max_errors`: ceil((max_errors - errors) * frames / errors), with a
    point that has no errors yet counted as if it had one (and at least
    one frame).  Frames past the stopping one are dropped uncounted, so a
    shorter batch only saves decoding.
    """
    modulation = make_modulation(cfg.modulation)
    decoder = code.decoder()
    p = code.field.p
    if (code.n * p) % modulation.bits_per_symbol:
        raise ValueError(
            f"codeword bit length {code.n * p} is not a multiple of "
            f"{modulation.bits_per_symbol} bits per channel symbol"
        )
    n_obs = code.n * p // modulation.bits_per_symbol
    points = []
    for snr_db in cfg.snr_db:
        frames = errors = 0
        iter_sum = 0
        while frames < cfg.max_frames and errors < cfg.max_errors:
            needed = -(-(cfg.max_errors - errors) * max(frames, 1) // max(errors, 1))
            b = min(_BATCH_FRAMES, cfg.max_frames - frames, needed)
            info = np.zeros((b, code.k), dtype=np.int64)
            noise = np.empty((b, n_obs), dtype=complex)
            sigma = noise_sigma(snr_db)
            for t in range(b):
                rng = np.random.default_rng([cfg.rng_seed, frames + t])
                info[t] = rng.integers(0, code.field.q, size=code.k)
                noise[t].real, noise[t].imag = rng.normal(scale=sigma, size=(2, n_obs))
            tx_words = code.encode(info)
            rx = modulate(tx_words, p, modulation) + noise
            # each decoding chunk demaps its own frames: the batch's priors never exist at once
            priors = _Demapped(rx, modulation, snr_db, p, code.n)
            decoded, _, iters = decoder.decode_batch(priors, cfg.decoder_max_iterations)
            failed = np.cumsum((decoded != tx_words).any(axis=1))
            # count frames up to and including the one that reaches max_errors
            used = min(b, int(np.searchsorted(failed, cfg.max_errors - errors)) + 1)
            errors += int(failed[used - 1])
            frames += used
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
