"""AWGN / QAM Monte-Carlo verification with a q-ary sum-product decoder.

The pipeline mirrors a conventional link simulation: expand a lifting to
its scalar parity-check matrix, derive a systematic encoder by Gaussian
elimination, map codeword symbols to Gray-labelled constellation points
of unit average energy, add complex Gaussian noise at a configured Es/N0,
demap to per-symbol probability vectors over GF(q), and decode with
probability-domain belief propagation (flooding schedule, per-edge
normalization, no damping).

Check-node updates are convolutions over the additive group of GF(2^p);
they are computed with the length-q Walsh-Hadamard transform after
permuting each incoming message by its edge coefficient.  The decoder is
vectorized over a batch of frames, with per-frame early exit on a zero
syndrome; batching never changes any individual frame's result.

Conventions fixed for reproducibility:
  * field symbols become bits most-significant-bit first, in codeword order;
  * a k-bit constellation label uses its first k/2 bits (MSB first) for the
    in-phase axis and the rest for quadrature, each axis reflected-Gray
    mapped onto the odd-integer amplitude grid;
  * Es/N0 is relative to the unit-energy constellation, so the complex
    noise variance is 10^(-snr_db/10).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .gf import GF
from .lifter import Lifting
from .linalg import gf_matvec, gf_rref

_PROB_FLOOR = 1e-30


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

    Each symbol's distribution is the product, over the constellation
    observations covering its bits, of the observation's marginal
    probability of the corresponding bit pattern (unconstrained bits of a
    shared observation are summed out).
    """
    received = np.asarray(received)
    batch = received.ndim == 2
    rx = received if batch else received[None, :]
    k = modulation.bits_per_symbol
    if n_symbols * p != rx.shape[1] * k:
        raise ValueError("received length inconsistent with symbol count")
    w = observation_weights(rx, modulation, snr_db)
    q = 1 << p
    f = rx.shape[0]

    if k == 1:
        logw = np.log(w + _PROB_FLOOR).reshape(f, n_symbols, p, 2)
        val_bits = (np.arange(q)[:, None] >> np.arange(p - 1, -1, -1)) & 1
        logp = np.zeros((f, n_symbols, q))
        for t in range(p):
            logp += logw[:, :, t, val_bits[:, t]]
        probs = np.exp(logp - logp.max(axis=2, keepdims=True))
    elif k == p:
        probs = w.copy()
    elif p % k == 0:
        # each symbol is covered by p/k whole observations
        per = p // k
        val_slices = np.empty((q, per), dtype=np.int64)
        for val in range(q):
            for r in range(per):
                val_slices[val, r] = (val >> (k * (per - 1 - r))) & ((1 << k) - 1)
        wg = w.reshape(f, n_symbols, per, -1)
        probs = np.ones((f, n_symbols, q))
        for r in range(per):
            probs *= wg[:, :, r, val_slices[:, r]]
    elif k % p == 0:
        # each observation covers k/p whole symbols; marginalize the rest
        per = k // p
        labels = np.arange(modulation.points.size)
        probs_parts = []
        for r in range(per):
            slot = (labels >> (p * (per - 1 - r))) & (q - 1)
            group = np.zeros((modulation.points.size, q))
            group[labels, slot] = 1.0
            probs_parts.append(w @ group)  # (f, n_obs, q)
        probs = np.stack(probs_parts, axis=2).reshape(f, n_symbols, q)
    else:
        probs = _likelihoods_generic(w, k, p, n_symbols, modulation.points.size)

    probs = np.maximum(probs, 0.0) + _PROB_FLOOR
    probs /= probs.sum(axis=2, keepdims=True)
    return probs if batch else probs[0]


def _likelihoods_generic(w, k, p, n_symbols, m_points):
    """Arbitrary bit alignment between field symbols and observations."""
    f = w.shape[0]
    q = 1 << p
    labels = np.arange(m_points)
    probs = np.ones((f, n_symbols, q))
    for v in range(n_symbols):
        by_obs: dict[int, list[tuple[int, int]]] = {}
        for t in range(p):
            g = v * p + t
            by_obs.setdefault(g // k, []).append((g % k, p - 1 - t))
        for obs, pairs in by_obs.items():
            # pattern of this observation's label implied by symbol value `val`
            marg = np.zeros((f, q))
            for val in range(q):
                mask = np.ones(m_points, dtype=bool)
                for pos, bit_of_val in pairs:
                    want = (val >> bit_of_val) & 1
                    mask &= ((labels >> (k - 1 - pos)) & 1) == want
                marg[:, val] = w[:, obs, mask].sum(axis=1)
            probs[:, v, :] *= marg
    return probs


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
        if self.rank and self.k:
            prods = self.field.mul_table[self.parity_map[None, :, :], u[:, None, :]]
            out[:, self.pivot_cols] = np.bitwise_xor.reduce(prods, axis=2)
        return out[0] if single else out

    def syndrome(self, word: np.ndarray) -> np.ndarray:
        return gf_matvec(self.field, self.h, np.asarray(word, dtype=np.int64))

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
def _wht(a: np.ndarray) -> np.ndarray:
    """Walsh-Hadamard transform along the last axis (length a power of 2)."""
    q = a.shape[-1]
    out = a
    h = 1
    while h < q:
        v = out.reshape(*out.shape[:-1], q // (2 * h), 2, h)
        new = np.empty_like(v)
        new[..., 0, :] = v[..., 0, :] + v[..., 1, :]
        new[..., 1, :] = v[..., 0, :] - v[..., 1, :]
        out = new.reshape(*a.shape)
        h *= 2
    return out


class QspaDecoder:
    """Probability-domain belief propagation over GF(2^p), batched over frames."""

    def __init__(self, code: CodeInstance) -> None:
        # no back-reference to `code`: code.decoder() caches this object, and a
        # cycle would keep the dense H and its RREF alive until a cyclic GC pass
        field = self.field = code.field
        q = field.q
        h = code.h
        checks, vars_ = np.nonzero(h)
        order = np.lexsort((vars_, checks))  # edges grouped by check
        self.edge_check = checks[order]
        self.edge_var = vars_[order]
        self.edge_coeff = h[self.edge_check, self.edge_var]
        e = self.edge_check.size
        self.n_edges = e
        self.n_checks = h.shape[0]
        self.n_vars = h.shape[1]
        self.q = q

        mul = field.mul_table
        inv_coeff = np.array(
            [field.inv(int(c)) for c in self.edge_coeff], dtype=np.int64
        )
        xs = np.arange(q)
        # variable->check: message about t = coeff * x, so index by coeff^-1 * t
        self.perm_vc = mul[inv_coeff[:, None], xs[None, :]]
        # check->variable: message about x recovered from t = coeff * x
        self.perm_cv = mul[self.edge_coeff[:, None], xs[None, :]]
        self._ear = np.arange(e)[:, None]

        # padded-slot layout for leave-one-out products at checks and variables
        self.check_pad, self.edge_cslot = self._slot_layout(self.edge_check, self.n_checks)
        self.var_pad, self.edge_vslot = self._slot_layout(self.edge_var, self.n_vars)
        counts = np.bincount(self.edge_check, minlength=self.n_checks)
        self.check_starts = np.concatenate(([0], np.cumsum(counts)))[:-1]

    def _slot_layout(self, owner: np.ndarray, n_owners: int):
        counts = np.bincount(owner, minlength=n_owners)
        width = int(counts.max()) if counts.size else 0
        pad = np.full((n_owners, max(width, 1)), self.n_edges, dtype=np.int64)
        slot_of_edge = np.zeros(self.n_edges, dtype=np.int64)
        fill = np.zeros(n_owners, dtype=np.int64)
        for e_idx in range(self.n_edges):
            o = owner[e_idx]
            pad[o, fill[o]] = e_idx
            slot_of_edge[e_idx] = fill[o]
            fill[o] += 1
        return pad, slot_of_edge

    @staticmethod
    def _loo_product(g: np.ndarray) -> np.ndarray:
        """Leave-one-out products along axis 2 via prefix/suffix scans."""
        f, n, d, q = g.shape
        prefix = np.ones_like(g)
        suffix = np.ones_like(g)
        for t in range(1, d):
            prefix[:, :, t] = prefix[:, :, t - 1] * g[:, :, t - 1]
            suffix[:, :, d - 1 - t] = suffix[:, :, d - t] * g[:, :, d - t]
        return prefix * suffix

    def _normalize_edges(self, msgs: np.ndarray) -> np.ndarray:
        msgs = np.maximum(msgs, 0.0) + _PROB_FLOOR
        return msgs / msgs.sum(axis=2, keepdims=True)

    def _hard_and_converged(self, post: np.ndarray):
        hard = post.argmax(axis=2)
        if self.n_edges == 0:
            return hard, np.ones(post.shape[0], dtype=bool)
        contrib = self.field.mul_table[
            self.edge_coeff[None, :], hard[:, self.edge_var]
        ]
        synd = np.bitwise_xor.reduceat(contrib, self.check_starts, axis=1)
        return hard, ~synd.any(axis=1)

    def decode_batch(
        self, priors: np.ndarray, max_iter: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Decode a (frames, n, q) prior batch.

        Returns (words, converged, iterations).  A frame's output freezes
        at its first zero-syndrome hard decision; iteration counts say
        when that happened (0 = the channel decision already satisfied
        every check).
        """
        priors = np.asarray(priors, dtype=float)
        if priors.ndim == 2:
            priors = priors[None]
        f = priors.shape[0]
        if priors.shape[1] != self.n_vars or priors.shape[2] != self.q:
            raise ValueError("prior shape does not match the code")

        words = np.zeros((f, self.n_vars), dtype=np.int64)
        converged = np.zeros(f, dtype=bool)
        iterations = np.full(f, max_iter, dtype=np.int64)

        hard, ok = self._hard_and_converged(priors)
        words[ok] = hard[ok]
        iterations[ok] = 0
        converged[:] = ok
        words[~converged] = hard[~converged]
        if converged.all() or max_iter == 0 or self.n_edges == 0:
            return words, converged, iterations

        # iterate only the still-active frames; converged frames are frozen
        active = np.nonzero(~converged)[0]
        priors_a = priors[active]
        v2c = self._normalize_edges(priors_a[:, self.edge_var, :].copy())

        for it in range(1, max_iter + 1):
            ones_pad = np.ones((active.size, 1, self.q))
            # check-node update in the transform domain
            t = v2c[:, self._ear, self.perm_vc]
            t = _wht(t)
            tx = np.concatenate([t, ones_pad], axis=1)
            g = tx[:, self.check_pad, :]
            loo = self._loo_product(g)
            c2v = loo[:, self.edge_check, self.edge_cslot, :]
            c2v = _wht(c2v) / self.q
            c2v = c2v[:, self._ear, self.perm_cv]
            c2v = self._normalize_edges(c2v)

            # variable-node update and posterior
            cx = np.concatenate([c2v, ones_pad], axis=1)
            gv = cx[:, self.var_pad, :]
            post = priors_a * gv.prod(axis=2)
            loov = self._loo_product(gv)
            v2c = priors_a[:, self.edge_var, :] * loov[:, self.edge_var, self.edge_vslot, :]
            v2c = self._normalize_edges(v2c)

            hard, ok = self._hard_and_converged(post)
            words[active] = hard
            iterations[active[ok]] = it
            converged[active[ok]] = True
            if ok.any():
                keep = ~ok
                active = active[keep]
                if active.size == 0:
                    break
                priors_a = priors_a[keep]
                v2c = v2c[keep]

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
    modulation: str
    snr_db: tuple[float, ...]
    max_frames: int
    max_errors: int
    decoder_max_iterations: int = 30
    rng_seed: int = 0

    def __post_init__(self) -> None:
        make_modulation(self.modulation)
        if not self.snr_db:
            raise ValueError("at least one SNR point is required")
        if self.max_frames < 1 or self.max_errors < 1:
            raise ValueError("max_frames and max_errors must be positive")
        if self.decoder_max_iterations < 0:
            raise ValueError("decoder_max_iterations must be non-negative")
        object.__setattr__(self, "snr_db", tuple(float(v) for v in self.snr_db))


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

    Every frame draws its information symbols and its noise from a
    generator seeded by (rng_seed, global frame index), so results are
    independent of batch size and identical across runs with one seed.
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
            frame_counter += b
            tx_words = code.encode(info)
            rx = modulate(tx_words, p, modulation) + noise
            priors = symbol_likelihoods(rx, modulation, snr_db, p, code.n)
            decoded, _, iters = decoder.decode_batch(priors, cfg.decoder_max_iterations)
            errors += int((decoded != tx_words).any(axis=1).sum())
            frames += b
            iter_sum += int(iters.sum())
        points.append(
            SnrPoint(
                snr_db=snr_db,
                frames=frames,
                errors=errors,
                avg_iterations=iter_sum / frames,
            )
        )
    return SimResult(tuple(points))
