"""Independent reference implementations used as test oracles.

Deliberately written without reusing the library's internals: carry-less
field multiplication, plain-Python Gaussian elimination, the dense RREF
and the systematic encoder built on it, the demapper's weights in one
expression, the modulated AWGN channel that the tests transmit over, a
permutation based cycle enumerator and a plain recursive cycle walk (both
orienting their walks with cycle_from_walk), a permutation based search
for a cycle's matchings, a direct xor-convolution, the butterfly
Walsh-Hadamard transform and the padded-slot FFT-QSPA decoder, the dense
circulant algebra (polynomials mod x^s - 1, their cofactor determinant
and their block-by-block expansion), the ACE vector of flagged cycles,
and a one-trial-at-a-time greedy construction on the cofactor
determinant.
"""

import math
from dataclasses import dataclass
from itertools import combinations, permutations, product

import numpy as np

from nbqc.base_graph import BaseMatrix, Cycle, cycle_ace, girth
from nbqc.channel import _PROB_FLOOR, Modulation, _degree_layout, modulate, noise_sigma
from nbqc.gf import GF
from nbqc.lifter import AcceptedTrial, ConstructionReport, Lifting

# ----------------------------------------------------------------------
# polynomials modulo x^s - 1 over GF(q): the algebra of scaled circulants
#
# A RingPoly stores the dense coefficient vector of a residue class; its
# s x s circulant has that vector as column 0 (coefficient of x^t in row
# t), each later column the cyclic downward shift of the previous one, so
# beta*x^z expands to beta times the permutation circulant whose column-0
# entry sits in row z.  PolyMatrix is a dense grid of RingPoly entries with
# the cofactor determinant (characteristic 2: no signs) and the
# block-by-block expansion.
# ----------------------------------------------------------------------
DETERMINANT_MAX_DIM = 6


@dataclass(frozen=True)
class RingPoly:
    """Element of GF(q)[x]/(x^s - 1); coeffs[t] is the coefficient of x^t."""

    field: GF
    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.coeffs) == 0:
            raise ValueError("circulant size must be positive")
        if any(c < 0 or c >= self.field.q for c in self.coeffs):
            raise ValueError("coefficient out of field range")

    @property
    def s(self) -> int:
        return len(self.coeffs)

    @classmethod
    def zero(cls, field: GF, s: int) -> "RingPoly":
        return cls(field, (0,) * s)

    @classmethod
    def one(cls, field: GF, s: int) -> "RingPoly":
        return cls(field, (1,) + (0,) * (s - 1))

    @classmethod
    def monomial_poly(cls, field: GF, s: int, beta: int, shift: int) -> "RingPoly":
        """beta * x^shift as a dense ring element."""
        if not 0 <= shift < s:
            raise ValueError(f"shift {shift} out of range [0, {s})")
        coeffs = [0] * s
        coeffs[shift] = beta
        return cls(field, tuple(coeffs))

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def _check_compatible(self, other: "RingPoly") -> None:
        if self.field != other.field:
            raise ValueError("operands belong to different fields")
        if self.s != other.s:
            raise ValueError(f"circulant size mismatch: {self.s} != {other.s}")

    def __add__(self, other: "RingPoly") -> "RingPoly":
        self._check_compatible(other)
        return RingPoly(self.field, tuple(a ^ b for a, b in zip(self.coeffs, other.coeffs)))

    def __mul__(self, other: "RingPoly") -> "RingPoly":
        self._check_compatible(other)
        field, s = self.field, self.s
        out = [0] * s
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                if b == 0:
                    continue
                k = i + j
                if k >= s:
                    k -= s
                out[k] ^= field.mul(a, b)
        return RingPoly(field, tuple(out))

    def expand(self) -> np.ndarray:
        """The s x s circulant whose first column is the coefficient vector."""
        s = self.s
        out = np.zeros((s, s), dtype=np.int64)
        for t, c in enumerate(self.coeffs):
            if c == 0:
                continue
            rows = (np.arange(s) + t) % s
            out[rows, np.arange(s)] = c
        return out


@dataclass(frozen=True)
class PolyMatrix:
    """Dense matrix with entries in GF(q)[x]/(x^s - 1)."""

    field: GF
    s: int
    entries: tuple[tuple[RingPoly, ...], ...]

    def __post_init__(self) -> None:
        for row in self.entries:
            if len(row) != len(self.entries[0]):
                raise ValueError("ragged entry grid")
            for e in row:
                if e.field != self.field or e.s != self.s:
                    raise ValueError("entry does not match matrix field/size")

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0]) if self.entries else 0

    @classmethod
    def from_entries(cls, field: GF, s: int, grid) -> "PolyMatrix":
        return cls(field, s, tuple(tuple(row) for row in grid))

    @classmethod
    def identity(cls, field: GF, s: int, k: int) -> "PolyMatrix":
        one = RingPoly.one(field, s)
        zero = RingPoly.zero(field, s)
        return cls.from_entries(
            field, s, [[one if i == j else zero for j in range(k)] for i in range(k)]
        )

    def determinant(self) -> RingPoly:
        """Cofactor-expansion determinant (characteristic 2, no signs).

        Supported up to DETERMINANT_MAX_DIM x DETERMINANT_MAX_DIM, enough
        for the submatrices of cycles of length up to 12.
        """
        if self.rows != self.cols:
            raise ValueError(f"determinant of non-square {self.rows}x{self.cols}")
        if self.rows > DETERMINANT_MAX_DIM:
            raise ValueError(
                f"determinant supported up to dimension {DETERMINANT_MAX_DIM}, "
                f"got {self.rows}"
            )
        return _cofactor_det(self.field, self.s, self.entries)

    def expand(self) -> np.ndarray:
        """Scalar matrix over GF(q): every entry becomes its s x s circulant."""
        m, n, s = self.rows, self.cols, self.s
        out = np.zeros((m * s, n * s), dtype=np.int64)
        for i, row in enumerate(self.entries):
            for j, e in enumerate(row):
                if not e.is_zero():
                    out[i * s : (i + 1) * s, j * s : (j + 1) * s] = e.expand()
        return out


def _cofactor_det(field: GF, s: int, entries) -> RingPoly:
    k = len(entries)
    if k == 1:
        return entries[0][0]
    acc = RingPoly.zero(field, s)
    for j in range(k):
        pivot = entries[0][j]
        if pivot.is_zero():
            continue
        minor = tuple(
            tuple(row[c] for c in range(k) if c != j) for row in entries[1:]
        )
        acc = acc + pivot * _cofactor_det(field, s, minor)
    return acc


# ----------------------------------------------------------------------
# the dense circulant algebra of a lifting
# ----------------------------------------------------------------------
def _entry(lifting: Lifting, i: int, j: int) -> RingPoly:
    bits = lifting.base.bits
    if not bits[i, j]:
        return RingPoly.zero(lifting.field, lifting.s)
    t = int(bits[:, :j].sum() + bits[:i, j].sum())  # (i, j)'s place in column-major order
    beta, shift = int(lifting.beta[t]), int(lifting.shift[t])
    return RingPoly.monomial_poly(lifting.field, lifting.s, beta, shift)


def poly_matrix(lifting: Lifting) -> PolyMatrix:
    """The lifting as a dense m x n grid of ring elements."""
    grid = [[_entry(lifting, i, j) for j in range(lifting.base.n)] for i in range(lifting.base.m)]
    return PolyMatrix.from_entries(lifting.field, lifting.s, grid)


def cycle_submatrix(lifting: Lifting, cycle: Cycle) -> PolyMatrix:
    """The polynomial submatrix over the cycle's rows and columns.

    Includes every assigned entry inside rows(cycle) x cols(cycle), not
    just the positions the cycle walks through.
    """
    grid = [[_entry(lifting, i, j) for j in sorted(cycle.cols)] for i in sorted(cycle.rows)]
    return PolyMatrix.from_entries(lifting.field, lifting.s, grid)


def example_lifting() -> Lifting:
    """A GF(4) lifting with s = 3 of the acyclic base [[0, 1, 1], [1, 0, 1]]."""
    base = BaseMatrix([[0, 1, 1], [1, 0, 1]])
    # edges (1,0), (0,1), (0,2), (1,2): column-major order
    return Lifting(base, 3, GF(2), beta=[1, 1, 2, 3], shift=[0, 2, 1, 2])


def random_lifting(rng: np.random.Generator, base: BaseMatrix, s: int, field: GF) -> Lifting:
    """Per base edge in column-major order, a uniform beta in [1, q), then a shift in [0, s)."""
    draws = [(rng.integers(1, field.q), rng.integers(0, s)) for _ in base.ones()]
    beta, shift = np.array(draws, dtype=np.int64).reshape(-1, 2).T
    return Lifting(base, s, field, beta, shift)


# ----------------------------------------------------------------------
def clmul_reduce(a: int, b: int, poly: int, p: int) -> int:
    """Carry-less multiply of two GF(2^p) elements, reduced modulo poly."""
    acc = 0
    for bit in range(p):
        if (b >> bit) & 1:
            acc ^= a << bit
    for bit in range(2 * p - 2, p - 1, -1):
        if (acc >> bit) & 1:
            acc ^= poly << (bit - p)
    return acc


def plain_rank(field, matrix) -> int:
    """Gaussian elimination rank over GF(q), scalar Python arithmetic."""
    rows = [list(int(v) for v in row) for row in np.asarray(matrix)]
    if not rows:
        return 0
    n = len(rows[0])
    rank = 0
    for col in range(n):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = field.inv(rows[rank][col])
        rows[rank] = [field.mul(inv, v) for v in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                factor = rows[r][col]
                rows[r] = [v ^ field.mul(factor, w) for v, w in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def plain_nullity(field, matrix) -> int:
    return np.asarray(matrix).shape[1] - plain_rank(field, matrix)


def reference_rref(field, a) -> tuple[np.ndarray, list[int]]:
    """(R, pivot_cols): the reduced row-echelon form of a, by dense elimination.

    Every row operation spans all columns; the pivot is the first nonzero
    at or below the current row, and columns are never swapped.
    """
    r = np.array(a, dtype=np.int64, copy=True)
    mul = field.mul_table
    m, n = r.shape
    pivot_cols: list[int] = []
    row = 0
    for col in range(n):
        if row >= m:
            break
        nz = np.nonzero(r[row:, col])[0]
        if nz.size == 0:
            continue
        pivot = row + nz[0]
        if pivot != row:
            r[[row, pivot]] = r[[pivot, row]]
        r[row] = mul[field.inv(int(r[row, col])), r[row]]
        others = np.nonzero(r[:, col])[0]
        others = others[others != row]
        if others.size:
            r[others] ^= mul[r[others, col][:, None], r[row][None, :]]
        pivot_cols.append(col)
        row += 1
    return r, pivot_cols


def reference_encode(field, h, info: np.ndarray) -> np.ndarray:
    """Systematic codewords from the RREF's parity map, one per row of info.

    Pivot column r of the RREF carries the parity symbol that row r gives
    as the sum of the information symbols times the row's entries.
    """
    r, pivots = reference_rref(field, h)
    info_cols = np.setdiff1d(np.arange(r.shape[1]), pivots)
    parity_map = r[: len(pivots)][:, info_cols]
    out = np.zeros((len(info), r.shape[1]), dtype=np.int64)
    out[:, info_cols] = info
    for t, row in enumerate(parity_map):
        out[:, pivots[t]] = np.bitwise_xor.reduce(field.mul_table[info, row], axis=1)
    return out


def reference_observation_weights(received, modulation, snr_db) -> np.ndarray:
    """Max-normalized Gaussian weights of each constellation point, one expression."""
    n0 = 10.0 ** (-snr_db / 10.0)
    d2 = np.abs(received[..., None] - modulation.points) ** 2
    d2 -= d2.min(axis=-1, keepdims=True)
    return np.exp(-d2 / max(n0, _PROB_FLOOR))


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


def cycle_from_walk(cols: list[int], rows: list[int]) -> Cycle:
    """Orient a closed walk given by its column and row visit sequences (see Cycle)."""
    if len(cols) != len(rows) or len(cols) < 2:
        raise ValueError("walk needs k >= 2 columns and as many rows")
    start = cols.index(min(cols))
    cols, rows = (*cols[start:], *cols[:start]), (*rows[start:], *rows[:start])
    if rows[0] > rows[-1]:
        cols, rows = cols[:1] + cols[:0:-1], rows[::-1]
    return Cycle(cols, rows)


def brute_force_cycles(h: BaseMatrix, depth: int) -> set[Cycle]:
    """Every cycle of length <= depth by exhaustive column/row selection."""
    found: set[Cycle] = set()
    for k in range(2, depth // 2 + 1):
        for col_set in combinations(range(h.n), k):
            j0, rest = col_set[0], col_set[1:]
            for perm in permutations(rest):
                cols_seq = (j0,) + perm
                row_options = []
                feasible = True
                for t in range(k):
                    a, b = cols_seq[t], cols_seq[(t + 1) % k]
                    rows_ab = [
                        i for i in range(h.m) if h.bits[i, a] and h.bits[i, b]
                    ]
                    if not rows_ab:
                        feasible = False
                        break
                    row_options.append(rows_ab)
                if not feasible:
                    continue
                for row_choice in product(*row_options):
                    if len(set(row_choice)) == k:
                        found.add(cycle_from_walk(list(cols_seq), list(row_choice)))
    return found


def cycles_through(h: BaseMatrix, j: int, depth: int) -> list[Cycle]:
    """Every cycle through column j with length <= depth, in depth-first order.

    The walk from column j tries the rows of its last column, then the
    columns of that row, each ascending, and records a cycle as it closes back to j in the
    direction whose first row is the smaller.
    """
    found = []

    def walk(cols: list[int], rows: list[int]) -> None:
        for i in np.flatnonzero(h.bits[:, cols[-1]]).tolist():
            if i in rows:
                continue
            if len(cols) >= 2 and h.bits[i, j] and rows[0] < i:
                found.append(cycle_from_walk(cols, rows + [i]))
            if 2 * len(cols) < depth:
                for j2 in np.flatnonzero(h.bits[i]).tolist():
                    if j2 not in cols:
                        walk(cols + [j2], rows + [i])

    walk([j], [])
    return found


def reference_cycle_matchings(h: BaseMatrix, cycle: Cycle) -> set[frozenset[tuple[int, int]]]:
    """Perfect matchings of the cycle's rows x cols submatrix, by trying every column order.

    Each matching is the set of its (row, col) base positions.
    """
    return {
        frozenset(zip(cycle.rows, perm))
        for perm in permutations(cycle.cols)
        if all(h.bits[i, j] for i, j in zip(cycle.rows, perm))
    }


def direct_xor_convolution(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """O(q^2) convolution over the additive group of GF(2^p)."""
    q = a.size
    out = np.zeros(q)
    for x in range(q):
        for y in range(q):
            out[x ^ y] += a[x] * b[y]
    return out


# ----------------------------------------------------------------------
# the padded-slot FFT-QSPA decoder with the butterfly transform
#
# Every check (variable) owns a row of slots as wide as the largest
# degree; empty slots point at a padding message of ones, so each
# leave-one-out product is one prefix/suffix scan over the padded rows.
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


def _slot_layout(owner: np.ndarray, n_owners: int, n_edges: int):
    counts = np.bincount(owner, minlength=n_owners)
    width = int(counts.max()) if counts.size else 0
    pad = np.full((n_owners, max(width, 1)), n_edges, dtype=np.int64)
    slot_of_edge = np.zeros(n_edges, dtype=np.int64)
    fill = np.zeros(n_owners, dtype=np.int64)
    for e_idx in range(n_edges):
        o = owner[e_idx]
        pad[o, fill[o]] = e_idx
        slot_of_edge[e_idx] = fill[o]
        fill[o] += 1
    return pad, slot_of_edge


def _loo_product(g: np.ndarray) -> np.ndarray:
    """Leave-one-out products along axis 2 via prefix/suffix scans."""
    f, n, d, q = g.shape
    prefix = np.ones_like(g)
    suffix = np.ones_like(g)
    for t in range(1, d):
        prefix[:, :, t] = prefix[:, :, t - 1] * g[:, :, t - 1]
        suffix[:, :, d - 1 - t] = suffix[:, :, d - t] * g[:, :, d - t]
    return prefix * suffix


def argsort_gathers(code) -> tuple[np.ndarray, np.ndarray]:
    """The decoder's flat variable-to-check and check-to-variable gathers, with
    each edge's variable-to-check permutation the argsort of its table row."""
    q = code.field.q
    checks, vars_, coeffs = code.edge_check, code.edge_var, code.edge_coeff
    c_order = _degree_layout(checks, vars_, code.shape[0])[0]
    v_order = _degree_layout(vars_, checks, code.shape[1])[0]
    perm_cv = code.field.mul_table[coeffs[:, None], np.arange(q)]
    perm_vc = np.argsort(perm_cv, axis=1)
    v_pos, c_pos = np.argsort(v_order), np.argsort(c_order)
    return (
        (v_pos[c_order, None] * q + perm_vc[c_order]).ravel(),
        (c_pos[v_order, None] * q + perm_cv[v_order]).ravel(),
    )


def reference_decode_batch(code, priors: np.ndarray, max_iter: int):
    """(words, converged, iterations) of flooding FFT-QSPA on a prior batch.

    The same message schedule, normalization and per-frame early exit as
    `QspaDecoder.decode_batch`, on the padded-slot layout.  H must have no
    all-zero row: the syndrome's reduceat would give an empty check the
    next check's first term.
    """
    field, h = code.field, code.h
    q = field.q
    n_checks, n_vars = h.shape
    checks, vars_ = np.nonzero(h)
    order = np.lexsort((vars_, checks))
    edge_check, edge_var = checks[order], vars_[order]
    edge_coeff = h[edge_check, edge_var]
    e = edge_check.size
    mul = field.mul_table
    inv_coeff = np.array([field.inv(int(c)) for c in edge_coeff], dtype=np.int64)
    xs = np.arange(q)
    perm_vc = mul[inv_coeff[:, None], xs[None, :]]
    perm_cv = mul[edge_coeff[:, None], xs[None, :]]
    ear = np.arange(e)[:, None]
    check_pad, edge_cslot = _slot_layout(edge_check, n_checks, e)
    var_pad, edge_vslot = _slot_layout(edge_var, n_vars, e)
    counts = np.bincount(edge_check, minlength=n_checks)
    check_starts = np.concatenate(([0], np.cumsum(counts)))[:-1]

    def normalize(msgs):
        msgs = msgs + _PROB_FLOOR
        return msgs / msgs.sum(axis=2, keepdims=True)

    def hard_and_converged(post):
        hard = post.argmax(axis=2)
        if e == 0:
            return hard, np.ones(post.shape[0], dtype=bool)
        contrib = mul[edge_coeff[None, :], hard[:, edge_var]]
        synd = np.bitwise_xor.reduceat(contrib, check_starts, axis=1)
        return hard, ~synd.any(axis=1)

    priors = np.asarray(priors, dtype=float)
    if priors.ndim == 2:
        priors = priors[None]
    f = priors.shape[0]
    words = np.zeros((f, n_vars), dtype=np.int64)
    converged = np.zeros(f, dtype=bool)
    iterations = np.full(f, max_iter, dtype=np.int64)

    hard, ok = hard_and_converged(priors)
    words[:] = hard
    iterations[ok] = 0
    converged[:] = ok
    if converged.all() or max_iter == 0 or e == 0:
        return words, converged, iterations

    active = np.nonzero(~converged)[0]
    priors_a = priors[active]
    v2c = normalize(priors_a[:, edge_var, :].copy())
    for it in range(1, max_iter + 1):
        ones_pad = np.ones((active.size, 1, q))
        t = _wht(v2c[:, ear, perm_vc])
        g = np.concatenate([t, ones_pad], axis=1)[:, check_pad, :]
        c2v = _loo_product(g)[:, edge_check, edge_cslot, :]
        # check-to-variable messages sum to 1 already (the 0th coefficient is a
        # product of sums of 1), so they are only clamped at the floor
        c2v = np.maximum((_wht(c2v) / q)[:, ear, perm_cv], _PROB_FLOOR)

        gv = np.concatenate([c2v, ones_pad], axis=1)[:, var_pad, :]
        post = priors_a * gv.prod(axis=2)
        v2c = normalize(priors_a[:, edge_var, :] * _loo_product(gv)[:, edge_var, edge_vslot, :])

        hard, ok = hard_and_converged(post)
        words[active] = hard
        iterations[active[ok]] = it
        converged[active[ok]] = True
        if ok.any():
            active = active[~ok]
            if active.size == 0:
                break
            priors_a = priors_a[~ok]
            v2c = v2c[~ok]
    return words, converged, iterations


def random_base_matrix(rng: np.random.Generator, m: int, n: int) -> BaseMatrix:
    """Random binary matrix with no empty rows or columns."""
    while True:
        bits = (rng.random((m, n)) < 0.5).astype(int)
        if bits.sum(axis=0).all() and bits.sum(axis=1).all():
            return BaseMatrix(bits)


def ace_vector(
    h: BaseMatrix, cycles_with_status: list[tuple[Cycle, bool]], depth: int
) -> tuple[float, ...]:
    """Minimum ACE per length over cycles whose eliminated flag is False."""
    best: dict[int, float] = {length: math.inf for length in range(4, depth + 1, 2)}
    for cycle, eliminated in cycles_with_status:
        if eliminated or cycle.length > depth:
            continue
        best[cycle.length] = min(best[cycle.length], cycle_ace(h, cycle))
    return tuple(best[length] for length in range(4, depth + 1, 2))


def reference_greedy_lift(h: BaseMatrix, cfg) -> tuple[Lifting, ConstructionReport]:
    """The greedy construction, one trial at a time.

    Each trial lifts with its draw in place of the edge's (beta, shift),
    re-tests every cycle whose rows x cols contain the edge with the
    cofactor determinant, and keeps the draw when the ACE vector is
    lexicographically no worse; otherwise it restores the previous lifting
    and statuses.  Cycles come from the exhaustive enumerator, so capped
    enumerations are out of scope.
    """
    field = cfg.make_field()
    lifting = Lifting.trivial(h, cfg.s, field)
    cycles = sorted(brute_force_cycles(h, cfg.depth), key=lambda c: (c.cols, c.rows))

    def eliminated(c: Cycle) -> bool:
        return not cycle_submatrix(lifting, c).determinant().is_zero()

    status = {c: eliminated(c) for c in cycles}
    ace_max = ace_vector(h, list(status.items()), cfg.depth)
    rng = np.random.default_rng(cfg.rng_seed)
    trials = 0
    accepted = []
    for e, (i, j) in enumerate(h.ones()):
        affected = [c for c in cycles if i in c.rows and j in c.cols]
        for _ in range(cfg.trials_per_edge):
            trials += 1
            beta, shift = int(rng.integers(1, cfg.q)), int(rng.integers(0, cfg.s))
            before = lifting
            saved = {c: status[c] for c in affected}
            betas, shifts = lifting.beta.copy(), lifting.shift.copy()
            betas[e], shifts[e] = beta, shift
            lifting = Lifting(h, cfg.s, field, betas, shifts)
            for c in affected:
                status[c] = eliminated(c)
            vec = ace_vector(h, list(status.items()), cfg.depth)
            if ace_max <= vec:
                ace_max = vec
                accepted.append(AcceptedTrial((i, j), shift, beta, vec))
            else:
                lifting = before
                status.update(saved)

    counts = {}
    for length in range(4, cfg.depth + 1, 2):
        flags = [status[c] for c in cycles if c.length == length]
        counts[length] = (flags.count(False), flags.count(True))
    report = ConstructionReport(
        ace=ace_max,
        depth=cfg.depth,
        cycle_counts=counts,
        expanded_girth=girth(BaseMatrix(poly_matrix(lifting).expand() != 0)),
        seed=cfg.rng_seed,
        trials_total=trials,
        trials_accepted=len(accepted),
        accepted_log=accepted,
    )
    return lifting, report


def random_weighted_base(rng: np.random.Generator, m: int, weights) -> BaseMatrix:
    """Random m-row base whose column j has weight weights[j], no empty rows."""
    while True:
        bits = np.zeros((m, len(weights)), dtype=int)
        for j, w in enumerate(weights):
            bits[rng.choice(m, size=w, replace=False), j] = 1
        if bits.sum(axis=1).all():
            return BaseMatrix(bits)
