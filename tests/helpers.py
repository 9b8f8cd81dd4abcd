"""Independent reference implementations used as test oracles.

Deliberately written without reusing the library's internals: carry-less
field multiplication, plain-Python Gaussian elimination, a permutation
based cycle enumerator, a direct xor-convolution, and a one-trial-at-a-time
greedy construction on the cofactor determinant.
"""

from itertools import combinations, permutations, product

import numpy as np

from nbqc.base_graph import BaseMatrix, Cycle, ace_vector, girth, lex_compare
from nbqc.lifter import AcceptedTrial, ConstructionReport, Lifting, cycle_submatrix
from nbqc.ring import Monomial


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
                rows[r] = [
                    field.add(v, field.mul(factor, w))
                    for v, w in zip(rows[r], rows[rank])
                ]
        rank += 1
    return rank


def plain_nullity(field, matrix) -> int:
    return np.asarray(matrix).shape[1] - plain_rank(field, matrix)


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
                        found.add(Cycle.from_walk(list(cols_seq), list(row_choice)))
    return found


def direct_xor_convolution(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """O(q^2) convolution over the additive group of GF(2^p)."""
    q = a.size
    out = np.zeros(q)
    for x in range(q):
        for y in range(q):
            out[x ^ y] += a[x] * b[y]
    return out


def random_base_matrix(rng: np.random.Generator, m: int, n: int) -> BaseMatrix:
    """Random binary matrix with no empty rows or columns."""
    while True:
        bits = (rng.random((m, n)) < 0.5).astype(int)
        if bits.sum(axis=0).all() and bits.sum(axis=1).all():
            return BaseMatrix(bits)


def reference_greedy_lift(h: BaseMatrix, cfg) -> tuple[Lifting, ConstructionReport]:
    """The greedy construction, one trial at a time.

    Each trial writes its draw into the lifting, re-tests every cycle whose
    rows x cols contain the edge with the cofactor determinant, and keeps
    the draw when the ACE vector is lexicographically no worse; otherwise
    it restores the previous monomial and statuses.  Cycles come from the
    exhaustive enumerator, so capped enumerations are out of scope.
    """
    field = cfg.make_field()
    lifting = Lifting.trivial(h, cfg.s, field)
    cycles = sorted(brute_force_cycles(h, cfg.depth), key=lambda c: c.edges)

    def eliminated(c: Cycle) -> bool:
        return not cycle_submatrix(lifting, c).determinant().is_zero()

    status = {c: eliminated(c) for c in cycles}
    ace_max = ace_vector(h, list(status.items()), cfg.depth)
    rng = np.random.default_rng(cfg.rng_seed)
    trials = 0
    accepted = []
    for j in range(h.n):
        for i in h.rows_of_col[j]:
            affected = [c for c in cycles if i in c.rows and j in c.cols]
            for _ in range(cfg.trials_per_edge):
                trials += 1
                draw = Monomial(int(rng.integers(1, cfg.q)), int(rng.integers(0, cfg.s)))
                before = lifting.assignment[(i, j)]
                saved = {c: status[c] for c in affected}
                lifting.assignment[(i, j)] = draw
                for c in affected:
                    status[c] = eliminated(c)
                vec = ace_vector(h, list(status.items()), cfg.depth)
                if lex_compare(ace_max, vec) <= 0:
                    ace_max = vec
                    accepted.append(AcceptedTrial((i, j), draw.shift, draw.beta, vec.values))
                else:
                    lifting.assignment[(i, j)] = before
                    status.update(saved)

    counts = {}
    for length in range(4, cfg.depth + 1, 2):
        flags = [status[c] for c in cycles if c.length == length]
        counts[length] = (flags.count(False), flags.count(True))
    report = ConstructionReport(
        ace=ace_max,
        cycle_counts=counts,
        expanded_girth=girth(lifting.expand()),
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
