"""Greedy construction of non-binary quasi-cyclic liftings.

Every nonzero position (i, j) of a binary base matrix receives a monomial
beta * x^z: the expanded parity-check matrix replaces that position with
the shift-z permutation circulant scaled by beta.  A cycle of the base
matrix is *eliminated* when the determinant of the assigned polynomial
submatrix over its rows and columns is nonzero in GF(q)[x]/(x^s - 1);
uneliminated short cycles survive into the expanded Tanner graph and are
what degrades message-passing decoding.

The construction starts from the all-(beta=1, z=0) assignment, walks the
edges column by column, and redraws each edge a fixed number of times
from the uniform distribution on {0..s-1} x GF(q)\\{0}.  A redraw is kept
when the matrix-wide ACE vector (minimum ACE per cycle length over the
cycles still uneliminated, infinity once a length is clear) does not get
lexicographically worse; accepting equal vectors keeps the search moving
across plateaus, which a strict-improvement rule cannot do once two
disjoint cycles share the minimum (neither single-edge redraw can then
improve the global minimum, and every elimination would be reverted).
The accepted-vector sequence is therefore non-decreasing, and once a
length reaches infinity no later redraw may break it.

Determinants from matchings.  In characteristic 2 a determinant is the
unsigned sum, over the perfect matchings of the matrix's support, of the
products of the matched entries.  With monomial entries each product is a
single monomial alpha^(sum of beta logs) x^(sum of shifts), so a cycle's
determinant is a few terms whose coefficients xor together per shift.
The matchings depend only on the base matrix: they are listed once per
cycle, as base-edge indices, and every test sums per-edge (log beta,
shift) arrays over them.  On a column-weight-2 base a cycle's submatrix
holds the cycle's edges only and has exactly two matchings, its alternate
edges, which gives the closed-form 4-cycle conditions (Fossorier 2004 for
the shift sums, Poulliat, Fossorier and Declercq 2008 for the coefficient
products) at every length.

Scoring all trials of an edge at once.  While edge e is redrawn every
other edge is fixed, so a cycle through e has determinant A + b x^z B:
A sums the matchings that avoid e, and B those that use e with e's own
monomial divided out.  A and B are the same for every trial of e, and the
cycle stays uneliminated under the draw (b, z) exactly when A = b x^z B:
under every draw if A and B both vanish, under none if only one does, and
otherwise under at most one draw per term of A (aligning B's first term
with that term fixes (b, z); the rest of B must then land on A).  A
rejected redraw restores the previous state, so the ACE vector a trial
sees depends on its own draw only: the minimum over the fixed cycles (off
e, or open under every draw) and over the cycles that draw keeps open.
The trials of an edge are therefore scored from one such computation, and
the accept/reject scan over them in draw order, with the random draws
made in the same order, reproduces the one-trial-at-a-time construction
exactly.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field as dc_field
from fractions import Fraction

import numpy as np

from .base_graph import (
    AceVector,
    BaseMatrix,
    Cycle,
    all_cycles,
    check_depth,
    girth,
    inf_or_int,
    lex_compare,
    lifted_edges,
)
from .gf import GF

MAX_DEPTH = 12  # bounds the k! candidate matchings per 2k-cycle in _cycle_matchings
_LOOKUP_CHUNK = 1 << 16  # bounds the (cycles, k!, k) index array of one numpy lookup


@dataclass(frozen=True)
class ConstructionConfig:
    """Inputs of the greedy construction."""

    s: int
    q: int
    depth: int = 8
    trials_per_edge: int = 100
    rng_seed: int = 0
    cycle_cap: int | None = 100_000

    def __post_init__(self) -> None:
        if self.s < 2:
            raise ValueError("circulant size must be at least 2")
        if self.q < 2 or self.q & (self.q - 1):
            raise ValueError(f"q must be a power of 2, got {self.q}")
        check_depth(self.depth)
        if self.depth > MAX_DEPTH:
            raise ValueError(f"depth above {MAX_DEPTH} is not supported")
        if self.trials_per_edge < 1:
            raise ValueError("trials_per_edge must be at least 1")
        if self.cycle_cap is not None and self.cycle_cap < 1:
            raise ValueError("cycle_cap must be positive or None")
        if self.rng_seed < 0:
            raise ValueError(f"rng_seed must be non-negative, got {self.rng_seed}")

    def make_field(self) -> GF:
        return GF(self.q.bit_length() - 1)


@dataclass(frozen=True)
class Monomial:
    """Single-term circulant descriptor beta * x^shift, beta nonzero."""

    beta: int
    shift: int

    def __post_init__(self) -> None:
        if self.beta == 0:
            raise ValueError("monomial coefficient must be nonzero")
        if self.shift < 0:
            raise ValueError("monomial shift must be non-negative")


@dataclass(eq=True)
class Lifting:
    """A complete per-edge (beta, shift) assignment for a base matrix."""

    base: BaseMatrix
    s: int
    field: GF
    assignment: dict[tuple[int, int], Monomial]

    def __post_init__(self) -> None:
        expected = set(self.base.ones())
        if set(self.assignment) != expected:
            raise ValueError("assignment must cover exactly the nonzero base positions")
        for (i, j), mono in self.assignment.items():
            if not 0 <= mono.shift < self.s:
                raise ValueError(f"shift out of range at ({i}, {j})")
            if not 1 <= mono.beta < self.field.q:
                raise ValueError(f"coefficient out of range at ({i}, {j})")

    @classmethod
    def trivial(cls, base: BaseMatrix, s: int, field: GF) -> "Lifting":
        """The deterministic baseline: beta=1, shift=0 on every edge."""
        return cls(base, s, field, {pos: Monomial(1, 0) for pos in base.ones()})

    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """The (beta, shift) of every base edge, in base.ones() order."""
        try:
            monos = [self.assignment[pos] for pos in self.base.ones()]
        except KeyError as exc:
            raise RuntimeError(f"base edge {exc.args[0]} has no assignment") from None
        beta = np.array([m.beta for m in monos], dtype=np.int64)
        shift = np.array([m.shift for m in monos], dtype=np.int64)
        return beta, shift

    def expand(self) -> np.ndarray:
        """The (m*s) x (n*s) scalar matrix over GF(q).

        Edge (i, j) with monomial beta * x^z puts beta on each of the s
        edges that lifted_edges places for shift z.
        """
        s = self.s
        beta, shift = self.edge_arrays()
        out = np.zeros((self.base.m * s, self.base.n * s), dtype=np.int64)
        out[lifted_edges(self.base.bits, shift, s)] = beta[:, None]
        return out


@dataclass(frozen=True)
class AcceptedTrial:
    edge: tuple[int, int]
    shift: int
    beta: int
    ace: tuple[float, ...]

    def format(self) -> str:
        body = ", ".join(str(inf_or_int(v)) for v in self.ace)
        return (
            f"edge=({self.edge[0]},{self.edge[1]}) z={self.shift} "
            f"beta={self.beta} ace=({body})"
        )


@dataclass
class ConstructionReport:
    ace: AceVector
    cycle_counts: dict[int, tuple[int, int]]  # length -> (uneliminated, eliminated)
    expanded_girth: float
    seed: int
    trials_total: int
    trials_accepted: int
    accepted_log: list[AcceptedTrial] = dc_field(default_factory=list)
    enumeration_truncated: bool = False

    def to_dict(self) -> dict:
        return {
            "ace": [inf_or_int(v) for v in self.ace.values],
            "depth": self.ace.depth,
            "cycle_counts": {
                str(length): {"uneliminated": u, "eliminated": e}
                for length, (u, e) in sorted(self.cycle_counts.items())
            },
            "expanded_girth": inf_or_int(self.expanded_girth),
            "seed": self.seed,
            "trials_total": self.trials_total,
            "trials_accepted": self.trials_accepted,
            "accepted_log": [t.format() for t in self.accepted_log],
            "enumeration_truncated": self.enumeration_truncated,
        }


# ----------------------------------------------------------------------
# cycle elimination test
# ----------------------------------------------------------------------
def _ranges(start: np.ndarray, count: np.ndarray) -> np.ndarray:
    """Concatenation of arange(start[t], start[t] + count[t]) over t."""
    offset = np.cumsum(count) - count
    return np.repeat(start - offset, count) + np.arange(int(count.sum()))


@functools.cache
def _permutations(k: int) -> np.ndarray:
    perms = np.array(list(itertools.permutations(range(k))), dtype=np.intp)
    perms.setflags(write=False)
    return perms


@functools.cache
def _log_exp(field: GF) -> tuple[np.ndarray, np.ndarray]:
    """Discrete logs (mod q - 1) and the powers of the primitive element."""
    order = field.q - 1
    log = np.array(field.log_table, dtype=np.int64) % order
    exp = np.array(field.exp_table[:order], dtype=np.int64)
    log.setflags(write=False)
    exp.setflags(write=False)
    return log, exp


def _edge_index(base: BaseMatrix) -> np.ndarray:
    """The index of each base position in base.ones(); -1 off the base."""
    rows, cols = lifted_edges(base.bits)  # s = 1: the base edges themselves
    index = np.full(base.bits.shape, -1, dtype=np.intp)
    index[rows, cols] = np.arange(rows.size).reshape(rows.shape)
    return index


def _cycle_matchings(base: BaseMatrix, cycles: list[Cycle]) -> tuple[np.ndarray, np.ndarray]:
    """Perfect matchings of every cycle's submatrix over its rows x cols.

    Returns (owner, edges) sorted by owner: row t of `edges` is a matching
    of cycles[owner[t]], as indices into base.ones().  Matchings of shorter
    cycles are padded with the index len(base.ones()), an edge that the
    per-edge arrays hold at beta = 1, shift 0.
    """
    edge_index = _edge_index(base)
    pad = int(base.bits.sum())
    width = max((c.length // 2 for c in cycles), default=0)
    by_half: dict[int, list[int]] = {}
    for t, c in enumerate(cycles):
        by_half.setdefault(c.length // 2, []).append(t)
    owners = [np.zeros(0, dtype=np.intp)]
    found = [np.zeros((0, width), dtype=np.intp)]
    for k, ids in by_half.items():
        # alternate edges of a cycle are a matching: they list its rows and cols
        walk = np.array([cycles[t].edges[::2] for t in ids], dtype=np.intp)
        ids_arr = np.array(ids, dtype=np.intp)
        perms = _permutations(k)
        step = max(1, _LOOKUP_CHUNK // (len(perms) * k))
        for lo in range(0, len(ids), step):
            rows = walk[lo : lo + step, None, :, 0]
            cols = walk[lo : lo + step, :, 1][:, perms]
            sub = edge_index[rows, cols]  # (cycles, k!, k) edge indices, -1 off the base
            which, perm = np.nonzero((sub >= 0).all(axis=2))
            block = np.full((which.size, width), pad, dtype=np.intp)
            block[:, :k] = sub[which, perm]
            owners.append(ids_arr[lo + which])
            found.append(block)
    owner = np.concatenate(owners)
    order = np.argsort(owner, kind="stable")
    return owner[order], np.concatenate(found)[order]


def _matching_sums(
    edges: np.ndarray, edge_log: np.ndarray, edge_shift: np.ndarray, order: int, s: int
) -> tuple[np.ndarray, np.ndarray]:
    """Each matching's term: the log (mod q - 1) of its coefficient, and its shift."""
    return edge_log[edges].sum(axis=1) % order, edge_shift[edges].sum(axis=1) % s


def _xor_terms(
    group: np.ndarray, shift: np.ndarray, beta: np.ndarray, s: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sum the monomials beta * x^shift of each group in characteristic 2.

    Returns the nonzero coefficients of the sums as (group, shift, beta)
    arrays sorted by (group, shift).
    """
    key = group * s + shift
    order = np.argsort(key, kind="stable")
    key, beta = key[order], beta[order]
    first = np.flatnonzero(np.diff(key, prepend=-1))
    total = np.bitwise_xor.reduceat(beta, first) if first.size else beta
    keep = total != 0
    key = key[first[keep]]
    return key // s, key % s, total[keep]


def cycles_eliminated(lifting: Lifting, cycles: list[Cycle]) -> np.ndarray:
    """Per cycle, whether its polynomial submatrix has nonzero determinant.

    The determinant is the per-shift xor of the matching terms of the
    submatrix over rows(cycle) x cols(cycle) (see the module docstring).
    """
    log, exp = _log_exp(lifting.field)
    beta, shift = lifting.edge_arrays()
    # per-edge arrays plus the padding edge
    edge_log = np.append(log[beta], 0)
    edge_shift = np.append(shift, 0)
    owner, edges = _cycle_matchings(lifting.base, cycles)
    log_sum, shift_sum = _matching_sums(edges, edge_log, edge_shift, len(exp), lifting.s)
    nonzero, _, _ = _xor_terms(owner, shift_sum, exp[log_sum], lifting.s)
    eliminated = np.zeros(len(cycles), dtype=bool)
    eliminated[nonzero] = True
    return eliminated


def cycle_eliminated(lifting: Lifting, cycle: Cycle) -> bool:
    """True when the cycle's polynomial submatrix has nonzero determinant."""
    return bool(cycles_eliminated(lifting, [cycle])[0])


# ----------------------------------------------------------------------
# greedy construction
# ----------------------------------------------------------------------
def _open_draws(
    local: np.ndarray,
    has_e: np.ndarray,
    log_sum: np.ndarray,
    shift_sum: np.ndarray,
    e_log: int,
    e_shift: int,
    n_cycles: int,
    field: GF,
    s: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The draws of edge e under which each cycle through e stays open.

    The arguments describe the matchings of the n_cycles cycles through e:
    their cycle (`local`), whether they use e, and their current terms;
    e's own monomial is beta = exp[e_log], shift e_shift.  Returns
    (always, cycle, key): `always` marks the cycles open under every draw,
    and cycle[t] stays open under the draw key[t] = log(beta) * s + shift.
    """
    log, exp = _log_exp(field)
    order = len(exp)
    avoid = ~has_e
    ga, za, ba = _xor_terms(local[avoid], shift_sum[avoid], exp[log_sum[avoid]], s)
    gb, zb, bb = _xor_terms(
        local[has_e],
        (shift_sum[has_e] - e_shift) % s,
        exp[(log_sum[has_e] - e_log) % order],
        s,
    )
    na = np.bincount(ga, minlength=n_cycles)
    nb = np.bincount(gb, minlength=n_cycles)
    always = (na == 0) & (nb == 0)
    # A = b x^z B needs as many terms on both sides; aligning B's first
    # term with one term of A fixes the draw
    t = np.flatnonzero((na == nb)[ga])
    g = ga[t]
    first = np.searchsorted(gb, g)
    la, lb = log[ba], log[bb]
    z = (za[t] - zb[first]) % s
    lg = (la[t] - lb[first]) % order
    # the draw holds when every term of B, moved by it, is a term of A
    n = nb[g]
    cand = np.repeat(np.arange(t.size), n)
    u = _ranges(first, n)
    moved = (g[cand] * s + (zb[u] + z[cand]) % s) * order + (lb[u] + lg[cand]) % order
    terms_a = (ga * s + za) * order + la  # strictly increasing
    at = np.minimum(np.searchsorted(terms_a, moved), max(terms_a.size - 1, 0))
    ok = np.bincount(cand[terms_a[at] != moved], minlength=t.size) == 0
    return always, g[ok], lg[ok] * s + z[ok]


def _ace_minima(counts: np.ndarray, empty: int) -> np.ndarray:
    """Per row, the first column with a nonzero count; `empty` for an empty row."""
    present = counts > 0
    return np.where(present.any(axis=-1), present.argmax(axis=-1), empty)


def greedy_lift(
    h: BaseMatrix, cfg: ConstructionConfig
) -> tuple[Lifting, ConstructionReport]:
    """Run the randomized greedy edge assignment; reproducible per seed."""
    if int(h.bits.sum()) == 0:
        raise ValueError("base matrix has no edges to lift")
    field = cfg.make_field()
    lifting = Lifting.trivial(h, cfg.s, field)
    s = cfg.s
    log, exp = _log_exp(field)
    order = len(exp)

    cycles = all_cycles(h, cfg.depth, cap=cfg.cycle_cap)
    owner, edges = _cycle_matchings(h, cycles)
    ones = h.ones()
    edge_log = np.zeros(len(ones) + 1, dtype=np.int64)
    edge_shift = np.zeros(len(ones) + 1, dtype=np.int64)
    log_sum, shift_sum = _matching_sums(edges, edge_log, edge_shift, order, s)
    m_start = np.searchsorted(owner, np.arange(len(cycles)))
    m_count = np.bincount(owner, minlength=len(cycles))
    # the matchings through each edge, ascending
    flat = edges.ravel()
    by_edge = np.argsort(flat, kind="stable")
    through = by_edge // max(edges.shape[1], 1)
    bounds = np.searchsorted(flat[by_edge], np.arange(len(ones) + 1))

    # a cycle's first matching meets each of its columns once
    degree = np.array([h.column_degrees[j] for _, j in ones] + [2], dtype=np.intp)
    first = edges[m_start]
    ace = (degree[first] - 2).sum(axis=1)
    slot = (first < len(ones)).sum(axis=1) - 2  # position of the length in the ACE vector
    n_slots = cfg.depth // 2 - 1
    width = int(ace.max(initial=0)) + 1  # an ACE no cycle has: marks "none open"
    cell = slot * width + ace
    cells = n_slots * width

    nonzero, _, _ = _xor_terms(owner, shift_sum, exp[log_sum], s)
    is_open = np.ones(len(cycles), dtype=bool)
    is_open[nonzero] = False
    counts = np.bincount(cell[is_open], minlength=cells)

    def vector(minima) -> AceVector:
        return AceVector(cfg.depth, tuple(math.inf if v == width else int(v) for v in minima))

    ace_max = vector(_ace_minima(counts.reshape(n_slots, width), width))
    rng = np.random.default_rng(cfg.rng_seed)

    trials_total = 0
    accepted: list[AcceptedTrial] = []
    for e, (i, j) in enumerate(ones):
        draws = [
            (int(rng.integers(1, cfg.q)), int(rng.integers(0, s)))
            for _ in range(cfg.trials_per_edge)
        ]
        trials_total += len(draws)
        keys = [int(log[beta]) * s + shift for beta, shift in draws]

        mine = through[bounds[e] : bounds[e + 1]]
        hit = np.unique(owner[mine])
        rows = _ranges(m_start[hit], m_count[hit])
        always, opened, opened_key = _open_draws(
            np.repeat(np.arange(hit.size), m_count[hit]),
            (edges[rows] == e).any(axis=1),
            log_sum[rows],
            shift_sum[rows],
            int(edge_log[e]),
            int(edge_shift[e]),
            hit.size,
            field,
            s,
        )

        # a draw's ACE vector: the minimum over the fixed part (cycles off e,
        # and cycles open under every draw) and over the cycles it keeps open
        hit_cell = cell[hit]
        was_open = is_open[hit]
        fixed = (
            counts
            - np.bincount(hit_cell[was_open], minlength=cells)
            + np.bincount(hit_cell[always], minlength=cells)
        )
        drawn = np.unique(keys)
        table = np.tile(_ace_minima(fixed.reshape(n_slots, width), width), (drawn.size, 1))
        at = np.minimum(np.searchsorted(drawn, opened_key), drawn.size - 1)
        use = drawn[at] == opened_key
        np.minimum.at(table, (at[use], slot[hit][opened[use]]), ace[hit][opened[use]])
        vectors = {int(key): vector(row) for key, row in zip(drawn, table.tolist())}

        last = None
        for (beta, shift), key in zip(draws, keys):
            vec = vectors[key]
            if lex_compare(ace_max, vec) <= 0:
                ace_max = vec
                accepted.append(AcceptedTrial((i, j), shift, beta, vec.values))
                last = (beta, shift, key)
        if last is None:
            continue

        beta, shift, key = last
        now_open = always.copy()
        now_open[opened[opened_key == key]] = True
        counts += np.bincount(hit_cell[now_open], minlength=cells)
        counts -= np.bincount(hit_cell[was_open], minlength=cells)
        is_open[hit] = now_open
        log_sum[mine] = (log_sum[mine] + log[beta] - edge_log[e]) % order
        shift_sum[mine] = (shift_sum[mine] + shift - edge_shift[e]) % s
        edge_log[e], edge_shift[e] = log[beta], shift
        lifting.assignment[(i, j)] = Monomial(beta, shift)

    cycle_counts: dict[int, tuple[int, int]] = {}
    for k, length in enumerate(range(4, cfg.depth + 1, 2)):
        of_len = slot == k
        still_open = int(np.count_nonzero(is_open & of_len))
        cycle_counts[length] = (still_open, int(np.count_nonzero(of_len)) - still_open)

    report = ConstructionReport(
        ace=ace_max,
        cycle_counts=cycle_counts,
        expanded_girth=expanded_girth(lifting),
        seed=cfg.rng_seed,
        trials_total=trials_total,
        trials_accepted=len(accepted),
        accepted_log=accepted,
        enumeration_truncated=cycles.truncated,
    )
    return lifting, report


def expanded_girth(lifting: Lifting) -> float:
    """Girth of the expanded Tanner graph, read from the per-edge shifts."""
    return girth(lifting.base, lifting.edge_arrays()[1], lifting.s)


# ----------------------------------------------------------------------
# code-parameter bounds
# ----------------------------------------------------------------------
def rate_lower_bound(h: BaseMatrix | tuple[int, int]) -> Fraction:
    """Design-rate lower bound 1 - m/n of an m x n base matrix."""
    if isinstance(h, BaseMatrix):
        m, n = h.m, h.n
    else:
        m, n = h
    if n <= 0:
        raise ValueError("base matrix must have columns")
    return Fraction(n - m, n)


def distance_upper_bound(ell: int | float, m: int) -> int | float:
    """Minimum-distance ceiling floor(l)! * l^(m - floor(l)) * (m + 1).

    Applies to quasi-cyclic codes whose base matrix has m rows and
    column weight l, independently of the circulant size.
    """
    if ell < 1 or m < 1:
        raise ValueError("column weight and row count must be at least 1")
    if isinstance(ell, int) or float(ell).is_integer():
        ell_int = int(ell)
        return math.factorial(ell_int) * ell_int ** (m - ell_int) * (m + 1)
    floor_ell = math.floor(ell)
    return math.factorial(floor_ell) * ell ** (m - floor_ell) * (m + 1)
