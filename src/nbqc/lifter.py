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
with that term fixes (b, z); the rest of B must then land on A).  When
every cycle through e is chordless, with just its two alternate-edge
matchings (always so on a column-weight-2 base), A and B are one term
each and that one draw is read off in closed form; only an edge that
meets a chorded cycle reaches the alignment search.  A rejected redraw
restores the previous state, so the ACE vector a trial sees depends on
its own draw only: the minimum over the fixed cycles (off e, or open
under every draw) and over the cycles that draw keeps open.
The trials of an edge are therefore scored from one such computation, and
the accept/reject scan over them in draw order, with the random draws
made in the same order, reproduces the one-trial-at-a-time construction
exactly.  The matchings depend on the base alone, so they are listed
once, before the first draw, with the matchings through each edge in one
array sorted by edge; their owners are the edge's cycles, from which it
reads the matchings of its cycles and which of those use it.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from typing import ClassVar

import numpy as np

from .base_graph import (
    BaseMatrix,
    Cycle,
    CycleList,
    ace_text,
    all_cycles,
    check_depth,
    cycle_aces,
    girth,
    inf_or_int,
    lifted_edges,
    ranges,
)
from .gf import DEFAULT_PRIMITIVE_POLY, GF

_MATCH_CHUNK = 1 << 12  # cycles per step of the matching search: bounds its arrays


def check_int(name: str, value, low: int) -> int:
    """`value` as an int if it is a non-bool integer >= low; else a ValueError naming `name`."""
    if not isinstance(value, numbers.Integral) or isinstance(value, bool) or value < low:
        raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")
    return int(value)


def check_field_order(name: str, value) -> int:
    """`value` as an int if it is a field order with a default primitive polynomial;
    else a ValueError naming `name`."""
    value = check_int(name, value, 2)
    orders = [1 << p for p in DEFAULT_PRIMITIVE_POLY]
    if value not in orders:
        raise ValueError(
            f"{name} must be a power of 2 from {min(orders)} to {max(orders)}, got {value}"
        )
    return value


@dataclass(frozen=True)
class ConstructionConfig:
    """Inputs of the greedy construction, checked on construction."""

    s: int
    q: int
    depth: int = 8
    trials_per_edge: int = 100
    rng_seed: int = 0
    cycle_cap: int = 100_000
    # the least value of each integer field; cmd_construct checks its flags by it too
    lows: ClassVar[dict[str, int]] = {"s": 2, "trials_per_edge": 1, "rng_seed": 0, "cycle_cap": 1}

    def __post_init__(self) -> None:
        for name, low in self.lows.items():
            object.__setattr__(self, name, check_int(name, getattr(self, name), low))
        object.__setattr__(self, "q", check_field_order("q", self.q))
        object.__setattr__(self, "depth", check_depth(self.depth))

    def make_field(self) -> GF:
        return GF(self.q.bit_length() - 1)


@dataclass(frozen=True)
class Monomial:
    """beta * x^shift: the item type of Lifting.assignment, kept only for it."""

    beta: int
    shift: int


@dataclass(frozen=True, eq=False)
class Lifting:
    """Per base edge t, its coefficient beta[t] and circulant shift[t].

    Read-only int64 arrays, beta in GF(q)\\{0} and shift in [0, s), checked once.
    """

    base: BaseMatrix
    s: int
    field: GF
    beta: np.ndarray
    shift: np.ndarray

    def __post_init__(self) -> None:
        n_edges = self.base.edge_rows.size
        limits = {"shift": ("shift", 0, self.s), "beta": ("coefficient", 1, self.field.q)}
        for name, (what, low, high) in limits.items():
            values = np.asarray(getattr(self, name))
            if values.dtype.kind not in "iu" or values.shape != (n_edges,):
                got = f"{values.dtype} of shape {values.shape}"
                raise ValueError(f"{name} must hold one integer per base edge, got {got}")
            values = values.astype(np.int64)  # a copy, made read-only
            bad = np.flatnonzero((values < low) | (values >= high))
            if bad.size:
                i, j = self.base.edge_rows[bad[0]], self.base.edge_cols[bad[0]]
                raise ValueError(f"{what} out of range at ({i}, {j})")
            values.setflags(write=False)
            object.__setattr__(self, name, values)

    @classmethod
    def trivial(cls, base: BaseMatrix, s: int, field: GF) -> "Lifting":
        """The deterministic baseline: beta=1, shift=0 on every edge."""
        n_edges = base.edge_rows.size
        return cls(base, s, field, np.ones(n_edges, np.int64), np.zeros(n_edges, np.int64))

    @property
    def assignment(self) -> dict[tuple[int, int], Monomial]:
        """{(i, j): Monomial(beta, shift)}; kept only for perfbench/workloads.py's check."""
        pairs = zip(self.beta.tolist(), self.shift.tolist())
        return {pos: Monomial(b, z) for pos, (b, z) in zip(self.base.ones(), pairs)}

    def expand(self) -> np.ndarray:
        """The (m*s) x (n*s) scalar matrix over GF(q).

        Edge (i, j) with monomial beta * x^z puts beta on each of the s
        edges that lifted_edges places for shift z.  A matrix that cannot
        be allocated is a ValueError naming its dimensions.
        """
        s = self.s
        rows, cols = self.base.m * s, self.base.n * s
        dtype = self.field.mul_table.dtype  # read first: a table too big names the field
        try:
            out = np.zeros((rows, cols), dtype=dtype)
        except (MemoryError, ValueError):  # numpy's "array is too big" is a ValueError
            raise ValueError(f"{rows} x {cols} expanded matrix does not fit in memory") from None
        out[lifted_edges(self.base, self.shift, s)] = self.beta[:, None]
        return out


@dataclass(frozen=True)
class AcceptedTrial:
    edge: tuple[int, int]
    shift: int
    beta: int
    ace: tuple[float, ...]

    def format(self) -> str:
        return (
            f"edge=({self.edge[0]},{self.edge[1]}) z={self.shift} "
            f"beta={self.beta} ace={ace_text(self.ace)}"
        )


@dataclass
class ConstructionReport:
    ace: tuple[float, ...]  # per length 4, 6, ..., depth: min ACE of the open cycles
    depth: int
    cycle_counts: dict[int, tuple[int, int]]  # length -> (uneliminated, eliminated)
    expanded_girth: float
    seed: int
    trials_total: int
    trials_accepted: int
    accepted_log: list[AcceptedTrial] = dc_field(default_factory=list)
    enumeration_truncated: bool = False

    def to_dict(self) -> dict:
        return {
            "ace": [inf_or_int(v) for v in self.ace],
            "depth": self.depth,
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
def _cycle_matchings(base: BaseMatrix, cycles: CycleList) -> tuple[np.ndarray, np.ndarray]:
    """Perfect matchings of every cycle's submatrix over its rows x cols.

    Returns (owner, edges), owner ascending when the cycles come by length
    as all_cycles returns them: row t of `edges` is a matching of
    cycles[owner[t]], as base edge numbers.  Matchings of shorter cycles are
    padded with the number of base edges, an edge held at beta = 1, shift 0.

    Partial matchings grow one row of the walk at a time, through each
    still free column the row meets; every perfect matching is one such
    sequence of choices, so each is found once.
    """
    pad = base.edge_rows.size
    half = cycles.lengths // 2
    width = int(half.max(initial=0))
    owners = [np.zeros(0, dtype=np.intp)]
    found = [np.zeros((0, width), dtype=np.int32)]
    for k in np.unique(half).tolist():
        ids = np.flatnonzero(half == k)
        rows, cols = cycles.rows[ids, :k], cycles.cols[ids, :k]
        bit = 1 << np.arange(k)
        for lo in range(0, len(ids), _MATCH_CHUNK):
            chunk = slice(lo, lo + _MATCH_CHUNK)
            # sub[c, t, p]: the edge joining row t to column p of cycle c, -1 if none
            sub = base.edge_index[rows[chunk, :, None], cols[chunk, None, :]]
            owner = np.arange(len(sub))
            used = np.zeros(len(sub), dtype=np.intp)  # bit p: column p is matched
            block = np.full((len(sub), width), pad, dtype=np.int32)
            for t in range(k):
                step = sub[owner, t]
                which, p = np.nonzero((step >= 0) & (used[:, None] & bit == 0))
                owner, used, block = owner[which], used[which] | bit[p], block[which]
                block[:, t] = step[which, p]
            owners.append(ids[lo + owner])
            found.append(block)
    return np.concatenate(owners), np.concatenate(found)


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


def cycles_eliminated(lifting: Lifting, cycles: CycleList) -> np.ndarray:
    """Per cycle, whether its polynomial submatrix has nonzero determinant.

    The determinant is the per-shift xor of the matching terms of the
    submatrix over rows(cycle) x cols(cycle) (see the module docstring).
    """
    log, exp = lifting.field.log_table, lifting.field.exp_table
    s = lifting.s
    # per-edge arrays plus the padding edge
    edge_log = np.append(log[lifting.beta], 0)
    edge_shift = np.append(lifting.shift, 0)
    owner, edges = _cycle_matchings(lifting.base, cycles)
    # each matching's term: the log (mod q - 1) of its coefficient, and its shift
    log_sum = edge_log[edges].sum(axis=1) % (lifting.field.q - 1)
    shift_sum = edge_shift[edges].sum(axis=1) % s
    nonzero, _, _ = _xor_terms(owner, shift_sum, exp[log_sum], s)
    eliminated = np.zeros(len(cycles), dtype=bool)
    eliminated[nonzero] = True
    return eliminated


def cycle_eliminated(lifting: Lifting, cycle: Cycle) -> bool:
    """True when the cycle's polynomial submatrix has nonzero determinant."""
    return bool(cycles_eliminated(lifting, CycleList.from_cycles([cycle]))[0])


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
    Chordless cycles are read in closed form, any others by aligning the
    terms of A and B (see the module docstring).
    """
    log, exp = field.log_table, field.exp_table
    order = field.q - 1
    avoid = ~has_e
    if local.size == 2 * n_cycles:
        # every cycle is chordless: A and B are one term each, so the one draw
        # that moves B's term onto A's keeps the cycle open
        lg = (log_sum[avoid] - log_sum[has_e] + e_log) % order
        z = (shift_sum[avoid] - shift_sum[has_e] + e_shift) % s
        return np.zeros(n_cycles, dtype=bool), np.arange(n_cycles), lg * s + z
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
    u = ranges(first, n)
    moved = (g[cand] * s + (zb[u] + z[cand]) % s) * order + (lb[u] + lg[cand]) % order
    terms_a = (ga * s + za) * order + la  # strictly increasing
    at = np.minimum(np.searchsorted(terms_a, moved), max(terms_a.size - 1, 0))
    ok = np.bincount(cand[terms_a[at] != moved], minlength=t.size) == 0
    return always, g[ok], lg[ok] * s + z[ok]


def _ace_minima(counts: np.ndarray) -> np.ndarray:
    """Per row, the first column with a nonzero count, as a float; inf for an empty row."""
    present = counts > 0
    return np.where(present.any(axis=-1), present.argmax(axis=-1), math.inf)


def greedy_lift(
    h: BaseMatrix, cfg: ConstructionConfig
) -> tuple[Lifting, ConstructionReport]:
    """Run the randomized greedy edge assignment; reproducible per seed."""
    n_edges = h.edge_rows.size
    if n_edges == 0:
        raise ValueError("base matrix has no edges to lift")
    field = cfg.make_field()
    s = cfg.s
    log, exp = field.log_table, field.exp_table
    order = field.q - 1

    cycles = all_cycles(h, cfg.depth, cap=cfg.cycle_cap)
    owner, edges = _cycle_matchings(h, cycles)
    # cycle c's matchings are rows m_start[c] .. m_start[c] + m_count[c] - 1
    m_start = np.searchsorted(owner, np.arange(len(cycles)))
    m_count = np.bincount(owner, minlength=len(cycles))
    # the matchings that use edge e, ascending: match[e_ptr[e]:e_ptr[e + 1]]; a radix
    # sort on the smallest unsigned type leaves the padding edge's entries last
    flat = edges.ravel()
    e_ptr = np.concatenate(([0], np.cumsum(np.bincount(flat, minlength=n_edges + 1)[:n_edges])))
    match = np.argsort(flat.astype(np.min_scalar_type(n_edges)), kind="stable")[: e_ptr[-1]]
    match = match.astype(np.int32) // edges.shape[1]
    del flat, edges  # the largest arrays; the trial loop reads match instead
    # every edge starts at beta = 1, shift 0: each matching's term is x^0
    edge_log = np.zeros(n_edges, dtype=np.int64)
    edge_shift = np.zeros(n_edges, dtype=np.int64)
    log_sum = np.zeros(len(owner), dtype=np.int64)
    shift_sum = np.zeros(len(owner), dtype=np.int64)

    ace = cycle_aces(h, cycles)
    slot = cycles.lengths // 2 - 2  # position of the length in the ACE vector
    n_slots = cfg.depth // 2 - 1
    width = int(ace.max(initial=0)) + 1  # counts per slot, one per ACE value
    cell = slot * width + ace
    cells = n_slots * width

    # the x^0 terms of an even number of matchings cancel
    is_open = m_count % 2 == 0
    counts = np.bincount(cell[is_open], minlength=cells)
    ace_max = tuple(_ace_minima(counts.reshape(n_slots, width)).tolist())
    rng = np.random.default_rng(cfg.rng_seed)
    n_trials = cfg.trials_per_edge

    accepted: list[AcceptedTrial] = []
    for e, (i, j) in enumerate(h.ones()):
        # one call draws the edge's trials as (beta, shift) pairs, in the order
        # that alternating scalar draws of beta and shift would make them
        draws = rng.integers([1, 0], [cfg.q, s], size=(n_trials, 2))
        keys = log[draws[:, 0]] * s + draws[:, 1]

        mine = match[e_ptr[e] : e_ptr[e + 1]]
        # e's cycles, each once: the owners of its matchings (match and owner both ascend)
        own = owner[mine]
        first = np.ones(own.size, dtype=bool)
        first[1:] = own[1:] != own[:-1]
        hit = own[first]
        # the matchings of e's cycles, cycle by cycle: ascending, so e's own are found by search
        per_cycle = m_count[hit]
        rows = ranges(m_start[hit], per_cycle)
        uses = np.zeros(rows.size, dtype=bool)
        uses[np.searchsorted(rows, mine)] = True
        always, opened, opened_key = _open_draws(
            np.repeat(np.arange(hit.size), per_cycle),
            uses,
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
        table = np.tile(_ace_minima(fixed.reshape(n_slots, width)), (drawn.size, 1))
        at = np.minimum(np.searchsorted(drawn, opened_key), drawn.size - 1)
        use = drawn[at] == opened_key
        kept = hit[opened[use]]
        np.minimum.at(table, (at[use], slot[kept]), ace[kept])
        vectors = dict(zip(drawn.tolist(), map(tuple, table.tolist())))

        last = None
        for (beta, shift), key in zip(draws.tolist(), keys.tolist()):
            vec = vectors[key]
            if ace_max <= vec:
                ace_max = vec
                accepted.append(AcceptedTrial((i, j), shift, beta, vec))
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

    lifting = Lifting(h, s, field, exp[edge_log], edge_shift)
    cycle_counts: dict[int, tuple[int, int]] = {}
    for k, length in enumerate(range(4, cfg.depth + 1, 2)):
        of_len = slot == k
        still_open = int(np.count_nonzero(is_open & of_len))
        cycle_counts[length] = (still_open, int(np.count_nonzero(of_len)) - still_open)

    report = ConstructionReport(
        ace=ace_max,
        depth=cfg.depth,
        cycle_counts=cycle_counts,
        expanded_girth=expanded_girth(lifting),
        seed=cfg.rng_seed,
        trials_total=n_trials * n_edges,
        trials_accepted=len(accepted),
        accepted_log=accepted,
        enumeration_truncated=cycles.truncated,
    )
    return lifting, report


def expanded_girth(lifting: Lifting) -> float:
    """Girth of the expanded Tanner graph, read from the per-edge shifts."""
    return girth(lifting.base, lifting.shift, lifting.s)


# ----------------------------------------------------------------------
# code-parameter bounds
# ----------------------------------------------------------------------
def rate_lower_bound(h: BaseMatrix) -> Fraction:
    """Design-rate lower bound 1 - m/n of an m x n base matrix."""
    return Fraction(h.n - h.m, h.n)


def distance_upper_bound(ell: int, m: int) -> int:
    """Minimum-distance ceiling l! * l^(m - l) * (m + 1).

    Applies to quasi-cyclic codes whose base matrix has m rows and
    uniform column weight l, independently of the circulant size.
    """
    if ell < 1 or m < 1:
        raise ValueError("column weight and row count must be at least 1")
    return math.factorial(ell) * ell ** (m - ell) * (m + 1)
