"""Binary base matrices, their Tanner graphs, short cycles and ACE values.

The Tanner graph of an m x n binary matrix H has one variable node per
column and one check node per row, with an edge wherever an entry is 1.
A cycle of length 2k alternates between k distinct rows and k distinct
columns; we store it as its oriented walk, the k columns in visiting
order and the k rows that join each column to the next.

The ACE value of a cycle counts the edges leaving its variable nodes to
checks outside the cycle, i.e. the sum of (column degree - 2) over the
columns it visits.  The ACE vector collects, per cycle length, the
minimum ACE over the cycles of that length that survive whatever
filtering the caller applies (infinity when none survive); vectors are
compared lexicographically and bigger is better.
"""

from __future__ import annotations

import functools
import math
import numbers
import operator
import warnings
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np


def content_lines(text: str) -> list[tuple[int, str]]:
    """(1-based line number, content) of each non-blank line, '#' comments cut."""
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if stripped:
            out.append((lineno, stripped))
    return out


class BaseMatrix:
    """Immutable binary m x n matrix with its edges numbered once.

    Edge t joins row edge_rows[t] to column edge_cols[t]; edges are numbered
    column by column, rows ascending (read-only int arrays).
    """

    def __init__(self, bits) -> None:
        arr = np.array(bits, dtype=np.int8)
        if arr.ndim != 2 or arr.size == 0:
            raise ValueError("base matrix must be a non-empty 2-D array")
        if not np.isin(arr, (0, 1)).all():
            raise ValueError("base matrix entries must be 0 or 1")
        arr.setflags(write=False)
        self.bits = arr
        self.m, self.n = arr.shape
        self.column_degrees = tuple(int(d) for d in arr.sum(axis=0))
        self.row_degrees = tuple(int(d) for d in arr.sum(axis=1))
        self.edge_cols, self.edge_rows = np.nonzero(arr.T)
        self.edge_cols.setflags(write=False)
        self.edge_rows.setflags(write=False)

    @functools.cached_property
    def edge_index(self) -> np.ndarray:
        """(m, n) read-only table of the edge number at each 1, -1 at each 0."""
        index = np.full((self.m, self.n), -1, dtype=np.int32)
        index[self.edge_rows, self.edge_cols] = np.arange(self.edge_rows.size)
        index.setflags(write=False)
        return index

    def ones(self) -> list[tuple[int, int]]:
        """(row, col) of each edge, in edge order."""
        return list(zip(self.edge_rows.tolist(), self.edge_cols.tolist()))

    # ------------------------------------------------------------------
    # text format: first line "m n", then m lines of n 0/1 entries;
    # blank lines and '#' comments are ignored.
    # ------------------------------------------------------------------
    @classmethod
    def from_text(cls, text: str) -> "BaseMatrix":
        lines = content_lines(text)
        if not lines:
            raise ValueError("empty base matrix file")
        header = lines[0][0]
        try:
            m, n = (int(tok) for tok in lines[0][1].split())
        except ValueError as exc:
            raise ValueError(
                f"line {header}: expected header 'm n', got {lines[0][1]!r}"
            ) from exc
        if m <= 0 or n <= 0:
            raise ValueError(f"line {header}: non-positive dimensions")
        if len(lines) - 1 != m:
            # missing rows: blame the header; extra rows: the first extra one
            where = header if len(lines) - 1 < m else lines[m + 1][0]
            raise ValueError(f"line {where}: expected {m} matrix rows, found {len(lines) - 1}")
        rows = []
        for lineno, content in lines[1:]:
            toks = content.split()
            if len(toks) != n:
                raise ValueError(f"line {lineno}: expected {n} entries, got {len(toks)}")
            try:
                row = [int(t) for t in toks]
            except ValueError as exc:
                raise ValueError(f"line {lineno}: non-integer entry") from exc
            if any(v not in (0, 1) for v in row):
                raise ValueError(f"line {lineno}: entries must be 0 or 1")
            rows.append(row)
        return cls(rows)

    @classmethod
    def from_file(cls, path) -> "BaseMatrix":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_text(fh.read())

    def to_text(self) -> str:
        body = "\n".join(" ".join(str(int(v)) for v in row) for row in self.bits)
        return f"{self.m} {self.n}\n{body}\n"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, BaseMatrix) and np.array_equal(self.bits, other.bits)

    def __hash__(self) -> int:
        return hash((self.m, self.n, self.bits.tobytes()))

    def __repr__(self) -> str:
        return f"BaseMatrix({self.m}x{self.n}, {int(self.bits.sum())} ones)"


def weight2_base(m: int, n: int) -> BaseMatrix:
    """A column-weight-2 m x n base matrix.

    Column j joins row pair number j mod C(m, 2), the pairs taken in
    lexicographic order (0, 1), (0, 2), ..., (m-2, m-1).
    """
    pairs = [(a, b) for a in range(m) for b in range(a + 1, m)]
    bits = np.zeros((m, n), dtype=int)
    for j in range(n):
        a, b = pairs[j % len(pairs)]
        bits[a, j] = bits[b, j] = 1
    return BaseMatrix(bits)


@dataclass(frozen=True, slots=True)
class Cycle:
    """A cycle as its oriented walk: row rows[t] joins cols[t] to cols[t + 1].

    The walk starts at the smallest column and runs in the direction whose
    first row is the smaller, so two Cycle objects are equal iff they
    describe the same cycle.
    """

    cols: tuple[int, ...]
    rows: tuple[int, ...]

    @property
    def length(self) -> int:
        return 2 * len(self.cols)


class CycleList(Sequence):
    """Cycles held as padded walk arrays; an item becomes a Cycle only when read.

    Row t of `cols` and `rows` is cycle t's walk (see Cycle), padded with -1
    beyond its length // 2 entries.  `truncated` tells whether a cycle cap
    dropped cycles from the enumeration that made the list.
    """

    def __init__(self, cols: np.ndarray, rows: np.ndarray, truncated: bool = False) -> None:
        cols.setflags(write=False)
        rows.setflags(write=False)
        self.cols, self.rows, self.truncated = cols, rows, truncated
        self.lengths = 2 * (cols >= 0).sum(axis=1)

    @classmethod
    def from_cycles(cls, cycles) -> "CycleList":
        """The walk arrays of a sequence of Cycle objects."""
        width = max((len(c.cols) for c in cycles), default=2)
        cols = np.full((len(cycles), width), -1, dtype=np.int32)
        rows = cols.copy()
        for t, c in enumerate(cycles):
            cols[t, : len(c.cols)] = c.cols
            rows[t, : len(c.rows)] = c.rows
        return cls(cols, rows)

    def __len__(self) -> int:
        return len(self.cols)

    def __getitem__(self, t) -> Cycle:
        t = range(len(self))[operator.index(t)]  # negative counts from the end
        k = self.lengths[t] // 2
        return Cycle(tuple(self.cols[t, :k].tolist()), tuple(self.rows[t, :k].tolist()))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (list, CycleList)):
            return NotImplemented
        return len(self) == len(other) and list(self) == list(other)


MAX_DEPTH = 12  # the paper's 8x66 base has 332,458 cycles up to length 12, 276,720 of length 12
_WALK_CHUNK = 1 << 12  # open walks per step of the cycle enumeration: bounds its arrays


def check_depth(depth, name: str = "depth") -> int:
    """`depth` as an int if it is an even integer from 4 to MAX_DEPTH; else a ValueError
    naming `name`."""
    if not isinstance(depth, numbers.Integral) or isinstance(depth, bool):
        raise ValueError(f"{name} must be an integer, got {depth!r}")
    if depth < 4 or depth % 2:
        raise ValueError(f"{name} must be even and at least 4")
    if depth > MAX_DEPTH:
        raise ValueError(f"{name} above {MAX_DEPTH} is not supported")
    return int(depth)


def ranges(start: np.ndarray, count: np.ndarray) -> np.ndarray:
    """Concatenation of arange(start[t], start[t] + count[t]) over t."""
    offset = np.cumsum(count) - count
    return np.repeat(start - offset, count) + np.arange(int(count.sum()))


class _WalkTables:
    """The base's adjacency as flat arrays, read by every step of _grow_walks."""

    def __init__(self, h: BaseMatrix) -> None:
        self.n = h.n
        self.bits = h.bits.astype(bool)
        # each column's rows and each row's columns: item t is flat[ptr[t]:ptr[t + 1]]
        self.col_ptr = np.concatenate(([0], np.cumsum(h.column_degrees)))
        self.col_rows = h.edge_rows.astype(np.int32)
        self.row_ptr = np.concatenate(([0], np.cumsum(h.row_degrees)))
        self.row_cols = np.nonzero(h.bits)[1].astype(np.int32)
        # after[i, j]: where the columns of row i above column j begin in row_cols
        self.after = self.row_ptr[:-1, None] + np.cumsum(h.bits, axis=1)
        # the steps that close a walk from start column j: from row i to column
        # j2 > j, then back to j through row i2 != i, sorted by (i, j, j2, i2)
        deg = np.diff(self.col_ptr)[h.edge_cols]  # edge e and edge e2 != e of its column j2
        e = np.repeat(np.arange(deg.size), deg)
        e2 = ranges(self.col_ptr[h.edge_cols], deg)
        e, e2 = e[e != e2], e2[e != e2]
        i2, j2 = h.edge_rows[e2], h.edge_cols[e2]
        below = self.after[i2, j2] - 1 - self.row_ptr[i2]  # the columns j < j2 of row i2
        u = np.repeat(np.arange(e.size), below)
        key = h.edge_rows[e[u]] * h.n + self.row_cols[ranges(self.row_ptr[i2], below)]
        order = np.lexsort((i2[u], j2[u], key))
        self.close_col, self.close_row = (a[u[order]].astype(np.int32) for a in (j2, i2))
        self.close_ptr = np.searchsorted(key[order], np.arange(h.m * h.n + 1))


def _grow_walks(tab: _WalkTables, cols: np.ndarray, rows: np.ndarray, max_k: int, out: list):
    """Append to out[k], as (cols, rows) arrays, the k-column cycles that extend the open walks.

    Walk w has visited the columns cols[w], from its start column cols[w, 0]
    up, joined by the rows rows[w]; every later column lies above the start.
    Each walk takes each new row i of its last column.  When i meets the
    start column the walk closes into a cycle.  Below max_k columns it goes
    on to each new column of i, and the walks that have one more column to
    take read it, with the row that closes them, from the tables.  A cycle
    is kept in the direction whose first row is below its closing row.
    """
    width = cols.shape[1]
    start = cols[:, 0]
    last = cols[:, -1]
    count = tab.col_ptr[last + 1] - tab.col_ptr[last]
    w = np.repeat(np.arange(len(cols)), count)
    i = tab.col_rows[ranges(tab.col_ptr[last], count)]
    keep = (rows[w] != i[:, None]).all(axis=1)
    w, i = w[keep], i[keep]
    if width > 1:
        first = rows[w, 0]
        shut = tab.bits[i, start[w]] & (first < i)
        out[width].append((cols[w[shut]], np.column_stack((rows[w[shut]], i[shut]))))
    else:
        first = i
    if width + 1 < max_k:  # the next column is not the last: open walks
        lo = tab.after[i, start[w]]
        count = tab.row_ptr[i + 1] - lo
        u = np.repeat(np.arange(len(w)), count)
        j2 = tab.row_cols[ranges(lo, count)]
        wu = w[u]
        keep = (cols[wu] != j2[:, None]).all(axis=1)
        cols2 = np.column_stack((cols[wu[keep]], j2[keep]))
        rows2 = np.column_stack((rows[wu[keep]], i[u[keep]]))
        for lo in range(0, len(cols2), _WALK_CHUNK):
            chunk = slice(lo, lo + _WALK_CHUNK)
            _grow_walks(tab, cols2[chunk], rows2[chunk], max_k, out)
    else:  # the last column and its closing row
        key = i * tab.n + start[w]
        lo = tab.close_ptr[key]
        count = tab.close_ptr[key + 1] - lo
        u = np.repeat(np.arange(len(w)), count)
        at = ranges(lo, count)
        j2, i2 = tab.close_col[at], tab.close_row[at]
        wu = w[u]
        keep = (
            (cols[wu] != j2[:, None]).all(axis=1)
            & (rows[wu] != i2[:, None]).all(axis=1)
            & (first[u] < i2)
        )
        wu, u = wu[keep], u[keep]
        out[width + 1].append(
            (
                np.column_stack((cols[wu], j2[keep])),
                np.column_stack((rows[wu], i[u], i2[keep])),
            )
        )


def all_cycles(h: BaseMatrix, depth: int, cap: int | None = None) -> CycleList:
    """Every cycle of length <= depth, each once, as its oriented walk.

    A cycle is the walk cols[0], rows[0], cols[1], ..., cols[k-1], rows[k-1]
    of Cycle.  Cycles come by length, ascending, and each length in walk
    order: sorted by that sequence, compared entry by entry.  This is the
    order of a depth-first walk from each column over larger columns, rows
    taken before the columns they lead to, each ascending, a cycle recorded
    as the walk closes back to its start.  `cap` keeps the first `cap`
    cycles, in that order, of each (length, smallest column); `.truncated`
    tells whether it dropped any, and each (length, column) it cut warns
    once, in that order.

    Walks grow one (row, column) step at a time as integer arrays of at
    most _WALK_CHUNK walks, so memory stays bounded at any depth.
    """
    check_depth(depth)
    max_k = depth // 2
    tab = _WalkTables(h)
    # int32 walks halve the memory a deep enumeration holds
    start = np.arange(h.n, dtype=np.int32)[:, None]
    found: list = [[] for _ in range(max_k + 1)]
    _grow_walks(tab, start, np.zeros((h.n, 0), dtype=np.int32), max_k, found)
    found = [piece for width in found for piece in width][::-1]  # popped from the end
    # one row per cycle, padded with -1
    cols = np.full((sum(len(c) for c, _ in found), max_k), -1, dtype=np.int32)
    rows = cols.copy()
    at = 0
    while found:  # each piece freed once copied
        c, r = found.pop()
        cols[at : at + len(c), : c.shape[1]] = c
        rows[at : at + len(r), : r.shape[1]] = r
        at += len(c)
    truncated = False
    if cap is not None:
        # each (length, smallest column) is one run of a key that never decreases
        group = (cols >= 0).sum(axis=1) * h.n + cols[:, 0]
        keep = np.arange(len(group)) - np.searchsorted(group, group) < cap
        for g in np.unique(group[~keep]).tolist():
            k, j = divmod(g, h.n)
            warnings.warn(
                f"cycle cap {cap} reached for length {2 * k} at column {j}; "
                "enumeration truncated",
                stacklevel=2,
            )
        truncated = not keep.all()
        cols, rows = cols[keep], rows[keep]
    return CycleList(cols, rows, truncated)


def cycle_ace(h: BaseMatrix, c: Cycle) -> int:
    """Edges leaving the cycle's variable nodes: sum of (degree - 2)."""
    return sum(h.column_degrees[j] - 2 for j in c.cols)


def cycle_aces(h: BaseMatrix, cycles: CycleList) -> np.ndarray:
    """cycle_ace of every cycle of the list."""
    excess = np.append(np.array(h.column_degrees) - 2, 0)  # the padding -1 reads the 0
    return excess[cycles.cols].sum(axis=1)


def inf_or_int(v: float) -> int | str:
    """An ACE value or a girth as printed and reported: the integer, or "inf"."""
    return "inf" if math.isinf(v) else int(v)


def ace_text(ace: tuple[float, ...]) -> str:
    """An ACE vector as printed: "(0, inf)", and "(inf)" for one entry."""
    return "(" + ", ".join(str(inf_or_int(v)) for v in ace) + ")"


def lifted_edges(h: BaseMatrix, shift=None, s: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """(check, variable) indices of every edge of the s-lift of a base.

    Base edges come in edge order, one row of the two (edges, s) arrays
    each.  Base edge (i, j) with circulant shift z joins variable j*s + t
    to check i*s + (t + z) % s, for t = 0..s-1.  `shift` holds one z per
    base edge; None means every shift is 0.
    """
    z = 0 if shift is None else np.asarray(shift)[:, None]
    t = np.arange(s)
    return h.edge_rows[:, None] * s + (t + z) % s, h.edge_cols[:, None] * s + t


def girth(h: BaseMatrix, shift=None, s: int = 1) -> float:
    """Length of the shortest Tanner-graph cycle; math.inf when acyclic.

    With `shift` (one circulant shift per base edge, in edge order) and
    `s`, the graph is the s-lift of the base, built from lifted_edges.

    The BFS starts from the first variable node of each column block.
    Shifting every circulant block by one at once maps the lifted graph
    onto itself, and that automorphism acts transitively on the s variable
    nodes of a column block; some shortest cycle therefore passes through
    a block's first node.  With s = 1 every variable node is a start.
    """
    m, n = h.m, h.n
    checks, variables = lifted_edges(h, shift, s)
    total = (n + m) * s  # variable nodes 0..n*s-1, then the check nodes
    adj: list[list[int]] = [[] for _ in range(total)]
    for i, j in zip((checks + n * s).ravel().tolist(), variables.ravel().tolist()):
        adj[j].append(i)
        adj[i].append(j)

    best = math.inf
    dist = [-1] * total
    parent = [-1] * total
    stamp = [0] * total
    run = 0
    for src in range(0, n * s, s):
        run += 1
        if best == 4:
            break  # bipartite minimum; nothing shorter exists
        stamp[src] = run
        dist[src] = 0
        parent[src] = -1
        queue = [src]
        head = 0
        while head < len(queue):
            u = queue[head]
            head += 1
            du = dist[u]
            if 2 * du + 1 >= best:
                break
            for w in adj[u]:
                if stamp[w] != run:
                    stamp[w] = run
                    dist[w] = du + 1
                    parent[w] = u
                    queue.append(w)
                elif w != parent[u]:
                    length = du + dist[w] + 1
                    if length < best:
                        best = length
    return best
