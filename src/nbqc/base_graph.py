"""Binary base matrices, their Tanner graphs, short cycles and ACE values.

The Tanner graph of an m x n binary matrix H has one variable node per
column and one check node per row, with an edge wherever an entry is 1.
A cycle of length 2k alternates between k distinct rows and k distinct
columns; we store it as the closed sequence of its (row, col) positions.

The ACE value of a cycle counts the edges leaving its variable nodes to
checks outside the cycle, i.e. the sum of (column degree - 2) over the
columns it visits.  The ACE vector collects, per cycle length, the
minimum ACE over the cycles of that length that survive whatever
filtering the caller applies (infinity when none survive); vectors are
compared lexicographically and bigger is better.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

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
    """Immutable binary m x n matrix plus Tanner-graph adjacency views."""

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
        self.rows_of_col = tuple(
            tuple(int(i) for i in np.nonzero(arr[:, j])[0]) for j in range(self.n)
        )
        self.cols_of_row = tuple(
            tuple(int(j) for j in np.nonzero(arr[i, :])[0]) for i in range(self.m)
        )

    def ones(self) -> list[tuple[int, int]]:
        """Nonzero positions in column-major order (col, then row ascending)."""
        return [(i, j) for j in range(self.n) for i in self.rows_of_col[j]]

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


@dataclass(frozen=True)
class Diagnostics:
    m: int
    n: int
    column_degrees: tuple[int, ...]
    row_degrees: tuple[int, ...]
    rate_lower_bound: Fraction
    column_regular: bool
    column_weight: int | None
    warnings: tuple[str, ...]


def validate(h: BaseMatrix) -> Diagnostics:
    """Degree profiles and the rate lower bound 1 - m/n of a base matrix."""
    if int(h.bits.sum()) == 0:
        raise ValueError("degenerate base matrix: no nonzero entries")
    notes = []
    if any(d == 0 for d in h.column_degrees):
        notes.append("matrix has all-zero columns")
    if any(d == 0 for d in h.row_degrees):
        notes.append("matrix has all-zero rows")
    regular = len(set(h.column_degrees)) == 1
    return Diagnostics(
        m=h.m,
        n=h.n,
        column_degrees=h.column_degrees,
        row_degrees=h.row_degrees,
        rate_lower_bound=Fraction(h.n - h.m, h.n),
        column_regular=regular,
        column_weight=h.column_degrees[0] if regular else None,
        warnings=tuple(notes),
    )


@dataclass(frozen=True)
class Cycle:
    """Closed alternating (row, col) walk in canonical orientation.

    Canonical form: rotated so the smallest (row, col) edge comes first,
    then the lexicographically smaller of the two directions.  Two Cycle
    objects are equal iff they describe the same cycle.
    """

    edges: tuple[tuple[int, int], ...]

    @property
    def length(self) -> int:
        return len(self.edges)

    @cached_property
    def rows(self) -> frozenset[int]:
        return frozenset(i for i, _ in self.edges)

    @cached_property
    def cols(self) -> frozenset[int]:
        return frozenset(j for _, j in self.edges)

    @classmethod
    def from_walk(cls, cols: list[int], rows: list[int]) -> "Cycle":
        """Build from the column/row visit sequence: row t joins col t to col t+1."""
        k = len(cols)
        if k != len(rows) or k < 2:
            raise ValueError("walk needs k >= 2 columns and as many rows")
        edges = []
        for t in range(k):
            edges.append((rows[t], cols[t]))
            edges.append((rows[t], cols[(t + 1) % k]))
        return cls(_canonical_edges(edges))

    def check_against(self, h: BaseMatrix) -> None:
        """Raise unless this is a well-formed cycle of h."""
        n = self.length
        if n < 4 or n % 2:
            raise ValueError("cycle length must be even and at least 4")
        if len(set(self.edges)) != n:
            raise ValueError("cycle edges must be distinct")
        if len(self.rows) != n // 2 or len(self.cols) != n // 2:
            raise ValueError("cycle must visit length/2 distinct rows and columns")
        for i, j in self.edges:
            if not h.bits[i, j]:
                raise ValueError(f"cycle uses zero position ({i}, {j})")
        for t in range(n):
            a, b = self.edges[t], self.edges[(t + 1) % n]
            shared_row, shared_col = a[0] == b[0], a[1] == b[1]
            if shared_row == shared_col:
                raise ValueError("consecutive edges must share exactly a row or a column")


def _canonical_edges(edges: list) -> tuple[tuple[int, int], ...]:
    start = edges.index(min(edges))
    fwd = tuple(edges[start:] + edges[:start])
    bwd = tuple(edges[start::-1] + edges[:start:-1])
    return min(fwd, bwd)


class CycleList(list):
    """Cycles found by an enumeration, plus whether a cycle cap cut it short."""

    truncated = False


def check_depth(depth: int) -> None:
    """Reject a cycle depth that is odd or below the shortest cycle, 4."""
    if depth < 4 or depth % 2:
        raise ValueError("depth must be even and at least 4")


def _walk_cycles(
    h: BaseMatrix, j: int, depth: int, cap: int | None, above_only: bool
) -> CycleList:
    """The cycles through column j, as cycles_through finds them.

    With `above_only` the walk never steps to a column below j, so it finds
    exactly the cycles whose smallest column is j.  The search order is
    deterministic, so truncation by `cap` is reproducible.
    """
    if not 0 <= j < h.n:
        raise ValueError(f"column index {j} out of range")
    check_depth(depth)
    max_k = depth // 2
    lowest = j + 1 if above_only else 0
    closes = set(h.rows_of_col[j])
    # per column, its rows that also meet column j, in rows_of_col order
    closing = [[i for i in rows if i in closes] for rows in h.rows_of_col]
    found = CycleList()
    per_length: dict[int, int] = {}
    capped_lengths: set[int] = set()
    cols_path = [j]
    rows_path: list[int] = []
    cols_used = {j}
    rows_used: set[int] = set()

    def record(close_row: int) -> None:
        length = 2 * len(cols_path)
        count = per_length.get(length, 0)
        if cap is not None and count >= cap:
            if length not in capped_lengths:
                capped_lengths.add(length)
                found.truncated = True
                warnings.warn(
                    f"cycle cap {cap} reached for length {length} at column {j}; "
                    "enumeration truncated",
                    stacklevel=3,
                )
            return
        per_length[length] = count + 1
        found.append(Cycle.from_walk(cols_path, rows_path + [close_row]))

    def dfs() -> None:
        current = cols_path[-1]
        k = len(cols_path)
        for i in h.rows_of_col[current]:
            if i in rows_used:
                continue
            # close back to the start column; rows_path[0] < i fixes direction
            if k >= 2 and i in closes and rows_path[0] < i:
                record(i)
            rows_used.add(i)
            rows_path.append(i)
            for j2 in h.cols_of_row[i]:
                if j2 < lowest or j2 in cols_used:
                    continue
                if k + 1 == max_k:
                    # the last column can only close the walk: the body of
                    # dfs() at that depth, inlined
                    for i2 in closing[j2]:
                        if i2 not in rows_used and rows_path[0] < i2:
                            cols_path.append(j2)
                            record(i2)
                            cols_path.pop()
                    continue
                cols_used.add(j2)
                cols_path.append(j2)
                dfs()
                cols_path.pop()
                cols_used.discard(j2)
            rows_path.pop()
            rows_used.discard(i)

    dfs()
    return found


def cycles_through(
    h: BaseMatrix, j: int, depth: int, cap: int | None = None
) -> list[Cycle]:
    """All distinct cycles through column j with length <= depth.

    Found by depth-limited alternating DFS walks starting at the variable
    node; each cycle is reported once, in canonical form.  When `cap`
    cycles of one length have been collected, further cycles of that
    length are dropped with a warning.
    """
    return _walk_cycles(h, j, depth, cap, above_only=False)


def all_cycles(h: BaseMatrix, depth: int, cap: int | None = None) -> CycleList:
    """Every cycle of length <= depth, each found once from its smallest column.

    The order is that of the union of cycles_through over the columns in
    ascending order with repeats dropped: a cycle first turns up in the
    walk from its smallest column, and restricting that walk to larger
    columns removes only walks through other cycles.  `cap` bounds the
    cycles per (smallest column, length); `.truncated` tells whether it
    dropped any.
    """
    out = CycleList()
    for j in range(h.n):
        found = _walk_cycles(h, j, depth, cap, above_only=True)
        out.extend(found)
        out.truncated |= found.truncated
    return out


def cycle_ace(h: BaseMatrix, c: Cycle) -> int:
    """Edges leaving the cycle's variable nodes: sum of (degree - 2)."""
    return sum(h.column_degrees[j] - 2 for j in c.cols)


@dataclass(frozen=True)
class AceVector:
    """Per-length minimum ACE values (e_4, e_6, ...), inf for empty lengths."""

    depth: int
    values: tuple[float, ...]

    def __post_init__(self) -> None:
        check_depth(self.depth)
        if len(self.values) != self.depth // 2 - 1:
            raise ValueError(
                f"expected {self.depth // 2 - 1} entries for depth {self.depth}"
            )
        if any(v < 0 for v in self.values):
            raise ValueError("ACE entries must be non-negative")

    def __str__(self) -> str:
        body = ", ".join(str(inf_or_int(v)) for v in self.values)
        return f"({body})"


def inf_or_int(v: float) -> int | str:
    """An ACE value or a girth as printed and reported: the integer, or "inf"."""
    return "inf" if math.isinf(v) else int(v)


def ace_vector(
    h: BaseMatrix,
    cycles_with_status: list[tuple[Cycle, bool]],
    depth: int,
) -> AceVector:
    """Minimum ACE per length over cycles whose eliminated flag is False."""
    best: dict[int, float] = {length: math.inf for length in range(4, depth + 1, 2)}
    for cycle, eliminated in cycles_with_status:
        if eliminated:
            continue
        if cycle.length > depth:
            continue
        ace = cycle_ace(h, cycle)
        if ace < best[cycle.length]:
            best[cycle.length] = ace
    return AceVector(depth, tuple(best[length] for length in range(4, depth + 1, 2)))


def lex_compare(a: AceVector, b: AceVector) -> int:
    """-1, 0 or 1 for a <, =, > b under lexicographic order (inf beats any int)."""
    if a.depth != b.depth:
        raise ValueError(f"depth mismatch: {a.depth} != {b.depth}")
    if a.values < b.values:
        return -1
    if a.values > b.values:
        return 1
    return 0


def lifted_edges(pattern, shift=None, s: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """(check, variable) indices of every edge of the s-lift of a 0/1 pattern.

    Base edges come in BaseMatrix.ones() order (column by column, rows
    ascending), one row of the two (edges, s) arrays each.  Base edge
    (i, j) with circulant shift z joins variable j*s + t to check
    i*s + (t + z) % s, for t = 0..s-1.  `shift` holds one z per base edge
    in that order; None means every shift is 0.
    """
    cols, rows = np.nonzero(pattern.T)
    z = np.zeros(cols.size, dtype=np.int64) if shift is None else np.asarray(shift)
    t = np.arange(s)
    return rows[:, None] * s + (t + z[:, None]) % s, cols[:, None] * s + t


def girth(h, shift=None, s: int = 1) -> float:
    """Length of the shortest Tanner-graph cycle; math.inf when acyclic.

    Accepts a BaseMatrix or any 2-D array (nonzero pattern is used).  With
    `shift` (one circulant shift per base edge, in ones() order) and `s`,
    the graph is the s-lift of that pattern, built from lifted_edges.

    The BFS starts from the first variable node of each column block.
    Shifting every circulant block by one at once maps the lifted graph
    onto itself, and that automorphism acts transitively on the s variable
    nodes of a column block; some shortest cycle therefore passes through
    a block's first node.  With s = 1 every variable node is a start.
    """
    pattern = h.bits if isinstance(h, BaseMatrix) else np.asarray(h) != 0
    m, n = pattern.shape
    checks, variables = lifted_edges(pattern, shift, s)
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
