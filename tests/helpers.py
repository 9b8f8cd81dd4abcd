"""Independent reference implementations used as test oracles.

Deliberately written without reusing the library's internals: carry-less
field multiplication, plain-Python Gaussian elimination, a permutation
based cycle enumerator, a direct xor-convolution, the dense circulant
algebra (polynomials mod x^s - 1, their cofactor determinant and their
block-by-block expansion), and a one-trial-at-a-time greedy construction
on the cofactor determinant.
"""

from dataclasses import dataclass
from itertools import combinations, permutations, product

import numpy as np

from nbqc.base_graph import BaseMatrix, Cycle, ace_vector, girth, lex_compare
from nbqc.gf import GF
from nbqc.lifter import AcceptedTrial, ConstructionReport, Lifting, Monomial

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
        add = self.field.add
        return RingPoly(
            self.field, tuple(add(a, b) for a, b in zip(self.coeffs, other.coeffs))
        )

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
                out[k] = field.add(out[k], field.mul(a, b))
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
    if not lifting.base.bits[i, j]:
        return RingPoly.zero(lifting.field, lifting.s)
    mono = lifting.assignment[(i, j)]
    return RingPoly.monomial_poly(lifting.field, lifting.s, mono.beta, mono.shift)


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
        expanded_girth=girth(poly_matrix(lifting).expand()),
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
