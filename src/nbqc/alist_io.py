"""Text formats for non-binary sparse parity-check matrices.

Both variants are line oriented; blank lines and '#' comments are
ignored, and field elements are integer codes under the recorded
primitive polynomial.

Full variant ("nbalist full"): adjacency lists of the expanded matrix:

    nbalist full
    poly <primitive polynomial, bit-encoded>
    <n_cols> <n_rows> <q>
    <max column degree> <max row degree>
    <column degrees, n_cols ints>
    <row degrees, n_rows ints>
    n_cols lines: "row code row code ..." (1-based rows) per column
    n_rows lines: "col code col code ..." (1-based cols) per row
    (a degree-0 column or row writes the single placeholder token 0)

Compact quasi-cyclic variant ("nbalist qc"): one record per base edge:

    nbalist qc
    poly <primitive polynomial, bit-encoded>
    <m> <n> <s> <q>
    one line per edge: "i j z beta" (1-based base row i and column j,
    circulant shift z in [0, s), nonzero coefficient beta)

The compact form expands to exactly the matrix the full form describes
when both come from the same lifting; parse/serialize round-trip losslessly.
"""

from __future__ import annotations

import hashlib

import numpy as np

from .base_graph import BaseMatrix, content_lines
from .gf import GF, check_degree
from .lifter import Lifting

MAGIC_FULL = "nbalist full"
MAGIC_QC = "nbalist qc"


class AlistFormatError(ValueError):
    """Malformed matrix file; message carries the 1-based line number."""


def _ints(lineno: int, content: str, expect: int | None = None) -> list[int]:
    try:
        vals = [int(tok) for tok in content.split()]
    except ValueError:
        raise AlistFormatError(f"line {lineno}: non-integer token") from None
    if expect is not None and len(vals) != expect:
        raise AlistFormatError(
            f"line {lineno}: expected {expect} integers, got {len(vals)}"
        )
    return vals


def _header(text: str, magic: str, min_lines: int) -> tuple[list[tuple[int, str]], int]:
    """The content lines of a file that opens with `magic` and 'poly <int>', and that poly."""
    lines = content_lines(text)
    if not lines:
        raise AlistFormatError("empty matrix file")
    if lines[0][1] != magic:
        raise AlistFormatError(f"line {lines[0][0]}: expected '{magic}' header")
    if len(lines) < min_lines:
        raise AlistFormatError("truncated file header")
    lineno, content = lines[1]
    toks = content.split()
    if len(toks) != 2 or toks[0] != "poly":
        raise AlistFormatError(f"line {lineno}: expected 'poly <int>'")
    return lines, _ints(lineno, toks[1], 1)[0]


def _field_for(lines: list[tuple[int, str]], q: int, poly: int) -> GF:
    """GF(q) under `poly`; errors name the dimensions line (q) or the poly line."""
    p = q.bit_length() - 1
    try:
        if q < 2 or (1 << p) != q:
            raise ValueError(f"q={q} is not a power of 2")
        check_degree(p)
    except ValueError as exc:
        raise AlistFormatError(f"line {lines[2][0]}: {exc}") from None
    try:
        return GF(p, poly)
    except ValueError as exc:
        raise AlistFormatError(f"line {lines[1][0]}: {exc}") from None


# ----------------------------------------------------------------------
# compact quasi-cyclic variant
# ----------------------------------------------------------------------
def serialize_qc(lifting: Lifting) -> str:
    lines = [
        MAGIC_QC,
        f"poly {lifting.field.primitive_poly}",
        f"{lifting.base.m} {lifting.base.n} {lifting.s} {lifting.field.q}",
    ]
    records = zip(lifting.base.ones(), lifting.shift.tolist(), lifting.beta.tolist())
    for (i, j), z, beta in sorted(records):  # by row, then column
        lines.append(f"{i + 1} {j + 1} {z} {beta}")
    return "\n".join(lines) + "\n"


def parse_qc(text: str) -> Lifting:
    lines, poly = _header(text, MAGIC_QC, 3)
    dims_line, content = lines[2]
    m, n, s, q = _ints(dims_line, content, 4)
    if m < 1 or n < 1 or s < 1:
        raise AlistFormatError(f"line {dims_line}: non-positive dimensions")
    field = _field_for(lines, q, poly)

    try:
        bits = np.zeros((m, n), dtype=np.int8)
    except (MemoryError, ValueError):  # numpy's "array is too big" is a ValueError
        raise AlistFormatError(f"line {dims_line}: {m} x {n} base does not fit in memory") from None
    records = []
    for lineno, content in lines[3:]:
        i, j, z, b = _ints(lineno, content, 4)
        if not (1 <= i <= m and 1 <= j <= n):
            raise AlistFormatError(f"line {lineno}: edge ({i},{j}) out of range")
        if not 0 <= z < s:
            raise AlistFormatError(f"line {lineno}: shift {z} outside [0, {s})")
        if not 1 <= b < q:
            raise AlistFormatError(f"line {lineno}: coefficient {b} outside [1, {q})")
        if bits[i - 1, j - 1]:
            raise AlistFormatError(f"line {lineno}: duplicate edge ({i},{j})")
        bits[i - 1, j - 1] = 1
        records.append((i - 1, j - 1, z, b))
    if not records:
        raise AlistFormatError(f"line {dims_line}: no edge records")
    base = BaseMatrix(bits)
    rows, cols, z, b = np.array(records, dtype=np.int64).T
    per_edge = np.empty((2, len(records)), dtype=np.int64)  # shift, beta by edge number
    per_edge[:, base.edge_index[rows, cols]] = z, b
    return Lifting(base, s, field, per_edge[1], per_edge[0])


# ----------------------------------------------------------------------
# full adjacency variant
# ----------------------------------------------------------------------
def serialize_full(field: GF, h: np.ndarray) -> str:
    h = np.asarray(h, dtype=np.int64)
    if h.ndim != 2 or h.size == 0:
        raise ValueError("matrix must be non-empty and 2-D")
    if h.min() < 0 or h.max() >= field.q:
        raise ValueError("matrix entries out of field range")
    n_rows, n_cols = h.shape
    col_deg = (h != 0).sum(axis=0)
    row_deg = (h != 0).sum(axis=1)
    lines = [
        MAGIC_FULL,
        f"poly {field.primitive_poly}",
        f"{n_cols} {n_rows} {field.q}",
        f"{int(col_deg.max())} {int(row_deg.max())}",
        " ".join(str(int(d)) for d in col_deg),
        " ".join(str(int(d)) for d in row_deg),
    ]
    # degree-0 lines carry a single 0 placeholder (indices are 1-based)
    for j in range(n_cols):
        rows = np.nonzero(h[:, j])[0]
        lines.append(" ".join(f"{i + 1} {int(h[i, j])}" for i in rows) or "0")
    for i in range(n_rows):
        cols = np.nonzero(h[i, :])[0]
        lines.append(" ".join(f"{j + 1} {int(h[i, j])}" for j in cols) or "0")
    return "\n".join(lines) + "\n"


def parse_full(text: str) -> tuple[GF, np.ndarray]:
    lines, poly = _header(text, MAGIC_FULL, 6)
    dims_line, content = lines[2]
    n_cols, n_rows, q = _ints(dims_line, content, 3)
    if n_cols < 1 or n_rows < 1:
        raise AlistFormatError(f"line {dims_line}: non-positive dimensions")
    field = _field_for(lines, q, poly)
    lineno, content = lines[3]
    dmax_col, dmax_row = _ints(lineno, content, 2)
    col_deg = _ints(*lines[4], expect=n_cols)
    row_deg = _ints(*lines[5], expect=n_rows)
    if max(col_deg, default=0) != dmax_col or max(row_deg, default=0) != dmax_row:
        raise AlistFormatError(
            f"line {lineno}: declared maximum degrees do not match degree lists"
        )
    body = lines[6:]
    if len(body) != n_cols + n_rows:
        raise AlistFormatError(
            f"expected {n_cols + n_rows} adjacency lines, found {len(body)}"
        )

    # each view into its own matrix, one row per line: columns, then rows
    views = []
    for first, degrees, n_other, owner, other in (
        (0, col_deg, n_rows, "column", "row"),
        (n_cols, row_deg, n_cols, "row", "column"),
    ):
        try:
            view = np.zeros((len(degrees), n_other), dtype=np.int64)
        except (MemoryError, ValueError):  # numpy's "array is too big" is a ValueError
            raise AlistFormatError(
                f"line {dims_line}: {n_rows} x {n_cols} matrix does not fit in memory"
            ) from None
        for t, d in enumerate(degrees):
            lineno, content = body[first + t]
            vals = _ints(lineno, content)
            if vals == [0] and d == 0:
                continue
            if len(vals) != 2 * d:
                raise AlistFormatError(
                    f"line {lineno}: {owner} {t + 1} expects {d} ({other}, code) pairs"
                )
            for u, code in zip(vals[::2], vals[1::2]):
                if not 1 <= u <= n_other:
                    raise AlistFormatError(f"line {lineno}: {other} index {u} out of range")
                if not 1 <= code < q:
                    raise AlistFormatError(f"line {lineno}: field code {code} out of range")
                if view[t, u - 1]:
                    raise AlistFormatError(
                        f"line {lineno}: {owner} {t + 1} repeats {other} {u}"
                    )
                view[t, u - 1] = code
        views.append(view)
    by_col, h = views
    differ = np.argwhere(by_col.T != h)
    if differ.size:
        i, j = differ[0]
        raise AlistFormatError(
            f"line {body[n_cols + i][0]}: row view disagrees with column view at "
            f"({i + 1},{j + 1})"
        )
    return field, h


# ----------------------------------------------------------------------
# dispatch and digests
# ----------------------------------------------------------------------
def detect_variant(text: str) -> str:
    lines = content_lines(text)
    if not lines:
        raise AlistFormatError("empty matrix file")
    first = lines[0][1]
    if first == MAGIC_QC:
        return "qc"
    if first == MAGIC_FULL:
        return "full"
    return "base"  # plain binary base-matrix text


def load_matrix_file(path) -> Lifting | tuple[GF, np.ndarray] | BaseMatrix:
    """Parse any supported matrix file by its header."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    variant = detect_variant(text)
    if variant == "qc":
        return parse_qc(text)
    if variant == "full":
        return parse_full(text)
    return BaseMatrix.from_text(text)


def sha256_of_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()
