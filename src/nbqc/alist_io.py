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
import json
from dataclasses import dataclass

import numpy as np

from .base_graph import BaseMatrix
from .gf import GF
from .lifter import Lifting, Monomial

MAGIC_FULL = "nbalist full"
MAGIC_QC = "nbalist qc"


class AlistFormatError(ValueError):
    """Malformed matrix file; message carries the 1-based line number."""


def _content_lines(text: str) -> list[tuple[int, str]]:
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if stripped:
            out.append((lineno, stripped))
    return out


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
    lines = _content_lines(text)
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
    if q < 2 or (1 << p) != q:
        raise AlistFormatError(f"line {lines[2][0]}: q={q} is not a power of 2")
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
    for i, j in sorted(lifting.assignment):
        mono = lifting.assignment[(i, j)]
        lines.append(f"{i + 1} {j + 1} {mono.shift} {mono.beta}")
    return "\n".join(lines) + "\n"


def parse_qc(text: str) -> Lifting:
    lines, poly = _header(text, MAGIC_QC, 3)
    lineno, content = lines[2]
    m, n, s, q = _ints(lineno, content, 4)
    if m < 1 or n < 1 or s < 1:
        raise AlistFormatError(f"line {lineno}: non-positive dimensions")
    field = _field_for(lines, q, poly)

    bits = np.zeros((m, n), dtype=np.int8)
    assignment: dict[tuple[int, int], Monomial] = {}
    for lineno, content in lines[3:]:
        i, j, z, beta = _ints(lineno, content, 4)
        if not (1 <= i <= m and 1 <= j <= n):
            raise AlistFormatError(f"line {lineno}: edge ({i},{j}) out of range")
        if not 0 <= z < s:
            raise AlistFormatError(f"line {lineno}: shift {z} outside [0, {s})")
        if not 1 <= beta < q:
            raise AlistFormatError(f"line {lineno}: coefficient {beta} outside [1, {q})")
        if (i - 1, j - 1) in assignment:
            raise AlistFormatError(f"line {lineno}: duplicate edge ({i},{j})")
        bits[i - 1, j - 1] = 1
        assignment[(i - 1, j - 1)] = Monomial(beta, z)
    if not assignment:
        raise AlistFormatError("matrix has no edges")
    return Lifting(BaseMatrix(bits), s, field, assignment)


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
    lineno, content = lines[2]
    n_cols, n_rows, q = _ints(lineno, content, 3)
    if n_cols < 1 or n_rows < 1:
        raise AlistFormatError(f"line {lineno}: non-positive dimensions")
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

    h = np.zeros((n_rows, n_cols), dtype=np.int64)
    for j in range(n_cols):
        lineno, content = body[j]
        vals = _ints(lineno, content)
        if vals == [0] and col_deg[j] == 0:
            continue
        if len(vals) != 2 * col_deg[j]:
            raise AlistFormatError(
                f"line {lineno}: column {j + 1} expects {col_deg[j]} (row, code) pairs"
            )
        for t in range(0, len(vals), 2):
            i, code = vals[t] - 1, vals[t + 1]
            if not 0 <= i < n_rows:
                raise AlistFormatError(f"line {lineno}: row index {i + 1} out of range")
            if not 1 <= code < q:
                raise AlistFormatError(f"line {lineno}: field code {code} out of range")
            if h[i, j]:
                raise AlistFormatError(f"line {lineno}: duplicate entry ({i + 1},{j + 1})")
            h[i, j] = code
    for i in range(n_rows):
        lineno, content = body[n_cols + i]
        vals = _ints(lineno, content)
        if vals == [0] and row_deg[i] == 0:
            continue
        if len(vals) != 2 * row_deg[i]:
            raise AlistFormatError(
                f"line {lineno}: row {i + 1} expects {row_deg[i]} (col, code) pairs"
            )
        for t in range(0, len(vals), 2):
            j, code = vals[t] - 1, vals[t + 1]
            if not 0 <= j < n_cols:
                raise AlistFormatError(f"line {lineno}: column index {j + 1} out of range")
            if h[i, j] != code:
                raise AlistFormatError(
                    f"line {lineno}: row view disagrees with column view at "
                    f"({i + 1},{j + 1})"
                )
    return field, h


# ----------------------------------------------------------------------
# dispatch and manifests
# ----------------------------------------------------------------------
def detect_variant(text: str) -> str:
    lines = _content_lines(text)
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


@dataclass(frozen=True)
class RunManifest:
    """Everything needed to reproduce a run bit-exactly."""

    command: str
    artifact_version: str
    seed: int
    config: dict
    inputs: dict  # name -> {"path": ..., "sha256": ...}

    def to_json(self) -> str:
        return json.dumps(
            {
                "command": self.command,
                "artifact_version": self.artifact_version,
                "seed": self.seed,
                "config": self.config,
                "inputs": self.inputs,
            },
            indent=2,
            sort_keys=True,
        ) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "RunManifest":
        data = json.loads(text)
        return cls(
            command=data["command"],
            artifact_version=data["artifact_version"],
            seed=data["seed"],
            config=data["config"],
            inputs=data["inputs"],
        )
