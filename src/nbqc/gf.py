"""GF(2^p) finite field arithmetic.

Field elements are plain integers in [0, 2^p); the binary digits of an
element are the coefficients of its polynomial representation over GF(2).
Addition is xor.  Multiplication and inversion go through discrete
log/antilog tables built once per field from a primitive polynomial.

Default primitive polynomials (one per extension degree, the conventional
choices):

    p=1 : x + 1            -> 0b11        = 3
    p=2 : x^2 + x + 1      -> 0b111       = 7
    p=3 : x^3 + x + 1      -> 0b1011      = 11
    p=4 : x^4 + x + 1      -> 0b10011     = 19
    p=5 : x^5 + x^2 + 1    -> 0b100101    = 37
    p=6 : x^6 + x + 1      -> 0b1000011   = 67
    p=7 : x^7 + x^3 + 1    -> 0b10001001  = 137
    p=8 : x^8+x^4+x^3+x^2+1-> 0b100011101 = 285

A different polynomial may be passed explicitly; it is rejected unless it
is primitive (the element x must have multiplicative order 2^p - 1, which
the table construction verifies as a side effect).  Degrees run to 15.
"""

from __future__ import annotations

import numpy as np

DEFAULT_PRIMITIVE_POLY: dict[int, int] = {
    1: 0b11,
    2: 0b111,
    3: 0b1011,
    4: 0b10011,
    5: 0b100101,
    6: 0b1000011,
    7: 0b10001001,
    8: 0b100011101,
}


def check_degree(p: int) -> None:
    """A ValueError unless GF(2^p)'s elements fit mul_table's int16 entries."""
    if not 1 <= p <= 15:
        raise ValueError(f"GF(2^{p}) is not supported: the degree must be from 1 to 15")


class GF:
    """The finite field GF(2^p) with table-driven arithmetic.

    Parameters
    ----------
    p : int
        Extension degree, 1 <= p <= 15; 1 <= p <= 8 with the default polynomials.
    primitive_poly : int, optional
        Bit-encoded primitive polynomial of degree p over GF(2).
        Defaults to the conventional polynomial for the degree.
    """

    def __init__(self, p: int, primitive_poly: int | None = None) -> None:
        check_degree(p)
        if primitive_poly is None:
            if p not in DEFAULT_PRIMITIVE_POLY:
                raise ValueError(
                    f"no default primitive polynomial for p={p}; supply one explicitly"
                )
            primitive_poly = DEFAULT_PRIMITIVE_POLY[p]
        if primitive_poly >> p != 1:
            raise ValueError(
                f"primitive polynomial {bin(primitive_poly)} does not have degree {p}"
            )
        self.p = p
        self.q = 1 << p
        self.primitive_poly = primitive_poly

        exp, log = [], [0] * self.q
        val = 1
        for i in range(self.q - 1):
            if val == 1 and i > 0:
                raise ValueError(
                    f"polynomial {bin(primitive_poly)} is not primitive: "
                    f"x has order {i} < {self.q - 1}"
                )
            exp.append(val)
            log[val] = i
            val <<= 1
            if val & self.q:
                val ^= primitive_poly
        if val != 1:
            raise ValueError(f"polynomial {bin(primitive_poly)} is not primitive")
        # read-only int64 arrays; exp_table[i] = x^i up to i = 2q - 1, a
        # doubled length so mul can skip one reduction
        self.exp_table = np.resize(np.array(exp, dtype=np.int64), 2 * self.q)
        self.log_table = np.array(log, dtype=np.int64)
        for table in (self.exp_table, self.log_table):
            table.setflags(write=False)

        self._mul_table: np.ndarray | None = None

    # ------------------------------------------------------------------
    # element-wise arithmetic
    # ------------------------------------------------------------------
    def mul(self, a: int, b: int) -> int:
        """Product in GF(2^p); zero if either operand is zero."""
        if a == 0 or b == 0:
            return 0
        return int(self.exp_table[self.log_table[a] + self.log_table[b]])

    def inv(self, a: int) -> int:
        """Multiplicative inverse of a nonzero element."""
        if a == 0:
            raise ValueError("zero has no multiplicative inverse")
        return int(self.exp_table[(self.q - 1) - self.log_table[a]])

    # ------------------------------------------------------------------
    # vectorized support
    # ------------------------------------------------------------------
    @property
    def mul_table(self) -> np.ndarray:
        """Full q x q int16 multiplication table (built lazily, read-only)."""
        if self._mul_table is None:
            try:
                table = np.zeros((self.q, self.q), dtype=np.int16)
                log = self.log_table[1:]
                table[1:, 1:] = self.exp_table[np.add.outer(log, log)]
            except MemoryError:
                message = f"the GF(2^{self.p}) multiplication table does not fit in memory"
                raise ValueError(message) from None
            table.setflags(write=False)
            self._mul_table = table
        return self._mul_table

    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, GF)
            and self.p == other.p
            and self.primitive_poly == other.primitive_poly
        )

    def __hash__(self) -> int:
        return hash((self.p, self.primitive_poly))

    def __repr__(self) -> str:
        return f"GF(2^{self.p}, poly={bin(self.primitive_poly)})"
