"""Linear algebra over GF(2) with integer bitmask vectors.

A label is a nonzero vector in F_2^n packed into a Python int: bit i of the
integer is coordinate i (coordinate 0 is the least significant bit).  A gauge
is an ordered basis of F_2^n, i.e. an invertible n x n matrix given by its
columns.  Everything here is exact integer arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "MAX_N",
    "Label",
    "Gauge",
    "XorBasis",
    "rank",
    "in_span",
    "nullspace",
    "invert_columns",
    "apply_transpose",
    "sample_uniform_gauge",
    "greedy_max_weight_basis",
]

# Dense 2**n arrays elsewhere in the library make larger n impractical.
MAX_N = 24


def _check_n(n: int) -> None:
    if not isinstance(n, int) or not 1 <= n <= MAX_N:
        raise ValueError(f"n must be an int in [1, {MAX_N}], got {n!r}")


@dataclass(frozen=True, slots=True)
class Label:
    """An element of F_2^n, bit i of ``bits`` = coordinate i.

    The zero label encodes the identity stabilizer; it is valid as a value
    (e.g. an affine offset) but never as a gauge column or constraint label.
    """

    n: int
    bits: int

    def __post_init__(self) -> None:
        _check_n(self.n)
        if not isinstance(self.bits, int) or not 0 <= self.bits < (1 << self.n):
            raise ValueError(
                f"label bits must be in [0, 2^{self.n} - 1], got {self.bits!r}"
            )

    @property
    def is_zero(self) -> bool:
        return self.bits == 0

    def dot(self, other: "Label") -> int:
        """Standard inner product over GF(2) (parity of the AND)."""
        if other.n != self.n:
            raise ValueError("dimension mismatch")
        return (self.bits & other.bits).bit_count() & 1

    def __xor__(self, other: "Label") -> "Label":
        if other.n != self.n:
            raise ValueError("dimension mismatch")
        return Label(self.n, self.bits ^ other.bits)

    def to_token(self) -> str:
        """Serialize as a lowercase-hex token, e.g. bits 11 -> 'ub'."""
        return f"u{self.bits:x}"

    @classmethod
    def from_token(cls, token: str, n: int) -> "Label":
        if not isinstance(token, str) or not token.startswith("u"):
            raise ValueError(f"bad label token {token!r}")
        try:
            bits = int(token[1:], 16)
        except ValueError as exc:
            raise ValueError(f"bad label token {token!r}") from exc
        return cls(n, bits)


class XorBasis:
    """Incremental GF(2) basis keyed by leading set bit.

    Supports O(n) insertion and span-membership tests on bitmask vectors.
    """

    __slots__ = ("_by_msb",)

    def __init__(self, vectors: Iterable[int] = ()) -> None:
        self._by_msb: dict[int, int] = {}
        for v in vectors:
            self.add(v)

    def add(self, v: int) -> bool:
        """Insert ``v``; returns True if it enlarged the span."""
        while v:
            msb = v.bit_length() - 1
            pivot = self._by_msb.get(msb)
            if pivot is None:
                self._by_msb[msb] = v
                return True
            v ^= pivot
        return False

    def contains(self, v: int) -> bool:
        while v:
            pivot = self._by_msb.get(v.bit_length() - 1)
            if pivot is None:
                return False
            v ^= pivot
        return True

    @property
    def rank(self) -> int:
        return len(self._by_msb)


def rank(vectors: Iterable[int]) -> int:
    """Rank of a set of bitmask vectors over GF(2)."""
    return XorBasis(vectors).rank


def in_span(v: int, vectors: Iterable[int]) -> bool:
    """True if ``v`` lies in the GF(2) span of ``vectors`` (0 always does)."""
    return XorBasis(vectors).contains(v)


def nullspace(vectors: Sequence[int], n: int) -> list[int]:
    """Basis of the annihilator {u : u . v = 0 for all v} in F_2^n.

    Returned vectors are bitmasks; the list has length n - rank(vectors).
    """
    _check_n(n)
    # Row-reduce the input, tracking one pivot column per row.
    rows: list[int] = []
    pivots: list[int] = []
    for v in vectors:
        for r, c in zip(rows, pivots):
            if (v >> c) & 1:
                v ^= r
        if v:
            c = v.bit_length() - 1
            # Back-eliminate the new pivot column from earlier rows.
            rows = [r ^ v if (r >> c) & 1 else r for r in rows]
            rows.append(v)
            pivots.append(c)
    pivot_set = set(pivots)
    basis: list[int] = []
    for free in range(n):
        if free in pivot_set:
            continue
        u = 1 << free
        for r, c in zip(rows, pivots):
            if (r >> free) & 1:
                u |= 1 << c
        basis.append(u)
    return basis


def invert_columns(columns: Sequence[int], n: int) -> list[int]:
    """Columns of the inverse of the matrix whose columns are ``columns``.

    Raises ValueError when the matrix is singular.
    """
    _check_n(n)
    if len(columns) != n:
        raise ValueError("need exactly n columns")
    # Gauss-Jordan on rows of [A | I]; rows are packed as 2n-bit ints.
    rows = []
    for i in range(n):
        a_row = 0
        for j, col in enumerate(columns):
            if (col >> i) & 1:
                a_row |= 1 << j
        rows.append(a_row | (1 << (n + i)))
    for j in range(n):
        piv = next(
            (k for k in range(j, n) if (rows[k] >> j) & 1),
            None,
        )
        if piv is None:
            raise ValueError("matrix is singular over GF(2)")
        rows[j], rows[piv] = rows[piv], rows[j]
        for k in range(n):
            if k != j and (rows[k] >> j) & 1:
                rows[k] ^= rows[j]
    inv_cols = []
    for j in range(n):
        col = 0
        for i in range(n):
            if (rows[i] >> (n + j)) & 1:
                col |= 1 << i
        inv_cols.append(col)
    return inv_cols


def apply_transpose(columns: Sequence[int], v: int) -> int:
    """Compute A^T v for the matrix A with the given bitmask columns.

    Coordinate i of the result is the parity of columns[i] AND v.
    """
    out = 0
    for i, col in enumerate(columns):
        if (col & v).bit_count() & 1:
            out |= 1 << i
    return out


@dataclass(frozen=True, slots=True)
class Gauge:
    """An ordered basis of F_2^n: the columns of an invertible matrix."""

    n: int
    columns: tuple[Label, ...]

    def __post_init__(self) -> None:
        _check_n(self.n)
        if len(self.columns) != self.n:
            raise ValueError(f"gauge needs {self.n} columns, got {len(self.columns)}")
        for c in self.columns:
            if c.n != self.n:
                raise ValueError("column dimension mismatch")
        if rank(self.column_bits()) != self.n:
            raise ValueError("gauge columns are linearly dependent")

    @classmethod
    def from_bits(cls, n: int, bits: Sequence[int]) -> "Gauge":
        return cls(n, tuple(Label(n, b) for b in bits))

    @classmethod
    def identity(cls, n: int) -> "Gauge":
        return cls.from_bits(n, [1 << i for i in range(n)])

    def column_bits(self) -> list[int]:
        return [c.bits for c in self.columns]

    def column_set(self) -> frozenset[Label]:
        return frozenset(self.columns)

    def to_tokens(self) -> list[str]:
        return [c.to_token() for c in self.columns]

    @classmethod
    def from_tokens(cls, tokens: Sequence[str], n: int) -> "Gauge":
        return cls(n, tuple(Label.from_token(t, n) for t in tokens))

    def transpose_apply(self, v: int) -> int:
        """A^T v on bitmask vectors."""
        return apply_transpose(self.column_bits(), v)

    def inverse_columns(self) -> list[int]:
        return invert_columns(self.column_bits(), self.n)


def sample_uniform_gauge(n: int, rng: np.random.Generator) -> Gauge:
    """Draw a uniformly random ordered basis of F_2^n.

    Column k is drawn uniformly from the complement of the span of the
    first k - 1 columns by rejection, which is uniform over GL(n, 2).
    """
    _check_n(n)
    basis = XorBasis()
    cols: list[int] = []
    while len(cols) < n:
        v = int(rng.integers(0, 1 << n))
        if basis.add(v):
            cols.append(v)
    return Gauge.from_bits(n, cols)


def greedy_max_weight_basis(
    n: int,
    weights: np.ndarray,
    queried: np.ndarray | None = None,
) -> set[Label]:
    """Maximum-weight basis of F_2^n under nonnegative label weights.

    ``weights`` and the optional boolean ``queried`` mask are indexed by
    label encoding (entry 0, the zero label, is ignored).  Scans labels in
    nonincreasing weight order, breaking ties in favor of unqueried labels
    and then by ascending integer encoding, and keeps each label that is
    independent of those already kept.  Greedy is exact here because
    independent sets of labels form a matroid.
    """
    _check_n(n)
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != (1 << n,):
        raise ValueError(f"weight array must have length {1 << n}")
    if (weights[1:] < 0).any():
        raise ValueError("weights must be nonnegative")
    if queried is None:
        queried = np.zeros(1 << n, dtype=bool)
    bits = np.arange(1, 1 << n)
    order = bits[np.lexsort((bits, queried[1:], -weights[1:]))]
    basis = XorBasis()
    chosen: set[Label] = set()
    for b in order.tolist():
        if basis.add(b):
            chosen.add(Label(n, b))
            if len(chosen) == n:
                break
    return chosen
