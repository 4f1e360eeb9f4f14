"""Dense GF(2) linear algebra on numpy uint8 arrays.

Vectors are 1-D uint8 arrays with entries in {0, 1}; position 0 is the
leftmost symbol of the string form "0110..." (qubit 1 in operator
notation).  Matrices are 2-D.  Lexicographic comparisons treat vectors as
big-endian integers with position 0 most significant; ``to_int`` realizes
exactly that order.  All functions are pure and never mutate their inputs.

Linear systems are solved by factor-then-apply: ``Factor`` eliminates a
matrix m once, recording the row operations T that bring it to reduced
echelon form, and every right-hand side b is then answered by the product
T b, so a caller that keeps the factor solves any number of systems with
one elimination of m.
"""

from __future__ import annotations

import reprlib

import numpy as np


def as_vector(v) -> np.ndarray:
    """Coerce to a 1-D uint8 array with entries reduced mod 2."""
    arr = np.asarray(v)
    if arr.ndim != 1:
        raise ValueError(f"expected a 1-D vector, got shape {arr.shape}")
    return (arr.astype(np.uint8)) & 1


def as_matrix(m) -> np.ndarray:
    """Coerce to a 2-D uint8 array with entries reduced mod 2."""
    arr = np.asarray(m)
    if arr.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {arr.shape}")
    return (arr.astype(np.uint8)) & 1


def parse_vector(s: str) -> np.ndarray:
    """Parse an ASCII 0/1 string such as "0001110011".

    Anything else, including a value that is not a string, raises
    ValueError.
    """
    if not isinstance(s, str) or not s or any(c not in "01" for c in s):
        raise ValueError(f"not a binary string: {reprlib.repr(s)}")
    return np.frombuffer(s.encode("ascii"), dtype=np.uint8) - ord("0")


def format_vector(v) -> str:
    return (as_vector(v) + ord("0")).tobytes().decode("ascii")


def parse_matrix(rows) -> np.ndarray:
    """Parse newline-separated rows or an iterable of 0/1 row strings."""
    if isinstance(rows, str):
        rows = rows.splitlines()
    parsed = [parse_vector(r) for r in rows]
    if not parsed:
        raise ValueError("matrix needs at least one row")
    widths = {len(r) for r in parsed}
    if len(widths) != 1:
        raise ValueError("rows have unequal lengths")
    return np.array(parsed, dtype=np.uint8)


def to_int(v) -> int:
    """Big-endian integer value of a vector (position 0 most significant)."""
    return int(format_vector(v) or "0", 2)


def from_int(value: int, n: int) -> np.ndarray:
    if value < 0 or value >= (1 << n):
        raise ValueError(f"{value} does not fit in {n} bits")
    return np.array([(value >> (n - 1 - i)) & 1 for i in range(n)], dtype=np.uint8)


def dot(u, v) -> int:
    """Inner product mod 2."""
    u = as_vector(u)
    v = as_vector(v)
    if u.shape != v.shape:
        raise ValueError(f"length mismatch: {u.shape[0]} vs {v.shape[0]}")
    return int(np.bitwise_and(u, v).sum() & 1)


def matvec(m, v) -> np.ndarray:
    m = as_matrix(m)
    v = as_vector(v)
    if m.shape[1] != v.shape[0]:
        raise ValueError(f"matrix has {m.shape[1]} columns, vector has {v.shape[0]}")
    return (m @ v).astype(np.uint8) & 1


def rref(m, ncols: int | None = None) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form over GF(2).

    Returns (R, pivot_cols) where pivot_cols lists the pivot column
    indices in ascending order.  The row space is preserved and the
    transform is idempotent: rref(rref(m)) == rref(m).  With ``ncols``,
    pivots are taken among the first ``ncols`` columns only; the other
    columns, the right-hand sides of an augmented system, are carried
    along by the row operations.

    Each row is eliminated as one Python integer (column c is bit
    ``8 * nbytes - 1 - c`` of its big-endian packed bytes), so a row
    operation is one XOR; the result is unpacked once at the end.
    """
    mat = as_matrix(m)
    rows, cols = mat.shape
    nbytes = -(-cols // 8)
    buf = np.packbits(mat, axis=1).tobytes()
    packed = [int.from_bytes(buf[k * nbytes : (k + 1) * nbytes], "big") for k in range(rows)]
    top = 8 * nbytes - 1
    pivots: list[int] = []
    row = 0
    for col in range(cols if ncols is None else ncols):
        if row == rows:
            break
        bit = 1 << (top - col)
        pivot = next((k for k in range(row, rows) if packed[k] & bit), None)
        if pivot is None:
            continue
        packed[row], packed[pivot] = packed[pivot], packed[row]
        lead = packed[row]
        for k in range(rows):
            if k != row and packed[k] & bit:
                packed[k] ^= lead
        pivots.append(col)
        row += 1
    out = np.frombuffer(b"".join(r.to_bytes(nbytes, "big") for r in packed), dtype=np.uint8)
    return np.unpackbits(out.reshape(rows, nbytes), axis=1, count=cols), pivots


def rank(m) -> int:
    return len(rref(m)[1])


def kernel_basis(m) -> list[np.ndarray]:
    """Canonical basis of the right kernel.

    One basis vector per free column of the reduced echelon form, in
    ascending free-column order; the free coordinate is set to 1 and the
    pivot coordinates are back-substituted.
    """
    return _kernel_from_echelon(*rref(m))


def _kernel_from_echelon(r_mat: np.ndarray, pivots: list[int]) -> list[np.ndarray]:
    """``kernel_basis`` of any matrix whose reduced echelon form is given."""
    cols = r_mat.shape[1]
    pivot_set = set(pivots)
    basis = []
    for free in range(cols):
        if free in pivot_set:
            continue
        v = np.zeros(cols, dtype=np.uint8)
        v[free] = 1
        for row, pc in enumerate(pivots):
            if r_mat[row, free]:
                v[pc] = 1
        basis.append(v)
    return basis


class Factor:
    """One elimination of a matrix m, kept to solve m x = b for any b.

    ``echelon`` is R = rref(m), ``pivots`` its pivot columns, and ``ops``
    the row operations T with T m = R: the reduced form of [m | I] with
    pivots taken among m's columns only, whose first columns are exactly
    rref(m).  Applying it to a right-hand side costs one product T b.
    """

    def __init__(self, m):
        mat = as_matrix(m)
        rows, cols = mat.shape
        aug, self.pivots = rref(np.concatenate([mat, np.eye(rows, dtype=np.uint8)], axis=1), cols)
        self.echelon = aug[:, :cols]
        self.ops = aug[:, cols:]
        for arr in (self.echelon, self.ops):
            arr.setflags(write=False)

    def kernel(self) -> list[np.ndarray]:
        """``kernel_basis`` of the factored matrix."""
        return _kernel_from_echelon(self.echelon, self.pivots)

    def solve(self, rhs) -> tuple[np.ndarray, np.ndarray]:
        """``solve_columns`` of the factored matrix.

        R x = T b: the pivot rows of T b give the canonical particular
        solution (free variables 0), and the rows past the rank, where R
        is zero, must vanish for b to be solvable.
        """
        b = as_matrix(rhs)
        rows, cols = self.ops.shape[0], self.echelon.shape[1]
        if b.shape[0] != rows:
            raise ValueError(f"matrix has {rows} rows, rhs has {b.shape[0]}")
        reduced = (self.ops @ b) & 1  # uint8 products wrap mod 256, which keeps parity
        rank = len(self.pivots)
        x = np.zeros((cols, b.shape[1]), dtype=np.uint8)
        x[self.pivots] = reduced[:rank]
        return x, ~reduced[rank:].any(axis=0)


def solve(m, rhs) -> tuple[np.ndarray, list[np.ndarray]] | None:
    """Solve m x = rhs over GF(2).

    Returns (particular, kernel) or None when the system is inconsistent.
    The particular solution is the canonical one with all free variables
    set to 0 under the reduced echelon form; the full solution set is
    particular + span(kernel).
    """
    factored = Factor(m)
    x, consistent = factored.solve(as_vector(rhs)[:, None])
    if not consistent[0]:
        return None
    return x[:, 0], factored.kernel()


def solve_columns(m, rhs) -> tuple[np.ndarray, np.ndarray]:
    """Solve m x = b over GF(2) for every column b of ``rhs``: factor m
    once (``Factor``), then apply the factor to all the columns.

    Returns (x, consistent).  Column k of x is the canonical particular
    solution for column k of rhs, free variables 0 as in ``solve``, and
    ``consistent[k]`` says whether that column is solvable at all; where
    it is not, column k of x means nothing.
    """
    return Factor(m).solve(rhs)


def minimal_solution(particular, kernel: list[np.ndarray]) -> np.ndarray:
    """Smallest element of particular + span(kernel) in big-endian order.

    Reducing the particular solution to zero on every pivot column of the
    kernel's echelon form yields the unique coset element whose leading
    difference against any other member is a 0, hence the minimum.
    """
    if not kernel:
        return as_vector(particular).copy()
    return coset_minimum(particular, rref(np.array(kernel, dtype=np.uint8)))


def coset_minimum(x, echelon: tuple[np.ndarray, list[int]]) -> np.ndarray:
    """Smallest element of x + (row space of a matrix), given that matrix's
    reduced echelon form as ``rref`` returns it."""
    x = as_vector(x).copy()
    r_mat, pivots = echelon
    for row, pc in enumerate(pivots):
        if x[pc]:
            x ^= r_mat[row]
    return x


def in_rowspace(m, v) -> bool:
    m = as_matrix(m)
    v = as_vector(v)
    if m.shape[1] != v.shape[0]:
        raise ValueError("width mismatch")
    return rank(np.vstack([m, v])) == rank(m)


def enumerate_span(basis: list[np.ndarray], n: int) -> list[np.ndarray]:
    """All vectors in the span of ``basis``, ascending as big-endian integers."""
    return list(span_rows(basis, n))


def span_rows(basis: list[np.ndarray], n: int) -> np.ndarray:
    """``enumerate_span`` as one matrix, a row per vector.

    Each vector is held as ceil(n / 64) big-endian 64-bit words (position 0
    is the top bit of word 0), so the span is formed by XOR doubling on
    integers, sorted natively, and unpacked with one bit shift.
    """
    width = max(1, -(-n // 64))
    packed = np.zeros((len(basis), 8 * width), dtype=np.uint8)
    if basis:
        mat = as_matrix(np.array(basis))
        if mat.shape[1] != n:
            raise ValueError(f"basis vectors have length {mat.shape[1]}, expected {n}")
        packed[:, : -(-n // 8)] = np.packbits(mat, axis=1)
    span = np.zeros((1, width), dtype=np.uint64)
    for word in packed.view(">u8").astype(np.uint64):
        span = np.concatenate([span, span ^ word])
    span = span[np.lexsort(span.T[::-1])]
    pos = np.arange(n)
    bits = (span[:, pos // 64] >> (63 - pos % 64).astype(np.uint64)) & np.uint64(1)
    return bits.astype(np.uint8)
