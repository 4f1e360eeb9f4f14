"""GF(2) linear algebra on packed Python integers and numpy uint8 arrays.

Vectors are 1-D uint8 arrays with entries in {0, 1}; position 0 is the
leftmost symbol of the string form "0110..." (qubit 1 in operator
notation).  Matrices are 2-D.  Lexicographic comparisons treat vectors as
big-endian integers with position 0 most significant; ``to_int`` realizes
exactly that order.  All functions are pure and never mutate their inputs,
except ``eliminate``, which reduces the list of rows it is given.

Packed ints.  A vector of length n is also held as one Python int in the
``to_int`` order: column c is bit n - 1 - c, so integer order is the
big-endian order above and adding two vectors is one XOR.  A matrix is a
list of such ints, one per row (``pack_rows``, ``unpack_rows``,
``transpose``).  ``eliminate`` is the one elimination core: ``rref`` and
``Factor`` run it on packed rows.  ``Factor`` is built from packed rows,
and ``int_kernel``, ``int_matvec``, ``int_coset_minimum``, ``int_span``
and ``Factor.solve_int`` take and return packed ints; the plan path, from
the loaded code through the four-term search and its pair scan, works on
them alone.  ``binary_string`` and ``binary_rows`` check the 0/1 string
form, which ``int(s, 2)`` packs and ``format_int`` writes back.
The array functions (``rref``, ``kernel_basis``, ``solve``,
``coset_minimum``, ``enumerate_span`` and the rest) keep their numpy form
for their callers.

numpy loads on first use.  ``np`` here is a stand-in module that imports
numpy when one of its attributes is first read and keeps each attribute
it fetched.  Only ``gf2``'s array functions and ``verify`` call numpy, so
the packed functions, and with them ``plan`` and ``analyze``, run without
importing numpy at all.

Linear systems are solved by factor-then-apply: ``Factor`` eliminates a
matrix m once, recording the row operations T that bring it to reduced
echelon form, and every right-hand side b is then answered by the product
T b, so a caller that keeps the factor solves any number of systems with
one elimination of m.
"""

from __future__ import annotations

import importlib
import reprlib
import types


class _Numpy(types.ModuleType):
    """numpy, imported on first attribute access; each attribute fetched is kept."""

    def __getattr__(self, name: str):
        value = getattr(importlib.import_module("numpy"), name)
        setattr(self, name, value)
        return value


np = _Numpy("numpy")


def as_vector(v) -> np.ndarray:
    """Coerce to a fresh 1-D uint8 array with entries reduced mod 2."""
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


def binary_string(s) -> str:
    """``s`` if it is a nonempty ASCII 0/1 string such as "0001110011".

    Anything else, including a value that is not a string, raises
    ValueError.
    """
    if not isinstance(s, str) or not s or s.strip("01"):
        raise ValueError(f"not a binary string: {reprlib.repr(s)}")
    return s


def parse_vector(s: str) -> np.ndarray:
    """Parse an ASCII 0/1 string (``binary_string``) into a vector."""
    return np.frombuffer(binary_string(s).encode("ascii"), dtype=np.uint8) - ord("0")


def format_vector(v) -> str:
    return (as_vector(v) + ord("0")).tobytes().decode("ascii")


def binary_rows(rows) -> list[str]:
    """Newline-separated rows or an iterable of row strings, checked: at
    least one, each a ``binary_string``, all of one length."""
    if isinstance(rows, str):
        rows = rows.splitlines()
    checked = [binary_string(r) for r in rows]
    if not checked:
        raise ValueError("matrix needs at least one row")
    if len({len(r) for r in checked}) != 1:
        raise ValueError("rows have unequal lengths")
    return checked


def parse_matrix(rows) -> np.ndarray:
    """Parse newline-separated rows or an iterable of 0/1 row strings (``binary_rows``)."""
    return np.array([parse_vector(r) for r in binary_rows(rows)], dtype=np.uint8)


def to_int(v) -> int:
    """Big-endian integer value of a vector (position 0 most significant)."""
    return int(format_vector(v) or "0", 2)


def format_int(value: int, n: int) -> str:
    """The n-symbol 0/1 string of a packed vector, ``format_vector`` of
    ``from_int(value, n)``."""
    return format(value, f"0{n}b") if n else ""


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


def pack_rows(m) -> list[int]:
    """Rows of a 0/1 matrix as packed ints, each the ``to_int`` of its row."""
    mat = as_matrix(m)
    rows, cols = mat.shape
    nbytes = -(-cols // 8)
    pad = 8 * nbytes - cols
    buf = np.packbits(mat, axis=1).tobytes()
    return [int.from_bytes(buf[k * nbytes : (k + 1) * nbytes], "big") >> pad for k in range(rows)]


def unpack_rows(values: list[int], n: int) -> np.ndarray:
    """The len(values) x n matrix whose rows are the packed ints ``values``."""
    nbytes = -(-n // 8)
    pad = 8 * nbytes - n
    buf = b"".join([(v << pad).to_bytes(nbytes, "big") for v in values])
    packed = np.frombuffer(buf, dtype=np.uint8).reshape(len(values), nbytes)
    return np.unpackbits(packed, axis=1, count=n)


def transpose(rows: list[int], width: int) -> list[int]:
    """The packed rows of m^T, for the packed rows of a len(rows) x width
    matrix m: bit len(rows) - 1 - i of row c is entry (i, c) of m."""
    count = len(rows)
    out = [0] * width
    for i, row in enumerate(rows):
        bit = 1 << (count - 1 - i)
        while row:
            low = row & -row
            out[width - low.bit_length()] |= bit
            row ^= low
    return out


def eliminate(rows: list[int], width: int, ncols: int | None = None) -> list[int]:
    """Bring packed rows of ``width`` columns to reduced echelon form, in
    place, and return the pivot columns in ascending order.

    The one elimination core: ``rref``, ``Factor`` and ``int_kernel`` all
    run it.  Column c is bit width - 1 - c, so a row operation is one XOR.
    With ``ncols``, pivots are taken among the first ``ncols`` columns
    only; the other columns are carried along by the row operations.
    """
    count = len(rows)
    pivots: list[int] = []
    row = 0
    for col in range(width if ncols is None else ncols):
        if row == count:
            break
        bit = 1 << (width - 1 - col)
        for pivot in range(row, count):
            if rows[pivot] & bit:
                break
        else:
            continue
        rows[row], rows[pivot] = rows[pivot], rows[row]
        lead = rows[row]
        for k in range(count):
            if k != row and rows[k] & bit:
                rows[k] ^= lead
        pivots.append(col)
        row += 1
    return pivots


def rref(m, ncols: int | None = None) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form over GF(2).

    Returns (R, pivot_cols) where pivot_cols lists the pivot column
    indices in ascending order.  The row space is preserved and the
    transform is idempotent: rref(rref(m)) == rref(m).  With ``ncols``,
    pivots are taken among the first ``ncols`` columns only; the other
    columns, the right-hand sides of an augmented system, are carried
    along by the row operations.  The rows are eliminated packed
    (``eliminate``) and unpacked once at the end.
    """
    mat = as_matrix(m)
    packed = pack_rows(mat)
    pivots = eliminate(packed, mat.shape[1], ncols)
    return unpack_rows(packed, mat.shape[1]), pivots


def rank(m) -> int:
    return len(rref(m)[1])


def kernel_basis(m) -> list[np.ndarray]:
    """Canonical basis of the right kernel.

    One basis vector per free column of the reduced echelon form, in
    ascending free-column order; the free coordinate is set to 1 and the
    pivot coordinates are back-substituted.
    """
    mat = as_matrix(m)
    return list(unpack_rows(int_kernel(pack_rows(mat), mat.shape[1]), mat.shape[1]))


def int_kernel(rows: list[int], width: int) -> list[int]:
    """``kernel_basis`` of packed rows, as packed ints."""
    reduced = list(rows)
    return _echelon_kernel(reduced, eliminate(reduced, width), width)


def _echelon_kernel(rows: list[int], pivots: list[int], width: int) -> list[int]:
    """``int_kernel`` of packed rows already in reduced echelon form."""
    pivot_set = set(pivots)
    basis = []
    for free in range(width):
        if free in pivot_set:
            continue
        bit = 1 << (width - 1 - free)
        v = bit
        for row, pc in zip(rows, pivots):
            if row & bit:
                v |= 1 << (width - 1 - pc)
        basis.append(v)
    return basis


def int_matvec(rows: list[int], v: int) -> int:
    """m v packed, for the packed rows of m: bit len(rows) - 1 - i is the
    parity of row i against v."""
    out = 0
    for row in rows:
        out = (out << 1) | ((row & v).bit_count() & 1)
    return out


def int_coset_minimum(x: int, rows: list[int], pivots: list[int], width: int) -> int:
    """``coset_minimum`` on packed ints, given the packed reduced echelon
    rows of the matrix and their pivots."""
    for row, pc in zip(rows, pivots):
        if x >> (width - 1 - pc) & 1:
            x ^= row
    return x


def int_span(basis: list[int]) -> list[int]:
    """All vectors in the span of packed ``basis``, ascending, formed by XOR
    doubling.  A basis vector shifted left with a tag in its low bits, such
    as its image under a linear map, carries the same combination of tags
    through the doubling, since XOR has no carries."""
    span = [0]
    for b in basis:
        span += [v ^ b for v in span]
    span.sort()
    return span


class Factor:
    """One elimination of a matrix m, kept to solve m x = b for any b.

    Built from the packed rows of m (``pack_rows``) and its column count
    ``width``; the rows are not changed.  ``rows`` is the reduced form of
    [m | I], packed, with pivots taken among m's columns only: [R | T] with
    R = rref(m), ``pivots`` its pivot columns, and T the row operations
    with T m = R.  Applying it to a right-hand side costs one product T b
    (``solve_int``).
    """

    def __init__(self, rows: list[int], width: int):
        count = self.count = len(rows)
        self.width = width
        self.rows = [(r << count) | (1 << (count - 1 - k)) for k, r in enumerate(rows)]
        self.pivots = eliminate(self.rows, width + count, width)

    def kernel(self) -> list[np.ndarray]:
        """``kernel_basis`` of the factored matrix."""
        return list(unpack_rows(self.int_kernel(), self.width))

    def int_kernel(self) -> list[int]:
        """``kernel`` as packed ints."""
        echelon = [r >> self.count for r in self.rows[: len(self.pivots)]]
        return _echelon_kernel(echelon, self.pivots, self.width)

    def solve_int(self, b: int) -> int | None:
        """The packed canonical particular solution of m x = b (free
        variables 0) for packed b, or None when b is not solvable.

        R x = T b: only the T part of each packed row meets b, so each bit
        of T b is one parity.  The pivot rows of T b give the solution, and
        the rows past the rank, where R is zero, must vanish.
        """
        reduced = int_matvec(self.rows, b)
        rank = len(self.pivots)
        if reduced & ((1 << (self.count - rank)) - 1):
            return None
        x = 0
        for k, pc in enumerate(self.pivots):
            if reduced >> (self.count - 1 - k) & 1:
                x |= 1 << (self.width - 1 - pc)
        return x


def solve(m, rhs) -> tuple[np.ndarray, list[np.ndarray]] | None:
    """Solve m x = rhs over GF(2).

    Returns (particular, kernel) or None when the system is inconsistent.
    The particular solution is the canonical one with all free variables
    set to 0 under the reduced echelon form; the full solution set is
    particular + span(kernel).
    """
    mat = as_matrix(m)
    factored = Factor(pack_rows(mat), mat.shape[1])
    b = as_vector(rhs)
    if b.shape[0] != factored.count:
        raise ValueError(f"matrix has {factored.count} rows, rhs has {b.shape[0]}")
    x = factored.solve_int(to_int(b))
    if x is None:
        return None
    return from_int(x, factored.width), factored.kernel()


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
    packed = []
    if basis:
        mat = as_matrix(np.array(basis))
        if mat.shape[1] != n:
            raise ValueError(f"basis vectors have length {mat.shape[1]}, expected {n}")
        packed = pack_rows(mat)
    return list(unpack_rows(int_span(packed), n))
