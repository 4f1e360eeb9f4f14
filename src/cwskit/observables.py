"""Decoding observables for CWS codes.

Pauli decoding observables are stabilizer elements commuting with every
codeword operator; their exponents form the kernel of the codeword
matrix.  Non-Pauli decoding observables handled here are the four-term
involutions sign * S^v * (-I + S^v1 + S^v2 + S^(v1+v2)) / 2 over the
stabilizer group.  Such an observable fixes every codeword state exactly
when <C_i, v> = <C_i, v1> OR <C_i, v2> for all codewords C_i, a linear
system over GF(2) once the right-hand side is fixed; it measures an error
set without information leakage exactly when v plus the commutation
correction of each error still solves that system.

Every commutation question is answered on classical words: S^v commutes
with an error E = Z^z X^x exactly when <z + M x, v> = 0, so a whole error
set is handled as one matrix of words (``cws.classical_words``) and
products of it with exponent vectors, without forming phased Paulis.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from . import gf2
from .cws import (
    CwsCode,
    ErrorSet,
    classical_words,
    classicalize,
    code_fingerprint,
    detects,
    json_field,
    json_list,
    json_sign,
    json_value,
    json_vector,
)
from .pauli import Pauli


# Candidate spaces of the pair search: the subset's normalizer or the whole group.
MODES = ("corollary", "exhaustive")


class UndetectableError(ValueError):
    """An error set contains an error the code cannot detect."""


@dataclass(eq=False)
class Type4Observable:
    """Four-term involution sign * S^v * (-I + S^v1 + S^v2 + S^(v1+v2)) / 2.

    v1 and v2 must be distinct and nonzero, which makes the four group
    exponents v, v+v1, v+v2, v+v1+v2 distinct and the operator square to
    the identity.
    """

    v: np.ndarray
    v1: np.ndarray
    v2: np.ndarray
    sign: int = 1

    def __post_init__(self):
        self.v = gf2.as_vector(self.v).copy()
        self.v1 = gf2.as_vector(self.v1).copy()
        self.v2 = gf2.as_vector(self.v2).copy()
        if not (self.v.shape == self.v1.shape == self.v2.shape):
            raise ValueError("v, v1, v2 must have equal length")
        if not self.v1.any() or not self.v2.any():
            raise ValueError("v1 and v2 must be nonzero")
        if np.array_equal(self.v1, self.v2):
            raise ValueError("v1 and v2 must differ")
        if self.sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        for arr in (self.v, self.v1, self.v2):
            arr.setflags(write=False)

    @property
    def n(self) -> int:
        return int(self.v.shape[0])

    def exponents(self) -> tuple[np.ndarray, ...]:
        """The four stabilizer exponents carrying coefficients -1/2, 1/2, 1/2, 1/2."""
        return (self.v, self.v ^ self.v1, self.v ^ self.v2, self.v ^ self.v1 ^ self.v2)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Type4Observable):
            return NotImplemented
        return (
            self.sign == other.sign
            and np.array_equal(self.v, other.v)
            and np.array_equal(self.v1, other.v1)
            and np.array_equal(self.v2, other.v2)
        )

    def __repr__(self) -> str:
        return (
            f"Type4Observable(v={gf2.format_vector(self.v)!r},"
            f" v1={gf2.format_vector(self.v1)!r},"
            f" v2={gf2.format_vector(self.v2)!r}, sign={self.sign})"
        )

    def to_dict(self) -> dict:
        return {
            "v": gf2.format_vector(self.v),
            "v1": gf2.format_vector(self.v1),
            "v2": gf2.format_vector(self.v2),
            "sign": self.sign,
        }

    @classmethod
    def from_dict(cls, d: dict, path: str = "") -> "Type4Observable":
        """Read the JSON form of ``to_dict``; ``sign`` defaults to +1.

        Raises ValueError naming the field, prefixed by ``path``, the
        object's place in its file.
        """
        json_value(d, dict, path)
        prefix = f"{path}." if path else ""
        v, v1, v2 = (
            json_vector(json_field(d, key, str, path), prefix + key) for key in ("v", "v1", "v2")
        )
        sign = json_sign(d.get("sign", 1), prefix + "sign")
        try:
            return cls(v, v1, v2, sign)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}" if path else str(exc)) from None


def pauli_normalizer_generators(code: CwsCode) -> list[np.ndarray]:
    """Independent exponents of stabilizer elements commuting with every
    codeword operator: the canonical kernel basis of the codeword matrix."""
    return list(code.kernel)


def commutation_correction(code: CwsCode, v1, v2, g: Pauli) -> np.ndarray:
    """Stabilizer exponent picked up when g is moved past the four-term
    element of (v1, v2).

    Returns v1+v2 if g anticommutes with both S^v1 and S^v2, v1 if only
    with S^v2, v2 if only with S^v1, and 0 otherwise; the anticommutation
    bits are <w, v1> and <w, v2> for the classical word w of g.
    """
    v1 = gf2.as_vector(v1)
    v2 = gf2.as_vector(v2)
    if g.n != code.n:
        raise ValueError(f"operator acts on {g.n} qubits, code has {code.n}")
    word = classicalize(code, g)
    anti1 = gf2.dot(word, v1)
    anti2 = gf2.dot(word, v2)
    return (v1 * anti2) ^ (v2 * anti1)


def stabilization_rhs(code: CwsCode, v1, v2) -> np.ndarray:
    """Right-hand side of the stabilization system: the logical OR
    <C_i, v1> | <C_i, v2> per codeword."""
    return gf2.matvec(code.codewords, v1) | gf2.matvec(code.codewords, v2)


def stabilizes(code: CwsCode, a: Type4Observable) -> bool:
    """True iff the observable fixes every codeword state: its eigenvalue
    on the identity error, whose classical word is zero, is +1."""
    return bool(eigenvalues(code, np.zeros((1, code.n), dtype=np.uint8), a)[0] == 1)


def eigenvalues(code: CwsCode, words: np.ndarray, a: Type4Observable) -> np.ndarray:
    """Measurement outcome of the observable on each error, one error per
    row of classical ``words``: +1 or -1, or 0 where the observable leaks.

    A codeword state corrupted by E, E Z^c |G>, is up to phase the
    graph-basis state Z^(c + w) |G> for the classical word w of E, and S^u
    acts on it as (-1)^<c + w, u>.  So the eigenvalue at c = 0 is
    sign * (-1)^(<w, v> + (<w, v1> OR <w, v2>)).  It holds for every
    codeword exactly when v plus the correction a2 v1 + a1 v2 of the error,
    with (a1, a2) = (<w, v1>, <w, v2>), still solves the stabilization
    system: C v + a2 (C v1) + a1 (C v2) = C v1 | C v2.  Otherwise the
    outcome depends on the codeword and the observable leaks.
    """
    if a.n != code.n:
        raise ValueError(f"observable length {a.n} does not match code n={code.n}")
    exps = np.array([a.v, a.v1, a.v2], dtype=np.uint8)
    bits = (words @ exps.T) & 1
    images = (exps @ code.codewords.T) & 1  # C v, C v1, C v2 as rows
    shifted = images[0] ^ (bits[:, 2:3] & images[1]) ^ (bits[:, 1:2] & images[2])
    leaks = (shifted != (images[1] | images[2])).any(axis=1)
    flips = bits[:, 0] ^ (bits[:, 1] | bits[:, 2])
    return np.where(leaks, 0, a.sign * (1 - 2 * flips.astype(int)))


def is_decoding_observable(code: CwsCode, errors: ErrorSet, a: Type4Observable) -> bool:
    """Main usability criterion: the observable leaks on no error.  Errors
    are assumed detectable.  The overall sign does not matter here."""
    return bool(eigenvalues(code, classical_words(code, errors), a).all())


def eigenvalue_on_error(code: CwsCode, a: Type4Observable, e: Pauli) -> int:
    """``eigenvalues`` on one error; ValueError when the observable leaks on it."""
    sign = int(eigenvalues(code, classicalize(code, e)[None, :], a)[0])
    if not sign:
        raise ValueError(
            f"observable leaks on error {e}: shifted exponent does not solve"
            " the stabilization system"
        )
    return sign


@dataclass
class SyndromeClass:
    """Errors sharing one sign vector under the measured Pauli observables."""

    signs: tuple[int, ...]
    members: list[int]


def sign_string(signs: tuple[int, ...]) -> str:
    """A sign vector as it appears in files and tables, e.g. "++-+"."""
    return "".join("+" if s == 1 else "-" for s in signs)


def pauli_syndrome_partition(
    code: CwsCode, errors: ErrorSet, observables: list[np.ndarray]
) -> list[SyndromeClass]:
    """Group errors by their commutation signs against each S^O, from one
    product of the classical words with the observable exponents.

    Classes are ordered by sign vector with + before -, members by input
    index; the identity error always lands in the all-plus class.
    """
    for o in observables:
        if len(o) != code.n:
            raise ValueError(f"observable length {len(o)} does not match code n={code.n}")
    exps = np.array(observables, dtype=np.uint8).reshape(len(observables), code.n)
    bits = (classical_words(code, errors) @ exps.T) & 1
    buckets: dict[tuple[int, ...], list[int]] = {}
    for idx, row in enumerate(bits.tolist()):
        buckets.setdefault(tuple(1 - 2 * b for b in row), []).append(idx)
    ordered = sorted(buckets, key=lambda s: tuple(0 if b == 1 else 1 for b in s))
    return [SyndromeClass(signs, buckets[signs]) for signs in ordered]


def error_normalizer_elements(code: CwsCode, subset: ErrorSet) -> list[np.ndarray]:
    """All exponents V with S^V commuting with every error in the subset.

    S^V commutes with a Pauli g exactly when <classicalize(g), V> = 0, so
    the exponents are the kernel of the matrix of classical words.
    Returned as the full span, ascending as big-endian integers.
    """
    rows = classical_words(code, subset)
    return gf2.enumerate_span(gf2.kernel_basis(rows), code.n)


def search_space_size(code: CwsCode, subset: ErrorSet, mode: str = "corollary") -> int:
    """Number of candidate (v1, v2) pairs in the unreduced search space.

    ``search_type4`` decides all of them but scans one candidate per coset
    of its blind space, so it visits fewer."""
    if mode == "corollary":
        m = 2 ** (code.n - gf2.rank(classical_words(code, subset))) - 1
    elif mode == "exhaustive":
        m = 2 ** code.n - 1
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return m * (m - 1) // 2


def search_type4(
    code: CwsCode,
    subset: ErrorSet,
    mode: str = "corollary",
) -> Type4Observable | None:
    """First four-term observable splitting the subset, or None.

    The subset must lie inside one Pauli syndrome class (every error
    commutes alike with every Pauli decoding observable); a subset that
    spans several classes raises ValueError, since the Pauli layer
    already separates it.

    Candidate exponents are the normalizer of the subset (corollary mode)
    or the whole group (exhaustive mode).  Pairs are visited in ascending
    big-endian order with v1 < v2; the stabilization solution is the coset
    minimum, so results are reproducible.

    Both exponents of a usable pair that splits the subset commute alike
    with every error of it: f(v)[t] = <w_t + w_0, v> = 0 over the subset's
    classical words w_t (see ``_pair_search``).  So both modes scan only
    candidates orthogonal to ``fixed``, and the mode only picks it: the
    words in corollary mode, the rows w_t + w_0 in exhaustive mode, which
    decides the whole group.  The scan sees a candidate only through its
    image C v, shared exactly by candidates whose difference lies in the
    blind space, the kernel of [fixed; C].  So only the minimum of each
    coset of the blind space is scanned: the candidates that are 0 at
    every pivot column of its echelon form (``gf2.coset_minimum``).  The
    first hit is unchanged.  A pair from one coset, or with the zero coset,
    never splits: C v1 | C v2 is then C v for one of them, and every gap
    <alpha_t, C v> = <w_t + w_0, v> vanishes.  So the first hit in the
    full order joins two other cosets A and B, min A < min B, and the
    first pair of A x B in that order is (min A, min B).
    ``search_space_size`` still counts the unreduced space, all decided.

    The set-up works on packed ints (``gf2.pack_rows``): the blind space
    is the part of the code's kernel basis orthogonal to ``fixed``, so no
    matrix holding C is eliminated per class, and the candidates come
    with their images C v from one XOR doubling (``gf2.int_span``).
    Only the offsets alpha_t (one batch solve of ``ct_factor``) and the
    block scan of ``_pair_search`` use numpy.
    """
    if len(subset) < 2:
        raise ValueError("need at least two errors to split")
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    words = classical_words(code, subset)
    alpha = _syndrome_offsets(code, subset, words)
    packed = gf2.pack_rows(words)
    fixed = packed if mode == "corollary" else [w ^ packed[0] for w in packed[1:]]
    n = code.n
    kernel, _ = code.kernel_echelon
    # ker C orthogonal to fixed: the kernel combinations lam with sum_j lam_j <fixed, K_j> = 0
    combos = gf2.int_kernel([gf2.int_matvec(kernel, f) for f in fixed], len(kernel))
    blind = [_combine(kernel, lam) for lam in combos]
    pivots = gf2.eliminate(blind, n)
    # orthogonal to fixed and 0 on every pivot of the blind space
    basis = gf2.int_kernel(fixed + [1 << (n - 1 - p) for p in pivots], n)
    # each candidate v with its image C v in the low K bits
    k = code.num_codewords
    tagged = gf2.int_span([(b << k) | gf2.int_matvec(code.codeword_rows, b) for b in basis])[1:]
    if len(tagged) < 2:  # the zero coset is skipped
        return None
    low = (1 << k) - 1
    return _pair_search(code, packed[0], alpha, [t >> k for t in tagged], [t & low for t in tagged])


def _combine(rows: list[int], lam: int) -> int:
    """XOR of the rows picked by the packed coefficients lam: row j when
    bit len(rows) - 1 - j is set."""
    out = 0
    for j, row in enumerate(rows):
        if lam >> (len(rows) - 1 - j) & 1:
            out ^= row
    return out


def _syndrome_offsets(code: CwsCode, subset: ErrorSet, words: np.ndarray) -> np.ndarray:
    """Rows alpha_t with C^T alpha_t = w_t + w_0 for t = 1, 2, ...

    All of them come from the code's one factor of C^T (``ct_factor``),
    applied to the columns w_t + w_0.  The difference of two classical
    words lies in the row space of C exactly when it is orthogonal to
    ker C, i.e. when the two errors share their Pauli syndrome; otherwise
    ValueError names the pair.
    """
    offsets, consistent = code.ct_factor.solve((words[1:] ^ words[0]).T)
    if not consistent.all():
        t = 1 + int(np.flatnonzero(~consistent)[0])
        raise ValueError(
            f"errors {subset.labels[0]!r} and {subset.labels[t]!r} have different"
            " Pauli syndromes; search within one syndrome class"
        )
    return offsets.T


# Pairs per scan block.  Blocks start at one row of the pair triangle and
# double up to this cap, so an early hit stays cheap and the per-block
# temporaries stay at a few hundred kilobytes however large the scan.
_BLOCK_CAP = 4096


def _pack_rows(bits: np.ndarray) -> np.ndarray:
    """Rows of a 0/1 matrix as little-endian 64-bit words: bit t of a row is
    bit t % 64 of word t // 64, with zero padding after the last column."""
    rows, cols = bits.shape
    packed = np.zeros((rows, 8 * max(1, -(-cols // 64))), dtype=np.uint8)
    packed[:, : -(-cols // 8)] = np.packbits(bits, axis=1, bitorder="little")
    return packed.view("<u8")


def _pack_ints(values: list[int], bits: int) -> np.ndarray:
    """Packed ints of ``bits`` bits as rows of little-endian 64-bit words:
    bit p of a value is bit p % 64 of word p // 64."""
    nbytes = 8 * max(1, -(-bits // 64))
    buf = b"".join([v.to_bytes(nbytes, "little") for v in values])
    return np.frombuffer(buf, dtype="<u8").reshape(len(values), -1)


def _parity_table(mat: np.ndarray) -> np.ndarray:
    """Byte tables for the GF(2) map x -> mat x on packed vectors.

    ``table[b, y]`` holds the packed parities of the rows of ``mat`` against
    a vector whose only nonzero byte is byte b with value y, so the packed
    ``mat x`` is the XOR over b of ``table[b, byte b of x]``.
    """
    rows, cols = mat.shape
    nbytes = -(-cols // 8)
    padded = np.zeros((nbytes * 8, rows), dtype=np.uint8)
    padded[:cols] = mat.T
    columns = _pack_rows(padded).reshape(nbytes, 8, -1)  # packed column 8 b + k of mat
    table = np.zeros((nbytes, 256, columns.shape[2]), dtype=columns.dtype)
    for k in range(8):  # values with top bit k: the values below 2^k plus column 8 b + k
        table[:, 1 << k : 2 << k] = table[:, : 1 << k] ^ columns[:, k : k + 1]
    return table


def _nonzero(words: np.ndarray) -> np.ndarray:
    """Per row of packed words: whether any bit is set."""
    acc = words[:, 0]
    for k in range(1, words.shape[1]):
        acc = acc | words[:, k]
    return acc != 0


def _pair_search(
    code: CwsCode, word0: int, alpha: np.ndarray, candidates: list[int], images: list[int]
) -> Type4Observable | None:
    """First pair (i, j), i < j, of candidates whose four-term element is
    usable on the subset and splits it, as a solved observable.

    Candidates and their images C v over the K codewords come packed
    (``gf2.pack_rows`` order); each image is copied once into 64-bit words
    for the block scan, which stays in numpy with its parity tables.
    ``word0`` is the packed classical word w_0 of error 0, which solves
    the hit.  With a[t] the anticommutation bit of S^v and subset error t,
    f[t] = a[t] + a[0] = <w_t + w_0, v> = <alpha_t, C v>, as
    C^T alpha_t = w_t + w_0.

    Usability.  The correction of error t shifts the stabilization system
    by a_i[t] C v_j + a_j[t] C v_i, and the pair is usable when every shift
    equals error 0's: f_i[t] C v_j = f_j[t] C v_i for every t.  A pair with
    C v_i = 0 never splits a syndrome class (S^v_i is then a Pauli decoding
    observable), and likewise for v_j.  So a usable pair that splits has
    f_i = f_j, and C v_i = C v_j if f_i is nonzero, which makes its gaps
    (below) <alpha_t, C v_i> + f_i[t] = 0.  Hence f_i = f_j = 0 for every
    usable pair that splits, and ``search_type4`` passes only such
    candidates: every shift is error 0's, and no pair is rejected.

    Solvability and splitting.  The shifted right-hand side is
    (C v_i | C v_j) + C u with u = a_i[0] v_j + a_j[0] v_i.  The
    commutation gap of S^v between errors t and 0 is <alpha_t, C v> for
    every solution v, and neither <alpha_t, C u> = <w_t + w_0, u> nor the
    correction bits add to it.  So the system is solvable when the left
    kernel of C annihilates C v_i | C v_j, and error t's sign differs from
    error 0's when <alpha_t, C v_i | C v_j> = 1.  Both parities come from
    byte tables.  A pair of equal images has gaps <alpha_t, C v_i> = 0, so
    ``search_type4`` passes one candidate per image, the smallest, and
    drops the zero image; the first hit is the same as over every
    candidate.
    """
    k = code.num_codewords
    packed = _pack_ints(images, k)
    errs = alpha.shape[0] + 1
    width = -(-errs // 64)
    # parity bit t < 64 * width is <alpha_t, rhs> (0 for error 0); the bits
    # after them are the left kernel of C
    left = code.left_kernel
    parity_rows = np.zeros((64 * width + len(left), k), dtype=np.uint8)
    parity_rows[1:errs] = alpha
    if left:
        parity_rows[64 * width:] = left
    table = _parity_table(parity_rows[:, ::-1])  # bit p of a packed image is codeword K - 1 - p

    m = len(candidates)
    rows = np.arange(m)
    row_start = rows * m - rows * (rows + 1) // 2  # scan position of (i, i + 1)
    row_stop = np.append(row_start[1:], row_start[-1])
    total = m * (m - 1) // 2
    start, size, row = 0, min(m - 1, _BLOCK_CAP), 0
    while start < total:
        stop = min(total, start + size)
        last = row + int(np.searchsorted(row_start[row:], stop)) - 1
        block_rows = slice(row, last + 1)
        counts = np.minimum(row_stop[block_rows], stop) - np.maximum(row_start[block_rows], start)
        i = np.repeat(rows[block_rows], counts)
        j = np.arange(start, stop) - row_start[i] + i + 1
        rhs_bytes = (packed.take(i, axis=0) | packed.take(j, axis=0)).view(np.uint8)
        parity = table[0].take(rhs_bytes[:, 0], axis=0)
        for b in range(1, table.shape[0]):
            parity ^= table[b].take(rhs_bytes[:, b], axis=0)
        hits = np.flatnonzero(~_nonzero(parity[:, width:]) & _nonzero(parity[:, :width]))
        if hits.size:
            first, second = int(i[hits[0]]), int(j[hits[0]])
            return _solved_observable(
                code, word0, candidates[first], candidates[second], images[first], images[second]
            )
        start, row = stop, last
        size = min(2 * size, _BLOCK_CAP)
    return None


def _solved_observable(
    code: CwsCode, word0: int, v1: int, v2: int, img1: int, img2: int
) -> Type4Observable:
    """The observable of (v1, v2) whose v is the smallest solution of the
    stabilization system shifted by the correction of error 0, all packed:
    img1 and img2 are C v1 and C v2.  The particular solution comes from
    the code's one factor of C (``c_factor``), and its coset minimum from
    the kept echelon form of ker C."""
    rhs = img1 | img2
    if (word0 & v1).bit_count() & 1:
        rhs ^= img2
    if (word0 & v2).bit_count() & 1:
        rhs ^= img1
    particular = code.c_factor.solve_int(rhs)
    assert particular is not None
    v = gf2.int_coset_minimum(particular, *code.kernel_echelon, code.n)
    return Type4Observable(*gf2.unpack_rows([v, v1, v2], code.n))


@dataclass
class RefinementStep:
    """One conditional measurement: which observable, applied to which
    error indices, with the expected sign per index."""

    observable: int
    applies_to: list[int]
    signs: dict[int, int]


@dataclass
class UnresolvedSubset:
    class_index: int
    members: list[int]
    pairs_searched: int


@dataclass
class DecodingPlan:
    """Pauli syndrome layer plus conditional four-term refinements."""

    n: int
    mode: str
    code_sha256: str
    error_labels: list[str]
    error_paulis: list[str]
    pauli_observables: list[np.ndarray]
    classes: list[SyndromeClass]
    type4_observables: list[Type4Observable]
    refinements: list[list[RefinementStep]]
    unresolved: list[UnresolvedSubset] = field(default_factory=list)

    @property
    def complete(self) -> bool:
        return not self.unresolved

    def observable_class_counts(self) -> list[int]:
        """How many syndrome classes each four-term observable serves."""
        counts = [0] * len(self.type4_observables)
        for steps in self.refinements:
            for k in {step.observable for step in steps}:
                counts[k] += 1
        return counts

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "mode": self.mode,
            "code_sha256": self.code_sha256,
            "resolved": self.complete,
            "errors": [
                {"label": l, "pauli": p}
                for l, p in zip(self.error_labels, self.error_paulis)
            ],
            "pauli_observables": [gf2.format_vector(o) for o in self.pauli_observables],
            "type4_observables": [a.to_dict() for a in self.type4_observables],
            "classes": [
                {
                    "signs": sign_string(cls.signs),
                    "members": [self.error_labels[i] for i in cls.members],
                    "steps": [
                        {
                            "observable": step.observable,
                            "applies_to": [self.error_labels[i] for i in step.applies_to],
                            "signs": {
                                self.error_labels[i]: s for i, s in step.signs.items()
                            },
                        }
                        for step in steps
                    ],
                }
                for cls, steps in zip(self.classes, self.refinements)
            ],
            "unresolved": [
                {
                    "class": u.class_index,
                    "members": [self.error_labels[i] for i in u.members],
                    "pairs_searched": u.pairs_searched,
                }
                for u in self.unresolved
            ],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "DecodingPlan":
        """Read the JSON form of ``to_dict``; the plan format's only reader.

        Raises ValueError naming the JSON path of the first malformed
        field, such as ``classes[1].steps[0].signs``.  Member labels must
        name entries of ``errors``, a step's ``observable`` must index
        ``type4_observables``, and its ``signs`` must give +1 or -1 for
        exactly the errors of its ``applies_to``.  The header must agree
        with the body: ``mode`` is one of the two search modes, ``resolved``
        is true exactly when ``unresolved`` is empty, and each unresolved
        entry names a class and only members of it.  ``verify`` checks that
        the steps and entries form a refinement tree.
        """

        def members(obj, key, path):
            out = []
            for at, label in json_list(obj, key, str, path):
                if label not in index:
                    raise ValueError(f"field {at!r} names unknown error {label!r}")
                out.append(index[label])
            return out

        json_value(d, dict, "")
        errors = json_list(d, "errors", dict)
        labels = [json_field(e, "label", str, at) for at, e in errors]
        index = {label: i for i, label in enumerate(labels)}
        observables = [
            Type4Observable.from_dict(a, at) for at, a in json_list(d, "type4_observables", dict)
        ]
        classes, refinements = [], []
        for at, c in json_list(d, "classes", dict):
            signs = json_field(c, "signs", str, at)
            if set(signs) - {"+", "-"}:
                raise ValueError(f"field '{at}.signs' must be a string of + and -, got {signs!r}")
            classes.append(
                SyndromeClass(tuple(1 if ch == "+" else -1 for ch in signs), members(c, "members", at))
            )
            steps = []
            for step_at, s in json_list(c, "steps", dict, at):
                k = json_field(s, "observable", int, step_at)
                if not 0 <= k < len(observables):
                    raise ValueError(
                        f"field '{step_at}.observable' refers to observable {k},"
                        f" plan has {len(observables)} four-term observables"
                    )
                applies_to = members(s, "applies_to", step_at)
                given = json_field(s, "signs", dict, step_at)
                if set(given) != {labels[i] for i in applies_to}:
                    raise ValueError(
                        f"field '{step_at}.signs' must name exactly the errors of applies_to"
                    )
                step_signs = {
                    index[label]: json_sign(v, f"{step_at}.signs.{label}")
                    for label, v in given.items()
                }
                steps.append(RefinementStep(k, applies_to, step_signs))
            refinements.append(steps)
        mode = json_field(d, "mode", str)
        if mode not in MODES:
            raise ValueError(f"field 'mode' must be 'corollary' or 'exhaustive', got {mode!r}")
        unresolved = []
        for at, u in json_list(d, "unresolved", dict):
            k = json_field(u, "class", int, at)
            if not 0 <= k < len(classes):
                raise ValueError(
                    f"field '{at}.class' refers to class {k}, plan has {len(classes)} classes"
                )
            stuck = members(u, "members", at)
            outside = [labels[i] for i in stuck if i not in classes[k].members]
            if outside:
                raise ValueError(f"field '{at}.members' names {outside[0]!r}, not in class {k}")
            unresolved.append(UnresolvedSubset(k, stuck, json_field(u, "pairs_searched", int, at)))
        if d.get("resolved") is not (not unresolved):
            raise ValueError("field 'resolved' must be true exactly when 'unresolved' is empty")
        return cls(
            n=json_field(d, "n", int),
            mode=mode,
            code_sha256=json_field(d, "code_sha256", str),
            error_labels=labels,
            error_paulis=[json_field(e, "pauli", str, at) for at, e in errors],
            pauli_observables=[
                json_vector(o, at) for at, o in json_list(d, "pauli_observables", str)
            ],
            classes=classes,
            type4_observables=observables,
            refinements=refinements,
            unresolved=unresolved,
        )

    def to_table(self) -> str:
        """Human-readable sign table, one block per syndrome class."""
        lines = []
        header = " ".join(f"O{k + 1}" for k in range(len(self.pauli_observables)))
        lines.append(f"pauli observables: {header}")
        for o, vec in enumerate(self.pauli_observables):
            lines.append(f"  O{o + 1} = {gf2.format_vector(vec)}")
        for cls, steps in zip(self.classes, self.refinements):
            members = " ".join(self.error_labels[i] for i in cls.members)
            lines.append(f"[{sign_string(cls.signs)}] errors: {members}")
            for step in steps:
                cells = "   ".join(
                    f"{self.error_labels[i]} {'+' if step.signs[i] == 1 else '-'}"
                    for i in step.applies_to
                )
                lines.append(f"  A{step.observable + 1}: {cells}")
            if len(cls.members) == 1:
                lines.append("  (already identified)")
        for u in self.unresolved:
            members = " ".join(self.error_labels[i] for i in u.members)
            lines.append(
                f"UNRESOLVED in class {u.class_index}: {{{members}}}"
                f" after {u.pairs_searched} candidate pairs"
            )
        return "\n".join(lines)


def build_decoding_plan(
    code: CwsCode,
    errors: ErrorSet,
    mode: str = "corollary",
) -> DecodingPlan:
    """Full decoding procedure.

    Measures the Pauli normalizer generators to partition the error set
    into syndrome classes, then refines every multi-error class with
    four-term observables: previously found observables are reused when
    they remain usable and split the class, otherwise a fresh pair search
    runs; sub-splits recurse until singletons.  Classes the search cannot
    split are reported with the exhausted pair count instead of failing.
    """
    for label, e in errors:
        result = detects(code, e)
        if not result:
            raise UndetectableError(f"error {label!r} is not detectable: {result.detail}")
    pauli_obs = pauli_normalizer_generators(code)
    classes = pauli_syndrome_partition(code, errors, pauli_obs)
    words = classical_words(code, errors)
    found: list[Type4Observable] = []
    tables: list[np.ndarray] = []  # eigenvalues of found[k] on every error
    refinements: list[list[RefinementStep]] = []
    unresolved: list[UnresolvedSubset] = []
    for ci, cls in enumerate(classes):
        steps: list[RefinementStep] = []
        queue = deque([cls.members]) if len(cls.members) > 1 else deque()
        while queue:
            members = queue.popleft()
            for chosen, table in enumerate(tables):
                signs = table[members]
                if set(signs.tolist()) == {1, -1}:
                    break
            else:
                sub = errors.subset(members)
                obs = search_type4(code, sub, mode=mode)
                if obs is None:
                    unresolved.append(
                        UnresolvedSubset(ci, members, search_space_size(code, sub, mode))
                    )
                    continue
                found.append(obs)
                tables.append(eigenvalues(code, words, obs))
                chosen = len(found) - 1
                signs = tables[chosen][members]
                assert set(signs.tolist()) == {1, -1}, "search returned a non-splitting observable"
            signed = dict(zip(members, signs.tolist()))
            steps.append(RefinementStep(chosen, members, signed))
            plus = [i for i in members if signed[i] == 1]
            minus = [i for i in members if signed[i] == -1]
            for group in (plus, minus):
                if len(group) > 1:
                    queue.append(group)
        refinements.append(steps)
    return DecodingPlan(
        n=code.n,
        mode=mode,
        code_sha256=code_fingerprint(code),
        error_labels=list(errors.labels),
        error_paulis=[str(e) for e in errors.errors],
        pauli_observables=pauli_obs,
        classes=classes,
        type4_observables=found,
        refinements=refinements,
        unresolved=unresolved,
    )
