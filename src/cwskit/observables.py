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
set is handled as its packed words (``cws.classical_words``) and parities
of their ANDs with packed exponents, without forming phased Paulis.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from . import gf2
from .cws import (
    CwsCode,
    ErrorSet,
    classical_word,
    classical_words,
    classicalize,
    code_fingerprint,
    detects,
    json_binary,
    json_field,
    json_list,
    json_sign,
    json_value,
)
from .gf2 import np
from .pauli import Pauli


# Candidate spaces of the pair search: the subset's normalizer or the whole group.
MODES = ("corollary", "exhaustive")


class UndetectableError(ValueError):
    """An error set contains an error the code cannot detect."""


class Type4Observable:
    """Four-term involution sign * S^v * (-I + S^v1 + S^v2 + S^(v1+v2)) / 2.

    v1 and v2 must be distinct and nonzero, which makes the four group
    exponents v, v+v1, v+v2, v+v1+v2 distinct and the operator square to
    the identity.

    Stored packed: ``n``, ``sign`` and ``packed``, (v, v1, v2) as ints in
    the ``gf2.to_int`` order, which the plan path and ``eigenvalues``
    read.  ``v``, ``v1``, ``v2`` and ``exponents()`` are read-only 0/1
    arrays derived from them, for the dense oracle and the array API.
    """

    __slots__ = ("n", "sign", "_packed", "v", "v1", "v2")

    def __init__(self, v, v1, v2, sign: int = 1):
        rows = [gf2.as_vector(u) for u in (v, v1, v2)]
        if not (rows[0].shape == rows[1].shape == rows[2].shape):
            raise ValueError("v, v1, v2 must have equal length")
        self._set(rows[0].shape[0], tuple(gf2.pack_rows(rows)), sign)

    def _set(self, n: int, packed: tuple[int, int, int], sign: int) -> None:
        _, v1, v2 = packed
        if not v1 or not v2:
            raise ValueError("v1 and v2 must be nonzero")
        if v1 == v2:
            raise ValueError("v1 and v2 must differ")
        if sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        self.n, self.sign, self._packed = n, sign, packed

    @classmethod
    def _of(cls, n: int, v: int, v1: int, v2: int, sign: int = 1) -> "Type4Observable":
        """The observable of packed exponents of n bits, with the checks of
        the constructor."""
        obs = cls.__new__(cls)
        obs._set(n, (v, v1, v2), sign)
        return obs

    @property
    def packed(self) -> tuple[int, int, int]:
        """(v, v1, v2) as packed ints."""
        return self._packed

    def __getattr__(self, name: str):
        # only an unset slot gets here: v, v1 and v2 are derived on their first read
        if name not in ("v", "v1", "v2"):
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        rows = gf2.unpack_rows(self._packed, self.n)
        rows.setflags(write=False)
        self.v, self.v1, self.v2 = rows
        return getattr(self, name)

    def exponents(self) -> tuple[np.ndarray, ...]:
        """The four stabilizer exponents carrying coefficients -1/2, 1/2, 1/2, 1/2."""
        v, v1, v2 = self._packed
        return tuple(gf2.unpack_rows([v, v ^ v1, v ^ v2, v ^ v1 ^ v2], self.n))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Type4Observable):
            return NotImplemented
        return (self.n, self.sign, self._packed) == (other.n, other.sign, other._packed)

    def __repr__(self) -> str:
        v, v1, v2 = (gf2.format_int(u, self.n) for u in self._packed)
        return f"Type4Observable(v={v!r}, v1={v1!r}, v2={v2!r}, sign={self.sign})"

    def to_dict(self) -> dict:
        v, v1, v2 = (gf2.format_int(u, self.n) for u in self._packed)
        return {"v": v, "v1": v1, "v2": v2, "sign": self.sign}

    @classmethod
    def from_dict(cls, d: dict, path: str = "") -> "Type4Observable":
        """Read the JSON form of ``to_dict``; ``sign`` defaults to +1.

        Raises ValueError naming the field, prefixed by ``path``, the
        object's place in its file.
        """
        json_value(d, dict, path)
        prefix = f"{path}." if path else ""
        v, v1, v2 = (
            json_binary(json_field(d, key, str, path), prefix + key) for key in ("v", "v1", "v2")
        )
        sign = json_sign(d.get("sign", 1), prefix + "sign")
        try:
            if not len(v) == len(v1) == len(v2):
                raise ValueError("v, v1, v2 must have equal length")
            return cls._of(len(v), int(v, 2), int(v1, 2), int(v2, 2), sign)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}" if path else str(exc)) from None


def pauli_normalizer_generators(code: CwsCode) -> list[np.ndarray]:
    """Independent exponents of stabilizer elements commuting with every
    codeword operator: the canonical kernel basis of the codeword matrix.
    The plan reads it packed, ``code.c_factor.int_kernel()``."""
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
    return eigenvalues(code, [0], a)[0] == 1


def eigenvalues(code: CwsCode, words: list[int], a: Type4Observable) -> list[int]:
    """Measurement outcome of the observable on each error, one error per
    packed classical word: +1 or -1, or 0 where the observable leaks.

    A codeword state corrupted by E, E Z^c |G>, is up to phase the
    graph-basis state Z^(c + w) |G> for the classical word w of E, and S^u
    acts on it as (-1)^<c + w, u>.  So the eigenvalue at c = 0 is
    sign * (-1)^(<w, v> + (<w, v1> OR <w, v2>)).  It holds for every
    codeword exactly when v plus the correction a2 v1 + a1 v2 of the error,
    with (a1, a2) = (<w, v1>, <w, v2>), still solves the stabilization
    system: C v + a2 (C v1) + a1 (C v2) = C v1 | C v2.  Otherwise the
    outcome depends on the codeword and the observable leaks.  The images
    C v, C v1, C v2 are packed K-bit ints (``code.codeword_rows``).
    """
    if a.n != code.n:
        raise ValueError(f"observable length {a.n} does not match code n={code.n}")
    exps = a.packed
    image, image1, image2 = (gf2.int_matvec(code.codeword_rows, u) for u in exps)
    signs = []
    for w in words:
        b, b1, b2 = ((w & u).bit_count() & 1 for u in exps)
        leaks = image ^ (image1 if b2 else 0) ^ (image2 if b1 else 0) != image1 | image2
        signs.append(0 if leaks else -a.sign if b ^ (b1 | b2) else a.sign)
    return signs


def is_decoding_observable(code: CwsCode, errors: ErrorSet, a: Type4Observable) -> bool:
    """Main usability criterion: the observable leaks on no error.  Errors
    are assumed detectable.  The overall sign does not matter here."""
    return all(eigenvalues(code, classical_words(code, errors), a))


def eigenvalue_on_error(code: CwsCode, a: Type4Observable, e: Pauli) -> int:
    """``eigenvalues`` on one error; ValueError when the observable leaks on it."""
    sign = eigenvalues(code, [classical_word(code, e)], a)[0]
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
    """``syndrome_classes`` of the errors' classical words under the 0/1
    exponent vectors ``observables``."""
    for o in observables:
        if len(o) != code.n:
            raise ValueError(f"observable length {len(o)} does not match code n={code.n}")
    return syndrome_classes(classical_words(code, errors), [gf2.to_int(o) for o in observables])


def syndrome_classes(words: list[int], observables: list[int]) -> list[SyndromeClass]:
    """Group errors, given by their packed classical words, by their
    commutation signs against each S^O for the packed exponents O: the
    parities of the words against the exponents.

    Classes are ordered by sign vector with + before -, members by input
    index; the identity error always lands in the all-plus class.
    """
    buckets: dict[tuple[int, ...], list[int]] = {}
    for idx, w in enumerate(words):
        signs = tuple(1 - 2 * ((w & o).bit_count() & 1) for o in observables)
        buckets.setdefault(signs, []).append(idx)
    ordered = sorted(buckets, key=lambda s: tuple(0 if b == 1 else 1 for b in s))
    return [SyndromeClass(signs, buckets[signs]) for signs in ordered]


def error_normalizer_elements(code: CwsCode, subset: ErrorSet) -> list[np.ndarray]:
    """All exponents V with S^V commuting with every error in the subset.

    S^V commutes with a Pauli g exactly when <classicalize(g), V> = 0, so
    the exponents are the kernel of the matrix of classical words.
    Returned as the full span, ascending as big-endian integers.
    """
    kernel = gf2.int_kernel(classical_words(code, subset), code.n)
    return list(gf2.unpack_rows(gf2.int_span(kernel), code.n))


def search_space_size(code: CwsCode, subset: ErrorSet, mode: str = "corollary") -> int:
    """Number of candidate (v1, v2) pairs in the unreduced search space.

    ``search_type4`` decides all of them but scans one candidate per coset
    of its blind space, so it visits fewer."""
    if mode == "corollary":
        m = 2 ** (code.n - len(gf2.eliminate(classical_words(code, subset), code.n))) - 1
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
    already separates it.  That is checked first, on the words' parities
    against ker C, and the offsets alpha_t (``_syndrome_offsets``) are
    solved only for a scan, which needs two candidate basis rows.

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

    The whole search works on packed ints (``gf2.to_int`` order): the blind
    space is the part of the code's kernel basis orthogonal to ``fixed``,
    so no matrix holding C is eliminated per class, and the scan takes
    the basis of the coset minima in reduced echelon form, whose
    combinations it visits in ascending order (``_pair_search``).
    """
    if len(subset) < 2:
        raise ValueError("need at least two errors to split")
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    packed = classical_words(code, subset)
    n = code.n
    kernel, _ = code.kernel_echelon
    # <K_j, w_t> for the rows K_j of ker C: equal for all t exactly when the subset shares
    # one Pauli syndrome, and then ker C orthogonal to every word is that orthogonal to w_0
    syndromes = [gf2.int_matvec(kernel, w) for w in packed]
    for t, syndrome in enumerate(syndromes):
        if syndrome != syndromes[0]:
            raise _across_classes(subset, t)
    if mode == "corollary":  # the combinations lam of the K_j with sum_j lam_j <w_0, K_j> = 0
        fixed = packed
        blind = [_combine(kernel, lam) for lam in gf2.int_kernel(syndromes[:1], len(kernel))]
    else:  # the rows w_t + w_0 lie in the row space of C, orthogonal to all of ker C
        fixed = [w ^ packed[0] for w in packed[1:]]
        blind = list(kernel)
    pivots = gf2.eliminate(blind, n)
    # orthogonal to fixed and 0 on every pivot of the blind space
    basis = gf2.int_kernel(fixed + [1 << (n - 1 - p) for p in pivots], n)
    if len(basis) < 2:  # no pair without the zero coset
        return None
    gf2.eliminate(basis, n)
    return _pair_search(code, packed[0], _syndrome_offsets(code, subset, packed), basis)


def _combine(rows: list[int], lam: int) -> int:
    """XOR of the rows picked by the packed coefficients lam: row j when
    bit len(rows) - 1 - j is set."""
    out = 0
    for j, row in enumerate(rows):
        if lam >> (len(rows) - 1 - j) & 1:
            out ^= row
    return out


def _syndrome_offsets(code: CwsCode, subset: ErrorSet, words: list[int]) -> list[int]:
    """Packed rows alpha_t with C^T alpha_t = w_t + w_0 for t = 1, 2, ...,
    given the packed classical words w_t.

    Each comes from the code's one factor of C^T (``ct_factor``).  The
    difference of two classical words lies in the row space of C exactly
    when it is orthogonal to ker C, i.e. when the two errors share their
    Pauli syndrome; otherwise ValueError names the pair.
    """
    offsets = []
    for t, w in enumerate(words[1:], 1):
        alpha = code.ct_factor.solve_int(w ^ words[0])
        if alpha is None:
            raise _across_classes(subset, t)
        offsets.append(alpha)
    return offsets


def _across_classes(subset: ErrorSet, t: int) -> ValueError:
    return ValueError(
        f"errors {subset.labels[0]!r} and {subset.labels[t]!r} have different"
        " Pauli syndromes; search within one syndrome class"
    )


def _pair_search(
    code: CwsCode, word0: int, alpha: list[int], basis: list[int]
) -> Type4Observable | None:
    """First pair (i, j), 0 < i < j, of candidates whose four-term element
    is usable on the subset and splits it, as a solved observable.

    ``basis`` spans the candidates, packed and in reduced echelon form as
    ``gf2.eliminate`` leaves it; candidate t is ``_combine(basis, t)``.
    ``alpha`` holds the packed offsets alpha_t of ``_syndrome_offsets``,
    and ``word0`` the packed classical word w_0 of error 0, which solves
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
    kernel L of C annihilates C v_i | C v_j, and error t's sign differs
    from error 0's when <alpha_t, C v_i | C v_j> = 1.

    The hit test reduces to the AND of two images.  Every scanned
    candidate has <alpha_t, C v> = <w_t + w_0, v> = 0, and every image
    y = C v lies in Im C, which L annihilates.  Since
    y_i | y_j = y_i ^ y_j ^ (y_i & y_j), a pair hits exactly when
    L (y_i & y_j) = 0 and A (y_i & y_j) != 0, for A the rows alpha_t.  Any
    basis of the rows of A decides the second test alike, so A is reduced
    to one.

    The scan order needs no candidate list and no sort.  Taken in
    ascending-lead order, b_0, b_1, ... = reversed(basis), each basis row
    holds its lead bit alone, so the combination of the b_k for the set
    bits k of t is ascending in t: where two indices first differ, from
    the top, the row of that bit decides the comparison by its lead.  So
    candidate t is the t-th smallest of the span, the order of
    ``search_type4``, and the columns cols[c] of the images, bit t of
    cols[c] being bit c of y_t = C v_t, build by doubling in K d
    operations for the d rows of the basis.  Index 0 is the zero coset,
    which never takes part in a hit (``search_type4``).

    For row i, bit j of parity(row & y_i & y_j) is, for every j at once,
    the XOR of cols[c] over the bits c of row & y_i.  With good the OR of
    these masks over the rows of A and bad their OR over the rows of L,
    the first set bit above i of good & ~bad is the hit; the rows of L are
    taken off one at a time, until no bit is left.
    """
    k = code.num_codewords
    images, cols = [0], [0] * k
    for b in reversed(basis):
        image, size = gf2.int_matvec(code.codeword_rows, b), len(images)
        images += [y ^ image for y in images]
        upper = ((1 << size) - 1) << size  # the new indices, whose combinations take b
        for c in range(k):
            cols[c] |= cols[c] << size
            if image >> c & 1:
                cols[c] ^= upper
    alpha = alpha[: len(gf2.eliminate(alpha, k))]  # reduced in place: a basis of the rows of A
    for i in range(1, len(images) - 1):
        y = images[i]
        hits = 0
        for row in alpha:
            hits |= _select_xor(cols, row & y)
        hits >>= i + 1
        for row in code.left_kernel:
            if not hits:
                break
            hits &= ~(_select_xor(cols, row & y) >> (i + 1))
        if hits:
            j = i + (hits & -hits).bit_length()
            return _solved_observable(
                code, word0, _combine(basis, i), _combine(basis, j), y, images[j]
            )
    return None


def _select_xor(values: list[int], mask: int) -> int:
    """XOR of values[c] over the set bits c of mask."""
    out = 0
    while mask:
        low = mask & -mask
        out ^= values[low.bit_length() - 1]
        mask ^= low
    return out


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
    return Type4Observable._of(code.n, v, v1, v2)


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
    """Pauli syndrome layer plus conditional four-term refinements.

    ``pauli_observables`` holds the layer's exponents as packed ints of
    ``n`` bits (``gf2.format_int`` writes them); the four-term observables
    are packed too (``Type4Observable``)."""

    n: int
    mode: str
    code_sha256: str
    error_labels: list[str]
    error_paulis: list[str]
    pauli_observables: list[int]
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
            "pauli_observables": [gf2.format_int(o, self.n) for o in self.pauli_observables],
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
                int(json_binary(o, at), 2) for at, o in json_list(d, "pauli_observables", str)
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
            lines.append(f"  O{o + 1} = {gf2.format_int(vec, self.n)}")
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
    words = []
    for label, e in errors:
        result = detects(code, e)
        if not result:
            raise UndetectableError(f"error {label!r} is not detectable: {result.detail}")
        words.append(result.word)
    errors = errors._with_words(code, words)  # the searches read these words
    pauli_obs = code.c_factor.int_kernel()  # pauli_normalizer_generators, packed
    classes = syndrome_classes(words, pauli_obs)
    found: list[Type4Observable] = []
    tables: list[list[int]] = []  # eigenvalues of found[k] on every error
    refinements: list[list[RefinementStep]] = []
    unresolved: list[UnresolvedSubset] = []
    for ci, cls in enumerate(classes):
        steps: list[RefinementStep] = []
        queue = deque([cls.members]) if len(cls.members) > 1 else deque()
        while queue:
            members = queue.popleft()
            for chosen, table in enumerate(tables):
                signs = [table[i] for i in members]
                if set(signs) == {1, -1}:
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
                signs = [tables[chosen][i] for i in members]
                assert set(signs) == {1, -1}, "search returned a non-splitting observable"
            signed = dict(zip(members, signs))
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
