"""Codeword stabilized codes in standard form.

A code is specified by a simple-graph adjacency matrix M and a list of
classical codewords; the stabilizer generators are derived as X at vertex
i together with Z on its neighbourhood (row i of M), and the codeword
operators are Z to the power of each classical word.  Detection of a
Pauli error reduces to classical detection of its image under the
classicalization map z + M x.
"""

from __future__ import annotations

import hashlib
import json
import reprlib
from dataclasses import dataclass, field
from functools import cached_property

from . import gf2
from .gf2 import np
from .pauli import Pauli


class InvalidCodeError(ValueError):
    """A code definition violates a structural invariant."""


@dataclass
class CwsCode:
    """A validated code, held as packed rows in the ``gf2.to_int`` order:
    ``adjacency_rows``, the rows of the adjacency matrix M, and
    ``codeword_rows``, the codewords, row 0 the all-zero word.

    Everything else is derived on first read and kept.  The read-only 0/1
    arrays ``adjacency``, ``codewords`` and ``kernel`` serve the array API
    alone, so neither a plan nor the dense oracle builds them; the stabilizer
    ``generators`` are built packed, for ``analyze`` and the oracle.  The
    codeword matrix C is factored (``gf2.Factor``) once as ``c_factor`` and
    once transposed as ``ct_factor``; every plan-path solve and kernel is
    answered from those factors, so a plan eliminates C and C^T at most
    once each, and loading a code, as ``verify`` does, builds neither."""

    n: int
    adjacency_rows: tuple[int, ...]
    codeword_rows: tuple[int, ...]

    @property
    def num_codewords(self) -> int:
        return len(self.codeword_rows)

    @cached_property
    def adjacency(self) -> np.ndarray:
        """M as a read-only n x n 0/1 array."""
        return _frozen(gf2.unpack_rows(self.adjacency_rows, self.n))

    @cached_property
    def codewords(self) -> np.ndarray:
        """C as a read-only K x n 0/1 array."""
        return _frozen(gf2.unpack_rows(self.codeword_rows, self.n))

    @cached_property
    def generators(self) -> list[Pauli]:
        """The stabilizer generators: X at vertex i with Z on row i of M."""
        n = self.n
        return [Pauli._of(n, 1 << (n - 1 - i), row) for i, row in enumerate(self.adjacency_rows)]

    @cached_property
    def c_factor(self) -> gf2.Factor:
        """Factor of C: solves the stabilization system C v = b."""
        return gf2.Factor(self.codeword_rows, self.n)

    @cached_property
    def ct_factor(self) -> gf2.Factor:
        """Factor of C^T: solves the syndrome offsets C^T alpha = w."""
        return gf2.Factor(gf2.transpose(self.codeword_rows, self.n), self.num_codewords)

    @cached_property
    def kernel(self) -> list[np.ndarray]:
        """Canonical basis of ker C (``gf2.kernel_basis``), read-only."""
        return [_frozen(v) for v in self.c_factor.kernel()]

    @cached_property
    def kernel_echelon(self) -> tuple[list[int], list[int]]:
        """Reduced echelon form of ker C as packed rows (``gf2.pack_rows``)
        and its pivots, for ``gf2.int_coset_minimum``."""
        rows = self.c_factor.int_kernel()
        return rows, gf2.eliminate(rows, self.n)

    @cached_property
    def left_kernel(self) -> list[int]:
        """Canonical basis of the y with y C = 0, the kernel of C^T, as
        packed ints of K bits (``gf2.pack_rows``)."""
        return self.ct_factor.int_kernel()

    @cached_property
    def codeword_index(self) -> dict[int, int]:
        """Codeword row index by its packed value."""
        return {w: i for i, w in enumerate(self.codeword_rows)}


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def build_code(adjacency, codewords) -> CwsCode:
    """Validate a definition given as 0/1 arrays, entries taken mod 2.

    Raises InvalidCodeError naming the violated invariant: the adjacency
    matrix must be square, symmetric and zero-diagonal; the codewords must
    be distinct, of matching length, and start with the all-zero word.
    """
    m = gf2.as_matrix(adjacency)
    return _checked(m.shape, [gf2.format_vector(row) for row in m],
                    (gf2.format_vector(w) for w in codewords))


def _checked(shape: tuple[int, int], rows: list[str], words) -> CwsCode:
    """The code of M, given by its rows as 0/1 strings and its ``shape``,
    and of the codewords, 0/1 strings read only once M has passed its
    checks; packed once every check has passed."""
    if shape[0] != shape[1]:
        raise InvalidCodeError(f"adjacency matrix must be square, got {shape}")
    n = shape[0]
    if ["".join(column) for column in zip(*rows)] != rows:
        raise InvalidCodeError("adjacency matrix must be symmetric")
    if any(row[i] == "1" for i, row in enumerate(rows)):
        raise InvalidCodeError("adjacency matrix must have zero diagonal")
    words = list(words)
    if not words:
        raise InvalidCodeError("at least one codeword required")
    for w in words:
        if len(w) != n:
            raise InvalidCodeError(f"codeword length {len(w)} does not match n={n}")
    if "1" in words[0]:
        raise InvalidCodeError("first codeword must be the all-zero word")
    if len(set(words)) != len(words):
        repeated = next(w for k, w in enumerate(words) if w in words[:k])
        raise InvalidCodeError(f"duplicate codeword {repeated}")
    return CwsCode(n, tuple(int(r, 2) for r in rows), tuple(int(w or "0", 2) for w in words))


def classical_word(code: CwsCode, e: Pauli) -> int:
    """Classical word z + M x of a Pauli error, phase discarded, packed in
    the ``gf2.to_int`` order from the rows of M: the one place it is formed."""
    n = code.n
    if e.n != n:
        raise ValueError(f"error acts on {e.n} qubits, code has {n}")
    (x, word), rows = e.packed, code.adjacency_rows
    while x:  # M x: M is symmetric, its columns are its rows
        low = x & -x  # the bit of qubit n - low.bit_length()
        word ^= rows[n - low.bit_length()]
        x ^= low
    return word


def classicalize(code: CwsCode, e: Pauli) -> np.ndarray:
    """``classical_word`` as a 0/1 vector."""
    return gf2.unpack_rows([classical_word(code, e)], code.n)[0]


def classical_words(code: CwsCode, errors: "ErrorSet") -> list[int]:
    """The errors' packed classical words (``classical_word``), in order: S^v
    commutes with error k exactly when words[k] & gf2.to_int(v) has even
    parity.  A set that carries its words under this code
    (``ErrorSet._with_words``) gives them without forming them again."""
    if errors._words is not None and errors._words[0] is code:
        return list(errors._words[1])
    return [classical_word(code, e) for e in errors.errors]


@dataclass
class DetectionResult:
    """What ``detects`` found: whether the error is detected, its classical
    word packed as ``classical_word`` forms it, whether that word is zero
    (the error is a stabilizer element up to phase), and why."""

    detected: bool
    word: int
    degenerate: bool
    detail: str

    def __bool__(self) -> bool:
        return self.detected


def detects(code: CwsCode, e: Pauli) -> DetectionResult:
    """Classical detectability of a Pauli error.

    A nonzero classical word must not be a difference of two codewords.
    A zero word means the error is a stabilizer element up to phase; it
    passes only when it commutes with every codeword operator, i.e. acts
    as the identity on the whole code (flagged "degenerate-pass").  The
    word is formed packed (``classical_word``), looked up and returned so.
    """
    word = classical_word(code, e)
    if not word:
        overlap = gf2.int_matvec(code.codeword_rows, e.packed[0])  # bit K - 1 - i: <C_i, x>
        if overlap:
            i = code.num_codewords - overlap.bit_length()
            return DetectionResult(
                False, word, True,
                f"degenerate error anticommutes with codeword operator C_{i + 1}",
            )
        return DetectionResult(True, word, True, "degenerate-pass")
    index = code.codeword_index
    for w, i in index.items():  # codewords in row order; the loader keeps them distinct
        hit = index.get(w ^ word)
        if hit is not None:
            return DetectionResult(
                False, word, False,
                f"classical collision: C_{i + 1} + {word:0{code.n}b} equals C_{hit + 1}",
            )
    return DetectionResult(True, word, False, "classically detected")


@dataclass
class ErrorSet:
    """Ordered Pauli errors with unique human-readable labels.

    A set may carry its errors' packed classical words under one code
    (``_with_words``); ``classical_words`` then reads them, and a subset
    carries its own."""

    errors: list[Pauli]
    labels: list[str]
    _words: tuple[CwsCode, list[int]] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        if len(self.errors) != len(self.labels):
            raise ValueError("errors and labels differ in length")
        if len(set(self.labels)) != len(self.labels):
            repeated = next(l for k, l in enumerate(self.labels) if l in self.labels[:k])
            raise ValueError(f"labels must be unique, {repeated!r} appears more than once")
        sizes = {e.n for e in self.errors}
        if len(sizes) > 1:
            raise ValueError("errors act on different qubit counts")

    def __len__(self) -> int:
        return len(self.errors)

    def __iter__(self):
        return iter(zip(self.labels, self.errors))

    def subset(self, indices) -> "ErrorSet":
        indices = list(indices)
        sub = ErrorSet([self.errors[i] for i in indices], [self.labels[i] for i in indices])
        if self._words is not None:
            code, words = self._words
            sub._words = (code, [words[i] for i in indices])
        return sub

    def _with_words(self, code: CwsCode, words: list[int]) -> "ErrorSet":
        """A copy carrying ``words``, the packed classical words of its errors
        under ``code`` in order, as ``detects`` returned them."""
        carrier = ErrorSet(list(self.errors), list(self.labels))
        carrier._words = (code, list(words))
        return carrier

    @classmethod
    def weight_one(cls, n: int) -> "ErrorSet":
        """All 3n single-qubit errors ordered X_1, Y_1, Z_1, X_2, ..., built
        packed."""
        errors, labels = [], []
        for q in range(1, n + 1):
            for letter in "XYZ":
                errors.append(Pauli._factor(letter, n, 1 << (n - q)))
                labels.append(f"{letter}{q}")
        return cls(errors, labels)


def errors_from_entries(entries, n: int) -> ErrorSet:
    """Build an ErrorSet from strings or {"label","pauli"} mappings.

    Any other entry, or a mapping without string ``label`` and ``pauli``,
    raises ValueError.
    """
    if not isinstance(entries, list):
        raise ValueError(f"errors must be a list, got {entries!r}")
    errors, labels = [], []
    for k, entry in enumerate(entries):
        if isinstance(entry, str):
            label, text = entry, entry
        elif isinstance(entry, dict) and all(
            isinstance(entry.get(key), str) for key in ("label", "pauli")
        ):
            label, text = entry["label"], entry["pauli"]
        else:
            raise ValueError(
                f"error entry {k} must be a Pauli string or an object with string"
                f" 'label' and 'pauli', got {entry!r}"
            )
        p = Pauli.from_string(text)
        if p.n != n:
            raise ValueError(f"error {label!r} acts on {p.n} qubits, expected {n}")
        errors.append(p)
        labels.append(label)
    return ErrorSet(errors, labels)


def to_dict(code: CwsCode) -> dict:
    return {
        "n": code.n,
        "adjacency": [gf2.format_int(row, code.n) for row in code.adjacency_rows],
        "codewords": [gf2.format_int(w, code.n) for w in code.codeword_rows],
    }


def from_dict(d: dict) -> tuple[CwsCode, ErrorSet | None]:
    """Build a code (and optional error set) from its JSON form, with the
    checks and messages of ``build_code``, on the rows' 0/1 strings."""
    try:
        json_value(d, dict, "")
        n = json_field(d, "n", int)
        rows, words = (json_field(d, key, list) for key in ("adjacency", "codewords"))
    except ValueError as exc:
        raise InvalidCodeError(str(exc)) from None
    rows = gf2.binary_rows(rows)
    if len(rows) != n:
        raise InvalidCodeError(f"adjacency has {len(rows)} rows but n={n}")
    code = _checked((n, len(rows[0])), rows, [gf2.binary_string(w) for w in words])
    errors = None
    if "errors" in d:
        errors = errors_from_entries(d["errors"], code.n)
    return code, errors


def code_fingerprint(code: CwsCode) -> str:
    """SHA-256 of the canonical JSON definition (``to_dict``, written from
    the packed rows); identifies the code."""
    canonical = json.dumps(to_dict(code), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("ascii")).hexdigest()


# Checks shared by the readers of the code, plan and table formats.  Each
# failure is a ValueError that names the offending value's JSON path.

_JSON_NOUNS = {dict: "an object", list: "a list", str: "a string", int: "an integer"}


def _shown(value) -> str:
    """A value as an error message shows it: a container by its kind."""
    return _JSON_NOUNS[type(value)] if type(value) in (dict, list) else reprlib.repr(value)


def json_value(value, kind: type, path: str):
    """``value`` if it is a JSON ``kind`` (dict, list, str or int; never a
    boolean), else ValueError naming ``path``, its place in the file
    such as ``classes[1].steps``; the empty path is the top level."""
    if not isinstance(value, kind) or isinstance(value, bool):
        where = f"field {path!r}" if path else "the top level"
        raise ValueError(f"{where} must be {_JSON_NOUNS[kind]}, got {_shown(value)}")
    return value


def json_field(d: dict, key: str, kind: type, path: str = ""):
    """``d[key]`` checked by ``json_value``, where ``d`` sits at ``path``."""
    where = f"{path}.{key}" if path else key
    if key not in d:
        raise ValueError(f"missing field {where!r}")
    return json_value(d[key], kind, where)


def json_list(d: dict, key: str, kind: type, path: str = "") -> list[tuple[str, object]]:
    """The list ``d[key]`` as (JSON path, item) pairs, each item a ``kind``."""
    at = f"{path}.{key}" if path else key
    return [
        (f"{at}[{k}]", json_value(item, kind, f"{at}[{k}]"))
        for k, item in enumerate(json_field(d, key, list, path))
    ]


def json_sign(value, path: str) -> int:
    """An expected eigenvalue: the JSON integer +1 or -1."""
    if type(value) is not int or value not in (1, -1):
        raise ValueError(f"field {path!r} must be +1 or -1, got {_shown(value)}")
    return value


def json_binary(value, path: str) -> str:
    """A 0/1 string checked by ``gf2.binary_string``; ``int(s, 2)`` packs it."""
    try:
        return gf2.binary_string(value)
    except ValueError as exc:
        raise ValueError(f"field {path!r}: {exc}") from None
