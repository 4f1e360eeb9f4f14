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

import numpy as np

from . import gf2
from .pauli import Pauli


class InvalidCodeError(ValueError):
    """A code definition violates a structural invariant."""


@dataclass
class CwsCode:
    """A validated code.  The codeword matrix C below is factored on first
    use (``gf2.Factor``), once as ``c_factor`` and once transposed as
    ``ct_factor``, and the factors are kept: every plan-path solve and
    kernel is answered from them, so a plan eliminates C and C^T once each,
    and loading a code, as ``verify`` does, builds neither.  The packed
    rows of C and M (``codeword_rows``, ``adjacency_rows``) that the plan
    path works on are likewise built on first use."""

    n: int
    adjacency: np.ndarray
    codewords: np.ndarray  # K x n, row 0 is the all-zero word
    generators: list[Pauli] = field(repr=False)

    @property
    def num_codewords(self) -> int:
        return int(self.codewords.shape[0])

    @cached_property
    def c_factor(self) -> gf2.Factor:
        """Factor of C: solves the stabilization system C v = b."""
        return gf2.Factor(self.codewords)

    @cached_property
    def ct_factor(self) -> gf2.Factor:
        """Factor of C^T: solves the syndrome offsets C^T alpha = w."""
        return gf2.Factor(self.codewords.T)

    @cached_property
    def kernel(self) -> list[np.ndarray]:
        """Canonical basis of ker C (``gf2.kernel_basis``), read-only."""
        return _frozen(self.c_factor.kernel())

    @cached_property
    def kernel_echelon(self) -> tuple[list[int], list[int]]:
        """Reduced echelon form of ker C as packed rows (``gf2.pack_rows``)
        and its pivots, for ``gf2.int_coset_minimum``."""
        rows = self.c_factor.int_kernel()
        return rows, gf2.eliminate(rows, self.n)

    @cached_property
    def left_kernel(self) -> list[np.ndarray]:
        """Canonical basis of the y with y C = 0, the kernel of C^T, read-only."""
        return _frozen(self.ct_factor.kernel())

    @cached_property
    def codeword_rows(self) -> list[int]:
        """The codewords as packed ints (``gf2.pack_rows``), in row order."""
        return gf2.pack_rows(self.codewords)

    @cached_property
    def adjacency_rows(self) -> list[int]:
        """The rows of M as packed ints (``gf2.pack_rows``)."""
        return gf2.pack_rows(self.adjacency)

    @cached_property
    def codeword_index(self) -> dict[int, int]:
        """Codeword row index by its packed value."""
        return {w: i for i, w in enumerate(self.codeword_rows)}


def _frozen(vectors: list[np.ndarray]) -> list[np.ndarray]:
    for v in vectors:
        v.setflags(write=False)
    return vectors


def build_code(adjacency, codewords) -> CwsCode:
    """Validate a definition and derive the stabilizer generators.

    Raises InvalidCodeError naming the violated invariant: the adjacency
    matrix must be square, symmetric and zero-diagonal; the codewords must
    be distinct, of matching length, and start with the all-zero word.
    """
    m = gf2.as_matrix(adjacency)
    if m.shape[0] != m.shape[1]:
        raise InvalidCodeError(f"adjacency matrix must be square, got {m.shape}")
    n = m.shape[0]
    if not np.array_equal(m, m.T):
        raise InvalidCodeError("adjacency matrix must be symmetric")
    if np.any(np.diag(m)):
        raise InvalidCodeError("adjacency matrix must have zero diagonal")
    words = [gf2.as_vector(w) for w in codewords]
    if not words:
        raise InvalidCodeError("at least one codeword required")
    for w in words:
        if w.shape[0] != n:
            raise InvalidCodeError(
                f"codeword length {w.shape[0]} does not match n={n}"
            )
    if np.any(words[0]):
        raise InvalidCodeError("first codeword must be the all-zero word")
    seen = set()
    for w in words:
        key = gf2.format_vector(w)
        if key in seen:
            raise InvalidCodeError(f"duplicate codeword {key}")
        seen.add(key)
    m.setflags(write=False)
    word_matrix = np.array(words, dtype=np.uint8)
    word_matrix.setflags(write=False)
    generators = [
        Pauli(x=np.eye(n, dtype=np.uint8)[i], z=m[i]) for i in range(n)
    ]
    return CwsCode(n=n, adjacency=m, codewords=word_matrix, generators=generators)


def classicalize(code: CwsCode, e: Pauli) -> np.ndarray:
    """Classical word z + M x of a Pauli error, phase discarded."""
    if e.n != code.n:
        raise ValueError(f"error acts on {e.n} qubits, code has {code.n}")
    return e.z ^ gf2.matvec(code.adjacency, e.x)


def classical_words(code: CwsCode, errors: "ErrorSet") -> np.ndarray:
    """|E| x n matrix whose rows are the classical words z + M x of the
    errors, in order.  S^v commutes with error k exactly when
    <words[k], v> = 0."""
    n = code.n
    for label, e in errors:
        if e.n != n:
            raise ValueError(f"error {label!r} acts on {e.n} qubits, code has {n}")
    x = np.array([e.x for e in errors.errors], dtype=np.uint8).reshape(len(errors), n)
    z = np.array([e.z for e in errors.errors], dtype=np.uint8).reshape(len(errors), n)
    return z ^ ((x @ code.adjacency) & 1)  # M is symmetric: x M = (M x)^T


@dataclass
class DetectionResult:
    detected: bool
    word: np.ndarray
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
    word z + M x is formed packed, from the rows of M (M is symmetric).
    """
    if e.n != code.n:
        raise ValueError(f"error acts on {e.n} qubits, code has {code.n}")
    x, z = gf2.pack_rows((e.x, e.z))
    key = z ^ gf2.int_matvec(code.adjacency_rows, x)
    word = gf2.unpack_rows([key], code.n)[0]
    if not key:
        overlap = gf2.int_matvec(code.codeword_rows, x)  # bit K - 1 - i: C_i against x
        if overlap:
            i = code.num_codewords - overlap.bit_length()
            return DetectionResult(
                False, word, True,
                f"degenerate error anticommutes with codeword operator C_{i + 1}",
            )
        return DetectionResult(True, word, True, "degenerate-pass")
    index = code.codeword_index
    for w, i in index.items():  # codewords in row order; build_code keeps them distinct
        hit = index.get(w ^ key)
        if hit is not None:
            return DetectionResult(
                False, word, False,
                f"classical collision: C_{i + 1} + {key:0{code.n}b} equals C_{hit + 1}",
            )
    return DetectionResult(True, word, False, "classically detected")


@dataclass
class ErrorSet:
    """Ordered Pauli errors with unique human-readable labels."""

    errors: list[Pauli]
    labels: list[str]

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
        return ErrorSet(
            [self.errors[i] for i in indices],
            [self.labels[i] for i in indices],
        )

    @classmethod
    def weight_one(cls, n: int) -> "ErrorSet":
        """All 3n single-qubit errors ordered X_1, Y_1, Z_1, X_2, ..."""
        errors, labels = [], []
        for q in range(n):
            for letter in "XYZ":
                errors.append(Pauli.single(n, q, letter))
                labels.append(f"{letter}{q + 1}")
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
        "adjacency": [gf2.format_vector(row) for row in code.adjacency],
        "codewords": [gf2.format_vector(w) for w in code.codewords],
    }


def from_dict(d: dict) -> tuple[CwsCode, ErrorSet | None]:
    """Build a code (and optional error set) from its JSON form."""
    try:
        json_value(d, dict, "")
        n = json_field(d, "n", int)
        rows, words = (json_field(d, key, list) for key in ("adjacency", "codewords"))
    except ValueError as exc:
        raise InvalidCodeError(str(exc)) from None
    adjacency = gf2.parse_matrix(rows)
    if adjacency.shape[0] != n:
        raise InvalidCodeError(f"adjacency has {adjacency.shape[0]} rows but n={n}")
    code = build_code(adjacency, [gf2.parse_vector(w) for w in words])
    errors = None
    if "errors" in d:
        errors = errors_from_entries(d["errors"], code.n)
    return code, errors


def code_fingerprint(code: CwsCode) -> str:
    """SHA-256 of the canonical JSON definition; identifies the code."""
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


def json_vector(value, path: str) -> np.ndarray:
    """A 0/1 string parsed by ``gf2.parse_vector``."""
    try:
        return gf2.parse_vector(value)
    except ValueError as exc:
        raise ValueError(f"field {path!r}: {exc}") from None
