"""Exact dense state-vector oracle.

Deliberately simple: states are full complex vectors of length 2^n with
qubit 1 as the most significant index bit, Pauli application is a signed
permutation, and group-algebra elements are applied term by term.  With
x, z packed as integers, i^k Z^z X^x takes amplitude k ^ x to k with sign
(-1)^popcount(k & z), read from a parity table built by doubling and
cached per n with the index range.  The oracle exists to double-check
the algebraic modules, so it stays dense and independent of them; the
command line runs it only up to ``ORACLE_CAP`` qubits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import gf2
from .cws import CwsCode
from .observables import Type4Observable
from .pauli import Pauli, stabilizer_element

ORACLE_CAP = 14

NORM_TOL = 1e-12
EIGEN_TOL = 1e-10


@lru_cache(maxsize=None)
def _tables(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only indices 0..2^n-1 and parities: parity[k + 2^j] = ~parity[k]."""
    parity = np.zeros(1, dtype=bool)
    for _ in range(n):
        parity = np.concatenate([parity, ~parity])
    idx = np.arange(1 << n)
    idx.setflags(write=False)
    parity.setflags(write=False)
    return idx, parity


def graph_state(code: CwsCode) -> np.ndarray:
    """The unique state fixed by every derived generator.

    Uniform superposition; amplitude k has sign -1 when an odd number of
    graph edges lie inside its support, that is when the XOR over vertices
    q in the support of the parity of k on q's later neighbours is 1.
    """
    idx, parity = _tables(code.n)
    odd = np.zeros_like(idx)
    for q, row in enumerate(code.adjacency):
        odd ^= (idx >> (code.n - 1 - q)) & parity[idx & gf2.to_int(row[q + 1:])]
    signs = np.where(odd, -1.0, 1.0)
    return signs.astype(np.complex128) / np.sqrt(1 << code.n)


@dataclass(eq=False)
class GroupAlgebraElement:
    """Real linear combination of stabilizer elements, keyed by exponent.

    Keys are big-endian integer encodings of the exponent vectors; values
    are real coefficients.  The expansion into concrete Pauli operators is
    cached because stabilizer products are pure.
    """

    code: CwsCode
    terms: dict[int, float]
    _expanded: list[tuple[float, Pauli]] | None = field(
        default=None, repr=False, compare=False
    )

    @classmethod
    def from_vectors(cls, code: CwsCode, terms) -> "GroupAlgebraElement":
        table: dict[int, float] = {}
        for vec, coeff in terms:
            key = gf2.to_int(gf2.as_vector(vec))
            table[key] = table.get(key, 0.0) + float(coeff)
        return cls(code, table)

    def expanded(self) -> list[tuple[float, Pauli]]:
        if self._expanded is None:
            self._expanded = [
                (coeff, stabilizer_element(self.code.generators, gf2.from_int(key, self.code.n)))
                for key, coeff in sorted(self.terms.items())
            ]
        return self._expanded


def type4_element(code: CwsCode, obs: Type4Observable) -> GroupAlgebraElement:
    """Expand a four-term observable over the stabilizer group.

    Stabilizer exponents add exactly (each derived generator squares to
    the identity and they commute), so the product form collapses to four
    terms with coefficients sign * (-1/2, 1/2, 1/2, 1/2).
    """
    if obs.n != code.n:
        raise ValueError(f"observable length {obs.n} does not match code n={code.n}")
    half = 0.5 * obs.sign
    exps = obs.exponents()
    return GroupAlgebraElement.from_vectors(
        code, [(exps[0], -half), (exps[1], half), (exps[2], half), (exps[3], half)]
    )


def apply(op, state: np.ndarray) -> np.ndarray:
    """Apply a Pauli or group-algebra element as an exact linear map."""
    state = np.asarray(state, dtype=np.complex128)
    if isinstance(op, Pauli):
        if state.shape[0] != (1 << op.n):
            raise ValueError(
                f"state has dimension {state.shape[0]}, operator needs {1 << op.n}"
            )
        idx, parity = _tables(op.n)
        signs = np.where(parity[idx & gf2.to_int(op.z)], -op.phase, op.phase)
        return signs * state[idx ^ gf2.to_int(op.x)]
    if isinstance(op, GroupAlgebraElement):
        out = np.zeros_like(state)
        for coeff, p in op.expanded():
            out += coeff * apply(p, state)
        return out
    raise TypeError(f"cannot apply object of type {type(op).__name__}")


def is_involution(elem: GroupAlgebraElement, tol: float = NORM_TOL) -> bool:
    """Coefficient test for A^2 = I over the group algebra.

    Requires sum of squared coefficients 1 and, for every nonzero exponent
    difference U, a vanishing correlation sum of coefficient products.
    """
    items = sorted(elem.terms.items())
    total = sum(c * c for _, c in items)
    if abs(total - 1.0) > tol:
        return False
    cross: dict[int, float] = {}
    for a, (ka, ca) in enumerate(items):
        for kb, cb in items[a + 1:]:
            key = ka ^ kb
            cross[key] = cross.get(key, 0.0) + ca * cb
    return all(abs(s) <= tol for s in cross.values())


def eigencheck(op, state: np.ndarray, tol: float = EIGEN_TOL) -> int | None:
    """Return +1 or -1 when the state is an eigenvector of op within tol
    (Euclidean norm), else None.  None on a corrupted codeword state means
    the observable would leak encoded information.
    """
    state = np.asarray(state, dtype=np.complex128)
    image = apply(op, state)
    if np.linalg.norm(image - state) <= tol:
        return 1
    if np.linalg.norm(image + state) <= tol:
        return -1
    return None


def codeword_states(code: CwsCode) -> list[np.ndarray]:
    """Basis states of the code: each codeword operator applied to the
    stabilized state."""
    psi = graph_state(code)
    zeros = np.zeros(code.n, dtype=np.uint8)
    return [apply(Pauli(x=zeros, z=word), psi) for word in code.codewords]
