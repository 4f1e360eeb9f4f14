"""Exact n-qubit Pauli algebra in symplectic form with phase tracking.

An operator is stored as i^k * Z^z * X^x where z and x are GF(2)
vectors and k is the exponent of the imaginary unit, kept mod 4.  The
string form reads qubit 1 first ("XZIIZZIIII") with an optional leading
phase token "", "+", "i", "+i", "-", "-i"; Y stands for i*X*Z, so e.g.
X*Z prints as "-iY" on one qubit and Z*X prints as "iY".
"""

from __future__ import annotations

import numpy as np

from . import gf2

_TOKEN_EXP = {"": 0, "+": 0, "i": 1, "+i": 1, "-": 2, "-i": 3}
_EXP_TOKEN = {0: "", 1: "i", 2: "-", 3: "-i"}
_LETTER_ZX = {"I": (0, 0), "X": (0, 1), "Z": (1, 0), "Y": (1, 1)}
# bytes.translate table: letter -> 2 z + x, any other byte -> 4
_LETTER_CODE = bytearray([4]) * 256
for _letter, (_z, _x) in _LETTER_ZX.items():
    _LETTER_CODE[ord(_letter)] = 2 * _z + _x
# and back: 2 z + x -> letter
_CODE_LETTER = bytes.maketrans(
    bytes(2 * z + x for z, x in _LETTER_ZX.values()), "".join(_LETTER_ZX).encode("ascii")
)
_PHASES = (1 + 0j, 1j, -1 + 0j, -1j)


class Pauli:
    """Immutable n-qubit Pauli operator with exact global phase."""

    def __init__(self, x, z, phase_exp: int = 0):
        x = gf2.as_vector(x)  # as_vector returns a fresh array
        z = gf2.as_vector(z)
        if x.shape != z.shape:
            raise ValueError("x and z parts must have equal length")
        self._set(x, z, phase_exp)

    def _set(self, x: np.ndarray, z: np.ndarray, phase_exp: int) -> None:
        """Take fresh 0/1 uint8 vectors of equal length as the parts, uncopied."""
        x.setflags(write=False)
        z.setflags(write=False)
        self.x = x
        self.z = z
        self.n = int(x.shape[0])
        self.phase_exp = int(phase_exp) % 4

    @classmethod
    def identity(cls, n: int) -> "Pauli":
        return cls(np.zeros(n, dtype=np.uint8), np.zeros(n, dtype=np.uint8))

    @classmethod
    def single(cls, n: int, qubit: int, letter: str) -> "Pauli":
        """One factor ``letter``, one of I, X, Y, Z, at ``qubit`` (0-based)."""
        if not 0 <= qubit < n:
            raise ValueError(f"qubit {qubit} out of range for n={n}")
        if not (isinstance(letter, str) and letter in _LETTER_ZX):
            raise ValueError(f"letter must be one of I, X, Y, Z, got {letter!r}")
        unit = np.zeros(n, dtype=np.uint8)
        unit[qubit] = 1
        return cls._factor(letter, unit, np.zeros(n, dtype=np.uint8))

    @classmethod
    def _factor(cls, letter: str, unit: np.ndarray, zero: np.ndarray) -> "Pauli":
        """``letter`` at the qubit where the 0/1 uint8 row ``unit`` is 1,
        given the zero row of the same length.  The rows are taken uncopied
        and become read-only, so operators may share them."""
        z_bit, x_bit = _LETTER_ZX[letter]
        p = cls.__new__(cls)
        # Y = i X Z: the letter's own i is taken out of the phase, as in from_string
        p._set(unit if x_bit else zero, unit if z_bit else zero, -(z_bit & x_bit))
        return p

    @classmethod
    def from_string(cls, s: str) -> "Pauli":
        token = ""
        for t in ("-i", "+i", "-", "+", "i"):
            if s.startswith(t):
                token = t
                s = s[len(t):]
                break
        if not s:
            raise ValueError("empty Pauli string")
        # one byte per character (a non-ASCII one becomes "?", no letter)
        codes = s.encode("ascii", "replace").translate(_LETTER_CODE)
        if 4 in codes:
            bad = next(c for c in s if c not in _LETTER_ZX)
            raise ValueError(f"invalid Pauli letter {bad!r} in {s!r}")
        zx = np.frombuffer(codes, dtype=np.uint8)
        p = cls.__new__(cls)
        p._set(zx & 1, zx >> 1, _TOKEN_EXP[token] - codes.count(3))
        return p

    @property
    def phase(self) -> complex:
        return _PHASES[self.phase_exp]

    def __str__(self) -> str:
        codes = ((self.z << 1) | self.x).tobytes()  # 2 z + x per qubit; 3 is a Y
        token = _EXP_TOKEN[(self.phase_exp + codes.count(3)) % 4]
        return token + codes.translate(_CODE_LETTER).decode("ascii")

    def __repr__(self) -> str:
        return f"Pauli({str(self)!r})"

    def __eq__(self, other) -> bool:
        if not isinstance(other, Pauli):
            return NotImplemented
        return (
            self.n == other.n
            and self.phase_exp == other.phase_exp
            and np.array_equal(self.x, other.x)
            and np.array_equal(self.z, other.z)
        )

    def __mul__(self, other: "Pauli") -> "Pauli":
        return multiply(self, other)


def multiply(p: Pauli, q: Pauli) -> Pauli:
    """Exact product p*q; moving X factors of p past Z factors of q costs
    a factor (-1) per overlap."""
    if p.n != q.n:
        raise ValueError(f"size mismatch: {p.n} vs {q.n}")
    phase_exp = p.phase_exp + q.phase_exp + 2 * gf2.dot(p.x, q.z)
    return Pauli(p.x ^ q.x, p.z ^ q.z, phase_exp)


def commutes(p: Pauli, q: Pauli) -> bool:
    """True iff the symplectic product <x_p, z_q> + <z_p, x_q> vanishes."""
    if p.n != q.n:
        raise ValueError(f"size mismatch: {p.n} vs {q.n}")
    return (gf2.dot(p.x, q.z) + gf2.dot(p.z, q.x)) % 2 == 0


def stabilizer_element(generators: list[Pauli], v) -> Pauli:
    """Product generators[0]^v0 * generators[1]^v1 * ... with exact phase.

    The generators must pairwise commute, which is checked at once on the
    symplectic Gram matrix X Z^T + Z X^T mod 2 (independence is assumed,
    not checked); the fixed ascending order makes the accumulated phase
    deterministic even though the result is order-independent.

    This builds the phased operator, which only the I/O boundary and the
    dense oracle need: whether S^v commutes with an error E = Z^z X^x is
    the bit <z + M x, v> of the error's classical word (see
    ``cws.classical_words``) and never requires the product.
    """
    v = gf2.as_vector(v)
    if len(generators) != v.shape[0]:
        raise ValueError(f"{len(generators)} generators but exponent length {v.shape[0]}")
    if not generators:
        raise ValueError("need at least one generator")
    n = generators[0].n
    for g in generators:
        if g.n != n:
            raise ValueError("generators act on different qubit counts")
    x = np.array([g.x for g in generators])
    z = np.array([g.z for g in generators])
    gram = ((x @ z.T) ^ (z @ x.T)) & 1
    clash = np.argwhere(np.triu(gram, 1))
    if clash.size:
        i, j = (int(k) for k in clash[0])
        raise ValueError(f"generators {i} and {j} do not commute")
    acc = Pauli.identity(n)
    for g, bit in zip(generators, v):
        if bit:
            acc = multiply(acc, g)
    return acc
