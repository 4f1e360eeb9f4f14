"""Exact n-qubit Pauli algebra in symplectic form with phase tracking.

An operator is stored as i^k * Z^z * X^x where z and x are GF(2)
vectors and k is the exponent of the imaginary unit, kept mod 4.  The
string form reads qubit 1 first ("XZIIZZIIII") with an optional leading
phase token "", "+", "i", "+i", "-", "-i"; Y stands for i*X*Z, so e.g.
X*Z prints as "-iY" on one qubit and Z*X prints as "iY".
"""

from __future__ import annotations

from . import gf2
from .gf2 import np

_TOKEN_EXP = {"": 0, "+": 0, "i": 1, "+i": 1, "-": 2, "-i": 3}
_EXP_TOKEN = {0: "", 1: "i", 2: "-", 3: "-i"}
_LETTER_ZX = {"I": (0, 0), "X": (0, 1), "Z": (1, 0), "Y": (1, 1)}
# bytes.translate tables: letter -> its x or z bit as a digit "0" or "1"
_X_DIGIT = bytes.maketrans(b"IXZY", b"0101")
_Z_DIGIT = bytes.maketrans(b"IXZY", b"0011")
# and back: hex digit 2 z + x -> letter
_CODE_LETTER = str.maketrans("0123", "IXZY")
_PHASES = (1 + 0j, 1j, -1 + 0j, -1j)


class Pauli:
    """Immutable n-qubit Pauli operator with exact global phase.

    Stored packed: ``n``, ``phase_exp`` and ``packed``, the parts (x, z)
    as ints in the ``gf2.to_int`` order.  The string form, products,
    commutation and the classical word (``cws.classical_word``) work on
    these ints.  ``x`` and ``z`` are the parts as read-only 0/1 uint8
    arrays, derived on first read and kept as plain attributes, for the
    dense oracle.
    """

    __slots__ = ("n", "phase_exp", "packed", "x", "z")

    def __init__(self, x, z, phase_exp: int = 0):
        x = gf2.as_vector(x)  # as_vector returns a fresh array
        z = gf2.as_vector(z)
        if x.shape != z.shape:
            raise ValueError("x and z parts must have equal length")
        self.n, self.phase_exp = x.shape[0], int(phase_exp) % 4
        self.packed = tuple(gf2.pack_rows((x, z)))
        x.setflags(write=False)
        z.setflags(write=False)
        self.x, self.z = x, z  # the coerced arrays are the derived parts

    @classmethod
    def _of(cls, n: int, x: int, z: int, phase_exp: int = 0) -> "Pauli":
        """The operator of the packed parts x and z, taken unchecked."""
        p = cls.__new__(cls)
        p.n, p.packed, p.phase_exp = n, (x, z), phase_exp % 4
        return p

    def __getattr__(self, name: str):
        # only an unset slot gets here: x and z are derived on their first read
        if name not in ("x", "z"):
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        rows = gf2.unpack_rows(self.packed, self.n)
        rows.setflags(write=False)
        self.x, self.z = rows
        return getattr(self, name)

    @classmethod
    def identity(cls, n: int) -> "Pauli":
        return cls._of(n, 0, 0)

    @classmethod
    def single(cls, n: int, qubit: int, letter: str) -> "Pauli":
        """One factor ``letter``, one of I, X, Y, Z, at ``qubit`` (0-based)."""
        if not 0 <= qubit < n:
            raise ValueError(f"qubit {qubit} out of range for n={n}")
        if not (isinstance(letter, str) and letter in _LETTER_ZX):
            raise ValueError(f"letter must be one of I, X, Y, Z, got {letter!r}")
        return cls._factor(letter, n, 1 << (n - 1 - qubit))

    @classmethod
    def _factor(cls, letter: str, n: int, unit: int) -> "Pauli":
        """``letter`` at the qubit of the packed unit vector ``unit``."""
        z_bit, x_bit = _LETTER_ZX[letter]
        # Y = i X Z: the letter's own i is taken out of the phase, as in from_string
        return cls._of(n, unit if x_bit else 0, unit if z_bit else 0, -(z_bit & x_bit))

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
        letters = s.encode("ascii", "replace")
        if letters.translate(None, b"IXYZ"):
            bad = next(c for c in s if c not in _LETTER_ZX)
            raise ValueError(f"invalid Pauli letter {bad!r} in {s!r}")
        x = int(letters.translate(_X_DIGIT), 2)
        z = int(letters.translate(_Z_DIGIT), 2)
        return cls._of(len(letters), x, z, _TOKEN_EXP[token] - letters.count(b"Y"))

    @property
    def phase(self) -> complex:
        return _PHASES[self.phase_exp]

    def __str__(self) -> str:
        # each part's binary digits read as hex put one bit per hex digit, so
        # 2 z + x is one hex digit 0-3 per qubit; 3 is a Y
        x, z = (int(format(part, "b"), 16) for part in self.packed)
        codes = format(2 * z + x, f"0{self.n}x") if self.n else ""
        token = _EXP_TOKEN[(self.phase_exp + codes.count("3")) % 4]
        return token + codes.translate(_CODE_LETTER)

    def __repr__(self) -> str:
        return f"Pauli({str(self)!r})"

    def __eq__(self, other) -> bool:
        if not isinstance(other, Pauli):
            return NotImplemented
        return (
            self.n == other.n
            and self.phase_exp == other.phase_exp
            and self.packed == other.packed
        )

    def __mul__(self, other: "Pauli") -> "Pauli":
        return multiply(self, other)


def multiply(p: Pauli, q: Pauli) -> Pauli:
    """Exact product p*q; moving X factors of p past Z factors of q costs
    a factor (-1) per overlap."""
    if p.n != q.n:
        raise ValueError(f"size mismatch: {p.n} vs {q.n}")
    (px, pz), (qx, qz) = p.packed, q.packed
    phase_exp = p.phase_exp + q.phase_exp + 2 * (px & qz).bit_count()
    return Pauli._of(p.n, px ^ qx, pz ^ qz, phase_exp)


def commutes(p: Pauli, q: Pauli) -> bool:
    """True iff the symplectic product <x_p, z_q> + <z_p, x_q> vanishes."""
    if p.n != q.n:
        raise ValueError(f"size mismatch: {p.n} vs {q.n}")
    (px, pz), (qx, qz) = p.packed, q.packed
    return ((px & qz) ^ (pz & qx)).bit_count() % 2 == 0


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
