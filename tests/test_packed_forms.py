"""Public behaviour of ``Pauli`` and ``Type4Observable`` against an array
reference kept here, at n from 1 to 80, past one 64-bit machine word.

The reference spells every operation out on 0/1 numpy rows, one entry per
qubit: the string form letter by letter, products and commutation by
inner products, the classical word as z + M x and detection by searching
the codeword differences.  Whatever form the two classes store their
vectors in, these must agree.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cwskit import cws, gf2
from cwskit.cws import ErrorSet, classical_word, detects
from cwskit.observables import Type4Observable
from cwskit.pauli import Pauli, commutes, multiply

LETTERS = {(0, 0): "I", (0, 1): "X", (1, 0): "Z", (1, 1): "Y"}  # (z, x) -> letter
TOKENS = {0: "", 1: "i", 2: "-", 3: "-i"}

sizes = st.integers(1, 80)
seeds = st.integers(0, 2 ** 32 - 1)


def bits(rng, n):
    return rng.integers(0, 2, n).astype(np.uint8)


def ref_text(x, z, k):
    """i^k Z^z X^x as a string: each Y = i X Z adds one i to the token."""
    ys = int(np.sum(x & z))
    return TOKENS[(k + ys) % 4] + "".join(LETTERS[int(a), int(b)] for a, b in zip(z, x))


def ref_parse(text):
    """(x, z, k) of a string, the inverse of ``ref_text``."""
    token = next(t for t in ("-i", "+i", "-", "+", "i", "") if text.startswith(t))
    body = text[len(token):]
    x = np.array([c in "XY" for c in body], dtype=np.uint8)
    z = np.array([c in "ZY" for c in body], dtype=np.uint8)
    k = {"": 0, "+": 0, "i": 1, "+i": 1, "-": 2, "-i": 3}[token] - body.count("Y")
    return x, z, k % 4


def ref_int(row):
    return int("".join(str(int(b)) for b in row), 2)


def same(p, x, z, k):
    """``p`` is i^k Z^z X^x, read through its public fields."""
    assert p.n == len(x)
    assert p.phase_exp == k % 4
    for got, want in ((p.x, x), (p.z, z)):
        assert got.dtype == np.uint8 and got.shape == (len(x),)
        assert np.array_equal(got, want) and not got.flags.writeable


def random_code(rng, n, count):
    adjacency = np.triu(rng.integers(0, 2, (n, n)), 1).astype(np.uint8)
    adjacency |= adjacency.T
    words, seen = [np.zeros(n, dtype=np.uint8)], {0}
    while len(words) < min(count, 2 ** n):
        w = bits(rng, n)
        if ref_int(w) not in seen:
            seen.add(ref_int(w))
            words.append(w)
    return cws.build_code(adjacency, words), adjacency, np.array(words)


class TestPauli:
    @settings(max_examples=150, deadline=None)
    @given(sizes, st.integers(-5, 5), seeds)
    def test_string_round_trip(self, n, k, seed):
        rng = np.random.default_rng(seed)
        x, z = bits(rng, n), bits(rng, n)
        p = Pauli(x, z, k)
        same(p, x, z, k)
        text = ref_text(x, z, k)
        assert str(p) == text and repr(p) == f"Pauli({text!r})"
        q = Pauli.from_string(text)
        same(q, *ref_parse(text))
        assert q == p
        plus = text if text[:1] in "-+" else "+" + text
        assert Pauli.from_string(plus) == p

    @settings(max_examples=60, deadline=None)
    @given(sizes, seeds)
    def test_single_and_weight_one(self, n, seed):
        rng = np.random.default_rng(seed)
        qubit = int(rng.integers(0, n))
        for letter in "IXYZ":
            text = "I" * qubit + letter + "I" * (n - qubit - 1)
            p = Pauli.single(n, qubit, letter)
            same(p, *ref_parse(text))
            assert str(p) == text
        errors = ErrorSet.weight_one(n)
        assert errors.labels == [f"{c}{q}" for q in range(1, n + 1) for c in "XYZ"]
        for label, e in errors:
            q = int(label[1:]) - 1
            text = "I" * q + label[0] + "I" * (n - q - 1)
            same(e, *ref_parse(text))
            assert str(e) == text

    @settings(max_examples=150, deadline=None)
    @given(sizes, seeds)
    def test_eq_multiply_commutes(self, n, seed):
        rng = np.random.default_rng(seed)
        (xp, zp, xq, zq), (kp, kq) = (bits(rng, n) for _ in range(4)), rng.integers(0, 4, 2)
        p, q = Pauli(xp, zp, int(kp)), Pauli(xq, zq, int(kq))
        assert p == Pauli(xp, zp, int(kp) + 4) and p != Pauli(xp, zp, int(kp) + 1)
        assert (p == q) == (np.array_equal(xp, xq) and np.array_equal(zp, zq) and kp == kq)
        assert p != Pauli(np.append(xp, 0), np.append(zp, 0), int(kp)) and p != str(p)
        overlap = int(np.sum(xp & zq))
        same(multiply(p, q), xp ^ xq, zp ^ zq, int(kp + kq) + 2 * overlap)
        assert p * q == multiply(p, q)
        symplectic = (overlap + int(np.sum(zp & xq))) % 2
        assert commutes(p, q) == (symplectic == 0) == commutes(q, p)

    @settings(max_examples=100, deadline=None)
    @given(sizes, st.integers(1, 6), seeds)
    def test_classical_word_and_detects(self, n, count, seed):
        rng = np.random.default_rng(seed)
        code, adjacency, words = random_code(rng, n, count)
        x = bits(rng, n)
        m_x = (adjacency.astype(int) @ x) % 2
        a, b = rng.integers(0, len(words), 2)
        cases = [
            bits(rng, n),  # a random word
            m_x.astype(np.uint8),  # word 0: a stabilizer element up to phase
            (m_x ^ words[a] ^ words[b]).astype(np.uint8),  # word C_a + C_b
        ]
        for z in cases:
            e = Pauli(x, z, int(rng.integers(0, 4)))
            word = (z.astype(int) + m_x) % 2
            assert classical_word(code, e) == ref_int(word)
            result = detects(code, e)
            assert result.word == ref_int(word)
            assert result.degenerate == (not word.any())
            if not word.any():
                clash = [i for i, c in enumerate(words) if int(np.sum(c & x)) % 2]
                assert bool(result) == (not clash)
                assert result.detail == (
                    f"degenerate error anticommutes with codeword operator C_{clash[0] + 1}"
                    if clash else "degenerate-pass"
                )
                continue
            index = {ref_int(c): i for i, c in enumerate(words)}
            hits = [(i, index[ref_int(c ^ word)]) for i, c in enumerate(words)
                    if ref_int(c ^ word) in index]
            assert bool(result) == (not hits)
            assert result.detail == (
                f"classical collision: C_{hits[0][0] + 1} + {''.join(map(str, word))}"
                f" equals C_{hits[0][1] + 1}" if hits else "classically detected"
            )


class TestType4Observable:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(2, 80), seeds)
    def test_public_form(self, n, seed):
        rng = np.random.default_rng(seed)
        draw = random.Random(seed)
        a, b = draw.randrange(1, 2 ** n), draw.randrange(1, 2 ** n - 1)
        b += b >= a  # distinct and nonzero
        v, v1, v2 = bits(rng, n), gf2.from_int(a, n), gf2.from_int(b, n)
        sign = int(rng.choice([1, -1]))
        obs = Type4Observable(list(v), v1, v2, sign)
        text = ["".join(map(str, row)) for row in (v, v1, v2)]
        assert obs.n == n and obs.sign == sign
        assert obs.to_dict() == {"v": text[0], "v1": text[1], "v2": text[2], "sign": sign}
        assert repr(obs) == (
            f"Type4Observable(v={text[0]!r}, v1={text[1]!r}, v2={text[2]!r}, sign={sign})"
        )
        for got, want in zip((obs.v, obs.v1, obs.v2), (v, v1, v2)):
            assert got.dtype == np.uint8 and np.array_equal(got, want) and not got.flags.writeable
        for got, want in zip(obs.exponents(), (v, v ^ v1, v ^ v2, v ^ v1 ^ v2)):
            assert np.array_equal(got, want)
        assert obs == Type4Observable.from_dict(obs.to_dict())
        assert obs == Type4Observable(v, v1, v2, sign) != Type4Observable(v, v1, v2, -sign)
        assert obs != Type4Observable(v ^ np.eye(n, dtype=np.uint8)[0], v1, v2, sign)
        assert obs != Type4Observable(v, v2, v1, sign) and obs != text

    @settings(max_examples=60, deadline=None)
    @given(sizes, seeds)
    def test_rejections(self, n, seed):
        rng = np.random.default_rng(seed)
        v, zero = bits(rng, n), np.zeros(n, dtype=np.uint8)
        unit = np.eye(n, dtype=np.uint8)[int(rng.integers(0, n))]
        for args in ((v, unit, np.append(unit, 1)), (np.append(v, 0), unit, unit)):
            with pytest.raises(ValueError, match="^v, v1, v2 must have equal length$"):
                Type4Observable(*args)
        for args in ((v, zero, unit), (v, unit, zero)):
            with pytest.raises(ValueError, match="^v1 and v2 must be nonzero$"):
                Type4Observable(*args)
        with pytest.raises(ValueError, match="^v1 and v2 must differ$"):
            Type4Observable(v, unit, unit.copy())
        if n > 1:
            other = np.roll(unit, 1)
            with pytest.raises(ValueError, match=r"^sign must be \+1 or -1$"):
                Type4Observable(v, unit, other, 0)
            d = {"v": gf2.format_vector(v), "v1": gf2.format_vector(unit), "v2": "0" * n}
            with pytest.raises(ValueError, match="^at: v1 and v2 must be nonzero$"):
                Type4Observable.from_dict(d, "at")
