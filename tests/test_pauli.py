import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cwskit import gf2
from cwskit.pauli import Pauli, commutes, multiply, stabilizer_element
from dense_oracle import matrix_from_string, pauli_matrix, stabilizer_matrix


def random_pauli(rng, n):
    return Pauli(
        rng.integers(0, 2, size=n).astype(np.uint8),
        rng.integers(0, 2, size=n).astype(np.uint8),
        int(rng.integers(0, 4)),
    )


class TestStringForm:
    @pytest.mark.parametrize(
        "s", ["X", "Y", "Z", "I", "-iY", "iZ", "-X", "XZIIZZIIII", "-iXZII"]
    )
    def test_round_trip(self, s):
        assert str(Pauli.from_string(s)) == s

    def test_plus_prefix_normalizes(self):
        assert str(Pauli.from_string("+iX")) == "iX"

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            Pauli.from_string("XQ")
        with pytest.raises(ValueError):
            Pauli.from_string("-i")

    def test_owns_its_parts(self):
        # changing the caller's arrays after construction leaves the operator unchanged
        x, z = np.array([1, 0, 1], dtype=np.uint8), np.array([0, 1, 1], dtype=np.uint8)
        p = Pauli(x, z, 1)
        x[:], z[:] = 0, 0
        assert str(p) == "-XZY" and p == Pauli.from_string("-XZY")
        assert not p.x.flags.writeable and not p.z.flags.writeable

    def test_matrix_semantics_of_y(self):
        assert np.allclose(pauli_matrix(Pauli.from_string("Y")), matrix_from_string("Y"))

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 20), st.integers(0, 3), st.integers(0, 2 ** 32 - 1))
    def test_matches_per_qubit_literal_form(self, n, phase_exp, seed):
        rng = np.random.default_rng(seed)
        p = Pauli(rng.integers(0, 2, n), rng.integers(0, 2, n), phase_exp)
        assert str(p) == literal_string(p)
        assert Pauli.from_string(str(p)) == p


def literal_string(p):
    """The string form spelled out qubit by qubit: Y = i X Z adds one i."""
    letters = {(0, 0): "I", (0, 1): "X", (1, 0): "Z", (1, 1): "Y"}
    y_count = sum(int(z) & int(x) for z, x in zip(p.z, p.x))
    token = {0: "", 1: "i", 2: "-", 3: "-i"}[(p.phase_exp + y_count) % 4]
    return token + "".join(letters[(int(z), int(x))] for z, x in zip(p.z, p.x))


class TestMultiply:
    def test_identity_is_neutral(self):
        rng = np.random.default_rng(0)
        p = random_pauli(rng, 4)
        assert multiply(Pauli.identity(4), p) == p
        assert multiply(p, Pauli.identity(4)) == p

    def test_single_qubit_xz_products(self):
        x = Pauli.from_string("X")
        z = Pauli.from_string("Z")
        xz = multiply(x, z)
        zx = multiply(z, x)
        # expected values computed with the dense 2x2 oracle
        assert np.allclose(pauli_matrix(xz), matrix_from_string("X") @ matrix_from_string("Z"))
        assert np.allclose(pauli_matrix(zx), matrix_from_string("Z") @ matrix_from_string("X"))
        assert str(xz) == "-iY"
        assert str(zx) == "iY"

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            multiply(Pauli.identity(2), Pauli.identity(3))

    def test_against_dense_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(150):
            n = int(rng.integers(1, 6))
            p, q = random_pauli(rng, n), random_pauli(rng, n)
            assert np.allclose(
                pauli_matrix(multiply(p, q)), pauli_matrix(p) @ pauli_matrix(q)
            )

    def test_square_is_signed_identity(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            p = random_pauli(rng, 4)
            sq = multiply(p, p)
            assert not sq.x.any() and not sq.z.any()
            assert sq.phase in (1, -1)
            assert np.allclose(pauli_matrix(sq), pauli_matrix(p) @ pauli_matrix(p))


class TestCommutes:
    def test_single_qubit_cases(self):
        assert not commutes(Pauli.from_string("XI"), Pauli.from_string("ZI"))
        assert commutes(Pauli.from_string("XI"), Pauli.from_string("IZ"))

    def test_symmetric_and_reflexive(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            p, q = random_pauli(rng, 5), random_pauli(rng, 5)
            assert commutes(p, q) == commutes(q, p)
            assert commutes(p, p)
            assert commutes(p, Pauli.identity(5))

    def test_matches_dense_commutator(self):
        rng = np.random.default_rng(3)
        for _ in range(60):
            n = int(rng.integers(1, 5))
            p, q = random_pauli(rng, n), random_pauli(rng, n)
            pm, qm = pauli_matrix(p), pauli_matrix(q)
            assert commutes(p, q) == np.allclose(pm @ qm, qm @ pm)

    def test_codeword_operator_rule(self, ring_code, reference_table):
        # Z^C commutes with the element of exponent O iff <C, O> = 0; all
        # 20 codewords commute with every published kernel vector
        for word in ring_code.codewords:
            z_op = Pauli(x=np.zeros(10, dtype=np.uint8), z=word)
            for o in reference_table["pauli"] + gf2.kernel_basis(ring_code.codewords):
                s = stabilizer_element(ring_code.generators, o)
                assert commutes(z_op, s) == (gf2.dot(word, o) == 0)
                assert commutes(z_op, s)

    def test_codeword_operator_rule_generic(self):
        # on random exponents the commutation sign equals the inner product
        rng = np.random.default_rng(13)
        adjacency = np.zeros((6, 6), dtype=np.uint8)
        for i in range(6):
            for j in range(i + 1, 6):
                adjacency[i, j] = adjacency[j, i] = rng.integers(0, 2)
        gens = [Pauli(x=np.eye(6, dtype=np.uint8)[i], z=adjacency[i]) for i in range(6)]
        for _ in range(40):
            word = rng.integers(0, 2, 6).astype(np.uint8)
            o = rng.integers(0, 2, 6).astype(np.uint8)
            z_op = Pauli(x=np.zeros(6, dtype=np.uint8), z=word)
            assert commutes(z_op, stabilizer_element(gens, o)) == (gf2.dot(word, o) == 0)


class TestStabilizerElement:
    def test_zero_exponent_is_identity(self, ring_code):
        s = stabilizer_element(ring_code.generators, np.zeros(10, dtype=np.uint8))
        assert s == Pauli.identity(10)

    def test_unit_exponent_reproduces_generator(self, ring_code):
        e1 = np.zeros(10, dtype=np.uint8)
        e1[0] = 1
        assert str(stabilizer_element(ring_code.generators, e1)) == "XZIIZZIIII"

    def test_rejects_non_commuting_generators(self):
        gens = [Pauli.from_string("XI"), Pauli.from_string("ZI")]
        with pytest.raises(ValueError):
            stabilizer_element(gens, [1, 1])

    def test_names_first_non_commuting_pair(self):
        # (0, 3) and (1, 2) clash; the pair reported is the first in
        # (i, j) order, whatever the exponent
        gens = [Pauli.from_string(s) for s in ("ZIII", "IZII", "IXII", "XIII")]
        with pytest.raises(ValueError, match="generators 0 and 3 do not commute"):
            stabilizer_element(gens, [0, 0, 0, 0])

    @settings(max_examples=40)
    @given(st.integers(2, 5), st.data())
    def test_product_rule_against_oracle(self, n, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 10 ** 6)))
        adjacency = np.zeros((n, n), dtype=np.uint8)
        for i in range(n):
            for j in range(i + 1, n):
                adjacency[i, j] = adjacency[j, i] = rng.integers(0, 2)
        gens = [Pauli(x=np.eye(n, dtype=np.uint8)[i], z=adjacency[i]) for i in range(n)]
        v = rng.integers(0, 2, size=n).astype(np.uint8)
        w = rng.integers(0, 2, size=n).astype(np.uint8)
        sv, sw, svw = (stabilizer_element(gens, u) for u in (v, w, v ^ w))
        product = multiply(sv, sw)
        assert np.allclose(pauli_matrix(product), pauli_matrix(sv) @ pauli_matrix(sw))
        assert np.allclose(pauli_matrix(product), pauli_matrix(svw))
        square = multiply(sv, sv)
        assert square == Pauli.identity(n)
        assert np.allclose(
            stabilizer_matrix(gens, v) @ stabilizer_matrix(gens, v), np.eye(2 ** n)
        )
