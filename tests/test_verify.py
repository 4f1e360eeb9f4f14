import itertools

import numpy as np
import pytest

from cwskit import cws, gf2, verify
from cwskit.observables import Type4Observable
from cwskit.pauli import Pauli, multiply
from cwskit.verify import (
    GroupAlgebraElement,
    apply,
    eigencheck,
    graph_state,
    is_involution,
    type4_element,
)
from conftest import random_code
from dense_oracle import element_matrix, graph_state_circuit, pauli_matrix


def literal_apply(p: Pauli, state: np.ndarray) -> np.ndarray:
    """Z^z X^x with phase, one basis index at a time over Python ints: the
    amplitude at k is phase * (-1)^popcount(k & z) * state[k ^ x]."""
    n = p.n
    x = sum(int(b) << (n - 1 - q) for q, b in enumerate(p.x))
    z = sum(int(b) << (n - 1 - q) for q, b in enumerate(p.z))
    out = np.empty(1 << n, dtype=complex)
    for k in range(1 << n):
        sign = -1 if bin(k & z).count("1") % 2 else 1
        out[k] = p.phase * sign * state[k ^ x]
    return out


def literal_graph_state(adjacency: np.ndarray) -> np.ndarray:
    """Sign (-1)^(edges inside the support of k), counted pair by pair."""
    n = adjacency.shape[0]
    signs = np.empty(1 << n)
    for k in range(1 << n):
        support = [q for q in range(n) if (k >> (n - 1 - q)) & 1]
        edges = sum(int(adjacency[a, b]) for a, b in itertools.combinations(support, 2))
        signs[k] = -1.0 if edges % 2 else 1.0
    return signs.astype(np.complex128) / np.sqrt(1 << n)


def random_state(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)


class TestGraphState:
    def test_single_vertex_is_plus(self):
        code = cws.build_code(np.zeros((1, 1), dtype=np.uint8), [np.zeros(1, dtype=np.uint8)])
        assert np.allclose(graph_state(code), np.ones(2) / np.sqrt(2))

    def test_edge_pair_amplitudes(self):
        code = cws.build_code(
            np.array([[0, 1], [1, 0]], dtype=np.uint8),
            [np.zeros(2, dtype=np.uint8)],
        )
        assert np.allclose(graph_state(code), np.array([1, 1, 1, -1]) / 2)

    def test_matches_circuit_construction(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            code = random_code(rng, int(rng.integers(1, 6)), max_words=1)
            assert np.allclose(graph_state(code), graph_state_circuit(code.adjacency))

    @pytest.mark.parametrize("n", [10, 11, 12, 13, 14])
    def test_amplitudes_match_literal_edge_count_bitwise(self, n):
        code = random_code(np.random.default_rng(100 + n), n, max_words=1)
        assert graph_state(code).tobytes() == literal_graph_state(code.adjacency).tobytes()

    def test_ring_code_generators_fix_state(self, ring_code):
        psi = graph_state(ring_code)
        assert abs(np.linalg.norm(psi) - 1.0) < 1e-12
        for g in ring_code.generators:
            assert np.linalg.norm(apply(g, psi) - psi) < 1e-12


class TestApply:
    def test_identity(self):
        state = np.array([0.6, 0.8], dtype=complex)
        assert np.allclose(apply(Pauli.identity(1), state), state)

    def test_x_flips_basis(self):
        state = np.zeros(8, dtype=complex)
        state[0] = 1.0
        flipped = apply(Pauli.single(3, 0, "X"), state)
        assert flipped[0b100] == 1.0 and np.count_nonzero(flipped) == 1

    def test_matches_dense_matrix(self):
        rng = np.random.default_rng(23)
        for _ in range(40):
            n = int(rng.integers(1, 6))
            p = Pauli(rng.integers(0, 2, n), rng.integers(0, 2, n), int(rng.integers(0, 4)))
            state = rng.normal(size=2 ** n) + 1j * rng.normal(size=2 ** n)
            assert np.allclose(apply(p, state), pauli_matrix(p) @ state)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_every_pauli_and_phase_matches_literal_loop(self, n):
        state = random_state(np.random.default_rng(n), n)
        for zx in range(1 << (2 * n)):
            z, x = gf2.from_int(zx >> n, n), gf2.from_int(zx & ((1 << n) - 1), n)
            for phase_exp in range(4):
                p = Pauli(x, z, phase_exp)
                assert np.array_equal(apply(p, state), literal_apply(p, state)), (str(p), phase_exp)

    @pytest.mark.parametrize("n", [12, 13, 14])
    def test_random_paulis_match_literal_loop_up_to_the_cap(self, n):
        assert n <= verify.ORACLE_CAP
        rng = np.random.default_rng(50 + n)
        state = random_state(rng, n)
        for _ in range(3):
            p = Pauli(rng.integers(0, 2, n), rng.integers(0, 2, n), int(rng.integers(0, 4)))
            assert np.array_equal(apply(p, state), literal_apply(p, state)), str(p)

    def test_four_term_element_matches_literal_loop_at_n12(self):
        rng = np.random.default_rng(61)
        code = random_code(rng, 12, max_words=4)
        v, v1, v2 = (rng.integers(0, 2, 12).astype(np.uint8) for _ in range(3))
        elem = type4_element(code, Type4Observable(v, v1, v2, sign=-1))
        assert len(elem.expanded()) == 4
        state = random_state(rng, 12)
        expected = np.zeros_like(state)
        for coeff, p in elem.expanded():
            expected += coeff * literal_apply(p, state)
        assert np.array_equal(apply(elem, state), expected)

    def test_double_application_gives_square_phase(self):
        rng = np.random.default_rng(29)
        for _ in range(30):
            n = int(rng.integers(1, 5))
            p = Pauli(rng.integers(0, 2, n), rng.integers(0, 2, n), int(rng.integers(0, 4)))
            state = rng.normal(size=2 ** n) + 1j * rng.normal(size=2 ** n)
            twice = apply(p, apply(p, state))
            assert np.allclose(twice, multiply(p, p).phase * state)

    def test_four_term_element_stabilizes_code_state(self, ring_code):
        psi = graph_state(ring_code)
        v1 = gf2.parse_vector("0000100001")
        v2 = gf2.parse_vector("0001000011")
        elem = GroupAlgebraElement.from_vectors(
            ring_code,
            [(np.zeros(10, dtype=np.uint8), -0.5), (v1, 0.5), (v2, 0.5), (v1 ^ v2, 0.5)],
        )
        assert np.allclose(apply(elem, psi), psi)

    def test_element_matches_dense_matrix(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            n = int(rng.integers(2, 5))
            code = random_code(rng, n, max_words=4)
            pairs = [
                (rng.integers(0, 2, n).astype(np.uint8), float(rng.normal()))
                for _ in range(int(rng.integers(1, 5)))
            ]
            elem = GroupAlgebraElement.from_vectors(code, pairs)
            state = rng.normal(size=2 ** n) + 1j * rng.normal(size=2 ** n)
            dense = element_matrix(code, list(elem_vectors(elem, n)))
            assert np.allclose(apply(elem, state), dense @ state)


def elem_vectors(elem, n):
    for key, coeff in sorted(elem.terms.items()):
        yield gf2.from_int(key, n), coeff


class TestIsInvolution:
    def test_identity_term(self, toy_code):
        elem = GroupAlgebraElement.from_vectors(
            toy_code, [(np.zeros(4, dtype=np.uint8), 1.0)]
        )
        assert is_involution(elem)

    def test_four_term_pattern(self, toy_code):
        v1 = gf2.parse_vector("0101")
        v2 = gf2.parse_vector("0011")
        elem = GroupAlgebraElement.from_vectors(
            toy_code,
            [(np.zeros(4, dtype=np.uint8), -0.5), (v1, 0.5), (v2, 0.5), (v1 ^ v2, 0.5)],
        )
        assert is_involution(elem)

    def test_two_equal_terms_rejected(self, toy_code):
        elem = GroupAlgebraElement.from_vectors(
            toy_code,
            [(gf2.parse_vector("0001"), 0.5), (gf2.parse_vector("0010"), 0.5)],
        )
        assert not is_involution(elem)


class TestEigencheck:
    def test_stabilizer_gives_plus_one(self, ring_code):
        psi = graph_state(ring_code)
        for g in ring_code.generators[:3]:
            assert eigencheck(g, psi) == 1

    def test_reference_observable_on_corrupted_states(self, ring_code, reference_table):
        a1 = reference_table["observables"]["A1"]
        element = type4_element(ring_code, a1)
        psi = graph_state(ring_code)
        y2 = Pauli.single(10, 1, "Y")
        for word in ring_code.codewords:
            w = Pauli(x=np.zeros(10, dtype=np.uint8), z=word)
            state = apply(y2, apply(w, psi))
            assert eigencheck(element, state) == -1

    def test_non_eigenvector_returns_none(self, toy_code):
        rng = np.random.default_rng(41)
        elem = type4_element(
            toy_code,
            Type4Observable(
                gf2.parse_vector("0000"), gf2.parse_vector("0101"), gf2.parse_vector("0011")
            ),
        )
        state = rng.normal(size=16) + 1j * rng.normal(size=16)
        state /= np.linalg.norm(state)
        assert eigencheck(elem, state) is None


class TestCodewordStates:
    def test_ring_states_orthonormal(self, ring_code):
        states = verify.codeword_states(ring_code)
        gram = np.array([[np.vdot(a, b) for b in states] for a in states])
        assert np.allclose(gram, np.eye(20), atol=1e-10)
