import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cwskit import cws, gf2, verify
from cwskit.cws import InvalidCodeError, build_code, classicalize, detects
from cwskit.pauli import Pauli, commutes, multiply
from conftest import random_code
from dense_oracle import brute_rank


class TestBuildCode:
    def test_ring_code_generators(self, ring_code):
        expected = [
            "XZIIZZIIII", "ZXZIIIZIII", "IZXZIIIZII", "IIZXZIIIZI", "ZIIZXIIIIZ",
            "ZIIIIXZIIZ", "IZIIIZXZII", "IIZIIIZXZI", "IIIZIIIZXZ", "IIIIZZIIZX",
        ]
        assert [str(g) for g in ring_code.generators] == expected
        assert ring_code.num_codewords == 20

    def test_trivial_code(self):
        code = build_code(np.zeros((1, 1), dtype=np.uint8), [np.zeros(1, dtype=np.uint8)])
        assert str(code.generators[0]) == "X"

    def test_cycle5_generators_commute(self, cycle5_code):
        gens = cycle5_code.generators
        assert all(
            commutes(gens[i], gens[j])
            for i in range(5)
            for j in range(i + 1, 5)
        )

    def test_random_code_generators_commute(self):
        rng = np.random.default_rng(37)
        for _ in range(15):
            n = int(rng.integers(2, 8))
            code = random_code(rng, n, max_words=min(8, 2 ** n))
            gens = code.generators
            assert all(
                commutes(gens[i], gens[j])
                for i in range(len(gens))
                for j in range(i + 1, len(gens))
            )

    def test_rejects_non_square(self):
        with pytest.raises(InvalidCodeError, match="square"):
            build_code(np.zeros((2, 3), dtype=np.uint8), [np.zeros(3, dtype=np.uint8)])

    def test_rejects_asymmetric(self):
        m = np.array([[0, 1], [0, 0]], dtype=np.uint8)
        with pytest.raises(InvalidCodeError, match="symmetric"):
            build_code(m, [np.zeros(2, dtype=np.uint8)])

    def test_rejects_nonzero_diagonal(self):
        m = np.array([[1, 0], [0, 0]], dtype=np.uint8)
        with pytest.raises(InvalidCodeError, match="diagonal"):
            build_code(m, [np.zeros(2, dtype=np.uint8)])

    def test_rejects_duplicate_codewords(self):
        m = np.zeros((2, 2), dtype=np.uint8)
        words = [np.zeros(2, dtype=np.uint8), np.ones(2, dtype=np.uint8), np.ones(2, dtype=np.uint8)]
        with pytest.raises(InvalidCodeError, match="duplicate"):
            build_code(m, words)

    def test_rejects_missing_zero_codeword(self):
        m = np.zeros((2, 2), dtype=np.uint8)
        with pytest.raises(InvalidCodeError, match="all-zero"):
            build_code(m, [np.ones(2, dtype=np.uint8)])

    def test_rejects_wrong_length_codeword(self):
        m = np.zeros((2, 2), dtype=np.uint8)
        with pytest.raises(InvalidCodeError, match="length"):
            build_code(m, [np.zeros(3, dtype=np.uint8)])


class TestClassicalize:
    def test_pure_z_passes_through(self, ring_code):
        z3 = Pauli.single(10, 2, "Z")
        assert gf2.format_vector(classicalize(ring_code, z3)) == "0010000000"

    def test_pure_x_gives_adjacency_row(self, ring_code):
        x1 = Pauli.single(10, 0, "X")
        assert gf2.format_vector(classicalize(ring_code, x1)) == "0100110000"

    def test_y_combines_both_parts(self, ring_code):
        y2 = Pauli.single(10, 1, "Y")
        assert gf2.format_vector(classicalize(ring_code, y2)) == "1110001000"

    def test_size_mismatch(self, ring_code):
        with pytest.raises(ValueError):
            classicalize(ring_code, Pauli.identity(4))

    def test_linear_modulo_phase(self, ring_code):
        rng = np.random.default_rng(9)
        for _ in range(40):
            e = Pauli(rng.integers(0, 2, 10), rng.integers(0, 2, 10))
            f = Pauli(rng.integers(0, 2, 10), rng.integers(0, 2, 10))
            lhs = classicalize(ring_code, multiply(e, f))
            rhs = classicalize(ring_code, e) ^ classicalize(ring_code, f)
            assert np.array_equal(lhs, rhs)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(60, 80), st.integers(0, 2 ** 32 - 1))
    def test_words_past_one_machine_word(self, n, seed):
        # classical_words, classicalize and the word in detects' result
        # against z ^ (M x) mod 2 per error, at n past 64 bits.  The code is
        # built from 0/1 rows, as conftest.random_code's integer draws below
        # 2^n overflow here; a repeated codeword has probability 2^-57.
        rng = np.random.default_rng(seed)
        upper = np.triu(rng.integers(0, 2, (n, n)), 1)
        adjacency = (upper | upper.T).astype(np.uint8)
        code = build_code(adjacency, [np.zeros(n, dtype=np.uint8), *rng.integers(0, 2, (3, n))])
        errors = [Pauli(rng.integers(0, 2, n), rng.integers(0, 2, n)) for _ in range(6)]
        x = np.eye(n, dtype=np.uint8)[n - 1]
        errors.append(Pauli(x, adjacency[n - 1]))  # a stabilizer element: word zero
        expected = [(e.z.astype(int) + adjacency.astype(int) @ e.x) % 2 for e in errors]
        words = cws.classical_words(code, cws.ErrorSet(errors, [f"E{k}" for k in range(7)]))
        # a word may come as a packed int (the to_int order) or as a 0/1 row
        assert [w if isinstance(w, int) else gf2.to_int(w) for w in words] == [
            gf2.to_int(w) for w in expected
        ]
        for e, w in zip(errors, expected):
            assert np.array_equal(classicalize(code, e), w)
            assert detects(code, e).word == gf2.to_int(w)  # packed, as classical_words gives it

    def test_generator_images(self, ring_code):
        # X_i maps to row i of the adjacency and Z^C maps to C itself
        for i in range(10):
            x = Pauli.single(10, i, "X")
            assert np.array_equal(classicalize(ring_code, x), ring_code.adjacency[i])
        for word in ring_code.codewords:
            z = Pauli(x=np.zeros(10, dtype=np.uint8), z=word)
            assert np.array_equal(classicalize(ring_code, z), word)


class TestDetects:
    def test_identity_detected_as_degenerate(self, ring_code):
        result = detects(ring_code, Pauli.identity(10))
        assert result
        assert result.degenerate
        assert result.detail == "degenerate-pass"

    def test_all_weight_one_errors_detected(self, ring_code, ring_errors):
        for _, e in ring_errors:
            assert detects(ring_code, e)

    def test_codeword_difference_not_detected(self, toy_code):
        # IZZI has classical word 0110 = 0011 + 0101
        bad = Pauli.from_string("IZZI")
        result = detects(toy_code, bad)
        assert not result
        assert "collision" in result.detail

    def test_degenerate_failure_names_codeword(self, cycle5_code):
        # a single generator acts as a logical operator: zero classical
        # word but anticommutes with Z^11111
        result = detects(cycle5_code, cycle5_code.generators[0])
        assert not result
        assert result.degenerate

    def test_degenerate_pass_on_generator_pair(self, cycle5_code):
        pair = multiply(cycle5_code.generators[0], cycle5_code.generators[1])
        result = detects(cycle5_code, pair)
        assert result
        assert result.detail == "degenerate-pass"

    def test_agrees_with_state_vector_oracle(self):
        rng = np.random.default_rng(21)
        checked = 0
        for _ in range(12):
            n = int(rng.integers(2, 6))
            code = random_code(rng, n, max_words=min(6, 2 ** n))
            states = verify.codeword_states(code)
            for _ in range(12):
                e = Pauli(rng.integers(0, 2, n), rng.integers(0, 2, n))
                if not classicalize(code, e).any():
                    continue
                gram = np.array(
                    [
                        [np.vdot(si, verify.apply(e, sj)) for sj in states]
                        for si in states
                    ]
                )
                off_diag = gram - np.diag(np.diag(gram))
                oracle_detected = np.allclose(off_diag, 0, atol=1e-10) and np.allclose(
                    np.diag(gram), gram[0, 0], atol=1e-10
                )
                assert bool(detects(code, e)) == oracle_detected
                checked += 1
        assert checked > 50


class TestCodewordMatrix:
    def test_first_row_zero(self, ring_code, toy_code):
        for code in (ring_code, toy_code):
            assert not code.codewords[0].any()

    def test_trivial_code_single_zero_row(self):
        code = build_code(np.zeros((1, 1), dtype=np.uint8), [np.zeros(1, dtype=np.uint8)])
        assert code.codewords.shape == (1, 1)
        assert not code.codewords.any()

    def test_ring_rank_six(self, ring_code):
        m = ring_code.codewords
        assert m.shape == (20, 10)
        assert brute_rank(m.tolist()) == 6


class TestErrorSet:
    def test_weight_one_ordering(self):
        es = cws.ErrorSet.weight_one(2)
        assert es.labels == ["X1", "Y1", "Z1", "X2", "Y2", "Z2"]
        assert str(es.errors[0]) == "XI"
        assert str(es.errors[4]) == "IY"

    @pytest.mark.parametrize("n", range(1, 13))
    def test_weight_one_equals_the_set_parsed_from_strings(self, n):
        entries = [{"label": f"{letter}{q + 1}", "pauli": "I" * q + letter + "I" * (n - q - 1)}
                   for q in range(n) for letter in "XYZ"]
        parsed = cws.errors_from_entries(entries, n)
        built = cws.ErrorSet.weight_one(n)
        assert built.labels == parsed.labels
        assert built.errors == parsed.errors
        assert [str(e) for e in built.errors] == [e["pauli"] for e in entries]

    def test_weight_one_rows_are_read_only(self):
        """The errors share their rows, so none of them may change one."""
        for e in cws.ErrorSet.weight_one(4).errors:
            for row in (e.x, e.z):
                with pytest.raises(ValueError, match="read-only"):
                    row[0] = 1 - row[0]

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError, match="unique"):
            cws.ErrorSet([Pauli.identity(2), Pauli.identity(2)], ["a", "a"])

    def test_subset_preserves_labels(self):
        es = cws.ErrorSet.weight_one(3)
        sub = es.subset([4, 1])
        assert sub.labels == ["Y2", "Y1"]


class TestJsonRoundTrip:
    def test_round_trip(self, ring_code):
        rebuilt, errors = cws.from_dict(cws.to_dict(ring_code))
        assert errors is None
        assert np.array_equal(rebuilt.adjacency, ring_code.adjacency)
        assert np.array_equal(rebuilt.codewords, ring_code.codewords)
        assert cws.code_fingerprint(rebuilt) == cws.code_fingerprint(ring_code)

    def test_fingerprint_distinguishes_codes(self, ring_code, toy_code):
        assert cws.code_fingerprint(ring_code) != cws.code_fingerprint(toy_code)

    def test_missing_field_rejected(self):
        with pytest.raises(InvalidCodeError, match="missing field"):
            cws.from_dict({"n": 2, "adjacency": ["00", "00"]})

    def test_embedded_errors_parsed(self, ring_code):
        d = cws.to_dict(ring_code)
        d["errors"] = ["XIIIIIIIII", {"label": "Y2", "pauli": "IYIIIIIIII"}]
        _, errors = cws.from_dict(d)
        assert errors.labels == ["XIIIIIIIII", "Y2"]
