import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cwskit import cws, gf2, verify
from cwskit.cws import build_code, classicalize
from cwskit.observables import (
    Type4Observable,
    commutation_correction,
    eigenvalue_on_error,
    eigenvalues,
    error_normalizer_elements,
    is_decoding_observable,
    pauli_normalizer_generators,
    pauli_syndrome_partition,
    search_type4,
    stabilization_rhs,
    stabilizes,
)
from cwskit.pauli import Pauli, commutes, stabilizer_element
from conftest import random_code
from dense_oracle import pauli_matrix, stabilizer_matrix, type4_matrix


def random_pauli(rng, n):
    return Pauli(rng.integers(0, 2, n), rng.integers(0, 2, n), int(rng.integers(0, 4)))


def random_observable(rng, code, stabilizing):
    """Random four-term observable; with ``stabilizing`` its v solves the
    stabilization system whenever that system is solvable."""
    n = code.n
    ints = rng.choice(np.arange(1, 2 ** n), size=2, replace=False)
    v1, v2 = gf2.from_int(int(ints[0]), n), gf2.from_int(int(ints[1]), n)
    v = rng.integers(0, 2, n).astype(np.uint8)
    solved = gf2.solve(code.codewords, stabilization_rhs(code, v1, v2))
    if stabilizing and solved is not None:
        v = solved[0]
    return Type4Observable(v, v1, v2, sign=int(rng.choice([1, -1])))


def reference_correction(code, v1, v2, g):
    """Commutation correction read off phased stabilizer products."""
    anti1 = not commutes(stabilizer_element(code.generators, v1), g)
    anti2 = not commutes(stabilizer_element(code.generators, v2), g)
    corr = np.zeros(code.n, dtype=np.uint8)
    if anti1:
        corr ^= v2
    if anti2:
        corr ^= v1
    return corr


def reference_eigenvalue(code, obs, g):
    """Outcome of obs on a state corrupted by g from phased stabilizer
    products, or None when obs leaks on g."""
    corr = reference_correction(code, obs.v1, obs.v2, g)
    rhs = stabilization_rhs(code, obs.v1, obs.v2)
    if not np.array_equal(gf2.matvec(code.codewords, obs.v ^ corr), rhs):
        return None
    m = 1 if commutes(stabilizer_element(code.generators, obs.v), g) else -1
    return obs.sign * m * (-1 if corr.any() else 1)


def reference_partition(code, errors, observables):
    """(signs, members) per syndrome class, + before -, from phased products."""
    elements = [stabilizer_element(code.generators, o) for o in observables]
    buckets = {}
    for idx, (_, e) in enumerate(errors):
        signs = tuple(1 if commutes(s, e) else -1 for s in elements)
        buckets.setdefault(signs, []).append(idx)
    return [(s, buckets[s]) for s in sorted(buckets, key=lambda s: [-b for b in s])]


def label_index(errors, label):
    return errors.labels.index(label)


def subset_by_labels(errors, labels):
    return errors.subset([label_index(errors, l) for l in labels])


class TestType4Observable:
    def test_rejects_degenerate_pairs(self):
        v = gf2.parse_vector("0000")
        v1 = gf2.parse_vector("0101")
        with pytest.raises(ValueError, match="nonzero"):
            Type4Observable(v, gf2.parse_vector("0000"), v1)
        with pytest.raises(ValueError, match="differ"):
            Type4Observable(v, v1, v1)
        with pytest.raises(ValueError, match="sign"):
            Type4Observable(v, v1, gf2.parse_vector("0011"), sign=2)

    def test_owns_its_vectors(self):
        # the fields are the observable's own read-only arrays: changing the
        # caller's arrays afterwards leaves the observable unchanged
        given = [np.array(list(s), dtype=np.uint8) for s in ("0110", "0101", "0011")]
        obs = Type4Observable(*given)
        for arr in given:
            arr[:] = 1
        assert obs.to_dict() == {"v": "0110", "v1": "0101", "v2": "0011", "sign": 1}
        assert not any(arr.flags.writeable for arr in (obs.v, obs.v1, obs.v2))

    def test_squares_to_identity(self):
        rng = np.random.default_rng(51)
        for _ in range(25):
            n = int(rng.integers(2, 5))
            code = random_code(rng, n, max_words=4)
            v = rng.integers(0, 2, n).astype(np.uint8)
            ints = rng.choice(np.arange(1, 2 ** n), size=2, replace=False)
            obs = Type4Observable(v, gf2.from_int(int(ints[0]), n), gf2.from_int(int(ints[1]), n))
            dense = type4_matrix(code, obs)
            assert np.allclose(dense @ dense, np.eye(2 ** n), atol=1e-12)

    def test_coefficient_pattern_is_forced(self):
        # for four distinct exponents closed under pairwise sums, exactly
        # the +-1/2 patterns with an odd number of minus signs ... the
        # involution condition singles out sign patterns equivalent to
        # (-1, 1, 1, 1) up to relabeling
        from itertools import product

        valid = []
        for signs in product((0.5, -0.5), repeat=4):
            squares = sum(s * s for s in signs)
            cross = [
                signs[0] * signs[1] + signs[2] * signs[3],
                signs[0] * signs[2] + signs[1] * signs[3],
                signs[0] * signs[3] + signs[1] * signs[2],
            ]
            if abs(squares - 1.0) < 1e-12 and all(abs(c) < 1e-12 for c in cross):
                valid.append(signs)
        assert len(valid) == 8
        for signs in valid:
            assert sum(1 for s in signs if s < 0) in (1, 3)


class TestPauliNormalizer:
    def test_ring_kernel_dimension_and_span(self, ring_code, reference_table):
        basis = pauli_normalizer_generators(ring_code)
        assert len(basis) == 4
        for o in reference_table["pauli"]:
            assert gf2.in_rowspace(np.array(basis), o)
        for b in basis:
            assert gf2.in_rowspace(np.array(reference_table["pauli"]), b)

    def test_single_zero_codeword_gives_full_space(self):
        code = build_code(np.zeros((3, 3), dtype=np.uint8), [np.zeros(3, dtype=np.uint8)])
        basis = pauli_normalizer_generators(code)
        assert len(basis) == 3

    def test_published_vectors_annihilated(self, ring_code, reference_table):
        for o in reference_table["pauli"]:
            assert not gf2.matvec(ring_code.codewords, o).any()


class TestCommutationCorrection:
    def test_identity_gets_zero(self, ring_code):
        v1 = gf2.parse_vector("0000100001")
        v2 = gf2.parse_vector("0001000011")
        corr = commutation_correction(ring_code, v1, v2, Pauli.identity(10))
        assert not corr.any()

    def test_reference_pair_on_y2(self, ring_code):
        # Y2 commutes with both elements of the first published pair
        v1 = gf2.parse_vector("0000100001")
        v2 = gf2.parse_vector("0001000011")
        y2 = Pauli.single(10, 1, "Y")
        s1 = stabilizer_element(ring_code.generators, v1)
        s2 = stabilizer_element(ring_code.generators, v2)
        assert commutes(s1, y2) and commutes(s2, y2)
        assert not commutation_correction(ring_code, v1, v2, y2).any()

    def test_four_cases(self):
        rng = np.random.default_rng(61)
        seen = set()
        for _ in range(300):
            n = int(rng.integers(2, 5))
            code = random_code(rng, n, max_words=1)
            ints = rng.choice(np.arange(1, 2 ** n), size=2, replace=False)
            v1, v2 = gf2.from_int(int(ints[0]), n), gf2.from_int(int(ints[1]), n)
            g = Pauli(rng.integers(0, 2, n), rng.integers(0, 2, n))
            anti1 = not commutes(stabilizer_element(code.generators, v1), g)
            anti2 = not commutes(stabilizer_element(code.generators, v2), g)
            corr = commutation_correction(code, v1, v2, g)
            expected = {
                (True, True): v1 ^ v2,
                (False, True): v1,
                (True, False): v2,
                (False, False): np.zeros(n, dtype=np.uint8),
            }[(anti1, anti2)]
            assert np.array_equal(corr, expected)
            seen.add((anti1, anti2))
        assert len(seen) == 4

    def test_commutation_reduces_to_classical_word(self):
        # the anticommutation bit of S^v against g equals <classicalize(g), v>
        rng = np.random.default_rng(67)
        for _ in range(200):
            n = int(rng.integers(2, 6))
            code = random_code(rng, n, max_words=1)
            v = rng.integers(0, 2, n).astype(np.uint8)
            g = Pauli(rng.integers(0, 2, n), rng.integers(0, 2, n))
            direct = commutes(stabilizer_element(code.generators, v), g)
            assert direct == (gf2.dot(classicalize(code, g), v) == 0)

    @settings(max_examples=80, deadline=None)
    @given(st.integers(2, 6), st.integers(0, 2 ** 32 - 1), st.booleans())
    def test_classical_words_match_pauli_reference(self, n, seed, stabilizing):
        # the classical-word forms of the usability criterion, the sign and
        # the syndrome partition against the phased-product references
        rng = np.random.default_rng(seed)
        code = random_code(rng, n)
        count = int(rng.integers(0, 6))
        errors = cws.ErrorSet(
            [random_pauli(rng, n) for _ in range(count)] + [Pauli.identity(n)],
            [f"E{k}" for k in range(count)] + ["I"],
        )
        obs = random_observable(rng, code, stabilizing)
        expected = [reference_eigenvalue(code, obs, e) for _, e in errors]
        assert eigenvalues(code, cws.classical_words(code, errors), obs) == [
            0 if sign is None else sign for sign in expected
        ]
        assert is_decoding_observable(code, errors, obs) == (None not in expected)
        for k, (_, e) in enumerate(errors):
            assert is_decoding_observable(code, errors.subset([k]), obs) == (
                expected[k] is not None
            )
            if expected[k] is None:
                with pytest.raises(ValueError, match="leaks"):
                    eigenvalue_on_error(code, obs, e)
            else:
                assert eigenvalue_on_error(code, obs, e) == expected[k]
        layer = [rng.integers(0, 2, n).astype(np.uint8) for _ in range(int(rng.integers(0, 4)))]
        for observables in (layer, pauli_normalizer_generators(code)):
            classes = pauli_syndrome_partition(code, errors, observables)
            assert [(c.signs, c.members) for c in classes] == reference_partition(
                code, errors, observables
            )


class TestStabilization:
    def test_orthogonal_pair_gives_zero_rhs(self, ring_code, reference_table):
        o1, o2 = reference_table["pauli"][0], reference_table["pauli"][1]
        assert not stabilization_rhs(ring_code, o1, o2).any()

    def test_single_zero_codeword(self):
        code = build_code(np.zeros((2, 2), dtype=np.uint8), [np.zeros(2, dtype=np.uint8)])
        rhs = stabilization_rhs(code, gf2.parse_vector("01"), gf2.parse_vector("10"))
        assert rhs.shape == (1,) and rhs[0] == 0

    def test_reference_rhs_solvable(self, ring_code, reference_table):
        a1 = reference_table["observables"]["A1"]
        rhs = stabilization_rhs(ring_code, a1.v1, a1.v2)
        assert gf2.solve(ring_code.codewords, rhs) is not None

    def test_all_reference_observables_stabilize(self, ring_code, reference_table):
        for obs in reference_table["observables"].values():
            assert stabilizes(ring_code, obs)

    def test_broken_pivot_fails(self, ring_code, reference_table):
        a1 = reference_table["observables"]["A1"]
        v = a1.v.copy()
        rhs = stabilization_rhs(ring_code, a1.v1, a1.v2)
        reduced, pivots = gf2.rref(ring_code.codewords)
        v[pivots[0]] ^= 1
        broken = Type4Observable(v, a1.v1, a1.v2)
        assert not stabilizes(ring_code, broken)

    def test_negative_sign_never_stabilizes(self, ring_code, reference_table):
        a1 = reference_table["observables"]["A1"]
        flipped = Type4Observable(a1.v, a1.v1, a1.v2, sign=-1)
        assert not stabilizes(ring_code, flipped)

    def test_matches_oracle_exhaustively_on_small_code(self):
        # triangle graph, codewords {000, 111}: every (v, v1, v2) triple
        adjacency = np.array([[0, 1, 1], [1, 0, 1], [1, 1, 0]], dtype=np.uint8)
        code = build_code(adjacency, [np.zeros(3, dtype=np.uint8), np.ones(3, dtype=np.uint8)])
        states = verify.codeword_states(code)
        for v_int in range(8):
            for a_int in range(1, 8):
                for b_int in range(a_int + 1, 8):
                    obs = Type4Observable(
                        gf2.from_int(v_int, 3), gf2.from_int(a_int, 3), gf2.from_int(b_int, 3)
                    )
                    element = verify.type4_element(code, obs)
                    oracle = all(
                        np.allclose(verify.apply(element, s), s, atol=1e-10)
                        for s in states
                    )
                    assert stabilizes(code, obs) == oracle


class TestDecodingCriterion:
    def test_identity_only_reduces_to_stabilization(self, ring_code, reference_table):
        identity_set = cws.ErrorSet([Pauli.identity(10)], ["I"])
        for obs in reference_table["observables"].values():
            assert is_decoding_observable(ring_code, identity_set, obs) == stabilizes(
                ring_code, obs
            )

    def test_reference_observables_work_for_their_classes(
        self, ring_code, ring_errors, reference_table
    ):
        # A3 is the known exception: its second pair element fails to
        # commute with Y7 and Y9 while v1 is outside the codeword kernel
        for cls in reference_table["classes"]:
            obs = reference_table["observables"][cls["observable"]]
            sub = subset_by_labels(ring_errors, list(cls["signs"]))
            expected = cls["observable"] != "A3"
            assert is_decoding_observable(ring_code, sub, obs) == expected

    def test_no_reference_observable_covers_all_thirty(
        self, ring_code, ring_errors, reference_table
    ):
        # each published pair has an element outside the codeword kernel,
        # so some weight-1 error picks up a correction that breaks the
        # stabilization system; Z4 is a witness for A1
        for obs in reference_table["observables"].values():
            assert not is_decoding_observable(ring_code, ring_errors, obs)
        a1 = reference_table["observables"]["A1"]
        z4 = subset_by_labels(ring_errors, ["Z4"])
        assert not is_decoding_observable(ring_code, z4, a1)
        corr = commutation_correction(ring_code, a1.v1, a1.v2, z4.errors[0])
        assert np.array_equal(corr, a1.v1)
        assert gf2.matvec(ring_code.codewords, a1.v1).any()

    def test_leak_witnessed_by_oracle(self, ring_code, ring_errors, reference_table):
        a1 = reference_table["observables"]["A1"]
        element = verify.type4_element(ring_code, a1)
        z4 = ring_errors.errors[label_index(ring_errors, "Z4")]
        states = verify.codeword_states(ring_code)
        results = {
            verify.eigencheck(element, verify.apply(z4, s)) for s in states
        }
        assert None in results or len(results) > 1

    def test_usable_on_all_thirty_exactly_inside_ker_c(self, ring_code, ring_errors):
        """Result 2 of docs/observables.md, by brute force over every pair
        0 < v1 < v2 whose stabilization system C v = C v1 | C v2 is solvable:
        the observable is usable on all 30 weight-1 errors exactly when v1
        and v2 are nonzero elements of ker C, so it splits no Pauli class."""
        n = ring_code.n
        words = cws.classical_words(ring_code, ring_errors)
        images = [gf2.int_matvec(ring_code.codeword_rows, u) for u in range(1 << n)]
        preimage = {}
        for u in reversed(range(1 << n)):
            preimage[images[u]] = u
        kernel = [u for u in range(1, 1 << n) if not images[u]]
        stabilizing, usable = 0, set()
        for v1 in range(1, 1 << n):
            for v2 in range(v1 + 1, 1 << n):
                v = preimage.get(images[v1] | images[v2])
                if v is None:
                    continue
                stabilizing += 1
                if all(eigenvalues(ring_code, words, Type4Observable._of(n, v, v1, v2))):
                    usable.add((v1, v2))
        assert len(kernel) == 15 and stabilizing == 49665
        assert usable == {(a, b) for a in kernel for b in kernel if a < b}


class TestEigenvalueOnError:
    def test_identity_error(self, ring_code, reference_table):
        a1 = reference_table["observables"]["A1"]
        assert eigenvalue_on_error(ring_code, a1, Pauli.identity(10)) == 1

    def test_published_sign_examples(self, ring_code, ring_errors, reference_table):
        a1 = reference_table["observables"]["A1"]
        a7 = reference_table["observables"]["A7"]
        get = lambda l: ring_errors.errors[label_index(ring_errors, l)]
        assert eigenvalue_on_error(ring_code, a1, get("Y2")) == -1
        assert eigenvalue_on_error(ring_code, a1, get("Z1")) == 1
        assert eigenvalue_on_error(ring_code, a7, get("X9")) == -1
        assert eigenvalue_on_error(ring_code, a7, get("Y1")) == 1

    def test_leaking_error_raises(self, ring_code, ring_errors, reference_table):
        a3 = reference_table["observables"]["A3"]
        y7 = ring_errors.errors[label_index(ring_errors, "Y7")]
        with pytest.raises(ValueError, match="leaks"):
            eigenvalue_on_error(ring_code, a3, y7)

    def test_sign_flips_with_observable_sign(self, ring_code, ring_errors, reference_table):
        a1 = reference_table["observables"]["A1"]
        neg = Type4Observable(a1.v, a1.v1, a1.v2, sign=-1)
        y2 = ring_errors.errors[label_index(ring_errors, "Y2")]
        assert eigenvalue_on_error(ring_code, neg, y2) == -eigenvalue_on_error(
            ring_code, a1, y2
        )


class TestSyndromePartition:
    def test_empty_observable_list(self, ring_code, ring_errors):
        classes = pauli_syndrome_partition(ring_code, ring_errors, [])
        assert len(classes) == 1
        assert classes[0].members == list(range(30))

    def test_published_layer_with_identity(self, ring_code, ring_errors, reference_table):
        errors = cws.ErrorSet(
            ring_errors.errors + [Pauli.identity(10)], ring_errors.labels + ["I"]
        )
        classes = pauli_syndrome_partition(ring_code, errors, reference_table["pauli"])
        assert len(classes) == 16
        assert classes[0].signs == (1, 1, 1, 1)
        assert [errors.labels[i] for i in classes[0].members] == ["I"]
        by_signs = {c.signs: sorted(errors.labels[i] for i in c.members) for c in classes}
        assert by_signs[(1, 1, 1, -1)] == ["Y2", "Z1"]
        assert by_signs[(-1, -1, -1, -1)] == ["X7", "Y5"]

    def test_matches_published_table_memberships(
        self, ring_code, ring_errors, reference_table
    ):
        classes = pauli_syndrome_partition(
            ring_code, ring_errors, reference_table["pauli"]
        )
        by_signs = {
            "".join("+" if s == 1 else "-" for s in c.signs): sorted(
                ring_errors.labels[i] for i in c.members
            )
            for c in classes
        }
        for cls in reference_table["classes"]:
            assert by_signs[cls["syndrome"]] == sorted(cls["signs"])

    def test_partition_soundness(self, ring_code, ring_errors, reference_table):
        classes = pauli_syndrome_partition(
            ring_code, ring_errors, reference_table["pauli"]
        )
        all_members = [i for c in classes for i in c.members]
        assert sorted(all_members) == list(range(len(ring_errors)))
        keys = [c.signs for c in classes]
        assert len(set(keys)) == len(keys)
        assert keys == sorted(keys, key=lambda s: tuple(0 if b == 1 else 1 for b in s))


class TestErrorNormalizer:
    def test_empty_subset_gives_whole_group(self, toy_code):
        subset = cws.ErrorSet([], [])
        elems = error_normalizer_elements(toy_code, subset)
        assert len(elems) == 16
        assert [gf2.to_int(v) for v in elems] == list(range(16))

    def test_reference_pair_members(self, ring_code, ring_errors):
        sub = subset_by_labels(ring_errors, ["Y2", "Z1"])
        elems = {gf2.to_int(v) for v in error_normalizer_elements(ring_code, sub)}
        assert gf2.to_int(gf2.parse_vector("0000100001")) in elems
        assert gf2.to_int(gf2.parse_vector("0001000011")) in elems

    def test_singleton_x1_is_index_two_subgroup(self, ring_code, ring_errors):
        sub = subset_by_labels(ring_errors, ["X1"])
        elems = error_normalizer_elements(ring_code, sub)
        assert len(elems) == 512
        x1 = sub.errors[0]
        count = 0
        for v_int in range(1024):
            s = stabilizer_element(ring_code.generators, gf2.from_int(v_int, 10))
            if commutes(s, x1):
                count += 1
        assert count == 512
        member_set = {gf2.to_int(v) for v in elems}
        for v_int in (0, 1, 5, 73, 1023):
            s = stabilizer_element(ring_code.generators, gf2.from_int(v_int, 10))
            assert (v_int in member_set) == commutes(s, x1)


class TestSearch:
    def test_splits_first_reference_class(self, ring_code, ring_errors):
        sub = subset_by_labels(ring_errors, ["Y2", "Z1"])
        found = search_type4(ring_code, sub)
        assert found is not None
        signs = [eigenvalue_on_error(ring_code, found, e) for _, e in sub]
        assert sorted(signs) == [-1, 1]
        assert is_decoding_observable(ring_code, sub, found)

    def test_singleton_subset_rejected(self, ring_code, ring_errors):
        with pytest.raises(ValueError, match="two errors"):
            search_type4(ring_code, subset_by_labels(ring_errors, ["Y2"]))

    @pytest.mark.parametrize("mode", ["corollary", "exhaustive"])
    def test_subset_spanning_several_syndromes_rejected(self, ring_code, ring_errors, mode):
        # Y2 and X7 sit in different classes of the published Pauli layer
        sub = subset_by_labels(ring_errors, ["Y2", "Z1", "X7"])
        basis = pauli_normalizer_generators(ring_code)
        assert len(pauli_syndrome_partition(ring_code, sub, basis)) == 2
        with pytest.raises(ValueError, match="'Y2' and 'X7' have different Pauli syndromes"):
            search_type4(ring_code, sub, mode=mode)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(2, 8), st.sampled_from(["corollary", "exhaustive"]),
           st.integers(2, 5), st.integers(0, 2 ** 32 - 1))
    def test_every_subset_spanning_two_classes_rejected(self, n, mode, size, seed):
        # whatever the subset's candidate basis: codes with few codewords leave
        # many candidates, codes with many leave none
        rng = np.random.default_rng(seed)
        code = random_code(rng, n, max_words=int(rng.integers(1, 2 ** n + 1)))
        kernel = np.array(gf2.kernel_basis(code.codewords), dtype=np.uint8).reshape(-1, n)
        errors = [Pauli(rng.integers(0, 2, n), rng.integers(0, 2, n)) for _ in range(size)]
        syndromes = [((kernel @ classicalize(code, e)) & 1).tobytes() for e in errors]
        t = next((t for t, s in enumerate(syndromes) if s != syndromes[0]), None)
        if t is None:  # one class: make the last error leave it, if any error can
            if not len(kernel):
                return
            flip = np.eye(n, dtype=np.uint8)[int(np.argmax(kernel[0]))]  # <flip, K_0> = 1
            errors[-1] = Pauli(errors[-1].x, errors[-1].z ^ flip)
            t = size - 1
        sub = cws.ErrorSet(errors, [f"E{k}" for k in range(size)])
        with pytest.raises(ValueError, match=f"'E0' and 'E{t}' have different Pauli syndromes"):
            search_type4(code, sub, mode=mode)

    def test_absence_when_classical_words_coincide(self):
        # X1 and Z2 share the classical word 01 on the two-vertex edge
        # graph, so no stabilizer-algebra observable can tell them apart
        code = build_code(
            np.array([[0, 1], [1, 0]], dtype=np.uint8), [np.zeros(2, dtype=np.uint8)]
        )
        errors = cws.ErrorSet(
            [Pauli.single(2, 0, "X"), Pauli.single(2, 1, "Z")], ["X1", "Z2"]
        )
        assert np.array_equal(
            classicalize(code, errors.errors[0]), classicalize(code, errors.errors[1])
        )
        assert search_type4(code, errors, mode="corollary") is None
        assert search_type4(code, errors, mode="exhaustive") is None
        # brute-force confirmation over every pair and every solution
        for a_int in range(1, 4):
            for b_int in range(a_int + 1, 4):
                v1, v2 = gf2.from_int(a_int, 2), gf2.from_int(b_int, 2)
                rhs = stabilization_rhs(code, v1, v2)
                shifts = [
                    gf2.matvec(
                        code.codewords, commutation_correction(code, v1, v2, e)
                    )
                    for _, e in errors
                ]
                if not np.array_equal(shifts[0], shifts[1]):
                    continue
                solved = gf2.solve(code.codewords, rhs ^ shifts[0])
                if solved is None:
                    continue
                particular, kernel = solved
                for combo in gf2.enumerate_span(kernel, 2):
                    obs = Type4Observable(particular ^ combo, v1, v2)
                    signs = [eigenvalue_on_error(code, obs, e) for _, e in errors]
                    assert signs[0] == signs[1]

    def test_corollary_candidates_restricted_to_normalizer(self, ring_code, ring_errors):
        sub = subset_by_labels(ring_errors, ["Y2", "Z1"])
        found = search_type4(ring_code, sub, mode="corollary")
        normalizer = {gf2.to_int(v) for v in error_normalizer_elements(ring_code, sub)}
        assert gf2.to_int(found.v1) in normalizer
        assert gf2.to_int(found.v2) in normalizer

    def test_exhaustive_agrees_on_split(self, ring_code, ring_errors):
        sub = subset_by_labels(ring_errors, ["Y2", "Z1"])
        found = search_type4(ring_code, sub, mode="exhaustive")
        assert found is not None
        assert is_decoding_observable(ring_code, sub, found)
        signs = [eigenvalue_on_error(ring_code, found, e) for _, e in sub]
        assert sorted(signs) == [-1, 1]


class TestLemmaIdentity:
    def test_conjugation_matches_dense(self):
        rng = np.random.default_rng(71)
        hits = 0
        while hits < 40:
            n = int(rng.integers(2, 5))
            code = random_code(rng, n, max_words=1)
            ints = rng.choice(np.arange(1, 2 ** n), size=2, replace=False)
            v1, v2 = gf2.from_int(int(ints[0]), n), gf2.from_int(int(ints[1]), n)
            g = Pauli(rng.integers(0, 2, n), rng.integers(0, 2, n))
            corr = commutation_correction(code, v1, v2, g)
            if not corr.any():
                continue
            hits += 1
            gens = code.generators
            four = 0.5 * (
                -np.eye(2 ** n)
                + stabilizer_matrix(gens, v1)
                + stabilizer_matrix(gens, v2)
                + stabilizer_matrix(gens, v1 ^ v2)
            )
            gm = pauli_matrix(g)
            lhs = four @ gm
            rhs = -stabilizer_matrix(gens, corr) @ gm @ four
            assert np.allclose(lhs, rhs, atol=1e-12)
