"""The plan path's shortcuts against the per-call versions they replaced.

``plan`` factors each code once: the codeword matrix C and its transpose
are each eliminated once (``gf2.Factor``) and every solve and kernel of
the plan is answered from those factors, ``detects`` looks words up among
packed codewords, the parity tables of the pair scan are built by XOR
doubling, and a reuse check reads the found observable's sign table.
Each shortcut is compared here with the plain computation it stands for,
which is kept in this file as the reference.
"""

import json
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cwskit import cws, gf2
from cwskit.cws import DetectionResult, build_code, classicalize, detects
from cwskit.observables import (
    MODES,
    _parity_table,
    _syndrome_offsets,
    build_decoding_plan,
    eigenvalues,
)
from cwskit.pauli import Pauli
from conftest import CODE_FILE, random_code

FACTORS = ("c_factor", "ct_factor", "kernel", "kernel_echelon", "left_kernel", "codeword_index")


def reference_solve(mat, b):
    """Canonical particular solution of mat x = b (free variables 0) from
    the echelon form of [mat | b], or None when b is not in the span."""
    cols = mat.shape[1]
    aug, pivots = gf2.rref(np.concatenate([mat, b[:, None]], axis=1))
    if cols in pivots:
        return None
    x = np.zeros(cols, dtype=np.uint8)
    for row, pc in enumerate(pivots):
        x[pc] = aug[row, cols]
    return x


def reference_offsets(c_mat, words, labels):
    """One solve of C^T alpha_t = w_t + w_0 per error t; the label of the
    first t without a solution when there is one."""
    rows = []
    for t in range(1, words.shape[0]):
        solved = reference_solve(c_mat.T, words[t] ^ words[0])
        if solved is None:
            return labels[t]
        rows.append(solved)
    return np.array(rows, dtype=np.uint8).reshape(len(rows), c_mat.shape[0])


def reference_parity_table(mat):
    """The byte tables as a 0/1 matrix product of every byte value with
    every 8-column slice of ``mat``, packed like the pair scan packs."""
    rows, cols = mat.shape
    nbytes = -(-cols // 8)
    padded = np.zeros((rows, nbytes * 8), dtype=np.uint8)
    padded[:, :cols] = mat
    byte_bits = ((np.arange(256)[:, None] >> np.arange(8)) & 1).astype(np.uint8)
    per_byte = padded.reshape(rows, nbytes, 8).transpose(2, 1, 0).reshape(8, nbytes * rows)
    parities = (byte_bits @ per_byte) & 1
    parities = parities.reshape(256, nbytes, rows).transpose(1, 0, 2).reshape(nbytes * 256, rows)
    packed = np.zeros((nbytes * 256, 8 * max(1, -(-rows // 64))), dtype=np.uint8)
    packed[:, : -(-rows // 8)] = np.packbits(parities, axis=1, bitorder="little")
    return packed.view("<u8").reshape(nbytes, 256, -1)


def reference_detects(code, e):
    """Detection with an index of the codewords' 0/1 strings per error."""
    word = classicalize(code, e)
    if not word.any():
        overlap = gf2.matvec(code.codewords, e.x)
        if overlap.any():
            i = int(np.nonzero(overlap)[0][0])
            return DetectionResult(
                False, word, True,
                f"degenerate error anticommutes with codeword operator C_{i + 1}",
            )
        return DetectionResult(True, word, True, "degenerate-pass")
    index = {gf2.format_vector(w): i for i, w in enumerate(code.codewords)}
    for i, w in enumerate(code.codewords):
        hit = index.get(gf2.format_vector(w ^ word))
        if hit is not None:
            return DetectionResult(
                False, word, False,
                f"classical collision: C_{i + 1} + {gf2.format_vector(word)}"
                f" equals C_{hit + 1}",
            )
    return DetectionResult(True, word, False, "classically detected")


def same_result(got, want):
    return (got.detected, got.degenerate, got.detail) == (
        want.detected, want.degenerate, want.detail
    ) and np.array_equal(got.word, want.word)


def random_matrix(rng, rows, cols):
    """Random 0/1 matrix, rank-deficient about half the time: some rows
    and columns repeat others."""
    mat = rng.integers(0, 2, (rows, cols)).astype(np.uint8)
    if rng.integers(0, 2):
        mat[rng.integers(0, rows, rows // 2)] = mat[0]
        mat[:, rng.integers(0, cols, cols // 2)] = mat[:, :1]
    return mat


class TestBatchedOffsets:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 9), st.integers(1, 9), st.integers(2, 7), st.integers(0, 2 ** 32 - 1))
    def test_syndrome_offsets_match_one_solve_per_error(self, k, n, count, seed):
        rng = np.random.default_rng(seed)
        c_mat = random_matrix(rng, k, n)
        words = rng.integers(0, 2, (count, n)).astype(np.uint8)
        if rng.integers(0, 2):  # consistent: every w_t + w_0 in the row space of C
            words = words[0] ^ ((rng.integers(0, 2, (count, k)) @ c_mat) & 1).astype(np.uint8)
        labels = [f"E{t}" for t in range(count)]
        code = SimpleNamespace(codewords=c_mat, num_codewords=k, ct_factor=gf2.Factor(c_mat.T))
        want = reference_offsets(c_mat, words, labels)
        if isinstance(want, str):
            with pytest.raises(ValueError, match=f"'E0' and '{want}' have different"):
                _syndrome_offsets(code, SimpleNamespace(labels=labels), words)
        else:
            got = _syndrome_offsets(code, SimpleNamespace(labels=labels), words)
            assert np.array_equal(got, want)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 10), st.integers(1, 10), st.integers(1, 6), st.integers(0, 2 ** 32 - 1))
    def test_solve_columns_matches_one_solve_per_column(self, rows, cols, count, seed):
        rng = np.random.default_rng(seed)
        mat = random_matrix(rng, rows, cols)
        rhs = rng.integers(0, 2, (rows, count)).astype(np.uint8)
        rhs[:, ::2] = (mat @ rng.integers(0, 2, (cols, rhs[:, ::2].shape[1]))) & 1
        x, consistent = gf2.solve_columns(mat, rhs)
        for k in range(count):
            want = reference_solve(mat, rhs[:, k])
            assert consistent[k] == (want is not None)
            assert (gf2.solve(mat, rhs[:, k]) is None) == (want is None)
            if want is not None:
                assert np.array_equal(x[:, k], want)
                assert np.array_equal(gf2.solve(mat, rhs[:, k])[0], want)


class TestFactor:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 10), st.integers(1, 10), st.integers(1, 6), st.integers(0, 2 ** 32 - 1))
    @example(1, 1, 2, 0)
    @example(3, 9, 4, 1)
    @example(9, 3, 4, 2)
    def test_solves_like_reference_one_column_at_a_time(self, rows, cols, count, seed):
        rng = np.random.default_rng(seed)
        base = random_matrix(rng, rows, cols)
        for mat in (base, base.T):  # C and C^T, as a code factors both
            factor = gf2.Factor(mat)
            r_mat, pivots = gf2.rref(mat)
            assert np.array_equal(factor.echelon, r_mat) and factor.pivots == pivots
            assert np.array_equal((factor.ops @ mat) & 1, r_mat)
            rhs = rng.integers(0, 2, (mat.shape[0], count)).astype(np.uint8)
            rhs[:, ::2] = (mat @ rng.integers(0, 2, (mat.shape[1], rhs[:, ::2].shape[1]))) & 1
            for k in range(count):
                want = reference_solve(mat, rhs[:, k])
                x, consistent = factor.solve(rhs[:, k : k + 1])
                assert consistent[0] == (want is not None)
                if want is not None:
                    assert np.array_equal(x[:, 0], want)
            assert np.array_equal(factor.kernel(), gf2.kernel_basis(mat))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 9), st.integers(0, 2 ** 32 - 1))
    def test_code_kernels_match_kernel_basis(self, n, seed):
        code = random_code(np.random.default_rng(seed), n, max_words=min(12, 2 ** n))
        for got, want in (
            (code.kernel, gf2.kernel_basis(code.codewords)),
            (code.left_kernel, gf2.kernel_basis(code.codewords.T)),
        ):
            assert len(got) == len(want) and all(map(np.array_equal, got, want))


class TestEliminationsPerPlan:
    @pytest.mark.parametrize("mode", MODES)
    def test_c_and_its_transpose_once_each(self, mode, monkeypatch):
        code, _ = cws.from_dict(json.loads(CODE_FILE.read_text()))  # no factor built yet
        pivot_blocks = []
        eliminate = gf2.eliminate

        def counted(rows, width, ncols=None):
            cols = width if ncols is None else ncols
            pivot_blocks.append(gf2.unpack_rows([r >> (width - cols) for r in rows], cols))
            return eliminate(rows, width, ncols)

        monkeypatch.setattr(gf2, "eliminate", counted)  # the one elimination core
        plan = build_decoding_plan(code, cws.ErrorSet.weight_one(code.n), mode=mode)
        c_mat = code.codewords
        assert sum(np.array_equal(b, c_mat) for b in pivot_blocks) == 1
        assert sum(np.array_equal(b, c_mat.T) for b in pivot_blocks) == 1
        # The searches' own eliminations pass through the core too, and none
        # of them holds every row of C: the per-class blind space comes from
        # the kept kernel of C, not from eliminating [fixed; C].
        assert plan.type4_observables and len(pivot_blocks) > 3
        c_rows = {r.tobytes() for r in c_mat if r.any()}
        holding_c = [b for b in pivot_blocks if c_rows <= {r.tobytes() for r in b}]
        assert len(holding_c) == 1 and np.array_equal(holding_c[0], c_mat)


def splits(signs) -> bool:
    return set(signs.tolist()) == {1, -1}


def assert_reuse_rule(code, errors, plan):
    """Each step's observable, recomputed from ``eigenvalues`` per group
    with no sign table: it gives the step's signs, no observable found
    before it splits the group, and it is fresh only as the next one found."""
    words = cws.classical_words(code, errors)
    found = 0  # observables found before the step
    for steps in plan.refinements:
        for step in steps:
            group = step.applies_to
            signs = eigenvalues(code, words[group], plan.type4_observables[step.observable])
            assert dict(zip(group, signs.tolist())) == step.signs and splits(signs)
            earlier = plan.type4_observables[: step.observable]
            assert not any(splits(eigenvalues(code, words[group], a)) for a in earlier)
            assert step.observable <= found
            found += step.observable == found
    assert found == len(plan.type4_observables)


def distinct_word_errors(rng, code, count):
    """Up to ``count`` random detectable Paulis with distinct nonzero
    classical words, so that four-term observables can split their classes."""
    out, seen = [], set()
    for _ in range(20 * count):
        e = Pauli(rng.integers(0, 2, code.n), rng.integers(0, 2, code.n))
        word = classicalize(code, e)
        if word.any() and word.tobytes() not in seen and detects(code, e):
            seen.add(word.tobytes())
            out.append(e)
            if len(out) == count:
                break
    return cws.ErrorSet(out, [f"E{k}" for k in range(len(out))])


class TestReuseRule:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(7, 9), st.sampled_from(MODES), st.integers(0, 2 ** 32 - 1))
    def test_random_codes(self, n, mode, seed):
        rng = np.random.default_rng(seed)
        code = random_code(rng, n, max_words=8)
        errors = distinct_word_errors(rng, code, 32)
        assert_reuse_rule(code, errors, build_decoding_plan(code, errors, mode=mode))

    @pytest.mark.parametrize("mode", MODES)
    def test_ring_code(self, mode, ring_code, ring_errors):
        plan = build_decoding_plan(ring_code, ring_errors, mode=mode)
        assert sum(map(len, plan.refinements)) > len(plan.type4_observables)  # some reuse
        assert_reuse_rule(ring_code, ring_errors, plan)


class TestParityTable:
    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 140), st.integers(1, 40), st.integers(0, 2 ** 32 - 1))
    def test_matches_matmul_reference(self, rows, cols, seed):
        mat = np.random.default_rng(seed).integers(0, 2, (rows, cols)).astype(np.uint8)
        got, want = _parity_table(mat), reference_parity_table(mat)
        assert got.shape == want.shape
        assert np.array_equal(got, want)


def random_errors(rng, code, count):
    """Random Paulis, a third of them stabilizer elements up to phase
    (classical word 0), which ``detects`` treats as degenerate."""
    n = code.n
    out = []
    for _ in range(count):
        x = rng.integers(0, 2, n).astype(np.uint8)
        z = rng.integers(0, 2, n).astype(np.uint8)
        if rng.integers(0, 3) == 0:
            z = (code.adjacency @ x) & 1
        out.append(Pauli(x, z, int(rng.integers(0, 4))))
    return out


class TestDetects:
    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 7), st.integers(0, 2 ** 32 - 1))
    def test_matches_string_index_reference(self, n, seed):
        rng = np.random.default_rng(seed)
        code = random_code(rng, n, max_words=min(12, 2 ** n))
        errors = random_errors(rng, code, 12) + list(cws.ErrorSet.weight_one(n).errors)
        for e in errors:
            assert same_result(detects(code, e), reference_detects(code, e))

    def test_words_past_63_qubits(self):
        # Each clean word differs from a codeword difference only at positions
        # 0-5 or 64-69, which a 64-bit key drops, or folds onto 5 or 61.
        n = 70

        def word(*qubits):
            w = np.zeros(n, dtype=np.uint8)
            w[list(qubits)] = 1
            return w

        def z_error(*qubits):
            return Pauli(np.zeros(n, dtype=np.uint8), word(*qubits))

        code = build_code(np.zeros((n, n), dtype=np.uint8), [word(), word(0, 35), word(69, 34)])
        one = detects(code, z_error(0, 35))
        assert not one and one.detail.startswith("classical collision: C_1 + ")
        assert one.detail.endswith(" equals C_2")
        assert detects(code, z_error(69, 34)).detail.endswith(" equals C_3")
        for clean in (z_error(35), z_error(34), z_error(5, 34), z_error(61, 34), z_error(69)):
            result = detects(code, clean)
            assert result and result.detail == "classically detected"
        for e in list(cws.ErrorSet.weight_one(n).errors) + [z_error(0, 69), z_error(5, 34)]:
            assert same_result(detects(code, e), reference_detects(code, e))


class TestFactorsOnTheCode:
    def test_built_lazily_by_the_plan_path(self):
        code, _ = cws.from_dict(json.loads(CODE_FILE.read_text()))
        assert not set(FACTORS) & set(vars(code))
        plan = build_decoding_plan(code, cws.ErrorSet.weight_one(code.n))
        assert set(FACTORS) <= set(vars(code))
        assert [gf2.format_vector(o) for o in plan.pauli_observables] == [
            gf2.format_vector(v) for v in gf2.kernel_basis(code.codewords)
        ]

    def test_factors_match_direct_computation(self, ring_code):
        code = ring_code
        direct = gf2.kernel_basis(code.codewords)
        assert all(map(np.array_equal, code.kernel, direct)) and len(code.kernel) == len(direct)
        left = gf2.kernel_basis(code.codewords.T)
        assert all(map(np.array_equal, code.left_kernel, left)) and len(code.left_kernel) == len(left)
        r_mat, pivots = gf2.rref(np.array(direct))
        rows, kernel_pivots = code.kernel_echelon  # packed rows
        assert np.array_equal(gf2.unpack_rows(rows, code.n), r_mat) and kernel_pivots == pivots
        assert not code.kernel[0].flags.writeable
