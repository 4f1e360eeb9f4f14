import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cwskit import gf2
from dense_oracle import brute_kernel, brute_rank, brute_solutions


def binary_matrix(max_rows=6, max_cols=8):
    return st.integers(1, max_rows).flatmap(
        lambda r: st.integers(1, max_cols).flatmap(
            lambda c: st.lists(
                st.lists(st.integers(0, 1), min_size=c, max_size=c),
                min_size=r,
                max_size=r,
            )
        )
    )


def numpy_rref(m, ncols=None):
    """The earlier numpy elimination, the reference for ``gf2.rref``: the
    same pivot order, each row operation a vectorised XOR of uint8 rows."""
    r_mat = gf2.as_matrix(m).copy()
    rows, cols = r_mat.shape
    pivots = []
    row = 0
    for col in range(cols if ncols is None else ncols):
        if row == rows:
            break
        hits = np.nonzero(r_mat[row:, col])[0]
        if hits.size == 0:
            continue
        pivot = row + int(hits[0])
        if pivot != row:
            r_mat[[row, pivot]] = r_mat[[pivot, row]]
        others = np.nonzero(r_mat[:, col])[0]
        others = others[others != row]
        if others.size:
            r_mat[others] ^= r_mat[row]
        pivots.append(col)
        row += 1
    return r_mat, pivots


class TestRref:
    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2 ** 32 - 1),
        rows=st.integers(0, 24),
        cols=st.sampled_from([0, 1, 7, 8, 9, 16, 25, 63, 64, 65, 130]),
        data=st.data(),
    )
    def test_packed_elimination_matches_numpy_reference(self, seed, rows, cols, data):
        rng = np.random.default_rng(seed)
        m = (rng.random((rows, cols)) < rng.random()).astype(np.int64)
        if rows > 2 and rng.integers(0, 2):
            m[-1] = m[0] ^ m[1]  # a dependent row
        m *= rng.integers(1, 4, size=m.shape)  # entries reduce mod 2
        ncols = data.draw(st.none() | st.integers(0, cols), label="ncols")
        before = m.copy()
        reduced, pivots = gf2.rref(m, ncols)
        expected, expected_pivots = numpy_rref(m, ncols)
        assert pivots == expected_pivots
        assert reduced.dtype == np.uint8 and reduced.shape == (rows, cols)
        assert np.array_equal(reduced, expected)
        assert np.array_equal(m, before)

    def test_identity_is_fixed(self):
        eye = np.eye(3, dtype=np.uint8)
        reduced, pivots = gf2.rref(eye)
        assert np.array_equal(reduced, eye)
        assert pivots == [0, 1, 2]

    def test_zero_matrix(self):
        reduced, pivots = gf2.rref(np.zeros((2, 4), dtype=np.uint8))
        assert not reduced.any()
        assert pivots == []

    def test_ring_codeword_matrix_rank(self, ring_code):
        reduced, pivots = gf2.rref(ring_code.codewords)
        assert len(pivots) == 6
        assert brute_rank(ring_code.codewords.tolist()) == 6

    @given(binary_matrix())
    def test_idempotent_and_rank_matches_oracle(self, rows):
        m = np.array(rows, dtype=np.uint8)
        reduced, pivots = gf2.rref(m)
        again, pivots2 = gf2.rref(reduced)
        assert np.array_equal(reduced, again)
        assert pivots == pivots2
        assert len(pivots) == brute_rank(rows)

    @given(binary_matrix())
    def test_row_space_preserved(self, rows):
        m = np.array(rows, dtype=np.uint8)
        reduced, _ = gf2.rref(m)
        assert brute_rank(rows) == brute_rank(np.vstack([m, reduced]).tolist())


class TestKernelBasis:
    def test_identity_has_trivial_kernel(self):
        assert gf2.kernel_basis(np.eye(4, dtype=np.uint8)) == []

    def test_ring_codeword_matrix(self, ring_code):
        basis = gf2.kernel_basis(ring_code.codewords)
        assert len(basis) == 4
        for v in basis:
            assert not gf2.matvec(ring_code.codewords, v).any()
        published = ["0001110011", "0010011001", "0100111110", "1000000100"]
        for s in published:
            assert gf2.in_rowspace(np.array(basis), gf2.parse_vector(s))

    def test_rank_nullity_and_exhaustive_kernel(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            m = rng.integers(0, 2, size=(4, 6)).astype(np.uint8)
            basis = gf2.kernel_basis(m)
            assert len(basis) == 6 - gf2.rank(m)
            for v in basis:
                assert not gf2.matvec(m, v).any()
            span = {gf2.to_int(v) for v in gf2.enumerate_span(basis, 6)}
            assert span == brute_kernel(m.tolist(), 6)

    def test_deterministic_order(self):
        m = gf2.parse_matrix(["110010", "001100"])
        first = gf2.kernel_basis(m)
        second = gf2.kernel_basis(m)
        assert all(np.array_equal(a, b) for a, b in zip(first, second))


class TestSolve:
    def test_identity_system(self):
        b = gf2.parse_vector("101")
        particular, kernel = gf2.solve(np.eye(3, dtype=np.uint8), b)
        assert np.array_equal(particular, b)
        assert kernel == []

    def test_inconsistent_returns_none(self):
        assert gf2.solve(np.zeros((1, 3), dtype=np.uint8), [1]) is None

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            gf2.solve(np.eye(3, dtype=np.uint8), [1, 0])

    def test_ring_stabilization_system_contains_published_solution(self, ring_code):
        v1 = gf2.parse_vector("0000100001")
        v2 = gf2.parse_vector("0001000011")
        rhs = gf2.matvec(ring_code.codewords, v1) | gf2.matvec(ring_code.codewords, v2)
        solved = gf2.solve(ring_code.codewords, rhs)
        assert solved is not None
        particular, kernel = solved
        published = gf2.parse_vector("0000111001")
        offset = particular ^ published
        assert gf2.in_rowspace(np.array(kernel), offset) or not offset.any()

    @given(binary_matrix(max_rows=5, max_cols=7), st.data())
    def test_planted_solution_is_recovered(self, rows, data):
        m = np.array(rows, dtype=np.uint8)
        x = np.array(
            data.draw(st.lists(st.integers(0, 1), min_size=m.shape[1], max_size=m.shape[1])),
            dtype=np.uint8,
        )
        solved = gf2.solve(m, gf2.matvec(m, x))
        assert solved is not None
        particular, _ = solved
        assert np.array_equal(gf2.matvec(m, particular), gf2.matvec(m, x))

    @settings(max_examples=25)
    @given(binary_matrix(max_rows=4, max_cols=6), st.lists(st.integers(0, 1), min_size=4, max_size=4))
    def test_full_solution_set_matches_enumeration(self, rows, rhs_bits):
        m = np.array(rows, dtype=np.uint8)
        rhs = np.array(rhs_bits[: m.shape[0]], dtype=np.uint8)
        expected = brute_solutions(m.tolist(), rhs.tolist(), m.shape[1])
        solved = gf2.solve(m, rhs)
        if solved is None:
            assert expected == set()
            return
        particular, kernel = solved
        got = {
            gf2.to_int(particular ^ combo)
            for combo in gf2.enumerate_span(kernel, m.shape[1])
        }
        assert got == expected

    def test_solution_set_at_n12(self):
        rng = np.random.default_rng(3)
        m = rng.integers(0, 2, size=(5, 12)).astype(np.uint8)
        x = rng.integers(0, 2, size=12).astype(np.uint8)
        rhs = gf2.matvec(m, x)
        particular, kernel = gf2.solve(m, rhs)
        got = {
            gf2.to_int(particular ^ combo)
            for combo in gf2.enumerate_span(kernel, 12)
        }
        assert got == brute_solutions(m.tolist(), rhs.tolist(), 12)


class TestMinimalSolution:
    def test_reduces_below_free_variable_choice(self):
        # particular [1,0] with kernel {[1,1]}: the coset also contains
        # [0,1], which is smaller as a big-endian integer
        particular, kernel = gf2.solve(gf2.parse_matrix(["11"]), [1])
        assert gf2.to_int(gf2.minimal_solution(particular, kernel)) == min(
            gf2.to_int(particular ^ c) for c in gf2.enumerate_span(kernel, 2)
        )

    @given(binary_matrix(max_rows=4, max_cols=7), st.data())
    def test_is_coset_minimum(self, rows, data):
        m = np.array(rows, dtype=np.uint8)
        x = np.array(
            data.draw(st.lists(st.integers(0, 1), min_size=m.shape[1], max_size=m.shape[1])),
            dtype=np.uint8,
        )
        particular, kernel = gf2.solve(m, gf2.matvec(m, x))
        best = gf2.minimal_solution(particular, kernel)
        everything = [particular ^ c for c in gf2.enumerate_span(kernel, m.shape[1])]
        assert gf2.to_int(best) == min(gf2.to_int(v) for v in everything)


class TestSerialization:
    def test_vector_round_trip(self):
        s = "0001110011"
        assert gf2.format_vector(gf2.parse_vector(s)) == s

    def test_matrix_round_trip(self):
        text = "010\n101"
        rows = gf2.parse_matrix(text)
        assert "\n".join(gf2.format_vector(row) for row in rows) == text

    def test_rejects_non_binary(self):
        with pytest.raises(ValueError):
            gf2.parse_vector("01a")

    def test_int_round_trip_is_big_endian(self):
        assert gf2.to_int(gf2.parse_vector("100")) == 4
        assert gf2.format_vector(gf2.from_int(4, 3)) == "100"

    @pytest.mark.parametrize("n", [0, 1, 8, 63, 64, 100])
    def test_int_round_trip_at_every_width(self, n):
        # n = 0 is the empty vector, which must still give 0
        rng = np.random.default_rng(n)
        values = {0, (1 << n) - 1, (1 << n) >> 1}
        values |= {int.from_bytes(rng.bytes(16), "big") >> (128 - n) for _ in range(5)}
        for value in values:
            vec = gf2.from_int(value, n)
            assert vec.shape == (n,) and vec.dtype == np.uint8
            assert gf2.to_int(vec) == value

    def test_to_int_reduces_entries_mod_two(self):
        assert gf2.to_int(np.array([3, 2, 1])) == 0b101

    def test_determinism_bitwise(self, ring_code):
        a = gf2.rref(ring_code.codewords)
        b = gf2.rref(ring_code.codewords)
        assert np.array_equal(a[0], b[0]) and a[1] == b[1]


class TestEnumerateSpan:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2 ** 32 - 1),
        n=st.sampled_from([1, 3, 8, 9, 63, 64, 65, 130]),
        size=st.integers(0, 6),
    )
    def test_ascending_big_endian_against_brute_force(self, seed, n, size):
        rng = np.random.default_rng(seed)
        basis = [rng.integers(0, 2, n).astype(np.uint8) for _ in range(size)]
        if size > 1 and rng.integers(0, 2):
            basis.append(basis[0] ^ basis[1])  # dependent basis: repeats kept
        brute = []
        for mask in range(2 ** len(basis)):
            v = np.zeros(n, dtype=np.uint8)
            for k, b in enumerate(basis):
                if mask >> k & 1:
                    v ^= b
            brute.append(v)
        span = gf2.enumerate_span(basis, n)
        assert all(v.dtype == np.uint8 and v.shape == (n,) for v in span)
        assert [gf2.to_int(v) for v in span] == [
            gf2.to_int(v) for v in sorted(brute, key=gf2.to_int)
        ]

    def test_rejects_basis_of_other_length(self):
        with pytest.raises(ValueError):
            gf2.enumerate_span([np.ones(4, dtype=np.uint8)], 5)


def numpy_kernel(m):
    """Canonical kernel basis from ``numpy_rref``, built like the earlier
    array code: one vector per free column, free coordinate 1, pivot
    coordinates back-substituted."""
    r_mat, pivots = numpy_rref(m)
    cols = r_mat.shape[1]
    basis = []
    for free in sorted(set(range(cols)) - set(pivots)):
        v = np.zeros(cols, dtype=np.uint8)
        v[free] = 1
        for row, pc in enumerate(pivots):
            v[pc] = r_mat[row, free]
        basis.append(v)
    return basis


def wide_matrix(rng, rows, cols):
    """Random 0/1 matrix, rank-deficient about half the time."""
    m = (rng.random((rows, cols)) < rng.random()).astype(np.uint8)
    if rng.integers(0, 2):
        m[rng.integers(0, rows, rows // 2)] = m[0]
        m[:, rng.integers(0, cols, cols // 3)] = m[:, 1:2]
    return m


def packed(m):
    return [gf2.to_int(row) for row in m]


class TestPackedInts:
    """The packed-int helpers of the plan path against array references,
    past 64 rows and 64 columns, where a single machine word no longer
    holds a row."""

    SIZES = dict(seed=st.integers(0, 2 ** 32 - 1), rows=st.integers(65, 90),
                 cols=st.integers(65, 140))

    @settings(max_examples=25, deadline=None)
    @given(**SIZES)
    def test_kernel_matches_array_reference(self, seed, rows, cols):
        m = wide_matrix(np.random.default_rng(seed), rows, cols)
        kernel = gf2.int_kernel(packed(m), cols)
        assert kernel == packed(numpy_kernel(m))
        assert kernel == packed(gf2.kernel_basis(m))
        assert packed(gf2.unpack_rows(kernel, cols)) == kernel
        assert gf2.pack_rows(m) == packed(m)
        if kernel:
            assert not ((m @ gf2.unpack_rows(kernel, cols).T) & 1).any()

    @settings(max_examples=25, deadline=None)
    @given(**SIZES)
    def test_coset_minimum_matches_array_reference(self, seed, rows, cols):
        rng = np.random.default_rng(seed)
        m = wide_matrix(rng, rows, cols)
        x = rng.integers(0, 2, cols).astype(np.uint8)
        reduced = packed(m)
        pivots = gf2.eliminate(reduced, cols)
        want = gf2.coset_minimum(x, numpy_rref(m))
        assert gf2.int_coset_minimum(gf2.to_int(x), reduced, pivots, cols) == gf2.to_int(want)

    @settings(max_examples=25, deadline=None)
    @given(**SIZES, dim=st.integers(0, 6))
    def test_span_and_image_doubling_match_array_reference(self, seed, rows, cols, dim):
        # rows are the K > 64 codewords of C, and the span lives in n = cols > 64 bits
        rng = np.random.default_rng(seed)
        c_mat = wide_matrix(rng, rows, cols)
        basis = [rng.integers(0, 2, cols).astype(np.uint8) for _ in range(dim)]
        if dim > 1 and rng.integers(0, 2):
            basis.append(basis[0] ^ basis[1])  # dependent basis: repeats kept
        every = []
        for mask in range(2 ** len(basis)):
            v = np.zeros(cols, dtype=np.uint8)
            for k, b in enumerate(basis):
                if mask >> k & 1:
                    v ^= b
            every.append(v)
        every = sorted(every, key=gf2.to_int)
        c_rows = gf2.pack_rows(c_mat)
        tagged = gf2.int_span([(b << rows) | gf2.int_matvec(c_rows, b) for b in packed(basis)])
        assert gf2.int_span(packed(basis)) == packed(every)
        assert packed(gf2.enumerate_span(basis, cols)) == packed(every)
        assert [t >> rows for t in tagged] == packed(every)
        images = (np.array(every).reshape(len(every), cols) @ c_mat.T) & 1
        assert [t & ((1 << rows) - 1) for t in tagged] == packed(images)

    @settings(max_examples=25, deadline=None)
    @given(**SIZES)
    def test_factor_solve_int_matches_array_reference(self, seed, rows, cols):
        # the canonical solution (free variables 0) from the echelon form of [m | b]
        rng = np.random.default_rng(seed)
        m = wide_matrix(rng, rows, cols)
        factor = gf2.Factor(gf2.pack_rows(m), cols)
        solvable = (m @ rng.integers(0, 2, cols)) & 1
        for b in (solvable, rng.integers(0, 2, rows)):
            aug, pivots = numpy_rref(np.concatenate([m, b[:, None]], axis=1))
            got = factor.solve_int(gf2.to_int(b))
            assert (got is None) == (cols in pivots)
            if got is not None:
                want = np.zeros(cols, dtype=np.uint8)
                want[pivots] = aug[: len(pivots), cols]
                assert got == gf2.to_int(want)
