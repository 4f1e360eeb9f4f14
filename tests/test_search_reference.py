"""The packed pair-scan kernel of ``search_type4`` against a brute-force
first-hit search built only from the public definitions.

The reference walks candidate pairs (v1, v2) in the documented order
(ascending big-endian, v1 before v2) and, for each pair, every v in
ascending order that makes error 0 usable; it returns the first
observable that ``is_decoding_observable`` accepts and on which
``eigenvalue_on_error`` takes both signs.  The kernel must return the
same observable, or None exactly when the reference finds nothing.  On
codes whose codewords span less than n, the nonzero combinations of the
basis it scans must also be exactly the smallest candidate of each
nonzero key (C v, f(v)) whose f(v) part is zero, in ascending order,
found by brute force: in both modes only exponents that commute alike
with every error of the subset can take part in a hit.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from cwskit import cws, gf2, observables
from cwskit.cws import build_code, classicalize
from cwskit.observables import (
    Type4Observable,
    commutation_correction,
    eigenvalue_on_error,
    is_decoding_observable,
    pauli_normalizer_generators,
    pauli_syndrome_partition,
    search_type4,
    stabilization_rhs,
)
from cwskit.pauli import Pauli

MODES = st.sampled_from(["corollary", "exhaustive"])


def reference_first_hit(code, subset, mode):
    n = code.n
    every = ((np.arange(2 ** n)[:, None] >> np.arange(n - 1, -1, -1)) & 1).astype(np.uint8)
    words = np.array([classicalize(code, e) for e in subset.errors])
    if mode == "corollary":
        candidates = list(every[1:][~((every[1:] @ words.T) & 1).any(axis=1)])
    else:
        candidates = list(every[1:])
    # every v with C v = target, ascending
    solutions: dict[bytes, list[np.ndarray]] = {}
    for v, image in zip(every, (every @ code.codewords.T) & 1):
        solutions.setdefault(image.tobytes(), []).append(v)
    first_error = subset.errors[0]
    for a, v1 in enumerate(candidates):
        for v2 in candidates[a + 1:]:
            # error 0 is usable exactly when v plus its correction solves
            # the stabilization system
            shift = gf2.matvec(
                code.codewords, commutation_correction(code, v1, v2, first_error)
            )
            target = stabilization_rhs(code, v1, v2) ^ shift
            for v in solutions.get(target.tobytes(), []):
                obs = Type4Observable(v, v1, v2)
                if not is_decoding_observable(code, subset, obs):
                    continue
                signs = {eigenvalue_on_error(code, obs, e) for e in subset.errors}
                if len(signs) > 1:
                    return obs
    return None


def random_graph_code(rng, n, count):
    adjacency = np.triu(rng.integers(0, 2, size=(n, n)), 1).astype(np.uint8)
    adjacency |= adjacency.T
    values = rng.choice(np.arange(1, 2 ** n), size=count - 1, replace=False)
    words = [np.zeros(n, dtype=np.uint8)] + [gf2.from_int(int(x), n) for x in values]
    return build_code(adjacency, words)


def single_class_subset(rng, code, size, word_dim):
    """``size`` errors whose classical words differ from a random word by
    elements of a random subspace of dimension ``word_dim`` of the row
    space of C, so all share one Pauli syndrome; a small subspace leaves a
    large normalizer for corollary mode.  Several errors may share a word."""
    n = code.n
    combos = rng.integers(0, 2, size=(word_dim, code.num_codewords))
    spanning = (combos @ code.codewords) & 1
    offset = rng.integers(0, 2, n)
    errors = []
    for _ in range(size):
        word = offset ^ (rng.integers(0, 2, word_dim) @ spanning) & 1
        x = rng.integers(0, 2, n).astype(np.uint8)
        errors.append(Pauli(x, word ^ gf2.matvec(code.adjacency, x)))
    return cws.ErrorSet(errors, [f"e{k}" for k in range(size)])


@settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2 ** 32 - 1), mode=MODES)
def test_kernel_matches_reference_on_small_codes(seed, mode):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 6))
    code = random_graph_code(rng, n, int(rng.integers(3, min(2 ** n, 10) + 1)))
    subset = single_class_subset(rng, code, int(rng.integers(2, 5)), int(rng.integers(1, 3)))
    assert search_type4(code, subset, mode=mode) == reference_first_hit(code, subset, mode)


def wide_code(rng):
    """An n = 8 code with more than 64 codewords that still leaves pairs of
    errors to split: a 6-dimensional subspace V and a few words from each of
    two cosets V + u1 and V + u2, so C has rank 8.  The codeword differences
    miss most of V + u1 + u2.  At n <= 7, or with 65 words of a rank-7 row
    space, every element of the row space is a codeword difference."""
    basis = rng.integers(0, 2, size=(8, 8)).astype(np.uint8)
    while gf2.rank(basis) < 8:
        basis = rng.integers(0, 2, size=(8, 8)).astype(np.uint8)
    space = [(gf2.from_int(x, 6) @ basis[:6]) & 1 for x in range(64)]
    extra = int(rng.integers(1, 4))
    words = space + [space[x] ^ u for u in basis[6:] for x in rng.choice(64, extra, replace=False)]
    adjacency = np.triu(rng.integers(0, 2, size=(8, 8)), 1).astype(np.uint8)
    return build_code(adjacency | adjacency.T, words)


SPLITTING_WIDE_SEED = 0  # draws a ``wide_code`` class that splits in exhaustive mode


def test_kernel_matches_reference_past_one_word():
    """More than 64 errors, or more than 64 codewords, so that packed
    offsets or images C v span several machine words: n = 7 codes, whose
    classes cannot split, and n = 8 codes from ``wide_code``, some of whose
    classes split."""
    outcomes = []

    @settings(max_examples=12, deadline=None, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(0, 2 ** 32 - 1), mode=MODES)
    @example(seed=SPLITTING_WIDE_SEED, mode="exhaustive")
    def check(seed, mode):
        rng = np.random.default_rng(seed)
        case = rng.integers(0, 4)
        if case == 0:
            code = random_graph_code(rng, 6, int(rng.integers(5, 11)))
            subset = single_class_subset(rng, code, int(rng.integers(65, 80)), 1)
        elif case == 1:
            code = random_graph_code(rng, 7, int(rng.integers(65, 100)))
            subset = single_class_subset(rng, code, int(rng.integers(2, 6)), 2)
        else:
            code = wide_code(rng)
            subset = separable_subset(rng, code, int(rng.integers(2, 4)), every_word=True)
        found = search_type4(code, subset, mode=mode)
        assert found == reference_first_hit(code, subset, mode)
        outcomes.append(found is not None)

    check()
    assert any(outcomes)


@settings(max_examples=200, deadline=None)
@given(width=st.integers(1, 90), data=st.data())
def test_echelon_combinations_ascend(width, data):
    """The scan's order: after ``gf2.eliminate`` and reversing, combination t
    of a basis (bit k of t picks row k) is the t-th smallest of its span."""
    rows = data.draw(st.lists(st.integers(0, 2 ** width - 1), max_size=7))
    basis = list(rows)
    basis = basis[: len(gf2.eliminate(basis, width))][::-1]
    combos = []
    for t in range(2 ** len(basis)):
        v = 0
        for k, b in enumerate(basis):
            if t >> k & 1:
                v ^= b
        combos.append(v)
    assert combos == sorted(set(gf2.int_span(rows)))


def test_kernel_matches_reference_on_ring_classes(ring_code, ring_errors):
    classes = pauli_syndrome_partition(
        ring_code, ring_errors, pauli_normalizer_generators(ring_code)
    )
    for cls in classes:
        subset = ring_errors.subset(cls.members)
        found = search_type4(ring_code, subset, mode="corollary")
        assert found is not None
        assert found == reference_first_hit(ring_code, subset, "corollary")


def subspace_code(rng, n, dim, count):
    """A graph code with ``count`` codewords (0 first) in a random subspace of
    dimension ``dim`` < n, so C has a kernel and the scan's blind space, the
    kernel of [fixed; C], is nonzero in both modes."""
    basis = rng.integers(0, 2, size=(dim, n)).astype(np.uint8)
    while gf2.rank(basis) < dim:
        basis = rng.integers(0, 2, size=(dim, n)).astype(np.uint8)
    adjacency = np.triu(rng.integers(0, 2, size=(n, n)), 1).astype(np.uint8)
    adjacency |= adjacency.T
    values = rng.choice(np.arange(1, 2 ** dim), size=count - 1, replace=False)
    words = [np.zeros(n, dtype=np.uint8)] + [(gf2.from_int(int(x), dim) @ basis) & 1 for x in values]
    return build_code(adjacency, words)


def separable_subset(rng, code, size, every_word=False):
    """Up to ``size`` errors of one Pauli syndrome class whose classical words
    differ by no difference of two codewords, so that no two of them map
    codeword states into one corrupted space and a four-term observable may
    tell them apart.  Errors keep to one class when their words differ by
    elements of the row space of C; ``every_word`` says that the row space
    is the whole space, for codes with too many codewords to span."""
    n = code.n
    differences = {(a ^ b).tobytes() for a in code.codewords for b in code.codewords}
    offsets = [np.zeros(n, dtype=np.uint8)]
    if every_word:
        space = [gf2.from_int(x, n) for x in range(2 ** n)]
    else:
        space = gf2.enumerate_span(list(code.codewords), n)
    for r in rng.permutation(np.array(space)):
        if len(offsets) < size and all((r ^ o).tobytes() not in differences for o in offsets):
            offsets.append(r)
    base = rng.integers(0, 2, n).astype(np.uint8)
    errors = []
    for r in offsets:
        x = rng.integers(0, 2, n).astype(np.uint8)
        errors.append(Pauli(x, base ^ r ^ gf2.matvec(code.adjacency, x)))
    return cws.ErrorSet(errors, [f"e{k}" for k in range(len(errors))])


def coset_minima(code, subset, mode):
    """By brute force over every candidate v: the number of candidates, and
    the smallest candidate of each nonzero key (C v, f(v)) whose f(v) part
    is zero, ascending, where f(v)[t] = <w_t + w_0, v> for the subset's
    classical words w_t."""
    n = code.n
    every = ((np.arange(1, 2 ** n)[:, None] >> np.arange(n - 1, -1, -1)) & 1).astype(np.uint8)
    words = np.array([classicalize(code, e) for e in subset.errors])
    if mode == "corollary":
        every = every[~((every @ words.T) & 1).any(axis=1)]
    K = code.num_codewords
    keys = np.concatenate([every @ code.codewords.T, every @ (words[1:] ^ words[0]).T], axis=1) & 1
    first = {}
    for v, key in zip(every, keys):
        if key.any() and not key[K:].any():
            first.setdefault(key.tobytes(), v)
    return len(every), sorted(first.values(), key=gf2.to_int)


def test_quotient_scan_matches_reference_on_rank_deficient_codes():
    """With codewords spanning less than n, the scan gets the smallest
    candidate of each nonzero coset of its blind space and nothing else,
    and still returns the reference's first hit."""
    outcomes = []

    @settings(max_examples=60, deadline=None, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(0, 2 ** 32 - 1), mode=MODES)
    def check(seed, mode):
        rng = np.random.default_rng(seed)
        chance = not rng.integers(0, 4)  # a class left to chance, mostly unsplittable
        n = 5 if chance else int(rng.integers(6, 8))
        subset = []
        while len(subset) < 2:
            # n - 1 codewords in dimension n - 2: ker C has dimension 2, so
            # ker [words; C] is nonzero, and the codeword differences leave
            # room for separable words
            code = subspace_code(rng, n, n - 2, n - 1)
            if chance:
                subset = single_class_subset(rng, code, int(rng.integers(2, 4)), 2)
            else:
                subset = separable_subset(rng, code, int(rng.integers(2, 4)))
        with mock.patch.object(observables, "_pair_search", wraps=observables._pair_search) as scan:
            found = search_type4(code, subset, mode=mode)
        assert found == reference_first_hit(code, subset, mode)
        size, minima = coset_minima(code, subset, mode)
        assert len(minima) < size  # the blind space is nonzero
        if scan.called:  # the scan's basis, whose combinations are the minima in order
            basis = scan.call_args.args[3]
            combos = [observables._combine(basis, t) for t in range(1, 2 ** len(basis))]
            assert combos == [gf2.to_int(v) for v in minima]
        else:
            assert len(minima) < 2
        outcomes.append(found is not None)

    check()
    assert len(outcomes) >= 60 and sum(outcomes) >= 25, (sum(outcomes), len(outcomes))


# A full-rank n=6 code that detects all 18 single-qubit errors.
FULL_RANK_ADJACENCY = ["001000", "000111", "100001", "010011", "010101", "011110"]
FULL_RANK_CODEWORDS = [0, 62, 28, 42, 37, 47, 44]


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_class_with_full_rank_word_differences_has_no_candidates(n):
    """When the word differences w_t + w_0 of a class have rank n, no
    exponent but 0 commutes alike with every error of it, so the whole
    group holds no usable pair that splits the class: exhaustive mode
    answers None without a scan, and still reports the unreduced space."""
    if n == 6:
        code = build_code([[int(b) for b in row] for row in FULL_RANK_ADJACENCY],
                          [gf2.from_int(w, n) for w in FULL_RANK_CODEWORDS])
    else:  # codewords 0, e_1, ..., e_n: full rank, detection not needed here
        rng = np.random.default_rng(n)
        adjacency = np.triu(rng.integers(0, 2, size=(n, n)), 1).astype(np.uint8)
        code = build_code(adjacency | adjacency.T,
                          [np.zeros(n, dtype=np.uint8)] + list(np.eye(n, dtype=np.uint8)))
    subset = cws.ErrorSet.weight_one(n)
    words = np.array([classicalize(code, e) for e in subset.errors])
    assert gf2.rank(code.codewords) == n and gf2.rank(words[1:] ^ words[0]) == n
    size = (2 ** n - 1) * (2 ** n - 2) // 2
    with mock.patch.object(observables, "_pair_search", wraps=observables._pair_search) as scan:
        assert search_type4(code, subset, mode="exhaustive") is None
        assert observables.search_space_size(code, subset, "exhaustive") == size
        if n == 6:
            plan = observables.build_decoding_plan(code, subset, mode="exhaustive")
            assert [(u.class_index, u.members, u.pairs_searched) for u in plan.unresolved] == [
                (0, list(range(3 * n)), size)
            ]
    assert not scan.called
    if n <= 5:
        assert reference_first_hit(code, subset, "exhaustive") is None
