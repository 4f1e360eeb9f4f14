"""Pairs a four-term search visited, derived from outside the search.

``search_type4`` walks candidate pairs (v1, v2), v1 before v2, in
ascending order of the candidate list: row i = 0, 1, ... and, inside a
row, j = i+1, i+2, ....  The candidates are every nonzero exponent in
exhaustive mode and the nonzero elements of the subset's error
normalizer in corollary mode, both ascending as big-endian integers.  A
returned pair at (i, j) therefore cost ``pair_rank(i, j, m)`` pairs; a
``None`` verdict cost the whole space, m (m - 1) / 2.
"""

from __future__ import annotations

import corpus


def bits(v) -> int:
    """Big-endian integer of a 0/1 sequence (position 0 most significant)."""
    out = 0
    for b in v:
        out = (out << 1) | int(b)
    return out


def normalizer_candidates(adjacency, errors) -> list[int]:
    """Nonzero V with <z + M x, V> = 0 for every error (x, z), ascending."""
    adj = [bits(row) for row in adjacency]
    rows = [corpus.classical_image(adj, bits(e.x), bits(e.z)) for e in errors]
    span = [0]
    for b in corpus.kernel(rows, len(adj)):
        span += [s ^ b for s in span]
    return sorted(span)[1:]


def pair_rank(i: int, j: int, m: int) -> int:
    """1-based position of pair (i, j), i < j < m, in the scan order."""
    return i * m - i * (i + 1) // 2 + (j - i)


def pairs_visited(code, subset, mode: str, result) -> int:
    """Pairs a search over ``subset`` visited before returning ``result``."""
    if mode == "exhaustive":
        m = (1 << code.n) - 1
        index = lambda v: v - 1  # noqa: E731 - candidates are 1 .. 2^n - 1
    else:
        cands = normalizer_candidates(code.adjacency, subset.errors)
        m = len(cands)
        index = {c: k for k, c in enumerate(cands)}.__getitem__
    if result is None:
        return m * (m - 1) // 2
    return pair_rank(index(bits(result.v1)), index(bits(result.v2)), m)
