"""Seeded corpus of greedy distance-3 CWS codes in standard form.

The generator is self-contained: it never imports the program under test,
so the codes it draws for a seed stay the same whatever the program does.
Bit vectors are Python ints read big-endian, position 0 (qubit 1) as the
most significant bit, matching the "0110..." strings of the code format.

A code is a seeded random graph plus classical codewords inserted
greedily, the cheap form of the clique search in Chuang et al., "CWS
codes: algorithm and structure" (arXiv:0803.3232): a word is accepted
when, against every word accepted before it, it avoids the classical
image z + M x of every Pauli error of weight 1 or 2, and it commutes with
every such error whose image is zero.  Every weight-<=2 error is then
detected, so the code has distance 3.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

MAX_ATTEMPTS = 500


@dataclass(frozen=True)
class Spec:
    """What one corpus code must look like.

    ``span_dim`` restricts codewords to a random subspace of that
    dimension (None: the whole space); ``classes`` bounds the number of
    syndrome classes the Pauli layer makes of the weight-one errors.
    """

    n: int
    k: int
    full_rank: bool = False
    span_dim: int | None = None
    classes: tuple[int, int] | None = None


def parity(x: int) -> int:
    return bin(x).count("1") & 1


def rank(rows) -> int:
    """Rank over GF(2) of int-encoded rows."""
    pivots: dict[int, int] = {}
    for r in rows:
        while r:
            top = r.bit_length() - 1
            if top not in pivots:
                pivots[top] = r
                break
            r ^= pivots[top]
    return len(pivots)


def kernel(rows, n: int) -> list[int]:
    """Basis of {v : parity(r & v) == 0 for every row r}."""
    basis = []
    echelon: list[tuple[int, int]] = []  # (pivot bit, reduced row)
    for r in rows:
        for bit, e in echelon:
            if r >> bit & 1:
                r ^= e
        if r:
            bit = r.bit_length() - 1
            echelon = [(b, e ^ r if e >> bit & 1 else e) for b, e in echelon]
            echelon.append((bit, r))
    pivot_bits = {b for b, _ in echelon}
    for free in range(n):
        if free in pivot_bits:
            continue
        v = 1 << free
        for bit, e in echelon:
            if e >> free & 1:
                v |= 1 << bit
        basis.append(v)
    return basis


def weight_one_errors(n: int):
    """(label, x, z) of the 3n single-qubit errors, ordered X1, Y1, Z1, X2, ..."""
    out = []
    for q in range(n):
        bit = 1 << (n - 1 - q)
        out += [(f"X{q + 1}", bit, 0), (f"Y{q + 1}", bit, bit), (f"Z{q + 1}", 0, bit)]
    return out


def classical_image(adj: list[int], x: int, z: int) -> int:
    n = len(adj)
    word = z
    for q in range(n):
        if x >> (n - 1 - q) & 1:
            word ^= adj[q]
    return word


def _images(adj: list[int]):
    """Classical images of all errors of weight <= 2 and the x parts of
    those whose image vanishes."""
    singles = [(x, z, classical_image(adj, x, z)) for _, x, z in weight_one_errors(len(adj))]
    images, degenerate = set(), []
    terms = [(s,) for s in singles] + [
        (a, b) for i, a in enumerate(singles) for b in singles[i + 1:]
        if (a[0] | a[1]) & (b[0] | b[1]) == 0
    ]
    for group in terms:
        x = z = w = 0
        for sx, sz, sw in group:
            x, z, w = x ^ sx, z ^ sz, w ^ sw
        if w:
            images.add(w)
        else:
            degenerate.append(x)
    return images, degenerate


def weight_one_detected(adj: list[int], words: list[int]) -> bool:
    """Independent re-check that the code detects every single-qubit error."""
    table = set(words)
    for _, x, z in weight_one_errors(len(adj)):
        w = classical_image(adj, x, z)
        if w == 0:
            if any(parity(c & x) for c in words):
                return False
        elif any(c ^ w in table for c in words):
            return False
    return True


def syndrome_classes(adj: list[int], words: list[int]) -> int:
    """Number of classes the Pauli layer (kernel of the codeword matrix)
    makes of the weight-one errors."""
    obs = kernel(words, len(adj))
    return len({
        tuple(parity(o & classical_image(adj, x, z)) for o in obs)
        for _, x, z in weight_one_errors(len(adj))
    })


def _draw(spec: Spec, rng: random.Random):
    n = spec.n
    adj = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if rng.getrandbits(1):
                adj[i] |= 1 << (n - 1 - j)
                adj[j] |= 1 << (n - 1 - i)
    images, degenerate = _images(adj)
    if spec.span_dim is None:
        pool = list(range(1, 1 << n))
    else:
        basis: list[int] = []
        while len(basis) < spec.span_dim:
            v = rng.getrandbits(n)
            if rank(basis + [v]) > len(basis):
                basis.append(v)
        pool = [0]
        for b in basis:
            pool += [p ^ b for p in pool]
        pool = pool[1:]
    rng.shuffle(pool)
    words = [0]
    for w in pool:
        if len(words) == spec.k:
            break
        if any(parity(w & x) for x in degenerate):
            continue
        if all(w ^ c not in images for c in words):
            words.append(w)
    return adj, words


def acceptable(spec: Spec, adj: list[int], words: list[int]) -> bool:
    if len(words) != spec.k or not weight_one_detected(adj, words):
        return False
    if spec.full_rank and rank(words) != spec.n:
        return False
    if spec.classes is not None:
        lo, hi = spec.classes
        if not lo <= syndrome_classes(adj, words) <= hi:
            return False
    return True


def generate(spec: Spec, seed: int, tag: str) -> dict:
    """The first acceptable draw for (tag, seed), as code JSON."""
    for attempt in range(MAX_ATTEMPTS):
        rng = random.Random(f"{tag}:{spec.n}:{seed}:{attempt}")
        adj, words = _draw(spec, rng)
        if acceptable(spec, adj, words):
            fmt = lambda v: format(v, f"0{spec.n}b")
            return {
                "name": f"{tag}-n{spec.n}-seed{seed}",
                "n": spec.n,
                "adjacency": [fmt(r) for r in adj],
                "codewords": [fmt(w) for w in words],
            }
    raise RuntimeError(f"no acceptable code for {tag} n={spec.n} seed={seed}")
