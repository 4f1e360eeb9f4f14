"""Host-speed reference: a fixed pass of work timed between operations.

The benchmark runs on a few cores of a shared host whose speed moves by
up to 2x, in bursts of seconds and in periods of minutes, with whatever
else runs beside it.  Every timing is therefore taken against this fixed
pass, timed before and after each operation, and reported scaled to a
host on which one pass takes ``REF_S`` seconds:

    scaled = wall * REF_S / (mean of the passes before and after)

The pass does what cwskit spends its time on, in two halves: Python-level
integer, tuple and dict work with numpy calls on small uint8 arrays (the
Pauli algebra, GF(2) solves and the command line), and numpy loops over
blocks of a few hundred thousand uint8 entries (the pair scan and the
dense oracle).  It never imports cwskit, so a change to the program moves
the scaled time by the same share as the wall time.
"""

from __future__ import annotations

import time

import numpy as np

# About the median wall seconds of one pass on the benchmark's two-core
# development host (Python 3.11, numpy 2.4); the unit of every scaled time.
REF_S = 0.02

_WORDS = tuple((i * 40503 + 12345) & 0xFFFF for i in range(96))
_ROWS = np.array([[(w >> b) & 1 for b in range(16)] for w in _WORDS[:24]], dtype=np.uint8)
_rng = np.random.default_rng(0)
_IPC = _rng.integers(0, 2, size=(1023, 11), dtype=np.uint8)
_ACL = _rng.integers(0, 2, size=(1023, 30), dtype=np.uint8)
_LEFT = _rng.integers(0, 2, size=(3, 11), dtype=np.uint8)


def _interpreted() -> int:
    acc = 0
    seen: dict[int, tuple[int, int]] = {}
    for a in _WORDS:
        for b in _WORDS[:24]:
            x = a ^ b
            acc += bin(x).count("1") & 1
            seen[x & 1023] = (a, b)
    m = _ROWS.copy()
    for r in range(m.shape[0]):
        row = m[r]
        mask = (m @ row).astype(np.uint8) & 1
        acc += int(np.sum(mask))
        m = m ^ (np.outer(mask, row).astype(np.uint8) & 1)
    return acc + len(seen)


def _vectorised() -> int:
    acc = 0
    for i in range(0, _IPC.shape[0], 120):
        tail = slice(i + 1, None)
        d = (_ACL[i][None, :, None] & _IPC[tail][:, None, :]) ^ (
            _ACL[tail][:, :, None] & _IPC[i][None, None, :]
        )
        same = (d == d[:, :1, :]).all(axis=(1, 2))
        rhs = (_IPC[i] | _IPC[tail]) ^ d[:, 0, :]
        acc += int((same & ((rhs @ _LEFT.T) % 2 == 0).all(axis=1)).sum())
    return acc


def pass_seconds() -> float:
    """Wall seconds of one reference pass."""
    start = time.perf_counter()
    for _ in range(4):
        _interpreted()
    _vectorised()
    return time.perf_counter() - start
