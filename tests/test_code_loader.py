"""The code loader (``cws.from_dict``, ``cws.build_code``) against a numpy
reference kept in this file.

For every definition, valid or not, the loader must either raise the
reference's error, with the same type and text, or give the reference's
0/1 arrays, the same packed rows and the same fingerprint.  Invalid
definitions are valid ones with one or two faults put in, so that the
order in which the checks run is pinned too.
"""

import hashlib
import json
import reprlib

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from cwskit import cws
from cwskit.cws import InvalidCodeError


def reference_parse(s) -> np.ndarray:
    if not isinstance(s, str) or not s or any(c not in "01" for c in s):
        raise ValueError(f"not a binary string: {reprlib.repr(s)}")
    return np.frombuffer(s.encode("ascii"), dtype=np.uint8) - ord("0")


def reference_build(adjacency, codewords) -> tuple[np.ndarray, np.ndarray]:
    """The adjacency matrix and the K x n codeword matrix of a definition,
    checked one invariant at a time on numpy arrays."""
    m = np.asarray(adjacency)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {m.shape}")
    m = m.astype(np.uint8) & 1
    if m.shape[0] != m.shape[1]:
        raise InvalidCodeError(f"adjacency matrix must be square, got {m.shape}")
    n = m.shape[0]
    if not np.array_equal(m, m.T):
        raise InvalidCodeError("adjacency matrix must be symmetric")
    if np.any(np.diag(m)):
        raise InvalidCodeError("adjacency matrix must have zero diagonal")
    words = []
    for w in codewords:
        arr = np.asarray(w)
        if arr.ndim != 1:
            raise ValueError(f"expected a 1-D vector, got shape {arr.shape}")
        words.append(arr.astype(np.uint8) & 1)
    if not words:
        raise InvalidCodeError("at least one codeword required")
    for w in words:
        if w.shape[0] != n:
            raise InvalidCodeError(f"codeword length {w.shape[0]} does not match n={n}")
    if np.any(words[0]):
        raise InvalidCodeError("first codeword must be the all-zero word")
    seen = set()
    for w in words:
        key = "".join(str(int(b)) for b in w)
        if key in seen:
            raise InvalidCodeError(f"duplicate codeword {key}")
        seen.add(key)
    return m, np.array(words, dtype=np.uint8)


def reference_from_dict(d) -> tuple[np.ndarray, np.ndarray]:
    try:
        cws.json_value(d, dict, "")
        n = cws.json_field(d, "n", int)
        rows, words = (cws.json_field(d, key, list) for key in ("adjacency", "codewords"))
    except ValueError as exc:
        raise InvalidCodeError(str(exc)) from None
    parsed = [reference_parse(r) for r in rows]
    if not parsed:
        raise ValueError("matrix needs at least one row")
    if len({len(r) for r in parsed}) != 1:
        raise ValueError("rows have unequal lengths")
    if len(parsed) != n:
        raise InvalidCodeError(f"adjacency has {len(parsed)} rows but n={n}")
    return reference_build(np.array(parsed, dtype=np.uint8), [reference_parse(w) for w in words])


def packed(mat: np.ndarray) -> list[int]:
    return [int("".join(str(int(b)) for b in row) or "0", 2) for row in mat]


def fingerprint(adjacency: np.ndarray, codewords: np.ndarray) -> str:
    text = lambda mat: ["".join(str(int(b)) for b in row) for row in mat]  # noqa: E731
    canonical = json.dumps(
        {"n": adjacency.shape[0], "adjacency": text(adjacency), "codewords": text(codewords)},
        sort_keys=True, separators=(",", ":"),
    )
    return hashlib.sha256(canonical.encode("ascii")).hexdigest()


def assert_loads_like_reference(load, reference, *args):
    try:
        want = reference(*args)
    except ValueError as exc:
        want = exc
    try:
        got = load(*args)
    except ValueError as exc:
        assert isinstance(want, ValueError), f"loader raised {exc!r}, reference loaded"
        assert (type(exc), str(exc)) == (type(want), str(want))
        return
    assert not isinstance(want, ValueError), f"loader loaded, reference raised {want!r}"
    code = got[0] if isinstance(got, tuple) else got
    adjacency, codewords = want
    assert code.n == adjacency.shape[0] and code.num_codewords == codewords.shape[0]
    for arr, ref in ((code.adjacency, adjacency), (code.codewords, codewords)):
        assert arr.dtype == np.uint8 and arr.shape == ref.shape and np.array_equal(arr, ref)
        assert not arr.flags.writeable
    assert list(code.adjacency_rows) == packed(adjacency)
    assert list(code.codeword_rows) == packed(codewords)
    assert cws.code_fingerprint(code) == fingerprint(adjacency, codewords)
    for i, g in enumerate(code.generators):
        assert np.array_equal(g.x, np.eye(code.n, dtype=np.uint8)[i])
        assert np.array_equal(g.z, adjacency[i]) and g.phase_exp == 0


@st.composite
def valid_dicts(draw):
    n = draw(st.integers(1, 8))
    adjacency = np.zeros((n, n), dtype=np.uint8)
    for i in range(n):
        for j in range(i + 1, n):
            adjacency[i, j] = adjacency[j, i] = draw(st.integers(0, 1))
    values = draw(st.lists(st.integers(1, 2 ** n - 1), unique=True, max_size=min(6, 2 ** n - 1)))
    return {
        "n": n,
        "adjacency": ["".join(map(str, row)) for row in adjacency],
        "codewords": [format(v, f"0{n}b") for v in [0, *values]],
    }


def _set_char(s: str, k: int, c: str) -> str:
    return s[:k] + c + s[k + 1:] if k < len(s) else s


def _flip(s: str, k: int) -> str:
    return _set_char(s, k, "1" if s[k:k + 1] == "0" else "0")


# Each fault takes a definition and a Hypothesis draw and returns a changed copy.
FAULTS = {
    "extra column": lambda d, draw: {**d, "adjacency": [r + "0" for r in d["adjacency"]]},
    "missing column": lambda d, draw: {**d, "adjacency": [r[:-1] for r in d["adjacency"]]},
    "extra row": lambda d, draw: {**d, "adjacency": d["adjacency"] + ["0" * d["n"]]},
    "n off by one": lambda d, draw: {**d, "n": d["n"] + draw(st.sampled_from([-1, 1]))},
    "one short row": lambda d, draw: {
        **d, "adjacency": [r[:-1] if k == 0 else r for k, r in enumerate(d["adjacency"])]
    },
    "asymmetric": lambda d, draw: _asymmetric(d, draw),
    "nonzero diagonal": lambda d, draw: _diagonal(d, draw),
    "duplicate codeword": lambda d, draw: {
        **d, "codewords": d["codewords"] + [draw(st.sampled_from(d["codewords"] or [""]))]
    },
    "long codeword": lambda d, draw: {**d, "codewords": d["codewords"] + ["1" * (d["n"] + 1)]},
    "short codeword": lambda d, draw: {**d, "codewords": d["codewords"] + ["1" * (d["n"] - 1)]},
    "nonzero first codeword": lambda d, draw: {
        **d, "codewords": [_flip(w, draw(st.integers(0, d["n"] - 1))) for w in d["codewords"][:1]]
        + d["codewords"][1:]
    },
    "no codewords": lambda d, draw: {**d, "codewords": []},
    "no rows": lambda d, draw: {**d, "adjacency": []},
    "non-binary row": lambda d, draw: _non_binary(d, "adjacency", draw),
    "non-binary codeword": lambda d, draw: _non_binary(d, "codewords", draw),
    "n not an integer": lambda d, draw: {**d, "n": draw(st.sampled_from([True, "3", 2.0, None]))},
    "rows not a list": lambda d, draw: {**d, "adjacency": "\n".join(d["adjacency"])},
    "missing codewords": lambda d, draw: {k: v for k, v in d.items() if k != "codewords"},
}


def _asymmetric(d, draw):
    n = min(d["n"], len(d["adjacency"]))
    if n < 2:
        return d
    i, j = draw(st.sampled_from([(i, j) for i in range(n) for j in range(n) if i != j]))
    return {**d, "adjacency": [_flip(r, j) if k == i else r for k, r in enumerate(d["adjacency"])]}


def _diagonal(d, draw):
    if not d["adjacency"]:
        return d
    i = draw(st.integers(0, len(d["adjacency"]) - 1))
    return {**d, "adjacency": [_set_char(r, i, "1") if k == i else r for k, r in enumerate(d["adjacency"])]}


def _non_binary(d, key, draw):
    rows = list(d[key])
    if not rows:
        return d
    k = draw(st.integers(0, len(rows) - 1))
    bad = draw(st.sampled_from(["2", " ", "a", "_", "١", "01", ""]))
    if not rows[k] or draw(st.booleans()):
        rows[k] = draw(st.sampled_from(["", 5, None, ["0", "1"], "0b1", " 01", "1_0"]))
    else:
        rows[k] = _set_char(rows[k], draw(st.integers(0, len(rows[k]) - 1)), bad)
    return {**d, key: rows}


@st.composite
def definitions(draw):
    d = draw(valid_dicts())
    for name in draw(st.lists(st.sampled_from(sorted(FAULTS)), max_size=2)):
        if _open_to_faults(d):
            d = FAULTS[name](d, draw)
    return d


def _open_to_faults(d) -> bool:
    """Whether a further fault can be put in: n is a positive integer and
    the rows and codewords are lists of strings."""
    n, rows, words = d.get("n"), d.get("adjacency"), d.get("codewords")
    return (
        type(n) is int and n >= 1 and isinstance(rows, list) and isinstance(words, list)
        and all(isinstance(s, str) for s in rows + words)
    )


class TestFromDict:
    @settings(max_examples=400, deadline=None)
    @given(definitions())
    def test_matches_numpy_reference(self, d):
        assert_loads_like_reference(cws.from_dict, reference_from_dict, d)

    @settings(max_examples=100, deadline=None)
    @given(valid_dicts())
    def test_valid_definitions_load(self, d):
        code, errors = cws.from_dict(d)
        assert errors is None and cws.to_dict(code) == d


def _as_arrays(d):
    adjacency = np.array([[int(c) for c in r] for r in d["adjacency"]], dtype=np.uint8)
    words = [np.array([int(c) for c in w], dtype=np.uint8) for w in d["codewords"]]
    return adjacency, words


@st.composite
def array_definitions(draw):
    adjacency, words = _as_arrays(draw(valid_dicts()))
    n = adjacency.shape[0]
    fault = draw(st.sampled_from([
        None, "extra column", "asymmetric", "diagonal", "entries past 1", "duplicate",
        "short codeword", "nonzero first", "no codewords", "1-D matrix", "2-D codeword",
        "lists",
    ]))
    if fault == "extra column":
        adjacency = np.concatenate([adjacency, np.zeros((n, 1), dtype=np.uint8)], axis=1)
    elif fault == "asymmetric" and n > 1:
        adjacency = adjacency.copy()
        adjacency[0, n - 1] ^= 1
    elif fault == "diagonal":
        adjacency = adjacency.copy()
        adjacency[n - 1, n - 1] = 1
    elif fault == "entries past 1":  # reduced mod 2, as the reference does
        adjacency = adjacency + 2 * draw(st.integers(0, 1))
        words = [w + 2 for w in words]
    elif fault == "duplicate":
        words = words + [words[-1]]
    elif fault == "short codeword":
        words = words + [words[-1][1:]]
    elif fault == "nonzero first":
        words = [np.ones(n, dtype=np.uint8)] + words[1:]
    elif fault == "no codewords":
        words = []
    elif fault == "1-D matrix":
        adjacency = adjacency[0]
    elif fault == "2-D codeword":
        words = words + [np.zeros((1, n), dtype=np.uint8)]
    elif fault == "lists":
        adjacency, words = adjacency.tolist(), [w.tolist() for w in words]
    return adjacency, words


class TestBuildCode:
    @settings(max_examples=300, deadline=None)
    @given(array_definitions())
    def test_matches_numpy_reference(self, definition):
        assert_loads_like_reference(cws.build_code, reference_build, *definition)
