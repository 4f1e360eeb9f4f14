"""The package's record classes: each one built as the library and the tests
build it, by position and by keyword, with every field read back.

These pin the constructors' field order, their defaults and the few
behaviours a record adds to its fields (truth value, validation, cached
state), whatever the classes are built from.
"""

import pytest

from cwskit import cli, cws, verify
from cwskit.observables import (
    DecodingPlan,
    RefinementStep,
    SyndromeClass,
    Type4Observable,
    UnresolvedSubset,
)
from cwskit.pauli import Pauli

OBS = Type4Observable._of(3, 1, 2, 4)
XI, IZ = Pauli.from_string("XI"), Pauli.from_string("IZ")


RECORDS = {
    "CwsCode": (cws.CwsCode, ["n", "adjacency_rows", "codeword_rows"], [2, (1, 2), (0, 3)]),
    "DetectionResult": (
        cws.DetectionResult, ["detected", "word", "degenerate", "detail"],
        [True, 5, False, "classically detected"]),
    "ErrorSet": (cws.ErrorSet, ["errors", "labels"], [[XI, IZ], ["a", "b"]]),
    "SyndromeClass": (SyndromeClass, ["signs", "members"], [(1, -1), [0, 2]]),
    "RefinementStep": (
        RefinementStep, ["observable", "applies_to", "signs"], [0, [1, 2], {1: 1, 2: -1}]),
    "UnresolvedSubset": (
        UnresolvedSubset, ["class_index", "members", "pairs_searched"], [3, [4, 5], 99]),
    "DecodingPlan": (
        DecodingPlan,
        ["n", "mode", "code_sha256", "error_labels", "error_paulis", "pauli_observables",
         "classes", "type4_observables", "refinements", "unresolved"],
        [3, "corollary", "ab" * 32, ["a"], ["XII"], [5], [SyndromeClass((1,), [0])], [OBS],
         [[RefinementStep(0, [0], {0: 1})]], [UnresolvedSubset(0, [0], 7)]]),
    "Claim": (cli.Claim, ["owner", "name", "observable", "signs"], ["A", "A1", OBS, {0: 1}]),
    "Claims": (
        cli.Claims, ["errors", "layer", "classes", "observables", "entries", "faults"],
        [cws.ErrorSet([XI], ["a"]), [1], [("+", [0])], [], {"A1": OBS}, ("fault",)]),
}


@pytest.mark.parametrize("name", list(RECORDS))
def test_record_fields_by_position_and_keyword(name):
    cls, names, values = RECORDS[name]
    for record in (cls(*values), cls(**dict(zip(names, values)))):
        assert [getattr(record, field) for field in names] == values


def test_group_algebra_element_fields(ring_code):
    terms = {0: -0.5, 3: 0.5}
    for element in (verify.GroupAlgebraElement(ring_code, terms),
                    verify.GroupAlgebraElement(code=ring_code, terms=terms)):
        assert element.code is ring_code and element.terms is terms


def test_defaults():
    plans = [DecodingPlan(*RECORDS["DecodingPlan"][2][:9]) for _ in range(2)]
    assert plans[0].unresolved == [] and plans[0].complete
    assert plans[0].unresolved is not plans[1].unresolved
    claims = cli.Claims(cws.ErrorSet([], []), None, [], [])
    assert claims.entries is None and claims.faults == ()


def test_detection_result_truth_is_detected():
    assert not cws.DetectionResult(False, 3, False, "classical collision")
    assert not cws.DetectionResult(False, 0, True, "degenerate")
    assert cws.DetectionResult(True, 0, True, "degenerate-pass")


@pytest.mark.parametrize("errors, labels, message", [
    ([XI], [], "errors and labels differ in length"),
    ([XI, IZ, XI], ["a", "b", "a"], "labels must be unique, 'a' appears more than once"),
    ([XI, Pauli.from_string("X")], ["a", "b"], "errors act on different qubit counts"),
])
def test_error_set_messages(errors, labels, message):
    with pytest.raises(ValueError) as info:
        cws.ErrorSet(errors, labels)
    assert str(info.value) == message


def test_error_set_subset_carries_its_words(ring_code):
    errors = cws.ErrorSet.weight_one(10)
    words = [cws.classical_word(ring_code, e) for e in errors.errors]
    assert errors._words is None and errors.subset([0])._words is None
    carrier = errors._with_words(ring_code, words)
    sub = carrier.subset([5, 2])
    assert sub.labels == ["Z2", "Z1"]
    assert sub._words == (ring_code, [words[5], words[2]])
    assert cws.classical_words(ring_code, sub) == [words[5], words[2]]


def test_group_algebra_element_expands_once(ring_code):
    element = verify.type4_element(ring_code, Type4Observable._of(10, 0, 1, 2))
    first = element.expanded()
    assert len(first) == 4
    assert element.expanded() is first
