import json

import numpy as np
import pytest

from cwskit import cws, gf2, verify
from cwskit.observables import (
    DecodingPlan,
    UndetectableError,
    build_decoding_plan,
    eigenvalue_on_error,
    is_decoding_observable,
)
from cwskit.pauli import Pauli
from conftest import random_code


@pytest.fixture(scope="module")
def ring_plan(ring_code):
    return build_decoding_plan(ring_code, cws.ErrorSet.weight_one(10))


class TestRingPlan:
    def test_complete_with_single_step_classes(self, ring_plan):
        assert ring_plan.complete
        assert len(ring_plan.classes) == 15
        assert all(len(steps) == 1 for steps in ring_plan.refinements)

    def test_every_observable_is_usable_and_splitting(self, ring_code, ring_plan):
        errors = cws.ErrorSet.weight_one(10)
        for steps in ring_plan.refinements:
            for step in steps:
                obs = ring_plan.type4_observables[step.observable]
                sub = errors.subset(step.applies_to)
                assert is_decoding_observable(ring_code, sub, obs)
                signs = {i: eigenvalue_on_error(ring_code, obs, errors.errors[i]) for i in step.applies_to}
                assert signs == step.signs
                assert len(set(signs.values())) > 1

    def test_observables_are_reused(self, ring_plan):
        counts = ring_plan.observable_class_counts()
        assert max(counts) >= 2

    def test_no_leakage_through_oracle(self, ring_code, ring_plan):
        errors = cws.ErrorSet.weight_one(10)
        states = verify.codeword_states(ring_code)
        for steps in ring_plan.refinements:
            for step in steps:
                element = verify.type4_element(
                    ring_code, ring_plan.type4_observables[step.observable]
                )
                for i in step.applies_to:
                    for s in states:
                        lam = verify.eigencheck(element, verify.apply(errors.errors[i], s))
                        assert lam == step.signs[i]

    def test_members_distinguished_within_each_class(self, ring_plan):
        for cls, steps in zip(ring_plan.classes, ring_plan.refinements):
            vectors = {}
            for i in cls.members:
                vectors[i] = tuple(
                    step.signs.get(i) for step in steps if i in step.signs
                )
            values = list(vectors.values())
            assert len(set(values)) == len(values)


class TestPlanEdgeCases:
    def test_identity_only_error_set(self, ring_code):
        errors = cws.ErrorSet([Pauli.identity(10)], ["I"])
        plan = build_decoding_plan(ring_code, errors)
        assert plan.complete
        assert plan.type4_observables == []
        assert all(not steps for steps in plan.refinements)

    def test_undetectable_error_rejected(self, toy_code):
        errors = cws.ErrorSet([Pauli.from_string("IZZI")], ["IZZI"])
        with pytest.raises(UndetectableError, match="IZZI"):
            build_decoding_plan(toy_code, errors)

    def test_unresolved_class_reported(self):
        # two detectable errors with the same classical word cannot be
        # split by anything in the stabilizer algebra
        code = cws.build_code(
            np.array([[0, 1], [1, 0]], dtype=np.uint8), [np.zeros(2, dtype=np.uint8)]
        )
        errors = cws.ErrorSet(
            [Pauli.single(2, 0, "X"), Pauli.single(2, 1, "Z")], ["X1", "Z2"]
        )
        plan = build_decoding_plan(code, errors)
        assert not plan.complete
        assert len(plan.unresolved) == 1
        assert plan.unresolved[0].members == [0, 1]
        # the shared word leaves a single nonzero normalizer element, so
        # the corollary search space is empty
        assert plan.unresolved[0].pairs_searched == 0
        data = plan.to_dict()
        assert data["resolved"] is False
        assert data["unresolved"][0]["members"] == ["X1", "Z2"]
        exhaustive = build_decoding_plan(code, errors, mode="exhaustive")
        assert not exhaustive.complete
        assert exhaustive.unresolved[0].pairs_searched == 3

    def test_partial_split_recurses_then_reports_residue(self):
        # a three-member class is split 2+1 by the first observable; the
        # remaining pair goes back through the queue, its search space is
        # exhausted, and the residue is reported against the class
        code = cws.build_code(
            gf2.parse_matrix(["0011", "0010", "1101", "1010"]),
            [gf2.parse_vector(w) for w in ("0000", "1011", "0101", "1001", "0100")],
        )
        zeros = np.zeros(4, dtype=np.uint8)
        errors = cws.ErrorSet(
            [
                Pauli(x=zeros, z=gf2.parse_vector("0110")),
                Pauli(x=zeros, z=gf2.parse_vector("1000")),
                Pauli(x=zeros, z=gf2.parse_vector("0000")),
            ],
            ["Ea", "Eb", "Ec"],
        )
        plan = build_decoding_plan(code, errors, mode="exhaustive")
        assert len(plan.classes) == 1
        steps = plan.refinements[0]
        assert len(steps) == 1
        assert steps[0].signs == {0: -1, 1: -1, 2: 1}
        assert not plan.complete
        assert len(plan.unresolved) == 1
        assert plan.unresolved[0].members == [0, 1]
        assert plan.unresolved[0].pairs_searched == 105


class TestPlanSerialization:
    def test_round_trip(self, ring_plan):
        data = ring_plan.to_dict()
        rebuilt = DecodingPlan.from_dict(json.loads(json.dumps(data)))
        assert rebuilt.to_dict() == data

    def test_embeds_code_fingerprint(self, ring_code, ring_plan):
        assert ring_plan.code_sha256 == cws.code_fingerprint(ring_code)

    def test_table_mentions_each_class(self, ring_plan):
        table = ring_plan.to_table()
        for cls in ring_plan.classes:
            pattern = "".join("+" if s == 1 else "-" for s in cls.signs)
            assert f"[{pattern}]" in table

    def test_serialization_deterministic(self, ring_code):
        errors = cws.ErrorSet.weight_one(10)
        a = build_decoding_plan(ring_code, errors)
        b = build_decoding_plan(ring_code, errors)
        assert json.dumps(a.to_dict(), sort_keys=True) == json.dumps(
            b.to_dict(), sort_keys=True
        )
