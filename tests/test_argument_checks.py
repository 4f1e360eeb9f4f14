"""Every argument check of the library raises its exact message.

No other test, demo or command reaches these checks: each guards a
library call made with arguments that do not fit together, such as a
vector of the wrong length, an unknown search mode or operators on
different qubit counts.
"""

import numpy as np
import pytest

from cwskit import gf2, verify
from cwskit.cws import ErrorSet
from cwskit.observables import (
    Type4Observable,
    commutation_correction,
    eigenvalues,
    pauli_syndrome_partition,
    search_space_size,
    search_type4,
)
from cwskit.pauli import Pauli, commutes, stabilizer_element

X1, X2 = Pauli.from_string("X"), Pauli.from_string("XX")
SHORT = Type4Observable._of(3, 0, 1, 2)  # an observable on 3 qubits, not the code's 10
PAIR = ErrorSet.weight_one(10).subset([0, 1])

CHECKS = {
    "search_type4_mode": (
        lambda code: search_type4(code, PAIR, mode="fast"), ValueError, "unknown mode 'fast'"),
    "search_space_size_mode": (
        lambda code: search_space_size(code, PAIR, "fast"), ValueError, "unknown mode 'fast'"),
    "stabilizer_element_exponent_length": (
        lambda code: stabilizer_element(code.generators, [1, 0]),
        ValueError, "10 generators but exponent length 2"),
    "stabilizer_element_no_generators": (
        lambda code: stabilizer_element([], []), ValueError, "need at least one generator"),
    "stabilizer_element_mixed_n": (
        lambda code: stabilizer_element([X1, X2], [1, 1]),
        ValueError, "generators act on different qubit counts"),
    "apply_dimension": (
        lambda code: verify.apply(X2, np.zeros(2)),
        ValueError, "state has dimension 2, operator needs 4"),
    "apply_type": (
        lambda code: verify.apply("X", np.zeros(2)), TypeError, "cannot apply object of type str"),
    "type4_element_length": (
        lambda code: verify.type4_element(code, SHORT),
        ValueError, "observable length 3 does not match code n=10"),
    "eigenvalues_length": (
        lambda code: eigenvalues(code, [0], SHORT),
        ValueError, "observable length 3 does not match code n=10"),
    "commutes_size": (lambda code: commutes(X1, X2), ValueError, "size mismatch: 1 vs 2"),
    "commutation_correction_n": (
        lambda code: commutation_correction(code, gf2.from_int(1, 10), gf2.from_int(2, 10), X2),
        ValueError, "operator acts on 2 qubits, code has 10"),
    "pauli_syndrome_partition_length": (
        lambda code: pauli_syndrome_partition(code, PAIR, [np.zeros(3, dtype=np.uint8)]),
        ValueError, "observable length 3 does not match code n=10"),
    "from_int_range": (lambda code: gf2.from_int(8, 3), ValueError, "8 does not fit in 3 bits"),
    "dot_length": (lambda code: gf2.dot([1, 0], [1]), ValueError, "length mismatch: 2 vs 1"),
    "matvec_width": (
        lambda code: gf2.matvec([[1, 0]], [1]), ValueError, "matrix has 2 columns, vector has 1"),
    "in_rowspace_width": (lambda code: gf2.in_rowspace([[1, 0]], [1]), ValueError, "width mismatch"),
    "error_set_labels": (
        lambda code: ErrorSet([X1], []), ValueError, "errors and labels differ in length"),
    "error_set_sizes": (
        lambda code: ErrorSet([X1, X2], ["a", "b"]),
        ValueError, "errors act on different qubit counts"),
    "pauli_part_lengths": (
        lambda code: Pauli([1, 0], [1]), ValueError, "x and z parts must have equal length"),
    "pauli_unknown_attribute": (
        lambda code: X1.w, AttributeError, "'Pauli' object has no attribute 'w'"),
    "type4_unknown_attribute": (
        lambda code: SHORT.w, AttributeError, "'Type4Observable' object has no attribute 'w'"),
}


@pytest.mark.parametrize("name", list(CHECKS))
def test_argument_check_raises_its_message(name, ring_code):
    call, kind, message = CHECKS[name]
    with pytest.raises(kind) as info:
        call(ring_code)
    assert str(info.value) == message
