"""Codeword stabilized (CWS) quantum codes in standard form.

Models a CWS code from its graph adjacency and classical codewords,
derives the stabilizer generators, maps Pauli errors to classical words,
finds Pauli decoding observables, searches for four-term non-Pauli
decoding observables, and verifies every result against an exact dense
state-vector oracle at small qubit counts.
"""

import importlib

from . import cws, gf2, observables, pauli
from .cws import CwsCode, ErrorSet, InvalidCodeError, build_code, detects
from .observables import (
    DecodingPlan,
    Type4Observable,
    UndetectableError,
    build_decoding_plan,
    search_type4,
)
from .pauli import Pauli

__version__ = "0.1.0"

__all__ = [
    "CwsCode",
    "DecodingPlan",
    "ErrorSet",
    "InvalidCodeError",
    "Pauli",
    "Type4Observable",
    "UndetectableError",
    "build_code",
    "build_decoding_plan",
    "cli",
    "cws",
    "detects",
    "gf2",
    "observables",
    "pauli",
    "search_type4",
    "verify",
]


def __getattr__(name):
    # ``cli`` and ``verify`` load on first access: ``python -m cwskit.cli``
    # does not find cli already imported by the package, and numpy loads
    # with the dense oracle of ``verify``, not with the package
    if name in ("cli", "verify"):
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
