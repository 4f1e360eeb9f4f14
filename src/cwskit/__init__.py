"""Codeword stabilized (CWS) quantum codes in standard form.

Models a CWS code from its graph adjacency and classical codewords,
derives the stabilizer generators, maps Pauli errors to classical words,
finds Pauli decoding observables, searches for four-term non-Pauli
decoding observables, and verifies every result against an exact dense
state-vector oracle at small qubit counts.  The package holds its six
submodules, each loaded on first access; ``import cwskit`` loads none.
"""

import importlib

__version__ = "0.1.0"
__all__ = ["cli", "cws", "gf2", "observables", "pauli", "verify"]


def __getattr__(name):
    # ``python -m cwskit.cli`` must not find cli already imported by the
    # package, numpy loads with the dense oracle of ``verify``, and loading
    # a code through ``cws`` does not load the plan engine
    if name in __all__:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
