"""In-memory spans around the public functions of each cwskit module.

The program is not instrumented: ``Tracer.installed`` rebinds each traced
function, at every module-level name that refers to it (``cli`` imports
``detects`` from ``cws``, ``verify`` imports ``stabilizer_element`` from
``pauli``, and so on), to a wrapper that records a span.  A span is
(name, start, end, parent); spans live in flat arrays and are only
aggregated after the traced round, so while the program runs a call
costs the record plus, for a few functions, a counter update.

Layer times are self times: a span's duration minus the time covered by
its child spans, added to the span's layer.  The layers therefore
partition the traced time and a layer's figure does not include work it
delegates to another layer.
"""

from __future__ import annotations

import threading
import time
from array import array
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

# (module, attribute, layer).  The layer of ``observables.is_decoding_observable``
# and ``verify.apply`` depends on the caller; see ``Tracer.layers``.
SPANS = [
    ("cli", "main", "cli"),
    ("cws", "from_dict", "cws.load"),
    ("cws", "code_fingerprint", "cws.fingerprint"),
    ("cws", "detects", "cws.detects"),
    ("pauli", "stabilizer_element", "pauli.stabilizer_element"),
    ("gf2", "rref", "gf2"),
    ("gf2", "rank", "gf2"),
    ("gf2", "kernel_basis", "gf2"),
    ("gf2", "solve", "gf2"),
    ("gf2", "minimal_solution", "gf2"),
    ("gf2", "enumerate_span", "gf2"),
    ("gf2", "in_rowspace", "gf2"),
    ("observables", "pauli_normalizer_generators", "observables.partition"),
    ("observables", "pauli_syndrome_partition", "observables.partition"),
    ("observables", "build_decoding_plan", "observables.plan"),
    ("observables", "is_decoding_observable", "observables.check"),
    ("observables", "search_type4", "observables.search"),
    ("observables", "error_normalizer_elements", "observables.search"),
    ("observables", "search_space_size", "observables.search"),
    ("observables", "eigenvalue_on_error", "observables.sign"),
    ("observables", "commutation_correction", "observables.sign"),
    ("observables", "DecodingPlan.to_dict", "observables.serialize"),
    ("observables", "DecodingPlan.to_table", "observables.serialize"),
    ("observables", "DecodingPlan.from_dict", "observables.serialize"),
    ("verify", "graph_state", "verify.state_prep"),
    ("verify", "codeword_states", "verify.state_prep"),
    ("verify", "type4_element", "verify.eigencheck"),
    ("verify", "eigencheck", "verify.eigencheck"),
    ("verify", "apply", "verify.eigencheck"),
]

# Called too often for a span each (about 50k times per ring round); only counted.
COUNTS = [("pauli", "commutes")]

MODULES = ("cli", "cws", "gf2", "observables", "pauli", "verify")


@dataclass
class Search:
    """One ``search_type4`` call, kept for the pair-rank derivation."""

    code: object
    subset: object
    mode: str
    result: object


class Tracer:
    """Spans, call counts and search records of one traced round."""

    def __init__(self):
        self.names: list[str] = []
        self.layer_of: list[str] = []
        self.name_id: array = array("i")
        self.parent: array = array("i")
        self.start: array = array("d")
        self.end: array = array("d")
        self.calls: dict[str, int] = {}
        self.bytes_computed = 0
        self.searches: list[Search] = []
        self.plans: list = []
        self._stack = threading.local()
        self._lock = threading.Lock()

    def _register(self, name: str, layer: str) -> int:
        self.names.append(name)
        self.layer_of.append(layer)
        return len(self.names) - 1

    def _wrap(self, fn, name: str, layer: str, on_return=None):
        nid = self._register(name, layer)
        tracer = self

        def wrapper(*args, **kwargs):
            stack = getattr(tracer._stack, "items", None)
            if stack is None:
                stack = tracer._stack.items = []
            with tracer._lock:
                idx = len(tracer.start)
                tracer.name_id.append(nid)
                tracer.parent.append(stack[-1] if stack else -1)
                tracer.end.append(0.0)
                tracer.start.append(time.perf_counter())
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end[idx] = time.perf_counter()
                stack.pop()
            if on_return is not None:
                on_return(args, kwargs, result)
            return result

        return wrapper

    def _counter(self, fn, name: str):
        self.calls[name] = 0
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _hooks(self, pkg):
        pauli_cls = pkg.pauli.Pauli

        def on_search(args, kwargs, result):
            mode = kwargs.get("mode", args[2] if len(args) > 2 else "corollary")
            self.searches.append(Search(args[0], args[1], mode, result))

        def on_apply(args, kwargs, result):
            self.bytes_computed += apply_bytes(args[0], result, pauli_cls)

        def on_eigencheck(args, kwargs, result):
            self.bytes_computed += EIGENCHECK_PASSES * np.asarray(args[1]).nbytes

        return {
            "observables.search_type4": on_search,
            "observables.build_decoding_plan": lambda a, k, plan: self.plans.append(plan),
            "verify.apply": on_apply,
            "verify.eigencheck": on_eigencheck,
        }

    @contextmanager
    def installed(self, pkg):
        """Rebind every traced function in ``pkg`` for the duration."""
        modules = [getattr(pkg, m) for m in MODULES] + [pkg]
        hooks = self._hooks(pkg)
        undo = []
        try:
            for mod_name, attr, layer in SPANS:
                name = f"{mod_name}.{attr.split('.')[-1]}"
                self._patch(modules, getattr(pkg, mod_name), attr,
                            lambda fn: self._wrap(fn, name, layer, hooks.get(name)), undo)
            for mod_name, attr in COUNTS:
                name = f"{mod_name}.{attr}"
                self._patch(modules, getattr(pkg, mod_name), attr,
                            lambda fn: self._counter(fn, name), undo)
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

    @staticmethod
    def _patch(modules, home, attr, make, undo):
        if "." in attr:  # a method: DecodingPlan.to_dict
            cls_name, meth = attr.split(".")
            cls = getattr(home, cls_name)
            raw = cls.__dict__[meth]
            if isinstance(raw, classmethod):
                replacement = classmethod(make(raw.__func__))
            else:
                replacement = make(raw)
            undo.append((cls, meth, raw))
            setattr(cls, meth, replacement)
            return
        original = getattr(home, attr)
        wrapped = make(original)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    undo.append((mod, key, original))
                    setattr(mod, key, wrapped)

    def layers(self) -> tuple[dict[str, float], dict[str, int], int]:
        """Self time per layer, span count per name, and reuse checks.

        ``is_decoding_observable`` under ``build_decoding_plan`` is a reuse
        check (layer observables.reuse); elsewhere it is the algebraic
        check of ``verify`` (observables.check).  ``verify.apply`` under
        state preparation belongs to it; elsewhere it corrupts or probes
        states for an eigencheck.
        """
        count = len(self.start)
        start = np.frombuffer(self.start, dtype=np.float64, count=count)
        end = np.frombuffer(self.end, dtype=np.float64, count=count)
        parent = np.frombuffer(self.parent, dtype=np.int32, count=count)
        name_id = np.frombuffer(self.name_id, dtype=np.int32, count=count)
        dur = end - start
        covered = np.zeros(count)
        has_parent = parent >= 0
        np.add.at(covered, parent[has_parent], dur[has_parent])
        self_time = dur - covered

        plan_id = self.names.index("observables.build_decoding_plan")
        check_id = self.names.index("observables.is_decoding_observable")
        apply_id = self.names.index("verify.apply")
        span_layer = [""] * count
        times: dict[str, float] = {}
        reuse_checks = 0
        names, layer_of = self.names, self.layer_of
        for i in range(count):
            nid = int(name_id[i])
            p = int(parent[i])
            layer = layer_of[nid]
            if nid == check_id and p >= 0 and name_id[p] == plan_id:
                layer = "observables.reuse"
                reuse_checks += 1
            elif nid == apply_id and p >= 0 and span_layer[p] == "verify.state_prep":
                layer = "verify.state_prep"
            span_layer[i] = layer
            times[layer] = times.get(layer, 0.0) + float(self_time[i])
        spans = dict.fromkeys(names, 0)
        for nid, n in zip(*np.unique(name_id, return_counts=True)):
            spans[names[int(nid)]] += int(n)
        return times, spans, reuse_checks


# State vectors read plus written, per call: a Pauli application gathers the
# input and writes the result (2); an algebra element fills its output once
# and, per term, scales the term's image and adds it in (1 + 5 per term,
# the terms' own Pauli applications counted separately); an eigencheck forms
# image - state and image + state and takes both norms (8).
PAULI_APPLY_PASSES = 2
EIGENCHECK_PASSES = 8


def apply_bytes(op, result, pauli_cls) -> int:
    nbytes = np.asarray(result).nbytes
    if isinstance(op, pauli_cls):
        return PAULI_APPLY_PASSES * nbytes
    return (1 + 5 * len(op.terms)) * nbytes
