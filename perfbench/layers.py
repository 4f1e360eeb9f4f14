"""Per-layer metrics of one traced round (every operation of the round).

Times are layer self times in seconds (see spans.py); counts are calls
or search events and must repeat exactly for the same code and seed.
"""

from __future__ import annotations

from pairs import pairs_visited

UNITS = {
    "cws.load_s": "s",
    "cws.fingerprint_s": "s",
    "cws.detects_s": "s",
    "cws.detects_calls": "count",
    "pauli.stabilizer_element_s": "s",
    "pauli.stabilizer_element_calls": "count",
    "pauli.commutes_calls": "count",
    "gf2.self_s": "s",
    "gf2.solve_calls": "count",
    "gf2.kernel_basis_calls": "count",
    "observables.partition_s": "s",
    "observables.reuse_s": "s",
    "observables.reuse_checks": "count",
    "observables.reuse_hits": "count",
    "observables.reuse_hit_ratio": "ratio",
    "observables.search_s": "s",
    "observables.searches": "count",
    "observables.search_unresolved": "count",
    "observables.pairs_visited": "count",
    "observables.pairs_per_s": "1/s",
    "observables.sign_s": "s",
    "observables.sign_calls": "count",
    "observables.check_s": "s",
    "observables.serialize_s": "s",
    "verify.state_prep_s": "s",
    "verify.eigencheck_s": "s",
    "verify.eigenchecks": "count",
    "verify.apply_calls": "count",
    "verify.bytes_computed": "bytes-computed",
    "cli.self_s": "s",
}

COUNT_METRICS = {name for name, unit in UNITS.items() if unit in ("count", "bytes-computed")} | {
    "observables.reuse_hit_ratio"
}

TIME_LAYERS = {
    "cws.load_s": "cws.load",
    "cws.fingerprint_s": "cws.fingerprint",
    "cws.detects_s": "cws.detects",
    "pauli.stabilizer_element_s": "pauli.stabilizer_element",
    "gf2.self_s": "gf2",
    "observables.partition_s": "observables.partition",
    "observables.reuse_s": "observables.reuse",
    "observables.search_s": "observables.search",
    "observables.sign_s": "observables.sign",
    "observables.check_s": "observables.check",
    "observables.serialize_s": "observables.serialize",
    "verify.state_prep_s": "verify.state_prep",
    "verify.eigencheck_s": "verify.eigencheck",
    "cli.self_s": "cli",
}


def metrics(tracer) -> dict[str, float]:
    times, spans, reuse_checks = tracer.layers()
    out = {name: times.get(layer, 0.0) for name, layer in TIME_LAYERS.items()}
    pairs = sum(pairs_visited(s.code, s.subset, s.mode, s.result) for s in tracer.searches)
    reuse_hits = sum(
        sum(len(steps) for steps in plan.refinements) - len(plan.type4_observables)
        for plan in tracer.plans
    )
    out.update({
        "cws.detects_calls": spans["cws.detects"],
        "pauli.stabilizer_element_calls": spans["pauli.stabilizer_element"],
        "pauli.commutes_calls": tracer.calls["pauli.commutes"],
        "gf2.solve_calls": spans["gf2.solve"],
        "gf2.kernel_basis_calls": spans["gf2.kernel_basis"],
        "observables.reuse_checks": reuse_checks,
        "observables.reuse_hits": reuse_hits,
        "observables.reuse_hit_ratio": reuse_hits / reuse_checks if reuse_checks else 0.0,
        "observables.searches": len(tracer.searches),
        "observables.search_unresolved": sum(s.result is None for s in tracer.searches),
        "observables.pairs_visited": pairs,
        "observables.pairs_per_s": pairs / out["observables.search_s"] if pairs else 0.0,
        "observables.sign_calls": spans["observables.eigenvalue_on_error"]
        + spans["observables.commutation_correction"],
        "verify.eigenchecks": spans["verify.eigencheck"],
        "verify.apply_calls": spans["verify.apply"],
        "verify.bytes_computed": tracer.bytes_computed,
    })
    return {name: out[name] for name in UNITS}
