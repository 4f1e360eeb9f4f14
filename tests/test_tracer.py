"""The benchmark's tracer (perfbench/spans.py) still fits the program.

The tracer rebinds the functions its ``SPANS`` table names; a name that
no longer resolves crashes every traced benchmark run.  Verify passes
that are repeated within a traced round must also count no calls when
the plan has no four-term steps, or the per-round counts cannot repeat.
"""

import json
import sys

import cwskit
from cwskit import cws
from cwskit.cli import main
from conftest import CODE_FILE, REPO

sys.path.insert(0, str(REPO / "perfbench"))

import layers  # noqa: E402
from spans import SPANS, Tracer  # noqa: E402


def resolve(module: str, attr: str):
    target = getattr(cwskit, module)
    for part in attr.split("."):
        target = getattr(target, part)
    return target


def test_every_span_resolves():
    for module, attr, _ in SPANS:
        assert callable(resolve(module, attr)), f"{module}.{attr}"


def test_traced_ring_plan_and_verify(tmp_path, capsys):
    plan = str(tmp_path / "ring.plan.json")
    tracer = Tracer()
    with tracer.installed(cwskit):
        assert main(["plan", str(CODE_FILE), "--out", plan]) == 0
        assert main(["verify", str(CODE_FILE), "--plan", plan]) == 0
    assert "oracle:      600 passed, 0 failed" in capsys.readouterr().out
    counts = layers.metrics(tracer)
    assert counts["observables.searches"] > 0
    # the corollary plan's verify pass, as the traced benchmark counts it
    assert counts["verify.eigenchecks"] == 600
    assert counts["verify.apply_calls"] == 3620
    assert counts["pauli.stabilizer_element_calls"] == 60
    assert counts["cws.detects_calls"] == 30


def test_verify_without_four_term_steps_counts_nothing(tmp_path, cycle5_code, capsys):
    # the five-qubit code: every weight-1 error has its own Pauli syndrome
    code = str(tmp_path / "five.json")
    plan = str(tmp_path / "five.plan.json")
    (tmp_path / "five.json").write_text(json.dumps(cws.to_dict(cycle5_code)))
    assert main(["plan", code, "--out", plan]) == 0
    assert not any(c["steps"] for c in json.loads((tmp_path / "five.plan.json").read_text())["classes"])
    tracer = Tracer()
    with tracer.installed(cwskit):
        assert main(["verify", code, "--plan", plan]) == 0
    capsys.readouterr()
    counts = layers.metrics(tracer)
    assert {name: counts[name] for name in layers.COUNT_METRICS} == dict.fromkeys(
        layers.COUNT_METRICS, 0
    )
