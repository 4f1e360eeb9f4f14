"""Tests of the benchmark itself: corpus, pair ranks, failure accounting.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import corpus  # noqa: E402
import pairs  # noqa: E402
import run  # noqa: E402
from cwskit import cws, gf2  # noqa: E402
from cwskit.observables import (  # noqa: E402
    error_normalizer_elements,
    pauli_normalizer_generators,
    pauli_syndrome_partition,
    search_space_size,
    search_type4,
)

PINS = json.loads(run.EXPECTED.read_text())


def load(data):
    return cws.from_dict(data)[0]


@pytest.mark.parametrize("workload", ["full_scan", "large_n"])
def test_corpus_is_deterministic_per_seed(workload):
    assert run.codes_for(workload, "3") == run.codes_for(workload, "3")
    assert run.codes_for(workload, "3") != run.codes_for(workload, "4")


@pytest.mark.parametrize("slot", ["0", "7", "15"])
def test_full_scan_codes_are_full_rank_and_detect_weight_one(slot):
    errors_of = cws.ErrorSet.weight_one
    for spec, data in zip(run.FULL_SCAN_SPECS, run.codes_for("full_scan", slot)):
        code = load(data)
        assert code.num_codewords == spec.k
        assert gf2.rank(code.codewords) == code.n
        assert all(cws.detects(code, e) for _, e in errors_of(code.n))


@pytest.mark.parametrize("slot", ["0", "9"])
def test_large_n_codes_keep_their_class_count(slot):
    for spec, data in zip(run.LARGE_N_SPECS, run.codes_for("large_n", slot)):
        code = load(data)
        errors = cws.ErrorSet.weight_one(code.n)
        assert all(cws.detects(code, e) for _, e in errors)
        classes = pauli_syndrome_partition(code, errors, pauli_normalizer_generators(code))
        lo, hi = spec.classes
        assert lo <= len(classes) <= hi
        assert len(classes) == corpus.syndrome_classes(
            [pairs.bits(r) for r in code.adjacency], [pairs.bits(w) for w in code.codewords]
        )


def test_generator_redraws_codes_that_miss_a_single_qubit_error():
    # A word colliding with the image of X1 makes X1 undetectable.
    adj = [0b0110, 0b1000, 0b1000, 0b0000]
    x1 = corpus.classical_image(adj, 0b1000, 0)
    assert not corpus.weight_one_detected(adj, [0, x1])
    assert not corpus.acceptable(corpus.Spec(4, 2), adj, [0, x1])


@pytest.mark.parametrize("workload", ["full_scan", "large_n"])
def test_every_slot_is_pinned_with_its_defining_property(workload):
    assert sorted(PINS[workload], key=int) == [str(s) for s in range(run.POOL)]
    for slot, pins in PINS[workload].items():
        plans = [p for k, p in pins.items() if k.startswith("plan:")]
        verifies = [p for k, p in pins.items() if k.startswith("verify:")]
        if workload == "full_scan":
            assert all(p["exit"] == 2 for p in plans), slot  # unresolved after a full scan
        else:
            assert any(v["passed"] > 0 for v in verifies), slot  # a four-term refinement
        assert all(v["failed"] == 0 and not v["fail_lines"] for v in verifies), slot


def test_ring_external_pins_the_by_design_failures():
    external = PINS["ring"]["all"]["verify:external"]
    assert external["exit"] == 1 and external["passed"] == 520 and external["failed"] == 0
    assert [line.split(":")[1].strip() for line in external["fail_lines"]] == ["A1", "A1", "A3", "A3"]


def brute_force_rank(cands, v1, v2):
    visited = 0
    for i in range(len(cands)):
        for j in range(i + 1, len(cands)):
            visited += 1
            if cands[i] == v1 and cands[j] == v2:
                return visited
    raise AssertionError("pair not among the candidates")


def ring_code():
    return load(json.loads((run.ROOT / run.RING_CODE).read_text()))


def classes_of(code):
    errors = cws.ErrorSet.weight_one(code.n)
    classes = pauli_syndrome_partition(code, errors, pauli_normalizer_generators(code))
    return [errors.subset(c.members) for c in classes if len(c.members) > 1]


@pytest.mark.parametrize("mode, code", [
    ("corollary", "ring"), ("exhaustive", "ring"), ("corollary", "greedy-n9"),
])
def test_pair_rank_matches_brute_force_enumeration(mode, code):
    code = ring_code() if code == "ring" else load(
        corpus.generate(corpus.Spec(9, 6, span_dim=5), 0, "rank-test"))
    checked = 0
    for sub in classes_of(code)[:6]:
        if mode == "corollary":
            cands = [gf2.to_int(v) for v in error_normalizer_elements(code, sub) if v.any()]
            assert cands == pairs.normalizer_candidates(code.adjacency, sub.errors)
        else:
            cands = list(range(1, 1 << code.n))
        result = search_type4(code, sub, mode=mode)
        assert result is not None
        got = pairs.pairs_visited(code, sub, mode, result)
        assert got == brute_force_rank(cands, gf2.to_int(result.v1), gf2.to_int(result.v2))
        checked += 1
    assert checked >= 4


def test_unresolved_search_counts_its_whole_space():
    code = load(run.codes_for("large_n", "0")[0])
    unresolved = 0
    for sub in classes_of(code):
        for mode in ("corollary", "exhaustive"):
            assert pairs.pairs_visited(code, sub, mode, None) == search_space_size(code, sub, mode)
        if search_space_size(code, sub) <= 10_000 and search_type4(code, sub) is None:
            unresolved += 1
    assert unresolved > 0


class FakeCli:
    """Writes a fixed plan; the --workers 2 run can be made to differ."""

    def __init__(self, serial=b"{}\n", parallel=b"{}\n", rc=2):
        self.serial, self.parallel, self.rc = serial, parallel, rc

    def main(self, argv):
        out = Path(argv[argv.index("--out") + 1])
        out.write_bytes(self.parallel if "--workers" in argv else self.serial)
        return self.rc


def fake_workload(tmp_path):
    plan = tmp_path / "p.json"
    ops = [run.Op("plan:c", "plan", ["plan", "c", "--out", str(plan)], plan),
           run.Op("plan:c", "plan_w2", ["plan", "c", "--workers", "2", "--out", str(plan) + "2"],
                  Path(str(plan) + "2"))]
    return run.Workload("fake", "0", [], ops)


def pinned(data=b"{}\n", rc=2):
    import hashlib
    return {"plan:c": {"exit": rc, "sha256": hashlib.sha256(data).hexdigest()}}


def test_partial_plan_with_pinned_exit_two_passes(tmp_path):
    runner = run.Runner(FakeCli(), fake_workload(tmp_path), pinned())
    serial = {}
    runner.run_phase("plan", serial)
    runner.run_phase("plan_w2", serial)
    assert (runner.attempted, runner.failed) == (2, 0)


def test_tampered_digest_counts_as_failed_operation(tmp_path):
    runner = run.Runner(FakeCli(), fake_workload(tmp_path), pinned(b"tampered"))
    serial = {}
    runner.run_phase("plan", serial)
    runner.run_phase("plan_w2", serial)
    assert (runner.attempted, runner.failed) == (2, 2)


def test_nonidentical_workers_plan_counts_as_failed_operation(tmp_path):
    runner = run.Runner(FakeCli(parallel=b"{ }\n"), fake_workload(tmp_path), pinned())
    serial = {}
    runner.run_phase("plan", serial)
    runner.run_phase("plan_w2", serial)
    assert (runner.attempted, runner.failed) == (2, 1)
    assert any("differs from the serial plan" in f for f in runner.failures)


def test_timings_scale_by_the_reference_passes_around_each_operation():
    ref = run.reference.REF_S
    assert run.Pass.between([1.0, 2.0], [ref, ref, ref]).scaled == pytest.approx(3.0)
    # a host half as fast around the second operation only
    slow = run.Pass.between([1.0, 4.0], [ref, ref, 3 * ref])
    assert slow.scaled == pytest.approx(3.0)
    assert slow.wall == 5.0


def test_unpinned_exit_code_and_extra_fail_line_fail():
    op = run.Op("verify:x", "verify", ["verify"])
    expect = {"exit": 1, "passed": 520, "failed": 0, "fail_lines": ["FAIL: A1: x"]}
    ok = run.Outcome(1, 0.1, "FAIL: A1: x\noracle:      520 passed, 0 failed\n")
    extra = run.Outcome(1, 0.1, "FAIL: A1: x\nFAIL: A2: y\noracle:      520 passed, 0 failed\n")
    crashed = run.Outcome(None, 0.1, "", error="KeyError: 'A9'")
    assert run.judge(op, ok, expect, None) == []
    assert run.judge(op, extra, expect, None)
    assert run.judge(op, crashed, expect, None)
    assert run.judge(op, run.Outcome(0, 0.1, ok.output), expect, None)
