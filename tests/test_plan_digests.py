"""Plans and verify outputs of the benchmark corpus match their pins.

``perfbench/expected.json`` pins the sha256 of every plan the benchmark
writes, and the exit code, oracle counts and ``FAIL:`` lines of every
``verify``.  This plans every pinned slot (the ring code in both modes, and
each ``full_scan`` and ``large_n`` slot) with the commands
``perfbench/run.py`` builds, and verifies the plans of every ``ring`` and
``full_scan`` slot and of ``large_n`` slots 0 and 1 (the ``large_n`` slots
share two codes and differ only in codeword order).  So a change to the
plan bytes or to a verify outcome fails in the test suite and not only in
a benchmark run.  The pins are read, never written.
"""

import json
import os
import sys
from unittest import mock

import pytest

from cwskit import cli
from conftest import REPO

sys.path.insert(0, str(REPO / "perfbench"))
with mock.patch.dict(os.environ):  # run.py pins BLAS threads for its own process
    import run  # noqa: E402

PINS = json.loads((REPO / "perfbench" / "expected.json").read_text())


# one seed per pinned slot; the ring workload has one slot for every seed
SEEDS = [(workload, 1 if slot == "all" else int(slot)) for workload in run.WORKLOADS
         for slot in sorted(PINS[workload], key=lambda s: (len(s), s))]


@pytest.mark.parametrize("workload, seed", SEEDS)
def test_plan_digests_match_pins(workload, seed, tmp_path):
    wl = run.build_workload(workload, seed, tmp_path)
    pins = PINS[workload][run.slot_of(workload, seed)]
    ops = wl.phase("plan")
    assert len(ops) == 2
    if workload != "large_n" or seed in (0, 1):
        ops += wl.phase("verify")
    for op in ops:
        assert run.observed(op, run.execute(cli, op)) == pins[op.key], op.key
