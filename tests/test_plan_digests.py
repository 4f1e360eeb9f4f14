"""Plans of the benchmark corpus are byte-identical to their pinned digests.

``perfbench/expected.json`` pins the sha256 of every plan the benchmark
writes.  This plans every pinned slot (the ring code in both modes, and
each ``full_scan`` and ``large_n`` slot) with the commands
``perfbench/run.py`` builds, so a change to the plan bytes fails in the
test suite and not only in a benchmark run.  The pins are read, never
written.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
from unittest import mock

import pytest

from cwskit.cli import main
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
    for op in ops:
        with contextlib.redirect_stdout(io.StringIO()):
            rc = main(op.argv)
        assert rc == pins[op.key]["exit"], op.key
        assert hashlib.sha256(op.out.read_bytes()).hexdigest() == pins[op.key]["sha256"], op.key
