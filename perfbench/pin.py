"""Re-pin the expectations every benchmark operation is checked against.

    python3 perfbench/pin.py [--workload NAME] [--slots 0-15]

Runs each operation of each corpus slot once and writes exit codes, plan
digests and oracle counts to expected.json.  Pins record what the program
does at the commit that ran this script; re-pinning is a benchmark change
and belongs in a change of its own.  The ring external-table check pins
its four by-design FAIL lines (A1 twice, A3 twice): they mirror the
failing acceptance tests and must not be "fixed".
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

import run


def pin_slot(cli, workload: str, slot: int) -> tuple[str, dict]:
    work = Path(tempfile.mkdtemp(prefix="pin-", dir=run.ROOT / ".perfbench-work"))
    try:
        wl = run.build_workload(workload, slot, work)
        pins: dict = {}
        serial: dict[str, bytes] = {}
        for phase in ("plan", "plan_w2", "verify"):
            for op in wl.phase(phase):
                out = run.execute(cli, op)
                if out.error is not None:
                    raise RuntimeError(f"{workload} slot {wl.slot} {op.key}: {out.error}")
                if phase == "plan":
                    serial[op.key] = out.plan
                    pins[op.key] = run.observed(op, out)
                elif phase == "plan_w2":
                    if out.plan != serial[op.key]:
                        raise RuntimeError(f"{op.key}: --workers 2 plan differs")
                else:
                    pins[op.key] = run.observed(op, out)
        return wl.slot, pins
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=run.WORKLOADS)
    parser.add_argument("--slots", default=f"0-{run.POOL - 1}")
    args = parser.parse_args()
    lo, _, hi = args.slots.partition("-")
    slots = range(int(lo), int(hi or lo) + 1)
    sys.path.insert(0, str(run.ROOT / "src"))
    from cwskit import cli

    (run.ROOT / ".perfbench-work").mkdir(exist_ok=True)
    expected = json.loads(run.EXPECTED.read_text()) if run.EXPECTED.is_file() else {}
    for workload in [args.workload] if args.workload else run.WORKLOADS:
        table = expected.setdefault(workload, {})
        for slot in slots[:1] if workload == "ring" else slots:
            key, pins = pin_slot(cli, workload, slot)
            table[key] = pins
            print(f"{workload} slot {key}: {json.dumps(pins, sort_keys=True)[:160]}", flush=True)
    run.EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
