"""Steadiness check: run the benchmark over several seeds and compare.

    python3 perfbench/steady.py --workload large_n --seeds 1-10
    python3 perfbench/steady.py --workload ring --seeds 1-3 --trace

Untraced: prints, per end-to-end metric, the median and the quartile
spread (q3 - q1) / median of the per-seed values, as
``statistics.quantiles(values, n=4)`` gives them, against the metric's
bound in BENCHMARK.json.  With ``--save FILE`` the medians are stored;
with ``--against FILE`` each median is also compared with the stored one
(not worse by more than the bound).  Traced: runs every seed twice and
requires every per-layer count to repeat exactly.  Exits 1 when a check
fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"seed {seed}: exit {proc.returncode}: {proc.stderr.strip()}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"seed {seed}: incorrect result: {proc.stderr.strip()}")
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--save")
    parser.add_argument("--against")
    args = parser.parse_args()
    lo, _, hi = args.seeds.partition("-")
    seeds = range(int(lo), int(hi or lo) + 1)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ok = True

    if args.trace:
        for seed in seeds:
            runs = [bench(args.workload, seed, spec["run_seconds"], 1)["metrics"] for _ in range(2)]
            counts = [{k: m[k]["value"] for k in sorted(layers.COUNT_METRICS)} for m in runs]
            same = counts[0] == counts[1]
            ok &= same
            print(f"seed {seed}: counts {'repeat' if same else 'DIFFER'}: {counts[0]}", flush=True)
        return 0 if ok else 1

    values: dict[str, list[float]] = {m["name"]: [] for m in spec["end_to_end"]}
    for seed in seeds:
        result = bench(args.workload, seed, spec["run_seconds"], 0)
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: " + " ".join(f"{k}={v[-1]:.4g}" for k, v in values.items()), flush=True)
    before = json.loads(Path(args.against).read_text()) if args.against else {}
    medians = {}
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        xs = values[name]
        q1, med, q3 = statistics.quantiles(xs, n=4)
        medians[name] = med = statistics.median(xs)
        spread = (q3 - q1) / med
        verdict = "ok" if spread <= bound / 3 else "WIDE" if spread > bound else "ok (> bound/3)"
        if name != "setup_s" and spread > bound:
            ok = False
        line = f"{name:12s} median {med:10.4g}  spread {spread:7.3%}  bound {bound:.0%}  {verdict}"
        if name in before:
            worse = (med - before[name]) / before[name]
            ok &= worse <= bound
            line += f"  vs saved {before[name]:.4g}: {worse:+.2%}"
        print(line)
    if args.save:
        Path(args.save).write_text(json.dumps(medians, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
