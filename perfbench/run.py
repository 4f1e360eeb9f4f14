"""cwskit benchmark: end-to-end plan/verify timings and per-layer traces.

    python3 perfbench/run.py --workload ring --seed 1 --seconds 30 --trace 0

Drives the ``cwskit`` command line in process, from one Python process:
``cwskit.cli.main([...])`` with stdout and stderr sent to a buffer that
is parsed for the oracle counts.  One caller, closed loop, at most two
worker threads (``--workers 2``).  Every operation is checked against
the pinned expectations in ``expected.json``; the last line of stdout is
the JSON result.  Each operation is timed between two passes of a fixed
reference workload and reported scaled to a reference host speed
(reference.py).  See README.md for the metrics and the workloads.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import random
import re
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

# One BLAS/OpenMP thread, set before numpy loads (reference.py loads it):
# the only parallelism measured is --workers 2.  Setup probes inherit it.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import corpus  # noqa: E402
import layers  # noqa: E402
import reference  # noqa: E402
from corpus import Spec  # noqa: E402
from spans import Tracer  # noqa: E402

WORKLOADS = ("ring", "full_scan", "large_n")
POOL = 16  # seeds map onto this many pinned corpora: slot = seed % POOL
MIN_ROUNDS = 3
MIN_VERIFY_PHASE_S = 0.2  # repeat a cheap verify pass up to this long per round
SETUP_PROBES = 9
RING_CODE = "codes/cross-10-20-3.json"
RING_TABLE = "fixtures/paper-table2.json"
EXPECTED = HERE / "expected.json"

FULL_SCAN_SPECS = (Spec(10, 11, full_rank=True), Spec(10, 11, full_rank=True))
LARGE_N_SPECS = (
    Spec(12, 16, span_dim=8, classes=(14, 20)),
    Spec(13, 12, span_dim=9, classes=(14, 20)),
)
LARGE_N_BASE_SEED = 0

ORACLE_LINE = re.compile(r"^oracle:\s+(\d+) passed, (\d+) failed$", re.M)


@dataclass
class Op:
    """One CLI invocation.  ``key`` names its pinned expectation; a
    ``--workers 2`` plan shares the key of its serial twin."""

    key: str
    phase: str  # "plan", "plan_w2" or "verify"
    argv: list[str]
    out: Path | None = None


@dataclass
class Outcome:
    rc: int | None
    seconds: float
    output: str
    error: str | None = None
    plan: bytes | None = None


@dataclass
class Pass:
    """One run of a list of operations: the wall seconds of each, and
    their sum scaled to the reference host speed (reference.py)."""

    walls: list[float]
    scaled: float

    @classmethod
    def between(cls, walls: list[float], refs: list[float]) -> "Pass":
        """``refs[i]`` and ``refs[i + 1]`` are the reference passes timed
        before and after the operation that took ``walls[i]``."""
        scaled = sum(w * 2 * reference.REF_S / (refs[i] + refs[i + 1]) for i, w in enumerate(walls))
        return cls(walls, scaled)

    @property
    def wall(self) -> float:
        return sum(self.walls)


@dataclass
class Workload:
    name: str
    slot: str
    code_files: list[Path]
    ops: list[Op] = field(default_factory=list)

    def phase(self, name: str) -> list[Op]:
        return [op for op in self.ops if op.phase == name]


def slot_of(workload: str, seed: int) -> str:
    return "all" if workload == "ring" else str(seed % POOL)


def codes_for(workload: str, slot: str) -> list[dict]:
    """Generated code JSON for a corpus slot (ring uses the shipped file).

    full_scan draws fresh greedy codes per slot; their work is fixed by
    (n, K): one syndrome class, scanned to exhaustion.  large_n keeps two
    greedy codes fixed and lets the slot draw their codeword order, which
    changes every fingerprint and plan digest but not the work: distinct
    draws at n = 12-13 differ 2-3x in search cost, which no useful bound
    on plan_s would absorb.
    """
    if workload == "full_scan":
        # the second code of a slot is drawn from seed slot + POOL
        return [corpus.generate(spec, int(slot) + i * POOL, workload)
                for i, spec in enumerate(FULL_SCAN_SPECS)]
    if workload == "large_n":
        rng = random.Random(f"{workload}:order:{slot}")
        out = []
        for spec in LARGE_N_SPECS:
            code = corpus.generate(spec, LARGE_N_BASE_SEED, workload)
            rest = code["codewords"][1:]
            rng.shuffle(rest)
            out.append(dict(code, name=f"{code['name']}-order{slot}",
                            codewords=code["codewords"][:1] + rest))
        return out
    raise ValueError(f"no generated corpus for {workload!r}")


def build_workload(workload: str, seed: int, work: Path) -> Workload:
    slot = slot_of(workload, seed)
    if workload == "ring":
        code = ROOT / RING_CODE
        if not code.is_file() or not (ROOT / RING_TABLE).is_file():
            raise FileNotFoundError(f"{RING_CODE} or {RING_TABLE} missing under {ROOT}")
        named = [("ring", code, ("corollary", "exhaustive"))]
    else:
        named = []
        mode = "exhaustive" if workload == "full_scan" else "corollary"
        for i, data in enumerate(codes_for(workload, slot)):
            path = work / f"{workload}-{i}.json"
            path.write_text(json.dumps(data, indent=1) + "\n")
            named.append((f"code{i}", path, (mode,)))
    wl = Workload(workload, slot, [path for _, path, _ in named])
    for tag, path, modes in named:
        for mode in modes:
            out = work / f"{tag}-{mode}.plan.json"
            key = f"{tag}:{mode}"
            wl.ops.append(Op(f"plan:{key}", "plan",
                             ["plan", str(path), "--mode", mode, "--out", str(out)], out))
            wl.ops.append(Op(f"plan:{key}", "plan_w2",
                             ["plan", str(path), "--mode", mode, "--workers", "2",
                              "--out", str(out.with_suffix(".w2.json"))],
                             out.with_suffix(".w2.json")))
            wl.ops.append(Op(f"verify:{key}", "verify", ["verify", str(path), "--plan", str(out)]))
    if workload == "ring":
        wl.ops.append(Op("verify:external", "verify",
                         ["verify", str(named[0][1]), "--external", str(ROOT / RING_TABLE)]))
    return wl


def execute(cli, op: Op) -> Outcome:
    buf = io.StringIO()
    error = None
    rc = None
    if op.out is not None:
        op.out.unlink(missing_ok=True)
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            rc = cli.main(op.argv)
    except (Exception, SystemExit) as exc:  # a crash is a failed operation, not the end of the run
        error = f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - start
    plan = op.out.read_bytes() if op.out is not None and op.out.is_file() and error is None else None
    return Outcome(rc, seconds, buf.getvalue(), error, plan)


def observed(op: Op, out: Outcome) -> dict:
    """What the pins compare: exit code plus plan digest or oracle counts."""
    seen: dict = {"exit": out.rc}
    if op.phase in ("plan", "plan_w2"):
        seen["sha256"] = hashlib.sha256(out.plan).hexdigest() if out.plan is not None else None
    else:
        m = ORACLE_LINE.search(out.output)
        seen["passed"], seen["failed"] = (int(m[1]), int(m[2])) if m else (0, 0)
        seen["fail_lines"] = [l for l in out.output.splitlines() if l.startswith("FAIL: ")]
    return seen


def judge(op: Op, out: Outcome, expect: dict | None, serial_plan: bytes | None) -> list[str]:
    """Reasons the operation failed; empty when it behaved as pinned.

    A ``--workers 2`` plan must also be byte-identical to the serial plan
    of the same round.  Exit 2 on a pinned partial plan is a pass.
    """
    if out.error is not None:
        return [f"{op.key}: raised {out.error}"]
    if expect is None:
        return [f"{op.key}: no pinned expectation"]
    problems = []
    seen = observed(op, out)
    for k, want in expect.items():
        if seen.get(k) != want:
            problems.append(f"{op.key} ({op.phase}): {k} is {seen.get(k)!r}, pinned {want!r}")
    if op.phase == "plan_w2" and out.plan != serial_plan:
        problems.append(f"{op.key}: --workers 2 plan differs from the serial plan")
    return problems


class Runner:
    """Executes rounds and keeps the operation ledger."""

    def __init__(self, cli, wl: Workload, pins: dict):
        self.cli = cli
        self.wl = wl
        self.pins = pins
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.consistent = True
        self.refs: list[float] = []  # seconds of every reference pass timed

    def run_phase(self, phase: str, serial: dict[str, bytes]) -> Pass:
        """Run the phase's operations once, a reference pass around each."""
        ops = self.wl.phase(phase)
        gc.collect()  # every phase starts from the same collector state
        refs = [reference.pass_seconds()]
        outcomes = []
        for op in ops:
            outcomes.append(execute(self.cli, op))
            refs.append(reference.pass_seconds())
        self.refs += refs
        for op, out in zip(ops, outcomes):
            self.attempted += 1
            problems = judge(op, out, self.pins.get(op.key), serial.get(op.key))
            self.failed += bool(problems)
            self.failures += problems
            if phase == "plan":
                serial[op.key] = out.plan
        return Pass.between([out.seconds for out in outcomes], refs)

    def round(self, w2: bool = True) -> dict[str, list[Pass]]:
        """The passes of each phase.  A verify pass shorter than
        MIN_VERIFY_PHASE_S is repeated within the round."""
        serial: dict[str, bytes] = {}
        samples = {"plan": [self.run_phase("plan", serial)],
                   "plan_w2": [self.run_phase("plan_w2", serial)] if w2 else [],
                   "verify": []}
        while sum(p.wall for p in samples["verify"]) < MIN_VERIFY_PHASE_S:
            samples["verify"].append(self.run_phase("verify", serial))
        return samples


def measure_setup(code_files: list[Path], probes: int) -> list[Pass]:
    """Seconds for a fresh interpreter to import cwskit and load the
    corpus, a reference pass timed around each probe."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    cmd = [sys.executable, str(HERE / "setup_probe.py"), *map(str, code_files)]
    times = []
    for _ in range(probes):
        before = reference.pass_seconds()
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True, timeout=120)
        after = reference.pass_seconds()
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr.strip()}")
        times.append(Pass.between([float(proc.stdout.split()[-1])], [before, after]))
    return times


def load_pins(workload: str, slot: str) -> dict:
    return json.loads(EXPECTED.read_text())[workload].get(slot, {})


def timing(passes: list[Pass]) -> tuple:
    """A timing metric: the median scaled pass, with the median wall
    time of a pass for the report."""
    return (median(p.scaled for p in passes), "s", len(passes),
            f"wall {median(p.wall for p in passes):.6g} s")


def run_untraced(cli, wl: Workload, pins: dict, seconds: float):
    """Rounds until ``seconds`` have passed, a set-up probe before each;
    probes are topped up to SETUP_PROBES at the end."""
    runner = Runner(cli, wl, pins)
    setup: list[Pass] = []
    samples: dict[str, list[Pass]] = {"plan": [], "plan_w2": [], "verify": []}
    start = time.perf_counter()
    rounds = 0
    while rounds < MIN_ROUNDS or time.perf_counter() - start < seconds:
        setup += measure_setup(wl.code_files, 1)
        # The --workers 2 plans are checked once per run; their timing is
        # the traced run's plan_w2_s.
        for k, v in runner.round(w2=rounds == 0).items():
            samples[k] += v
        rounds += 1
    setup += measure_setup(wl.code_files, SETUP_PROBES - len(setup))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "plan_s": timing(samples["plan"]),
        "verify_s": timing(samples["verify"]),
        "setup_s": timing(setup),
        "peak_rss_mb": (rss_mb, "MB", 1, ""),
    }
    return runner, metrics


def run_traced(pkg, wl: Workload, pins: dict, seconds: float):
    """Alternate untraced and traced rounds; per-layer figures come from
    the traced ones, their counts must repeat exactly."""
    runner = Runner(pkg.cli, wl, pins)
    plain: list[float] = []
    plain_w2: list[Pass] = []
    traced: list[float] = []
    per_round: list[dict] = []
    start = time.perf_counter()
    while len(traced) < 2 or time.perf_counter() - start < seconds:
        if len(plain) <= len(traced):
            s = runner.round()
            plain.append(s["plan"][0].scaled + median(p.scaled for p in s["verify"]))
            plain_w2 += s["plan_w2"]
            continue
        tracer = Tracer()
        with tracer.installed(pkg):
            s = runner.round()
        traced.append(s["plan"][0].scaled + median(p.scaled for p in s["verify"]))
        per_round.append(layers.metrics(tracer))
    counts_repeat = all(
        {k: v for k, v in r.items() if k in layers.COUNT_METRICS}
        == {k: v for k, v in per_round[0].items() if k in layers.COUNT_METRICS}
        for r in per_round
    )
    if not counts_repeat:
        runner.failures.append("per-layer counts differ between traced rounds")
        runner.consistent = False
    metrics = {}
    for name, unit in layers.UNITS.items():
        values = [r[name] for r in per_round]
        metrics[name] = (values[0] if name in layers.COUNT_METRICS else median(values),
                         unit, len(values), "")
    metrics["plan_w2_s"] = timing(plain_w2)
    metrics["host.reference_pass_s"] = (median(runner.refs), "s", len(runner.refs), "")
    metrics["trace.overhead_s"] = (median(traced) - median(plain), "s", len(traced), "")
    metrics["error_rate"] = (runner.failed / runner.attempted, "ratio", runner.attempted, "")
    return runner, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "cwskit" / "__init__.py").is_file():
        print(f"error: no cwskit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import cwskit

    (ROOT / ".perfbench-work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=ROOT / ".perfbench-work"))
    try:
        wl = build_workload(args.workload, args.seed, work)
        pins = load_pins(args.workload, wl.slot)
        if args.trace:
            runner, metrics = run_traced(cwskit, wl, pins, args.seconds)
        else:
            runner, metrics = run_untraced(cwskit.cli, wl, pins, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = runner.failed
    for line in runner.failures[:20]:
        print(f"FAILED {line}", file=sys.stderr)
    print(f"workload {wl.name} (corpus slot {wl.slot}), seed {args.seed}, trace {args.trace}")
    for name, (value, unit, n, note) in metrics.items():
        print(f"  {name:34s} {value:>16.6g} {unit:14s} n={n:<5d} {note}")
    print(f"  host reference pass {median(runner.refs):.6g} s, median of {len(runner.refs)}")
    print(f"  error_rate {failed / runner.attempted:.6g} ({failed} failed of {runner.attempted} operations)")
    result = {
        "correct": failed == 0 and runner.consistent,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {name: {"value": m[0], "unit": m[1]} for name, m in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
