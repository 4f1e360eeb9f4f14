"""``plan`` and ``analyze`` run without numpy; ``verify`` needs it.

A fresh interpreter, with numpy made unimportable (``sys.modules["numpy"]
= None``), runs ``cli.main``: ``plan`` in both modes on the weight-one
set, given by default, by ``--errors`` and by the code file's own
``errors``, and ``analyze`` on the ring code.  Each exits as before and
each plan's bytes equal the benchmark's pin for the weight-one ring plan
of its mode; the analyze report equals the one written with numpy loaded.
``verify`` must then fail to import numpy, which shows that the guard
holds.  A scan of the sources checks that only ``gf2`` and ``verify``
import numpy or call it.
"""

import ast
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys

from cwskit import cli
from conftest import CODE_FILE, REPO

PINS = json.loads((REPO / "perfbench" / "expected.json").read_text())["ring"]["all"]

SCRIPT = r"""
import contextlib, io, json, sys
sys.modules["numpy"] = None
from cwskit import cli

def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except ImportError as exc:
            rc = f"ImportError: {exc}"
    return {"rc": rc, "out": out.getvalue(), "err": err.getvalue()}

results = {key: run(argv) for key, argv in json.loads(sys.argv[1]).items()}
results["numpy loaded"] = sys.modules["numpy"] is not None
print(json.dumps(results))
"""


def without_wall_time(report: str) -> list[str]:
    return [line for line in report.splitlines() if not line.startswith("wall time:")]


def test_plan_and_analyze_import_no_numpy(tmp_path):
    code = json.loads(CODE_FILE.read_text())
    entries = [{"label": f"{c}{q + 1}", "pauli": "I" * q + c + "I" * (9 - q)}
               for q in range(10) for c in "XYZ"]
    (tmp_path / "errors.json").write_text(json.dumps({"errors": entries}))
    (tmp_path / "code.json").write_text(json.dumps(dict(code, errors=entries)))
    ring = str(CODE_FILE)
    argvs, pins = {}, {}
    for mode in ("corollary", "exhaustive"):
        for source, args in (("default", [ring]),
                             ("--errors", [ring, "--errors", str(tmp_path / "errors.json")]),
                             ("code errors", [str(tmp_path / "code.json")])):
            out = tmp_path / f"{mode}-{source}.plan.json"
            argvs[f"plan {mode} {source}"] = ["plan", *args, "--mode", mode, "--out", str(out)]
            pins[out] = PINS[f"plan:ring:{mode}"]
    argvs["analyze"] = ["analyze", ring]
    argvs["verify"] = ["verify", ring, "--plan", str(tmp_path / "corollary-default.plan.json")]

    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    proc = subprocess.run([sys.executable, "-c", SCRIPT, json.dumps(argvs)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    results = json.loads(proc.stdout)

    assert results.pop("numpy loaded") is False
    verify = results.pop("verify")
    assert verify["rc"].startswith("ImportError: ") and "numpy" in verify["rc"]
    for key, result in results.items():
        assert result["rc"] == 0 and result["err"] == "", key
    for out, pin in pins.items():
        assert hashlib.sha256(out.read_bytes()).hexdigest() == pin["sha256"], out.name

    report = io.StringIO()
    with contextlib.redirect_stdout(report):
        assert cli.main(argvs["analyze"]) == 0
    assert without_wall_time(results["analyze"]["out"]) == without_wall_time(report.getvalue())


def test_only_gf2_and_verify_call_numpy():
    """No other module imports numpy or calls ``np.<name>(...)``; they reach
    numpy only through ``gf2``'s array functions."""
    offenders = []
    for path in sorted((REPO / "src" / "cwskit").glob("*.py")):
        if path.stem in ("gf2", "verify"):
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and isinstance(node.func.value, ast.Name) and node.func.value.id == "np"):
                names = [f"np.{node.func.attr}()"]
            else:
                continue
            offenders += [f"{path.name}:{node.lineno} {name}" for name in names
                          if name.split(".")[0] == "numpy" or name.startswith("np.")]
    assert offenders == []
