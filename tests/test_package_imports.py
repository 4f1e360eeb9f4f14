"""The package loads each submodule on first access, it never imports
``dataclasses`` (with ``inspect``, ``ast``, ``dis`` and ``tokenize`` behind
it, the largest part of start-up the package itself decides), and the
benchmark's entry points still reach every module through it.

Each import check runs in a fresh interpreter, since the test session has
already imported every module.
"""

import ast
import json
import os
import subprocess
import sys

from conftest import CODE_FILE, REPO

LAZY_SCRIPT = r"""
import json, sys
loaded = lambda: sorted(m for m in sys.modules if m.startswith("cwskit."))
import cwskit
after_import = loaded()
cwskit.cws
after_cws = loaded()
numpy_loaded = "numpy" in sys.modules
dataclasses_after_cws = "dataclasses" in sys.modules
from cwskit import cli, observables
dataclasses_after_cli = "dataclasses" in sys.modules
from cwskit import cli, cws, gf2, observables, pauli, verify
try:
    cwskit.CwsCode
    missing = None
except AttributeError as exc:
    missing = str(exc)
print(json.dumps({"after_import": after_import, "after_cws": after_cws,
                  "numpy_loaded": numpy_loaded, "missing": missing,
                  "dataclasses": [dataclasses_after_cws, dataclasses_after_cli]}))
"""

TRACED_SCRIPT = r"""
import json, sys
import cwskit
sys.path.insert(0, sys.argv[1])
import layers
from spans import SPANS, Tracer

def resolve(module, attr):
    target = getattr(cwskit, module)
    for part in attr.split("."):
        target = getattr(target, part)
    return target

before = {(m, a): resolve(m, a) for m, a, _ in SPANS}
tracer = Tracer()
with tracer.installed(cwskit):
    unwrapped = [f"{m}.{a}" for (m, a), fn in before.items() if resolve(m, a) == fn]
    rc = cwskit.cli.main(["plan", sys.argv[2], "--out", sys.argv[3]])
counts = layers.metrics(tracer)
print(json.dumps({"unwrapped": unwrapped, "rc": rc,
                  "detects_calls": counts["cws.detects_calls"],
                  "searches": counts["observables.searches"]}))
"""


def run(*argv: str) -> str:
    """The stdout of a fresh interpreter run with ``src`` on its path."""
    env = dict(os.environ)
    src = str(REPO / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    proc = subprocess.run([sys.executable, *argv], capture_output=True, text=True, env=env,
                          cwd=REPO, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_submodules_load_on_first_access():
    result = json.loads(run("-c", LAZY_SCRIPT))
    assert result["after_import"] == []
    assert result["after_cws"] == ["cwskit.cws", "cwskit.gf2", "cwskit.pauli"]
    assert result["numpy_loaded"] is False
    assert result["missing"] == "module 'cwskit' has no attribute 'CwsCode'"
    assert result["dataclasses"] == [False, False]


def test_no_module_imports_dataclasses():
    """Records are ``collections.namedtuple`` subclasses or plain classes."""
    offenders = []
    for path in sorted((REPO / "src" / "cwskit").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            offenders += [f"{path.name}:{node.lineno}" for name in names
                          if name.split(".")[0] == "dataclasses"]
    assert offenders == []


def test_setup_probe_prints_one_float():
    out = run(str(REPO / "perfbench" / "setup_probe.py"), str(CODE_FILE)).split()
    assert len(out) == 1 and float(out[0]) > 0


def test_tracer_installs_on_a_bare_import(tmp_path):
    """``Tracer.installed`` reaches every ``SPANS`` entry when nothing but
    ``import cwskit`` has run, and a traced ring plan counts as before."""
    plan = str(tmp_path / "ring.plan.json")
    out = run("-c", TRACED_SCRIPT, str(REPO / "perfbench"), str(CODE_FILE), plan)
    result = json.loads(out.splitlines()[-1])  # after the plan's own report
    assert result["unwrapped"] == []
    assert result["rc"] == 0
    assert result["detects_calls"] == 30
    assert result["searches"] > 0
