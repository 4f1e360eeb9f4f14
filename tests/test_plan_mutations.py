"""Structural mutants of real plans fail ``verify --plan``.

A plan decodes only if its steps form the refinement tree of the paper's
procedure: each step splits a group that the steps before it left
together, and each group of two or more errors left at the end is one
``unresolved`` entry, and its classes are the whole Pauli syndrome
partition, each listed once.  No list names an error twice, and every
four-term observable listed is used by a step.  Every mutant below
breaks one of these and must exit 1; the unchanged plan, and the plan
with two sibling steps swapped, must exit 0.  The plans are the ring
code's corollary plan and the two plans of the ``large_n`` benchmark
slot 1: at n = 13, a class of four errors split by three steps, five
more classes with two steps and one unresolved entry; at n = 12, five
unresolved entries.  Structure needs no oracle, so it is off.
"""

import contextlib
import copy
import functools
import io
import json
import os
import sys
from unittest import mock

import pytest

from cwskit import cws, verify
from cwskit.cli import main
from cwskit.observables import build_decoding_plan
from conftest import CODE_FILE, REPO

sys.path.insert(0, str(REPO / "perfbench"))
with mock.patch.dict(os.environ):  # run.py pins BLAS threads for its own process
    import run  # noqa: E402

CODES = {
    "ring": json.loads(CODE_FILE.read_text()),
    **{f"large_n_slot1_code{i}": data for i, data in enumerate(run.codes_for("large_n", "1"))},
}


def parents(steps: list[dict]) -> list[int | None]:
    """Index of the step whose half each step applies to; None for a root."""
    out = []
    for step in steps:
        group = set(step["applies_to"])
        out.append(next((p for p, earlier in enumerate(steps[: len(out)])
                         for sign in (1, -1)
                         if group == {l for l, s in earlier["signs"].items() if s == sign}),
                        None))
    return out


def mutants(plan: dict):
    """(name, plan) for every structural mutant of a plan."""
    def edit(change):
        out = copy.deepcopy(plan)
        change(out)
        out["resolved"] = not out["unresolved"]
        return out

    for ci, j in ((ci, j) for ci, c in enumerate(plan["classes"]) for j in range(len(c["steps"]))):
        yield f"drop class {ci} step {j}", edit(lambda p: p["classes"][ci]["steps"].pop(j))
        yield f"duplicate class {ci} step {j}", edit(
            lambda p: p["classes"][ci]["steps"].insert(j + 1, p["classes"][ci]["steps"][j]))
        parent = parents(plan["classes"][ci]["steps"])[j]
        if parent is not None:
            yield f"move class {ci} step {j} before its parent", edit(
                lambda p: p["classes"][ci]["steps"].insert(parent, p["classes"][ci]["steps"].pop(j)))
        yield f"repeat a label of class {ci} step {j}", edit(
            lambda p: p["classes"][ci]["steps"][j]["applies_to"].append(
                p["classes"][ci]["steps"][j]["applies_to"][0]))
        yield f"unresolved entry for the group of class {ci} step {j}", edit(
            lambda p: p["unresolved"].append({
                "class": ci, "members": p["classes"][ci]["steps"][j]["applies_to"],
                "pairs_searched": 3}))
    split = [ci for ci, c in enumerate(plan["classes"]) if c["steps"]]
    for ci, ck in zip(split, split[1:]):
        def swap(p):
            a, b = p["classes"][ci]["steps"][0], p["classes"][ck]["steps"][0]
            for key in ("applies_to", "signs"):
                a[key], b[key] = b[key], a[key]
        yield f"swap the groups of class {ci} and class {ck} step 0", edit(swap)
    for k, u in enumerate(plan["unresolved"]):
        yield f"drop unresolved entry {k} (class {u['class']})", edit(lambda p: p["unresolved"].pop(k))
        yield f"repeat a member of unresolved entry {k}", edit(
            lambda p: p["unresolved"][k]["members"].append(p["unresolved"][k]["members"][0]))
    for ci in range(len(plan["classes"])):
        yield f"drop class {ci}", edit(lambda p: drop_class(p, ci))
        yield f"duplicate class {ci}", edit(lambda p: duplicate_class(p, ci))
    yield "no classes", edit(lambda p: p.update(classes=[], unresolved=[]))
    n = plan["n"]
    yield "append an observable no step uses", edit(lambda p: p["type4_observables"].append(
        {"v": "0" * (n - 1) + "1", "v1": "1" + "0" * (n - 1), "v2": "01" + "0" * (n - 2), "sign": 1}))


def drop_class(plan: dict, ci: int) -> None:
    """Remove class ci and its unresolved entries; later entries' indices shift down."""
    plan["classes"].pop(ci)
    plan["unresolved"] = [{**u, "class": u["class"] - (u["class"] > ci)}
                          for u in plan["unresolved"] if u["class"] != ci]


def duplicate_class(plan: dict, ci: int) -> None:
    """Append a copy of class ci, and of its unresolved entries, as the last class."""
    plan["unresolved"] += [{**u, "class": len(plan["classes"])}
                           for u in plan["unresolved"] if u["class"] == ci]
    plan["classes"].append(copy.deepcopy(plan["classes"][ci]))


def sibling_swaps(plan: dict):
    """(name, plan) with two steps of one parent swapped, for every pair."""
    for ci, c in enumerate(plan["classes"]):
        tree = parents(c["steps"])
        for j, k in ((j, k) for k in range(len(tree)) for j in range(k)
                     if tree[j] is not None and tree[j] == tree[k]):
            out = copy.deepcopy(plan)
            steps = out["classes"][ci]["steps"]
            steps[j], steps[k] = steps[k], steps[j]
            yield f"swap class {ci} steps {j} and {k}", out


@functools.cache
def plan_json(name: str) -> str:
    """The plan of a code of ``CODES`` as ``plan`` writes it."""
    code, _ = cws.from_dict(CODES[name])
    return json.dumps(build_decoding_plan(code, cws.ErrorSet.weight_one(code.n)).to_dict())


@pytest.fixture(params=list(CODES))
def planned(request, tmp_path):
    """(code file, plan) of one code."""
    path = tmp_path / "code.json"
    path.write_text(json.dumps(CODES[request.param]))
    return str(path), json.loads(plan_json(request.param))


def verify_exit(code_file: str, plan: dict, tmp_path) -> int:
    plan_file = tmp_path / "plan.json"
    plan_file.write_text(json.dumps(plan))
    with mock.patch.object(verify, "ORACLE_CAP", 0), \
            contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(["verify", code_file, "--plan", str(plan_file)])


def test_every_structural_mutant_fails(planned, tmp_path):
    code_file, plan = planned
    assert verify_exit(code_file, plan, tmp_path) == 0
    made = list(mutants(plan))
    passed = [name for name, mutant in made if verify_exit(code_file, mutant, tmp_path) != 1]
    assert passed == [], f"{len(passed)} of {len(made)} mutants passed"


def test_sibling_steps_swapped_still_pass(planned, tmp_path):
    code_file, plan = planned
    failed = [name for name, swapped in sibling_swaps(plan)
              if verify_exit(code_file, swapped, tmp_path) != 0]
    assert failed == []


def test_plans_have_the_shapes_the_mutants_need():
    plans = {name: json.loads(plan_json(name)) for name in CODES}
    n12, n13 = plans["large_n_slot1_code0"], plans["large_n_slot1_code1"]
    assert [(len(c["members"]), len(c["steps"])) for c in n13["classes"]].count((4, 3)) == 1
    assert [len(c["steps"]) for c in n13["classes"]].count(2) >= 5
    assert (len(n13["unresolved"]), len(n12["unresolved"])) == (1, 5)
    assert any(True for _ in sibling_swaps(n13))
    names = [name for plan in plans.values() for name, _ in mutants(plan)]
    for kind in ("drop class", "duplicate", "move", "swap", "drop unresolved", "unresolved entry for",
                 "repeat a label", "repeat a member", "append an observable"):
        assert any(name.startswith(kind) for name in names), kind
    assert {"drop class 0", "duplicate class 0", "no classes"} <= set(names)
