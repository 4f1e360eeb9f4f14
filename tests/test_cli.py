import contextlib
import functools
import io
import json
import os
import re
import shlex
import shutil
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cwskit import cli, cws, observables, verify
from cwskit.cli import main
from cwskit.observables import build_decoding_plan
from conftest import CODE_FILE, REPO, TABLE_FILE

CODE = str(CODE_FILE)
TABLE = str(TABLE_FILE)


def write_json(path: Path, data) -> str:
    path.write_text(json.dumps(data, indent=2))
    return str(path)


@pytest.fixture()
def toy_code_file(tmp_path):
    return write_json(
        tmp_path / "toy.json",
        {
            "n": 4,
            "adjacency": ["0101", "1010", "0101", "1010"],
            "codewords": ["0000", "0011", "0101"],
        },
    )


class TestAnalyze:
    def test_fixture_report(self, capsys):
        assert main(["analyze", CODE]) == 0
        out = capsys.readouterr().out
        assert "n = 10, K = 20" in out
        assert "s_1 = XZIIZZIIII" in out
        assert "codeword matrix rank: 6" in out
        assert out.count("detected") >= 30
        assert "NOT DETECTED" not in out

    def test_missing_zero_codeword_rejected(self, tmp_path, capsys):
        path = write_json(
            tmp_path / "bad.json",
            {"n": 2, "adjacency": ["01", "10"], "codewords": ["11"]},
        )
        assert main(["analyze", path]) == 1
        assert "all-zero" in capsys.readouterr().err

    def test_malformed_json_names_line(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{"n": 2,\n  "adjacency": [}')
        assert main(["analyze", str(path)]) == 1
        err = capsys.readouterr().err
        assert "line 2" in err

    def test_missing_file(self, capsys):
        assert main(["analyze", "/nonexistent/code.json"]) == 1

    def test_undetected_error_exits_one(self, toy_code_file, tmp_path, capsys):
        """On the toy code, IZZI maps codeword 0011 onto 0101."""
        data = json.loads(Path(toy_code_file).read_text())
        code_file = write_json(tmp_path / "with_errors.json", {**data, "errors": ["IZZI"]})
        assert main(["analyze", code_file]) == 1
        out = capsys.readouterr().out.splitlines()
        assert "    IZZI: NOT DETECTED [classical collision: C_2 + 0110 equals C_3]" in out


class TestPlan:
    def test_fixture_resolves_fully(self, tmp_path, capsys):
        out_file = tmp_path / "plan.json"
        assert main(["plan", CODE, "--out", str(out_file)]) == 0
        data = json.loads(out_file.read_text())
        assert data["resolved"] is True
        assert len(data["classes"]) == 15
        assert all(len(c["steps"]) == 1 for c in data["classes"])
        table = capsys.readouterr().out
        assert "pauli observables" in table

    def test_exhaustive_mode_same_resolution(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["plan", CODE, "--out", str(a)]) == 0
        assert main(["plan", CODE, "--mode", "exhaustive", "--out", str(b)]) == 0
        assert json.loads(a.read_text())["resolved"] == json.loads(b.read_text())["resolved"]

    def test_undetectable_error_exits_one(self, toy_code_file, tmp_path, capsys):
        errors_file = write_json(tmp_path / "errors.json", {"errors": ["IZZI"]})
        assert main(["plan", toy_code_file, "--errors", errors_file]) == 1
        assert "not detectable" in capsys.readouterr().err

    def test_partial_plan_exits_two(self, tmp_path):
        code_file = write_json(
            tmp_path / "pair.json",
            {"n": 2, "adjacency": ["01", "10"], "codewords": ["00"]},
        )
        errors_file = write_json(
            tmp_path / "errors.json",
            {"errors": [{"label": "X1", "pauli": "XI"}, {"label": "Z2", "pauli": "IZ"}]},
        )
        assert main(["plan", code_file, "--errors", errors_file]) == 2

    def test_errors_embedded_in_code_file(self, tmp_path):
        data = json.loads(Path(CODE).read_text())
        data["errors"] = ["ZIIIIIIIII", {"label": "Y2", "pauli": "IYIIIIIIII"}]
        code_file = write_json(tmp_path / "with_errors.json", data)
        out_file = tmp_path / "plan.json"
        assert main(["plan", code_file, "--out", str(out_file)]) == 0
        plan = json.loads(out_file.read_text())
        assert [e["label"] for e in plan["errors"]] == ["ZIIIIIIIII", "Y2"]

    def test_serial_and_parallel_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["plan", CODE, "--workers", "1", "--out", str(a)]) == 0
        assert main(["plan", CODE, "--workers", "8", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_calls_share_one_parser_and_no_flags(self, tmp_path, capsys):
        """``main`` reuses one parser; what one call parses does not carry
        into the next."""
        parser = cli.build_parser()
        assert cli.build_parser() is parser
        errors_file = write_json(tmp_path / "errors.json", {"errors": ["ZIIIIIIIII", "IYIIIIIIII"]})
        out_file = tmp_path / "plan.json"
        with mock.patch.object(parser, "parse_args", wraps=parser.parse_args) as parse:
            assert main(["plan", CODE, "--errors", errors_file, "--out", str(out_file)]) == 0
            first = json.loads(out_file.read_text())
            out_file.unlink()
            capsys.readouterr()
            assert main(["plan", CODE]) == 0
        assert parse.call_count == 2
        assert not out_file.exists()  # no --out: the plan JSON goes to stdout
        lines = capsys.readouterr().out.splitlines()
        second = json.loads("\n".join(lines[lines.index("{"): lines.index("}") + 1]))
        assert [e["label"] for e in first["errors"]] == ["ZIIIIIIIII", "IYIIIIIIII"]
        assert [e["label"] for e in second["errors"]] == cws.ErrorSet.weight_one(10).labels


class TestVerify:
    def test_round_trip_passes(self, tmp_path, capsys):
        plan_file = tmp_path / "plan.json"
        assert main(["plan", CODE, "--out", str(plan_file)]) == 0
        assert main(["verify", CODE, "--plan", str(plan_file)]) == 0
        out = capsys.readouterr().out
        assert "0 failed" in out

    def test_hash_mismatch_refused(self, tmp_path, toy_code_file, capsys):
        plan_file = tmp_path / "plan.json"
        assert main(["plan", CODE, "--out", str(plan_file)]) == 0
        assert main(["verify", toy_code_file, "--plan", str(plan_file)]) == 1
        assert "refusing" in capsys.readouterr().err

    def test_tampered_observable_flagged(self, tmp_path, capsys):
        plan_file = tmp_path / "plan.json"
        assert main(["plan", CODE, "--out", str(plan_file)]) == 0
        data = json.loads(plan_file.read_text())
        entry = data["type4_observables"][0]
        flipped = "1" if entry["v1"][0] == "0" else "0"
        entry["v1"] = flipped + entry["v1"][1:]
        tampered = write_json(tmp_path / "tampered.json", data)
        assert main(["verify", CODE, "--plan", tampered]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_empty_plan_vacuous_pass(self, tmp_path, capsys):
        errors_file = write_json(
            tmp_path / "errors.json", {"errors": [{"label": "I", "pauli": "IIIIIIIIII"}]}
        )
        plan_file = tmp_path / "plan.json"
        assert main(["plan", CODE, "--errors", errors_file, "--out", str(plan_file)]) == 0
        assert main(["verify", CODE, "--plan", str(plan_file)]) == 0
        assert "vacuous" in capsys.readouterr().out

    def test_external_reference_table(self, capsys):
        # the published table is internally inconsistent: one subtable has
        # flipped signs and one observable leaks on its own classes
        assert main(["verify", CODE, "--external", TABLE]) == 1
        out = capsys.readouterr().out
        assert "A1" in out and "INVALID" in out
        assert out.count("FAIL") == 4
        for name in ("A2", "A4", "A5", "A6", "A7"):
            assert f"{name}: v=" in out

    def test_invalid_external_entry_fails(self, tmp_path, capsys):
        """An entry that is no observable is listed INVALID with its reason,
        and its classes are left out of the oracle's checks."""
        data = shipped("table")
        a2 = next(entry for entry in data["observables"] if entry["name"] == "A2")
        a2["v2"] = a2["v1"]
        table = write_json(tmp_path / "table.json", data)
        assert main(["verify", CODE, "--external", table]) == 1
        out = capsys.readouterr().out.splitlines()
        assert "  A2: INVALID" in out
        assert "FAIL: A2: invalid observable: v1 and v2 must differ" in out
        assert "oracle:      440 passed, 0 failed" in out

    @pytest.mark.parametrize("patched", [False, True])
    def test_oracle_disagreement_fails(self, patched, tmp_path, capsys, monkeypatch):
        """Every step's signs negated: the algebra alone reports each one, one
        ``sign on`` line per error.  With the algebra patched to agree with the
        negated plan, only the oracle is left to catch every claim."""
        data = shipped("plan")
        for c in data["classes"]:
            for step in c["steps"]:
                step["signs"] = {label: -s for label, s in step["signs"].items()}
        plan_file = write_json(tmp_path / "plan.json", data)
        if patched:
            monkeypatch.setattr(cli, "eigenvalues", lambda *a: [-s for s in observables.eigenvalues(*a)])
        capsys.readouterr()
        assert main(["verify", CODE, "--plan", plan_file]) == 1
        out = capsys.readouterr().out.splitlines()
        fails = [l for l in out if l.startswith("FAIL:")]
        if patched:
            assert "oracle:      0 passed, 600 failed" in out
            assert len(fails) == 600 and all("oracle eigenvalue" in f for f in fails)
            assert fails[0] == "FAIL: class 0 observable A1: oracle eigenvalue -1 != +1 on a Y4 state"
        else:
            assert "oracle:      600 passed, 0 failed" in out
            assert len(fails) == 30 and all(": sign on " in f for f in fails)

    def test_oracle_cap_env_skips_dense_checks(self, tmp_path, capsys, monkeypatch):
        plan_file = tmp_path / "plan.json"
        assert main(["plan", CODE, "--out", str(plan_file)]) == 0
        monkeypatch.setattr(verify, "ORACLE_CAP", 6)
        assert main(["verify", CODE, "--plan", str(plan_file)]) == 0
        out = capsys.readouterr().out
        assert "oracle skipped" in out

    @pytest.mark.parametrize("cap", [9, 10])
    def test_oracle_runs_up_to_the_cap(self, cap, tmp_path, capsys, monkeypatch):
        """The ring code has n = 10: a cap of 10 checks every claim on the
        oracle, a cap of 9 skips the oracle and still passes."""
        plan_file = write_json(tmp_path / "plan.json", shipped("plan"))
        monkeypatch.setattr(verify, "ORACLE_CAP", cap)
        capsys.readouterr()
        assert main(["verify", CODE, "--plan", plan_file]) == 0
        out = capsys.readouterr().out.splitlines()
        skipped = "warning: oracle skipped (n=10 exceeds oracle cap 9)"
        if cap == 10:
            assert "oracle:      600 passed, 0 failed" in out and skipped not in out
        else:
            assert skipped in out and not any(l.startswith("oracle:") for l in out)

    def test_layer_disturbing_the_code_fails_plan(self, tmp_path, capsys):
        """A layer vector u orthogonal to every error's classical word leaves
        the partition as it was, so only C u != 0 shows that S^u disturbs the
        code: S^u anticommutes with the codeword operator Z^(C_3)."""
        errors = write_json(tmp_path / "errors.json", ["XIIIIIIIII", "ZIIIIIIIII", "IXIIIIIIII"])
        plan_file = tmp_path / "plan.json"
        assert main(["plan", CODE, "--errors", errors, "--out", str(plan_file)]) == 0
        data = json.loads(plan_file.read_text())
        o = data["pauli_observables"][0]
        data["pauli_observables"][0] = o[:-1] + ("1" if o[-1] == "0" else "0")
        tampered = write_json(tmp_path / "tampered.json", data)
        capsys.readouterr()
        assert main(["verify", CODE, "--plan", tampered]) == 1
        out = capsys.readouterr().out.splitlines()
        assert [l for l in out if l.startswith("FAIL:")] == [
            "FAIL: pauli_observables[0] anticommutes with codeword operator C_3"
        ]

    def test_layer_disturbing_the_code_fails_external(self, tmp_path, capsys):
        data = shipped("table")
        o = data["pauli_observables"][1]
        data["pauli_observables"][1] = o[:-1] + ("1" if o[-1] == "0" else "0")
        table = write_json(tmp_path / "table.json", data)
        assert main(["verify", CODE, "--external", table]) == 1
        out = capsys.readouterr().out.splitlines()
        assert "FAIL: pauli_observables[1] anticommutes with codeword operator C_3" in out

    @pytest.mark.parametrize("tamper", ["every_step", "class_0_step"])
    def test_class_with_no_step_fails(self, tamper, tmp_path, capsys):
        """A class of two or more errors needs a step or an unresolved entry:
        dropping every step, or the only step of class 0 ({Y4, Z10}), fails
        each class left unsplit once."""
        data = shipped("plan")
        if tamper == "every_step":
            for c in data["classes"]:
                c["steps"] = []
            data["type4_observables"] = []
        else:
            data["classes"][0]["steps"] = []
        plan_file = write_json(tmp_path / "plan.json", data)
        capsys.readouterr()
        assert main(["verify", CODE, "--plan", plan_file]) == 1
        out = capsys.readouterr().out.splitlines()
        fails = [l for l in out if l.startswith("FAIL:")]
        unsplit = range(len(data["classes"])) if tamper == "every_step" else [0]
        assert [f.split(":")[1].strip() for f in fails] == [f"class {k}" for k in unsplit]
        if tamper == "class_0_step":
            assert fails == ["FAIL: class 0: no step or unresolved entry separates {Y4, Z10}"]
            assert "oracle:      560 passed, 0 failed" in out


    @pytest.mark.parametrize("tamper, fails, passed", [pytest.param(*case, id=case[0]) for case in [
        ("unresolved_members_split_by_a_step", [
            "class 0: unresolved entry {Y4, Z10} is not a group of two or more errors"
            " that the steps leave together"], 600),
        ("step_on_part_of_its_class", [
            "class 0: step 0 applies to {Y4}, which is not a group that the steps before it"
            " leave together",
            "class 0: no step or unresolved entry separates {Y4, Z10}"], 580),
        ("step_twice", [
            "class 0: step 1 applies to {Y4, Z10}, which is not a group that the steps before it"
            " leave together"], 640),
        ("step_with_one_sign", [
            "class 0: step 0 gives {Y4, Z10} one sign only",
            "class 0: no step or unresolved entry separates {Y4, Z10}",
            "class 0 observable A1: sign on Z10 is +1, expected -1"], 600),
        ("observable_no_step_uses", ["type4_observables[7] is used by no step"], 600),
    ]])
    def test_refinement_tree_fault_fails(self, tamper, fails, passed, tmp_path, capsys):
        """Class 0 of the ring plan is {Y4, Z10}, split by one step.  Each
        edit below breaks its refinement tree; the oracle still checks
        every sign the plan states.  The last edit lists an observable that
        no step uses."""
        data = shipped("plan")
        step = data["classes"][0]["steps"][0]
        if tamper == "unresolved_members_split_by_a_step":
            data.update(resolved=False,
                        unresolved=[{"class": 0, "members": ["Y4", "Z10"], "pairs_searched": 3}])
        elif tamper == "step_on_part_of_its_class":
            step.update(applies_to=["Y4"], signs={"Y4": -1})
        elif tamper == "step_twice":
            data["classes"][0]["steps"].append(step)
        elif tamper == "observable_no_step_uses":  # it does not even stabilize the code
            data["type4_observables"].append(
                {"v": "0000000001", "v1": "1000000000", "v2": "0100000000", "sign": 1})
        else:
            step["signs"]["Z10"] = -1
        plan_file = write_json(tmp_path / "plan.json", data)
        capsys.readouterr()
        assert main(["verify", CODE, "--plan", plan_file]) == 1
        out = capsys.readouterr().out.splitlines()
        assert [l for l in out if l.startswith("FAIL:")] == [f"FAIL: {f}" for f in fails]
        assert f"oracle:      {passed} passed, 0 failed" in out


def unknown_external_label(tmp_path, monkeypatch):
    data = json.loads(Path(TABLE).read_text())
    signs = data["classes"][0]["signs"]
    signs["Q99"] = signs.pop(next(iter(signs)))
    table = write_json(tmp_path / "table.json", data)
    return ["verify", CODE, "--external", table], "unknown error 'Q99'"


def plan_observable_out_of_range(tmp_path, monkeypatch):
    plan_file = tmp_path / "plan.json"
    assert main(["plan", CODE, "--out", str(plan_file)]) == 0
    data = json.loads(plan_file.read_text())
    data["classes"][0]["steps"][0]["observable"] = 99
    return ["verify", CODE, "--plan", write_json(plan_file, data)], "observable 99"


def qubit_count_as_string(tmp_path, monkeypatch):
    data = json.loads(Path(CODE).read_text())
    data["n"] = "10"
    return ["analyze", write_json(tmp_path / "code.json", data)], "'n' must be an integer"


def external_table_without_observables(tmp_path, monkeypatch):
    table = write_json(tmp_path / "table.json", {"classes": []})
    return ["verify", CODE, "--external", table], "missing field 'observables'"


def external_entry_without_name(tmp_path, monkeypatch):
    data = json.loads(Path(TABLE).read_text())
    del data["observables"][2]["name"]
    table = write_json(tmp_path / "table.json", data)
    return ["verify", CODE, "--external", table], "missing field 'observables[2].name'"


def external_class_without_observable(tmp_path, monkeypatch):
    data = json.loads(Path(TABLE).read_text())
    del data["classes"][1]["observable"]
    table = write_json(tmp_path / "table.json", data)
    return ["verify", CODE, "--external", table], "missing field 'classes[1].observable'"


def error_entry_not_string_or_object(tmp_path, monkeypatch):
    errors = write_json(tmp_path / "errors.json", {"errors": [5]})
    return ["plan", CODE, "--errors", errors], "error entry 0 must be a Pauli string"


def error_label_repeated(tmp_path, monkeypatch):
    errors = write_json(tmp_path / "errors.json", {"errors": ["ZIIIIIIIII", "XIIIIIIIII", "XIIIIIIIII"]})
    return ["plan", CODE, "--errors", errors], "labels must be unique, 'XIIIIIIIII' appears more than once"


def error_on_other_qubit_count(tmp_path, monkeypatch):
    errors = write_json(tmp_path / "errors.json", {"errors": ["XII"]})
    return ["plan", CODE, "--errors", errors], (
        f"invalid error file {errors}: error 'XII' acts on 3 qubits, expected 10")


def errors_not_list(tmp_path, monkeypatch):
    errors = write_json(tmp_path / "errors.json", {"errors": 5})
    return ["plan", CODE, "--errors", errors], f"invalid error file {errors}: errors must be a list, got 5"


def code_path_is_a_directory(tmp_path, monkeypatch):
    return ["analyze", str(tmp_path)], f"Is a directory: {str(tmp_path)!r}"


def plan_path_is_a_directory(tmp_path, monkeypatch):
    return ["verify", CODE, "--plan", str(tmp_path)], f"Is a directory: {str(tmp_path)!r}"


def plan_out_in_missing_directory(tmp_path, monkeypatch):
    out = str(tmp_path / "missing" / "plan.json")
    return ["plan", CODE, "--out", out], f"argument --out: {out!r} is not a file in a writable directory"


def plan_out_empty(tmp_path, monkeypatch):
    """An empty path names no file; the plan must not go to stdout instead."""
    return ["plan", CODE, "--out", ""], "error: argument --out: '' is not a file in a writable directory"


def plan_errors_empty(tmp_path, monkeypatch):
    """An empty path names no file; the plan must not fall back to the weight-one set."""
    return ["plan", CODE, "--errors", ""], "error: no such file: "


def plan_out_is_a_directory(tmp_path, monkeypatch):
    return ["plan", CODE, "--out", str(tmp_path)], f"argument --out: {str(tmp_path)!r} is not a file"


def json_nested_too_deep(tmp_path, monkeypatch):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000 + "]" * 100000)
    return ["analyze", str(path)], f"malformed JSON in {path}: "


def json_not_utf8(tmp_path, monkeypatch):
    path = tmp_path / "utf16.json"
    path.write_bytes(b"\xff\xfe{}")
    return ["analyze", str(path)], f"malformed JSON in {path}: "


def json_integer_too_long(tmp_path, monkeypatch):
    """The digit limit and its message differ across Python releases; the
    line need only name the file."""
    path = tmp_path / "digits.json"
    path.write_text('{"n": ' + "7" * 5000 + "}")
    return ["analyze", str(path)], str(path)


def usage(*argv: str, message: str):
    """A fault of the command line itself, found by the argument parser."""

    def fault(tmp_path, monkeypatch):
        return list(argv), message

    return fault


USAGE_FAULTS = {
    "mode_unknown": usage(
        "plan", CODE, "--mode", "bogus",
        message="argument --mode: invalid choice: 'bogus' (choose from 'corollary', 'exhaustive')"),
    "workers_not_integer": usage(
        "plan", CODE, "--workers", "x", message="argument --workers: invalid int value: 'x'"),
    "code_missing": usage("plan", message="the following arguments are required: code"),
    "subcommand_unknown": usage("bogus", message="argument subcommand: invalid choice: 'bogus'"),
    "verify_plan_and_external": usage(
        "verify", CODE, "--plan", "x", "--external", "y",
        message="argument --external: not allowed with argument --plan"),
    "verify_neither_plan_nor_external": usage(
        "verify", CODE, message="one of the arguments --plan --external is required"),
}


@functools.cache
def ring_plan_json() -> str:
    code, _ = cws.from_dict(json.loads(Path(CODE).read_text()))
    return json.dumps(build_decoding_plan(code, cws.ErrorSet.weight_one(code.n)).to_dict())


def shipped(kind: str):
    """A fresh copy of the shipped code, the ring plan or the shipped table."""
    text = {"code": Path(CODE).read_text(), "plan": ring_plan_json(), "table": Path(TABLE).read_text()}
    return json.loads(text[kind])


def argv_for(kind: str, path: str) -> list[str]:
    """The command that reads a file of this kind."""
    if kind == "code":
        return ["verify", path, "--external", TABLE]
    return ["verify", CODE, f"--{'plan' if kind == 'plan' else 'external'}", path]


FILE_NOUN = {"code": "invalid code file", "plan": "invalid plan file", "table": "invalid external table"}


def edited(kind: str, change, detail: str):
    """A fault made by ``change`` on a shipped file; ``change`` edits the
    data in place or returns its replacement.  The error line must name
    the file and carry ``detail``."""

    def fault(tmp_path, monkeypatch):
        data = shipped(kind)
        data = change(data) or data
        path = write_json(tmp_path / f"{kind}.json", data)
        return argv_for(kind, path), f"{FILE_NOUN[kind]} {path}: {detail}"

    return fault


def first_step(data):
    return data["classes"][1]["steps"][0]


EDITED_FAULTS = {
    "plan_top_level_list": edited("plan", lambda d: [d], "the top level must be an object"),
    "plan_errors_not_list": edited(
        "plan", lambda d: d.update(errors=5), "field 'errors' must be a list, got 5"),
    "plan_error_entry_not_object": edited(
        "plan", lambda d: d["errors"].__setitem__(0, 5), "field 'errors[0]' must be an object"),
    "plan_steps_not_list": edited(
        "plan", lambda d: d["classes"][1].update(steps=5), "field 'classes[1].steps' must be a list"),
    "plan_step_not_object": edited(
        "plan", lambda d: d["classes"][1]["steps"].__setitem__(0, 5),
        "field 'classes[1].steps[0]' must be an object"),
    "plan_class_signs_not_string": edited(
        "plan", lambda d: d["classes"][1].update(signs=5), "field 'classes[1].signs' must be a string"),
    "plan_pauli_observable_not_string": edited(
        "plan", lambda d: d.update(pauli_observables=[5]),
        "field 'pauli_observables[0]' must be a string"),
    "plan_observable_vector_not_string": edited(
        "plan", lambda d: d["type4_observables"][0].update(v=5),
        "field 'type4_observables[0].v' must be a string"),
    "plan_step_signs_miss_a_label": edited(
        "plan", lambda d: first_step(d)["signs"].pop(first_step(d)["applies_to"][0]) and None,
        "field 'classes[1].steps[0].signs' must name exactly the errors of applies_to"),
    "plan_step_sign_not_integer": edited(
        "plan", lambda d: first_step(d)["signs"].update(Z5="x"),
        "field 'classes[1].steps[0].signs.Z5' must be +1 or -1, got 'x'"),
    "plan_missing_field": edited("plan", lambda d: d.pop("errors") and None, "missing field 'errors'"),
    "plan_n_differs_from_code": edited("plan", lambda d: d.update(n=3), "field 'n' is 3, code has n=10"),
    "plan_unknown_mode": edited(
        "plan", lambda d: d.update(mode="banana"),
        "field 'mode' must be 'corollary' or 'exhaustive', got 'banana'"),
    "plan_resolved_with_no_unresolved_entry": edited(
        "plan", lambda d: d.update(resolved=False),
        "field 'resolved' must be true exactly when 'unresolved' is empty"),
    "plan_resolved_missing": edited(
        "plan", lambda d: d.pop("resolved") and None,
        "field 'resolved' must be true exactly when 'unresolved' is empty"),
    "plan_unresolved_class_out_of_range": edited(
        "plan", lambda d: d.update(unresolved=[{"class": 99, "members": ["X1"], "pairs_searched": 3}]),
        "field 'unresolved[0].class' refers to class 99, plan has 15 classes"),
    "plan_unresolved_member_outside_class": edited(
        "plan", lambda d: d.update(unresolved=[{"class": 0, "members": ["Y4", "Z5"], "pairs_searched": 3}]),
        "field 'unresolved[0].members' names 'Z5', not in class 0"),
    "plan_pauli_observable_wrong_length": edited(
        "plan", lambda d: d["pauli_observables"].__setitem__(0, "1"),
        "field 'pauli_observables[0]' has length 1, code has n=10"),
    "plan_observable_vectors_wrong_length": edited(
        "plan", lambda d: d["type4_observables"][0].update(v="00", v1="01", v2="10"),
        "field 'type4_observables[0].v' has length 2, code has n=10"),
    "plan_observable_vectors_unequal": edited(
        "plan", lambda d: d["type4_observables"][0].update(v="0"),
        "type4_observables[0]: v, v1, v2 must have equal length"),
    "table_pauli_observable_not_string": edited(
        "table", lambda d: {"observables": [], "pauli_observables": [5]},
        "field 'pauli_observables[0]': not a binary string: 5"),
    "table_pauli_observables_not_list": edited(
        "table", lambda d: d.update(pauli_observables=5), "field 'pauli_observables' must be a list"),
    "table_sign_not_integer": edited(
        "table", lambda d: d["classes"][0]["signs"].update(Y2="x"),
        "field 'classes[0].signs.Y2' must be +1 or -1, got 'x'"),
    "table_sign_two": edited(
        "table", lambda d: d["classes"][0]["signs"].update(Y2=2),
        "field 'classes[0].signs.Y2' must be +1 or -1, got 2"),
    "table_vector_not_string": edited(
        "table", lambda d: d["observables"][0].update(v=5),
        "field 'observables[0].v' must be a string, got 5"),
    "table_pauli_observable_wrong_length": edited(
        "table", lambda d: d["pauli_observables"].__setitem__(1, "1"),
        "field 'pauli_observables[1]' has length 1, code has n=10"),
    "table_observable_vectors_wrong_length": edited(
        "table", lambda d: d["observables"][1].update(v="00", v1="01", v2="10"),
        "field 'observables[1].v' has length 2, code has n=10"),
    "table_observable_name_repeated": edited(
        "table", lambda d: d["observables"].append(dict(d["observables"][0], v="0000000001")),
        "field 'observables[7].name' repeats observable 'A1'"),
    "table_unknown_observable": edited(
        "table", lambda d: d["classes"][0].update(observable="A9"),
        "class +++- names unknown observable 'A9'"),
    "code_codeword_not_string": edited(
        "code", lambda d: d.update(codewords=[5]), "not a binary string: 5"),
    "code_codeword_as_list": edited(
        "code", lambda d: d["codewords"].__setitem__(1, list(d["codewords"][1])),
        "not a binary string: ['1', '0'"),
    "code_adjacency_not_list": edited(
        "code", lambda d: d.update(adjacency=5), "field 'adjacency' must be a list, got 5"),
    "code_adjacency_rows_unequal": edited(
        "code", lambda d: d["adjacency"].__setitem__(0, d["adjacency"][0][:-1]),
        "rows have unequal lengths"),
    "code_no_codewords": edited(
        "code", lambda d: d.update(codewords=[]), "at least one codeword required"),
    "code_fewer_adjacency_rows_than_n": edited(
        "code", lambda d: d.update(n=3, adjacency=["011", "101"]), "adjacency has 2 rows but n=3"),
    "plan_class_member_unknown": edited(
        "plan", lambda d: d["classes"][0]["members"].__setitem__(0, "Q9"),
        "field 'classes[0].members[0]' names unknown error 'Q9'"),
    "plan_step_label_repeated": edited(
        "plan", lambda d: d["classes"][0]["steps"][0]["applies_to"].append("Y4"),
        "field 'classes[0].steps[0].applies_to[2]' repeats error 'Y4'"),
    "plan_class_signs_not_plus_minus": edited(
        "plan", lambda d: d["classes"][0].update(signs="+x+-"),
        "field 'classes[0].signs' must be a string of + and -, got '+x+-'"),
}


@pytest.mark.parametrize("fault", [
    unknown_external_label,
    plan_observable_out_of_range,
    qubit_count_as_string,
    external_table_without_observables,
    external_entry_without_name,
    external_class_without_observable,
    error_entry_not_string_or_object,
    error_label_repeated,
    error_on_other_qubit_count,
    errors_not_list,
    code_path_is_a_directory,
    plan_path_is_a_directory,
    plan_out_in_missing_directory,
    plan_out_empty,
    plan_errors_empty,
    plan_out_is_a_directory,
    json_nested_too_deep,
    json_not_utf8,
    json_integer_too_long,
    *(pytest.param(fault, id=name) for name, fault in {**EDITED_FAULTS, **USAGE_FAULTS}.items()),
])
def test_input_fault_exits_one_with_single_error_line(fault, tmp_path, monkeypatch, capsys):
    """Nothing reaches stdout: each fault is found before any report begins,
    and the ``--out`` faults before the search."""
    argv, message = fault(tmp_path, monkeypatch)
    capsys.readouterr()
    assert main(argv) == 1
    out, err = capsys.readouterr()
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert message in lines[0]
    assert out == ""


def readme_commands() -> list[str]:
    """The ``cwskit`` lines of the sh block under README's "Command line"."""
    text = (REPO / "README.md").read_text()
    block = re.search(r"^## Command line\n+```sh\n(.*?)^```", text, re.M | re.S).group(1)
    return [line for line in block.splitlines() if line.startswith("cwskit ")]


@pytest.mark.parametrize("line", readme_commands())
def test_readme_command_runs(line, tmp_path, monkeypatch, capsys):
    """Each README command exits 0, except the replay of the published table,
    which the README explains fails by design."""
    for name in ("codes", "fixtures"):
        shutil.copytree(REPO / name, tmp_path / name)
    monkeypatch.chdir(tmp_path)
    argv = shlex.split(line)[1:]
    if "--plan" in argv:  # the plan that the README's plan command writes
        assert main(["plan", argv[1], "--out", argv[argv.index("--plan") + 1]]) == 0
    expected = 1 if "fixtures/paper-table2.json" in argv else 0
    assert main(argv) == expected


def test_module_entry_point_runs_without_runtime_warning():
    env = dict(os.environ)
    src = str(REPO / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    result = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "cwskit.cli", "--help"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert "usage: cwskit" in result.stdout


def json_paths(node, path=()):
    """The path of every node of a JSON tree, the root first."""
    yield path
    if isinstance(node, (dict, list)):
        for key, child in (node.items() if isinstance(node, dict) else enumerate(node)):
            yield from json_paths(child, path + (key,))


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


@settings(max_examples=120, deadline=None)
@given(kind=st.sampled_from(["code", "plan", "table"]), data=st.data())
def test_mutated_input_exits_with_at_most_one_error_line(kind, data, tmp_path_factory):
    """Delete one key of a shipped file or replace one node with random
    JSON: ``main`` returns an exit code and stderr is empty or exactly one
    ``error:`` line.  The oracle is off, so only the algebra runs."""
    doc = shipped(kind)
    path = data.draw(st.sampled_from(list(json_paths(doc))), label="path")
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if path and isinstance(parent, dict) and data.draw(st.booleans(), label="delete"):
        del parent[path[-1]]
    elif path:
        parent[path[-1]] = data.draw(JSON_VALUES, label="value")
    else:
        doc = data.draw(JSON_VALUES, label="value")
    file = write_json(tmp_path_factory.mktemp("fuzz") / f"{kind}.json", doc)
    err = io.StringIO()
    with mock.patch.object(verify, "ORACLE_CAP", 0), \
            contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = main(argv_for(kind, file))
    assert isinstance(rc, int)
    lines = err.getvalue().splitlines()
    assert lines == [] or (len(lines) == 1 and lines[0].startswith("error: ")), lines


# Strings a JSON writer must escape: quotes, backslashes, control characters,
# non-ASCII, astral and lone surrogates, mixed with any other character.
JSON_TEXT = st.text(st.sampled_from('"\\/\x00\x1f\x7f\n\té€ \ud800\U0001f600') | st.characters(),
                    max_size=8)
PLAN_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(-2 ** 200, 2 ** 200) | JSON_TEXT,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(JSON_TEXT, inner, max_size=4),
    max_leaves=24,
)


@settings(max_examples=200, deadline=None)
@given(PLAN_VALUES)
@example({"b": [], "a": {}, "": [[], {}, [{}]], "c": {"d": [None, True, False, -0, -7]}})
def test_plan_writer_matches_indented_json_dumps(value):
    assert cli.json_text(value) == json.dumps(value, indent=2, sort_keys=True) + "\n"


def test_plan_writer_refuses_values_a_plan_does_not_hold():
    for value in (1.5, (1, 2), {1: "a"}, b"x"):
        with pytest.raises(TypeError):
            cli.json_text({"k": [value]})
