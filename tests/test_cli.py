import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cwskit.cli import main
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

    def test_seed_flag_accepted_and_ignored(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["plan", CODE, "--seed", "7", "--out", str(a)]) == 0
        assert main(["plan", CODE, "--seed", "8", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_serial_and_parallel_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["plan", CODE, "--workers", "1", "--out", str(a)]) == 0
        assert main(["plan", CODE, "--workers", "8", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


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

    def test_requires_exactly_one_source(self, capsys):
        assert main(["verify", CODE]) == 1
        assert main(["verify", CODE, "--plan", "x", "--external", "y"]) == 1

    def test_oracle_cap_env_skips_dense_checks(self, tmp_path, capsys, monkeypatch):
        plan_file = tmp_path / "plan.json"
        assert main(["plan", CODE, "--out", str(plan_file)]) == 0
        monkeypatch.setenv("CWS_ORACLE_CAP", "6")
        assert main(["verify", CODE, "--plan", str(plan_file)]) == 0
        out = capsys.readouterr().out
        assert "oracle skipped" in out


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


def oracle_cap_not_an_integer(tmp_path, monkeypatch):
    plan_file = tmp_path / "plan.json"
    assert main(["plan", CODE, "--out", str(plan_file)]) == 0
    monkeypatch.setenv("CWS_ORACLE_CAP", "x")
    return ["verify", CODE, "--plan", str(plan_file)], "CWS_ORACLE_CAP must be an integer"


def external_table_without_observables(tmp_path, monkeypatch):
    table = write_json(tmp_path / "table.json", {"classes": []})
    return ["verify", CODE, "--external", table], "needs an 'observables' list"


def external_entry_without_name(tmp_path, monkeypatch):
    data = json.loads(Path(TABLE).read_text())
    del data["observables"][2]["name"]
    table = write_json(tmp_path / "table.json", data)
    return ["verify", CODE, "--external", table], "observables[2] needs a string 'name'"


def external_class_without_observable(tmp_path, monkeypatch):
    data = json.loads(Path(TABLE).read_text())
    del data["classes"][1]["observable"]
    table = write_json(tmp_path / "table.json", data)
    return ["verify", CODE, "--external", table], "classes[1] needs a string 'observable'"


def error_entry_not_string_or_object(tmp_path, monkeypatch):
    errors = write_json(tmp_path / "errors.json", {"errors": [5]})
    return ["plan", CODE, "--errors", errors], "error entry 0 must be a Pauli string"


@pytest.mark.parametrize("fault", [
    unknown_external_label,
    plan_observable_out_of_range,
    qubit_count_as_string,
    oracle_cap_not_an_integer,
    external_table_without_observables,
    external_entry_without_name,
    external_class_without_observable,
    error_entry_not_string_or_object,
])
def test_input_fault_exits_one_with_single_error_line(fault, tmp_path, monkeypatch, capsys):
    argv, message = fault(tmp_path, monkeypatch)
    capsys.readouterr()
    assert main(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert message in err[0]


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
