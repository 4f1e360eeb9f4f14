"""Command line front end.

Subcommands: ``analyze`` reports code structure and per-error
detectability, ``plan`` synthesizes a decoding plan (Pauli syndrome layer
plus conditional four-term refinements), ``verify`` replays a plan or an
externally supplied observable table through the algebraic checks and the
exact state-vector oracle.

Exit codes: 0 success, 1 input or contract error, 2 partial plan.  The
environment variable CWS_ORACLE_CAP overrides the default qubit cap of
the oracle.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from . import gf2, verify
from .cws import (
    CwsCode,
    ErrorSet,
    InvalidCodeError,
    code_fingerprint,
    detects,
    errors_from_entries,
    from_dict,
)
from .observables import (
    DecodingPlan,
    Type4Observable,
    UndetectableError,
    build_decoding_plan,
    eigenvalue_on_error,
    is_decoding_observable,
    pauli_normalizer_generators,
    pauli_syndrome_partition,
    stabilizes,
    syndrome_signs,
)


class CliError(Exception):
    """Input problem reported to the user without a traceback."""


@dataclass
class RunReport:
    command: str
    code_sha256: str
    payload: dict = field(default_factory=dict)
    oracle_passed: int = 0
    oracle_failed: int = 0
    wall_time_s: float = 0.0

    def print(self, stream=None) -> None:
        stream = stream if stream is not None else sys.stdout
        print(f"command:     {self.command}", file=stream)
        print(f"code sha256: {self.code_sha256}", file=stream)
        if self.oracle_passed or self.oracle_failed:
            print(
                f"oracle:      {self.oracle_passed} passed, {self.oracle_failed} failed",
                file=stream,
            )
        print(f"wall time:   {self.wall_time_s:.3f}s", file=stream)


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise CliError(f"no such file: {path}")
    except json.JSONDecodeError as exc:
        raise CliError(f"malformed JSON in {path} (line {exc.lineno}, column {exc.colno}): {exc.msg}")


def _load_code(path: str) -> tuple[CwsCode, ErrorSet | None]:
    data = _load_json(path)
    try:
        return from_dict(data)
    except (InvalidCodeError, ValueError) as exc:
        raise CliError(f"invalid code file {path}: {exc}")


def _resolve_errors(code: CwsCode, file_errors: ErrorSet | None, errors_path: str | None) -> ErrorSet:
    if errors_path:
        data = _load_json(errors_path)
        entries = data.get("errors") if isinstance(data, dict) else data
        try:
            return errors_from_entries(entries, code.n)
        except ValueError as exc:
            raise CliError(f"invalid error file {errors_path}: {exc}")
    if file_errors is not None:
        return file_errors
    return ErrorSet.weight_one(code.n)


def _check_external_table(data, path: str) -> None:
    """Reject an external table whose layout the checks cannot read."""

    def invalid(detail: str) -> CliError:
        return CliError(f"invalid external table {path}: {detail}")

    if not isinstance(data, dict) or not isinstance(data.get("observables"), list):
        raise invalid("needs an 'observables' list")
    for k, entry in enumerate(data["observables"]):
        if not isinstance(entry, dict) or not isinstance(entry.get("name"), str):
            raise invalid(f"observables[{k}] needs a string 'name'")
    classes = data.get("classes", [])
    if not isinstance(classes, list):
        raise invalid("'classes' must be a list")
    for k, cls in enumerate(classes):
        if not isinstance(cls, dict):
            raise invalid(f"classes[{k}] must be an object")
        for key, kind, noun in (
            ("observable", str, "a string"),
            ("syndrome", str, "a string"),
            ("signs", dict, "an object"),
        ):
            if not isinstance(cls.get(key), kind):
                raise invalid(f"classes[{k}] needs {noun} {key!r}")


def cmd_analyze(args) -> int:
    start = time.perf_counter()
    code, file_errors = _load_code(args.code)
    errors = _resolve_errors(code, file_errors, None)
    print(f"n = {code.n}, K = {code.num_codewords}")
    print("generators:")
    for i, g in enumerate(code.generators):
        print(f"  s_{i + 1} = {g}")
    print(f"codeword matrix rank: {gf2.rank(code.codewords)}")
    basis = pauli_normalizer_generators(code)
    print(f"pauli decoding observables (kernel basis, dimension {len(basis)}):")
    for i, o in enumerate(basis):
        print(f"  O_{i + 1} = {gf2.format_vector(o)}")
    undetected = 0
    print(f"detectability of {len(errors)} errors:")
    for label, e in errors:
        result = detects(code, e)
        mark = "detected" if result else "NOT DETECTED"
        extra = f" [{result.detail}]" if (result.degenerate or not result) else ""
        if not result:
            undetected += 1
        print(f"  {label:>6}: {mark}{extra}")
    report = RunReport(
        command="analyze",
        code_sha256=code_fingerprint(code),
        payload={"undetected": undetected},
        wall_time_s=time.perf_counter() - start,
    )
    report.print()
    return 0 if undetected == 0 else 1


def cmd_plan(args) -> int:
    start = time.perf_counter()
    code, file_errors = _load_code(args.code)
    errors = _resolve_errors(code, file_errors, args.errors)
    try:
        plan = build_decoding_plan(code, errors, mode=args.mode, workers=args.workers)
    except UndetectableError as exc:
        raise CliError(str(exc))
    print(plan.to_table())
    print()
    plan_json = json.dumps(plan.to_dict(), indent=2, sort_keys=True) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(plan_json)
        print(f"plan written to {args.out}")
    else:
        print(plan_json, end="")
    report = RunReport(
        command="plan",
        code_sha256=plan.code_sha256,
        payload={
            "classes": len(plan.classes),
            "type4_observables": len(plan.type4_observables),
            "unresolved": len(plan.unresolved),
        },
        wall_time_s=time.perf_counter() - start,
    )
    report.print()
    return 0 if plan.complete else 2


def _oracle_states(code: CwsCode):
    try:
        cap = verify.oracle_cap()
    except ValueError:
        raise CliError(
            f"{verify.ORACLE_CAP_ENV} must be an integer, "
            f"got {os.environ[verify.ORACLE_CAP_ENV]!r}"
        )
    try:
        return verify.codeword_states(code, cap=cap)
    except verify.OracleCapExceeded as exc:
        print(f"warning: oracle skipped ({exc})")
        return None


def _check_observable_on_errors(
    code: CwsCode,
    states,
    obs: Type4Observable,
    errors: ErrorSet,
    indices: list[int],
    expected: dict[int, int],
    failures: list[str],
    name: str,
) -> tuple[int, int]:
    """Algebraic and oracle sign checks; returns (passed, failed) oracle counts."""
    passed = failed = 0
    subset = errors.subset(indices)
    if not is_decoding_observable(code, subset, obs):
        failures.append(f"{name}: leaks on {{{', '.join(subset.labels)}}}")
        return passed, failed
    element = verify.type4_element(code, obs) if states is not None else None
    for i in indices:
        sign = eigenvalue_on_error(code, obs, errors.errors[i])
        label = errors.labels[i]
        if expected and sign != expected[i]:
            failures.append(
                f"{name}: sign on {label} is {sign:+d}, expected {expected[i]:+d}"
            )
        if states is None:
            continue
        corrupted = [verify.apply(errors.errors[i], s) for s in states]
        for state in corrupted:
            lam = verify.eigencheck(element, state)
            if lam == sign:
                passed += 1
            else:
                failed += 1
                failures.append(
                    f"{name}: oracle eigenvalue {lam} != {sign:+d} on a {label} state"
                )
    return passed, failed


def cmd_verify(args) -> int:
    start = time.perf_counter()
    code, file_errors = _load_code(args.code)
    if bool(args.plan) == bool(args.external):
        raise CliError("verify needs exactly one of --plan or --external")
    failures: list[str] = []
    oracle_passed = oracle_failed = 0
    if args.plan:
        data = _load_json(args.plan)
        try:
            plan = DecodingPlan.from_dict(data)
        except (KeyError, ValueError) as exc:
            raise CliError(f"invalid plan file {args.plan}: {exc}")
        fingerprint = code_fingerprint(code)
        if plan.code_sha256 != fingerprint:
            raise CliError(
                f"plan was computed from code {plan.code_sha256[:12]}..., "
                f"given code is {fingerprint[:12]}...; refusing to verify"
            )
        errors = errors_from_entries(
            [{"label": l, "pauli": p} for l, p in zip(plan.error_labels, plan.error_paulis)],
            code.n,
        )
        if not any(plan.refinements) and not plan.type4_observables:
            if all(len(c.members) <= 1 for c in plan.classes):
                print("warning: plan has no refinements to verify (vacuous pass)")
            report = RunReport("verify", fingerprint, wall_time_s=time.perf_counter() - start)
            report.print()
            return 0
        states = _oracle_states(code)
        syndromes = syndrome_signs(code, errors, plan.pauli_observables)
        for cls in plan.classes:
            for i in cls.members:
                if syndromes[i] != cls.signs:
                    failures.append(
                        f"class {cls.signs}: member {errors.labels[i]}"
                        f" has syndrome {syndromes[i]}"
                    )
        for ci, steps in enumerate(plan.refinements):
            for step in steps:
                obs = plan.type4_observables[step.observable]
                p, f = _check_observable_on_errors(
                    code, states, obs, errors, step.applies_to, step.signs,
                    failures, f"class {ci} observable A{step.observable + 1}",
                )
                oracle_passed += p
                oracle_failed += f
    else:
        data = _load_json(args.external)
        _check_external_table(data, args.external)
        errors = _resolve_errors(code, file_errors, None)
        label_index = {l: i for i, l in enumerate(errors.labels)}
        named: dict[str, Type4Observable] = {}
        per_entry: dict[str, list[str]] = {}
        for entry in data["observables"]:
            name = entry["name"]
            per_entry[name] = []
            try:
                named[name] = Type4Observable.from_dict(entry)
            except ValueError as exc:
                per_entry[name].append(f"invalid observable: {exc}")
        states = _oracle_states(code)
        for name, obs in named.items():
            if not stabilizes(code, obs):
                per_entry[name].append("does not stabilize the code")
        if "pauli_observables" in data:
            layer = [gf2.parse_vector(s) for s in data["pauli_observables"]]
            partition = {
                "".join("+" if s == 1 else "-" for s in cls.signs): sorted(
                    errors.labels[i] for i in cls.members
                )
                for cls in pauli_syndrome_partition(code, errors, layer)
            }
        else:
            partition = None
        for cls in data.get("classes", []):
            name = cls["observable"]
            syndrome = cls["syndrome"]
            members = list(cls["signs"])
            unknown = [l for l in members if l not in label_index]
            if unknown:
                raise CliError(
                    f"invalid external table {args.external}: class {syndrome}"
                    f" names unknown error {unknown[0]!r}"
                )
            if name not in named:
                continue
            if partition is not None and partition.get(syndrome) != sorted(members):
                failures.append(
                    f"{syndrome}: expected members {sorted(members)}, "
                    f"partition gives {partition.get(syndrome)}"
                )
            indices = [label_index[l] for l in members]
            expected = {label_index[l]: s for l, s in cls["signs"].items()}
            p, f = _check_observable_on_errors(
                code, states, named[name], errors, indices, expected,
                per_entry[name], f"class {syndrome}",
            )
            oracle_passed += p
            oracle_failed += f
        print("external observables:")
        for name, messages in per_entry.items():
            obs = named.get(name)
            if obs is None:
                print(f"  {name}: INVALID")
            else:
                print(f"  {name}: v={gf2.format_vector(obs.v)} "
                      f"v1={gf2.format_vector(obs.v1)} v2={gf2.format_vector(obs.v2)} "
                      f"{'ok' if not messages else 'INVALID'}")
            failures.extend(f"{name}: {msg}" for msg in messages)
    for line in failures:
        print(f"FAIL: {line}")
    report = RunReport(
        command="verify",
        code_sha256=code_fingerprint(code),
        payload={"failures": len(failures)},
        oracle_passed=oracle_passed,
        oracle_failed=oracle_failed,
        wall_time_s=time.perf_counter() - start,
    )
    report.print()
    return 0 if not failures else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cwskit",
        description="CWS codes: analysis, decoding-plan synthesis, verification",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_analyze = sub.add_parser("analyze", help="report code structure and detectability")
    p_analyze.add_argument("code", help="code definition JSON")
    p_analyze.set_defaults(func=cmd_analyze)

    p_plan = sub.add_parser("plan", help="synthesize a decoding plan")
    p_plan.add_argument("code", help="code definition JSON")
    p_plan.add_argument("--errors", help="JSON file with Pauli error strings")
    p_plan.add_argument(
        "--mode", choices=("corollary", "exhaustive"), default="corollary",
        help="candidate space for the pair search",
    )
    p_plan.add_argument(
        "--workers", type=int, default=1,
        help="accepted for compatibility; the pair scan is serial and the flag"
        " changes neither the result nor the scan",
    )
    p_plan.add_argument("--out", help="write the plan JSON here")
    p_plan.add_argument(
        "--seed", type=int, default=None,
        help="reserved for future randomized strategies; the search is deterministic and ignores it",
    )
    p_plan.set_defaults(func=cmd_plan)

    p_verify = sub.add_parser("verify", help="verify a plan or an external table")
    p_verify.add_argument("code", help="code definition JSON")
    p_verify.add_argument("--plan", help="plan JSON produced by the plan subcommand")
    p_verify.add_argument("--external", help="externally supplied observable table JSON")
    p_verify.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (InvalidCodeError, UndetectableError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
