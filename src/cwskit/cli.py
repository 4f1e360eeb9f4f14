"""Command line front end.

Subcommands: ``analyze`` reports code structure and per-error
detectability, ``plan`` synthesizes a decoding plan (Pauli syndrome layer
plus conditional four-term refinements), ``verify`` replays a plan or an
externally supplied observable table through the algebraic checks and the
exact state-vector oracle.

Exit codes: 0 success, 1 usage, input or contract fault, 2 partial plan.
Every usage or input fault, from the argument parser or from a reader,
reaches ``main`` as a ``ValueError`` or ``OSError`` and ends the run with
one ``error:`` line on stderr; ``--help`` alone exits 0.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from collections import namedtuple

from . import gf2
from .cws import (
    CwsCode,
    ErrorSet,
    classical_word,
    code_fingerprint,
    detects,
    errors_from_entries,
    from_dict,
    json_binary,
    json_field,
    json_list,
    json_sign,
    json_value,
)
from .observables import (
    MODES,
    DecodingPlan,
    Type4Observable,
    build_decoding_plan,
    eigenvalues,
    sign_string,
    stabilizes,
    syndrome_classes,
)


def _report(command: str, code_sha256: str, start: float, passed: int = 0, failed: int = 0) -> None:
    """The closing lines of every command; the oracle line only when it ran."""
    print(f"command:     {command}")
    print(f"code sha256: {code_sha256}")
    if passed or failed:
        print(f"oracle:      {passed} passed, {failed} failed")
    print(f"wall time:   {time.perf_counter() - start:.3f}s")


def _unique_keys(pairs: list) -> dict:
    """An object's pairs as a dict; a key given twice is a ValueError, where
    ``json`` would keep the last value without a word."""
    obj = dict(pairs)
    if len(obj) != len(pairs):
        keys = [k for k, _ in pairs]
        repeated = next(k for i, k in enumerate(keys) if k in keys[:i])
        raise ValueError(f"repeated key {repeated!r}")
    return obj


def _load_json(path: str) -> dict:
    """The JSON value of a UTF-8 file (RFC 8259); any decoding fault,
    nesting too deep, an integer too long or a key repeated in one object
    included, is one ValueError that names the file."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh, object_pairs_hook=_unique_keys)
    except FileNotFoundError:
        raise ValueError(f"no such file: {path}")
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed JSON in {path} (line {exc.lineno}, column {exc.colno}): {exc.msg}")
    except (RecursionError, ValueError) as exc:
        raise ValueError(f"malformed JSON in {path}: {exc}")


def _load_code(path: str) -> tuple[CwsCode, ErrorSet | None]:
    data = _load_json(path)
    try:
        return from_dict(data)
    except ValueError as exc:
        raise ValueError(f"invalid code file {path}: {exc}")


def _resolve_errors(code: CwsCode, file_errors: ErrorSet | None, errors_path: str | None) -> ErrorSet:
    if errors_path is not None:
        data = _load_json(errors_path)
        entries = data.get("errors") if isinstance(data, dict) else data
        try:
            return errors_from_entries(entries, code.n)
        except ValueError as exc:
            raise ValueError(f"invalid error file {errors_path}: {exc}")
    if file_errors is not None:
        return file_errors
    return ErrorSet.weight_one(code.n)


def cmd_analyze(args) -> int:
    start = time.perf_counter()
    code, file_errors = _load_code(args.code)
    errors = _resolve_errors(code, file_errors, None)
    print(f"n = {code.n}, K = {code.num_codewords}")
    print("generators:")
    for i, g in enumerate(code.generators):
        print(f"  s_{i + 1} = {g}")
    print(f"codeword matrix rank: {len(code.c_factor.pivots)}")
    basis = code.c_factor.int_kernel()  # pauli_normalizer_generators, packed
    print(f"pauli decoding observables (kernel basis, dimension {len(basis)}):")
    for i, o in enumerate(basis):
        print(f"  O_{i + 1} = {gf2.format_int(o, code.n)}")
    undetected = 0
    print(f"detectability of {len(errors)} errors:")
    for label, e in errors:
        result = detects(code, e)
        mark = "detected" if result else "NOT DETECTED"
        extra = f" [{result.detail}]" if (result.degenerate or not result) else ""
        if not result:
            undetected += 1
        print(f"  {label:>6}: {mark}{extra}")
    _report("analyze", code_fingerprint(code), start)
    return 0 if undetected == 0 else 1


_quote = json.encoder.encode_basestring_ascii  # the C routine, when the json module has it


def json_text(value) -> str:
    """``json.dumps(value, indent=2, sort_keys=True) + "\\n"`` for what a plan
    holds: dicts with string keys, lists, strings, ints, bools and None.

    ``json.dumps`` runs its pure-Python encoder whenever it indents; this
    writes the same bytes, quoting every string with the C encoder."""
    parts: list[str] = []

    def emit(v, indent: str) -> None:
        if isinstance(v, str):
            parts.append(_quote(v))
        elif v is None or v is True or v is False:
            parts.append("null" if v is None else "true" if v else "false")
        elif isinstance(v, int):
            parts.append(int.__repr__(v))
        elif isinstance(v, dict) and v:
            inner = indent + "  "
            sep, comma = "{\n" + inner, ",\n" + inner
            for key in sorted(v):
                parts.extend((sep, _quote(key), ": "))
                emit(v[key], inner)
                sep = comma
            parts.append("\n" + indent + "}")
        elif isinstance(v, list) and v:
            inner = indent + "  "
            sep, comma = "[\n" + inner, ",\n" + inner
            for item in v:
                parts.append(sep)
                emit(item, inner)
                sep = comma
            parts.append("\n" + indent + "]")
        elif isinstance(v, (dict, list)):
            parts.append("{}" if isinstance(v, dict) else "[]")
        else:
            raise TypeError(f"{type(v).__name__} is not a plan JSON value")

    emit(value, "")
    parts.append("\n")
    return "".join(parts)


def cmd_plan(args) -> int:
    start = time.perf_counter()
    code, file_errors = _load_code(args.code)
    errors = _resolve_errors(code, file_errors, args.errors)
    plan = build_decoding_plan(code, errors, mode=args.mode)
    print(plan.to_table())
    print()
    plan_json = json_text(plan.to_dict())
    if args.out is not None:
        with open(args.out, "w") as fh:
            fh.write(plan_json)
        print(f"plan written to {args.out}")
    else:
        print(plan_json, end="")
    _report("plan", plan.code_sha256, start)
    return 0 if plan.complete else 2


class Claim(namedtuple("Claim", "owner name observable signs")):
    """Expected eigenvalues of one four-term observable on some errors:
    ``signs`` maps an error index to its eigenvalue, in check order.
    Failures read "{name}: ..."; a table's are grouped by entry (owner)."""

    __slots__ = ()


class Claims(namedtuple("Claims", "errors layer classes observables entries faults",
                        defaults=(None, ()))):
    """What ``verify`` checks, read from a plan or an external table.
    ``classes`` (syndrome, member indices) are checked against the partition
    under ``layer`` (packed exponents), if given.  ``entries`` maps a table's
    observable names to the observable or to the ValueError that made it
    invalid.  ``faults`` are failures found while reading, such as a plan
    class left unsplit."""

    __slots__ = ()


def _check_lengths(n: int, vectors) -> None:
    """ValueError naming the first (JSON path, 0/1 string) pair not of length n."""
    for at, v in vectors:
        if len(v) != n:
            raise ValueError(f"field {at!r} has length {len(v)}, code has n={n}")


def _read_plan(code: CwsCode, fingerprint: str, path: str) -> Claims:
    data = _load_json(path)
    try:
        plan = DecodingPlan.from_dict(data)
    except ValueError as exc:
        raise ValueError(f"invalid plan file {path}: {exc}")
    if plan.code_sha256 != fingerprint:
        raise ValueError(
            f"plan was computed from code {plan.code_sha256[:12]}..., "
            f"given code is {fingerprint[:12]}...; refusing to verify"
        )
    try:
        if plan.n != code.n:
            raise ValueError(f"field 'n' is {plan.n}, code has n={code.n}")
        _check_lengths(code.n, [  # on the strings: the plan holds its vectors packed
            *((f"pauli_observables[{k}]", o) for k, o in enumerate(data["pauli_observables"])),
            *((f"type4_observables[{k}].{key}", a[key])
              for k, a in enumerate(data["type4_observables"]) for key in ("v", "v1", "v2")),
        ])
        errors = errors_from_entries(
            [{"label": l, "pauli": p} for l, p in zip(plan.error_labels, plan.error_paulis)],
            code.n,
        )
    except ValueError as exc:
        raise ValueError(f"invalid plan file {path}: {exc}")

    def named(group) -> str:
        return f"{{{', '.join(errors.labels[i] for i in sorted(group))}}}"

    # Replay each class's refinement tree: every step splits a group the steps before it left
    # together, and each group of two or more errors left at the end is one unresolved entry.
    claims, faults = [], []
    for ci, (c, steps) in enumerate(zip(plan.classes, plan.refinements)):
        groups = {frozenset(c.members)}
        for j, step in enumerate(steps):
            claims.append(Claim(None, f"class {ci} observable A{step.observable + 1}",
                                plan.type4_observables[step.observable],
                                {i: step.signs[i] for i in step.applies_to}))
            group = frozenset(step.applies_to)
            halves = {frozenset(i for i in group if step.signs[i] == s) for s in (1, -1)}
            if group not in groups:
                faults.append(f"class {ci}: step {j} applies to {named(group)},"
                              " which is not a group that the steps before it leave together")
            elif frozenset() in halves:
                faults.append(f"class {ci}: step {j} gives {named(group)} one sign only")
            else:
                groups = (groups - {group}) | halves
        stuck = [frozenset(u.members) for u in plan.unresolved if u.class_index == ci]
        faults.extend(f"class {ci}: unresolved entry {named(g)} is not a group of two or more"
                      " errors that the steps leave together"
                      for k, g in enumerate(stuck) if len(g) < 2 or g not in groups or g in stuck[:k])
        faults.extend(f"class {ci}: no step or unresolved entry separates {named(g)}"
                      for g in sorted(groups, key=sorted) if len(g) > 1 and g not in stuck)
    faults.extend(f"type4_observables[{k}] is used by no step"
                  for k, count in enumerate(plan.observable_class_counts()) if not count)
    if not claims and not plan.type4_observables and all(len(c.members) < 2 for c in plan.classes):
        print("warning: plan has no refinements to verify (vacuous pass)")
    classes = [(sign_string(c.signs), c.members) for c in plan.classes]
    return Claims(errors, plan.pauli_observables, classes, claims, faults=tuple(faults))


def _read_table(code: CwsCode, file_errors: ErrorSet | None, path: str) -> Claims:
    """Read an external table; its labels name errors of the code file's
    error set, or of the weight-1 set when the code file has none."""
    data = _load_json(path)
    errors = _resolve_errors(code, file_errors, None)
    label_index = {l: i for i, l in enumerate(errors.labels)}
    entries: dict[str, Type4Observable | ValueError] = {}
    layer, classes, claims = None, [], []
    try:
        json_value(data, dict, "")
        for at, entry in json_list(data, "observables", dict):
            name = json_field(entry, "name", str, at)
            if name in entries:
                raise ValueError(f"field {at + '.name'!r} repeats observable {name!r}")
            for key in ("v", "v1", "v2"):
                json_value(entry.get(key, ""), str, f"{at}.{key}")
            try:
                obs = Type4Observable.from_dict(entry)
            except ValueError as exc:
                entries[name] = exc
                continue
            _check_lengths(code.n, ((f"{at}.{key}", entry[key]) for key in ("v", "v1", "v2")))
            entries[name] = obs
        if "pauli_observables" in data:
            vectors = json_field(data, "pauli_observables", list)
            strings = [json_binary(o, f"pauli_observables[{k}]") for k, o in enumerate(vectors)]
            _check_lengths(code.n, ((f"pauli_observables[{k}]", o) for k, o in enumerate(strings)))
            layer = [int(o, 2) for o in strings]
        for at, cls in json_list(data, "classes", dict) if "classes" in data else []:
            name, syndrome, given = (json_field(cls, key, kind, at) for key, kind in
                                     (("observable", str), ("syndrome", str), ("signs", dict)))
            unknown = [l for l in given if l not in label_index]
            if unknown:
                raise ValueError(f"class {syndrome} names unknown error {unknown[0]!r}")
            if name not in entries:
                raise ValueError(f"class {syndrome} names unknown observable {name!r}")
            signs = {label_index[l]: json_sign(s, f"{at}.signs.{l}") for l, s in given.items()}
            classes.append((syndrome, list(signs)))
            if isinstance(entries[name], Type4Observable):
                claims.append(Claim(name, f"class {syndrome}", entries[name], signs))
    except ValueError as exc:
        raise ValueError(f"invalid external table {path}: {exc}")
    return Claims(errors, layer, classes, claims, entries)


def cmd_verify(args) -> int:
    from . import verify  # the dense oracle, and numpy with it, load for verify alone

    start = time.perf_counter()
    code, file_errors = _load_code(args.code)
    fingerprint = code_fingerprint(code)
    if args.plan is not None:
        claims = _read_plan(code, fingerprint, args.plan)
    else:
        claims = _read_table(code, file_errors, args.external)
    errors = claims.errors
    words = [classical_word(code, e) for e in errors.errors]  # read by the partition and the signs
    failures: list[str] = []
    if claims.layer is not None:
        # a layer element S^O must commute with every codeword operator Z^(C_i): C O = 0
        for k, o in enumerate(claims.layer):
            disturbed = gf2.int_matvec(code.codeword_rows, o)  # bit K - 1 - i: C_i
            if disturbed:
                failures.append(f"pauli_observables[{k}] anticommutes with codeword operator"
                                f" C_{code.num_codewords - disturbed.bit_length() + 1}")
        partition = {
            sign_string(cls.signs): sorted(errors.labels[i] for i in cls.members)
            for cls in syndrome_classes(words, claims.layer)
        }
        for syndrome, members in claims.classes:
            expected = sorted(errors.labels[i] for i in members)
            if partition.get(syndrome) != expected:
                failures.append(
                    f"{syndrome}: expected members {expected}, "
                    f"partition gives {partition.get(syndrome)}"
                )
        if args.plan is not None:  # a plan lists every class of the partition once
            listed = [syndrome for syndrome, _ in claims.classes]
            failures.extend(f"{s}: the plan lists the partition's class {m} {listed.count(s)}"
                            " times, not once" for s, m in partition.items() if listed.count(s) != 1)
    failures.extend(claims.faults)
    notes: dict[str | None, list[str]] = {}
    for name, obs in (claims.entries or {}).items():
        if isinstance(obs, ValueError):
            notes[name] = [f"invalid observable: {obs}"]
        else:
            notes[name] = [] if stabilizes(code, obs) else ["does not stabilize the code"]
    states = []
    if claims.observables:
        if code.n > verify.ORACLE_CAP:
            print(f"warning: oracle skipped (n={code.n} exceeds oracle cap {verify.ORACLE_CAP})")
        else:
            states = verify.codeword_states(code)
    oracle_passed = oracle_failed = 0
    for claim in claims.observables:
        out = notes.setdefault(claim.owner, [])
        obs = claim.observable
        signs = eigenvalues(code, [words[i] for i in claim.signs], obs)
        if not all(signs):
            labels = ", ".join(errors.labels[i] for i in claim.signs)
            out.append(f"{claim.name}: leaks on {{{labels}}}")
            continue
        element = verify.type4_element(code, obs)
        for (i, expected), sign in zip(claim.signs.items(), signs):
            label = errors.labels[i]
            if sign != expected:
                out.append(f"{claim.name}: sign on {label} is {sign:+d}, expected {expected:+d}")
            for state in states:
                lam = verify.eigencheck(element, verify.apply(errors.errors[i], state))
                if lam == sign:
                    oracle_passed += 1
                else:
                    oracle_failed += 1
                    out.append(f"{claim.name}: oracle eigenvalue {lam} != {sign:+d} on a {label} state")
    if claims.entries is not None:
        print("external observables:")
        for name, obs in claims.entries.items():
            vectors = "" if isinstance(obs, ValueError) else "".join(
                f"{key}={value} " for key, value in obs.to_dict().items() if key != "sign"
            )
            print(f"  {name}: {vectors}{'INVALID' if notes[name] else 'ok'}")
    for owner, messages in notes.items():
        failures.extend(m if owner is None else f"{owner}: {m}" for m in messages)
    for line in failures:
        print(f"FAIL: {line}")
    _report("verify", fingerprint, start, oracle_passed, oracle_failed)
    return 0 if not failures else 1


def _out_path(path: str) -> str:
    """``plan --out``, checked as the arguments are parsed, before any search."""
    if not path or os.path.isdir(path) or not os.access(os.path.dirname(path) or ".", os.W_OK):
        raise argparse.ArgumentTypeError(f"{path!r} is not a file in a writable directory")
    return path


class _Parser(argparse.ArgumentParser):  # subparsers inherit the class
    def error(self, message):  # a usage fault reaches main as a ValueError, not as exit 2
        raise ValueError(message)


@functools.cache  # parse_args fills a fresh namespace, so one parser serves every call
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
        "--mode", choices=MODES, default="corollary",
        help="candidate space for the pair search",
    )
    p_plan.add_argument(
        "--workers", type=int, default=1,
        help="ignored: the pair scan is serial; still accepted so that existing"
        " command lines parse, and due to be removed",
    )
    p_plan.add_argument("--out", type=_out_path, help="write the plan JSON here")
    p_plan.set_defaults(func=cmd_plan)

    p_verify = sub.add_parser("verify", help="verify a plan or an external table")
    p_verify.add_argument("code", help="code definition JSON")
    source = p_verify.add_mutually_exclusive_group(required=True)
    source.add_argument("--plan", help="plan JSON produced by the plan subcommand")
    source.add_argument("--external", help="externally supplied observable table JSON")
    p_verify.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (ValueError, OSError) as exc:  # every usage fault and every input fault the readers find
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
