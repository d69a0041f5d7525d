"""Correctness gate for every command the benchmark runs.

Each check returns a list of problems; an empty list means the output is
accepted.  The pinned values are exact results of the paper's certificate
that no optimisation may change.
"""

from __future__ import annotations

import hashlib
import json
import os

# U_n at q = 2, as the rational part of a + b * sqrt(q) (b is 0).
PINNED_U = {2: {0: "1", 2: "6/5", 4: "1062/875"}}
# |C_n| per field size and even length n.
PINNED_SPHERES = {2: {0: 6, 2: 36, 4: 270, 6: 1440}, 3: {0: 24, 2: 384, 4: 5856}}
BASE_IDENTITY_TOL = 1e-6

SCHEMA_OF_COMMAND = {"spheres": "sphere-table.schema.json", "report": "verdict.schema.json"}
ENVELOPE_SCHEMA = "envelope.schema.json"


def options(args) -> dict:
    """The ``--name value`` pairs of an rrdlab argument list, with the CLI's
    default field size."""
    found = {"q": 2}
    for flag, value in zip(args, args[1:]):
        if flag.startswith("--"):
            found[flag[2:].replace("-", "_")] = int(value) if value.lstrip("-").isdigit() else value
    return found


class Validators:
    """One jsonschema validator per schema file under ``schemas/``."""

    def __init__(self, schema_dir: str):
        import jsonschema  # required: a missing package fails the run, never skips the check

        self._by_file = {}
        for name in os.listdir(schema_dir):
            if name.endswith(".schema.json"):
                with open(os.path.join(schema_dir, name)) as handle:
                    schema = json.load(handle)
                cls = jsonschema.validators.validator_for(schema)
                self._by_file[name] = cls(schema)

    def problems(self, command: str, doc) -> list[str]:
        validator = self._by_file[SCHEMA_OF_COMMAND.get(command, ENVELOPE_SCHEMA)]
        return [
            f"schema: {'/'.join(map(str, e.absolute_path))}: {e.message}"
            for e in validator.iter_errors(doc)
        ][:5]


def _false_pass_flags(doc, path="") -> list[str]:
    found = []
    if isinstance(doc, dict):
        for key, value in doc.items():
            if key == "pass" and value is not True:
                found.append(f"pass flag {path or '/'} is {value!r}")
            found += _false_pass_flags(value, f"{path}/{key}")
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            found += _false_pass_flags(value, f"{path}/{i}")
    return found


def _sphere_size_problems(q: int, sizes: dict[int, int], where: str) -> list[str]:
    pins = PINNED_SPHERES.get(q, {})
    return [
        f"{where}: |C_{n}| = {size} at q = {q}, expected {pins[n]}"
        for n, size in sorted(sizes.items())
        if n in pins and size != pins[n]
    ]


def _u_problems(q: int, n: int, triple, where: str) -> list[str]:
    pin = PINNED_U.get(q, {}).get(n)
    if pin is None:
        return []
    expected = [pin, "0", q]
    if list(triple) != expected:
        return [f"{where}: U_{n} = {triple}, expected {expected}"]
    return []


def _base_identity_problems(q: int, value: float, where: str) -> list[str]:
    if abs(value - (q**3 - q)) > BASE_IDENTITY_TOL:
        return [f"{where}: base identity {value}, expected q^3 - q = {q**3 - q}"]
    return []


def growth_problems(ball_sizes, where: str) -> list[str]:
    """Recompute |B(3n+1)| >= 2^(n+1) for every n the radii reach; the
    program's ``rd_failure_flag`` is not trusted."""
    if not ball_sizes or ball_sizes[0] != 1:
        return [f"{where}: ball sizes must start with 1"]
    problems = [
        f"{where}: |B({3 * n + 1})| = {ball_sizes[3 * n + 1]} < 2^{n + 1}"
        for n in range((len(ball_sizes) - 2) // 3 + 1)
        if ball_sizes[3 * n + 1] < 2 ** (n + 1)
    ]
    if len(ball_sizes) < 2:
        problems.append(f"{where}: no radius reaches a growth check")
    return problems


def _pinned_problems(command: str, opts: dict, doc: dict) -> list[str]:
    q = opts["q"]
    problems = []
    if command == "spheres":
        sizes = {int(n): len(texts) for n, texts in doc["buckets"].items()}
        problems += _sphere_size_problems(q, sizes, "spheres")
        expected = {n for n in PINNED_SPHERES.get(q, {}) if n <= opts["max_length"]}
        if not expected <= set(sizes):
            problems.append(f"spheres: buckets {sorted(sizes)} miss {sorted(expected - set(sizes))}")
    elif command == "report":
        for row in doc["condition2"]["rows"]:
            problems += _u_problems(q, row["n"], row["value"], "condition2")
            problems += _sphere_size_problems(q, {row["n"]: row["sphere_size"]}, "condition2")
        for row in doc["condition1"]["rows"]:
            problems += _sphere_size_problems(q, {row["n"]: row["sphere_size"]}, "condition1")
        base = doc["convolution"]["base_identity"]
        if base is None:
            problems.append("convolution: no base identity row")
        else:
            problems += _base_identity_problems(q, base["value"], "convolution")
        problems += growth_problems(doc["lamplighter-ref"]["ball_sizes"], "lamplighter-ref")
    elif command == "uniform-bound":
        result = doc["result"]
        problems += _u_problems(q, result["n"], result["value"], "uniform-bound")
        problems += _sphere_size_problems(q, {result["n"]: result["sphere_size"]}, "uniform-bound")
    elif command == "opnorm":
        result = doc["result"]
        problems += _sphere_size_problems(q, {result["n"]: result["sphere_size"]}, "opnorm")
        if result["n"] == 0:
            problems += _base_identity_problems(q, result["value"], "opnorm")
    elif command == "condition1":
        for row in doc["result"]["rows"]:
            problems += _sphere_size_problems(q, {row["n"]: row["sphere_size"]}, "condition1")
    elif command == "lamplighter":
        sizes = doc["result"]["ball_sizes"]
        problems += growth_problems(sizes, "lamplighter")
        if len(sizes) != opts["radius"] + 1:
            problems.append(f"lamplighter: {len(sizes)} ball sizes for radius {opts['radius']}")
    return problems


def output_problems(validators: Validators, args, code: int, stdout: bytes) -> list[str]:
    """Exit code, schema, pass flags and pinned values of one command."""
    problems = [] if code == 0 else [f"exit code {code}"]
    try:
        doc = json.loads(stdout)
    except ValueError as exc:
        return problems + [f"output is not JSON: {exc}"]
    command = args[0]
    problems += validators.problems(command, doc)
    problems += _false_pass_flags(doc)
    try:
        problems += _pinned_problems(command, options(args), doc)
    except (KeyError, TypeError, IndexError) as exc:
        problems.append(f"output lacks a checked field: {exc!r}")
    return problems


def file_state(directory: str) -> dict[str, tuple[int, int, str]]:
    """Size, mtime and sha256 of every file in a cache directory."""
    state = {}
    for name in sorted(os.listdir(directory)):
        path = os.path.join(directory, name)
        with open(path, "rb") as handle:
            digest = hashlib.sha256(handle.read()).hexdigest()
        info = os.stat(path)
        state[name] = (info.st_size, info.st_mtime_ns, digest)
    return state


def cache_problems(before: dict, after: dict) -> list[str]:
    """A warm cache must come out of a session exactly as set-up left it."""
    return [
        f"cache file {name} changed: {before.get(name)} -> {after.get(name)}"
        for name in sorted(set(before) | set(after))
        if before.get(name) != after.get(name)
    ]


def cold_table_problems(path: str, q: int, max_length: int) -> list[str]:
    """The table a cold ``spheres`` run wrote must load back through
    ``SphereTable.from_json`` with the pinned bucket sizes."""
    from rrdlab.spheres import SphereTable

    if not os.path.exists(path):
        return [f"no cache file written at {path}"]
    with open(path) as handle:
        try:
            table = SphereTable.from_json(handle.read())
        except (ValueError, KeyError) as exc:
            return [f"cache file does not load: {exc!r}"]
    if (table.q, table.max_length) != (q, max_length):
        return [f"cache file holds q={table.q}, N={table.max_length}"]
    sizes = {n: table.sphere_size(n) for n in table.lengths()}
    problems = _sphere_size_problems(q, sizes, "cache file")
    expected = {n for n in PINNED_SPHERES.get(q, {}) if n <= max_length}
    if not expected <= set(sizes):
        problems.append(f"cache file lacks buckets {sorted(expected - set(sizes))}")
    return problems

