from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys

import pytest

import rrdlab
from rrdlab import CACHE_MAJOR_VERSION, cli, lamplighter, spheres
from rrdlab.algebra import Fq
from rrdlab.cli import main
from rrdlab.sl2 import TreeRegistry
from rrdlab.spheres import SphereTable, constant_group, right_coset

from oracles import sl2_from_text
from test_schemas import load_validator


def run(capsys, *argv: str) -> tuple[int, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_xi_known_value(capsys):
    code, out = run(capsys, "xi", "--length-zero", "2", "--length-infinity", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["result"]["value"] == ["25/36", "0", 2]
    assert payload["pass"] is True


def test_ball_count(capsys):
    code, out = run(capsys, "ball-count", "--degree", "3", "--radius", "5")
    assert code == 0
    rows = json.loads(out)["result"]["rows"]
    assert rows[3]["formula"] == 88
    assert all(r["match"] for r in rows)


def test_mean_identity_and_usage_error(capsys):
    code, out = run(capsys, "mean-identity", "--length", "2")
    assert code == 0
    assert json.loads(out)["result"]["all_ratios_one"] is True
    code, _ = run(capsys, "mean-identity", "--length", "3", "--depth", "1")
    assert code == 2


def test_mean_identity_budget_is_a_usage_error_before_any_cylinder(capsys, monkeypatch):
    # degree 3: 384 cylinders times 384 sphere vertices at length 8 are
    # within the budget, 1,536 times 1,536 at length 10 are not
    built = []
    monkeypatch.setattr(cli, "boundary_cylinders", lambda degree, depth: built.append(depth) or [])
    code, out = run(capsys, "mean-identity", "--length", "8")
    assert code == 0 and built == [8]
    for length in ("10", "40"):
        code, out = run(capsys, "mean-identity", "--length", length)
        assert code == 2
        assert out == ""
    assert built == [8]


def test_unknown_subcommand_exits_two(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["not-a-command"])
    assert excinfo.value.code == 2


def test_spheres_atomic_out_and_cache(tmp_path, capsys):
    cache = tmp_path / "cache"
    out = tmp_path / "deep" / "nested" / "table.json"
    code, _ = run(
        capsys,
        "spheres",
        "--max-length",
        "2",
        "--out",
        str(out),
        "--cache-dir",
        str(cache),
    )
    assert code == 0
    assert out.exists()
    cache_file = cache / f"spheres-q2-n2-v{CACHE_MAJOR_VERSION}.json"
    assert cache_file.exists()
    first = out.read_bytes()
    code, _ = run(
        capsys,
        "spheres",
        "--max-length",
        "2",
        "--out",
        str(out),
        "--cache-dir",
        str(cache),
    )
    assert code == 0
    assert out.read_bytes() == first


def test_cold_spheres_expands_each_coset_once(tmp_path, capsys, monkeypatch):
    # the q = 2, N = 4 ball has 1 + 6 + 45 = 52 right cosets: the scan
    # expands each once and its texts are serialized once, for the cache
    # file and stdout alike; a warm run scans once more and serializes once
    calls = {"right_coset": 0, "to_json": 0}
    real_coset, real_to_json = spheres.right_coset, SphereTable.to_json

    def counting_coset(r, group):
        calls["right_coset"] += 1
        return real_coset(r, group)

    def counting_to_json(table):
        calls["to_json"] += 1
        return real_to_json(table)

    monkeypatch.setattr(spheres, "right_coset", counting_coset)
    monkeypatch.setattr(SphereTable, "to_json", counting_to_json)
    cache = tmp_path / "cache"
    argv = ["spheres", "--q", "2", "--max-length", "4", "--cache-dir", str(cache)]
    code, out = run(capsys, *argv)
    assert code == 0
    assert calls == {"right_coset": 52, "to_json": 1}
    path = cache / f"spheres-q2-n4-v{CACHE_MAJOR_VERSION}.json"
    assert path.read_bytes() == out.encode()
    code, warm = run(capsys, *argv)
    assert code == 0 and warm == out
    assert calls == {"right_coset": 104, "to_json": 2}


@pytest.mark.parametrize(
    "argv",
    [
        ["spheres", "--q", "2", "--max-length", "4"],
        ["uniform-bound", "--q", "2", "--max-length", "4", "--n", "2"],
    ],
)
def test_cache_file_that_is_a_directory_is_a_usage_error(tmp_path, capsys, monkeypatch, argv):
    # the file would be replaced by a rename, which a directory refuses, so
    # it is refused before any work and left as it is
    def refuse(*args):
        raise AssertionError("work started")

    monkeypatch.setattr(cli, "_load_table", refuse)
    monkeypatch.setattr(cli, "enumerate_ball", refuse)
    path = tmp_path / f"spheres-q2-n4-v{CACHE_MAJOR_VERSION}.json"
    path.mkdir()
    code = main([*argv, "--cache-dir", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "is a directory" in captured.err
    assert path.is_dir() and list(path.iterdir()) == []


def test_stale_cache_is_rejected_and_rewritten(tmp_path, capsys):
    cache = tmp_path / "cache"
    cache.mkdir()
    path = cache / f"spheres-q2-n2-v{CACHE_MAJOR_VERSION}.json"
    body = {"cache_major": CACHE_MAJOR_VERSION + 1, "q": 2, "max_length": 2}
    path.write_text(json.dumps(body))
    code, out = run(
        capsys, "spheres", "--max-length", "2", "--cache-dir", str(cache)
    )
    assert code == 0
    refreshed = json.loads(path.read_text())
    assert refreshed["cache_major"] == CACHE_MAJOR_VERSION
    assert json.loads(out)["buckets"]


def test_foreign_cache_header_is_rejected_before_any_scan(tmp_path, capsys, monkeypatch):
    # a header naming radius 10 in the q = 2, N = 4 file is never scanned
    # for: the pair scan runs once, for the table that replaces the file
    cache = tmp_path / "cache"
    cache.mkdir()
    path = cache / f"spheres-q2-n4-v{CACHE_MAJOR_VERSION}.json"
    header = {
        "cache_major": CACHE_MAJOR_VERSION,
        "q": 2,
        "max_length": 10,
        "provenance": spheres.PROVENANCE_PAIRS,
        "saturated": None,
    }
    path.write_text(json.dumps(header))
    scans = []
    real_scan = spheres._scan

    def recording_scan(q, max_length):
        scans.append((q, max_length))
        return real_scan(q, max_length)

    monkeypatch.setattr(spheres, "_scan", recording_scan)
    argv = ["uniform-bound", "--q", "2", "--max-length", "4", "--n", "2"]
    code, _ = run(capsys, *argv, "--cache-dir", str(cache))
    assert code == 0
    assert scans == [(2, 4)]
    table = SphereTable.from_json(path.read_text())
    assert (table.q, table.max_length) == (2, 4)


def test_reformatted_cache_is_replaced(tmp_path, capsys):
    # the right buckets in compact JSON are not the bytes `spheres` writes
    code, out = run(capsys, "spheres", "--q", "2", "--max-length", "4")
    assert code == 0
    cache = tmp_path / "cache"
    cache.mkdir()
    path = cache / f"spheres-q2-n4-v{CACHE_MAJOR_VERSION}.json"
    path.write_text(json.dumps(json.loads(out)))
    argv = ["uniform-bound", "--q", "2", "--max-length", "4", "--n", "2"]
    code, _ = run(capsys, *argv, "--cache-dir", str(cache))
    assert code == 0
    assert path.read_bytes() == out.encode()


@pytest.mark.parametrize(
    "argv",
    [
        ["spheres"],
        ["report", "--depth", "1"],
        ["uniform-bound", "--n", "2"],
        ["opnorm", "--n", "0", "--radius", "2"],
        ["condition1"],
    ],
)
def test_warm_cache_is_neither_read_nor_rewritten(tmp_path, capsys, monkeypatch, argv):
    argv = [*argv, "--q", "2", "--max-length", "2", "--cache-dir", str(tmp_path)]
    code, cold = run(capsys, *argv)
    assert code == 0
    path = tmp_path / f"spheres-q2-n2-v{CACHE_MAJOR_VERSION}.json"
    written, mtime = path.read_bytes(), path.stat().st_mtime_ns

    def refuse(cls, text):
        raise AssertionError("the cache file was loaded")

    monkeypatch.setattr(SphereTable, "from_json", classmethod(refuse))
    code, warm = run(capsys, *argv)
    assert code == 0 and warm == cold
    assert path.read_bytes() == written
    assert path.stat().st_mtime_ns == mtime


def test_outputs_get_the_mode_of_the_umask(tmp_path, capsys):
    # as open() would make them, not owner-only
    previous = os.umask(0o022)
    try:
        code, _ = run(
            capsys, "lamplighter", "--radius", "3", "--out", str(tmp_path / "x.json"),
            "--csv", str(tmp_path / "g.csv"),
        )
        assert code == 0
        code, _ = run(capsys, "spheres", "--max-length", "2", "--cache-dir", str(tmp_path / "cache"))
        assert code == 0
    finally:
        os.umask(previous)
    written = [tmp_path / "x.json", tmp_path / "g.csv", *(tmp_path / "cache").iterdir()]
    assert len(written) == 3
    assert [path.stat().st_mode & 0o777 for path in written] == [0o644] * 3


def test_uniform_bound_threshold_failure(capsys):
    code, out = run(capsys, "uniform-bound", "--max-length", "2", "--n", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["result"]["value"] == ["6/5", "0", 2]
    code, _ = run(
        capsys,
        "uniform-bound",
        "--max-length",
        "2",
        "--n",
        "2",
        "--threshold",
        "1.1",
    )
    assert code == 1


def strict_json(text: str):
    """json.loads that refuses the bare NaN, Infinity and -Infinity tokens
    json.dumps writes by default, none of which is JSON."""

    def refuse(token):
        raise ValueError(f"{token} is not JSON")

    return json.loads(text, parse_constant=refuse)


def test_uniform_bound_threshold_is_exact(capsys):
    # U_2 = 6/5, and the double nearest 1.2 lies just below it; +inf has no
    # JSON number and is written as null, and -inf is refused
    for threshold, expected, written in (
        ("1.2", 1, 1.2),
        ("1.2000000000000002", 0, 1.2000000000000002),
        ("inf", 0, None),
        ("-inf", 2, None),
    ):
        code, out = run(
            capsys, "uniform-bound", "--max-length", "2", "--n", "2", f"--threshold={threshold}"
        )
        assert code == expected
        if code == 2:
            assert out == ""
            continue
        envelope = strict_json(out)
        assert envelope["config"]["threshold"] == written
        load_validator("envelope.schema.json").validate(envelope)


def test_report_writes_an_infinite_threshold_as_null(capsys):
    code, out = run(capsys, "report", "--max-length", "2", "--depth", "1", "--u-threshold", "inf")
    assert code == 0
    verdict = strict_json(out)
    assert verdict["condition2"]["threshold"] is None
    assert verdict["config"]["thresholds"]["u_bound"] is None
    assert verdict["condition2"]["pass"] is True
    load_validator("verdict.schema.json").validate(verdict)


@pytest.mark.parametrize(
    "argv",
    [
        ["uniform-bound", "--max-length", "2", "--n", "2", "--threshold", "nan"],
        ["report", "--max-length", "2", "--depth", "1", "--u-threshold", "NaN"],
        ["uniform-bound", "--max-length", "2", "--n", "2", "--threshold=-inf"],
        ["report", "--max-length", "2", "--depth", "1", "--u-threshold=-inf"],
    ],
)
def test_nan_threshold_is_a_usage_error(capsys, argv):
    # a nan threshold would print a bare NaN, which is not JSON, and decide
    # nothing; a -inf one fails every value, and null already means +inf
    code, out = run(capsys, *argv)
    assert code == 2
    assert out == ""


def test_uniform_bound_at_table_radius_six(capsys):
    code, out = run(capsys, "uniform-bound", "--q", "2", "--max-length", "6", "--n", "6")
    assert code == 0
    assert json.loads(out)["result"]["value"] == ["3727/3150", "0", 2]


@pytest.mark.parametrize(
    "argv",
    [
        ["uniform-bound", "--q", "2", "--max-length", "2", "--n", "2"],
        ["report", "--q", "2", "--max-length", "2", "--depth", "1"],
    ],
)
def test_output_does_not_depend_on_the_cache_directory(tmp_path, capsys, argv):
    outputs = []
    for directory in ("first", "second/nested"):
        code, out = run(capsys, *argv, "--cache-dir", str(tmp_path / directory))
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]
    config = json.loads(outputs[0])["config"]
    assert config["cache"]["path"] == f"spheres-q2-n2-v{CACHE_MAJOR_VERSION}.json"


def test_opnorm_preconditions(capsys):
    code, _ = run(capsys, "opnorm", "--max-length", "2", "--n", "2", "--radius", "2")
    assert code == 2
    code, out = run(capsys, "opnorm", "--max-length", "2", "--n", "0", "--radius", "2")
    assert code == 0
    assert json.loads(out)["result"]["value"] == pytest.approx(6.0, abs=1e-6)


def test_lamplighter_with_csv(tmp_path, capsys):
    csv_path = tmp_path / "growth.csv"
    code, out = run(
        capsys, "lamplighter", "--radius", "6", "--csv", str(csv_path)
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["pass"] is True
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "radius,ball_size,log_growth_rate"
    assert lines[1].startswith("0,1,")
    assert len(lines) == 8


def test_report_reference_configuration(tmp_path, capsys):
    out = tmp_path / "verdict.json"
    code, _ = run(
        capsys,
        "report",
        "--q",
        "2",
        "--max-length",
        "4",
        "--depth",
        "4",
        "--cache-dir",
        str(tmp_path / "cache"),
        "--out",
        str(out),
    )
    assert code == 0
    verdict = json.loads(out.read_text())
    assert verdict["pass"] is True
    assert verdict["config"]["tool_version"]
    assert verdict["config"]["cache"]["path"]
    for section in (
        "condition1",
        "condition2",
        "compressions",
        "convolution",
        "lamplighter-ref",
    ):
        assert verdict[section]["pass"] is True
    first = out.read_bytes()
    code, _ = run(
        capsys,
        "report",
        "--q",
        "2",
        "--max-length",
        "4",
        "--depth",
        "4",
        "--cache-dir",
        str(tmp_path / "cache"),
        "--out",
        str(out),
    )
    assert code == 0
    assert out.read_bytes() == first


IDENTITY_TEXT = "low=0;coeffs=1|low=0;coeffs=|low=0;coeffs=|low=0;coeffs=1"

# Each corruption of a valid q = 2, N = 2 cache body that a command must
# replace: a wrong shape, or contents no enumeration can produce.
CORRUPTIONS = {
    "not-an-object": lambda body: [1, 2],
    "q-not-an-integer": lambda body: {**body, "q": "2"},
    "bucket-not-a-list": lambda body: {**body, "buckets": {"0": 5}},
    "identity-only": lambda body: {**body, "buckets": {"0": [IDENTITY_TEXT]}},
    "no-length-0-sphere": lambda body: {**body, "buckets": {"2": body["buckets"]["2"]}},
    "key-above-max-length": lambda body: {
        **body, "buckets": {**body["buckets"], "4": body["buckets"]["2"]}
    },
    "length-differs-from-key": lambda body: {
        **body, "buckets": {**body["buckets"], "2": body["buckets"]["0"]}
    },
    "partial-coset": lambda body: {
        **body, "buckets": {**body["buckets"], "2": body["buckets"]["2"][:-1]}
    },
    "radius-beyond-budget": lambda body: {**body, "max_length": 30},
    "repeated-element": lambda body: {
        **body,
        "buckets": {
            **body["buckets"],
            "2": body["buckets"]["2"][:1] * 2 + body["buckets"]["2"][2:],
        },
    },
}


@pytest.mark.parametrize("kind", sorted(CORRUPTIONS))
def test_corrupt_cache_is_rebuilt(tmp_path, capsys, kind):
    code, cold = run(capsys, "spheres", "--max-length", "2")
    assert code == 0
    cache = tmp_path / "cache"
    cache.mkdir()
    path = cache / f"spheres-q2-n2-v{CACHE_MAJOR_VERSION}.json"
    path.write_text(json.dumps(CORRUPTIONS[kind](json.loads(cold))))
    code, out = run(capsys, "spheres", "--max-length", "2", "--cache-dir", str(cache))
    assert code == 0
    assert out == cold
    assert path.read_text() == cold


def test_cache_missing_a_whole_coset_is_rebuilt(tmp_path, capsys):
    # each bucket is a union of whole cosets of the right size only when it
    # holds one coset per trivial vertex pair of its length
    cache = tmp_path / "cache"
    cache.mkdir()
    code, _ = run(capsys, "spheres", "--max-length", "4", "--cache-dir", str(cache))
    assert code == 0
    path = cache / f"spheres-q2-n4-v{CACHE_MAJOR_VERSION}.json"
    written = path.read_text()
    body = json.loads(written)
    field = Fq(2)
    first = sl2_from_text(field, body["buckets"]["4"][0])
    coset = {text for _, text, _ in right_coset(first, constant_group(field))}
    body["buckets"]["4"] = [t for t in body["buckets"]["4"] if t not in coset]
    assert len(body["buckets"]["4"]) == 264
    path.write_text(json.dumps(body))
    code, out = run(
        capsys, "uniform-bound", "--q", "2", "--max-length", "4", "--n", "4",
        "--cache-dir", str(cache),
    )
    assert code == 0
    result = json.loads(out)["result"]
    assert result["value"] == ["1062/875", "0", 2]
    assert result["sphere_size"] == 270
    assert path.read_text() == written


def bucket_four(change):
    """A corruption of the q = 2, N = 4 cache body that rewrites bucket 4."""
    return lambda body: {**body, "buckets": {**body["buckets"], "4": change(body["buckets"]["4"])}}


# Each corruption of a valid q = 2, N = 4 cache body whose buckets are no
# longer the pair scan's cosets expanded by K in text order, or whose header
# names another enumeration.
EXPANSION_CORRUPTIONS = {
    "first-element-twice": bucket_four(lambda texts: [texts[0], texts[0], *texts[2:]]),
    "first-element-dropped": bucket_four(lambda texts: texts[1:]),
    "first-element-appended": bucket_four(lambda texts: [*texts, texts[0]]),
    "bucket-reversed": bucket_four(lambda texts: texts[::-1]),
    "bfs-provenance": lambda body: {**body, "provenance": "bfs-heuristic"},
}


@pytest.mark.parametrize("kind", sorted(EXPANSION_CORRUPTIONS))
def test_cache_that_is_no_coset_expansion_is_rebuilt(tmp_path, capsys, kind):
    cache = tmp_path / "cache"
    argv = ["uniform-bound", "--q", "2", "--max-length", "4", "--n", "4", "--cache-dir", str(cache)]
    code, cold = run(capsys, *argv)
    assert code == 0
    path = cache / f"spheres-q2-n4-v{CACHE_MAJOR_VERSION}.json"
    written = path.read_text()
    corrupt = json.dumps(EXPANSION_CORRUPTIONS[kind](json.loads(written)))
    with pytest.raises(ValueError):
        SphereTable.from_json(corrupt)
    path.write_text(corrupt)
    code, out = run(capsys, *argv)
    assert code == 0
    assert out == cold
    assert path.read_text() == written


# Full sha256 of two `spheres` outputs.  They hold no floats, so they do not
# depend on the platform; any change to the tables or their expansion by K
# shows here.
SPHERES_SHA256 = {
    (2, 4): "e97476258fa06fffc0aa7ef0d0bc6374f61b9cf806baf6e405f713f18277606d",
    (3, 2): "0afdda9f9cb26027dbfc308845dfa76f08378e7f7fb234d5966c1c4c8b871709",
}


@pytest.mark.parametrize("q, max_length", sorted(SPHERES_SHA256))
def test_spheres_output_is_pinned(capsys, q, max_length):
    code, out = run(capsys, "spheres", "--q", str(q), "--max-length", str(max_length))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == SPHERES_SHA256[q, max_length]


@pytest.mark.parametrize(
    "argv",
    [
        ["spheres", "--q", "6", "--max-length", "2"],
        ["lamplighter", "--q", "6", "--radius", "2"],
        ["spheres", "--max-length", "-2"],
        ["opnorm", "--max-length", "2", "--n", "0", "--radius", "-1"],
        ["ball-count", "--radius", "-1"],
        ["mean-identity", "--length", "-2"],
        ["report", "--max-length", "2", "--depth", "0"],
        ["condition1", "--max-length", "0"],
    ],
)
def test_bad_arguments_are_usage_errors(capsys, argv):
    code, out = run(capsys, *argv)
    assert code == 2
    assert out == ""


def test_internal_fault_exits_three(capsys, monkeypatch):
    def broken(table):
        raise ValueError("injected fault")

    monkeypatch.setattr(cli, "condition_one_certificate", broken)
    assert main(["condition1", "--max-length", "2"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "injected fault" in captured.err


@pytest.mark.parametrize(
    "argv, cache_dir",
    [
        (["xi", "--length-zero", "2", "--length-infinity", "2", "--out", "{dir}"], None),
        (["lamplighter", "--radius", "2", "--csv", "{dir}"], None),
        (["spheres", "--max-length", "2", "--cache-dir", "{file}"], None),
        (["report", "--max-length", "2", "--depth", "1"], "{file}"),
        (["xi", "--length-zero", "2", "--length-infinity", "2", "--out", "{file}/x.json"], None),
        (["lamplighter", "--radius", "3", "--csv", "{file}/x.csv"], None),
        (["spheres", "--max-length", "2", "--cache-dir", "{file}/sub"], None),
        (["report", "--q", "2", "--max-length", "2", "--depth", "1", "--out", "{dir}/C"], "{dir}/C"),
        (
            ["condition1", "--q", "2", "--max-length", "2", "--out",
             f"{{dir}}/spheres-q2-n2-v{CACHE_MAJOR_VERSION}.json/x.json"],
            "{dir}",
        ),
        (
            ["condition1", "--q", "2", "--max-length", "2", "--out",
             f"{{dir}}/spheres-q2-n2-v{CACHE_MAJOR_VERSION}.json"],
            "{dir}",
        ),
    ],
)
def test_bad_output_paths_are_usage_errors(tmp_path, capsys, monkeypatch, argv, cache_dir):
    # a directory where a file is written, a file where the cache directory
    # or an output's directory goes, or an output at the cache directory, at
    # the cache file or under it, is refused before any work and leaves both
    # untouched
    def refuse(*args):
        raise AssertionError("work started")

    monkeypatch.setattr(cli, "enumerate_ball", refuse)
    monkeypatch.setattr(cli, "h_ball_growth", refuse)
    paths = {"dir": tmp_path / "dir", "file": tmp_path / "file"}
    paths["dir"].mkdir()
    paths["file"].write_text("kept\n")
    if cache_dir:
        argv = [*argv, "--cache-dir", cache_dir]
    code, out = run(capsys, *(arg.format(**paths) for arg in argv))
    assert code == 2
    assert out == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["dir", "file"]
    assert list(paths["dir"].iterdir()) == []
    assert paths["file"].read_text() == "kept\n"


def test_impossible_radius_is_a_usage_error(capsys):
    code, out = run(capsys, "spheres", "--q", "2", "--max-length", "30")
    assert code == 2
    assert out == ""


def test_ball_count_budget_is_a_usage_error_before_any_bfs(capsys, monkeypatch):
    started = []
    monkeypatch.setattr(cli, "ball_count_bfs", lambda degree, n: started.append(n))
    code, out = run(capsys, "ball-count", "--degree", "3", "--radius", "18")
    assert code == 2
    assert out == ""
    assert started == []


def test_ball_count_makes_one_bfs(capsys, monkeypatch):
    # every row reads the sphere counts of one walk up to the radius
    radii = []
    real = cli.ball_count_bfs

    def counting(degree, n):
        radii.append(n)
        return real(degree, n)

    monkeypatch.setattr(cli, "ball_count_bfs", counting)
    code, out = run(capsys, "ball-count", "--degree", "3", "--radius", "15")
    assert code == 0
    assert radii == [15]
    rows = json.loads(out)["result"]["rows"]
    assert [row["n"] for row in rows] == list(range(16))
    assert all(row["match"] and row["bfs"] == row["formula"] for row in rows)


def test_compression_budget_is_a_usage_error_before_any_table(capsys, monkeypatch):
    # depth 6 at q = 2 would need a 9,216^2 float core (680 MB)
    def refuse(*args):
        raise AssertionError("a table or a registry was built")

    monkeypatch.setattr(cli, "_load_table", refuse)
    monkeypatch.setattr(TreeRegistry, "__init__", refuse)
    code, out = run(capsys, "report", "--q", "2", "--max-length", "2", "--depth", "6")
    assert code == 2
    assert out == ""


def test_convolution_budget_is_a_usage_error_before_any_table(capsys, monkeypatch):
    # by radius 10 the q = 2 ball has 15,361 candidate vertex pairs, whose
    # square is over CORE_BUDGET, so the q2n12 table is never built
    def refuse(*args):
        raise AssertionError("a table was built or read")

    monkeypatch.setattr(cli, "enumerate_ball", refuse)
    monkeypatch.setattr(cli, "_load_table", refuse)
    code, out = run(capsys, "opnorm", "--q", "2", "--max-length", "12", "--n", "0", "--radius", "12")
    assert code == 2
    assert out == ""


@pytest.mark.parametrize("q, radius", [(2, 8), (5, 4)])
def test_convolution_budget_admits_its_edge_cases(capsys, q, radius):
    # 3,073 candidate vertex pairs at q = 2, radius 8 and 2,461 at q = 5,
    # radius 4: their squares fit CORE_BUDGET
    code, out = run(
        capsys, "opnorm", "--q", str(q), "--max-length", str(radius), "--n", "0",
        "--radius", str(radius),
    )
    assert code == 0
    assert json.loads(out)["result"]["ball_radius"] == radius


@pytest.mark.parametrize(
    "argv",
    [
        ["spheres", "--q", "47", "--max-length", "2"],
        ["report", "--q", "47", "--max-length", "2", "--depth", "1"],
    ],
)
def test_coset_element_budget_is_a_usage_error_before_any_registry(capsys, monkeypatch, argv):
    # 4,513 candidate pairs at q = 47 fit the pair budget, but their cosets
    # would hold 468 million elements
    def refuse(*args):
        raise AssertionError("a registry was built")

    monkeypatch.setattr(TreeRegistry, "__init__", refuse)
    code, out = run(capsys, *argv)
    assert code == 2
    assert out == ""


def test_lamplighter_budget_is_a_usage_error(capsys, monkeypatch):
    monkeypatch.setattr(lamplighter, "ELEMENT_BUDGET", 50)
    code, out = run(capsys, "lamplighter", "--radius", "10")
    assert code == 2
    assert out == ""


def test_lamplighter_radius_beyond_the_budget_is_a_usage_error(capsys):
    code = main(["lamplighter", "--q", "2", "--radius", "40"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "rrdlab: radius 40 at q = 2 needs more than 2000000 ball elements\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["lamplighter", "--radius", "4"],
        ["uniform-bound", "--max-length", "2", "--n", "2"],
        ["condition1", "--max-length", "2"],
        ["spheres", "--max-length", "2"],
    ],
)
def test_exact_commands_do_not_import_numpy(argv):
    # numpy serves only the floating side; a fresh interpreter shows what a
    # command loads
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(rrdlab.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    script = (
        "import sys\n"
        "from rrdlab import cli\n"
        f"code = cli.main({argv!r})\n"
        "print(code, 'numpy' in sys.modules, file=sys.stderr)\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    )
    assert done.stderr.split() == ["0", "False"]
