from __future__ import annotations

import hashlib
import json
import os
import platform
import subprocess
import sys

import pytest

import rrdlab
from rrdlab import CACHE_MAJOR_VERSION, cli, criterion, lamplighter, spheres
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


def test_unknown_subcommand_exits_two(capsys):
    # ball-count, xi and mean-identity are not commands: the tests check
    # their tree identities on the oracles' functions
    for command in ("not-a-command", "ball-count", "xi", "mean-identity"):
        with pytest.raises(SystemExit) as excinfo:
            main([command])
        assert excinfo.value.code == 2
        assert capsys.readouterr().out == ""


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


def test_opnorm_at_length_zero_checks_the_subgroup_identity(capsys, monkeypatch):
    # a bound of 3.0 at n = 0 stays below |C_0| = 6, so it passes l1_ok, but
    # it is not |K| = 6, which the length-0 rule requires
    monkeypatch.setattr(criterion, "_power_iteration_symmetric", lambda apply, start: (0.25, 1, True))
    code, out = run(capsys, "opnorm", "--max-length", "2", "--n", "0", "--radius", "2")
    envelope = json.loads(out)
    assert envelope["result"]["value"] == 3.0
    assert envelope["pass"] is False
    assert code == 1


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


SECTIONS = ("condition1", "condition2", "compressions", "convolution", "lamplighter-ref")


def _fail_lamplighter(q, sizes):
    return lamplighter.exponential_certificate(q, sizes)._replace(rd_failure_flag=False)


# One broken rule per section: the record property, method or constant the
# section's pass is read from
SECTION_BREAKS = {
    "condition1": (spheres.Condition1Report, "passed", property(lambda self: False)),
    "condition2": (criterion.MeanReport, "at_most", lambda self, threshold: False),
    "compressions": (criterion, "CHAIN_SLACK", -1.0),
    "convolution": (criterion.ConvolutionResult, "passed", property(lambda self: False)),
    "lamplighter-ref": (criterion, "exponential_certificate", _fail_lamplighter),
}


@pytest.mark.parametrize("section", SECTIONS)
def test_a_failing_section_fails_the_verdict(capsys, monkeypatch, section):
    monkeypatch.setattr(*SECTION_BREAKS[section])
    code, out = run(capsys, "report", "--max-length", "2", "--depth", "1")
    verdict = json.loads(out)
    assert {name: verdict[name]["pass"] for name in SECTIONS} == {
        name: name != section for name in SECTIONS
    }
    assert verdict["pass"] is False
    assert code == 1


def test_the_base_identity_fails_with_its_row(capsys, monkeypatch):
    # |K| + 5e-7 at q = 2 meets the identity's BASE_IDENTITY_TOL but not the
    # row's l1 rule (|C_0| + 1e-9): the base identity reads the n = 0 row's
    # whole rule, so it fails beside the failing row
    real = criterion.convolution_opnorm_lower

    def above_the_sphere(table, n, ball_radius):
        result = real(table, n, ball_radius)
        return result._replace(value=result.sphere_size + 5e-7) if n == 0 else result

    monkeypatch.setattr(criterion, "convolution_opnorm_lower", above_the_sphere)
    code, out = run(capsys, "report", "--max-length", "2", "--depth", "1")
    verdict = json.loads(out)
    convolution = verdict["convolution"]
    row = convolution["rows"][0]
    assert row["n"] == 0 and row["value"] == 6.0 + 5e-7
    assert convolution["base_identity"]["pass"] is False
    assert row["l1_ok"] is False
    assert convolution["pass"] is False
    assert verdict["pass"] is False
    assert code == 1


# The report at q = 2, N = 4, depth 2 with every value that BLAS sums taken
# out (the compression rows', the convolution rows' and the base identity's),
# as the sha256 of its canonical JSON, and those values as the auto-detected
# kernel gave them on x86-64
KERNEL_FREE_SHA256 = "4aa965249a87b66e69beda29ac4acbdddd3dca456b9bd01f54fe9f1dfad1cafd"
BLAS_SUMMED_VALUES = [
    1.0,
    1.0,
    1.0099504938362078,
    1.0203952057685173,
    1.0052238995879401,
    1.00571728185538,
    6.0,
    14.696938456699067,
    6.0,
]


def _blas_summed_values(verdict: dict) -> list[float]:
    """Take every value that BLAS sums out of the verdict, in order."""
    rows = verdict["compressions"]["rows"] + verdict["convolution"]["rows"]
    return [row.pop("value") for row in rows + [verdict["convolution"]["base_identity"]]]


@pytest.mark.skipif(
    platform.machine().lower() not in ("x86_64", "amd64"),
    reason="the SSE-only OpenBLAS kernels are x86-64 kernels",
)
def test_report_fields_do_not_depend_on_the_blas_kernel():
    # OpenBLAS sums in a kernel-dependent order, which moves the last bits
    # of the power iterations' values; every other field is exact.  The
    # kernel is chosen in the child only, from the auto-detected one and two
    # SSE-only kernels that every x86-64 CPU runs
    src = os.path.dirname(os.path.dirname(os.path.abspath(rrdlab.__file__)))
    argv = ["report", "--q", "2", "--max-length", "4", "--depth", "2"]
    verdicts = []
    for kernel in (None, "Nehalem", "Prescott"):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        env.pop("OPENBLAS_CORETYPE", None)
        if kernel:
            env["OPENBLAS_CORETYPE"] = kernel
        done = subprocess.run(
            [sys.executable, "-m", "rrdlab.cli", *argv],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        )
        verdict = json.loads(done.stdout)
        assert _blas_summed_values(verdict) == pytest.approx(BLAS_SUMMED_VALUES, rel=1e-12, abs=0)
        verdicts.append(verdict)
    assert verdicts[1] == verdicts[0] and verdicts[2] == verdicts[0]
    digest = hashlib.sha256(cli._canonical_json(verdicts[0]).encode()).hexdigest()
    assert digest == KERNEL_FREE_SHA256


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


def test_only_envelopes_end_with_a_newline(capsys):
    # a sphere table ends with its closing brace, as every cache file does;
    # an envelope (and the verdict) ends with one newline
    code, out = run(capsys, "spheres", "--q", "2", "--max-length", "2")
    assert code == 0 and out.endswith("\n}")
    code, out = run(capsys, "lamplighter", "--radius", "1")
    assert code == 0 and out.endswith("}\n") and not out.endswith("\n\n")


NO_CACHE = {"path": None}
# every parsed option, defaults included, but --out and --cache-dir; a
# command that loads a table adds its cache record
ENVELOPE_CONFIGS = {
    "condition1 --q 3 --max-length 2": {"q": 3, "max_length": 2, "cache": NO_CACHE},
    "uniform-bound --q 3 --max-length 2 --n 2": {
        "q": 3, "max_length": 2, "n": 2, "threshold": 8.0, "cache": NO_CACHE,
    },
    "lamplighter --q 3 --radius 3": {"q": 3, "radius": 3, "csv": None},
    "condition1 --max-length 2": {"q": 2, "max_length": 2, "cache": NO_CACHE},
    "uniform-bound --max-length 2 --n 2": {
        "q": 2, "max_length": 2, "n": 2, "threshold": 8.0, "cache": NO_CACHE,
    },
    "uniform-bound --max-length 4 --n 4 --threshold 1.0": {
        "q": 2, "max_length": 4, "n": 4, "threshold": 1.0, "cache": NO_CACHE,
    },
    "opnorm --max-length 2 --n 0 --radius 2": {
        "q": 2, "max_length": 2, "n": 0, "radius": 2, "cache": NO_CACHE,
    },
    "lamplighter --radius 4": {"q": 2, "radius": 4, "csv": None},
}


@pytest.mark.parametrize(
    "argv, passed",
    [
        (["condition1", "--q", "3", "--max-length", "2"], True),
        (["uniform-bound", "--q", "3", "--max-length", "2", "--n", "2"], True),
        (["lamplighter", "--q", "3", "--radius", "3"], True),
        (["condition1", "--max-length", "2"], True),
        (["uniform-bound", "--max-length", "2", "--n", "2"], True),
        (["uniform-bound", "--max-length", "4", "--n", "4", "--threshold", "1.0"], False),
        (["opnorm", "--max-length", "2", "--n", "0", "--radius", "2"], True),
        (["lamplighter", "--radius", "4"], True),
    ],
)
def test_envelopes_name_their_command_and_exit_by_their_verdict(capsys, argv, passed):
    code, out = run(capsys, *argv)
    envelope = json.loads(out)
    assert envelope["command"] == argv[0]
    assert envelope["config"] == ENVELOPE_CONFIGS[" ".join(argv)]
    assert envelope["pass"] is passed
    assert code == (0 if passed else 1)


# Three envelopes pinned byte for byte: keys, defaults, number formats and
# the closing newline.
PINNED_ENVELOPES = {
    "lamplighter --q 2 --radius 1": """\
{
  "cache_major": 1,
  "command": "lamplighter",
  "config": {
    "csv": null,
    "q": 2,
    "radius": 1
  },
  "pass": true,
  "result": {
    "ball_sizes": [
      1,
      5
    ],
    "certified_rate": 1.2599210498948732,
    "empirical_rate": 5.0,
    "family_checks": [
      {
        "ball_size": 5,
        "family_size": 2,
        "n": 0,
        "ok": true,
        "word_length": 1
      }
    ],
    "q": 2,
    "rd_failure_flag": true
  },
  "tool_version": "0.1.0"
}
""",
    "uniform-bound --max-length 2 --n 2": """\
{
  "cache_major": 1,
  "command": "uniform-bound",
  "config": {
    "cache": {
      "path": null
    },
    "max_length": 2,
    "n": 2,
    "q": 2,
    "threshold": 8.0
  },
  "pass": true,
  "result": {
    "depths": [
      2,
      2
    ],
    "n": 2,
    "sphere_size": 36,
    "value": [
      "6/5",
      "0",
      2
    ],
    "value_float": 1.2
  },
  "tool_version": "0.1.0"
}
""",
    "condition1 --max-length 2": """\
{
  "cache_major": 1,
  "command": "condition1",
  "config": {
    "cache": {
      "path": null
    },
    "max_length": 2,
    "q": 2
  },
  "pass": true,
  "result": {
    "exponent": "5/2",
    "fitted_constant": 0.8838834764831843,
    "max_length": 2,
    "q": 2,
    "rigorous_constant": 1.653594569415369,
    "rows": [
      {
        "fiber_bound_size": 126,
        "n": 2,
        "observed": 5.0,
        "observed_ratio": 0.8838834764831843,
        "rigorous": 9.354143466934854,
        "rigorous_ratio": 1.653594569415369,
        "sphere_size": 36,
        "splitting_sup": [
          "5/6",
          "0",
          2
        ],
        "sup_xi": [
          "5/6",
          "0",
          2
        ],
        "sup_xi_lengths": [
          0,
          2
        ]
      }
    ]
  },
  "tool_version": "0.1.0"
}
""",
}


@pytest.mark.parametrize("command", sorted(PINNED_ENVELOPES))
def test_envelope_bytes_are_pinned(capsys, command):
    code, out = run(capsys, *command.split())
    assert code == 0
    assert out == PINNED_ENVELOPES[command]


@pytest.mark.parametrize(
    "argv",
    [
        ["spheres", "--q", "6", "--max-length", "2"],
        ["lamplighter", "--q", "6", "--radius", "2"],
        ["spheres", "--max-length", "-2"],
        ["opnorm", "--max-length", "2", "--n", "0", "--radius", "-1"],
        ["lamplighter", "--radius", "-1"],
        ["uniform-bound", "--max-length", "4", "--n", "-2"],
        ["report", "--max-length", "2", "--depth", "0"],
        ["condition1", "--max-length", "0"],
        ["uniform-bound", "--max-length", "2", "--n", "4"],
        ["opnorm", "--max-length", "2", "--n", "2", "--radius", "2"],
        ["uniform-bound", "--max-length", "4", "--n", "3"],
        ["opnorm", "--max-length", "4", "--n", "1", "--radius", "2"],
        ["lamplighter", "--radius", "0"],
        ["report", "--max-length", "0", "--depth", "1"],
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


def test_a_failed_replace_leaves_no_temporary_file(tmp_path, capsys, monkeypatch):
    # the output is written to a temporary file beside it and renamed over
    # it; when the rename fails, the temporary file goes and the old output
    # stays as it was
    def refuse(source, target):
        raise OSError("injected rename failure")

    out = tmp_path / "F"
    out.write_text("kept\n")
    monkeypatch.setattr(os, "replace", refuse)
    code = main(["uniform-bound", "--max-length", "2", "--n", "2", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert "injected rename failure" in captured.err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["F"]
    assert out.read_text() == "kept\n"


@pytest.mark.parametrize(
    "argv, cache_dir",
    [
        (["lamplighter", "--radius", "2", "--out", "{dir}"], None),
        (["lamplighter", "--radius", "2", "--csv", "{dir}"], None),
        (["spheres", "--max-length", "2", "--cache-dir", "{file}"], None),
        (["report", "--max-length", "2", "--depth", "1"], "{file}"),
        (["lamplighter", "--radius", "2", "--out", "{file}/x.json"], None),
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
        (["lamplighter", "--radius", "3", "--csv", "{dir}/x.json", "--out", "{dir}/x.json"], None),
        (["lamplighter", "--radius", "3", "--csv", "{dir}/sub", "--out", "{dir}/sub/y.json"], None),
        (["lamplighter", "--radius", "3", "--csv", "{dir}/sub/y.csv", "--out", "{dir}/sub"], None),
    ],
)
def test_bad_output_paths_are_usage_errors(tmp_path, capsys, monkeypatch, argv, cache_dir):
    # a directory where a file is written, a file where the cache directory
    # or an output's directory goes, or an output at, above or under another
    # (the cache file or the CSV) is refused before any work and leaves both
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


def test_outputs_that_are_one_file_through_a_link_collide(tmp_path, capsys):
    (tmp_path / "real").mkdir()
    (tmp_path / "link").symlink_to("real")
    code, out = run(
        capsys, "lamplighter", "--radius", "3",
        "--csv", str(tmp_path / "link" / "x.json"), "--out", str(tmp_path / "real" / "x.json"),
    )
    assert code == 2
    assert out == ""
    assert list((tmp_path / "real").iterdir()) == []


def test_impossible_radius_is_a_usage_error(capsys):
    code, out = run(capsys, "spheres", "--q", "2", "--max-length", "30")
    assert code == 2
    assert out == ""


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
    # numpy serves only the floating side, and no command loads dataclasses;
    # a fresh interpreter shows what a command loads
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(rrdlab.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    script = (
        "import sys\n"
        "from rrdlab import cli\n"
        f"code = cli.main({argv!r})\n"
        "print(code, 'numpy' in sys.modules, 'dataclasses' in sys.modules, file=sys.stderr)\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    )
    assert done.stderr.split() == ["0", "False", "False"]


@pytest.mark.parametrize(
    "argv",
    [
        ["report", "--max-length", "2", "--depth", "1"],
        ["opnorm", "--max-length", "2", "--n", "0", "--radius", "2"],
    ],
)
def test_floating_commands_do_not_import_numpy_random(argv):
    # both power iterations start from the positive uniform vector, so no
    # command draws a random start
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(rrdlab.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    script = (
        "import sys\n"
        "from rrdlab import cli\n"
        f"code = cli.main({argv!r})\n"
        "print(code, 'numpy' in sys.modules, 'numpy.random' in sys.modules,\n"
        "      'dataclasses' in sys.modules, file=sys.stderr)\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    )
    assert done.stderr.split() == ["0", "True", "False", "False"]


def _pthreads_openblas() -> bool:
    import numpy

    # numpy before 1.25 keeps no build configuration; the test is skipped there
    config = getattr(numpy.__config__, "CONFIG", {})
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return "openblas" in str(blas.get("name")) and "OPENMP" not in str(
        blas.get("openblas configuration")
    )


@pytest.mark.skipif(not _pthreads_openblas(), reason="numpy's BLAS is not a pthreads OpenBLAS")
def test_idle_blas_workers_do_not_spin():
    # after a floating command, numpy's OpenBLAS workers sleep instead of
    # spinning: the process spends no CPU time while its main thread sleeps
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(rrdlab.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    env.pop("OPENBLAS_THREAD_TIMEOUT", None)
    script = (
        "import sys, time\n"
        "from rrdlab import cli\n"
        'code = cli.main(["opnorm", "--q", "2", "--max-length", "2", "--n", "0", "--radius", "2"])\n'
        "start = time.process_time()\n"
        "time.sleep(0.3)\n"
        "print(code, time.process_time() - start, file=sys.stderr)\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    )
    code, idle = done.stderr.split()
    assert code == "0"
    assert float(idle) < 0.01
