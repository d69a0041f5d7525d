from __future__ import annotations

import json
import os

import pytest

from rrdlab import CACHE_MAJOR_VERSION, cli
from rrdlab.cli import main


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


def test_cache_dir_from_environment(tmp_path, capsys, monkeypatch):
    cache = tmp_path / "envcache"
    monkeypatch.setenv("RRDLAB_CACHE_DIR", str(cache))
    code, _ = run(capsys, "condition1", "--max-length", "2")
    assert code == 0
    assert any(cache.iterdir())


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


def test_uniform_bound_threshold_is_exact(capsys):
    # U_2 = 6/5, and the double nearest 1.2 lies just below it
    for threshold, expected in (("1.2", 1), ("1.2000000000000002", 0), ("inf", 0)):
        code, _ = run(
            capsys, "uniform-bound", "--max-length", "2", "--n", "2", "--threshold", threshold
        )
        assert code == expected


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

# Each corruption of a valid q = 2, N = 2 cache body that the loader must
# reject: a wrong shape, or contents no enumeration can produce.
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


def test_impossible_radius_is_a_usage_error(capsys):
    code, out = run(capsys, "spheres", "--q", "2", "--max-length", "30")
    assert code == 2
    assert out == ""
