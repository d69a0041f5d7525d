"""Closed-loop benchmark of the rrdlab command line.

One harness process runs one ``rrdlab`` command at a time, each in a fresh
interpreter, the way a user runs the tool.  A workload is a fixed list of
commands (a session) plus the sphere-table caches its set-up builds.  A run
sets up, then repeats the session for the requested seconds, and checks every
output, the caches and the determinism of the bytes.  A traced run adds one
session whose commands go through ``tracer.py`` and reduces its spans to the
per-layer metrics.

Every cache lives in a temporary directory inside the checkout, which is
removed at the end of the run; an inherited ``RRDLAB_CACHE_DIR`` is cleared.
"""

from __future__ import annotations

import hashlib
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from importlib import metadata
from typing import Callable, Optional

from . import checks, tracer

# A run stops starting sessions when another one could cross this mark, so
# that it exits well inside the 180 s a run may take.
RUN_LIMIT_S = 150.0
# Children still running at this mark are killed.
KILL_AFTER_S = 170.0

WORK_DIR = ".perfbench-work"
CACHED_COMMANDS = {"spheres", "report", "uniform-bound", "opnorm", "condition1"}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    warm: tuple[tuple[int, int], ...]  # (q, max_length) tables set-up builds
    commands: tuple[tuple[str, ...], ...]
    setup_repeats: int
    shuffle: bool = False


def _cmd(text: str) -> tuple[str, ...]:
    return tuple(text.split())


WORKLOADS = {w.name: w for w in (
    Workload(
        "report-q2n4",
        "the reference certificate on a warm cache: transport assembly and "
        "lattice canonicalization dominate, spheres are never enumerated",
        warm=((2, 4),),
        commands=(_cmd("report --q 2 --max-length 4 --depth 4"),),
        setup_repeats=3,
    ),
    Workload(
        "spheres-q3n4",
        "the cold sphere build a cache miss pays: poly_xgcd, the window sweep "
        "and q = 3 field arithmetic, no criterion and no lattice work",
        warm=(),
        commands=(_cmd("spheres --q 3 --max-length 4"),),
        setup_repeats=5,
    ),
    Workload(
        "probes",
        "six warm-cache commands: exact U_n, convolution, the lamplighter BFS, "
        "condition 1, process starts and cache reads; no transport, no enumeration",
        warm=((2, 4), (2, 6), (3, 2)),
        commands=(
            _cmd("uniform-bound --q 2 --max-length 4 --n 4"),
            _cmd("uniform-bound --q 3 --max-length 2 --n 2"),
            _cmd("opnorm --q 2 --max-length 6 --n 2 --radius 4"),
            _cmd("opnorm --q 3 --max-length 2 --n 0 --radius 2"),
            _cmd("condition1 --q 2 --max-length 6"),
            _cmd("lamplighter --q 2 --radius 13"),
        ),
        setup_repeats=2,
        shuffle=True,
    ),
    # A configuration that runs in seconds, for the benchmark's own tests.
    Workload(
        "smoke",
        "seconds-long configuration touching the warm, cold and probe paths",
        warm=((2, 2),),
        commands=(
            _cmd("report --q 2 --max-length 2 --depth 1"),
            _cmd("spheres --q 2 --max-length 2"),
            _cmd("uniform-bound --q 2 --max-length 2 --n 2"),
        ),
        setup_repeats=2,
    ),
)}
BENCHMARK_WORKLOADS = ("report-q2n4", "spheres-q3n4", "probes")

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "bytes"
    if name in ("spheres.yield", "trace.overhead"):
        return "ratio"
    return "count"


class BenchError(Exception):
    """The benchmark cannot run here (missing program, failed set-up)."""


@dataclass
class Proc:
    args: tuple[str, ...]
    code: int
    cpu_s: float
    rss_mb: float
    stdout: bytes
    stderr: bytes


@dataclass
class Result:
    workload: str
    attempted: int = 0
    failed: int = 0
    samples: dict[str, list[float]] = field(default_factory=dict)
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)
    outputs: dict[str, str] = field(default_factory=dict)
    missing_targets: list[str] = field(default_factory=list)


class Runner:
    """Spawns one child at a time and reads its exit status and resource
    usage with ``os.wait4``."""

    def __init__(self, root: str, work: str, kill_at: float):
        self.root = root
        self.work = work
        self.kill_at = kill_at
        env = dict(os.environ)
        env.pop("RRDLAB_CACHE_DIR", None)
        src = os.path.join(root, "src")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        self.env = env

    def spawn(self, argv: list[str]) -> Proc:
        """Run one child to completion."""
        out_path = os.path.join(self.work, "stdout")
        err_path = os.path.join(self.work, "stderr")
        lock = threading.Lock()
        done = False
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            child = subprocess.Popen(
                argv, cwd=self.root, env=self.env,
                stdin=subprocess.DEVNULL, stdout=out, stderr=err,
            )

            def kill():
                with lock:
                    if not done:
                        child.kill()

            timer = threading.Timer(max(0.0, self.kill_at - time.monotonic()), kill)
            timer.start()
            try:
                # wait without reaping, so the timer can never signal a reused pid
                os.waitid(os.P_PID, child.pid, os.WEXITED | os.WNOWAIT)
            except BaseException:
                child.kill()
                child.wait()
                raise
            finally:
                with lock:
                    done = True
                timer.cancel()
                timer.join()
            _, status, usage = os.wait4(child.pid, 0)
            child.returncode = os.waitstatus_to_exitcode(status)
        with open(out_path, "rb") as out, open(err_path, "rb") as err:
            stdout, stderr = out.read(), err.read()
        return Proc(
            args=tuple(argv),
            code=child.returncode,
            cpu_s=usage.ru_utime + usage.ru_stime,
            rss_mb=usage.ru_maxrss / 1024.0,  # Linux reports KiB
            stdout=stdout,
            stderr=stderr,
        )


def _reset(directory: str) -> None:
    shutil.rmtree(directory, ignore_errors=True)
    os.makedirs(directory)


def _written_bytes(before: dict, after: dict) -> int:
    return sum(size for name, (size, mtime) in after.items() if before.get(name) != (size, mtime))


def _stat_files(*directories: str) -> dict[str, tuple[int, int]]:
    state = {}
    for directory in directories:
        for name in os.listdir(directory):
            info = os.stat(os.path.join(directory, name))
            state[os.path.join(directory, name)] = (info.st_size, info.st_mtime_ns)
    return state


class Bench:
    """One run of one workload inside a checkout at ``root``."""

    def __init__(self, root: str, workload: Workload, seed: int, started: float):
        self.root = root
        self.workload = workload
        self.rng = random.Random(seed)
        self.started = started
        self.validators = checks.Validators(os.path.join(root, "schemas"))
        self.result = Result(workload.name)
        self.reference: dict[tuple[str, ...], str] = {}

    # -- pieces ---------------------------------------------------------------

    def _argv(self, args, warm: str, cold: str, traced: Optional[tuple[str, str]]):
        args = list(args)
        if args[0] in CACHED_COMMANDS:
            args += ["--cache-dir", cold if args[0] == "spheres" else warm]
        if traced:
            spans, run_id = traced
            prefix = [os.path.join(self.root, "perfbench", "tracer.py"), "--spans", spans,
                      "--run-id", run_id, "--"]
        else:
            prefix = ["-m", "rrdlab.cli"]
        return [sys.executable, *prefix, *args]

    def setup(self, runner: Runner, warm: str) -> float:
        """Import the program in a fresh interpreter and build every warm
        table; returns the seconds it took."""
        _reset(warm)
        builds = [("spheres", "--q", str(q), "--max-length", str(n)) for q, n in self.workload.warm]
        start = time.perf_counter()
        procs = [runner.spawn([sys.executable, "-c", "import rrdlab.cli"])]
        procs += [runner.spawn(self._argv(args, warm, cold=warm, traced=None)) for args in builds]
        elapsed = time.perf_counter() - start
        for proc, args in zip(procs, [None, *builds]):
            problems = [f"exit code {proc.code}"] if proc.code else []
            if args:
                problems = checks.output_problems(self.validators, args, proc.code, proc.stdout)
            if problems:
                raise BenchError(
                    f"set-up command {' '.join(proc.args)} failed: {problems}; "
                    f"stderr: {proc.stderr.decode(errors='replace')[-2000:]}"
                )
        return elapsed

    def session(self, runner, commands, warm, cold, traced=None):
        """Run the commands back to back; returns the children, the wall
        seconds from the first spawn to the last exit, and the cache bytes
        written (counted only when traced)."""
        _reset(cold)
        procs, written = [], 0
        start = time.perf_counter()
        for i, args in enumerate(commands):
            per_command = (traced[0], f"{traced[1]}-c{i}") if traced else None
            before = _stat_files(warm, cold) if traced else None
            procs.append(runner.spawn(self._argv(args, warm, cold, per_command)))
            if traced:
                written += _written_bytes(before, _stat_files(warm, cold))
        wall = time.perf_counter() - start
        for proc, args in zip(procs, commands):
            proc.args = args
        return procs, wall, written

    def check(self, procs, warm_state, warm, cold) -> list[str]:
        problems = []
        for proc in procs:
            label = " ".join(proc.args)
            found = checks.output_problems(self.validators, proc.args, proc.code, proc.stdout)
            digest = hashlib.sha256(proc.stdout).hexdigest()
            if self.reference.setdefault(proc.args, digest) != digest:
                found.append("output bytes differ from the first session of this run")
            if found and proc.stderr:
                found.append("stderr: " + proc.stderr.decode(errors="replace")[-500:])
            problems += [f"{label}: {p}" for p in found]
            if proc.args[0] == "spheres":
                opts = checks.options(proc.args)
                written = sorted(os.listdir(cold))
                if len(written) != 1:
                    problems.append(f"{label}: cold cache holds {written}, expected one file")
                else:
                    problems += [
                        f"{label}: {p}" for p in checks.cold_table_problems(
                            os.path.join(cold, written[0]), opts["q"], opts["max_length"])
                    ]
        problems += checks.cache_problems(warm_state, checks.file_state(warm))
        return problems

    def _account(self, problems: list[str]) -> None:
        self.result.attempted += 1
        if problems:
            self.result.failed += 1
            self.result.problems += problems

    # -- the run --------------------------------------------------------------

    def run(self, work: str, seconds: float, trace: bool,
            after_setup: Optional[Callable[[str], None]] = None) -> Result:
        runner = Runner(self.root, work, self.started + KILL_AFTER_S)
        warm, cold = os.path.join(work, "cache"), os.path.join(work, "cold")
        commands = list(self.workload.commands)
        if self.workload.shuffle:
            self.rng.shuffle(commands)
        repeats = 1 if trace else self.workload.setup_repeats
        setup_times = [self.setup(runner, warm) for _ in range(repeats)]
        warm_state = checks.file_state(warm)
        if after_setup:
            after_setup(warm)

        walls, cpus, rsses = [], [], []
        window_start = time.perf_counter()
        while True:
            procs, wall, _ = self.session(runner, commands, warm, cold)
            self._account(self.check(procs, warm_state, warm, cold))
            walls.append(wall)
            cpus.append(sum(p.cpu_s for p in procs))
            rsses.append(max(p.rss_mb for p in procs))
            measured = time.perf_counter() - window_start
            if trace or measured + wall > seconds:
                break
            if time.monotonic() - self.started + 1.5 * wall > RUN_LIMIT_S:
                break
        for proc in procs:
            self.result.outputs[" ".join(proc.args)] = hashlib.sha256(proc.stdout).hexdigest()
        samples = {"wall_s": walls, "cpu_s": cpus, "peak_rss_mb": rsses, "setup_s": setup_times}
        self.result.samples = samples
        if not trace:
            self.result.metrics = {
                name: (statistics.median(values), END_TO_END_UNITS[name])
                for name, values in samples.items()
            }
            return self.result

        spans = os.path.join(work, "spans.jsonl")
        procs, traced_wall, written = self.session(
            runner, commands, warm, cold, traced=(spans, f"{self.workload.name}-traced"))
        self._account(self.check(procs, warm_state, warm, cold))
        lines = []
        if os.path.exists(spans):  # absent only when every traced command died early
            with open(spans) as handle:
                lines = handle.readlines()
        layers, missing = tracer.reduce_spans(lines)
        layers["cli.cache_write_bytes"] = written
        layers["cli.output_bytes"] = sum(len(p.stdout) for p in procs)
        layers["trace.overhead"] = traced_wall / statistics.median(walls)
        self.result.missing_targets = missing
        self.result.metrics = {name: (value, layer_unit(name)) for name, value in layers.items()}
        return self.result


def run_workload(root: str, name: str, seed: int, seconds: float, trace: bool,
                 after_setup: Optional[Callable[[str], None]] = None) -> Result:
    """Set up and measure one workload in the checkout at ``root``."""
    started = time.monotonic()
    if not os.path.isfile(os.path.join(root, "src", "rrdlab", "cli.py")):
        raise BenchError(f"no rrdlab sources under {os.path.join(root, 'src')}")
    src = os.path.join(root, "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    parent = os.path.join(root, WORK_DIR)
    os.makedirs(parent, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{name}-", dir=parent)
    try:
        return Bench(root, WORKLOADS[name], seed, started).run(
            work, seconds, trace, after_setup)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(parent)
        except OSError:
            pass  # another run still uses it


def _git_commit(root: str) -> Optional[str]:
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs")) as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def machine_record(root: str, seed: int) -> dict:
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg": list(os.getloadavg()),
        "commit": _git_commit(root),
        "seed": seed,
    }


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3
