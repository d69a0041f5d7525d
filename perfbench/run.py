"""Benchmark entry point.

    python3 perfbench/run.py --workload report-q2n4 --seed 1 --seconds 15 --trace 0

Runs from the root of a checkout.  Prints every metric by name with its
unit, quartiles and sample count, then the failures, the output digests and
the machine record, and as the last line one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer metrics of a traced session.
``--workload all`` runs the three benchmark workloads in seed-shuffled order.
Exits 2 when the checkout holds no program to measure and 1 when an output
check failed.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import signal
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from perfbench import harness  # noqa: E402


def _report(result: harness.Result, prefix: str) -> None:
    for name, (value, unit) in result.metrics.items():
        line = f"{prefix}{name} = {value!r} {unit}"
        if name in result.samples:
            q1, median, q3 = harness.quartiles(result.samples[name])
            line += f"  (median; q1 {q1:.4f}, q3 {q3:.4f}; n={len(result.samples[name])})"
        print(line)
    frac = result.failed / result.attempted
    print(f"{prefix}failed_frac = {frac!r}  ({result.failed} of {result.attempted} sessions)")
    for problem in result.problems[:20]:
        print(f"{prefix}FAILED {problem}")
    if result.missing_targets:
        print(f"{prefix}tracer targets absent from the program: {result.missing_targets}")
    print(f"{prefix}outputs {json.dumps(result.outputs, sort_keys=True)}")


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description="rrdlab benchmark")
    parser.add_argument("--workload", required=True,
                        choices=[*harness.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn a termination request into an exception, so the running child is
    # killed and waited for and the work directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    names = [args.workload]
    if args.workload == "all":
        names = list(harness.BENCHMARK_WORKLOADS)
        random.Random(args.seed).shuffle(names)
    start_record = harness.machine_record(ROOT, args.seed)
    results = []
    try:
        for name in names:
            results.append(harness.run_workload(
                ROOT, name, args.seed, args.seconds, bool(args.trace)))
    except harness.BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    except ImportError as exc:
        print(f"perfbench: cannot import {exc.name}: {exc}", file=sys.stderr)
        return 2

    metrics = {}
    for result in results:
        prefix = f"{result.workload}: " if len(results) > 1 else ""
        _report(result, prefix)
        for name, (value, unit) in result.metrics.items():
            metrics[prefix.replace(": ", "/") + name] = {"value": value, "unit": unit}
    record = dict(start_record, loadavg_start=start_record.pop("loadavg"),
                  loadavg_end=list(os.getloadavg()))
    print("machine " + json.dumps(record, sort_keys=True))
    attempted = sum(r.attempted for r in results)
    failed = sum(r.failed for r in results)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
