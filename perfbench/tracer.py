"""Run one rrdlab command in-process with layer spans recorded from outside.

    python3 perfbench/tracer.py --spans FILE --run-id ID -- <rrdlab arguments>

The tracer imports ``rrdlab.cli``, replaces selected functions in every
``rrdlab`` module namespace that holds them with wrappers that record spans
or call counts, and then calls ``rrdlab.cli.main``.  The program's sources are
not edited.  Spans stay in memory and are appended to FILE as JSON lines when
the command returns: one line per span (name, start, end, parent span id, run
id, attributes) and one line per counter.

``reduce_spans`` turns those lines into the benchmark's per-layer metrics.
This module imports only the standard library, so the benchmark harness can
import it without loading the program.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

# Span name -> (module, attribute path).  Every call records a span.
SPAN_TARGETS = {
    "sl2.translate_vertex": ("rrdlab.sl2", "translate_vertex"),
    "sl2.locate": ("rrdlab.sl2", "locate"),
    "sl2.registry_build": ("rrdlab.sl2", "TreeRegistry.__init__"),
    "criterion.compression": ("rrdlab.criterion", "mean_matrix_2norm"),
    "criterion.uniform_bound": ("rrdlab.criterion", "uniform_bound_value"),
    "criterion.convolution": ("rrdlab.criterion", "convolution_opnorm_lower"),
    "criterion.rrd_report": ("rrdlab.criterion", "rrd_report"),
    "boundary.cocycle_sqrt": ("rrdlab.boundary", "cocycle_sqrt"),
    "trees.boundary_cylinders": ("rrdlab.trees", "boundary_cylinders"),
    "spheres.enumerate_ball": ("rrdlab.spheres", "enumerate_ball"),
    "spheres.to_json": ("rrdlab.spheres", "SphereTable.to_json"),
    "spheres.from_json": ("rrdlab.spheres", "SphereTable.from_json"),
    "spheres.condition_one": ("rrdlab.spheres", "condition_one_certificate"),
    "lamplighter.h_ball_growth": ("rrdlab.lamplighter", "h_ball_growth"),
    "lamplighter.certificate": ("rrdlab.lamplighter", "exponential_certificate"),
}

# Counter name -> target.  These run 10^4 to 10^6 times per command, so a
# call adds one to a counter and records no span.
COUNT_TARGETS = {
    "algebra.poly_gcd": ("rrdlab.algebra", "poly_gcd"),
    "algebra.poly_xgcd": ("rrdlab.algebra", "poly_xgcd"),
    "boundary.hc_product": ("rrdlab.boundary", "hc_product"),
    "spheres.first_row": ("rrdlab.spheres", "_completions_for_row"),
}


def _attrs(name, args, result):
    """Work counts a span carries, read from its arguments or result."""
    if name == "criterion.compression":
        return {
            "iterations": getattr(result, "iterations", None),
            "converged": getattr(result, "converged", None),
        }
    if name == "criterion.convolution":
        return {
            "iterations": getattr(result, "iterations", None),
            "ball_size": getattr(result, "ball_size", None),
        }
    if name == "spheres.enumerate_ball":
        return {"elements": result.ball_size()}
    if name == "spheres.from_json":
        return {"bytes": len(args[1].encode())}
    if name == "lamplighter.h_ball_growth":
        return {"elements": result[-1]}
    return None


class Recorder:
    """In-memory spans and counters of one traced process."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []  # [name, start, end, parent index, attrs]
        self.stack: list[int] = []
        self.counts = dict.fromkeys(COUNT_TARGETS, 0)
        self.missing: list[str] = []

    def spanned(self, name, func):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def wrapper(*args, **kwargs):
            index = len(spans)
            record = [name, clock(), None, stack[-1] if stack else None, None]
            spans.append(record)
            stack.append(index)
            try:
                result = func(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            record[4] = _attrs(name, args, result)
            return result

        return wrapper

    def counted(self, name, func):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return func(*args, **kwargs)

        return wrapper

    def run_span(self, name, func, *args):
        return self.spanned(name, func)(*args)

    def install(self) -> None:
        """Swap every target for its wrapper, in each module that holds it."""
        modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == "rrdlab" or n.startswith("rrdlab."))
        ]
        plan = [(n, t, self.spanned) for n, t in SPAN_TARGETS.items()]
        plan += [(n, t, self.counted) for n, t in COUNT_TARGETS.items()]
        for name, (module_name, path), wrap in plan:
            owner_path, _, attr = path.rpartition(".")
            owner = sys.modules.get(module_name)
            for part in filter(None, owner_path.split(".")):
                owner = getattr(owner, part, None)
            raw = vars(owner).get(attr) if owner is not None else None
            if raw is None:
                self.missing.append(name)
            elif isinstance(owner, type):
                if isinstance(raw, classmethod):
                    setattr(owner, attr, classmethod(wrap(name, raw.__func__)))
                else:
                    setattr(owner, attr, wrap(name, raw))
            else:
                wrapper = wrap(name, raw)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is raw:
                            setattr(module, key, wrapper)

    def write(self, path: str) -> None:
        with open(path, "a") as handle:
            for index, (name, start, end, parent, attrs) in enumerate(self.spans):
                handle.write(json.dumps({
                    "name": name, "start": start, "end": end, "parent": parent,
                    "id": index, "run": self.run_id, "attrs": attrs,
                }) + "\n")
            for name, value in self.counts.items():
                handle.write(json.dumps(
                    {"counter": name, "value": value, "run": self.run_id}
                ) + "\n")
            for name in self.missing:
                handle.write(json.dumps({"missing": name, "run": self.run_id}) + "\n")


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", required=True, help="append JSON-lines spans here")
    parser.add_argument("--run-id", required=True)
    parser.add_argument("command", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    command = args.command[1:] if args.command[:1] == ["--"] else args.command
    recorder = Recorder(args.run_id)
    try:
        cli = recorder.run_span("cli.import", __import__, "rrdlab.cli", None, None, ["main"])
        recorder.install()
        return recorder.run_span("cli.main", cli.main, command)
    finally:
        sys.stdout.flush()
        recorder.write(args.spans)


# ---------------------------------------------------------------------------
# reduction to per-layer metrics


def reduce_spans(lines) -> tuple[dict[str, float], list[str]]:
    """Per-layer metrics from span lines, plus the names of targets that
    were missing from the program.  Times are seconds of span duration;
    self time is a span's duration minus that of its direct child spans."""
    total: dict[str, float] = {}
    self_time: dict[str, float] = {}
    calls: dict[str, int] = {}
    attrs: dict[str, list[dict]] = {}
    counts = dict.fromkeys(COUNT_TARGETS, 0)
    missing: set[str] = set()
    runs: dict[str, list[dict]] = {}
    for line in lines:
        record = json.loads(line)
        if "counter" in record:
            counts[record["counter"]] += record["value"]
        elif "missing" in record:
            missing.add(record["missing"])
        else:
            runs.setdefault(record["run"], []).append(record)
    for spans in runs.values():
        child_time = [0.0] * len(spans)
        for span in spans:
            if span["parent"] is not None:
                child_time[span["parent"]] += span["end"] - span["start"]
        for span in spans:
            name, duration = span["name"], span["end"] - span["start"]
            total[name] = total.get(name, 0.0) + duration
            self_time[name] = self_time.get(name, 0.0) + duration - child_time[span["id"]]
            calls[name] = calls.get(name, 0) + 1
            if span["attrs"]:
                attrs.setdefault(name, []).append(span["attrs"])

    def summed(name, key):
        return sum(a[key] or 0 for a in attrs.get(name, ()))

    ball_elements = summed("spheres.enumerate_ball", "elements")
    first_rows = counts["spheres.first_row"]
    metrics = {
        "sl2.translate_vertex_calls": calls.get("sl2.translate_vertex", 0),
        "sl2.translate_vertex_s": total.get("sl2.translate_vertex", 0.0),
        "sl2.locate_calls": calls.get("sl2.locate", 0),
        "sl2.locate_s": total.get("sl2.locate", 0.0),
        "sl2.registry_builds": calls.get("sl2.registry_build", 0),
        "sl2.registry_build_s": total.get("sl2.registry_build", 0.0),
        "algebra.poly_gcd_calls": counts["algebra.poly_gcd"],
        "criterion.compression_s": total.get("criterion.compression", 0.0),
        "criterion.compression_self_s": self_time.get("criterion.compression", 0.0),
        "criterion.compression_power_iters": summed("criterion.compression", "iterations"),
        "criterion.compression_unconverged": sum(
            a["converged"] is False for a in attrs.get("criterion.compression", ())
        ),
        "criterion.uniform_bound_s": total.get("criterion.uniform_bound", 0.0),
        "criterion.uniform_bound_self_s": self_time.get("criterion.uniform_bound", 0.0),
        "criterion.convolution_s": total.get("criterion.convolution", 0.0),
        "criterion.convolution_pairs": sum(
            (a["ball_size"] or 0) * ((a["ball_size"] or 0) + 1) // 2
            for a in attrs.get("criterion.convolution", ())
        ),
        "criterion.convolution_power_iters": summed("criterion.convolution", "iterations"),
        "criterion.rrd_report_s": total.get("criterion.rrd_report", 0.0),
        "boundary.cocycle_sqrt_calls": calls.get("boundary.cocycle_sqrt", 0),
        "boundary.cocycle_sqrt_s": total.get("boundary.cocycle_sqrt", 0.0),
        "boundary.hc_product_calls": counts["boundary.hc_product"],
        "trees.boundary_cylinders_calls": calls.get("trees.boundary_cylinders", 0),
        "trees.boundary_cylinders_s": total.get("trees.boundary_cylinders", 0.0),
        "spheres.enumerate_ball_s": total.get("spheres.enumerate_ball", 0.0),
        "spheres.ball_elements": ball_elements,
        "spheres.first_rows": first_rows,
        "spheres.yield": ball_elements / first_rows if first_rows else 0.0,
        "spheres.poly_xgcd_calls": counts["algebra.poly_xgcd"],
        "spheres.to_json_s": total.get("spheres.to_json", 0.0),
        "spheres.from_json_s": total.get("spheres.from_json", 0.0),
        "cli.cache_read_bytes": summed("spheres.from_json", "bytes"),
        "spheres.condition_one_s": total.get("spheres.condition_one", 0.0),
        "lamplighter.h_ball_growth_s": total.get("lamplighter.h_ball_growth", 0.0),
        "lamplighter.ball_elements": summed("lamplighter.h_ball_growth", "elements"),
        "lamplighter.certificate_s": total.get("lamplighter.certificate", 0.0),
        "cli.import_s": total.get("cli.import", 0.0),
        "cli.main_s": total.get("cli.main", 0.0),
    }
    return metrics, sorted(missing)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
