"""Command line front end.

Every subcommand emits one canonical JSON document (sorted keys, two-space
indent, trailing newline) to stdout or, with --out, to a file written
atomically via a same-directory temp file and rename.  Exit status: 0 when
all checks the command performs pass, 1 when a numeric check or threshold
fails, 2 on usage errors (bad arguments, or a radius beyond the budget of
the sphere enumeration, the subgroup ball count, the ball-count BFS, the
mean-identity check, the compression core or the convolution matrix), 3 on
an internal fault (any other exception).  Result records are written by
``algebra.plain``.

With --cache-dir, every command that reads a sphere table also keeps a copy
of it in that directory, in a file keyed by (q, max length, cache major
version) that holds exactly what ``spheres`` prints.  The table itself is
always built by the pair scan; the file is never read back, only compared
byte for byte and replaced when it differs, so a warm cache file is left
untouched.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import sys
import tempfile
import traceback
from typing import Optional

from . import CACHE_MAJOR_VERSION, __version__
from .algebra import AlgebraicValue, Fq, plain
from .boundary import (
    hc_product,
    hc_product_expanded,
    sphere_average_check,
)
from .criterion import (
    DEFAULT_U_THRESHOLD,
    check_compression_budget,
    check_convolution_budget,
    convolution_opnorm_lower,
    json_threshold,
    rrd_report,
    uniform_bound_value,
)
from .lamplighter import exponential_certificate, growth_csv_rows, h_ball_growth
from .spheres import (
    RadiusBudgetError,
    SphereTable,
    condition_one_certificate,
    enumerate_ball,
)
from .trees import (
    BFS_VERTEX_BUDGET,
    ball_count_bfs,
    ball_count_formula,
    boundary_cylinders,
    check_bfs_budget,
    sphere_size,
)

class UsageError(Exception):
    """Bad arguments or preconditions: exit status 2."""


def _canonical_json(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".rrdlab-", suffix=".tmp")
    try:
        # mkstemp makes the file owner-only; give it the mode open() would
        umask = os.umask(0)
        os.umask(umask)
        os.fchmod(fd, 0o666 & ~umask)
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        _atomic_write(out, text)
    else:
        sys.stdout.write(text)


def _sphere_cache_path(cache_dir: str, q: int, max_length: int) -> str:
    name = f"spheres-q{q}-n{max_length}-v{CACHE_MAJOR_VERSION}.json"
    return os.path.join(cache_dir, name)


def _holds(path: str, data: bytes) -> bool:
    """Whether the file at ``path`` holds exactly ``data``; it is read only
    when its size matches."""
    try:
        if os.path.getsize(path) != len(data):
            return False
        with open(path, "rb") as handle:
            return handle.read() == data
    except OSError:
        return False


def _load_table(
    q: int, max_length: int, cache_dir: Optional[str]
) -> tuple[SphereTable, dict, Optional[str]]:
    """Build the sphere table, and copy it to the cache when one is configured.

    Returns the table, a provenance record naming the cache file by its file
    name, not its directory, and the table's JSON text when a cache is
    configured (None otherwise), so the caller need not serialize it again.
    The cache file is replaced unless it already holds these bytes, so a
    warm file keeps its mtime.  The record carries only run-stable facts (no
    location, no hit flag, no timings), so reports stay byte-identical
    between cold and warm runs and between cache directories.
    """
    table = enumerate_ball(q, max_length)
    if not cache_dir:
        return table, {"path": None}, None
    path = _sphere_cache_path(cache_dir, q, max_length)
    text = table.to_json()
    if not _holds(path, text.encode()):
        _atomic_write(path, text)
    return table, {"path": os.path.basename(path)}, text


def _envelope(command: str, config: dict, result: dict, passed: bool) -> dict:
    return {
        "command": command,
        "tool_version": __version__,
        "cache_major": CACHE_MAJOR_VERSION,
        "config": config,
        "result": result,
        "pass": passed,
    }


# ---------------------------------------------------------------------------
# subcommands


def _blocking_file(directory: str) -> Optional[str]:
    """The existing file, if any, that ``directory`` or one of its ancestors
    is, so that the directory cannot be made."""
    path = os.path.abspath(directory)
    while not os.path.exists(path):
        path = os.path.dirname(path)
    return None if os.path.isdir(path) else path


def _within(path: str, ancestor: str) -> bool:
    """Whether ``path`` is ``ancestor`` or lies under it."""
    path, ancestor = os.path.abspath(path), os.path.abspath(ancestor)
    return os.path.commonpath([path, ancestor]) == ancestor


def _check_arguments(args: argparse.Namespace) -> None:
    """The preconditions shared by several subcommands, as usage errors."""
    if getattr(args, "q", None) is not None:
        try:
            Fq(args.q)
        except ValueError as exc:
            raise UsageError(str(exc)) from None
    for name in ("max_length", "radius", "length"):
        if getattr(args, name, 0) < 0:
            raise UsageError(f"--{name.replace('_', '-')} must be nonnegative")
    # a nan threshold decides nothing and a -inf one fails every value; JSON
    # writes +inf as null, which then means no bound
    for name in ("threshold", "u_threshold"):
        value = getattr(args, name, 0.0)
        if math.isnan(value) or value == -math.inf:
            raise UsageError(f"--{name.replace('_', '-')} must be a number or inf, not {value}")
    # output files are replaced by a rename, which a directory refuses, in a
    # directory made on demand, which an existing file in its place refuses;
    # both would fail only after the work is done
    for name in ("out", "csv"):
        path = getattr(args, name, None)
        if path and os.path.isdir(path):
            raise UsageError(f"--{name} must name a file, not the directory {path}")
        blocking = path and _blocking_file(os.path.dirname(path))
        if blocking:
            raise UsageError(f"--{name} {path} lies under the file {blocking}")
    cache_dir = getattr(args, "cache_dir", None)
    if not cache_dir:
        return
    blocking = _blocking_file(cache_dir)
    if blocking:
        raise UsageError(f"the cache directory {cache_dir} is or lies under the file {blocking}")
    # the cache file is replaced by a rename, which a directory in its place
    # refuses
    cache_path = _sphere_cache_path(cache_dir, args.q, args.max_length)
    if os.path.isdir(cache_path):
        raise UsageError(f"the cache file {cache_path} is a directory")
    # the cache file is written before the output, which would then find the
    # cache directory where it goes or where its directory goes, or replace
    # the cache file with another document
    if args.out and (_within(cache_dir, args.out) or _within(args.out, cache_path)):
        raise UsageError(f"--out {args.out} collides with the cache file {cache_path}")


def _cmd_spheres(args: argparse.Namespace) -> int:
    table, _, written = _load_table(args.q, args.max_length, args.cache_dir)
    _emit(written or table.to_json(), args.out)
    return 0


def _cmd_ball_count(args: argparse.Namespace) -> int:
    if args.degree < 3:
        raise UsageError("degree must be at least 3")
    check_bfs_budget(args.degree, args.radius)
    rows = []
    passed = True
    for n, bfs in enumerate(ball_count_bfs(args.degree, args.radius)):
        formula = ball_count_formula(args.degree, n)
        ok = formula == bfs
        passed = passed and ok
        rows.append({"n": n, "formula": formula, "bfs": bfs, "match": ok})
    payload = _envelope(
        "ball-count",
        {"degree": args.degree, "radius": args.radius},
        {"rows": rows},
        passed,
    )
    _emit(_canonical_json(payload), args.out)
    return 0 if passed else 1


def _cmd_xi(args: argparse.Namespace) -> int:
    if args.length_zero < 0 or args.length_infinity < 0:
        raise UsageError("lengths must be nonnegative")
    closed = hc_product(args.length_zero, args.length_infinity, args.q)
    expanded = hc_product_expanded(args.length_zero, args.length_infinity, args.q)
    passed = closed == expanded
    payload = _envelope(
        "xi",
        {
            "q": args.q,
            "length_zero": args.length_zero,
            "length_infinity": args.length_infinity,
        },
        {
            "value": plain(closed),
            "value_float": float(closed),
            "expanded_matches": passed,
        },
        passed,
    )
    _emit(_canonical_json(payload), args.out)
    return 0 if passed else 1


def _cmd_mean_identity(args: argparse.Namespace) -> int:
    if args.degree < 3:
        raise UsageError("degree must be at least 3")
    depth = args.depth if args.depth is not None else args.length
    if depth < args.length:
        raise UsageError("depth must be at least the displacement length")
    # every cylinder of the depth sums over the sphere of the length
    work = sphere_size(args.degree, depth) * sphere_size(args.degree, args.length)
    if work > BFS_VERTEX_BUDGET:
        raise RadiusBudgetError(
            f"mean-identity at degree {args.degree}, length {args.length} and depth {depth} "
            f"needs {work:,} cocycle terms, over the budget of {BFS_VERTEX_BUDGET:,}"
        )
    one = AlgebraicValue.rational(1, args.degree - 1)
    checked = 0
    worst_ok = True
    for cylinder in boundary_cylinders(args.degree, depth):
        ratio = sphere_average_check(args.degree, args.length, cylinder)
        checked += 1
        if ratio != one:
            worst_ok = False
    payload = _envelope(
        "mean-identity",
        {"degree": args.degree, "length": args.length, "depth": depth},
        {"cylinders_checked": checked, "all_ratios_one": worst_ok},
        worst_ok,
    )
    _emit(_canonical_json(payload), args.out)
    return 0 if worst_ok else 1


def _cmd_condition1(args: argparse.Namespace) -> int:
    if args.max_length < 2:
        raise UsageError("condition 1 needs a table radius of at least 2")
    table, cache, _ = _load_table(args.q, args.max_length, args.cache_dir)
    report = condition_one_certificate(table)
    passed = report.passed
    payload = _envelope(
        "condition1",
        {"q": args.q, "max_length": args.max_length, "cache": cache},
        plain(report),
        passed,
    )
    _emit(_canonical_json(payload), args.out)
    return 0 if passed else 1


def _cmd_uniform_bound(args: argparse.Namespace) -> int:
    if args.n < 0 or args.n % 2:
        raise UsageError("the sphere length must be even and nonnegative")
    if args.n > args.max_length:
        raise UsageError("sphere length exceeds the table radius")
    table, cache, _ = _load_table(args.q, args.max_length, args.cache_dir)
    report = uniform_bound_value(table, args.n)
    passed = report.at_most(args.threshold)
    payload = _envelope(
        "uniform-bound",
        {
            "q": args.q,
            "max_length": args.max_length,
            "n": args.n,
            "threshold": json_threshold(args.threshold),
            "cache": cache,
        },
        plain(report),
        passed,
    )
    _emit(_canonical_json(payload), args.out)
    return 0 if passed else 1


def _cmd_opnorm(args: argparse.Namespace) -> int:
    if args.n < 0 or args.n % 2:
        raise UsageError("the sphere length must be even and nonnegative")
    if args.radius + args.n > args.max_length:
        raise UsageError(
            "ball radius plus sphere length must stay within the table radius"
        )
    check_convolution_budget(args.q, args.radius)
    table, cache, _ = _load_table(args.q, args.max_length, args.cache_dir)
    result = convolution_opnorm_lower(table, args.n, args.radius)
    passed = result.l1_ok
    payload = _envelope(
        "opnorm",
        {
            "q": args.q,
            "max_length": args.max_length,
            "n": args.n,
            "radius": args.radius,
            "cache": cache,
        },
        plain(result),
        passed,
    )
    _emit(_canonical_json(payload), args.out)
    return 0 if passed else 1


def _cmd_lamplighter(args: argparse.Namespace) -> int:
    if args.radius < 1:
        raise UsageError("radius must be at least 1")
    sizes = h_ball_growth(args.q, args.radius)
    certificate = exponential_certificate(args.q, sizes)
    passed = certificate.rd_failure_flag
    if args.csv:
        buffer = io.StringIO()
        buffer.write("radius,ball_size,log_growth_rate\n")
        for radius, size, rate in growth_csv_rows(sizes):
            buffer.write(f"{radius},{size},{rate}\n")
        _atomic_write(args.csv, buffer.getvalue())
    payload = _envelope(
        "lamplighter",
        {"q": args.q, "radius": args.radius, "csv": args.csv},
        plain(certificate),
        passed,
    )
    _emit(_canonical_json(payload), args.out)
    return 0 if passed else 1


def _cmd_report(args: argparse.Namespace) -> int:
    if args.max_length < 2:
        raise UsageError("the report needs a table radius of at least 2")
    if args.depth < 1:
        raise UsageError("the compression depth must be at least 1")
    check_compression_budget(args.q, args.depth)
    table, cache, _ = _load_table(args.q, args.max_length, args.cache_dir)
    verdict = rrd_report(table, depth=args.depth, u_bound=args.u_threshold)
    verdict["config"]["cache"] = cache
    _emit(_canonical_json(verdict), args.out)
    return 0 if verdict["pass"] else 1


# ---------------------------------------------------------------------------
# parser


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rrdlab",
        description="Rapid-decay certificates for the Laurent matrix group "
        "acting on a product of two tree boundaries.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", help="write the JSON document here (atomic)")

    cached = argparse.ArgumentParser(add_help=False)
    cached.add_argument("--q", type=int, default=2, help="field size (default 2)")
    cached.add_argument(
        "--max-length", type=int, required=True, help="table radius (even lengths)"
    )
    cached.add_argument(
        "--cache-dir", help="also write the sphere table here (kept when unchanged)"
    )

    p = sub.add_parser(
        "spheres", parents=[common, cached], help="enumerate length spheres"
    )
    p.set_defaults(handler=_cmd_spheres)

    p = sub.add_parser(
        "ball-count", parents=[common], help="pair-ball counts, formula vs BFS"
    )
    p.add_argument("--degree", type=int, default=3)
    p.add_argument("--radius", type=int, default=8)
    p.set_defaults(handler=_cmd_ball_count)

    p = sub.add_parser("xi", parents=[common], help="exact spherical-function value")
    p.add_argument("--q", type=int, default=2)
    p.add_argument("--length-zero", type=int, required=True)
    p.add_argument("--length-infinity", type=int, required=True)
    p.set_defaults(handler=_cmd_xi)

    p = sub.add_parser(
        "mean-identity",
        parents=[common],
        help="sphere average of the cocycle square root equals the spherical value",
    )
    p.add_argument("--degree", type=int, default=3)
    p.add_argument("--length", type=int, required=True)
    p.add_argument("--depth", type=int, default=None)
    p.set_defaults(handler=_cmd_mean_identity)

    p = sub.add_parser(
        "condition1", parents=[common, cached], help="polynomial sphere-norm bound"
    )
    p.set_defaults(handler=_cmd_condition1)

    p = sub.add_parser(
        "uniform-bound", parents=[common, cached], help="exact mean sup norm U_n"
    )
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--threshold", type=float, default=DEFAULT_U_THRESHOLD)
    p.set_defaults(handler=_cmd_uniform_bound)

    p = sub.add_parser(
        "opnorm", parents=[common, cached], help="convolution norm lower bound"
    )
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--radius", type=int, required=True)
    p.set_defaults(handler=_cmd_opnorm)

    p = sub.add_parser(
        "lamplighter", parents=[common], help="subgroup growth certificate"
    )
    p.add_argument("--q", type=int, default=2)
    p.add_argument("--radius", type=int, default=10)
    p.add_argument("--csv", help="also write radius,size,rate rows here")
    p.set_defaults(handler=_cmd_lamplighter)

    p = sub.add_parser(
        "report", parents=[common, cached], help="full certificate verdict"
    )
    p.add_argument("--depth", type=int, default=4)
    p.add_argument("--u-threshold", type=float, default=DEFAULT_U_THRESHOLD)
    p.set_defaults(handler=_cmd_report)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        _check_arguments(args)
        return args.handler(args)
    except (UsageError, RadiusBudgetError) as exc:
        print(f"rrdlab: {exc}", file=sys.stderr)
        return 2
    except Exception:
        print(f"rrdlab: internal error\n{traceback.format_exc()}", file=sys.stderr, end="")
        return 3


if __name__ == "__main__":
    sys.exit(main())
