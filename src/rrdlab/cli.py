"""Command line front end.

Every subcommand emits one canonical JSON document (sorted keys, two-space
indent, trailing newline) to stdout or, with --out, to a file written
atomically via a same-directory temp file and rename.  Exit status: 0 when
all checks the command performs pass, 1 when a numeric check or threshold
fails, 2 on usage errors (bad arguments, or a table radius beyond the
enumeration budget), 3 on an internal fault (any other exception).

Sphere tables are the one expensive artifact, so they are cached: with
--cache-dir or RRDLAB_CACHE_DIR set, tables live in files keyed by (q, max
length, cache major version).  A cache file whose header does not match the
request or the current major version, or whose contents fail validation, is
recomputed and rewritten, never silently reused.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys
import tempfile
import traceback
from typing import Optional

from . import CACHE_MAJOR_VERSION, __version__
from .algebra import AlgebraicValue, Fq
from .boundary import (
    hc_product,
    hc_product_expanded,
    sphere_average_check,
)
from .criterion import (
    DEFAULT_U_THRESHOLD,
    convolution_opnorm_lower,
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
from .trees import ball_count_bfs, ball_count_formula, boundary_cylinders

ENV_CACHE_DIR = "RRDLAB_CACHE_DIR"


class UsageError(Exception):
    """Bad arguments or preconditions: exit status 2."""


def _canonical_json(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".rrdlab-", suffix=".tmp")
    try:
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


def _cache_dir(args: argparse.Namespace) -> Optional[str]:
    if getattr(args, "cache_dir", None):
        return args.cache_dir
    return os.environ.get(ENV_CACHE_DIR) or None


def _sphere_cache_path(cache_dir: str, q: int, max_length: int) -> str:
    name = f"spheres-q{q}-n{max_length}-v{CACHE_MAJOR_VERSION}.json"
    return os.path.join(cache_dir, name)


def _load_table(q: int, max_length: int, cache_dir: Optional[str]) -> tuple[SphereTable, dict]:
    """Fetch the sphere table, through the cache when one is configured.

    Returns the table plus a provenance record naming the cache file in play.
    The record carries only run-stable facts (no hit flag, no timings), so
    reports stay byte-identical between cold and warm runs.
    """
    provenance: dict = {"path": None}
    path = None
    if cache_dir:
        path = _sphere_cache_path(cache_dir, q, max_length)
        provenance["path"] = path
        if os.path.exists(path):
            try:
                with open(path, "r") as handle:
                    table = SphereTable.from_json(handle.read())
                if table.q != q or table.max_length != max_length:
                    raise ValueError("cache file does not match the request")
                return table, provenance
            except ValueError:
                pass  # stale, foreign or corrupt cache: fall through and rebuild
    table = enumerate_ball(q, max_length)
    if path:
        _atomic_write(path, table.to_json())
    return table, provenance


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


def _cmd_spheres(args: argparse.Namespace) -> int:
    table, _ = _load_table(args.q, args.max_length, _cache_dir(args))
    _emit(table.to_json(), args.out)
    return 0


def _cmd_ball_count(args: argparse.Namespace) -> int:
    if args.degree < 3:
        raise UsageError("degree must be at least 3")
    rows = []
    passed = True
    for n in range(args.radius + 1):
        formula = ball_count_formula(args.degree, n)
        bfs = ball_count_bfs(args.degree, n)
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
    closed = hc_product(args.length_zero, args.length_infinity, args.q).value
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
            "value": closed.as_triple(),
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
    table, cache = _load_table(args.q, args.max_length, _cache_dir(args))
    report = condition_one_certificate(table)
    passed = report.passed
    payload = _envelope(
        "condition1",
        {"q": args.q, "max_length": args.max_length, "cache": cache},
        report.to_dict(),
        passed,
    )
    _emit(_canonical_json(payload), args.out)
    return 0 if passed else 1


def _cmd_uniform_bound(args: argparse.Namespace) -> int:
    if args.n < 0 or args.n % 2:
        raise UsageError("the sphere length must be even and nonnegative")
    if args.n > args.max_length:
        raise UsageError("sphere length exceeds the table radius")
    table, cache = _load_table(args.q, args.max_length, _cache_dir(args))
    report = uniform_bound_value(table, args.n)
    passed = report.at_most(args.threshold)
    payload = _envelope(
        "uniform-bound",
        {
            "q": args.q,
            "max_length": args.max_length,
            "n": args.n,
            "threshold": args.threshold,
            "cache": cache,
        },
        report.to_dict(),
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
    table, cache = _load_table(args.q, args.max_length, _cache_dir(args))
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
        result.to_dict(),
        passed,
    )
    _emit(_canonical_json(payload), args.out)
    return 0 if passed else 1


def _cmd_lamplighter(args: argparse.Namespace) -> int:
    if args.radius < 1:
        raise UsageError("radius must be at least 1")
    sizes = h_ball_growth(args.q, args.radius)
    certificate = exponential_certificate(args.q, sizes)
    passed = certificate.passed
    if args.csv:
        buffer = io.StringIO()
        buffer.write("radius,ball_size,log_growth_rate\n")
        for radius, size, rate in growth_csv_rows(sizes):
            buffer.write(f"{radius},{size},{rate}\n")
        _atomic_write(args.csv, buffer.getvalue())
    payload = _envelope(
        "lamplighter",
        {"q": args.q, "radius": args.radius, "csv": args.csv},
        certificate.to_dict(),
        passed,
    )
    _emit(_canonical_json(payload), args.out)
    return 0 if passed else 1


def _cmd_report(args: argparse.Namespace) -> int:
    if args.max_length < 2:
        raise UsageError("the report needs a table radius of at least 2")
    if args.depth < 1:
        raise UsageError("the compression depth must be at least 1")
    table, cache = _load_table(args.q, args.max_length, _cache_dir(args))
    verdict = rrd_report(
        args.q, args.max_length, depth=args.depth, u_bound=args.u_threshold, table=table
    )
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
        "--cache-dir", help=f"sphere table cache (or ${ENV_CACHE_DIR})"
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
