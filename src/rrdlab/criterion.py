"""Criterion engine for the rapid-decay certificate.

Exact side: the normalized mean over a sphere applied to the constant
function, as a cylinder step function, and its sup norm U_n (the working
certificate: the mean's 2-norm is dominated by the sup norm of its value on
the constant function).  Floating side: power iteration on measure-weighted
compressions (always a lower bound, so the exact sup norms must dominate
them) and convolution-operator lower bounds on group balls.  The exact
Koopman matrices and the operator form of the mean, which check both sides,
live with the tests (``tests/oracles.py``).
"""

from __future__ import annotations

import math
from contextvars import ContextVar
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

import numpy as np

from . import CACHE_MAJOR_VERSION, __version__
from .algebra import AlgebraicValue, Place
from .boundary import cocycle_sqrt, hc_product
from .lamplighter import exponential_certificate, h_ball_growth
from .sl2 import SL2Element, TreeRegistry, build_registry, locate, translate_vertex
from .spheres import SphereTable, condition_one_certificate, enumerate_ball
from .trees import (
    BoundaryCylinder,
    ProductCylinder,
    TreeVertex,
    boundary_cylinders,
    sphere_size,
)

POWER_ITERATION_SEED = 0x5EED
TOLERANCE = 1e-10
MAX_ITERS = 10_000
CHAIN_SLACK = 1e-8
BASE_IDENTITY_TOL = 1e-6
MAX_MEAN_LENGTH = 4
DEFAULT_U_THRESHOLD = 8.0

DepthSpec = Union[int, tuple[int, int]]
Registries = tuple[TreeRegistry, TreeRegistry]


def _depth_pair(depths: DepthSpec) -> tuple[int, int]:
    if isinstance(depths, int):
        pair = (depths, depths)
    else:
        pair = (int(depths[0]), int(depths[1]))
    if pair[0] < 0 or pair[1] < 0:
        raise ValueError(f"negative depth in {pair}")
    return pair


def _registries(q: int, radii: tuple[int, int]) -> Registries:
    """The place-zero and place-infinity registries of the given radii."""
    return build_registry(q, Place.ZERO, radii[0]), build_registry(q, Place.INFINITY, radii[1])


# Label paths in bulk: the floating side compares thousands of paths at once.
def label_array(paths: Sequence[tuple[int, ...]], width: int) -> np.ndarray:
    """Label paths as the rows of an int64 array, padded with -1 to ``width``."""
    out = np.full((len(paths), width), -1, dtype=np.int64)
    for i, path in enumerate(paths):
        out[i, : len(path)] = path
    return out


def common_prefix_lengths(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Common-prefix length of every row of ``a`` with every row of ``b``,
    both label arrays of one width; shape (len(a), len(b)).

    A position extends a common prefix while every earlier one matched; the
    -1 padding never counts, so a prefix stops where a path ends.
    """
    matching = np.ones((len(a), len(b)), dtype=bool)
    prefix = np.zeros((len(a), len(b)), dtype=np.int64)
    for x, y in zip(a.T, b.T):
        matching &= (x[:, None] == y[None, :]) & (x >= 0)[:, None]
        prefix += matching
    return prefix


def _cylinder_action(
    k: SL2Element, registry: TreeRegistry, cyls: list[BoundaryCylinder]
) -> list[int]:
    """perm[j] = index of the cylinder that the constant element k moves the
    j-th one of ``cyls`` (all cylinders of one depth) to.  k fixes the root,
    so depths match."""
    if k.is_identity():
        return list(range(len(cyls)))
    index = {c.base.path: j for j, c in enumerate(cyls)}
    return [
        index[registry.locate_form(translate_vertex(k, registry.form_at(c.base))).path]
        for c in cyls
    ]


# ---------------------------------------------------------------------------
# step functions on the product boundary


@dataclass(frozen=True)
class StepFunction:
    """A function on the product of the two boundaries, constant on each cell
    of the depth-(K0, Kinf) product-cylinder partition.

    Cells absent from ``values`` are zero.  The sup norm is exact.
    """

    degree: int
    depths: tuple[int, int]
    values: dict[ProductCylinder, AlgebraicValue]

    def __post_init__(self) -> None:
        for cell in self.values:
            if cell.depths != self.depths:
                raise ValueError(
                    f"cell at depths {cell.depths} in a function of depths {self.depths}"
                )
            if cell.zero.degree != self.degree:
                raise ValueError("cell degree differs from the function degree")

    def cell_total(self) -> int:
        counts = []
        for k in self.depths:
            counts.append(1 if k == 0 else self.degree * (self.degree - 1) ** (k - 1))
        return counts[0] * counts[1]

    def sup_norm(self) -> AlgebraicValue:
        zero = AlgebraicValue.rational(0, self.degree - 1)
        best = zero if len(self.values) < self.cell_total() else None
        for v in self.values.values():
            a = abs(v)
            if best is None or a > best:
                best = a
        if best is None:
            raise ValueError("empty step function with no cells")
        return best


# ---------------------------------------------------------------------------
# cylinder transports


def _transport_supports(
    gamma: SL2Element,
    w: TreeVertex,
    in_cyls: list[BoundaryCylinder],
    out_paths: np.ndarray,
    registry: TreeRegistry,
) -> tuple[np.ndarray, np.ndarray]:
    """Transport data for one boundary factor, shared by the floating
    assembly and the exact Koopman matrices of the tests: the Busemann value
    beta at w = gamma . o of every
    output cylinder (its cocycle weight is q^(beta/2)), and covered[j, i],
    true when the image of input cylinder j covers output cylinder i.

    ``out_paths`` holds the label paths of every output cylinder (one depth,
    see ``label_array``).  The images of the input cylinders must partition
    the boundary; that is checked, it is the structural check on the whole
    assembly.
    """
    width = out_paths.shape[1]
    ys = label_array(
        [
            registry.locate_form(translate_vertex(gamma, registry.form_at(ic.base))).path
            for ic in in_cyls
        ],
        width,
    )
    w_row = label_array([w.path], width)
    wz = common_prefix_lengths(w_row, out_paths)[0]
    wy = common_prefix_lengths(w_row, ys)[0]
    y_depths = np.count_nonzero(ys >= 0, axis=1)
    # y on the geodesic [w, z], in shared-prefix arithmetic
    covered = common_prefix_lengths(ys, out_paths) + wy[:, None] == y_depths[:, None] + wz
    if np.any(covered.sum(axis=0) != 1):
        raise RuntimeError(
            "transported cylinder images fail to partition the boundary "
            f"(place {registry.place.value}, element {gamma.to_text()})"
        )
    return 2 * wz - w.depth, covered


# ---------------------------------------------------------------------------
# normalized means, exact side


def mean_transfer_function(table: SphereTable, n: int) -> StepFunction:
    """The exact value of the normalized, spherical-function-weighted mean
    over the length-n sphere applied to the constant function 1, as a
    depth-(n, n) step function.

    Each sphere element contributes the product of its two per-place cocycle
    square roots divided by its spherical-function value; the result is
    averaged.  Cocycles and spherical value read only the located pair
    (g . o_0, g . o_inf), so the members of a right coset gK contribute equal
    terms and each coset is evaluated once, weighted by its share of the
    sphere.  Its integral is
    exactly 1 (the sphere-average identity, one factor per place), which the
    tests pin down.
    """
    gammas = table.sphere(n)
    if not gammas:
        raise ValueError(f"sphere {n} is empty")
    q = table.q
    _, cosets = _sphere_split(table, n, (n, n))
    cells = boundary_cylinders(q + 1, n)
    acc = [[AlgebraicValue.rational(0, q) for _ in cells] for _ in cells]
    for w0, w1, members in cosets:
        xi = hc_product(w0.depth, w1.depth, q).value
        scale = AlgebraicValue.rational(Fraction(len(members), len(gammas)), q) / xi
        vec0 = [scale * cocycle_sqrt(w0, c) for c in cells]
        vec1 = [cocycle_sqrt(w1, c) for c in cells]
        for row, left in zip(acc, vec0):
            for i1, right in enumerate(vec1):
                row[i1] = row[i1] + left * right
    values = {
        ProductCylinder(c0, c1): acc[i0][i1]
        for i0, c0 in enumerate(cells)
        for i1, c1 in enumerate(cells)
    }
    return StepFunction(q + 1, (n, n), values)


@dataclass(frozen=True)
class MeanReport:
    """The sup norm U_n of the transfer function: an exact upper bound for
    the 2-norm of the normalized mean, the condition-(2) witness at n."""

    n: int
    value: AlgebraicValue
    value_float: float
    depths: tuple[int, int]
    sphere_size: int

    def at_most(self, threshold: float) -> bool:
        """U_n <= threshold, decided exactly: Fraction(threshold) is the
        float's exact value, and ``value_float`` is for display only."""
        if not math.isfinite(threshold):
            return threshold == math.inf
        return self.value <= Fraction(threshold)

    def to_dict(self) -> dict:
        # timings stay out of artifacts: reports must be byte-identical
        return {
            "n": self.n,
            "value": self.value.as_triple(),
            "value_float": self.value_float,
            "depths": list(self.depths),
            "sphere_size": self.sphere_size,
        }


def uniform_bound_value(table: SphereTable, n: int) -> MeanReport:
    transfer = mean_transfer_function(table, n)
    value = transfer.sup_norm()
    if value.sign() <= 0:
        raise RuntimeError(f"U_{n} is not positive")
    return MeanReport(
        n=n,
        value=value,
        value_float=float(value),
        depths=transfer.depths,
        sphere_size=table.sphere_size(n),
    )


# ---------------------------------------------------------------------------
# floating spectral estimates


@dataclass(frozen=True)
class CompressionResult:
    """Largest singular value of the mean compressed to a depth-K subspace:
    a floating lower bound for the mean's 2-norm, dominated by U_n."""

    n: int
    depths: tuple[int, int]
    value: float
    iterations: int
    converged: bool

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "depths": list(self.depths),
            "value": self.value,
            "iterations": self.iterations,
            "converged": self.converged,
            "tolerance": TOLERANCE,
        }


def _power_iteration_symmetric(matrix: np.ndarray) -> tuple[float, int, bool]:
    """Largest eigenvalue of a symmetric positive-semidefinite matrix by
    seeded power iteration; returns (eigenvalue, iterations, converged)."""
    rng = np.random.default_rng(POWER_ITERATION_SEED)
    v = rng.standard_normal(matrix.shape[0])
    v /= np.linalg.norm(v)
    previous = 0.0
    for iteration in range(1, MAX_ITERS + 1):
        w = matrix @ v
        norm = np.linalg.norm(w)
        if norm == 0.0:
            return 0.0, iteration, True
        v = w / norm
        estimate = float(v @ (matrix @ v))
        if abs(estimate - previous) <= TOLERANCE * max(1.0, abs(estimate)):
            return estimate, iteration, True
        previous = estimate
    return previous, MAX_ITERS, False


# One right coset rK: the located pair (r . o_0, r . o_inf) and its members
# as (sphere index, k) with member = r k, the representative r first.
Coset = tuple[TreeVertex, TreeVertex, list[tuple[int, SL2Element]]]


def _right_cosets(
    gammas: Sequence[SL2Element], reg0: TreeRegistry, reginf: TreeRegistry
) -> list[Coset]:
    """Split a sphere into right cosets rK of K = SL2(F_q).

    The stabilizer of the base-vertex pair is K, so g and h share a coset
    exactly when they move the pair to the same vertices.  Cosets come in
    order of first appearance, r is the first member, and every quotient k
    is checked to be constant.
    """
    grouped: dict[tuple, tuple[TreeVertex, TreeVertex, list[int]]] = {}
    for gi, g in enumerate(gammas):
        w0 = locate(g, Place.ZERO, reg0)
        w1 = locate(g, Place.INFINITY, reginf)
        grouped.setdefault((w0.path, w1.path), (w0, w1, []))[2].append(gi)
    cosets = []
    for w0, w1, indices in grouped.values():
        r_inv = gammas[indices[0]].inverse()
        members = []
        for gi in indices:
            k = r_inv * gammas[gi]
            if not k.is_constant():
                raise RuntimeError(
                    f"coset quotient is not constant: {gammas[gi].to_text()}"
                )
            members.append((gi, k))
        cosets.append((w0, w1, members))
    return cosets


# The right cosets of one sphere with the registries that located them.
Split = tuple[Registries, list[Coset]]

# While ``rrd_report`` runs, the split of each sphere it reads, keyed by n
# and located once with registries deep enough for every compression depth.
_SHARED_SPLITS: ContextVar[Optional[dict[int, tuple[SphereTable, Split]]]] = ContextVar(
    "_SHARED_SPLITS", default=None
)


def _sphere_split(table: SphereTable, n: int, radii: tuple[int, int]) -> Split:
    """Sphere n split into right cosets, with registries of at least
    ``radii``: the split ``rrd_report`` shares when it is deep enough, else a
    fresh one.  Located paths and coset order do not depend on the registry
    radius, so both give the same numbers."""
    shared = (_SHARED_SPLITS.get() or {}).get(n)
    if shared is not None and shared[0] is table:
        registries = shared[1][0]
        if all(r.radius >= need for r, need in zip(registries, radii)):
            return shared[1]
    registries = _registries(table.q, radii)
    return registries, _right_cosets(table.sphere(n), *registries)


def _transport_stack(
    gammas: Sequence[SL2Element],
    cosets: list[Coset],
    place: Place,
    in_depth: int,
    out_depth: int,
    registry: TreeRegistry,
    q: int,
) -> np.ndarray:
    """Stacked per-element transport matrices (one boundary factor) with
    floating cocycle weights: shape (len(gammas), #out cells, #in cells).

    Only coset representatives are transported.  A member g = r k has
    g . x = r . (k . x) and g . o = r . o, so its matrix is r's with the
    input columns permuted by k's action on the input cylinders.
    """
    in_cyls = boundary_cylinders(q + 1, in_depth)
    out_paths = label_array(
        [c.base.path for c in boundary_cylinders(q + 1, out_depth)], out_depth
    )
    stack = np.zeros((len(gammas), len(out_paths), len(in_cyls)))
    actions: dict[SL2Element, list[int]] = {}
    for w0, w1, members in cosets:
        w = w0 if place is Place.ZERO else w1
        betas, covered = _transport_supports(
            gammas[members[0][0]], w, in_cyls, out_paths, registry
        )
        weights = np.array([float(q) ** (beta / 2.0) for beta in betas.tolist()])
        rep = np.where(covered.T, weights[:, None], 0.0)
        for gi, k in members:
            if k not in actions:
                actions[k] = _cylinder_action(k, registry, in_cyls)
            stack[gi] = rep[:, actions[k]]
    if np.any(np.count_nonzero(stack, axis=2) != 1):
        raise RuntimeError("transported supports fail to partition the boundary")
    return stack


def mean_matrix_2norm(table: SphereTable, n: int, depths: DepthSpec) -> CompressionResult:
    """Largest singular value of the weighted mean compressed to the depth-K
    step functions, with measure-weighted 2-norms on both sides.

    The Gram matrix of the compression is accumulated exactly once (in
    floating point) from the per-element, per-factor transport matrices, and
    the top eigenvalue is found by seeded power iteration on that symmetric
    matrix; the square root is the reported bound.  Any iterate is a valid
    lower bound for the true compression norm, converged or not.
    """
    gammas = table.sphere(n)
    if not gammas:
        raise ValueError(f"sphere {n} is empty")
    pair = _depth_pair(depths)
    q = table.q
    degree = q + 1
    out_pair = (pair[0] + n, pair[1] + n)
    (reg0, reginf), cosets = _sphere_split(table, n, out_pair)
    P0 = _transport_stack(gammas, cosets, Place.ZERO, pair[0], out_pair[0], reg0, q)
    P1 = _transport_stack(gammas, cosets, Place.INFINITY, pair[1], out_pair[1], reginf, q)
    # fold the per-element scalars 1/(|C_n| Xi(gamma)) into the first factor
    count = len(gammas)
    for w0, w1, members in cosets:
        xi = float(hc_product(w0.depth, w1.depth, q).value)
        for gi, _ in members:
            P0[gi] /= count * xi
    # every depth-k cylinder has the same measure, one over the sphere size
    mu_in0, mu_in1, mu_out0, mu_out1 = (
        1.0 / sphere_size(degree, k) for k in (*pair, *out_pair)
    )
    G, O0, I0 = P0.shape
    _, O1, I1 = P1.shape
    # Gram matrix of the mean: A[(i,j),(k,l)] = sum_{g,h} Q0^g[i,(h,k)] Q1^g[j,(h,l)]
    # with Q0^g = P0[g]^T D0 P0[h] stacked over h; accumulated per g to keep
    # memory flat
    W0 = mu_out0 * P0.transpose(1, 0, 2).reshape(O0, G * I0)
    W1 = mu_out1 * P1.transpose(1, 0, 2).reshape(O1, G * I1)
    gram_ik_jl = np.zeros((I0 * I0, I1 * I1))
    for gi in range(G):
        Q0 = P0[gi].T @ W0  # (I0, G*I0)
        Q1 = P1[gi].T @ W1  # (I1, G*I1)
        S0 = Q0.reshape(I0, G, I0).transpose(1, 0, 2).reshape(G, I0 * I0)
        S1 = Q1.reshape(I1, G, I1).transpose(1, 0, 2).reshape(G, I1 * I1)
        gram_ik_jl += S0.T @ S1
    gram = (
        gram_ik_jl.reshape(I0, I0, I1, I1)
        .transpose(0, 2, 1, 3)
        .reshape(I0 * I1, I0 * I1)
    )
    # whiten by the input measure so plain power iteration sees the weighted norm
    scale = math.sqrt(mu_in0 * mu_in1)
    sym = gram / (scale * scale)
    sym = (sym + sym.T) / 2.0
    eigenvalue, iterations, converged = _power_iteration_symmetric(sym)
    return CompressionResult(
        n=n,
        depths=pair,
        value=math.sqrt(max(eigenvalue, 0.0)),
        iterations=iterations,
        converged=converged,
    )


# ---------------------------------------------------------------------------
# convolution on the group ball


@dataclass(frozen=True)
class ConvolutionResult:
    n: int
    ball_radius: int
    value: float
    iterations: int
    converged: bool
    ball_size: int
    sphere_size: int

    @property
    def l1_ok(self) -> bool:
        """The bound stays below |C_n|, the l1 norm of the indicator."""
        return self.value <= self.sphere_size + 1e-9

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "ball_radius": self.ball_radius,
            "value": self.value,
            "iterations": self.iterations,
            "converged": self.converged,
            "ball_size": self.ball_size,
            "sphere_size": self.sphere_size,
        }


def convolution_matrix(table: SphereTable, n: int, ball_radius: int) -> np.ndarray:
    """The sphere indicator's convolution compressed to the length ball: the
    0/1 matrix [L(g h^-1) == n] over ball elements g, h in table order.

    The group acts by isometries, so L(g h^-1) is the sum over both places of
    the tree distance d(g^-1 . o, h^-1 . o).  Each inverse is located once
    per place, and the distances |p| + |p'| - 2 prefix(p, p') of the label
    paths come from ``common_prefix_lengths``.
    """
    inverses = [
        g.inverse()
        for length in table.lengths()
        if length <= ball_radius
        for g in table.sphere(length)
    ]
    size = len(inverses)
    lengths = np.zeros((size, size), dtype=np.int64)
    for place, registry in zip(
        (Place.ZERO, Place.INFINITY),
        _registries(table.q, (ball_radius, ball_radius)),
    ):
        paths = [locate(h, place, registry).path for h in inverses]
        depths = np.array([len(p) for p in paths], dtype=np.int64)
        labels = label_array(paths, ball_radius)
        lengths += depths[:, None] + depths[None, :] - 2 * common_prefix_lengths(labels, labels)
    return (lengths == n).astype(float)


def convolution_opnorm_lower(table: SphereTable, n: int, ball_radius: int) -> ConvolutionResult:
    """Power-iteration lower bound for the convolution operator norm of the
    sphere indicator, compressed to functions on the length ball of the given
    radius.  Nondecreasing in the radius; never above the sphere size.

    The sphere is inversion closed, so the compressed matrix is symmetric and
    the iteration runs on its square.
    """
    if table.sphere_size(n) == 0:
        raise ValueError(f"sphere {n} is empty")
    if ball_radius + n > table.max_length:
        raise ValueError(
            f"ball radius {ball_radius} plus sphere length {n} exceeds the "
            f"table radius {table.max_length}"
        )
    matrix = convolution_matrix(table, n, ball_radius)
    squared = matrix @ matrix
    eigenvalue, iterations, converged = _power_iteration_symmetric(squared)
    return ConvolutionResult(
        n=n,
        ball_radius=ball_radius,
        value=math.sqrt(max(eigenvalue, 0.0)),
        iterations=iterations,
        converged=converged,
        ball_size=len(matrix),
        sphere_size=table.sphere_size(n),
    )


# ---------------------------------------------------------------------------
# full verdict


def rrd_report(
    q: int,
    max_length: int,
    depth: int = 4,
    u_bound: float = DEFAULT_U_THRESHOLD,
    table: Optional[SphereTable] = None,
) -> dict:
    """Run the whole certificate at one configuration and emit the verdict.

    Sections: the condition-(1) polynomial bound per sphere, the exact
    condition-(2) sup norms U_n, the compression 2-norms with their chain
    check against U_n, the convolution lower bounds with the finite-subgroup
    identity at n = 0, and the subgroup growth certificate for the failure
    side.  All exact values appear as (a, b, q) triples.  ``u_bound`` is
    the condition-(2) threshold on every U_n.
    """
    if table is None:
        table = enumerate_ball(q, max_length)
    elif (table.q, table.max_length) != (q, max_length):
        raise ValueError(
            f"sphere table is for q={table.q}, max_length={table.max_length}, "
            f"not q={q}, max_length={max_length}"
        )
    cond1 = condition_one_certificate(table)

    mean_lengths = [
        n
        for n in range(0, min(max_length, MAX_MEAN_LENGTH) + 1, 2)
        if table.sphere_size(n) > 0
    ]
    # locate each sphere once, deep enough for every compression depth
    splits = {n: (table, _sphere_split(table, n, (n + depth, n + depth))) for n in mean_lengths}
    token = _SHARED_SPLITS.set(splits)
    try:
        mean_reports = [uniform_bound_value(table, n) for n in mean_lengths]
        u_by_n = {r.n: r for r in mean_reports}
        cond2_pass = all(r.at_most(u_bound) for r in mean_reports)

        compression_rows = []
        chain_ok = True
        for n in mean_lengths:
            for k in range(1, depth + 1):
                result = mean_matrix_2norm(table, n, k)
                bound = u_by_n[n].value_float
                ok = result.value <= bound + CHAIN_SLACK
                chain_ok = chain_ok and ok
                row = result.to_dict()
                row["u_bound_float"] = bound
                row["chain_ok"] = ok
                compression_rows.append(row)
    finally:
        _SHARED_SPLITS.reset(token)

    convolution_rows = []
    base_identity = None
    l1_ok = True
    for n in (0, 2):
        radius = min(4, max_length - n)
        if radius < 0 or table.sphere_size(n) == 0:
            continue
        result = convolution_opnorm_lower(table, n, radius)
        row = result.to_dict()
        row["l1_ok"] = result.l1_ok
        l1_ok = l1_ok and result.l1_ok
        convolution_rows.append(row)
        if n == 0:
            expected = float(q**3 - q)
            base_identity = {
                "expected": expected,
                "value": result.value,
                "pass": abs(result.value - expected) <= BASE_IDENTITY_TOL,
            }
    convolution_pass = l1_ok and (base_identity is None or base_identity["pass"])

    growth = h_ball_growth(q, 10)
    lamp = exponential_certificate(q, growth)

    verdict = {
        "config": {
            "q": q,
            "max_length": max_length,
            "depth": depth,
            "thresholds": {
                "base_identity_tol": BASE_IDENTITY_TOL,
                "chain_slack": CHAIN_SLACK,
                "max_iters": MAX_ITERS,
                "max_mean_length": MAX_MEAN_LENGTH,
                "tolerance": TOLERANCE,
                "u_bound": u_bound,
            },
            "tool_version": __version__,
            "cache_major": CACHE_MAJOR_VERSION,
            "sphere_provenance": table.provenance,
        },
        "condition1": {**cond1.to_dict(), "pass": cond1.passed},
        "condition2": {
            "threshold": float(u_bound),
            "rows": [r.to_dict() for r in mean_reports],
            "pass": cond2_pass,
        },
        "compressions": {
            "chain_slack": CHAIN_SLACK,
            "rows": compression_rows,
            "pass": chain_ok,
        },
        "convolution": {
            "rows": convolution_rows,
            "base_identity": base_identity,
            "pass": convolution_pass,
        },
        "lamplighter-ref": {**lamp.to_dict(), "pass": lamp.passed},
    }
    verdict["pass"] = all(
        verdict[section]["pass"]
        for section in (
            "condition1",
            "condition2",
            "compressions",
            "convolution",
            "lamplighter-ref",
        )
    )
    return verdict
