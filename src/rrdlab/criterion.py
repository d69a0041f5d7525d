"""Criterion engine for the rapid-decay certificate.

Exact side: normalized means of boundary-representation images of cylinder
step functions, their sup norms U_n (the working certificate: the mean's
2-norm is dominated by the sup norm of its value on the constant function),
and exact Koopman matrices on cylinder partitions.  Floating side: power
iteration on measure-weighted compressions (always a lower bound, so the
exact sup norms must dominate them), convolution-operator lower bounds on
group balls, and the sphere-to-radial combination bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

import numpy as np

from . import CACHE_MAJOR_VERSION, __version__
from .algebra import AlgebraicValue, Fq, Place
from .boundary import cocycle_sqrt, hc_product
from .lamplighter import exponential_certificate, h_ball_growth
from .sl2 import SL2Element, TreeRegistry, build_registry, locate, translate_vertex
from .spheres import SphereTable, condition_one_certificate, enumerate_ball
from .trees import (
    ProductCylinder,
    TreeVertex,
    _common_prefix_len,
    boundary_cylinders,
    product_cylinders,
    sphere_size,
)

POWER_ITERATION_SEED = 0x5EED
DEFAULT_TOLERANCE = 1e-10
DEFAULT_MAX_ITERS = 10_000
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


def _cylinder_action(k: SL2Element, registry: TreeRegistry, depth: int) -> list[int]:
    """perm[j] = index of the depth-``depth`` cylinder that the constant
    element k moves the j-th one to.  k fixes the root, so depths match."""
    cyls = boundary_cylinders(registry.q + 1, depth)
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

    Cells absent from ``values`` are zero.  Norms, integrals, and pointwise
    comparisons are exact.
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

    @classmethod
    def constant(
        cls, degree: int, value: AlgebraicValue, depths: DepthSpec = 0
    ) -> "StepFunction":
        pair = _depth_pair(depths)
        return cls(degree, pair, {c: value for c in product_cylinders(degree, pair)})

    def _zero(self) -> AlgebraicValue:
        return AlgebraicValue.rational(0, self.degree - 1)

    def cell_total(self) -> int:
        counts = []
        for k in self.depths:
            counts.append(1 if k == 0 else self.degree * (self.degree - 1) ** (k - 1))
        return counts[0] * counts[1]

    def value_at(self, cell: ProductCylinder) -> AlgebraicValue:
        return self.values.get(cell, self._zero())

    def sup_norm(self) -> AlgebraicValue:
        best = self._zero() if len(self.values) < self.cell_total() else None
        for v in self.values.values():
            a = abs(v)
            if best is None or a > best:
                best = a
        if best is None:
            raise ValueError("empty step function with no cells")
        return best

    def l1_norm(self) -> AlgebraicValue:
        total = self._zero()
        for cell, v in self.values.items():
            total = total + abs(v) * cell.measure()
        return total

    def l2_norm_squared(self) -> AlgebraicValue:
        total = self._zero()
        for cell, v in self.values.items():
            total = total + v * v * cell.measure()
        return total

    def integral(self) -> AlgebraicValue:
        total = self._zero()
        for cell, v in self.values.items():
            total = total + v * cell.measure()
        return total

    def refine(self, depths: DepthSpec) -> "StepFunction":
        pair = _depth_pair(depths)
        if pair[0] < self.depths[0] or pair[1] < self.depths[1]:
            raise ValueError(f"refinement {pair} below current depths {self.depths}")
        if pair == self.depths:
            return self
        out: dict[ProductCylinder, AlgebraicValue] = {}
        for cell, v in self.values.items():
            for c0 in cell.zero.refinements(pair[0]):
                for c1 in cell.infinity.refinements(pair[1]):
                    out[ProductCylinder(c0, c1)] = v
        return StepFunction(self.degree, pair, out)

    def __add__(self, other: "StepFunction") -> "StepFunction":
        if not isinstance(other, StepFunction):
            return NotImplemented
        if self.depths != other.depths or self.degree != other.degree:
            raise ValueError("adding step functions of different partitions")
        out = dict(self.values)
        for cell, v in other.values.items():
            out[cell] = out[cell] + v if cell in out else v
        return StepFunction(self.degree, self.depths, out)

    def scale(self, factor) -> "StepFunction":
        return StepFunction(
            self.degree, self.depths, {c: v * factor for c, v in self.values.items()}
        )

    def pointwise_equal(self, other: "StepFunction") -> bool:
        if self.depths != other.depths:
            return False
        for cell in set(self.values) | set(other.values):
            if self.value_at(cell) != other.value_at(cell):
                return False
        return True

    def pointwise_nonneg(self) -> bool:
        return all(v.sign() >= 0 for v in self.values.values())

    def pointwise_leq(self, other: "StepFunction") -> bool:
        if self.depths != other.depths:
            raise ValueError("comparing step functions of different partitions")
        for cell in set(self.values) | set(other.values):
            if self.value_at(cell) > other.value_at(cell):
                return False
        return True


# ---------------------------------------------------------------------------
# exact Koopman matrices


def _element_field(gamma: SL2Element) -> Fq:
    return gamma.entries()[0].field


def _transport_supports(
    gamma: SL2Element,
    w: TreeVertex,
    in_depth: int,
    out_depth: int,
    registry: TreeRegistry,
) -> tuple[list[int], list[list[int]]]:
    """Transport data for one boundary factor, shared by the exact and the
    floating assembly: the Busemann value beta at w = gamma . o of every
    depth-``out_depth`` cylinder (its cocycle weight is q^(beta/2)), and for
    each depth-``in_depth`` cylinder the indices of the output cylinders its
    image covers.

    The images of the input cylinders must partition the boundary; that is
    checked, it is the structural check on the whole assembly.
    """
    degree = registry.q + 1
    out_cyls = boundary_cylinders(degree, out_depth)
    out_paths = np.array([oc.base.path for oc in out_cyls], dtype=np.int64).reshape(
        len(out_cyls), out_depth
    )

    def prefix_lens(path: tuple[int, ...]) -> np.ndarray:
        """Common-prefix length of ``path`` with every output path."""
        path = path[:out_depth]
        return np.cumprod(out_paths[:, : len(path)] == path, axis=1).sum(axis=1)

    wp = w.path
    pre_wz = prefix_lens(wp)
    betas = (2 * pre_wz - len(wp)).tolist()
    supports: list[list[int]] = []
    hits = np.zeros(len(out_paths), dtype=np.int64)
    for ic in boundary_cylinders(degree, in_depth):
        yp = registry.locate_form(translate_vertex(gamma, registry.form_at(ic.base))).path
        # y on the geodesic [w, z], in shared-prefix arithmetic
        covered = prefix_lens(yp) + _common_prefix_len(wp, yp) == len(yp) + pre_wz
        supports.append(np.flatnonzero(covered).tolist())
        hits += covered
    if np.any(hits != 1):
        raise RuntimeError(
            "transported cylinder images fail to partition the boundary "
            f"(place {registry.place.value}, element {gamma.to_text()})"
        )
    return betas, supports


@dataclass(frozen=True)
class KoopmanMatrix:
    """The exact matrix of one group element's boundary representation,
    restricted to depth-K step functions.

    Columns are indexed by input cells; each column lists the output cells
    (at depth K plus the element's two tree lengths) with their exact
    cocycle-square-root entries.  Columns have pairwise disjoint supports and
    unit measure-weighted 2-norm, which is the unitarity seen at matrix level.
    """

    gamma: SL2Element
    input_depths: tuple[int, int]
    output_depths: tuple[int, int]
    columns: dict[ProductCylinder, tuple[tuple[ProductCylinder, AlgebraicValue], ...]]

    def apply(self, h: StepFunction) -> StepFunction:
        if h.depths != self.input_depths:
            raise ValueError(
                f"function at depths {h.depths}, matrix expects {self.input_depths}"
            )
        out: dict[ProductCylinder, AlgebraicValue] = {}
        for cell, value in h.values.items():
            for out_cell, weight in self.columns[cell]:
                contribution = weight * value
                if out_cell in out:
                    out[out_cell] = out[out_cell] + contribution
                else:
                    out[out_cell] = contribution
        return StepFunction(h.degree, self.output_depths, out)


def koopman_matrix(
    gamma: SL2Element,
    depths: DepthSpec,
    registries: Optional[Registries] = None,
) -> KoopmanMatrix:
    """Assemble the exact action of ``gamma`` on depth-``depths`` step
    functions.  Needs registries of radius at least depth + length at each
    place; omitted registries are built."""
    pair = _depth_pair(depths)
    field = _element_field(gamma)
    out_pair = (pair[0] + gamma.length_zero, pair[1] + gamma.length_infinity)
    reg0, reginf = registries or _registries(field.q, out_pair)
    if reg0.radius < out_pair[0] or reginf.radius < out_pair[1]:
        raise ValueError(
            f"registry radii ({reg0.radius}, {reginf.radius}) below the "
            f"output depths {out_pair}"
        )
    factors = []
    for place, in_depth, out_depth, reg in (
        (Place.ZERO, pair[0], out_pair[0], reg0),
        (Place.INFINITY, pair[1], out_pair[1], reginf),
    ):
        w = locate(gamma, place, reg)
        betas, supports = _transport_supports(gamma, w, in_depth, out_depth, reg)
        factors.append((
            boundary_cylinders(field.q + 1, in_depth),
            boundary_cylinders(field.q + 1, out_depth),
            [AlgebraicValue.sqrt_q_power(field.q, beta) for beta in betas],
            supports,
        ))
    (in0, out0, w0, sup0), (in1, out1, w1, sup1) = factors
    columns = {}
    for j0, ic0 in enumerate(in0):
        for j1, ic1 in enumerate(in1):
            col = []
            for i0 in sup0[j0]:
                left = w0[i0]
                for i1 in sup1[j1]:
                    col.append((ProductCylinder(out0[i0], out1[i1]), left * w1[i1]))
            columns[ProductCylinder(ic0, ic1)] = tuple(col)
    return KoopmanMatrix(
        gamma=gamma, input_depths=pair, output_depths=out_pair, columns=columns
    )


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
    reg0, reginf = _registries(q, (n, n))
    cells = boundary_cylinders(q + 1, n)
    acc = [[AlgebraicValue.rational(0, q) for _ in cells] for _ in cells]
    for w0, w1, members in _right_cosets(gammas, reg0, reginf):
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


class MeanOperator:
    """The exact normalized mean over one sphere as an operator on
    depth-``input_depths`` step functions.

    With ``xi_weighted`` each Koopman image is divided by its element's
    spherical-function value (the operator whose sup-norm certificate is
    U_n); without it the mean is plain, which is what the positivity
    comparison against the weighted mean needs.
    """

    def __init__(
        self,
        table: SphereTable,
        n: int,
        input_depths: DepthSpec,
        xi_weighted: bool = True,
    ):
        gammas = table.sphere(n)
        if not gammas:
            raise ValueError(f"sphere {n} is empty")
        self.n = n
        self.q = table.q
        self.input_depths = _depth_pair(input_depths)
        self.output_depths = (self.input_depths[0] + n, self.input_depths[1] + n)
        # one registry pair serves every element: lengths are at most n
        registries = _registries(self.q, self.output_depths)
        inv_size = Fraction(1, len(gammas))
        self._terms = []
        for g in gammas:
            scale = AlgebraicValue.rational(inv_size, self.q)
            if xi_weighted:
                scale = scale / hc_product(g.length_zero, g.length_infinity, self.q).value
            self._terms.append((koopman_matrix(g, self.input_depths, registries), scale))

    def apply(self, h: StepFunction) -> StepFunction:
        total: Optional[StepFunction] = None
        for matrix, scale in self._terms:
            term = matrix.apply(h).refine(self.output_depths).scale(scale)
            total = term if total is None else total + term
        assert total is not None
        return total


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
    tolerance: float

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "depths": list(self.depths),
            "value": self.value,
            "iterations": self.iterations,
            "converged": self.converged,
            "tolerance": self.tolerance,
        }


def _power_iteration_symmetric(
    matrix: np.ndarray, tol: float, max_iters: int
) -> tuple[float, int, bool]:
    """Largest eigenvalue of a symmetric positive-semidefinite matrix by
    seeded power iteration; returns (eigenvalue, iterations, converged)."""
    rng = np.random.default_rng(POWER_ITERATION_SEED)
    v = rng.standard_normal(matrix.shape[0])
    v /= np.linalg.norm(v)
    previous = 0.0
    for iteration in range(1, max_iters + 1):
        w = matrix @ v
        norm = np.linalg.norm(w)
        if norm == 0.0:
            return 0.0, iteration, True
        v = w / norm
        estimate = float(v @ (matrix @ v))
        if abs(estimate - previous) <= tol * max(1.0, abs(estimate)):
            return estimate, iteration, True
        previous = estimate
    return previous, max_iters, False


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
    n_out = sphere_size(q + 1, out_depth)
    n_in = sphere_size(q + 1, in_depth)
    stack = np.zeros((len(gammas), n_out, n_in))
    actions: dict[SL2Element, list[int]] = {}
    for w0, w1, members in cosets:
        w = w0 if place is Place.ZERO else w1
        betas, supports = _transport_supports(
            gammas[members[0][0]], w, in_depth, out_depth, registry
        )
        weights = [float(q) ** (beta / 2.0) for beta in betas]
        rep = np.zeros((n_out, n_in))
        for j, rows in enumerate(supports):
            for i in rows:
                rep[i, j] = weights[i]
        for gi, k in members:
            if k not in actions:
                actions[k] = _cylinder_action(k, registry, in_depth)
            stack[gi] = rep[:, actions[k]]
    if np.any(np.count_nonzero(stack, axis=2) != 1):
        raise RuntimeError("transported supports fail to partition the boundary")
    return stack


def mean_matrix_2norm(
    table: SphereTable,
    n: int,
    depths: DepthSpec,
    tol: float = DEFAULT_TOLERANCE,
    max_iters: int = DEFAULT_MAX_ITERS,
) -> CompressionResult:
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
    reg0, reginf = _registries(q, out_pair)
    cosets = _right_cosets(gammas, reg0, reginf)
    P0 = _transport_stack(gammas, cosets, Place.ZERO, pair[0], out_pair[0], reg0, q)
    P1 = _transport_stack(gammas, cosets, Place.INFINITY, pair[1], out_pair[1], reginf, q)
    # fold the per-element scalars 1/(|C_n| Xi(gamma)) into the first factor
    count = len(gammas)
    for w0, w1, members in cosets:
        xi = float(hc_product(w0.depth, w1.depth, q).value)
        for gi, _ in members:
            P0[gi] /= count * xi
    mu_in0 = np.array([float(c.measure()) for c in boundary_cylinders(degree, pair[0])])
    mu_in1 = np.array([float(c.measure()) for c in boundary_cylinders(degree, pair[1])])
    mu_out0 = np.array(
        [float(c.measure()) for c in boundary_cylinders(degree, out_pair[0])]
    )
    mu_out1 = np.array(
        [float(c.measure()) for c in boundary_cylinders(degree, out_pair[1])]
    )
    G, O0, I0 = P0.shape
    _, O1, I1 = P1.shape
    # Gram matrix of the mean: A[(i,j),(k,l)] = sum_{g,h} Q0^g[i,(h,k)] Q1^g[j,(h,l)]
    # with Q0^g = P0[g]^T D0 P0[h] stacked over h; accumulated per g to keep
    # memory flat
    W0 = (mu_out0[:, None] * P0.transpose(1, 0, 2).reshape(O0, G * I0))
    W1 = (mu_out1[:, None] * P1.transpose(1, 0, 2).reshape(O1, G * I1))
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
    scale = np.sqrt(np.outer(mu_in0, mu_in1).ravel())
    sym = gram / np.outer(scale, scale)
    sym = (sym + sym.T) / 2.0
    eigenvalue, iterations, converged = _power_iteration_symmetric(sym, tol, max_iters)
    return CompressionResult(
        n=n,
        depths=pair,
        value=math.sqrt(max(eigenvalue, 0.0)),
        iterations=iterations,
        converged=converged,
        tolerance=tol,
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
    paths come from one pass over the label positions.
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
        labels = np.full((size, ball_radius), -1, dtype=np.int64)
        for i, p in enumerate(paths):
            labels[i, : len(p)] = p
        # a position extends a common prefix while every earlier one matched;
        # the -1 padding never counts, so a prefix stops where a path ends
        matching = np.ones((size, size), dtype=bool)
        prefix = np.zeros((size, size), dtype=np.int64)
        for column in labels.T:
            matching &= (column[:, None] == column[None, :]) & (column >= 0)[:, None]
            prefix += matching
        lengths += depths[:, None] + depths[None, :] - 2 * prefix
    return (lengths == n).astype(float)


def convolution_opnorm_lower(
    table: SphereTable,
    n: int,
    ball_radius: int,
    tol: float = DEFAULT_TOLERANCE,
    max_iters: int = DEFAULT_MAX_ITERS,
) -> ConvolutionResult:
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
    eigenvalue, iterations, converged = _power_iteration_symmetric(
        squared, tol, max_iters
    )
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
# sphere-to-radial combination


@dataclass(frozen=True)
class CombinerResult:
    """The two displayed bounds for a radial function: term-by-term, and the
    Cauchy-Schwarz packaging with the (1+n)^-2 summability constant."""

    direct: float
    cauchy_schwarz: float
    truncation_constant: float
    q_at_length: float
    support_length: int

    def to_dict(self) -> dict:
        return {
            "direct": self.direct,
            "cauchy_schwarz": self.cauchy_schwarz,
            "truncation_constant": self.truncation_constant,
            "q_at_length": self.q_at_length,
            "support_length": self.support_length,
        }


def radial_bound_combiner(
    table: SphereTable,
    sphere_bounds: dict[int, float],
    coefficients: dict[int, float],
    poly_coeffs: Sequence[float] = (1.0, 1.0),
) -> CombinerResult:
    """Combine per-sphere operator-norm bounds into a radial bound.

    ``direct`` is the plain triangle inequality sum |a_n| b_n.  The other form
    follows the certificate's displayed chain: with C the square root of the
    truncated sum of (1+n)^-2 and Q(t) = (1+t)^2 P(t)^2 for the supplied
    polynomial P, it is C * Q(L) * sqrt(sum a_n^2 |C_n|) where L is the top of
    the support.
    """
    support = sorted(k for k, a in coefficients.items() if a != 0)
    if not support:
        return CombinerResult(0.0, 0.0, 0.0, 0.0, 0)
    missing = [k for k in support if k not in sphere_bounds]
    if missing:
        raise ValueError(f"no sphere bound supplied for lengths {missing}")
    direct = sum(abs(coefficients[k]) * sphere_bounds[k] for k in support)
    constant = math.sqrt(sum(1.0 / (1 + k) ** 2 for k in support))
    top = support[-1]
    p_at_top = sum(c * float(top) ** e for e, c in enumerate(poly_coeffs))
    q_at_top = (1 + top) ** 2 * p_at_top**2
    weighted = math.sqrt(
        sum(coefficients[k] ** 2 * table.sphere_size(k) for k in support)
    )
    return CombinerResult(
        direct=direct,
        cauchy_schwarz=constant * q_at_top * weighted,
        truncation_constant=constant,
        q_at_length=q_at_top,
        support_length=top,
    )


# ---------------------------------------------------------------------------
# full verdict


DEFAULT_THRESHOLDS = {
    "u_bound": DEFAULT_U_THRESHOLD,
    "chain_slack": 1e-8,
    "base_identity_tol": 1e-6,
    "tolerance": DEFAULT_TOLERANCE,
    "max_iters": DEFAULT_MAX_ITERS,
    "max_mean_length": 4,
}


def rrd_report(
    q: int,
    max_length: int,
    depth: int = 4,
    thresholds: Optional[dict] = None,
    table: Optional[SphereTable] = None,
) -> dict:
    """Run the whole certificate at one configuration and emit the verdict.

    Sections: the condition-(1) polynomial bound per sphere, the exact
    condition-(2) sup norms U_n, the compression 2-norms with their chain
    check against U_n, the convolution lower bounds with the finite-subgroup
    identity at n = 0, and the subgroup growth certificate for the failure
    side.  All exact values appear as (a, b, q) triples.
    """
    config = dict(DEFAULT_THRESHOLDS)
    if thresholds:
        config.update(thresholds)
    if table is None:
        table = enumerate_ball(q, max_length)
    elif (table.q, table.max_length) != (q, max_length):
        raise ValueError(
            f"sphere table is for q={table.q}, max_length={table.max_length}, "
            f"not q={q}, max_length={max_length}"
        )
    tol = float(config["tolerance"])
    max_iters = int(config["max_iters"])
    chain_slack = float(config["chain_slack"])

    cond1 = condition_one_certificate(table)

    mean_lengths = [
        n
        for n in range(0, min(max_length, int(config["max_mean_length"])) + 1, 2)
        if table.sphere_size(n) > 0
    ]
    mean_reports = [uniform_bound_value(table, n) for n in mean_lengths]
    u_by_n = {r.n: r for r in mean_reports}
    cond2_pass = all(r.value_float <= float(config["u_bound"]) for r in mean_reports)

    compression_rows = []
    chain_ok = True
    for n in mean_lengths:
        for k in range(1, depth + 1):
            result = mean_matrix_2norm(table, n, k, tol=tol, max_iters=max_iters)
            bound = u_by_n[n].value_float
            ok = result.value <= bound + chain_slack
            chain_ok = chain_ok and ok
            row = result.to_dict()
            row["u_bound_float"] = bound
            row["chain_ok"] = ok
            compression_rows.append(row)

    convolution_rows = []
    base_identity = None
    l1_ok = True
    for n in (0, 2):
        radius = min(4, max_length - n)
        if radius < 0 or table.sphere_size(n) == 0:
            continue
        result = convolution_opnorm_lower(table, n, radius, tol=tol, max_iters=max_iters)
        row = result.to_dict()
        row["l1_ok"] = result.l1_ok
        l1_ok = l1_ok and result.l1_ok
        convolution_rows.append(row)
        if n == 0:
            expected = float(q**3 - q)
            base_identity = {
                "expected": expected,
                "value": result.value,
                "pass": abs(result.value - expected)
                <= float(config["base_identity_tol"]),
            }
    convolution_pass = l1_ok and (base_identity is None or base_identity["pass"])

    growth = h_ball_growth(q, 10)
    lamp = exponential_certificate(q, growth)

    verdict = {
        "config": {
            "q": q,
            "max_length": max_length,
            "depth": depth,
            "thresholds": {k: config[k] for k in sorted(config)},
            "tool_version": __version__,
            "cache_major": CACHE_MAJOR_VERSION,
            "sphere_provenance": table.provenance,
        },
        "condition1": {**cond1.to_dict(), "pass": cond1.passed},
        "condition2": {
            "threshold": float(config["u_bound"]),
            "rows": [r.to_dict() for r in mean_reports],
            "pass": cond2_pass,
        },
        "compressions": {
            "chain_slack": chain_slack,
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
