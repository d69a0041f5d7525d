"""Independent oracles the tests compare the program against.

None of this is on the certificate's path.  Each piece recomputes something
the program computes, by a route that shares as little as possible with it:
tree distances and shadows by plain prefix arithmetic, lengths by Smith
pivoting over rational functions, the spherical function by a boundary
partition, spheres by breadth-first word search and by a scan of first rows
inside the coefficient window, and the mean by exact Koopman matrices
applied cell by cell.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from rrdlab.algebra import (
    AlgebraicValue,
    Fq,
    LaurentPolynomial,
    Place,
    poly_divmod,
    poly_gcd,
    series_quotient,
)
from rrdlab.boundary import HarishChandraValue, cocycle_sqrt, hc_product
from rrdlab.criterion import (
    DepthSpec,
    Registries,
    StepFunction,
    _depth_pair,
    _registries,
    _transport_supports,
    label_array,
)
from rrdlab.sl2 import SL2Element, _to_uniformizer, entry_lengths, locate
from rrdlab.spheres import SphereTable, _completions_for_row
from rrdlab.trees import (
    BoundaryCylinder,
    ProductCylinder,
    TreeVertex,
    _common_prefix_len,
    boundary_cylinders,
    gromov_product,
    sphere_vertices,
)

# ---------------------------------------------------------------------------
# tree geometry


def tree_distance(u: TreeVertex, v: TreeVertex) -> int:
    if u.degree != v.degree:
        raise ValueError("vertices of trees of different degree")
    m = _common_prefix_len(u.path, v.path)
    return (len(u.path) - m) + (len(v.path) - m)


def product_cylinders(degree: int, depths: tuple[int, int]) -> list[ProductCylinder]:
    return [
        ProductCylinder(c0, c1)
        for c0 in boundary_cylinders(degree, depths[0])
        for c1 in boundary_cylinders(degree, depths[1])
    ]


def end_image_set(u: TreeVertex, v: TreeVertex, depth: int) -> list[BoundaryCylinder]:
    """Depth-``depth`` cylinders covering the shadow of v seen from u.

    The shadow is the set of ends xi whose geodesic from u passes through v.
    Requires u != v and depth >= max(depth(u), depth(v)) + 1; the returned
    cylinders are pairwise disjoint and their union is exactly the shadow.
    """
    if u == v:
        raise ValueError("shadow needs two distinct vertices")
    if depth < max(u.depth, v.depth) + 1:
        raise ValueError(
            f"depth {depth} too small for shadow of v (depth {v.depth}) from u (depth {u.depth})"
        )
    return _shadow_cylinders(u, v, depth)


def _shadow_cylinders(u: TreeVertex, v: TreeVertex, depth: int) -> list[BoundaryCylinder]:
    """Shadow cover without the public precondition; valid for depth >= depth(v)
    because an end through a depth-``depth`` vertex y passes v from u exactly
    when v lies on [u, y]."""
    du_v = tree_distance(u, v)
    out = []
    for y in sphere_vertices(u.degree, depth):
        if du_v + tree_distance(v, y) == tree_distance(u, y):
            out.append(BoundaryCylinder(y))
    return out


# ---------------------------------------------------------------------------
# rational functions and the Smith length oracle


class RationalFunction:
    """Element of F_q(X) as a reduced fraction with canonical normalization.

    Invariants: den is a polynomial in X with den(0) != 0 and monic leading
    coefficient; gcd of den with the polynomial part of num is 1.  num carries
    the whole X-power content, so v_zero(self) = v_zero(num) - 0 and two equal
    fractions have identical components.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: LaurentPolynomial, den: LaurentPolynomial):
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        field = num.field
        if field is not den.field:
            raise ValueError("numerator and denominator over different fields")
        if num.is_zero():
            self.num = num
            self.den = LaurentPolynomial.one(field)
            return
        # move all X-power content of the denominator into the numerator
        num = num.shift(-den.low)
        den = den.shift(-den.low)
        num_low = num.low
        num_poly = num.shift(-num_low)
        g = poly_gcd(num_poly, den)
        if not g.is_one():
            num_poly, _ = poly_divmod(num_poly, g)
            den, _ = poly_divmod(den, g)
        lead = den.leading_coefficient()
        if lead != 1:
            inv = field.inv(lead)
            num_poly = num_poly.scale(inv)
            den = den.scale(inv)
        self.num = num_poly.shift(num_low)
        self.den = den

    @classmethod
    def from_laurent(cls, f: LaurentPolynomial) -> "RationalFunction":
        return cls(f, LaurentPolynomial.one(f.field))

    @classmethod
    def zero(cls, field: Fq) -> "RationalFunction":
        return cls(LaurentPolynomial.zero(field), LaurentPolynomial.one(field))

    @classmethod
    def one(cls, field: Fq) -> "RationalFunction":
        return cls(LaurentPolynomial.one(field), LaurentPolynomial.one(field))

    @property
    def field(self) -> Fq:
        return self.num.field

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __add__(self, other: Union["RationalFunction", LaurentPolynomial]) -> "RationalFunction":
        other = self._coerce(other)
        return RationalFunction(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __neg__(self) -> "RationalFunction":
        return RationalFunction(-self.num, self.den)

    def __sub__(self, other: Union["RationalFunction", LaurentPolynomial]) -> "RationalFunction":
        return self + (-self._coerce(other))

    def __rsub__(self, other: Union["RationalFunction", LaurentPolynomial]) -> "RationalFunction":
        return (-self) + other

    def __mul__(self, other: Union["RationalFunction", LaurentPolynomial]) -> "RationalFunction":
        other = self._coerce(other)
        return RationalFunction(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other: Union["RationalFunction", LaurentPolynomial]) -> "RationalFunction":
        other = self._coerce(other)
        if other.is_zero():
            raise ZeroDivisionError("division by the zero rational function")
        return RationalFunction(self.num * other.den, self.den * other.num)

    def _coerce(self, other: Union["RationalFunction", LaurentPolynomial]) -> "RationalFunction":
        if isinstance(other, RationalFunction):
            if other.field is not self.field:
                raise ValueError("rational functions over different fields")
            return other
        if isinstance(other, LaurentPolynomial):
            return RationalFunction.from_laurent(other)
        return NotImplemented  # type: ignore[return-value]

    def valuation(self) -> int:
        """Order of vanishing at X = 0; den(0) != 0, so it is v_zero(num)."""
        if self.is_zero():
            raise ValueError("the zero rational function has no valuation")
        return self.num.low

    def series_prefix(self, upto: int) -> LaurentPolynomial:
        """Exact X-adic expansion truncated to exponents < upto.

        Valid because den(0) != 0 in canonical form.
        """
        return series_quotient(self.num, self.den, upto)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (RationalFunction, LaurentPolynomial)):
            other = self._coerce(other)
            return self.num == other.num and self.den == other.den
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def __repr__(self) -> str:
        if self.den.is_one():
            return repr(self.num)
        return f"({self.num!r})/({self.den!r})"


def smith_valuations(g: SL2Element, place: Place) -> tuple[int, int]:
    """Sorted elementary-divisor valuations of g over the local ring at place.

    Genuine valuation-guided pivoting over the rational function field: the
    minimum-valuation entry is swapped to the corner, its row and column are
    cleared with quotients (which lie in the valuation ring), and the
    remaining entry supplies the second divisor.  Independent of the
    min-valuation rule of ``entry_lengths``.
    """
    entries = [
        [RationalFunction.from_laurent(_to_uniformizer(e, place)) for e in row]
        for row in ((g.a, g.b), (g.c, g.d))
    ]
    nonzero = [
        (entries[i][j].valuation(), i, j)
        for i in range(2)
        for j in range(2)
        if not entries[i][j].is_zero()
    ]
    if not nonzero:
        raise ValueError("degenerate input: zero matrix")
    _, i, j = min(nonzero)
    if i == 1:
        entries[0], entries[1] = entries[1], entries[0]
    if j == 1:
        for row in entries:
            row[0], row[1] = row[1], row[0]
    pivot = entries[0][0]
    # clear the rest of the first row and column
    col_factor = entries[1][0] / pivot
    entries[1][0] = entries[1][0] - col_factor * pivot
    entries[1][1] = entries[1][1] - col_factor * entries[0][1]
    row_factor = entries[0][1] / pivot
    entries[0][1] = entries[0][1] - row_factor * pivot
    corner = entries[1][1]
    if corner.is_zero():
        raise ValueError("degenerate input: matrix not invertible over the field")
    v1 = pivot.valuation()
    v2 = corner.valuation()
    return (v1, v2) if v1 <= v2 else (v2, v1)


# ---------------------------------------------------------------------------
# the spherical function by a boundary partition


def hc_tree_bruteforce(degree: int, n: int) -> HarishChandraValue:
    """Spherical function via the boundary partition along a fixed geodesic.

    Fix the leftmost vertex w at distance n.  The boundary splits into the
    cylinder over w plus, for each 1 <= i <= n, the cylinders over the
    vertices branching off the geodesic [root, w] at depth i.  Busemann
    values on the pieces come from Gromov products and measures from the
    cylinder formula; the closed form is never consulted.
    """
    if degree < 3:
        raise ValueError("degree must be at least 3")
    if n < 0:
        raise ValueError("negative displacement")
    q = degree - 1
    if n == 0:
        return HarishChandraValue(AlgebraicValue.rational(1, q), (0,))
    w = TreeVertex(degree, (0,) * n)
    total = AlgebraicValue.rational(0, q)
    total_measure = Fraction(0)
    # ends through w itself
    over_w = BoundaryCylinder(w)
    total = total + AlgebraicValue.rational(over_w.measure(), q) * cocycle_sqrt(w, over_w)
    total_measure += over_w.measure()
    for i in range(1, n + 1):
        prefix = w.path[: i - 1]
        labels = range(degree) if i == 1 else range(degree - 1)
        branch_count = 0
        for label in labels:
            if label == w.path[i - 1]:
                continue
            y = TreeVertex(degree, prefix + (label,))
            beta = 2 * gromov_product(w, y) - n
            piece = BoundaryCylinder(y)
            total = total + AlgebraicValue.rational(piece.measure(), q) * AlgebraicValue.sqrt_q_power(q, beta)
            total_measure += piece.measure()
            branch_count += 1
        expected = degree - 1 if i == 1 else degree - 2
        if branch_count != expected:
            raise RuntimeError(f"partition piece count {branch_count} != {expected} at depth {i}")
    if total_measure != 1:
        raise RuntimeError(f"partition measures sum to {total_measure}, not 1")
    return HarishChandraValue(total, (n,))


# ---------------------------------------------------------------------------
# spheres by breadth-first word search

PROVENANCE_BFS = "bfs-heuristic"


def elementary_generators(q: int) -> list[SL2Element]:
    """The word-metric generating set for the cross-check: elementary matrices
    with monomial offsets of exponent -1, 0, 1 plus the two diagonal shifts."""
    field = Fq(q)
    gens: list[SL2Element] = []
    seen = set()
    for e in (-1, 0, 1):
        for a in range(1, q):
            for maker in (SL2Element.elementary_upper, SL2Element.elementary_lower):
                for sign in (1, -1):
                    coeff = a if sign == 1 else field.neg(a)
                    g = maker(LaurentPolynomial.x_power(field, e, coeff))
                    if g.to_text() not in seen:
                        seen.add(g.to_text())
                        gens.append(g)
    for k in (1, -1):
        g = SL2Element.diagonal_shift(field, k)
        if g.to_text() not in seen:
            seen.add(g.to_text())
            gens.append(g)
    return gens


def bfs_crosscheck(
    q: int,
    max_length: int,
    word_radius: int,
    prune_margin: int = 4,
) -> SphereTable:
    """Breadth-first word search for ball elements; flagged heuristic.

    The search keeps words whose total length stays within max_length +
    prune_margin (geodesic words for short elements do not stray far).  The
    table's ``saturated`` flag records whether the per-bucket counts were
    stable across the last two radii; only then is the cross-check meaningful.
    """
    gens = elementary_generators(q)
    field = Fq(q)
    identity = SL2Element.identity(field)
    visited: dict[str, SL2Element] = {identity.to_text(): identity}
    frontier = [identity]
    limit = max_length + prune_margin
    previous_counts: Optional[Counter] = None
    saturated = False
    for _ in range(word_radius):
        nxt = []
        for g in frontier:
            for s in gens:
                h = g * s
                text = h.to_text()
                if text in visited:
                    continue
                if h.total_length > limit:
                    continue
                visited[text] = h
                nxt.append(h)
        frontier = nxt
        counts: Counter = Counter(
            g.total_length for g in visited.values() if g.total_length <= max_length
        )
        saturated = previous_counts is not None and counts == previous_counts
        previous_counts = counts
        if not frontier:
            break
    raw_buckets: dict[int, list[SL2Element]] = {}
    for g in visited.values():
        if g.total_length <= max_length:
            raw_buckets.setdefault(g.total_length, []).append(g)
    buckets = {
        n: tuple(sorted(elems, key=lambda g: g.to_text())) for n, elems in raw_buckets.items()
    }
    return SphereTable(
        q=q,
        max_length=max_length,
        provenance=PROVENANCE_BFS,
        buckets=buckets,
        saturated=saturated,
    )


# ---------------------------------------------------------------------------
# spheres by a scan of first rows inside the coefficient window


def window_polynomials(q: int, half_width: int) -> list[LaurentPolynomial]:
    """All Laurent polynomials with exponents inside [-half_width, half_width],
    zero included, in a fixed deterministic order."""
    field = Fq(q)
    return [
        LaurentPolynomial(field, -half_width, coeffs)
        for coeffs in itertools.product(range(q), repeat=2 * half_width + 1)
    ]


def window_scan(q: int, max_length: int) -> dict[int, list[str]]:
    """Sorted element texts of the ball of radius N, bucketed by length.

    If both tree lengths are at most N, every entry has its exponents inside
    [-N/2, N/2].  The scan takes every nonzero first row (a, b) inside that
    window, completes it with every (c, d) inside the window with
    ad - bc = 1 (``spheres._completions_for_row``: one Bezout solution,
    translated into the window, then the sweep along (c + ta, d + tb)), and
    keeps the elements of total length at most N.
    """
    half = max_length // 2
    window = window_polynomials(q, half)
    buckets: dict[int, list[str]] = {}
    for a in window:
        for b in window:
            if a.is_zero() and b.is_zero():
                continue
            for c, d in _completions_for_row(a, b, half):
                l0, linf = entry_lengths(a, b, c, d)
                if l0 + linf <= max_length:
                    buckets.setdefault(l0 + linf, []).append(SL2Element(a, b, c, d).to_text())
    return {n: sorted(texts) for n, texts in sorted(buckets.items())}


# ---------------------------------------------------------------------------
# step functions: exact norms, integrals and pointwise comparisons


def constant(degree: int, value: AlgebraicValue, depths: DepthSpec = 0) -> StepFunction:
    pair = _depth_pair(depths)
    return StepFunction(degree, pair, {c: value for c in product_cylinders(degree, pair)})


def _zero(f: StepFunction) -> AlgebraicValue:
    return AlgebraicValue.rational(0, f.degree - 1)


def value_at(f: StepFunction, cell: ProductCylinder) -> AlgebraicValue:
    return f.values.get(cell, _zero(f))


def l1_norm(f: StepFunction) -> AlgebraicValue:
    total = _zero(f)
    for cell, v in f.values.items():
        total = total + abs(v) * cell.measure()
    return total


def l2_norm_squared(f: StepFunction) -> AlgebraicValue:
    total = _zero(f)
    for cell, v in f.values.items():
        total = total + v * v * cell.measure()
    return total


def integral(f: StepFunction) -> AlgebraicValue:
    total = _zero(f)
    for cell, v in f.values.items():
        total = total + v * cell.measure()
    return total


def refine(f: StepFunction, depths: DepthSpec) -> StepFunction:
    pair = _depth_pair(depths)
    if pair[0] < f.depths[0] or pair[1] < f.depths[1]:
        raise ValueError(f"refinement {pair} below current depths {f.depths}")
    if pair == f.depths:
        return f
    out: dict[ProductCylinder, AlgebraicValue] = {}
    for cell, v in f.values.items():
        for c0 in cell.zero.refinements(pair[0]):
            for c1 in cell.infinity.refinements(pair[1]):
                out[ProductCylinder(c0, c1)] = v
    return StepFunction(f.degree, pair, out)


def add(f: StepFunction, g: StepFunction) -> StepFunction:
    if f.depths != g.depths or f.degree != g.degree:
        raise ValueError("adding step functions of different partitions")
    out = dict(f.values)
    for cell, v in g.values.items():
        out[cell] = out[cell] + v if cell in out else v
    return StepFunction(f.degree, f.depths, out)


def scale(f: StepFunction, factor) -> StepFunction:
    return StepFunction(f.degree, f.depths, {c: v * factor for c, v in f.values.items()})


def pointwise_equal(f: StepFunction, g: StepFunction) -> bool:
    if f.depths != g.depths:
        return False
    for cell in set(f.values) | set(g.values):
        if value_at(f, cell) != value_at(g, cell):
            return False
    return True


def pointwise_nonneg(f: StepFunction) -> bool:
    return all(v.sign() >= 0 for v in f.values.values())


def pointwise_leq(f: StepFunction, g: StepFunction) -> bool:
    if f.depths != g.depths:
        raise ValueError("comparing step functions of different partitions")
    for cell in set(f.values) | set(g.values):
        if value_at(f, cell) > value_at(g, cell):
            return False
    return True


# ---------------------------------------------------------------------------
# exact Koopman matrices and the mean as an operator


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
    field = gamma.field
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
        in_cyls = boundary_cylinders(field.q + 1, in_depth)
        out_cyls = boundary_cylinders(field.q + 1, out_depth)
        out_paths = label_array([c.base.path for c in out_cyls], out_depth)
        betas, covered = _transport_supports(gamma, w, in_cyls, out_paths, reg)
        factors.append((
            in_cyls,
            out_cyls,
            [AlgebraicValue.sqrt_q_power(field.q, beta) for beta in betas.tolist()],
            [row.nonzero()[0].tolist() for row in covered],
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
            factor = AlgebraicValue.rational(inv_size, self.q)
            if xi_weighted:
                factor = factor / hc_product(g.length_zero, g.length_infinity, self.q).value
            self._terms.append((koopman_matrix(g, self.input_depths, registries), factor))

    def apply(self, h: StepFunction) -> StepFunction:
        total: Optional[StepFunction] = None
        for matrix, factor in self._terms:
            term = scale(refine(matrix.apply(h), self.output_depths), factor)
            total = term if total is None else add(total, term)
        assert total is not None
        return total
