"""Independent oracles the tests compare the program against.

None of this is on the certificate's path.  Each piece recomputes something
the program computes, by a route that shares as little as possible with it:
tree distances and shadows by plain prefix arithmetic, the pair-ball count
by breadth-first search (``ball_count_bfs``, under its own vertex budget),
lengths by Smith pivoting over rational functions, the action on lattice
classes one vertex at a time in Laurent arithmetic (``translate_form``), the
spherical function by a boundary partition, written out in closed form for
the product (``hc_product_expanded``) and as the sphere average of the
cocycle square root on a cylinder (``sphere_average_check``), spheres by breadth-first word search and
by a scan of first rows inside the coefficient window, the subgroup's balls
by breadth-first search over its group law on (n, P), the mean by exact
Koopman matrices applied cell by cell, the mean's value on 1 as a step
function of a + b sqrt(q) values (cocycle square roots over the spherical
function), the compression's Gram matrix from every element's own
transport and from every pair of coset representatives (the program sums
one representative per double coset), each representative's transport at every depth from its own
translations and a geodesic test per pair of cylinders, and the convolution
matrix over every pair of ball elements from their located inverses.  A
sphere given as its elements is split into right cosets by text lookup and
``locate`` (``right_cosets``), independently of the pair scan's coset list.
A table's spheres are listed by expanding its cosets again
(``sphere_members``), their double cosets K r K are found by
left-multiplying each coset's representative by K and looking the products
up among those members (``double_cosets_by_members``), and its
cosets are counted by depth pair in closed form (``coset_count_formula``).  The pair scan's decision for one vertex
pair is recomputed from a nullspace basis of the pair's section system, a
2 x 2 fiber test and a determinant rescale
(``pair_representative_by_nullspace``), where the program runs one
elimination with the fiber values as right-hand sides.

It also holds what only the tests use of elements, texts, vertices and
cylinders: the lower elementary matrices, an element's inverse, a
vertex's children, the tree lengths by the
min-valuation rule (``element_lengths``, checked against Smith pivoting;
the program reads its lengths off the located depths), the text
parsers (`SphereTable.from_json` compares texts and parses nothing), the matrix of
a subgroup element, and products and refinements of boundary cylinders.
Label paths come as padded label arrays with their common-prefix lengths in
bulk (the program compares vertex ids instead).

The tree's labels are the reference expansion (``Expansion``): a
breadth-first search from the base vertex that labels each vertex's unseen
neighbours in ``vertex_neighbors`` order, the program's closed form
(``sl2.vertex_of``, ``sl2.form_of``) read as a walk.  The same search with
the neighbours sorted by text keys gives the labels as first defined
(``text_sorted_levels``).  Beyond any expansion a test can build, a walk
to the base vertex with Smith-form distances gives the path
(``walk_to_root``).  Every oracle here locates by one of these, never
through the closed form.
"""

from __future__ import annotations

import itertools
import math
import re
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from typing import Callable, Iterator, Optional, Sequence, Union

import numpy as np

from rrdlab.algebra import (
    AlgebraicValue,
    Fq,
    LaurentPolynomial,
    series_quotient,
)
from rrdlab.boundary import cocycle_sqrt, hc_product, hc_tree_closed, spherical_coefficient
from rrdlab.criterion import (
    ROW_BLOCK,
    SphereTransports,
    _cell_orbits,
    _pair_blocks,
    _transports_at,
)
from rrdlab.lamplighter import HElement, generating_set, h_membership
from rrdlab.sl2 import (
    LatticeVertex,
    SL2Element,
    _canonical_from_matrix,
    canonical_vertex,
)
from rrdlab.spheres import Coset, SphereTable, _completions_for_row, constant_group, right_coset
from rrdlab.trees import (
    BoundaryCylinder,
    RadiusBudgetError,
    TreeVertex,
    _common_prefix_len,
    boundary_cylinders,
    busemann,
    gromov_product,
    sphere_size,
    sphere_vertices,
)

# ---------------------------------------------------------------------------
# elements, texts and cylinders the program itself does not need


def elementary_lower(s: LaurentPolynomial) -> SL2Element:
    """E21(s) = [[1, 0], [s, 1]]."""
    one = LaurentPolynomial.one(s.field)
    return SL2Element(one, LaurentPolynomial.zero(s.field), s, one, check=False)


def inverse(g: SL2Element) -> SL2Element:
    """g^-1 = [[d, -b], [-c, a]], of determinant 1 with g."""
    return SL2Element(g.d, -g.b, -g.c, g.a, check=False)


def length_at_place(g: SL2Element) -> int:
    """Tree displacement length of the base vertex at place zero; g's at
    infinity is that of ``g.substitute_inverse()``."""
    return element_lengths(g)[0]


LAURENT_TEXT = re.compile(r"^low=(-?\d+);coeffs=((?:\d+(?:,\d+)*)?)$")


def laurent_from_text(field: Fq, text: str) -> LaurentPolynomial:
    """Parse ``LaurentPolynomial.to_text``, refusing non-canonical runs and
    coefficients outside range(q)."""
    m = LAURENT_TEXT.match(text)
    if not m:
        raise ValueError(f"malformed Laurent polynomial text: {text!r}")
    coeffs = [int(c) for c in m.group(2).split(",")] if m.group(2) else []
    if coeffs and (coeffs[0] == 0 or coeffs[-1] == 0):
        raise ValueError(f"non-canonical coefficient run in {text!r}")
    if any(not 0 <= c < field.q for c in coeffs):
        raise ValueError(f"coefficient out of range for F_{field.q} in {text!r}")
    return LaurentPolynomial(field, int(m.group(1)), coeffs)


def sl2_from_text(field: Fq, text: str) -> SL2Element:
    """Parse ``SL2Element.to_text``; the determinant is checked."""
    parts = text.split("|")
    if len(parts) != 4:
        raise ValueError(f"malformed SL2 text: {text!r}")
    return SL2Element(*(laurent_from_text(field, p) for p in parts))


def h_to_matrix(x: HElement) -> SL2Element:
    """The matrix [[X^n, P], [0, X^-n]] of (n, P)."""
    field = x.offset.field
    return SL2Element(
        LaurentPolynomial.x_power(field, x.n),
        x.offset,
        LaurentPolynomial.zero(field),
        LaurentPolynomial.x_power(field, -x.n),
    )


@dataclass(frozen=True, slots=True)
class ProductCylinder:
    """A rectangle of ends in the product of the two tree boundaries."""

    zero: BoundaryCylinder
    infinity: BoundaryCylinder

    @property
    def depths(self) -> tuple[int, int]:
        return (self.zero.depth, self.infinity.depth)

    def measure(self) -> Fraction:
        return self.zero.measure() * self.infinity.measure()


def contains(cylinder: BoundaryCylinder, other: BoundaryCylinder) -> bool:
    return other.base.path[: cylinder.depth] == cylinder.base.path


def refinements(cylinder: BoundaryCylinder, depth: int) -> Iterator[BoundaryCylinder]:
    """The depth-``depth`` cylinders partitioning ``cylinder``."""
    if depth < cylinder.depth:
        raise ValueError("refinement depth below the cylinder depth")
    if cylinder.depth == 0:
        yield from boundary_cylinders(cylinder.degree, depth)
        return
    d = cylinder.degree
    for rest in itertools.product(range(d - 1), repeat=depth - cylinder.depth):
        yield BoundaryCylinder(TreeVertex(d, cylinder.base.path + rest))


# ---------------------------------------------------------------------------
# tree geometry


def vertex_parent(v: TreeVertex) -> TreeVertex:
    if not v.path:
        raise ValueError("the root has no parent")
    return TreeVertex(v.degree, v.path[:-1])


def child(v: TreeVertex, label: int) -> TreeVertex:
    return TreeVertex(v.degree, v.path + (label,))


def vertex_from_text(degree: int, text: str) -> TreeVertex:
    """The inverse of ``TreeVertex.to_text``."""
    if text == "":
        return TreeVertex.root(degree)
    return TreeVertex(degree, tuple(int(p) for p in text.split("/")))


def tree_distance(u: TreeVertex, v: TreeVertex) -> int:
    if u.degree != v.degree:
        raise ValueError("vertices of trees of different degree")
    m = _common_prefix_len(u.path, v.path)
    return (len(u.path) - m) + (len(v.path) - m)


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
# the pair-ball count by breadth-first search

# Largest number of tree vertices the ball-count BFS may build: degree 3 up
# to radius 17, degree 4 up to radius 11, degree 5 up to radius 9.
BFS_VERTEX_BUDGET = 500_000


def check_bfs_budget(degree: int, n: int) -> None:
    """Raise RadiusBudgetError when the tree ball of radius n, summed from
    ``sphere_size``, has more than BFS_VERTEX_BUDGET vertices."""
    total = 0
    for k in range(n + 1):
        total += sphere_size(degree, k)
        if total > BFS_VERTEX_BUDGET:
            raise RadiusBudgetError(
                f"radius {n} at degree {degree} needs more than {BFS_VERTEX_BUDGET} "
                "tree vertices in the ball-count BFS"
            )


def ball_count_bfs(degree: int, n: int) -> list[int]:
    """Pair-ball counts for every radius 0..n by one exhaustive breadth-first
    enumeration of one tree.

    Counts actual vertices s_0, ..., s_n per sphere by expanding label paths
    once, then the count at radius m sums s_i * s_j over i + j <= m.
    Independent of the closed form ``trees.ball_count_formula``; used as its
    oracle.  Raises RadiusBudgetError before building any vertex when the
    ball is over budget (``check_bfs_budget``).
    """
    if n < 0:
        raise ValueError("negative radius")
    check_bfs_budget(degree, n)
    counts = []
    frontier = [TreeVertex.root(degree)]
    counts.append(len(frontier))
    for depth in range(1, n + 1):
        nxt = []
        for v in frontier:
            labels = range(degree - 1) if v.path else range(degree)
            for lab in labels:
                nxt.append(child(v, lab))
        counts.append(len(nxt))
        frontier = nxt
    return [
        sum(counts[i] * counts[j] for i in range(m + 1) for j in range(m + 1 - i))
        for m in range(n + 1)
    ]


# ---------------------------------------------------------------------------
# rational functions and the Smith length oracle


class RationalFunction:
    """Element of F_q(X) as a fraction num/den with a normalized denominator.

    Invariants: den is a polynomial in X with den(0) != 0 and monic leading
    coefficient.  num carries the whole X-power content, so v_zero(self) =
    v_zero(num).  Fractions are not reduced by a gcd: nothing read off them
    (valuation, series prefix, zero test) needs it, and equality compares
    cross products.
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
        lead = den.leading_coefficient()
        if lead != 1:
            inv = field.inv(lead)
            num = num.scale(inv)
            den = den.scale(inv)
        self.num = num
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
            return self.num * other.den == other.num * self.den
        return NotImplemented

    # equal fractions need not have equal parts, so they have no hash
    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        if self.den.is_one():
            return repr(self.num)
        return f"({self.num!r})/({self.den!r})"


def element_lengths(g: SL2Element) -> tuple[int, int]:
    """Tree lengths (l0, linf) of g, -2 times the minimum entry valuation at
    each place, which agrees with the elementary-divisor gap for
    determinant-1 matrices (``smith_valuations`` is the independent
    check).  The minimum is at most 0 at both places because the
    determinant is 1, so starting the scan from 0 changes nothing on the
    group."""
    nonzero = [e for e in g.entries() if not e.is_zero()]
    return -2 * min([0] + [e.low for e in nonzero]), 2 * max([0] + [e.top for e in nonzero])


def smith_valuations(g: SL2Element) -> tuple[int, int]:
    """Sorted elementary-divisor valuations of g over the local ring at place
    zero (at infinity, those of ``g.substitute_inverse()``).

    Genuine valuation-guided pivoting over the rational function field: the
    minimum-valuation entry is swapped to the corner, its row and column are
    cleared with quotients (which lie in the valuation ring), and the
    remaining entry supplies the second divisor.  Independent of the
    min-valuation rule of ``element_lengths``.
    """
    entries = [
        [RationalFunction.from_laurent(e) for e in row]
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


def translate_form(g: SL2Element, v: LatticeVertex) -> LatticeVertex:
    """Canonical form of g . v in the tree at zero, one vertex at a time: g times
    the basis [[X^a, 0], [c, X^b]] in Laurent arithmetic, then
    ``_canonical_from_matrix`` with the determinant computed.  The oracle of
    the program's ``translate_vertex``, which reduces every (element, form)
    pair at once."""
    ga, gb, gc, gd = g.entries()
    a, b, c = v.diag_low, v.diag_high, v.off_diag
    return _canonical_from_matrix(
        ga.shift(a) + gb * c, gb.shift(b), gc.shift(a) + gd * c, gd.shift(b)
    )


def base_vertex(field: Fq) -> LatticeVertex:
    return LatticeVertex(0, 0, LaurentPolynomial.zero(field))


def _canonical_from_triangular(a: int, b: int, c: LaurentPolynomial) -> LatticeVertex:
    """Normalize an already-triangular basis [[X^a, 0], [c, X^b]]."""
    m = min(a, b)
    a -= m
    b -= m
    c = c.shift(-m)
    # reduce c modulo X^b: keep exponents strictly below b
    if not c.is_zero() and c.top >= b:
        keep = [
            (e, coeff)
            for e, coeff in zip(range(c.low, c.top + 1), c.raw_coefficients)
            if e < b
        ]
        if keep:
            low = keep[0][0]
            out = [0] * (keep[-1][0] - low + 1)
            for e, coeff in keep:
                out[e - low] = coeff
            c = LaurentPolynomial(c.field, low, out)
        else:
            c = LaurentPolynomial.zero(c.field)
    return LatticeVertex(a, b, c)


def vertex_neighbors(v: LatticeVertex) -> list[LatticeVertex]:
    """The q+1 classes of index-q sublattices: one per residue line.

    q of them come from lines through shifted first basis vectors, the last
    from scaling the first basis vector by the uniformizer.
    """
    field = v.field
    q = field.q
    a, b, c = v.diag_low, v.diag_high, v.off_diag
    out = []
    for t in range(q):
        shift_c = c + LaurentPolynomial.x_power(field, b, t) if t else c
        out.append(_canonical_from_triangular(a, b + 1, shift_c))
    out.append(_canonical_from_triangular(a + 1, b, c.shift(1)))
    return out


Levels = list[list[tuple[TreeVertex, LatticeVertex]]]


def expansion_levels(q: int, radius: int, key=None) -> Levels:
    """Breadth-first search from the base vertex to ``radius``: each
    vertex's children are its neighbours not seen yet, labelled in
    ``vertex_neighbors`` order, or in the order of ``key`` when given.
    Listed per depth in label order, like ``TreeRegistry.levels``."""
    root, root_form = TreeVertex.root(q + 1), base_vertex(Fq(q))
    seen = {root_form}
    levels = [[(root, root_form)]]
    for _ in range(radius):
        level = []
        for vertex, form in levels[-1]:
            fresh = [nb for nb in vertex_neighbors(form) if nb not in seen]
            if key is not None:
                fresh.sort(key=key)
            for label, nb in enumerate(fresh):
                seen.add(nb)
                level.append((child(vertex, label), nb))
        levels.append(level)
    return levels


def text_sorted_levels(q: int, radius: int) -> Levels:
    """The labels as first defined, which vertex ids must keep: the
    expansion with each vertex's unseen neighbours sorted by their text keys
    (a, b, text of c)."""
    return expansion_levels(
        q, radius, key=lambda form: (form.diag_low, form.diag_high, form.off_diag.to_text())
    )


class Expansion:
    """The reference labelling of the tree to a radius: its levels
    (``expansion_levels``), each form's vertex by lookup among them, and
    ``locate``, which reads elements at place zero.  Forms name no place, so
    one expansion serves both trees: g's vertex at infinity is
    ``locate(g.substitute_inverse())``."""

    def __init__(self, q: int, radius: int):
        self.q, self.radius = q, radius
        self.field = Fq(q)
        self.levels = expansion_levels(q, radius)
        self._vertices = {form: vertex for level in self.levels for vertex, form in level}

    def locate_form(self, form: LatticeVertex) -> TreeVertex:
        try:
            return self._vertices[form]
        except KeyError:
            raise ValueError(
                f"lattice vertex outside expansion radius {self.radius}: {form.to_text()}"
            ) from None

    def locate(self, g: SL2Element) -> TreeVertex:
        """The vertex g moves the base point to."""
        return self.locate_form(canonical_vertex(g))


def form_distance(form: LatticeVertex) -> int:
    """The distance of a canonical form from the base vertex: the gap of the
    elementary divisors of its basis [[X^a, 0], [c, X^b]]
    (``smith_valuations``, whose entries are already in the uniformizer
    variable)."""
    field = form.field
    basis = SL2Element(
        LaurentPolynomial.x_power(field, form.diag_low),
        LaurentPolynomial.zero(field),
        form.off_diag,
        LaurentPolynomial.x_power(field, form.diag_high),
        check=False,
    )
    v1, v2 = smith_valuations(basis)
    return v2 - v1


def walk_to_root(form: LatticeVertex) -> TreeVertex:
    """The vertex of a canonical form at any depth, by walking to the base
    vertex: the parent is the neighbour one step closer (``form_distance``),
    and the label is the vertex's position among the parent's neighbours one
    step farther, the unseen ones of the expansion."""
    labels = []
    depth = form_distance(form)
    for d in range(depth, 0, -1):
        parent = next(nb for nb in vertex_neighbors(form) if form_distance(nb) == d - 1)
        children = [nb for nb in vertex_neighbors(parent) if form_distance(nb) == d]
        labels.append(children.index(form))
        form = parent
    return TreeVertex(form.field.q + 1, tuple(reversed(labels)))


def form_at(expansion: Expansion, vertex: TreeVertex) -> LatticeVertex:
    """The canonical form of a vertex within the expansion's radius, found
    among the vertices of its depth."""
    if vertex.depth <= expansion.radius:
        for v, form in expansion.levels[vertex.depth]:
            if v == vertex:
                return form
    raise ValueError(f"path {vertex.to_text()!r} outside expansion radius {expansion.radius}")


# ---------------------------------------------------------------------------
# the spherical function by a boundary partition


def hc_tree_bruteforce(degree: int, n: int) -> AlgebraicValue:
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
        return AlgebraicValue.rational(1, q)
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
    return total


def hc_product_expanded(length_zero: int, length_infinity: int, q: int) -> AlgebraicValue:
    """The product spherical function written out: (1 + r*L + r^2*l0*linf) *
    q^(-L/2), with r = (q-1)/(q+1) and L the total length.  Used to
    cross-check ``boundary.hc_product``."""
    r = Fraction(q - 1, q + 1)
    total = length_zero + length_infinity
    coeff = 1 + r * total + r * r * length_zero * length_infinity
    return AlgebraicValue.rational(coeff, q) * AlgebraicValue.sqrt_q_power(q, -total)


def sphere_average_check(degree: int, n: int, cylinder: BoundaryCylinder) -> AlgebraicValue:
    """Exact ratio (sphere average of the cocycle square root) / (closed form).

    The identity says this is 1 for every cylinder of depth >= n; computing
    the ratio rather than asserting keeps the op usable as an oracle.
    """
    if cylinder.degree != degree:
        raise ValueError("cylinder degree mismatch")
    if cylinder.depth < n:
        raise ValueError("cylinder too shallow for the sphere radius")
    q = degree - 1
    # terms with equal Busemann values are equal: add one per value, times
    # the number of sphere vertices that have it
    members: dict[int, tuple[TreeVertex, int]] = {}
    for w in sphere_vertices(degree, n):
        beta = busemann(cylinder, w)
        first, count = members.get(beta, (w, 0))
        members[beta] = (first, count + 1)
    acc = AlgebraicValue.rational(0, q)
    for w, count in members.values():
        acc = acc + cocycle_sqrt(w, cylinder) * AlgebraicValue.rational(count, q)
    average = acc / AlgebraicValue.rational(sphere_size(degree, n), q)
    return average / hc_tree_closed(degree, n)


# ---------------------------------------------------------------------------
# spheres by breadth-first word search

def elementary_generators(q: int) -> list[SL2Element]:
    """The word-metric generating set for the cross-check: elementary matrices
    with monomial offsets of exponent -1, 0, 1 plus the two diagonal shifts."""
    field = Fq(q)
    gens: list[SL2Element] = []
    seen = set()
    for e in (-1, 0, 1):
        for a in range(1, q):
            for maker in (SL2Element.elementary_upper, elementary_lower):
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


def _right_multiplier(s: SL2Element) -> Callable[[SL2Element], SL2Element]:
    """g -> g s for a letter s of ``elementary_generators``, as a column
    operation: E12(t) replaces the second column (b, d) by (a t + b, c t + d),
    E21(t) the first column (a, c) by (a + b t, c + d t), and
    diag(X^k, X^-k) shifts the columns by k and -k.  Each offset t is a
    monomial x X^e, so a product by t is a scale and a shift."""
    if s.b.is_zero() and s.c.is_zero():
        k = s.a.low
        return lambda g: SL2Element(
            g.a.shift(k), g.b.shift(-k), g.c.shift(k), g.d.shift(-k), check=False
        )
    if s.b.is_zero():
        e, x = s.c.low, s.c.leading_coefficient()
        return lambda g: SL2Element(
            g.a + g.b.scale(x).shift(e), g.b, g.c + g.d.scale(x).shift(e), g.d, check=False
        )
    e, x = s.b.low, s.b.leading_coefficient()
    return lambda g: SL2Element(
        g.a, g.a.scale(x).shift(e) + g.b, g.c, g.c.scale(x).shift(e) + g.d, check=False
    )


def bfs_crosscheck(
    q: int,
    max_length: int,
    word_radius: int,
    prune_margin: int = 4,
) -> tuple[dict[int, tuple[SL2Element, ...]], bool]:
    """Breadth-first word search for ball elements, bucketed by length and
    sorted by text; flagged heuristic.

    The search keeps words whose total length stays within max_length +
    prune_margin (geodesic words for short elements do not stray far).  The
    returned flag records whether the per-bucket counts were stable across
    the last two radii; only then is the cross-check meaningful.
    """
    letters = [_right_multiplier(s) for s in elementary_generators(q)]
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
            for right_multiply in letters:
                h = right_multiply(g)
                text = h.to_text()
                if text in visited:
                    continue
                if sum(element_lengths(h)) > limit:
                    continue
                visited[text] = h
                nxt.append(h)
        frontier = nxt
        counts: Counter = Counter(
            length for g in visited.values() if (length := sum(element_lengths(g))) <= max_length
        )
        saturated = previous_counts is not None and counts == previous_counts
        previous_counts = counts
        if not frontier:
            break
    raw_buckets: dict[int, list[SL2Element]] = {}
    for g in visited.values():
        length = sum(element_lengths(g))
        if length <= max_length:
            raw_buckets.setdefault(length, []).append(g)
    buckets = {
        n: tuple(sorted(elems, key=lambda g: g.to_text()))
        for n, elems in sorted(raw_buckets.items())
    }
    return buckets, saturated


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
                length = sum(element_lengths(SL2Element(a, b, c, d, check=False)))
                if length <= max_length:
                    buckets.setdefault(length, []).append(SL2Element(a, b, c, d).to_text())
    return {n: sorted(texts) for n, texts in sorted(buckets.items())}


# ---------------------------------------------------------------------------
# spheres as a table's cosets: members by expansion, counts in closed form


def sphere_members(table: SphereTable, n: int) -> tuple[SL2Element, ...]:
    """The elements of sphere n in text order: every coset of the table
    expanded again by K = SL2(F_q) (``right_coset``), from its representative
    alone, without the member texts the pair scan kept."""
    group = constant_group(Fq(table.q))
    members = sorted(
        (
            (text, g)
            for coset in table.cosets(n)
            for _, text, g in right_coset(coset.representative, group)
        ),
        key=lambda member: member[0],
    )
    return tuple(g for _, g in members)


def double_cosets_by_members(table: SphereTable, n: int) -> set[frozenset[int]]:
    """Sphere n's double cosets K r K, each as the set of positions of its
    right cosets in the table: each coset's representative r is
    left-multiplied by every k in K, and k r belongs to the coset whose
    expansion by K (its members) holds its text.  K r K is the union of the
    cosets k r K, so the cosets reached from r are those of its double
    coset."""
    group = constant_group(Fq(table.q))
    cosets = table.cosets(n)
    owner = {
        text: index
        for index, coset in enumerate(cosets)
        for _, text, _ in right_coset(coset.representative, group)
    }
    return {
        frozenset(owner[(k * coset.representative).to_text()] for k, _, _ in group)
        for coset in cosets
    }


def coset_count_formula(q: int, l0: int, l1: int) -> int:
    """N(l0, l1), the number of right cosets of K = SL2(F_q) whose located
    pair has the even depths (l0, l1): 1 at (0, 0), (q^2 - 1) q^(l - 2) when
    one depth l is 0, and (q^2 - 1)(q + 1) q^(l0 + l1 - 3) when both are at
    least 2, plus (q + 1) q^(l0 - 2) on the diagonal l0 = l1.  Checked
    against the pair scan only; no proof is written down."""
    if l0 == l1 == 0:
        return 1
    if l0 == 0 or l1 == 0:
        return (q * q - 1) * q ** (l0 + l1 - 2)
    count = (q * q - 1) * (q + 1) * q ** (l0 + l1 - 3)
    if l0 == l1:
        count += (q + 1) * q ** (l0 - 2)
    return count


# ---------------------------------------------------------------------------
# the pair scan's decision by a nullspace basis


def nullspace(field: Fq, rows: list[list[int]], width: int) -> list[list[int]]:
    """A basis of {x in F_q^width : row . x = 0 for every row}, by reduction
    to row echelon form with every pivot column cleared in the other rows."""
    add, mul, neg = field.add, field.mul, field.neg
    pivots: list[tuple[int, list[int]]] = []
    for row in rows:
        for col, prow in pivots:
            c = row[col]
            if c:
                c = neg(c)
                row = [add(x, mul(c, y)) for x, y in zip(row, prow)]
        lead = next((j for j, x in enumerate(row) if x), None)
        if lead is None:
            continue
        inv = field.inv(row[lead])
        row = [mul(inv, x) for x in row]
        for i, (col, prow) in enumerate(pivots):
            c = prow[lead]
            if c:
                c = neg(c)
                pivots[i] = (col, [add(x, mul(c, y)) for x, y in zip(prow, row)])
        pivots.append((lead, row))
    pivot_columns = {col for col, _ in pivots}
    basis = []
    for free in range(width):
        if free not in pivot_columns:
            x = [0] * width
            x[free] = 1
            for col, prow in pivots:
                x[col] = neg(prow[free])
            basis.append(x)
    return basis


def pair_representative_by_nullspace(zero: LatticeVertex, inf: LatticeVertex) -> Optional[SL2Element]:
    """The reference for ``spheres._pair_representative``: an element g with
    g.o_0 = ``zero`` and g.o_inf = ``inf``, or None when the pair bounds a
    nontrivial bundle, read off a nullspace basis of the section system with
    a 2 x 2 fiber test and a determinant rescale.

    With canonical forms (a_i, b_i, c_i), s_i = (a_i + b_i)/2 and Y = X^-1,
    the lattices g O^2 must be X^-s0 L_0 and Y^-s1 L_1 (determinant 1), so
    with c_1 written back in X a global section (v1, v2) of E satisfies
    v_X(v1) >= a0 - s0,
    v_X(X^a0 v2 - c0 v1) >= s0, top(v1) <= s1 - a1 and
    top(X^-a1 v2 - c1 v1) <= -s1.  The first coordinate lies in the window
    [a0 - s0, s1 - a1], and the two conditions on v2 bound its window.  The
    sections of E(-1) are those whose two coordinates in the fiber at X = 0,
    the coefficients of X^(a0 - s0) in v1 and of X^s0 in X^a0 v2 - c0 v1,
    vanish.  E is trivial exactly when E(-1) has no section, i.e. when E has
    two sections and they span the fiber at 0; they are then the columns of
    a representative whose determinant is a nonzero constant.
    """
    field = zero.field
    neg = field.neg
    a0, b0, c0 = zero.diag_low, zero.diag_high, zero.off_diag
    a1, b1 = inf.diag_low, inf.diag_high
    c1 = inf.off_diag.substitute_inverse()
    s0, s1 = (a0 + b0) // 2, (a1 + b1) // 2
    lo1, hi1 = a0 - s0, s1 - a1
    n1 = max(hi1 - lo1 + 1, 0)
    lo2, hi2 = s0 - a0, a1 - s1
    low_eq, top_eq = s0 - 1, -s1 + 1
    if n1:
        if not c0.is_zero():
            lo2 = min(lo2, c0.low + lo1 - a0)
            low_eq = min(low_eq, c0.low + lo1)
        if not c1.is_zero():
            hi2 = max(hi2, c1.top + hi1 + a1)
            top_eq = max(top_eq, c1.top + hi1)
    n2 = max(hi2 - lo2 + 1, 0)
    low_eq = min(low_eq, a0 + lo2)
    top_eq = max(top_eq, hi2 - a1)
    width = n1 + n2

    def row(e: int, shift: int, c: LaurentPolynomial) -> list[int]:
        """Coefficients of X^e in X^shift v2 - c v1 over the unknowns."""
        out = [neg(c.coefficient(e - lo1 - i)) for i in range(n1)] + [0] * n2
        j = e - shift - lo2
        if 0 <= j < n2:
            out[n1 + j] = 1
        return out

    rows = [row(e, a0, c0) for e in range(low_eq, s0)]
    rows += [row(e, -a1, c1) for e in range(-s1 + 1, top_eq + 1)]
    sections = nullspace(field, rows, width)
    if len(sections) != 2 or n1 == 0:
        return None
    # the two sections span the fiber at 0 when their coordinates there,
    # (x[0], fiber . x), form an invertible 2 x 2 matrix
    fiber = row(s0, a0, c0)
    (p0, p1), (r0, r1) = (
        (x[0], reduce(field.add, map(field.mul, fiber, x), 0)) for x in sections
    )
    if field.mul(p0, r1) == field.mul(r0, p1):
        return None
    first, second = (
        (
            LaurentPolynomial(field, lo1, x[:n1]),
            LaurentPolynomial(field, lo2, x[n1:]),
        )
        for x in sections
    )
    det = first[0] * second[1] - second[0] * first[1]
    if det.is_zero() or not det.is_monomial() or det.low != 0:
        raise RuntimeError(f"sections of a trivial pair have determinant {det!r}")
    unit = field.inv(det.leading_coefficient())
    g = SL2Element(first[0].scale(unit), second[0], first[1].scale(unit), second[1])
    if canonical_vertex(g) != zero or canonical_vertex(g.substitute_inverse()) != inf:
        raise RuntimeError(f"{g.to_text()} does not locate back to its vertex pair")
    return g


# ---------------------------------------------------------------------------
# the upper-triangular subgroup H by its group law on (n, P)


def h_multiply(x: HElement, y: HElement) -> HElement:
    # [[X^a, P], [0, X^-a]] * [[X^b, Q], [0, X^-b]]
    #   = [[X^(a+b), X^a Q + P X^-b], [0, X^-(a+b)]]
    return HElement(x.n + y.n, y.offset.shift(x.n) + x.offset.shift(-y.n))


def h_inverse(x: HElement) -> HElement:
    # [[X^n, P], [0, X^-n]]^-1 = [[X^-n, -P], [0, X^n]], already in shape
    return HElement(-x.n, -x.offset)


def h_identity(field: Fq) -> HElement:
    return HElement(0, LaurentPolynomial.zero(field))


def h_is_identity(x: HElement) -> bool:
    return x.n == 0 and x.offset.is_zero()


def h_key(x: HElement) -> tuple:
    return (x.n, x.offset.low if not x.offset.is_zero() else 0, x.offset.raw_coefficients)


def h_ball_growth_bfs(q: int, radius: int) -> list[int]:
    """Ball sizes |B(r)|, r = 0..radius, by breadth-first search over the
    group law on (n, P), deduplicated through canonical keys."""
    field = Fq(q)
    letters = [h_membership(g) for g in generating_set(q)]
    if any(h is None for h in letters):
        raise RuntimeError("a generating letter fell outside the subgroup")
    start = h_identity(field)
    visited = {h_key(start)}
    frontier = [start]
    sizes = [1]
    for _ in range(radius):
        nxt = []
        for h in frontier:
            for s in letters:
                g = h_multiply(h, s)  # type: ignore[arg-type]
                k = h_key(g)
                if k not in visited:
                    visited.add(k)
                    nxt.append(g)
        frontier = nxt
        sizes.append(len(visited))
    return sizes


# ---------------------------------------------------------------------------
# step functions: exact norms, integrals and pointwise comparisons


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

# Depths of a product-cylinder partition: one depth for both places, or a
# (zero, infinity) pair.
DepthSpec = Union[int, tuple[int, int]]


def _depth_pair(depths: DepthSpec) -> tuple[int, int]:
    if isinstance(depths, int):
        pair = (depths, depths)
    else:
        pair = (int(depths[0]), int(depths[1]))
    if pair[0] < 0 or pair[1] < 0:
        raise ValueError(f"negative depth in {pair}")
    return pair


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
        for c0 in refinements(cell.zero, pair[0]):
            for c1 in refinements(cell.infinity, pair[1]):
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


def _transport_supports(
    gamma: SL2Element, w: TreeVertex, ys: np.ndarray, out_paths: np.ndarray, place: str
) -> tuple[np.ndarray, np.ndarray]:
    """Transport data for one boundary factor by a geodesic test per pair:
    the Busemann value beta at w = gamma . o of every output cylinder (its
    cocycle weight is q^(beta/2)), and covered[j, i], true when the image of
    input cylinder j lies on the geodesic from w to output cylinder i.

    ``ys`` holds the label paths of the images gamma . v of the input
    cylinder bases and ``out_paths`` those of every output cylinder (one
    depth), both label arrays of one width.  The images must cover every
    output cylinder exactly once; that is checked with the program's
    message, which names ``place`` ("zero" or "infinity").
    """
    width = out_paths.shape[1]
    w_row = label_array([w.path], width)
    wz = common_prefix_lengths(w_row, out_paths)[0]
    wy = common_prefix_lengths(w_row, ys)[0]
    y_depths = np.count_nonzero(ys >= 0, axis=1)
    # y on the geodesic [w, z], in shared-prefix arithmetic
    covered = common_prefix_lengths(ys, out_paths) + wy[:, None] == y_depths[:, None] + wz
    if np.any(covered.sum(axis=0) != 1):
        raise RuntimeError(
            "transported cylinder images fail to partition the boundary "
            f"(place {place}, element {gamma.to_text()})"
        )
    return 2 * wz - w.depth, covered


def direct_images(
    gamma: SL2Element, cyls: list[BoundaryCylinder], expansion: Expansion
) -> list[tuple[int, ...]]:
    """The label path of gamma . v in the tree at zero for the base v of
    every cylinder, each moved by ``translate_form`` on its own."""
    return [
        expansion.locate_form(translate_form(gamma, form_at(expansion, c.base))).path
        for c in cyls
    ]


def koopman_matrix(
    gamma: SL2Element,
    depths: DepthSpec,
    expansion: Optional[Expansion] = None,
) -> KoopmanMatrix:
    """Assemble the exact action of ``gamma`` on depth-``depths`` step
    functions.  Needs an expansion of radius at least depth + length at
    both places, which serves the tree at infinity through
    ``gamma.substitute_inverse()``; an omitted expansion is built."""
    pair = _depth_pair(depths)
    field = gamma.field
    lengths = element_lengths(gamma)
    out_pair = (pair[0] + lengths[0], pair[1] + lengths[1])
    expansion = expansion or Expansion(field.q, max(out_pair))
    if expansion.radius < max(out_pair):
        raise ValueError(f"expansion radius {expansion.radius} below the output depths {out_pair}")
    factors = []
    for place, element, in_depth, out_depth in (
        ("zero", gamma, pair[0], out_pair[0]),
        ("infinity", gamma.substitute_inverse(), pair[1], out_pair[1]),
    ):
        w = expansion.locate(element)
        in_cyls = boundary_cylinders(field.q + 1, in_depth)
        out_cyls = boundary_cylinders(field.q + 1, out_depth)
        out_paths = label_array([c.base.path for c in out_cyls], out_depth)
        ys = label_array(direct_images(element, in_cyls, expansion), out_depth)
        betas, covered = _transport_supports(gamma, w, ys, out_paths, place)
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
        gammas = sphere_members(table, n)
        if not gammas:
            raise ValueError(f"sphere {n} is empty")
        self.n = n
        self.q = table.q
        self.input_depths = _depth_pair(input_depths)
        self.output_depths = (self.input_depths[0] + n, self.input_depths[1] + n)
        # one expansion serves every element at both places: lengths are at most n
        expansion = Expansion(self.q, max(self.output_depths))
        inv_size = Fraction(1, len(gammas))
        self._terms = []
        for g in gammas:
            factor = AlgebraicValue.rational(inv_size, self.q)
            if xi_weighted:
                factor = factor / hc_product(*element_lengths(g), self.q)
            self._terms.append((koopman_matrix(g, self.input_depths, expansion), factor))

    def apply(self, h: StepFunction) -> StepFunction:
        total: Optional[StepFunction] = None
        for matrix, factor in self._terms:
            term = scale(refine(matrix.apply(h), self.output_depths), factor)
            total = term if total is None else add(total, term)
        assert total is not None
        return total


# One right coset rK of a sphere split by ``right_cosets``: the located pair
# (r . o_0, r . o_inf) and its members as (sphere index, k) with member = r k,
# the representative r first.
SplitCoset = tuple[TreeVertex, TreeVertex, list[tuple[int, SL2Element]]]


def right_cosets(gammas: Sequence[SL2Element], expansion: Expansion) -> list[SplitCoset]:
    """Split a sphere, given as its elements, into right cosets rK of
    K = SL2(F_q), independently of the pair scan.

    In the given order, the first element no coset has claimed yet opens the
    coset rK, whose members r k come from ``right_coset`` and are looked up
    by text.  Each must be on the sphere and unclaimed, and no element may
    repeat, so the sphere is checked to be a union of whole cosets.  The
    stabilizer of the base-vertex pair is K, so only r is located, at
    infinity through its sigma-image ``r.substitute_inverse()``.
    """
    index = {g.to_text(): gi for gi, g in enumerate(gammas)}
    if len(index) != len(gammas):
        raise RuntimeError("the sphere repeats an element")
    group = constant_group(expansion.field)
    claimed = [False] * len(gammas)
    cosets = []
    for ri, r in enumerate(gammas):
        if claimed[ri]:
            continue
        members = []
        for k, text, _ in right_coset(r, group):
            gi = index.get(text)
            if gi is None or claimed[gi]:
                raise RuntimeError(
                    f"the sphere is not a union of right cosets: {text} of the "
                    f"coset of {r.to_text()} is missing or already claimed"
                )
            claimed[gi] = True
            members.append((gi, k))
        members.sort()  # by sphere index, which is unique: r comes first
        cosets.append((expansion.locate(r), expansion.locate(r.substitute_inverse()), members))
    return cosets


def mean_transfer_function(gammas: Sequence[SL2Element], n: int) -> StepFunction:
    """The exact value of the normalized, spherical-function-weighted mean
    over the length-n sphere, given as its elements, applied to the constant
    function 1, as a depth-(n, n) step function of ``AlgebraicValue``s.

    Each sphere element contributes the product of its two per-place cocycle
    square roots divided by its spherical-function value; the result is
    averaged.  Cocycles and spherical value read only the located pair
    (g . o_0, g . o_inf), so the members of a right coset gK contribute equal
    terms and each coset of ``right_cosets`` is evaluated once, weighted by
    its share of the sphere.  Its sup norm is U_n, which the program computes
    from integers.
    """
    if not gammas:
        raise ValueError(f"sphere {n} is empty")
    q = gammas[0].field.q
    cosets = right_cosets(gammas, Expansion(q, n))
    cells = boundary_cylinders(q + 1, n)
    acc = [[AlgebraicValue.rational(0, q) for _ in cells] for _ in cells]
    for w0, w1, members in cosets:
        xi = hc_product(w0.depth, w1.depth, q)
        factor = AlgebraicValue.rational(Fraction(len(members), len(gammas)), q) / xi
        vec0 = [factor * cocycle_sqrt(w0, c) for c in cells]
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


def cell_values(table: SphereTable, n: int) -> tuple[np.ndarray, int]:
    """The mean over sphere n applied to 1 at every depth-(n, n) product
    cell (x, y), in cell order, as the integers V[x, y] over one common
    denominator, which it returns too: V is the sum over the cosets of
    scale q^(gp(w0, x) + gp(w1, y)), with the scales and the denominator of
    ``uniform_bound_value``.  The scale depends only on the depth pair
    (l0, l1), so each depth pair's sum of q-power products is one int64
    matrix product, and the scaled sums are added exactly in Python
    integers (an object array).  The Gromov products are common prefixes of
    label paths."""
    q, cosets = table.q, table.cosets(n)
    weights = {
        (c.zero.depth, c.infinity.depth): Fraction(1, len(cosets))
        / (spherical_coefficient(q, c.zero.depth) * spherical_coefficient(q, c.infinity.depth))
        for c in cosets
    }
    denominator = math.lcm(*(w.denominator for w in weights.values()))
    cells = label_array([c.base.path for c in boundary_cylinders(q + 1, n)], n)
    values = np.zeros((len(cells), len(cells)), dtype=object)
    for depths, weight in weights.items():
        pairs = [c for c in cosets if (c.zero.depth, c.infinity.depth) == depths]
        located = [label_array([c.vertex(i).path for c in pairs], n) for i in (0, 1)]
        zero, infinity = (q ** common_prefix_lengths(v, cells) for v in located)
        scale = weight.numerator * (denominator // weight.denominator)
        values += scale * (zero.T @ infinity).astype(object)
    return values, denominator


# ---------------------------------------------------------------------------
# the compression's Gram matrix, element by element and pair by pair


def per_element_stack(gammas, in_depth, out_depth, expansion, q) -> np.ndarray:
    """Transport every element on its own in the tree at zero (pass the
    sigma-images for the tree at infinity): locate it, move each input
    cylinder's base vertex and mark the output cylinders whose geodesic from
    the located vertex passes through the image, with weight q^(beta/2).
    Shape (len(gammas), #out cells, #in cells)."""
    in_cyls = boundary_cylinders(q + 1, in_depth)
    out_cyls = boundary_cylinders(q + 1, out_depth)
    stack = np.zeros((len(gammas), len(out_cyls), len(in_cyls)))
    in_forms = [form_at(expansion, ic.base) for ic in in_cyls]
    for gi, g in enumerate(gammas):
        w = expansion.locate(g)
        for j, form in enumerate(in_forms):
            y = expansion.locate_form(translate_form(g, form))
            for i, oc in enumerate(out_cyls):
                z = oc.base
                if gromov_product(w, y) + gromov_product(y, z) == y.depth + gromov_product(w, z):
                    beta = 2 * gromov_product(w, z) - w.depth
                    stack[gi, i, j] = float(q) ** (beta / 2.0)
    return stack


def gram_per_element(table: SphereTable, n: int, depth: int) -> np.ndarray:
    """The whitened Gram matrix of the depth-``depth`` compression of the
    weighted mean over sphere n, summed over every pair of sphere elements
    (g, h): sum (P0_g^T D0 P0_h) (x) (P1_g^T D1 P1_h) with P_g = the
    element's own transport divided by |C_n| Xi(g) at place zero."""
    gammas = sphere_members(table, n)
    q = table.q
    out_depth = depth + n
    expansion = Expansion(q, out_depth)
    P0, P1 = (
        per_element_stack(elements, depth, out_depth, expansion, q)
        for elements in (gammas, [g.substitute_inverse() for g in gammas])
    )
    for gi, g in enumerate(gammas):
        P0[gi] /= len(gammas) * float(hc_product(*element_lengths(g), q))
    mu_in, mu_out = (1.0 / sphere_size(q + 1, k) for k in (depth, out_depth))
    G, O0, I0 = P0.shape
    _, O1, I1 = P1.shape
    # gram[(i,j),(k,l)] = sum_{g,h} (P0_g^T D0 P0_h)[i,k] (P1_g^T D1 P1_h)[j,l],
    # accumulated one g at a time
    W0 = mu_out * P0.transpose(1, 0, 2).reshape(O0, G * I0)
    W1 = mu_out * P1.transpose(1, 0, 2).reshape(O1, G * I1)
    gram_ik_jl = np.zeros((I0 * I0, I1 * I1))
    for gi in range(G):
        S0 = (P0[gi].T @ W0).reshape(I0, G, I0).transpose(1, 0, 2).reshape(G, I0 * I0)
        S1 = (P1[gi].T @ W1).reshape(I1, G, I1).transpose(1, 0, 2).reshape(G, I1 * I1)
        gram_ik_jl += S0.T @ S1
    gram = gram_ik_jl.reshape(I0, I0, I1, I1).transpose(0, 2, 1, 3).reshape(I0 * I1, I0 * I1)
    scale = math.sqrt(mu_in * mu_in)
    sym = gram / (scale * scale)
    return (sym + sym.T) / 2.0


def compression_gram_all_pairs(
    transports: SphereTransports, depth: int
) -> tuple[np.ndarray, np.ndarray]:
    """The program's whitened orbit Gram matrix of the depth-``depth``
    compression (``criterion._compression_gram``) and the orbit label of
    every input cell, summed over every pair of coset representatives
    (r, s) with s >= r instead of one representative per double coset:
    C = H + H^T with H = sum_r sum_{s >= r} f(r, s), the s = r term halved,
    accumulated into a cells x cells core and added into the orbit pairs by
    ``np.add.at`` in element order."""
    table, n, cosets = transports.table, transports.n, transports.cosets
    q = table.q
    degree = q + 1
    size = sphere_size(degree, depth)
    labels = _cell_orbits(transports, depth)
    place0 = _transports_at(transports, 0, depth)
    place1 = _transports_at(transports, 1, depth)
    powers = float(q) ** np.arange(n + 1)
    mu_out = 1.0 / sphere_size(degree, depth + n)
    # U_n's weight 1 / (#cosets c(l0) c(l1)) of every coset
    coeffs = np.array([
        1.0
        / float(
            len(cosets)
            * spherical_coefficient(q, c.zero.depth)
            * spherical_coefficient(q, c.infinity.depth)
        )
        for c in cosets
    ])
    cells = size * size
    blocks = [slice(start, start + ROW_BLOCK) for start in range(0, cells, ROW_BLOCK)]
    # core[(i, j), (k, l)] = H[(i, k), (j, l)], the pair blocks' layout
    core = np.zeros((cells, cells))
    for r in range(len(cosets)):
        left = _pair_blocks(*place0, powers, r, size)
        right = _pair_blocks(*place1, powers, r, size)
        scales = (mu_out * mu_out * coeffs[r]) * coeffs[r:]
        scales[0] /= 2.0
        weighted = scales[:, None] * right
        for block in blocks:
            core[block] += left[:, block].T @ weighted
    orbits = int(labels.max()) + 1
    pairs = labels.reshape(size, size)
    half = np.zeros(orbits * orbits)
    for block in blocks:
        i, j = np.divmod(np.arange(cells)[block], size)
        index = pairs[i][:, :, None] * orbits + pairs[j][:, None, :]
        np.add.at(half, index.reshape(len(i), cells), core[block])
    half = half.reshape(orbits, orbits)
    root = np.sqrt(np.bincount(labels))
    scale = float(size**2)
    return scale * (half + half.T) / (root[:, None] * root), labels


def coset_transports_direct(
    cosets: Sequence[Coset], n: int, expansion: Expansion, place_index: int, depth: int
) -> tuple[np.ndarray, np.ndarray]:
    """Each representative's transport of sphere n at one place for the
    depth-``depth`` input cylinders, as (columns, weights) like the
    program's, but with every input cylinder base of that depth translated
    on its own instead of read off the deepest images, at infinity through
    the representative's sigma-image.  A weight is the exponent
    (beta + |w|) / 2 of q in the cocycle weight q^(beta/2) times |w|'s
    q^(|w|/2), w = r . o."""
    q = expansion.q
    in_cyls = boundary_cylinders(q + 1, depth)
    out_depth = n + depth
    out_paths = label_array(
        [c.base.path for c in boundary_cylinders(q + 1, out_depth)], out_depth
    )
    columns, weights = [], []
    for coset in cosets:
        r = coset.representative
        element = r.substitute_inverse() if place_index else r
        ys = label_array(direct_images(element, in_cyls, expansion), out_depth)
        betas, covered = _transport_supports(
            r, coset.vertex(place_index), ys, out_paths, ("zero", "infinity")[place_index]
        )
        columns.append(covered.argmax(axis=0))
        weights.append((betas + coset.vertex(place_index).depth) // 2)
    return np.array(columns), np.array(weights)


# ---------------------------------------------------------------------------
# the convolution matrix, element by element


def convolution_matrix(table: SphereTable, n: int, ball_radius: int) -> np.ndarray:
    """The sphere indicator's convolution compressed to the length ball: the
    0/1 matrix [L(g h^-1) == n] over ball elements g, h in table order.

    The group acts by isometries, so L(g h^-1) is the sum over both places of
    the tree distance d(g^-1 . o, h^-1 . o).  Each inverse is located once
    per place, at infinity through its sigma-image, and the distances
    |p| + |p'| - 2 prefix(p, p') of the label paths come from
    ``common_prefix_lengths``.
    """
    inverses = [
        inverse(g)
        for length in table.lengths()
        if length <= ball_radius
        for g in sphere_members(table, length)
    ]
    size = len(inverses)
    lengths = np.zeros((size, size), dtype=np.int64)
    expansion = Expansion(table.q, ball_radius)
    for elements in (inverses, [h.substitute_inverse() for h in inverses]):
        paths = [expansion.locate(h).path for h in elements]
        depths = np.array([len(p) for p in paths], dtype=np.int64)
        labels = label_array(paths, ball_radius)
        lengths += depths[:, None] + depths[None, :] - 2 * common_prefix_lengths(labels, labels)
    return (lengths == n).astype(float)
