"""Rooted coordinates for a (q+1)-regular tree, its boundary cylinders, and
the combinatorics the boundary integrals reduce to.

A vertex is addressed by its label path from the root: the first edge label
lies in range(d), every later label in range(d-1), so paths biject with
vertices and the coordinates are degree-consistent.  The boundary is the end
space; a cylinder is the set of ends through a given vertex (away from the
root), and carries visibility measure 1/(d*(d-1)^(depth-1)).  Horocycle
indices (Busemann values) at an end are computed from Gromov products, which
in a tree are plain common-prefix lengths.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Iterator, NamedTuple

# Largest number of group elements a count or a search may reach: the ball
# of the subgroup count (the report's radius 10 has 19,110 elements at q = 2
# and 316,381 at q = 3), and the candidate vertex pairs of the sphere scan times
# the q^3 - q members of a coset (q = 2 up to N = 12, q = 3 up to N = 8,
# q = 4 up to N = 6, q = 5 up to N = 4, q <= 13 at N = 2).
ELEMENT_BUDGET = 2_000_000


class RadiusBudgetError(RuntimeError):
    """The requested radius needs more work than its budget: candidate vertex
    pairs and their cosets' elements in the sphere enumeration
    (``spheres``), ball elements in the subgroup count (``lamplighter``),
    dense matrix entries in the compressions and the convolution
    (``criterion``)."""


class _TreeVertexFields(NamedTuple):
    degree: int
    path: tuple[int, ...]


class TreeVertex(_TreeVertexFields):
    """A vertex of the d-regular rooted tree, addressed by its label path.
    Every construction checks the degree and the labels; ``_make`` and
    ``_replace`` would skip the check, so no vertex is built through them."""

    __slots__ = ()

    def __new__(cls, degree: int, path: tuple[int, ...]) -> "TreeVertex":
        if degree < 3:
            raise ValueError("tree degree must be at least 3")
        for i, label in enumerate(path):
            bound = degree if i == 0 else degree - 1
            if not 0 <= label < bound:
                raise ValueError(f"label {label} at position {i} out of range({bound})")
        return super().__new__(cls, degree, path)

    @classmethod
    def root(cls, degree: int) -> "TreeVertex":
        return cls(degree, ())

    @property
    def depth(self) -> int:
        return len(self.path)

    def is_root(self) -> bool:
        return not self.path

    @property
    def id(self) -> int:
        """The path a_1 .. a_m as the bijective base-degree numeral
        sum (a_i + 1) degree^(m - i): distinct vertices have distinct ids,
        the root has 0, a parent's id is (id - 1) // degree, and the ids of
        one depth are in the order of their paths."""
        out = 0
        for label in self.path:
            out = out * self.degree + label + 1
        return out

    def child(self, label: int) -> "TreeVertex":
        return TreeVertex(self.degree, self.path + (label,))

    def to_text(self) -> str:
        return "/".join(str(p) for p in self.path)

    def __repr__(self) -> str:
        return f"TreeVertex({self.degree}, {self.to_text()!r})"


def _common_prefix_len(a: tuple[int, ...], b: tuple[int, ...]) -> int:
    n = 0
    for x, y in zip(a, b):
        if x != y:
            break
        n += 1
    return n


def gromov_product(u: TreeVertex, v: TreeVertex) -> int:
    """Gromov product of u and v based at the root: the common prefix length."""
    if u.degree != v.degree:
        raise ValueError("vertices of trees of different degree")
    return _common_prefix_len(u.path, v.path)


def sphere_vertices(degree: int, n: int) -> Iterator[TreeVertex]:
    """All vertices at distance exactly n from the root, lexicographic order."""
    if n < 0:
        raise ValueError("negative radius")
    if n == 0:
        yield TreeVertex.root(degree)
        return
    for first in range(degree):
        for rest in itertools.product(range(degree - 1), repeat=n - 1):
            yield TreeVertex(degree, (first,) + rest)


def sphere_size(degree: int, n: int) -> int:
    if n == 0:
        return 1
    return degree * (degree - 1) ** (n - 1)


class BoundaryCylinder(NamedTuple):
    """Ends through ``base`` in the direction away from the root.

    Depth 0 (base = root) is the whole boundary.  The visibility measure of a
    depth-k cylinder, k >= 1, is 1/(d*(d-1)^(k-1)); the whole boundary has
    measure 1.  The program builds none; the class stays only as the type of
    the tracer target ``boundary_cylinders`` and of the tests' oracles.
    """

    base: TreeVertex

    @property
    def degree(self) -> int:
        return self.base.degree

    @property
    def depth(self) -> int:
        return self.base.depth

    def measure(self) -> Fraction:
        d = self.degree
        k = self.depth
        if k == 0:
            return Fraction(1)
        return Fraction(1, d * (d - 1) ** (k - 1))

    def __repr__(self) -> str:
        return f"Cyl({self.base.to_text()!r})"


def boundary_cylinders(degree: int, depth: int) -> list[BoundaryCylinder]:
    """All depth-``depth`` cylinders in lexicographic order (the whole boundary
    for depth 0).  The program calls it nowhere; it stays only as a target of
    ``perfbench/tracer.py``, and the tests use it."""
    return [BoundaryCylinder(v) for v in sphere_vertices(degree, depth)]


def busemann(cylinder: BoundaryCylinder, w: TreeVertex) -> int:
    """Horocycle index beta_xi(root, w), constant for xi in the cylinder.

    Needs depth(cylinder) >= d(root, w): below that the value genuinely varies
    over the cylinder, so the call is an error rather than an approximation.
    The program calls it only from ``boundary.cocycle_sqrt``, which stays
    only as a tracer target.
    """
    if cylinder.degree != w.degree:
        raise ValueError("cylinder and vertex from trees of different degree")
    if cylinder.depth < w.depth:
        raise ValueError(
            f"cylinder depth {cylinder.depth} is below d(root, w) = {w.depth}; "
            "the Busemann value is not constant on the cylinder"
        )
    return 2 * gromov_product(w, cylinder.base) - w.depth


def ball_count_formula(degree: int, n: int) -> int:
    """Number of vertex pairs (x, y) with d(root,x) + d(root,y) <= n, closed form.

    Evaluated with exact rationals as (A*n + B)*(d-1)^n + C where
    A = d^2/((d-2)(d-1)), B = d(d-4)/(d-2)^2, C = 1 - B; the result is checked
    to be integral before being returned.
    """
    d = degree
    if d < 3:
        raise ValueError("degree must be at least 3")
    if n < 0:
        raise ValueError("negative radius")
    A = Fraction(d * d, (d - 2) * (d - 1))
    B = Fraction(d * (d - 4), (d - 2) ** 2)
    C = 1 - B
    value = (A * n + B) * (d - 1) ** n + C
    if value.denominator != 1:
        raise ArithmeticError(f"ball count formula not integral at d={d}, n={n}: {value}")
    return int(value)
