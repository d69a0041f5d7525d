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
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator


@dataclass(frozen=True, slots=True)
class TreeVertex:
    """A vertex of the d-regular rooted tree, addressed by its label path."""

    degree: int
    path: tuple[int, ...]

    def __post_init__(self) -> None:
        d = self.degree
        if d < 3:
            raise ValueError("tree degree must be at least 3")
        for i, label in enumerate(self.path):
            bound = d if i == 0 else d - 1
            if not 0 <= label < bound:
                raise ValueError(f"label {label} at position {i} out of range({bound})")

    @classmethod
    def root(cls, degree: int) -> "TreeVertex":
        return cls(degree, ())

    @property
    def depth(self) -> int:
        return len(self.path)

    def is_root(self) -> bool:
        return not self.path

    def child(self, label: int) -> "TreeVertex":
        return TreeVertex(self.degree, self.path + (label,))

    def parent(self) -> "TreeVertex":
        if not self.path:
            raise ValueError("the root has no parent")
        return TreeVertex(self.degree, self.path[:-1])

    def is_prefix_of(self, other: "TreeVertex") -> bool:
        return self.path == other.path[: len(self.path)]

    def to_text(self) -> str:
        return "/".join(str(p) for p in self.path)

    @classmethod
    def from_text(cls, degree: int, text: str) -> "TreeVertex":
        if text == "":
            return cls.root(degree)
        return cls(degree, tuple(int(p) for p in text.split("/")))

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


@dataclass(frozen=True, slots=True)
class BoundaryCylinder:
    """Ends through ``base`` in the direction away from the root.

    Depth 0 (base = root) is the whole boundary.  The visibility measure of a
    depth-k cylinder, k >= 1, is 1/(d*(d-1)^(k-1)); the whole boundary has
    measure 1.
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

    def contains(self, other: "BoundaryCylinder") -> bool:
        return self.base.is_prefix_of(other.base)

    def refinements(self, depth: int) -> Iterator["BoundaryCylinder"]:
        """The depth-``depth`` cylinders partitioning this one."""
        if depth < self.depth:
            raise ValueError("refinement depth below the cylinder depth")
        extra = depth - self.depth
        if self.depth == 0:
            yield from (BoundaryCylinder(v) for v in sphere_vertices(self.degree, depth))
            return
        d = self.degree
        for rest in itertools.product(range(d - 1), repeat=extra):
            yield BoundaryCylinder(TreeVertex(d, self.base.path + rest))

    def __repr__(self) -> str:
        return f"Cyl({self.base.to_text()!r})"


def boundary_cylinders(degree: int, depth: int) -> list[BoundaryCylinder]:
    """All depth-``depth`` cylinders in lexicographic order (the whole boundary
    for depth 0)."""
    if depth == 0:
        return [BoundaryCylinder(TreeVertex.root(degree))]
    return [BoundaryCylinder(v) for v in sphere_vertices(degree, depth)]


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

    def __repr__(self) -> str:
        return f"ProductCyl({self.zero.base.to_text()!r}, {self.infinity.base.to_text()!r})"


def busemann(cylinder: BoundaryCylinder, w: TreeVertex) -> int:
    """Horocycle index beta_xi(root, w), constant for xi in the cylinder.

    Needs depth(cylinder) >= d(root, w): below that the value genuinely varies
    over the cylinder, so the call is an error rather than an approximation.
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


def ball_count_bfs(degree: int, n: int) -> int:
    """Pair-ball count by exhaustive breadth-first enumeration of one tree.

    Counts actual vertices per sphere by expanding label paths, then sums
    s_i * s_j over i + j <= n.  Independent of the closed form; used as its
    oracle.
    """
    if n < 0:
        raise ValueError("negative radius")
    counts = []
    frontier = [TreeVertex.root(degree)]
    counts.append(len(frontier))
    for depth in range(1, n + 1):
        nxt = []
        for v in frontier:
            labels = range(degree) if v.is_root() else range(degree - 1)
            for lab in labels:
                nxt.append(v.child(lab))
        counts.append(len(nxt))
        frontier = nxt
    total = 0
    for i in range(n + 1):
        for j in range(n + 1 - i):
            total += counts[i] * counts[j]
    return total
