from __future__ import annotations

import random
from fractions import Fraction

import pytest

from rrdlab.trees import (
    BoundaryCylinder,
    RadiusBudgetError,
    TreeVertex,
    ball_count_formula,
    boundary_cylinders,
    busemann,
    gromov_product,
    sphere_size,
    sphere_vertices,
)

from oracles import (
    BFS_VERTEX_BUDGET,
    ball_count_bfs,
    contains,
    end_image_set,
    product_cylinders,
    refinements,
    tree_distance,
    vertex_from_text,
    vertex_parent,
)

rng = random.Random(0x7EE5)


def random_vertex(degree: int, max_depth: int = 6) -> TreeVertex:
    v = TreeVertex.root(degree)
    for i in range(rng.randint(0, max_depth)):
        width = degree if i == 0 else degree - 1
        v = v.child(rng.randrange(width))
    return v


def test_vertex_paths_and_text_roundtrip():
    root = TreeVertex.root(3)
    assert root.is_root() and root.depth == 0
    v = root.child(2).child(0).child(1)
    assert v.depth == 3
    assert vertex_parent(vertex_parent(vertex_parent(v))) == root
    assert vertex_from_text(3, v.to_text()) == v
    assert vertex_from_text(3, root.to_text()) == root
    with pytest.raises(ValueError):
        vertex_parent(root)


def test_tree_distance_is_a_metric():
    for _ in range(300):
        u, v, w = (random_vertex(3) for _ in range(3))
        assert tree_distance(u, v) == tree_distance(v, u)
        assert tree_distance(u, v) >= 0
        assert (tree_distance(u, v) == 0) == (u == v)
        assert tree_distance(u, w) <= tree_distance(u, v) + tree_distance(v, w)


def test_gromov_product_is_geodesic_overlap():
    for _ in range(200):
        u, v = random_vertex(4), random_vertex(4)
        g = gromov_product(u, v)
        assert 2 * g == u.depth + v.depth - tree_distance(u, v)


def test_sphere_sizes():
    for degree in (3, 4, 5):
        for n in range(6):
            expected = 1 if n == 0 else degree * (degree - 1) ** (n - 1)
            assert sphere_size(degree, n) == expected
            assert sum(1 for _ in sphere_vertices(degree, n)) == expected


def test_cylinder_measures_partition_unity():
    for degree in (3, 4):
        for depth in range(4):
            cylinders = boundary_cylinders(degree, depth)
            assert sum(c.measure() for c in cylinders) == 1
            assert len(set(cylinders)) == len(cylinders)


def test_cylinder_refinements_preserve_measure():
    for _ in range(60):
        v = random_vertex(3, 3)
        cyl = BoundaryCylinder(v)
        deeper = v.depth + rng.randint(0, 2)
        parts = list(refinements(cyl, deeper))
        assert sum(p.measure() for p in parts) == cyl.measure()
        assert all(contains(cyl, p) for p in parts)
        with pytest.raises(ValueError):
            next(refinements(cyl, v.depth - 1))


def test_product_cylinder_measure_is_product():
    cells = product_cylinders(3, (2, 1))
    assert len(cells) == 6 * 3
    assert sum(c.measure() for c in cells) == 1
    one = cells[0]
    assert one.measure() == one.zero.measure() * one.infinity.measure()
    assert one.depths == (2, 1)


def test_busemann_via_gromov():
    for _ in range(200):
        w = random_vertex(3, 4)
        base = random_vertex(3, 4)
        if base.depth < w.depth:
            with pytest.raises(ValueError):
                busemann(BoundaryCylinder(base), w)
            continue
        value = busemann(BoundaryCylinder(base), w)
        assert value == 2 * gromov_product(w, base) - w.depth
        assert -w.depth <= value <= w.depth


def test_busemann_stable_under_refinement():
    # deepening the cylinder beyond the observation vertex never changes it
    for _ in range(100):
        w = random_vertex(3, 3)
        base = random_vertex(3, 4)
        if base.depth < w.depth:
            continue
        b = busemann(BoundaryCylinder(base), w)
        for part in refinements(BoundaryCylinder(base), base.depth + 1):
            assert busemann(part, w) == b


def test_ball_count_formula_matches_bfs():
    for degree in (3, 4, 5):
        assert [ball_count_formula(degree, n) for n in range(7)] == ball_count_bfs(degree, 6)


def test_ball_count_bfs_checks_its_budget_first():
    # degree 3 has 3 * 2^n - 2 vertices up to radius n: 393,214 at n = 17
    # fit, 786,430 at n = 18 do not; a huge radius fails at once
    assert sum(sphere_size(3, k) for k in range(18)) <= BFS_VERTEX_BUDGET
    for radius in (18, 10**9):
        with pytest.raises(RadiusBudgetError, match="ball-count BFS"):
            ball_count_bfs(3, radius)


def test_ball_count_known_values_degree_three():
    assert [ball_count_formula(3, n) for n in (1, 2, 3)] == [7, 28, 88]


def test_end_image_set_covers_and_is_disjoint():
    for _ in range(80):
        u = random_vertex(3, 3)
        v = random_vertex(3, 3)
        if u == v:
            continue
        depth = max(u.depth, v.depth) + rng.randint(1, 2)
        shadows = end_image_set(u, v, depth)
        # ends through v from u form a disjoint nonempty family
        assert shadows
        assert len(set(shadows)) == len(shadows)
        for c in shadows:
            assert c.depth == depth
            assert tree_distance(u, v) + tree_distance(v, c.base) == tree_distance(
                u, c.base
            )
