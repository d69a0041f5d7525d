from __future__ import annotations

import random
from fractions import Fraction

import pytest

from rrdlab.algebra import AlgebraicValue
from rrdlab.boundary import (
    cocycle_sqrt,
    hc_product,
    hc_tree_closed,
    spherical_coefficient,
)
from rrdlab.trees import (
    BoundaryCylinder,
    TreeVertex,
    boundary_cylinders,
    busemann,
)

from oracles import hc_product_expanded, hc_tree_bruteforce, sphere_average_check

rng = random.Random(0xB0DA)


def random_vertex(degree: int, depth: int) -> TreeVertex:
    v = TreeVertex.root(degree)
    for i in range(depth):
        width = degree if i == 0 else degree - 1
        v = v.child(rng.randrange(width))
    return v


def test_closed_form_matches_bruteforce():
    for degree in (3, 4, 5):
        for n in range(0, 9):
            assert hc_tree_closed(degree, n) == hc_tree_bruteforce(degree, n)


def test_known_value_degree_three():
    assert hc_tree_closed(3, 2) == AlgebraicValue.rational(Fraction(5, 6), 2)


def test_spherical_function_decays():
    prev = None
    for n in range(0, 10):
        v = float(hc_tree_closed(3, n))
        assert v > 0
        if prev is not None:
            assert v < prev
        prev = v


def test_product_value_is_product_of_factors():
    for q in (2, 3):
        for l0 in range(0, 5):
            for linf in range(0, 5):
                product = hc_product(l0, linf, q)
                factor = hc_tree_closed(q + 1, l0) * hc_tree_closed(q + 1, linf)
                assert product == factor
                assert product == hc_product_expanded(l0, linf, q)


def test_spherical_coefficient_is_the_rational_factor_of_hc_product():
    # U_n weighs each coset by 1 / (c(l0) c(l1)), the compressions by
    # 1 / Xi(l0, l1): both must be one spherical function
    for q in (2, 3, 4, 9):
        for l0 in range(0, 9, 2):
            for l1 in range(0, 9 - l0, 2):
                c = spherical_coefficient(q, l0) * spherical_coefficient(q, l1)
                assert isinstance(c, Fraction)
                scaled = AlgebraicValue.rational(c, q) * AlgebraicValue.sqrt_q_power(q, -l0 - l1)
                assert scaled == hc_product(l0, l1, q)


def test_product_at_two_two():
    expected = AlgebraicValue.rational(Fraction(25, 36), 2)
    assert hc_product(2, 2, 2) == expected
    assert hc_product_expanded(2, 2, 2) == expected


def test_cocycle_matches_busemann_exponent():
    for _ in range(150):
        degree = rng.choice((3, 4))
        w = random_vertex(degree, rng.randint(0, 3))
        base = random_vertex(degree, rng.randint(w.depth, w.depth + 3))
        cyl = BoundaryCylinder(base)
        value = cocycle_sqrt(w, cyl)
        beta = busemann(cyl, w)
        assert value == AlgebraicValue.sqrt_q_power(degree - 1, beta)
        assert value.sign() == 1


def test_cocycle_square_integrates_to_one():
    # quasi-invariance: the measure derivative q^beta has total integral 1
    for degree in (3, 4):
        one = AlgebraicValue.rational(1, degree - 1)
        for _ in range(20):
            w = random_vertex(degree, rng.randint(0, 3))
            depth = w.depth + rng.randint(0, 2)
            total = AlgebraicValue.rational(0, degree - 1)
            for cyl in boundary_cylinders(degree, depth):
                c = cocycle_sqrt(w, cyl)
                total = total + c * c * cyl.measure()
            assert total == one


def test_sphere_average_identity_small():
    for degree in (3, 4):
        one = AlgebraicValue.rational(1, degree - 1)
        for n in range(0, 4):
            for depth in (n, n + 1):
                for cylinder in boundary_cylinders(degree, depth):
                    assert sphere_average_check(degree, n, cylinder) == one


def test_sphere_average_requires_depth():
    cylinder = BoundaryCylinder(TreeVertex.root(3).child(0))
    with pytest.raises(ValueError):
        sphere_average_check(3, 2, cylinder)
