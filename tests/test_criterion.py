from __future__ import annotations

import random
from fractions import Fraction

import numpy as np
import pytest

from rrdlab.algebra import AlgebraicValue, Place
from rrdlab.boundary import cocycle_sqrt, hc_product
from rrdlab.criterion import (
    StepFunction,
    _right_cosets,
    _transport_stack,
    convolution_matrix,
    convolution_opnorm_lower,
    mean_matrix_2norm,
    mean_transfer_function,
    rrd_report,
    uniform_bound_value,
)
from rrdlab.sl2 import build_registry, locate, translate_vertex
from rrdlab.spheres import enumerate_ball, sup_xi_on_sphere
from rrdlab.trees import boundary_cylinders, gromov_product

from oracles import (
    MeanOperator,
    add,
    bfs_crosscheck,
    constant,
    integral,
    koopman_matrix,
    l1_norm,
    l2_norm_squared,
    pointwise_equal,
    pointwise_leq,
    pointwise_nonneg,
    product_cylinders,
    refine,
    scale,
    value_at,
)

rng = random.Random(0xC817)

ONE = AlgebraicValue.rational(1, 2)


def random_value() -> AlgebraicValue:
    return AlgebraicValue(
        Fraction(rng.randint(-6, 6), rng.randint(1, 4)),
        Fraction(rng.randint(-3, 3), 2),
        2,
    )


def random_step(depths: tuple[int, int]) -> StepFunction:
    return StepFunction(3, depths, {c: random_value() for c in product_cylinders(3, depths)})


def test_step_function_norms_and_refine():
    const = constant(3, ONE, 2)
    assert integral(const) == ONE
    assert l2_norm_squared(const) == ONE
    assert l1_norm(const) == ONE
    assert const.sup_norm() == ONE
    refined = refine(const, (3, 4))
    assert integral(refined) == ONE
    assert len(refined.values) == refined.cell_total()
    with pytest.raises(ValueError):
        refine(const, (1, 1))


def test_step_function_add_scale_and_validation():
    f = random_step((1, 1))
    g = random_step((1, 1))
    total = add(f, g)
    for cell in product_cylinders(3, (1, 1)):
        assert value_at(total, cell) == value_at(f, cell) + value_at(g, cell)
    doubled = scale(f, 2)
    assert l1_norm(doubled) == l1_norm(f) * 2
    cells = product_cylinders(3, (2, 1))
    with pytest.raises(ValueError):
        StepFunction(3, (1, 1), {cells[0]: ONE})


def test_transfer_integral_is_one(table4):
    for n in (0, 2):
        transfer = mean_transfer_function(table4, n)
        assert integral(transfer) == ONE
        assert transfer.depths == (n, n)


def test_uniform_bound_known_values(table4):
    r0 = uniform_bound_value(table4, 0)
    assert r0.value == ONE
    r2 = uniform_bound_value(table4, 2)
    assert r2.value == AlgebraicValue.rational(Fraction(6, 5), 2)
    assert r2.sphere_size == 36


def mean_transfer_bruteforce(table, n):
    """Independent evaluation path: per product cell, sum the cocycle
    products of every sphere element directly, without the per-coset and
    per-factor reuse of the main path."""
    gammas = table.sphere(n)
    q = table.q
    reg0 = build_registry(q, Place.ZERO, n)
    reginf = build_registry(q, Place.INFINITY, n)
    located = [
        (locate(g, Place.ZERO, reg0), locate(g, Place.INFINITY, reginf), g)
        for g in gammas
    ]
    inv_size = AlgebraicValue.rational(Fraction(1, len(gammas)), q)
    values = {}
    for cell in product_cylinders(q + 1, (n, n)):
        total = AlgebraicValue.rational(0, q)
        for w0, w1, g in located:
            xi = hc_product(g.length_zero, g.length_infinity, q).value
            total = total + cocycle_sqrt(w0, cell.zero) * cocycle_sqrt(w1, cell.infinity) / xi
        values[cell] = total * inv_size
    return StepFunction(q + 1, (n, n), values)


def test_transfer_matches_bruteforce(table4, table_q3n2):
    for table, lengths in ((table4, (0, 2, 4)), (table_q3n2, (0, 2))):
        for n in lengths:
            fast = mean_transfer_function(table, n)
            slow = mean_transfer_bruteforce(table, n)
            assert pointwise_equal(fast, slow)


def test_transfer_independent_of_enumeration_order(table4):
    # the same sphere reached by word BFS instead of the pair enumeration
    other = bfs_crosscheck(2, 2, word_radius=4)
    assert pointwise_equal(
        mean_transfer_function(table4, 2), mean_transfer_function(other, 2)
    )


def test_koopman_unitarity_exact(table4):
    gammas = [g for n in table4.lengths() for g in table4.sphere(n)]
    for g in rng.sample(gammas, 10):
        matrix = koopman_matrix(g, (1, 1))
        for _ in range(3):
            h = random_step((1, 1))
            assert l2_norm_squared(matrix.apply(h)) == l2_norm_squared(h)


def test_koopman_inverse_composition(table4):
    for g in rng.sample(list(table4.sphere(2)), 4):
        matrix = koopman_matrix(g, (1, 1))
        h = random_step((1, 1))
        out = matrix.apply(h)
        back = koopman_matrix(g.inverse(), out.depths).apply(out)
        assert pointwise_equal(back, refine(h, back.depths))


def test_koopman_identity_is_refinement(table4):
    identity = [g for g in table4.sphere(0) if g.is_identity()]
    assert len(identity) == 1
    matrix = koopman_matrix(identity[0], (1, 2))
    h = random_step((1, 2))
    assert pointwise_equal(matrix.apply(h), h)


def test_koopman_rejects_shallow_registry(table4):
    g = next(iter(table4.sphere(2)))
    reg0 = build_registry(2, Place.ZERO, 1)
    reginf = build_registry(2, Place.INFINITY, 1)
    with pytest.raises(ValueError):
        koopman_matrix(g, (1, 1), registries=(reg0, reginf))


def test_mean_operator_matches_transfer(table4):
    operator = MeanOperator(table4, 2, 0)
    image = operator.apply(constant(3, ONE, 0))
    assert pointwise_equal(image, mean_transfer_function(table4, 2))


def test_positivity_transport(table4):
    plain = MeanOperator(table4, 2, (1, 0), xi_weighted=False)
    weighted = MeanOperator(table4, 2, (1, 0), xi_weighted=True)
    sup_xi = sup_xi_on_sphere(table4, 2).value
    for _ in range(3):
        h = StepFunction(
            3, (1, 0), {c: abs(random_value()) for c in product_cylinders(3, (1, 0))}
        )
        a = plain.apply(h)
        b = scale(weighted.apply(h), sup_xi)
        assert pointwise_nonneg(a)
        assert pointwise_leq(a, b)


def test_compression_identity_sphere(table4):
    result = mean_matrix_2norm(table4, 0, 2)
    assert result.value == pytest.approx(1.0, abs=1e-9)
    assert result.converged


def test_compression_chain_and_monotonicity(table4):
    bound = uniform_bound_value(table4, 2).value_float
    previous = 0.0
    for depth in (1, 2):
        result = mean_matrix_2norm(table4, 2, depth)
        assert result.value <= bound + 1e-8
        assert result.value >= previous - 1e-8
        previous = result.value


def test_convolution_identity_and_monotonicity(table4):
    for radius in (0, 2, 4):
        result = convolution_opnorm_lower(table4, 0, radius)
        assert result.value == pytest.approx(6.0, abs=1e-6)
    previous = 0.0
    for radius in (0, 2):
        result = convolution_opnorm_lower(table4, 2, radius)
        assert result.value >= previous - 1e-9
        assert result.value <= result.sphere_size + 1e-9
        previous = result.value


def product_lengths(ball, rows):
    """L(g h^-1) from the Laurent product, for g in the given rows of the
    ball and every h; L(h g^-1) = L(g h^-1), so each pair is multiplied once."""
    inverses = [h.inverse() for h in ball]
    known = {}
    out = np.zeros((len(rows), len(ball)), dtype=np.int64)
    for r, i in enumerate(rows):
        for j, h_inv in enumerate(inverses):
            length = known.get((j, i))
            if length is None:
                length = known[i, j] = (ball[i] * h_inv).total_length
            out[r, j] = length
    return out


@pytest.mark.parametrize(
    "table_name, full_radius", [("table4", 4), ("table6", 4), ("table_q3n2", 2)]
)
def test_convolution_matrix_matches_products(request, table_name, full_radius):
    # every (n, R) the table allows: the whole matrix while the ball has at
    # most a few hundred elements, seeded sample rows beyond that
    table = request.getfixturevalue(table_name)
    top = table.max_length

    def ball(radius):
        return [g for m in table.lengths() if m <= radius for g in table.sphere(m)]

    full = product_lengths(ball(full_radius), range(len(ball(full_radius))))
    sampled = {}
    for radius in range(full_radius + 1, top + 1):
        elements = ball(radius)
        rows = sorted(random.Random(radius).sample(range(len(elements)), 24))
        sampled[radius] = (rows, product_lengths(elements, rows))
    for radius in range(top + 1):
        for n in table.lengths():
            if n + radius > top:
                continue
            matrix = convolution_matrix(table, n, radius)
            if radius <= full_radius:
                size = len(matrix)
                assert np.array_equal(matrix, full[:size, :size] == n)
            else:
                rows, lengths = sampled[radius]
                assert np.array_equal(matrix[rows], lengths == n)


def test_convolution_requires_room(table4):
    with pytest.raises(ValueError):
        convolution_opnorm_lower(table4, 2, 4)


def test_report_structure_and_determinism(table4):
    first = rrd_report(2, 4, depth=1, table=table4)
    second = rrd_report(2, 4, depth=1, table=table4)
    assert first == second
    assert first["pass"] is True
    for section in (
        "condition1",
        "condition2",
        "compressions",
        "convolution",
        "lamplighter-ref",
    ):
        assert section in first
        assert first[section]["pass"] is True
    assert first["config"]["tool_version"]
    u_rows = {row["n"]: row["value"] for row in first["condition2"]["rows"]}
    assert u_rows[0] == ("1", "0", 2)


def test_report_rejects_mismatched_table(table4):
    with pytest.raises(ValueError, match="sphere table"):
        rrd_report(3, 4, depth=1, table=table4)
    with pytest.raises(ValueError, match="sphere table"):
        rrd_report(2, 2, depth=1, table=table4)


def test_condition_two_compares_exact_values():
    # U_2 = 6/5 at q = 2, and the double nearest 1.2 lies just below 6/5
    table = enumerate_ball(2, 2)
    report = uniform_bound_value(table, 2)
    assert report.value == AlgebraicValue.rational(Fraction(6, 5), 2)
    assert report.value_float == 1.2
    assert not report.at_most(1.2)
    assert report.at_most(1.2000000000000002)
    assert report.at_most(float("inf"))
    assert not report.at_most(float("nan"))
    for threshold, expected in ((1.2, False), (1.2000000000000002, True)):
        verdict = rrd_report(2, 2, depth=1, u_bound=threshold, table=table)
        assert verdict["condition2"]["pass"] is expected


# ---------------------------------------------------------------------------
# coset-factored transports


def per_element_stack(gammas, place, in_depth, out_depth, registry, q):
    """Transport every element on its own: locate it, move each input
    cylinder's base vertex and mark the output cylinders whose geodesic from
    the located vertex passes through the image, with weight q^(beta/2)."""
    in_cyls = boundary_cylinders(q + 1, in_depth)
    out_cyls = boundary_cylinders(q + 1, out_depth)
    stack = np.zeros((len(gammas), len(out_cyls), len(in_cyls)))
    for gi, g in enumerate(gammas):
        w = locate(g, place, registry)
        for j, ic in enumerate(in_cyls):
            y = registry.locate_form(translate_vertex(g, registry.form_at(ic.base)))
            for i, oc in enumerate(out_cyls):
                z = oc.base
                if gromov_product(w, y) + gromov_product(y, z) == y.depth + gromov_product(w, z):
                    beta = 2 * gromov_product(w, z) - w.depth
                    stack[gi, i, j] = float(q) ** (beta / 2.0)
    return stack


@pytest.mark.parametrize("table_name", ["table4", "table_q3n2"])
def test_spheres_split_into_constant_cosets(request, table_name):
    table = request.getfixturevalue(table_name)
    q = table.q
    finite = set(table.sphere(0))
    assert len(finite) == q**3 - q
    for n in table.lengths():
        gammas = table.sphere(n)
        cosets = _right_cosets(
            gammas, build_registry(q, Place.ZERO, n), build_registry(q, Place.INFINITY, n)
        )
        indices = sorted(gi for _, _, members in cosets for gi, _ in members)
        assert indices == list(range(len(gammas)))
        for _, _, members in cosets:
            assert len(members) == q**3 - q
            r = gammas[members[0][0]]
            for gi, k in members:
                assert all(e.is_zero() or (e.low == 0 and e.top == 0) for e in k.entries())
                assert r * k == gammas[gi]
            assert {gammas[gi] for gi, _ in members} == {r * k for k in finite}


@pytest.mark.parametrize(
    "table_name, n, depth",
    [
        ("table4", 0, 2),
        ("table4", 2, 1),
        ("table4", 2, 2),
        ("table4", 4, 1),
        ("table4", 4, 2),
        ("table_q3n2", 0, 2),
        ("table_q3n2", 2, 1),
        ("table_q3n2", 2, 2),
    ],
)
def test_coset_stack_matches_per_element_stack(request, table_name, n, depth):
    table = request.getfixturevalue(table_name)
    q = table.q
    gammas = table.sphere(n)
    registries = {place: build_registry(q, place, n + depth) for place in Place}
    cosets = _right_cosets(gammas, registries[Place.ZERO], registries[Place.INFINITY])
    for place, registry in registries.items():
        stack = _transport_stack(gammas, cosets, place, depth, n + depth, registry, q)
        oracle = per_element_stack(gammas, place, depth, n + depth, registry, q)
        assert np.array_equal(stack, oracle)
