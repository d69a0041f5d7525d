from __future__ import annotations

import random
import re
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from rrdlab import criterion
from rrdlab.algebra import AlgebraicValue, Fq, plain
from rrdlab.boundary import cocycle_sqrt, hc_product
from rrdlab.criterion import (
    _compression_gram,
    _power_iteration_symmetric,
    _sphere_ids,
    _transports_at,
    check_compression_budget,
    coset_convolution_matrix,
    convolution_opnorm_lower,
    mean_matrix_2norm,
    rrd_report,
    transport_sphere,
    uniform_bound_value,
)
from rrdlab.sl2 import SL2Element, TreeRegistry
from rrdlab.spheres import (
    RadiusBudgetError,
    SphereTable,
    constant_group,
    enumerate_ball,
    right_coset,
    sup_xi_on_sphere,
)
from rrdlab.trees import boundary_cylinders, sphere_size, sphere_vertices

from oracles import (
    Expansion,
    MeanOperator,
    StepFunction,
    add,
    bfs_crosscheck,
    cell_values,
    compression_gram_all_pairs,
    constant,
    convolution_matrix,
    coset_transports_direct,
    double_cosets_by_members,
    element_lengths,
    gram_per_element,
    integral,
    koopman_matrix,
    l1_norm,
    mean_transfer_function,
    l2_norm_squared,
    pointwise_equal,
    pointwise_leq,
    pointwise_nonneg,
    product_cylinders,
    refine,
    scale,
    sphere_members,
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
        transfer = mean_transfer_function(sphere_members(table4, n), n)
        assert integral(transfer) == ONE
        assert transfer.depths == (n, n)


def test_uniform_bound_known_values(table4):
    r0 = uniform_bound_value(table4, 0)
    assert r0.value == ONE
    r2 = uniform_bound_value(table4, 2)
    assert r2.value == AlgebraicValue.rational(Fraction(6, 5), 2)
    assert r2.sphere_size == 36


@pytest.fixture(scope="module")
def table_q4n2():
    return enumerate_ball(4, 2)


@pytest.mark.parametrize(
    "table_name, n",
    [
        ("table4", 0),
        ("table4", 2),
        ("table4", 4),
        ("table_q3n2", 0),
        ("table_q3n2", 2),
        ("table_q4n2", 0),
        ("table_q4n2", 2),
    ],
)
def test_uniform_bound_matches_step_function_oracle(request, table_name, n):
    # q = 4 is a perfect square: the oracle's a + b sqrt(q) values fold to
    # rationals, and the integer path must give the same triple
    table = request.getfixturevalue(table_name)
    report = uniform_bound_value(table, n)
    oracle = mean_transfer_function(sphere_members(table, n), n).sup_norm()
    assert report.value.as_triple() == oracle.as_triple()
    assert report.value_float == float(oracle)
    assert report.depths == (n, n)


# U_6 at q = 2 and U_4 at q = 3, each once recomputed on the step-function
# path (about 30 s each there); a weight shared by every (l0, l1) group
# moves both
def test_uniform_bound_pin_q2_n6(table6):
    assert uniform_bound_value(table6, 6).value.as_triple() == ("3727/3150", "0", 2)


def test_uniform_bound_pin_q3_n4(table_q3n4):
    assert uniform_bound_value(table_q3n4, 4).value.as_triple() == ("279/244", "0", 3)


@pytest.mark.parametrize(
    "table_name, n",
    [
        ("table6", 2),
        ("table6", 4),
        ("table6", 6),
        ("table_q3n4", 2),
        ("table_q3n4", 4),
        ("table_q4n2", 2),
    ],
)
def test_mean_is_sigma_symmetric_exactly(request, table_name, n):
    # sigma swaps the located pair of every coset within the sphere and the
    # weight is symmetric in (l0, l1), so the cell values V_n are symmetric
    # in the two trees, exactly; their largest over the denominator is U_n
    table = request.getfixturevalue(table_name)
    values, denominator = cell_values(table, n)
    assert (values == values.T).all()
    best = AlgebraicValue.rational(Fraction(int(values.max()), denominator), table.q)
    assert uniform_bound_value(table, n).value.as_triple() == best.as_triple()


def mean_transfer_bruteforce(table, n):
    """Independent evaluation path: per product cell, sum the cocycle
    products of every sphere element directly, without the per-coset and
    per-factor reuse of the main path."""
    gammas = sphere_members(table, n)
    q = table.q
    tree = Expansion(q, n)
    located = [(tree.locate(g), tree.locate(g.substitute_inverse()), g) for g in gammas]
    inv_size = AlgebraicValue.rational(Fraction(1, len(gammas)), q)
    values = {}
    for cell in product_cylinders(q + 1, (n, n)):
        total = AlgebraicValue.rational(0, q)
        for w0, w1, g in located:
            xi = hc_product(*element_lengths(g), q)
            total = total + cocycle_sqrt(w0, cell.zero) * cocycle_sqrt(w1, cell.infinity) / xi
        values[cell] = total * inv_size
    return StepFunction(q + 1, (n, n), values)


def test_transfer_matches_bruteforce(table4, table_q3n2):
    for table, lengths in ((table4, (0, 2, 4)), (table_q3n2, (0, 2))):
        for n in lengths:
            fast = mean_transfer_function(sphere_members(table, n), n)
            slow = mean_transfer_bruteforce(table, n)
            assert pointwise_equal(fast, slow)


def test_transfer_independent_of_enumeration_order(table4):
    # the same sphere reached by word BFS instead of the pair enumeration
    other, _ = bfs_crosscheck(2, 2, word_radius=4)
    assert pointwise_equal(
        mean_transfer_function(sphere_members(table4, 2), 2), mean_transfer_function(other[2], 2)
    )


def test_koopman_unitarity_exact(table4):
    gammas = [g for n in table4.lengths() for g in sphere_members(table4, n)]
    for g in rng.sample(gammas, 10):
        matrix = koopman_matrix(g, (1, 1))
        for _ in range(3):
            h = random_step((1, 1))
            assert l2_norm_squared(matrix.apply(h)) == l2_norm_squared(h)


def test_koopman_inverse_composition(table4):
    for g in rng.sample(list(sphere_members(table4, 2)), 4):
        matrix = koopman_matrix(g, (1, 1))
        h = random_step((1, 1))
        out = matrix.apply(h)
        back = koopman_matrix(g.inverse(), out.depths).apply(out)
        assert pointwise_equal(back, refine(h, back.depths))


def test_koopman_identity_is_refinement(table4):
    identity = [g for g in sphere_members(table4, 0) if g == SL2Element.identity(Fq(2))]
    assert len(identity) == 1
    matrix = koopman_matrix(identity[0], (1, 2))
    h = random_step((1, 2))
    assert pointwise_equal(matrix.apply(h), h)


def test_koopman_rejects_shallow_registry(table4):
    g = next(iter(sphere_members(table4, 2)))
    with pytest.raises(ValueError, match="below the output depths"):
        koopman_matrix(g, (1, 1), Expansion(2, 1))


def test_mean_operator_matches_transfer(table4):
    operator = MeanOperator(table4, 2, 0)
    image = operator.apply(constant(3, ONE, 0))
    assert pointwise_equal(image, mean_transfer_function(sphere_members(table4, 2), 2))


def test_positivity_transport(table4):
    plain = MeanOperator(table4, 2, (1, 0), xi_weighted=False)
    weighted = MeanOperator(table4, 2, (1, 0), xi_weighted=True)
    sup_xi, _ = sup_xi_on_sphere(table4, 2)
    for _ in range(3):
        h = StepFunction(
            3, (1, 0), {c: abs(random_value()) for c in product_cylinders(3, (1, 0))}
        )
        a = plain.apply(h)
        b = scale(weighted.apply(h), sup_xi)
        assert pointwise_nonneg(a)
        assert pointwise_leq(a, b)


def test_compression_identity_sphere(table4):
    result = mean_matrix_2norm(transport_sphere(table4, 0, 2), 2)
    assert result.value == pytest.approx(1.0, abs=1e-9)
    assert result.converged


def test_compression_chain_and_monotonicity(table4):
    bound = uniform_bound_value(table4, 2).value_float
    previous = 0.0
    for depth in (1, 2):
        result = mean_matrix_2norm(transport_sphere(table4, 2, depth), depth)
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
                length = known[i, j] = sum(element_lengths(ball[i] * h_inv))
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
        return [g for m in table.lengths() if m <= radius for g in sphere_members(table, m)]

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


@pytest.mark.parametrize(
    "table_name, n, radius",
    [
        ("table4", 0, 4),
        ("table4", 2, 2),
        ("table6", 2, 4),
        ("table_q3n2", 0, 2),
        ("table_q4n2", 0, 2),
        ("table_q4n2", 2, 0),
    ],
)
def test_coset_convolution_matches_the_element_matrix(request, table_name, n, radius):
    # E[g, a] = 1 when g^-1 lies in coset a: the element matrix is E M' E^T
    # and E^T E = |K| I, so its norm is |K| times that of M'
    table = request.getfixturevalue(table_name)
    lengths = [m for m in table.lengths() if m <= radius]
    elements = (g for m in lengths for g in sphere_members(table, m))
    index = {g.to_text(): i for i, g in enumerate(elements)}
    ball = [coset for m in lengths for coset in table.cosets(m)]
    group = constant_group(Fq(table.q))
    expansion = np.zeros((len(index), len(ball)))
    for a, coset in enumerate(ball):
        for _, _, g in right_coset(coset.representative, group):
            expansion[index[g.inverse().to_text()], a] = 1.0
    order = table.q**3 - table.q
    assert np.array_equal(expansion.T @ expansion, order * np.eye(len(ball)))
    cosetwise = coset_convolution_matrix(ball, n)
    assert (cosetwise >= 0).all()
    element = convolution_matrix(table, n, radius)
    assert np.array_equal(expansion @ cosetwise @ expansion.T, element)
    norm = np.linalg.norm(element, 2)
    assert order * np.linalg.norm(cosetwise, 2) == pytest.approx(norm, rel=1e-10, abs=0)
    result = convolution_opnorm_lower(table, n, radius)
    assert result.value == pytest.approx(norm, rel=1e-10, abs=0)
    assert result.ball_size == len(index)
    # two products per step iterate as the formed square does
    square = cosetwise @ cosetwise
    start = np.full(len(ball), 1.0 / np.sqrt(len(ball)))
    eigenvalue, iterations, _ = _power_iteration_symmetric(lambda v: square @ v, start)
    assert result.iterations == iterations
    assert result.value == pytest.approx(order * np.sqrt(eigenvalue), rel=1e-12, abs=0)


def test_convolution_requires_room(table4):
    with pytest.raises(ValueError):
        convolution_opnorm_lower(table4, 2, 4)


def test_identity_ok_is_the_length_zero_rule():
    # |K| = 6 at q = 2: n = 0 must meet it to within BASE_IDENTITY_TOL, and
    # no other n has a rule; above |C_0| = 6 the l1 rule fails first
    tol = criterion.BASE_IDENTITY_TOL

    def result(n: int, value: float) -> criterion.ConvolutionResult:
        return criterion.ConvolutionResult(n, 2, value, 1, True, 42, 6 if n == 0 else 36)

    for value in (6.0, 6.0 + 0.9 * tol, 6.0 - 0.9 * tol):
        assert result(0, value).identity_ok
    assert result(0, 6.0).passed and result(0, 6.0 - 0.9 * tol).passed
    assert not result(0, 6.0 + 0.9 * tol).passed
    for value in (6.0 + 1.1 * tol, 6.0 - 1.1 * tol, 3.0):
        assert not result(0, value).identity_ok and not result(0, value).passed
    assert result(0, 3.0).l1_ok
    assert result(2, 3.0).identity_ok and result(2, 3.0).passed
    assert result(2, 40.0).identity_ok and not result(2, 40.0).passed


def test_report_structure_and_determinism(table4):
    first = rrd_report(table4, depth=1)
    second = rrd_report(table4, depth=1)
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
        verdict = rrd_report(table, depth=1, u_bound=threshold)
        assert verdict["condition2"]["pass"] is expected


# ---------------------------------------------------------------------------
# coset-factored compressions


@pytest.mark.parametrize("table_name", ["table4", "table_q3n2"])
def test_spheres_split_into_constant_cosets(request, table_name):
    table = request.getfixturevalue(table_name)
    q = table.q
    finite = set(sphere_members(table, 0))
    assert len(finite) == q**3 - q
    group = constant_group(Fq(q))
    for n in table.lengths():
        tree = Expansion(q, n)
        cosets = table.cosets(n)
        texts = [coset.representative.to_text() for coset in cosets]
        assert texts == sorted(texts)
        members = []
        for r, w0, w1 in cosets:
            expansion = list(right_coset(r, group))
            # the representative is the member whose text comes first
            assert r.to_text() == min(text for _, text, _ in expansion)
            for k, text, g in expansion:
                assert all(e.is_zero() or (e.low == 0 and e.top == 0) for e in k.entries())
                assert r * k == g and g.to_text() == text
                assert sum(element_lengths(g)) == n
                assert tree.locate(g) == w0
                assert tree.locate(g.substitute_inverse()) == w1
            assert {g for _, _, g in expansion} == {r * k for k in finite}
            members += [text for _, text, _ in expansion]
        assert sorted(members) == [g.to_text() for g in sphere_members(table, n)]
        assert len(set(members)) == len(members) == table.sphere_size(n)


def test_certificate_locates_no_sphere_element(table4, monkeypatch):
    # every located pair comes from the pair scan's registry walk; the
    # report and the standalone sections call no locate
    def refuse(*args):
        raise AssertionError("locate was called")

    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("rrdlab") and hasattr(module, "locate"):
            monkeypatch.setattr(module, "locate", refuse)
    assert rrd_report(table4, 2)["pass"] is True
    uniform_bound_value(table4, 4)
    mean_matrix_2norm(transport_sphere(table4, 4, 1), 1)
    convolution_opnorm_lower(table4, 2, 2)
    assert SphereTable.from_json(table4.to_json()) == table4


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
def test_coset_gram_matches_per_element_gram(request, table_name, n, depth):
    # the orbit Gram G' is the element Gram O in orbit coordinates, and O has
    # no component outside the K-invariant cells: G' = Q^T O Q, O = Q G' Q^T
    table = request.getfixturevalue(table_name)
    gram, labels = _compression_gram(transport_sphere(table, n, depth), depth)
    oracle = gram_per_element(table, n, depth)
    sizes = np.bincount(labels)
    basis = np.zeros((len(labels), len(sizes)))
    basis[np.arange(len(labels)), labels] = 1.0 / np.sqrt(sizes[labels])
    assert gram.shape == (len(sizes), len(sizes)) and len(sizes) < len(labels)
    np.testing.assert_allclose(gram, basis.T @ oracle @ basis, rtol=1e-12, atol=1e-15)
    np.testing.assert_allclose(oracle, basis @ gram @ basis.T, rtol=1e-12, atol=1e-15)


@pytest.mark.parametrize(
    "table_name, lengths, depths",
    [
        ("table4", (0, 2, 4), (1, 2, 3, 4)),
        ("table_q3n2", (0, 2), (1, 2)),
        ("table_q4n2", (0, 2), (1, 2)),
        ("table_q3n4", (4,), (1, 2)),
    ],
)
def test_double_coset_gram_matches_all_pairs(request, table_name, lengths, depths):
    # one representative per double coset K r K gives the orbit Gram of the
    # sum over every pair of representatives, and the same power iteration
    table = request.getfixturevalue(table_name)
    for n in lengths:
        transports = transport_sphere(table, n, max(depths))
        for depth in depths:
            gram, labels = _compression_gram(transports, depth)
            oracle, oracle_labels = compression_gram_all_pairs(transports, depth)
            assert np.array_equal(labels, oracle_labels)
            np.testing.assert_allclose(gram, oracle, rtol=1e-13, atol=0)
            # the Perron start: a nonnegative Gram and a positive start
            start = np.sqrt(np.bincount(labels) / len(labels))
            assert (gram >= 0).all() and (start > 0).all()
            eigenvalue, iterations, converged = _power_iteration_symmetric(
                lambda v: oracle @ v, start
            )
            result = mean_matrix_2norm(transports, depth)
            assert (result.iterations, result.converged) == (iterations, converged)
            assert result.value == pytest.approx(np.sqrt(eigenvalue), rel=1e-13, abs=0)


@pytest.mark.parametrize(
    "table_name, n, depths", [("table4", 4, (1, 2, 3, 4)), ("table_q3n4", 4, (2,))]
)
def test_coset_chunks_do_not_change_the_gram(request, monkeypatch, table_name, n, depths):
    # the transports and pair blocks are built one chunk of cosets at a time
    # and every coset's row on its own, so one coset per chunk and every
    # coset in one chunk give the default's orbit Gram exactly
    table = request.getfixturevalue(table_name)
    transports = transport_sphere(table, n, max(depths))
    assert len(transports.cosets) > criterion.ROW_BLOCK
    defaults = {depth: _compression_gram(transports, depth) for depth in depths}
    for chunk in (1, len(transports.cosets)):
        monkeypatch.setattr(criterion, "ROW_BLOCK", chunk)
        for depth, (default, default_labels) in defaults.items():
            gram, labels = _compression_gram(transports, depth)
            assert np.array_equal(labels, default_labels)
            assert np.array_equal(gram, default)


@pytest.mark.parametrize("q", [2, 3, 4])
def test_sphere_ids_are_the_vertex_ids_in_label_order(q):
    for depth in range(8):
        ids = _sphere_ids(q + 1, depth)
        expected = [vertex.id for vertex in sphere_vertices(q + 1, depth)]
        assert ids.dtype == np.int64 and ids.tolist() == expected


@pytest.mark.parametrize("table_name, n, depth", [("table4", 4, 4), ("table_q3n4", 4, 2)])
def test_coset_chunks_do_not_change_the_transports(request, monkeypatch, table_name, n, depth):
    # every coset's transport row is computed on its own, so one coset per
    # chunk gives the default's arrays exactly
    table = request.getfixturevalue(table_name)
    transports = transport_sphere(table, n, depth)
    assert len(transports.cosets) > criterion.ROW_BLOCK
    cases = [(place_index, k) for place_index in (0, 1) for k in range(depth + 1)]
    defaults = [_transports_at(transports, place_index, k) for place_index, k in cases]
    monkeypatch.setattr(criterion, "ROW_BLOCK", 1)
    for (place_index, k), default in zip(cases, defaults):
        transported = _transports_at(transports, place_index, k)
        assert transported[0].dtype == transported[1].dtype == np.uint8
        assert all(np.array_equal(a, b) for a, b in zip(transported, default))


@pytest.mark.parametrize("depth, limit_mb", [(4, 2.0), (5, 10.0)])
def test_compression_memory_is_bounded(table4, depth, limit_mb):
    # no array of one entry per pair of input cells (48^4 at depth 5) and no
    # working array over every coset: the traced peak of one compression,
    # its transports built before tracing starts, stays under a fixed bound
    transports = transport_sphere(table4, 4, depth)
    tracemalloc.start()
    try:
        mean_matrix_2norm(transports, depth)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < limit_mb * 1e6


@pytest.mark.parametrize(
    "table_name, n, count",
    [
        ("table6", 0, 1),
        ("table6", 2, 2),
        ("table6", 4, 10),
        ("table6", 6, 46),
        ("table8", 8, 224),
        ("table_q3n4", 0, 1),
        ("table_q3n4", 2, 4),
        ("table_q3n4", 4, 31),
    ],
)
def test_double_cosets_match_the_member_oracle(request, table_name, n, count):
    table = request.getfixturevalue(table_name)
    labels = transport_sphere(table, n, 1).doubles
    blocks = {frozenset(np.flatnonzero(labels == label).tolist()) for label in labels}
    assert len(blocks) == count
    assert blocks == double_cosets_by_members(table, n)
    # each double coset is labelled by its first coset
    assert all(labels[min(block)] == min(block) for block in blocks)


# transport_sphere translates by the elements of K in one call, then by the
# representatives and by their sigma-images; the patches below act on K's
# call only
GROUP_Q2 = [k for k, _, _ in constant_group(Fq(2))]


def test_cylinder_action_must_be_a_permutation(table4, monkeypatch):
    # K's leaf columns of the translation shifted by one leaf: every k then
    # sends its first two leaves to one image; the located vertices keep theirs
    real = criterion.translate_vertex

    def repeating(depth):
        leaves = sphere_size(3, depth)

        def translate(elements, forms):
            rows = real(elements, forms)
            if list(elements) == GROUP_Q2:
                rows[:, :leaves] = np.concatenate([rows[:, :1], rows[:, : leaves - 1]], axis=1)
            return rows

        return translate

    monkeypatch.setattr(criterion, "translate_vertex", repeating(1))
    with pytest.raises(RuntimeError, match="does not permute"):
        mean_matrix_2norm(transport_sphere(table4, 2, 1), 1)
    # the report translates K on the deepest cylinders of every sphere
    monkeypatch.setattr(criterion, "translate_vertex", repeating(4))
    with pytest.raises(RuntimeError, match="does not permute"):
        rrd_report(table4, 4)


def test_cylinder_action_must_be_the_group_action(table4, monkeypatch):
    # still a permutation, but one non-identity k has the images of two
    # leaves swapped, so it no longer preserves the orbits K's action has
    real = criterion.translate_vertex
    index = 1  # GROUP_Q2[1] = [[0, 1], [1, 1]]

    def swapped(elements, forms):
        rows = real(elements, forms)
        if list(elements) == GROUP_Q2:
            rows[index, [0, 1]] = rows[index, [1, 0]]
        return rows

    monkeypatch.setattr(criterion, "translate_vertex", swapped)
    with pytest.raises(RuntimeError, match="does not preserve the K-orbits"):
        mean_matrix_2norm(transport_sphere(table4, 2, 1), 1)
    with pytest.raises(RuntimeError, match="does not preserve the K-orbits"):
        rrd_report(table4, 4)


def test_located_pairs_must_stay_on_the_sphere(table4, monkeypatch):
    # one k sends the last coset's located vertex at infinity to the image
    # of a leaf, which is no located vertex of the sphere: the depths of a
    # sphere's located pairs are even and add up to n
    real = criterion.translate_vertex

    def leaving(elements, forms):
        rows = real(elements, forms)
        if list(elements) == GROUP_Q2:
            rows[1, -1] = rows[1, 0]
        return rows

    monkeypatch.setattr(criterion, "translate_vertex", leaving)
    with pytest.raises(RuntimeError, match="off sphere 2"):
        mean_matrix_2norm(transport_sphere(table4, 2, 1), 1)
    with pytest.raises(RuntimeError, match="off sphere 0"):
        rrd_report(table4, 4)


def test_coset_action_must_be_the_group_action(table4, monkeypatch):
    # k = GROUP_Q2[1] sends the located pair of sphere 2's first coset, at
    # both places, to that of a coset in the other double coset
    doubles = transport_sphere(table4, 2, 1).doubles
    cosets = table4.cosets(2)
    other = cosets[next(c for c in range(len(cosets)) if doubles[c] != doubles[0])]
    real = criterion.translate_vertex

    def merging(elements, forms):
        rows = real(elements, forms)
        if list(elements) == GROUP_Q2:
            # the located vertices follow the leaves, place zero's first
            first = len(forms) - 2 * len(cosets)
            rows[1, [first, first + len(cosets)]] = [other.zero.id, other.infinity.id]
        return rows

    monkeypatch.setattr(criterion, "translate_vertex", merging)
    with pytest.raises(RuntimeError, match="does not preserve the double cosets of sphere 2"):
        mean_matrix_2norm(transport_sphere(table4, 2, 1), 1)


def test_compression_budget_is_checked_before_any_transport(table4, monkeypatch):
    # q = 2 at depth 6 has 9,216 input cells: a core of 9,216^2 floats (680 MB)
    def refuse(*args):
        raise AssertionError("a transport or a translation was made")

    monkeypatch.setattr(criterion, "transport_sphere", refuse)
    monkeypatch.setattr(criterion, "translate_vertex", refuse)
    with pytest.raises(RadiusBudgetError, match="compression depth 6 at q = 2"):
        transport_sphere(table4, 0, 6)
    with pytest.raises(RadiusBudgetError, match="compression depth 6 at q = 2"):
        rrd_report(table4, 6)
    check_compression_budget(2, 5)
    check_compression_budget(3, 3)
    with pytest.raises(RadiusBudgetError):
        check_compression_budget(3, 4)


def test_transports_refuse_what_they_cannot_serve(table4):
    with pytest.raises(ValueError, match="sphere 1 is empty"):
        transport_sphere(table4, 1, 1)
    with pytest.raises(ValueError, match="negative depth -1"):
        transport_sphere(table4, 0, -1)
    transports = transport_sphere(table4, 2, 1)
    for depth in (-1, 2):
        with pytest.raises(ValueError, match="outside 0 .. 1"):
            mean_matrix_2norm(transports, depth)


def test_convolution_budget_is_checked_before_any_matrix(table4, monkeypatch):
    # the ball of radius 2 at q = 2 has 7 cosets, of radius 4 52: 49 and
    # 2,704 matrix entries
    def refuse(*args):
        raise AssertionError("a convolution matrix was built")

    monkeypatch.setattr(criterion, "CORE_BUDGET", 2_703)
    assert convolution_opnorm_lower(table4, 2, 2).converged
    monkeypatch.setattr(criterion, "coset_convolution_matrix", refuse)
    with pytest.raises(RadiusBudgetError, match="2,704 entries over its 52 cosets"):
        convolution_opnorm_lower(table4, 0, 4)


def test_transported_images_must_partition_the_boundary(table4, monkeypatch):
    # one representative's first leaf sent where its second goes: two input
    # cylinders then share an image and another one's output cells are lost
    real = criterion.transport_sphere

    def colliding(*args):
        transports = real(*args)
        row = transports.images[1][-1]
        row[0] = row[1]
        return transports

    monkeypatch.setattr(criterion, "transport_sphere", colliding)
    with pytest.raises(RuntimeError, match="fail to partition"):
        mean_matrix_2norm(criterion.transport_sphere(table4, 2, 1), 1)
    with pytest.raises(RuntimeError, match="fail to partition"):
        rrd_report(table4, 4)


def test_the_first_coset_that_fails_to_partition_is_named(table4):
    # two representatives past the first chunk of cosets each send their
    # first leaf where their second goes: the first of them in table order
    # is named, whichever chunk it falls in
    transports = transport_sphere(table4, 4, 2)
    assert criterion.ROW_BLOCK <= 40 < 44 < len(transports.cosets)
    for row in (40, 44):
        images = transports.images[1][row]
        images[0] = images[1]
    named = transports.cosets[40].representative.to_text()
    with pytest.raises(RuntimeError, match=f"fail to partition .*{re.escape(named)}"):
        mean_matrix_2norm(transports, 2)


# (iterations, value) of the 12 compression rows of the reference report
REFERENCE_COMPRESSIONS = [
    (2, 1.0),
    (2, 1.0),
    (2, 1.0),
    (2, 1.0),
    (2, 1.0099504938362076),
    (9, 1.0203952057685173),
    (13, 1.0204550011135338),
    (19, 1.0217557900721155),
    (4, 1.00522389958794),
    (5, 1.0057172818553797),
    (7, 1.009501445413304),
    (9, 1.0105132422231928),
]


def test_reference_compressions_are_pinned(table4):
    rows = rrd_report(table4)["compressions"]["rows"]
    assert [(row["n"], *row["depths"]) for row in rows] == [
        (n, k, k) for n in (0, 2, 4) for k in (1, 2, 3, 4)
    ]
    assert [row["iterations"] for row in rows] == [it for it, _ in REFERENCE_COMPRESSIONS]
    assert all(row["converged"] is True for row in rows)
    for row, (_, value) in zip(rows, REFERENCE_COMPRESSIONS):
        assert row["value"] == pytest.approx(value, rel=1e-12, abs=0)


# ---------------------------------------------------------------------------
# one transport pass per sphere


@pytest.mark.parametrize("q", [2, 3, 4])
def test_leaves_are_positions_in_label_order(q):
    # a registry lists the vertices of one depth in label order, the order
    # of their ids, and each cylinder above the leaves holds one block of
    # consecutive leaves; checked against the label paths and their prefixes
    degree = q + 1
    registry = TreeRegistry(q, 4)
    for leaf_depth in range(5):
        listed = [v for v, _ in registry.levels[leaf_depth]]
        paths = [c.base.path for c in boundary_cylinders(degree, leaf_depth)]
        assert [v.path for v in listed] == paths
        ids = [v.id for v in listed]
        assert ids == sorted(set(ids))
        for depth in range(leaf_depth + 1):
            upper = [c.base.path for c in boundary_cylinders(degree, depth)]
            prefixes = [p[:depth] for p in paths]
            block = sphere_size(degree, leaf_depth) // sphere_size(degree, depth)
            assert [upper[i // block] for i in range(len(paths))] == prefixes
            assert prefixes[::block] == upper


@pytest.mark.parametrize(
    "table_name, depth", [("table4", 4), ("table_q3n2", 2), ("table_q4n2", 2)]
)
def test_derived_transports_match_direct_translation(request, table_name, depth):
    # every shallower image is read off the deepest one on the geodesic;
    # translating each depth's cylinder bases on its own gives the same arrays
    table = request.getfixturevalue(table_name)
    tree = Expansion(table.q, table.max_length + depth)
    for n in table.lengths():
        transports = transport_sphere(table, n, depth)
        for k in range(depth + 1):
            for place_index in (0, 1):
                columns, weights, cocycle = _transports_at(transports, place_index, k)
                direct_columns, direct_weights = coset_transports_direct(
                    table.cosets(n), n, tree, place_index, k
                )
                assert np.array_equal(columns, direct_columns)
                assert np.array_equal(cocycle[weights], direct_weights)


@pytest.mark.parametrize("table_name, depth", [("table4", 4), ("table_q3n2", 2)])
def test_report_matches_the_standalone_functions_exactly(request, table_name, depth):
    # the report shares one transport pass per sphere among its depths; each
    # standalone call makes its own, and they agree to the last bit
    table = request.getfixturevalue(table_name)
    verdict = rrd_report(table, depth=depth)
    u_rows = verdict["condition2"]["rows"]
    assert [row["n"] for row in u_rows] == table.lengths()
    for row in u_rows:
        assert row == plain(uniform_bound_value(table, row["n"]))
    rows = verdict["compressions"]["rows"]
    assert len(rows) == len(u_rows) * depth
    for row in rows:
        depth = row["depths"][0]
        standalone = plain(mean_matrix_2norm(transport_sphere(table, row["n"], depth), depth))
        assert {key: row[key] for key in standalone} == standalone
    for row in verdict["convolution"]["rows"]:
        standalone = plain(convolution_opnorm_lower(table, row["n"], row["ball_radius"]))
        assert {key: row[key] for key in standalone} == standalone


def test_reference_report_work_is_pinned(table4, monkeypatch):
    # three bulk translations per sphere: the 6 elements of K on the 24
    # depth-4 cylinders and the sphere's 1, 6 or 45 located vertices at both
    # places, then the sphere's 1, 6 or 45 representatives on the 24
    # cylinders, then their sigma-images; no registry: every vertex id is
    # computed in closed form.  The double cosets are labelled once per
    # sphere, the cell orbits once per depth, and K is built once per
    # sphere, which every depth reads
    translations = []
    builds = []
    labelled = []
    groups = []
    real_translate = criterion.translate_vertex
    real_init = TreeRegistry.__init__
    real_labels = criterion._orbit_labels
    real_group = criterion.constant_group

    def counting_translate(elements, forms):
        translations.append((list(elements), len(forms)))
        return real_translate(elements, forms)

    def counting_init(self, *args):
        builds.append(args)
        real_init(self, *args)

    def counting_labels(group, images, what):
        labelled.append(what)
        return real_labels(group, images, what)

    def counting_group(field):
        groups.append(field.q)
        return real_group(field)

    monkeypatch.setattr(criterion, "translate_vertex", counting_translate)
    monkeypatch.setattr(TreeRegistry, "__init__", counting_init)
    monkeypatch.setattr(criterion, "_orbit_labels", counting_labels)
    monkeypatch.setattr(criterion, "constant_group", counting_group)
    rrd_report(table4, 4)
    assert [(len(elements), forms) for elements, forms in translations] == [
        call for cosets in (1, 6, 45) for call in ((6, 24 + 2 * cosets), (cosets, 24), (cosets, 24))
    ]
    assert len(translations) == 9
    for first in (0, 3, 6):
        (group, _), (representatives, _), (mirrored, _) = translations[first : first + 3]
        assert group == GROUP_Q2
        assert mirrored == [r.substitute_inverse() for r in representatives]
    assert builds == []
    assert [what for what in labelled if "double cosets" in what] == [
        f"the double cosets of sphere {n}" for n in (0, 2, 4)
    ]
    assert labelled.count("the K-orbits of the input cells") == 12
    assert len(labelled) == 15
    assert groups == [2, 2, 2]
