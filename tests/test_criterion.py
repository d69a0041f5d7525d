from __future__ import annotations

import random
import sys
from fractions import Fraction

import numpy as np
import pytest

from rrdlab import criterion
from rrdlab.algebra import AlgebraicValue, Fq, Place, plain
from rrdlab.boundary import cocycle_sqrt, hc_product
from rrdlab.criterion import (
    _compression_gram,
    _cylinder_ancestors,
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
from rrdlab.trees import boundary_cylinders

from oracles import (
    MeanOperator,
    StepFunction,
    add,
    bfs_crosscheck,
    constant,
    convolution_matrix,
    coset_transports_direct,
    expansions,
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


def test_uniform_bound_pin_q3_n4():
    table = enumerate_ball(3, 4)
    assert uniform_bound_value(table, 4).value.as_triple() == ("279/244", "0", 3)


def test_uniform_bound_needs_a_rational_spherical_coefficient(table4, monkeypatch):
    # Xi(l0, l1) q^((l0+l1)/2) is c(l0) c(l1); an irrational one would break
    # the integer sum, so it is refused rather than truncated
    def irrational(l0, l1, q):
        return AlgebraicValue.sqrt_q_power(q, 1 - l0 - l1)

    monkeypatch.setattr(criterion, "hc_product", irrational)
    with pytest.raises(RuntimeError, match="not rational"):
        uniform_bound_value(table4, 2)


def mean_transfer_bruteforce(table, n):
    """Independent evaluation path: per product cell, sum the cocycle
    products of every sphere element directly, without the per-coset and
    per-factor reuse of the main path."""
    gammas = sphere_members(table, n)
    q = table.q
    zero_tree, infinity_tree = expansions(q, n)
    located = [(zero_tree.locate(g), infinity_tree.locate(g), g) for g in gammas]
    inv_size = AlgebraicValue.rational(Fraction(1, len(gammas)), q)
    values = {}
    for cell in product_cylinders(q + 1, (n, n)):
        total = AlgebraicValue.rational(0, q)
        for w0, w1, g in located:
            xi = hc_product(g.length_zero, g.length_infinity, q)
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
        koopman_matrix(g, (1, 1), expansions(2, 1))


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
    element = convolution_matrix(table, n, radius)
    assert np.array_equal(expansion @ cosetwise @ expansion.T, element)
    norm = np.linalg.norm(element, 2)
    assert order * np.linalg.norm(cosetwise, 2) == pytest.approx(norm, rel=1e-10, abs=0)
    result = convolution_opnorm_lower(table, n, radius)
    assert result.value == pytest.approx(norm, rel=1e-10, abs=0)
    assert result.ball_size == len(index)


def test_convolution_requires_room(table4):
    with pytest.raises(ValueError):
        convolution_opnorm_lower(table4, 2, 4)


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
        zero_tree, infinity_tree = expansions(q, n)
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
                assert g.total_length == n
                assert zero_tree.locate(g) == w0
                assert infinity_tree.locate(g) == w1
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
    mean_matrix_2norm(table4, 4, 1)
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


# transport_sphere translates the elements of K first, then the representatives
GROUP_Q2 = [k for k, _, _ in constant_group(Fq(2))]


def test_cylinder_action_must_be_a_permutation(table4, monkeypatch):
    # K's rows of the translation shifted by one leaf: every k then sends
    # its first two leaves to one image
    real = criterion.translate_vertex

    def repeating(elements, forms):
        rows = real(elements, forms)
        assert list(elements[: len(GROUP_Q2)]) == GROUP_Q2
        k_rows = rows[: len(GROUP_Q2)]
        k_rows[:] = np.concatenate([k_rows[:, :1], k_rows[:, :-1]], axis=1)
        return rows

    monkeypatch.setattr(criterion, "translate_vertex", repeating)
    with pytest.raises(RuntimeError, match="does not permute"):
        mean_matrix_2norm(table4, 2, 1)
    # the report translates K on the deepest cylinders of every sphere
    with pytest.raises(RuntimeError, match="does not permute"):
        rrd_report(table4, 4)


def test_cylinder_action_must_be_the_group_action(table4, monkeypatch):
    # still a permutation, but one non-identity k has the images of two
    # leaves swapped at place zero, so it no longer preserves the orbits
    # K's action has
    real = criterion.translate_vertex
    index = 1  # GROUP_Q2[1] = [[0, 1], [1, 1]]

    def swapped(elements, forms):
        rows = real(elements, forms)
        assert list(elements[: len(GROUP_Q2)]) == GROUP_Q2
        if forms[0].place is Place.ZERO:
            rows[index, [0, 1]] = rows[index, [1, 0]]
        return rows

    monkeypatch.setattr(criterion, "translate_vertex", swapped)
    with pytest.raises(RuntimeError, match="does not preserve the K-orbits"):
        mean_matrix_2norm(table4, 2, 1)
    with pytest.raises(RuntimeError, match="does not preserve the K-orbits"):
        rrd_report(table4, 4)


def test_compression_budget_is_checked_before_any_transport(table4, monkeypatch):
    # q = 2 at depth 6 has 9,216 input cells: a core of 9,216^2 floats (680 MB)
    def refuse(*args):
        raise AssertionError("a transport or a translation was made")

    monkeypatch.setattr(criterion, "transport_sphere", refuse)
    monkeypatch.setattr(criterion, "translate_vertex", refuse)
    with pytest.raises(RadiusBudgetError, match="compression depth 6 at q = 2"):
        mean_matrix_2norm(table4, 0, 6)
    with pytest.raises(RadiusBudgetError, match="compression depth 6 at q = 2"):
        rrd_report(table4, 6)
    check_compression_budget(2, 5)
    check_compression_budget(3, 3)
    with pytest.raises(RadiusBudgetError):
        check_compression_budget(3, 4)


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
        mean_matrix_2norm(table4, 2, 1)
    with pytest.raises(RuntimeError, match="fail to partition"):
        rrd_report(table4, 4)


# (iterations, value) of the 12 compression rows of the reference report
REFERENCE_COMPRESSIONS = [
    (2, 1.0),
    (2, 1.0),
    (2, 1.0),
    (2, 1.0),
    (10, 1.0099504938353545),
    (13, 1.0203952057688563),
    (17, 1.02045500111281),
    (24, 1.021755790080048),
    (6, 1.005223899587966),
    (8, 1.0057172818553999),
    (7, 1.009501445413372),
    (11, 1.0105132422225855),
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
    for place in Place:
        registry = TreeRegistry(q, place, 4)
        for leaf_depth in range(5):
            listed = [v for v, _ in registry.levels[leaf_depth]]
            paths = [c.base.path for c in boundary_cylinders(degree, leaf_depth)]
            assert [v.path for v in listed] == paths
            ids = [v.id for v in listed]
            assert ids == sorted(set(ids))
            for depth in range(leaf_depth + 1):
                upper = [c.base.path for c in boundary_cylinders(degree, depth)]
                prefixes = [p[:depth] for p in paths]
                ancestor, below = _cylinder_ancestors(degree, leaf_depth, depth)
                assert [upper[i] for i in ancestor] == prefixes
                assert below.tolist() == [prefixes.index(u) for u in upper]


@pytest.mark.parametrize(
    "table_name, depth", [("table4", 4), ("table_q3n2", 2), ("table_q4n2", 2)]
)
def test_derived_transports_match_direct_translation(request, table_name, depth):
    # every shallower image is read off the deepest one on the geodesic;
    # translating each depth's cylinder bases on its own gives the same arrays
    table = request.getfixturevalue(table_name)
    trees = expansions(table.q, table.max_length + depth)
    for n in table.lengths():
        transports = transport_sphere(table, n, depth)
        for k in range(depth + 1):
            _, below = _cylinder_ancestors(table.q + 1, depth, k)
            for place_index in (0, 1):
                columns, weights = _transports_at(transports, place_index, k, below)
                direct_columns, direct_weights = coset_transports_direct(
                    table.cosets(n), n, trees[place_index], place_index, k
                )
                assert np.array_equal(columns, direct_columns)
                assert np.array_equal(weights, direct_weights)


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
        standalone = plain(mean_matrix_2norm(table, row["n"], row["depths"][0]))
        assert {key: row[key] for key in standalone} == standalone
    for row in verdict["convolution"]["rows"]:
        standalone = plain(convolution_opnorm_lower(table, row["n"], row["ball_radius"]))
        assert {key: row[key] for key in standalone} == standalone


def test_reference_report_work_is_pinned(table4, monkeypatch):
    # one bulk translation per place and sphere of the 6 elements of K and
    # the sphere's 1, 6 or 45 representatives on the 24 depth-4 cylinders;
    # no registry: every vertex id is computed in closed form
    translations = []
    builds = []
    real_translate = criterion.translate_vertex
    real_init = TreeRegistry.__init__

    def counting_translate(elements, forms):
        translations.append((len(elements), len(forms), forms[0].place))
        return real_translate(elements, forms)

    def counting_init(self, *args):
        builds.append(args)
        real_init(self, *args)

    monkeypatch.setattr(criterion, "translate_vertex", counting_translate)
    monkeypatch.setattr(TreeRegistry, "__init__", counting_init)
    rrd_report(table4, 4)
    assert translations == [(size, 24, place) for size in (7, 12, 51) for place in Place]
    assert len(translations) == 6
    assert builds == []
