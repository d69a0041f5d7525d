from __future__ import annotations

import random

import pytest

from rrdlab.algebra import Fq, LaurentPolynomial
from rrdlab.sl2 import (
    LatticeVertex,
    SL2Element,
    TreeRegistry,
    _canonical_from_matrix,
    canonical_vertex,
    form_of,
    locate,
    translate_vertex,
    vertex_of,
)
from rrdlab.spheres import constant_group
from rrdlab.trees import TreeVertex, boundary_cylinders, sphere_vertices

from oracles import (
    Expansion,
    RationalFunction,
    base_vertex,
    child,
    elementary_lower,
    expansion_levels,
    form_at,
    form_distance,
    inverse,
    element_lengths,
    length_at_place,
    sl2_from_text,
    smith_valuations,
    sphere_members,
    text_sorted_levels,
    translate_form,
    tree_distance,
    vertex_neighbors,
    walk_to_root,
)

rng = random.Random(0x512)

FIELD = Fq(2)


def random_word(field: Fq, letters: int = 6) -> SL2Element:
    g = SL2Element.identity(field)
    for _ in range(rng.randint(0, letters)):
        kind = rng.randrange(3)
        if kind == 0:
            s = LaurentPolynomial(field, rng.randint(-2, 2), [rng.randrange(field.q) for _ in range(3)])
            g = g * SL2Element.elementary_upper(s)
        elif kind == 1:
            s = LaurentPolynomial(field, rng.randint(-2, 2), [rng.randrange(field.q) for _ in range(3)])
            g = g * elementary_lower(s)
        else:
            g = g * SL2Element.diagonal_shift(field, rng.randint(-2, 2))
    return g


def test_determinant_is_enforced():
    x = LaurentPolynomial.x_power(FIELD, 1)
    one = LaurentPolynomial.one(FIELD)
    with pytest.raises(ValueError):
        SL2Element(x, one, one, one)


def test_group_axioms_random_words():
    e = SL2Element.identity(FIELD)
    for _ in range(200):
        g, h, k = (random_word(FIELD) for _ in range(3))
        assert (g * h) * k == g * (h * k)
        assert g * e == g and e * g == g
        assert g * inverse(g) == e
        assert inverse(inverse(g)) == g


def test_text_roundtrip():
    for _ in range(50):
        g = random_word(FIELD)
        assert sl2_from_text(FIELD, g.to_text()) == g


def test_lengths_match_smith_valuations():
    for _ in range(300):
        g = random_word(FIELD)
        # the tree at infinity through sigma
        for element, length in zip((g, g.substitute_inverse()), element_lengths(g)):
            v1, v2 = smith_valuations(element)
            assert v1 + v2 == 0
            assert v1 <= v2
            assert length_at_place(element) == length == v2 - v1


def test_length_axioms_random_triples():
    e = SL2Element.identity(FIELD)
    assert element_lengths(e) == (0, 0)
    for _ in range(300):
        g, h = random_word(FIELD), random_word(FIELD)
        pairs = ((g, h), (g.substitute_inverse(), h.substitute_inverse()))
        # i = 1: the lengths at infinity, through sigma and as v_inf = -top
        for i, (x, y) in enumerate(pairs):
            lg = length_at_place(x)
            assert lg == element_lengths(g)[i]
            assert lg >= 0 and lg % 2 == 0
            assert lg == length_at_place(inverse(x)) == element_lengths(inverse(g))[i]
            assert length_at_place(x * y) == element_lengths(g * h)[i]
            assert length_at_place(x * y) <= lg + length_at_place(y)
        assert sum(element_lengths(g * h)) <= sum(element_lengths(g)) + sum(element_lengths(h))


def test_diagonal_shift_lengths():
    for k in range(-3, 4):
        g = SL2Element.diagonal_shift(FIELD, k)
        assert element_lengths(g) == (2 * abs(k), 2 * abs(k))


def test_translate_vertex_is_an_action():
    # on the scalar oracle, which the program's bulk translation must equal,
    # in the tree at zero and through sigma in the tree at infinity
    o = base_vertex(FIELD)
    for _ in range(100):
        g, h = random_word(FIELD, 4), random_word(FIELD, 4)
        for x, y in ((g, h), (g.substitute_inverse(), h.substitute_inverse())):
            assert translate_form(x * y, o) == translate_form(x, translate_form(y, o))


def test_translate_preserves_adjacency():
    o = base_vertex(FIELD)
    for _ in range(40):
        g = random_word(FIELD, 4)
        for x in (g, g.substitute_inverse()):
            neighbors = set(vertex_neighbors(translate_form(x, o)))
            for nb in vertex_neighbors(o):
                assert translate_form(x, nb) in neighbors


def test_locate_distance_equals_length():
    for _ in range(100):
        g = random_word(FIELD, 4)
        for x in (g, g.substitute_inverse()):
            w = locate(x)
            assert tree_distance(w, w.root(3)) == length_at_place(x)


def test_canonical_vertex_of_identity_is_base():
    e = SL2Element.identity(FIELD)
    assert e.substitute_inverse() == e
    assert canonical_vertex(e) == base_vertex(FIELD)


def test_registry_roundtrips_and_bounds():
    registry = TreeRegistry(2, 4)
    # vertex_of inverts the form of every listed vertex, and every vertex
    # within the radius is listed at its depth
    for n in range(5):
        for vertex in sphere_vertices(3, n):
            form = form_at(registry, vertex)
            assert vertex_of(form) == vertex
    deep = TreeVertex.root(3)
    for _ in range(5):
        deep = child(deep, 0)
    with pytest.raises(ValueError):
        form_at(registry, deep)
    with pytest.raises(ValueError, match="negative registry radius"):
        TreeRegistry(2, -1)


@pytest.mark.parametrize("q, radius", [(2, 10), (3, 7), (4, 5), (5, 5), (7, 4), (8, 4), (9, 3)])
def test_levels_keep_the_text_sorted_labels(q, radius):
    # vertex ids must not change: up to q = 9, fresh neighbours in
    # vertex_neighbors order are in the order of their text keys
    assert TreeRegistry(q, radius).levels == text_sorted_levels(q, radius)


@pytest.mark.parametrize(
    "q, radius",
    [(2, 10), (3, 7), (4, 5), (5, 4), (7, 4), (8, 3), (9, 3), (11, 3), (13, 3), (16, 3)],
)
def test_levels_are_the_reference_expansion(q, radius):
    # the closed form in both directions against the breadth-first expansion
    levels = TreeRegistry(q, radius).levels
    assert levels == expansion_levels(q, radius)
    assert all(vertex_of(form) == vertex for level in levels for vertex, form in level)


# ---------------------------------------------------------------------------
# gcd-free canonical forms against column reduction over rational functions


def oracle_canonical(A, B, C, D) -> LatticeVertex:
    """Column-reduce [[A, B], [C, D]] (uniformizer variable) over F_q(X):
    clear B with the field quotient B/A, read b off the reduced corner and
    expand the rescaled first column as a series."""
    A, B, C, D = (RationalFunction.from_laurent(e) for e in (A, B, C, D))
    if A.is_zero() or (not B.is_zero() and B.valuation() < A.valuation()):
        A, B, C, D = B, A, D, C
    if A.is_zero():
        raise ValueError("degenerate input: zero top row")
    field = A.field
    a = A.valuation()
    D = D - (B / A) * C
    C = C * (RationalFunction.from_laurent(LaurentPolynomial.x_power(field, a)) / A)
    if D.is_zero():
        raise ValueError("degenerate input: matrix not invertible over the field")
    b = D.valuation()
    m = min(a, b)
    c = C * RationalFunction.from_laurent(LaurentPolynomial.x_power(field, -m))
    return LatticeVertex(a - m, b - m, c.series_prefix(b - m))


def oracle_translate(g: SL2Element, v: LatticeVertex) -> LatticeVertex:
    ga, gb, gc, gd = g.entries()
    field = v.field
    x_a = LaurentPolynomial.x_power(field, v.diag_low)
    x_b = LaurentPolynomial.x_power(field, v.diag_high)
    c = v.off_diag
    return oracle_canonical(ga * x_a + gb * c, gb * x_b, gc * x_a + gd * c, gd * x_b)


def sphere_elements(table):
    return [g for n in table.lengths() for g in sphere_members(table, n)]


@pytest.mark.parametrize("table_name", ["table4", "table_q3n2"])
def test_canonical_vertex_matches_rational_oracle(request, table_name):
    table = request.getfixturevalue(table_name)
    for g in sphere_elements(table):
        for x in (g, g.substitute_inverse()):
            assert canonical_vertex(x) == oracle_canonical(*x.entries())


@pytest.mark.parametrize("table_name", ["table4", "table_q3n2"])
def test_translate_vertex_matches_rational_oracle(request, table_name):
    # every element moves every vertex within 3 of the base; the expansion
    # reaches the images
    table = request.getfixturevalue(table_name)
    q, gammas = table.q, sphere_elements(table)
    expansion = Expansion(q, table.max_length + 3)
    forms = [form_at(expansion, v) for d in range(4) for v in sphere_vertices(q + 1, d)]
    for elements in (gammas, [g.substitute_inverse() for g in gammas]):
        expected = [
            [expansion.locate_form(oracle_translate(g, form)).id for form in forms]
            for g in elements
        ]
        assert translate_vertex(elements, forms).tolist() == expected


@pytest.mark.parametrize(
    "table_name, depth", [("table4", 4), ("table_q3n2", 2), ("table_q4n2", 2)]
)
def test_translate_vertex_matches_scalar_oracle(request, table_name, depth):
    # the report's calls: every element of K, every representative and
    # every representative's sigma-image on the deepest input cylinders
    table = request.getfixturevalue(table_name)
    q = table.q
    representatives = [c.representative for n in table.lengths() for c in table.cosets(n)]
    group = [k for k, _, _ in constant_group(Fq(q))]
    expansion = Expansion(q, table.max_length + depth)
    forms = [form_at(expansion, c.base) for c in boundary_cylinders(q + 1, depth)]
    for elements in (representatives, [r.substitute_inverse() for r in representatives], group):
        expected = [
            [expansion.locate_form(translate_form(g, form)).id for form in forms] for g in elements
        ]
        assert translate_vertex(elements, forms).tolist() == expected


@pytest.mark.parametrize(
    "q, table_name",
    [(2, "table4"), (3, "table_q3n4"), (4, "table_q4n2"), (8, None), (9, None)],
)
def test_constant_group_acts_alike_at_both_places(request, q, table_name):
    # sigma fixes K's constant entries, so K acts on the tree at infinity as
    # on the tree at zero and the report translates K once: k r has the
    # located vertex k . w1 at infinity, read off sigma(k r) = k sigma(r)
    group = [k for k, _, _ in constant_group(Fq(q))]
    assert [k.substitute_inverse() for k in group] == group
    if table_name is not None:
        table = request.getfixturevalue(table_name)
        cosets = [coset for n in table.lengths() for coset in table.cosets(n)]
        moved = translate_vertex(group, [form_of(coset.infinity) for coset in cosets])
        assert moved.tolist() == [
            [locate((k * coset.representative).substitute_inverse()).id for coset in cosets]
            for k in group
        ]


@pytest.mark.parametrize("q", [2, 3, 4, 9])
def test_sigma_is_an_involutive_automorphism(q):
    field = Fq(q)
    group = [k for k, _, _ in constant_group(field)]
    words = [random_word(field, 4) for _ in range(40)] + rng.sample(group, 4)
    for g in words:
        assert g.substitute_inverse().substitute_inverse() == g
        for h in words[:10]:
            assert (g * h).substitute_inverse() == g.substitute_inverse() * h.substitute_inverse()


@pytest.mark.parametrize("table_name", ["table8", "table_q3n4", "table_q4n2"])
def test_spheres_are_sigma_closed(request, table_name):
    # sigma maps the coset rK of located pair (w0, w1) to sigma(r)K, of
    # located pair (w1, w0), and keeps the length: every sphere's pairs are
    # closed under the swap
    table = request.getfixturevalue(table_name)
    for n in table.lengths():
        pairs = {(coset.zero.path, coset.infinity.path) for coset in table.cosets(n)}
        assert pairs == {(w1, w0) for w0, w1 in pairs}


def test_translate_vertex_rejects_a_zero_top_row():
    zero = LaurentPolynomial.zero(FIELD)
    one = LaurentPolynomial.one(FIELD)
    degenerate = SL2Element(zero, zero, one, one, check=False)
    with pytest.raises(ValueError, match="zero top row"):
        translate_vertex([degenerate], [base_vertex(FIELD)])


@pytest.mark.parametrize("q", [2, 3])
def test_translate_vertex_reaches_beyond_any_registry(q):
    # images at depth 20 and more, against a walk to the root along
    # vertex_neighbors with Smith-form distances
    field = Fq(q)
    forms = [form_at(Expansion(q, 2), v) for v in sphere_vertices(q + 1, 2)]
    for sign in (-1, 1):
        # X^-k is far from integral at zero, X^k at infinity, read through sigma
        elements = [
            SL2Element.diagonal_shift(field, 11),
            elementary_lower(LaurentPolynomial.x_power(field, sign * 11)),
        ]
        if sign > 0:
            elements = [g.substitute_inverse() for g in elements]
        images = [[translate_form(g, form) for form in forms] for g in elements]
        assert min(form_distance(image) for row in images for image in row) >= 20
        expected = [[walk_to_root(image).id for image in row] for row in images]
        assert translate_vertex(elements, forms).tolist() == expected


def test_translate_vertex_refuses_ids_that_overflow_int64():
    # at q = 2 every id of depth 39 fits in int64, and (40, 0, 0) has the id
    # 4 3^39 - 1 > 2^63
    o = base_vertex(FIELD)
    leaves = [form_at(Expansion(2, 1), v) for v in sphere_vertices(3, 1)]
    shift = SL2Element.diagonal_shift(FIELD, 19)
    images = [translate_form(shift, leaf) for leaf in leaves]
    assert max(form_distance(image) for image in images) == 39
    ids = translate_vertex([shift], leaves)[0].tolist()
    assert ids == [vertex_of(image).id for image in images]
    with pytest.raises(ValueError, match="overflow int64"):
        translate_vertex([SL2Element.diagonal_shift(FIELD, 20)], [o])


def test_canonical_form_rejects_degenerate_input():
    zero = LaurentPolynomial.zero(FIELD)
    one = LaurentPolynomial.one(FIELD)
    x = LaurentPolynomial.x_power(FIELD, 1)
    with pytest.raises(ValueError, match="zero top row"):
        _canonical_from_matrix(zero, zero, one, x)
    with pytest.raises(ValueError, match="not invertible"):
        _canonical_from_matrix(one, x, one, x)
    with pytest.raises(ValueError, match="zero top row"):
        oracle_canonical(zero, zero, one, x)
