from __future__ import annotations

import json
from collections import Counter
from fractions import Fraction

import pytest

from rrdlab import CACHE_MAJOR_VERSION, __version__, spheres
from rrdlab.algebra import Fq, plain
from rrdlab.boundary import hc_product
from rrdlab.sl2 import SL2Element, TreeRegistry
from rrdlab.spheres import (
    Condition1Report,
    Condition1Row,
    Coset,
    RadiusBudgetError,
    SphereTable,
    condition_one_certificate,
    enumerate_ball,
    sup_xi_on_sphere,
    sup_xi_over_splittings,
)

from oracles import (
    Expansion,
    bfs_crosscheck,
    coset_count_formula,
    element_lengths,
    pair_representative_by_nullspace,
    right_cosets,
    sl2_from_text,
    sphere_members,
    window_polynomials,
    window_scan,
)


def test_window_polynomial_count():
    assert len(window_polynomials(2, 1)) == 2**3
    assert len(window_polynomials(3, 1)) == 3**3
    seen = {f.to_text() for f in window_polynomials(2, 2)}
    assert len(seen) == 2**5


def test_identity_sphere_size(table4):
    assert table4.sphere_size(0) == 2**3 - 2
    for g in sphere_members(table4, 0):
        assert sum(element_lengths(g)) == 0


def test_identity_sphere_size_q3():
    table = enumerate_ball(3, 0)
    assert table.sphere_size(0) == 3**3 - 3


def test_odd_spheres_empty(table4):
    for n in (1, 3):
        assert table4.sphere_size(n) == 0


def test_bucket_lengths_and_uniqueness(table4):
    seen = set()
    for n in table4.lengths():
        for g in sphere_members(table4, n):
            assert sum(element_lengths(g)) == n
            text = g.to_text()
            assert text not in seen
            seen.add(text)


def test_known_bucket_sizes(table4, table6):
    assert table4.sphere_size(2) == 36
    assert table4.sphere_size(4) == 270
    assert table6.sphere_size(6) == 1440


def test_enumeration_matches_bfs(table4):
    by_bfs, _ = bfs_crosscheck(2, 4, word_radius=6)
    assert sorted(by_bfs) == table4.lengths()
    for n in table4.lengths():
        assert set(g.to_text() for g in sphere_members(table4, n)) == set(
            g.to_text() for g in by_bfs[n]
        )


@pytest.mark.parametrize("q, max_length", [(2, 4), (3, 2)])
def test_oracle_spheres_split_into_the_tables_cosets(q, max_length):
    # the BFS buckets (q = 2) and the window-scan buckets (q = 3), split by
    # text lookup and located on their own, give the pair scan's cosets:
    # the same representatives, located pairs and order
    table = enumerate_ball(q, max_length)
    if q == 2:
        buckets, _ = bfs_crosscheck(q, max_length, word_radius=6)
    else:
        buckets = {
            n: [sl2_from_text(Fq(q), text) for text in texts]
            for n, texts in window_scan(q, max_length).items()
        }
    assert sorted(buckets) == table.lengths()
    for n, gammas in buckets.items():
        split = right_cosets(gammas, Expansion(q, n))
        assert [Coset(gammas[members[0][0]], w0, w1) for w0, w1, members in split] == list(
            table.cosets(n)
        )


@pytest.mark.parametrize("q, max_length", [(2, 4), (2, 6), (3, 2), (4, 2)])
def test_pair_scan_matches_window_oracle(q, max_length):
    table = json.loads(enumerate_ball(q, max_length).to_json())
    scanned = window_scan(q, max_length)
    assert table["buckets"] == {str(n): texts for n, texts in scanned.items()}


def test_q2_coset_counts(table8):
    # every sphere is a union of right cosets of SL2(F_2), of 6 elements each
    assert [table8.sphere_size(n) for n in range(0, 9, 2)] == [
        6 * cosets for cosets in (1, 6, 45, 240, 1260)
    ]
    assert table8.sphere_size(8) == 7560


def test_json_roundtrip_and_version_gate(table4):
    text = table4.to_json()
    clone = SphereTable.from_json(text)
    assert clone.to_json() == text
    body = json.loads(text)
    body["cache_major"] = CACHE_MAJOR_VERSION + 1
    with pytest.raises(ValueError):
        SphereTable.from_json(json.dumps(body))


@pytest.mark.parametrize("table_name", ["table4", "table6", "table_q3n2", "table_q4n2"])
def test_json_is_the_expansion_of_the_cosets(request, table_name):
    # the texts the scan kept, as written by to_json, are every coset
    # expanded again by K, and so are those of the table the file loads to
    table = request.getfixturevalue(table_name)
    body = {
        "q": table.q,
        "max_length": table.max_length,
        "provenance": spheres.PROVENANCE_PAIRS,
        "tool_version": __version__,
        "cache_major": CACHE_MAJOR_VERSION,
        "saturated": None,
        "buckets": {
            str(n): [g.to_text() for g in sphere_members(table, n)] for n in table.lengths()
        },
    }
    expected = json.dumps(body, indent=2, sort_keys=True)
    assert table.to_json() == expected
    clone = SphereTable.from_json(expected)
    assert clone == table
    assert clone.to_json() == expected
    assert "texts" not in repr(table)


@pytest.mark.parametrize("table_name", ["table4", "table6", "table8", "table_q3n2", "table_q4n2"])
def test_coset_counts_match_the_closed_form(request, table_name):
    # every even depth pair (l0, l1) with l0 + l1 <= N is the located pair
    # of N(l0, l1) cosets
    table = request.getfixturevalue(table_name)
    counts = Counter(
        (coset.zero.depth, coset.infinity.depth)
        for n in table.lengths()
        for coset in table.cosets(n)
    )
    even = range(0, table.max_length + 1, 2)
    assert counts == {
        (l0, l1): coset_count_formula(table.q, l0, l1)
        for l0 in even
        for l1 in even
        if l0 + l1 <= table.max_length
    }


def test_candidate_budget_overflow(monkeypatch):
    # q = 2 fits the pair budget up to N = 12 (73,729 pairs), not at N = 14
    spheres._check_pair_budget(2, 12)
    with pytest.raises(RadiusBudgetError):
        spheres._check_pair_budget(2, 14)
    # the budget is checked before any registry is built
    monkeypatch.setattr(spheres, "TreeRegistry", None)
    with pytest.raises(RadiusBudgetError):
        enumerate_ball(2, 30)


def test_coset_element_budget(monkeypatch):
    # the scan writes the q^3 - q members of every candidate pair's coset:
    # q = 13 at N = 2 (365 pairs, 797,160 elements), q = 5 at N = 4 and
    # q = 4 at N = 6 fit, q = 16 at N = 2 (2,223,600), q = 7 at N = 4 and
    # q = 5 at N = 6 do not
    for q, max_length in ((13, 2), (5, 4), (4, 6), (3, 8), (2, 12)):
        spheres._check_pair_budget(q, max_length)
    for q, max_length in ((16, 2), (47, 2), (7, 4), (13, 4), (5, 6)):
        with pytest.raises(RadiusBudgetError, match="elements"):
            spheres._check_pair_budget(q, max_length)
    # refused before K (103,776 elements at q = 47) or any registry is built
    monkeypatch.setattr(spheres, "constant_group", None)
    monkeypatch.setattr(spheres, "TreeRegistry", None)
    with pytest.raises(RadiusBudgetError):
        enumerate_ball(47, 2)


def test_scan_builds_one_registry(monkeypatch):
    # a canonical form names no place: the scan reads both vertices of every
    # pair from one registry of radius max_length, and so does a table's read
    builds = []
    real_init = TreeRegistry.__init__

    def counting_init(self, q, radius):
        builds.append((q, radius))
        real_init(self, q, radius)

    monkeypatch.setattr(TreeRegistry, "__init__", counting_init)
    table = enumerate_ball(2, 4)
    assert builds == [(2, 4)]
    enumerate_ball(3, 2)
    assert builds == [(2, 4), (3, 2)]
    SphereTable.from_json(table.to_json())
    assert builds == [(2, 4), (3, 2), (2, 4)]


def test_realized_length_pairs(table4):
    pairs = table4.realized_length_pairs(4)
    assert pairs == {(0, 4): 72, (2, 2): 126, (4, 0): 72}
    total = table4.realized_length_pairs(2)
    assert sum(total.values()) == 36


def test_sup_xi_on_sphere(table4):
    best, lengths = sup_xi_on_sphere(table4, 4)
    direct = max(
        (hc_product(*element_lengths(g), 2) for g in sphere_members(table4, 4)),
    )
    assert best == direct
    assert lengths == (2, 2)
    assert hc_product(*lengths, 2) == best
    splitting = sup_xi_over_splittings(2, 4)
    assert splitting >= best


def test_condition_one_certificate(table6):
    report = condition_one_certificate(table6)
    assert report.exponent == Fraction(5, 2)
    assert [r.n for r in report.rows] == [2, 4, 6]
    for row in report.rows:
        assert row.observed <= row.rigorous + 1e-12
        assert row.fiber_bound_size >= row.sphere_size
    assert report.fitted_constant <= report.rigorous_constant
    payload = plain(report)
    assert payload["max_length"] == 6
    assert len(payload["rows"]) == 3


def test_condition_one_pass_is_exact():
    # one element more than the fiber bound: the floats tie, the exact
    # comparison of squares does not
    sup = hc_product(2, 2, 2)
    fiber = 10**24

    def report(size: int) -> Condition1Report:
        observed = float(sup) * fiber**0.5
        row = Condition1Row(
            n=4,
            sphere_size=size,
            sup_xi=sup,
            sup_xi_lengths=(2, 2),
            observed=observed,
            fiber_bound_size=fiber,
            splitting_sup=sup,
            rigorous=observed,
            observed_ratio=observed,
            rigorous_ratio=observed,
        )
        return Condition1Report(2, 4, Fraction(5, 2), (row,), observed, observed)

    assert float(sup) * float(fiber + 1) ** 0.5 == float(sup) * fiber**0.5
    assert report(fiber).passed
    assert not report(fiber + 1).passed


def test_duplicate_element_is_an_error(monkeypatch):
    step = spheres._pair_representative
    identity = SL2Element.identity(Fq(2))

    def repeating(zero, inf):
        # every trivial pair answers with the representative of the base pair
        return None if step(zero, inf) is None else identity

    monkeypatch.setattr(spheres, "_pair_representative", repeating)
    with pytest.raises(RuntimeError, match="twice"):
        enumerate_ball(2, 2)


@pytest.mark.parametrize("q, max_length", [(2, 8), (3, 4), (4, 2), (8, 2), (9, 2)])
def test_pair_representative_matches_the_nullspace_oracle(q, max_length):
    # on every candidate pair the elimination and the nullspace basis agree
    # on triviality, and their representatives lie in one right coset: the
    # quotient old^-1 new is constant
    levels = TreeRegistry(q, max_length).levels
    pairs = trivial = 0
    for d0 in range(0, max_length + 1, 2):
        for d1 in range(0, max_length - d0 + 1, 2):
            for _, zero in levels[d0]:
                for _, infinity in levels[d1]:
                    pairs += 1
                    new = spheres._pair_representative(zero, infinity)
                    old = pair_representative_by_nullspace(zero, infinity)
                    assert (new is None) == (old is None)
                    if new is not None:
                        trivial += 1
                        quotient = old.inverse() * new
                        assert all(
                            e.is_zero() or e.low == e.top == 0 for e in quotient.entries()
                        )
    assert pairs == list(spheres.candidate_pair_counts(q, max_length))[-1]
    assert trivial == sum(
        coset_count_formula(q, d0, d1)
        for d0 in range(0, max_length + 1, 2)
        for d1 in range(0, max_length - d0 + 1, 2)
    )


def test_fiber_solutions_decides_by_rank():
    field = Fq(3)
    # x0 = 1 | 0 and x1 + x2 = 0 | 1 leave x2 free: no pivot for column 2
    assert spheres._fiber_solutions(field, [[1, 0, 0, 1, 0], [0, 1, 1, 0, 1]], 3) is None
    # full rank: x = (1, 2) for the first right-hand side, (0, 1) for the second
    rows = [[1, 0, 1, 0], [1, 1, 0, 1]]
    assert spheres._fiber_solutions(field, rows, 2) == ([1, 2], [0, 1])
    # a third row x0 + x1 = 0 | 0 contradicts the first two
    with pytest.raises(RuntimeError, match="inconsistent"):
        spheres._fiber_solutions(field, rows + [[1, 1, 0, 0]], 2)


def test_representative_must_locate_back(monkeypatch):
    other = spheres.canonical_vertex(SL2Element.diagonal_shift(Fq(2), 1))
    monkeypatch.setattr(spheres, "canonical_vertex", lambda g: other)
    with pytest.raises(RuntimeError, match="does not locate back"):
        enumerate_ball(2, 2)


def test_representative_must_have_determinant_one(monkeypatch):
    solve = spheres._fiber_solutions

    def doubled(field, rows, width):
        solutions = solve(field, rows, width)
        if solutions is None:
            return None
        first, second = solutions
        return [field.add(x, x) for x in first], second

    monkeypatch.setattr(spheres, "_fiber_solutions", doubled)
    with pytest.raises(RuntimeError, match="determinant"):
        enumerate_ball(3, 2)
