from __future__ import annotations

import json
from fractions import Fraction

import pytest

from rrdlab import CACHE_MAJOR_VERSION, spheres
from rrdlab.boundary import hc_product
from rrdlab.spheres import (
    Condition1Report,
    Condition1Row,
    SphereTable,
    WindowOverflowError,
    condition_one_certificate,
    enumerate_ball,
    sup_xi_on_sphere,
    sup_xi_over_splittings,
    window_polynomials,
)

from oracles import bfs_crosscheck


def test_window_polynomial_count():
    assert len(window_polynomials(2, 1)) == 2**3
    assert len(window_polynomials(3, 1)) == 3**3
    seen = {f.to_text() for f in window_polynomials(2, 2)}
    assert len(seen) == 2**5


def test_identity_sphere_size(table4):
    assert table4.sphere_size(0) == 2**3 - 2
    for g in table4.sphere(0):
        assert g.total_length == 0


def test_identity_sphere_size_q3():
    table = enumerate_ball(3, 0)
    assert table.sphere_size(0) == 3**3 - 3


def test_odd_spheres_empty(table4):
    for n in (1, 3):
        assert table4.sphere_size(n) == 0


def test_bucket_lengths_and_uniqueness(table4):
    seen = set()
    for n in table4.lengths():
        for g in table4.sphere(n):
            assert g.total_length == n
            text = g.to_text()
            assert text not in seen
            seen.add(text)


def test_known_bucket_sizes(table4, table6):
    assert table4.sphere_size(2) == 36
    assert table4.sphere_size(4) == 270
    assert table6.sphere_size(6) == 1440


def test_enumeration_matches_bfs(table4):
    by_bfs = bfs_crosscheck(2, 4, word_radius=6)
    for n in table4.lengths():
        assert set(g.to_text() for g in table4.sphere(n)) == set(
            g.to_text() for g in by_bfs.sphere(n)
        )


def test_thread_determinism():
    single = enumerate_ball(2, 2, threads=1)
    double = enumerate_ball(2, 2, threads=2)
    assert single.to_json() == double.to_json()


def test_json_roundtrip_and_version_gate(table4):
    text = table4.to_json()
    clone = SphereTable.from_json(text)
    assert clone.to_json() == text
    body = json.loads(text)
    body["cache_major"] = CACHE_MAJOR_VERSION + 1
    with pytest.raises(ValueError):
        SphereTable.from_json(json.dumps(body))


def test_candidate_budget_overflow():
    with pytest.raises(WindowOverflowError):
        enumerate_ball(2, 8, candidate_budget=10)


def test_realized_length_pairs(table4):
    pairs = table4.realized_length_pairs(4)
    assert pairs == {(0, 4): 72, (2, 2): 126, (4, 0): 72}
    total = table4.realized_length_pairs(2)
    assert sum(total.values()) == 36


def test_sup_xi_on_sphere(table4):
    best = sup_xi_on_sphere(table4, 4)
    direct = max(
        (hc_product(g.length_zero, g.length_infinity, 2).value for g in table4.sphere(4)),
    )
    assert best.value == direct
    splitting = sup_xi_over_splittings(2, 4)
    assert splitting.value >= best.value


def test_condition_one_certificate(table6):
    report = condition_one_certificate(table6)
    assert report.exponent == Fraction(5, 2)
    assert [r.n for r in report.rows] == [2, 4, 6]
    for row in report.rows:
        assert row.observed <= row.rigorous + 1e-12
        assert row.fiber_bound_size >= row.sphere_size
    assert report.fitted_constant <= report.rigorous_constant
    payload = report.to_dict()
    assert payload["max_length"] == 6
    assert len(payload["rows"]) == 3


def test_condition_one_pass_is_exact():
    # one element more than the fiber bound: the floats tie, the exact
    # comparison of squares does not
    sup = hc_product(2, 2, 2)
    fiber = 10**24

    def report(size: int) -> Condition1Report:
        observed = float(sup.value) * fiber**0.5
        row = Condition1Row(
            n=4,
            sphere_size=size,
            sup_xi=sup,
            observed=observed,
            fiber_bound_size=fiber,
            splitting_sup=sup,
            rigorous=observed,
            observed_ratio=observed,
            rigorous_ratio=observed,
        )
        return Condition1Report(2, 4, Fraction(5, 2), (row,), observed, observed)

    assert float(sup.value) * float(fiber + 1) ** 0.5 == float(sup.value) * fiber**0.5
    assert report(fiber).passed
    assert not report(fiber + 1).passed


def test_duplicate_element_is_an_error(monkeypatch):
    scan = spheres._enumerate_rows

    def repeating(q, max_length, a_indices):
        rows = scan(q, max_length, a_indices)
        return rows + rows[:1]

    monkeypatch.setattr(spheres, "_enumerate_rows", repeating)
    with pytest.raises(RuntimeError, match="twice"):
        enumerate_ball(2, 2)
