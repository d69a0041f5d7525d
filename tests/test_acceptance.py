"""End-to-end acceptance checklist.

Each test prints one PASS line with its measured runtime when it succeeds and
enforces the runtime budget it states.  Together they pin the full chain:
counting oracles, exact spherical identities, sphere enumeration, the two
certificate conditions, spectral and convolution cross-checks, the subgroup
growth witness, and the length-function oracle.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

from rrdlab.algebra import AlgebraicValue, Fq, LaurentPolynomial
from rrdlab.boundary import hc_product, hc_tree_closed
from rrdlab.criterion import (
    convolution_opnorm_lower,
    mean_matrix_2norm,
    transport_sphere,
    uniform_bound_value,
)
from rrdlab.lamplighter import (
    admissible_offsets,
    exponential_certificate,
    generating_set,
    h_ball_growth,
    lamplighter_word,
    word_product,
)
from rrdlab.sl2 import SL2Element
from rrdlab.spheres import condition_one_certificate
from rrdlab.trees import ball_count_formula, boundary_cylinders

from oracles import (
    StepFunction,
    ball_count_bfs,
    bfs_crosscheck,
    element_lengths,
    elementary_lower,
    hc_product_expanded,
    hc_tree_bruteforce,
    koopman_matrix,
    l2_norm_squared,
    length_at_place,
    product_cylinders,
    smith_valuations,
    sphere_average_check,
    sphere_members,
)

FIELD = Fq(2)


def _report(number: int, label: str, elapsed: float, budget: float | None) -> None:
    window = f"{elapsed:.1f}s" + (f" < {budget:.0f}s" if budget else "")
    print(f"criterion {number:02d} PASS ({window}): {label}")


def _random_word(rng: random.Random, letters: int = 6) -> SL2Element:
    g = SL2Element.identity(FIELD)
    for _ in range(rng.randint(0, letters)):
        kind = rng.randrange(3)
        if kind == 2:
            g = g * SL2Element.diagonal_shift(FIELD, rng.randint(-2, 2))
        else:
            s = LaurentPolynomial(
                FIELD, rng.randint(-2, 2), [rng.randrange(2) for _ in range(3)]
            )
            if kind == 0:
                g = g * SL2Element.elementary_upper(s)
            else:
                g = g * elementary_lower(s)
    return g


def test_criterion_01_ball_count_formula():
    started = time.perf_counter()
    for degree in (3, 4, 5):
        assert [ball_count_formula(degree, n) for n in range(0, 9)] == ball_count_bfs(degree, 8)
    assert [ball_count_formula(3, n) for n in (1, 2, 3)] == [7, 28, 88]
    elapsed = time.perf_counter() - started
    assert elapsed < 10
    _report(1, "pair-ball formula equals BFS for d in {3,4,5}, n <= 8", elapsed, 10)


def test_criterion_02_spherical_closed_form():
    started = time.perf_counter()
    for degree in (3, 4, 5):
        for n in range(0, 13):
            assert hc_tree_closed(degree, n) == hc_tree_bruteforce(degree, n)
    assert hc_tree_closed(3, 2) == AlgebraicValue.rational(Fraction(5, 6), 2)
    elapsed = time.perf_counter() - started
    assert elapsed < 5
    _report(2, "closed spherical form equals partition sums, n <= 12", elapsed, 5)


def test_criterion_03_product_formula():
    started = time.perf_counter()
    expected = AlgebraicValue.rational(Fraction(25, 36), 2)
    five_sixths = hc_tree_closed(3, 2)
    assert hc_product(2, 2, 2) == five_sixths * five_sixths
    assert hc_product(2, 2, 2) == hc_product_expanded(2, 2, 2)
    assert hc_product(2, 2, 2) == expected
    elapsed = time.perf_counter() - started
    _report(3, "product value at (2,2) is exactly 25/36 both ways", elapsed, None)


def test_criterion_04_sphere_average_identity():
    started = time.perf_counter()
    for degree in (3, 4):
        one = AlgebraicValue.rational(1, degree - 1)
        for n in range(0, 7):
            for cylinder in boundary_cylinders(degree, n):
                assert sphere_average_check(degree, n, cylinder) == one
    elapsed = time.perf_counter() - started
    assert elapsed < 30
    _report(4, "sphere average is exactly 1 on every cylinder, d in {3,4}, n <= 6", elapsed, 30)


def test_criterion_05_sphere_enumeration(table6):
    started = time.perf_counter()
    assert table6.sphere_size(0) == 2**3 - 2 == 6
    for n in (1, 3, 5):
        assert table6.sphere_size(n) == 0
    bfs, saturated = bfs_crosscheck(2, 6, word_radius=8)
    assert saturated
    assert sorted(bfs) == table6.lengths()
    for n in table6.lengths():
        assert {g.to_text() for g in sphere_members(table6, n)} == {g.to_text() for g in bfs[n]}
    elapsed = time.perf_counter() - started
    assert elapsed < 300
    _report(5, "pair enumeration equals BFS bucket-by-bucket at N = 6", elapsed, 300)


def test_criterion_06_condition_one_certificate(table6, table8):
    started = time.perf_counter()
    report6 = condition_one_certificate(table6)
    report8 = condition_one_certificate(table8)
    for report in (report6, report8):
        for row in report.rows:
            assert row.observed <= row.rigorous + 1e-12
    assert report8.fitted_constant <= report6.fitted_constant + 1e-12
    elapsed = time.perf_counter() - started
    _report(
        6,
        f"polynomial sphere bound holds; fitted constant {report8.fitted_constant:.6f} "
        "non-increasing from N = 6 to N = 8",
        elapsed,
        None,
    )


def test_criterion_07_uniform_bound_and_chain(table4):
    started = time.perf_counter()
    one = AlgebraicValue.rational(1, 2)
    reports = {n: uniform_bound_value(table4, n) for n in (0, 2, 4)}
    assert reports[0].value == one
    for n in (2, 4):
        assert reports[n].value_float <= 8.0
    for n in (0, 2, 4):
        for depth in (1, 2, 3, 4):
            compressed = mean_matrix_2norm(transport_sphere(table4, n, depth), depth)
            assert compressed.value <= reports[n].value_float + 1e-8
    elapsed = time.perf_counter() - started
    assert elapsed < 600
    _report(
        7,
        "U_0 = 1 exactly, U_2 and U_4 within threshold, compressions below U_n "
        "for n <= 4, K <= 4",
        elapsed,
        600,
    )


def test_criterion_08_koopman_unitarity(table4):
    started = time.perf_counter()
    rng = random.Random(0xACC8)
    gammas = [g for n in table4.lengths() for g in sphere_members(table4, n)]
    sample = rng.sample(gammas, 20)
    cells = product_cylinders(3, (1, 1))

    def random_value() -> AlgebraicValue:
        return AlgebraicValue(
            Fraction(rng.randint(-6, 6), rng.randint(1, 4)),
            Fraction(rng.randint(-3, 3), 2),
            2,
        )

    functions = [
        StepFunction(3, (1, 1), {c: random_value() for c in cells}) for _ in range(100)
    ]
    for gamma in sample:
        matrix = koopman_matrix(gamma, (1, 1))
        for h in functions:
            assert l2_norm_squared(matrix.apply(h)) == l2_norm_squared(h)
    elapsed = time.perf_counter() - started
    assert elapsed < 60
    _report(8, "exact unitarity for 20 elements on 100 step functions", elapsed, 60)


def test_criterion_09_convolution_sanity(table6):
    started = time.perf_counter()
    identity = convolution_opnorm_lower(table6, 0, 4)
    assert abs(identity.value - 6.0) < 1e-6
    previous = 0.0
    for radius in (0, 2, 4):
        result = convolution_opnorm_lower(table6, 2, radius)
        assert result.value >= previous - 1e-9
        previous = result.value
    elapsed = time.perf_counter() - started
    assert elapsed < 120
    _report(9, "convolution bound is 6.0 at n = 0 and monotone in R at n = 2", elapsed, 120)


def test_criterion_10_lamplighter_growth():
    started = time.perf_counter()
    letters = {g.to_text() for g in generating_set(2)}
    for n in range(0, 7):
        offsets = admissible_offsets(FIELD, n)
        assert len(offsets) == 2 ** (n + 1)
        for offset in offsets:
            word = lamplighter_word(offset, n)
            assert len(word) <= 3 * n + 1
            assert all(letter.to_text() in letters for letter in word)
            assert word_product(word, FIELD) == SL2Element.elementary_upper(offset)
    sizes = h_ball_growth(2, 10)
    for n in range(0, 4):
        assert sizes[3 * n + 1] >= 2 ** (n + 1)
    certificate = exponential_certificate(2, sizes)
    assert certificate.certified_rate >= 2 ** (1 / 3) - 1e-12
    assert certificate.rd_failure_flag
    elapsed = time.perf_counter() - started
    assert elapsed < 120
    _report(
        10,
        "all 2^(n+1) words verified through n = 6; growth rate at least 2^(1/3)",
        elapsed,
        120,
    )


def test_criterion_11_length_oracle():
    started = time.perf_counter()
    rng = random.Random(0xACCB)
    words = [_random_word(rng) for _ in range(10_000)]
    for g in words:
        # the tree at infinity through sigma, against v_inf = -top
        for x, length in zip((g, g.substitute_inverse()), element_lengths(g)):
            v1, v2 = smith_valuations(x)
            assert length_at_place(x) == length == v2 - v1
    identity = SL2Element.identity(FIELD)
    assert element_lengths(identity) == (0, 0)
    for _ in range(10_000):
        g, h = rng.choice(words), rng.choice(words)
        pairs = ((g, h), (g.substitute_inverse(), h.substitute_inverse()))
        # i = 1: the lengths at infinity, through sigma and as v_inf = -top
        for i, (x, y) in enumerate(pairs):
            lg = length_at_place(x)
            assert lg == element_lengths(g)[i]
            assert lg >= 0 and lg % 2 == 0
            assert lg == length_at_place(x.inverse()) == element_lengths(g.inverse())[i]
            assert length_at_place(x * y) == element_lengths(g * h)[i]
            assert length_at_place(x * y) <= lg + length_at_place(y)
    elapsed = time.perf_counter() - started
    assert elapsed < 60
    _report(11, "Smith oracle and length axioms on 10^4 random words", elapsed, 60)
