from __future__ import annotations

import random

import pytest

from rrdlab import lamplighter
from rrdlab.algebra import Fq, LaurentPolynomial, plain
from rrdlab.lamplighter import (
    HElement,
    admissible_offsets,
    exponential_certificate,
    generating_set,
    growth_csv_rows,
    h_ball_growth,
    h_membership,
    lamplighter_word,
    word_product,
)
from rrdlab.sl2 import SL2Element
from rrdlab.spheres import RadiusBudgetError

from oracles import (
    elementary_lower,
    h_ball_growth_bfs,
    h_identity,
    h_inverse,
    h_is_identity,
    h_key,
    h_multiply,
    h_to_matrix,
    inverse,
)

rng = random.Random(0x1A3B)

FIELD = Fq(2)


def random_h(field: Fq) -> HElement:
    n = rng.randint(-3, 3)
    offset = LaurentPolynomial(
        field, rng.randint(-4, 4), [rng.randrange(field.q) for _ in range(5)]
    )
    return HElement(n, offset)


def test_group_law_matches_matrices():
    for _ in range(300):
        x, y = random_h(FIELD), random_h(FIELD)
        assert h_to_matrix(h_multiply(x, y)) == h_to_matrix(x) * h_to_matrix(y)
        assert h_is_identity(h_multiply(x, h_inverse(x)))
        assert h_to_matrix(h_inverse(x)) == inverse(h_to_matrix(x))


def test_membership_roundtrip_and_rejection():
    for _ in range(100):
        x = random_h(FIELD)
        back = h_membership(h_to_matrix(x))
        assert back is not None
        assert h_key(back) == h_key(x)
    lower = elementary_lower(LaurentPolynomial.one(FIELD))
    assert h_membership(lower) is None
    assert h_membership(SL2Element.identity(FIELD)) is not None


def test_generating_set_sizes():
    letters2 = generating_set(2)
    assert len(letters2) == 4
    assert len(generating_set(3)) == 6
    for g in letters2:
        assert h_membership(g) is not None


def test_admissible_offsets_shape():
    for n in range(0, 5):
        offsets = admissible_offsets(FIELD, n)
        assert len(offsets) == 2 ** (n + 1)
        assert len({f.to_text() for f in offsets}) == len(offsets)
        for f in offsets:
            for e in range(f.low, f.top + 1) if not f.is_zero() else ():
                c = f.coefficient(e)
                if c:
                    assert e % 2 == 0 and 0 <= e <= 2 * n


def test_words_multiply_to_target():
    letters = {g.to_text() for g in generating_set(2)}
    for n in range(0, 5):
        for offset in admissible_offsets(FIELD, n):
            word = lamplighter_word(offset, n)
            assert len(word) <= 3 * n + 1
            for letter in word:
                assert letter.to_text() in letters
            product = word_product(word, FIELD)
            assert product == SL2Element.elementary_upper(offset)


def test_word_rejects_bad_offsets():
    with pytest.raises(ValueError):
        lamplighter_word(LaurentPolynomial.x_power(FIELD, 1), 2)
    with pytest.raises(ValueError):
        lamplighter_word(LaurentPolynomial.x_power(FIELD, 6), 1)


def test_ball_growth_prefix():
    sizes = h_ball_growth(2, 6)
    assert sizes == [1, 5, 16, 46, 120, 296, 710]


# Radii at which the breadth-first search over the group law takes under
# about a second; q = 4 and 8 reach the radii of q = 2, whose balls they share.
ORACLE_RADII = {2: 11, 3: 8, 4: 10, 5: 7, 7: 7, 8: 10, 9: 7}


@pytest.mark.parametrize("q", sorted(ORACLE_RADII))
def test_ball_growth_matches_the_group_law_oracle(q):
    radius = ORACLE_RADII[q]
    assert h_ball_growth(q, radius) == h_ball_growth_bfs(q, radius)


def test_ball_growth_pinned_sizes():
    assert h_ball_growth(2, 13)[-1] == 203_857
    # the report's radius 10 at q = 3, named in the ELEMENT_BUDGET comment
    assert h_ball_growth(3, 10)[-1] == 316_381
    # the breadth-first search's sizes beyond ORACLE_RADII
    assert h_ball_growth(5, 8)[-1] == 84_025
    assert h_ball_growth(7, 6)[-1] == 7_917
    assert h_ball_growth(8, 8)[-1] == 3_789
    assert h_ball_growth(9, 7)[-1] == 11_975


def test_ball_growth_budget(monkeypatch):
    monkeypatch.setattr(lamplighter, "ELEMENT_BUDGET", 50)
    with pytest.raises(RadiusBudgetError):
        h_ball_growth(2, 10)
    # |B(3)| = 46 fits the budget and |B(4)| = 120 does not
    assert h_ball_growth(2, 3) == [1, 5, 16, 46]
    with pytest.raises(RadiusBudgetError):
        h_ball_growth(2, 4)


def test_ball_growth_rejects_other_letters(monkeypatch):
    letters = generating_set(2)
    mixed = SL2Element.diagonal_shift(FIELD, 1) * SL2Element.elementary_upper(
        LaurentPolynomial.one(FIELD)
    )
    binomial = SL2Element.elementary_upper(LaurentPolynomial(FIELD, 0, (1, 1)))
    # the length formula also needs shifts by +1 and -1 and lamps at
    # exponents 0 and 1
    long_shift = SL2Element.diagonal_shift(FIELD, 2)
    far_lamp = SL2Element.elementary_upper(LaurentPolynomial.x_power(FIELD, 2))
    for extra, message in (
        (mixed, "neither a shift nor a monomial"),
        (binomial, "neither a shift nor a monomial"),
        (long_shift, "not by \\+1 and -1"),
        (far_lamp, "not within 0 and 1"),
    ):
        monkeypatch.setattr(lamplighter, "generating_set", lambda q, extra=extra: letters + [extra])
        with pytest.raises(RuntimeError, match=message):
            h_ball_growth(2, 2)


def test_exponential_certificate():
    sizes = h_ball_growth(2, 10)
    certificate = exponential_certificate(2, sizes)
    assert certificate.certified_rate == pytest.approx(2 ** (1 / 3))
    assert certificate.empirical_rate >= certificate.certified_rate - 0.2
    assert certificate.rd_failure_flag
    assert certificate.family_checks
    for check in certificate.family_checks:
        assert check.ok
        assert check.ball_size >= check.family_size
        assert check.word_length == 3 * check.n + 1
    payload = plain(certificate)
    assert payload["ball_sizes"][0] == 1


def test_failure_flag_rests_on_the_word_check(monkeypatch):
    sizes = h_ball_growth(2, 4)
    assert exponential_certificate(2, sizes).rd_failure_flag
    build = lamplighter.lamplighter_word

    def dropping(offset, n):
        return build(offset, n)[:-1]

    monkeypatch.setattr(lamplighter, "lamplighter_word", dropping)
    certificate = exponential_certificate(2, sizes)
    assert not certificate.rd_failure_flag
    assert not any(check.ok for check in certificate.family_checks)


def test_growth_csv_rows():
    sizes = [1, 5, 16]
    rows = growth_csv_rows(sizes)
    assert rows[0] == (0, 1, 0.0)
    assert len(rows) == 3
    assert rows[2][1] == 16


def test_identity_element():
    e = h_identity(FIELD)
    assert h_is_identity(e)
    x = random_h(FIELD)
    assert h_key(h_multiply(x, e)) == h_key(x)
    assert h_key(h_multiply(e, x)) == h_key(x)
