from __future__ import annotations

import random

import pytest

from rrdlab import lamplighter
from rrdlab.algebra import Fq, LaurentPolynomial
from rrdlab.lamplighter import (
    HElement,
    admissible_offsets,
    exponential_certificate,
    generating_set,
    growth_csv_rows,
    h_ball_growth,
    h_identity,
    h_membership,
    lamplighter_word,
    word_product,
)
from rrdlab.sl2 import SL2Element
from rrdlab.spheres import RadiusBudgetError

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
        assert (x * y).to_matrix() == x.to_matrix() * y.to_matrix()
        assert (x * x.inverse()).is_identity()
        assert x.inverse().to_matrix() == x.to_matrix().inverse()


def test_membership_roundtrip_and_rejection():
    for _ in range(100):
        x = random_h(FIELD)
        back = h_membership(x.to_matrix())
        assert back is not None
        assert back.key() == x.key()
    lower = SL2Element.elementary_lower(LaurentPolynomial.one(FIELD))
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


def test_ball_growth_budget(monkeypatch):
    monkeypatch.setattr(lamplighter, "ELEMENT_BUDGET", 50)
    with pytest.raises(RadiusBudgetError):
        h_ball_growth(2, 10)
    assert h_ball_growth(2, 2) == [1, 5, 16]


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
    payload = certificate.to_dict()
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
    assert not certificate.passed
    assert not any(check.ok for check in certificate.family_checks)


def test_growth_csv_rows():
    sizes = [1, 5, 16]
    rows = growth_csv_rows(sizes)
    assert rows[0] == (0, 1, 0.0)
    assert len(rows) == 3
    assert rows[2][1] == 16


def test_identity_element():
    e = h_identity(FIELD)
    assert e.is_identity()
    x = random_h(FIELD)
    assert (x * e).key() == x.key()
    assert (e * x).key() == x.key()
