from __future__ import annotations

import dataclasses
import random
from fractions import Fraction

import pytest

from rrdlab.algebra import (
    AlgebraicValue,
    Fq,
    LaurentPolynomial,
    poly_divmod,
    poly_gcd,
    plain,
    poly_xgcd,
)

from oracles import RationalFunction

rng = random.Random(0x00A1)


def random_poly(field: Fq, span: int = 5) -> LaurentPolynomial:
    low = rng.randint(-4, 4)
    coeffs = [rng.randrange(field.q) for _ in range(rng.randint(0, span))]
    return LaurentPolynomial(field, low, coeffs)


def test_field_axioms_exhaustive():
    for q in (2, 3, 4, 5, 9):
        field = Fq(q)
        add, sub, mul = field.add, field.sub, field.mul
        for a in range(q):
            assert add(a, 0) == a
            assert mul(a, 1) == a
            assert sub(a, a) == 0
            assert add(a, field.neg(a)) == 0
            if a:
                assert mul(a, field.inv(a)) == 1
        for a in range(q):
            for b in range(q):
                assert add(a, b) == add(b, a)
                assert mul(a, b) == mul(b, a)
                assert add(sub(a, b), b) == a
                for c in range(q):
                    assert add(add(a, b), c) == add(a, add(b, c))
                    assert mul(mul(a, b), c) == mul(a, mul(b, c))
                    assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))
    with pytest.raises(ZeroDivisionError):
        Fq(4).inv(0)


def test_char_two_square_field_has_char_two():
    field = Fq(4)
    assert field.add(1, 1) == 0


def test_laurent_canonical_form():
    field = Fq(2)
    f = LaurentPolynomial(field, -3, (0, 0, 1, 0, 1, 0, 0))
    assert f.low == -1
    assert f.top == 1
    assert f.raw_coefficients == (1, 0, 1)
    zero = LaurentPolynomial(field, 7, (0, 0))
    assert zero.is_zero() and zero.low == 0 and zero.raw_coefficients == ()


def test_laurent_ring_axioms_random():
    for q in (2, 3):
        field = Fq(q)
        for _ in range(300):
            f, g, h = (random_poly(field) for _ in range(3))
            assert f + g == g + f
            assert f * g == g * f
            assert (f + g) + h == f + (g + h)
            assert (f * g) * h == f * (g * h)
            assert f * (g + h) == f * g + f * h
            assert (f - f).is_zero()
            assert f * LaurentPolynomial.one(field) == f


def test_laurent_shift_and_substitute_inverse():
    field = Fq(3)
    for _ in range(100):
        f = random_poly(field)
        k = rng.randint(-3, 3)
        assert f.shift(k) == f * LaurentPolynomial.x_power(field, k)
        assert f.substitute_inverse().substitute_inverse() == f
        g = random_poly(field)
        assert (f * g).substitute_inverse() == f.substitute_inverse() * g.substitute_inverse()


def test_valuations_multiplicative_and_ultrametric():
    # v_zero(f) = f.low and v_infinity(f) = -f.top
    field = Fq(2)
    for _ in range(200):
        f, g = random_poly(field), random_poly(field)
        if f.is_zero() or g.is_zero():
            assert (f * g).is_zero()
            continue
        assert (f * g).low == f.low + g.low
        assert (f * g).top == f.top + g.top
        if not (f + g).is_zero():
            assert (f + g).low >= min(f.low, g.low)
            assert (f + g).top <= max(f.top, g.top)


def test_poly_divmod_and_gcd():
    field = Fq(2)
    for _ in range(200):
        f = random_poly(field).shift(4)  # plain polynomial
        g = random_poly(field).shift(4)
        f = LaurentPolynomial(field, 0, f.raw_coefficients)
        g = LaurentPolynomial(field, 0, g.raw_coefficients)
        if g.is_zero():
            with pytest.raises(ZeroDivisionError):
                poly_divmod(f, g)
            continue
        quot, rem = poly_divmod(f, g)
        assert quot * g + rem == f
        assert rem.is_zero() or rem.top < g.top
        d = poly_gcd(f, g)
        if not d.is_zero():
            assert d.leading_coefficient() == 1
            assert poly_divmod(f, d)[1].is_zero()
            assert poly_divmod(g, d)[1].is_zero()


def test_poly_xgcd_bezout():
    for q in (2, 3):
        field = Fq(q)
        for _ in range(200):
            f = LaurentPolynomial(field, 0, [rng.randrange(q) for _ in range(5)])
            g = LaurentPolynomial(field, 0, [rng.randrange(q) for _ in range(5)])
            d, u, v = poly_xgcd(f, g)
            assert u * f + v * g == d
            assert d == poly_gcd(f, g)


def test_scale_multiplies_by_the_indexed_element():
    # the index is the element: scale(c) is the product with the constant c,
    # with no reduction of c modulo the characteristic
    for q in (4, 8, 9):
        field = Fq(q)
        for _ in range(20):
            f = random_poly(field)
            for c in range(q):
                assert f.scale(c) == f * LaurentPolynomial.x_power(field, 0, c)


def test_index_outside_the_field_is_rejected():
    # an index names an element only inside range(q); nothing is reduced
    with pytest.raises(ValueError):
        LaurentPolynomial.x_power(Fq(4), 0, -1)
    with pytest.raises(ValueError):
        LaurentPolynomial(Fq(3), -1, (1, 0, 3))
    with pytest.raises(ValueError):
        LaurentPolynomial.x_power(Fq(4), 2, 3).scale(4)
    with pytest.raises(ValueError):
        LaurentPolynomial.one(Fq(3)).scale(3)


def test_poly_xgcd_bezout_extension_fields():
    for q in (4, 9):
        field = Fq(q)
        for _ in range(100):
            f = LaurentPolynomial(field, 0, [rng.randrange(q) for _ in range(5)])
            g = LaurentPolynomial(field, 0, [rng.randrange(q) for _ in range(5)])
            d, u, v = poly_xgcd(f, g)
            assert u * f + v * g == d
            assert d.is_zero() == (f.is_zero() and g.is_zero())
            if not d.is_zero():
                assert d.leading_coefficient() == 1
                assert poly_divmod(f, d)[1].is_zero()
                assert poly_divmod(g, d)[1].is_zero()


def test_laurent_arithmetic_takes_polynomials_only():
    field = Fq(4)
    f = LaurentPolynomial.x_power(field, 1)
    for op in (
        lambda: f + 1,
        lambda: 1 + f,
        lambda: f - 1,
        lambda: 1 - f,
        lambda: f * 3,
        lambda: 3 * f,
    ):
        with pytest.raises(TypeError):
            op()
    assert LaurentPolynomial(field, 0, [2]) != 2
    assert LaurentPolynomial.one(field) != 1
    with pytest.raises(ValueError):
        f + LaurentPolynomial.one(Fq(2))


def test_rational_function_canonical_and_arithmetic():
    field = Fq(2)
    for _ in range(150):
        num, den = random_poly(field), random_poly(field)
        if den.is_zero():
            with pytest.raises(ZeroDivisionError):
                RationalFunction(num, den)
            continue
        r = RationalFunction(num, den)
        assert r.den.low == 0
        assert r.den.coefficient(0) != 0 or r.den.is_one()
        assert r.den.leading_coefficient() == 1
        # equality of cross products pins the normalization
        assert r.num * den == num * r.den
        s = RationalFunction(den, LaurentPolynomial.one(field))
        assert (r * s).num == num or (r * s) == RationalFunction(num, LaurentPolynomial.one(field))


def test_rational_series_prefix_matches_truncated_product():
    field = Fq(2)
    for _ in range(100):
        num, den = random_poly(field), random_poly(field)
        if den.is_zero():
            continue
        r = RationalFunction(num, den)
        upto = rng.randint(0, 6)
        prefix = r.series_prefix(upto)
        # den * prefix agrees with num on every exponent below the cut
        product = r.den * prefix
        for e in range(-8, upto):
            assert product.coefficient(e) == r.num.coefficient(e)


def test_algebraic_value_arithmetic_exact():
    for q in (2, 3, 5):
        for _ in range(200):
            a = AlgebraicValue(
                Fraction(rng.randint(-9, 9), rng.randint(1, 5)),
                Fraction(rng.randint(-9, 9), rng.randint(1, 5)),
                q,
            )
            b = AlgebraicValue(
                Fraction(rng.randint(-9, 9), rng.randint(1, 5)),
                Fraction(rng.randint(-9, 9), rng.randint(1, 5)),
                q,
            )
            assert float(a + b) == pytest.approx(float(a) + float(b))
            assert float(a * b) == pytest.approx(float(a) * float(b))
            assert (a - b) + b == a
            if b.sign() != 0:
                assert (a / b) * b == a
            assert abs(a).sign() >= 0
            assert (a > b) == (float(a) > float(b)) or a == b


def test_algebraic_value_sign_without_floats():
    # values whose float images collide but whose exact signs differ
    close = AlgebraicValue(Fraction(665857, 470832), Fraction(-1), 2)
    assert close.sign() == 1
    assert AlgebraicValue(Fraction(-665857, 470832), Fraction(1), 2).sign() == -1


def test_sqrt_q_power_laws():
    for q in (2, 3):
        for k in range(-6, 7):
            v = AlgebraicValue.sqrt_q_power(q, k)
            assert v * AlgebraicValue.sqrt_q_power(q, -k) == AlgebraicValue.rational(1, q)
            assert v * v == AlgebraicValue.rational(Fraction(q) ** k, q)
            assert float(v) == pytest.approx(q ** (k / 2))


def test_square_q_folds_to_rational():
    v = AlgebraicValue.sqrt_q_power(4, 1)
    assert v.is_rational()
    assert v == AlgebraicValue.rational(2, 4)


def test_as_triple_and_mixed_base_rejection():
    v = AlgebraicValue(Fraction(3, 2), Fraction(-1, 4), 2)
    assert v.as_triple() == ("3/2", "-1/4", 2)
    with pytest.raises(ValueError):
        v + AlgebraicValue.rational(1, 3)
    with pytest.raises(TypeError):
        v * object()


def test_plain_writes_a_nested_record_as_its_fields():
    @dataclasses.dataclass(frozen=True)
    class Inner:
        value: AlgebraicValue
        ratio: Fraction

    @dataclasses.dataclass(frozen=True)
    class Outer:
        name: str
        rows: tuple[Inner, ...]
        lengths: tuple[int, int]
        flag: bool

    record = Outer(
        "x",
        (Inner(AlgebraicValue(Fraction(3, 2), Fraction(-1, 4), 2), Fraction(5, 2)),),
        (0, 2),
        True,
    )
    assert plain(record) == {
        "name": "x",
        "rows": [{"value": ("3/2", "-1/4", 2), "ratio": "5/2"}],
        "lengths": [0, 2],
        "flag": True,
    }
    assert plain(AlgebraicValue.rational(1, 3)) == ("1", "0", 3)
    assert plain(None) is None and plain(0.5) == 0.5


def test_algebraic_value_pow():
    v = AlgebraicValue(Fraction(1, 2), Fraction(1, 3), 2)
    acc = AlgebraicValue.rational(1, 2)
    for n in range(6):
        assert v**n == acc
        acc = acc * v
    assert v**-2 == AlgebraicValue.rational(1, 2) / (v * v)
