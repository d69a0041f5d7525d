"""Exact arithmetic kernels: finite fields, Laurent polynomials, and numbers
of the form a + b*sqrt(q).

Everything in this module is exact and immutable.  Conventions:

* ``Fq`` describes F_q for q = p^e.  An element of F_q is an integer index in
  ``range(q)`` and nothing else: there is no element object, and field
  arithmetic is ``Fq.add``/``sub``/``neg``/``mul``/``inv`` on indices.  The
  base-p digits of an index are the coefficients of the element written in
  the power basis of a fixed irreducible modulus; for prime q the index is
  the residue itself.
* ``LaurentPolynomial`` stores a low exponent plus a coefficient run of
  indices whose first and last entries are nonzero; the zero polynomial
  stores an empty run.  Its ``+ - * ==`` take polynomials only; a scalar
  enters through the constructor, ``x_power`` or ``scale``, which raise
  ValueError for an index outside ``range(q)``.  The two
  valuations of a nonzero Laurent polynomial f are ``v_zero(f) = low`` and
  ``v_infinity(f) = -top``, the orders of vanishing at X = 0 and
  X = infinity (uniformizers X and X^-1).
* ``AlgebraicValue`` is a + b*sqrt(q) with exact rational a, b.  Comparisons
  are decided by exact sign computations on a^2 - q*b^2; no floating point is
  involved.  When q is a perfect square the irrational part is folded into the
  rational part, keeping representations canonical.
"""

from __future__ import annotations

import re
from enum import Enum
from fractions import Fraction
from math import isqrt
from typing import Iterable


class Place(Enum):
    """The two places of F_q(X) used throughout: X = 0 and X = infinity."""

    ZERO = "zero"
    INFINITY = "infinity"


# Frozen irreducible moduli for extension fields, little-endian with leading 1.
# The exact polynomials are a fixed deterministic choice (Conway-style); a test
# re-verifies irreducibility of every entry by brute force.
_IRREDUCIBLE_MODULI: dict[tuple[int, int], tuple[int, ...]] = {
    (2, 2): (1, 1, 1),
    (2, 3): (1, 1, 0, 1),
    (2, 4): (1, 1, 0, 0, 1),
    (3, 2): (2, 2, 1),
    (3, 3): (1, 2, 0, 1),
    (3, 4): (2, 0, 0, 2, 1),
    (5, 2): (2, 4, 1),
    (5, 3): (3, 3, 0, 1),
    (5, 4): (2, 4, 4, 0, 1),
    (7, 2): (3, 6, 1),
    (7, 3): (4, 0, 6, 1),
    (7, 4): (3, 4, 5, 0, 1),
    (11, 2): (2, 7, 1),
    (11, 3): (9, 2, 0, 1),
    (11, 4): (1, 0, 0, 4, 1),
    (13, 2): (2, 12, 1),
    (13, 3): (11, 2, 0, 1),
    (13, 4): (1, 0, 0, 1, 1),
}

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


def _factor_prime_power(q: int) -> tuple[int, int]:
    """Return (p, e) with q = p^e, or raise ValueError."""
    if q < 2:
        raise ValueError(f"q must be at least 2, got {q}")
    for p in _SMALL_PRIMES:
        if q % p == 0:
            e = 0
            m = q
            while m % p == 0:
                m //= p
                e += 1
            if m != 1:
                raise ValueError(f"q = {q} is not a prime power")
            return p, e
    raise ValueError(f"q = {q} is not a supported prime power")


class Fq:
    """Descriptor of the finite field F_q, q = p^e with e <= 4.

    Holds the modulus (for e > 1) plus exp/log tables over a fixed generator,
    so multiplication and inversion are table lookups.  Instances are cached
    per q and are safe to share between threads after construction.
    """

    _cache: dict[int, "Fq"] = {}

    def __new__(cls, q: int) -> "Fq":
        cached = cls._cache.get(q)
        if cached is not None:
            return cached
        self = super().__new__(cls)
        self._build(q)
        cls._cache[q] = self
        return self

    def _build(self, q: int) -> None:
        p, e = _factor_prime_power(q)
        if e > 4:
            raise ValueError(f"extension degree {e} exceeds the supported modulus table (e <= 4)")
        if e > 1 and (p, e) not in _IRREDUCIBLE_MODULI:
            raise ValueError(f"no frozen modulus for p={p}, e={e}")
        self.q = q
        self.p = p
        self.e = e
        self.modulus = _IRREDUCIBLE_MODULI[(p, e)] if e > 1 else None
        if e > 1:
            self._build_log_tables()

    def _digits(self, index: int) -> list[int]:
        p = self.p
        out = []
        for _ in range(self.e):
            out.append(index % p)
            index //= p
        return out

    def _from_digits(self, digits: Iterable[int]) -> int:
        out = 0
        for c in reversed(list(digits)):
            out = out * self.p + (c % self.p)
        return out

    def _raw_mul(self, a: int, b: int) -> int:
        """Polynomial-basis multiplication used only while building tables."""
        p, e, m = self.p, self.e, self.modulus
        da, db = self._digits(a), self._digits(b)
        prod = [0] * (2 * e - 1)
        for i, x in enumerate(da):
            if x:
                for j, y in enumerate(db):
                    prod[i + j] = (prod[i + j] + x * y) % p
        for i in range(len(prod) - 1, e - 1, -1):
            c = prod[i]
            if c:
                prod[i] = 0
                for j in range(e):
                    prod[i - e + j] = (prod[i - e + j] - c * m[j]) % p
        return self._from_digits(prod[:e])

    def _build_log_tables(self) -> None:
        q = self.q
        order = q - 1
        factors = set()
        n = order
        for f in _SMALL_PRIMES + (53, 59, 61, 67, 71, 73, 79, 83, 89, 97):
            while n % f == 0:
                factors.add(f)
                n //= f
        if n > 1:
            factors.add(n)
        gen = None
        for cand in range(2, q):
            ok = True
            for f in factors:
                acc = 1
                for _ in range(order // f):
                    acc = self._raw_mul(acc, cand)
                if acc == 1:
                    ok = False
                    break
            if ok:
                gen = cand
                break
        if gen is None:  # pragma: no cover - impossible for a field
            raise RuntimeError("no generator found")
        exp = [1] * (2 * order)
        log = [0] * q
        acc = 1
        for k in range(order):
            exp[k] = acc
            exp[k + order] = acc
            log[acc] = k
            acc = self._raw_mul(acc, gen)
        self._exp = exp
        self._log = log

    # raw-index arithmetic -------------------------------------------------

    def add(self, a: int, b: int) -> int:
        if self.e == 1:
            return (a + b) % self.p
        return self._from_digits(
            (x + y) % self.p for x, y in zip(self._digits(a), self._digits(b))
        )

    def neg(self, a: int) -> int:
        if self.e == 1:
            return (-a) % self.p
        return self._from_digits((-x) % self.p for x in self._digits(a))

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if self.e == 1:
            return (a * b) % self.p
        if a == 0 or b == 0:
            return 0
        return self._exp[self._log[a] + self._log[b]]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero in F_q")
        if self.e == 1:
            return pow(a, self.p - 2, self.p)
        return self._exp[(self.q - 1) - self._log[a]]

    def __repr__(self) -> str:
        return f"Fq({self.q})"

    def __reduce__(self):
        return (Fq, (self.q,))


class LaurentPolynomial:
    """Element of F_q[X, X^-1] in canonical (low exponent, coefficient run) form.

    The run starts and ends with a nonzero coefficient; the zero polynomial is
    the empty run with low exponent 0.  Instances are immutable and hashable.
    """

    __slots__ = ("field", "low", "_coeffs")

    def __init__(self, field: Fq, low: int, coeffs: Iterable[int]):
        # coefficients are element indices (equal to residues when q is prime)
        raw = list(coeffs)
        q = field.q
        for c in raw:
            if not 0 <= c < q:
                raise ValueError(f"coefficient index {c!r} outside range({q})")
        # strip leading/trailing zeros, adjusting the low exponent
        start = 0
        end = len(raw)
        while start < end and raw[start] == 0:
            start += 1
        while end > start and raw[end - 1] == 0:
            end -= 1
        if start == end:
            self.field = field
            self.low = 0
            self._coeffs = ()
        else:
            self.field = field
            self.low = low + start
            self._coeffs = tuple(raw[start:end])

    # constructors ---------------------------------------------------------

    @classmethod
    def zero(cls, field: Fq) -> "LaurentPolynomial":
        return cls(field, 0, ())

    @classmethod
    def one(cls, field: Fq) -> "LaurentPolynomial":
        return cls(field, 0, (1,))

    @classmethod
    def x_power(cls, field: Fq, k: int, coeff: int = 1) -> "LaurentPolynomial":
        return cls(field, k, (coeff,))

    # structure ------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._coeffs

    @property
    def raw_coefficients(self) -> tuple[int, ...]:
        return self._coeffs

    @property
    def top(self) -> int:
        """Largest exponent with nonzero coefficient; zero polynomial raises."""
        if not self._coeffs:
            raise ValueError("the zero polynomial has no top exponent")
        return self.low + len(self._coeffs) - 1

    @property
    def span(self) -> int:
        """top - low for nonzero polynomials (the Euclidean size in the Laurent ring)."""
        if not self._coeffs:
            raise ValueError("the zero polynomial has no span")
        return len(self._coeffs) - 1

    def coefficient(self, exponent: int) -> int:
        i = exponent - self.low
        if 0 <= i < len(self._coeffs):
            return self._coeffs[i]
        return 0

    def leading_coefficient(self) -> int:
        if not self._coeffs:
            raise ValueError("the zero polynomial has no leading coefficient")
        return self._coeffs[-1]

    def trailing_coefficient(self) -> int:
        if not self._coeffs:
            raise ValueError("the zero polynomial has no trailing coefficient")
        return self._coeffs[0]

    def is_monomial(self) -> bool:
        return len(self._coeffs) == 1

    def is_one(self) -> bool:
        return self.low == 0 and self._coeffs == (1,)

    # arithmetic -----------------------------------------------------------

    def _coerce(self, other: object) -> "LaurentPolynomial":
        if isinstance(other, LaurentPolynomial):
            if other.field is not self.field:
                raise ValueError("polynomials over different fields")
            return other
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other: "LaurentPolynomial") -> "LaurentPolynomial":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        field = self.field
        low = min(self.low, other.low)
        top = max(self.top, other.top)
        out = [0] * (top - low + 1)
        for i, c in enumerate(self._coeffs):
            out[self.low - low + i] = c
        add = field.add
        for i, c in enumerate(other._coeffs):
            j = other.low - low + i
            out[j] = add(out[j], c)
        return LaurentPolynomial(field, low, out)

    def __neg__(self) -> "LaurentPolynomial":
        neg = self.field.neg
        return LaurentPolynomial(self.field, self.low, [neg(c) for c in self._coeffs])

    def __sub__(self, other: "LaurentPolynomial") -> "LaurentPolynomial":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __mul__(self, other: "LaurentPolynomial") -> "LaurentPolynomial":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return LaurentPolynomial.zero(self.field)
        field = self.field
        a, b = self._coeffs, other._coeffs
        out = [0] * (len(a) + len(b) - 1)
        mul = field.mul
        add = field.add
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    if y:
                        out[i + j] = add(out[i + j], mul(x, y))
        return LaurentPolynomial(field, self.low + other.low, out)

    def __pow__(self, n: int) -> "LaurentPolynomial":
        if n < 0:
            raise ValueError("negative powers of a Laurent polynomial")
        out = LaurentPolynomial.one(self.field)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def shift(self, k: int) -> "LaurentPolynomial":
        """Multiply by X^k."""
        if self.is_zero():
            return self
        return LaurentPolynomial(self.field, self.low + k, self._coeffs)

    def scale(self, c: int) -> "LaurentPolynomial":
        """Multiply by the field element with index ``c``."""
        if not 0 <= c < self.field.q:
            raise ValueError(f"scalar index {c!r} outside range({self.field.q})")
        mul = self.field.mul
        return LaurentPolynomial(self.field, self.low, [mul(c, a) for a in self._coeffs])

    def substitute_inverse(self) -> "LaurentPolynomial":
        """The image under X -> X^-1 (exponent negation).

        This exact automorphism of F_q(X) swaps the places, so all
        place-at-infinity computations can reuse the place-at-zero code paths.
        """
        if self.is_zero():
            return self
        return LaurentPolynomial(self.field, -self.top, tuple(reversed(self._coeffs)))

    # serialization --------------------------------------------------------

    def to_text(self) -> str:
        """Canonical text form ``low=<int>;coeffs=<c0,c1,...>`` used in caches."""
        return f"low={self.low};coeffs={','.join(str(c) for c in self._coeffs)}"

    _TEXT_RE = re.compile(r"^low=(-?\d+);coeffs=((?:\d+(?:,\d+)*)?)$")

    @classmethod
    def from_text(cls, field: Fq, text: str) -> "LaurentPolynomial":
        m = cls._TEXT_RE.match(text)
        if not m:
            raise ValueError(f"malformed Laurent polynomial text: {text!r}")
        low = int(m.group(1))
        coeffs = [int(c) for c in m.group(2).split(",")] if m.group(2) else []
        if coeffs and (coeffs[0] == 0 or coeffs[-1] == 0):
            raise ValueError(f"non-canonical coefficient run in {text!r}")
        if any(not 0 <= c < field.q for c in coeffs):
            raise ValueError(f"coefficient out of range for F_{field.q} in {text!r}")
        return cls(field, low, coeffs)

    # dunder plumbing --------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, LaurentPolynomial):
            return (
                self.field is other.field
                and self.low == other.low
                and self._coeffs == other._coeffs
            )
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.field.q, self.low, self._coeffs))

    def __repr__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for i, c in enumerate(self._coeffs):
            if c == 0:
                continue
            e = self.low + i
            if e == 0:
                parts.append(f"{c}")
            elif e == 1:
                parts.append(f"{c}*X" if c != 1 else "X")
            else:
                parts.append(f"{c}*X^{e}" if c != 1 else f"X^{e}")
        return " + ".join(parts)


# polynomial helpers (low >= 0, used for gcd/Bezout work) ---------------------


def poly_divmod(f: LaurentPolynomial, g: LaurentPolynomial) -> tuple[LaurentPolynomial, LaurentPolynomial]:
    """Euclidean division f = q*g + r with deg r < deg g, for polynomials.

    Both inputs must have low exponent >= 0 (honest polynomials in X).
    """
    if g.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    if not f.is_zero() and f.low < 0 or g.low < 0:
        raise ValueError("poly_divmod needs polynomials (low exponent >= 0)")
    field = f.field
    r = f
    q = LaurentPolynomial.zero(field)
    g_top = g.top
    g_lead_inv = field.inv(g.raw_coefficients[-1])
    while not r.is_zero() and r.top >= g_top:
        c = field.mul(r.raw_coefficients[-1], g_lead_inv)
        mono = LaurentPolynomial(field, r.top - g_top, (c,))
        q = q + mono
        r = r - mono * g
    return q, r


def poly_gcd(f: LaurentPolynomial, g: LaurentPolynomial) -> LaurentPolynomial:
    """Monic gcd of two polynomials (low exponent >= 0)."""
    a, b = f, g
    while not b.is_zero():
        _, r = poly_divmod(a, b)
        a, b = b, r
    if a.is_zero():
        return a
    return a.scale(a.field.inv(a.leading_coefficient()))


def poly_xgcd(
    f: LaurentPolynomial, g: LaurentPolynomial
) -> tuple[LaurentPolynomial, LaurentPolynomial, LaurentPolynomial]:
    """Extended gcd: returns (d, u, v) with u*f + v*g = d, d monic (or zero)."""
    field = f.field
    a, b = f, g
    ua, va = LaurentPolynomial.one(field), LaurentPolynomial.zero(field)
    ub, vb = LaurentPolynomial.zero(field), LaurentPolynomial.one(field)
    while not b.is_zero():
        q, r = poly_divmod(a, b)
        a, b = b, r
        ua, ub = ub, ua - q * ub
        va, vb = vb, va - q * vb
    if a.is_zero():
        return a, ua, va
    lead_inv = field.inv(a.leading_coefficient())
    return a.scale(lead_inv), ua.scale(lead_inv), va.scale(lead_inv)


def series_quotient(
    num: LaurentPolynomial, den: LaurentPolynomial, upto: int
) -> LaurentPolynomial:
    """X-adic expansion of num/den truncated to exponents < upto.

    ``den`` must be a polynomial with den(0) != 0, so 1/den is a power series;
    its expansion is computed by the standard recurrence to just enough
    terms.  No gcd is taken: the expansion depends only on the quotient, so
    every representation of it yields the same prefix.
    """
    field = num.field
    if den.is_zero() or den.low != 0:
        raise ValueError("series_quotient needs a denominator with den(0) != 0")
    if num.is_zero():
        return LaurentPolynomial.zero(field)
    need = upto - num.low
    if need <= 0:
        return LaurentPolynomial.zero(field)
    den = den.raw_coefficients
    d0_inv = field.inv(den[0])
    inv_series = [0] * need
    inv_series[0] = d0_inv
    mul, add = field.mul, field.add
    for k in range(1, need):
        acc = 0
        for i in range(1, min(k, len(den) - 1) + 1):
            acc = add(acc, mul(den[i], inv_series[k - i]))
        inv_series[k] = mul(field.neg(acc), d0_inv)
    out = [0] * need
    numc = num.raw_coefficients
    for i, x in enumerate(numc):
        if x:
            for k in range(need - i):
                out[i + k] = add(out[i + k], mul(x, inv_series[k]))
    return LaurentPolynomial(field, num.low, out)


class AlgebraicValue:
    """Exact number a + b*sqrt(q) with rational a, b and a fixed integer q >= 2.

    Supports ring arithmetic, division, and exact comparisons.  The sign is
    decided by comparing a^2 against q*b^2 in exact rational arithmetic.  For
    perfect-square q the value is folded to purely rational form, so equality
    and hashing see a canonical representation in every case.
    """

    __slots__ = ("a", "b", "q")

    def __init__(self, a, b, q: int):
        if q < 2:
            raise ValueError("q must be at least 2")
        a = Fraction(a)
        b = Fraction(b)
        r = isqrt(q)
        if r * r == q and b != 0:
            a += b * r
            b = Fraction(0)
        self.a = a
        self.b = b
        self.q = q

    @classmethod
    def rational(cls, value, q: int) -> "AlgebraicValue":
        return cls(Fraction(value), 0, q)

    @classmethod
    def sqrt_q_power(cls, q: int, k: int) -> "AlgebraicValue":
        """q^(k/2) as an exact value, for any integer k (negative allowed)."""
        if k % 2 == 0:
            return cls(Fraction(q) ** (k // 2), 0, q)
        return cls(0, Fraction(q) ** ((k - 1) // 2), q)

    def _coerce(self, other) -> "AlgebraicValue":
        if isinstance(other, AlgebraicValue):
            if other.q != self.q:
                raise ValueError(f"mixing sqrt({self.q}) and sqrt({other.q}) values")
            return other
        if isinstance(other, (int, Fraction)):
            return AlgebraicValue(other, 0, self.q)
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other) -> "AlgebraicValue":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return AlgebraicValue(self.a + other.a, self.b + other.b, self.q)

    __radd__ = __add__

    def __neg__(self) -> "AlgebraicValue":
        return AlgebraicValue(-self.a, -self.b, self.q)

    def __sub__(self, other) -> "AlgebraicValue":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "AlgebraicValue":
        return (-self) + other

    def __mul__(self, other) -> "AlgebraicValue":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.b == 0 and other.b == 0:
            return AlgebraicValue(self.a * other.a, 0, self.q)
        return AlgebraicValue(
            self.a * other.a + self.q * self.b * other.b,
            self.a * other.b + self.b * other.a,
            self.q,
        )

    __rmul__ = __mul__

    def __truediv__(self, other) -> "AlgebraicValue":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        norm = other.a * other.a - self.q * other.b * other.b
        if norm == 0:
            if other.a == 0 and other.b == 0:
                raise ZeroDivisionError("division by zero AlgebraicValue")
            # q non-square makes norm zero impossible for nonzero values;
            # square q is folded to b == 0 in the constructor.
            raise ZeroDivisionError("division by zero AlgebraicValue")
        conj = AlgebraicValue(other.a, -other.b, self.q)
        prod = self * conj
        return AlgebraicValue(prod.a / norm, prod.b / norm, self.q)

    def __rtruediv__(self, other) -> "AlgebraicValue":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __pow__(self, n: int) -> "AlgebraicValue":
        if n < 0:
            return (AlgebraicValue(1, 0, self.q) / self) ** (-n)
        out = AlgebraicValue(1, 0, self.q)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def sign(self) -> int:
        """Exact sign in {-1, 0, 1}."""
        a, b = self.a, self.b
        if b == 0:
            return -1 if a < 0 else (0 if a == 0 else 1)
        if a == 0:
            return -1 if b < 0 else 1
        if a > 0 and b > 0:
            return 1
        if a < 0 and b < 0:
            return -1
        lhs = a * a
        rhs = self.q * b * b
        if lhs == rhs:
            return 0
        if a > 0:  # b < 0
            return 1 if lhs > rhs else -1
        return 1 if rhs > lhs else -1

    def is_rational(self) -> bool:
        return self.b == 0

    def __abs__(self) -> "AlgebraicValue":
        return -self if self.sign() < 0 else self

    def __float__(self) -> float:
        return float(self.a) + float(self.b) * self.q ** 0.5

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (AlgebraicValue, int, Fraction)):
            other = self._coerce(other)
            return self.a == other.a and self.b == other.b
        return NotImplemented

    def __lt__(self, other) -> bool:
        return (self - self._coerce(other)).sign() < 0

    def __le__(self, other) -> bool:
        return (self - self._coerce(other)).sign() <= 0

    def __gt__(self, other) -> bool:
        return (self - self._coerce(other)).sign() > 0

    def __ge__(self, other) -> bool:
        return (self - self._coerce(other)).sign() >= 0

    def __hash__(self) -> int:
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b, self.q))

    def as_triple(self) -> tuple[str, str, int]:
        """(a, b, q) with exact fractions as strings, for JSON artifacts."""
        return (str(self.a), str(self.b), self.q)

    def __repr__(self) -> str:
        if self.b == 0:
            return f"{self.a}"
        if self.a == 0:
            return f"{self.b}*sqrt({self.q})"
        return f"{self.a} + {self.b}*sqrt({self.q})"
