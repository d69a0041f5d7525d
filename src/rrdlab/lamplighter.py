"""The upper-triangular subgroup with monomial diagonal, its small generating
set, and the exponential word-growth certificate.

Elements [[X^n, P], [0, X^-n]] are written (n, P).  The group is amenable
but grows exponentially in the word metric of its four-letter generating
set, which the exact ball sizes certify at desk scale; the certified
asymptotic rate 2^(1/3) comes from an explicit family of 2^(n+1) products of
length at most 3n+1, which the certificate checks word by word.

In the coordinates (n, R) with R = X^n P, H is a lamplighter group over Z
with two lamps per site: a shift letter moves the lamplighter and a
monomial letter changes one lamp at its site.  The ball sizes are counted
from the lamplighter's word-length formula, so no element is visited and
no Laurent arithmetic runs.  The group law on (n, P) and the breadth-first
search over it are the test oracle (``tests/oracles.py``).
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import NamedTuple, Optional, Sequence

from .algebra import Fq, LaurentPolynomial
from .sl2 import SL2Element
from .trees import ELEMENT_BUDGET, RadiusBudgetError


class HElement(NamedTuple):
    """An upper-triangular element (n, P) standing for [[X^n, P], [0, X^-n]]."""

    n: int
    offset: LaurentPolynomial


def h_membership(g: SL2Element) -> Optional[HElement]:
    """Decompose g as (n, P) when it is upper triangular with diagonal
    (X^n, X^-n); None otherwise."""
    a, b, c, d = g.entries()
    if not c.is_zero():
        return None
    if not (a.is_monomial() and a.leading_coefficient() == 1):
        return None
    n = a.low
    if not (d.is_monomial() and d.low == -n and d.leading_coefficient() == 1):
        return None
    return HElement(n, b)


def generating_set(q: int) -> list[SL2Element]:
    """The four-letter set {diag(X, X^-1) and inverse, E12(+-1), E12(+-X)};
    stored as a set, so coinciding letters collapse (q = 2 keeps 4 letters)."""
    field = Fq(q)
    letters: list[SL2Element] = []
    seen = set()
    for g in (
        SL2Element.diagonal_shift(field, 1),
        SL2Element.diagonal_shift(field, -1),
        SL2Element.elementary_upper(LaurentPolynomial.one(field)),
        SL2Element.elementary_upper(-LaurentPolynomial.one(field)),
        SL2Element.elementary_upper(LaurentPolynomial.x_power(field, 1)),
        SL2Element.elementary_upper(-LaurentPolynomial.x_power(field, 1)),
    ):
        if g.to_text() not in seen:
            seen.add(g.to_text())
            letters.append(g)
    return letters


def admissible_offsets(field: Fq, n: int) -> list[LaurentPolynomial]:
    """The 2^(n+1) polynomials sum a_i X^(2i), i <= n, with a_i in {0, 1}."""
    out = []
    for mask in range(2 ** (n + 1)):
        coeffs = []
        for i in range(n + 1):
            coeffs.extend(((mask >> i) & 1, 0))
        out.append(LaurentPolynomial(field, 0, coeffs[: 2 * n + 1]))
    return out


def lamplighter_word(offset: LaurentPolynomial, n: int) -> list[SL2Element]:
    """A word of length <= 3n+1 over the generating set multiplying out to
    E12(offset), for offset = sum a_i X^(2i) with a_i in {0, 1} and i <= n.

    Built by the shift-and-add recursion: starting from E12(a_n), conjugating
    by diag(X, X^-1) doubles every exponent step, then the next lower
    coefficient is appended.  Identity letters are skipped, so the word can be
    shorter than 3n+1.
    """
    field = offset.field
    coeffs = [0] * (n + 1)
    if not offset.is_zero():
        if offset.low < 0 or offset.top > 2 * n:
            raise ValueError(f"offset exponents outside [0, {2 * n}]")
        for e in range(offset.low, offset.top + 1):
            c = offset.coefficient(e)
            if c == 0:
                continue
            if e % 2 != 0:
                raise ValueError("offset has an odd-exponent term")
            if c != 1:
                raise ValueError("offset coefficients must be 0 or 1")
            coeffs[e // 2] = 1
    shift_up = SL2Element.diagonal_shift(field, 1)
    shift_down = SL2Element.diagonal_shift(field, -1)
    one_letter = SL2Element.elementary_upper(LaurentPolynomial.one(field))
    word: list[SL2Element] = []
    if coeffs[n]:
        word.append(one_letter)
    for j in range(n):
        if word:
            word = [shift_up] + word + [shift_down]
        if coeffs[n - j - 1]:
            word.append(one_letter)
    return word


def word_product(word: Sequence[SL2Element], field: Fq) -> SL2Element:
    out = SL2Element.identity(field)
    for letter in word:
        out = out * letter
    return out


def _letter_actions(q: int) -> tuple[list[int], list[tuple[int, list[int]]]]:
    """Split ``generating_set(q)`` into shifts diag(X^m, X^-m), given by m,
    and monomials E12(c X^e), grouped by exponent as (e, [c, ...]).

    Raises RuntimeError for a letter that is neither."""
    shifts: list[int] = []
    monomials: dict[int, list[int]] = {}
    for g in generating_set(q):
        h = h_membership(g)
        if h is not None and h.offset.is_zero():
            shifts.append(h.n)
        elif h is not None and h.n == 0 and h.offset.is_monomial():
            monomials.setdefault(h.offset.low, []).append(h.offset.leading_coefficient())
        else:
            raise RuntimeError(f"letter {g.to_text()} is neither a shift nor a monomial E12")
    return shifts, sorted(monomials.items())


def _lamp_costs(field: Fq, coefficients: Sequence[int]) -> list[int]:
    """The cost of every digit one lamp can show: its distance from 0 in the
    Cayley graph of (F_q, +) on the letters' ``coefficients``, through
    ``Fq.add`` on indices.  Digits out of reach have no cost; at q = 4, 8
    and 9 only the prime field is reached."""
    cost = {0: 0}
    frontier = [0]
    while frontier:
        reached = []
        for d in frontier:
            for c in coefficients:
                e = field.add(d, c)
                if e not in cost:
                    cost[e] = cost[d] + 1
                    reached.append(e)
        frontier = reached
    return list(cost.values())


def h_ball_growth(q: int, radius: int) -> list[int]:
    """Exact ball sizes |B(r)| for r = 0..radius in the word metric of the
    generating set, counted from the lamplighter length formula (Parry,
    *Growth series of some wreath products*, Trans. AMS 331, 1992) without
    visiting any element.

    In the coordinates (n, R), R = X^n P, which determine (n, P), right
    multiplication by diag(X^m, X^-m) gives [[X^(n+m), P X^-m], [0, X^-(n+m)]],
    so (n, R) -> (n + m, R); by E12(c X^e) it gives
    [[X^n, P + c X^(n+e)], [0, X^-n]], so (n, R) -> (n, R + c X^(2n+e)).
    With shifts m = +1, -1 and exponents e in {0, 1}, H is a lamplighter over
    Z: the lamplighter stands at site n, site k holds the two lamps at
    X^(2k) and X^(2k+1), and each letter moves the lamplighter by one or
    changes one lamp at its site.  A word is a walk from site 0 to site n
    that changes every lamp where it stands, so it visits every lit site,
    and the lamps add up independently of the order.  The word length of
    (n, R) is therefore the sum of its lamp costs (``_lamp_costs``) plus the
    shortest walk from 0 to n covering the hull [lo, hi] of the lit sites,
    0 and n: (hi - lo) + min(-lo + hi - n, hi + n - lo) = 2 (hi - lo) - |n|.

    Let m = |n| and let g be the number of hull sites outside the m + 1
    sites from 0 to n; the walk takes 2g + m letters.  The g sites split
    into s on the far side of min(0, n) and g - s beyond max(0, n), s = 0..g,
    and an end of the hull outside [min(0, n), max(0, n)] is lit.  So the
    hull's m + 1 + g sites hold one lit end and m + g free sites when g > 0
    and s is 0 or g, two lit ends and m + g - 1 free sites for the g - 1
    other s, and m + 1 free sites when g = 0; every site outside the hull
    is dark.  The sphere of radius r sums, over m (twice for m > 0, once
    for n and once for -n) and g with 2g + m <= r, the lamp settings of
    those sites of total cost r - 2g - m.

    Raises RadiusBudgetError at the first r <= radius with |B(r)| over
    ELEMENT_BUDGET, and RuntimeError when the letters are not the shifts by
    +1 and -1 and monomials at exponents 0 and 1."""
    field = Fq(q)
    shifts, monomials = _letter_actions(q)
    if sorted(shifts) != [-1, 1]:
        raise RuntimeError(f"shift letters by {shifts}, not by +1 and -1")
    if any(e not in (0, 1) for e, _ in monomials):
        raise RuntimeError(
            f"monomial letters at exponents {[e for e, _ in monomials]}, not within 0 and 1"
        )
    # how many settings of one site's lamps cost each number of letters
    lamps = [_lamp_costs(field, coefficients) for _, coefficients in monomials]
    site = [0] * (1 + sum(map(max, lamps)))
    for costs in itertools.product(*lamps):
        site[sum(costs)] += 1

    @functools.cache
    def settings(lit: int, free: int, cost: int) -> int:
        """Settings of ``lit`` lit sites and ``free`` free ones at a total
        lamp cost of ``cost`` letters."""
        if cost < 0:
            return 0
        if lit:
            return sum(site[j] * settings(lit - 1, free, cost - j) for j in range(1, len(site)))
        if free:
            return sum(site[j] * settings(0, free - 1, cost - j) for j in range(len(site)))
        return int(cost == 0)

    sizes = [1]
    for r in range(1, radius + 1):
        sphere = 0
        for m in range(r + 1):
            count = settings(0, m + 1, r - m)
            for g in range(1, (r - m) // 2 + 1):
                cost = r - 2 * g - m
                count += 2 * settings(1, m + g, cost) + (g - 1) * settings(2, m + g - 1, cost)
            sphere += count if m == 0 else 2 * count
        sizes.append(sizes[-1] + sphere)
        if sizes[-1] > ELEMENT_BUDGET:
            raise RadiusBudgetError(
                f"radius {radius} at q = {q} needs more than {ELEMENT_BUDGET} ball elements"
            )
    return sizes


def word_family_holds(q: int, n: int) -> bool:
    """Check the 2^(n+1) words behind |B(3n+1)| >= 2^(n+1): every
    ``lamplighter_word(offset, n)`` over ``admissible_offsets`` has at most
    3n+1 letters, all from ``generating_set(q)``, and multiplies to
    E12(offset), and the 2^(n+1) products are distinct."""
    field = Fq(q)
    letters = {g.to_text() for g in generating_set(q)}
    products = set()
    for offset in admissible_offsets(field, n):
        word = lamplighter_word(offset, n)
        if len(word) > 3 * n + 1 or any(g.to_text() not in letters for g in word):
            return False
        product = word_product(word, field)
        if product != SL2Element.elementary_upper(offset):
            return False
        products.add(product)
    return len(products) == 2 ** (n + 1)


class FamilyCheck(NamedTuple):
    n: int
    word_length: int      # 3n + 1
    ball_size: int
    family_size: int      # 2^(n+1)
    ok: bool              # the words check out and |B(3n+1)| >= 2^(n+1)


class GrowthCertificate(NamedTuple):
    """Exponential-growth witness: the certified asymptotic rate from the
    2^(n+1) family of length-(3n+1) products, plus the observed per-radius
    log-rates.  The RD-failure flag is raised when the family checks ran and
    all held."""

    q: int
    ball_sizes: tuple[int, ...]
    family_checks: tuple[FamilyCheck, ...]
    certified_rate: float          # 2^(1/3), valid for every n by the word construction
    empirical_rate: float          # max over computed radii of |B(r)|^(1/r)
    rd_failure_flag: bool


def exponential_certificate(q: int, ball_sizes: Sequence[int]) -> GrowthCertificate:
    """For every n the computed radii reach, check the 2^(n+1) words of
    length at most 3n+1 (``word_family_holds``) and |B(3n+1)| >= 2^(n+1), and
    report the certified rate 2^(1/3) together with the empirical rates.

    The family bound holds for every n because the explicit words exist at
    every scale; the desk-scale checks confirm the words and the counting
    where we can see them, and the empirical column always dominates the
    certified one.
    """
    if not ball_sizes or ball_sizes[0] != 1:
        raise ValueError("ball sizes must start with |B(0)| = 1")
    checks = []
    n = 0
    while 3 * n + 1 < len(ball_sizes):
        size = ball_sizes[3 * n + 1]
        family = 2 ** (n + 1)
        checks.append(
            FamilyCheck(
                n=n,
                word_length=3 * n + 1,
                ball_size=size,
                family_size=family,
                ok=size >= family and word_family_holds(q, n),
            )
        )
        n += 1
    empirical = max(
        ball_sizes[r] ** (1.0 / r) for r in range(1, len(ball_sizes))
    ) if len(ball_sizes) > 1 else 1.0
    return GrowthCertificate(
        q=q,
        ball_sizes=tuple(ball_sizes),
        family_checks=tuple(checks),
        certified_rate=2.0 ** (1.0 / 3.0),
        empirical_rate=empirical,
        rd_failure_flag=bool(checks) and all(f.ok for f in checks),
    )


def growth_csv_rows(ball_sizes: Sequence[int]) -> list[tuple[int, int, float]]:
    """Rows (r, |B(r)|, log-rate) with log-rate = log|B(r)|/r and 0 at r = 0."""
    rows = [(0, ball_sizes[0], 0.0)]
    for r in range(1, len(ball_sizes)):
        rows.append((r, ball_sizes[r], math.log(ball_sizes[r]) / r))
    return rows
