"""Exhaustive enumeration of group spheres: all determinant-1 Laurent matrices
of total displacement length at most N, bucketed by length.

Every sphere is a disjoint union of right cosets gK of K = SL2(F_q), and a
coset is determined by its located pair (g.o_0, g.o_inf) of even-depth tree
vertices, whose depths are the two tree lengths.  A pair (v0, v1) is the
located pair of some coset exactly when the rank-2 bundle E that the two
lattices glue with F_q[X, X^-1]^2 on the projective line is trivial, that is
when h^0(E(-1)) = 0 (Grothendieck splitting; Serre, *Trees*, ch. II; in
twin-tree terms v0 and v1 are opposite).  The enumeration therefore takes
every pair of even-depth vertices with d0 + d1 <= N from one tree registry
(a canonical form names no place, so it lists the vertices of both trees),
decides triviality by one rank test (E has degree 0, so it is
trivial exactly when its section rows plus the two fiber rows at X = 0 have
full column rank), and reads a representative off the same elimination.
Each representative is checked to have determinant 1 and to locate back to
its pair at both places, at infinity through its sigma-image
(``SL2Element.substitute_inverse``).

A table is this coset list: for each length, the cosets with their located
pairs, as the scan walked them, and as representative the member whose text
comes first.  The criterion reads nothing else.  The elements are the
expansion by the q^3 - q elements of K (``constant_group`` and
``right_coset``), which the scan makes once per coset: it reads the
representative and the duplicate check off the member texts and keeps them,
sorted, for ``to_json``.  The scan raises when two cosets share an element.
``from_json`` reads a written table back for the tests and the benchmark's
check of a cold build: it runs the scan once and requires the text to be its
expansion, text for text.

The tests cross-check the tables against two independent enumerations in
``tests/oracles.py``: a breadth-first word search over an elementary
generating set, and a scan of coprime first rows inside the coefficient
window [-N/2, N/2], which completes each row with the Bezout kernel
``_completions_for_row`` below (with ``_reduce_into_window`` and
``algebra.poly_xgcd``).  The kernel stays here, where the benchmark tracer
counts its calls; no production path calls it.
"""

from __future__ import annotations

import itertools
import json
from collections import Counter
from fractions import Fraction
from math import sqrt
from operator import itemgetter
from typing import Iterable, Iterator, NamedTuple, Optional

from . import CACHE_MAJOR_VERSION, __version__
from .algebra import AlgebraicValue, Fq, LaurentPolynomial, poly_xgcd
from .boundary import hc_product
from .sl2 import LatticeVertex, SL2Element, TreeRegistry, canonical_vertex
from .trees import (
    ELEMENT_BUDGET,
    RadiusBudgetError,
    TreeVertex,
    ball_count_formula,
    sphere_size,
)

PROVENANCE_PAIRS = "pair-certified"
POLYNOMIAL_EXPONENT = Fraction(5, 2)
# Largest number of candidate vertex pairs an enumeration may examine:
# q = 2 up to N = 12, q = 3 up to N = 8, q = 4 up to N = 6.
PAIR_BUDGET = 100_000


def _window_contains(f: LaurentPolynomial, half_width: int) -> bool:
    return f.is_zero() or (f.low >= -half_width and f.top <= half_width)


def _reduce_into_window(
    offset: LaurentPolynomial, pivot: LaurentPolynomial, half_width: int
) -> tuple[LaurentPolynomial, LaurentPolynomial]:
    """Translate ``offset`` by a multiple of ``pivot`` into the window.

    Returns (reduced, s) with reduced = offset + s*pivot and reduced either
    zero or supported inside [-half_width, half_width].  Needs pivot inside
    the window (span <= 2*half_width), which makes the two cancellation loops
    terminate inside it.
    """
    field = offset.field
    s = LaurentPolynomial.zero(field)
    o = offset
    neg_lead_inv = field.neg(field.inv(pivot.leading_coefficient()))
    neg_trail_inv = field.neg(field.inv(pivot.trailing_coefficient()))
    while not o.is_zero() and o.top > half_width:
        c = field.mul(o.leading_coefficient(), neg_lead_inv)
        mono = LaurentPolynomial.x_power(field, o.top - pivot.top, c)
        o = o + mono * pivot
        s = s + mono
    while not o.is_zero() and o.low < -half_width:
        c = field.mul(o.trailing_coefficient(), neg_trail_inv)
        mono = LaurentPolynomial.x_power(field, o.low - pivot.low, c)
        o = o + mono * pivot
        s = s + mono
    return o, s


def _completions_for_row(
    a: LaurentPolynomial, b: LaurentPolynomial, half_width: int
) -> Iterable[tuple[LaurentPolynomial, LaurentPolynomial]]:
    """All (c, d) inside the window with a*d - b*c = 1, each exactly once."""
    field = a.field
    g, u, v = poly_xgcd(a.shift(half_width), b.shift(half_width))
    if g.is_zero() or not g.is_monomial():
        return
    k = g.low
    d0 = u.shift(half_width - k)
    c0 = (-v).shift(half_width - k)
    # completions move along (c, d) -> (c + t*a, d + t*b); translate the
    # pivot-side offset into the window, then sweep the residual box, over
    # which the pivot side stays inside the window by construction
    if not a.is_zero():
        pivot, other = a, b
        moving0, s = _reduce_into_window(c0, a, half_width)
        fixed0 = d0 + s * b
        pivot_is_first = True
    else:
        pivot, other = b, a
        moving0, s = _reduce_into_window(d0, b, half_width)
        fixed0 = c0 + s * a
        pivot_is_first = False
    lo_t = -half_width - pivot.low
    hi_t = half_width - pivot.top
    other_zero = other.is_zero()
    fixed0_in = _window_contains(fixed0, half_width)
    for coeffs in itertools.product(range(field.q), repeat=hi_t - lo_t + 1):
        t = LaurentPolynomial(field, lo_t, coeffs)
        if other_zero or t.is_zero():
            if not fixed0_in:
                continue
            o = fixed0
        else:
            to_top = t.top + other.top
            to_low = t.low + other.low
            if fixed0_in:
                # both summands inside the window, or no cancellation possible
                if to_top > half_width or to_low < -half_width:
                    continue
                o = fixed0 + t * other
            else:
                # an out-of-window offset needs its stray ends cancelled
                if fixed0.top > half_width and to_top != fixed0.top:
                    continue
                if fixed0.low < -half_width and to_low != fixed0.low:
                    continue
                o = fixed0 + t * other
                if not _window_contains(o, half_width):
                    continue
        m = moving0 if t.is_zero() else moving0 + t * pivot
        yield (m, o) if pivot_is_first else (o, m)


def _fiber_solutions(
    field: Fq, rows: list[list[int]], width: int
) -> Optional[tuple[list[int], list[int]]]:
    """Gauss-Jordan elimination over F_q of ``rows``, each ``width``
    coefficients and two right-hand sides.  Each row adds at most one pivot,
    so it stops with None once the rows left cannot give every column a
    pivot (the homogeneous system then has a nonzero solution).  Otherwise
    it returns the two solutions, or raises RuntimeError when a row reduces
    to zero coefficients with a nonzero right-hand side."""
    add, mul, neg = field.add, field.mul, field.neg
    pivots: list[tuple[int, list[int]]] = []
    inconsistent = False
    for done, row in enumerate(rows, 1):
        for col, prow in pivots:
            c = row[col]
            if c:
                c = neg(c)
                row = [add(x, mul(c, y)) for x, y in zip(row, prow)]
        lead = next((j for j in range(width) if row[j]), None)
        if lead is None:
            inconsistent = inconsistent or any(row[width:])
        else:
            inv = field.inv(row[lead])
            row = [mul(inv, x) for x in row]
            for i, (col, prow) in enumerate(pivots):
                c = prow[lead]
                if c:
                    c = neg(c)
                    pivots[i] = (col, [add(x, mul(c, y)) for x, y in zip(prow, row)])
            pivots.append((lead, row))
        if len(pivots) + len(rows) - done < width:
            return None
    if inconsistent:
        raise RuntimeError("a full-rank pair system has inconsistent fiber values")
    pivots.sort()
    return [prow[width] for _, prow in pivots], [prow[width + 1] for _, prow in pivots]


def _pair_representative(zero: LatticeVertex, inf: LatticeVertex) -> Optional[SL2Element]:
    """An element g with g.o_0 = ``zero`` and g.o_inf = ``inf``, or None when
    the pair bounds a nontrivial bundle (it is no group element's pair).

    With canonical forms (a_i, b_i, c_i), s_i = (a_i + b_i)/2 and Y = X^-1,
    the lattices g O^2 must be X^-s0 L_0 and Y^-s1 L_1 (determinant 1), so
    with c_1 written back in X a global section (v1, v2) of E satisfies
    v_X(v1) >= a0 - s0,
    v_X(X^a0 v2 - c0 v1) >= s0, top(v1) <= s1 - a1 and
    top(X^-a1 v2 - c1 v1) <= -s1.  The first coordinate lies in the window
    [a0 - s0, s1 - a1], and the two conditions on v2 bound its window.  The
    sections of E(-1) are those whose two coordinates in the fiber at X = 0,
    the coefficients of X^(a0 - s0) in v1 and of X^s0 in X^a0 v2 - c0 v1,
    vanish.  Both depths are even, so E has degree 0 and is trivial exactly
    when E(-1) has no section: when the section rows and the two fiber rows
    have full column rank (``_fiber_solutions``).  The solutions for the
    fiber values (1, 0) and (0, 1) are then the columns of a representative
    whose determinant is a constant, its value 1 in the fiber.
    """
    field = zero.field
    neg = field.neg
    a0, b0, c0 = zero.diag_low, zero.diag_high, zero.off_diag
    a1, b1 = inf.diag_low, inf.diag_high
    c1 = inf.off_diag.substitute_inverse()
    s0, s1 = (a0 + b0) // 2, (a1 + b1) // 2
    lo1, hi1 = a0 - s0, s1 - a1
    n1 = hi1 - lo1 + 1
    if n1 <= 0:
        return None
    lo2, hi2 = s0 - a0, a1 - s1
    low_eq, top_eq = s0 - 1, -s1 + 1
    if not c0.is_zero():
        lo2 = min(lo2, c0.low + lo1 - a0)
        low_eq = min(low_eq, c0.low + lo1)
    if not c1.is_zero():
        hi2 = max(hi2, c1.top + hi1 + a1)
        top_eq = max(top_eq, c1.top + hi1)
    n2 = max(hi2 - lo2 + 1, 0)
    low_eq = min(low_eq, a0 + lo2)
    top_eq = max(top_eq, hi2 - a1)
    width = n1 + n2

    def row(e: int, shift: int, c: LaurentPolynomial) -> list[int]:
        """Coefficients of X^e in X^shift v2 - c v1, and zero right-hand sides."""
        out = [neg(c.coefficient(e - lo1 - i)) for i in range(n1)] + [0] * (n2 + 2)
        j = e - shift - lo2
        if 0 <= j < n2:
            out[n1 + j] = 1
        return out

    # the fiber rows go first, so that a nontrivial pair stops early
    rows = [[1] + [0] * (width - 1) + [1, 0], row(s0, a0, c0)[:-1] + [1]]
    rows += [row(e, a0, c0) for e in range(low_eq, s0)]
    rows += [row(e, -a1, c1) for e in range(-s1 + 1, top_eq + 1)]
    solutions = _fiber_solutions(field, rows, width)
    if solutions is None:
        return None
    (a, c), (b, d) = (
        (LaurentPolynomial(field, lo1, x[:n1]), LaurentPolynomial(field, lo2, x[n1:]))
        for x in solutions
    )
    det = a * d - b * c
    if not det.is_one():
        raise RuntimeError(f"sections of a trivial pair have determinant {det!r}")
    g = SL2Element(a, b, c, d, check=False)
    if canonical_vertex(g) != zero or canonical_vertex(g.substitute_inverse()) != inf:
        raise RuntimeError(f"{g.to_text()} does not locate back to its vertex pair")
    return g


class Coset(NamedTuple):
    """A right coset rK of K = SL2(F_q): its representative r, the member
    whose text comes first, and the located pair (r.o_0, r.o_inf) that every
    member shares; the two depths are the members' tree lengths."""

    representative: SL2Element
    zero: TreeVertex
    infinity: TreeVertex

    def vertex(self, place_index: int) -> TreeVertex:
        """The located vertex at place zero (index 0) or infinity (index 1)."""
        return self.infinity if place_index else self.zero


class SphereTable(NamedTuple):
    """The length ball as the pair scan's right cosets, bucketed by total
    length: each bucket lists its sphere's cosets sorted by representative.
    ``texts`` holds the elements as the scan wrote them, the cosets'
    expansions by K in text order, keyed by length as ``to_json`` writes
    them; it is left out of the repr.  Equal tables have equal texts, since
    both are the scan's.  Immutable after construction and safe for
    concurrent readers.
    """

    q: int
    max_length: int
    buckets: dict[int, tuple[Coset, ...]]
    texts: dict[str, list[str]]

    def __repr__(self) -> str:
        return f"SphereTable(q={self.q!r}, max_length={self.max_length!r}, buckets={self.buckets!r})"

    def cosets(self, n: int) -> tuple[Coset, ...]:
        if n < 0 or n > self.max_length:
            raise ValueError(f"sphere index {n} outside [0, {self.max_length}]")
        return self.buckets.get(n, ())

    def sphere_size(self, n: int) -> int:
        return len(self.cosets(n)) * (self.q**3 - self.q)

    def ball_size(self, n: Optional[int] = None) -> int:
        n = self.max_length if n is None else n
        return sum(self.sphere_size(k) for k in self.buckets if k <= n)

    def realized_length_pairs(self, n: int) -> Counter:
        """Multiset of (length_zero, length_infinity) pairs on the sphere."""
        out: Counter = Counter()
        for coset in self.cosets(n):
            out[(coset.zero.depth, coset.infinity.depth)] += self.q**3 - self.q
        return out

    def lengths(self) -> list[int]:
        return sorted(self.buckets)

    def to_json(self) -> str:
        body = {
            "q": self.q,
            "max_length": self.max_length,
            "provenance": PROVENANCE_PAIRS,
            "tool_version": __version__,
            "cache_major": CACHE_MAJOR_VERSION,
            "saturated": None,
            "buckets": self.texts,
        }
        return json.dumps(body, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "SphereTable":
        """Read a table written by ``to_json``; the tests and the benchmark's
        check of a cold build read ``spheres`` output with it.

        The header must name this cache major version, the pair-certified
        provenance and a radius within the pair budget.  The pair scan then
        runs once (``_scan``), and the text's buckets must equal the scan's
        cosets expanded by K, text for text and in order, so a table that
        loads is the one ``enumerate_ball`` builds.  Raises ValueError
        otherwise.
        """
        body = json.loads(text)
        if not isinstance(body, dict):
            raise ValueError("sphere table is not a JSON object")
        if body.get("cache_major") != CACHE_MAJOR_VERSION:
            raise ValueError(
                f"cache written by major version {body.get('cache_major')}, "
                f"expected {CACHE_MAJOR_VERSION}"
            )
        q, max_length = body.get("q"), body.get("max_length")
        if not (type(q) is int and type(max_length) is int and max_length >= 0):
            raise ValueError("malformed sphere table header")
        if body.get("provenance") != PROVENANCE_PAIRS or body.get("saturated") is not None:
            raise ValueError("sphere table is not pair-certified")
        try:
            cosets, texts = _scan(q, max_length)
        except RadiusBudgetError as exc:
            raise ValueError(f"sphere table radius {max_length} is beyond the scan's budget") from exc
        if body.get("buckets") != texts:
            raise ValueError(
                "sphere table buckets are not the pair scan's cosets expanded by "
                f"SL2(F_{q}), in text order"
            )
        return cls(q, max_length, cosets, texts)


def candidate_pair_counts(q: int, max_length: int) -> Iterator[int]:
    """For each even total up to ``max_length``, the number of even-depth
    vertex pairs with d0 + d1 <= total, counted from the tree sphere sizes
    (q+1) q^(d-1).  Each right coset of length at most the total maps to one
    of them."""
    count = 0
    for total in range(0, max_length + 1, 2):
        count += sum(
            sphere_size(q + 1, d0) * sphere_size(q + 1, total - d0)
            for d0 in range(0, total + 1, 2)
        )
        yield count


def _check_pair_budget(q: int, max_length: int) -> None:
    """Raise RadiusBudgetError when the candidate vertex pairs of the scan
    (``candidate_pair_counts``) exceed PAIR_BUDGET, or when their expansions
    by K, q^3 - q elements per pair, would exceed ELEMENT_BUDGET."""
    for count in candidate_pair_counts(q, max_length):
        if count > PAIR_BUDGET:
            raise RadiusBudgetError(
                f"radius {max_length} at q = {q} needs more than {PAIR_BUDGET} "
                f"candidate vertex pairs"
            )
    elements = count * (q**3 - q)
    if elements > ELEMENT_BUDGET:
        raise RadiusBudgetError(
            f"radius {max_length} at q = {q} has {count:,} candidate vertex pairs, "
            f"whose cosets may hold {elements:,} elements, more than {ELEMENT_BUDGET:,}"
        )


# An element k of K = SL2(F_q) with its columns (k11, k21) and (k12, k22).
Unit = tuple[SL2Element, tuple[int, int], tuple[int, int]]


def constant_group(field: Fq) -> list[Unit]:
    """K = SL2(F_q): its q^3 - q matrices, each with its two columns."""
    vectors = list(itertools.product(range(field.q), repeat=2))[1:]
    entry = {x: LaurentPolynomial(field, 0, (x,)) for x in range(field.q)}
    return [
        (SL2Element(entry[u[0]], entry[v[0]], entry[u[1]], entry[v[1]], check=False), u, v)
        for u in vectors
        for v in vectors
        if field.sub(field.mul(u[0], v[1]), field.mul(v[0], u[1])) == 1
    ]


def right_coset(r: SL2Element, group: list[Unit]) -> Iterator[tuple[SL2Element, str, SL2Element]]:
    """The members r k of the right coset rK as (k, text of r k, r k).  A
    column of r k is r u for a nonzero u in F_q^2, so each of the q^2 - 1
    columns is computed and written out once, from the q multiples of each
    entry of r."""
    multiples = [[e.scale(x) for x in range(r.field.q)] for e in r.entries()]
    columns = {}
    for u in {w for _, u, v in group for w in (u, v)}:
        top = multiples[0][u[0]] + multiples[1][u[1]]
        bottom = multiples[2][u[0]] + multiples[3][u[1]]
        columns[u] = (top, bottom, top.to_text(), bottom.to_text())
    for k, u, v in group:
        a, c, text_a, text_c = columns[u]
        b, d, text_b, text_d = columns[v]
        yield k, f"{text_a}|{text_b}|{text_c}|{text_d}", SL2Element(a, b, c, d, check=False)


def trivial_pairs(
    q: int, max_length: int
) -> Iterator[tuple[int, SL2Element, TreeVertex, TreeVertex]]:
    """The pair scan: every even-depth vertex pair (v0, v1) with
    d0 + d1 <= ``max_length`` that is the located pair of a right coset, as
    its length d0 + d1, the representative ``_pair_representative`` reads
    off it, and the two vertices.  Both vertices and their label paths come
    from the one registry the scan walks, whose forms serve either place,
    so nothing is located.  The caller checks the budgets first
    (``_check_pair_budget``).
    """
    levels = TreeRegistry(q, max_length).levels
    for d0 in range(0, max_length + 1, 2):
        for d1 in range(0, max_length - d0 + 1, 2):
            for zero, zero_form in levels[d0]:
                for infinity, infinity_form in levels[d1]:
                    r = _pair_representative(zero_form, infinity_form)
                    if r is not None:
                        yield d0 + d1, r, zero, infinity


def _scan(q: int, max_length: int) -> tuple[dict[int, tuple[Coset, ...]], dict[str, list[str]]]:
    """The pair scan's right cosets by length, and the sorted texts of their
    members, keyed as in ``to_json``.  Each coset's representative is its
    first member in text order, and a length's cosets are sorted by it.
    Raises RadiusBudgetError before K or any registry is built when the scan
    is over budget (``_check_pair_budget``), and RuntimeError when two
    cosets share an element."""
    _check_pair_budget(q, max_length)
    group = constant_group(Fq(q))
    found: dict[int, list[tuple[str, Coset]]] = {}
    texts: dict[str, list[str]] = {}
    for n, r, zero, infinity in trivial_pairs(q, max_length):
        members = [(text, g) for _, text, g in right_coset(r, group)]
        text, first = min(members, key=itemgetter(0))
        found.setdefault(n, []).append((text, Coset(first, zero, infinity)))
        texts.setdefault(str(n), []).extend(text for text, _ in members)
    for bucket in texts.values():
        bucket.sort()
        for text, following in zip(bucket, bucket[1:]):
            if text == following:
                raise RuntimeError(f"the pair scan produced {text} twice")
    cosets = {
        n: tuple(coset for _, coset in sorted(bucket, key=itemgetter(0)))
        for n, bucket in sorted(found.items())
    }
    return cosets, texts


def enumerate_ball(q: int, max_length: int) -> SphereTable:
    """Pair-certified enumeration of the length ball of radius ``max_length``:
    the right cosets of the pair scan (``trivial_pairs``).

    Raises RadiusBudgetError when the candidate vertex pairs or their
    cosets' elements are over budget (``_check_pair_budget``, before K or
    any registry is built), and RuntimeError when a representative fails its
    checks or the expansion by K yields an element twice.
    """
    if max_length < 0:
        raise ValueError("negative ball radius")
    table = SphereTable(q, max_length, *_scan(q, max_length))
    base = table.sphere_size(0)
    if base != q**3 - q:
        raise RuntimeError(f"length-0 sphere has {base} elements, expected q^3 - q = {q**3 - q}")
    return table


def sup_xi_on_sphere(table: SphereTable, n: int) -> tuple[AlgebraicValue, tuple[int, int]]:
    """Largest spherical-function value over the length pairs realized on the
    sphere, decided in exact arithmetic, with the first length pair (in
    sorted order) that attains it."""
    pairs = table.realized_length_pairs(n)
    if not pairs:
        raise ValueError(f"sphere {n} is empty")
    return max(
        ((hc_product(l0, linf, table.q), (l0, linf)) for l0, linf in sorted(pairs)),
        key=itemgetter(0),
    )


def sup_xi_over_splittings(q: int, n: int) -> AlgebraicValue:
    """Largest spherical value over all even splittings l0 + linf = n,
    realized or not; this is the rigorous-side counterpart."""
    return max(hc_product(l0, n - l0, q) for l0 in range(0, n + 1, 2))


class Condition1Row(NamedTuple):
    n: int
    sphere_size: int
    sup_xi: AlgebraicValue
    sup_xi_lengths: tuple[int, int]  # first realized pair attaining sup_xi
    observed: float           # sup_xi * sqrt(|C_n|)
    fiber_bound_size: int     # (|B_n| - |B_{n-1}|) * (q^3 - q)
    splitting_sup: AlgebraicValue
    rigorous: float           # splitting sup * sqrt(fiber bound)
    observed_ratio: float     # observed / n^exponent
    rigorous_ratio: float


class Condition1Report(NamedTuple):
    q: int
    max_length: int
    exponent: Fraction
    rows: tuple[Condition1Row, ...]
    fitted_constant: float
    rigorous_constant: float

    @property
    def passed(self) -> bool:
        """Every observed witness sits below its rigorous counterpart, decided
        exactly on squares: sup_xi^2 * |C_n| <= splitting_sup^2 * fiber bound
        (both sups are positive; the float columns are for display only)."""
        return all(
            r.sup_xi * r.sup_xi * r.sphere_size
            <= r.splitting_sup * r.splitting_sup * r.fiber_bound_size
            for r in self.rows
        )


def condition_one_certificate(table: SphereTable) -> Condition1Report:
    """Per-sphere witnesses for the polynomial bound sup_xi * sqrt(|C_n|) <= c * n^(5/2).

    The observed column uses the realized length pairs and exact sphere sizes;
    the rigorous column replaces both factors with certified upper bounds (the
    splitting sup and the fiber-counting bound), so it dominates the observed
    column by construction.
    """
    d = table.q + 1
    unit_order = table.q**3 - table.q
    rows = []
    for n in range(2, table.max_length + 1, 2):
        size = table.sphere_size(n)
        if size == 0:
            continue
        sup, sup_lengths = sup_xi_on_sphere(table, n)
        observed = float(sup) * sqrt(size)
        pair_shell = ball_count_formula(d, n) - ball_count_formula(d, n - 1)
        fiber_bound = pair_shell * unit_order
        split_sup = sup_xi_over_splittings(table.q, n)
        rigorous = float(split_sup) * sqrt(fiber_bound)
        scale = float(n) ** float(POLYNOMIAL_EXPONENT)
        rows.append(
            Condition1Row(
                n=n,
                sphere_size=size,
                sup_xi=sup,
                sup_xi_lengths=sup_lengths,
                observed=observed,
                fiber_bound_size=fiber_bound,
                splitting_sup=split_sup,
                rigorous=rigorous,
                observed_ratio=observed / scale,
                rigorous_ratio=rigorous / scale,
            )
        )
    if not rows:
        raise ValueError("no even spheres beyond 0 in the table")
    return Condition1Report(
        q=table.q,
        max_length=table.max_length,
        exponent=POLYNOMIAL_EXPONENT,
        rows=tuple(rows),
        fitted_constant=max(r.observed_ratio for r in rows),
        rigorous_constant=max(r.rigorous_ratio for r in rows),
    )
