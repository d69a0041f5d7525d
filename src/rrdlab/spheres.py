"""Exhaustive enumeration of group spheres: all determinant-1 Laurent matrices
of total displacement length at most N, bucketed by length.

Completeness comes from a window argument: if both tree lengths are at most N,
every entry has its exponents inside [-N/2, N/2].  The enumeration therefore
scans coprime first rows inside the window, solves the Bezout identity for one
completion, translates the completion into the window, and sweeps the
one-parameter family of all completions whose pivot-side entry stays inside
the window, filtering the other entry.  Each matrix in the ball is produced
exactly once; the tests cross-check it against a breadth-first word search
over an elementary generating set (``tests/oracles.py``).
"""

from __future__ import annotations

import itertools
import json
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from math import sqrt
from typing import Iterable, Optional, Sequence

from . import CACHE_MAJOR_VERSION, __version__
from .algebra import Fq, LaurentPolynomial, Place, poly_xgcd
from .boundary import HarishChandraValue, hc_product
from .sl2 import SL2Element, entry_lengths
from .trees import ball_count_formula

PROVENANCE_WINDOW = "window-certified"
POLYNOMIAL_EXPONENT = Fraction(5, 2)


class WindowOverflowError(RuntimeError):
    """The requested radius needs more first-row candidates than the budget."""


def window_polynomials(q: int, half_width: int) -> list[LaurentPolynomial]:
    """All Laurent polynomials with exponents inside [-half_width, half_width],
    zero included, in a fixed deterministic order."""
    field = Fq(q)
    out = []
    for coeffs in itertools.product(range(q), repeat=2 * half_width + 1):
        out.append(LaurentPolynomial(field, -half_width, coeffs))
    return out


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


def _enumerate_rows(
    q: int, max_length: int, a_indices: Sequence[int]
) -> list[tuple[int, str]]:
    """Worker: scan the given first-entry indices against the whole window;
    returns (total_length, canonical_text) pairs."""
    half = max_length // 2
    window = window_polynomials(q, half)
    out = []
    for ai in a_indices:
        a = window[ai]
        for b in window:
            if a.is_zero() and b.is_zero():
                continue
            for c, d in _completions_for_row(a, b, half):
                l0, linf = entry_lengths(a, b, c, d)
                if l0 + linf <= max_length:
                    g = SL2Element(a, b, c, d)
                    out.append((l0 + linf, g.to_text()))
    return out


@dataclass(frozen=True)
class SphereTable:
    """Ball elements bucketed by total length, plus provenance metadata.

    Buckets are canonically sorted tuples; the table is immutable after
    construction and safe for concurrent readers.
    """

    q: int
    max_length: int
    provenance: str
    buckets: dict[int, tuple[SL2Element, ...]]
    saturated: Optional[bool] = None

    def sphere(self, n: int) -> tuple[SL2Element, ...]:
        if n < 0 or n > self.max_length:
            raise ValueError(f"sphere index {n} outside [0, {self.max_length}]")
        return self.buckets.get(n, ())

    def sphere_size(self, n: int) -> int:
        return len(self.sphere(n))

    def ball_size(self, n: Optional[int] = None) -> int:
        n = self.max_length if n is None else n
        return sum(len(v) for k, v in self.buckets.items() if k <= n)

    def realized_length_pairs(self, n: int) -> Counter:
        """Multiset of (length_zero, length_infinity) pairs on the sphere."""
        out: Counter = Counter()
        for g in self.sphere(n):
            out[(g.length_zero, g.length_infinity)] += 1
        return out

    def lengths(self) -> list[int]:
        return sorted(self.buckets)

    def to_json(self) -> str:
        body = {
            "q": self.q,
            "max_length": self.max_length,
            "provenance": self.provenance,
            "tool_version": __version__,
            "cache_major": CACHE_MAJOR_VERSION,
            "saturated": self.saturated,
            "buckets": {
                str(n): [g.to_text() for g in self.buckets[n]] for n in sorted(self.buckets)
            },
        }
        return json.dumps(body, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "SphereTable":
        """Read a table written by ``to_json``, validating what it claims.

        Raises ValueError for a wrong shape, a bucket key outside
        [0, max_length], an element whose total length is not its key, a
        length-0 sphere other than the q^3 - q elements of SL2(F_q), and a
        sphere whose size is not a multiple of q^3 - q (every sphere is a
        union of right SL2(F_q)-cosets).
        """
        body = json.loads(text)
        if not isinstance(body, dict):
            raise ValueError("sphere table is not a JSON object")
        if body.get("cache_major") != CACHE_MAJOR_VERSION:
            raise ValueError(
                f"cache written by major version {body.get('cache_major')}, "
                f"expected {CACHE_MAJOR_VERSION}"
            )
        q, max_length, provenance, saturated, raw = (
            body.get(key) for key in ("q", "max_length", "provenance", "saturated", "buckets")
        )
        if not (
            type(q) is int
            and type(max_length) is int
            and max_length >= 0
            and isinstance(provenance, str)
            and (saturated is None or isinstance(saturated, bool))
            and isinstance(raw, dict)
        ):
            raise ValueError("malformed sphere table header")
        field = Fq(q)
        unit_order = q**3 - q
        buckets = {}
        for key, texts in raw.items():
            if not (isinstance(texts, list) and all(isinstance(t, str) for t in texts)):
                raise ValueError(f"bucket {key!r} is not a list of element texts")
            n = int(key)
            if str(n) != key or not 0 <= n <= max_length:
                raise ValueError(f"bucket key {key!r} outside [0, {max_length}]")
            elements = tuple(SL2Element.from_text(field, t) for t in texts)
            if any(g.total_length != n for g in elements):
                raise ValueError(f"bucket {n} holds an element of another length")
            if len(elements) % unit_order:
                raise ValueError(
                    f"sphere {n} has {len(elements)} elements, not a union of "
                    f"right SL2(F_{q})-cosets of size {unit_order}"
                )
            buckets[n] = elements
        if len(buckets.get(0, ())) != unit_order:
            raise ValueError(f"length-0 sphere does not have q^3 - q = {unit_order} elements")
        return cls(
            q=q,
            max_length=max_length,
            provenance=provenance,
            buckets=buckets,
            saturated=saturated,
        )


def enumerate_ball(
    q: int,
    max_length: int,
    threads: int = 1,
    candidate_budget: int = 50_000_000,
) -> SphereTable:
    """Window-certified enumeration of the length ball of radius ``max_length``.

    Raises WindowOverflowError when the first-row candidate count exceeds the
    budget, and RuntimeError when the scan yields an element twice (it yields
    each element of the ball exactly once).  The result is independent of
    ``threads`` byte for byte: workers partition the first-row scan and the
    merge sorts canonically.
    """
    if max_length < 0:
        raise ValueError("negative ball radius")
    half = max_length // 2
    window_size = Fq(q).q ** (2 * half + 1)
    if window_size * window_size > candidate_budget:
        raise WindowOverflowError(
            f"window scan needs {window_size}^2 first-row candidates, "
            f"budget is {candidate_budget}"
        )
    indices = list(range(window_size))
    if threads <= 1:
        results = [_enumerate_rows(q, max_length, indices)]
    else:
        chunks = [indices[i::threads] for i in range(threads)]
        with ProcessPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(_enumerate_rows, *zip(*((q, max_length, ch) for ch in chunks))))
    seen: set[str] = set()
    raw_buckets: dict[int, list[str]] = {}
    for part in results:
        for length, text in part:
            if text in seen:
                raise RuntimeError(f"the window scan produced {text} twice")
            seen.add(text)
            raw_buckets.setdefault(length, []).append(text)
    field = Fq(q)
    buckets = {
        n: tuple(SL2Element.from_text(field, t) for t in sorted(texts))
        for n, texts in raw_buckets.items()
    }
    table = SphereTable(
        q=q,
        max_length=max_length,
        provenance=PROVENANCE_WINDOW,
        buckets=buckets,
    )
    base = table.sphere_size(0)
    if base != q**3 - q:
        raise RuntimeError(f"length-0 sphere has {base} elements, expected q^3 - q = {q**3 - q}")
    return table


def sup_xi_on_sphere(table: SphereTable, n: int) -> HarishChandraValue:
    """Largest spherical-function value over the length pairs realized on the
    sphere, decided in exact arithmetic."""
    pairs = table.realized_length_pairs(n)
    if not pairs:
        raise ValueError(f"sphere {n} is empty")
    best: Optional[HarishChandraValue] = None
    for l0, linf in sorted(pairs):
        hc = hc_product(l0, linf, table.q)
        if best is None or hc.value > best.value:
            best = hc
    assert best is not None
    return best


def sup_xi_over_splittings(q: int, n: int) -> HarishChandraValue:
    """Largest spherical value over all even splittings l0 + linf = n,
    realized or not; this is the rigorous-side counterpart."""
    best: Optional[HarishChandraValue] = None
    for l0 in range(0, n + 1, 2):
        hc = hc_product(l0, n - l0, q)
        if best is None or hc.value > best.value:
            best = hc
    assert best is not None
    return best


@dataclass(frozen=True)
class Condition1Row:
    n: int
    sphere_size: int
    sup_xi: HarishChandraValue
    observed: float           # sup_xi * sqrt(|C_n|)
    fiber_bound_size: int     # (|B_n| - |B_{n-1}|) * (q^3 - q)
    splitting_sup: HarishChandraValue
    rigorous: float           # splitting sup * sqrt(fiber bound)
    observed_ratio: float     # observed / n^exponent
    rigorous_ratio: float


@dataclass(frozen=True)
class Condition1Report:
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
            r.sup_xi.value * r.sup_xi.value * r.sphere_size
            <= r.splitting_sup.value * r.splitting_sup.value * r.fiber_bound_size
            for r in self.rows
        )

    def to_dict(self) -> dict:
        return {
            "q": self.q,
            "max_length": self.max_length,
            "exponent": str(self.exponent),
            "fitted_constant": self.fitted_constant,
            "rigorous_constant": self.rigorous_constant,
            "rows": [
                {
                    "n": r.n,
                    "sphere_size": r.sphere_size,
                    "sup_xi": r.sup_xi.value.as_triple(),
                    "sup_xi_lengths": list(r.sup_xi.lengths),
                    "observed": r.observed,
                    "fiber_bound_size": r.fiber_bound_size,
                    "splitting_sup": r.splitting_sup.value.as_triple(),
                    "rigorous": r.rigorous,
                    "observed_ratio": r.observed_ratio,
                    "rigorous_ratio": r.rigorous_ratio,
                }
                for r in self.rows
            ],
        }


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
        sup = sup_xi_on_sphere(table, n)
        observed = float(sup.value) * sqrt(size)
        pair_shell = ball_count_formula(d, n) - ball_count_formula(d, n - 1)
        fiber_bound = pair_shell * unit_order
        split_sup = sup_xi_over_splittings(table.q, n)
        rigorous = float(split_sup.value) * sqrt(fiber_bound)
        scale = float(n) ** float(POLYNOMIAL_EXPONENT)
        rows.append(
            Condition1Row(
                n=n,
                sphere_size=size,
                sup_xi=sup,
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
