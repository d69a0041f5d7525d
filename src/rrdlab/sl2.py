"""SL2 over the Laurent-polynomial ring, tree lengths at the two places, and
lattice-class vertex coordinates for the associated (q+1)-regular trees.

A group element acts on the local field at each place; the vertex it moves the
base point to is the homothety class of the lattice spanned by its columns.
Lattice classes are put in a canonical triangular form (diagonal powers of the
uniformizer, off-diagonal entry reduced modulo the larger diagonal power,
homothety-normalized so the smaller diagonal valuation is 0), which is
injective on classes and idempotent.  Canonical forms are gcd-free: column
reduction stays in the Laurent ring, reading the second diagonal exponent off
the determinant's valuation and the off-diagonal entry off a truncated X-adic
series quotient, so no rational function is ever reduced.  (The independent
length oracle, Smith pivoting over rational functions, is in
``tests/oracles.py``.)  A breadth-first registry maps canonical forms to rooted label paths,
giving the bridge from matrix algebra to the tree coordinates used by the
boundary analysis.

Place infinity reuses all place-zero code through the exact substitution
X -> X^-1, under which the uniformizer becomes X again.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

from .algebra import Fq, LaurentPolynomial, Place, series_quotient
from .trees import TreeVertex


def entry_lengths(
    a: LaurentPolynomial, b: LaurentPolynomial, c: LaurentPolynomial, d: LaurentPolynomial
) -> tuple[int, int]:
    """Tree lengths (l0, linf) of the determinant-1 matrix [[a, b], [c, d]].

    At each place the length is -2 times the minimum entry valuation, which
    agrees with the elementary-divisor gap for determinant-1 matrices (the
    Smith computation in ``tests/oracles.py`` is the independent oracle).  The
    minimum is at most 0 at both places because the determinant is 1, so
    starting the scan from 0 changes nothing on the group.
    """
    low = top = 0
    for e in (a, b, c, d):
        if not e.is_zero():
            if e.low < low:
                low = e.low
            if e.top > top:
                top = e.top
    return -2 * low, 2 * top


class SL2Element:
    """A determinant-1 matrix [[a, b], [c, d]] of Laurent polynomials.

    Immutable; the two tree lengths are computed lazily and cached.  The
    determinant is verified at construction (pass check=False only when the
    construction guarantees it algebraically).
    """

    __slots__ = ("a", "b", "c", "d", "field", "__dict__")

    def __init__(
        self,
        a: LaurentPolynomial,
        b: LaurentPolynomial,
        c: LaurentPolynomial,
        d: LaurentPolynomial,
        check: bool = True,
    ):
        self.a, self.b, self.c, self.d = a, b, c, d
        self.field = a.field
        if check:
            det = a * d - b * c
            if not det.is_one():
                raise ValueError(f"determinant violation: det = {det!r}")

    # constructors -----------------------------------------------------------

    @classmethod
    def identity(cls, field: Fq) -> "SL2Element":
        one = LaurentPolynomial.one(field)
        zero = LaurentPolynomial.zero(field)
        return cls(one, zero, zero, one, check=False)

    @classmethod
    def elementary_upper(cls, s: LaurentPolynomial) -> "SL2Element":
        """E12(s) = [[1, s], [0, 1]]."""
        field = s.field
        one = LaurentPolynomial.one(field)
        zero = LaurentPolynomial.zero(field)
        return cls(one, s, zero, one, check=False)

    @classmethod
    def diagonal_shift(cls, field: Fq, k: int) -> "SL2Element":
        """diag(X^k, X^-k)."""
        zero = LaurentPolynomial.zero(field)
        return cls(
            LaurentPolynomial.x_power(field, k),
            zero,
            zero,
            LaurentPolynomial.x_power(field, -k),
            check=False,
        )

    # group operations ---------------------------------------------------------

    def __mul__(self, other: "SL2Element") -> "SL2Element":
        if not isinstance(other, SL2Element):
            return NotImplemented
        return SL2Element(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
            check=False,
        )

    def inverse(self) -> "SL2Element":
        return SL2Element(self.d, -self.b, -self.c, self.a, check=False)

    def entries(self) -> tuple[LaurentPolynomial, LaurentPolynomial, LaurentPolynomial, LaurentPolynomial]:
        return (self.a, self.b, self.c, self.d)

    def is_identity(self) -> bool:
        return self.a.is_one() and self.d.is_one() and self.b.is_zero() and self.c.is_zero()

    # lengths ------------------------------------------------------------------

    @cached_property
    def length_zero(self) -> int:
        return entry_lengths(self.a, self.b, self.c, self.d)[0]

    @cached_property
    def length_infinity(self) -> int:
        return entry_lengths(self.a, self.b, self.c, self.d)[1]

    @cached_property
    def total_length(self) -> int:
        """L = L_zero + L_infinity, the radial variable of the group."""
        return self.length_zero + self.length_infinity

    # serialization --------------------------------------------------------------

    def to_text(self) -> str:
        return "|".join(e.to_text() for e in self.entries())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SL2Element):
            return NotImplemented
        return (
            self.field is other.field
            and self.a == other.a
            and self.b == other.b
            and self.c == other.c
            and self.d == other.d
        )

    def __hash__(self) -> int:
        return hash((self.a, self.b, self.c, self.d))

    def __repr__(self) -> str:
        return f"[[{self.a!r}, {self.b!r}], [{self.c!r}, {self.d!r}]]"


def _to_uniformizer(entry: LaurentPolynomial, place: Place) -> LaurentPolynomial:
    """Rewrite an entry in the local uniformizer variable of the place.

    At place zero the uniformizer is X itself; at place infinity substitute
    X -> X^-1, after which the place-zero code applies verbatim.
    """
    return entry if place is Place.ZERO else entry.substitute_inverse()


@dataclass(frozen=True, slots=True)
class LatticeVertex:
    """Canonical form of a lattice class: basis [[X^a, 0], [c, X^b]] in the
    uniformizer variable of ``place``, with min(a, b) = 0 and the exponents of
    c strictly below b."""

    place: Place
    diag_low: int
    diag_high: int
    off_diag: LaurentPolynomial

    @property
    def field(self) -> Fq:
        return self.off_diag.field

    def key(self) -> tuple[str, int, int, str]:
        return (self.place.value, self.diag_low, self.diag_high, self.off_diag.to_text())

    def to_text(self) -> str:
        return f"a={self.diag_low};b={self.diag_high};{self.off_diag.to_text()}"


def _canonical_from_triangular(
    place: Place, a: int, b: int, c: LaurentPolynomial
) -> LatticeVertex:
    """Normalize an already-triangular basis [[X^a, 0], [c, X^b]]."""
    m = min(a, b)
    a -= m
    b -= m
    c = c.shift(-m)
    # reduce c modulo X^b: keep exponents strictly below b
    if not c.is_zero() and c.top >= b:
        keep = [
            (e, coeff)
            for e, coeff in zip(range(c.low, c.top + 1), c.raw_coefficients)
            if e < b
        ]
        if keep:
            low = keep[0][0]
            out = [0] * (keep[-1][0] - low + 1)
            for e, coeff in keep:
                out[e - low] = coeff
            c = LaurentPolynomial(c.field, low, out)
        else:
            c = LaurentPolynomial.zero(c.field)
    return LatticeVertex(place, a, b, c)


def _canonical_from_matrix(
    place: Place,
    A: LaurentPolynomial,
    B: LaurentPolynomial,
    C: LaurentPolynomial,
    D: LaurentPolynomial,
) -> LatticeVertex:
    """Column-reduce a nonsingular matrix [[A, B], [C, D]] (uniformizer
    variable) to canonical form without leaving the Laurent ring.

    The pivot column has the smaller top-row valuation a = v(A).  Clearing B
    leaves the corner D - (B/A)C = det/A, so b = v(AD - BC) - a.  After the
    homothety by X^-m, m = min(a, b), the off-diagonal entry is the X-adic
    expansion of C X^-m / (A X^-a), kept below X^(b - m).
    """
    if A.is_zero() or (not B.is_zero() and B.low < A.low):
        A, B, C, D = B, A, D, C
    if A.is_zero():
        raise ValueError("degenerate input: zero top row")
    a = A.low
    det = A * D - B * C
    if det.is_zero():
        raise ValueError("degenerate input: matrix not invertible over the field")
    b = det.low - a
    m = min(a, b)
    c = series_quotient(C.shift(-m), A.shift(-a), b - m)
    return LatticeVertex(place, a - m, b - m, c)


def canonical_vertex(g: SL2Element, place: Place) -> LatticeVertex:
    """Canonical form of the lattice spanned by the columns of g at the place."""
    return _canonical_from_matrix(place, *(_to_uniformizer(e, place) for e in g.entries()))


def base_vertex(field: Fq, place: Place) -> LatticeVertex:
    return LatticeVertex(place, 0, 0, LaurentPolynomial.zero(field))


def vertex_neighbors(v: LatticeVertex) -> list[LatticeVertex]:
    """The q+1 classes of index-q sublattices: one per residue line.

    q of them come from lines through shifted first basis vectors, the last
    from scaling the first basis vector by the uniformizer.
    """
    field = v.field
    q = field.q
    a, b, c = v.diag_low, v.diag_high, v.off_diag
    out = []
    for t in range(q):
        shift_c = c + LaurentPolynomial.x_power(field, b, t) if t else c
        out.append(_canonical_from_triangular(v.place, a, b + 1, shift_c))
    out.append(_canonical_from_triangular(v.place, a + 1, b, c.shift(1)))
    return out


def translate_vertex(g: SL2Element, v: LatticeVertex) -> LatticeVertex:
    """Canonical form of g . v (matrix times basis, then reduction)."""
    ga, gb, gc, gd = (_to_uniformizer(e, v.place) for e in g.entries())
    # g times the basis columns (X^a, c) and (0, X^b)
    a, b, c = v.diag_low, v.diag_high, v.off_diag
    return _canonical_from_matrix(
        v.place, ga.shift(a) + gb * c, gb.shift(b), gc.shift(a) + gd * c, gd.shift(b)
    )


class TreeRegistry:
    """Breadth-first bijection between canonical lattice forms and label paths.

    Built once to a fixed radius around the standard lattice and frozen;
    lookups after that are safe under concurrent readers.  Child labels are
    assigned in sorted canonical-key order, so the registry is reproducible
    byte for byte.
    """

    def __init__(self, q: int, place: Place, radius: int):
        if radius < 0:
            raise ValueError("negative registry radius")
        self.q = q
        self.place = place
        self.radius = radius
        self.degree = q + 1
        self.field = Fq(q)
        self._by_key: dict[tuple, TreeVertex] = {}
        self._by_path: dict[tuple[int, ...], LatticeVertex] = {}
        self._build()

    def _build(self) -> None:
        root_form = base_vertex(self.field, self.place)
        root = TreeVertex.root(self.degree)
        self._by_key[root_form.key()] = root
        self._by_path[()] = root_form
        frontier = [(root, root_form)]
        for _ in range(self.radius):
            nxt = []
            for vertex, form in frontier:
                fresh = []
                for nb in vertex_neighbors(form):
                    if nb.key() not in self._by_key:
                        fresh.append(nb)
                fresh.sort(key=lambda f: f.key())
                expected = self.degree if vertex.is_root() else self.degree - 1
                if len(fresh) != expected:
                    raise RuntimeError(
                        f"registry build inconsistency at {vertex!r}: "
                        f"{len(fresh)} fresh neighbors, expected {expected}"
                    )
                for label, nb in enumerate(fresh):
                    child = vertex.child(label)
                    self._by_key[nb.key()] = child
                    self._by_path[child.path] = nb
                    nxt.append((child, nb))
            frontier = nxt

    def locate_form(self, form: LatticeVertex) -> TreeVertex:
        try:
            return self._by_key[form.key()]
        except KeyError:
            raise ValueError(
                f"lattice vertex outside registry radius {self.radius}: {form.to_text()}"
            ) from None

    def vertices_at_depths(
        self, depths: Iterable[int]
    ) -> dict[int, list[tuple[TreeVertex, LatticeVertex]]]:
        """The vertices at each of ``depths`` with their canonical forms, in
        label order."""
        out: dict[int, list[tuple[TreeVertex, LatticeVertex]]] = {d: [] for d in depths}
        for path, form in self._by_path.items():
            if len(path) in out:
                out[len(path)].append((TreeVertex(self.degree, path), form))
        return out

    def form_at(self, vertex: TreeVertex) -> LatticeVertex:
        try:
            return self._by_path[vertex.path]
        except KeyError:
            raise ValueError(
                f"path {vertex.to_text()!r} outside registry radius {self.radius}"
            ) from None


def locate(g: SL2Element, place: Place, registry: TreeRegistry) -> TreeVertex:
    """Tree coordinates of the vertex g moves the base point to."""
    if registry.place is not place:
        raise ValueError(f"registry is for place {registry.place}, not {place}")
    return registry.locate_form(canonical_vertex(g, place))
