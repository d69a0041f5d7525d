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
``tests/oracles.py``.)  A registry expands the tree from the base vertex
by labels, each vertex's children being its neighbours not registered yet
in ``vertex_neighbors`` order; it maps canonical forms to rooted label
paths, giving the bridge from matrix algebra to the tree coordinates used
by the boundary analysis.

The transports move many vertices by many elements, so ``translate_vertex``
reduces every (element, form) pair of one place in one numpy pass: dense
coefficient rows, F_q arithmetic by table, and an integer code per canonical
form, looked up among the codes the registry builds once.  It returns vertex
ids (``TreeVertex.id``), not forms; the one-vertex reduction it must equal
is the test oracle.

Place infinity reuses all place-zero code through the exact substitution
X -> X^-1, under which the uniformizer becomes X again.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Sequence

from .algebra import Fq, LaurentPolynomial, Place, series_quotient
from .trees import TreeVertex

if TYPE_CHECKING:
    import numpy as np


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


class TreeRegistry:
    """The label expansion of the tree around the standard lattice, to a
    fixed radius: the base vertex is the root, and each vertex's children
    are its ``vertex_neighbors`` not registered yet, labelled in that order.
    ``levels[d]`` lists the (vertex, canonical form) pairs of depth d in
    label order, so their ids (``TreeVertex.id``) increase along it.

    Built once and frozen; lookups after that are safe under concurrent
    readers.
    """

    def __init__(self, q: int, place: Place, radius: int):
        if radius < 0:
            raise ValueError("negative registry radius")
        self.q = q
        self.place = place
        self.radius = radius
        self.degree = q + 1
        self.field = Fq(q)
        root = TreeVertex.root(self.degree)
        root_form = base_vertex(self.field, place)
        self._vertices: dict[LatticeVertex, TreeVertex] = {root_form: root}
        self.levels: list[list[tuple[TreeVertex, LatticeVertex]]] = [[(root, root_form)]]
        for _ in range(radius):
            level = []
            for vertex, form in self.levels[-1]:
                fresh = [nb for nb in vertex_neighbors(form) if nb not in self._vertices]
                expected = self.degree if vertex.is_root() else self.degree - 1
                if len(fresh) != expected:
                    raise RuntimeError(
                        f"registry build inconsistency at {vertex!r}: "
                        f"{len(fresh)} fresh neighbors, expected {expected}"
                    )
                for label, nb in enumerate(fresh):
                    child = vertex.child(label)
                    self._vertices[nb] = child
                    level.append((child, nb))
            self.levels.append(level)

    @cached_property
    def codes(self) -> tuple[np.ndarray, np.ndarray]:
        """The code of every registered form (``_form_code``), sorted, and the
        id of its vertex (``TreeVertex.id``), as int64 arrays; built on first
        use, so only the transports load numpy.  Raises ValueError before any
        code is built when a code could overflow int64 (``code_window``)."""
        import numpy as np

        low, width = code_window(self.q, self.radius)
        pairs = sorted(
            (_form_code(form, self.radius, low, width), vertex.id)
            for level in self.levels
            for vertex, form in level
        )
        return np.array([c for c, _ in pairs]), np.array([i for _, i in pairs])

    def locate_form(self, form: LatticeVertex) -> TreeVertex:
        try:
            return self._vertices[form]
        except KeyError:
            raise ValueError(
                f"lattice vertex outside registry radius {self.radius}: {form.to_text()}"
            ) from None


def locate(g: SL2Element, place: Place, registry: TreeRegistry) -> TreeVertex:
    """Tree coordinates of the vertex g moves the base point to."""
    if registry.place is not place:
        raise ValueError(f"registry is for place {registry.place}, not {place}")
    return registry.locate_form(canonical_vertex(g, place))


# ---------------------------------------------------------------------------
# lattice canonicalization in bulk


def code_window(q: int, radius: int) -> tuple[int, int]:
    """The exponents [low, low + width) that the off-diagonal entry of a
    canonical form within ``radius`` of the base vertex can have.

    The form (a, b, c) lies at distance a + b - 2 min(0, v(c)), so within
    the radius a, b <= radius and c's exponents are at least -(radius // 2)
    and below b.  A code (``_form_code``) is below (radius + 1)^2 q^width;
    raises ValueError when that does not fit in int64.
    """
    low = -(radius // 2)
    width = radius - low
    if (radius + 1) ** 2 * q**width > 2**63:
        raise ValueError(
            f"canonical form codes at q = {q} and registry radius {radius} overflow int64"
        )
    return low, width


def _form_code(form: LatticeVertex, radius: int, low: int, width: int) -> int:
    """The integer code of a canonical form within ``radius``: (a, b) in base
    radius + 1, above the coefficients of c over the exponents
    [low, low + width) in base q (``code_window``)."""
    q, c = form.field.q, form.off_diag
    digits = sum(coeff * q ** (e - low) for e, coeff in enumerate(c.raw_coefficients, c.low))
    return (form.diag_low * (radius + 1) + form.diag_high) * q**width + digits


def _field_tables(q: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """F_q's addition and multiplication tables and its negation and
    inversion maps (0 to 0), on element indices, as uint8 arrays.  Built on
    each call: q^2 entries take tens of microseconds at q <= 4."""
    import numpy as np

    if q > 256:
        raise ValueError(f"the bulk translation holds F_q elements in uint8, so q <= 256, not {q}")
    field = Fq(q)
    add = np.array([[field.add(x, y) for y in range(q)] for x in range(q)], dtype=np.uint8)
    mul = np.array([[field.mul(x, y) for y in range(q)] for x in range(q)], dtype=np.uint8)
    neg = np.array([field.neg(x) for x in range(q)], dtype=np.uint8)
    inv = np.array([0] + [field.inv(x) for x in range(1, q)], dtype=np.uint8)
    return add, mul, neg, inv


def _dense(polys: Sequence[LaurentPolynomial]) -> tuple[int, np.ndarray]:
    """The polynomials' coefficients as uint8 rows over one run of exponents,
    with its lowest exponent."""
    import numpy as np

    nonzero = [p for p in polys if not p.is_zero()]
    low = min((p.low for p in nonzero), default=0)
    top = max((p.top for p in nonzero), default=low)
    rows = np.zeros((len(polys), top - low + 1), dtype=np.uint8)
    for row, p in zip(rows, polys):
        if not p.is_zero():
            row[p.low - low : p.top - low + 1] = p.raw_coefficients
    return low, rows


def _shifted(rows: np.ndarray, shifts: np.ndarray, start: int, span: int) -> np.ndarray:
    """Row e of ``rows`` times X^shifts[l], for every e and l: shape
    (len(rows), len(shifts), span), row e's first coefficient at column
    start + shifts[l]."""
    import numpy as np

    out = np.zeros((len(rows), len(shifts), span), dtype=rows.dtype)
    columns = start + shifts[:, None] + np.arange(rows.shape[1])
    out[:, np.arange(len(shifts))[:, None], columns] = rows[:, None, :]
    return out


def _lowest(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The column of the first nonzero coefficient along the last axis, and
    whether there is one."""
    nonzero = rows != 0
    return nonzero.argmax(axis=-1), nonzero.any(axis=-1)


def _window(rows: np.ndarray, starts: np.ndarray, width: int) -> np.ndarray:
    """Columns starts .. starts + width - 1 of each row (zero outside it)."""
    import numpy as np

    index = starts[..., None] + np.arange(width)
    inside = (index >= 0) & (index < rows.shape[-1])
    taken = np.take_along_axis(rows, np.clip(index, 0, rows.shape[-1] - 1), axis=-1)
    return np.where(inside, taken, 0).astype(rows.dtype)


def translate_vertex(
    elements: Sequence[SL2Element], forms: Sequence[LatticeVertex], registry: TreeRegistry
) -> np.ndarray:
    """The id (``TreeVertex.id``) of the vertex g . v in ``registry`` for every
    element g and canonical form v of the registry's place: an int64 array
    of shape (len(elements), len(forms)), made in one numpy pass.

    This is ``_canonical_from_matrix`` on every image basis at once, with
    polynomials as dense uint8 coefficient rows and F_q arithmetic by table.
    g times the basis [[X^a, 0], [c, X^b]] has the columns
    (A, C) = (g_a X^a + g_b c, g_c X^a + g_d c) and (B, D) = (g_b X^b, g_d X^b).
    The pivot column is the one of smaller top valuation a'; g has
    determinant 1, so the image has determinant X^(a + b) and
    b' = a + b - a'.  With m = min(a', b'), the off-diagonal entry is the
    series C X^-m / (A X^-a') below X^(b' - m), solved term by term over the
    code window (``code_window``), and the image's code (``_form_code``) is
    looked up among the registry's (``TreeRegistry.codes``).  Raises
    ValueError for a zero top row, and for an image outside the registry
    radius: one whose form leaves the code window, or whose code is not
    registered.
    """
    import numpy as np

    place, q, radius = registry.place, registry.q, registry.radius
    if any(form.place is not place for form in forms):
        raise ValueError(f"forms must be at the registry's place {place.value}")
    if not elements or not forms:
        return np.zeros((len(elements), len(forms)), dtype=np.int64)
    low, width = code_window(q, radius)
    codes, ids = registry.codes
    add, mul, neg, inv = _field_tables(q)

    g_low, g = _dense([_to_uniformizer(e, place) for x in elements for e in x.entries()])
    g = g.reshape(len(elements), 4, -1)
    c_low, c = _dense([form.off_diag for form in forms])
    a = np.array([form.diag_low for form in forms])
    b = np.array([form.diag_high for form in forms])
    # one run of exponents [lo, lo + span) holds all four entries of every image
    lo = g_low + min(0, c_low)
    span = g_low + g.shape[2] + max(int(a.max()), int(b.max()), c_low + c.shape[1] - 1) - lo

    def column(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """x X^a + y c, for the rows x, y of the elements' entries."""
        out = _shifted(x, a, g_low - lo, span)
        start = g_low + c_low - lo
        for i in range(c.shape[1]):
            part = out[..., start + i : start + i + g.shape[2]]
            part[...] = add[part, mul[y[:, None, :], c[None, :, i, None]]]
        return out

    top_a, bottom_a = column(g[:, 0], g[:, 1]), column(g[:, 2], g[:, 3])
    top_b, bottom_b = (_shifted(g[:, k], b, g_low - lo, span) for k in (1, 3))
    v_a, has_a = _lowest(top_a)
    v_b, has_b = _lowest(top_b)
    if not (has_a | has_b).all():
        raise ValueError("degenerate input: zero top row")
    swap = ~has_a | (has_b & (v_b < v_a))
    pivot = np.where(swap[..., None], top_b, top_a)
    lower = np.where(swap[..., None], bottom_b, bottom_a)
    a1 = np.where(swap, v_b, v_a) + lo
    b1 = a + b - a1
    m = np.minimum(a1, b1)
    diag_low, diag_high = a1 - m, b1 - m
    v_c, has_c = _lowest(lower)
    outside = (diag_low > radius) | (diag_high > radius) | (has_c & (v_c + lo - m < low))
    if outside.any():
        raise _outside(outside, elements, forms, radius)

    # C X^-m = (A X^-a') quotient over the window, term by term
    unit = _window(pivot, a1 - lo, width)
    numerator = _window(lower, low + m - lo, width)
    quotient = np.zeros_like(numerator)
    inverse = inv[unit[..., 0]]
    reach = int(np.flatnonzero(unit.any(axis=(0, 1)))[-1])
    for t in range(width):
        known = np.zeros_like(inverse)
        for i in range(1, min(t, reach) + 1):
            known = add[known, mul[unit[..., i], quotient[..., t - i]]]
        quotient[..., t] = mul[add[numerator[..., t], neg[known]], inverse]
    digits = np.where(low + np.arange(width) < diag_high[..., None], quotient, 0)
    packed = (diag_low * (radius + 1) + diag_high) * q**width + digits.astype(np.int64) @ (
        q ** np.arange(width)
    )
    found = np.minimum(np.searchsorted(codes, packed), len(codes) - 1)
    missing = codes[found] != packed
    if missing.any():
        raise _outside(missing, elements, forms, radius)
    return ids[found]


def _outside(
    bad: np.ndarray, elements: Sequence[SL2Element], forms: Sequence[LatticeVertex], radius: int
) -> ValueError:
    """The error for the first (element, form) pair flagged in ``bad``."""
    import numpy as np

    e, f = (int(i) for i in np.argwhere(bad)[0])
    return ValueError(
        f"lattice vertex outside registry radius {radius}: the image of "
        f"{forms[f].to_text()} under {elements[e].to_text()}"
    )
