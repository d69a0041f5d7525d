"""SL2 over the Laurent-polynomial ring and lattice-class vertex coordinates
for the associated (q+1)-regular trees.

A group element acts on the local field at each place; the vertex it moves the
base point to is the homothety class of the lattice spanned by its columns.
Lattice classes are put in a canonical triangular form (diagonal powers of the
uniformizer, off-diagonal entry reduced modulo the larger diagonal power,
homothety-normalized so the smaller diagonal valuation is 0), which is
injective on classes and idempotent.  Canonical forms are gcd-free: column
reduction stays in the Laurent ring, reading the second diagonal exponent off
the determinant's valuation and the off-diagonal entry off a truncated X-adic
series quotient, so no rational function is ever reduced.  An element's tree
length at a place is the depth of the vertex it moves the base point to; the
min-valuation rule and the Smith pivoting over rational functions that check
it are in ``tests/oracles.py``.

The tree's labelling is one closed-form bijection between label paths
(``TreeVertex``) and canonical forms (``vertex_of``, ``form_of``).  The
neighbours of the form (a, b, c) are the q forms (a, b + 1, c + t X^b), t in
F_q, then (a + 1, b, X c), each renormalized; labelling every vertex's
neighbours other than its parent in that order, from the base vertex,
defines the paths.  The parent of a non-root vertex is its last neighbour,
except at (a, 0, 0) with a >= 1, where it is the first.  Going down:

- from (0, b, c) the child t is (0, b + 1, c + t X^b), which appends the
  digit c_b = t;
- the root's child q is (1, 0, 0), and the child q - 1 of (k, 0, 0) is
  (k + 1, 0, 0);
- from (k, 0, c) with k >= 1 a child is (k - 1, 0, X^-1 (c + t)): the new
  digit enters at X^-1 and the earlier ones move down one exponent; at
  c = 0, t = 0 is the parent, so the child t - 1 has the digit t.

So with s = max(0, -v(c)) the form (a, b, c) lies at distance a + b + 2s.
When a + s = 0, c is a polynomial of degree below b and the path is
c_0 ... c_{b-1}.  Otherwise the path is q, then a + s - 1 labels q - 1, then
c_{-s} - 1 (c_{-s} is nonzero), c_{-s+1}, ..., c_{b-1}, every label a field
index.  Read back, the run of q - 1 ends where the digits start, since
c_{-s} - 1 < q - 1; the run gives a + s, the rest gives b + s, and
min(a, b) = 0 gives s.  The breadth-first neighbour expansion this must
equal is the test oracle (``tests/oracles.py``).

The transports move many vertices by many elements, so ``translate_vertex``
reduces every (element, form) pair in one numpy pass: dense coefficient
rows, F_q arithmetic by table, and each image's vertex id (``TreeVertex.id``)
from its form by Horner's rule along the path above; the one-vertex
reduction it must equal is the test oracle.

A canonical form names no place: (a, b, c) is a vertex of either tree, read
in the uniformizer variable of the place it is used at, X at zero and X^-1
at infinity.  Elements act at place zero only (``canonical_vertex``,
``locate`` and ``translate_vertex``).  The tree at infinity is read through
sigma: X -> X^-1 (``SL2Element.substitute_inverse``), an automorphism of the
group that swaps the two places, under which the uniformizer X^-1 becomes X:
g acts on the tree at infinity as sigma(g) acts on the tree at zero, so a
caller reads g at infinity by passing sigma(g).  sigma fixes constants, so an
element of SL2(F_q) acts alike on both trees.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple, Sequence

from .algebra import Fq, LaurentPolynomial, series_quotient
from .trees import TreeVertex, sphere_vertices

if TYPE_CHECKING:
    import numpy as np


class SL2Element:
    """A determinant-1 matrix [[a, b], [c, d]] of Laurent polynomials.

    Immutable.  The determinant is verified at construction (pass
    check=False only when the construction guarantees it algebraically).
    """

    __slots__ = ("a", "b", "c", "d", "field")

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

    def substitute_inverse(self) -> "SL2Element":
        """sigma(g): X -> X^-1 in every entry.  sigma is an involution
        (sigma(sigma(g)) = g) and an automorphism of the group
        (sigma(gh) = sigma(g) sigma(h)) that fixes every element of
        SL2(F_q) and swaps the places zero and infinity, so g acts on the
        tree at infinity as sigma(g) acts on the tree at zero.  It keeps the
        determinant 1, so nothing is checked."""
        return SL2Element(*(e.substitute_inverse() for e in self.entries()), check=False)

    def entries(self) -> tuple[LaurentPolynomial, LaurentPolynomial, LaurentPolynomial, LaurentPolynomial]:
        return (self.a, self.b, self.c, self.d)

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


class LatticeVertex(NamedTuple):
    """Canonical form of a lattice class: basis [[X^a, 0], [c, X^b]] in the
    uniformizer variable of whichever place it is read at, with
    min(a, b) = 0 and the exponents of c strictly below b.  The record
    checks nothing itself: ``_canonical_from_matrix``, which refuses a
    singular matrix, and ``form_of`` make it in that form."""

    diag_low: int
    diag_high: int
    off_diag: LaurentPolynomial

    @property
    def field(self) -> Fq:
        return self.off_diag.field


def _canonical_from_matrix(
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
    return LatticeVertex(a - m, b - m, c)


def canonical_vertex(g: SL2Element) -> LatticeVertex:
    """Canonical form of the lattice spanned by the columns of g at place
    zero; g's form at infinity is ``canonical_vertex(g.substitute_inverse())``."""
    return _canonical_from_matrix(*g.entries())


def vertex_of(form: LatticeVertex) -> TreeVertex:
    """The tree vertex of a canonical form: its label path in closed form
    (module docstring)."""
    q, a, b, c = form.field.q, form.diag_low, form.diag_high, form.off_diag
    s = 0 if c.is_zero() else max(0, -c.low)
    path = [c.coefficient(e) for e in range(-s, b)]
    if a + s:
        if s:
            path[0] -= 1
        path = [q] + [q - 1] * (a + s - 1) + path
    return TreeVertex(q + 1, tuple(path))


def form_of(vertex: TreeVertex) -> LatticeVertex:
    """The canonical form of a tree vertex, the inverse of ``vertex_of``
    (module docstring)."""
    field = Fq(vertex.degree - 1)
    q, path = field.q, vertex.path
    if not path or path[0] < q:
        return LatticeVertex(0, len(path), LaurentPolynomial(field, 0, path))
    run = 1
    while run < len(path) and path[run] == q - 1:
        run += 1
    digits = list(path[run:])
    if digits:
        digits[0] += 1
    # run = a + s, len(digits) = b + s and min(a, b) = 0
    s = min(run, len(digits))
    return LatticeVertex(run - s, len(digits) - s, LaurentPolynomial(field, -s, digits))


class TreeRegistry:
    """The tree around the standard lattice to a fixed radius, in label
    order: ``levels[d]`` lists the (vertex, canonical form) pairs of depth d,
    so their ids (``TreeVertex.id``) increase along it.  Forms name no
    place, so one registry lists the vertices of both trees.

    The labels are the neighbour expansion's from the base vertex: a
    vertex's children are its neighbours other than its parent, in
    neighbour order, and the parent of a non-root vertex is its last
    neighbour, except at (a, 0, 0) with a >= 1, where it is the first.  So
    with s = max(0, -v(c)) the form (a, b, c) has the path c_0 ... c_{b-1}
    when a + s = 0, and otherwise q, then a + s - 1 labels q - 1, then
    c_{-s} - 1, c_{-s+1}, ..., c_{b-1} (module docstring).  Each form is
    read off its vertex's path (``form_of``); the inverse, ``vertex_of``,
    needs no registry.

    Built once and frozen; safe under concurrent readers.
    """

    def __init__(self, q: int, radius: int):
        if radius < 0:
            raise ValueError("negative registry radius")
        self.q = q
        self.radius = radius
        self.levels: list[list[tuple[TreeVertex, LatticeVertex]]] = [
            [(vertex, form_of(vertex)) for vertex in sphere_vertices(q + 1, depth)]
            for depth in range(radius + 1)
        ]


def locate(g: SL2Element) -> TreeVertex:
    """Tree coordinates of the vertex g moves the base point to in the tree
    at zero; ``locate(g.substitute_inverse())`` is g's in the tree at
    infinity."""
    return vertex_of(canonical_vertex(g))


# ---------------------------------------------------------------------------
# lattice canonicalization in bulk


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
    elements: Sequence[SL2Element], forms: Sequence[LatticeVertex]
) -> np.ndarray:
    """The id (``TreeVertex.id``) of the vertex g . v in the tree at zero
    for every element g and canonical form v: an int64 array of shape
    (len(elements), len(forms)), made in one numpy pass.  The images in the
    tree at infinity are those of the elements' sigma-images
    (``SL2Element.substitute_inverse``).

    This is ``_canonical_from_matrix`` on every image basis at once, with
    polynomials as dense uint8 coefficient rows and F_q arithmetic by table.
    g times the basis [[X^a, 0], [c, X^b]] has the columns
    (A, C) = (g_a X^a + g_b c, g_c X^a + g_d c) and (B, D) = (g_b X^b, g_d X^b).
    The pivot column is the one of smaller top valuation a'; g has
    determinant 1, so the image has determinant X^(a + b) and
    b' = a + b - a'.  With m = min(a', b'), the off-diagonal entry is the
    series C X^-m / (A X^-a') below X^(b' - m), solved term by term over the
    exponents from the images' lowest, -s, up to their largest b' - m, and
    the image's id follows from its form by Horner's rule along its label
    path (``vertex_of``).  Raises ValueError for a zero top row or an id
    that would overflow int64.
    """
    import numpy as np

    if not elements or not forms:
        return np.zeros((len(elements), len(forms)), dtype=np.int64)
    q = forms[0].field.q
    add, mul, neg, inv = _field_tables(q)

    g_low, g = _dense([e for x in elements for e in x.entries()])
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
    # s = max(0, -v(c)); a c truncated to zero has v(C X^-m) >= b' - m >= 0
    s = np.where(has_c, np.maximum(0, m - lo - v_c), 0)
    degree, deepest = q + 1, int((diag_low + diag_high + 2 * s).max())
    if (degree ** (deepest + 1) - 1) // (degree - 1) > 2**63:
        raise ValueError(
            f"vertex ids at depth {deepest} of the degree-{degree} tree overflow int64"
        )

    # C X^-m = (A X^-a') quotient over the exponents [low, low + width), term by term
    low = -int(s.max())
    width = max(1, int(diag_high.max()) - low)
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
    # Horner's rule: q, then a' + s - 1 labels q - 1 give the id
    # (degree + 1) degree^(a' + s - 1) - 1, and each digit from X^-s on one more label
    run = diag_low + s
    ids = np.where(run > 0, (degree + 1) * degree ** np.maximum(run - 1, 0) - 1, 0)
    for t, e in enumerate(range(low, low + width)):
        label = quotient[..., t].astype(np.int64) + 1 - ((e == -s) & (s > 0))
        ids = np.where((e >= -s) & (e < diag_high), ids * degree + label, ids)
    return ids
