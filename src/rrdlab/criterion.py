"""Criterion engine for the rapid-decay certificate.

Exact side: the sup norm U_n of the normalized mean over a sphere applied
to the constant function (the working certificate: the mean's 2-norm is
dominated by the sup norm of its value on the constant function).  Every
coset's term at a depth-(n, n) cell is the positive rational
q^(gp0+gp1) / (c(l0) c(l1)), so U_n is computed from Python integers over
one common denominator.  Floating side: power iteration on measure-weighted
compressions (always a lower bound, so the exact sup norms must dominate
them) and convolution-operator lower bounds on group balls; numpy is
imported by the floating-side functions themselves, so the exact side never
loads it.  Both power iterations run on entrywise nonnegative positive
semidefinite operators and start from the positive uniform unit vector,
which by Perron-Frobenius reaches the largest eigenvalue, so no start is
drawn at random.  The mean as an exact step function of
``AlgebraicValue``s, the exact Koopman matrices and the operator form of
the mean, which check both sides, live with the tests
(``tests/oracles.py``).

Both sides read a sphere as the table's list of right cosets rK of
K = SL2(F_q) (``SphereTable.cosets``): the pair scan's representatives with
their located pairs (r . o_0, r . o_inf), which every member of rK shares,
so nothing is located here.  Both sides weigh the coset rK by the same
Fraction w_r = 1 / (#cosets c(l0) c(l1)) (``coset_weights``), with (l0, l1)
the tree lengths of its located pair, and a transport carries the integer
exponent c of q^c, c the common prefix of w = r . o and an output cylinder:
the member weight 1 / (|C_n| Xi) times the two cocycle weights q^(beta/2) is
w_r q^(c0 + c1) / |K|.  A compression transports only the representatives:
a member r k acts as r after k permutes the input cylinders, so its Gram
matrix is P_K C P_K, with C a sum over pairs of representatives in those
weights (the 1 / |K| of each factor cancels the |K| of the average over K)
and P_K the projection onto the functions constant on the K-orbits of the
input cells.  The power iteration runs on Q^T C Q, with Q the normalised
orbit indicators (one row per orbit), and Q^T C Q is unchanged when K moves
both representatives of a pair on the left, so it is summed with one
representative per double coset K r K.  No cells x cells array is
formed: each pair-block product is added into the orbit pairs one input
cylinder of place zero at a time, through keys of size^3 entries shared
by every such block, and ``check_compression_budget`` bounds the work per
double coset before anything is built.  One pass
(``transport_sphere``) serves every compression depth of a sphere: one
``sl2.translate_vertex`` call moves the deepest input cylinders and the
cosets' located vertices at both places by every element of K (K's entries
are constants, which sigma: X -> X^-1 fixes, so K acts alike on both
trees), and two more move the deepest input cylinders, one by the
representatives and one by their sigma-images
(``SL2Element.substitute_inverse``, which read the tree at infinity), as
vertex ids; the leaves are in label order, so the shallower images and K's
action at each depth are strides of the leaves' columns, and the double
cosets follow, once per sphere, by looking the moved located pairs up.
One orbit rule (``_orbit_labels``) labels both the K-orbits of the input
cells and the double cosets.
The transports of the representatives at one depth and place are one numpy
pass over vertex ids per chunk of ROW_BLOCK cosets: an output cylinder's
column is the input cylinder whose image is the point at that depth's
distance on the geodesic from r . o to it.  The convolution reads the
ball's cosets too: L(g h^-1) depends only on the located pairs of g^-1 and
h^-1, so its matrix over the ball is E M' E^T with M' indexed by the cosets
and E^T E = |K| I.

Vertex ids (``TreeVertex.id``) are the floating side's only vertex
coordinate: cylinders of one depth are their positions in label order, and
common prefixes and distances are read off the ids of a vertex's prefixes.
The ids of one depth are built in label order from their digits
(``_sphere_ids``), the input cylinders' lattice forms are read off the
label paths of ``trees.sphere_vertices`` (``sl2.form_of``), and
``translate_vertex`` gives every image's id in closed form, so nothing here
needs a tree registry.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import TYPE_CHECKING, Callable, NamedTuple, Sequence

from . import CACHE_MAJOR_VERSION, __version__
from .algebra import AlgebraicValue, Fq, plain
from .boundary import spherical_coefficient
from .lamplighter import exponential_certificate, h_ball_growth
from .sl2 import SL2Element, form_of, translate_vertex
from .spheres import (
    PROVENANCE_PAIRS,
    Coset,
    SphereTable,
    candidate_pair_counts,
    condition_one_certificate,
    constant_group,
)
from .trees import (
    RadiusBudgetError,
    gromov_product,
    sphere_size,
    sphere_vertices,
)

if TYPE_CHECKING:
    import numpy as np

TOLERANCE = 1e-10
MAX_ITERS = 10_000
CHAIN_SLACK = 1e-8
BASE_IDENTITY_TOL = 1e-6
MAX_MEAN_LENGTH = 4
DEFAULT_U_THRESHOLD = 8.0
# Largest dense matrix, in entries: a compression's core, one product
# entry per pair of input cells, which bounds its work per double coset
# (the core itself is never formed), q = 2 up to depth 5 (5.3 million) and
# q = 3 up to depth 3 (1.7 million); and the convolution matrix on a ball's
# cosets, the one float64 array of that size it holds (80 MB; its square is
# never formed), q = 2 up to radius 8 (2.4 million) and q = 3 up to radius
# 4 (68,121)
CORE_BUDGET = 10_000_000
# Cosets per chunk of a compression's transports and pair blocks, so that
# no working array beside the arrays they return spans every coset
ROW_BLOCK = 32


def json_threshold(value: float) -> float | None:
    """A threshold as it is written to JSON, which has no infinity: +inf
    (no bound at all) becomes null.  The command line refuses nan and -inf."""
    return float(value) if math.isfinite(value) else None


# ---------------------------------------------------------------------------
# cylinder transports


class SphereTransports(NamedTuple):
    """The representatives' transports of sphere n for every input depth up
    to ``depth``, at both places, as vertex ids (``TreeVertex.id``), and the
    sphere's double cosets.

    Three ``translate_vertex`` calls: one moves the base of every
    depth-``depth`` input cylinder (a leaf, in label order) and every
    coset's located vertex at both places by every element k of K, listed
    in ``group``; K's entries are constants, which sigma: X -> X^-1 fixes,
    so that is its action on both trees.  The other two, one for the
    representatives r and one for their sigma-images, which act on the tree
    at zero as r acts on the tree at infinity, move the leaves alone (the
    located vertices' images under r are never read).  actions[k, leaf] is
    the position of k . leaf among the leaves (-1 where it is none of them),
    at either place; images[place][coset, leaf] is the id of r . leaf, and
    centers[place][coset] that of w = r . o, read off the coset's located
    pair, place 0 being zero and 1 infinity; w's common prefix with an
    output cylinder is the transport's weight exponent (``_transports_at``).
    r is an isometry, so the image of a shallower base v is the point at
    distance d(o, v) from w on the geodesic [w, r . leaf], for any leaf
    below v (``_points_at``);
    likewise k fixes the root, so K's action at a shallower depth is its
    action on the leaves truncated.  The leaves
    are in label order, so each depth-k cylinder is one contiguous block of
    ``block = sphere_size(q + 1, depth) // sphere_size(q + 1, k)`` leaves,
    the i-th starting at leaf ``block * i``: both are read off the columns
    ``[:, ::block]``, and a leaf's position floor-divided by ``block`` is
    its depth-k cylinder's.  doubles[coset] is the position in table order
    of the first coset of its double coset K r K (``transport_sphere``).
    """

    table: SphereTable
    n: int
    depth: int
    group: list[SL2Element]
    centers: tuple[np.ndarray, np.ndarray]
    images: tuple[np.ndarray, np.ndarray]
    actions: np.ndarray
    doubles: np.ndarray

    @property
    def cosets(self) -> tuple[Coset, ...]:
        return self.table.cosets(self.n)


def transport_sphere(table: SphereTable, n: int, depth: int) -> SphereTransports:
    """Move every leaf of the depth-``depth`` input cylinders and every
    located vertex of sphere n by K, once, and every leaf by the sphere's
    representatives at both places: three ``translate_vertex`` calls,
    (|K|, leaves + 2 cosets), then (cosets, leaves) one for the
    representatives and one for their sigma-images.  A constant element
    fixes the root, so K's images of leaves are leaves; one that is not is
    marked -1 and refused by ``_cell_orbits``.  It also keeps both tree
    lengths, and a right coset is determined by its located pair (K is the
    stabiliser of (o_0, o_inf)), so k r K is the coset of sphere n whose
    located pair is k . (w0, w1): the first k, in the order of K, that moves
    a pair off the sphere is refused, and the double cosets are the orbits
    of this action (``_orbit_labels``).  An empty sphere, a negative depth
    and a core over CORE_BUDGET (``check_compression_budget``) are refused
    before any translation."""
    import numpy as np

    cosets = table.cosets(n)
    if not cosets:
        raise ValueError(f"sphere {n} is empty")
    if depth < 0:
        raise ValueError(f"negative depth {depth}")
    check_compression_budget(table.q, depth)
    group = [k for k, _, _ in constant_group(Fq(table.q))]
    representatives = [coset.representative for coset in cosets]
    # the leaves in label order, the order of their ids
    leaves = list(sphere_vertices(table.q + 1, depth))
    leaf_ids = _sphere_ids(table.q + 1, depth)
    leaf_forms = [form_of(v) for v in leaves]
    located = [coset.vertex(place_index) for place_index in (0, 1) for coset in cosets]
    rows = translate_vertex(group, leaf_forms + [form_of(v) for v in located])
    k_rows = rows[:, : len(leaves)]
    positions = np.minimum(np.searchsorted(leaf_ids, k_rows), len(leaf_ids) - 1)
    actions = np.where(leaf_ids[positions] == k_rows, positions, -1)
    mirrored = [r.substitute_inverse() for r in representatives]
    images = tuple(translate_vertex(x, leaf_forms) for x in (representatives, mirrored))
    centers = np.array([v.id for v in located], dtype=np.int64).reshape(2, len(cosets))
    # K's action on the cosets: the position of every moved located pair
    position = {pair: index for index, pair in enumerate(zip(*centers.tolist()))}
    moved = rows[:, len(leaves) :].reshape(len(group), 2, len(cosets)).tolist()
    coset_images = np.array(
        [[position.get(pair, -1) for pair in zip(row0, row1)] for row0, row1 in moved],
        dtype=np.int64,
    )
    lost = coset_images < 0
    if lost.any():
        index, coset = divmod(int(np.argmax(lost)), len(cosets))
        raise RuntimeError(
            f"{group[index].to_text()} moves the located pair of "
            f"{representatives[coset].to_text()} off sphere {n}"
        )
    doubles = _orbit_labels(group, coset_images, f"the double cosets of sphere {n}")
    return SphereTransports(table, n, depth, group, tuple(centers), images, actions, doubles)


def _orbit_labels(group: Sequence[SL2Element], images: np.ndarray, what: str) -> np.ndarray:
    """The K-orbit label of every item, from K's action given as
    images[k, item], the position of k . item: its smallest image, which is
    the first item of its orbit, since the identity is in K.  A labelling
    that some k does not preserve means the images are not the group
    action, whose orbits the labels read; the first such k in the order of
    K is refused."""
    import numpy as np

    labels = images.min(axis=0)
    moved = np.any(labels[images] != labels, axis=1)
    if moved.any():
        raise RuntimeError(f"{group[int(np.argmax(moved))].to_text()} does not preserve {what}")
    return labels


def _sphere_ids(degree: int, depth: int) -> np.ndarray:
    """The ids (``TreeVertex.id``) of the depth-``depth`` vertices in label
    order, the order of ``trees.sphere_vertices``: a path's bijective
    base-degree digits are its labels plus one, the first in 1..degree and
    every later one in 1..degree - 1."""
    import numpy as np

    ids = np.zeros(1, dtype=np.int64)
    for position in range(depth):
        digits = np.arange(1, degree if position else degree + 1, dtype=np.int64)
        ids = (ids[:, None] * degree + digits).ravel()
    return ids


def _prefix_ids(ids: np.ndarray, degree: int, width: int) -> np.ndarray:
    """The ids of every prefix of the vertices with the given ids (any
    shape, depths at most ``width``): a new last axis whose column m holds
    the id of the depth-m ancestor, or -1 past the vertex's depth.  The ids
    of depth m are the integers from (degree^m - 1) / (degree - 1) up to the
    next such bound, and a parent's id is (id - 1) // degree."""
    import numpy as np

    starts = (degree ** np.arange(width + 2) - 1) // (degree - 1)
    depths = np.searchsorted(starts, ids, side="right") - 1
    out = np.full(ids.shape + (width + 1,), -1, dtype=np.int64)
    current = ids
    for m in range(width, -1, -1):
        deep = depths >= m
        out[..., m] = np.where(deep, current, -1)
        current = np.where(deep, (current - 1) // degree, current)
    return out


def _common_prefix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The common-prefix length of the vertices whose prefix ids
    (``_prefix_ids``) are the last-axis rows of ``a`` and ``b``, broadcast
    over the other axes: the number of depths m >= 1 where both hold the
    same id.  Ids are unique, so equal depth-m prefixes have equal shorter
    ones, and the -1 past a vertex's depth never counts.  Counted one depth
    at a time in int16, so no array has more than one entry per pair."""
    import numpy as np

    common = np.zeros(np.broadcast_shapes(a.shape[:-1], b.shape[:-1]), dtype=np.int16)
    for m in range(1, min(a.shape[-1], b.shape[-1])):
        common += (a[..., m] == b[..., m]) & (a[..., m] >= 0)
    return common


def _points_at(
    w_ids: np.ndarray, lengths: np.ndarray, targets: np.ndarray, distance: int
) -> tuple[np.ndarray, np.ndarray]:
    """For each vertex w (a row of prefix ids, of depth ``lengths``) and each
    target t in its row of ``targets`` (prefix ids with one more axis; a
    single row broadcasts): the id of the point at ``distance`` from w on
    the geodesic [w, t], and the common-prefix length c of w and t.

    The geodesic climbs from w to depth c, then descends to t, so the point
    is w's prefix at depth |w| - distance when distance <= |w| - c, and t's
    prefix at depth distance + 2c - |w| otherwise (d(w, t) >= distance).
    """
    import numpy as np

    common = _common_prefix(w_ids[:, None], targets)
    lengths = lengths[:, None]
    on_w = np.take_along_axis(w_ids, np.maximum(lengths - distance, 0), axis=1)
    descent = np.maximum(distance + 2 * common - lengths, 0)
    on_t = np.take_along_axis(targets, descent[..., None], axis=2)[..., 0]
    return np.where(distance <= lengths - common, on_w, on_t), common


def _transports_at(
    transports: SphereTransports, place_index: int, depth: int
) -> tuple[np.ndarray, np.ndarray]:
    """Each representative's transport at one place for the depth-``depth``
    input cylinders, one row per coset: the input column and the weight
    exponent of every output cylinder z (depth n + ``depth``), the common
    prefix c of w = r . o and z, in 0 .. n.  z's cocycle weight is
    q^(beta/2) = q^c q^(-|w|/2); the q^(-|w|/2) of both places belongs to
    the coset, and with its 1 / Xi it makes w_r / |K| (``coset_weights``),
    so c is U_n's Gromov product gp of w with the depth-n cell that holds z.

    The cosets are done ROW_BLOCK at a time, in table order, each chunk in
    one pass, so no working array spans every coset; each coset's row is
    independent of the others.  With w = r . o, the image y_j of input
    cylinder j is the point at distance ``depth`` from w on [w, r . leaf]
    for the first leaf below it (a stride of the leaves, see
    ``SphereTransports``), and z's column is the j with y_j = p(z), the
    point at that distance on [w, z].  The images must partition the boundary:
    every y_j lies at distance ``depth`` from w, so that holds when the y_j
    are distinct and every p(z) is one of them, which is checked for every
    coset, place and depth, the first failing coset in table order named.
    A transport matrix has exactly one nonzero entry per output row, so
    two (R, #out cells) arrays hold it, both in the narrowest unsigned
    dtype.
    """
    import numpy as np

    cosets = transports.cosets
    n, q = transports.n, transports.table.q
    degree = q + 1
    size = sphere_size(degree, depth)
    w_ids = _prefix_ids(transports.centers[place_index], degree, n)
    lengths = (w_ids >= 0).sum(axis=1) - 1
    # the first leaf of every depth-``depth`` cylinder, one block of leaves
    block = sphere_size(degree, transports.depth) // size
    out = _sphere_ids(degree, n + depth)
    out_ids = _prefix_ids(out, degree, n + depth)
    columns = np.empty((len(cosets), len(out)), dtype=np.min_scalar_type(size - 1))
    weights = np.empty((len(cosets), len(out)), dtype=np.min_scalar_type(n))
    for first in range(0, len(cosets), ROW_BLOCK):
        chunk = slice(first, first + ROW_BLOCK)
        leaf_ids = _prefix_ids(
            transports.images[place_index][chunk, ::block], degree, n + transports.depth
        )
        image_ids, _ = _points_at(w_ids[chunk], lengths[chunk], leaf_ids, depth)
        point_ids, common = _points_at(w_ids[chunk], lengths[chunk], out_ids[None], depth)
        # look every p(z) up among its own row's images: sorted rows, offset
        # so that the rows follow one another in one sorted key array
        order = np.argsort(image_ids, axis=1)
        ranked = np.take_along_axis(image_ids, order, axis=1)
        offsets = (max(ranked.max(), point_ids.max()) + 1) * np.arange(len(ranked))[:, None]
        keys = (ranked + offsets).ravel()
        queries = point_ids + offsets
        found = np.minimum(np.searchsorted(keys, queries), keys.size - 1)
        partitions = np.all(ranked[:, 1:] != ranked[:, :-1], axis=1) & np.all(
            keys[found] == queries, axis=1
        )
        if not partitions.all():
            raise RuntimeError(
                "transported cylinder images fail to partition the boundary "
                f"(place {('zero', 'infinity')[place_index]}, element "
                f"{cosets[first + int(np.argmin(partitions))].representative.to_text()})"
            )
        columns[chunk] = order.ravel()[found]
        weights[chunk] = common
    return columns, weights


def _cell_orbits(transports: SphereTransports, depth: int) -> np.ndarray:
    """The K-orbit label of every input cell (j, l) of depth ``depth``,
    flattened as j * size + l.  Orbits are numbered in the order of their
    first cells.

    k moves cell (j, l) to (perm_k[j], perm_k[l]), perm the leaf action at
    the first leaf of every cylinder, floor-divided by the block size
    (``SphereTransports``), which keeps the -1 of a leaf sent off the
    leaves; K acts alike on both trees.  One that is no permutation would
    silently drop and double input cylinders, and is refused at every depth,
    in the order of K, before the orbits are labelled (``_orbit_labels``).
    """
    import numpy as np

    degree = transports.table.q + 1
    size = sphere_size(degree, depth)
    block = sphere_size(degree, transports.depth) // size
    group = transports.group
    # perm[k] = k's action on the cylinders of this depth
    perm = transports.actions[:, ::block] // block
    broken = np.any(np.sort(perm, axis=1) != np.arange(size), axis=1)
    if broken.any():
        raise RuntimeError(
            f"{group[int(np.argmax(broken))].to_text()} does not permute the input cylinders"
        )
    images = (perm[:, :, None] * size + perm[:, None, :]).reshape(len(group), -1)
    labels = _orbit_labels(group, images, "the K-orbits of the input cells")
    return np.unique(labels, return_inverse=True)[1]


# ---------------------------------------------------------------------------
# normalized means, exact side


class MeanReport(NamedTuple):
    """The sup norm U_n of the transfer function: an exact upper bound for
    the 2-norm of the normalized mean, the condition-(2) witness at n."""

    n: int
    value: AlgebraicValue
    value_float: float
    depths: tuple[int, int]
    sphere_size: int

    def at_most(self, threshold: float) -> bool:
        """U_n <= threshold, decided exactly: Fraction(threshold) is the
        float's exact value, and ``value_float`` is for display only."""
        if not math.isfinite(threshold):
            return threshold == math.inf
        return self.value <= Fraction(threshold)


def coset_weights(cosets: Sequence[Coset], q: int) -> list[Fraction]:
    """The weight of each coset rK in the normalized mean, as a Fraction:
    1 / (#cosets c(l0) c(l1)), (l0, l1) the tree lengths of its located
    pair (``spherical_coefficient``).  Its |K| members each enter with
    1 / (|C_n| Xi), and Xi's q^(-(l0+l1)/2) goes with the cocycle weights
    into the integer powers q^(gp0+gp1)."""
    return [
        Fraction(1, len(cosets))
        / (spherical_coefficient(q, c.zero.depth) * spherical_coefficient(q, c.infinity.depth))
        for c in cosets
    ]


def uniform_bound_value(table: SphereTable, n: int) -> MeanReport:
    """U_n, the sup over the depth-(n, n) product cells of the normalized,
    spherical-function-weighted mean over sphere n applied to 1.

    A member of the right coset rK contributes q^(beta0/2) q^(beta1/2) / Xi
    at a cell (x, y), read from r's located pair (w0, w1) of tree lengths
    (l0, l1): beta = 2 gp - l with gp the Gromov product of w and the cell,
    and Xi = c(l0) c(l1) q^(-(l0+l1)/2) (``spherical_coefficient``), so the
    term is the positive rational q^(gp0+gp1) / (c(l0) c(l1)).  Each
    coset's weight (``coset_weights``) is written as an integer over one
    common denominator, so every cell value is an integer sum over the
    cosets and U_n is the largest of them over that denominator.  The integral of the
    mean over the boundary is exactly 1 (the sphere-average identity); the
    tests check that on the step-function form of the mean.
    """
    q = table.q
    cosets = table.cosets(n)
    if not cosets:
        raise ValueError(f"sphere {n} is empty")
    weights = coset_weights(cosets, q)
    denominator = math.lcm(*(w.denominator for w in weights))
    cells = list(sphere_vertices(q + 1, n))
    powers = [q**k for k in range(n + 1)]
    acc = [[0] * len(cells) for _ in cells]
    for coset, weight in zip(cosets, weights):
        scale = weight.numerator * (denominator // weight.denominator)
        right = [powers[gromov_product(coset.infinity, y)] for y in cells]
        for i, x in enumerate(cells):
            left = scale * powers[gromov_product(coset.zero, x)]
            acc[i] = [total + left * b for total, b in zip(acc[i], right)]
    best = max(max(row) for row in acc)
    if best <= 0:
        raise RuntimeError(f"U_{n} is not positive")
    value = AlgebraicValue.rational(Fraction(best, denominator), q)
    return MeanReport(
        n=n,
        value=value,
        value_float=float(value),
        depths=(n, n),
        sphere_size=table.sphere_size(n),
    )


# ---------------------------------------------------------------------------
# floating spectral estimates


class CompressionResult(NamedTuple):
    """Largest singular value of the mean compressed to a depth-K subspace:
    a floating lower bound for the mean's 2-norm, dominated by U_n."""

    n: int
    depths: tuple[int, int]
    value: float
    iterations: int
    converged: bool


def _power_iteration_symmetric(
    apply: Callable[[np.ndarray], np.ndarray], start: np.ndarray
) -> tuple[float, int, bool]:
    """Largest eigenvalue of a symmetric positive-semidefinite operator A,
    given as ``apply`` (v -> A v), by power iteration from ``start``, a
    nonzero vector of any norm; returns (eigenvalue, iterations, converged).
    One application per iteration: the image that gives the Rayleigh
    estimate is the next iteration's image.  Every estimate is a Rayleigh
    quotient, so a lower bound for the eigenvalue, converged or not; when A
    is entrywise nonnegative and ``start`` is positive, the start is not
    orthogonal to A's nonnegative Perron eigenvector, so the iteration
    reaches the largest eigenvalue."""
    import numpy as np

    v = start
    previous = 0.0
    w = apply(v)
    for iteration in range(1, MAX_ITERS + 1):
        norm = np.linalg.norm(w)
        if norm == 0.0:
            return 0.0, iteration, True
        v = w / norm
        w = apply(v)
        estimate = float(v @ w)
        if abs(estimate - previous) <= TOLERANCE * max(1.0, abs(estimate)):
            return estimate, iteration, True
        previous = estimate
    return previous, MAX_ITERS, False


def _pair_blocks(
    columns: np.ndarray, weights: np.ndarray, powers: np.ndarray, r: int, size: int
) -> np.ndarray:
    """Row s - r holds the block A_r^T A_s (size x size, flattened) of the
    representatives' transports at one place (``_transports_at``), their
    weight exponents read in ``powers``, the floats q^c: for every s >= r,
    one bincount per ROW_BLOCK of the s, so the index and weight products
    span one chunk of cosets, not all of them."""
    import numpy as np

    count, cells = len(columns) - r, size * size
    lead = columns[r] * np.intp(size)
    lead_weights = powers[weights[r]]
    blocks = np.empty((count, cells))
    for first in range(0, count, ROW_BLOCK):
        chunk = slice(r + first, r + first + ROW_BLOCK)
        rows = len(columns[chunk])
        index = np.arange(0, rows * cells, cells)[:, None] + lead
        index += columns[chunk]
        products = np.take(powers, weights[chunk])
        products *= lead_weights
        blocks[first : first + rows] = np.bincount(
            index.ravel(), products.ravel(), minlength=rows * cells
        ).reshape(rows, cells)
    return blocks


def check_compression_budget(q: int, depth: int) -> None:
    """Raise RadiusBudgetError when a depth-``depth`` compression's core,
    one product entry per pair of input cells, the work it does per double
    coset, would exceed CORE_BUDGET entries."""
    entries = sphere_size(q + 1, depth) ** 4
    if entries > CORE_BUDGET:
        raise RadiusBudgetError(
            f"compression depth {depth} at q = {q} needs a core of {entries} "
            f"entries, more than {CORE_BUDGET}"
        )


def check_convolution_budget(q: int, ball_radius: int) -> None:
    """Raise RadiusBudgetError, before any table is built, when the
    convolution on the ball of radius ``ball_radius`` may need more than
    CORE_BUDGET entries: the ball has at most as many cosets as candidate
    vertex pairs (``candidate_pair_counts``)."""
    for pairs in candidate_pair_counts(q, ball_radius):
        if pairs**2 > CORE_BUDGET:
            raise RadiusBudgetError(
                f"the ball of radius {ball_radius} at q = {q} has {pairs:,} or more "
                f"candidate vertex pairs, so its convolution may need a matrix of "
                f"{pairs**2:,} entries, more than {CORE_BUDGET:,}"
            )


def _compression_gram(
    transports: SphereTransports, depth: int
) -> tuple[np.ndarray, np.ndarray]:
    """The whitened Gram matrix of the depth-``depth`` compression of the
    weighted mean over the transported sphere, on the K-orbits of the input
    cells, built from one representative per double coset K r K; and the
    orbit label of every input cell (``_cell_orbits``).

    A member g = r k of the coset rK has g . x = r . (k . x) and g . o = r . o,
    so its transport at each place is r's with the input columns permuted by
    k.  Write A_r and B_r for r's transports at zero and infinity with the
    weights q^c of ``_transports_at``: a cocycle weight q^(beta/2) is
    q^c q^(-|w|/2), and the member weight 1/(|C_n| Xi(r)) times the
    q^(-|w|/2) of both places is w_r / |K| (``coset_weights``).  So the mean
    factors as M = (sum_r w_r A_r (x) B_r) P_K with P_K the average of the
    permutations Pi_k (x) Pi'_k: the orthogonal projection Q Q^T onto the
    K-invariant functions, Q's columns the normalised orbit indicators.  The
    Gram matrix P_K C P_K, with C the sum of f(r, s) = w_r w_s
    (A_r^T D0 A_s) (x) (B_r^T D1 B_s) over all pairs of representatives and
    D0, D1 the output cylinder measures, has the nonzero spectrum of
    Q^T C Q, which is returned.

    Two symmetries shrink the sum.  The pair (s, r) gives the transpose of
    the pair (r, s).  And Q^T f(kr, ks) Q = Q^T f(r, s) Q for every k in K,
    where kr stands for the representative of the coset k r K: that
    representative is k r k' for some k' in K, so A_{kr} = P_k A_r Pi_{k'}
    with P_k the permutation k makes of the output cylinders, which keeps
    their measure (P_k^T D0 P_k = D0), and w_{kr} = w_r; the orbit
    indicators absorb the input permutations Pi_{k'} (x) Pi'_{k'}, whichever
    representative the table holds.  So the sum over the |D / K| cosets r of
    a double coset D of sum_s f(r, s) is |D / K| sum_s f(r_D, s), r_D the
    first coset of D in table order, and Q^T C Q = Q^T (H + H^T) Q with
    H = sum_D |D / K| sum_{s : D(s) >= D} f(r_D, s), the terms with s in D
    itself halved, the double cosets ordered by their first cosets
    (``SphereTransports.doubles``).  The cosets are sorted by double coset,
    each one's in table order, so the s of each term are one run from r_D to
    the end.
    H is added into its orbit pairs one block of a pair-block product at a
    time, the rows (i, j) of one place-zero cylinder i: a bincount over the
    keys (k, orbit of (j, l)), which are the same for every i, then a
    scatter of its rows k into the orbit of (i, k); no cells x cells array
    is formed.
    """
    import numpy as np

    table, n, cosets = transports.table, transports.n, transports.cosets
    q = table.q
    degree = q + 1
    size = sphere_size(degree, depth)
    labels = _cell_orbits(transports, depth)
    order = np.argsort(transports.doubles, kind="stable")
    _, counts = np.unique(transports.doubles, return_counts=True)
    starts = np.cumsum(counts) - counts
    powers = float(q) ** np.arange(n + 1)
    transported = []
    for place_index in (0, 1):
        columns, weights = _transports_at(transports, place_index, depth)
        transported.append((columns[order], weights[order], powers))
    # every depth-k cylinder has the same measure, one over the sphere size
    mu_out = 1.0 / sphere_size(degree, depth + n)
    coeffs = np.array([float(w) for w in coset_weights(cosets, q)])[order]
    orbits = int(labels.max()) + 1
    # a pair-block product's entry ((i, j), (k, l)), with (i, j) from place
    # zero's blocks and (k, l) from place infinity's, is H's entry for the
    # input cells (i, k) and (j, l): it adds into their orbit pair.  Within
    # the rows of one i, an entry's key (k, orbit of (j, l)) does not depend
    # on i, so one key array of size^3 entries serves every block
    pairs = labels.reshape(size, size)
    keys = (np.arange(size)[None, :, None] * orbits + pairs[:, None, :]).ravel()
    half = np.zeros((orbits, orbits))
    for start, count in zip(starts.tolist(), counts.tolist()):
        left = _pair_blocks(*transported[0], start, size)
        weighted = _pair_blocks(*transported[1], start, size)
        scales = (mu_out * mu_out * count * coeffs[start]) * coeffs[start:]
        scales[:count] /= 2.0
        weighted *= scales[:, None]
        for i in range(size):
            product = left[:, i * size : (i + 1) * size].T @ weighted
            sums = np.bincount(keys, product.ravel(), minlength=size * orbits)
            np.add.at(half, pairs[i], sums.reshape(size, orbits))
    # whiten by the input measure 1 / size so plain power iteration sees the
    # weighted norm
    root = np.sqrt(np.bincount(labels))
    return float(size * size) * (half + half.T) / (root[:, None] * root), labels


def mean_matrix_2norm(transports: SphereTransports, depth: int) -> CompressionResult:
    """Largest singular value of the weighted mean over the transported
    sphere compressed to the depth-``depth`` step functions, with
    measure-weighted 2-norms on both sides.

    The Gram matrix of the compression is built once (in floating point),
    on the K-orbits of the input cells, from the transports of one coset
    representative per double coset K r K against every representative
    after it and the action of K on the input cylinders
    (``_compression_gram``), and the top eigenvalue is found by power
    iteration on that symmetric matrix; the square root is the reported
    bound.  The iteration starts from the orbit projection
    Q^T u = sqrt(orbit size / cells) of the uniform unit vector u over the
    input cells, so every iterate is the one on the cells' Gram matrix
    Q G Q^T from u, written in orbit coordinates.  The orbit Gram matrix is
    entrywise nonnegative and positive semidefinite and the start is
    positive, so by Perron-Frobenius the iteration reaches its largest
    eigenvalue with no random start.  Any iterate is a valid lower bound
    for the true compression norm, converged or not.  ``transports``
    (``transport_sphere``) name the table and the sphere, and ``depth``
    must lie in 0 .. transports.depth, else ValueError.  Raises
    RuntimeError when K's translations are not its action on the input
    cylinders (``_cell_orbits``).
    """
    import numpy as np

    if not 0 <= depth <= transports.depth:
        raise ValueError(
            f"depth {depth} is outside 0 .. {transports.depth}, the depths of the "
            f"transports of sphere {transports.n}"
        )
    gram, labels = _compression_gram(transports, depth)
    start = np.sqrt(np.bincount(labels) / len(labels))
    eigenvalue, iterations, converged = _power_iteration_symmetric(lambda v: gram @ v, start)
    return CompressionResult(
        n=transports.n,
        depths=(depth, depth),
        value=math.sqrt(max(eigenvalue, 0.0)),
        iterations=iterations,
        converged=converged,
    )


# ---------------------------------------------------------------------------
# convolution on the group ball


class ConvolutionResult(NamedTuple):
    """A power-iteration lower bound for the convolution norm of the
    indicator of sphere n on the ball of radius ``ball_radius``, and the
    rules it must meet (``passed``): it stays below the indicator's l1 norm
    |C_n| (``l1_ok``), and at n = 0, where the sphere is the finite subgroup
    K, it equals |K| = q^3 - q (``identity_ok``)."""

    n: int
    ball_radius: int
    value: float
    iterations: int
    converged: bool
    ball_size: int
    sphere_size: int

    @property
    def l1_ok(self) -> bool:
        """The bound stays below |C_n|, the l1 norm of the indicator."""
        return self.value <= self.sphere_size + 1e-9

    @property
    def identity_ok(self) -> bool:
        """At n = 0, the norm of the indicator of K is |K| = |C_0| to within
        BASE_IDENTITY_TOL; no rule at any other n."""
        return self.n != 0 or abs(self.value - self.sphere_size) <= BASE_IDENTITY_TOL

    @property
    def passed(self) -> bool:
        return self.l1_ok and self.identity_ok


def coset_convolution_matrix(cosets: Sequence[Coset], n: int) -> np.ndarray:
    """The sphere indicator's convolution on the ball's right cosets: the
    0/1 matrix M'[a, b] = [d0(w0_a, w0_b) + dinf(w1_a, w1_b) == n] over the
    given cosets, in order, with (w0, w1) their located pairs.

    The group acts by isometries, so L(g h^-1) is the sum over both places
    of d(g^-1 . o, h^-1 . o), which is read off the cosets of g^-1 and h^-1.
    With E[g, a] = 1 when g^-1 lies in coset a, the element matrix is
    E M' E^T, and E^T E = |K| I.  The distances |w| + |w'| - 2 prefix(w, w')
    come from the vertices' prefix ids (``_common_prefix``), added up in
    place in int16.
    """
    import numpy as np

    distances = np.zeros((len(cosets), len(cosets)), dtype=np.int16)
    for place_index in (0, 1):
        vertices = [coset.vertex(place_index) for coset in cosets]
        ids = np.array([v.id for v in vertices], dtype=np.int64)
        prefixes = _prefix_ids(ids, vertices[0].degree, max(v.depth for v in vertices))
        depths = (prefixes >= 0).sum(axis=1) - 1
        distances += depths[:, None]
        distances += depths
        distances -= 2 * _common_prefix(prefixes[:, None], prefixes[None])
    return (distances == n).astype(float)


def convolution_opnorm_lower(table: SphereTable, n: int, ball_radius: int) -> ConvolutionResult:
    """Power-iteration lower bound for the convolution operator norm of the
    sphere indicator, compressed to functions on the length ball of the given
    radius.  Nondecreasing in the radius; never above the sphere size.

    The ball is a union of right cosets and the element matrix is
    E M' E^T (``coset_convolution_matrix``), with E / sqrt(|K|) an isometry,
    so its norm is |K| times the norm of M'.  The sphere is inversion
    closed, so M' is symmetric and the iteration runs on its square M'^2,
    applied as two products M' (M' v), so M'^2 is never formed.  M'^2 is
    entrywise nonnegative (M' is 0/1) and positive semidefinite, and the
    start is the positive uniform unit vector, so by Perron-Frobenius it is
    not orthogonal to the top eigenvector and the iteration reaches the
    largest eigenvalue, with no random start; every Rayleigh quotient on
    the way is a lower bound.  Raises RadiusBudgetError before any matrix
    is built when M' would exceed CORE_BUDGET entries.
    """
    import numpy as np

    if table.sphere_size(n) == 0:
        raise ValueError(f"sphere {n} is empty")
    if ball_radius + n > table.max_length:
        raise ValueError(
            f"ball radius {ball_radius} plus sphere length {n} exceeds the "
            f"table radius {table.max_length}"
        )
    ball = [coset for m in table.lengths() if m <= ball_radius for coset in table.cosets(m)]
    if len(ball) ** 2 > CORE_BUDGET:
        raise RadiusBudgetError(
            f"the convolution on the ball of radius {ball_radius} at q = {table.q} "
            f"needs a matrix of {len(ball) ** 2:,} entries over its {len(ball):,} "
            f"cosets, more than {CORE_BUDGET:,}"
        )
    matrix = coset_convolution_matrix(ball, n)
    eigenvalue, iterations, converged = _power_iteration_symmetric(
        lambda v: matrix @ (matrix @ v), np.full(len(ball), 1.0 / math.sqrt(len(ball)))
    )
    return ConvolutionResult(
        n=n,
        ball_radius=ball_radius,
        value=(table.q**3 - table.q) * math.sqrt(max(eigenvalue, 0.0)),
        iterations=iterations,
        converged=converged,
        ball_size=table.ball_size(ball_radius),
        sphere_size=table.sphere_size(n),
    )


# ---------------------------------------------------------------------------
# full verdict


def rrd_report(
    table: SphereTable, depth: int = 4, u_bound: float = DEFAULT_U_THRESHOLD
) -> dict:
    """Run the whole certificate on one sphere table and emit the verdict.

    Sections: the condition-(1) polynomial bound per sphere, the exact
    condition-(2) sup norms U_n, the compression 2-norms with their chain
    check against U_n, the convolution lower bounds with the finite-subgroup
    identity at n = 0 (the n = 0 row's ``ConvolutionResult.passed``, so it
    never passes beside a failing row), and the subgroup
    growth certificate for the failure side, each record written by
    ``plain`` (exact values as (a, b, q) triples).  Each section's ``pass``
    is read off the records or rows it writes, and the verdict's ``pass``
    is the conjunction of the five.  ``u_bound`` is the condition-(2)
    threshold on every U_n.  A depth whose compression core exceeds
    CORE_BUDGET raises RadiusBudgetError before any transport is made.
    """
    q, max_length = table.q, table.max_length
    check_compression_budget(q, depth)
    cond1 = condition_one_certificate(table)

    mean_reports = [
        uniform_bound_value(table, n)
        for n in range(0, min(max_length, MAX_MEAN_LENGTH) + 1, 2)
        if table.sphere_size(n) > 0
    ]
    compression_rows = []
    for u_n in mean_reports:
        transports = transport_sphere(table, u_n.n, depth)
        for k in range(1, depth + 1):
            result = mean_matrix_2norm(transports, k)
            compression_rows.append({
                **plain(result),
                "tolerance": TOLERANCE,
                "u_bound_float": u_n.value_float,
                "chain_ok": result.value <= u_n.value_float + CHAIN_SLACK,
            })

    convolutions = [
        convolution_opnorm_lower(table, n, min(4, max_length - n))
        for n in (0, 2)
        if max_length >= n and table.sphere_size(n) > 0
    ]
    base_identity = next(
        (
            {"expected": float(c.sphere_size), "value": c.value, "pass": c.passed}
            for c in convolutions
            if c.n == 0
        ),
        None,
    )

    lamp = exponential_certificate(q, h_ball_growth(q, 10))

    sections = {
        "condition1": {**plain(cond1), "pass": cond1.passed},
        "condition2": {
            "threshold": json_threshold(u_bound),
            "rows": [plain(r) for r in mean_reports],
            "pass": all(r.at_most(u_bound) for r in mean_reports),
        },
        "compressions": {
            "chain_slack": CHAIN_SLACK,
            "rows": compression_rows,
            "pass": all(row["chain_ok"] for row in compression_rows),
        },
        "convolution": {
            "rows": [{**plain(c), "l1_ok": c.l1_ok} for c in convolutions],
            "base_identity": base_identity,
            "pass": all(c.passed for c in convolutions),
        },
        "lamplighter-ref": {**plain(lamp), "pass": lamp.rd_failure_flag},
    }
    return {
        "config": {
            "q": q,
            "max_length": max_length,
            "depth": depth,
            "thresholds": {
                "base_identity_tol": BASE_IDENTITY_TOL,
                "chain_slack": CHAIN_SLACK,
                "max_iters": MAX_ITERS,
                "max_mean_length": MAX_MEAN_LENGTH,
                "tolerance": TOLERANCE,
                "u_bound": json_threshold(u_bound),
            },
            "tool_version": __version__,
            "cache_major": CACHE_MAJOR_VERSION,
            "sphere_provenance": PROVENANCE_PAIRS,
        },
        **sections,
        "pass": all(section["pass"] for section in sections.values()),
    }
