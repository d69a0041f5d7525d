"""Boundary integrals on the tree: the measure-derivative cocycle and the
spherical (Harish-Chandra type) function in closed form.

On a d-regular tree with q = d - 1, the visibility measure transforms under
the vertex moved to w by the factor q^beta, beta the Busemann value.  The
spherical function is the sphere average of q^(beta/2); its closed form is

    (1 + n*(q-1)/(q+1)) * q^(-n/2)

for displacement n, with the rational factor c(n) = 1 + n(q-1)/(q+1) given
by ``spherical_coefficient``.  The tests check it against a brute-force
integral of q^(beta/2) over the partition of the boundary by branch depth
along a fixed geodesic (``tests/oracles.py``).  The product function for the two places
multiplies factor values and is cached per length pair.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .algebra import AlgebraicValue
from .trees import BoundaryCylinder, TreeVertex, busemann


def cocycle_sqrt(w: TreeVertex, cylinder: BoundaryCylinder) -> AlgebraicValue:
    """q^(beta/2) for the constant Busemann value beta of the cylinder at w.

    ``w`` is the translate of the base vertex whose cocycle is being
    evaluated; the cylinder must be deep enough for constancy (see
    ``busemann``).  Exact: irrational precisely when beta is odd.  The
    program calls it nowhere; it stays only as a target of
    ``perfbench/tracer.py``, and the tests' oracles use it.
    """
    if cylinder.degree != w.degree:
        raise ValueError("cylinder and vertex from trees of different degree")
    beta = busemann(cylinder, w)
    return AlgebraicValue.sqrt_q_power(w.degree - 1, beta)


def spherical_coefficient(q: int, n: int) -> Fraction:
    """c(n) = 1 + n(q-1)/(q+1), the rational factor of the spherical
    function of the (q+1)-regular tree at displacement n."""
    return 1 + Fraction(q - 1, q + 1) * n


def hc_tree_closed(degree: int, n: int) -> AlgebraicValue:
    """Closed-form spherical function of the d-regular tree at displacement n."""
    if degree < 3:
        raise ValueError("degree must be at least 3")
    if n < 0:
        raise ValueError("negative displacement")
    q = degree - 1
    return AlgebraicValue.rational(spherical_coefficient(q, n), q) * AlgebraicValue.sqrt_q_power(q, -n)


@lru_cache(maxsize=None)
def hc_product(length_zero: int, length_infinity: int, q: int) -> AlgebraicValue:
    """Spherical function of the product of the two (q+1)-regular trees.

    The boundary measure is the product measure, so the value is the product
    of the factor values; cached per length pair.
    """
    return hc_tree_closed(q + 1, length_zero) * hc_tree_closed(q + 1, length_infinity)
