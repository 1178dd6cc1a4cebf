"""Builders of separable convex objectives for the tests.

The library builds its `sq`, `abs` and `pwl` terms in one place, the
CLI's objective parser, as `graver`'s `Square`, `Abs` and
`PiecewiseMax`.  These four shorthands only serve tests, which write
objectives as Python values rather than OBJECTIVE lines.  They stay
plain lambdas: they are the oracle for the term classes' values, and
`validate_convex` scans them like any caller's evaluator.
"""

from fractions import Fraction

from latticeopt.core import rat
from latticeopt.graver import SeparableConvexFn


def _weights(centers, weights):
    centers = tuple(rat(c) for c in centers)
    weights = tuple(rat(w) for w in weights) if weights is not None \
        else (Fraction(1),) * len(centers)
    if len(weights) != len(centers) or any(w < 0 for w in weights):
        raise ValueError("need one nonnegative weight per center")
    return zip(centers, weights)


def weighted_square(centers, weights=None) -> SeparableConvexFn:
    """Coordinate i evaluates w_i (x - c_i)^2."""
    return SeparableConvexFn(tuple(
        (lambda m, c=c, w=w: w * (m - c) ** 2)
        for c, w in _weights(centers, weights)))


def absolute_deviation(centers, weights=None) -> SeparableConvexFn:
    """Coordinate i evaluates w_i |x - c_i|."""
    return SeparableConvexFn(tuple(
        (lambda m, c=c, w=w: w * abs(m - c))
        for c, w in _weights(centers, weights)))


def linear(costs) -> SeparableConvexFn:
    """Coordinate i evaluates c_i x."""
    return SeparableConvexFn(tuple(
        (lambda m, c=c: c * m) for c in (rat(c) for c in costs)))


def piecewise_max(pieces) -> SeparableConvexFn:
    """Coordinate i evaluates max_j (a_j x + b_j) over its pieces;
    a maximum of affine functions is convex by construction."""
    fns = []
    for coord_pieces in pieces:
        cp = tuple((rat(a), rat(b)) for a, b in coord_pieces)
        if not cp:
            raise ValueError("each coordinate needs at least one piece")
        fns.append(lambda m, cp=cp: max(a * m + b for a, b in cp))
    return SeparableConvexFn(tuple(fns))
