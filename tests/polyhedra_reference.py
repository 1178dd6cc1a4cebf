"""The polyhedral preflight that the integer vertex enumeration replaced,
kept as a test oracle.

Vertices come from solving every n-subset of rows in Fractions and testing
each solution against every row as a Fraction dot product; emptiness and
the bounding box come from the exact simplex LP: one feasibility LP, then
a maximum and a minimum per coordinate.  Nothing here reads the integer
rows or the cached enumeration of `latticeopt.polyhedra.Polyhedron`.
"""

import itertools
import math

from elimination_reference import rational_rank, solve_rational
from latticeopt.core import LPProblem, dot, solve_lp
from latticeopt.polyhedra import NotPointedError, UnboundedError, Vertex


def contains(P, x) -> bool:
    return all(dot(row, x) <= rhs for row, rhs in zip(P.A, P.b))


def tight_rows_at(P, x) -> frozenset:
    return frozenset(i for i, (row, rhs) in enumerate(zip(P.A, P.b))
                     if dot(row, x) == rhs)


def enumerate_vertices(P) -> tuple:
    """All vertices of a pointed polyhedron, sorted by point."""
    n = P.dim
    if rational_rank(P.A) < n:
        raise NotPointedError("constraint matrix has rank below dimension")
    seen = {}
    for subset in itertools.combinations(range(len(P.A)), n):
        x = solve_rational([P.A[i] for i in subset], [P.b[i] for i in subset])
        if x is None or not contains(P, x):
            continue
        if x not in seen:
            seen[x] = Vertex(point=x, tight_rows=tight_rows_at(P, x))
    return tuple(sorted(seen.values(), key=lambda v: v.point))


def is_empty(P) -> bool:
    n = P.dim
    r = solve_lp(LPProblem(c=(0,) * n, A=P.A, b=P.b,
                           senses=("<=",) * len(P.A)))
    return r.status != "optimal"


def bounding_box(P):
    """Smallest integer box containing P; None for empty P, UnboundedError
    for unbounded P."""
    n = P.dim
    senses = ("<=",) * len(P.A)
    if is_empty(P):
        return None
    lo = []
    hi = []
    for i in range(n):
        c = tuple(1 if j == i else 0 for j in range(n))
        rmax = solve_lp(LPProblem(c=c, A=P.A, b=P.b, senses=senses))
        rmin = solve_lp(LPProblem(c=c, A=P.A, b=P.b, senses=senses,
                                  maximize=False))
        if rmax.status != "optimal" or rmin.status != "optimal":
            raise UnboundedError("polyhedron is unbounded")
        hi.append(math.floor(rmax.value))
        lo.append(math.ceil(rmin.value))
    return tuple(lo), tuple(hi)


def is_bounded(P) -> bool:
    try:
        bounding_box(P)
    except UnboundedError:
        return False
    return True
