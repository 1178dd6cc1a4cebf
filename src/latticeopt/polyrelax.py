"""Linear relaxations of polynomial constraints over integer boxes.

An integer polynomial p on a box [l, u] lifts to the polytope spanned by
the graph points (x, p(x)) over the box's lattice points.  Intersecting
that polytope with {pi <= 0} and projecting back to x-space yields a
polyhedral relaxation of {x integer : p(x) <= 0}.  The relaxation is
generally strict, but its integer points coincide with the constrained
set whenever p stays within 1 of the lifted polytope's lower hull at
integral barycenters.

A lifted polytope holds exactly one polynomial, so the projection and
that barycenter condition are both read off the hull's lower facets,
the rows with a negative pi coefficient.  The lower hull at x is the
largest value those rows force on pi there.  The hull projects onto the
box, so the projection is the box cut by the lower rows with pi
dropped: no variable is eliminated, and no LP prunes redundant rows,
because the irredundant rows are the hull of the cut box's vertices.

Everything here is exact: hulls come from facet enumeration over the
point cloud.  Only strict integer-convexity solves LPs, one per lattice
point over the cloud's convex multipliers, because it needs the hull
without that point.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm

from .core import (
    LPProblem,
    dot,
    kernel_basis,
    lex_canonical,
    primitive,
    rational_rank,
    record,
    solve_lp,
    vneg,
    vsub,
)
from .fptas import SparsePolynomial
from .polyhedra import Polyhedron, box_polyhedron, enumerate_vertices

IntVec = tuple[int, ...]

# hull facets are enumerated over point subsets, so keep clouds small
_MAX_CLOUD = 1000


def _box_points(l, u):
    return itertools.product(*(range(lo, hi + 1) for lo, hi in zip(l, u)))


def _require_integer_polynomial(f: SparsePolynomial):
    for coeff, _ in f.monomials:
        if Fraction(coeff).denominator != 1:
            raise ValueError("polynomial must have integer coefficients")


def _canonical_row(a, beta):
    # positive scaling only; direction of the inequality is meaningful
    g = 0
    for v in tuple(a) + (beta,):
        g = gcd(g, int(v))
    g = g or 1
    return tuple(int(v) // g for v in a), int(beta) // g


# ---------------------------------------------------------------------------
# exact convex hulls of integer point clouds

def convex_hull_h(points):
    """H-description (equalities, inequalities) of conv(points).

    Equalities pin the affine hull; inequalities are exactly the
    facets within it, as primitive integer rows.  Facets are found by
    enumerating point subsets of affine-hull dimension, so the cloud
    must stay small.
    """
    pts = sorted({tuple(int(c) for c in p) for p in points})
    if not pts:
        raise ValueError("empty point cloud")
    if len(pts) > _MAX_CLOUD:
        raise ValueError("point cloud too large for exact hulling")
    dim = len(pts[0])
    if any(len(p) != dim for p in pts):
        raise ValueError("mixed dimensions")
    x0 = pts[0]

    if len(pts) == 1:
        eqs = tuple((tuple(int(i == j) for j in range(dim)), x0[i])
                    for i in range(dim))
        return eqs, ()

    diffs = tuple(vsub(p, x0) for p in pts[1:])
    eq_normals = kernel_basis(diffs)
    eqs = tuple(sorted(_canonical_eq(a, dot(a, x0)) for a in eq_normals))
    rank = dim - len(eq_normals)

    if rank == 1:
        d = primitive(next(dv for dv in diffs if any(dv)))
        vals = [dot(d, p) for p in pts]
        ineqs = {_canonical_row(d, max(vals)),
                 _canonical_row(vneg(d), -min(vals))}
        return eqs, tuple(sorted(ineqs))

    ineqs = set()
    for subset in itertools.combinations(pts, rank):
        base = subset[0]
        sub = tuple(vsub(s, base) for s in subset[1:])
        if rational_rank(sub) != rank - 1:
            continue
        normal = None
        for k in kernel_basis(sub):
            if rational_rank(eq_normals + (k,)) > len(eq_normals):
                normal = k
                break
        if normal is None:
            continue
        vals = [dot(normal, p) for p in pts]
        v0, lo, hi = dot(normal, base), min(vals), max(vals)
        if lo == hi:
            continue
        if v0 == hi:
            ineqs.add(_canonical_row(normal, hi))
        if v0 == lo:
            ineqs.add(_canonical_row(vneg(normal), -lo))
    return eqs, tuple(sorted(ineqs))


def _inequalities(hull):
    """A hull's rows as inequalities, each equality as two opposite rows."""
    eqs, ineqs = hull
    return list(ineqs) + [row for a, beta in eqs
                          for row in ((a, beta), (vneg(a), -beta))]


def _canonical_eq(a, beta):
    a2, b2 = _canonical_row(a, beta)
    if a2 != lex_canonical(a2):
        a2, b2 = vneg(a2), -b2
    return a2, b2


# ---------------------------------------------------------------------------
# lifted polytopes

@record
class LiftedPolytope:
    """conv{(x, p(x)) : x in [l, u] integral} for one polynomial p.

    The cloud stores exact evaluations; the hull H-description and its
    lower rows are computed on first use.
    """

    polynomial: SparsePolynomial
    lower: IntVec
    upper: IntVec
    cloud: tuple[IntVec, ...]

    @property
    def n(self) -> int:
        return len(self.lower)

    @cached_property
    def hull(self):
        """(equalities, inequalities) of the hull in R^(n+1)."""
        return convex_hull_h(self.cloud)

    @cached_property
    def lower_rows(self):
        """(a, beta, |c|) for each hull row a.x + c*pi <= beta with c < 0.

        Each equality counts in both orientations, so one whose pi
        coefficient is nonzero gives exactly one lower row.
        """
        return tuple((a[:-1], beta, -a[-1])
                     for a, beta in _inequalities(self.hull) if a[-1] < 0)

    def lower_hull(self, x) -> Fraction:
        """min{pi : (x, pi) in the hull} for x in the box."""
        return max(Fraction(dot(a, x) - beta, c)
                   for a, beta, c in self.lower_rows)


def build_lifted(polynomials, l, u) -> LiftedPolytope:
    """Lift the lattice points of [l, u] by exactly one integer polynomial.

    With one polynomial, the projection and the barycenter condition are
    both read off the hull's lower facets, with no elimination and no LP
    pruning; several would need variables eliminated again, so any other
    count raises ValueError.
    """
    ps = tuple(polynomials)
    if len(ps) != 1:
        raise ValueError("need exactly one polynomial")
    (f,) = ps
    l = tuple(int(v) for v in l)
    u = tuple(int(v) for v in u)
    if len(l) != len(u):
        raise ValueError("bound length mismatch")
    if any(lo > hi for lo, hi in zip(l, u)):
        raise ValueError("empty box")
    if f.dimension != len(l):
        raise ValueError("polynomial dimension mismatch")
    _require_integer_polynomial(f)
    count = 1
    for lo, hi in zip(l, u):
        count *= hi - lo + 1
    if count > _MAX_CLOUD:
        raise ValueError("box has too many lattice points for exact hulling")
    cloud = tuple(x + (int(f.evaluate(x)),) for x in _box_points(l, u))
    return LiftedPolytope(f, l, u, cloud)


# ---------------------------------------------------------------------------
# projection with pi <= 0

def empty_polyhedron(dim: int) -> Polyhedron:
    return Polyhedron(((0,) * dim,), (-1,))


def project_with_pi_leq_0(L: LiftedPolytope) -> Polyhedron:
    """Project hull(L) cut with {pi <= 0} onto x.

    The hull projects onto the box, and x is in the projection exactly
    when the lower hull at x is at most 0.  So the projection is the box
    cut by the lower rows with pi dropped, and no variable is
    eliminated.  No LP prunes the rows either: they are the
    H-description of the cut box's vertices, primitive and sorted, with
    each equality as two opposite rows.  An empty intersection comes back
    as a canonically empty polyhedron.
    """
    rows = L.lower_rows
    cut = box_polyhedron(L.lower, L.upper).intersect(
        Polyhedron(tuple(a for a, _, _ in rows),
                   tuple(beta for _, beta, _ in rows)))
    vertices = [v.point for v in enumerate_vertices(cut)]
    if not vertices:
        return empty_polyhedron(L.n)
    # hull the vertices scaled to integers: a.(s x) <= beta is (s a).x <= beta
    s = lcm(*(c.denominator for v in vertices for c in v))
    hull = convex_hull_h([tuple(c * s for c in v) for v in vertices])
    kept = sorted({_canonical_row(tuple(s * v for v in a), beta)
                   for a, beta in _inequalities(hull)})
    return Polyhedron(tuple(a for a, _ in kept),
                      tuple(beta for _, beta in kept))


# ---------------------------------------------------------------------------
# per-point lower-hull tests

def _cloud_minimum(cloud, values, x, exclude=None):
    """min sum(lambda_k * values[k]) over convex multipliers whose
    barycenter is x; None when x has no such representation."""
    cols = [(k, v) for k, v in zip(cloud, values) if k != exclude]
    n = len(x)
    A = tuple(tuple(Fraction(k[i]) for k, _ in cols) for i in range(n)) \
        + ((Fraction(1),) * len(cols),)
    prob = LPProblem(c=tuple(Fraction(v) for _, v in cols),
                     A=A,
                     b=tuple(Fraction(v) for v in x) + (Fraction(1),),
                     senses=("=",) * (n + 1),
                     lower=(Fraction(0),) * len(cols),
                     maximize=False)
    res = solve_lp(prob)
    return res.value if res.status == "optimal" else None


def check_condition(L: LiftedPolytope) -> bool:
    """True when every convex combination of lattice points with an
    integral barycenter underestimates p, the lifted polytope's one
    polynomial, there by strictly less than 1.

    When p passes, the integer points of the projected relaxation are
    exactly the points satisfying p <= 0.  For a fixed barycenter x the
    lowest combination is the lower hull at x, read off the hull's lower
    facets, so the test solves no LP.
    """
    n = L.n
    return all(L.lower_hull(pt[:n]) > pt[n] - 1 for pt in L.cloud)


def is_integer_convex(L: LiftedPolytope) -> bool:
    """True when no convex combination of lattice points dips below p
    at an integral barycenter (p never exceeds the lower hull)."""
    n = L.n
    return all(L.lower_hull(pt[:n]) >= pt[n] for pt in L.cloud)


def is_strictly_integer_convex(L: LiftedPolytope) -> bool:
    """Strict variant: combinations that do not simply reproduce x
    must stay strictly above p(x).  Implies every (x, p(x)) is a
    vertex of the lifted hull.  The hull without the point is not the
    lifted hull, so each point solves one LP."""
    n = L.n
    points = [pt[:n] for pt in L.cloud]
    values = [pt[n] for pt in L.cloud]
    for x, fx in zip(points, values):
        mn = _cloud_minimum(points, values, x, exclude=x)
        if mn is not None and mn <= fx:
            return False
    return True
