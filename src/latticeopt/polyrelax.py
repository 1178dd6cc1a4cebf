"""Linear relaxations of polynomial constraints over integer boxes.

A vector of integer polynomials p on a box [l, u] lifts to the polytope
spanned by the graph points (x, p(x)) over the box's lattice points.
Intersecting that polytope with {pi <= 0} and projecting back to
x-space yields a polyhedral relaxation of {x integer : p(x) <= 0}.
The relaxation is generally strict, but its integer points coincide
with the constrained set whenever every p_i stays within 1 of the
lifted polytope's lower hull at integral barycenters; that condition,
and (strict) integer-convexity, reduce to one small exact LP per
lattice point of the box.

Everything here is exact: hulls come from facet enumeration over the
point cloud, projections from Fourier-Motzkin elimination with LP
redundancy pruning, and the per-point tests from rational LPs over the
cloud's convex multipliers.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd

from .core import (
    LPProblem,
    dot,
    kernel_basis,
    lex_canonical,
    primitive,
    rational_rank,
    solve_lp,
    vneg,
    vsub,
)
from .fptas import SparsePolynomial
from .polyhedra import Polyhedron

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


def _canonical_eq(a, beta):
    a2, b2 = _canonical_row(a, beta)
    if a2 != lex_canonical(a2):
        a2, b2 = vneg(a2), -b2
    return a2, b2


# ---------------------------------------------------------------------------
# lifted polytopes

@dataclass(frozen=True)
class LiftedPolytope:
    """conv{(x, p_1(x), ..., p_m(x)) : x in [l, u] integral}.

    The cloud stores exact evaluations; the hull H-description is
    computed on first use.
    """

    polynomials: tuple[SparsePolynomial, ...]
    lower: IntVec
    upper: IntVec
    cloud: tuple[IntVec, ...]

    @property
    def n(self) -> int:
        return len(self.lower)

    @property
    def m(self) -> int:
        return len(self.polynomials)

    @cached_property
    def hull(self):
        """(equalities, inequalities) of the hull in R^(n+m)."""
        return convex_hull_h(self.cloud)


def build_lifted(polynomials, l, u) -> LiftedPolytope:
    ps = tuple(polynomials)
    if not ps:
        raise ValueError("need at least one polynomial")
    l = tuple(int(v) for v in l)
    u = tuple(int(v) for v in u)
    if len(l) != len(u):
        raise ValueError("bound length mismatch")
    if any(lo > hi for lo, hi in zip(l, u)):
        raise ValueError("empty box")
    for f in ps:
        if f.dimension != len(l):
            raise ValueError("polynomial dimension mismatch")
        _require_integer_polynomial(f)
    count = 1
    for lo, hi in zip(l, u):
        count *= hi - lo + 1
    if count > _MAX_CLOUD:
        raise ValueError("box has too many lattice points for exact hulling")
    cloud = tuple(
        x + tuple(int(f.evaluate(x)) for f in ps)
        for x in _box_points(l, u))
    return LiftedPolytope(ps, l, u, cloud)


# ---------------------------------------------------------------------------
# projection with pi <= 0

def _eliminate(rows, idx):
    pos = [r for r in rows if r[0][idx] > 0]
    neg = [r for r in rows if r[0][idx] < 0]
    out = {r for r in rows if r[0][idx] == 0}
    for (ap, bp) in pos:
        for (an, bn) in neg:
            lp, ln = -an[idx], ap[idx]
            row = tuple(lp * x + ln * y for x, y in zip(ap, an))
            out.add(_canonical_row(row, lp * bp + ln * bn))
    return out


def _prune(rows):
    """Drop rows implied by the rest; None signals infeasibility."""
    kept = []
    for a, beta in sorted(rows):
        if not any(a):
            if beta < 0:
                return None
            continue
        kept.append((a, beta))
    i = 0
    while i < len(kept):
        a, beta = kept[i]
        others = kept[:i] + kept[i + 1:]
        if not others:
            break
        prob = LPProblem(c=tuple(Fraction(v) for v in a),
                         A=tuple(tuple(Fraction(v) for v in r) for r, _ in
                                 others),
                         b=tuple(Fraction(c) for _, c in others),
                         senses=("<=",) * len(others))
        res = solve_lp(prob)
        if res.status == "infeasible":
            return None
        if res.status == "optimal" and res.value <= beta:
            kept.pop(i)
        else:
            i += 1
    return kept


def empty_polyhedron(dim: int) -> Polyhedron:
    return Polyhedron(((0,) * dim,), (-1,))


def project_with_pi_leq_0(L: LiftedPolytope) -> Polyhedron:
    """Project hull(L) cut with {all pi-coordinates <= 0} onto x.

    Returns the exact H-description with redundant rows removed; an
    empty intersection comes back as a canonically empty polyhedron.
    """
    n, m = L.n, L.m
    dim = n + m
    eqs, ineqs = L.hull
    rows = set()
    for a, beta in eqs:
        rows.add(_canonical_row(a, beta))
        rows.add(_canonical_row(vneg(a), -beta))
    rows.update(ineqs)
    for i in range(m):
        e = tuple(int(j == n + i) for j in range(dim))
        rows.add((e, 0))
    for idx in range(dim - 1, n - 1, -1):
        rows = _eliminate(rows, idx)
    sliced = {(_canonical_row(a[:n], beta)) for a, beta in rows}
    kept = _prune(sliced)
    if kept is None:
        return empty_polyhedron(n)
    kept.sort()
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


def _cloud_and_values(f, l, u):
    _require_integer_polynomial(f)
    l = tuple(int(v) for v in l)
    u = tuple(int(v) for v in u)
    if f.dimension != len(l) or len(l) != len(u):
        raise ValueError("dimension mismatch")
    if any(lo > hi for lo, hi in zip(l, u)):
        raise ValueError("empty box")
    cloud = tuple(_box_points(l, u))
    if len(cloud) > _MAX_CLOUD:
        raise ValueError("box has too many lattice points")
    return cloud, tuple(int(f.evaluate(k)) for k in cloud)


def check_condition(p: SparsePolynomial, l, u) -> bool:
    """True when every convex combination of lattice points with an
    integral barycenter underestimates p there by strictly less
    than 1.

    For a constraint vector whose polynomials all pass, the integer
    points of the projected relaxation are exactly the points
    satisfying p <= 0.  The quantifier over multipliers collapses to
    one LP per lattice point: for a fixed barycenter the extremal
    combination is the lower-hull minimum.
    """
    cloud, values = _cloud_and_values(p, l, u)
    for x, fx in zip(cloud, values):
        mn = _cloud_minimum(cloud, values, x)
        if not mn > fx - 1:
            return False
    return True


def is_integer_convex(f: SparsePolynomial, l, u) -> bool:
    """True when no convex combination of lattice points dips below f
    at an integral barycenter (f never exceeds the lower hull)."""
    cloud, values = _cloud_and_values(f, l, u)
    for x, fx in zip(cloud, values):
        if _cloud_minimum(cloud, values, x) < fx:
            return False
    return True


def is_strictly_integer_convex(f: SparsePolynomial, l, u) -> bool:
    """Strict variant: combinations that do not simply reproduce x
    must stay strictly above f(x).  Implies every (x, f(x)) is a
    vertex of the lifted hull."""
    cloud, values = _cloud_and_values(f, l, u)
    for x, fx in zip(cloud, values):
        mn = _cloud_minimum(cloud, values, x, exclude=x)
        if mn is not None and mn <= fx:
            return False
    return True
