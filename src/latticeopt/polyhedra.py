"""Rational polyhedra in inequality form: vertices, supporting cones, and
deterministic triangulation of pointed cones.

Each row a x <= beta is scaled to integers once, and one integer vertex
enumeration per polyhedron (one fraction-free elimination of [M | beta]
per n-subset of rows, tested as a X <= beta L for x = X / L) is kept on
the immutable Polyhedron.  Emptiness, boundedness, the integer bounding
box and the vertices all read that one enumeration, so the preflight of
count and optimize makes no LP call: a nonempty P whose rows have rank n
has a vertex, it is bounded exactly when {d : A d <= 0} has no extreme
ray, and its box is the floor and ceiling of the vertex coordinates.

Triangulations are produced half-open: each simplicial piece marks the
facets that are excluded, chosen by a fixed reference direction, so the
pieces partition the cone's points exactly (no shared boundaries and no
lower-dimensional correction terms).  Triangulation makes no LP call: it
takes the cone's rays to be the extreme rays of a pointed cone, which is
what supporting_cone returns, and splits it by one pulling recursion in
every dimension.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import cached_property
from operator import mul
from typing import Optional, Sequence

from .core import (
    LPProblem,
    clear_denominators,
    det,
    dot,
    eliminate,
    integer_vector,
    kernel_basis,
    null_vector,
    primitive,
    rational_rank,
    record,
    scaled_inverse,
    solve_lp,
    transpose,
    vneg,
)


class NotPointedError(ValueError):
    """The polyhedron or cone contains a line."""


class UnboundedError(ValueError):
    """The polyhedron has a recession ray."""


@record
class Polyhedron:
    """{x : A x <= b} with rational data.

    The integer rows, the vertex enumeration and the recession test are
    computed on first use and kept on the instance, which never changes.
    """
    A: tuple
    b: tuple

    def __post_init__(self):
        # a Fraction is immutable: keep it rather than build an equal copy
        A = tuple(tuple(x if type(x) is Fraction else Fraction(x)
                        for x in row) for row in self.A)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", tuple(
            x if type(x) is Fraction else Fraction(x) for x in self.b))
        if A and any(len(row) != len(A[0]) for row in A):
            raise ValueError("ragged constraint matrix")
        if len(A) != len(self.b):
            raise ValueError("row/rhs count mismatch")

    @property
    def dim(self) -> int:
        if self.A:
            return len(self.A[0])
        raise ValueError("ambient dimension unknown for empty system")

    def contains(self, x) -> bool:
        X, L = self._common_denominator(x)
        return all(sum(map(mul, row, X)) <= row[-1] * L for row in self._rows)

    def tight_rows_at(self, x) -> frozenset:
        X, L = self._common_denominator(x)
        return frozenset(i for i, row in enumerate(self._rows)
                         if sum(map(mul, row, X)) == row[-1] * L)

    def intersect(self, other: "Polyhedron") -> "Polyhedron":
        return Polyhedron(self.A + other.A, self.b + other.b)

    def _common_denominator(self, x) -> tuple:
        """(X, L) with integers X, L > 0 and x = X / L."""
        if len(x) != self.dim:
            raise ValueError("dimension mismatch")
        L = math.lcm(*(v.denominator for v in x))
        return tuple(v.numerator * (L // v.denominator) for v in x), L

    @cached_property
    def _rows(self) -> tuple:
        """Row i as the integer tuple (a..., beta): a x <= beta scaled by
        the positive lcm of its denominators."""
        return tuple(clear_denominators(row + (rhs,))
                     for row, rhs in zip(self.A, self.b))

    @cached_property
    def _normals(self) -> tuple:
        """The integer rows without their right-hand sides."""
        n = self.dim
        return tuple(row[:n] for row in self._rows)

    @cached_property
    def _vertices(self) -> Optional[tuple]:
        """Every vertex, sorted by point, when A has rank n; None when it
        has not (then P is empty or contains a line)."""
        n = self.dim
        if rational_rank(self._normals) < n:
            return None
        return tuple(sorted(
            (Vertex(tuple(Fraction(x, L) for x in X), tight)
             for X, L, tight in _basic_points(self._rows, n, ())),
            key=lambda v: v.point))

    @cached_property
    def _feasible_point(self) -> Optional[tuple]:
        """A vertex of P; when A has rank below n, a vertex of
        P ∩ {K x = 0} with the rows of K spanning ker A, which is nonempty
        whenever P is, because P = P + ker A.  None for empty P."""
        if self._vertices is not None:
            return self._vertices[0].point if self._vertices else None
        K = kernel_basis(self._normals)
        first = next(_basic_points(self._rows, self.dim, K), None)
        if first is None:
            return None
        X, L, _ = first
        return tuple(Fraction(x, L) for x in X)

    @cached_property
    def _recession_ray(self) -> Optional[tuple]:
        """An extreme ray of {d : A d <= 0}, or None when that cone is
        {0}; A must have rank n."""
        return next(_extreme_rays(self._normals, self.dim), None)


def box_polyhedron(lo: Sequence, hi: Sequence) -> Polyhedron:
    """Axis box {lo <= x <= hi} as an inequality system."""
    n = len(lo)
    rows = []
    rhs = []
    for i in range(n):
        e = [0] * n
        e[i] = 1
        rows.append(tuple(e))
        rhs.append(hi[i])
        e = [0] * n
        e[i] = -1
        rows.append(tuple(e))
        rhs.append(-Fraction(lo[i]))
    return Polyhedron(tuple(rows), tuple(rhs))


@record
class Vertex:
    point: tuple
    tight_rows: frozenset


@record
class Cone:
    """apex + cone(rays); rays are primitive integer vectors."""
    apex: tuple
    rays: tuple

    def __post_init__(self):
        object.__setattr__(self, "apex",
                           tuple(Fraction(x) for x in self.apex))
        object.__setattr__(self, "rays",
                           tuple(integer_vector(r) for r in self.rays))


@record
class SimplicialCone:
    """apex + cone(generators) with linearly independent generators.

    sign carries the orientation inside signed decompositions.  open_facets
    lists generator indices i whose opposite facet {lambda_i = 0} is
    excluded from the cone.
    """
    apex: tuple
    generators: tuple
    sign: int = 1
    open_facets: frozenset = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "apex",
                           tuple(Fraction(x) for x in self.apex))
        object.__setattr__(self, "generators",
                           tuple(integer_vector(g) for g in self.generators))
        if self.sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")


# ---------------------------------------------------------------------------
# feasibility, boundedness, boxes

def find_feasible_point(P: Polyhedron) -> Optional[tuple]:
    """A vertex of P, or of P ∩ {K x = 0} when A has rank below n; None
    for empty P."""
    return P._feasible_point


def is_empty(P: Polyhedron) -> bool:
    return find_feasible_point(P) is None


def is_bounded(P: Polyhedron) -> bool:
    """True when P (possibly empty) has no recession ray."""
    try:
        bounding_box(P)
    except UnboundedError:
        return False
    return True


def bounding_box(P: Polyhedron) -> Optional[tuple]:
    """Smallest integer box containing P, as (lo, hi) int tuples.

    None for empty P; UnboundedError for unbounded P.  A nonempty P whose
    rows have rank below n contains a line; otherwise P is bounded exactly
    when {d : A d <= 0} has no extreme ray, and then the box is the
    ceiling and floor of the vertex coordinates.
    """
    if is_empty(P):
        return None
    if P._vertices is None or P._recession_ray is not None:
        raise UnboundedError("polyhedron is unbounded")
    points = [v.point for v in P._vertices]
    return (tuple(math.ceil(min(c)) for c in zip(*points)),
            tuple(math.floor(max(c)) for c in zip(*points)))


def implicit_equality_rows(P: Polyhedron) -> tuple:
    """Indices of rows satisfied with equality by every point of P."""
    senses = ("<=",) * len(P.A)
    out = []
    for i, (row, rhs) in enumerate(zip(P.A, P.b)):
        r = solve_lp(LPProblem(c=row, A=P.A, b=P.b, senses=senses,
                               maximize=False))
        if r.status == "optimal" and r.value == rhs:
            out.append(i)
    return tuple(out)


# ---------------------------------------------------------------------------
# vertices and extreme rays

def _basic_points(rows, n, kernel):
    """Feasible basic points of {x : a x <= beta for each row (a, beta)}
    on the subspace {K x = 0}, K the rows of `kernel`, each once, in the
    order of the first row subset that reaches it.

    A basic point has n linearly independent tight constraints: every
    row of K and n - |K| rows.  One fraction-free elimination of
    [M | beta] per subset gives its |D| and numerators; the point is
    x = X / L in lowest terms, and a row holds when a X <= beta L, so no
    Fraction is built here.  Yields (X, L, tight rows).
    """
    fixed = [tuple(k) + (0,) for k in kernel]
    seen = set()
    for subset in itertools.combinations(rows, n - len(fixed)):
        red, D, pivots = eliminate(list(subset) + fixed)
        if pivots != list(range(n)):
            continue
        L = abs(D)
        X = [row[n] for row in red]
        g = math.gcd(L, *X)
        X, L = tuple(x // g for x in X), L // g
        if (X, L) in seen:
            continue
        seen.add((X, L))
        tight = []
        for i, row in enumerate(rows):
            lhs, rhs = sum(map(mul, row, X)), row[-1] * L
            if lhs > rhs:
                break
            if lhs == rhs:
                tight.append(i)
        else:
            yield X, L, frozenset(tight)


def _extreme_rays(rows, n):
    """Extreme rays of the pointed cone {d : a d <= 0 for a in rows}, rows
    of rank n, as primitive integer vectors, some more than once.

    An extreme ray lies on n - 1 linearly independent rows, so it spans
    the kernel of some n - 1 of them, up to sign.
    """
    if n == 1:
        candidates = [(1,), (-1,)]
    else:
        candidates = (null_vector(sub)
                      for sub in itertools.combinations(rows, n - 1))
    for d in candidates:
        if d is None:
            continue
        if all(dot(row, d) <= 0 for row in rows):
            yield d
        elif all(dot(row, d) >= 0 for row in rows):
            yield vneg(d)


def enumerate_vertices(P: Polyhedron) -> tuple:
    """All vertices of a pointed polyhedron, sorted by point.

    Basis enumeration over n-subsets of rows, in integers; exact and
    deterministic.  Raises NotPointedError when {x : A x <= b} contains
    a line.
    """
    if P._vertices is None:
        raise NotPointedError("constraint matrix has rank below dimension")
    return P._vertices


def supporting_cone(P: Polyhedron, v) -> Cone:
    """Cone of feasible directions at a vertex, as apex + extreme rays."""
    if isinstance(v, Vertex):
        point, tight = v.point, v.tight_rows
    else:
        point = tuple(Fraction(x) for x in v)
        if not P.contains(point):
            raise ValueError("point not in polyhedron")
        tight = P.tight_rows_at(point)
    n = P.dim
    AT = [P._normals[i] for i in sorted(tight)]
    if rational_rank(AT) < n:
        raise ValueError("point is not a vertex")
    return Cone(apex=point, rays=tuple(sorted(set(_extreme_rays(AT, n)))))


# ---------------------------------------------------------------------------
# half-open bookkeeping

def halfopen_sign(normal, eta) -> int:
    """Sign of <normal, eta + (eps, eps^2, ...)> for all small eps > 0.

    eta is a rational reference direction; the moment-curve perturbation
    breaks ties exactly, so the result is never zero for nonzero normals.
    It does not change when the normal is scaled by a positive factor.
    """
    s = dot(normal, eta)
    if s != 0:
        return 1 if s > 0 else -1
    for c in normal:
        if c != 0:
            return 1 if c > 0 else -1
    raise ValueError("zero normal")


def facet_normals(generators) -> tuple:
    """Inward facet normals of a full-dimensional simplicial cone.

    Row i is the primitive integer normal of facet {lambda_i = 0}, positive
    on the cone side: <a_i, g_j> = 0 for j != i and <a_i, g_i> > 0.
    With B the generators as columns, row i is row i of |det B| * B^{-1}
    made primitive.  ValueError when the generators are dependent.
    """
    _, A = scaled_inverse(transpose(generators))
    return tuple(primitive(row) for row in A)


def open_facets_for(normals, eta) -> frozenset:
    """Facets to exclude so that pieces sharing a boundary never overlap:
    facet i, with inward normal normals[i] (any positive multiple), is open
    exactly when the reference direction lies strictly on its outer side."""
    return frozenset(i for i, a in enumerate(normals)
                     if halfopen_sign(a, eta) < 0)


# ---------------------------------------------------------------------------
# triangulation

def _facets_of(rays, dim) -> list:
    """Facets of a full-dimensional cone as sorted (ray index set, inward
    normal) pairs."""
    m = len(rays)
    found = {}
    for subset in itertools.combinations(range(m), dim - 1):
        h = null_vector([rays[i] for i in subset])
        if h is None:
            continue
        signs = [dot(h, r) for r in rays]
        if all(s >= 0 for s in signs):
            pass
        elif all(s <= 0 for s in signs):
            h = vneg(h)
            signs = [-s for s in signs]
        else:
            continue
        members = tuple(i for i, s in enumerate(signs) if s == 0)
        found[members] = h
    return sorted(found.items())


def _coordinates_in_span(rays):
    """Express rays in a basis chosen greedily from themselves; integer
    outputs.

    Eliminating the matrix whose columns are the rays makes the greedy
    basis its pivot columns, and column j of the reduced rows holds ray
    j's coordinates in that basis, times |D|.
    """
    rows, _, pivots = eliminate(transpose(rays))
    return [primitive([row[j] for row in rows[:len(pivots)]])
            for j in range(len(rays))]


def _pull(rays, dim) -> list:
    """Pulling triangulation of a full-dimensional cone; returns tuples of
    rays.  Deterministic: recursion always pulls the smallest ray.

    Raises NotPointedError when the facet normals do not span R^dim, which
    happens exactly when the cone contains a line.  A simplicial 2-D cone
    comes back counterclockwise.
    """
    rays = sorted(rays)
    if len(rays) == dim:
        if dim == 2 and det(rays) < 0:
            rays.reverse()
        return [tuple(rays)]
    facets = _facets_of(rays, dim)
    if rational_rank([h for _, h in facets]) < dim:
        raise NotPointedError("cone contains a line")
    v = rays[0]
    pieces = []
    for members, _ in facets:
        fac = [rays[i] for i in members]
        if v in fac:
            continue
        coords = _coordinates_in_span(fac)
        sub = _pull(coords, dim - 1)
        index = {c: r for c, r in zip(coords, fac)}
        for simplex in sub:
            pieces.append(tuple(sorted([index[c] for c in simplex] + [v])))
    return pieces


def triangulate(cone: Cone, reference=None) -> tuple:
    """Split a pointed full-dimensional cone into half-open simplicial cones.

    Precondition: cone.rays are the extreme rays of a pointed cone, as
    supporting_cone returns them.  Nothing here re-checks that by LP;
    triangulation makes no LP call.  Pulling still partitions the cone when
    some rays are not extreme (only the choice of pieces differs), and a
    cone that contains a line raises NotPointedError.

    The pieces partition the cone's points exactly: facets shared between
    pieces are kept by exactly one of them, decided by the reference
    direction (default: the sum of the cone's rays, which lies strictly
    inside, so the outer boundary stays closed).
    """
    rays = sorted(set(primitive(r) for r in cone.rays))
    if not rays:
        raise ValueError("cone has no rays")
    d = len(rays[0])
    if rational_rank(rays) < d:
        if len(rays) == 1:
            return (SimplicialCone(apex=cone.apex, generators=(rays[0],)),)
        raise ValueError("cone is not full-dimensional")
    if reference is None:
        reference = tuple(sum(col) for col in zip(*rays))
    out = []
    for gens in _pull(rays, d):
        out.append(SimplicialCone(
            apex=cone.apex, generators=tuple(gens), sign=1,
            open_facets=open_facets_for(facet_normals(gens), reference)))
    return tuple(out)
