"""Convex maximization of composite objectives over lattice fibers.

Maximizes c(w_1.x, ..., w_d.x) over {x in N^n : Ax = b} for a convex
functional c given by a comparison oracle.  Because c is convex, some
optimum maps to a vertex of the image polytope
Q = conv{(w_1.x, ..., w_d.x)}, so it suffices to collect those vertices
and compare.  Each vertex of Q is the image of a point returned by a
linear integer programming oracle queried on a direction from the
normal cone of that vertex; a set covering the edge directions of the
fiber's convex hull (a Graver basis, for instance) determines a fan
whose sectors refine those normal cones.

Implemented for image dimension d <= 2, where the fan is an exact
cyclic arrangement of rays in the plane.  Higher d needs machinery
this module does not attempt; use brute-force enumeration there.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key
from typing import Callable, Optional

from .core import (
    LPProblem,
    dot,
    integer_vector,
    lex_canonical,
    primitive,
    solve_lp,
    vadd,
    vneg,
)
from .graver import fiber_maximum

IntVec = tuple[int, ...]


# ---------------------------------------------------------------------------
# composite objectives

def _cmp(a, b):
    return (a > b) - (a < b)


@dataclass(frozen=True)
class CompositeObjective:
    """c(w_1.x, ..., w_d.x) with c convex on Z^d.

    `weights` holds w_1..w_d.  `comparator(y, z)` returns the sign of
    c(y) - c(z); `evaluator` gives exact values when c is representable
    and may be None for a pure comparison oracle.  d must be 1 or 2.
    """

    weights: tuple[IntVec, ...]
    comparator: Optional[Callable[[IntVec, IntVec], int]] = None
    evaluator: Optional[Callable[[IntVec], Fraction]] = None

    def __post_init__(self):
        ws = tuple(integer_vector(w) for w in self.weights)
        object.__setattr__(self, "weights", ws)
        if len(ws) not in (1, 2):
            raise ValueError("image dimension must be 1 or 2")
        if len({len(w) for w in ws}) > 1:
            raise ValueError("weight vectors must share a length")
        if self.comparator is None and self.evaluator is None:
            raise ValueError("need a comparator or an evaluator")

    @property
    def d(self) -> int:
        return len(self.weights)

    @property
    def dimension(self) -> int:
        return len(self.weights[0])

    def project(self, x) -> IntVec:
        return tuple(dot(w, x) for w in self.weights)

    def value(self, y) -> Fraction:
        if self.evaluator is None:
            raise ValueError("objective has no evaluator")
        return Fraction(self.evaluator(tuple(y)))

    def compare(self, y, z) -> int:
        if self.comparator is not None:
            return int(self.comparator(tuple(y), tuple(z)))
        return _cmp(self.value(y), self.value(z))

    def validate_convex(self, points) -> None:
        """Midpoint test on every pair of sample points with an
        integral midpoint.  Skipped for comparison-only objectives and
        for midpoints the evaluator cannot score (partial tables)."""
        if self.evaluator is None:
            return
        pts = sorted(set(tuple(p) for p in points))
        for y, z in itertools.combinations(pts, 2):
            if any((a + c) % 2 for a, c in zip(y, z)):
                continue
            mid = tuple((a + c) // 2 for a, c in zip(y, z))
            try:
                vm, vy, vz = self.value(mid), self.value(y), self.value(z)
            except KeyError:
                continue
            if 2 * vm > vy + vz:
                raise ValueError(
                    f"objective is not convex: midpoint of {y} and {z}")


# ---------------------------------------------------------------------------
# edge-direction sets

@dataclass(frozen=True)
class EdgeDirectionSet:
    """Primitive, sign-canonical, duplicate-free nonzero directions."""

    directions: tuple[IntVec, ...]

    def __post_init__(self):
        seen = set()
        for g in self.directions:
            if not any(g):
                raise ValueError("zero vector is not a direction")
            if g != lex_canonical(primitive(g)):
                raise ValueError(f"direction {g} is not canonical")
            if g in seen:
                raise ValueError(f"duplicate direction {g}")
            seen.add(g)

    def __len__(self):
        return len(self.directions)

    def __iter__(self):
        return iter(self.directions)

    @staticmethod
    def from_vectors(vectors) -> "EdgeDirectionSet":
        canon = {lex_canonical(primitive(integer_vector(v)))
                 for v in vectors if any(v)}
        return EdgeDirectionSet(tuple(sorted(canon)))

    @staticmethod
    def from_graver(basis) -> "EdgeDirectionSet":
        return EdgeDirectionSet.from_vectors(basis.elements)


# ---------------------------------------------------------------------------
# linear integer programming oracle

@dataclass(frozen=True)
class LIPResult:
    status: str                      # "optimal" | "infeasible" | "unbounded"
    x: Optional[IntVec] = None
    value: Optional[int] = None


def _minimal_point_box(A, b):
    """Per-coordinate caps covering every componentwise-minimal point
    of {x in N^n : Ax = b}.

    Minimal points have 1-norm at most (1 + max row sum + max |b_i|)^m,
    the standard estimate for minimal solutions of linear Diophantine
    systems.  Coordinates bounded in the LP relaxation get the tighter
    LP cap, which is valid for the whole fiber.  Exponential in m;
    meant for small systems.
    """
    m, n = len(A), len(A[0])
    rowsum = max(sum(abs(a) for a in row) for row in A)
    crude = (1 + rowsum + max(abs(v) for v in b)) ** m
    frac_A = tuple(tuple(Fraction(a) for a in row) for row in A)
    frac_b = tuple(Fraction(v) for v in b)
    caps = []
    for i in range(n):
        prob = LPProblem(c=tuple(Fraction(int(j == i)) for j in range(n)),
                         A=frac_A, b=frac_b, senses=("=",) * m,
                         lower=(Fraction(0),) * n)
        res = solve_lp(prob)
        if res.status == "optimal":
            caps.append(min(crude, res.value.numerator
                            // res.value.denominator))
        else:
            caps.append(crude)
    return tuple(caps)


def _direction_lp(A, w):
    # max w.g over {Ag = 0, 0 <= g <= 1}; positive iff an improving
    # ray exists
    n = len(A[0])
    prob = LPProblem(c=tuple(Fraction(a) for a in w),
                     A=tuple(tuple(Fraction(a) for a in row) for row in A),
                     b=tuple(Fraction(0) for _ in A),
                     senses=("=",) * len(A),
                     lower=(Fraction(0),) * n,
                     upper=(Fraction(1),) * n)
    res = solve_lp(prob)
    return res.value if res.status == "optimal" else Fraction(0)


def lip_oracle(A, b, u, w) -> LIPResult:
    """max{w.x : Ax = b, 0 <= x <= u, x integer} by a bounded search.

    One depth-first search in lexicographic order (graver's
    fiber_maximum) prunes a prefix when the rows can no longer reach b
    or when its value plus the most the remaining columns can add is no
    better than the best point found so far.  Only a strictly better
    point replaces that incumbent, so ties resolve to the
    lexicographically smallest optimum.  With u=None the fiber itself
    may be infinite: an improving nonnegative kernel ray makes the
    problem unbounded, and otherwise some optimum is a componentwise-
    minimal fiber point, so searching the minimal-point box suffices.
    """
    A = tuple(integer_vector(row) for row in A)
    b = integer_vector(b)
    if len(A) != len(b):
        raise ValueError("row count mismatch")
    n = len(A[0])
    w = integer_vector(w)
    if len(w) != n:
        raise ValueError("objective length mismatch")

    free = u is None
    if free:
        relax = LPProblem(c=(Fraction(0),) * n,
                          A=tuple(tuple(Fraction(a) for a in row)
                                  for row in A),
                          b=tuple(Fraction(v) for v in b),
                          senses=("=",) * len(A),
                          lower=(Fraction(0),) * n)
        if solve_lp(relax).status == "infeasible":
            return LIPResult("infeasible")
        u = _minimal_point_box(A, b)
    else:
        u = integer_vector(u)
        if len(u) != n or any(v < 0 for v in u):
            raise ValueError("bounds must be nonnegative, one per column")
    best = fiber_maximum(A, b, (0,) * n, u, w)
    if best is None:
        return LIPResult("infeasible")
    if free and _direction_lp(A, w) > 0:
        return LIPResult("unbounded")
    return LIPResult("optimal", best[1], best[0])


# ---------------------------------------------------------------------------
# candidate directions in the image plane

def _half(v):
    return 0 if v[1] > 0 or (v[1] == 0 and v[0] > 0) else 1


def _angle_cmp(v, w):
    if _half(v) != _half(w):
        return _half(v) - _half(w)
    return -_cmp(v[0] * w[1] - v[1] * w[0], 0)


def candidate_directions(e_proj) -> list[IntVec]:
    """One integer direction strictly inside each sector of the fan
    cut out by the normals to the projected edge directions.

    In the plane the fan's rays come in antipodal pairs, so every
    sector spans less than a half turn and the sum of its two bounding
    primitive rays lies strictly inside it.  A single direction line
    degenerates to two half-plane sectors; the directions along the
    line itself expose both endpoints of the (necessarily segment)
    image.  Dimension one needs no geometry: just both orientations.
    """
    vecs = [integer_vector(v) for v in e_proj]
    if not vecs:
        raise ValueError("no projected edge directions")
    d = len(vecs[0])
    if any(len(v) != d for v in vecs):
        raise ValueError("mixed dimensions")
    if any(not any(v) for v in vecs):
        raise ValueError("zero vector is not a direction")
    if d == 1:
        return [(1,), (-1,)]
    if d != 2:
        raise ValueError("only image dimensions 1 and 2 are supported")

    lines = {lex_canonical(primitive(v)) for v in vecs}
    if len(lines) == 1:
        e = next(iter(lines))
        return [e, vneg(e)]
    rays = set()
    for e in lines:
        rays.add((-e[1], e[0]))
        rays.add((e[1], -e[0]))
    order = sorted(rays, key=cmp_to_key(_angle_cmp))
    reps = []
    for r, s in zip(order, order[1:] + order[:1]):
        reps.append(primitive(vadd(r, s)))
    return reps


# ---------------------------------------------------------------------------
# maximization

def maximize_composite(A, b, u, obj: CompositeObjective,
                       E: EdgeDirectionSet, oracle=None) -> IntVec:
    """max c(w_1.x, ..., w_d.x) over {x in N^n : Ax = b, x <= u}.

    E must cover the edge directions of the fiber's convex hull; the
    Graver basis of A does (and still does after truncation by u,
    since sign-compatible decompositions stay inside the bounding box
    of their endpoints).  One oracle call per fan sector collects a
    superset of the vertices of the image polytope; the best image
    under c wins, ties broken by lexicographic image then preimage.

    `oracle(A, b, u, w)` defaults to lip_oracle; inject to instrument
    or replace the solver.
    """
    if oracle is None:
        oracle = lip_oracle
    if not len(E):
        raise ValueError("edge-direction set is empty")
    n = len(A[0])
    if obj.dimension != n or any(len(g) != n for g in E):
        raise ValueError("dimension mismatch")

    if obj.d == 1:
        dirs = [(1,), (-1,)]
    else:
        proj = [obj.project(g) for g in E]
        nonzero = [p for p in proj if any(p)]
        if nonzero:
            dirs = candidate_directions(nonzero)
        else:
            dirs = [(0, 0)]          # image polytope is a single point

    images: dict[IntVec, IntVec] = {}
    for ud in dirs:
        w = tuple(sum(c * wt[j] for c, wt in zip(ud, obj.weights))
                  for j in range(n))
        res = oracle(A, b, u, w)
        if res.status == "infeasible":
            raise ValueError("system is infeasible")
        if res.status != "optimal":
            raise RuntimeError(f"oracle reported {res.status}")
        y = obj.project(res.x)
        if y not in images or res.x < images[y]:
            images[y] = res.x

    obj.validate_convex(images.keys())
    best = None
    for y in sorted(images):
        if best is None or obj.compare(y, best) > 0:
            best = y
    return images[best]
