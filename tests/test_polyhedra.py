"""Vertex enumeration, supporting cones, and half-open triangulation tests.

The triangulation oracle is membership in the original cone, by LP or, for
a supporting cone, by the rows tight at its vertex: summed half-open piece
multiplicities must reproduce it exactly, point by point.
"""

import collections
import itertools
import random
from fractions import Fraction

import pytest

import polyhedra_reference
from elimination_reference import solve_rational
from latticeopt import polyhedra
from latticeopt.core import (
    LPProblem,
    dot,
    rational_rank,
    solve_lp,
    transpose,
    vneg,
    vsub,
)
from latticeopt.polyhedra import (
    Cone,
    NotPointedError,
    Polyhedron,
    SimplicialCone,
    UnboundedError,
    bounding_box,
    box_polyhedron,
    enumerate_vertices,
    facet_normals,
    implicit_equality_rows,
    is_bounded,
    supporting_cone,
    triangulate,
)


def interval(a, b):
    return Polyhedron(((1,), (-1,)), (b, -a))


def cone_contains(rays, apex, x) -> bool:
    """LP oracle: x - apex is a nonnegative combination of the rays."""
    n = len(x)
    diff = tuple(Fraction(xi) - Fraction(ai) for xi, ai in zip(x, apex))
    if not rays:
        return diff == tuple(Fraction(0) for _ in range(n))
    A = tuple(tuple(r[i] for r in rays) for i in range(n))
    res = solve_lp(LPProblem(c=(0,) * len(rays), A=A, b=diff,
                             senses=("=",) * n, lower=(0,) * len(rays)))
    return res.status == "optimal"


def halfopen_contains(piece: SimplicialCone, x) -> bool:
    diff = tuple(Fraction(a) - Fraction(b) for a, b in zip(x, piece.apex))
    lam = solve_rational(transpose(piece.generators), diff)
    if lam is None:
        return False
    for i, l in enumerate(lam):
        if l < 0:
            return False
        if l == 0 and i in piece.open_facets:
            return False
    return True


# ---------------------------------------------------------------------------
# vertices

def test_interval_vertices():
    P = interval(0, 7)
    vs = enumerate_vertices(P)
    assert [v.point for v in vs] == [(0,), (7,)]
    assert vs[0].tight_rows == frozenset({1})
    assert vs[1].tight_rows == frozenset({0})


def test_square_vertices():
    P = box_polyhedron((0, 0), (3, 3))
    vs = enumerate_vertices(P)
    assert [v.point for v in vs] == [(0, 0), (0, 3), (3, 0), (3, 3)]


def test_simplex_vertices():
    P = Polyhedron(((-1, 0), (0, -1), (1, 1)), (0, 0, 3))
    vs = enumerate_vertices(P)
    assert [v.point for v in vs] == [(0, 0), (0, 3), (3, 0)]


def test_point_polytope():
    P = Polyhedron(((1, 0), (-1, 0), (0, 1), (0, -1)), (3, -3, 7, -7))
    vs = enumerate_vertices(P)
    assert [v.point for v in vs] == [(3, 7)]


def test_degenerate_vertex_tight_rows_exceed_dimension():
    # square pyramid: apex has four tight rows in dimension three
    P = Polyhedron(((1, 0, 1), (-1, 0, 1), (0, 1, 1), (0, -1, 1), (0, 0, -1)),
                   (2, 2, 2, 2, 0))
    vs = enumerate_vertices(P)
    apex = next(v for v in vs if v.point == (0, 0, 2))
    assert len(apex.tight_rows) == 4
    assert len(vs) == 5


def test_line_raises():
    with pytest.raises(NotPointedError):
        enumerate_vertices(Polyhedron(((1, 0),), (0,)))


def test_vertex_tight_rows_have_full_rank():
    from latticeopt.core import rational_rank
    rng = random.Random(5)
    for _ in range(25):
        n = rng.randint(1, 3)
        P = box_polyhedron((0,) * n, tuple(rng.randint(1, 4) for _ in range(n)))
        extra = tuple(tuple(rng.randint(-3, 3) for _ in range(n))
                      for _ in range(2))
        P = Polyhedron(P.A + extra,
                       P.b + tuple(rng.randint(0, 6) for _ in range(2)))
        for v in enumerate_vertices(P):
            assert rational_rank([P.A[i] for i in v.tight_rows]) == n


def test_hull_of_vertices_contains_all_lattice_points():
    rng = random.Random(23)
    for _ in range(15):
        n = rng.randint(2, 3)
        P = box_polyhedron((0,) * n, (4,) * n)
        extra = tuple(tuple(rng.randint(-2, 2) for _ in range(n))
                      for _ in range(2))
        P = Polyhedron(P.A + extra,
                       P.b + tuple(rng.randint(1, 6) for _ in range(2)))
        vs = enumerate_vertices(P)
        if not vs:
            continue
        pts = [v.point for v in vs]
        for x in itertools.product(range(0, 5), repeat=n):
            if not P.contains(x):
                continue
            # membership in conv(pts) via LP feasibility
            k = len(pts)
            A = [tuple(p[i] for p in pts) for i in range(n)]
            A.append((1,) * k)
            res = solve_lp(LPProblem(
                c=(0,) * k, A=tuple(A), b=tuple(x) + (1,),
                senses=("=",) * (n + 1), lower=(0,) * k))
            assert res.status == "optimal"


def test_bounding_box_and_boundedness():
    P = Polyhedron(((-1, 0), (0, -1), (2, 3)), (0, 0, 12))
    assert is_bounded(P)
    lo, hi = bounding_box(P)
    assert lo == (0, 0) and hi == (6, 4)
    Q = Polyhedron(((-1, 0), (0, -1)), (0, 0))
    assert not is_bounded(Q)
    assert issubclass(UnboundedError, ValueError)
    with pytest.raises(UnboundedError):
        bounding_box(Q)
    empty = Polyhedron(((1,), (-1,)), (0, -1))
    assert is_bounded(empty)
    assert bounding_box(empty) is None


def test_implicit_equalities():
    P = Polyhedron(((1, 1), (-1, -1), (1, 0), (-1, 0)), (3, -3, 2, 0))
    assert implicit_equality_rows(P) == (0, 1)


def test_vertex_tight_rows_are_the_implicit_equalities():
    # polyhedron_gf reads the implicit equalities of a polytope off its
    # vertices; the LP routine checks that rule independently
    rng = random.Random(61)
    done = flat = 0
    while done < 30:
        n = rng.randint(1, 3)
        lo = tuple(rng.randint(-3, 0) for _ in range(n))
        hi = tuple(rng.randint(0, 3) for _ in range(n))
        box = box_polyhedron(lo, hi)
        A, b = list(box.A), list(box.b)
        for _ in range(rng.randint(0, 2)):
            A.append(tuple(rng.randint(-3, 3) for _ in range(n)))
            b.append(rng.randint(-2, 8))
        if done % 3 == 0:
            # a forced pair of opposite rows through a point of the box
            a = tuple(rng.randint(-3, 3) for _ in range(n))
            beta = dot(a, tuple(rng.randint(l, h) for l, h in zip(lo, hi)))
            A += [a, tuple(-x for x in a)]
            b += [beta, -beta]
        P = Polyhedron(tuple(A), tuple(b))
        if bounding_box(P) is None:
            continue
        tight = frozenset.intersection(
            *(v.tight_rows for v in enumerate_vertices(P)))
        assert tuple(sorted(tight)) == implicit_equality_rows(P)
        flat += bool(tight)
        done += 1
    assert 10 <= flat < 30


# ---------------------------------------------------------------------------
# supporting cones

def test_supporting_cone_interval():
    P = interval(0, 9)
    vs = enumerate_vertices(P)
    c0 = supporting_cone(P, vs[0])
    cn = supporting_cone(P, vs[1])
    assert c0.rays == ((1,),)
    assert cn.rays == ((-1,),)


def test_supporting_cone_simplex():
    P = Polyhedron(((-1, 0), (0, -1), (1, 1)), (0, 0, 1))
    c = supporting_cone(P, (Fraction(1), Fraction(0)))
    assert set(c.rays) == {(-1, 0), (-1, 1)}


def test_supporting_cone_degenerate_apex():
    P = Polyhedron(((1, 0, 1), (-1, 0, 1), (0, 1, 1), (0, -1, 1), (0, 0, -1)),
                   (2, 2, 2, 2, 0))
    # edges from the apex run to the base corners (+-2, +-2, 0)
    c = supporting_cone(P, (Fraction(0), Fraction(0), Fraction(2)))
    assert set(c.rays) == {(1, 1, -1), (1, -1, -1), (-1, 1, -1), (-1, -1, -1)}


def test_supporting_cone_rejects_non_vertex():
    P = box_polyhedron((0, 0), (2, 2))
    with pytest.raises(ValueError):
        supporting_cone(P, (Fraction(1), Fraction(0)))


# ---------------------------------------------------------------------------
# facet normals and triangulation

def test_facet_normals_duality():
    gens = ((2, 1), (1, 3))
    normals = facet_normals(gens)
    for i, a in enumerate(normals):
        for j, g in enumerate(gens):
            v = dot(a, g)
            assert (v > 0) if i == j else (v == 0)


def test_triangulate_unimodular_is_identity():
    c = Cone(apex=(0, 0), rays=((1, 0), (0, 1)))
    pieces = triangulate(c)
    assert len(pieces) == 1
    assert set(pieces[0].generators) == {(0, 1), (1, 0)}
    assert pieces[0].open_facets == frozenset()


def test_triangulate_2d_counterclockwise_piece():
    # generator order feeds LLL in signed_decompose, so it is fixed:
    # a simplicial 2-D cone comes back counterclockwise
    for rays in (((1, 0), (1, 1)), ((1, 1), (1, 0)),
                 ((-1, 2), (3, -1)), ((3, -1), (-1, 2))):
        pieces = triangulate(Cone(apex=(0, 0), rays=rays))
        assert len(pieces) == 1
        g = pieces[0].generators
        assert set(g) == set(rays)
        assert g[0][0] * g[1][1] - g[0][1] * g[1][0] > 0
    # pulling leaves out a ray that is not extreme
    pieces = triangulate(Cone(apex=(0, 0), rays=((1, 0), (1, 1), (0, 1))))
    assert [p.generators for p in pieces] == [((0, 1), (1, 0))]


def test_triangulate_halfopen_partition_2d():
    c = Cone(apex=(0, 0), rays=((1, 0), (1, 1), (0, 1)))
    pieces = triangulate(c)
    for x in itertools.product(range(-4, 5), repeat=2):
        inside = cone_contains(c.rays, c.apex, x)
        mult = sum(1 for p in pieces if halfopen_contains(p, x))
        assert mult == (1 if inside else 0), x


def test_triangulate_pyramid_cone():
    rays = ((1, 0, -1), (-1, 0, -1), (0, 1, -1), (0, -1, -1))
    c = Cone(apex=(0, 0, 2), rays=rays)
    pieces = triangulate(c)
    assert len(pieces) == 2
    for x in itertools.product(range(-3, 4), range(-3, 4), range(-2, 4)):
        inside = cone_contains(rays, c.apex, x)
        mult = sum(1 for p in pieces if halfopen_contains(p, x))
        assert mult == (1 if inside else 0), x


def test_triangulate_random_3d_cones_partition():
    rng = random.Random(41)
    done = 0
    while done < 5:
        rays = tuple(tuple(rng.randint(-2, 3) for _ in range(3))
                     for _ in range(5))
        try:
            c = Cone(apex=(0, 0, 0), rays=rays)
            pieces = triangulate(c)
        except (ValueError, NotPointedError):
            continue
        for x in itertools.product(range(-3, 4), repeat=3):
            inside = cone_contains(c.rays, c.apex, x)
            mult = sum(1 for p in pieces if halfopen_contains(p, x))
            assert mult == (1 if inside else 0), (rays, x)
        done += 1


def test_triangulate_rejects_line():
    with pytest.raises(NotPointedError):
        triangulate(Cone(apex=(0, 0), rays=((1, 0), (-1, 0), (0, 1))))


def test_cones_reject_non_integer_entries():
    for bad in (Fraction(1, 2), 1.9, "1"):
        with pytest.raises(ValueError, match="non-integer"):
            Cone(apex=(0, 0), rays=((bad, 1), (1, 0)))
        with pytest.raises(ValueError, match="non-integer"):
            SimplicialCone(apex=(0, 0), generators=((1, 0), (0, bad)))
    c = Cone(apex=(0, 0), rays=((Fraction(2), 1), (1, 0)))
    assert c.rays == ((2, 1), (1, 0))
    assert all(type(x) is int for r in c.rays for x in r)


# ---------------------------------------------------------------------------
# the precondition triangulate relies on: supporting_cone returns exactly
# the extreme rays of a pointed cone, checked here by LP

def lp_is_pointed(rays) -> bool:
    """0 is not a convex combination of the rays."""
    n, k = len(rays[0]), len(rays)
    A = tuple(tuple(r[i] for r in rays) for i in range(n)) + ((1,) * k,)
    res = solve_lp(LPProblem(c=(0,) * k, A=A, b=(0,) * n + (1,),
                             senses=("=",) * (n + 1), lower=(0,) * k))
    return res.status == "infeasible"


def lp_is_extreme(rays, i) -> bool:
    """Ray i is not a nonnegative combination of the others."""
    others = rays[:i] + rays[i + 1:]
    return not others or not cone_contains(others, (0,) * len(rays[i]),
                                           rays[i])


def precondition_polytopes():
    """Seeded boxes cut through lattice points (often at a box corner, so
    the vertex there turns degenerate), square pyramids and
    cross-polytopes."""
    rng = random.Random(7)
    for _ in range(100):
        n = rng.randint(2, 4)
        lo = tuple(rng.randint(-2, 0) for _ in range(n))
        hi = tuple(rng.randint(1, 3) for _ in range(n))
        B = box_polyhedron(lo, hi)
        A, b = list(B.A), list(B.b)
        for _ in range(rng.randint(1, 3)):
            a = tuple(rng.randint(-2, 2) for _ in range(n))
            p = tuple(rng.randint(l, h) for l, h in zip(lo, hi))
            if any(a):
                A.append(a)
                b.append(dot(a, p))
        yield Polyhedron(tuple(A), tuple(b))
    for n in (2, 3, 4):
        rows = tuple(itertools.product((1, -1), repeat=n))
        yield Polyhedron(rows, (1,) * len(rows))
    for n in (3, 4):
        for h in (1, 2, 3):
            rows = [tuple(-1 if j == n - 1 else 0 for j in range(n))]
            for i, s in itertools.product(range(n - 1), (1, -1)):
                rows.append(tuple(s if j == i else 1 if j == n - 1 else 0
                                  for j in range(n)))
            yield Polyhedron(tuple(rows), (0,) + (h,) * (len(rows) - 1))


def test_supporting_cones_meet_triangulate_precondition(monkeypatch):
    def no_lp(problem):
        raise AssertionError("solve_lp called")

    monkeypatch.setattr(polyhedra, "solve_lp", no_lp)
    cones = degenerate = 0
    for P in precondition_polytopes():
        n = P.dim
        vs = enumerate_vertices(P)
        if rational_rank([vsub(v.point, vs[0].point) for v in vs]) < n:
            continue                       # not full-dimensional
        for v in vs:
            c = supporting_cone(P, v)
            pieces = triangulate(c)
            rays = list(c.rays)
            assert lp_is_pointed(rays), c
            assert all(lp_is_extreme(rays, i) for i in range(len(rays))), c
            cones += 1
            if len(v.tight_rows) == n:
                assert [set(p.generators) for p in pieces] == [set(rays)]
                assert pieces[0].open_facets == frozenset()
                continue
            degenerate += 1
            # the tangent cone in H-form, independent of triangulate
            tight = [P.A[i] for i in sorted(v.tight_rows)]
            window = [range(int(x) - 1, int(x) + 2) for x in v.point]
            for x in itertools.product(*window):
                d = vsub(x, v.point)
                inside = all(dot(row, d) <= 0 for row in tight)
                mult = sum(1 for p in pieces if halfopen_contains(p, x))
                assert mult == (1 if inside else 0), (c, x)
    assert cones >= 700
    assert degenerate >= 100


# ---------------------------------------------------------------------------
# the integer enumeration against the Fraction-and-LP preflight it replaced

def differential_polyhedra():
    """Seeded polyhedra in dimensions 1-4: (kind, P)."""
    rng = random.Random(2009)
    for _ in range(30):
        n = rng.randint(1, 4)
        lo = tuple(rng.randint(-3, 0) for _ in range(n))
        hi = tuple(rng.randint(1, 3) for _ in range(n))
        B = box_polyhedron(lo, hi)
        A, b = list(B.A), list(B.b)
        for _ in range(rng.randint(0, 3)):
            a = tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                      for _ in range(n))
            if any(a):
                A.append(a)
                b.append(Fraction(rng.randint(-4, 8), rng.randint(1, 3)))
        yield "random", Polyhedron(tuple(A), tuple(b))
        # the same box cut by an equality: lower-dimensional, through a
        # lattice point or not
        a = tuple(rng.randint(-2, 2) for _ in range(n))
        if any(a):
            p = tuple(Fraction(rng.randint(2 * l, 2 * h), rng.choice((1, 2)))
                      for l, h in zip(lo, hi))
            beta = dot(a, p)
            yield "flat", Polyhedron(B.A + (a, vneg(a)), B.b + (beta, -beta))
            # and by two parallel rows with a gap between them
            gap = Fraction(rng.randint(1, 3), rng.randint(1, 2))
            yield "empty", Polyhedron(B.A + (a, vneg(a)),
                                      B.b + (beta, -beta - gap))
    for _ in range(25):
        # pointed and unbounded: the nonnegative orthant cut by rows that
        # leave a ray open
        n = rng.randint(1, 4)
        ray = tuple(rng.randint(0, 2) for _ in range(n - 1)) + (1,)
        A = [tuple(-int(j == i) for j in range(n)) for i in range(n)]
        b = [0] * n
        for _ in range(rng.randint(0, 3)):
            c = tuple(rng.randint(-2, 2) for _ in range(n))
            if any(c) and dot(c, ray) <= 0:
                A.append(c)
                b.append(rng.randint(-3, 4))
        yield "unbounded", Polyhedron(tuple(A), tuple(b))
    for _ in range(20):
        # rank below n: rows that never mention the last coordinates
        n = rng.randint(2, 4)
        k = rng.randint(1, n - 1)
        A, b = [], []
        for _ in range(rng.randint(1, 4)):
            A.append(tuple(rng.randint(-2, 2) for _ in range(k))
                     + (0,) * (n - k))
            b.append(rng.randint(-3, 3))
        yield "rank_deficient", Polyhedron(tuple(A), tuple(b))
    for n in (1, 2, 3):
        yield "rank_deficient", Polyhedron(((0,) * n,), (-1,))
        yield "rank_deficient", Polyhedron(((0,) * n,), (0,))
    yield "rank_deficient", Polyhedron(((2, 2), (-2, -2)), (1, -1))
    yield "rank_deficient", Polyhedron(((1, 0), (-1, 0)), (1, 0))
    for n in (2, 3, 4):
        rows = tuple(itertools.product((1, -1), repeat=n))
        yield "cross", Polyhedron(rows, (1,) * len(rows))
    for n in (3, 4):
        for h in (1, 2, 3):
            rows = [tuple(-1 if j == n - 1 else 0 for j in range(n))]
            for i, s in itertools.product(range(n - 1), (1, -1)):
                rows.append(tuple(s if j == i else 1 if j == n - 1 else 0
                                  for j in range(n)))
            yield "pyramid", Polyhedron(tuple(rows),
                                        (0,) + (h,) * (len(rows) - 1))


def test_enumeration_matches_fraction_and_lp_preflight():
    seen = collections.Counter()
    for kind, P in differential_polyhedra():
        empty = polyhedra_reference.is_empty(P)
        assert polyhedra.is_empty(P) == empty, (kind, P)
        x = polyhedra.find_feasible_point(P)
        assert (x is None) == empty, (kind, P)
        assert x is None or polyhedra_reference.contains(P, x)
        try:
            want = polyhedra_reference.bounding_box(P)
        except UnboundedError:
            with pytest.raises(UnboundedError):
                bounding_box(P)
            want = "unbounded"
        else:
            assert bounding_box(P) == want, (kind, P)
        assert is_bounded(P) == polyhedra_reference.is_bounded(P)
        if rational_rank(P.A) < P.dim:
            with pytest.raises(NotPointedError):
                enumerate_vertices(P)
        else:
            assert enumerate_vertices(P) == \
                polyhedra_reference.enumerate_vertices(P), (kind, P)
        seen[kind, "empty" if empty else "bounded" if want != "unbounded"
             else "unbounded"] += 1
    # every kind reaches the outcomes it is built for
    assert seen["unbounded", "unbounded"] >= 20
    assert seen["empty", "empty"] >= 20
    assert seen["flat", "bounded"] >= 20
    assert seen["random", "bounded"] >= 25
    assert seen["rank_deficient", "unbounded"] >= 10
    assert seen["rank_deficient", "empty"] >= 10
    assert seen["cross", "bounded"] + seen["pyramid", "bounded"] == 9
