"""Lifted polytopes, pi <= 0 projections, and integer-convexity tests."""

import itertools
import random
from fractions import Fraction
from pathlib import Path

import pytest

from latticeopt import cli, core, polyhedra, polyrelax
from latticeopt.core import LPProblem, dot, rational_rank, solve_lp, vneg, vsub
from latticeopt.fptas import SparsePolynomial
from latticeopt.polyhedra import Polyhedron, enumerate_vertices, is_empty
from latticeopt.polyrelax import (
    _cloud_minimum,
    build_lifted,
    check_condition,
    convex_hull_h,
    is_integer_convex,
    is_strictly_integer_convex,
    project_with_pi_leq_0,
)
from polynomial_power import power_polynomial
from relax_reference import project_fourier_motzkin

F = Fraction


def poly(d, *mons):
    return SparsePolynomial(d, tuple((F(c), tuple(e)) for c, e in mons))


def box_points(l, u):
    return itertools.product(*(range(a, b + 1) for a, b in zip(l, u)))


def int_rows(P):
    return {tuple(int(a) for a in row) + (int(c),)
            for row, c in zip(P.A, P.b)}


def in_hull(q, pts):
    k = len(pts)
    prob = LPProblem(
        c=(0,) * k,
        A=tuple(tuple(F(p[i]) for p in pts) for i in range(len(q)))
        + ((1,) * k,),
        b=tuple(F(v) for v in q) + (1,),
        senses=("=",) * (len(q) + 1),
        lower=(0,) * k)
    return solve_lp(prob).status == "optimal"


X2 = poly(1, (1, (2,)))
CUBIC = poly(1, (1, (3,)), (-5, (2,)))       # integer-convex on [1,4]
CPS = poly(2, (3, (2, 0)), (2, (0, 2)), (-19, (0, 0)))


# ---------------------------------------------------------------------------
# lifted polytopes and hulls

def test_lifted_cloud_is_exact():
    L = build_lifted([poly(1, (1, (1,)))], (0,), (2,))
    assert L.cloud == ((0, 0), (1, 1), (2, 2))
    eqs, ineqs = L.hull
    assert eqs == (((1, -1), 0),)            # the segment pi = x
    assert set(ineqs) == {((1, 1), 4), ((-1, -1), 0)}


def test_lifted_validation():
    with pytest.raises(ValueError):
        build_lifted([], (0,), (2,))
    with pytest.raises(ValueError):
        build_lifted([X2, X2], (0,), (2,))
    with pytest.raises(ValueError):
        build_lifted([X2], (3,), (2,))
    with pytest.raises(ValueError):
        build_lifted([CPS], (0,), (2,))
    with pytest.raises(ValueError):
        build_lifted([poly(1, (F(1, 2), (1,)))], (0,), (2,))
    with pytest.raises(ValueError):
        build_lifted([X2], (0,), (100000,))


def test_parabola_hull_has_secant_facet():
    L = build_lifted([X2], (-3,), (5,))
    eqs, ineqs = L.hull
    assert eqs == ()
    # single top facet: the secant from (-3, 9) to (5, 25)
    assert [r for r in ineqs if r[0][1] > 0] == [((-2, 1), 15)]
    # consecutive-point secants bound the strip from below
    assert ((1, -1), 0) in ineqs             # pi >= x through (0,0),(1,1)


def test_hull_handles_single_point():
    eqs, ineqs = convex_hull_h([(4, -1)])
    assert ineqs == ()
    assert set(eqs) == {((1, 0), 4), ((0, 1), -1)}


def test_hull_matches_membership_oracle():
    rng = random.Random(7)
    for _ in range(10):
        pts = {(rng.randint(-3, 3), rng.randint(-3, 3))
               for _ in range(rng.randint(2, 7))}
        pts = sorted(pts)
        eqs, ineqs = convex_hull_h(pts)
        for q in itertools.product(range(-4, 5), repeat=2):
            member = all(dot(a, q) == c for a, c in eqs) and \
                all(dot(a, q) <= c for a, c in ineqs)
            assert member == in_hull(q, pts), (pts, q)


def test_hull_facets_are_tight_on_enough_points():
    L = build_lifted([CPS], (0, 0), (3, 3))
    eqs, ineqs = L.hull
    assert eqs == ()
    for a, c in ineqs:
        tight = [p for p in L.cloud if dot(a, p) == c]
        assert len(tight) >= 3
        assert all(dot(a, p) <= c for p in L.cloud)


# ---------------------------------------------------------------------------
# projection with pi <= 0

def test_projection_of_shifted_parabola():
    L = build_lifted([poly(1, (1, (2,)), (-5, (0,)))], (-3,), (5,))
    P = project_with_pi_leq_0(L)
    assert int_rows(P) == {(5, 11), (-5, 11)}   # x in [-11/5, 11/5]


def test_projection_matches_published_system():
    P = project_with_pi_leq_0(build_lifted([CPS], (0, 0), (3, 3)))
    assert int_rows(P) == {
        (9, 6, 29),
        (3, 10, 31),
        (9, 10, 37),
        (15, 2, 37),
        (15, 6, 41),
        (-1, 0, 0),
        (0, -1, 0),
        (0, 1, 3),
    }


def test_projection_integer_points_equal_constrained_set():
    P = project_with_pi_leq_0(build_lifted([CPS], (0, 0), (3, 3)))
    box = list(box_points((0, 0), (3, 3)))
    K = {x for x in box if CPS.evaluate(x) <= 0}
    assert {x for x in box if P.contains(x)} == K
    # and the known hull of K is active: its facets hold on K
    assert all(x[0] + x[1] <= 3 and 0 <= x[0] <= 2 and x[1] >= 0 for x in K)


def test_projection_empty_when_no_pi_is_nonpositive():
    L = build_lifted([poly(1, (1, (2,)), (1, (0,)))], (0,), (2,))
    assert is_empty(project_with_pi_leq_0(L))


def test_projection_contains_constrained_set_randomized():
    rng = random.Random(13)
    for _ in range(10):
        mons = [(rng.randint(-3, 3), (2, 0)), (rng.randint(-3, 3), (0, 2)),
                (rng.randint(-2, 2), (1, 1)), (rng.randint(-9, 3), (0, 0))]
        p = poly(2, *[(c, e) for c, e in mons if c])
        if not p.monomials:
            continue
        l, u = (0, 0), (2, 2)
        P = project_with_pi_leq_0(build_lifted([p], l, u))
        for x in box_points(l, u):
            if p.evaluate(x) <= 0:
                assert P.contains(x)


def test_projection_gap_appears_when_condition_fails():
    # p = -x^2 + 2x on [0,2]: midpoint of (0,0) and (2,0) hides x = 1
    p = poly(1, (-1, (2,)), (2, (1,)))
    L = build_lifted([p], (0,), (2,))
    assert not check_condition(L)
    P = project_with_pi_leq_0(L)
    K = {x for x in box_points((0,), (2,)) if p.evaluate(x) <= 0}
    relaxed = {x for x in box_points((0,), (2,)) if P.contains(x)}
    assert K == {(0,), (2,)}
    assert relaxed == {(0,), (1,), (2,)}


def test_condition_implies_exact_integer_projection():
    rng = random.Random(17)
    done = 0
    while done < 8:
        # random convex separable quadratic, shifted to cut the box
        a1, a2 = rng.randint(1, 3), rng.randint(1, 3)
        c1, c2 = rng.randint(0, 2), rng.randint(0, 2)
        t = rng.randint(1, 8)
        p = poly(2, (a1, (2, 0)), (-2 * a1 * c1, (1, 0)),
                 (a2, (0, 2)), (-2 * a2 * c2, (0, 1)),
                 (a1 * c1 * c1 + a2 * c2 * c2 - t, (0, 0)))
        l, u = (0, 0), (2, 2)
        L = build_lifted([p], l, u)
        assert check_condition(L)            # convex, so always passes
        P = project_with_pi_leq_0(L)
        K = {x for x in box_points(l, u) if p.evaluate(x) <= 0}
        assert {x for x in box_points(l, u) if P.contains(x)} == K
        done += 1


def random_poly(rng, n, terms, top):
    mons = [(rng.randint(-5, 5), tuple(rng.randint(0, top) for _ in range(n)))
            for _ in range(terms)] + [(-rng.randint(0, 8), (0,) * n)]
    return poly(n, *([m for m in mons if m[0]] or [(1, (0,) * n)]))


def relax_cases():
    """(p, l, u): the workloads' interval and box shapes, random 1-3-D
    clouds, and projections of lower dimension."""
    rng = random.Random(29)
    for _ in range(25):                  # 1-D intervals of 5-9 points
        lo = rng.randint(-2, 0)
        p = poly(1, *[m for m in ((rng.randint(1, 3), (2,)),
                                  (rng.randint(-4, 4), (1,)),
                                  (-rng.randint(1, 20), (0,))) if m[0]])
        yield p, (lo,), (lo + rng.randint(4, 8),)
    for _ in range(40):                  # 2-D boxes of 6 and 8 points
        a, c = rng.choice(((1, 2), (2, 1), (1, 3), (3, 1)))
        lo = (rng.randint(-1, 0), rng.randint(-1, 0))
        mons = ((rng.randint(1, 3), (2, 0)), (rng.randint(1, 3), (0, 2)),
                (rng.randint(-1, 1), (1, 1)), (rng.randint(-2, 2), (1, 0)),
                (-rng.randint(2, 12), (0, 0)))
        yield poly(2, *[m for m in mons if m[0]]), lo, (lo[0] + a, lo[1] + c)
    for _ in range(40):                  # random clouds in 1-3 dimensions
        n = rng.randint(1, 3)
        lo = tuple(rng.randint(-2, 0) for _ in range(n))
        hi = tuple(v + rng.randint(0, 3 if n < 3 else 1) for v in lo)
        yield random_poly(rng, n, rng.randint(1, 5), 3), lo, hi
    x2y2 = poly(2, (1, (2, 0)), (1, (0, 2)))
    x2 = poly(2, (1, (2, 0)))
    xy = poly(2, (1, (1, 0)), (1, (0, 1)))
    for p in (x2y2, x2, xy):             # lower-dimensional projections
        for l, u in (((-1, -1), (1, 1)), ((0, 0), (2, 2)), ((-1, 0), (2, 1))):
            yield p, l, u
    yield poly(1, (1, (2,))), (-2,), (2,)
    yield poly(3, (1, (2, 0, 0)), (1, (0, 2, 0))), (-1, -1, -1), (1, 1, 1)


def window_points(P, l, u):
    window = [range(a - 2, b + 3) for a, b in zip(l, u)]
    return {x for x in itertools.product(*window) if P.contains(x)}


def test_projection_matches_fourier_motzkin():
    lower_dim = 0
    for p, l, u in relax_cases():
        L = build_lifted([p], l, u)
        got, want = project_with_pi_leq_0(L), project_fourier_motzkin(L)
        rows = (got.A, got.b)
        if is_empty(want):
            assert is_empty(got) and rows == (want.A, want.b), (p, l, u)
            continue
        vs = [v.point for v in enumerate_vertices(got)]
        full = rational_rank([vsub(v, vs[0]) for v in vs]) == len(l)
        if len(l) == 1 or full:
            assert rows == (want.A, want.b), (p, l, u)
        else:
            lower_dim += 1
            assert window_points(got, l, u) == window_points(want, l, u)
            assert vs == [v.point for v in enumerate_vertices(want)]
    assert lower_dim >= 6


def test_lower_hull_is_the_cloud_minimum():
    for p, l, u in relax_cases():
        L = build_lifted([p], l, u)
        n = L.n
        points = [pt[:n] for pt in L.cloud]
        values = [pt[n] for pt in L.cloud]
        for x in points:
            assert L.lower_hull(x) == _cloud_minimum(points, values, x)


def test_x2_plus_y2_projects_to_the_origin():
    L = build_lifted([poly(2, (1, (2, 0)), (1, (0, 2)))], (-1, -1), (1, 1))
    assert int_rows(project_with_pi_leq_0(L)) == {
        (-1, 0, 0), (0, -1, 0), (0, 1, 0), (1, 0, 0)}


def box_file(tmp_path, name, p, l, u):
    n = len(l)
    rows = []
    for i in range(n):
        e = ["0"] * n
        e[i] = "1"
        rows.append(" ".join(e) + f" <= {u[i]}")
        e[i] = "-1"
        rows.append(" ".join(e) + f" <= {-l[i]}")
    mons = [f"{c} " + " ".join(map(str, e)) for c, e in p.monomials]
    path = tmp_path / name
    path.write_text("POLYTOPE\n" + "\n".join(rows) + "\n\nPOLY\n"
                    + "\n".join(mons) + "\n")
    return path


def test_relax_command_solves_no_lp(monkeypatch, capsys, tmp_path):
    files = [Path(__file__).parent / "fixtures" / "cps_relax.txt"]
    expected = []
    for i, (p, l, u) in enumerate(itertools.islice(relax_cases(), 0, None, 9)):
        files.append(box_file(tmp_path, f"relax{i}.txt", p, l, u))
        L = build_lifted([p], l, u)
        points = [pt[:L.n] for pt in L.cloud]
        values = [pt[L.n] for pt in L.cloud]
        expected.append([x for x in points
                         if _cloud_minimum(points, values, x) <= 0])

    def no_lp(problem):
        raise AssertionError("solve_lp called")

    for module in (core, polyhedra, polyrelax, cli):
        if hasattr(module, "solve_lp"):
            monkeypatch.setattr(module, "solve_lp", no_lp)
    outputs = []
    for path in files:
        assert cli.main(["relax", str(path)]) == 0, path
        fields = dict(line.partition(":")[::2]
                      for line in capsys.readouterr().out.splitlines())
        outputs.append(fields["relaxation_points"].strip())
    assert outputs[0] == "0 0; 0 1; 0 2; 0 3; 1 0; 1 1; 1 2; 2 0; 2 1"
    for got, want in zip(outputs[1:], expected):
        assert got == "; ".join(" ".join(map(str, x)) for x in want)


# ---------------------------------------------------------------------------
# the barycenter condition

def test_condition_basic_examples():
    assert check_condition(build_lifted([X2], (0,), (3,)))
    assert check_condition(build_lifted([CPS], (0, 0), (3, 3)))
    assert not check_condition(build_lifted([poly(1, (-1, (2,)))], (0,), (3,)))


# ---------------------------------------------------------------------------
# integer convexity

def hull_polyhedron(L):
    """The lifted hull's H-description as one inequality system."""
    eqs, ineqs = L.hull
    rows, rhs = [], []
    for a, beta in eqs:
        rows += [a, vneg(a)]
        rhs += [beta, -beta]
    for a, beta in ineqs:
        rows.append(a)
        rhs.append(beta)
    return Polyhedron(tuple(rows), tuple(rhs))


def hull_floor(f, l, u, x):
    """Lower-hull value at x via the lifted hull's H-description."""
    L = build_lifted([f], l, u)
    rows = hull_polyhedron(L)
    n = len(l)
    eq_rows = tuple(tuple(F(int(i == j)) for j in range(n + 1))
                    for i in range(n))
    prob = LPProblem(
        c=(F(0),) * n + (F(1),),
        A=rows.A + eq_rows,
        b=rows.b + tuple(F(v) for v in x),
        senses=("<=",) * len(rows.A) + ("=",) * n,
        maximize=False)
    res = solve_lp(prob)
    assert res.status == "optimal"
    return res.value


def test_integer_convexity_basics():
    assert is_integer_convex(build_lifted([X2], (0,), (3,)))
    assert not is_integer_convex(build_lifted([poly(1, (-1, (2,)))], (0,),
                                              (3,)))
    assert is_strictly_integer_convex(build_lifted([X2], (0,), (3,)))
    linear = poly(1, (1, (1,)))
    assert is_integer_convex(build_lifted([linear], (0,), (3,)))
    assert not is_strictly_integer_convex(build_lifted([linear], (0,), (3,)))


def test_nonconvex_cubic_is_integer_convex():
    assert is_integer_convex(build_lifted([CUBIC], (1,), (4,)))
    # yet real convexity fails between the first two lattice points
    mid = CUBIC.evaluate((F(3, 2),))
    assert 2 * mid > CUBIC.evaluate((1,)) + CUBIC.evaluate((2,))


def test_integer_convexity_agrees_with_hull_oracle():
    cases = [
        (X2, (0,), (3,)),
        (CUBIC, (1,), (4,)),
        (poly(1, (-1, (2,))), (0,), (3,)),
        (poly(2, (1, (2, 0)), (1, (0, 2)), (-1, (1, 1))), (0, 0), (2, 2)),
        (poly(2, (-1, (2, 0)), (1, (0, 1))), (0, 0), (2, 2)),
    ]
    for f, l, u in cases:
        expect = all(hull_floor(f, l, u, x) >= f.evaluate(x)
                     for x in box_points(l, u))
        assert is_integer_convex(build_lifted([f], l, u)) == expect, (f, l, u)


def test_conic_combinations_stay_integer_convex():
    # 2*x^2 + 3*(x^3 - 5x^2), both integer-convex on [1,4]
    f = poly(1, (3, (3,)), (-13, (2,)))
    assert is_integer_convex(build_lifted([f], (1,), (4,)))


def compose_linear(q, coeffs, gamma, dim):
    """q(c.x + gamma) expanded as a polynomial in x."""
    h = poly(dim, *([(c, tuple(int(j == i) for j in range(dim)))
                     for i, c in enumerate(coeffs) if c]
                    + ([(gamma, (0,) * dim)] if gamma else [])))
    out = []
    for c, (e,) in q.monomials:
        he = power_polynomial(h, e) if e else poly(dim, (1, (0,) * dim))
        out.extend((c * hc, hm) for hc, hm in he.monomials)
    return SparsePolynomial(dim, tuple(out))


def test_composition_with_linear_map_stays_integer_convex():
    # h maps [0,1]x[0,2] onto [1,4], the cubic's certified range
    for q in (X2, CUBIC):
        p = compose_linear(q, (1, 1), 1, 2)
        assert is_integer_convex(build_lifted([p], (0, 0), (1, 2))), q


def test_strict_convexity_certifies_vertices():
    l, u = (0,), (3,)
    L = build_lifted([X2], l, u)
    assert is_strictly_integer_convex(L)
    for pt in L.cloud:
        others = [p for p in L.cloud if p != pt]
        assert not in_hull(pt, others)
    # the linear cloud has interior points, matching non-strictness
    linear = poly(1, (1, (1,)))
    Ll = build_lifted([linear], l, u)
    assert any(in_hull(pt, [p for p in Ll.cloud if p != pt])
               for pt in Ll.cloud)
