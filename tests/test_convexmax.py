"""Composite convex maximization via edge directions and a LIP oracle."""

import collections
import itertools
import random
from fractions import Fraction

import pytest

from composite_objectives import (from_table, l1_norm, max_of_linear,
                                  sum_of_squares)
from latticeopt.convexmax import (
    CompositeObjective,
    EdgeDirectionSet,
    LIPResult,
    candidate_directions,
    lip_oracle,
    maximize_composite,
)
from latticeopt.core import LPProblem, dot, primitive, solve_lp
from latticeopt.graver import enumerate_fiber, graver_basis

F = Fraction


def random_matrix(rng, m, n):
    while True:
        A = tuple(tuple(rng.randint(-2, 2) for _ in range(n))
                  for _ in range(m))
        if all(any(row) for row in A):
            return A


def feasible_instance(rng, m, n, cap):
    A = random_matrix(rng, m, n)
    seed = tuple(rng.randint(0, cap) for _ in range(n))
    b = tuple(sum(A[i][j] * seed[j] for j in range(n)) for i in range(m))
    return A, b, (cap,) * n


def brute_best(A, b, u, obj):
    pts = list(enumerate_fiber(A, b, (0,) * len(u), u))
    assert pts
    return max(obj.value(obj.project(x)) for x in pts)


def hull_vertices(points):
    points = sorted(set(points))
    if len(points) == 1:
        return points
    verts = []
    for i, p in enumerate(points):
        others = [q for j, q in enumerate(points) if j != i]
        k = len(others)
        prob = LPProblem(
            c=(0,) * k,
            A=tuple(tuple(F(q[j]) for q in others) for j in range(len(p)))
            + ((1,) * k,),
            b=tuple(F(v) for v in p) + (1,),
            senses=("=",) * (len(p) + 1),
            lower=(0,) * k)
        if solve_lp(prob).status != "optimal":
            verts.append(p)
    return verts


# ---------------------------------------------------------------------------
# objectives

def test_objective_validation():
    with pytest.raises(ValueError):
        CompositeObjective(((1, 0), (0, 1), (1, 1)), evaluator=sum)
    with pytest.raises(ValueError):
        CompositeObjective(((1, 0), (0, 1, 1)), evaluator=sum)
    with pytest.raises(ValueError):
        CompositeObjective(((1, 0),))


def test_builtin_objectives():
    sq = sum_of_squares(((1, 0), (0, 1)))
    assert sq.project((3, 4)) == (3, 4)
    assert sq.value((3, 4)) == 25
    l1 = l1_norm(((1, 1),))
    assert l1.value((-7,)) == 7
    mx = max_of_linear(
        ((1, 0), (0, 1)), (((1, 0), 0), ((0, 1), 0)))
    assert mx.value((2, 5)) == 5
    assert mx.compare((2, 5), (6, 1)) == -1
    tb = from_table(((1, 0),), {(0,): 1, (1,): F(1, 2)})
    assert tb.value((1,)) == F(1, 2)


def test_comparison_only_objective():
    obj = CompositeObjective(((1, 1),),
                             comparator=lambda y, z: (y > z) - (y < z))
    assert obj.compare((3,), (2,)) == 1
    with pytest.raises(ValueError):
        obj.value((3,))


def test_convexity_check_flags_bad_table():
    good = from_table(
        ((1, 0),), {(0,): 0, (1,): 1, (2,): 3})
    good.validate_convex([(0,), (1,), (2,)])
    bad = from_table(
        ((1, 0),), {(0,): 0, (1,): 5, (2,): 3})
    with pytest.raises(ValueError):
        bad.validate_convex([(0,), (1,), (2,)])
    # midpoints outside a partial table are skipped, not errors
    sparse = from_table(((1, 0),), {(0,): 0, (2,): 3})
    sparse.validate_convex([(0,), (2,)])


# ---------------------------------------------------------------------------
# edge-direction sets

def test_direction_set_normalizes():
    E = EdgeDirectionSet.from_vectors([(2, -4), (-1, 2), (0, 0), (3, 0)])
    assert E.directions == ((1, -2), (1, 0))
    assert len(E) == 2


def test_direction_set_validation():
    with pytest.raises(ValueError):
        EdgeDirectionSet(((0, 0),))
    with pytest.raises(ValueError):
        EdgeDirectionSet(((2, 4),))         # not primitive
    with pytest.raises(ValueError):
        EdgeDirectionSet(((-1, 2),))        # sign not canonical
    with pytest.raises(ValueError):
        EdgeDirectionSet(((1, 2), (1, 2)))


def test_direction_set_from_graver():
    E = EdgeDirectionSet.from_graver(graver_basis(((1, 2, 1),)))
    assert all(g == primitive(g) for g in E)


# ---------------------------------------------------------------------------
# the linear integer programming oracle

def test_lip_simple_transport():
    assert lip_oracle(((1, 1),), (3,), (5, 5), (1, 0)) \
        == LIPResult("optimal", (3, 0), 3)
    assert lip_oracle(((1, 1),), (3,), None, (1, 0)) \
        == LIPResult("optimal", (3, 0), 3)


def test_lip_infeasible():
    assert lip_oracle(((2, 2),), (3,), (4, 4), (1, 1)).status == "infeasible"
    assert lip_oracle(((1, 1),), (-1,), None, (1, 1)).status == "infeasible"
    # relaxation feasible, lattice feasible, but no nonnegative point
    assert lip_oracle(((3, 5, 0),), (7,), None, (0, 0, 1)).status \
        == "infeasible"


def test_lip_unbounded_ray():
    assert lip_oracle(((1, -1),), (0,), None, (1, 1)).status == "unbounded"
    assert lip_oracle(((1, -1),), (0,), None, (-1, -1)) \
        == LIPResult("optimal", (0, 0), 0)


def test_lip_lexicographic_ties():
    # every fiber point scores 0: lex-smallest wins
    res = lip_oracle(((1, 1),), (4,), (4, 4), (0, 0))
    assert res == LIPResult("optimal", (0, 4), 0)


def test_lip_matches_enumeration():
    rng = random.Random(11)
    for _ in range(15):
        m, n = rng.choice([(1, 3), (2, 4)])
        A, b, u = feasible_instance(rng, m, n, 3)
        w = tuple(rng.randint(-3, 3) for _ in range(n))
        res = lip_oracle(A, b, u, w)
        pts = list(enumerate_fiber(A, b, (0,) * n, u))
        best = max(dot(w, x) for x in pts)
        assert res.status == "optimal"
        assert res.value == best
        assert res.x == min(x for x in pts if dot(w, x) == best)


def test_lip_unbounded_mode_agrees_on_bounded_fibers():
    rng = random.Random(13)
    done = 0
    while done < 8:
        A, b, _ = feasible_instance(rng, 1, 3, 3)
        # positive row keeps the fiber finite
        if not all(a > 0 for a in A[0]):
            continue
        w = tuple(rng.randint(-3, 3) for _ in range(3))
        free = lip_oracle(A, b, None, w)
        boxed = lip_oracle(A, b, (max(b[0], 1),) * 3, w)
        assert free == boxed
        done += 1


def test_lip_oracle_differential():
    """Seeded calls against a brute-force maximum over enumerate_fiber.

    With bounds, the answer must be the lexicographically first
    maximizer.  Without, an "unbounded" answer needs an improving
    nonnegative kernel ray, and an "optimal" one needs none and must
    match the maximum over any box that contains its point.
    """
    rng = random.Random(43)
    seen = collections.Counter()
    rays_box = range(0, 9)
    for _ in range(500):
        m = rng.randint(1, 2)
        free = rng.random() < 0.3
        n = rng.randint(1, 3 if m == 1 else 2) if free else rng.randint(1, 4)
        A = random_matrix(rng, m, n)
        w = tuple(rng.randint(-1, 1) for _ in range(n))
        seed = tuple(rng.randint(0, 3) for _ in range(n))
        b = tuple(dot(row, seed) for row in A)
        if rng.random() < 0.25:
            b = tuple(rng.randint(-3, 5) for _ in range(m))
        seen["negative entry"] += any(a < 0 for row in A for a in row)
        if not free:
            u = tuple(v + rng.randint(0, 2) for v in seed)
            res = lip_oracle(A, b, u, w)
            pts = list(enumerate_fiber(A, b, (0,) * n, u))
            if not pts:
                assert res == LIPResult("infeasible")
                seen["infeasible"] += 1
                continue
            best = max(dot(w, x) for x in pts)
            tied = [x for x in pts if dot(w, x) == best]
            assert res == LIPResult("optimal", tied[0], best)
            # keeping the last of several tied points would differ
            seen["tie"] += len(tied) > 1
            continue
        res = lip_oracle(A, b, None, w)
        improving = any(any(r) and dot(w, r) > 0
                        and all(dot(row, r) == 0 for row in A)
                        for r in itertools.product(rays_box, repeat=n))
        if res.status == "infeasible":
            assert not list(enumerate_fiber(A, b, (0,) * n, (8,) * n))
            seen["infeasible"] += 1
        elif res.status == "unbounded":
            assert improving
            seen["unbounded"] += 1
        else:
            assert res.status == "optimal" and not improving
            assert all(v >= 0 for v in res.x)
            assert tuple(dot(row, res.x) for row in A) == b
            assert dot(w, res.x) == res.value
            box = (max(8, *res.x),) * n
            assert max(dot(w, x) for x in
                       enumerate_fiber(A, b, (0,) * n, box)) == res.value
            seen["capped optimal"] += 1
    assert seen["negative entry"] >= 300
    assert seen["infeasible"] >= 40
    assert seen["unbounded"] >= 8
    assert seen["capped optimal"] >= 60
    assert seen["tie"] >= 30


def test_lip_validation():
    with pytest.raises(ValueError):
        lip_oracle(((1, 1),), (3, 4), (2, 2), (1, 0))
    with pytest.raises(ValueError):
        lip_oracle(((1, 1),), (3,), (2, -1), (1, 0))
    with pytest.raises(ValueError):
        lip_oracle(((1, 1),), (3,), (2, 2), (1, 0, 0))


# each public entry of the module, fed one entry `v`; its integer answer
# when v is 2
INTEGER_ENTRIES = {
    "weights": (lambda v: CompositeObjective(((v, 1),), evaluator=sum)
                .weights, ((2, 1),)),
    "lip A": (lambda v: lip_oracle(((v, 1),), (4,), (2, 2), (1, 0)),
              LIPResult("optimal", (2, 0), 2)),
    "lip b": (lambda v: lip_oracle(((1, 1),), (v,), (2, 2), (1, 0)),
              LIPResult("optimal", (2, 0), 2)),
    "lip u": (lambda v: lip_oracle(((1, 1),), (3,), (v, 2), (1, 0)),
              LIPResult("optimal", (2, 1), 2)),
    "lip w": (lambda v: lip_oracle(((1, 1),), (3,), (2, 2), (v, 1)),
              LIPResult("optimal", (2, 1), 5)),
    "from_vectors": (lambda v: EdgeDirectionSet.from_vectors(((v, 1),))
                     .directions, ((2, 1),)),
    "candidate_directions": (lambda v: candidate_directions([(v, 1)]),
                             [(2, 1), (-2, -1)]),
}


@pytest.mark.parametrize("entry", sorted(INTEGER_ENTRIES))
def test_integer_input_is_checked_not_truncated(entry):
    call, answer = INTEGER_ENTRIES[entry]
    for v in (F(1, 2), 1.5, F(3, 2)):
        with pytest.raises(ValueError, match="non-integer"):
            call(v)
    for v in (2, F(2), 2.0):
        assert call(v) == answer


def test_lip_oracle_rejects_a_fractional_row():
    # truncating 3/2 to 1 returned x = (2, 1), where 3/2*2 + 1 = 4 != 3
    with pytest.raises(ValueError, match="non-integer"):
        lip_oracle(((F(3, 2), 1),), (3,), (2, 2), (1, 0))


# ---------------------------------------------------------------------------
# candidate directions

def test_directions_dimension_one():
    assert candidate_directions([(3,), (-2,)]) == [(1,), (-1,)]


def test_directions_quadrant_fan():
    reps = candidate_directions([(1, 0), (0, 1)])
    assert sorted(reps) == [(-1, -1), (-1, 1), (1, -1), (1, 1)]


def test_directions_single_line():
    assert set(candidate_directions([(2, 4), (-1, -2)])) \
        == {(1, 2), (-1, -2)}


def test_directions_validation():
    with pytest.raises(ValueError):
        candidate_directions([])
    with pytest.raises(ValueError):
        candidate_directions([(0, 0)])
    with pytest.raises(ValueError):
        candidate_directions([(1, 0, 0)])
    with pytest.raises(ValueError):
        candidate_directions([(1, 0), (1,)])


def cross(a, b):
    return a[0] * b[1] - a[1] * b[0]


def test_representatives_sit_strictly_inside_sectors():
    rng = random.Random(19)
    for _ in range(20):
        k = rng.randint(2, 5)
        vecs = set()
        while len(vecs) < k:
            v = (rng.randint(-4, 4), rng.randint(-4, 4))
            if any(v):
                vecs.add(v)
        reps = candidate_directions(sorted(vecs))
        rays = set()
        for e in vecs:
            rays.add(primitive((-e[1], e[0])))
            rays.add(primitive((e[1], -e[0])))
        if len(reps) == 2:
            continue                      # single-line degenerate case
        assert len(reps) == len(rays)
        assert len(set(reps)) == len(reps)
        for r in reps:
            # never collinear with a fan ray, so strictly inside a sector
            assert all(cross(r, ray) != 0 for ray in rays)


# ---------------------------------------------------------------------------
# maximization

def test_maximize_linear_case_reduces_to_lip():
    A, b, u = ((1, 1, 1),), (4,), (4, 4, 4)
    w1 = (3, 1, 0)
    obj = CompositeObjective((w1,), evaluator=lambda y: y[0])
    E = EdgeDirectionSet.from_graver(graver_basis(A))
    x = maximize_composite(A, b, u, obj, E)
    assert dot(w1, x) == lip_oracle(A, b, u, w1).value


def test_maximize_sum_of_squares_small():
    A, b, u = ((1, 1, 1),), (4,), (4, 4, 4)
    obj = sum_of_squares(((1, 0, 0), (0, 1, 2)))
    E = EdgeDirectionSet.from_graver(graver_basis(A))
    x = maximize_composite(A, b, u, obj, E)
    assert obj.value(obj.project(x)) == brute_best(A, b, u, obj)
    assert x == (0, 0, 4)


def test_maximize_infeasible_and_empty_directions():
    obj = sum_of_squares(((1, 0),))
    E = EdgeDirectionSet.from_vectors([(1, -1)])
    with pytest.raises(ValueError):
        maximize_composite(((2, 2),), (3,), (4, 4), obj, E)
    with pytest.raises(ValueError):
        maximize_composite(((1, 1),), (2,), (4, 4), obj,
                           EdgeDirectionSet(()))


def test_maximize_image_collapses_to_point():
    # both weights orthogonal to the only edge direction
    A, b, u = ((1, 1),), (3,), (3, 3)
    obj = sum_of_squares(((1, 1), (2, 2)))
    E = EdgeDirectionSet.from_graver(graver_basis(A))
    x = maximize_composite(A, b, u, obj, E)
    assert x == (0, 3)
    assert obj.project(x) == (3, 6)


def test_maximize_prefers_lexicographic_preimage():
    # image ignores x2 entirely, so many preimages share each vertex
    A, b, u = ((0, 0, 1),), (2,), (4, 4, 2)
    obj = sum_of_squares(((1, 0, 0), (0, 0, 1)))
    E = EdgeDirectionSet.from_vectors([(1, 0, 0), (0, 1, 0), (1, -1, 0)])
    x = maximize_composite(A, b, u, obj, E)
    assert x == (4, 0, 2)


def random_objective(rng, n):
    w1 = tuple(rng.randint(-2, 2) for _ in range(n))
    w2 = tuple(rng.randint(-2, 2) for _ in range(n))
    kind = rng.choice(["sq", "max", "l1"])
    if kind == "sq":
        return sum_of_squares((w1, w2))
    if kind == "l1":
        return l1_norm((w1, w2))
    return max_of_linear(
        (w1, w2), (((1, 0), 0), ((0, 1), 0), ((-1, -1), 2)))


def test_maximize_matches_brute_force_randomized():
    rng = random.Random(23)
    done = 0
    while done < 25:
        m, n = rng.choice([(1, 3), (1, 4), (2, 4)])
        A, b, u = feasible_instance(rng, m, n, 3)
        G = graver_basis(A)
        if not G.elements:
            continue
        E = EdgeDirectionSet.from_graver(G)
        obj = random_objective(rng, n)
        x = maximize_composite(A, b, u, obj, E)
        assert obj.value(obj.project(x)) == brute_best(A, b, u, obj)
        done += 1


def test_maximize_tolerates_superfluous_directions():
    rng = random.Random(27)
    for _ in range(5):
        A, b, u = feasible_instance(rng, 1, 3, 3)
        G = graver_basis(A)
        if not G.elements:
            continue
        extra = [(1, 1, 1), (2, 1, 0)]
        E = EdgeDirectionSet.from_vectors(list(G.elements) + extra)
        obj = sum_of_squares(
            ((1, -1, 0), (0, 1, -1)))
        x = maximize_composite(A, b, u, obj, E)
        assert obj.value(obj.project(x)) == brute_best(A, b, u, obj)


def test_maximize_with_table_objective():
    A, b, u = ((1, 1),), (3,), (3, 3)
    obj0 = sum_of_squares(((1, -1), (0, 1)))
    images = {obj0.project(x)
              for x in enumerate_fiber(A, b, (0, 0), u)}
    table = {y: y[0] * y[0] + y[1] * y[1] for y in images}
    obj = from_table(((1, -1), (0, 1)), table)
    E = EdgeDirectionSet.from_graver(graver_basis(A))
    x = maximize_composite(A, b, u, obj, E)
    assert obj.value(obj.project(x)) == max(table.values())


def test_collected_images_cover_every_vertex():
    rng = random.Random(29)
    done = 0
    while done < 12:
        A, b, u = feasible_instance(rng, 1, 3, 3)
        G = graver_basis(A)
        if not G.elements:
            continue
        obj = sum_of_squares(
            (tuple(rng.randint(-2, 2) for _ in range(3)),
             tuple(rng.randint(-2, 2) for _ in range(3))))
        E = EdgeDirectionSet.from_graver(G)
        seen = []

        def spy(A_, b_, u_, w, seen=seen):
            res = lip_oracle(A_, b_, u_, w)
            if res.status == "optimal":
                seen.append(obj.project(res.x))
            return res

        maximize_composite(A, b, u, obj, E, oracle=spy)
        all_images = [obj.project(x)
                      for x in enumerate_fiber(A, b, (0,) * 3, u)]
        for v in hull_vertices(all_images):
            assert v in seen
        done += 1


def test_oracle_call_budget():
    rng = random.Random(31)
    done = 0
    while done < 10:
        A, b, u = feasible_instance(rng, 1, 4, 3)
        G = graver_basis(A)
        if not G.elements:
            continue
        obj = random_objective(rng, 4)
        E = EdgeDirectionSet.from_graver(G)
        proj = [obj.project(g) for g in E]
        nonzero = [p for p in proj if any(p)]
        calls = [0]

        def counting(A_, b_, u_, w, calls=calls):
            calls[0] += 1
            return lip_oracle(A_, b_, u_, w)

        maximize_composite(A, b, u, obj, E, oracle=counting)
        if nonzero:
            sectors = len(candidate_directions(nonzero))
            assert calls[0] <= 2 * sectors
            assert sectors <= 2 * len(set(nonzero))
        else:
            assert calls[0] == 1
        done += 1


def test_maximize_is_deterministic():
    A, b, u = ((1, 2, 1),), (5,), (5, 5, 5)
    obj = sum_of_squares(((1, 0, -1), (0, 1, 0)))
    E = EdgeDirectionSet.from_graver(graver_basis(A))
    runs = {maximize_composite(A, b, u, obj, E) for _ in range(3)}
    assert len(runs) == 1
