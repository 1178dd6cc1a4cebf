"""Graver basis completion, certificates, and greedy augmentation."""

import collections
import itertools
import math
import random
from fractions import Fraction

import pytest

from latticeopt.core import LPProblem, mat_vec, solve_lp, vadd, vneg, vsub
from latticeopt.graver import (
    Abs,
    AugmentResult,
    GraverBasis,
    NFoldSpec,
    PiecewiseMax,
    SeparableConvexFn,
    Square,
    check_optimality,
    enumerate_fiber,
    graver_basis,
    greedy_augment,
    nfold_matrix,
    nfold_minimize,
    sign_compatible_decompose,
)
from separable_terms import (absolute_deviation, linear, piecewise_max,
                             weighted_square)

F = Fraction


# ---------------------------------------------------------------------------
# oracles

def conforms(u, v):
    return all(a * b >= 0 and abs(a) <= abs(b) for a, b in zip(u, v))


def brute_graver(A, bound):
    """Sign-minimal kernel vectors with coordinates in [-bound, bound].

    Any dominator of an in-box vector is itself in the box, so the
    filter is exact there.
    """
    n = len(A[0])
    kernel = [v for v in itertools.product(range(-bound, bound + 1), repeat=n)
              if any(v) and not any(mat_vec(A, v))]
    out = set()
    for v in kernel:
        if not any(u != v and conforms(u, v) for u in kernel):
            first = next(a for a in v if a)
            out.add(v if first > 0 else vneg(v))
    return out


def box_points(l, u):
    return itertools.product(*(range(lo, hi + 1) for lo, hi in zip(l, u)))


def feasible_points(A, b, l, u):
    return [x for x in box_points(l, u) if tuple(mat_vec(A, x)) == tuple(b)]


def brute_minimum(A, b, l, u, f):
    pts = feasible_points(A, b, l, u)
    return min(f.value(x) for x in pts)


def random_matrix(rng, m, n):
    while True:
        A = tuple(tuple(rng.randint(-2, 2) for _ in range(n))
                  for _ in range(m))
        if all(any(row) for row in A):
            return A


# ---------------------------------------------------------------------------
# basis computation

def test_two_balanced_columns():
    G = graver_basis(((1, 1),))
    assert G.elements == ((1, -1),)
    assert set(G.signed_elements()) == {(1, -1), (-1, 1)}


def test_weighted_row_matches_brute_force():
    A = ((1, 2, 1),)
    G = graver_basis(A)
    bound = max(abs(a) for g in G for a in g)
    assert set(G.elements) == brute_graver(A, bound)


def test_zero_matrix_gives_unit_vectors():
    G = graver_basis(((0, 0),))
    assert set(G.elements) == {(1, 0), (0, 1)}


def test_trivial_kernel_gives_empty_basis():
    G = graver_basis(((1, 0), (0, 1)))
    assert G.elements == ()


def test_random_matrices_match_brute_force():
    rng = random.Random(3)
    for _ in range(8):
        m, n = rng.choice([(1, 3), (2, 4)])
        A = random_matrix(rng, m, n)
        G = graver_basis(A)
        bound = max((abs(a) for g in G for a in g), default=1)
        assert set(G.elements) == brute_graver(A, bound)


def test_no_element_dominates_another():
    for A in (((1, 2, 1),), ((2, -3, 1, 0), (1, 1, -2, 1))):
        G = graver_basis(A)
        signed = G.signed_elements()
        for g in signed:
            assert not any(h != g and conforms(h, g) for h in signed)


def test_basis_validation():
    with pytest.raises(ValueError):
        GraverBasis(((1, 1),), ((-1, 1),))     # sign not canonical
    with pytest.raises(ValueError):
        GraverBasis(((1, 1),), ((1, 0),))      # not in kernel
    with pytest.raises(ValueError):
        GraverBasis(((1, 1),), ((1, -1), (1, -1)))  # duplicate


def test_non_integer_entries_are_rejected():
    half = F(1, 2)
    with pytest.raises(ValueError):
        graver_basis(((half, 1),))
    with pytest.raises(ValueError):
        GraverBasis(((1, 1),), ((half, -half),))
    with pytest.raises(ValueError):
        NFoldSpec(((half, 1),), ((1, 1),), 1, (0, 0))
    with pytest.raises(ValueError):
        NFoldSpec(((1, 1),), ((1, 1),), 1, (half, 0))
    # integral Fractions are integers
    assert graver_basis(((F(2), F(1)),)).elements == ((1, -2),)
    G = graver_basis(((1, 1, 1),))
    assert (F(1), F(-1), 0) in G and (-1, 1, 0) in G
    assert (F(3, 2), -1, 0) not in G
    assert (0, 0, 0) not in G


def test_non_integer_points_are_rejected():
    A = ((1, 1, 1),)
    G = graver_basis(A)
    f = weighted_square((0, 0, 0))
    z = (F(3, 2), F(-3, 2), 0)
    with pytest.raises(ValueError):
        check_optimality(z, f, A, (0,), (-2,) * 3, (2,) * 3, G)
    with pytest.raises(ValueError):
        sign_compatible_decompose(z, G)
    with pytest.raises(ValueError):
        f.value(z)
    assert f.value((F(1), F(-1), 0)) == 2


def test_nfold_minimize_keeps_fractional_bounds():
    # x1 + x2 = 2 with x in [1/2, 2]^2: the box holds (1, 1) and (2, 0)
    # is cut, so the least x1 is 1; truncating 1/2 to 0 would allow (0, 2)
    spec = NFoldSpec(((1, 1),), ((0, 0),), 1, (2, 0))
    res = nfold_minimize(spec, linear((1, 0)), (F(1, 2), F(1, 2)), (2, 2))
    assert res.x == (1, 1) and res.value == 1 and res.certified


# ---------------------------------------------------------------------------
# n-fold matrices

def test_nfold_two_scalars():
    spec = NFoldSpec(((1,),), ((1,),), 2, (0, 0, 0))
    assert nfold_matrix(spec) == ((1, 1), (1, 0), (0, 1))


def test_nfold_shape_and_blocks():
    A1 = ((1, 2, 3), (4, 5, 6))
    A2 = ((7, 8, 9),)
    spec = NFoldSpec(A1, A2, 3, (0,) * 5)
    M = nfold_matrix(spec)
    assert len(M) == 5 and all(len(r) == 9 for r in M)
    assert M[0] == (1, 2, 3) * 3
    assert M[2] == (7, 8, 9, 0, 0, 0, 0, 0, 0)
    assert M[4] == (0, 0, 0, 0, 0, 0, 7, 8, 9)


def test_nfold_single_copy_stacks():
    spec = NFoldSpec(((1, 1),), ((2, 0),), 1, (0, 0))
    assert nfold_matrix(spec) == ((1, 1), (2, 0))


def test_nfold_spec_validation():
    with pytest.raises(ValueError):
        NFoldSpec(((1, 1),), ((1,),), 2, (0, 0, 0))      # column mismatch
    with pytest.raises(ValueError):
        NFoldSpec(((1,),), ((1,),), 0, ())               # n < 1
    with pytest.raises(ValueError):
        NFoldSpec(((1,),), ((1,),), 2, (0, 0))           # b too short


# ---------------------------------------------------------------------------
# separable convex objectives

def test_builtin_objectives_evaluate():
    sq = weighted_square((3, 0), (1, 2))
    assert sq.value((5, 1)) == 4 + 2
    ab = absolute_deviation((1,))
    assert ab.value((-2,)) == 3
    lin = linear((F(1, 2), -1))
    assert lin.value((4, 3)) == -1
    pw = piecewise_max((((1, 0), (-1, 0)),))  # |x|
    assert pw.value((-7,)) == 7
    assert sq.compare((3, 0), (5, 1)) == -1
    assert sq.compare((2, 0), (4, 0)) == 0


def test_convexity_validation():
    for f in (weighted_square((0,)),
              absolute_deviation((2,)),
              linear((-3,)),
              piecewise_max((((2, -1), (-1, 4)),))):
        f.validate_convex((-5,), (5,))
    bad = SeparableConvexFn((lambda m: F(-m * m),))
    with pytest.raises(ValueError):
        bad.validate_convex((-5,), (5,))


def test_convexity_validation_stays_inside_the_box():
    # a term known only on 0..4 is convex there; the check must neither
    # read it at -1 or 5 nor take a list's tab[-1] for f(-1)
    tab = [F(5), F(2), F(0), F(0), F(1)]
    calls = []

    def table(m):
        calls.append(m)
        if not 0 <= m < len(tab):
            raise IndexError(m)
        return tab[m]

    SeparableConvexFn((table,)).validate_convex((0,), (4,))
    assert sorted(set(calls)) == [0, 1, 2, 3, 4]
    SeparableConvexFn((tab.__getitem__,)).validate_convex((0,), (4,))
    bad = [F(0), F(2), F(3), F(5), F(6)]
    with pytest.raises(ValueError, match="at 1"):
        SeparableConvexFn((bad.__getitem__,)).validate_convex((0,), (4,))
    # a long box is scanned at every point, none outside
    seen = []
    SeparableConvexFn((lambda m: seen.append(m) or F(m * m),)
                      ).validate_convex((0,), (1000,))
    assert sorted(seen) == list(range(0, 1001))


def test_superadditivity_in_common_orthant():
    rng = random.Random(5)
    fs = [weighted_square((1, -2, 0), (1, 3, F(1, 2))),
          absolute_deviation((0, 2, -1)),
          piecewise_max(
              (((1, 0), (-2, 1)), ((0, 0), (3, -2)), ((-1, -1),)))]
    for _ in range(40):
        signs = [rng.choice([-1, 1]) for _ in range(3)]
        hs = [tuple(s * rng.randint(0, 3) for s in signs) for _ in range(3)]
        x = tuple(rng.randint(-4, 4) for _ in range(3))
        total = x
        for h in hs:
            total = vadd(total, h)
        for f in fs:
            lhs = f.value(total) - f.value(x)
            rhs = sum(f.value(vadd(x, h)) - f.value(x) for h in hs)
            assert lhs >= rhs


def counting_fn(fns):
    """A SeparableConvexFn whose evaluators count their calls per (i, m)."""
    calls = collections.Counter()

    def counted(i, fn):
        def ev(m):
            calls[i, m] += 1
            return fn(m)
        return ev

    return SeparableConvexFn(tuple(counted(i, fn)
                                   for i, fn in enumerate(fns))), calls


def test_each_term_is_evaluated_once_per_integer():
    spec = NFoldSpec(((1, 1),), ((1, 2),), 3, (10, 4, 5, 6))
    A = nfold_matrix(spec)
    centers = (F(1, 2), 3, -1, F(5, 3), 2, 0)
    f, calls = counting_fn([
        (lambda m, c=c: (m - c) ** 2) if i % 2 else
        (lambda m, c=c: abs(F(m) - c) + F(m, 3))
        for i, c in enumerate(centers)])
    l, u = (0,) * 6, (6,) * 6
    x0 = list(enumerate_fiber(A, spec.b, l, u))[-1]
    G = graver_basis(A)
    f.validate_convex(l, u)
    res = greedy_augment(x0, f, A, spec.b, l, u, G)
    assert res.steps >= 1
    assert check_optimality(res.x, f, A, spec.b, l, u, G) == (True, None)
    assert f.value(res.x) == brute_minimum(A, spec.b, l, u, f)
    # validate_convex alone asks for every m in [l_i, u_i], none outside
    assert set(calls) == {(i, m) for i in range(6) for m in range(0, 7)}
    assert max(calls.values()) == 1


def test_compare_is_sign_of_value_difference():
    rng = random.Random(23)
    fs = [weighted_square((1, F(-5, 2), 0, 3), (2, 1, F(1, 3), 0)),
          absolute_deviation((0, 2, F(1, 2), -1)),
          piecewise_max(
              (((1, 0), (-1, 0)), ((2, 1),), ((0, 0), (1, -2)),
               ((-3, 1), (1, 1))))]
    seen = collections.Counter()
    for _ in range(300):
        f = rng.choice(fs)
        x = tuple(rng.randint(-4, 4) for _ in range(4))
        y = list(x)
        for i in rng.sample(range(4), rng.randint(0, 4)):
            y[i] = rng.randint(-4, 4)
        y = tuple(y)
        d = f.value(x) - f.value(y)
        sign = (d > 0) - (d < 0)
        assert f.compare(x, y) == sign
        assert f.compare(y, x) == -sign
        seen[sign, x == y] += 1
    assert seen[0, True] >= 20 and seen[0, False] >= 5
    assert seen[1, False] >= 50 and seen[-1, False] >= 50


def test_dimension_mismatch_raises():
    f = weighted_square((0, 0, 0))
    for x, y in (((1, 2), (1, 2, 3)), ((1, 2, 3), (1, 2)),
                 ((1, 2), (1, 2))):
        with pytest.raises(ValueError, match="dimension mismatch"):
            f.compare(x, y)
    with pytest.raises(ValueError, match="dimension mismatch"):
        f.value((1, 2, 3, 4))


def test_convexity_error_names_first_failing_point():
    bump = SeparableConvexFn((lambda m: F(m * m),
                              lambda m: F(-abs(m - 2))))
    with pytest.raises(ValueError) as err:
        bump.validate_convex((-5, -5), (5, 5))
    assert str(err.value) == "coordinate 1 fails convexity at 2"
    spike = SeparableConvexFn((lambda m: F(abs(m)),
                               lambda m: F(1000 if m == 345 else abs(m))))
    spike.validate_convex((0, 0), (1000, 340))
    with pytest.raises(ValueError) as err:
        spike.validate_convex((0, 0), (1000, 1000))
    assert str(err.value) == "coordinate 1 fails convexity at 345"


def test_convexity_scan_misses_no_interior_point():
    # concave at 346 alone, off any stride of [0, 1000]
    notch = SeparableConvexFn((lambda m: F(1000 if m == 346 else abs(m)),))
    with pytest.raises(ValueError) as err:
        notch.validate_convex((0,), (1000,))
    assert str(err.value) == "coordinate 0 fails convexity at 346"
    # only the integers of a fractional box count
    notch.validate_convex((F(693, 2),), (1000,))


def test_builtin_terms_match_their_formulas():
    centers = [F(k, 2) for k in range(-9, 10)]
    pieces = (((1, 0), (-1, 0)), ((F(1, 2), 3), (-2, F(-1, 2)), (0, 1)),
              ((F(-3, 2), F(5, 2)),))
    pairs = []
    for c in centers:
        pairs.append((Square(c), weighted_square((c,)).evaluators[0]))
        pairs.append((Abs(c), absolute_deviation((c,)).evaluators[0]))
    for p in pieces:
        pairs.append((PiecewiseMax(p), piecewise_max((p,)).evaluators[0]))
    for term, oracle in pairs:
        for m in range(-20, 21):
            v = term(m)
            assert type(v) is Fraction and v == oracle(m), (term, m)
    with pytest.raises(ValueError):
        PiecewiseMax(())


def test_builtin_terms_are_not_scanned():
    f = SeparableConvexFn((Square(F(1, 2)), Abs(-3),
                           PiecewiseMax(((2, -1), (-1, 4)))))
    f.validate_convex((-10 ** 9,) * 3, (10 ** 9,) * 3)
    assert f._tables == ({}, {}, {})

    # the skip is for the exact types: a subclass may change __call__
    class Dented(Square):
        def __call__(self, m):
            return -super().__call__(m)

    with pytest.raises(ValueError, match="coordinate 0 fails convexity"):
        SeparableConvexFn((Dented(0),)).validate_convex((-5,), (5,))


# ---------------------------------------------------------------------------
# optimality certificate

def setup_transport():
    A = ((1, 1),)
    b = (4,)
    l, u = (0, 0), (4, 4)
    f = weighted_square((3, 3))
    return A, b, l, u, f, graver_basis(A)


def test_certificate_accepts_optimum():
    A, b, l, u, f, G = setup_transport()
    assert min(f.value(x) for x in feasible_points(A, b, l, u)) \
        == f.value((2, 2))
    assert check_optimality((2, 2), f, A, b, l, u, G) == (True, None)


def test_certificate_rejects_suboptimal_point():
    A, b, l, u, f, G = setup_transport()
    ok, g = check_optimality((0, 4), f, A, b, l, u, G)
    assert not ok
    y = vadd((0, 4), g)
    assert f.value(y) < f.value((0, 4))
    assert tuple(mat_vec(A, y)) == b


def test_certificate_on_unique_point():
    A = ((1, 0), (0, 1))
    G = graver_basis(A)
    f = weighted_square((0, 0))
    assert check_optimality((1, 2), f, A, (1, 2), (0, 0), (3, 3), G) \
        == (True, None)


def test_certificate_requires_feasible_start():
    A, b, l, u, f, G = setup_transport()
    with pytest.raises(ValueError):
        check_optimality((1, 1), f, A, b, l, u, G)


# ---------------------------------------------------------------------------
# greedy augmentation

def test_augment_reaches_center():
    A, b, l, u, f, G = setup_transport()
    res = greedy_augment((4, 0), f, A, b, l, u, G)
    assert res.x == (2, 2) and res.steps >= 1
    assert check_optimality(res.x, f, A, b, l, u, G)[0]


def test_augment_keeps_optimum():
    A, b, l, u, f, G = setup_transport()
    assert greedy_augment((2, 2), f, A, b, l, u, G) == AugmentResult((2, 2), 0)


def test_augment_four_fold_matches_brute_force():
    spec = NFoldSpec(((1,),), ((1,),), 4, (6, 1, 2, 0, 3))
    A = nfold_matrix(spec)
    f = weighted_square((2, 2, 2, 2))
    l, u = (0,) * 4, (6,) * 4
    x0 = (1, 2, 0, 3)
    res = greedy_augment(x0, f, A, spec.b, l, u, graver_basis(A))
    assert f.value(res.x) == brute_minimum(A, spec.b, l, u, f)


def test_augment_step_counts_stay_modest():
    rng = random.Random(9)
    for _ in range(10):
        n = rng.choice([3, 4])
        A = random_matrix(rng, 1, n)
        l = tuple(0 for _ in range(n))
        u = tuple(rng.randint(2, 5) for _ in range(n))
        seed = tuple(rng.randint(l[i], u[i]) for i in range(n))
        b = tuple(mat_vec(A, seed))
        centers = tuple(rng.randint(-2, 6) for _ in range(n))
        f = weighted_square(centers)
        G = graver_basis(A)
        res = greedy_augment(seed, f, A, b, l, u, G)
        fstar = brute_minimum(A, b, l, u, f)
        assert f.value(res.x) == fstar
        gap = f.value(seed) - fstar
        allowance = (2 * n - 2) * (2 + math.log2(1 + float(gap)))
        assert res.steps <= allowance


def test_basis_of_another_matrix_is_rejected():
    # steps along ker(1 2 3) leave the fiber of (1 1 1): the augmentation
    # would end at (1, 0, 1), whose row sum is 2, and the certificate
    # would call the non-optimal (2, 1, 0) optimal
    G = graver_basis(((1, 2, 3),))
    A, b = ((1, 1, 1),), (3,)
    l, u = (0, 0, 0), (3, 3, 3)
    f = weighted_square((1, 0, 1))
    assert brute_minimum(A, b, l, u, f) < f.value((2, 1, 0))
    with pytest.raises(ValueError, match="kernel"):
        greedy_augment((2, 1, 0), f, A, b, l, u, G)
    with pytest.raises(ValueError, match="kernel"):
        check_optimality((2, 1, 0), f, A, b, l, u, G)


def test_basis_of_a_matrix_with_the_same_kernel_is_accepted():
    A, b, l, u, f, G = setup_transport()
    doubled = ((2, 2),)
    assert G.matrix != doubled
    res = greedy_augment((4, 0), f, doubled, (8,), l, u, G)
    assert res.x == (2, 2)
    assert check_optimality(res.x, f, doubled, (8,), l, u, G) == (True, None)


def test_enumerate_fiber_matches_box_scan():
    # signed entries and bounds, zero rows and columns, empty boxes
    rng = random.Random(29)
    nonempty = 0
    for _ in range(300):
        m, n = rng.randint(1, 3), rng.randint(1, 4)
        A = tuple(tuple(rng.randint(-3, 3) for _ in range(n))
                  for _ in range(m))
        l = tuple(rng.randint(-3, 1) for _ in range(n))
        u = tuple(v + rng.randint(-1, 4) for v in l)
        point = tuple(rng.randint(a, max(a, c)) for a, c in zip(l, u))
        b = tuple(mat_vec(A, point))
        if rng.random() < 0.2:
            b = tuple(rng.randint(-5, 5) for _ in range(m))
        pts = list(enumerate_fiber(A, b, l, u))
        assert pts == feasible_points(A, b, l, u)
        nonempty += bool(pts)
    assert nonempty >= 150


# ---------------------------------------------------------------------------
# n-fold minimization

def test_nfold_minimize_unique_point():
    spec = NFoldSpec(((1,),), ((1,),), 2, (3, 1, 2))
    f = weighted_square((0, 0))
    res = nfold_minimize(spec, f, (0, 0), (5, 5))
    assert res.x == (1, 2) and res.certified
    assert res.value == brute_minimum(nfold_matrix(spec), spec.b,
                                      (0, 0), (5, 5), f)


def test_nfold_minimize_detects_infeasible():
    spec = NFoldSpec(((1,),), ((1,),), 2, (3, 1, 1))
    f = weighted_square((0, 0))
    with pytest.raises(ValueError):
        nfold_minimize(spec, f, (0, 0), (5, 5))


def test_nfold_minimize_linear_objective():
    # copies share one coupling row; second block row pins each x_i
    spec = NFoldSpec(((1, 1),), ((1, 0),), 2, (5, 1, 2))
    f = linear((0, 3, 0, 1))
    l, u = (0,) * 4, (5,) * 4
    res = nfold_minimize(spec, f, l, u)
    A = nfold_matrix(spec)
    assert res.value == brute_minimum(A, spec.b, l, u, f)
    assert res.certified
    assert tuple(mat_vec(A, res.x)) == spec.b


def test_nfold_minimize_quadratic_matches_brute_force():
    rng = random.Random(17)
    for _ in range(5):
        n = rng.choice([2, 3])
        b0 = rng.randint(2, 6)
        caps = tuple(rng.randint(1, 3) for _ in range(n))
        spec = NFoldSpec(((1,),), ((1,),), n, (b0,) + caps)
        if sum(caps) != b0:
            with pytest.raises(ValueError):
                nfold_minimize(spec, weighted_square((0,) * n),
                               (0,) * n, (8,) * n)
            continue
        f = weighted_square(tuple(rng.randint(0, 4) for _ in range(n)))
        res = nfold_minimize(spec, f, (0,) * n, (8,) * n)
        assert res.value == brute_minimum(nfold_matrix(spec), spec.b,
                                          (0,) * n, (8,) * n, f)


# ---------------------------------------------------------------------------
# sign-compatible decomposition

def test_decompose_basis_element():
    G = graver_basis(((1, 1),))
    assert sign_compatible_decompose((1, -1), G) == [(1, (1, -1))]


def test_decompose_multiple():
    G = graver_basis(((1, 1),))
    assert sign_compatible_decompose((-2, 2), G) == [(2, (-1, 1))]


def test_decompose_random_kernel_vectors():
    rng = random.Random(21)
    done = 0
    while done < 50:
        A = random_matrix(rng, 2, 4)
        G = graver_basis(A)
        if not G.elements:
            continue
        coeffs = [rng.randint(-3, 3) for _ in G.elements]
        z = (0,) * 4
        for c, g in zip(coeffs, G.elements):
            z = vadd(z, tuple(c * a for a in g))
        if not any(z):
            continue
        parts = sign_compatible_decompose(z, G)
        resum = (0,) * 4
        for alpha, g in parts:
            assert alpha >= 1
            assert conforms(g, z)
            resum = vadd(resum, tuple(alpha * a for a in g))
        assert resum == z
        done += 1


def test_decompose_rejects_non_kernel_vector():
    G = graver_basis(((1, 1),))
    with pytest.raises(ValueError):
        sign_compatible_decompose((1, 0), G)


# ---------------------------------------------------------------------------
# certificate soundness against brute force

def test_certificate_soundness_randomized():
    rng = random.Random(29)
    for _ in range(60):
        n = rng.choice([3, 4])
        A = random_matrix(rng, 1, n)
        l = (0,) * n
        u = tuple(rng.randint(1, 4) for _ in range(n))
        seed = tuple(rng.randint(0, u[i]) for i in range(n))
        b = tuple(mat_vec(A, seed))
        f = weighted_square(
            tuple(rng.randint(-1, 5) for _ in range(n)),
            tuple(rng.choice([1, 1, 2, F(1, 2)]) for _ in range(n)))
        G = graver_basis(A)
        fstar = brute_minimum(A, b, l, u, f)
        ok, g = check_optimality(seed, f, A, b, l, u, G)
        if ok:
            assert f.value(seed) == fstar, "false optimality certificate"
        else:
            y = vadd(seed, g)
            assert f.value(y) < f.value(seed)


# ---------------------------------------------------------------------------
# edge directions of fibers

def hull_vertices(points):
    verts = []
    for i, p in enumerate(points):
        others = [q for j, q in enumerate(points) if j != i]
        n = len(others)
        # p in conv(others)?  feasibility via phase-I objective
        prob = LPProblem(
            c=(0,) * n,
            A=tuple(tuple(F(q[k]) for q in others) for k in range(len(p)))
            + ((1,) * n,),
            b=tuple(F(v) for v in p) + (1,),
            senses=("=",) * (len(p) + 1),
            lower=(0,) * n)
        if solve_lp(prob).status != "optimal":
            verts.append(p)
    return verts


def is_edge(p, q, verts):
    others = [r for r in verts if r not in (p, q)]
    d = len(p)
    rows = [tuple(F(a - b) for a, b in zip(p, q))]
    senses = ["="]
    rhs = [F(0)]
    for r in others:
        rows.append(tuple(F(a - b) for a, b in zip(p, r)))
        senses.append(">=")
        rhs.append(F(1))
    prob = LPProblem(c=(0,) * d, A=tuple(rows), b=tuple(rhs),
                     senses=tuple(senses))
    return solve_lp(prob).status == "optimal"


def test_basis_covers_fiber_edge_directions():
    rng = random.Random(31)
    for _ in range(6):
        n = 3
        A = (tuple(rng.randint(1, 3) for _ in range(n)),)
        b = (rng.randint(3, 7),)
        cap = b[0]
        pts = feasible_points(A, b, (0,) * n, (cap,) * n)
        if len(pts) < 2:
            continue
        verts = hull_vertices(pts)
        G = graver_basis(A)
        signed = set(G.signed_elements())
        for p, q in itertools.combinations(verts, 2):
            if not is_edge(p, q, verts):
                continue
            d = vsub(p, q)

            def parallel(h):
                # d a positive integer multiple of h?
                lam = None
                for a, hk in zip(d, h):
                    if hk == 0:
                        if a != 0:
                            return False
                        continue
                    if a % hk:
                        return False
                    q_, r_ = divmod(a, hk)
                    if lam is None:
                        lam = q_
                    elif lam != q_:
                        return False
                return lam is not None and lam > 0
            assert any(parallel(h) for h in signed), (A, b, p, q, d)
