"""Bound computation, shifting, and approximate maximization."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latticeopt.fptas import (
    BoundsReport,
    SparsePolynomial,
    _recover,
    choose_k,
    compute_bounds,
    maximize,
)
from latticeopt.genfunc import polyhedron_gf, specialize_at_one, weighted_sum
from latticeopt.polyhedra import Polyhedron, bounding_box, box_polyhedron
from polynomial_power import power_polynomial

F = Fraction


# ---------------------------------------------------------------------------
# oracles

def interval(lo, hi):
    return Polyhedron(((-1,), (1,)), (-lo, hi))


def box2(xlo, xhi, ylo, yhi):
    return Polyhedron(((-1, 0), (1, 0), (0, -1), (0, 1)),
                      (-xlo, xhi, -ylo, yhi))


def lattice_points(P):
    box = bounding_box(P)
    if box is None:
        return []
    lo, hi = box
    pts = [()]
    for l, h in zip(lo, hi):
        pts = [p + (v,) for p in pts for v in range(l, h + 1)]
    return [p for p in pts if P.contains(p)]


def brute_max(P, f):
    return max(f.evaluate(p) for p in lattice_points(P))


def brute_min(P, f):
    return min(f.evaluate(p) for p in lattice_points(P))


def poly(d, *mons):
    return SparsePolynomial(d, tuple((F(c), tuple(e)) for c, e in mons))


def naive_power(f, k):
    # repeated naive multiplication, independent of power_polynomial
    acc = {(0,) * f.dimension: F(1)}
    for _ in range(k):
        nxt = {}
        for c, e in f.monomials:
            for ea, ca in acc.items():
                key = tuple(x + y for x, y in zip(e, ea))
                nxt[key] = nxt.get(key, F(0)) + c * ca
        acc = {e: c for e, c in nxt.items() if c != 0}
    return acc


def random_instance(rng, allow_negative):
    # nonnegative coefficients guarantee f >= 0 only on the first orthant
    d = rng.choice([1, 2])
    lo = tuple(rng.randint(-3 if allow_negative else 0, 2) for _ in range(d))
    hi = tuple(l + rng.randint(1, 4) for l in lo)
    P = box_polyhedron(lo, hi)
    mons = []
    for _ in range(rng.randint(1, 3)):
        e = tuple(rng.randint(0, 2) for _ in range(d))
        c = rng.randint(-3, 3) if allow_negative else rng.randint(0, 3)
        if c:
            mons.append((c, e))
    if not mons:
        mons = [(1, (0,) * d)]
    return P, poly(d, *mons)


# ---------------------------------------------------------------------------
# sparse polynomials

def test_polynomial_canonicalization():
    # duplicate exponents merge, zero coefficients drop
    f = poly(2, (1, (1, 0)), (2, (1, 0)), (5, (0, 1)), (-5, (0, 1)))
    assert f.monomials == ((F(3), (1, 0)),)
    assert f.evaluate((4, 7)) == 12
    assert poly(1).degree == 0
    assert poly(2, (2, (1, 2))).degree == 3


def test_polynomial_rejects_bad_monomials():
    with pytest.raises(ValueError):
        poly(2, (1, (1,)))
    with pytest.raises(ValueError):
        poly(1, (1, (-1,)))


def test_power_polynomial_square_of_variable():
    f = poly(1, (1, (1,)))
    assert power_polynomial(f, 2).monomials == ((F(1), (2,)),)


def test_power_polynomial_binomial():
    f = poly(2, (1, (1, 0)), (1, (0, 1)))
    sq = power_polynomial(f, 2)
    assert sq.monomials == ((F(1), (0, 2)), (F(2), (1, 1)), (F(1), (2, 0)))


def test_power_polynomial_matches_naive_oracle():
    f = poly(2, (2, (2, 0)), (3, (0, 1)))
    got = {e: c for c, e in power_polynomial(f, 3).monomials}
    assert got == naive_power(f, 3)


def test_power_polynomial_rejects_bad_k():
    with pytest.raises(ValueError):
        power_polynomial(poly(1, (1, (1,))), 0)


# ---------------------------------------------------------------------------
# choose_k

def test_choose_k_values():
    assert choose_k(1, 1) == 1
    assert choose_k(5, F(1, 4)) == 9       # ceil(5 ln 5) = ceil(8.047)
    assert choose_k(10 ** 6, 1) == 28      # ceil(2 ln 1e6) = ceil(27.63)


def test_choose_k_rejects_bad_input():
    with pytest.raises(ValueError):
        choose_k(0, 1)
    with pytest.raises(ValueError):
        choose_k(5, 0)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 10 ** 6),
       st.fractions(min_value=F(1, 100), max_value=F(3, 1)))
def test_choose_k_makes_root_factor_small(N, eps):
    # N^(1/k) <= 1/(1-eps) is what the bound quality rests on; for
    # eps >= 1 any k works
    k = choose_k(N, eps)
    if eps < 1:
        assert N * (1 - eps) ** k <= 1


# ---------------------------------------------------------------------------
# bounds

def test_bounds_singleton():
    P = interval(3, 3)
    f = poly(1, (1, (1,)))
    for k in (1, 2, 5):
        rep = compute_bounds(P, f, k)
        assert (rep.L_k, rep.U_k, rep.N) == (3, 3, 1)
        assert rep.certified_gap == 0


def test_bounds_square_on_interval():
    P = interval(0, 4)
    f = poly(1, (1, (2,)))
    rep = compute_bounds(P, f, 2)
    assert rep == BoundsReport(k=2, L_k=9, U_k=18, N=5, certified_gap=F(9))
    assert rep.L_k <= 16 <= rep.U_k


def test_bounds_gap_shrinks_at_k8():
    P = interval(0, 4)
    f = poly(1, (1, (2,)))
    rep = compute_bounds(P, f, 8)
    assert rep.L_k <= 16 <= rep.U_k
    # U - L <= 16 (5^(1/8) - 1), checked by raising to the 8th power
    gap = rep.U_k - rep.L_k
    assert (gap + 16) ** 8 <= 5 * 16 ** 8


def test_bounds_integer_valued_fractional_coefficients():
    # x(x+1)/2 takes integer values, so integer rounding stays sound
    P = interval(0, 4)
    f = poly(1, (F(1, 2), (2,)), (F(1, 2), (1,)))
    rep = compute_bounds(P, f, 3)
    assert rep.L_k <= 10 <= rep.U_k
    assert rep.U_k == 10     # S = 1244, 10^3 <= 1244 < 11^3


def test_bounds_errors():
    f = poly(1, (1, (1,)))
    with pytest.raises(ValueError):
        compute_bounds(interval(0, 4), f, 0)
    with pytest.raises(ValueError):
        compute_bounds(Polyhedron(((1,), (-1,)), (-5, 3)), f, 2)  # empty
    with pytest.raises(ValueError):
        compute_bounds(Polyhedron(((1,),), (4,)), f, 2)  # unbounded


def test_bounds_sandwich_and_monotone_until_exact():
    P = interval(0, 4)
    f = poly(1, (1, (2,)))
    fstar = brute_max(P, f)
    prev = None
    converged = None
    for k in range(1, 65):
        rep = compute_bounds(P, f, k)
        assert rep.L_k <= fstar <= rep.U_k
        if prev is not None:
            assert rep.L_k >= prev.L_k and rep.U_k <= prev.U_k
        prev = rep
        if rep.L_k == rep.U_k:
            converged = k
            break
    assert converged is not None and prev.L_k == fstar


def test_bounds_converge_in_two_dims():
    P = box2(0, 2, 0, 2)
    f = poly(2, (1, (1, 0)), (1, (0, 1)))
    for k in range(1, 33):
        rep = compute_bounds(P, f, k)
        if rep.L_k == rep.U_k:
            assert rep.L_k == 4
            return
    pytest.fail("bounds never closed")


def test_bounds_gap_inequality_random():
    rng = random.Random(7)
    done = 0
    while done < 20:
        P, f = random_instance(rng, allow_negative=False)
        pts = lattice_points(P)
        if not pts:
            continue
        fstar = max(f.evaluate(p) for p in pts)
        N = len(pts)
        for k in (2, 3):
            rep = compute_bounds(P, f, k)
            assert rep.N == N
            assert rep.L_k <= fstar <= rep.U_k
            gap = rep.U_k - rep.L_k
            # gap <= f* (N^(1/k) - 1), compared via k-th powers
            assert (gap + fstar) ** k <= fstar ** k * N or gap == 0
        done += 1


# ---------------------------------------------------------------------------
# maximization

def test_maximize_square_half():
    P = interval(0, 4)
    f = poly(1, (1, (2,)))
    x, rep = maximize(P, f, F(1, 2))
    assert x in ((3,), (4,))
    assert rep.value == f.evaluate(x) >= 8
    assert rep.guarantee == "relative"


def test_maximize_singleton():
    P = interval(3, 3)
    f = poly(1, (5, (1,)), (-100, (0,)))
    x, rep = maximize(P, f, F(1, 2))
    assert x == (3,) and rep.guarantee == "exact" and rep.value == -85


def test_maximize_two_dim_quarter():
    P = box2(0, 5, 0, 5)
    f = poly(2, (1, (2, 1)))
    x, rep = maximize(P, f, F(1, 4))
    assert rep.value >= F(375, 4)
    assert rep.value == f.evaluate(x)
    assert P.contains(x)


def test_maximize_infeasible():
    with pytest.raises(ValueError):
        maximize(Polyhedron(((1,), (-1,)), (-5, 3)), poly(1, (1, (1,))), 1)


def test_maximize_negative_objective_range_guarantee():
    # values on [0,4]: -3 -6 -7 -6 -3, so range is 4 and the guarantee
    # at eps = 1/4 demands a point within 1 of the max
    P = interval(0, 4)
    f = poly(1, (1, (2,)), (-4, (1,)), (-3, (0,)))
    x, rep = maximize(P, f, F(1, 4))
    assert rep.guarantee == "shifted-range"
    assert x in ((0,), (4,)) and rep.value == -3
    assert rep.shift is not None and rep.range_lower_bound <= 4


def test_maximize_constant_negative_objective():
    P = interval(0, 4)
    f = poly(1, (F(-1, 3), (0,)))
    x, rep = maximize(P, f, F(1, 2))
    assert rep.guarantee == "exact" and rep.value == F(-1, 3)


def test_maximize_random_guarantees():
    rng = random.Random(11)
    done = 0
    while done < 10:
        P, f = random_instance(rng, allow_negative=True)
        pts = lattice_points(P)
        if not pts:
            continue
        fstar = max(f.evaluate(p) for p in pts)
        fmin = min(f.evaluate(p) for p in pts)
        eps = rng.choice([F(1, 2), F(1, 4)])
        x, rep = maximize(P, f, eps)
        assert P.contains(x)
        assert rep.value == f.evaluate(x)
        if rep.guarantee == "relative":
            assert rep.value >= (1 - eps) * fstar
        elif rep.guarantee == "shifted-range":
            assert fstar - rep.value <= eps * (fstar - fmin)
        else:
            assert rep.value == fstar
        done += 1


# ---------------------------------------------------------------------------
# recovery soundness

def test_recovery_prunes_only_safe_regions():
    P = box2(0, 5, 0, 5)
    f = poly(2, (1, (2, 1)))
    g = polyhedron_gf(P)
    N = int(specialize_at_one(g))
    k = choose_k(N, F(1, 2))
    S = weighted_sum(g, f.monomials, power=k)
    log = []
    best = _recover(P, bounding_box(P), f, (S / N, k), 3,
                    pruned_log=log)
    assert best is not None
    assert best[0] ** k >= S / N
    assert log, "instance should exercise pruning"
    for lo, hi, S_box, (tv, tk) in log:
        # the certificate itself
        assert S_box ** tk < tv ** 3
        # and the ground truth it promises: nothing at or above the
        # threshold lives in the discarded box
        sub = P.intersect(box_polyhedron(lo, hi))
        for p in lattice_points(sub):
            v = f.evaluate(p)
            assert v ** tk < tv
