"""Core arithmetic and linear algebra tests.

Oracles here are deliberately independent of the implementations they check:
determinants via cofactor expansion, LP optima via tight-row basis
enumeration solved in Fractions (elimination_reference) and via the
replaced Fraction-tableau simplex (lp_reference).
"""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import lp_reference
from elimination_reference import det_cofactor
from elimination_reference import solve_rational as solve_rational_reference
from latticeopt.core import (
    LPError,
    LPProblem,
    ceil_mul_ln,
    det,
    dot,
    format_rat,
    hnf,
    identity_matrix,
    iroot_floor,
    kernel_basis,
    kth_root_ceil_rational,
    kth_root_floor_rational,
    lll_reduce,
    lll_reduce_with_transform,
    mat_vec,
    parse_rat,
    primitive,
    rational_rank,
    solve_integer,
    solve_lp,
    transpose,
)


# ---------------------------------------------------------------------------
# oracles

def mat_mul(A, B):
    Bt = transpose(B)
    return tuple(tuple(dot(row, col) for col in Bt) for row in A)


def lp_oracle(problem):
    """Optimum by enumerating all square tight-row subsets.

    Only valid when every feasible direction is blocked (bounded problems);
    tests only use it on instances with full box bounds.
    """
    n = len(problem.c)
    rows = []
    for row, sense, rhs in zip(problem.A, problem.senses, problem.b):
        rows.append((tuple(Fraction(x) for x in row), sense, Fraction(rhs)))
    for j, lo in enumerate(problem.lower):
        if lo is not None:
            e = tuple(Fraction(1) if i == j else Fraction(0) for i in range(n))
            rows.append((e, ">=", Fraction(lo)))
    for j, up in enumerate(problem.upper):
        if up is not None:
            e = tuple(Fraction(1) if i == j else Fraction(0) for i in range(n))
            rows.append((e, "<=", Fraction(up)))

    def feasible(x):
        for row, sense, rhs in rows:
            v = dot(row, x)
            if sense == "<=" and v > rhs:
                return False
            if sense == ">=" and v < rhs:
                return False
            if sense == "=" and v != rhs:
                return False
        return True

    best = None
    for subset in itertools.combinations(range(len(rows)), n):
        M = [rows[i][0] for i in subset]
        b = [rows[i][2] for i in subset]
        x = solve_rational_reference(M, b)
        if x is None or not feasible(x):
            continue
        v = dot([Fraction(q) for q in problem.c], x)
        if best is None or (v > best if problem.maximize else v < best):
            best = v
    return best


# ---------------------------------------------------------------------------
# rationals

def test_parse_and_format_roundtrip():
    assert parse_rat("3/6") == Fraction(1, 2)
    assert format_rat(Fraction(4, 2)) == "2"
    assert format_rat(Fraction(-3, 9)) == "-1/3"
    assert parse_rat("-7") == Fraction(-7)


@given(st.integers(-10**6, 10**6), st.integers(1, 10**6))
def test_rational_always_reduced(p, q):
    x = Fraction(p, q)
    from math import gcd
    assert gcd(x.numerator, x.denominator) == 1
    assert x.denominator > 0


# ---------------------------------------------------------------------------
# determinants / rank / kernels

@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.data())
def test_det_matches_cofactor_expansion(n, data):
    M = tuple(tuple(data.draw(st.integers(-8, 8)) for _ in range(n))
              for _ in range(n))
    assert det(M) == det_cofactor(M)


def test_det_known_values():
    assert det(((2,),)) == 2
    assert det(((1, 2), (3, 4))) == -2
    assert det(identity_matrix(5)) == 1


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 4), st.data())
def test_det_multiplicative(n, data):
    A = tuple(tuple(data.draw(st.integers(-5, 5)) for _ in range(n))
              for _ in range(n))
    B = tuple(tuple(data.draw(st.integers(-5, 5)) for _ in range(n))
              for _ in range(n))
    assert det(mat_mul(A, B)) == det(A) * det(B)




def test_integer_routines_reject_non_integer_entries():
    half = Fraction(1, 2)
    with pytest.raises(ValueError):
        det(((half,),))
    with pytest.raises(ValueError):
        solve_integer(((2,),), (Fraction(5, 2),))
    with pytest.raises(ValueError):
        lll_reduce(((Fraction(3, 2), 0), (0, 1)))
    with pytest.raises(ValueError):
        hnf(((half, 1),))
    with pytest.raises(ValueError):
        kernel_basis(((half, 1),))
    # integral Fractions are still integers
    assert det(((Fraction(4, 2),),)) == 2
    assert solve_integer(((2,),), (Fraction(6, 1),)) == (3,)
    assert hnf(((Fraction(2), 1),))[0] == ((2, 1),)


def test_hnf_postconditions():
    rng = random.Random(7)
    for _ in range(60):
        m = rng.randint(1, 4)
        n = rng.randint(1, 4)
        M = tuple(tuple(rng.randint(-9, 9) for _ in range(n)) for _ in range(m))
        H, U = hnf(M)
        assert mat_mul(U, M) == H
        assert abs(det(U)) == 1
        # echelon shape with positive pivots and reduced entries above
        prev_col = -1
        for row in H:
            nz = next((j for j, x in enumerate(row) if x != 0), None)
            if nz is None:
                continue
            assert nz > prev_col
            prev_col = nz
            assert row[nz] > 0
        # zero rows at the bottom
        seen_zero = False
        for row in H:
            if all(x == 0 for x in row):
                seen_zero = True
            else:
                assert not seen_zero
        # column reduction above pivots
        r = 0
        for row in H:
            nz = next((j for j, x in enumerate(row) if x != 0), None)
            if nz is None:
                break
            for i in range(r):
                assert 0 <= H[i][nz] < row[nz]
            r += 1


def test_kernel_basis_spans_kernel():
    rng = random.Random(11)
    for _ in range(40):
        m = rng.randint(1, 3)
        n = rng.randint(1, 5)
        M = tuple(tuple(rng.randint(-4, 4) for _ in range(n)) for _ in range(m))
        K = kernel_basis(M)
        for k in K:
            assert all(v == 0 for v in mat_vec(M, k))
        assert len(K) == n - rational_rank(M)
        # saturation: every small kernel vector is an *integer* combination
        if K and len(K) <= 2 and n <= 4:
            Kt = transpose(K)
            for x in itertools.product(range(-3, 4), repeat=n):
                if any(x) and all(v == 0 for v in mat_vec(M, x)):
                    assert solve_integer(Kt, x) is not None


def test_solve_integer_examples():
    # 3x + 6y = 9 has integer solutions; 3x + 6y = 7 has none
    assert solve_integer(((3, 6),), (9,)) is not None
    x = solve_integer(((3, 6),), (9,))
    assert 3 * x[0] + 6 * x[1] == 9
    assert solve_integer(((3, 6),), (7,)) is None
    sol = solve_integer(((1, 2, 1), (0, 1, 1)), (4, 3))
    assert sol is not None
    assert sol[0] + 2 * sol[1] + sol[2] == 4 and sol[1] + sol[2] == 3


# ---------------------------------------------------------------------------
# LLL

def _gram_schmidt(rows):
    star = []
    mus = []
    for i, row in enumerate(rows):
        v = [Fraction(x) for x in row]
        mu_i = []
        for j in range(i):
            denom = dot(star[j], star[j])
            mu = Fraction(dot(row, star[j])) / denom
            mu_i.append(mu)
            v = [a - mu * s for a, s in zip(v, star[j])]
        star.append(v)
        mus.append(mu_i)
    return star, mus


def test_lll_postconditions():
    rng = random.Random(3)
    delta = Fraction(3, 4)
    for _ in range(40):
        n = rng.randint(1, 4)
        while True:
            B = tuple(tuple(rng.randint(-30, 30) for _ in range(n))
                      for _ in range(n))
            if det(B) != 0:
                break
        R, U = lll_reduce_with_transform(B)
        assert mat_mul(U, B) == R
        assert abs(det(U)) == 1
        # same lattice: canonical HNF agrees
        assert hnf(B)[0] == hnf(R)[0]
        star, mus = _gram_schmidt(R)
        for i in range(n):
            for mu in mus[i]:
                assert abs(mu) <= Fraction(1, 2)
        for k in range(1, n):
            lhs = dot(star[k], star[k])
            rhs = (delta - mus[k][k - 1] ** 2) * dot(star[k - 1], star[k - 1])
            assert lhs >= rhs


def test_lll_rejects_dependent_rows():
    with pytest.raises(ValueError):
        lll_reduce(((1, 2), (2, 4)))


# ---------------------------------------------------------------------------
# LP

def test_lp_simple_interval():
    p = LPProblem(c=(1,), A=((1,),), b=(5,), senses=("<=",), lower=(0,))
    r = solve_lp(p)
    assert r.status == "optimal"
    assert r.x == (Fraction(5),)
    assert r.value == 5


def test_lp_unbounded():
    p = LPProblem(c=(1,), A=(), b=(), senses=(), lower=(0,))
    assert solve_lp(p).status == "unbounded"


def test_lp_infeasible():
    p = LPProblem(c=(1,), A=((1,), (-1,)), b=(1, -3), senses=("<=", "<="))
    assert solve_lp(p).status == "infeasible"


def test_lp_equality_and_minimization():
    # min x + y s.t. x + y = 3, 0 <= x,y <= 2
    p = LPProblem(c=(1, 1), A=((1, 1),), b=(3,), senses=("=",),
                  lower=(0, 0), upper=(2, 2), maximize=False)
    r = solve_lp(p)
    assert r.status == "optimal"
    assert r.value == 3


def test_lp_empty_constraints_zero_objective():
    p = LPProblem(c=(0, 0), A=(), b=(), senses=())
    r = solve_lp(p)
    assert r.status == "optimal" and r.value == 0


def test_lp_matches_enumeration_oracle():
    rng = random.Random(17)
    trials = 0
    while trials < 80:
        n = rng.randint(1, 3)
        m = rng.randint(1, 4)
        A = tuple(tuple(rng.randint(-4, 4) for _ in range(n)) for _ in range(m))
        b = tuple(rng.randint(-6, 8) for _ in range(m))
        senses = tuple(rng.choice(["<=", ">=", "="]) for _ in range(m))
        c = tuple(rng.randint(-5, 5) for _ in range(n))
        lower = tuple([-9] * n)
        upper = tuple([9] * n)
        p = LPProblem(c=c, A=A, b=b, senses=senses, lower=lower, upper=upper,
                      maximize=rng.random() < 0.5)
        res = solve_lp(p)
        expected = lp_oracle(p)
        if expected is None:
            assert res.status == "infeasible"
        else:
            assert res.status == "optimal"
            assert res.value == expected
        trials += 1


def test_lp_rational_data():
    p = LPProblem(c=(Fraction(1, 3),),
                  A=((Fraction(2, 5),),), b=(Fraction(3, 7),),
                  senses=("<=",), lower=(0,))
    r = solve_lp(p)
    assert r.status == "optimal"
    assert r.x[0] == Fraction(15, 14)


@pytest.mark.parametrize("fields", [
    dict(c=(1,), A=((1,),), b=(5, 2), senses=("<=", "<=")),
    dict(c=(1,), A=((1,), (1,)), b=(5,), senses=("<=", "<=")),
    dict(c=(1,), A=((1,), (1,)), b=(5, 2), senses=("<=",)),
    dict(c=(1, 1), A=((1,),), b=(5,), senses=("<=",)),
    dict(c=(1,), A=((1, 1),), b=(5,), senses=("<=",)),
    dict(c=(1, 1), A=(), b=(), senses=(), lower=(0,)),
    dict(c=(1,), A=(), b=(), senses=(), upper=(0, 0)),
    dict(c=(1,), A=((1,),), b=(5,), senses=("<",)),
])
def test_lp_problem_rejects_mismatched_shapes(fields):
    # zipping rows, senses and right-hand sides would silently drop rows
    with pytest.raises(LPError):
        LPProblem(**fields)


def _random_lp(rng):
    """n 1-4, m 0-5, denominators 1/2/3/7, every sense and bound kind.

    Half the instances take their right-hand sides through a point
    inside the bounds, so that all three statuses come up often.
    """
    def q():
        return Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3, 7)))

    n = rng.randint(1, 4)
    m = rng.randint(0, 5)
    through_point = rng.random() < 0.5
    lower = tuple(rng.choice((None, 0, q())) for _ in range(n))
    upper = tuple(
        None if rng.random() < 0.5 else q() if lo is None
        else lo + (abs(q()) if through_point else q())
        for lo in lower)
    A = tuple(tuple(q() for _ in range(n)) for _ in range(m))
    senses = tuple(rng.choice(("<=", "=", ">=")) for _ in range(m))
    if through_point:
        x0 = tuple(lo if lo is not None else up if up is not None else q()
                   for lo, up in zip(lower, upper))
        slack = {"<=": 1, "=": 0, ">=": -1}
        b = tuple(dot(a, x0) + slack[s] * abs(q()) * rng.randint(0, 1)
                  for a, s in zip(A, senses))
    else:
        b = tuple(q() for _ in range(m))
    return LPProblem(c=tuple(q() for _ in range(n)), A=A, b=b, senses=senses,
                     lower=lower, upper=upper, maximize=rng.random() < 0.5)


def _assert_feasible(p, x):
    for a, s, rhs in zip(p.A, p.senses, p.b):
        v = dot(a, x)
        assert v <= rhs if s == "<=" else v >= rhs if s == ">=" else v == rhs
    for v, lo, up in zip(x, p.lower, p.upper):
        assert lo is None or v >= lo
        assert up is None or v <= up


def test_lp_matches_reference_kernel():
    rng = random.Random(2024)
    statuses = {"optimal": 0, "infeasible": 0, "unbounded": 0}
    for _ in range(2400):
        p = _random_lp(rng)
        res = solve_lp(p)
        ref = lp_reference.solve_lp(p)
        assert (res.status, res.value) == (ref.status, ref.value), p
        statuses[res.status] += 1
        if res.status == "optimal":
            _assert_feasible(p, res.x)
            assert dot(p.c, res.x) == res.value
    assert min(statuses.values()) >= 300, statuses


def test_lp_slack_rows_with_fractions_over_several_pivots():
    # every row is '<=' with b >= 0, so every slack starts basic; the rows
    # are cleared of denominators by different factors, and three pivots
    # follow, each of which must bring every row, also one with a zero
    # in the pivot column, to the new common denominator, or a later
    # division by it rounds
    F = Fraction
    p = LPProblem(c=(1, 1, 1),
                  A=((F(1, 2), F(1, 3), 0),
                     (0, F(2, 3), F(3, 7)),
                     (F(1, 3), 0, F(1, 2)),
                     (F(1, 7), F(1, 7), F(1, 7))),
                  b=(F(5, 7), F(1, 2), F(2, 3), F(1, 3)),
                  senses=("<=",) * 4, lower=(0, 0, 0))
    res = solve_lp(p)
    ref = lp_reference.solve_lp(p)
    assert res.status == "optimal"
    assert res.value == ref.value == F(533, 252)
    _assert_feasible(p, res.x)
    assert sum(1 for v in res.x if v) == 3


def test_lp_shifted_bounds_report_original_coordinates():
    # min 2x + y, x + y >= 3, x >= 1, -2 <= y <= 1/2: the vertex (5/2, 1/2)
    p = LPProblem(c=(2, 1), A=((1, 1),), b=(3,), senses=(">=",),
                  lower=(1, -2), upper=(None, Fraction(1, 2)),
                  maximize=False)
    res = solve_lp(p)
    assert res.status == "optimal"
    assert res.x == (Fraction(5, 2), Fraction(1, 2))
    assert res.value == Fraction(11, 2)
    # an upper bound alone: max x stops at 7/2, max -x is unbounded
    up = dict(A=(), b=(), senses=(), upper=(Fraction(7, 2),))
    assert solve_lp(LPProblem(c=(1,), **up)).x == (Fraction(7, 2),)
    assert solve_lp(LPProblem(c=(-1,), **up)).status == "unbounded"


def test_lp_bounds_without_rows():
    # the bound is no row here; test_lp_unbounded covers c=(1,), lower=(0,)
    res = solve_lp(LPProblem(c=(-1,), A=(), b=(), senses=(), lower=(3,)))
    assert res.status == "optimal"
    assert res.x == (3,) and res.value == -3


def test_lp_redundant_equality_row_is_dropped():
    # the second row repeats the first, so an artificial stays basic at
    # zero after phase one with no column to pivot in
    p = LPProblem(c=(1, 0), A=((1, 1), (2, 2)), b=(2, 4), senses=("=", "="),
                  lower=(0, 0))
    res = solve_lp(p)
    assert res.status == "optimal"
    assert res.x == (2, 0) and res.value == 2


# ---------------------------------------------------------------------------
# roots and logs

def test_iroot_floor():
    assert iroot_floor(0, 3) == 0
    assert iroot_floor(26, 3) == 2
    assert iroot_floor(27, 3) == 3
    assert iroot_floor(10**18, 2) == 10**9


@given(st.integers(0, 10**12), st.integers(1, 6))
def test_iroot_floor_certified(x, k):
    r = iroot_floor(x, k)
    assert r**k <= x < (r + 1) ** k


def test_kth_root_rational():
    assert kth_root_floor_rational(Fraction(354), 2) == 18
    assert kth_root_ceil_rational(Fraction(354, 5), 2) == 9
    assert kth_root_ceil_rational(Fraction(16), 2) == 4
    assert kth_root_floor_rational(Fraction(15, 2), 2) == 2


def test_ceil_mul_ln_known():
    # 2*ln(10^6) = 27.63...
    assert ceil_mul_ln(Fraction(2), 10**6) == 28
    # 5*ln(5) = 8.047...
    assert ceil_mul_ln(Fraction(5), 5) == 9
    assert ceil_mul_ln(Fraction(3), 1) == 0
    # 3*ln(16) = 8.317...
    assert ceil_mul_ln(Fraction(3), 16) == 9
