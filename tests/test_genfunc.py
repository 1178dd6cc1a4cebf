"""Generating-function tests.

Counting and weighted sums are checked against brute-force lattice
enumeration; the skew-cone decomposition is checked pointwise and against
the known closed form by exact evaluation at interior sample points.
"""

import itertools
import random
import time
from fractions import Fraction

import pytest

from elimination_reference import solve_rational
from latticeopt.core import dot, transpose
from latticeopt.fptas import SparsePolynomial
from latticeopt.genfunc import (
    GeneratingFunction,
    GFTerm,
    _moment_direction,
    polyhedron_gf,
    signed_decompose,
    specialize_at_one,
    unimodular_cone_gf,
    weighted_sum,
)
from latticeopt.polyhedra import (
    NotPointedError,
    Polyhedron,
    SimplicialCone,
    UnboundedError,
    bounding_box,
    box_polyhedron,
)
from operator_route import apply_operator, specialize_general
from polynomial_power import power_polynomial


def brute_count(P):
    box = bounding_box(P)
    if box is None:
        return 0
    lo, hi = box
    ranges = [range(l, h + 1) for l, h in zip(lo, hi)]
    return sum(1 for x in itertools.product(*ranges) if P.contains(x))


def brute_weighted(P, mons, power=1):
    box = bounding_box(P)
    if box is None:
        return Fraction(0)
    lo, hi = box
    ranges = [range(l, h + 1) for l, h in zip(lo, hi)]
    total = Fraction(0)
    for x in itertools.product(*ranges):
        if P.contains(x):
            value = Fraction(0)
            for c, e in mons:
                term = Fraction(c)
                for xi, ei in zip(x, e):
                    term *= xi ** ei
                value += term
            total += value ** power
    return total


def eval_term_at(t, z):
    val = Fraction(0)
    for c, a in t.numerator:
        mono = Fraction(c)
        for zi, ai in zip(z, a):
            mono *= Fraction(zi) ** ai
        val += mono
    for b, m in t.denominator:
        factor = Fraction(1)
        for zi, bi in zip(z, b):
            factor *= Fraction(zi) ** bi
        val /= (1 - factor) ** m
    return t.sign * val


def eval_gf_at(g, z):
    return sum(eval_term_at(t, z) for t in g.terms)


def halfopen_contains(piece, x):
    diff = tuple(Fraction(a) - Fraction(b) for a, b in zip(x, piece.apex))
    lam = solve_rational(transpose(piece.generators), diff)
    for i, l in enumerate(lam):
        if l < 0 or (l == 0 and i in piece.open_facets):
            return False
    return True


def random_bounded_polyhedron(rng, n):
    P = box_polyhedron(tuple(rng.randint(-3, 0) for _ in range(n)),
                       tuple(rng.randint(1, 4) for _ in range(n)))
    extra = tuple(tuple(rng.randint(-3, 3) for _ in range(n))
                  for _ in range(rng.randint(0, 2)))
    return Polyhedron(P.A + extra,
                      P.b + tuple(rng.randint(-2, 8) for _ in extra))


# ---------------------------------------------------------------------------
# unimodular cone terms

def test_unimodular_identity_cone():
    t = unimodular_cone_gf(SimplicialCone((0, 0), ((1, 0), (0, 1))))
    assert t.numerator == ((Fraction(1), (0, 0)),)
    assert t.denominator == (((0, 1), 1), ((1, 0), 1))


def test_unimodular_interval_top_vertex():
    t = unimodular_cone_gf(SimplicialCone((4,), ((-1,),)))
    assert t.numerator == ((Fraction(1), (4,)),)
    assert t.denominator == (((-1,), 1),)


def test_unimodular_fractional_apex_rounds_up():
    t = unimodular_cone_gf(
        SimplicialCone((Fraction(1, 2), Fraction(1, 2)), ((1, 0), (0, 1))))
    assert t.numerator == ((Fraction(1), (1, 1)),)


def test_unimodular_open_facet_shifts_corner():
    t = unimodular_cone_gf(
        SimplicialCone((0,), ((1,),), open_facets=frozenset({0})))
    assert t.numerator == ((Fraction(1), (1,)),)


def test_unimodular_rejects_fat_cone():
    with pytest.raises(ValueError):
        unimodular_cone_gf(SimplicialCone((0, 0), ((1, 0), (1, 2))))


# ---------------------------------------------------------------------------
# signed decomposition

def test_decompose_unimodular_is_identity():
    c = SimplicialCone((0, 0), ((1, 0), (0, 1)))
    pieces = signed_decompose(c)
    assert pieces == (c,)


@pytest.mark.parametrize("alpha", [2, 5, 23])
def test_decompose_skew_cone_counts(alpha):
    c = SimplicialCone((0, 0), ((1, 0), (1, alpha)))
    pieces = signed_decompose(c)
    assert all(abs(_piece_det(p)) == 1 for p in pieces)
    for x in itertools.product(range(-3, 9), repeat=2):
        inside = x[1] >= 0 and alpha * x[0] - x[1] >= 0
        mult = sum(p.sign for p in pieces if halfopen_contains(p, x))
        assert mult == (1 if inside else 0), x


def _piece_det(p):
    from latticeopt.core import det
    return det(p.generators)


def test_decompose_matches_closed_form_alpha5():
    # 1/((1-z1)(1-z2)) - 1/((1-z1 z2^5)(1-z2)) + 1/(1-z1 z2^5)
    def closed_form(z1, z2):
        z1, z2 = Fraction(z1), Fraction(z2)
        return (1 / ((1 - z1) * (1 - z2))
                - 1 / ((1 - z1 * z2 ** 5) * (1 - z2))
                + 1 / (1 - z1 * z2 ** 5))

    c = SimplicialCone((0, 0), ((1, 0), (1, 5)))
    g = GeneratingFunction(
        2, tuple(unimodular_cone_gf(p) for p in signed_decompose(c)))
    for z in [(2, 3), (5, 2), (Fraction(1, 3), 7), (-2, -3), (11, 13)]:
        assert eval_gf_at(g, z) == closed_form(*z)


def test_decompose_friendly_tiling_cone():
    c = SimplicialCone((0, 0), ((2, -1), (4, 1)))
    pieces = signed_decompose(c)
    assert all(abs(_piece_det(p)) == 1 for p in pieces)
    for x in itertools.product(range(-5, 9), repeat=2):
        lam = solve_rational(transpose(c.generators),
                             (Fraction(x[0]), Fraction(x[1])))
        inside = all(l >= 0 for l in lam)
        mult = sum(p.sign for p in pieces if halfopen_contains(p, x))
        assert mult == (1 if inside else 0), x


def test_decompose_large_index_stays_small():
    c = SimplicialCone((0, 0), ((1, 0), (1, 10 ** 6)))
    t0 = time.time()
    pieces = signed_decompose(c)
    assert time.time() - t0 < 1.0
    assert len(pieces) <= 60


def test_decompose_random_3d_cones():
    rng = random.Random(7)
    done = 0
    while done < 4:
        gens = tuple(tuple(rng.randint(-3, 3) for _ in range(3))
                     for _ in range(3))
        from latticeopt.core import det
        D = det(gens)
        if D == 0 or abs(D) == 1:
            continue
        c = SimplicialCone((0, 0, 0), gens)
        pieces = signed_decompose(c)
        assert all(abs(_piece_det(p)) == 1 for p in pieces)
        for x in itertools.product(range(-4, 5), repeat=3):
            lam = solve_rational(transpose(gens), tuple(map(Fraction, x)))
            inside = all(l >= 0 for l in lam)
            mult = sum(p.sign for p in pieces if halfopen_contains(p, x))
            assert mult == (1 if inside else 0), (gens, x)
        done += 1


# ---------------------------------------------------------------------------
# Brion sums and counting

def test_count_interval():
    g = polyhedron_gf(Polyhedron(((1,), (-1,)), (4, 0)))
    assert specialize_at_one(g) == 5


def test_count_million_fast():
    t0 = time.time()
    g = polyhedron_gf(Polyhedron(((1,), (-1,)), (10 ** 6, 0)))
    assert specialize_at_one(g) == 10 ** 6 + 1
    assert time.time() - t0 < 1.0


def test_count_single_point():
    g = polyhedron_gf(
        Polyhedron(((1, 0), (-1, 0), (0, 1), (0, -1)), (3, -3, 7, -7)))
    assert len(g.terms) == 1
    assert g.terms[0].denominator == ()
    assert specialize_at_one(g) == 1


def test_count_simplex():
    g = polyhedron_gf(Polyhedron(((-1, 0), (0, -1), (1, 1)), (0, 0, 3)))
    assert specialize_at_one(g) == 10


def test_count_square_product():
    g = polyhedron_gf(box_polyhedron((0, 0), (7, 7)))
    assert specialize_at_one(g) == 64


def test_count_empty():
    g = polyhedron_gf(Polyhedron(((1,), (-1,)), (0, -1)))
    assert g.terms == ()
    assert specialize_at_one(g) == 0


def test_count_segment_in_plane():
    # x + y = 3 sliced to 0 <= x <= 2: three lattice points
    P = Polyhedron(((1, 1), (-1, -1), (1, 0), (-1, 0)), (3, -3, 2, 0))
    assert specialize_at_one(polyhedron_gf(P)) == 3


def test_count_affine_lattice_empty():
    # 2x + 2y = 3 has no integer solutions though the segment is nonempty
    P = Polyhedron(((2, 2), (-2, -2), (1, 0), (-1, 0)), (3, -3, 5, 5))
    g = polyhedron_gf(P)
    assert g.terms == ()
    assert specialize_at_one(g) == 0


def test_unbounded_rejected():
    with pytest.raises(ValueError):
        polyhedron_gf(Polyhedron(((-1, 0), (0, -1)), (0, 0)))
    # {2x = 1, y >= 0}: the equalities have no integer point, but P is
    # still unbounded
    with pytest.raises(UnboundedError):
        polyhedron_gf(Polyhedron(((2, 0), (-2, 0), (0, -1)), (1, -1, 0)))


def test_random_polytopes_match_bruteforce():
    rng = random.Random(99)
    done = 0
    while done < 40:
        n = rng.randint(1, 3)
        P = random_bounded_polyhedron(rng, n)
        assert specialize_at_one(polyhedron_gf(P)) == brute_count(P)
        done += 1


def test_vertex_terms_all_matter():
    from latticeopt.polyhedra import enumerate_vertices, supporting_cone
    from latticeopt.polyhedra import triangulate
    rng = random.Random(3)
    for _ in range(5):
        a, b, c = sorted(rng.sample(range(0, 9), 3))
        P = Polyhedron(((-1, 0), (0, -1), (1, 1)), (-a, 0, b + 3))
        verts = enumerate_vertices(P)
        groups = []
        for v in verts:
            cone = supporting_cone(P, v)
            eta = tuple(sum(r[i] for r in cone.rays) for i in range(2))
            terms = []
            for piece in triangulate(cone, reference=eta):
                for uni in signed_decompose(piece, reference=eta):
                    terms.append(unimodular_cone_gf(uni))
            groups.append(tuple(terms))
        full = specialize_at_one(
            GeneratingFunction(2, tuple(t for grp in groups for t in grp)))
        assert full == brute_count(P)
        for skip in range(len(groups)):
            partial = tuple(t for i, grp in enumerate(groups) if i != skip
                            for t in grp)
            assert specialize_at_one(GeneratingFunction(2, partial)) != full


def test_specialization_direction_independent():
    P = Polyhedron(((-1, 0), (0, -1), (1, 1)), (0, 0, 5))
    g = polyhedron_gf(P)
    c1 = specialize_general(g, direction=(1, 2))
    c2 = specialize_general(g, direction=(3, 7))
    assert c1 == c2 == specialize_at_one(g) == 21


def test_specialization_rejects_orthogonal_direction():
    g = polyhedron_gf(Polyhedron(((1,), (-1,)), (4, 0)))
    with pytest.raises(ValueError):
        specialize_general(g, direction=(0,))


def test_moment_direction_search_bound():
    # (1, M) . (m, -1) = m - M vanishes at M = 1..5, so the search must
    # reach its bound 5 * (2 - 1) + 1 = 6
    vectors = {(m, -1) for m in range(1, 6)}
    assert _moment_direction(vectors, 2) == (1, 6)


# ---------------------------------------------------------------------------
# operators

def test_operator_identity_keeps_value():
    g = polyhedron_gf(box_polyhedron((0, 0), (2, 2)))
    g1 = apply_operator(g, ((1, (0, 0)),))
    assert specialize_general(g1) == specialize_at_one(g) == 9


def test_operator_square_weights_interval():
    g = polyhedron_gf(Polyhedron(((1,), (-1,)), (4, 0)))
    g2 = apply_operator(g, ((1, (2,)),))
    assert specialize_general(g2) == 30

    # same rational function as the textbook second-derivative result
    def closed_form(z):
        z = Fraction(z)
        return ((z + z ** 2) / (1 - z) ** 3
                - (25 * z ** 5 - 39 * z ** 6 + 16 * z ** 7) / (1 - z) ** 3)

    for z in (2, 3, Fraction(1, 2), -5, 7):
        assert eval_gf_at(g2, (z,)) == closed_form(z)


def test_operator_product_weight_square():
    g = polyhedron_gf(box_polyhedron((0, 0), (2, 2)))
    gw = apply_operator(g, ((1, (1, 1)),))
    assert specialize_general(gw) == 9


def test_operator_linearity():
    rng = random.Random(11)
    P = Polyhedron(((-1, 0), (0, -1), (1, 1)), (1, 1, 4))
    g = polyhedron_gf(P)
    for _ in range(5):
        h1 = tuple((Fraction(rng.randint(-3, 3)),
                    (rng.randint(0, 2), rng.randint(0, 2)))
                   for _ in range(2))
        h2 = tuple((Fraction(rng.randint(-3, 3)),
                    (rng.randint(0, 2), rng.randint(0, 2)))
                   for _ in range(2))
        s1 = specialize_general(apply_operator(g, h1))
        s2 = specialize_general(apply_operator(g, h2))
        s12 = specialize_general(apply_operator(g, h1 + h2))
        assert s12 == s1 + s2


def test_operator_matches_bruteforce():
    rng = random.Random(17)
    done = 0
    while done < 12:
        n = rng.randint(1, 2)
        P = random_bounded_polyhedron(rng, n)
        mons = tuple((Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
                      tuple(rng.randint(0, 2) for _ in range(n)))
                     for _ in range(2))
        got = specialize_general(apply_operator(polyhedron_gf(P), mons))
        assert got == brute_weighted(P, mons)
        done += 1


def test_weighted_sum_agrees_with_operator_route():
    rng = random.Random(29)
    done = 0
    while done < 10:
        n = rng.randint(1, 2)
        P = random_bounded_polyhedron(rng, n)
        mons = tuple((Fraction(rng.randint(-4, 4)),
                      tuple(rng.randint(0, 3) for _ in range(n)))
                     for _ in range(2))
        g = polyhedron_gf(P)
        fast = weighted_sum(g, mons)
        slow = specialize_general(apply_operator(g, mons))
        assert fast == slow == brute_weighted(P, mons)
        done += 1


def random_weight(rng, n):
    # coefficient denominators 1, 2 and 3; exponents up to 2
    return tuple((Fraction(rng.randint(-4, 4), rng.choice((1, 2, 3))),
                  tuple(rng.randint(0, 2) for _ in range(n)))
                 for _ in range(rng.randint(1, 3)))


def flat_polyhedron(rng, n):
    # sum x_i = t inside a box: the affine hull is a proper subspace, or
    # a single point when the box is one point
    lo = tuple(rng.randint(-2, 0) for _ in range(n))
    hi = tuple(l + rng.randint(0, 3) for l in lo)
    t = rng.randint(sum(lo), sum(hi))
    box = box_polyhedron(lo, hi)
    return Polyhedron(box.A + ((1,) * n, (-1,) * n), box.b + (t, -t))


def differential_cases(rng):
    """(P, weight, power): random, single-point and flat polytopes in
    d = 1..3 with rational weights, powers 1..6, and a 1-D power >= 30
    as the shifted-range path uses."""
    for i in range(45):
        n = 1 + i % 3
        kind = (i // 3) % 3
        if kind == 0:
            P = random_bounded_polyhedron(rng, n)
        elif kind == 1:
            p = tuple(rng.randint(-3, 3) for _ in range(n))
            P = box_polyhedron(p, p)
        else:
            P = flat_polyhedron(rng, n)
        yield P, random_weight(rng, n), rng.randint(1, 6 if n < 3 else 4)
    lo = rng.randint(-9, -1)
    P = box_polyhedron((lo,), (lo + rng.randint(6, 14),))
    yield P, ((Fraction(1, 2), (1,)), (Fraction(rng.randint(-5, 5), 3),
                                       (0,))), 30


def test_weighted_sum_differential():
    rng = random.Random(41)
    negative_s = no_denominator = 0
    for P, mons, power in differential_cases(rng):
        g = polyhedron_gf(P)
        got = weighted_sum(g, mons, power)
        assert got == brute_weighted(P, mons, power), (P, mons, power)
        if P.dim < 3 or power < 3:
            # the operator route runs on the expanded f^power; in d = 3
            # at higher powers it takes too long for tier-1
            expanded = power_polynomial(SparsePolynomial(P.dim, mons), power)
            via_ops = specialize_general(apply_operator(g, expanded))
            assert got == via_ops, (P, mons, power)
        if g.terms:
            vectors = {b for t in g.terms for b, _ in t.denominator}
            mu = _moment_direction(vectors, P.dim)
            negative_s += any(dot(mu, b) < 0 for b in vectors)
            no_denominator += any(not t.denominator for t in g.terms)
    assert negative_s >= 10 and no_denominator >= 10


@pytest.mark.parametrize("n", [1, 2, 3])
def test_weighted_sum_power_equals_expanded_power(n):
    # the kernel raises the rebased weight by squaring; the oracle
    # expands f^k by repeated multiplication before summing
    rng = random.Random(50 + n)
    P = random_bounded_polyhedron(rng, n)
    g = polyhedron_gf(P)
    f = SparsePolynomial(n, random_weight(rng, n))
    for k in range(1, 10 if n < 3 else 6):
        assert weighted_sum(g, f, k) == \
            weighted_sum(g, power_polynomial(f, k), 1), k


def test_weighted_sum_rejects_processed_terms():
    g = polyhedron_gf(Polyhedron(((1,), (-1,)), (4, 0)))
    g2 = apply_operator(g, ((1, (2,)),))
    with pytest.raises(ValueError):
        weighted_sum(g2, ((1, (0,)),))
    # counting is the weight-1 sum, so it takes fresh terms only too
    with pytest.raises(ValueError):
        specialize_at_one(g2)
