"""core.eliminate and the routines that read their answers off it, checked
against the Fraction and cofactor routines it replaced
(tests/elimination_reference.py) on seeded random matrices, and the signed
decomposition that eliminates each generator matrix once, checked against
the one that took det, inverse, normals and solve separately."""

import random
from fractions import Fraction

import pytest

import elimination_reference as ref
from latticeopt import core, genfunc, polyhedra
from latticeopt.core import (
    clear_denominators,
    det,
    dot,
    eliminate,
    identity_matrix,
    kernel_basis,
    null_vector,
    primitive,
    rational_rank,
    scaled_inverse,
    transpose,
    vneg,
)

KINDS = ("full", "singular", "rank_deficient", "corank_one", "rational",
         "zero_row")


def _product(A, C):
    return tuple(tuple(dot(row, col) for col in transpose(C)) for row in A)


def _random_matrix(rng, kind):
    """An m x n matrix (both up to 6) of the given kind; square for
    'singular'."""
    m, n = rng.randint(1, 6), rng.randint(1, 6)
    entry = lambda: rng.randint(-6, 6)
    if kind == "full":
        return tuple(tuple(entry() for _ in range(n)) for _ in range(m))
    if kind == "singular":
        n = max(n, 2)
        rows = [tuple(entry() for _ in range(n)) for _ in range(n - 1)]
        a, b = rng.choice(rows), rng.choice(rows)
        s, t = rng.randint(-2, 2), rng.randint(-2, 2)
        rows.insert(rng.randrange(n), tuple(s * x + t * y
                                            for x, y in zip(a, b)))
        return tuple(rows)
    if kind in ("rank_deficient", "corank_one"):
        n = max(n, 2)
        k = n - 1 if kind == "corank_one" else rng.randint(1, n - 1)
        m = max(m, k)
        A = tuple(tuple(rng.randint(-3, 3) for _ in range(k)) for _ in range(m))
        C = tuple(tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(k))
        return _product(A, C)
    if kind == "rational":
        return tuple(tuple(Fraction(entry(), rng.randint(1, 5))
                           for _ in range(n)) for _ in range(m))
    rows = [tuple(entry() for _ in range(n)) for _ in range(m)]
    rows.insert(rng.randrange(m + 1), (0,) * n)
    return tuple(rows)


def _matrices(seed, count):
    rng = random.Random(seed)
    for i in range(count):
        yield rng, _random_matrix(rng, KINDS[i % len(KINDS)])


def test_reduced_rows_are_d_times_the_echelon_form():
    for _, M in _matrices(1, 300):
        rows, D, pivots = eliminate(M)
        r = len(pivots)
        assert D != 0
        for i, p in enumerate(pivots):
            assert [row[p] for row in rows] == [abs(D) if k == i else 0
                                                for k in range(len(rows))]
        assert all(not any(row) for row in rows[r:])
        # each reduced row lies in the row space of M
        assert all(ref.rational_rank(list(M) + [row]) == r
                   for row in rows[:r])


def _solve(M, b):
    """M x = b read off one elimination of [M | b], as the vertex
    enumeration reads it; None when M is singular."""
    n = len(M)
    rows, D, pivots = eliminate([tuple(row) + (bb,) for row, bb in zip(M, b)])
    if pivots != list(range(n)):
        return None
    return tuple(Fraction(row[n], abs(D)) for row in rows)


def test_rank_and_solves_match_fraction_elimination():
    for rng, M in _matrices(2, 600):
        assert rational_rank(M) == ref.rational_rank(M)
        if len(M) == len(M[0]):
            b = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                      for _ in M)
            assert _solve(M, b) == ref.solve_rational(M, b)


def test_det_and_its_sign_match_cofactor_expansion():
    rng = random.Random(3)
    negative = 0
    for i in range(400):
        M = _random_matrix(rng, KINDS[i % 4])
        n = len(M)
        M = tuple(row[:n] + (0,) * (n - len(row)) for row in M)
        D = det(M)
        assert D == ref.det_cofactor(M)
        negative += D < 0
        if D:
            E, A = scaled_inverse(M)
            assert E == abs(D)
            assert _product(A, M) == tuple(tuple(E * x for x in row)
                                           for row in identity_matrix(n))
        else:
            with pytest.raises(ValueError):
                scaled_inverse(M)
    assert negative > 50


def test_null_vector_matches_kernel_basis_up_to_sign():
    corank_one = 0
    for _, M in _matrices(4, 600):
        K = kernel_basis(tuple(clear_denominators(row) for row in M))
        v = null_vector(M)
        if len(K) == 1:
            corank_one += 1
            assert v in (K[0], vneg(K[0]))
        else:
            assert v is None
    assert corank_one > 100


def test_facet_normals_match_cofactors():
    rng = random.Random(5)
    for _ in range(200):
        d = rng.randint(1, 6)
        gens = tuple(tuple(rng.randint(-5, 5) for _ in range(d))
                     for _ in range(d))
        if ref.det_cofactor(transpose(gens)) == 0:
            with pytest.raises(ValueError):
                polyhedra.facet_normals(gens)
            continue
        assert polyhedra.facet_normals(gens) == ref.facet_normals(gens)


def test_coordinates_in_span_match_subset_search():
    rng = random.Random(6)
    for _ in range(200):
        d = rng.randint(2, 6)
        k = rng.randint(1, d)
        basis = [tuple(rng.randint(-4, 4) for _ in range(d))
                 for _ in range(k)]
        rays = set()
        for _ in range(rng.randint(1, 2 * d)):
            v = tuple(sum(rng.randint(-2, 2) * b[j] for b in basis)
                      for j in range(d))
            if any(v):
                rays.add(primitive(v))
        rays = sorted(rays)
        rng.shuffle(rays)
        if not rays:
            continue
        assert (polyhedra._coordinates_in_span(rays)
                == ref.coordinates_in_span(rays))


def _cones(seed, count):
    """Seeded 2-4-D simplicial cones with fractional apexes, each with the
    open facets of a random reference direction (None: the default)."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        d = rng.randint(2, 4)
        r = 10 - 2 * d                 # keeps |det| and the tree small
        gens = tuple(tuple(rng.randint(-r, r) for _ in range(d))
                     for _ in range(d))
        if ref.det_cofactor(gens) == 0:
            continue
        apex = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                     for _ in range(d))
        eta = (None if rng.random() < 0.2 else
               tuple(rng.randint(-2, 2) for _ in range(d)))
        opened = (frozenset() if eta is None
                  else ref.open_facets_for(gens, eta))
        sign = rng.choice((1, -1))
        out.append((polyhedra.SimplicialCone(apex, gens, sign, opened), eta))
    return out


def test_signed_decompose_matches_separate_eliminations():
    mixed = 0
    for c, eta in _cones(7, 80):
        mixed += 0 < len(c.open_facets) < len(c.generators)
        pieces = genfunc.signed_decompose(c, eta)
        assert pieces == ref.signed_decompose(c, eta), c
        assert ([genfunc.unimodular_cone_gf(p) for p in pieces]
                == [ref.unimodular_cone_gf(p) for p in pieces])
    assert mixed > 30


def test_each_node_eliminates_its_generators_once(monkeypatch):
    calls = {"eliminate": 0, "short": 0}

    def counted(name, f):
        def wrapper(*args):
            calls[name] += 1
            return f(*args)
        return wrapper

    monkeypatch.setattr(core, "eliminate",
                        counted("eliminate", core.eliminate))
    monkeypatch.setattr(genfunc, "_short_vector",
                        counted("short", genfunc._short_vector))
    inner = 0
    for c, eta in _cones(8, 40):
        calls.update(eliminate=0, short=0)
        pieces = genfunc.signed_decompose(c, eta)
        # one node per piece and one per short-vector split
        assert calls["eliminate"] == len(pieces) + calls["short"]
        inner += calls["short"]
        for p in pieces:
            calls["eliminate"] = 0
            genfunc.unimodular_cone_gf(p)
            assert calls["eliminate"] == 1
    assert inner > 60
