"""Fraction and cofactor linear algebra, kept as oracles for core.eliminate.

These are the routines the single fraction-free elimination replaced:
rank and square solves by Gauss-Jordan in Fractions, facet normals as
cofactors of the generator matrix, and coordinates in a greedy basis by
searching row subsets for a consistent square solve.  The signed
decomposition that took det, an inverse, facet normals and a solve of
each generator matrix separately is kept with them.  None of them runs
core's elimination or its integer pivot.
"""

import itertools
import math
from fractions import Fraction

from latticeopt.core import (clear_denominators, dot,
                             lll_reduce_with_transform, primitive, transpose)
from latticeopt.genfunc import GFTerm
from latticeopt.polyhedra import SimplicialCone, halfopen_sign


def det_cofactor(M):
    """Determinant by cofactor expansion along the first row."""
    n = len(M)
    if n == 0:
        return 1
    if n == 1:
        return M[0][0]
    total = 0
    for j in range(n):
        if M[0][j] == 0:
            continue
        minor = [row[:j] + row[j + 1:] for row in [list(r) for r in M[1:]]]
        total += (-1) ** j * M[0][j] * det_cofactor(minor)
    return total


def rational_rank(M) -> int:
    """Rank over the rationals."""
    if not M:
        return 0
    rows = [[Fraction(x) for x in row] for row in M]
    ncols = len(rows[0])
    rank = 0
    col = 0
    while rank < len(rows) and col < ncols:
        piv = next((i for i in range(rank, len(rows)) if rows[i][col] != 0),
                   None)
        if piv is None:
            col += 1
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        pv = rows[rank][col]
        for i in range(len(rows)):
            if i != rank and rows[i][col] != 0:
                f = rows[i][col] / pv
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
        col += 1
    return rank


def solve_rational(M, b):
    """Solve a square system M x = b exactly; None when M is singular."""
    n = len(M)
    aug = [[Fraction(x) for x in row] + [Fraction(bb)]
           for row, bb in zip(M, b)]
    for col in range(n):
        piv = next((i for i in range(col, n) if aug[i][col] != 0), None)
        if piv is None:
            return None
        aug[col], aug[piv] = aug[piv], aug[col]
        pv = aug[col][col]
        aug[col] = [a / pv for a in aug[col]]
        for i in range(n):
            if i != col and aug[i][col] != 0:
                f = aug[i][col]
                aug[i] = [a - f * b2 for a, b2 in zip(aug[i], aug[col])]
    return tuple(aug[i][n] for i in range(n))


def scaled_inverse(B) -> tuple:
    """(|det B|, |det B| * B^{-1}): the adjugate read off as d^2 cofactor
    minors, times the sign of det B."""
    d = len(B)
    D = det_cofactor(B)
    if D == 0:
        raise ValueError("matrix is singular")
    s = 1 if D > 0 else -1
    # adj(B)[i][j] is the cofactor of B[j][i]
    return abs(D), tuple(
        tuple(s * (-1) ** (i + j)
              * det_cofactor([[B[r][c] for c in range(d) if c != i]
                              for r in range(d) if r != j])
              for j in range(d))
        for i in range(d))


def facet_normals(generators) -> tuple:
    """Inward primitive facet normals of a full-dimensional simplicial
    cone: the rows of adj(B), B the generators as columns, made primitive
    and oriented by det B."""
    _, A = scaled_inverse(transpose(generators))
    return tuple(primitive(row) for row in A)


def coordinates_in_span(rays):
    """Express rays in a basis chosen from themselves; integer outputs."""
    basis = []
    for r in rays:
        if rational_rank(basis + [r]) > len(basis):
            basis.append(r)
    k = len(basis)
    rows = transpose(basis)            # columns are basis vectors
    coords = []
    for r in rays:
        # solve sum_j c_j basis_j = r  (overdetermined, consistent)
        sol = None
        for subset in itertools.combinations(range(len(rows)), k):
            M = [rows[i] for i in subset]
            rhs = [r[i] for i in subset]
            cand = solve_rational(M, rhs)
            if cand is not None:
                ok = all(dot(rows[i], cand) == r[i] for i in range(len(rows)))
                if ok:
                    sol = cand
                    break
        if sol is None:
            raise ValueError("ray outside span")
        coords.append(primitive(clear_denominators(sol)))
    return coords


# ---------------------------------------------------------------------------
# signed decomposition with separate det, inverse, normals and solve

def open_facets_for(generators, eta) -> frozenset:
    return frozenset(i for i, a in enumerate(facet_normals(generators))
                     if halfopen_sign(a, eta) < 0)


def unimodular_cone_gf(c):
    """The numerator exponent from ceil / floor + 1 of lam = B^{-1} apex,
    B the generator matrix, by a Fraction solve."""
    gens = c.generators
    if abs(det_cofactor(gens)) != 1:
        raise ValueError("cone is not unimodular")
    lam = solve_rational(transpose(gens), tuple(Fraction(x) for x in c.apex))
    mstar = [math.floor(li) + 1 if i in c.open_facets else math.ceil(li)
             for i, li in enumerate(lam)]
    d = len(c.apex)
    a = tuple(sum(mstar[j] * gens[j][i] for j in range(len(gens)))
              for i in range(d))
    return GFTerm(c.sign, ((Fraction(1), a),), tuple((g, 1) for g in gens))


def short_vector(gens):
    """Lattice vector w with all |(B^{-1} w)_i| < 1 and those coordinates
    alpha, found via LLL in the image lattice of |det B| * B^{-1}."""
    d = len(gens)
    D, lattice = scaled_inverse(gens)
    reduced, U = lll_reduce_with_transform(lattice)
    rng = range(-2, 3) if d <= 4 else range(-1, 2)
    best = None
    for coeffs in itertools.product(rng, repeat=d):
        if all(c == 0 for c in coeffs):
            continue
        v = tuple(sum(c * reduced[i][j] for i, c in enumerate(coeffs))
                  for j in range(d))
        norm = max(abs(x) for x in v)
        if norm == 0 or norm >= D:
            continue
        w = tuple(sum(c * U[i][j] for i, c in enumerate(coeffs))
                  for j in range(d))
        key = (norm, v)
        if best is None or key < best[0]:
            best = (key, v, w)
    if best is None:
        raise RuntimeError("no admissible short vector found")
    _, v, w = best
    alpha = tuple(Fraction(x, D) for x in v)
    if all(a <= 0 for a in alpha):
        w = tuple(-x for x in w)
        alpha = tuple(-a for a in alpha)
    return w, alpha


def signed_decompose(c, reference=None):
    """Split a simplicial cone into signed half-open unimodular cones,
    taking det, the short vector and the open facets of each node
    separately."""
    gens = c.generators
    d = len(gens)
    if reference is None:
        reference = tuple(sum(g[i] for g in gens) for i in range(d))
    if open_facets_for(gens, reference) != c.open_facets:
        raise ValueError("open facets inconsistent with reference direction")
    out = []
    stack = [(gens, c.sign)]
    while stack:
        g, sign = stack.pop()
        if abs(det_cofactor(g)) == 1:
            out.append(SimplicialCone(c.apex, g, sign,
                                      open_facets_for(g, reference)))
            continue
        w, alpha = short_vector(g)
        children = []
        for i, ai in enumerate(alpha):
            if ai == 0:
                continue
            child = g[:i] + (w,) + g[i + 1:]
            children.append((child, sign if ai > 0 else -sign))
        stack.extend(reversed(children))
    return tuple(out)
