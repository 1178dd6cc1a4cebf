"""Fraction and cofactor linear algebra, kept as oracles for core.eliminate.

These are the routines the single fraction-free elimination replaced:
rank and square solves by Gauss-Jordan in Fractions, facet normals as
cofactors of the generator matrix, and coordinates in a greedy basis by
searching row subsets for a consistent square solve.  None of them runs
core's elimination or its integer pivot.
"""

import itertools
from fractions import Fraction

from latticeopt.core import clear_denominators, dot, primitive, transpose


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


def facet_normals(generators) -> tuple:
    """Inward primitive facet normals of a full-dimensional simplicial
    cone, each row of adj(B) read off as d cofactor minors."""
    B = transpose(generators)          # generators as columns
    d = len(B)
    D = det_cofactor(B)
    if D == 0:
        raise ValueError("generators are dependent")
    out = []
    for i in range(d):
        # row i of adj(B): cofactors along column i of B
        row = []
        for j in range(d):
            minor = [[B[r][c] for c in range(d) if c != i]
                     for r in range(d) if r != j]
            row.append((-1) ** (i + j) * det_cofactor(minor))
        if D < 0:
            row = [-x for x in row]
        out.append(primitive(row))
    return tuple(out)


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
