"""Rational generating functions for lattice-point sets.

A bounded polyhedron's lattice points are encoded as a short sum of terms

    sign * z^a / prod_j (1 - z^(b_j))

built by walking the vertices, taking supporting cones, triangulating,
and recursively splitting each simplicial cone against a short lattice
vector until every piece is unimodular.  Facet openness is decided once
against a reference direction shared by the whole recursion, which makes
the signed union count every lattice point exactly once with no
inclusion-exclusion over faces.

Specializing z -> 1 goes through the substitution z_i = (1+t)^(mu_i)
with mu chosen off every denominator hyperplane; a polynomial-weighted
sum then reduces to exact coefficient extraction in truncated power
series, and counting is the weighted sum with weight 1.  The series are
kept in integers: with s = mu.b, the coefficient of t^i in
t^(m+1) sum_nu nu^m (1+t)^(s nu) is an integer h_m[i] over
s^(i+m+1), and the h_m obey recurrences with no division, so each term
ends in a single Fraction.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import add, mul
from typing import Iterable, Sequence

from .core import (
    dot,
    kernel_basis,
    lll_reduce_with_transform,
    scaled_inverse,
    solve_integer,
)
from .polyhedra import (
    Polyhedron,
    SimplicialCone,
    bounding_box,
    enumerate_vertices,
    open_facets_for,
    supporting_cone,
    triangulate,
)

IntVec = tuple[int, ...]
Monomial = tuple[Fraction, IntVec]


# ---------------------------------------------------------------------------
# terms

def _canon_numerator(num: Iterable[tuple]) -> tuple[Monomial, ...]:
    acc: dict[IntVec, Fraction] = {}
    for c, a in num:
        a = tuple(int(x) for x in a)
        acc[a] = acc.get(a, Fraction(0)) + Fraction(c)
    return tuple((c, a) for a, c in sorted(acc.items()) if c != 0)


@dataclass(frozen=True)
class GFTerm:
    """One summand sign * numerator / prod_j (1 - z^(b_j))^(m_j)."""

    sign: int
    numerator: tuple[Monomial, ...]
    denominator: tuple[tuple[IntVec, int], ...]

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        object.__setattr__(self, "numerator", _canon_numerator(self.numerator))
        den = []
        for b, m in self.denominator:
            b = tuple(int(x) for x in b)
            if all(x == 0 for x in b):
                raise ValueError("zero denominator vector")
            if m < 1:
                raise ValueError("denominator multiplicity must be >= 1")
            den.append((b, int(m)))
        object.__setattr__(self, "denominator", tuple(sorted(den)))


@dataclass(frozen=True)
class GeneratingFunction:
    dimension: int
    terms: tuple[GFTerm, ...]

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(self.terms))
        for t in self.terms:
            for _, a in t.numerator:
                if len(a) != self.dimension:
                    raise ValueError("numerator dimension mismatch")
            for b, _ in t.denominator:
                if len(b) != self.dimension:
                    raise ValueError("denominator dimension mismatch")


def monomial_gf(dimension: int, point: Sequence[int]) -> GeneratingFunction:
    """The generating function of a single lattice point."""
    term = GFTerm(1, ((Fraction(1), tuple(int(x) for x in point)),), ())
    return GeneratingFunction(dimension, (term,))


# ---------------------------------------------------------------------------
# unimodular cones

def unimodular_cone_gf(c: SimplicialCone) -> GFTerm:
    """Generating function of a half-open unimodular cone.

    The numerator exponent is the unique lattice point of the fundamental
    parallelepiped shifted to the apex: with lam = apex G^{-1} (one
    scaled_inverse of the generator rows G), the lowest admissible integer
    offset is ceil(lam_i) on closed facets and floor(lam_i) + 1 on open ones.
    """
    gens = c.generators
    D, inv = scaled_inverse(gens)
    if D != 1:
        raise ValueError("cone is not unimodular")
    lam = [dot(col, c.apex) for col in zip(*inv)]
    mstar = []
    for i, li in enumerate(lam):
        if i in c.open_facets:
            mstar.append(math.floor(li) + 1)
        else:
            mstar.append(math.ceil(li))
    d = len(c.apex)
    a = tuple(sum(mstar[j] * gens[j][i] for j in range(len(gens)))
              for i in range(d))
    return GFTerm(c.sign, ((Fraction(1), a),),
                  tuple((g, 1) for g in gens))


def _short_vector(D, inv) -> tuple[IntVec, IntVec]:
    """Lattice vector w = sum alpha_i g_i with all |alpha_i| < 1, via LLL.

    (D, inv) = scaled_inverse(G) for the generator rows G; the rows of
    inv = D G^{-1} generate the image lattice {D alpha}, so the target is
    an image point v = D alpha of infinity norm below D.  v is returned,
    as only the signs of alpha are used.
    """
    d = len(inv)
    reduced, U = lll_reduce_with_transform(inv)

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
        raise RuntimeError("no admissible short vector found; "
                           "decomposition cannot proceed")
    _, v, w = best
    if all(x <= 0 for x in v):
        w = tuple(-x for x in w)
        v = tuple(-x for x in v)
    return w, v


def signed_decompose(c: SimplicialCone, reference=None
                     ) -> tuple[SimplicialCone, ...]:
    """Split a simplicial cone into signed half-open unimodular cones.

    `reference` is the apex-relative direction that decides facet
    openness at every node of the recursion; it defaults to the sum of
    the generators, which lies strictly inside and keeps a closed input
    fully closed.  The input's own open_facets must have been derived
    from the same reference (triangulate does this).

    Each node eliminates its generator rows G once: scaled_inverse(G) gives
    D = |det G|, the short vector's lattice D G^{-1}, and, in its columns,
    positive multiples of the inward facet normals.
    """
    gens = c.generators
    if reference is None:
        reference = tuple(map(sum, zip(*gens)))
    D, inv = scaled_inverse(gens)
    if open_facets_for(zip(*inv), reference) != c.open_facets:
        raise ValueError("open facets inconsistent with reference direction")

    out = []
    stack = [(gens, c.sign, D, inv)]
    while stack:
        g, sign, D, inv = stack.pop()
        if D == 1:
            out.append(SimplicialCone(c.apex, g, sign,
                                      open_facets_for(zip(*inv), reference)))
            continue
        w, v = _short_vector(D, inv)
        children = []
        for i, vi in enumerate(v):
            if vi == 0:
                continue
            child = g[:i] + (w,) + g[i + 1:]
            children.append((child, sign if vi > 0 else -sign,
                             *scaled_inverse(child)))
        stack.extend(reversed(children))
    return tuple(out)


# ---------------------------------------------------------------------------
# Brion summation

def _affine_restriction_gf(P: Polyhedron, eq_rows: tuple[int, ...]
                           ) -> GeneratingFunction:
    """Generating function of a polyhedron whose affine hull is proper.

    Integer points on {A_E x = b_E} are x0 + L y with L a lattice basis
    of the integer kernel; the problem recurses in y-space and the
    resulting terms are pushed back through the affine map.
    """
    n = P.dim
    A_E = tuple(P.A[i] for i in eq_rows)
    b_E = tuple(P.b[i] for i in eq_rows)
    scale = math.lcm(*(Fraction(x).denominator
                       for row, beta in zip(A_E, b_E)
                       for x in row + (beta,)))
    A_int = tuple(tuple(int(x * scale) for x in row) for row in A_E)
    b_int = tuple(int(x * scale) for x in b_E)
    x0 = solve_integer(A_int, b_int)
    if x0 is None:
        return GeneratingFunction(n, ())
    basis = kernel_basis(A_int)
    if not basis:
        if P.contains(x0):
            return monomial_gf(n, x0)
        return GeneratingFunction(n, ())

    k = len(basis)
    rows, rhs = [], []
    for i in range(len(P.A)):
        a = P.A[i]
        new_row = tuple(dot(a, basis[r]) for r in range(k))
        new_b = P.b[i] - dot(a, x0)
        if all(x == 0 for x in new_row):
            if new_b < 0:
                return GeneratingFunction(n, ())
            continue
        rows.append(new_row)
        rhs.append(new_b)
    sub = polyhedron_gf(Polyhedron(tuple(rows), tuple(rhs)))

    def push(v: IntVec, shift: bool) -> IntVec:
        img = [x0[i] if shift else 0 for i in range(n)]
        for r in range(k):
            for i in range(n):
                img[i] += v[r] * basis[r][i]
        return tuple(img)

    terms = []
    for t in sub.terms:
        num = tuple((cf, push(a, True)) for cf, a in t.numerator)
        den = tuple((push(b, False), m) for b, m in t.denominator)
        terms.append(GFTerm(t.sign, num, den))
    return GeneratingFunction(n, tuple(terms))


def polyhedron_gf(P: Polyhedron) -> GeneratingFunction:
    """Brion sum over vertices of the decomposed supporting cones.

    Empty P gives no terms; unbounded P raises UnboundedError.  A bounded
    nonempty P is the hull of its vertices, so its implicit equalities are
    exactly the rows tight at every vertex.
    """
    n = P.dim
    if bounding_box(P) is None:
        return GeneratingFunction(n, ())
    vertices = enumerate_vertices(P)
    eq = frozenset.intersection(*(v.tight_rows for v in vertices))
    if eq:
        return _affine_restriction_gf(P, tuple(sorted(eq)))

    terms = []
    for v in vertices:
        cone = supporting_cone(P, v)
        eta = tuple(sum(r[i] for r in cone.rays) for i in range(n))
        for piece in triangulate(cone, reference=eta):
            for uni in signed_decompose(piece, reference=eta):
                terms.append(unimodular_cone_gf(uni))
    return GeneratingFunction(n, tuple(terms))


# ---------------------------------------------------------------------------
# integer series in t for the substitution z = (1+t)^mu

def _binomials(e: int, n: int) -> list[int]:
    """binom(e, i) for i = 0..n; e is any integer, negative too.

    Each step divides exactly: binom(e, i) * i = binom(e, i-1) * (e-i+1).
    """
    out = [1]
    for i in range(1, n + 1):
        out.append(out[-1] * (e - i + 1) // i)
    return out


def _moment_direction(vectors, d: int) -> IntVec:
    """mu = (1, M, ..., M^(d-1)) for the least M >= 1 with mu.b != 0 for
    every (nonzero) b in `vectors`.

    The search always succeeds within M <= len(vectors) * (d - 1) + 1:
    for each b, mu.b = sum_i b_i M^i is a nonzero polynomial in M of
    degree at most d - 1, so it vanishes at no more than d - 1 values
    of M, and the vectors together rule out at most len(vectors) * (d - 1)
    of the candidates.
    """
    candidates = (tuple(M ** i for i in range(d))
                  for M in range(1, len(vectors) * (d - 1) + 2))
    return next(mu for mu in candidates
                if all(dot(mu, b) != 0 for b in vectors))


def _orthant_rows(s: int, R: int, E: int) -> list[list[int]]:
    """Scaled coefficients of t^(R-m) H_m, m = 0..R, truncated at t^E.

    H_m = t^(m+1) sum_{nu>=0} nu^m (1+t)^(s nu) has H_m[i] = h_m[i] /
    s^(i+m+1) with integer h_m, built with no division: H_0 = 1/u for
    u = (1 - (1+t)^s)/t, whose coefficients a_j = -binom(s, j+1) start
    at a_0 = -s, so clearing s^(i+1) from the inversion recurrence leaves

        h_0[0] = -1,  h_0[i] = sum_{j=1..i} a_j s^(j-1) h_0[i-j],

    and H_m = (1+t)(t H_{m-1}' - m H_{m-1}) / s becomes

        h_m[i] = (i-m) h_{m-1}[i] + s (i-1-m) h_{m-1}[i-1].

    Row m is t^(R-m) H_m times s^(E+R+1), read from t^(R-m) on:
    row[i] = h_m[i] s^(E+R-m-i) for i = 0..E-R+m, all integers.
    """
    a = _binomials(s, E + 1)
    coef = [-a[j + 1] * s ** (j - 1) for j in range(1, E + 1)]
    h = [-1]
    for i in range(1, E + 1):
        h.append(sum(map(mul, coef[:i], reversed(h))))
    spow = [1]
    for _ in range(E + R):
        spow.append(spow[-1] * s)
    rows = []
    for m in range(R + 1):
        if m:
            h = [(i - m) * h[i] + (s * (i - 1 - m) * h[i - 1] if i else 0)
                 for i in range(E + 1)]
        rows.append([h[i] * spow[E + R - m - i]
                     for i in range(E - R + m + 1)])
    return rows


# ---------------------------------------------------------------------------
# weighted specialization

def _monomials_of(h) -> tuple[Monomial, ...]:
    mons = getattr(h, "monomials", h)
    return tuple((Fraction(c), tuple(int(x) for x in e)) for c, e in mons)


def _poly_mul(p: dict, q: dict) -> dict:
    out: dict[IntVec, int] = {}
    for ea, ca in p.items():
        for eb, cb in q.items():
            e = tuple(map(add, ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def _poly_pow(p: dict, n: int) -> dict:
    """p**n for n >= 1 by repeated squaring."""
    out = None
    while True:
        if n & 1:
            out = p if out is None else _poly_mul(out, p)
        n >>= 1
        if not n:
            return out
        p = _poly_mul(p, p)


def _rebase_polynomial(mons, a: IntVec, bs: Sequence[IntVec]) -> dict:
    """Expand h(a + sum_j nu_j b_j) as a polynomial in nu.

    `mons` are (integer coefficient, exponent) pairs, so the result has
    integer coefficients.
    """
    k = len(bs)
    zero = (0,) * k
    lin = []
    for i in range(len(a)):
        p = {zero: a[i]}
        for j in range(k):
            if bs[j][i]:
                p[tuple(1 if r == j else 0 for r in range(k))] = bs[j][i]
        lin.append({e: c for e, c in p.items() if c})
    out: dict[IntVec, int] = {}
    pow_cache: dict[tuple[int, int], dict] = {}

    def lin_pow(i, e):
        if e == 0:
            return {zero: 1}
        if (i, e) not in pow_cache:
            pow_cache[(i, e)] = _poly_mul(lin_pow(i, e - 1), lin[i])
        return pow_cache[(i, e)]

    for cf, beta in mons:
        p = {zero: cf}
        for i, bi in enumerate(beta):
            if bi:
                p = _poly_mul(p, lin_pow(i, bi))
        for e, c in p.items():
            out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def _orthant_functional(rows: list, w: list, items: list, j: int = 0) -> int:
    """sum_p w[p] C[p] for the series C = sum_items c prod_j row_j,
    with row_j = rows[j][e_j] placed at t^(R_j - e_j), over coordinates
    j.., computed without forming C.

    A factor r placed at t^lo moves the functional to its correlation
    with r: sum_p w[p] (t^lo r * inner)[p] = sum_q w'[q] inner[q] with
    w'[q] = sum_i w[q + lo + i] r[i].  Past the last coordinate the
    inner series is the constant sum of the coefficients, so there only
    w'[0] is needed: one dot product per group.
    """
    if j == len(rows):
        return w[0] * sum(c for _, c in items)
    groups: dict[int, list] = {}
    for e, c in items:
        groups.setdefault(e[j], []).append((e, c))
    top = len(rows[j]) - 1
    last = j == len(rows) - 1
    total = 0
    for m, sub in groups.items():
        row = rows[j][m]
        lo = top - m
        n = 1 if last else len(w) - lo
        inner = [sum(map(mul, w[q + lo:], row)) for q in range(n)]
        total += _orthant_functional(rows, inner, sub, j + 1)
    return total


def weighted_sum(g: GeneratingFunction, h, power: int = 1) -> Fraction:
    """Sum of h**power over the lattice points encoded by g.

    Requires freshly decomposed terms (single unit monomial numerators,
    multiplicity-one denominators): each such term is literally the
    geometric series over its own shifted orthant, so h is rewritten in
    orthant coordinates nu and summed factor by factor.

    Everything inside a term is integer arithmetic.  h is scaled once by
    the lcm `den` of its coefficient denominators; the rebased
    polynomial is raised to `power` by squaring.  With s_j = mu.b_j, the
    orthant series of coordinate j are scaled by s_j^(E+R_j+1), where
    R_j is nu_j's degree and E = k + sum R_j the pole order, which makes
    every coefficient an integer (see _orthant_rows).  The term's value
    is the linear functional sum_p binom(mu.a, E-p) C[p] of the
    collapsed series C, pushed down the coordinates by
    _orthant_functional, so each term ends in one division:
    num / (den^power * prod_j s_j^(E+R_j+1)).  Counting is this sum with
    weight 1.
    """
    mons = _monomials_of(h)
    if power < 1:
        raise ValueError("power must be >= 1")
    if not g.terms:
        return Fraction(0)
    vectors = {b for t in g.terms for b, _ in t.denominator}
    mu = _moment_direction(vectors, g.dimension)
    den = math.lcm(*(c.denominator for c, _ in mons))
    int_mons = tuple((c.numerator * (den // c.denominator), e)
                     for c, e in mons)

    total = Fraction(0)
    for t in g.terms:
        if len(t.numerator) != 1 or any(m != 1 for _, m in t.denominator):
            raise ValueError("weighted_sum needs fresh decomposition terms")
        c0, a = t.numerator[0]
        bs = [b for b, _ in t.denominator]
        k = len(bs)
        poly = _poly_pow(_rebase_polynomial(int_mons, a, bs), power)
        R = [max((e[j] for e in poly), default=0) for j in range(k)]
        E = k + sum(R)
        s = [dot(mu, b) for b in bs]
        rows = [_orthant_rows(s[j], R[j], E) for j in range(k)]
        w = _binomials(dot(mu, a), E)[::-1]
        num = _orthant_functional(rows, w, list(poly.items()))
        scale = den ** power
        for sj, Rj in zip(s, R):
            scale *= sj ** (E + Rj + 1)
        total += t.sign * c0 * Fraction(num, scale)
    return total


def specialize_at_one(g: GeneratingFunction) -> Fraction:
    """Exact value of g at z = 1: the number of lattice points it encodes.

    This is the weighted sum with weight 1, so like weighted_sum it takes
    freshly decomposed terms (polyhedron_gf output) and raises
    ValueError on any other.
    """
    return weighted_sum(g, ((Fraction(1), (0,) * g.dimension),))
