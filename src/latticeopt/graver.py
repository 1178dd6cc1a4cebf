"""Graver bases and separable convex minimization by augmentation.

The Graver basis of an integer matrix collects, over every orthant, the
minimal nonzero integer kernel vectors under the partial order
"sign-compatible and componentwise no larger".  Every integer kernel
vector is a sign-compatible nonnegative integer combination of basis
elements; that representation property makes the basis an optimality
certificate for separable convex objectives over {x : Ax = b, l <= x <= u}
and drives the greedy augmentation solver.

The basis is computed by completion: starting from a lattice basis of
the kernel and its negations, sums of cancelling pairs are reduced
against the current set and surviving remainders join it, until every
such sum reduces to zero.  The minimal elements of the completed set
form the basis.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Optional, Sequence

from .core import (integer_vector, kernel_basis, mat_vec, record,
                   vadd, vneg, vscale, vsub)

IntVec = tuple[int, ...]
IntMatrix = tuple[IntVec, ...]


def _as_matrix(A) -> IntMatrix:
    return tuple(integer_vector(row) for row in A)


def _conforms(u: IntVec, v: IntVec) -> bool:
    """u lies in v's orthant with |u_i| <= |v_i| everywhere."""
    return all(a * b >= 0 and abs(a) <= abs(b) for a, b in zip(u, v))


def _canonical_sign(g: IntVec) -> IntVec:
    for a in g:
        if a > 0:
            return g
        if a < 0:
            return vneg(g)
    raise ValueError("zero vector")


def _reduce_once(r, G):
    for g in G:
        if _conforms(g, r):
            # largest multiple of g that still conforms
            lam = min(a // b for a, b in zip(r, g) if b != 0)
            return vsub(r, vscale(lam, g))
    return None


def _normal_form(r: IntVec, G: Sequence[IntVec]) -> IntVec:
    while any(r):
        nxt = _reduce_once(r, G)
        if nxt is None:
            break
        r = nxt
    return r


# ---------------------------------------------------------------------------
# Graver basis

@record
class GraverBasis:
    """Canonical-sign representatives; both orientations belong logically."""
    matrix: IntMatrix
    elements: tuple[IntVec, ...]

    def __post_init__(self):
        object.__setattr__(self, "matrix", _as_matrix(self.matrix))
        elems = tuple(integer_vector(g) for g in self.elements)
        if list(elems) != sorted(set(elems)):
            raise ValueError("elements must be sorted and unique")
        for g in elems:
            if g != _canonical_sign(g):
                raise ValueError("element not in canonical sign")
            if any(mat_vec(self.matrix, g)):
                raise ValueError("element outside the kernel")
        object.__setattr__(self, "elements", elems)

    def __iter__(self):
        return iter(self.elements)

    def __len__(self):
        return len(self.elements)

    def signed_elements(self) -> tuple[IntVec, ...]:
        return tuple(sorted(self.elements
                            + tuple(vneg(g) for g in self.elements)))

    def __contains__(self, g) -> bool:
        # entries compare by value: a non-integer entry matches no element
        g = tuple(g)
        return any(g) and _canonical_sign(g) in set(self.elements)


def graver_basis(A) -> GraverBasis:
    """All sign-minimal nonzero integer kernel vectors of A, by completion."""
    A = _as_matrix(A)
    basis = [integer_vector(v) for v in kernel_basis(A)]
    G: list[IntVec] = []
    seen = set()
    for v in basis:
        for w in (v, vneg(v)):
            if w not in seen:
                seen.add(w)
                G.append(w)
    queue: list[IntVec] = []

    def enqueue_pairs(new):
        for g in G:
            # only cancelling pairs can shorten a representation
            if any(a * b < 0 for a, b in zip(new, g)):
                s = vadd(new, g)
                if any(s):
                    queue.append(s)

    snapshot = list(G)
    for i, u in enumerate(snapshot):
        for v in snapshot[i + 1:]:
            if any(a * b < 0 for a, b in zip(u, v)):
                s = vadd(u, v)
                if any(s):
                    queue.append(s)
    head = 0
    while head < len(queue):
        s = queue[head]
        head += 1
        r = _normal_form(s, G)
        if any(r):
            enqueue_pairs(r)
            G.append(r)
            seen.add(r)
            if vneg(r) not in seen:
                queue.append(vneg(r))

    candidates = sorted({_canonical_sign(g) for g in G if any(g)})
    minimal = []
    for g in candidates:
        dominated = any(h != g and (_conforms(h, g) or _conforms(vneg(h), g))
                        for h in candidates)
        if not dominated:
            minimal.append(g)
    return GraverBasis(A, tuple(minimal))


# ---------------------------------------------------------------------------
# n-fold structure

@record
class NFoldSpec:
    """n copies of the column block [A1 / A2]: A1 rows sum across copies,
    A2 rows constrain each copy separately."""
    A1: IntMatrix
    A2: IntMatrix
    n: int
    b: IntVec

    def __post_init__(self):
        A1 = _as_matrix(self.A1)
        A2 = _as_matrix(self.A2)
        if not A1 or not A2:
            raise ValueError("A1 and A2 need at least one row each")
        t = len(A1[0])
        if any(len(r) != t for r in A1 + A2) or t == 0:
            raise ValueError("A1 and A2 must share a positive column count")
        if self.n < 1:
            raise ValueError("n must be positive")
        b = integer_vector(self.b)
        if len(b) != len(A1) + self.n * len(A2):
            raise ValueError("right-hand side length must be r + n*s")
        object.__setattr__(self, "A1", A1)
        object.__setattr__(self, "A2", A2)
        object.__setattr__(self, "b", b)

    @property
    def t(self) -> int:
        return len(self.A1[0])


def nfold_matrix(spec: NFoldSpec) -> IntMatrix:
    """(r + n*s) x (n*t) block matrix: A1 repeated across the top, A2 on
    the block diagonal."""
    n, t = spec.n, spec.t
    rows = [row * n for row in spec.A1]
    for k in range(n):
        for row in spec.A2:
            rows.append((0,) * (k * t) + row + (0,) * ((n - 1 - k) * t))
    return tuple(rows)


# ---------------------------------------------------------------------------
# separable convex objectives

@record
class Square:
    """m -> (m - c)^2, convex by construction."""
    c: Fraction

    def __post_init__(self):
        object.__setattr__(self, "c", Fraction(self.c))

    def __call__(self, m: int) -> Fraction:
        return (Fraction(m) - self.c) ** 2


@record
class Abs:
    """m -> |m - c|, convex by construction."""
    c: Fraction

    def __post_init__(self):
        object.__setattr__(self, "c", Fraction(self.c))

    def __call__(self, m: int) -> Fraction:
        return abs(Fraction(m) - self.c)


@record
class PiecewiseMax:
    """m -> max_j (a_j m + b_j) over (a_j, b_j) pieces; a maximum of
    affine functions is convex by construction."""
    pieces: tuple[tuple[Fraction, Fraction], ...]

    def __post_init__(self):
        pieces = tuple((Fraction(a), Fraction(b)) for a, b in self.pieces)
        if not pieces:
            raise ValueError("a piecewise maximum needs at least one piece")
        object.__setattr__(self, "pieces", pieces)

    def __call__(self, m: int) -> Fraction:
        return max(a * m + b for a, b in self.pieces)


# exact types only: a subclass may override __call__
_CONVEX_BY_CONSTRUCTION = (Square, Abs, PiecewiseMax)


@record
class SeparableConvexFn:
    """Sum of per-coordinate convex functions, compared exactly.

    Evaluators map an integer to a Fraction and must be deterministic:
    each f_i is evaluated at most once per integer, and the value is
    kept in a per-coordinate table on the instance that `value`,
    `compare` and `validate_convex` all read.  Beyond direct evaluation
    the object acts as the comparison oracle the optimality certificate
    is stated for.

    The built-in terms `Square`, `Abs` and `PiecewiseMax` are convex by
    construction and are never scanned.  Any other evaluator is checked
    by `validate_convex` at every interior integer of its box, a cost
    linear in the box width.
    """
    evaluators: tuple[Callable[[int], Fraction], ...]

    def __post_init__(self):
        object.__setattr__(self, "_tables",
                           tuple({} for _ in self.evaluators))

    @property
    def dimension(self) -> int:
        return len(self.evaluators)

    def _term(self, i: int, m: int) -> Fraction:
        """f_i(m), evaluated on first use."""
        table = self._tables[i]
        try:
            return table[m]
        except KeyError:
            v = table[m] = self.evaluators[i](m)
            return v

    def value(self, x: Sequence[int]) -> Fraction:
        if len(x) != self.dimension:
            raise ValueError("point dimension mismatch")
        return sum((self._term(i, v) for i, v in enumerate(integer_vector(x))),
                   Fraction(0))

    def compare(self, x: Sequence[int], y: Sequence[int]) -> int:
        """-1, 0, or 1 as f(x) compares to f(y).

        Only coordinates where x and y differ contribute to f(x) - f(y).
        """
        if len(x) != self.dimension or len(y) != self.dimension:
            raise ValueError("point dimension mismatch")
        diff = 0
        for i, (a, c) in enumerate(zip(x, y)):
            if a != c:
                diff += self._term(i, a) - self._term(i, c)
        return (diff > 0) - (diff < 0)

    def validate_convex(self, l: Sequence[int], u: Sequence[int]) -> None:
        """Check f_i(m-1) + f_i(m+1) >= 2 f_i(m) at every integer m with
        l_i < m < u_i, which proves f_i convex on the integers of
        [l_i, u_i]; ValueError names the first m that fails.

        Terms of the built-in convex types are skipped, and f_i is never
        evaluated outside the box.
        """
        for i, term in enumerate(self.evaluators):
            if type(term) in _CONVEX_BY_CONSTRUCTION:
                continue
            for m in range(math.ceil(l[i]) + 1, math.floor(u[i])):
                if self._term(i, m - 1) + self._term(i, m + 1) \
                        < 2 * self._term(i, m):
                    raise ValueError(
                        f"coordinate {i} fails convexity at {m}")


# ---------------------------------------------------------------------------
# optimality certificate and augmentation

def _in_box(l, u, x) -> bool:
    return all(l[i] <= x[i] <= u[i] for i in range(len(x)))


def _require_feasible(A, b, l, u, x0) -> IntVec:
    x0 = integer_vector(x0)
    if not (_in_box(l, u, x0) and tuple(mat_vec(A, x0)) == tuple(b)):
        raise ValueError("starting point is not feasible")
    return x0


def _require_kernel(A, G: GraverBasis) -> None:
    """A step along G keeps Ax = b only if G lies in the kernel of A.

    G's own matrix needs no test: GraverBasis checks its elements
    against it on construction.
    """
    if A != G.matrix and any(any(mat_vec(A, g)) for g in G):
        raise ValueError("basis element outside the kernel of A")


def check_optimality(x0, f: SeparableConvexFn, A, b, l, u,
                     G: GraverBasis) -> tuple[bool, Optional[IntVec]]:
    """Certificate test: x0 is optimal iff no basis direction improves.

    Returns (True, None) or (False, g) with x0 + g feasible and
    strictly better.  G must lie in the kernel of A (ValueError
    otherwise), so x0 + g is feasible when it is inside the bounds.
    """
    A = _as_matrix(A)
    _require_kernel(A, G)
    x0 = _require_feasible(A, b, l, u, x0)
    for g in G.signed_elements():
        y = vadd(x0, g)
        if _in_box(l, u, y) and f.compare(y, x0) < 0:
            return False, g
    return True, None


def _alpha_max(x, g, l, u) -> Optional[int]:
    best = None
    for xi, gi, li, ui in zip(x, g, l, u):
        if gi > 0:
            cap = (ui - xi) // gi
        elif gi < 0:
            cap = (xi - li) // (-gi)
        else:
            continue
        best = cap if best is None else min(best, cap)
    return best


def _best_step_along(x, g, alpha_max, f):
    # convex in alpha: binary search for the first non-improving slope
    lo, hi = 1, alpha_max
    while lo < hi:
        mid = (lo + hi) // 2
        if f.compare(vadd(x, vscale(mid + 1, g)),
                     vadd(x, vscale(mid, g))) >= 0:
            hi = mid
        else:
            lo = mid + 1
    return lo


@record
class AugmentResult:
    x: IntVec
    steps: int


def greedy_augment(x0, f: SeparableConvexFn, A, b, l, u,
                   G: GraverBasis) -> AugmentResult:
    """Repeat the best feasible step alpha*g until no direction improves.

    Each step minimizes f(x + alpha*g) jointly over basis directions g
    and integer alpha >= 1; ties prefer the smallest alpha, then the
    lexicographically smallest g.  G must lie in the kernel of A
    (ValueError otherwise).
    """
    A = _as_matrix(A)
    _require_kernel(A, G)
    x = _require_feasible(A, b, l, u, x0)
    f.validate_convex(l, u)
    directions = G.signed_elements()
    steps = 0
    while True:
        best = None          # (y, alpha, g)
        for g in directions:
            amax = _alpha_max(x, g, l, u)
            if amax is None or amax < 1:
                continue
            alpha = _best_step_along(x, g, amax, f)
            y = vadd(x, vscale(alpha, g))
            if best is None:
                if f.compare(y, x) < 0:
                    best = (y, alpha, g)
                continue
            c = f.compare(y, best[0])
            if c < 0 or (c == 0 and (alpha, g) < best[1:]):
                best = (y, alpha, g)
        if best is None:
            return AugmentResult(x, steps)
        x = best[0]
        steps += 1


# ---------------------------------------------------------------------------
# fiber search and n-fold minimization

def _column_ranges(A, b, l, u):
    """values(j, partial): the range of x_j that keeps b reachable.

    `partial` holds the row sums of columns 0..j-1.  Each row confines
    A[i][j]*x_j to the interval left over by the least and greatest
    sums columns j+1.. can add within their bounds, so the admissible
    values of x_j form one integer range.
    """
    m, n = len(A), len(A[0]) if A else 0
    lo_tail = [[0] * m for _ in range(n + 1)]
    hi_tail = [[0] * m for _ in range(n + 1)]
    for j in range(n - 1, -1, -1):
        for i in range(m):
            a = A[i][j]
            lo_tail[j][i] = lo_tail[j + 1][i] + min(a * l[j], a * u[j])
            hi_tail[j][i] = hi_tail[j + 1][i] + max(a * l[j], a * u[j])

    def values(j, partial):
        vlo, vhi = l[j], u[j]
        lo_rest, hi_rest = lo_tail[j + 1], hi_tail[j + 1]
        for i in range(m):
            a = A[i][j]
            need = b[i] - partial[i]
            need_lo, need_hi = need - hi_rest[i], need - lo_rest[i]
            if a > 0:
                vlo = max(vlo, -(-need_lo // a))
                vhi = min(vhi, need_hi // a)
            elif a < 0:
                vlo = max(vlo, -(-need_hi // a))
                vhi = min(vhi, need_lo // a)
            elif need_lo > 0 or need_hi < 0:
                return range(0)
        return range(vlo, vhi + 1)

    return values


def enumerate_fiber(A, b, l, u):
    """Yield the integer points of {x : Ax = b, l <= x <= u} in
    lexicographic order.

    DFS over coordinates; each coordinate runs only over the values
    from which the remaining columns can still reach b, by partial-sum
    intervals.
    """
    n = len(A[0]) if A else 0
    values = _column_ranges(A, b, l, u)
    x = [0] * n

    def rec(j, partial):
        if j == n:
            if all(p == bi for p, bi in zip(partial, b)):
                yield tuple(x)
            return
        for v in values(j, partial):
            x[j] = v
            yield from rec(j + 1, [p + row[j] * v
                                   for p, row in zip(partial, A)])

    return rec(0, [0] * len(A))


def fiber_maximum(A, b, l, u, w) -> Optional[tuple[int, IntVec]]:
    """(w.x, x) for the lexicographically first maximizer of w.x over
    the integer points of {x : Ax = b, l <= x <= u}; None if there are
    none.

    The DFS of enumerate_fiber, in the same order and with the same
    row pruning, that also cuts a prefix when its value plus the most
    each remaining column can add, max(w_j*l_j, w_j*u_j), is no more
    than the incumbent's.  A point replaces the incumbent only when it
    is strictly better, so ties keep the first point found.
    """
    n = len(A[0]) if A else 0
    values = _column_ranges(A, b, l, u)
    w_tail = [0] * (n + 1)
    for j in range(n - 1, -1, -1):
        w_tail[j] = w_tail[j + 1] + max(w[j] * l[j], w[j] * u[j])
    x = [0] * n
    best = None

    def rec(j, partial, value):
        nonlocal best
        if j == n:
            if all(p == bi for p, bi in zip(partial, b)):
                best = (value, tuple(x))
            return
        wj, rest = w[j], w_tail[j + 1]
        for v in values(j, partial):
            if best is not None and value + wj * v + rest <= best[0]:
                if wj <= 0:
                    break            # larger v only lowers the bound
                continue
            x[j] = v
            rec(j + 1, [p + row[j] * v for p, row in zip(partial, A)],
                value + wj * v)

    rec(0, [0] * len(A), 0)
    return best


@record
class NFoldResult:
    x: IntVec
    value: Fraction
    steps: int
    certified: bool
    basis_size: int


def nfold_minimize(spec: NFoldSpec, f: SeparableConvexFn, l, u,
                   x0=None) -> NFoldResult:
    """Minimize a separable convex f over the n-fold system's lattice
    points within bounds.

    Without a starting point, one is found by pruned enumeration over
    the box; ValueError if the system is infeasible.
    """
    A = nfold_matrix(spec)
    # the integer box is unchanged when l rounds up and u rounds down
    l = tuple(math.ceil(v) for v in l)
    u = tuple(math.floor(v) for v in u)
    if len(l) != spec.n * spec.t or len(u) != spec.n * spec.t:
        raise ValueError("bounds must cover all n*t variables")
    if f.dimension != spec.n * spec.t:
        raise ValueError("objective dimension mismatch")
    if x0 is None:
        x0 = next(enumerate_fiber(A, spec.b, l, u), None)
        if x0 is None:
            raise ValueError("n-fold system is infeasible within bounds")
    G = graver_basis(A)
    result = greedy_augment(x0, f, A, spec.b, l, u, G)
    certified, _ = check_optimality(result.x, f, A, spec.b, l, u, G)
    return NFoldResult(result.x, f.value(result.x), result.steps,
                       certified, len(G))


# ---------------------------------------------------------------------------
# sign-compatible decomposition

def sign_compatible_decompose(z, G: GraverBasis) -> list[tuple[int, IntVec]]:
    """Write a kernel vector as sum(alpha_i * g_i) with every g_i in z's
    orthant, greedily consuming the largest basis direction first."""
    z = integer_vector(z)
    if any(mat_vec(G.matrix, z)):
        raise ValueError("vector is not in the kernel")
    out: list[tuple[int, IntVec]] = []
    while any(z):
        fitting = [g for g in G.signed_elements() if _conforms(g, z)]
        if not fitting:
            raise ValueError("no sign-compatible basis direction fits; "
                             "basis is not a Graver basis")
        g = max(fitting, key=lambda h: (sum(abs(a) for a in h), h))
        alpha = min(a // b for a, b in zip(z, g) if b != 0)
        out.append((alpha, g))
        z = vsub(z, vscale(alpha, g))
    return out
