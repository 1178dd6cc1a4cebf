"""Approximate integer polynomial maximization with certified bounds.

The optimum of a nonnegative polynomial f over the lattice points of a
polytope is sandwiched between L_k and U_k, both read off the exact sum
of f^k over the points.  Growing k tightens the sandwich; k chosen as
ceil((1+1/eps) ln N) makes L_k >= (1-eps) f*.  A feasible point
reaching the bound is recovered by bisecting the bounding box, pruning
any piece whose summed power certifies it cannot reach the target.

Objectives with negative values are shifted nonnegative first.  The
shift constant is then reduced round by round, following the iterative
strategy the approximation theorem is built on, until the certified
enclosure of [f_min, f_max] is tight enough to state the range-relative
guarantee; every inequality along the way is checked in exact rational
arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .core import (
    ceil_mul_ln,
    kth_root_ceil_rational,
    kth_root_floor_rational,
    rat,
)
from .genfunc import (
    GeneratingFunction,
    polyhedron_gf,
    specialize_at_one,
    weighted_sum,
)
from .polyhedra import Polyhedron, bounding_box, box_polyhedron

IntVec = tuple[int, ...]


# ---------------------------------------------------------------------------
# sparse polynomials

def _canon_monomials(dimension, monomials):
    acc: dict[IntVec, Fraction] = {}
    for c, e in monomials:
        e = tuple(int(x) for x in e)
        if len(e) != dimension:
            raise ValueError("monomial dimension mismatch")
        if any(x < 0 for x in e):
            raise ValueError("exponents must be nonnegative")
        acc[e] = acc.get(e, Fraction(0)) + rat(c)
    return tuple((c, e) for e, c in sorted(acc.items()) if c != 0)


@dataclass(frozen=True)
class SparsePolynomial:
    dimension: int
    monomials: tuple[tuple[Fraction, IntVec], ...]

    def __post_init__(self):
        object.__setattr__(
            self, "monomials", _canon_monomials(self.dimension,
                                                self.monomials))

    def evaluate(self, x: Sequence[int]) -> Fraction:
        total = Fraction(0)
        for c, e in self.monomials:
            term = c
            for xi, ei in zip(x, e):
                term *= Fraction(xi) ** ei
            total += term
        return total

    def plus_constant(self, c) -> "SparsePolynomial":
        zero = (0,) * self.dimension
        return SparsePolynomial(
            self.dimension, self.monomials + ((rat(c), zero),))

    def scaled(self, c) -> "SparsePolynomial":
        return SparsePolynomial(
            self.dimension, tuple((rat(c) * cf, e) for cf, e in self.monomials))

    @property
    def degree(self) -> int:
        return max((sum(e) for _, e in self.monomials), default=0)


# ---------------------------------------------------------------------------
# bounds

@dataclass(frozen=True)
class BoundsReport:
    k: int
    L_k: int
    U_k: int
    N: int
    certified_gap: Fraction


def choose_k(N: int, eps) -> int:
    """Smallest power making the sandwich eps-tight: ceil((1+1/eps) ln N)."""
    if N < 1:
        raise ValueError("N must be >= 1")
    eps = rat(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    if N == 1:
        return 1
    return max(1, ceil_mul_ln(1 + 1 / eps, N))


def _bounds_from_gf(g: GeneratingFunction, N: int, f: SparsePolynomial,
                    k: int) -> tuple[Fraction, BoundsReport]:
    S = weighted_sum(g, f.monomials, power=k)
    if S < 0:
        raise ValueError("objective is negative on the feasible set; "
                         "shift it first")
    L = kth_root_ceil_rational(S / N, k)
    U = kth_root_floor_rational(S, k)
    return S, BoundsReport(k, L, U, N, Fraction(U - L))


def compute_bounds(P: Polyhedron, f: SparsePolynomial, k: int
                   ) -> BoundsReport:
    """L_k = ceil((sum f^k / N)^(1/k)), U_k = floor((sum f^k)^(1/k)).

    Requires f >= 0 on the feasible points.  The integer rounding
    follows the integer-valued objective setting; maximize() works with
    the unrounded rational bounds internally.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    g = polyhedron_gf(P)
    N = specialize_at_one(g)
    if N == 0:
        raise ValueError("polytope has no lattice points")
    return _bounds_from_gf(g, int(N), f, k)[1]


# ---------------------------------------------------------------------------
# interval bounds over a box

def _interval_pow(lo: Fraction, hi: Fraction, e: int):
    if e == 0:
        return Fraction(1), Fraction(1)
    if e % 2 == 1:
        return lo ** e, hi ** e
    cands = (lo ** e, hi ** e)
    low = Fraction(0) if lo < 0 < hi else min(cands)
    return low, max(cands)


def _interval_mul(a, b):
    prods = (a[0] * b[0], a[0] * b[1], a[1] * b[0], a[1] * b[1])
    return min(prods), max(prods)


def _interval_bound(f: SparsePolynomial, lo: IntVec, hi: IntVec):
    total = (Fraction(0), Fraction(0))
    for c, e in f.monomials:
        iv = (c, c)
        for i, ei in enumerate(e):
            if ei:
                iv = _interval_mul(
                    iv, _interval_pow(Fraction(lo[i]), Fraction(hi[i]), ei))
        total = (total[0] + iv[0], total[1] + iv[1])
    return total


# ---------------------------------------------------------------------------
# recovery by bisection

def _box_gf_sum(P, lo, hi, f, k):
    g = polyhedron_gf(P.intersect(box_polyhedron(lo, hi)))
    if not g.terms:
        return None
    return weighted_sum(g, f.monomials, power=k)


def _recover(P: Polyhedron, box: tuple, f: SparsePolynomial,
             target: Optional[tuple], kprime: int,
             pruned_log: Optional[list] = None):
    """Best feasible point found by longest-edge bisection of `box`.

    `box` is bounding_box(P) of a nonempty P.  `target` is (T, k)
    encoding the threshold T^(1/k); the search stops as soon as a point
    certified >= the threshold is in hand.  Pruning compares sums of
    f^kprime exactly: a box whose sum is below threshold^kprime cannot
    contain a point reaching the threshold.  Needs f >= 0 on the
    feasible points.
    """
    best: Optional[tuple[Fraction, IntVec]] = None

    def meets_target(value: Fraction) -> bool:
        if target is None:
            return False
        T, k = target
        return value >= 0 and value ** k >= T

    def below(S: Fraction, thr_val: Fraction, thr_k: int) -> bool:
        # S^(1/kprime) < thr_val^(1/thr_k), both sides nonnegative
        return S ** thr_k < thr_val ** kprime

    stack = [box]
    while stack:
        lo, hi = stack.pop()
        if lo == hi:
            if P.contains(lo):
                v = f.evaluate(lo)
                if best is None or v > best[0] or \
                        (v == best[0] and lo < best[1]):
                    best = (v, lo)
                if meets_target(best[0]):
                    return best
            continue
        # split the longest edge at its integer midpoint
        widths = [h - l for l, h in zip(lo, hi)]
        i = widths.index(max(widths))
        mid = (lo[i] + hi[i]) // 2
        children = []
        for clo, chi in (((lo[:i] + (mid + 1,) + lo[i + 1:]), hi),
                         (lo, (hi[:i] + (mid,) + hi[i + 1:]))):
            S = _box_gf_sum(P, clo, chi, f, kprime)
            if S is None:
                continue
            if target is not None and below(S, *target):
                if pruned_log is not None:
                    pruned_log.append((clo, chi, S, target))
                continue
            if best is not None and best[0] > 0 and below(S, best[0], 1):
                if pruned_log is not None:
                    pruned_log.append((clo, chi, S, (best[0], 1)))
                continue
            children.append((S, clo, chi))
        # larger certified mass first, low half on ties
        children.sort(key=lambda c: c[0])
        stack.extend((clo, chi) for _, clo, chi in children)
    return best


# ---------------------------------------------------------------------------
# maximization

@dataclass(frozen=True)
class MaximizeReport:
    value: Fraction
    guarantee: str                 # "relative", "shifted-range", "exact"
    epsilon: Fraction
    N: int
    k: Optional[int] = None
    L_k: Optional[int] = None
    U_k: Optional[int] = None
    shift: Optional[Fraction] = None
    delta: Optional[Fraction] = None
    range_lower_bound: Optional[Fraction] = None
    scale: Optional[int] = None


def _certified_rounds_budget() -> int:
    return 60


def maximize(P: Polyhedron, f: SparsePolynomial, eps
             ) -> tuple[IntVec, MaximizeReport]:
    """Feasible x with f(x) >= (1-eps) f*, or the range guarantee
    |f(x) - f*| <= eps (f_max - f_min) when f needed shifting."""
    eps = rat(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    g = polyhedron_gf(P)
    N = specialize_at_one(g)
    if N == 0:
        raise ValueError("polytope has no lattice points")
    N = int(N)
    box = bounding_box(P)

    if N == 1:
        # no pruning: f may be negative at the unique point
        best = _recover(P, box, f, None, 1)
        x = best[1]
        return x, MaximizeReport(value=f.evaluate(x), guarantee="exact",
                                 epsilon=eps, N=1)

    lb, ub = _interval_bound(f, *box)
    kprime = 3

    if lb >= 0:
        k = choose_k(N, eps)
        S, rep = _bounds_from_gf(g, N, f, k)
        x = _recover(P, box, f, (S / N, k), kprime)[1]
        return x, MaximizeReport(value=f.evaluate(x), guarantee="relative",
                                 epsilon=eps, N=N, k=k,
                                 L_k=rep.L_k, U_k=rep.U_k)

    # Negative values: certified-enclosure refinement.  Scaling f by
    # sigma makes the integer rounding of root bounds arbitrarily fine,
    # so the loop terminates whenever the true range is positive, and
    # certifies a constant objective otherwise.
    denom_lcm = math.lcm(*(c.denominator for c, _ in f.monomials)) \
        if f.monomials else 1
    k_r = choose_k(N, Fraction(1, 4))
    m = lb                       # certified lower bound for f_min
    M = ub                       # certified upper bound for f_max
    fmax_lb: Optional[Fraction] = None
    fmin_ub: Optional[Fraction] = None
    best_ratio: Optional[tuple[Fraction, Fraction]] = None  # (range_lb, W)
    bonus: Optional[int] = None
    sigma = 1
    for _ in range(_certified_rounds_budget()):
        g1 = f.plus_constant(-m).scaled(sigma)
        S1 = weighted_sum(g, g1.monomials, power=k_r)
        lo1 = kth_root_floor_rational(S1 / N, k_r)
        hi1 = kth_root_floor_rational(S1, k_r) + 1
        cand = m + Fraction(lo1, sigma)
        fmax_lb = cand if fmax_lb is None else max(fmax_lb, cand)
        M = min(M, m + Fraction(hi1, sigma))

        g2 = f.scaled(-sigma).plus_constant(sigma * M)
        S2 = weighted_sum(g, g2.monomials, power=k_r)
        lo2 = kth_root_floor_rational(S2 / N, k_r)
        hi2 = kth_root_floor_rational(S2, k_r) + 1
        m = max(m, M - Fraction(hi2, sigma))
        cand = M - Fraction(lo2, sigma)
        fmin_ub = cand if fmin_ub is None else min(fmin_ub, cand)

        width = M - m
        range_lb = fmax_lb - fmin_ub
        if range_lb > 0:
            if best_ratio is None or \
                    range_lb / width > best_ratio[0] / best_ratio[1]:
                best_ratio = (range_lb, width)
            ratio = best_ratio[0] / best_ratio[1]
            # a ratio recorded earlier stays valid: m and M only tighten,
            # so the current width never exceeds the recorded one
            if ratio >= Fraction(1, 4):
                break
            if ratio >= Fraction(1, 16):
                # near the certification threshold the ratio still
                # improves geometrically; a few more rounds shrink the
                # final solve's k fourfold
                bonus = 4 if bonus is None else bonus - 1
                if bonus == 0:
                    break
        if width * denom_lcm < 1:
            # range certified below the value granularity: f is constant
            # on the feasible points, any of them is optimal
            shifted = f.plus_constant(-m)
            x = _recover(P, box, shifted, (Fraction(0), 1), kprime)[1]
            return x, MaximizeReport(value=f.evaluate(x), guarantee="exact",
                                     epsilon=eps, N=N, shift=-m, scale=sigma)
        sigma *= 4
    else:
        raise RuntimeError("range certification did not converge")

    range_lb, width = best_ratio
    delta = eps * range_lb / width
    shifted = f.plus_constant(-m)
    k = choose_k(N, delta)
    S, rep = _bounds_from_gf(g, N, shifted, k)
    x = _recover(P, box, shifted, (S / N, k), kprime)[1]
    return x, MaximizeReport(
        value=f.evaluate(x), guarantee="shifted-range",
        epsilon=eps, N=N, k=k, L_k=rep.L_k, U_k=rep.U_k,
        shift=-m, delta=delta, range_lower_bound=range_lb,
        scale=sigma)
