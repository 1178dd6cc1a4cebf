"""Nonlinear optimization over weighted independence systems.

An independence system is a nonempty down-closed family of 0/1 vectors,
presented here through a linear-optimization oracle: queried with an
integer cost vector c, the oracle returns a member maximizing c^T x.
The weights w_j are drawn from a primitive tuple a of distinct positive
integers with gcd 1, and the objective f is univariate, queried only
through values or comparisons of f at total weights w^T x.

The one-call strategy asks the oracle for a w-heaviest member xbar and
then solves the restriction min{f(w^T x) : x <= xbar} exactly.  The
restriction is easy: w^T x depends on x <= xbar only through the number
of support indices kept inside each weight class N_i = {j : w_j = a_i},
so one candidate per count vector nu <= tau settles it after
prod(tau_i + 1) evaluations.  The strategy alone is no approximation
scheme; the attainable values {w^T x : x in S} are only sandwiched as

    {w^T x : x <= xbar}  subseteq  w . S  subseteq  {0, ..., w^T xbar},

and the inner gap can grow with the ground set.  The quality that is
recoverable for a given tuple is reported by `r_bound`: optimal for
divisible tuples, F(a)-best for pairs (F the Frobenius number), and
(2 max(a))^p-best in general.
"""

from __future__ import annotations

from itertools import product
from math import gcd
from typing import Callable, Optional, Sequence

from .core import dot, integer_vector, record

IntVec = tuple[int, ...]

LinearOracle = Callable[[IntVec], Sequence[int]]
ValueFn = Callable[[int], object]
LeqFn = Callable[[int, int], bool]


def _as_point(x, n: int) -> IntVec:
    pt = integer_vector(x)
    if len(pt) != n:
        raise ValueError(f"expected a 0/1 vector of length {n}")
    if any(v not in (0, 1) for v in pt):
        raise ValueError("expected a 0/1 vector")
    return pt


# ---------------------------------------------------------------------------
# weight data

@record
class PrimitiveTuple:
    """Distinct positive integers whose greatest common divisor is 1."""

    values: IntVec

    def __post_init__(self):
        vals = integer_vector(self.values)
        if not vals:
            raise ValueError("tuple must be nonempty")
        if any(v < 1 for v in vals):
            raise ValueError("entries must be positive")
        if len(set(vals)) != len(vals):
            raise ValueError("entries must be distinct")
        if gcd(*vals) != 1:
            raise ValueError("entries must have gcd 1")
        object.__setattr__(self, "values", vals)

    @property
    def p(self) -> int:
        return len(self.values)

    @property
    def divisible(self) -> bool:
        """Sorted ascending, each entry divides the next."""
        vals = sorted(self.values)
        return all(b % a == 0 for a, b in zip(vals, vals[1:]))

    def __iter__(self):
        return iter(self.values)

    def __len__(self) -> int:
        return len(self.values)


def _as_primitive(a) -> PrimitiveTuple:
    return a if isinstance(a, PrimitiveTuple) else PrimitiveTuple(tuple(a))


@record
class WeightProfile:
    """Weight vector with entries from a primitive tuple, split into classes.

    N_i collects the coordinates of weight a_i, lambda_i(x) counts the
    support of x inside N_i, and w^T x = lambda(x)^T a for every 0/1
    vector x.  Classes may be empty; only the drawn values matter.
    """

    a: PrimitiveTuple
    weights: IntVec

    def __post_init__(self):
        object.__setattr__(self, "a", _as_primitive(self.a))
        w = integer_vector(self.weights)
        if not w:
            raise ValueError("weight vector must be nonempty")
        allowed = set(self.a.values)
        if any(v not in allowed for v in w):
            raise ValueError("every weight must be an entry of the tuple")
        object.__setattr__(self, "weights", w)

    @property
    def n(self) -> int:
        return len(self.weights)

    @property
    def classes(self) -> tuple[IntVec, ...]:
        """N_i in tuple order, each as ascending coordinate indices."""
        return tuple(
            tuple(j for j, w in enumerate(self.weights) if w == ai)
            for ai in self.a
        )

    def lam(self, x) -> IntVec:
        pt = _as_point(x, self.n)
        return tuple(sum(pt[j] for j in Ni) for Ni in self.classes)

    def weight(self, x) -> int:
        return dot(self.weights, _as_point(x, self.n))


# ---------------------------------------------------------------------------
# independence systems

class IndependenceSystem:
    """Down-closed family S of 0/1 vectors behind a linear-optimization oracle.

    The oracle receives an integer cost vector and must return some
    member of S maximizing the linear function.  Oracles are queried
    one call at a time, never concurrently, so stateful user oracles
    are safe.  The built-in families are pure: `explicit` stores the
    whole family and answers by exhaustive argmax, `from_generators`
    answers from the generator list without expanding the down-closure.
    """

    def __init__(self, n: int, oracle: LinearOracle):
        (n,) = integer_vector((n,))
        if n < 1:
            raise ValueError("dimension must be positive")
        self.n = n
        self._oracle = oracle
        self._members: Optional[frozenset] = None
        self._generators: Optional[tuple[IntVec, ...]] = None

    @classmethod
    def explicit(cls, members) -> "IndependenceSystem":
        """Explicit family, rejected unless down-closed.

        Closure under single-coordinate drops is checked for every
        member; repeated drops reach every x <= y, so the check is
        complete, not sampled.
        """
        fam = {integer_vector(x) for x in members}
        if not fam:
            raise ValueError("independence system must be nonempty")
        if len({len(x) for x in fam}) != 1:
            raise ValueError("members must share one length")
        n = len(next(iter(fam)))
        for x in fam:
            if any(v not in (0, 1) for v in x):
                raise ValueError("members must be 0/1 vectors")
            for j, v in enumerate(x):
                if v and x[:j] + (0,) + x[j + 1:] not in fam:
                    raise ValueError("family is not down-closed")
        frozen = frozenset(fam)

        def oracle(c: IntVec) -> IntVec:
            # strict total order on (value, point) makes the argmax unique
            return max(frozen, key=lambda x: (dot(c, x), x))

        system = cls(n, oracle)
        system._members = frozen
        return system

    @classmethod
    def from_generators(cls, n: int, generators) -> "IndependenceSystem":
        """Down-closure of the given maximal elements."""
        (dim,) = integer_vector((n,))
        gens = tuple(_as_point(g, dim) for g in generators)
        if not gens:
            raise ValueError("at least one generator is required")

        def oracle(c: IntVec) -> IntVec:
            best = None
            for g in gens:
                # inside [0, g] only the strictly positive costs help
                x = tuple(gj if cj > 0 else 0 for gj, cj in zip(g, c))
                key = (dot(c, x), x)
                if best is None or key > best[0]:
                    best = (key, x)
            return best[1]

        system = cls(dim, oracle)
        system._generators = gens
        return system

    def maximize(self, c) -> IntVec:
        cost = integer_vector(c)
        if len(cost) != self.n:
            raise ValueError("cost vector has wrong length")
        return _as_point(self._oracle(cost), self.n)

    def members(self) -> frozenset:
        """The full family.

        Available for the built-in forms only; the generator closure is
        expanded on first use and is exponential in the largest
        generator support.
        """
        if self._members is not None:
            return self._members
        if self._generators is None:
            raise ValueError("system members are not enumerable")
        fam = set()
        for g in self._generators:
            supp = [j for j, v in enumerate(g) if v]
            for bits in product((0, 1), repeat=len(supp)):
                x = [0] * self.n
                for j, b in zip(supp, bits):
                    x[j] = b
                fam.add(tuple(x))
        self._members = frozenset(fam)
        return self._members


# ---------------------------------------------------------------------------
# Frobenius numbers and the quality bound

def _representable(vals: Sequence[int], bound: int) -> bytearray:
    table = bytearray(bound + 1)
    table[0] = 1
    for v in vals:
        for i in range(v, bound + 1):
            if table[i - v]:
                table[i] = 1
    return table


def frobenius(a) -> int:
    """Largest integer that is not a nonnegative combination of the entries.

    Returns 0 when every positive integer is representable, which for a
    primitive tuple happens exactly when 1 is an entry.  Pairs are
    answered by Sylvester's closed form a1*a2 - a1 - a2, longer tuples
    by a representability table.
    """
    prim = _as_primitive(a)
    vals = sorted(prim.values)
    if vals[0] == 1:
        return 0
    if len(vals) == 2:
        return vals[0] * vals[1] - vals[0] - vals[1]
    bound = vals[0] * vals[-1]
    while True:
        table = _representable(vals, bound)
        # once min(a) consecutive values are hit, adding multiples of
        # min(a) covers everything above the table
        if all(table[bound - vals[0] + 1:]):
            break
        bound *= 2
    return max(i for i in range(bound + 1) if not table[i])


def r_bound(a) -> int:
    """Solution quality guaranteed to be recoverable for the tuple.

    A result is r-best when at most r attainable objective values beat
    it.  Divisible tuples admit exact optimization (0), pairs admit an
    F(a)-best answer, and in general (2 max(a))^p is an upper bound.
    """
    prim = _as_primitive(a)
    if prim.divisible:
        return 0
    if prim.p == 2:
        return frobenius(prim)
    return (2 * max(prim.values)) ** prim.p


# ---------------------------------------------------------------------------
# the one-call strategy

def min_below(xbar, profile: WeightProfile, f: Optional[ValueFn] = None, *,
              leq: Optional[LeqFn] = None) -> IntVec:
    """Exact minimizer of f(w^T x) over the subcube {x : x <= xbar}.

    One candidate per count vector nu <= tau = lambda(xbar) suffices,
    keeping the nu_i smallest support indices of xbar inside each class.
    Exactly prod(tau_i + 1) candidates are weighed: `f` is called once
    per candidate, or `leq` (meaning f(y) <= f(z)) once per candidate
    after the first.  Ties keep the earlier candidate in lexicographic
    nu order, so the zero vector wins among minimizers of equal value.
    """
    if (f is None) == (leq is None):
        raise ValueError("provide exactly one of f and leq")
    pt = _as_point(xbar, profile.n)
    kept = tuple(tuple(j for j in Ni if pt[j]) for Ni in profile.classes)
    best_nu = None
    best_weight = 0
    best_val = None
    for nu in product(*(range(len(s) + 1) for s in kept)):
        wval = dot(nu, profile.a.values)
        if best_nu is None:
            best_nu, best_weight = nu, wval
            if f is not None:
                best_val = f(wval)
        elif f is not None:
            val = f(wval)
            if val < best_val:
                best_nu, best_weight, best_val = nu, wval, val
        elif not leq(best_weight, wval):
            best_nu, best_weight = nu, wval
    x = [0] * profile.n
    for indices, k in zip(kept, best_nu):
        for j in indices[:k]:
            x[j] = 1
    return tuple(x)


@record
class StrategyReport:
    """Everything one oracle call certifies about the strategy's run.

    lower_image is {w^T x : x <= x_max}; the attainable values squeeze
    between it and {0, ..., max_weight}.  When the family is enumerable
    the exact image and the attainable values beating the output are
    filled in, so `gap` is the run's realized r-best quality.
    """

    x_max: IntVec
    x_best: IntVec
    max_weight: int
    best_weight: int
    lower_image: tuple[int, ...]
    image: Optional[tuple[int, ...]] = None
    better_values: Optional[tuple[int, ...]] = None

    @property
    def gap(self) -> Optional[int]:
        return None if self.better_values is None else len(self.better_values)


def naive_strategy(system: IndependenceSystem, profile: WeightProfile,
                   f: Optional[ValueFn] = None, *,
                   leq: Optional[LeqFn] = None) -> tuple[IntVec, StrategyReport]:
    """One linear-optimization call, then the exact subcube minimum.

    Returns (x_best, report).  The oracle supplies a w-heaviest member
    x_max and x_best minimizes f(w^T x) over {x : x <= x_max}.  On
    enumerable families the report also carries the exact image and the
    values beating the output; an oracle answer that contradicts the
    enumerated family raises RuntimeError.
    """
    if (f is None) == (leq is None):
        raise ValueError("provide exactly one of f and leq")
    if system.n != profile.n:
        raise ValueError("system and weights disagree on dimension")
    xbar = system.maximize(profile.weights)
    xstar = min_below(xbar, profile, f, leq=leq)
    max_weight = profile.weight(xbar)
    best_weight = profile.weight(xstar)
    taus = profile.lam(xbar)
    lower = sorted({dot(nu, profile.a.values)
                    for nu in product(*(range(t + 1) for t in taus))})
    image = None
    better = None
    try:
        fam = system.members()
    except ValueError:
        fam = None
    if fam is not None:
        image = sorted({profile.weight(x) for x in fam})
        if not set(lower) <= set(image) or image[-1] > max_weight:
            raise RuntimeError("oracle answer contradicts the enumerated family")
        if f is not None:
            ref = f(best_weight)
            better = tuple(v for v in image if f(v) < ref)
        else:
            better = tuple(v for v in image if not leq(best_weight, v))
    return xstar, StrategyReport(
        x_max=xbar,
        x_best=xstar,
        max_weight=max_weight,
        best_weight=best_weight,
        lower_image=tuple(lower),
        image=None if image is None else tuple(image),
        better_values=better,
    )
