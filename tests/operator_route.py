"""The differential-operator route to weighted lattice-point sums.

An independent oracle for genfunc.weighted_sum.  Each monomial x^gamma
of the weight acts on the generating function as the operator
prod_i (z_i d/dz_i)^(gamma_i), which leaves general terms (several
numerator monomials, repeated denominator factors); `specialize_general`
then evaluates any such function at z = 1 by series expansion.
"""

import math
from fractions import Fraction

from latticeopt.core import dot, vadd
from latticeopt.genfunc import GeneratingFunction, GFTerm


# ---------------------------------------------------------------------------
# Fraction series helpers, private to the oracle so that it runs none of
# the code it checks

def _binom(e, k):
    if k < 0:
        return 0
    if e >= 0:
        return math.comb(e, k) if k <= e else 0
    return (-1) ** k * math.comb(k - e - 1, k)


def _series_mul(a, b, L):
    out = [Fraction(0)] * (L + 1)
    for i, ai in enumerate(a):
        if ai == 0 or i > L:
            continue
        for j, bj in enumerate(b):
            if i + j > L:
                break
            if bj:
                out[i + j] += ai * bj
    return out


def _series_inv(a, L):
    if a[0] == 0:
        raise ZeroDivisionError("series has no inverse")
    inv0 = 1 / Fraction(a[0])
    out = [Fraction(0)] * (L + 1)
    out[0] = inv0
    for k in range(1, L + 1):
        s = Fraction(0)
        for i in range(1, min(k, len(a) - 1) + 1):
            if a[i]:
                s += a[i] * out[k - i]
        out[k] = -s * inv0
    return out


def _u_series(s, L):
    # (1 - (1+t)^s) / t, constant term -s
    return [Fraction(-_binom(s, k + 1)) for k in range(L + 1)]


def _monomials_of(h):
    mons = getattr(h, "monomials", h)
    return tuple((Fraction(c), tuple(int(x) for x in e)) for c, e in mons)


def _default_direction(vectors, d):
    # mu = (1, M, ..., M^(d-1)) for the least M off every hyperplane
    # mu.b = 0; a nonzero b rules out at most d - 1 values of M
    for M in range(1, len(vectors) * (d - 1) + 2):
        mu = tuple(M ** i for i in range(d))
        if all(dot(mu, b) != 0 for b in vectors):
            return mu


# ---------------------------------------------------------------------------
# the operator route

def _combine(terms):
    acc = {}
    for t in terms:
        bucket = acc.setdefault(t.denominator, {})
        for cf, a in t.numerator:
            bucket[a] = bucket.get(a, Fraction(0)) + t.sign * cf
    out = []
    for den in sorted(acc):
        num = tuple((cf, a) for a, cf in sorted(acc[den].items()) if cf != 0)
        if not num:
            continue
        if all(cf < 0 for cf, _ in num):
            out.append(GFTerm(-1, tuple((-cf, a) for cf, a in num), den))
        else:
            out.append(GFTerm(1, num, den))
    return tuple(out)


def _op_once(terms, i):
    # z_i d/dz_i by the product rule: differentiate the numerator, then
    # bump each denominator factor's multiplicity
    out = []
    for t in terms:
        num = tuple((cf * a[i], a) for cf, a in t.numerator if a[i] != 0)
        if num:
            out.append(GFTerm(t.sign, num, t.denominator))
        for j, (b, m) in enumerate(t.denominator):
            if b[i] == 0:
                continue
            num_j = tuple((cf * m * b[i], vadd(a, b)) for cf, a in t.numerator)
            den_j = t.denominator[:j] + ((b, m + 1),) + t.denominator[j + 1:]
            out.append(GFTerm(t.sign, num_j, den_j))
    return _combine(out)


def apply_operator(g, h):
    """Weighted generating function: sum of h(alpha) z^alpha over the set.

    Intermediate states are cached by exponent prefix so monomials
    sharing low-index exponents reuse work.
    """
    d = g.dimension
    cache = {(0,) * d: tuple(g.terms)}

    def state(gamma):
        if gamma in cache:
            return cache[gamma]
        i = max(idx for idx in range(d) if gamma[idx] > 0)
        pred = gamma[:i] + (gamma[i] - 1,) + gamma[i + 1:]
        cache[gamma] = _op_once(state(pred), i)
        return cache[gamma]

    pieces = []
    for cf, gamma in sorted(_monomials_of(h), key=lambda m: m[1]):
        for t in state(gamma):
            pieces.append(GFTerm(t.sign,
                                 tuple((cf * c, a) for c, a in t.numerator),
                                 t.denominator))
    return GeneratingFunction(d, _combine(pieces))


def pole_order(t):
    """Total multiplicity of a term's denominator factors."""
    return sum(m for _, m in t.denominator)


def specialize_general(g, direction=None):
    """Exact value of any bounded-set generating function at z = 1.

    Substitutes z_i = (1+t)^(mu_i) and reads the constant term of the
    Laurent expansion.  `direction` overrides mu; it must be off every
    denominator hyperplane, and the value does not depend on it.
    """
    if not g.terms:
        return Fraction(0)
    vectors = {b for t in g.terms for b, _ in t.denominator}
    if direction is None:
        mu = _default_direction(vectors, g.dimension)
    else:
        mu = tuple(int(x) for x in direction)
        if len(mu) != g.dimension:
            raise ValueError("direction dimension mismatch")
        bad = [b for b in vectors if dot(mu, b) == 0]
        if bad:
            raise ValueError(f"direction is orthogonal to {bad[0]}")

    total = Fraction(0)
    for t in g.terms:
        L = pole_order(t)
        prod = [Fraction(1)] + [Fraction(0)] * L
        for b, m in t.denominator:
            u = _u_series(dot(mu, b), L)
            for _ in range(m):
                prod = _series_mul(prod, u, L)
        inv = _series_inv(prod, L)
        for cf, a in t.numerator:
            e = dot(mu, a)
            val = sum(_binom(e, L - k) * inv[k] for k in range(L + 1))
            total += t.sign * cf * val
    return total
