"""Powers of sparse polynomials by repeated multiplication.

A test oracle for the power that genfunc.weighted_sum raises inside
each term: summing f with power k must equal summing the expanded f^k
with power 1.  The product here is its own, so the oracle runs none of
the code it checks.
"""

from fractions import Fraction

from latticeopt.fptas import SparsePolynomial


def _mul(p, q):
    out = {}
    for ea, ca in p.items():
        for eb, cb in q.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, Fraction(0)) + ca * cb
    return {e: c for e, c in out.items() if c != 0}


def power_polynomial(f: SparsePolynomial, k: int) -> SparsePolynomial:
    if k < 1:
        raise ValueError("k must be >= 1")
    base = {e: c for c, e in f.monomials}
    out = base
    for _ in range(k - 1):
        out = _mul(out, base)
    return SparsePolynomial(f.dimension,
                            tuple((c, e) for e, c in out.items()))
