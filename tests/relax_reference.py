"""Fourier-Motzkin projection of a lifted hull, kept as a test oracle.

This is the route `polyrelax.project_with_pi_leq_0` took before it read
the projection off the hull's lower rows: add {pi <= 0} to the hull's
rows, eliminate pi by Fourier-Motzkin, drop pi, and prune every row
implied by the others with one exact LP each.  It shares only the
lifted hull, the row normalization and the LP kernel with the library.
"""

from fractions import Fraction

from latticeopt.core import LPProblem, solve_lp, vneg
from latticeopt.polyhedra import Polyhedron
from latticeopt.polyrelax import _canonical_row, empty_polyhedron


def _eliminate(rows, idx):
    pos = [r for r in rows if r[0][idx] > 0]
    neg = [r for r in rows if r[0][idx] < 0]
    out = {r for r in rows if r[0][idx] == 0}
    for (ap, bp) in pos:
        for (an, bn) in neg:
            lp, ln = -an[idx], ap[idx]
            row = tuple(lp * x + ln * y for x, y in zip(ap, an))
            out.add(_canonical_row(row, lp * bp + ln * bn))
    return out


def _prune(rows):
    """Drop rows implied by the rest; None signals infeasibility."""
    kept = []
    for a, beta in sorted(rows):
        if not any(a):
            if beta < 0:
                return None
            continue
        kept.append((a, beta))
    i = 0
    while i < len(kept):
        a, beta = kept[i]
        others = kept[:i] + kept[i + 1:]
        if not others:
            break
        prob = LPProblem(c=tuple(Fraction(v) for v in a),
                         A=tuple(tuple(Fraction(v) for v in r) for r, _ in
                                 others),
                         b=tuple(Fraction(c) for _, c in others),
                         senses=("<=",) * len(others))
        res = solve_lp(prob)
        if res.status == "infeasible":
            return None
        if res.status == "optimal" and res.value <= beta:
            kept.pop(i)
        else:
            i += 1
    return kept


def project_fourier_motzkin(L) -> Polyhedron:
    """hull(L) cut with {pi <= 0}, projected onto x by elimination."""
    n = L.n
    eqs, ineqs = L.hull
    rows = set()
    for a, beta in eqs:
        rows.add(_canonical_row(a, beta))
        rows.add(_canonical_row(vneg(a), -beta))
    rows.update(ineqs)
    rows.add((tuple(int(j == n) for j in range(n + 1)), 0))
    rows = _eliminate(rows, n)
    kept = _prune({_canonical_row(a[:n], beta) for a, beta in rows})
    if kept is None:
        return empty_polyhedron(n)
    kept.sort()
    return Polyhedron(tuple(a for a, _ in kept),
                      tuple(beta for _, beta in kept))
