"""The Fraction-tableau simplex that `core.solve_lp` replaced.

An independent oracle for the fraction-free kernel: every entry is a
Fraction, every variable is split into u - v, every bound is a row,
every row gets an artificial, and Bland's rule recomputes all reduced
costs from scratch on each step.  Slow, and simple enough to trust.
"""

from fractions import Fraction

from latticeopt.core import LPError, LPProblem, LPResult, dot


def _pivot(tab, rhs, basis, r, col):
    pv = tab[r][col]
    tab[r] = [a / pv for a in tab[r]]
    rhs[r] = rhs[r] / pv
    for i in range(len(tab)):
        if i != r and tab[i][col] != 0:
            f = tab[i][col]
            tab[i] = [a - f * b2 for a, b2 in zip(tab[i], tab[r])]
            rhs[i] = rhs[i] - f * rhs[r]
    basis[r] = col


def _simplex_max(tab, rhs, basis, cost):
    """Maximize cost.x over the tableau (rows already basic-feasible).

    Returns 'optimal' or 'unbounded'.  Bland's rule throughout, so cycling
    is impossible.
    """
    m = len(tab)
    ncols = len(cost)
    while True:
        cb = [cost[basis[i]] for i in range(m)]
        entering = None
        for j in range(ncols):
            red = cost[j] - sum(cb[i] * tab[i][j] for i in range(m))
            if red > 0:
                entering = j
                break
        if entering is None:
            return "optimal"
        best = None
        leave = None
        for i in range(m):
            if tab[i][entering] > 0:
                ratio = rhs[i] / tab[i][entering]
                if best is None or ratio < best or (
                        ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        if leave is None:
            return "unbounded"
        _pivot(tab, rhs, basis, leave, entering)


def solve_lp(problem: LPProblem) -> LPResult:
    """Exact simplex.  Splits free variables, two phases, Bland's rule."""
    n = len(problem.c)
    c = [Fraction(x) for x in problem.c]
    if not problem.maximize:
        c = [-x for x in c]

    rows = []
    for row, sense, rhs in zip(problem.A, problem.senses, problem.b):
        if sense not in ("<=", "=", ">="):
            raise LPError(f"unknown sense {sense!r}")
        rows.append(([Fraction(x) for x in row], sense, Fraction(rhs)))
    for j, lo in enumerate(problem.lower):
        if lo is not None:
            e = [Fraction(0)] * n
            e[j] = Fraction(1)
            rows.append((e, ">=", Fraction(lo)))
    for j, up in enumerate(problem.upper):
        if up is not None:
            e = [Fraction(0)] * n
            e[j] = Fraction(1)
            rows.append((e, "<=", Fraction(up)))

    if not rows:
        if all(x == 0 for x in c):
            zero = tuple(Fraction(0) for _ in range(n))
            return LPResult("optimal", zero, Fraction(0))
        return LPResult("unbounded", None, None)

    m = len(rows)
    nslack = sum(1 for _, sense, _ in rows if sense != "=")
    width = 2 * n + nslack + m          # u, v, slacks, artificials
    tab = []
    rhs = []
    si = 0
    for i, (row, sense, bb) in enumerate(rows):
        line = [Fraction(0)] * width
        for j in range(n):
            line[j] = row[j]
            line[n + j] = -row[j]
        if sense == "<=":
            line[2 * n + si] = Fraction(1)
            si += 1
        elif sense == ">=":
            line[2 * n + si] = Fraction(-1)
            si += 1
        if bb < 0:
            line = [-a for a in line]
            bb = -bb
        line[2 * n + nslack + i] = Fraction(1)
        tab.append(line)
        rhs.append(bb)

    basis = [2 * n + nslack + i for i in range(m)]

    # phase one: drive artificials to zero
    phase1 = [Fraction(0)] * width
    for i in range(m):
        phase1[2 * n + nslack + i] = Fraction(-1)
    _simplex_max(tab, rhs, basis, phase1)
    p1val = sum(phase1[basis[i]] * rhs[i] for i in range(m))
    if p1val != 0:
        return LPResult("infeasible", None, None)

    # pivot leftover artificials out of the basis (or drop redundant rows)
    drop = []
    for i in range(m):
        if basis[i] >= 2 * n + nslack:
            col = next((j for j in range(2 * n + nslack) if tab[i][j] != 0), None)
            if col is None:
                drop.append(i)
            else:
                _pivot(tab, rhs, basis, i, col)
    if drop:
        tab = [row for i, row in enumerate(tab) if i not in drop]
        rhs = [v for i, v in enumerate(rhs) if i not in drop]
        basis = [v for i, v in enumerate(basis) if i not in drop]

    # phase two on the real objective, artificial columns frozen
    cost = [Fraction(0)] * width
    for j in range(n):
        cost[j] = c[j]
        cost[n + j] = -c[j]
    # forbid artificial re-entry by truncating candidate columns
    for i in range(len(tab)):
        tab[i] = tab[i][: 2 * n + nslack]
    cost = cost[: 2 * n + nslack]

    status = _simplex_max(tab, rhs, basis, cost)
    if status == "unbounded":
        return LPResult("unbounded", None, None)
    xfull = [Fraction(0)] * (2 * n + nslack)
    for i, bi in enumerate(basis):
        if bi < len(xfull):
            xfull[bi] = rhs[i]
    x = tuple(xfull[j] - xfull[n + j] for j in range(n))
    value = dot([Fraction(v) for v in problem.c], x)
    return LPResult("optimal", x, value)
