"""Independent answer checks.  Nothing here imports latticeopt.

``check(inst, rc, stdout)`` returns ``(ok, message, points)``: whether
the CLI's exit code and report are right for the instance, why not, and
the instance's size for the mix (lattice points, fiber points, Graver
elements, cloud points or ground-set size).

Counts and optima come from brute-force enumeration over a box the
generator knows contains the feasible set; the FPTAS guarantee is
checked against the brute-force optimum; n-fold and convexmax optima
come from the fiber enumerator below; Graver output is checked for
kernel membership, pairwise incomparability and, on desk-scale boxes
or when the instance asks for it, against the brute-force basis; relax
points are checked against the lower convex envelope of the lifted
cloud, evaluated by Caratheodory (supports of at most three affinely
independent cloud points).
"""

from __future__ import annotations

import itertools
from fractions import Fraction

# brute-force Graver bases are computed only below this many box points;
# the pruned search takes well under 0.1 s per basis at the limit
_GRAVER_BOX_LIMIT = 10 ** 7


def parse_report(stdout: str) -> dict:
    out = {}
    for line in stdout.splitlines():
        key, _, value = line.partition(":")
        out[key] = value.strip()
    return out


def _ints(text: str) -> tuple:
    return tuple(int(v) for v in text.split())


def _rows(text: str) -> list:
    return text.split("; ") if text else []


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def _box(lo, hi):
    return itertools.product(*(range(a, b + 1) for a, b in zip(lo, hi)))


def _inside(A, b, p) -> bool:
    return all(_dot(a, p) <= beta for a, beta in zip(A, b))


def lattice_points(A, rhs, lo, hi):
    """Integer x with A x = rhs and lo <= x <= hi, depth-first with
    interval pruning on the columns still free."""
    m, n = len(A), len(lo)
    reach_lo = [[0] * m for _ in range(n + 1)]
    reach_hi = [[0] * m for _ in range(n + 1)]
    for j in range(n - 1, -1, -1):
        for i in range(m):
            a = A[i][j]
            reach_lo[j][i] = reach_lo[j + 1][i] + min(a * lo[j], a * hi[j])
            reach_hi[j][i] = reach_hi[j + 1][i] + max(a * lo[j], a * hi[j])
    out = []
    prefix = [0] * n

    def walk(j, partial):
        if j == n:
            out.append(tuple(prefix))
            return
        for v in range(lo[j], hi[j] + 1):
            nxt = [p + A[i][j] * v for i, p in enumerate(partial)]
            if all(reach_lo[j + 1][i] <= rhs[i] - nxt[i] <= reach_hi[j + 1][i]
                   for i in range(m)):
                prefix[j] = v
                walk(j + 1, nxt)

    walk(0, [0] * m)
    return out


def separable_value(term, v):
    kind, payload = term
    if kind == "sq":
        return (Fraction(v) - payload) ** 2
    if kind == "abs":
        return abs(Fraction(v) - payload)
    if kind == "pwl":
        return max(a * v + b for a, b in payload)
    return payload[v]


def _poly_value(monomials, p) -> Fraction:
    total = Fraction(0)
    for c, e in monomials:
        term = Fraction(c)
        for x, k in zip(p, e):
            term *= Fraction(x) ** k
        total += term
    return total


# ---------------------------------------------------------------------------
# per command

def _check_count(inst, rep):
    d = inst.data
    A, b = d["A"], d["b"]
    if inst.expect == 2:
        # Farkas: two opposite rows whose right-hand sides cross
        certified = any(tuple(-v for v in A[i]) == tuple(A[j])
                        and b[i] + b[j] < 0
                        for i in range(len(A)) for j in range(i + 1, len(A)))
        return certified, "empty without certificate", 0
    if inst.expect == 3:
        ray = d["ray"]
        certified = _inside(A, b, (0,) * inst.dim) and \
            all(_dot(a, ray) <= 0 for a in A) and any(ray)
        return certified, "unbounded without certificate", 0
    lo, hi = d["box"]
    brute = sum(1 for p in _box(lo, hi) if _inside(A, b, p))
    ok = rep.get("count") == str(brute) and \
        rep.get("dimension") == str(inst.dim)
    return ok, f"count {rep.get('count')} != brute {brute}", brute


def _check_optimize(inst, rep):
    d = inst.data
    A, b = d["A"], d["b"]
    feasible = [p for p in _box(*d["box"]) if _inside(A, b, p)]
    values = [_poly_value(d["monomials"], p) for p in feasible]
    fstar, fmin = max(values), min(values)
    value, point = Fraction(rep["value"]), _ints(rep["point"])
    eps, kind = d["eps"], rep["guarantee"]
    if point not in feasible or _poly_value(d["monomials"], point) != value:
        return False, f"point {point} infeasible or mis-valued", len(feasible)
    if kind not in (d["guarantee"], "exact") or \
            Fraction(rep["epsilon"]) != eps or int(rep["N"]) != len(feasible):
        return False, f"report header {kind} {rep['N']}", len(feasible)
    if kind == "exact":
        ok = value == fstar
    elif kind == "relative":
        ok = fmin >= 0 and (1 - eps) * fstar <= value <= fstar
    else:
        ok = fstar - value <= eps * (fstar - fmin) and value <= fstar
    return ok, f"{kind} guarantee fails: {value} vs f* {fstar}", len(feasible)


def _conforms(g, z) -> bool:
    return all(a * c >= 0 and abs(a) <= abs(c) for a, c in zip(g, z))


def _sign_canonical(z):
    for v in z:
        if v:
            return z if v > 0 else tuple(-x for x in z)
    return z


def brute_graver(A, bound):
    """Sign-canonical minimal nonzero kernel points of A in [-bound, bound]^n.
    A vector's conformal minorants stay in the box, so box minimality is
    genuine minimality."""
    n = len(A[0])
    zero = (0,) * len(A)
    out = set()
    for z in lattice_points(A, zero, (-bound,) * n, (bound,) * n):
        if not any(z) or _sign_canonical(z) != z:
            continue
        below = lattice_points(A, zero, tuple(min(0, v) for v in z),
                               tuple(max(0, v) for v in z))
        if len(below) == 2:           # only 0 and z itself
            out.add(z)
    return out


def _check_graver(inst, rep):
    A = inst.data["A"]
    elements = [_ints(r) for r in _rows(rep["elements"])]
    n = len(A[0])
    size = len(elements)
    if (rep["rows"], rep["cols"], rep["size"]) != \
            (str(len(A)), str(n), str(size)):
        return False, "graver header", size
    for g in elements:
        if len(g) != n or not any(g) or _sign_canonical(g) != g or \
                any(_dot(row, g) for row in A):
            return False, f"{g} is not a canonical kernel vector", size
    for g, h in itertools.permutations(elements, 2):
        if _conforms(h, g) or _conforms(tuple(-v for v in h), g):
            return False, f"{h} is conformally below {g}", size
    bound = max(abs(v) for g in elements for v in g)
    if inst.data.get("brute") or (2 * bound + 1) ** n <= _GRAVER_BOX_LIMIT:
        brute = brute_graver(A, bound)
        if brute != set(elements):
            return False, "graver basis differs from brute force", size
    return True, "", size


def _check_nfold(inst, rep):
    d = inst.data
    u = d["u"]
    fiber = lattice_points(d["A"], d["rhs"], (0,) * len(u), u)

    def f(x):
        return sum(separable_value(t, v) for t, v in zip(d["terms"], x))

    best = min(f(x) for x in fiber)
    x = _ints(rep["solution"])
    ok = x in fiber and f(x) == Fraction(rep["value"]) == best and \
        rep["certificate"] == "GRAVER-OPTIMAL"
    return ok, f"nfold {x} value {rep['value']} vs brute {best}", len(fiber)


def _check_convexmax(inst, rep):
    d = inst.data
    u, W = d["u"], d["W"]
    fiber = lattice_points(d["A"], d["rhs"], (0,) * len(u), u)

    def value(y):
        return sum(separable_value(t, v) for t, v in zip(d["terms"], y))

    fstar = max(value(tuple(_dot(w, x) for w in W)) for x in fiber)
    x, y = _ints(rep["solution"]), _ints(rep["image"])
    ok = x in fiber and y == tuple(_dot(w, x) for w in W) and \
        value(y) == Fraction(rep["value"]) == fstar
    return ok, f"convexmax value {rep['value']} vs brute {fstar}", len(fiber)


def _cross(u, v):
    return u[0] * v[1] - u[1] * v[0]


def lower_envelope(cloud, values, x) -> Fraction:
    """min sum(l_k values_k) over convex l with barycenter x.  An optimal
    basic solution uses at most dim+1 affinely independent points."""
    best = None
    for k, v in zip(cloud, values):
        if k == x:
            best = Fraction(v)
    for (a, fa), (b, fb) in itertools.combinations(zip(cloud, values), 2):
        ab = tuple(q - p for p, q in zip(a, b))
        ax = tuple(q - p for p, q in zip(a, x))
        if len(x) == 2 and _cross(ab, ax) != 0:
            continue
        t = Fraction(_dot(ax, ab), _dot(ab, ab))
        if 0 <= t <= 1:
            cand = (1 - t) * fa + t * fb
            best = cand if best is None else min(best, cand)
    if len(x) == 2:
        for (a, fa), (b, fb), (c, fc) in \
                itertools.combinations(zip(cloud, values), 3):
            ab = (b[0] - a[0], b[1] - a[1])
            ac = (c[0] - a[0], c[1] - a[1])
            ax = (x[0] - a[0], x[1] - a[1])
            D = _cross(ab, ac)
            if D == 0:
                continue
            lb, lc = Fraction(_cross(ax, ac), D), Fraction(_cross(ab, ax), D)
            la = 1 - lb - lc
            if la >= 0 and lb >= 0 and lc >= 0:
                cand = la * fa + lb * fb + lc * fc
                best = cand if best is None else min(best, cand)
    return best


def _check_relax(inst, rep):
    d = inst.data
    cloud = list(_box(*d["box"]))
    values = [_poly_value(d["monomials"], p) for p in cloud]
    env = [lower_envelope(cloud, values, x) for x in cloud]
    relax = [x for x, e in zip(cloud, env) if e <= 0]
    ki = [x for x, v in zip(cloud, values) if v <= 0]
    condition = all(e > v - 1 for e, v in zip(env, values))
    got_relax = [_ints(r) for r in _rows(rep["relaxation_points"])]
    got_ki = [_ints(r) for r in _rows(rep["ki_points"])]
    inequalities = []
    for row in _rows(rep["inequalities"]):
        lhs, _, rhs = row.partition(" <= ")
        inequalities.append((tuple(Fraction(v) for v in lhs.split()),
                             Fraction(rhs)))
    # the printed H-description must cut out exactly the relaxation points
    cut = [x for x in cloud if _inside(*zip(*inequalities), x)] \
        if inequalities else cloud
    ok = got_relax == relax and got_ki == ki and cut == relax and \
        rep["ki_equal"] == ("true" if relax == ki else "false") and \
        rep["condition_holds"] == ("true" if condition else "false")
    return ok, "relaxation differs from the lower envelope", len(cloud)


def _check_indepsys(inst, rep):
    d = inst.data
    w, a, term = d["weights"], d["a"], d["term"]
    n = len(w)
    members = set()
    for g in d["gens"]:
        support = [j for j in range(n) if g[j]]
        for bits in itertools.product((0, 1), repeat=len(support)):
            x = [0] * n
            for j, bit in zip(support, bits):
                x[j] = bit
            members.add(tuple(x))
    image = sorted({_dot(w, x) for x in members})
    x_max, x = _ints(rep["x_max"]), _ints(rep["solution"])
    best = int(rep["best_weight"])
    below_max = [y for y in members
                 if all(yi <= mi for yi, mi in zip(y, x_max))]
    lower = sorted({_dot(w, y) for y in below_max})

    def f(v):
        return separable_value(term, v)

    better = tuple(v for v in image if f(v) < f(best))
    evaluations = 1
    for ai in a:
        evaluations *= 1 + sum(x_max[j] for j in range(n) if w[j] == ai)
    ok = (x_max in members and _dot(w, x_max) == image[-1]
          == int(rep["max_weight"])
          and x in below_max and _dot(w, x) == best
          and f(best) == min(f(v) for v in lower)
          and _ints(rep["lower_image"]) == tuple(lower)
          and _ints(rep["image"]) == tuple(image)
          and _ints(rep["better_values"]) == better
          and int(rep["gap"]) == len(better)
          and int(rep["evaluations"]) == evaluations)
    return ok, "indepsys report differs from enumeration", n


_CHECKS = {"count": _check_count, "optimize": _check_optimize,
           "graver": _check_graver, "nfold": _check_nfold,
           "convexmax": _check_convexmax, "relax": _check_relax,
           "indepsys": _check_indepsys}


def check(inst, rc, stdout: str):
    """(ok, message, points) for one solve's exit code and report."""
    if rc != inst.expect:
        return False, f"exit code {rc}, expected {inst.expect}", 0
    if rc != 0 and stdout:
        return False, "report printed on a failing exit", 0
    try:
        return _CHECKS[inst.argv[0]](inst, parse_report(stdout))
    except (KeyError, ValueError, IndexError) as e:
        return False, f"unreadable report: {e!r}", 0
