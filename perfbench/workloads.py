"""Seeded problem generators for the two workloads.

``lattice`` drives count, optimize, relax and indepsys: every layer that
builds generating functions or solves LPs.  ``fiber`` drives graver,
nfold and convexmax, which reach neither, so each workload is the other's
bypass.

A workload is a fixed cycle of instance classes.  Instance i belongs to
class ``CYCLES[workload][i % len(cycle)]`` and draws its parameters from
a generator seeded by (workload, seed, i), so the class mix of a run is
the same for every seed and only the draws change.  A draw whose key
already occurred in the run is drawn again, so no instance repeats.  The
key is the problem text, except in the fiber classes: each of them
completes the Graver basis of its constraint matrix, which depends on the
matrix alone, so there the matrix is the key and no two solves of a run
share a basis.

Each instance carries what the independent reference in ``reference.py``
needs to check the answer; nothing here calls latticeopt.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction


@dataclass
class Instance:
    cls: str                 # class name, for the instance mix
    argv: tuple              # command and flags; the file path is added
    text: str                # problem file
    expect: int              # expected exit code
    dim: int
    data: dict = field(default_factory=dict)
    key: object = None       # what makes two draws the same instance

    def __post_init__(self):
        if self.key is None:
            self.key = self.text


def _fmt(x) -> str:
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else \
        f"{x.numerator}/{x.denominator}"


def _rows_text(A, b) -> str:
    return "".join(" ".join(_fmt(v) for v in a) + " <= " + _fmt(beta) + "\n"
                   for a, beta in zip(A, b))


def _box_rows(lo, hi):
    d = len(lo)
    A, b = [], []
    for i in range(d):
        e = tuple(int(j == i) for j in range(d))
        A += [e, tuple(-v for v in e)]
        b += [hi[i], -lo[i]]
    return A, b


def _cut_through(rng, center, span=2):
    """Random row c with c.center < beta, so the cut keeps an open set."""
    d = len(center)
    while True:
        c = tuple(rng.randint(-span, span) for _ in range(d))
        # axis cuts only shrink the box; ask for a genuine facet
        if sum(1 for v in c if v) >= 2:
            break
    top = sum(ci * m for ci, m in zip(c, center))
    return c, math.floor(top) + rng.randint(1, 2)


def _stratum(k, options):
    """The k-th draw of a class takes its size from a fixed rotation, so
    every run holds the same sizes in the same proportions."""
    options = tuple(options)
    return options[k % len(options)]


def _polytope(A, b, box, d, cls, **extra):
    return Instance(cls, ("count",), "POLYTOPE\n" + _rows_text(A, b), 0, d,
                    dict(A=A, b=b, box=box, **extra))


# ---------------------------------------------------------------------------
# count

def _count_polytope(rng, d, cuts):
    hi = tuple(rng.randint(3, 6) if d == 2 else rng.randint(2, 4)
               for _ in range(d))
    lo = (0,) * d
    A, b = _box_rows(lo, hi)
    center = tuple(Fraction(h, 2) for h in hi)
    for _ in range(cuts):
        c, beta = _cut_through(rng, center)
        A.append(c)
        b.append(beta)
    return _polytope(A, b, (lo, hi), d, f"polytope{d}")


def count_polytope2(rng, base, k):
    return _count_polytope(rng, 2, _stratum(k, (2, 3, 4)))


def count_polytope3(rng, base, k):
    return _count_polytope(rng, 3, 2)


def _simplex(rng, d, smax):
    s = rng.randint(d + 1, smax)
    order = list(range(1, d + 1))
    rng.shuffle(order)
    A = [tuple(order)] + [tuple(-int(j == i) for j in range(d))
                          for i in range(d)]
    b = [s] + [0] * d
    hi = tuple(s // a for a in order)
    return _polytope(A, b, ((0,) * d, hi), d, f"simplex{d}")


def count_simplex3(rng, base, k):
    return _simplex(rng, 3, 60)


def count_simplex4(rng, base, k):
    return _simplex(rng, 4, 24)


def count_dilate(rng, base, k, t):
    """t-th dilate of the ladder's base polygon: all dilates share cones."""
    hi = tuple(base.randint(2, 5) for _ in range(2))
    A, b = _box_rows((0, 0), hi)
    center = tuple(Fraction(h, 2) for h in hi)
    for _ in range(base.randint(1, 2)):
        c, beta = _cut_through(base, center)
        A.append(c)
        b.append(beta)
    b = [t * beta for beta in b]
    return _polytope(A, b, ((0, 0), tuple(t * h for h in hi)), 2,
                     "dilate2", t=t)


def count_empty(rng, base, k):
    d = _stratum(k, (2, 3))
    hi = tuple(rng.randint(2, 5) for _ in range(d))
    A, b = _box_rows((0,) * d, hi)
    c, beta = _cut_through(rng, tuple(Fraction(h, 2) for h in hi))
    gap = Fraction(rng.randint(1, 3), rng.randint(1, 2))
    A += [c, tuple(-v for v in c)]
    b += [beta, -beta - gap]
    inst = _polytope(A, b, ((0,) * d, hi), d, "empty")
    inst.expect = 2
    return inst


def count_unbounded(rng, base, k):
    d = _stratum(k, (2, 3))
    ray = tuple(rng.randint(1, 2) for _ in range(d))
    A = [tuple(-int(j == i) for j in range(d)) for i in range(d)]
    b = [0] * d
    while len(A) < d + 2:
        c = tuple(rng.randint(-2, 2) for _ in range(d))
        if any(c) and sum(ci * ri for ci, ri in zip(c, ray)) <= 0:
            A.append(c)
            b.append(rng.randint(0, 4))
    inst = _polytope(A, b, None, d, "unbounded", ray=ray)
    inst.expect = 3
    return inst


def count_flat(rng, base, k):
    """Lower-dimensional: a box cut by an equality through a lattice point."""
    d = _stratum(k, (2, 3))
    hi = tuple(rng.randint(3, 5) if d == 2 else rng.randint(2, 3)
               for _ in range(d))
    A, b = _box_rows((0,) * d, hi)
    while True:
        c = tuple(rng.randint(-2, 2) for _ in range(d))
        if sum(1 for v in c if v) >= 2:
            break
    p = tuple(rng.randint(1, h - 1) for h in hi)
    beta = sum(ci * pi for ci, pi in zip(c, p))
    A += [c, tuple(-v for v in c)]
    b += [beta, -beta]
    return _polytope(A, b, ((0,) * d, hi), d, "flat")


# ---------------------------------------------------------------------------
# optimize

def _poly_text(monomials) -> str:
    return "POLY\n" + "".join(_fmt(c) + " " + " ".join(map(str, e)) + "\n"
                              for c, e in monomials)


def _optimize(cls, A, b, box, monomials, eps, d, guarantee):
    text = "POLYTOPE\n" + _rows_text(A, b) + "\n" + _poly_text(monomials)
    return Instance(cls, ("optimize", "--epsilon", eps), text, 0, d,
                    dict(A=A, b=b, box=box, monomials=monomials,
                         eps=Fraction(eps), guarantee=guarantee))


def optimize_box2(rng, base, k):
    """x*y-type objective, nonnegative on the box: the relative guarantee."""
    a, c = _stratum(k, ((1, 1), (1, 2), (2, 1)))
    lo = (rng.randint(0, 4), rng.randint(0, 4))
    hi = (lo[0] + a, lo[1] + c)
    A, b = _box_rows(lo, hi)
    monomials = [(1, (1, 1)), (rng.randint(0, 2), (1, 0)),
                 (rng.randint(0, 2), (0, 1))]
    return _optimize("box2", A, b, (lo, hi), [m for m in monomials if m[0]],
                     _stratum(k // 3, ("1/2", "1/4")), 2, "relative")


def optimize_triangle2(rng, base, k):
    p, q = _stratum(k, ((1, 1), (1, 2), (2, 1)))
    r = 2 if p == q else rng.randint(2, 3)
    x0, y0 = rng.randint(0, 4), rng.randint(0, 4)
    A = [(p, q), (-1, 0), (0, -1)]
    b = [r + p * x0 + q * y0, -x0, -y0]
    box = ((x0, y0), (x0 + r // p, y0 + r // q))
    monomials = [(1, (1, 1)), (rng.randint(1, 2), (1, 0)),
                 (rng.randint(1, 2), (0, 1))]
    return _optimize("triangle2", A, b, box, monomials,
                     _stratum(k // 3, ("1/2", "1/4")), 2, "relative")


def _interval_signed(rng, eps, L):
    """Objective changing sign on [a, a + L]: the shifted-range path."""
    a = rng.randint(0, 6)
    A, b = _box_rows((a,), (a + L,))
    c = rng.randint(2 * a + 4, 2 * (a + L))
    m = c // 2
    # f = x (c - x) - d is negative at a and positive at m
    d = rng.randint(a * (c - a) + 1, m * (c - m) - 1)
    monomials = [(-1, (2,)), (c, (1,)), (-d, (0,))]
    return _optimize("interval1_signed", A, b, ((a,), (a + L,)), monomials,
                     eps, 1, "shifted-range")


def optimize_interval_half(rng, base, k):
    return _interval_signed(rng, "1/2", _stratum(k, range(5, 17)))


def optimize_interval_quarter(rng, base, k):
    return _interval_signed(rng, "1/4", _stratum(k, range(10, 25, 2)))


# ---------------------------------------------------------------------------
# fiber: graver, nfold, convexmax

def _nfold_matrix(A1, A2, n):
    t = len(A1[0])
    rows = [tuple(v for _ in range(n) for v in row) for row in A1]
    for k in range(n):
        for row in A2:
            rows.append(tuple(row[j - k * t] if k * t <= j < (k + 1) * t
                              else 0 for j in range(n * t)))
    return tuple(rows)


def _nfold_text(A1, A2, n, rhs) -> str:
    out = ["NFOLD", "A1"] + [" ".join(map(str, r)) for r in A1]
    out += ["A2"] + [" ".join(map(str, r)) for r in A2]
    out += [f"n {n}", "b " + " ".join(map(str, rhs))]
    return "\n".join(out) + "\n"


GRAVER_BRUTE = 40


def _bricks(rng):
    """Seeded two-column bricks with entries 1-9: 6561 matrices for each
    n, and a completion cost that stays within a few milliseconds for
    every draw, where three-column bricks range over three orders of
    magnitude."""
    return (tuple(rng.randint(1, 9) for _ in range(2)),), \
        (tuple(rng.randint(1, 9) for _ in range(2)),)


def fiber_graver(rng, base, k):
    """The first GRAVER_BRUTE draws of a run are also checked against the
    brute-force basis, whatever their box size (about 0.05 s each)."""
    n = _stratum(k, (5, 6))
    A1, A2 = _bricks(rng)
    A = _nfold_matrix(A1, A2, n)
    x0 = tuple(rng.randint(0, 2) for _ in range(2 * n))
    rhs = tuple(sum(a * x for a, x in zip(row, x0)) for row in A)
    return Instance("graver", ("graver",), _nfold_text(A1, A2, n, rhs), 0,
                    2 * n, dict(A=A, brute=k < GRAVER_BRUTE), key=A)


def _sep_term(rng, hi):
    kind = rng.choice(("sq", "abs", "pwl"))
    if kind == "pwl":
        slope = rng.randint(0, 3)
        return ("pwl", ((-slope, rng.randint(0, 3)), (slope, 0)))
    return (kind, Fraction(rng.randint(0, 2 * hi), 2))


def _term_text(term) -> str:
    kind, payload = term
    if kind == "pwl":
        return "pwl " + " ".join(_fmt(v) for pair in payload for v in pair)
    if kind == "tab":
        return "tab " + " ".join(_fmt(v) for v in payload)
    return f"{kind} {_fmt(payload)}"


def fiber_nfold(rng, base, k):
    n, t = _stratum(k, (4, 5)), 2
    A1, A2 = _bricks(rng)
    A = _nfold_matrix(A1, A2, n)
    # a brick moves by multiples of A2's kernel vector; room for about two
    # such steps per coordinate leaves most fibers several points, so the
    # augmentation has work to do
    g = math.gcd(*A2[0])
    step = (A2[0][1] // g, A2[0][0] // g)
    u = tuple(2 * step[j % t] + rng.randint(0, 2) for j in range(n * t))
    x0 = tuple(rng.randint(0, ui) for ui in u)
    rhs = tuple(sum(a * x for a, x in zip(row, x0)) for row in A)
    terms = [_sep_term(rng, ui) for ui in u]
    Abox, bbox = _box_rows((0,) * (n * t), u)
    text = _nfold_text(A1, A2, n, rhs) + "\nOBJECTIVE\n" + \
        "".join(_term_text(term) + "\n" for term in terms) + \
        "\nPOLYTOPE\n" + _rows_text(Abox, bbox)
    return Instance("nfold", ("nfold",), text, 0, n * t,
                    dict(A=A, rhs=rhs, u=u, terms=terms), key=A)


def fiber_convexmax(rng, base, k):
    """One row with entries +-1 to +-3: 7776 matrices, where positive
    entries 1-3 give only 243, and a narrower spread of completion cost
    than positive entries 1-4."""
    cols = 5
    A = (tuple(rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(cols)),)
    u = tuple(rng.randint(2, 3) for _ in range(cols))
    x0 = tuple(rng.randint(0, ui) for ui in u)
    rhs = tuple(sum(a * x for a, x in zip(row, x0)) for row in A)
    dims = _stratum(k, (1, 2))
    while True:
        W = tuple(tuple(rng.randint(0, 2) for _ in range(cols))
                  for _ in range(dims))
        if all(any(row) for row in W):
            break
    terms = [(rng.choice(("sq", "abs")), Fraction(rng.randint(0, 6)))
             for _ in range(dims)]
    rows, rhs_rows = [], []
    for a, beta in zip(A, rhs):
        rows += [a, tuple(-v for v in a)]
        rhs_rows += [beta, -beta]
    for j in range(cols):
        rows.append(tuple(int(k == j) for k in range(cols)))
        rhs_rows.append(u[j])
    text = "POLYTOPE\n" + _rows_text(rows, rhs_rows) + "\nWEIGHTS\n" + \
        "".join(" ".join(map(str, w)) + "\n" for w in W) + "\nOBJECTIVE\n" + \
        "".join(_term_text(term) + "\n" for term in terms)
    return Instance("convexmax", ("convexmax",), text, 0, cols,
                    dict(A=A, rhs=rhs, u=u, W=W, terms=terms), key=A)


# ---------------------------------------------------------------------------
# relax: relax and indepsys

def _relax_box2(rng, k, shapes):
    a, c = _stratum(k, shapes)
    lo = (rng.randint(-1, 0), rng.randint(-1, 0))
    hi = (lo[0] + a, lo[1] + c)
    A, b = _box_rows(lo, hi)
    monomials = [(rng.randint(1, 3), (2, 0)), (rng.randint(1, 3), (0, 2)),
                 (rng.randint(-1, 1), (1, 1)), (rng.randint(-2, 2), (1, 0)),
                 (-rng.randint(2, 12), (0, 0))]
    monomials = [m for m in monomials if m[0]]
    text = "POLYTOPE\n" + _rows_text(A, b) + "\n" + _poly_text(monomials)
    return Instance(f"relax2_{(a + 1) * (c + 1)}pt", ("relax",), text, 0, 2,
                    dict(box=(lo, hi), monomials=monomials))


def relax_box2_6pt(rng, base, k):
    return _relax_box2(rng, k, ((1, 2), (2, 1)))


def relax_box2_8pt(rng, base, k):
    return _relax_box2(rng, k, ((1, 3), (3, 1)))


def relax_interval(rng, base, k):
    lo = rng.randint(-2, 0)
    hi = lo + _stratum(k, range(4, 9))
    A, b = _box_rows((lo,), (hi,))
    monomials = [(rng.randint(1, 3), (2,)), (rng.randint(-4, 4), (1,)),
                 (-rng.randint(1, 20), (0,))]
    monomials = [m for m in monomials if m[0]]
    text = "POLYTOPE\n" + _rows_text(A, b) + "\n" + _poly_text(monomials)
    return Instance("relax1", ("relax",), text, 0, 1,
                    dict(box=((lo,), (hi,)), monomials=monomials))


_TUPLES = ((1, 2), (2, 3), (1, 3), (3, 5), (1, 2, 3), (2, 3, 5))


def relax_indepsys(rng, base, k):
    n = _stratum(k, range(8, 13))
    a = rng.choice(_TUPLES)
    weights = tuple(rng.choice(a) for _ in range(n))
    gens = []
    for _ in range(rng.randint(2, 3)):
        gens.append(tuple(int(rng.random() < 0.6) for _ in range(n)))
    top = sum(weights)
    kind = rng.choice(("sq", "abs", "pwl", "tab"))
    if kind == "tab":
        term = ("tab", tuple(Fraction(rng.randint(0, 9))
                             for _ in range(top + 1)))
    elif kind == "pwl":
        term = ("pwl", ((Fraction(-1), Fraction(rng.randint(0, top))),
                        (Fraction(1), Fraction(-rng.randint(0, top)))))
    else:
        term = (kind, Fraction(rng.randint(0, top)))
    text = "INDEP\n" + "".join("".join(map(str, g)) + "\n" for g in gens) + \
        "\nWEIGHTS\n" + " ".join(map(str, weights)) + "\n\nTUPLE\n" + \
        " ".join(map(str, a)) + "\n\nOBJECTIVE\n" + _term_text(term) + "\n"
    return Instance("indepsys", ("indepsys",), text, 0, n,
                    dict(gens=gens, weights=weights, a=a, term=term))


# ---------------------------------------------------------------------------
# cycles

def _dilates(t):
    def make(rng, base, k):
        return count_dilate(rng, base, k, t)
    make.offset = t - 1          # index distance to the ladder's t = 1 draw
    return make


# Class order within a cycle interleaves light and heavy draws.  The class
# shares are chosen so that the median and the 90th percentile of solve
# time fall where many solves lie close together, not in a gap between
# classes.  On lattice, 18 of 79 solves take milliseconds (indepsys and
# the degenerate inputs) and the next 24, the 3-D simplices and the
# dilates, share one narrow spread of solve times that holds the median;
# the 4-D simplices (5 of 79) share another that holds the 90th
# percentile.
_COUNT = (
    count_polytope2, count_simplex3, count_polytope3, _dilates(1),
    _dilates(2), _dilates(3), count_simplex3, count_empty,
    count_polytope2, count_simplex3, count_polytope3, count_simplex4,
    count_simplex3, _dilates(1), _dilates(2), _dilates(3),
    count_polytope2, count_simplex3, count_polytope3, count_flat,
    count_simplex3, count_unbounded, count_polytope2, count_simplex3,
    count_polytope3, _dilates(1), _dilates(2), _dilates(3),
    count_simplex3, count_empty, count_polytope2, count_simplex4,
    count_polytope3, count_simplex3, _dilates(1), _dilates(2),
    _dilates(3), count_polytope2, count_simplex4, count_simplex3,
    count_polytope3, count_unbounded, count_simplex3, count_simplex4,
    count_polytope3, count_polytope2, count_simplex3, count_simplex4,
)
_OPTIMIZE = (
    optimize_interval_quarter, optimize_triangle2, optimize_interval_half,
    optimize_interval_quarter, optimize_interval_quarter, optimize_box2,
    optimize_interval_quarter, optimize_interval_half,
    optimize_interval_quarter, optimize_interval_quarter,
)
_RELAX = (
    relax_box2_6pt, relax_indepsys, relax_box2_8pt, relax_indepsys,
    relax_interval, relax_indepsys, relax_indepsys, relax_box2_6pt,
    relax_indepsys, relax_interval, relax_indepsys, relax_indepsys,
    relax_box2_8pt, relax_indepsys, relax_indepsys, relax_box2_6pt,
    relax_indepsys, relax_indepsys, relax_indepsys, relax_indepsys,
    relax_indepsys,
)
CYCLES = {
    # every command that reaches the generating-function or LP layers
    "lattice": _COUNT + _OPTIMIZE + _RELAX,
    # the Graver and fiber commands, which reach neither
    # nfold and graver solves (7 of 9) share one spread of a few
    # milliseconds and hold the median; convexmax (2 of 9, tens of
    # milliseconds) holds the 90th percentile
    "fiber": (
        fiber_nfold, fiber_graver, fiber_nfold, fiber_convexmax,
        fiber_nfold, fiber_nfold, fiber_graver, fiber_nfold, fiber_convexmax,
    ),
}

# instance drawn for the warm-up solve, before timing and in set-up probes
WARMUP = {"lattice": count_simplex3, "fiber": fiber_nfold}


def warmup(workload: str) -> Instance:
    """The same small instance for every seed, so set-up time does not
    depend on the draw."""
    rng = random.Random(f"{workload}:warmup")
    return WARMUP[workload](rng, rng, 0)


def draw(workload: str, seed: int):
    """The workload's instances for `seed`, in order, without end."""
    cycle = CYCLES[workload]
    seen = {warmup(workload).key}
    drawn = {}
    for i in itertools.count():
        make = cycle[i % len(cycle)]
        k = drawn[make] = drawn.get(make, -1) + 1
        anchor = i - getattr(make, "offset", 0)
        for attempt in range(1000):
            rng = random.Random(f"{workload}:{seed}:{i}:{attempt}")
            base = random.Random(f"{workload}:{seed}:{anchor}:base:{attempt}")
            inst = make(rng, base, k)
            if inst.key not in seen:
                break
        else:
            raise RuntimeError(f"{workload}: no fresh draw for instance {i}")
        seen.add(inst.key)
        yield inst
