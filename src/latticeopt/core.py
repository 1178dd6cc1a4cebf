"""Exact arithmetic kernel: rational vectors, integer linear algebra, lattice
reduction, and an exact fraction-free simplex solver.

Everything downstream builds on this module.  All numbers are ints or
`fractions.Fraction`; nothing here ever touches floating point, so results
are reproducible bit for bit.  One fraction-free elimination (`eliminate`)
gives rank, determinants, scaled inverses, null vectors and the vertex
solves of `polyhedra`, and it shares its integer pivot with the simplex.
`record` makes the frozen value classes of every module.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from math import gcd
from typing import Optional, Sequence


Rat = Fraction

# ---------------------------------------------------------------------------
# rationals

def rat(p, q=1) -> Fraction:
    """Reduced rational with positive denominator (Fraction guarantees both)."""
    return Fraction(p, q)


def parse_rat(text: str) -> Fraction:
    """Parse 'p' or 'p/q' into a Fraction."""
    return Fraction(text.strip())


def format_rat(x: Fraction) -> str:
    """Render a rational as 'p' or 'p/q', always reduced."""
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


# ---------------------------------------------------------------------------
# vectors and matrices (tuples; entries int or Fraction)

def dot(u: Sequence, v: Sequence):
    if len(u) != len(v):
        raise ValueError("dimension mismatch")
    return sum(a * b for a, b in zip(u, v))


def vadd(u, v):
    return tuple(a + b for a, b in zip(u, v))


def vsub(u, v):
    return tuple(a - b for a, b in zip(u, v))


def vneg(u):
    return tuple(-a for a in u)


def vscale(c, u):
    return tuple(c * a for a in u)


def mat_vec(M, x):
    return tuple(dot(row, x) for row in M)


def transpose(M):
    return tuple(zip(*M)) if M else ()


def identity_matrix(n: int):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def vec_gcd(v) -> int:
    g = 0
    for a in v:
        g = gcd(g, abs(a))
    return g


def primitive(v) -> tuple:
    """Divide an integer vector by the gcd of its entries (direction kept)."""
    g = vec_gcd(v)
    if g == 0:
        raise ValueError("zero vector has no primitive form")
    return tuple(a // g for a in v)


def lex_canonical(v) -> tuple:
    """Primitive representative of the line through v whose first nonzero
    entry is positive."""
    p = primitive(v)
    for a in p:
        if a != 0:
            return p if a > 0 else vneg(p)
    raise ValueError("zero vector")


def clear_denominators(v) -> tuple:
    """Scale a vector of ints and Fractions by the positive lcm of its
    denominators: integer tuple."""
    lcm = math.lcm(*(x.denominator for x in v))
    return tuple(x.numerator * (lcm // x.denominator) for x in v)


def integer_vector(v) -> tuple:
    """v as a tuple of ints; ValueError on any entry that is not an integer.

    Integral Fractions are accepted.
    """
    v = tuple(v)
    out = tuple(map(int, v))
    if out != v:
        raise ValueError(f"non-integer entry in {v}")
    return out


# ---------------------------------------------------------------------------
# one fraction-free elimination: rank, determinants, inverses, kernels

def eliminate(M) -> tuple:
    """Fraction-free Gauss-Jordan elimination of a matrix of ints and
    Fractions (Bareiss 1968), on the simplex's own _integer_pivot.

    Each row is first scaled to integers by clear_denominators, which
    changes neither its row space nor the solutions of a system it
    encodes.  Columns are taken left to right; a column becomes a pivot
    when some row not yet used has a nonzero entry in it, so the pivot
    columns are the greedy column basis.  Returns (rows, D, pivots):
    rows is |D| times the reduced row echelon form, with its zero rows
    last, and pivots lists the pivot columns, so the rank is
    len(pivots).  |D| is the pivot minor, and the sign of D follows
    every row swap and every negative pivot, so for a square integer M
    of full rank D = det M and [M | I] reduces to [|D|*I | |D|*M^{-1}].
    """
    rows = [list(clear_denominators(row)) for row in M]
    D = 1
    sign = 1
    pivots = []
    for c in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        if r == len(rows):
            break
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        if piv != r:
            rows[r], rows[piv] = rows[piv], rows[r]
            sign = -sign
        if rows[r][c] < 0:
            sign = -sign
        D = _integer_pivot(rows, r, c, D)
        pivots.append(c)
    return rows, sign * D, pivots


def _square_integer(M) -> list:
    n = len(M)
    if any(len(row) != n for row in M):
        raise ValueError("matrix not square")
    return [integer_vector(row) for row in M]


def det(M) -> int:
    """Determinant of a square integer matrix: eliminate's signed D."""
    rows = _square_integer(M)
    _, D, pivots = eliminate(rows)
    return D if len(pivots) == len(rows) else 0


def scaled_inverse(B) -> tuple:
    """(D, A) with D = |det B| and A = D * B^{-1}, an integer matrix, for a
    square nonsingular integer B; ValueError when B is singular.

    Both come from one elimination of [B | I].
    """
    n = len(B)
    aug = [row + e for row, e in zip(_square_integer(B), identity_matrix(n))]
    rows, D, pivots = eliminate(aug)
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return abs(D), tuple(tuple(row[n:]) for row in rows)


def rational_rank(M) -> int:
    """Rank over the rationals."""
    return len(eliminate(M)[2])


def null_vector(M) -> Optional[tuple]:
    """The primitive integer vector spanning the kernel of M when M has
    rank one less than its column count, up to sign; None otherwise.

    With f the one non-pivot column, x_f = |D| and x_p = -rows[i][f]
    for the pivot column p of reduced row i.
    """
    n = len(M[0]) if M else 0
    rows, D, pivots = eliminate(M)
    if len(pivots) != n - 1:
        return None
    f = next(j for j in range(n) if j not in pivots)
    x = [0] * n
    x[f] = abs(D)
    for row, p in zip(rows, pivots):
        x[p] = -row[f]
    return primitive(x)


# ---------------------------------------------------------------------------
# Hermite normal form, integer kernels and solves

def hnf(M) -> tuple:
    """Row Hermite normal form with transform:  returns (H, U), H = U*M.

    H is in row echelon form with positive pivots, zeros below each pivot,
    and entries above a pivot reduced modulo it (0 <= entry < pivot).
    U is unimodular.  Zero rows of H sit at the bottom.
    """
    m = len(M)
    h = [list(integer_vector(row)) for row in M]
    ncols = len(h[0]) if m else 0
    u = [list(row) for row in identity_matrix(m)]
    row = 0
    for col in range(ncols):
        if row == m:
            break
        # euclidean elimination below position (row, col)
        while True:
            nz = [i for i in range(row, m) if h[i][col] != 0]
            if not nz:
                break
            piv = min(nz, key=lambda i: abs(h[i][col]))
            h[row], h[piv] = h[piv], h[row]
            u[row], u[piv] = u[piv], u[row]
            if h[row][col] < 0:
                h[row] = [-x for x in h[row]]
                u[row] = [-x for x in u[row]]
            done = True
            for i in range(row + 1, m):
                if h[i][col] != 0:
                    q = h[i][col] // h[row][col]
                    h[i] = [a - q * b for a, b in zip(h[i], h[row])]
                    u[i] = [a - q * b for a, b in zip(u[i], u[row])]
                    if h[i][col] != 0:
                        done = False
            if done:
                break
        if h[row][col] != 0:
            # reduce entries above the pivot
            for i in range(row):
                q = h[i][col] // h[row][col]
                if q:
                    h[i] = [a - q * b for a, b in zip(h[i], h[row])]
                    u[i] = [a - q * b for a, b in zip(u[i], u[row])]
            row += 1
    return tuple(tuple(r) for r in h), tuple(tuple(r) for r in u)


def kernel_basis(M) -> tuple:
    """Lattice basis of the integer kernel {x in Z^n : M x = 0}.

    Rows of the result generate the kernel lattice (saturated, so every
    integer kernel vector is an integer combination of them).
    """
    Mt = transpose(M)
    if not Mt:
        n = len(M[0]) if M else 0
        return tuple(identity_matrix(n))
    h, u = hnf(Mt)
    out = []
    for hrow, urow in zip(h, u):
        if all(x == 0 for x in hrow):
            out.append(tuple(urow))
    return tuple(out)


def solve_integer(M, b) -> Optional[tuple]:
    """One integer solution of M x = b, or None if there is none."""
    n = len(M[0]) if M else 0
    h, u = hnf(transpose(M))          # h = u * M^T, so M = h^T u^{-T}
    ht = transpose(h)                 # lower-triangular-ish m x n
    # solve ht * y = b by forward substitution over pivot columns of h
    y = [0] * len(h)
    mrows = len(M)
    resid = list(integer_vector(b))
    for j in range(len(h)):
        pivot_col = next((c for c in range(mrows) if h[j][c] != 0), None)
        if pivot_col is None:
            continue
        if resid[pivot_col] % h[j][pivot_col] != 0:
            return None
        y[j] = resid[pivot_col] // h[j][pivot_col]
        if y[j]:
            for c in range(mrows):
                resid[c] -= y[j] * h[j][c]
    if any(resid):
        return None
    x = mat_vec(transpose(u), y)
    return tuple(int(v) for v in x)


# ---------------------------------------------------------------------------
# LLL lattice basis reduction

def lll_reduce(basis, delta: Fraction = Fraction(3, 4)) -> tuple:
    """LLL-reduce the rows of an integer basis (exact rational arithmetic).

    Raises ValueError on linearly dependent rows.  The output spans the same
    lattice, is size-reduced (|mu_ij| <= 1/2) and satisfies the Lovasz
    condition for the given delta.
    """
    reduced, _ = lll_reduce_with_transform(basis, delta)
    return reduced


def lll_reduce_with_transform(basis, delta: Fraction = Fraction(3, 4)) -> tuple:
    """Like lll_reduce but also returns unimodular U with  reduced = U * basis."""
    b = [list(integer_vector(row)) for row in basis]
    n = len(b)
    u = [list(row) for row in identity_matrix(n)]

    def gram_schmidt():
        star = []
        mu = [[Fraction(0)] * n for _ in range(n)]
        norms = []
        for i in range(n):
            v = [Fraction(x) for x in b[i]]
            for j in range(i):
                if norms[j] == 0:
                    raise ValueError("linearly dependent rows")
                mu[i][j] = Fraction(dot(b[i], star[j])) / norms[j]
                v = [a - mu[i][j] * s for a, s in zip(v, star[j])]
            star.append(v)
            norms.append(dot(v, v))
            if norms[i] == 0:
                raise ValueError("linearly dependent rows")
        return star, mu, norms

    star, mu, norms = gram_schmidt()
    k = 1
    while k < n:
        for j in range(k - 1, -1, -1):
            if abs(mu[k][j]) > Fraction(1, 2):
                q = round(mu[k][j])
                b[k] = [a - q * c for a, c in zip(b[k], b[j])]
                u[k] = [a - q * c for a, c in zip(u[k], u[j])]
                star, mu, norms = gram_schmidt()
        if norms[k] >= (delta - mu[k][k - 1] ** 2) * norms[k - 1]:
            k += 1
        else:
            b[k], b[k - 1] = b[k - 1], b[k]
            u[k], u[k - 1] = u[k - 1], u[k]
            star, mu, norms = gram_schmidt()
            k = max(k - 1, 1)
    return tuple(tuple(r) for r in b), tuple(tuple(r) for r in u)


# ---------------------------------------------------------------------------
# frozen records: the library's value classes

class uncompared:
    """The default of a record field that ==, hash and the repr leave
    out."""
    __slots__ = ("default",)

    def __init__(self, default):
        self.default = default


def record(cls):
    """Make cls a frozen record of its annotated fields.

    The methods match those of dataclass(frozen=True) but are closures,
    not generated source.  __init__ takes the fields in order,
    positionally or by keyword, fills in defaults and calls
    __post_init__ if cls has one; __post_init__ normalizes a field
    with object.__setattr__.  == holds between instances of the same
    class with equal compared fields, hash is the hash of the tuple of
    those fields, and the repr is ``Name(field=value, ...)``.  A field
    whose default is wrapped in `uncompared` is left out of ==, hash
    and the repr.  Fields cannot be assigned or deleted.
    """
    params = tuple(cls.__dict__.get("__annotations__", {}))
    defaults, hidden = {}, set()
    for name in params:
        if name in cls.__dict__:
            default = cls.__dict__[name]
            if isinstance(default, uncompared):
                hidden.add(name)
                default = default.default
                setattr(cls, name, default)
            defaults[name] = default
    arity = len(params)
    # object.__setattr__ keeps the fields in the instance's inline values;
    # filling __dict__ instead would make every later field read slower
    set_field = object.__setattr__
    post_init = getattr(cls, "__post_init__", None)
    compared = tuple(n for n in params if n not in hidden)
    if len(compared) == 1:
        get = operator.attrgetter(compared[0])

        def key(self):
            return (get(self),)
    else:
        key = operator.attrgetter(*compared)

    def bind(self, args, kwargs):
        """Set the fields from positional arguments, then keywords, then
        defaults."""
        given = len(args)
        if given > arity:
            raise TypeError(f"{cls.__name__}() takes {arity} arguments, "
                            f"{given} given")
        i = used = 0
        for name in params:
            if i < given:
                value = args[i]
            elif name in kwargs:
                value = kwargs[name]
                used += 1
            elif name in defaults:
                value = defaults[name]
            else:
                raise TypeError(f"{cls.__name__}() missing argument "
                                f"{name!r}")
            set_field(self, name, value)
            i += 1
        if used != len(kwargs):
            stray = next(k for k in kwargs if k not in params[given:])
            raise TypeError(f"{cls.__name__}() got an unexpected or "
                            f"repeated argument {stray!r}")

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != arity:
            bind(self, args, kwargs)
        else:
            # one argument per field, the common call; indexing args is
            # faster here than zip
            i = 0
            for name in params:
                set_field(self, name, args[i])
                i += 1
        if post_init is not None:
            post_init(self)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return key(self) == key(other)
        return NotImplemented

    def __hash__(self):
        return hash(key(self))

    def __repr__(self):
        return (f"{type(self).__qualname__}("
                + ", ".join(f"{n}={getattr(self, n)!r}" for n in compared)
                + ")")

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    for method in (__init__, __eq__, __hash__, __repr__, __setattr__,
                   __delattr__):
        method.__qualname__ = f"{cls.__qualname__}.{method.__name__}"
        setattr(cls, method.__name__, method)
    return cls


# ---------------------------------------------------------------------------
# linear programming (exact fraction-free two-phase simplex, Bland's rule)

class LPError(Exception):
    pass


_FLIP = {"<=": ">=", "=": "=", ">=": "<="}


@record
class LPProblem:
    """max (or min) c.x subject to rows A x {<=,=,>=} b and optional bounds.

    Entries are ints or Fractions.  senses is one string per row: '<=',
    '=', '>='.  lower/upper are per variable, None meaning unbounded on
    that side.  Mismatched lengths or an unknown sense raise LPError.
    Empty constraint data is allowed: with no rows and no bounds the
    problem is unbounded unless the objective is zero, in which case the
    origin is reported optimal.
    """
    c: tuple
    A: tuple
    b: tuple
    senses: tuple
    lower: tuple = None
    upper: tuple = None
    maximize: bool = True

    def __post_init__(self):
        n = len(self.c)
        if self.lower is None:
            object.__setattr__(self, "lower", tuple([None] * n))
        if self.upper is None:
            object.__setattr__(self, "upper", tuple([None] * n))
        m = len(self.A)
        if len(self.b) != m or len(self.senses) != m:
            raise LPError(f"{m} rows, {len(self.b)} right-hand sides and "
                          f"{len(self.senses)} senses")
        for row in self.A:
            if len(row) != n:
                raise LPError(f"row of length {len(row)} for {n} variables")
        if len(self.lower) != n or len(self.upper) != n:
            raise LPError(f"{len(self.lower)} lower and {len(self.upper)} "
                          f"upper bounds for {n} variables")
        for sense in self.senses:
            if sense not in _FLIP:
                raise LPError(f"unknown sense {sense!r}")


@record
class LPResult:
    """status is 'optimal', 'infeasible' or 'unbounded'.

    When optimal, x is an optimal point (which one, when there are
    several, is unspecified) and value = c.x; otherwise both are None.
    """
    status: str
    x: Optional[tuple]
    value: Optional[Fraction]


def _integer_pivot(rows, r, e, D) -> int:
    """Integer-preserving pivot on rows[r][e]; returns the new denominator.

    Each row, objective rows included, holds D times its rational tableau
    row, so a basic variable's value is its row's last entry over D.
    Every updated entry is a minor of the starting integer matrix, so the
    division by D is exact (Bareiss 1968, Edmonds 1967); a row with a
    zero in the pivot column still moves to the new denominator.  The
    pivot row itself is unchanged.  D stays positive: after a negative
    pivot every row changes sign.  Two callers share this pivot: the
    simplex (_simplex, solve_lp) and the Gauss-Jordan elimination
    eliminate.
    """
    prow = rows[r]
    p = prow[e]
    for i, row in enumerate(rows):
        if i == r:
            continue
        f = row[e]
        if f:
            rows[i] = [(a * p - f * b) // D for a, b in zip(row, prow)]
        elif p != D:
            rows[i] = [a * p // D for a in row]
    if p < 0:
        rows[:] = [[-a for a in row] for row in rows]
        return -p
    return p


def _simplex(rows, m, basis, ncols, D) -> tuple:
    """Maximize over the basic-feasible tableau rows[:m], Bland's rule.

    rows[m] holds D times the reduced costs of the first ncols columns,
    and -D times the objective value as its last entry.  Returns
    ('optimal' or 'unbounded', D).
    """
    red = rows[m]
    while True:
        e = next((j for j in range(ncols) if red[j] > 0), None)
        if e is None:
            return "optimal", D
        leave = None
        for i in range(m):
            a = rows[i][e]
            if a > 0:
                if leave is None:
                    leave, num, den = i, rows[i][-1], a
                    continue
                lhs, rhs = rows[i][-1] * den, num * a
                if lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                    leave, num, den = i, rows[i][-1], a
        if leave is None:
            return "unbounded", D
        D = _integer_pivot(rows, leave, e, D)
        basis[leave] = e
        red = rows[m]


def solve_lp(problem: LPProblem) -> LPResult:
    """Exact two-phase simplex on a fraction-free integer tableau.

    A variable with a lower bound becomes lo + y, one with only an upper
    bound up - y, with y >= 0; only free variables are split.  Each row
    is scaled to integers once, and every tableau entry stays an integer
    over one common denominator (see _integer_pivot).  '<=' rows with
    b >= 0 start with their slack basic, the other rows with an
    artificial.  Bland's rule in both phases, so cycling is impossible.
    An optimal result carries an optimal x; which one, when there are
    several, is unspecified.
    """
    n = len(problem.c)
    cols = []            # (variable, +1 or -1) for each column
    offset = [0] * n
    bound_rows = []      # (column, up - lo)
    for j, (lo, up) in enumerate(zip(problem.lower, problem.upper)):
        if lo is not None:
            offset[j] = lo
            cols.append((j, 1))
            if up is not None:
                bound_rows.append((len(cols) - 1, up - lo))
        elif up is not None:
            offset[j] = up
            cols.append((j, -1))
        else:
            cols.append((j, 1))
            cols.append((j, -1))
    k = len(cols)

    lines = []
    for a, sense, rhs in zip(problem.A, problem.senses, problem.b):
        rhs = rhs - sum(aj * oj for aj, oj in zip(a, offset) if oj)
        row = clear_denominators([a[j] * s for j, s in cols] + [rhs])
        lines.append((row, sense))
    for col, width in bound_rows:
        line = [0] * k + [width]
        line[col] = 1
        lines.append((clear_denominators(line), "<="))

    ns = sum(1 for _, sense in lines if sense != "=")
    ncols = k + ns       # artificial columns never enter, so none is kept
    rows = []
    basis = []
    art = []
    slack = k
    for i, (line, sense) in enumerate(lines):
        if line[-1] < 0:
            line = [-v for v in line]
            sense = _FLIP[sense]
        row = list(line[:-1]) + [0] * ns + [line[-1]]
        if sense == "<=":
            row[slack] = 1
            basis.append(slack)
        else:
            if sense == ">=":
                row[slack] = -1
            basis.append(ncols + i)
            art.append(row)
        if sense != "=":
            slack += 1
        rows.append(row)
    m = len(rows)
    sign = 1 if problem.maximize else -1
    cost = clear_denominators([sign * problem.c[j] * s for j, s in cols])
    rows.append(list(cost) + [0] * (ns + 1))

    D = 1
    if art:
        # phase one: maximize minus the sum of the artificials
        rows.insert(m, [sum(col) for col in zip(*art)])
        _, D = _simplex(rows, m, basis, ncols, D)
        if rows[m][-1]:
            return LPResult("infeasible", None, None)
        del rows[m]
        # pivot artificials left at zero out of the basis, or drop their
        # rows when redundant
        i = 0
        while i < len(basis):
            if basis[i] >= ncols:
                e = next((j for j in range(ncols) if rows[i][j]), None)
                if e is None:
                    del rows[i], basis[i]
                    continue
                D = _integer_pivot(rows, i, e, D)
                basis[i] = e
            i += 1
        m = len(basis)

    status, D = _simplex(rows, m, basis, ncols, D)
    if status == "unbounded":
        return LPResult("unbounded", None, None)
    x = [Fraction(o) for o in offset]
    for i, col in enumerate(basis):
        if col < k and rows[i][-1]:
            j, s = cols[col]
            x[j] += s * Fraction(rows[i][-1], D)
    x = tuple(x)
    value = dot([Fraction(v) for v in problem.c], x)
    return LPResult("optimal", x, value)


# ---------------------------------------------------------------------------
# integer roots and a certified ceiling of c*ln(N)

def iroot_floor(x: int, k: int) -> int:
    """Largest r >= 0 with r^k <= x (x >= 0)."""
    if x < 0:
        raise ValueError("negative radicand")
    if x == 0:
        return 0
    r = 1 << ((x.bit_length() + k - 1) // k)
    while True:
        nr = ((k - 1) * r + x // r ** (k - 1)) // k
        if nr >= r:
            break
        r = nr
    while r ** k > x:
        r -= 1
    while (r + 1) ** k <= x:
        r += 1
    return r


def kth_root_floor_rational(x: Fraction, k: int) -> int:
    """Largest integer r with r^k <= x."""
    x = Fraction(x)
    if x < 0:
        raise ValueError("negative radicand")
    r = iroot_floor(x.numerator // x.denominator, k)
    while (r + 1) ** k * x.denominator <= x.numerator:
        r += 1
    while r > 0 and r ** k * x.denominator > x.numerator:
        r -= 1
    return r


def kth_root_ceil_rational(x: Fraction, k: int) -> int:
    """Smallest integer r with r^k >= x."""
    x = Fraction(x)
    if x <= 0:
        return 0
    f = kth_root_floor_rational(x, k)
    if Fraction(f) ** k == x:
        return f
    return f + 1


def _atanh_bounds(num: int, den: int, terms: int) -> tuple:
    """Certified bounds on atanh(num/den) for 0 <= num/den <= 1/3."""
    y = Fraction(num, den)
    if y == 0:
        return Fraction(0), Fraction(0)
    y2 = y * y
    s = Fraction(0)
    t = y
    j = 1
    for _ in range(terms):
        s += t / j
        t *= y2
        j += 2
    # tail < (t/j) / (1 - y^2) <= (9/8) t / j for y <= 1/3
    return s, s + t * Fraction(9, 8) / j


def _ln_bounds(n: int, terms: int) -> tuple:
    """Certified rational bounds L < ln(n) < U for integer n >= 2.

    Splits off the power of two below n, so both series run at argument
    <= 1/3 and converge geometrically: ln n = s ln 2 + 2 atanh((n-2^s)/(n+2^s)).
    """
    s = n.bit_length() - 1
    lo2, hi2 = _atanh_bounds(1, 3, terms)          # atanh(1/3) = ln(2)/2
    lox, hix = _atanh_bounds(n - (1 << s), n + (1 << s), terms)
    return 2 * (s * lo2 + lox), 2 * (s * hi2 + hix)


def ceil_mul_ln(c: Fraction, n: int) -> int:
    """ceil(c * ln(n)) for rational c > 0 and integer n >= 1, certified.

    The log is sandwiched between rational bounds tightened until both
    ends share a ceiling, so the result is never undersized or oversized;
    c*ln(n) itself is irrational for n >= 2, so the loop terminates.
    """
    if n <= 1:
        return 0
    c = Fraction(c)
    terms = 16
    while True:
        lo, hi = _ln_bounds(n, terms)
        klo = math.ceil(c * lo)
        khi = math.ceil(c * hi)
        if klo == khi:
            return klo
        terms *= 2
