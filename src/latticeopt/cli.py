"""Command-line frontend: one plaintext problem format, seven commands.

A problem file is a sequence of sections.  A section starts with its
name alone on a line and runs until the next header; blank lines and
'#' comments are ignored everywhere.

  POLYTOPE   inequality rows "a_1 ... a_n <= b", rational entries "p/q"
  POLY       one monomial per line: "coeff e_1 ... e_n"
  NFOLD      "A1" / "A2" headers followed by integer rows, then
             "n <copies>" and "b <rhs ...>"
  OBJECTIVE  separable terms, one per coordinate: "sq c" for (x-c)^2,
             "abs c" for |x-c|, "pwl a_1 b_1 a_2 b_2 ..." for
             max_j(a_j x + b_j), or "tab v_0 v_1 ..." for an explicit
             value table (indepsys only; tables need not be convex)
  INDEP      independence-system generators as 0/1 strings
  WEIGHTS    integer weight rows
  TUPLE      the primitive weight alphabet, one line of integers

Commands read the sections they need:

  count      POLYTOPE                     lattice points via g(P; 1)
  optimize   POLYTOPE POLY [--epsilon]    FPTAS maximum with guarantee
  nfold      NFOLD OBJECTIVE POLYTOPE     certified n-fold minimum
  graver     NFOLD                        Graver basis listing
  convexmax  POLYTOPE WEIGHTS OBJECTIVE   composite convex maximum
  relax      POLYTOPE POLY                projected relaxation and K_I
  indepsys   INDEP WEIGHTS TUPLE OBJECTIVE  one-call strategy report

nfold and relax read POLYTOPE as an axis-aligned box; convexmax reads
it as a fiber {x in N^n : Ax = b, x <= u} written with each equality as
a pair of opposite rows and each upper bound as a unit row.

Exit codes: 0 success, 2 infeasible, 3 unbounded, 4 parse or usage
error; --brute-force turns a MISMATCH verdict into exit 1.  Reports are
"key: value" lines (or --format json) in a fixed order with rationals
printed exactly as p/q.  --timing writes to stderr so stdout stays
reproducible.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .convexmax import (
    CompositeObjective,
    EdgeDirectionSet,
    lip_oracle,
    maximize_composite,
)
from .core import clear_denominators, dot, format_rat, parse_rat, vneg
from .fptas import SparsePolynomial, maximize
from .genfunc import polyhedron_gf, specialize_at_one
from .graver import (
    Abs,
    NFoldSpec,
    PiecewiseMax,
    SeparableConvexFn,
    Square,
    enumerate_fiber,
    graver_basis,
    nfold_matrix,
    nfold_minimize,
)
from .indepsys import (
    IndependenceSystem,
    PrimitiveTuple,
    WeightProfile,
    naive_strategy,
    r_bound,
)
from .polyhedra import Polyhedron, UnboundedError, bounding_box, is_empty
from .polyrelax import (
    _box_points,
    _cloud_minimum,
    build_lifted,
    check_condition,
    project_with_pi_leq_0,
)

_SECTION_NAMES = ("POLYTOPE", "POLY", "NFOLD", "OBJECTIVE", "INDEP",
                  "WEIGHTS", "TUPLE")
_DESK_LIMIT = 200000


class CLIError(Exception):
    """Carries the process exit code alongside the message."""

    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code
        self.message = message


def _fail(lineno: Optional[int], msg: str) -> CLIError:
    if lineno is None:
        return CLIError(4, msg)
    return CLIError(4, f"line {lineno}: {msg}")


def _rat_tok(tok: str, lineno: int, memo: dict) -> Fraction:
    # memo maps token text to value within one problem file, so parse_rat
    # runs once per distinct text; a bad token is never stored and fails
    # on the line where the parse first meets it
    value = memo.get(tok)
    if value is None:
        try:
            value = memo[tok] = parse_rat(tok)
        except (ValueError, ZeroDivisionError):
            raise _fail(lineno, f"expected a rational, got {tok!r}") from None
    return value


def _int_tok(tok: str, lineno: int) -> int:
    try:
        return int(tok)
    except ValueError:
        raise _fail(lineno, f"expected an integer, got {tok!r}") from None


# ---------------------------------------------------------------------------
# problem files

@dataclass(frozen=True)
class Origin:
    """Source line numbers for diagnostics.  Excluded from equality:
    two files stating the same problem parse to equal ProblemFiles."""

    polytope_rows: tuple[int, ...] = ()
    objective_terms: tuple[int, ...] = ()


@dataclass(frozen=True)
class ProblemFile:
    polytope: Optional[Polyhedron] = None
    poly: Optional[SparsePolynomial] = None
    nfold: Optional[NFoldSpec] = None
    objective: Optional[tuple] = None
    indep: Optional[tuple] = None
    weights: Optional[tuple] = None
    tuple_a: Optional[tuple] = None
    origin: Origin = field(default_factory=Origin, compare=False, repr=False)


def _build_polytope(entries, header, memo):
    rows, rhs, lines = [], [], []
    width = None
    for lineno, toks in entries:
        if len(toks) < 3 or toks[-2] != "<=":
            raise _fail(lineno, "expected 'a_1 ... a_n <= b'")
        a = tuple(_rat_tok(t, lineno, memo) for t in toks[:-2])
        if width is None:
            width = len(a)
        elif len(a) != width:
            raise _fail(lineno,
                        f"row has {len(a)} coefficients, expected {width}")
        rows.append(a)
        rhs.append(_rat_tok(toks[-1], lineno, memo))
        lines.append(lineno)
    if not rows:
        raise _fail(header, "POLYTOPE section is empty")
    return Polyhedron(tuple(rows), tuple(rhs)), tuple(lines)


def _build_poly(entries, header, memo):
    monomials = []
    width = None
    for lineno, toks in entries:
        if len(toks) < 2:
            raise _fail(lineno, "expected 'coeff e_1 ... e_n'")
        c = _rat_tok(toks[0], lineno, memo)
        e = tuple(_int_tok(t, lineno) for t in toks[1:])
        if any(x < 0 for x in e):
            raise _fail(lineno, "exponents must be nonnegative")
        if width is None:
            width = len(e)
        elif len(e) != width:
            raise _fail(lineno, f"monomial has {len(e)} exponents, "
                                f"expected {width}")
        monomials.append((c, e))
    if not monomials:
        raise _fail(header, "POLY section is empty")
    return SparsePolynomial(width, tuple(monomials))


def _build_nfold(entries, header):
    blocks: dict[str, list] = {"A1": [], "A2": []}
    seen: set[str] = set()
    copies = rhs = None
    target = None
    for lineno, toks in entries:
        head = toks[0]
        if head in ("A1", "A2", "n", "b") and head in seen:
            raise _fail(lineno, f"duplicate NFOLD key {head}")
        if head in ("A1", "A2"):
            if len(toks) != 1:
                raise _fail(lineno, f"{head} takes no arguments")
            seen.add(head)
            target = blocks[head]
        elif head == "n":
            if len(toks) != 2:
                raise _fail(lineno, "expected 'n <copies>'")
            seen.add("n")
            copies = _int_tok(toks[1], lineno)
        elif head == "b":
            if len(toks) < 2:
                raise _fail(lineno, "expected 'b <rhs ...>'")
            seen.add("b")
            rhs = tuple(_int_tok(t, lineno) for t in toks[1:])
        else:
            if target is None:
                raise _fail(lineno, "matrix row before an A1/A2 header")
            target.append(tuple(_int_tok(t, lineno) for t in toks))
    if not blocks["A1"] or not blocks["A2"] or copies is None or rhs is None:
        raise _fail(header, "NFOLD needs A1 rows, A2 rows, n and b")
    try:
        return NFoldSpec(tuple(blocks["A1"]), tuple(blocks["A2"]),
                         copies, rhs)
    except ValueError as e:
        raise _fail(header, str(e)) from None


def _build_objective(entries, header, memo):
    terms, lines = [], []
    for lineno, toks in entries:
        kind = toks[0]
        if kind in ("sq", "abs"):
            if len(toks) != 2:
                raise _fail(lineno, f"'{kind}' takes one parameter")
            terms.append((kind, _rat_tok(toks[1], lineno, memo)))
        elif kind == "pwl":
            vals = [_rat_tok(t, lineno, memo) for t in toks[1:]]
            if not vals or len(vals) % 2:
                raise _fail(lineno, "'pwl' needs slope/intercept pairs")
            terms.append(("pwl", tuple(zip(vals[0::2], vals[1::2]))))
        elif kind == "tab":
            if len(toks) < 2:
                raise _fail(lineno, "'tab' needs at least one value")
            terms.append(("tab", tuple(_rat_tok(t, lineno, memo)
                                       for t in toks[1:])))
        else:
            raise _fail(lineno, f"unknown objective term {kind!r} "
                                "(sq, abs, pwl, tab)")
        lines.append(lineno)
    if not terms:
        raise _fail(header, "OBJECTIVE section is empty")
    return tuple(terms), tuple(lines)


def _build_indep(entries, header):
    generators = []
    width = None
    for lineno, toks in entries:
        if len(toks) != 1 or set(toks[0]) - {"0", "1"}:
            raise _fail(lineno, "expected a 0/1 generator string")
        g = tuple(int(ch) for ch in toks[0])
        if width is None:
            width = len(g)
        elif len(g) != width:
            raise _fail(lineno,
                        f"generator has {len(g)} entries, expected {width}")
        generators.append(g)
    if not generators:
        raise _fail(header, "INDEP section is empty")
    return tuple(generators)


def _build_weights(entries, header):
    rows = []
    width = None
    for lineno, toks in entries:
        row = tuple(_int_tok(t, lineno) for t in toks)
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise _fail(lineno,
                        f"weight row has {len(row)} entries, expected {width}")
        rows.append(row)
    if not rows:
        raise _fail(header, "WEIGHTS section is empty")
    return tuple(rows)


def _build_tuple(entries, header):
    if len(entries) != 1:
        bad = entries[1][0] if len(entries) > 1 else header
        raise _fail(bad, "TUPLE is a single line of integers")
    lineno, toks = entries[0]
    return tuple(_int_tok(t, lineno) for t in toks)


def parse_problem(text: str) -> ProblemFile:
    chunks: dict[str, list[tuple[int, list[str]]]] = {}
    headers: dict[str, int] = {}
    current: Optional[str] = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line in _SECTION_NAMES:
            if line in chunks:
                raise _fail(lineno, f"duplicate section {line}")
            chunks[line] = []
            headers[line] = lineno
            current = line
            continue
        if current is None:
            raise _fail(lineno, f"content before any section header: {line!r}")
        chunks[current].append((lineno, line.split()))
    if not chunks:
        raise _fail(None, "empty problem file")

    memo: dict[str, Fraction] = {}
    polytope = poly = nfold = objective = indep = weights = tuple_a = None
    row_lines: tuple[int, ...] = ()
    term_lines: tuple[int, ...] = ()
    if "POLYTOPE" in chunks:
        polytope, row_lines = _build_polytope(chunks["POLYTOPE"],
                                              headers["POLYTOPE"], memo)
    if "POLY" in chunks:
        poly = _build_poly(chunks["POLY"], headers["POLY"], memo)
    if "NFOLD" in chunks:
        nfold = _build_nfold(chunks["NFOLD"], headers["NFOLD"])
    if "OBJECTIVE" in chunks:
        objective, term_lines = _build_objective(chunks["OBJECTIVE"],
                                                 headers["OBJECTIVE"], memo)
    if "INDEP" in chunks:
        indep = _build_indep(chunks["INDEP"], headers["INDEP"])
    if "WEIGHTS" in chunks:
        weights = _build_weights(chunks["WEIGHTS"], headers["WEIGHTS"])
    if "TUPLE" in chunks:
        tuple_a = _build_tuple(chunks["TUPLE"], headers["TUPLE"])

    def clash(name_a, dim_a, name_b, dim_b):
        if dim_a != dim_b:
            ln = max(headers[name_a], headers[name_b])
            raise _fail(ln, f"{name_a} uses {dim_a} variables "
                            f"but {name_b} uses {dim_b}")

    if polytope is not None and poly is not None:
        clash("POLYTOPE", polytope.dim, "POLY", poly.dimension)
    if polytope is not None and nfold is not None:
        clash("POLYTOPE", polytope.dim, "NFOLD", nfold.n * nfold.t)
    if polytope is not None and weights is not None:
        clash("POLYTOPE", polytope.dim, "WEIGHTS", len(weights[0]))
    if indep is not None and weights is not None:
        clash("INDEP", len(indep[0]), "WEIGHTS", len(weights[0]))

    return ProblemFile(
        polytope=polytope, poly=poly, nfold=nfold, objective=objective,
        indep=indep, weights=weights, tuple_a=tuple_a,
        origin=Origin(polytope_rows=row_lines,
                      objective_terms=term_lines))


# ---------------------------------------------------------------------------
# reports

def _verdict(ok: bool) -> str:
    return "MATCH" if ok else "MISMATCH"


def _scalar_text(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, Fraction):
        return format_rat(v)
    return str(v)


def _value_text(v) -> str:
    if isinstance(v, (tuple, list)):
        if any(isinstance(x, str) for x in v):
            return "; ".join(v)
        return " ".join(_scalar_text(x) for x in v)
    return _scalar_text(v)


def _value_json(v):
    if isinstance(v, bool):
        return v
    if isinstance(v, Fraction):
        return format_rat(v)
    if isinstance(v, (tuple, list)):
        return [_value_json(x) for x in v]
    return v


def emit(report, fmt: str) -> str:
    if fmt == "json":
        return json.dumps({k: _value_json(v) for k, v in report}) + "\n"
    lines = []
    for k, v in report:
        text = _value_text(v)
        lines.append(f"{k}: {text}" if text else f"{k}:")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# shared helpers

def _require(pf: ProblemFile, attr: str, section: str, command: str):
    value = getattr(pf, attr)
    if value is None:
        raise CLIError(4, f"{command} needs a {section} section")
    return value


def _desk_guard(lo, hi) -> None:
    size = 1
    for a, b in zip(lo, hi):
        size *= max(0, b - a + 1)
        if size > _DESK_LIMIT:
            raise CLIError(4, "--brute-force box exceeds the desk-scale "
                              f"limit of {_DESK_LIMIT} points")


def _row_msg(pf: ProblemFile, idx: int, msg: str) -> str:
    lines = pf.origin.polytope_rows
    if idx < len(lines):
        return f"line {lines[idx]}: {msg}"
    return msg


def _term_msg(pf: ProblemFile, idx: int, msg: str) -> str:
    lines = pf.origin.objective_terms
    if idx < len(lines):
        return f"line {lines[idx]}: {msg}"
    return msg


def _box_bounds(pf: ProblemFile, P: Polyhedron):
    """Read POLYTOPE as an axis box; reject rows coupling variables."""
    n = P.dim
    lo: list = [None] * n
    hi: list = [None] * n
    for idx, (a, beta) in enumerate(zip(P.A, P.b)):
        support = [j for j, v in enumerate(a) if v != 0]
        if len(support) != 1:
            raise CLIError(4, _row_msg(
                pf, idx, "this command needs a box POLYTOPE "
                         "(one variable per row)"))
        j = support[0]
        c = a[j]
        if c > 0:
            cap = math.floor(beta / c)
            hi[j] = cap if hi[j] is None else min(hi[j], cap)
        else:
            cap = math.ceil(beta / c)
            lo[j] = cap if lo[j] is None else max(lo[j], cap)
    missing = [j for j in range(n) if lo[j] is None or hi[j] is None]
    if missing:
        raise CLIError(4, f"variable {missing[0] + 1} needs both a lower "
                          "and an upper bound row")
    if any(a > b for a, b in zip(lo, hi)):
        raise CLIError(2, "box is empty")
    return tuple(lo), tuple(hi)


def _orient_equality(a, beta):
    """Integer equality row with the first nonzero coefficient positive."""
    row = clear_denominators(tuple(a) + (beta,))
    coeffs, rhs = row[:-1], row[-1]
    for v in coeffs:
        if v:
            if v < 0:
                coeffs, rhs = vneg(coeffs), -rhs
            break
    return tuple(int(x) for x in coeffs), int(rhs)


def _fiber_rows(pf: ProblemFile, P: Polyhedron):
    """Split POLYTOPE rows into equalities Ax = b and upper bounds x <= u.

    The fiber lives in N^n, so each equality must appear as a pair of
    opposite rows and unit rows give bounds; a negative-coefficient unit
    row is accepted only when x >= 0 already implies it.
    """
    n = P.dim
    upper: list = [None] * n
    pending: dict = {}
    equalities = []
    for idx, (a, beta) in enumerate(zip(P.A, P.b)):
        support = [j for j, v in enumerate(a) if v != 0]
        if not support:
            if beta < 0:
                raise CLIError(2, _row_msg(pf, idx, "contradictory row"))
            continue
        if len(support) == 1:
            j = support[0]
            c = a[j]
            if c > 0:
                cap = math.floor(beta / c)
                upper[j] = cap if upper[j] is None else min(upper[j], cap)
            elif math.ceil(beta / c) > 0:
                raise CLIError(4, _row_msg(
                    pf, idx, "lower bounds above zero are not supported; "
                             "fiber variables range over N"))
            continue
        mate = (vneg(a), -beta)
        if pending.get(mate):
            first = pending[mate].pop(0)
            equalities.append((min(first, idx), _orient_equality(a, beta)))
        else:
            pending.setdefault((tuple(a), beta), []).append(idx)
    for key, idxs in pending.items():
        if idxs:
            raise CLIError(4, _row_msg(
                pf, idxs[0], "row is neither a variable bound nor half "
                             "of an equality pair"))
    if not equalities:
        raise CLIError(4, "convexmax needs at least one equality "
                          "(a pair of opposite POLYTOPE rows)")
    equalities.sort()
    A = tuple(row for _, (row, _) in equalities)
    b = tuple(rhs for _, (_, rhs) in equalities)
    if all(u is None for u in upper):
        return A, b, None
    if any(u is None for u in upper):
        missing = upper.index(None)
        raise CLIError(4, f"variable {missing + 1} has no upper bound; "
                          "bound every variable or none")
    return A, b, tuple(int(u) for u in upper)


def _convex_term(kind: str, payload):
    """The term of one sq, abs or pwl OBJECTIVE line, of a graver type
    that is convex by construction."""
    if kind == "sq":
        return Square(payload)
    if kind == "abs":
        return Abs(payload)
    return PiecewiseMax(payload)


def _separable(terms, dim: int, pf: ProblemFile) -> SeparableConvexFn:
    if len(terms) != dim:
        raise CLIError(4, f"OBJECTIVE has {len(terms)} terms "
                          f"but needs {dim}, one per coordinate")
    for i, (kind, _) in enumerate(terms):
        if kind == "tab":
            raise CLIError(4, _term_msg(
                pf, i, "tab terms are only supported by the "
                       "indepsys command"))
    return SeparableConvexFn(tuple(_convex_term(*term) for term in terms))


def _univariate(term, max_weight: int, pf: ProblemFile):
    """Objective on total weights for indepsys; tab is legal here
    because the strategy never requires convexity."""
    kind, payload = term
    if kind != "tab":
        return _convex_term(kind, payload)
    if len(payload) <= max_weight:
        raise CLIError(4, _term_msg(
            pf, 0, f"tab covers values 0..{len(payload) - 1} but the "
                   f"maximum weight is {max_weight}"))
    return lambda v: payload[v]


# ---------------------------------------------------------------------------
# commands

def cmd_count(pf: ProblemFile, args) -> list:
    P = _require(pf, "polytope", "POLYTOPE", "count")
    if is_empty(P):
        raise CLIError(2, "polytope is infeasible")
    try:
        g = polyhedron_gf(P)
    except UnboundedError:
        raise CLIError(3, "polytope is unbounded") from None
    specialized = specialize_at_one(g)
    if specialized.denominator != 1:
        raise RuntimeError(f"specialization gave a non-integer {specialized}")
    count = int(specialized)
    report = [
        ("count", count),
        ("gf_terms", len(g.terms)),
        ("dimension", P.dim),
    ]
    if args.brute_force:
        lo, hi = bounding_box(P)
        _desk_guard(lo, hi)
        brute = sum(1 for p in _box_points(lo, hi) if P.contains(p))
        report.append(("brute_count", brute))
        report.append(("brute_force", _verdict(brute == count)))
    return report


def _guarantee_holds(rep, fstar: Fraction, fmin: Fraction) -> bool:
    if rep.guarantee == "exact":
        return rep.value == fstar
    if rep.guarantee == "relative":
        return rep.value >= (1 - rep.epsilon) * fstar
    return fstar - rep.value <= rep.epsilon * (fstar - fmin)


def cmd_optimize(pf: ProblemFile, args) -> list:
    P = _require(pf, "polytope", "POLYTOPE", "optimize")
    f = _require(pf, "poly", "POLY", "optimize")
    try:
        eps = parse_rat(args.epsilon)
    except (ValueError, ZeroDivisionError):
        raise CLIError(4, f"bad --epsilon value {args.epsilon!r}") from None
    if eps <= 0:
        raise CLIError(4, "--epsilon must be positive")
    if is_empty(P):
        raise CLIError(2, "polytope is infeasible")
    try:
        x, rep = maximize(P, f, eps)
    except UnboundedError:
        raise CLIError(3, "polytope is unbounded") from None
    except ValueError as e:
        raise CLIError(2, str(e)) from None
    report = [
        ("value", rep.value),
        ("point", x),
        ("guarantee", rep.guarantee),
        ("epsilon", rep.epsilon),
        ("N", rep.N),
    ]
    for key in ("k", "L_k", "U_k", "shift", "delta",
                "range_lower_bound", "scale"):
        value = getattr(rep, key)
        if value is not None:
            report.append((key, value))
    if args.brute_force:
        lo, hi = bounding_box(P)
        _desk_guard(lo, hi)
        values = [f.evaluate(p) for p in _box_points(lo, hi)
                  if P.contains(p)]
        fstar, fmin = max(values), min(values)
        ok = rep.value <= fstar and _guarantee_holds(rep, fstar, fmin)
        report.append(("brute_optimum", fstar))
        report.append(("brute_force", _verdict(ok)))
    return report


def cmd_nfold(pf: ProblemFile, args) -> list:
    spec = _require(pf, "nfold", "NFOLD", "nfold")
    terms = _require(pf, "objective", "OBJECTIVE", "nfold")
    P = _require(pf, "polytope", "POLYTOPE", "nfold")
    lo, hi = _box_bounds(pf, P)
    f = _separable(terms, spec.n * spec.t, pf)
    try:
        res = nfold_minimize(spec, f, lo, hi)
    except ValueError as e:
        raise CLIError(2, str(e)) from None
    report = [
        ("solution", res.x),
        ("value", res.value),
        ("steps", res.steps),
        ("certificate", "GRAVER-OPTIMAL" if res.certified else "UNCERTIFIED"),
        ("graver_size", res.basis_size),
    ]
    if args.brute_force:
        _desk_guard(lo, hi)
        best = min(f.value(p) for p in
                   enumerate_fiber(nfold_matrix(spec), spec.b, lo, hi))
        report.append(("brute_optimum", best))
        report.append(("brute_force", _verdict(best == res.value)))
    return report


def _sign_canonical(g):
    for v in g:
        if v:
            return g if v > 0 else tuple(-x for x in g)
    return g


def _conformal_le(u, v) -> bool:
    return all(a * b >= 0 and abs(a) <= abs(b) for a, b in zip(u, v))


def _brute_graver(A, elements):
    """Minimal nonzero kernel points inside the max-norm box of the
    computed basis.  Dominators of a box point stay in the box, so
    minimality checked here is genuine minimality."""
    cols = len(A[0])
    bound = max((abs(v) for g in elements for v in g), default=1)
    lo, hi = (-bound,) * cols, (bound,) * cols
    _desk_guard(lo, hi)
    kernel = [z for z in _box_points(lo, hi)
              if any(z) and all(dot(row, z) == 0 for row in A)]
    minimal = [z for z in kernel
               if not any(w != z and _conformal_le(w, z) for w in kernel)]
    return sorted({_sign_canonical(z) for z in minimal})


def cmd_graver(pf: ProblemFile, args) -> list:
    spec = _require(pf, "nfold", "NFOLD", "graver")
    A = nfold_matrix(spec)
    basis = graver_basis(A)
    report = [
        ("rows", len(A)),
        ("cols", len(A[0])),
        ("size", len(basis)),
        ("elements", tuple(" ".join(str(v) for v in g)
                           for g in basis.elements)),
    ]
    if args.brute_force:
        brute = _brute_graver(A, basis.elements)
        report.append(("brute_size", len(brute)))
        report.append(("brute_force",
                       _verdict(set(brute) == set(basis.elements))))
    return report


def cmd_convexmax(pf: ProblemFile, args) -> list:
    P = _require(pf, "polytope", "POLYTOPE", "convexmax")
    W = _require(pf, "weights", "WEIGHTS", "convexmax")
    terms = _require(pf, "objective", "OBJECTIVE", "convexmax")
    if len(W) not in (1, 2):
        raise CLIError(4, "convexmax takes one or two WEIGHTS rows")
    A, b, upper = _fiber_rows(pf, P)
    sep = _separable(terms, len(W), pf)
    obj = CompositeObjective(tuple(W), evaluator=sep.value)
    E = EdgeDirectionSet.from_graver(graver_basis(A))
    calls = [0]

    def oracle(Ao, bo, uo, w):
        calls[0] += 1
        return lip_oracle(Ao, bo, uo, w)

    if len(E):
        try:
            x = maximize_composite(A, b, upper, obj, E, oracle=oracle)
        except ValueError as e:
            if "infeasible" in str(e):
                raise CLIError(2, str(e)) from None
            raise
        except RuntimeError as e:
            if "unbounded" in str(e):
                raise CLIError(
                    3, "objective is unbounded over the fiber") from None
            raise
    else:
        # trivial kernel: the fiber holds at most one point
        res = oracle(A, b, upper, (0,) * len(A[0]))
        if res.status != "optimal":
            raise CLIError(2, "system is infeasible")
        x = res.x
    y = obj.project(x)
    report = [
        ("solution", x),
        ("image", y),
        ("value", obj.value(y)),
        ("oracle_calls", calls[0]),
        ("directions", len(E)),
    ]
    if args.brute_force:
        if upper is None:
            raise CLIError(4, "--brute-force needs explicit upper bounds")
        zeros = (0,) * len(A[0])
        _desk_guard(zeros, upper)
        fstar = max(obj.value(obj.project(p))
                    for p in enumerate_fiber(A, b, zeros, upper))
        report.append(("brute_optimum", fstar))
        report.append(("brute_force", _verdict(obj.value(y) == fstar)))
    return report


def _point_rows(points):
    return tuple(" ".join(str(v) for v in p) for p in points)


def cmd_relax(pf: ProblemFile, args) -> list:
    P = _require(pf, "polytope", "POLYTOPE", "relax")
    f = _require(pf, "poly", "POLY", "relax")
    lo, hi = _box_bounds(pf, P)
    try:
        lifted = build_lifted([f], lo, hi)
    except ValueError as e:
        raise CLIError(4, str(e)) from None
    proj = project_with_pi_leq_0(lifted)
    rows = tuple(" ".join(format_rat(v) for v in a)
                 + " <= " + format_rat(beta)
                 for a, beta in zip(proj.A, proj.b))
    n = lifted.n
    points = [pt[:n] for pt in lifted.cloud]
    values = [pt[n] for pt in lifted.cloud]
    relax_points = [p for p in points if proj.contains(p)]
    ki_points = [p for p, v in zip(points, values) if v <= 0]
    report = [
        ("inequalities", rows),
        ("relaxation_points", _point_rows(relax_points)),
        ("ki_points", _point_rows(ki_points)),
        ("ki_equal", relax_points == ki_points),
        ("condition_holds", check_condition(lifted)),
    ]
    if args.brute_force:
        # p is in the projection iff some convex combination of the
        # box points hits p with nonpositive combined value
        brute_points = []
        for p in points:
            low = _cloud_minimum(points, values, p)
            if low is not None and low <= 0:
                brute_points.append(p)
        report.append(("brute_points", _point_rows(brute_points)))
        report.append(("brute_force",
                       _verdict(brute_points == relax_points)))
    return report


def cmd_indepsys(pf: ProblemFile, args) -> list:
    generators = _require(pf, "indep", "INDEP", "indepsys")
    W = _require(pf, "weights", "WEIGHTS", "indepsys")
    alphabet = _require(pf, "tuple_a", "TUPLE", "indepsys")
    terms = _require(pf, "objective", "OBJECTIVE", "indepsys")
    if len(W) != 1:
        raise CLIError(4, "indepsys takes exactly one WEIGHTS row")
    if len(terms) != 1:
        raise CLIError(4, "indepsys takes exactly one OBJECTIVE line")
    try:
        profile = WeightProfile(PrimitiveTuple(alphabet), W[0])
        system = IndependenceSystem.from_generators(len(W[0]), generators)
    except ValueError as e:
        raise CLIError(4, str(e)) from None
    xbar = system.maximize(profile.weights)
    f = _univariate(terms[0], profile.weight(xbar), pf)
    x, rep = naive_strategy(system, profile, f)
    evaluations = math.prod(t + 1 for t in profile.lam(rep.x_max))
    report = [
        ("x_max", rep.x_max),
        ("max_weight", rep.max_weight),
        ("solution", x),
        ("best_weight", rep.best_weight),
        ("lower_image", rep.lower_image),
        ("image", rep.image),
        ("better_values", rep.better_values),
        ("gap", rep.gap),
        ("evaluations", evaluations),
        ("r_bound", r_bound(profile.a)),
    ]
    if args.brute_force:
        members = sorted(system.members())
        image = sorted({profile.weight(m) for m in members})
        reference = f(rep.best_weight)
        better = tuple(v for v in image if f(v) < reference)
        ok = (tuple(image) == rep.image
              and image[-1] == rep.max_weight
              and rep.best_weight in set(rep.lower_image)
              and better == rep.better_values
              and len(better) == rep.gap)
        report.append(("brute_better", better))
        report.append(("brute_force", _verdict(ok)))
    return report


# ---------------------------------------------------------------------------
# entry point

class _ArgumentParser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage; 2 means infeasible in
    # the exit-code table, so usage errors become CLIError(4) instead
    def error(self, message):
        raise CLIError(4, message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and kept for the process,
    so that main() may run in a loop."""
    common = _ArgumentParser(add_help=False)
    common.add_argument("file", help="problem file, or '-' for stdin")
    common.add_argument("--format", choices=("text", "json"), default="text")
    common.add_argument("--brute-force", action="store_true",
                        help="cross-check against enumeration "
                             "(desk-scale inputs)")
    common.add_argument("--timing", action="store_true",
                        help="print elapsed seconds to stderr")
    top = _ArgumentParser(
        prog="latticeopt",
        description="exact lattice counting and optimization")
    commands = top.add_subparsers(dest="command", metavar="command",
                                  required=True)
    specs = (
        ("count", "count lattice points of POLYTOPE"),
        ("optimize", "maximize POLY over POLYTOPE (FPTAS)"),
        ("nfold", "minimize a separable convex n-fold program"),
        ("graver", "list the Graver basis of the NFOLD matrix"),
        ("convexmax", "maximize a composite convex objective over a fiber"),
        ("relax", "project the lifted polynomial relaxation"),
        ("indepsys", "run the one-call strategy on an independence system"),
    )
    for name, help_text in specs:
        sub = commands.add_parser(name, help=help_text, parents=[common])
        if name == "optimize":
            sub.add_argument("--epsilon", default="1/4", metavar="EPS",
                             help="approximation quality (rational)")
    return top


def _read_input(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except OSError as e:
        raise CLIError(4, f"cannot read {path}: {e.strerror or e}") from None


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        started = time.perf_counter()
        problem = parse_problem(_read_input(args.file))
        # looked up at call time, so a cmd_* rebound in this module's
        # namespace after the parser was built still runs
        report = globals()[f"cmd_{args.command}"](problem, args)
        sys.stdout.write(emit(report, args.format))
        if args.timing:
            print(f"elapsed_seconds: {time.perf_counter() - started:.3f}",
                  file=sys.stderr)
        if ("brute_force", "MISMATCH") in report:
            return 1
        return 0
    except CLIError as e:
        print(f"error: {e.message}", file=sys.stderr)
        return e.code


if __name__ == "__main__":
    sys.exit(main())
