"""End-to-end tests for the command-line frontend.

Most tests drive main() in process and read captured stdout; byte-level
determinism is checked through subprocesses with different hash seeds
so accidental set-iteration order cannot hide.
"""

import io
import itertools
import json
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, seed, settings, strategies as st

import latticeopt.cli as cli
import polyhedra_reference as ref
from latticeopt import core, fptas, genfunc, polyhedra
from latticeopt.cli import CLIError, main, parse_problem
from latticeopt.core import parse_rat
from latticeopt.fptas import SparsePolynomial
from latticeopt.polyhedra import Polyhedron, UnboundedError
from subprocess_env import cli_env

FIXTURES = Path(__file__).parent / "fixtures"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def report_of(out):
    fields = {}
    for line in out.splitlines():
        key, _, value = line.partition(":")
        fields[key] = value.strip()
    return fields


# ---------------------------------------------------------------------------
# parsing

def test_parse_reports_offending_line():
    with pytest.raises(CLIError) as err:
        parse_problem("POLYTOPE\n1 0 <= 1\nnot a row\n")
    assert err.value.code == 4
    assert "line 3" in err.value.message


def test_parse_rejects_duplicate_section():
    with pytest.raises(CLIError) as err:
        parse_problem("POLYTOPE\n1 <= 1\nPOLYTOPE\n-1 <= 0\n")
    assert "line 3" in err.value.message
    assert "duplicate" in err.value.message


def test_parse_rejects_width_mismatch_inside_section():
    with pytest.raises(CLIError) as err:
        parse_problem("POLYTOPE\n1 0 <= 1\n1 0 0 <= 1\n")
    assert "line 3" in err.value.message


def test_parse_rejects_cross_section_mismatch():
    text = "POLYTOPE\n1 0 <= 1\n-1 0 <= 0\nPOLY\n1 2 0 0\n"
    with pytest.raises(CLIError) as err:
        parse_problem(text)
    assert err.value.code == 4
    assert "POLY" in err.value.message


def test_parse_rejects_content_before_header():
    with pytest.raises(CLIError) as err:
        parse_problem("1 <= 1\n")
    assert "before any section" in err.value.message


def test_parse_rejects_unknown_objective_term():
    with pytest.raises(CLIError) as err:
        parse_problem("OBJECTIVE\ncubic 3\n")
    assert "line 2" in err.value.message
    assert "cubic" in err.value.message


def test_parse_nfold_needs_all_keys():
    with pytest.raises(CLIError) as err:
        parse_problem("NFOLD\nA1\n1 1\nA2\n1 0\nn 2\n")
    assert "NFOLD needs" in err.value.message


def test_parse_tuple_is_single_line():
    with pytest.raises(CLIError) as err:
        parse_problem("TUPLE\n1 2\n3 4\n")
    assert "single line" in err.value.message


def test_comments_and_blank_lines_ignored():
    text = ("# leading comment\n\nPOLYTOPE\n"
            "1 <= 4   # trailing comment\n-1 <= 0\n\n")
    problem = parse_problem(text)
    assert problem.polytope is not None
    assert len(problem.polytope.A) == 2


# Rational tokens, read once per distinct text: the memo must give
# parse_rat's value for every token and fail on the first bad one.
GOOD_TOKENS = ("0", "-3", "+3", "007", "-007", "1_000", "-2_5", "3/4",
               "-6/8", "+06/08", "1_0/2_0", "0/5", "1.5", "-.25", "2e2")
BAD_TOKENS = ("x", "1/", "/2", "1/0", "--1", "1//2", "1__0", "_1", "1_",
              "nan", "inf", "1/2/3", "0x10", "1/-2")
TOKENS = st.one_of(
    st.sampled_from(GOOD_TOKENS + BAD_TOKENS),
    st.integers(-99, 99).map(str),
    st.tuples(st.integers(-9, 9), st.integers(1, 9)).map(
        lambda pq: f"{pq[0]}/{pq[1]}"))


def _is_rational(tok):
    try:
        parse_rat(tok)
    except (ValueError, ZeroDivisionError):
        return False
    return True


@st.composite
def token_problems(draw):
    """A POLYTOPE / POLY / OBJECTIVE file whose rational slots repeat a
    few token texts; returns the text, its width and its (line, tokens)
    slots in the order the parser reads them."""
    pool = draw(st.lists(TOKENS, min_size=1, max_size=4))
    # near-twins of a drawn text: a memo keyed on anything but the whole
    # text would hand one of them the other's value
    pool += [draw(st.sampled_from((f"-{t}", f"+{t}", f"0{t}", f"{t}/1")))
             for t in pool]
    tok = st.sampled_from(pool)
    width = draw(st.integers(1, 3))
    lines, slots = ["POLYTOPE"], []
    for _ in range(draw(st.integers(1, 4))):
        row = [draw(tok) for _ in range(width + 1)]
        lines.append(" ".join(row[:-1] + ["<="] + row[-1:]))
        slots.append((len(lines), row))
    lines.append("POLY")
    for i in range(draw(st.integers(1, 3))):
        c = draw(tok)
        lines.append(" ".join([c, str(i)] + ["0"] * (width - 1)))
        slots.append((len(lines), [c]))
    lines.append("OBJECTIVE")
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(("sq", "abs", "pwl", "tab")))
        count = {"sq": 1, "abs": 1, "pwl": 2}.get(kind) or draw(
            st.integers(1, 3))
        params = [draw(tok) for _ in range(count)]
        lines.append(" ".join([kind] + params))
        slots.append((len(lines), params))
    return "\n".join(lines) + "\n", width, slots


@seed(7919)
@settings(max_examples=150, deadline=None)
@given(token_problems())
def test_token_memo_matches_parse_rat(problem):
    text, width, slots = problem
    bad = next(((lineno, t) for lineno, toks in slots for t in toks
                if not _is_rational(t)), None)
    if bad is not None:
        lineno, t = bad
        with pytest.raises(CLIError) as err:
            parse_problem(text)
        assert err.value.code == 4
        assert err.value.message == (f"line {lineno}: expected a rational, "
                                     f"got {t!r}")
        return
    pf = parse_problem(text)
    values = [[parse_rat(t) for t in toks] for _, toks in slots]
    rows = len(pf.polytope.A)
    assert pf.polytope.A == tuple(tuple(v[:-1]) for v in values[:rows])
    assert pf.polytope.b == tuple(v[-1] for v in values[:rows])
    assert all(type(x) is Fraction
               for row in pf.polytope.A + (pf.polytope.b,) for x in row)
    monomials = values[rows:len(values) - len(pf.objective)]
    assert pf.poly == SparsePolynomial(width, tuple(
        (v[0], (i,) + (0,) * (width - 1)) for i, v in enumerate(monomials)))
    for (kind, payload), v in zip(pf.objective,
                                  values[len(values) - len(pf.objective):]):
        if kind in ("sq", "abs"):
            assert payload == v[0]
        elif kind == "pwl":
            assert payload == ((v[0], v[1]),)
        else:
            assert payload == tuple(v)


def test_bad_token_fails_on_its_first_line(capsys, tmp_path):
    problem = tmp_path / "bad.txt"
    problem.write_text("POLYTOPE\n1 <= 2\n1/0 <= 1\n1/0 <= 3\n"
                       "POLY\n1/0 1\n")
    code, out, err = run_cli(capsys, "count", str(problem))
    assert (code, out) == (4, "")
    assert err == "error: line 3: expected a rational, got '1/0'\n"
    problem.write_text("POLYTOPE\n1 <= 2\nOBJECTIVE\nsq 1\nabs 1x\n")
    code, _, err = run_cli(capsys, "count", str(problem))
    assert code == 4
    assert err == "error: line 5: expected a rational, got '1x'\n"


# ---------------------------------------------------------------------------
# count

def test_count_interval_million(capsys):
    code, out, _ = run_cli(capsys, "count",
                           str(FIXTURES / "interval_million.txt"))
    fields = report_of(out)
    assert code == 0
    assert fields["count"] == "1000001"
    assert int(fields["gf_terms"]) >= 1


def test_count_unit_cube_brute(capsys):
    code, out, _ = run_cli(capsys, "count", str(FIXTURES / "unit_cube.txt"),
                           "--brute-force")
    fields = report_of(out)
    assert code == 0
    assert fields["count"] == "8"
    assert fields["brute_count"] == "8"
    assert fields["brute_force"] == "MATCH"


def test_count_simplex_brute(capsys):
    code, out, _ = run_cli(capsys, "count", str(FIXTURES / "simplex.txt"),
                           "--brute-force")
    fields = report_of(out)
    assert code == 0
    assert fields["count"] == "19"
    assert fields["brute_force"] == "MATCH"


# optimize needs a POLY section to get past parsing to the polytope checks
PREFLIGHT_COMMANDS = {"count": "", "optimize": "POLY\n1 1\n"}


@pytest.mark.parametrize("command", sorted(PREFLIGHT_COMMANDS))
def test_count_infeasible_exits_2(capsys, tmp_path, command):
    bad = tmp_path / "empty.txt"
    bad.write_text("POLYTOPE\n1 <= -1\n-1 <= 0\n"
                   + PREFLIGHT_COMMANDS[command])
    code, out, err = run_cli(capsys, command, str(bad))
    assert code == 2
    assert out == ""
    assert "infeasible" in err


@pytest.mark.parametrize("command", sorted(PREFLIGHT_COMMANDS))
def test_count_unbounded_exits_3(capsys, tmp_path, command):
    bad = tmp_path / "ray.txt"
    bad.write_text("POLYTOPE\n-1 <= 0\n" + PREFLIGHT_COMMANDS[command])
    code, out, err = run_cli(capsys, command, str(bad))
    assert code == 3
    assert out == ""
    assert "unbounded" in err


def test_count_desk_guard_blocks_huge_brute(capsys):
    code, _, err = run_cli(capsys, "count",
                           str(FIXTURES / "interval_million.txt"),
                           "--brute-force")
    assert code == 4
    assert "desk-scale" in err


# ---------------------------------------------------------------------------
# optimize

def test_optimize_interval_half(capsys):
    code, out, _ = run_cli(capsys, "optimize",
                           str(FIXTURES / "interval_opt.txt"),
                           "--epsilon", "1/2", "--brute-force")
    fields = report_of(out)
    assert code == 0
    assert Fraction(fields["value"]) >= 8
    assert fields["guarantee"] in ("relative", "shifted-range", "exact")
    assert fields["brute_optimum"] == "16"
    assert fields["brute_force"] == "MATCH"


def test_optimize_singleton_exact(capsys):
    code, out, _ = run_cli(capsys, "optimize",
                           str(FIXTURES / "singleton_opt.txt"),
                           "--brute-force")
    fields = report_of(out)
    assert code == 0
    assert fields["guarantee"] == "exact"
    assert fields["value"] == "9"
    assert fields["point"] == "3"
    assert fields["brute_force"] == "MATCH"


def test_optimize_square_quarter(capsys):
    code, out, _ = run_cli(capsys, "optimize",
                           str(FIXTURES / "square_opt.txt"),
                           "--epsilon", "1/4", "--brute-force")
    fields = report_of(out)
    assert code == 0
    assert Fraction(fields["value"]) >= Fraction(375, 4)
    assert fields["brute_optimum"] == "125"
    assert fields["brute_force"] == "MATCH"


@pytest.mark.parametrize("eps", ["0", "-1/2", "junk"])
def test_optimize_rejects_bad_epsilon(capsys, eps):
    code, out, err = run_cli(capsys, "optimize",
                             str(FIXTURES / "interval_opt.txt"),
                             "--epsilon", eps)
    assert code == 4
    assert out == ""
    assert "epsilon" in err


def test_optimize_no_lattice_points_exits_2(capsys, tmp_path):
    gap = tmp_path / "gap.txt"
    gap.write_text("POLYTOPE\n3 <= 2\n-3 <= -1\n\nPOLY\n1 2\n")
    code, _, err = run_cli(capsys, "optimize", str(gap))
    assert code == 2
    assert "lattice points" in err


# ---------------------------------------------------------------------------
# count and optimize make no LP

# (POLYTOPE rows, count's exit code and stdout, optimize's exit code)
PREFLIGHT_EDGES = [
    ("1 0 <= 1\n-1 0 <= 0\n", 3, "", 3),                   # a strip
    ("0 0 <= -1\n", 2, "", 2),                              # 0 <= -1
    ("2 2 <= 1\n-2 -2 <= -1\n", 3, "", 3),                  # a line
    ("1 1 <= 1/2\n-1 -1 <= -1/2\n1 0 <= 3\n-1 0 <= 0\n0 1 <= 3\n0 -1 <= 0\n",
     0, "count: 0\ngf_terms: 0\ndimension: 2\n", 2),        # x + y = 1/2
]


def _seeded_polytopes():
    """(rows, P) for seeded boxes cut by a row, empty boxes and pointed
    unbounded polyhedra in dimensions 1-3."""
    rng = random.Random(15)
    for kind in ("cut", "empty", "unbounded") * 6:
        n = rng.randint(1, 3)
        A = [tuple(-int(j == i) for j in range(n)) for i in range(n)]
        b = [0] * n
        if kind != "unbounded":
            for i in range(n):
                A.append(tuple(int(j == i) for j in range(n)))
                b.append(rng.randint(1, 3))
        a = tuple(rng.choice((-2, -1, 1, 2)) for _ in range(n))
        if kind == "unbounded":
            a = tuple(-abs(v) for v in a)
        A.append(a)
        b.append(Fraction(rng.randint(-3, 2), rng.randint(1, 2)))
        if kind == "empty":
            A.append(tuple(-v for v in a))
            b.append(-b[-1] - Fraction(1, rng.randint(1, 3)))
        rows = "".join(" ".join(map(str, row)) + f" <= {beta}\n"
                       for row, beta in zip(A, b))
        yield rows, Polyhedron(tuple(A), tuple(b))


def test_count_and_optimize_solve_no_lp(monkeypatch, capsys, tmp_path):
    def no_lp(problem):
        raise AssertionError("solve_lp called")

    for module in (core, polyhedra, genfunc, fptas, cli):
        if hasattr(module, "solve_lp"):
            monkeypatch.setattr(module, "solve_lp", no_lp)

    for name in ("unit_cube.txt", "simplex.txt"):
        code, out, _ = run_cli(capsys, "count", str(FIXTURES / name),
                               "--brute-force")
        assert code == 0 and report_of(out)["brute_force"] == "MATCH"
    for name, eps in (("interval_opt.txt", "1/2"), ("singleton_opt.txt", "1"),
                      ("square_opt.txt", "1/4")):
        code, out, _ = run_cli(capsys, "optimize", str(FIXTURES / name),
                               "--epsilon", eps, "--brute-force")
        assert code == 0 and report_of(out)["brute_force"] == "MATCH"

    path = tmp_path / "p.txt"
    for rows, count_code, count_out, optimize_code in PREFLIGHT_EDGES:
        path.write_text("POLYTOPE\n" + rows)
        assert run_cli(capsys, "count", str(path))[:2] == \
            (count_code, count_out)
        path.write_text("POLYTOPE\n" + rows + "\nPOLY\n1 1 0\n")
        assert run_cli(capsys, "optimize", str(path))[0] == optimize_code

    # the expected exit codes and counts come from the LP preflight, which
    # bound the unpatched solve_lp when it was imported
    codes = set()
    for rows, P in _seeded_polytopes():
        try:
            box = ref.bounding_box(P)
            want = 2 if box is None else 0
        except UnboundedError:
            box, want = None, 3
        codes.add(want)
        path.write_text("POLYTOPE\n" + rows)
        code, out, _ = run_cli(capsys, "count", str(path))
        assert code == want, rows
        if want == 0:
            ranges = (range(lo, hi + 1) for lo, hi in zip(*box))
            count = sum(1 for x in itertools.product(*ranges)
                        if ref.contains(P, x))
            assert report_of(out)["count"] == str(count), rows
            if count == 0:
                want = 2             # no lattice point to maximize over
        poly = " ".join(["1"] * (P.dim + 1))
        path.write_text("POLYTOPE\n" + rows + f"\nPOLY\n{poly}\n")
        code, out, _ = run_cli(capsys, "optimize", str(path), "--brute-force")
        assert code == want, rows
        if code == 0:
            assert report_of(out)["brute_force"] == "MATCH", rows
    assert codes == {0, 2, 3}


# ---------------------------------------------------------------------------
# nfold

def test_nfold_small_certified(capsys):
    code, out, _ = run_cli(capsys, "nfold", str(FIXTURES / "nfold_small.txt"),
                           "--brute-force")
    fields = report_of(out)
    assert code == 0
    assert fields["solution"] == "1 0 2 2"
    assert fields["value"] == "2"
    assert fields["certificate"] == "GRAVER-OPTIMAL"
    assert fields["brute_force"] == "MATCH"


def test_nfold_quadratic_certified(capsys):
    code, out, _ = run_cli(capsys, "nfold", str(FIXTURES / "nfold_quad.txt"),
                           "--brute-force")
    fields = report_of(out)
    assert code == 0
    assert fields["solution"] == "1 3 2 0"
    assert fields["value"] == "2"
    assert fields["certificate"] == "GRAVER-OPTIMAL"
    assert fields["brute_force"] == "MATCH"


def _seeded_nfold_files(tmp_path, count):
    """Feasible two-column n-fold files with random sq, abs and pwl terms
    on the box [0, 3]."""
    rng = random.Random(22)
    for k in range(count):
        n = rng.choice((2, 3))
        a1 = [rng.randint(1, 4) for _ in range(2)]
        a2 = [rng.randint(1, 4) for _ in range(2)]
        x = [rng.randint(0, 3) for _ in range(2 * n)]
        b = [sum(a1[j % 2] * v for j, v in enumerate(x))]
        b += [a2[0] * x[2 * i] + a2[1] * x[2 * i + 1] for i in range(n)]
        terms = [rng.choice((f"sq {rng.randint(-3, 9)}/2",
                             f"abs {rng.randint(-3, 9)}/2",
                             f"pwl 1 -2 -1 {rng.randint(0, 3)} 0 0"))
                 for _ in x]
        rows = [" ".join("1" if j == i else "0" for j in range(2 * n))
                + " <= 3" for i in range(2 * n)]
        rows += [" ".join("-1" if j == i else "0" for j in range(2 * n))
                 + " <= 0" for i in range(2 * n)]
        path = tmp_path / f"nfold_{k}.txt"
        path.write_text("\n".join(
            ["NFOLD", "A1", f"{a1[0]} {a1[1]}", "A2", f"{a2[0]} {a2[1]}",
             f"n {n}", "b " + " ".join(map(str, b)), "OBJECTIVE", *terms,
             "POLYTOPE", *rows]) + "\n")
        yield path


def test_nfold_scans_no_objective_term(capsys, monkeypatch, tmp_path):
    # sq, abs and pwl terms are convex by construction, so the convexity
    # check of an nfold solve evaluates none of them
    scanned = []
    check = cli.SeparableConvexFn.validate_convex

    def counted(f, l, u):
        before = sum(map(len, f._tables))
        check(f, l, u)
        scanned.append(sum(map(len, f._tables)) - before)

    monkeypatch.setattr(cli.SeparableConvexFn, "validate_convex", counted)
    files = [FIXTURES / "nfold_quad.txt", FIXTURES / "nfold_small.txt",
             *_seeded_nfold_files(tmp_path, 12)]
    for path in files:
        code, out, _ = run_cli(capsys, "nfold", str(path), "--brute-force")
        assert code == 0 and report_of(out)["brute_force"] == "MATCH", path
    assert scanned == [0] * len(files)


def test_nfold_infeasible_exits_2(capsys, tmp_path):
    text = (FIXTURES / "nfold_small.txt").read_text()
    bad = tmp_path / "bad.txt"
    bad.write_text(text.replace("b 5 1 2", "b 5 7 2"))
    code, _, err = run_cli(capsys, "nfold", str(bad))
    assert code == 2
    assert "infeasible" in err


def test_nfold_rejects_non_box_polytope(capsys, tmp_path):
    text = (FIXTURES / "nfold_small.txt").read_text()
    bad = tmp_path / "bad.txt"
    bad.write_text(text.replace("1 0 0 0 <= 5", "1 1 0 0 <= 5", 1))
    code, _, err = run_cli(capsys, "nfold", str(bad))
    assert code == 4
    assert "box POLYTOPE" in err
    assert "line" in err


def test_nfold_rejects_tab_objective(capsys, tmp_path):
    text = (FIXTURES / "nfold_small.txt").read_text()
    bad = tmp_path / "bad.txt"
    bad.write_text(text.replace("pwl 3 0", "tab 1 2 3", 1))
    code, _, err = run_cli(capsys, "nfold", str(bad))
    assert code == 4
    assert "tab" in err
    assert "indepsys" in err


# ---------------------------------------------------------------------------
# graver

def test_graver_listing_with_brute(capsys):
    code, out, _ = run_cli(capsys, "graver",
                           str(FIXTURES / "nfold_small.txt"),
                           "--brute-force")
    fields = report_of(out)
    assert code == 0
    assert fields["rows"] == "3"
    assert fields["cols"] == "4"
    assert fields["size"] == "1"
    assert fields["elements"] == "0 1 0 -1"
    assert fields["brute_force"] == "MATCH"


# ---------------------------------------------------------------------------
# convexmax

def test_convexmax_fixture(capsys):
    code, out, _ = run_cli(capsys, "convexmax",
                           str(FIXTURES / "convexmax_sq.txt"),
                           "--brute-force")
    fields = report_of(out)
    assert code == 0
    assert fields["value"] == "16"
    assert fields["image"] == "0 4"
    assert fields["solution"] == "0 1 3"
    assert int(fields["oracle_calls"]) >= 1
    assert fields["brute_force"] == "MATCH"


def test_convexmax_unbounded_exits_3(capsys, tmp_path):
    free = tmp_path / "free.txt"
    free.write_text("POLYTOPE\n1 -1 <= 0\n-1 1 <= 0\n\n"
                    "WEIGHTS\n1 1\n\nOBJECTIVE\nsq 0\n")
    code, _, err = run_cli(capsys, "convexmax", str(free))
    assert code == 3
    assert "unbounded" in err


def test_convexmax_infeasible_exits_2(capsys, tmp_path):
    tight = tmp_path / "tight.txt"
    tight.write_text("POLYTOPE\n1 1 <= 5\n-1 -1 <= -5\n"
                     "1 0 <= 1\n0 1 <= 1\n\n"
                     "WEIGHTS\n1 0\n\nOBJECTIVE\nsq 0\n")
    code, _, err = run_cli(capsys, "convexmax", str(tight))
    assert code == 2
    assert "infeasible" in err


def test_convexmax_rejects_unpaired_row(capsys, tmp_path):
    lonely = tmp_path / "lonely.txt"
    lonely.write_text("POLYTOPE\n1 1 1 <= 4\n1 0 0 <= 3\n"
                      "0 1 0 <= 3\n0 0 1 <= 3\n\n"
                      "WEIGHTS\n1 0 0\n\nOBJECTIVE\nsq 0\n")
    code, _, err = run_cli(capsys, "convexmax", str(lonely))
    assert code == 4
    assert "line 2" in err
    assert "equality pair" in err


# ---------------------------------------------------------------------------
# relax

PUBLISHED_ROWS = {
    "9 6 <= 29",
    "3 10 <= 31",
    "9 10 <= 37",
    "15 2 <= 37",
    "15 6 <= 41",
    "-1 0 <= 0",
    "0 -1 <= 0",
    "0 1 <= 3",
}


def test_relax_reproduces_published_rows(capsys):
    code, out, _ = run_cli(capsys, "relax", str(FIXTURES / "cps_relax.txt"),
                           "--brute-force")
    fields = report_of(out)
    assert code == 0
    rows = set(fields["inequalities"].split("; "))
    assert rows == PUBLISHED_ROWS
    assert fields["ki_equal"] == "true"
    assert fields["condition_holds"] == "true"
    assert fields["brute_force"] == "MATCH"
    points = fields["relaxation_points"].split("; ")
    assert "0 3" in points and "2 1" in points
    assert fields["relaxation_points"] == fields["ki_points"]


def test_relax_rejects_fractional_polynomial(capsys, tmp_path):
    frac = tmp_path / "frac.txt"
    frac.write_text("POLYTOPE\n1 <= 2\n-1 <= 0\n\nPOLY\n1/2 2\n")
    code, _, err = run_cli(capsys, "relax", str(frac))
    assert code == 4
    assert "integer" in err


# ---------------------------------------------------------------------------
# indepsys

def test_indepsys_gap_two_reported(capsys):
    code, out, _ = run_cli(capsys, "indepsys",
                           str(FIXTURES / "gap_indep_m2.txt"),
                           "--brute-force")
    fields = report_of(out)
    assert code == 0
    assert fields["x_max"] == "0 0 0 0 1 1 1 1"
    assert fields["max_weight"] == "8"
    assert fields["best_weight"] == "0"
    assert fields["lower_image"] == "0 2 4 6 8"
    assert fields["image"] == "0 1 2 3 4 6 8"
    assert fields["better_values"] == "1 3"
    assert fields["gap"] == "2"
    assert fields["evaluations"] == "5"
    assert fields["brute_force"] == "MATCH"


def test_indepsys_cube_no_gap(capsys):
    code, out, _ = run_cli(capsys, "indepsys",
                           str(FIXTURES / "indep_cube.txt"),
                           "--brute-force")
    fields = report_of(out)
    assert code == 0
    assert fields["gap"] == "0"
    assert fields["better_values"] == ""
    assert fields["evaluations"] == "4"
    assert fields["r_bound"] == "0"
    assert fields["brute_force"] == "MATCH"


def test_indepsys_rejects_short_table(capsys, tmp_path):
    short = tmp_path / "short.txt"
    short.write_text("INDEP\n111\n\nWEIGHTS\n1 1 1\n\nTUPLE\n1\n\n"
                     "OBJECTIVE\ntab 1 2 3\n")
    code, _, err = run_cli(capsys, "indepsys", str(short))
    assert code == 4
    assert "maximum weight is 3" in err


def test_indepsys_needs_one_weights_row(capsys, tmp_path):
    two = tmp_path / "two.txt"
    two.write_text("INDEP\n111\n\nWEIGHTS\n1 1 1\n2 2 2\n\nTUPLE\n1 2\n\n"
                   "OBJECTIVE\npwl 1 0\n")
    code, _, err = run_cli(capsys, "indepsys", str(two))
    assert code == 4
    assert "one WEIGHTS row" in err


@pytest.mark.parametrize("indep, line, message", [
    ("1100\n01x0\n", 3, "expected a 0/1 generator string"),
    ("1100\n011\n", 3, "generator has 3 entries, expected 4"),
    ("# nothing\n\n", 1, "INDEP section is empty"),
], ids=["not-binary", "width", "empty"])
def test_indepsys_rejects_bad_generators(capsys, tmp_path, indep, line,
                                         message):
    bad = tmp_path / "bad.txt"
    bad.write_text("INDEP\n" + indep + "\nTUPLE\n1\n\nOBJECTIVE\ntab 1 2\n")
    code, out, err = run_cli(capsys, "indepsys", str(bad))
    assert code == 4
    assert out == ""
    assert f"line {line}: {message}" in err


# ---------------------------------------------------------------------------
# cross-cutting behaviour

BRUTE_CASES = (
    ("count", "unit_cube.txt"),
    ("count", "simplex.txt"),
    ("optimize", "interval_opt.txt"),
    ("optimize", "singleton_opt.txt"),
    ("optimize", "square_opt.txt"),
    ("nfold", "nfold_small.txt"),
    ("nfold", "nfold_quad.txt"),
    ("graver", "nfold_small.txt"),
    ("graver", "nfold_quad.txt"),
    ("convexmax", "convexmax_sq.txt"),
    ("relax", "cps_relax.txt"),
    ("indepsys", "gap_indep_m2.txt"),
    ("indepsys", "indep_cube.txt"),
)


@pytest.mark.parametrize("command,fixture", BRUTE_CASES)
def test_brute_force_matches_everywhere(capsys, command, fixture):
    code, out, _ = run_cli(capsys, command, str(FIXTURES / fixture),
                           "--brute-force")
    assert code == 0
    assert report_of(out)["brute_force"] == "MATCH"


DETERMINISM_CASES = (
    ("count", "unit_cube.txt"),
    ("graver", "nfold_small.txt"),
    ("relax", "cps_relax.txt"),
    ("indepsys", "gap_indep_m2.txt"),
)


@pytest.mark.parametrize("command,fixture", DETERMINISM_CASES)
def test_output_bytes_survive_hash_seed_and_jobs(command, fixture):
    outputs = []
    for seed in ("1", "77"):
        proc = subprocess.run(
            [sys.executable, "-m", "latticeopt.cli", command,
             str(FIXTURES / fixture), "--brute-force"],
            capture_output=True, env=cli_env(PYTHONHASHSEED=seed),
            cwd=str(FIXTURES.parent.parent))
        assert proc.returncode == 0, proc.stderr.decode()
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]


def test_json_matches_text_field_order(capsys):
    path = str(FIXTURES / "unit_cube.txt")
    _, text_out, _ = run_cli(capsys, "count", path, "--brute-force")
    _, json_out, _ = run_cli(capsys, "count", path, "--brute-force",
                             "--format", "json")
    parsed = json.loads(json_out)
    text_keys = [line.split(":")[0] for line in text_out.splitlines()]
    assert list(parsed.keys()) == text_keys
    assert parsed["count"] == 8
    assert parsed["brute_force"] == "MATCH"


def test_json_prints_rationals_exactly(capsys):
    _, out, _ = run_cli(capsys, "optimize",
                        str(FIXTURES / "interval_opt.txt"),
                        "--epsilon", "1/3", "--format", "json")
    parsed = json.loads(out)
    assert parsed["epsilon"] == "1/3"
    assert parsed["point"] == [4]


def test_mismatch_exits_1(capsys, monkeypatch):
    monkeypatch.setattr(cli, "specialize_at_one", lambda g: Fraction(7))
    code, out, _ = run_cli(capsys, "count", str(FIXTURES / "unit_cube.txt"),
                           "--brute-force")
    assert code == 1
    assert report_of(out)["brute_force"] == "MISMATCH"


def test_reads_stdin_with_dash(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin",
                        io.StringIO("POLYTOPE\n1 <= 2\n-1 <= 0\n"))
    code, out, _ = run_cli(capsys, "count", "-")
    assert code == 0
    assert report_of(out)["count"] == "3"


def test_timing_keeps_stdout_identical(capsys):
    path = str(FIXTURES / "unit_cube.txt")
    _, plain, _ = run_cli(capsys, "count", path)
    _, timed, err = run_cli(capsys, "count", path, "--timing")
    assert timed == plain
    assert "elapsed_seconds" in err


def test_usage_errors_exit_4(capsys):
    assert run_cli(capsys, "count")[0] == 4
    assert run_cli(capsys, "nosuchcommand", "x.txt")[0] == 4
    assert run_cli(capsys, "count", "no_such_file.txt")[0] == 4


def test_dispatch_reads_the_module_at_call_time(capsys, monkeypatch):
    path = str(FIXTURES / "nfold_small.txt")
    assert run_cli(capsys, "graver", path)[0] == 0
    monkeypatch.setattr(cli, "cmd_graver", lambda pf, args: [("patched", 1)])
    assert run_cli(capsys, "graver", path) == (0, "patched: 1\n", "")


def test_parser_is_built_once_per_process(capsys):
    cli.build_parser.cache_clear()
    path = str(FIXTURES / "nfold_small.txt")
    for argv in (("graver", path), ("count", "no_such_file.txt"),
                 ("nosuchcommand", path), ("graver", path, "--format",
                                           "json")):
        run_cli(capsys, *argv)
    assert cli.build_parser.cache_info().misses == 1


def test_missing_section_exits_4(capsys):
    code, _, err = run_cli(capsys, "count", str(FIXTURES / "indep_cube.txt"))
    assert code == 4
    assert "POLYTOPE" in err


def test_empty_file_exits_4(capsys, tmp_path):
    blank = tmp_path / "blank.txt"
    blank.write_text("# nothing here\n")
    code, _, err = run_cli(capsys, "count", str(blank))
    assert code == 4
    assert "empty problem file" in err


def test_module_invocation_via_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "latticeopt.cli", "count",
         str(FIXTURES / "unit_cube.txt"), "--format", "json"],
        capture_output=True, env=cli_env())
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["count"] == 8
