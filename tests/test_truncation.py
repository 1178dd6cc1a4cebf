"""`int(` appears in the library only at listed call sites.

`int(x)` truncates a non-integer x without a word, so integer data from
a caller goes through `core.integer_vector`, which raises instead.  A
stdlib ``ast`` scan lists every call of the builtin `int` by module and
enclosing function (``Class.method`` for methods); a call anywhere else
fails here, and so does a listed site that no longer calls `int`.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "latticeopt"

ALLOWED = {
    # the one checked conversion every other site should use
    ("core.py", "integer_vector"),
    # values already known to be integers: parsed tokens and digits,
    # cleared denominators, counts, a comparator's sign, indicators,
    # scaled rows and a solver's integral answer
    ("cli.py", "_int_tok"),
    ("cli.py", "_build_indep"),
    ("cli.py", "_orient_equality"),
    ("cli.py", "_fiber_rows"),
    ("cli.py", "cmd_count"),
    ("convexmax.py", "CompositeObjective.compare"),
    ("convexmax.py", "_minimal_point_box"),
    ("core.py", "solve_integer"),
    ("genfunc.py", "_affine_restriction_gf"),
    ("polyrelax.py", "_canonical_row"),
    # caller data that is still truncated; each should move to
    # integer_vector and leave this list
    ("fptas.py", "_canon_monomials"),
    ("fptas.py", "compute_bounds"),
    ("fptas.py", "maximize"),
    ("genfunc.py", "_canon_numerator"),
    ("genfunc.py", "GFTerm.__post_init__"),
    ("genfunc.py", "monomial_gf"),
    ("genfunc.py", "_monomials_of"),
    ("indepsys.py", "_as_point"),
    ("indepsys.py", "PrimitiveTuple.__post_init__"),
    ("indepsys.py", "WeightProfile.__post_init__"),
    ("indepsys.py", "IndependenceSystem.__init__"),
    ("indepsys.py", "IndependenceSystem.explicit"),
    ("indepsys.py", "IndependenceSystem.from_generators"),
    ("indepsys.py", "IndependenceSystem.maximize"),
    ("polyrelax.py", "convex_hull_h"),
    ("polyrelax.py", "build_lifted"),
}


def _int_calls(tree):
    """(enclosing function, line) for each call of the name `int`."""
    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                yield from walk(child, scope + (child.name,))
                continue
            if (isinstance(child, ast.Call)
                    and isinstance(child.func, ast.Name)
                    and child.func.id == "int"):
                yield ".".join(scope), child.lineno
            yield from walk(child, scope)

    return walk(tree, ())


def _sites():
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=path.name)
        for function, line in _int_calls(tree):
            yield path.name, function, line


def test_int_is_called_only_at_listed_sites():
    found = [f"{module}:{line} in {function or '<module>'}"
             for module, function, line in _sites()
             if (module, function) not in ALLOWED]
    assert not found, f"bare int() calls; use integer_vector: {found}"


def test_every_listed_site_still_calls_int():
    stale = ALLOWED - {(module, function) for module, function, _ in _sites()}
    assert not stale, f"listed sites without an int() call: {sorted(stale)}"
