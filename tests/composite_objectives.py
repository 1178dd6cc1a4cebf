"""Builders of composite convex objectives for the tests.

The CLI builds its objectives from OBJECTIVE lines; these four
shorthands only serve tests, which write c(w_1.x, ..., w_d.x) as Python
values rather than as a problem file.
"""

from fractions import Fraction

from latticeopt.convexmax import CompositeObjective
from latticeopt.core import dot


def max_of_linear(weights, terms) -> CompositeObjective:
    """c(y) = max over (coeffs, offset) pairs of coeffs.y + offset."""
    tm = tuple((tuple(Fraction(a) for a in cs), Fraction(off))
               for cs, off in terms)
    if not tm:
        raise ValueError("need at least one linear term")
    return CompositeObjective(
        tuple(weights),
        evaluator=lambda y, tm=tm: max(dot(cs, y) + off for cs, off in tm))


def sum_of_squares(weights) -> CompositeObjective:
    return CompositeObjective(
        tuple(weights), evaluator=lambda y: sum(a * a for a in y))


def l1_norm(weights) -> CompositeObjective:
    return CompositeObjective(
        tuple(weights), evaluator=lambda y: sum(abs(a) for a in y))


def from_table(weights, table) -> CompositeObjective:
    """c given by an explicit point -> value mapping.  Lookups outside
    the table raise KeyError; cover the image range."""
    tb = {tuple(int(a) for a in k): Fraction(v)
          for k, v in dict(table).items()}
    return CompositeObjective(
        tuple(weights), evaluator=lambda y, tb=tb: tb[tuple(y)])
