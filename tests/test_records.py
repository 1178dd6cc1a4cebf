"""The library's value classes are frozen records that behave as the
frozen dataclasses they replace.

Each record class is compared with a `dataclasses` twin built here from
its annotations and the one field option the library uses: the same
repr, the same equality, NotImplemented across classes, a hash equal to
the hash of the tuple of compared fields, and no assignment or deletion.
"""

import dataclasses
import inspect
import subprocess
import sys
from fractions import Fraction as F

import pytest

from latticeopt import (cli, convexmax, core, fptas, genfunc, graver,
                        indepsys, polyhedra, polyrelax)
from subprocess_env import cli_env

MODULES = (cli, convexmax, core, fptas, genfunc, graver, indepsys,
           polyhedra, polyrelax)

# fields declared with an `uncompared` default, as dataclass fields
OPTIONS = {
    ("ProblemFile", "origin"): dataclasses.field(
        default=cli.Origin(), compare=False, repr=False),
}

_POLY = fptas.SparsePolynomial(1, ((F(1), (2,)),))
_TERM = genfunc.GFTerm(1, ((F(1), (0, 0)),), (((1, 0), 1),))
_BOX = polyhedra.Polyhedron(((1, 0), (0, 1)), (1, 1))

# two unequal instances of each record class, built afresh on each call
SAMPLES = {
    core.LPProblem: (
        lambda: core.LPProblem(c=(1, 2), A=((1, 1),), b=(3,),
                               senses=("<=",)),
        lambda: core.LPProblem((1, 2), ((1, 1),), (3,), ("<=",),
                               maximize=False)),
    core.LPResult: (
        lambda: core.LPResult("optimal", (1,), F(1)),
        lambda: core.LPResult("infeasible", None, None)),
    polyhedra.Polyhedron: (
        lambda: polyhedra.Polyhedron(((1, 0), (0, 1)), (1, 1)),
        lambda: polyhedra.Polyhedron(((1, 0),), (2,))),
    polyhedra.Vertex: (
        lambda: polyhedra.Vertex((F(1), F(0)), frozenset({0})),
        lambda: polyhedra.Vertex((F(0), F(0)), frozenset({0, 1}))),
    polyhedra.Cone: (
        lambda: polyhedra.Cone((0, 0), ((1, 0), (0, 1))),
        lambda: polyhedra.Cone(apex=(1, 0), rays=((1, 0),))),
    polyhedra.SimplicialCone: (
        lambda: polyhedra.SimplicialCone((0, 0), ((1, 0), (0, 1))),
        lambda: polyhedra.SimplicialCone((0, 0), ((1, 0), (0, 1)), -1,
                                         frozenset({1}))),
    genfunc.GFTerm: (
        lambda: genfunc.GFTerm(1, ((F(1), (0, 0)),), (((1, 0), 1),)),
        lambda: genfunc.GFTerm(-1, ((F(1), (0, 0)),), (((1, 0), 1),))),
    genfunc.GeneratingFunction: (
        lambda: genfunc.GeneratingFunction(2, (_TERM,)),
        lambda: genfunc.GeneratingFunction(2, ())),
    fptas.SparsePolynomial: (
        lambda: fptas.SparsePolynomial(2, ((F(1), (2, 1)),)),
        lambda: fptas.SparsePolynomial(1, ((F(3), (1,)),))),
    fptas.BoundsReport: (
        lambda: fptas.BoundsReport(1, 2, 3, 4, F(1, 2)),
        lambda: fptas.BoundsReport(2, 2, 3, 4, F(1, 2))),
    fptas.MaximizeReport: (
        lambda: fptas.MaximizeReport(F(18), "relative", F(1, 4), 5),
        lambda: fptas.MaximizeReport(F(18), "relative", F(1, 4), 5, k=2)),
    graver.GraverBasis: (
        lambda: graver.GraverBasis(((1, 1),), ((1, -1),)),
        lambda: graver.GraverBasis(((1, 2),), ((2, -1),))),
    graver.NFoldSpec: (
        lambda: graver.NFoldSpec(((1,),), ((1,),), 2, (2, 1, 1)),
        lambda: graver.NFoldSpec(A1=((1,),), A2=((1,),), n=2, b=(2, 0, 2))),
    graver.Square: (lambda: graver.Square(1),
                    lambda: graver.Square(F(1, 2))),
    graver.Abs: (lambda: graver.Abs(0), lambda: graver.Abs(2)),
    graver.PiecewiseMax: (
        lambda: graver.PiecewiseMax(((1, 0), (-1, 0))),
        lambda: graver.PiecewiseMax(((0, 1),))),
    graver.SeparableConvexFn: (
        lambda: graver.SeparableConvexFn((graver.Square(0),)),
        lambda: graver.SeparableConvexFn((graver.Abs(0), graver.Square(1)))),
    graver.AugmentResult: (lambda: graver.AugmentResult((1, 2), 3),
                           lambda: graver.AugmentResult((1, 2), 4)),
    graver.NFoldResult: (
        lambda: graver.NFoldResult((1,), F(2), 1, True, 4),
        lambda: graver.NFoldResult((1,), F(2), 1, False, 4)),
    convexmax.CompositeObjective: (
        lambda: convexmax.CompositeObjective(((1, 1),), evaluator=sum),
        lambda: convexmax.CompositeObjective(((1, 0),), evaluator=sum)),
    convexmax.EdgeDirectionSet: (
        lambda: convexmax.EdgeDirectionSet(((1, 0),)),
        lambda: convexmax.EdgeDirectionSet(((0, 1), (1, 0)))),
    convexmax.LIPResult: (lambda: convexmax.LIPResult("optimal", (2, 0), 2),
                          lambda: convexmax.LIPResult("infeasible")),
    polyrelax.LiftedPolytope: (
        lambda: polyrelax.LiftedPolytope(_POLY, (0,), (1,), ((0, 0), (1, 1))),
        lambda: polyrelax.LiftedPolytope(_POLY, (0,), (2,),
                                         ((0, 0), (1, 1), (2, 4)))),
    indepsys.PrimitiveTuple: (lambda: indepsys.PrimitiveTuple((2, 3)),
                              lambda: indepsys.PrimitiveTuple((1,))),
    indepsys.WeightProfile: (
        lambda: indepsys.WeightProfile((2, 3), (2, 3)),
        lambda: indepsys.WeightProfile((2, 3), (3,))),
    indepsys.StrategyReport: (
        lambda: indepsys.StrategyReport((1, 0), (0, 0), 2, 0, (0, 2)),
        lambda: indepsys.StrategyReport((1, 0), (0, 0), 2, 0, (0, 2),
                                        image=(0, 2))),
    cli.Origin: (lambda: cli.Origin((1,), (2,)), lambda: cli.Origin()),
    cli.ProblemFile: (lambda: cli.ProblemFile(polytope=_BOX),
                      lambda: cli.ProblemFile(weights=(1, 2))),
}


def _is_record(cls):
    # every record's __init__ is a closure over the same code object
    return getattr(cls.__init__, "__code__", None) \
        is core.LPResult.__init__.__code__


def _twin(cls):
    fields = [(name, object, OPTIONS[cls.__name__, name])
              if (cls.__name__, name) in OPTIONS else (name, object)
              for name in cls.__annotations__]
    return dataclasses.make_dataclass(cls.__name__, fields, frozen=True)


TWINS = {cls: _twin(cls) for cls in SAMPLES}


def _fields(cls, which="init"):
    return [f.name for f in dataclasses.fields(TWINS[cls])
            if getattr(f, which)]


def _twin_of(x):
    cls = type(x)
    return TWINS[cls](**{name: getattr(x, name) for name in _fields(cls)})


CLASSES = sorted(SAMPLES, key=lambda cls: f"{cls.__module__}.{cls.__name__}")
IDS = [cls.__name__ for cls in CLASSES]


def test_every_value_class_is_a_record_with_samples():
    records = {obj for module in MODULES for obj in vars(module).values()
               if inspect.isclass(obj) and obj.__module__ == module.__name__
               and _is_record(obj)}
    assert records == set(SAMPLES)
    assert len(records) == 28


@pytest.mark.parametrize("cls", CLASSES, ids=IDS)
def test_record_behaves_as_its_dataclass_twin(cls):
    make_x, make_y = SAMPLES[cls]
    x, x2, y = make_x(), make_x(), make_y()
    tx, tx2, ty = _twin_of(x), _twin_of(x2), _twin_of(y)
    assert repr(x) == repr(tx) and repr(y) == repr(ty)
    assert repr(x).startswith(f"{cls.__name__}(")
    assert (x == x2, x == y, x != y) == (tx == tx2, tx == ty, tx != ty) \
        == (True, False, True)
    compared = tuple(getattr(x, name) for name in _fields(cls, "compare"))
    assert hash(x) == hash(tx) == hash(compared) == hash(x2)
    assert x.__eq__(tx) is NotImplemented and x != tx
    neighbour = CLASSES[(CLASSES.index(cls) + 1) % len(CLASSES)]
    other = SAMPLES[neighbour][0]()
    assert x.__eq__(other) is NotImplemented and x != other


@pytest.mark.parametrize("cls", CLASSES, ids=IDS)
def test_record_fields_cannot_be_assigned_or_deleted(cls):
    x = SAMPLES[cls][0]()
    for name in _fields(cls):
        with pytest.raises(AttributeError):
            setattr(x, name, None)
        with pytest.raises(AttributeError):
            delattr(x, name)
    with pytest.raises(AttributeError):
        x.not_a_field = 1


@pytest.mark.parametrize("cls", CLASSES, ids=IDS)
def test_record_takes_its_fields_by_position_or_keyword(cls):
    x = SAMPLES[cls][1]()
    values = {name: getattr(x, name) for name in _fields(cls)}
    assert cls(*values.values()) == cls(**values) == x
    with pytest.raises(TypeError):
        cls(*values.values(), None)
    with pytest.raises(TypeError):
        cls(*values.values(), not_a_field=None)
    first = next(iter(values))
    with pytest.raises(TypeError):
        cls(*values.values(), **{first: values[first]})


def test_missing_argument_and_defaults():
    with pytest.raises(TypeError, match="missing argument 'x'"):
        core.LPResult("optimal", value=F(1))
    assert convexmax.LIPResult("unbounded") \
        == convexmax.LIPResult("unbounded", None, None)
    assert core.LPProblem((1,), (), (), ()).lower == (None,)


def test_problem_file_equality_ignores_origin():
    a = cli.ProblemFile(weights=(1, 2), origin=cli.Origin((3,), ()))
    b = cli.ProblemFile(weights=(1, 2))
    assert a == b and hash(a) == hash(b)
    assert b.origin == cli.Origin()
    assert "origin" not in repr(a)


def test_separable_function_takes_no_tables_argument():
    f = graver.SeparableConvexFn((graver.Square(0),))
    assert f._tables == ({},)
    with pytest.raises(TypeError):
        graver.SeparableConvexFn((graver.Square(0),), ({},))
    with pytest.raises(TypeError):
        graver.SeparableConvexFn((graver.Square(0),), _tables=({},))
    f.value((3,))
    assert f == graver.SeparableConvexFn((graver.Square(0),))
    assert "_tables" not in repr(f)


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    code = ("import sys, latticeopt.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=cli_env(), check=True).stdout
    assert out.strip() == "[]"
