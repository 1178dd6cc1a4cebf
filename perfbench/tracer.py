"""Outside-in tracer for the latticeopt layers.

The library binds its helpers with ``from .x import name``, so a function
lives under several module namespaces at once.  ``Tracer.install`` finds
every ``latticeopt.*`` attribute that *is* a traced function and replaces
it with a timing wrapper; ``uninstall`` puts the originals back.  Nothing
inside the package changes.

Each wrapped call opens a frame.  A frame's self time is its duration
minus the time of the frames opened beneath it.  A call made while the
innermost frame already has the same metric key (``is_bounded`` calling
``is_empty``, ``polyhedron_gf`` recursing into an affine restriction) is
folded into that frame: it is neither a new call nor a new span.  The
generator returned by ``enumerate_fiber`` is timed per ``next()``,
because ``nfold_minimize`` and ``lip_oracle`` spend their time there
rather than in the call that creates it.

Spans ``(id, parent id, solve id, key, start, end)`` stay in memory until
``write_spans`` saves them when the run ends.  Times are read from the
process CPU clock, the clock the end-to-end solve times use.
"""

from __future__ import annotations

import gzip
import sys
import time
from collections import defaultdict

_clock = time.process_time
PACKAGE = "latticeopt"


def _lp_cells(problem, *args, **kwargs):
    return len(problem.A) * len(problem.c)


# (module, attribute) -> metric key; classmethods are named "Class.method"
LAYERS = {
    ("cli", "parse_problem"): "cli.parse_problem",
    ("cli", "emit"): "cli.emit",
    ("cli", "cmd_count"): "cli.command",
    ("cli", "cmd_optimize"): "cli.command",
    ("cli", "cmd_nfold"): "cli.command",
    ("cli", "cmd_graver"): "cli.command",
    ("cli", "cmd_convexmax"): "cli.command",
    ("cli", "cmd_relax"): "cli.command",
    ("cli", "cmd_indepsys"): "cli.command",
    ("core", "solve_lp"): "core.solve_lp",
    ("core", "lll_reduce"): "core.lll",
    ("core", "lll_reduce_with_transform"): "core.lll",
    ("polyhedra", "find_feasible_point"): "polyhedra.preflight",
    ("polyhedra", "is_empty"): "polyhedra.preflight",
    ("polyhedra", "is_bounded"): "polyhedra.preflight",
    ("polyhedra", "implicit_equality_rows"): "polyhedra.preflight",
    ("polyhedra", "enumerate_vertices"): "polyhedra.cones",
    ("polyhedra", "supporting_cone"): "polyhedra.cones",
    ("polyhedra", "triangulate"): "polyhedra.triangulate",
    ("polyhedra", "bounding_box"): "polyhedra.bounding_box",
    ("genfunc", "polyhedron_gf"): "genfunc.polyhedron_gf",
    ("genfunc", "signed_decompose"): "genfunc.signed_decompose",
    ("genfunc", "specialize_at_one"): "genfunc.specialize",
    ("genfunc", "weighted_sum"): "genfunc.weighted_sum",
    ("fptas", "maximize"): "fptas.maximize",
    ("graver", "graver_basis"): "graver.graver_basis",
    ("graver", "greedy_augment"): "graver.greedy_augment",
    ("graver", "check_optimality"): "graver.check_optimality",
    ("convexmax", "lip_oracle"): "convexmax.lip_oracle",
    ("convexmax", "maximize_composite"): "convexmax.maximize_composite",
    ("polyrelax", "build_lifted"): "polyrelax.build_lifted",
    ("polyrelax", "project_with_pi_leq_0"): "polyrelax.project",
    ("polyrelax", "check_condition"): "polyrelax.check_condition",
    ("indepsys", "IndependenceSystem.from_generators"):
        "indepsys.from_generators",
    ("indepsys", "naive_strategy"): "indepsys.naive_strategy",
}

# generator functions: each next() on the returned iterator is one frame
GENERATORS = {
    ("graver", "enumerate_fiber"): "graver.enumerate_fiber",
}

# counts taken per call: (module, attribute) -> (count name, reader); a
# reader gets the call's result, or its arguments when marked "args"
COUNTS = {
    ("core", "solve_lp"): ("core.solve_lp.cells", "args", _lp_cells),
    ("polyhedra", "enumerate_vertices"): ("polyhedra.vertices", "result", len),
    ("polyhedra", "triangulate"): ("polyhedra.simplicial_pieces", "result",
                                   len),
    ("genfunc", "signed_decompose"): ("genfunc.unimodular_terms", "result",
                                      len),
    ("graver", "graver_basis"): ("graver.basis_size", "result",
                                 lambda basis: len(basis.elements)),
    ("graver", "greedy_augment"): ("graver.augment_steps", "result",
                                   lambda res: res.steps),
    ("polyrelax", "build_lifted"): ("polyrelax.cloud_points", "result",
                                    lambda lifted: len(lifted.cloud)),
}


class _Frame:
    __slots__ = ("span", "key", "start", "child", "gf_calls")

    def __init__(self, span, key, start):
        self.span = span
        self.key = key
        self.start = start
        self.child = 0.0
        self.gf_calls = 0


class Tracer:
    """Per-key call counts, self seconds and extra counts, plus spans."""

    def __init__(self):
        self.solve_id = 0
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.self_by_solve = defaultdict(lambda: defaultdict(float))
        self.counts = defaultdict(int)
        self.k_values = []
        self.spans = []
        self._stack = []
        self._next_span = 0
        self._patched = []        # (owner, attribute, original)

    # -- frames -----------------------------------------------------------

    def _open(self, key):
        self._next_span += 1
        frame = _Frame(self._next_span, key, _clock())
        self._stack.append(frame)
        if key == "genfunc.polyhedron_gf":
            for outer in reversed(self._stack):
                if outer.key == "fptas.maximize":
                    outer.gf_calls += 1
                    break
        return frame

    def _close(self, frame):
        end = _clock()
        self._stack.pop()
        duration = end - frame.start
        self.calls[frame.key] += 1
        self.self_s[frame.key] += duration - frame.child
        self.self_by_solve[self.solve_id][frame.key] += duration - frame.child
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent.child += duration
        self.spans.append((frame.span, parent.span if parent else 0,
                           self.solve_id, frame.key, frame.start, end))
        if frame.key == "fptas.maximize" and frame.gf_calls:
            self.counts["fptas.boxes"] += frame.gf_calls - 1

    def _folded(self, key) -> bool:
        return bool(self._stack) and self._stack[-1].key == key

    # -- wrappers ---------------------------------------------------------

    def _wrap_call(self, fn, key, counter=None):
        tracer = self

        def traced(*args, **kwargs):
            if tracer._folded(key):
                return fn(*args, **kwargs)
            frame = tracer._open(key)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(frame)
            if counter is not None:
                name, source, reader = counter
                tracer.counts[name] += reader(*args, **kwargs) \
                    if source == "args" else reader(result)
            if key == "fptas.maximize" and result[1].k is not None:
                tracer.k_values.append(result[1].k)
            return result

        traced.__wrapped__ = fn
        return traced

    def _wrap_generator(self, fn, key):
        tracer = self

        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)

            def timed():
                while True:
                    frame = tracer._open(key)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        tracer._close(frame)
                    yield item

            return timed()

        traced.__wrapped__ = fn
        return traced

    # -- installation -----------------------------------------------------

    def _targets(self):
        """(kind, owner, name, original, wrapper) for every traced name."""
        out = []
        for (module, attr), key in {**LAYERS, **GENERATORS}.items():
            owner = sys.modules[f"{PACKAGE}.{module}"]
            *classes, name = attr.split(".")
            for part in classes:
                owner = getattr(owner, part)
            raw = vars(owner)[name]
            fn = raw.__func__ if isinstance(raw, classmethod) else raw
            if (module, attr) in GENERATORS:
                wrapper = self._wrap_generator(fn, key)
            else:
                wrapper = self._wrap_call(fn, key, COUNTS.get((module, attr)))
            if isinstance(raw, classmethod):
                out.append(("classmethod", owner, name, raw,
                            classmethod(wrapper)))
            else:
                out.append(("function", owner, name, raw, wrapper))
        return out

    def install(self):
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == PACKAGE or name.startswith(PACKAGE + ".")]
        for kind, owner, name, raw, wrapper in self._targets():
            if kind == "classmethod":
                self._patched.append((owner, name, raw))
                setattr(owner, name, wrapper)
                continue
            # every namespace that imported the function under any name
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is raw:
                        self._patched.append((module, attr, raw))
                        setattr(module, attr, wrapper)

    def uninstall(self):
        for owner, attr, raw in reversed(self._patched):
            setattr(owner, attr, raw)
        self._patched.clear()

    # -- results ----------------------------------------------------------

    def write_spans(self, path):
        with gzip.open(path, "wt", encoding="utf-8") as out:
            out.write("span\tparent\tsolve\tkey\tstart\tend\n")
            for span in self.spans:
                out.write("%d\t%d\t%d\t%s\t%.9f\t%.9f\n" % span)
