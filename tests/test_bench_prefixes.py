"""The benchmark's traced prefixes, solved and checked in tier-1.

perfbench/run.py is loaded by path, as test_bench_surface.py loads the
tracer, and brings its own workloads.py and reference.py with it; none
of them is edited.  The first 158 lattice and 360 fiber draws of seed 1
are the prefixes a ``--trace 1`` run solves.  Each is solved through
run._solve, their stdout digest is pinned, and perfbench/reference.py,
which imports nothing from latticeopt, checks every lattice answer and
the first 90 fiber answers (the rest of the fiber checks would cost
about 3 s more, most of it in brute-force Graver checks).

A change that alters stdout on purpose updates the pinned digest in the
same change and says why.
"""

import importlib.util
import itertools
import sys
from pathlib import Path

import pytest

from latticeopt import cli

RUN = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"


def _load_run():
    saved = list(sys.path)
    spec = importlib.util.spec_from_file_location("bench_run", RUN)
    module = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(module)   # puts perfbench/ on sys.path
    finally:
        sys.path[:] = saved
    return module


_run = _load_run()

PREFIXES = {
    "lattice": (158, 158, "21b57f485e7d0199e6f8ae72d701ffd9"
                          "b29c1612bc0c176cb5c9862953c8f0dd"),
    "fiber": (360, 90, "021f7168075c4145886922e14ef76f6b"
                       "680b8b01b42a1c08a548e129215cc363"),
}


@pytest.mark.parametrize("workload", sorted(PREFIXES))
def test_traced_prefix_is_pinned_and_correct(workload, tmp_path):
    solves, checked, digest = PREFIXES[workload]
    assert solves == _run.TRACE_SOLVES[workload]
    instances = list(itertools.islice(_run.workloads.draw(workload, 1),
                                      solves))
    results = [_run._solve(cli, inst, _run._write(inst, tmp_path, i))
               for i, inst in enumerate(instances)]
    crashed = [(i, r[3]) for i, r in enumerate(results) if r[3] is not None]
    assert not crashed
    assert _run._digest((r[1], r[2]) for r in results) == digest
    wrong = []
    for i, (inst, (_, rc, stdout, _)) in enumerate(
            zip(instances[:checked], results)):
        ok, message, _ = _run.reference.check(inst, rc, stdout)
        if not ok:
            wrong.append(f"{i} {inst.cls}: {message}")
    assert not wrong
