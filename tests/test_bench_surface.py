"""The benchmark tracer's view of the package must still resolve.

perfbench/tracer.py names the functions it wraps as (module, attribute)
pairs and looks each one up in the module's own namespace, so a renamed
or deleted function breaks a traced benchmark run.  This test reads
those tables without editing or running the benchmark.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_tracer = _load_tracer()


@pytest.mark.parametrize("module,attr",
                         sorted({**_tracer.LAYERS, **_tracer.GENERATORS}))
def test_traced_name_resolves(module, attr):
    owner = importlib.import_module(f"{_tracer.PACKAGE}.{module}")
    *classes, name = attr.split(".")
    for part in classes:
        owner = getattr(owner, part)
    # the tracer reads vars(owner)[name], so inherited or re-exported
    # lookups through getattr would not be enough
    assert name in vars(owner), f"{module}.{attr}"
    raw = vars(owner)[name]
    assert callable(getattr(raw, "__func__", raw)), f"{module}.{attr}"
