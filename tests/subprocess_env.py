"""Environment for tests that run `python -m latticeopt.cli` as a child.

The child imports the same `latticeopt` as the suite, so a fresh
checkout needs neither an install nor PYTHONPATH.
"""

import os
from pathlib import Path

import latticeopt

SRC = str(Path(latticeopt.__file__).resolve().parent.parent)


def cli_env(**extra):
    path = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    return dict(os.environ, PYTHONPATH=path, **extra)
