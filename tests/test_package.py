import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import eeopt

MODULES = ["eeopt"] + [f"eeopt.{m.name}" for m in pkgutil.iter_modules(eeopt.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert [n for n in getattr(module, "__all__", []) if not hasattr(module, n)] == []


def test_import_loads_no_third_party_module_but_numpy():
    # the package's only third-party import is numpy: a heavier dependency
    # would show in every process's start-up time and memory
    code = ("import sys; before = set(sys.modules); import eeopt; "
            "print(' '.join(sorted({m.partition('.')[0] for m in set(sys.modules) - before})))")
    src = str(Path(eeopt.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True).stdout.split()
    assert set(out) - set(sys.stdlib_module_names) == {"eeopt", "numpy"}


def test_import_loads_no_cli_only_module():
    # `import eeopt` sits on every library caller's start-up path; the
    # modules only the batch front end needs stay off it
    cli_only = ["yaml", "argparse", "csv", "logging", "concurrent.futures", "eeopt.cli"]
    code = f"import sys, eeopt; print(' '.join(m for m in {cli_only!r} if m in sys.modules))"
    src = str(Path(eeopt.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True).stdout.split()
    assert out == []
