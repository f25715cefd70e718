"""Each module's ``__all__`` names exactly the public functions and classes
it defines, so a deleted or added name cannot leave a stale or missing entry.
Importing the package stays as cheap as it is, and one module decides how
the package forks workers."""

import ast
import importlib
import inspect
import os
import pkgutil
import subprocess
import sys

import pytest

import crossfeat

MODULES = sorted(info.name for info in pkgutil.iter_modules(crossfeat.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_lists_every_public_definition(name):
    module = importlib.import_module(f"crossfeat.{name}")
    defined = {attr for attr, obj in vars(module).items()
               if not attr.startswith("_")
               and (inspect.isfunction(obj) or inspect.isclass(obj))
               and obj.__module__ == module.__name__}
    assert set(module.__all__) == defined


def test_importing_the_cli_loads_no_process_pool_modules():
    # train and train_many import these when they start a pool, not at
    # import time.
    code = ("import sys, crossfeat.cli; print(sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('multiprocessing', 'concurrent')))")
    src = os.path.dirname(os.path.dirname(os.path.abspath(crossfeat.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=60)
    assert out.stdout.strip() == "[]"


def test_only_numerics_holds_worker_state_or_counts_cpus():
    # A second module-level global or CPU count would be a second way to hand
    # data to a worker or to decide whether to start one.
    found = set()
    for name in MODULES:
        source = inspect.getsource(importlib.import_module(f"crossfeat.{name}"))
        if ("sched_getaffinity" in source
                or any(isinstance(node, ast.Global) for node in ast.walk(ast.parse(source)))):
            found.add(name)
    assert found == {"numerics"}
