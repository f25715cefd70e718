"""Each module's ``__all__`` names exactly the public functions and classes
it defines, so a deleted or added name cannot leave a stale or missing entry.
Importing the package stays as cheap as it is, and one module decides how
the package forks workers."""

import ast
import importlib
import inspect
import json
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


def test_importing_the_cli_loads_no_process_pool_modules(tmp_path):
    # Nor does a pipelined train or a pooled synth-verify: their workers are
    # forked over plain pipes.
    train = tmp_path / "train.json"
    train.write_text(json.dumps({
        "data": {"planted": {"classes": 3, "replication": 1, "noise_dims": 2,
                             "rotate": False, "n_train": 30, "n_test": 15}},
        "model": {"hidden": [8]}, "train": {"epochs": 2},
        "attack": {"epsilon": 0.2}}))
    synth = tmp_path / "synth.json"
    synth.write_text(json.dumps({"synthetic": {"mc_samples": 50_000, "oracle_steps": 4_000}}))
    code = ("import os, sys\n"
            "os.sched_getaffinity = lambda pid: {0, 1}\n"
            "from crossfeat import cli, numerics, training\n"
            "def loaded():\n"
            "    return sorted(m for m in sys.modules\n"
            "                  if m.split('.')[0] in ('multiprocessing', 'concurrent'))\n"
            "pools, real = [], numerics._fork_pool\n"
            "numerics._fork_pool = training._fork_pool = (\n"
            "    lambda *args: pools.append(args[0]) or real(*args))\n"
            "after_import = loaded()\n"
            f"assert cli.main(['train', '--config', {str(train)!r}]) == 0\n"
            f"assert cli.main(['synth-verify', '--config', {str(synth)!r}]) == 0\n"
            "print(after_import, loaded(), pools)\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(crossfeat.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    assert out.stdout.strip().splitlines()[-1] == "[] [] [1, 2]"


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


SOURCE = os.path.dirname(os.path.abspath(crossfeat.__file__))
TRACER = os.path.join(os.path.dirname(os.path.dirname(SOURCE)), "perfbench", "tracer.py")
# The bridge from the synthetic theory to trained models (ROADMAP item 9) is
# public before anything in the package calls it.
NOT_YET_CALLED = {"synthetic.linear_classifier"}


def _parse(path):
    with open(path, encoding="utf-8") as fh:
        return ast.parse(fh.read(), path)


def test_every_public_name_has_a_caller_in_the_package():
    # A public name that only tests reach is API kept for them; the package
    # says the same with the names it does call.
    uses = set()  # (module, name) loaded somewhere outside the name's own definition
    for module in MODULES:
        tree = _parse(os.path.join(SOURCE, f"{module}.py"))
        origin = {alias.asname or alias.name: (node.module, alias.name)
                  for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                  for alias in node.names}
        for statement in tree.body:
            owner = getattr(statement, "name", None)
            for node in ast.walk(statement):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    used = origin.get(node.id, (module, node.id))
                    if used != (module, owner):
                        uses.add(used)
                elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                      and node.value.id in MODULES):  # numerics._held, say
                    uses.add((node.value.id, node.attr))
    traced = next(ast.literal_eval(node.value) for node in _parse(TRACER).body
                  if isinstance(node, ast.Assign)
                  and getattr(node.targets[0], "id", None) == "TRACED")
    cli = importlib.import_module("crossfeat.cli")
    commands = {run.__name__ for run in cli._COMMANDS.values()}
    unused = [f"{module}.{name}" for module in MODULES
              for name in importlib.import_module(f"crossfeat.{module}").__all__
              if (module, name) not in uses and name not in traced.get(module, ())
              and f"{module}.{name}" not in NOT_YET_CALLED
              and not (module == "cli" and name in commands)]
    assert unused == []
