"""The benchmark's span tracer (``perfbench/tracer.py``) wraps crossfeat
functions by module and name, and reads ``backward``'s ``include_params``
from its fifth positional argument.  These tests fail on a rename or a moved
parameter before a traced benchmark run would."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_resolves_in_its_module(tracer):
    missing = []
    for short, functions in tracer.TRACED.items():
        module = importlib.import_module(f"crossfeat.{short}")
        for name in functions:
            fn = getattr(module, name, None)
            if not callable(fn) or fn.__module__ != module.__name__:
                missing.append(f"{short}.{name}")
    for short, methods in tracer.TRACED_METHODS.items():
        module = importlib.import_module(f"crossfeat.{short}")
        for cls_name, method in methods:
            if not callable(vars(getattr(module, cls_name, object)).get(method)):
                missing.append(f"{short}.{cls_name}.{method}")
    assert missing == []


def test_backward_fifth_parameter_is_include_params():
    from crossfeat.model import backward

    assert list(inspect.signature(backward).parameters)[4] == "include_params"


def test_attack_and_training_call_backward_by_name():
    import crossfeat.attack
    import crossfeat.model
    import crossfeat.training

    assert crossfeat.attack.backward is crossfeat.model.backward
    assert crossfeat.training.backward is crossfeat.model.backward


def test_a_one_worker_verification_calls_every_traced_synthetic_function(tracer, monkeypatch):
    # The tracer counts calls of the module attribute, so a check that stops
    # calling one of these would leave its per-layer metric reading 0.
    import os

    from crossfeat import synthetic

    calls = dict.fromkeys(tracer.TRACED["synthetic"], 0)

    def spy(name, real):
        def counted(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return counted

    for name in calls:
        monkeypatch.setattr(synthetic, name, spy(name, getattr(synthetic, name)))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    synthetic.run_verification()
    assert [name for name, count in calls.items() if count == 0] == []
