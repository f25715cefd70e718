"""Tests of the benchmark itself; the crossfeat test suite does not collect them.

Run from the repository root:

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


@pytest.fixture
def work_dir():
    path = os.path.join(run.WORK_DIR, f"tests-{os.getpid()}")
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def _crossfeat_bindings() -> dict:
    import crossfeat.cli  # noqa: F401  (imports every crossfeat module)

    bindings = {}
    for name, module in sys.modules.items():
        if name.startswith("crossfeat.") and module is not None:
            for attr, value in vars(module).items():
                bindings[(name, attr)] = value
    bindings[("crossfeat.cli.Report", "write")] = vars(crossfeat.cli.Report)["write"]
    return bindings


def test_generator_is_a_pure_function_of_the_seed():
    for name in workloads.WORKLOADS:
        assert workloads.generate(name, 7) == workloads.generate(name, 7)
    for name in ("at_train", "sweep_grid", "attribution"):
        assert workloads.generate(name, 7) != workloads.generate(name, 8)
    # Also across interpreters, whatever their string-hash seed.
    script = ("import json, workloads; print(json.dumps([workloads.generate(n, 7).__repr__()"
              " for n in workloads.WORKLOADS]))")
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        out = subprocess.run([sys.executable, "-c", script], cwd=HERE, env=env,
                             capture_output=True, text=True, check=True, timeout=60)
        assert json.loads(out.stdout) == [repr(workloads.generate(n, 7))
                                          for n in workloads.WORKLOADS]


def test_metric_names_and_units_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        bench = json.load(fh)
    declared_e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    declared_layers = {m["name"]: m["unit"] for m in bench["per_layer"]}
    assert declared_e2e == run.END_TO_END
    assert declared_layers == run.layer_units()
    names = (list(declared_e2e) + list(declared_layers) + [w["name"] for w in bench["workloads"]])
    assert len(names) == len(set(names))
    for name in names + tracer.metric_names():
        assert NAME.fullmatch(name), name
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)


def test_fast_half_mean_averages_the_lower_half():
    assert run.fast_half_mean([3.0, 1.0, 2.0]) == 1.5
    assert run.fast_half_mean([9.0, 1.0, 3.0, 100.0]) == 2.0


def test_every_wrapper_is_restored():
    import crossfeat.numerics as numerics
    import crossfeat.training as training
    from crossfeat.attack import AttackConfig
    from crossfeat.data import PlantedSpec, generate_planted
    from crossfeat.model import Classifier

    before = _crossfeat_bindings()
    trace = tracer.Tracer()
    trace.install()
    try:
        patched = {(owner.__name__, attr) for owner, attr, _ in trace.patched}
        for module in ("crossfeat.model", "crossfeat.attack", "crossfeat.training"):
            assert (module, "backward") in patched
        assert ("Report", "write") in patched
        train_set, test_set = generate_planted(PlantedSpec(n_train=20, n_test=10))
        model = Classifier.create(train_set.inputs.shape[1], (4,), 4, numerics.RngStream(0))
        training.train(model, train_set, test_set,
                       training.TrainConfig(epochs=1, attack=AttackConfig(epsilon=0.1, steps=2)))
        with pytest.raises(ValueError):
            numerics.as_array([float("nan")])
    finally:
        trace.uninstall()
    after = _crossfeat_bindings()
    assert after.keys() == before.keys()
    changed = [key for key in before if after[key] is not before[key]]
    assert changed == []
    assert not any(hasattr(value, "__perfbench_traced__") for value in after.values())
    assert trace._stack == []
    metrics = trace.metrics()
    assert metrics["training.train.calls"] == 1
    assert metrics["model.backward.input.calls"] > 0
    assert metrics["model.backward.param.calls"] > 0
    assert set(metrics) == set(tracer.metric_names())


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_traced_and_untraced_calls_write_identical_outputs(name, work_dir):
    workload = workloads.generate(name, 3)
    plain = run.run_child(workload, os.path.join(work_dir, "plain"), timeout=170)
    traced = run.run_child(workload, os.path.join(work_dir, "traced"), timeout=170,
                           spans_path=os.path.join(work_dir, "spans.npz"))
    assert plain.measured and traced.measured
    assert plain.validation.problems == [] and traced.validation.problems == []
    assert plain.digests and plain.digests == traced.digests
    assert set(traced.result["layers"]) == set(tracer.metric_names())
    if name == "attribution":
        assert traced.result["layers"]["attack.pgd.redundancy"] == 3.0
