"""Span tracer for the traced benchmark run.

The tracer wraps public ``crossfeat`` functions from outside the package: it
replaces each function under every name a ``crossfeat.*`` module looks it up
by (``backward`` is reached as ``crossfeat.model.backward``,
``crossfeat.attack.backward`` and ``crossfeat.training.backward``) and puts
the originals back on ``uninstall``.  Each call becomes a span with a name,
start, end, parent span, the batch rows passed in and process CPU at both
ends.  Spans stay in memory until the run ends.

Per-layer metrics are named ``<module>.<function>.<stat>``:

* ``calls``   - number of calls;
* ``rows``    - batch rows passed in (the second argument's length);
* ``total_s`` - inclusive wall time;
* ``self_s``  - ``total_s`` minus the time covered by child spans;
* ``cpu_s``   - process CPU (all threads) over the self intervals.

Tracer bookkeeping between a child span and its parent counts as the
parent's self time.
"""

from __future__ import annotations

import functools
import hashlib
import sys
import time
from itertools import repeat

import numpy as np

# Functions wrapped, by defining module.  ``model.backward`` is recorded as
# ``model.backward.param`` or ``model.backward.input`` from its
# ``include_params`` argument.
TRACED = {
    "numerics": ("as_array",),
    "model": ("forward", "features", "backward", "sgd_step",
              "save_checkpoint", "load_checkpoint"),
    "attack": ("pgd", "project", "fgsm"),
    "training": ("train", "evaluate"),
    "attribution": ("class_attribution_matrix", "instance_cas_matrix"),
    "data": ("generate_planted", "load_tabular"),
    "synthetic": ("run_verification", "sample", "sample_mixed",
                  "adversarial_batch", "frozen_linear_coefficients",
                  "projected_gd_oracle", "robust_margin_samples",
                  "ls_margin_samples", "pair_margin_prob", "replicate_groups"),
}
TRACED_METHODS = {"cli": (("Report", "write"),)}

_SYNTH_STATS = ("calls", "total_s")
LAYER_STATS = {
    "numerics.as_array": ("calls", "self_s"),
    "model.backward.param": ("calls", "rows", "self_s"),
    "model.backward.input": ("calls", "rows", "self_s", "cpu_s"),
    "model.forward": ("calls", "rows", "self_s", "cpu_s"),
    "model.features": ("calls", "rows", "self_s"),
    "model.sgd_step": ("calls", "self_s"),
    "model.save_checkpoint": ("calls", "total_s"),
    "model.load_checkpoint": ("calls", "total_s"),
    "attack.pgd": ("calls", "rows", "total_s", "self_s"),
    "attack.project": ("calls", "self_s"),
    "attack.fgsm": ("calls", "total_s"),
    "training.train": ("calls", "total_s", "self_s"),
    "training.evaluate": ("calls", "rows", "total_s", "self_s"),
    "attribution.class_attribution_matrix": ("calls", "total_s", "self_s"),
    "attribution.instance_cas_matrix": ("calls", "total_s", "self_s", "cpu_s"),
    "data.generate_planted": ("calls", "total_s"),
    "data.load_tabular": ("calls", "total_s"),
    "cli.Report.write": ("calls", "total_s"),
    "synthetic.run_verification": ("total_s",),
    **{f"synthetic.{fn}": _SYNTH_STATS for fn in TRACED["synthetic"]
       if fn != "run_verification"},
}
# Ratios computed from the spans:
#   attack.pgd.redundancy  - rows attacked per distinct (checkpoint, input row);
#   training.evaluate.share - evaluate time inside train() over train() time.
DERIVED = ("attack.pgd.redundancy", "training.evaluate.share")

_ROWS_LAYERS = frozenset(name for name, stats in LAYER_STATS.items() if "rows" in stats)
_FINGERPRINT = "trace.pgd_fingerprint"


def metric_names() -> list[str]:
    """Every per-layer metric the traced run reports, in a fixed order."""
    names = [f"{layer}.{stat}" for layer, stats in LAYER_STATS.items() for stat in stats]
    return names + list(DERIVED)


def _backward_name(args, kwargs) -> str:
    include = kwargs.get("include_params", args[4] if len(args) > 4 else True)
    return "model.backward.param" if include else "model.backward.input"


def _batch_rows(args, kwargs) -> int:
    batch = args[1] if len(args) > 1 else kwargs.get("x", kwargs.get("dataset"))
    return len(batch) if hasattr(batch, "__len__") else 0


class Tracer:
    """Wraps ``crossfeat`` functions and records one span per call."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        # name id, parent index, rows, start, cpu start, end, cpu end
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._attacked: set = set()
        self._probes: dict[int, np.ndarray] = {}

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every traced function under every name it is looked up by."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = {name: mod for name, mod in sys.modules.items()
                   if name.startswith("crossfeat.") and mod is not None}
        wrappers = {}
        for short, functions in TRACED.items():
            mod = modules.get(f"crossfeat.{short}")
            if mod is None:
                raise RuntimeError(f"crossfeat.{short} is not imported")
            for fn in functions:
                original = getattr(mod, fn)
                wrappers[id(original)] = (original, self._wrap(f"{short}.{fn}", original))
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    self._patch(mod, attr, entry[1])
        for short, methods in TRACED_METHODS.items():
            mod = modules[f"crossfeat.{short}"]
            for cls_name, method in methods:
                cls = getattr(mod, cls_name)
                original = vars(cls)[method]
                self._patch(cls, method,
                            self._wrap(f"{short}.{cls_name}.{method}", original))

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        """Put every original back; raises if one did not come back."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        missing = [f"{owner.__name__}.{attr}"
                   for owner, attr, original in self._patches
                   if vars(owner)[attr] is not original]
        self._patches = []
        if missing:
            raise RuntimeError(f"wrappers not restored: {missing}")

    @property
    def patched(self) -> list[tuple[object, str, object]]:
        return list(self._patches)

    # -- spans ---------------------------------------------------------------

    def _id(self, name: str) -> int:
        ident = self._ids.get(name)
        if ident is None:
            ident = self._ids[name] = len(self.names)
            self.names.append(name)
        return ident

    def _open(self, name: str, rows: int) -> list:
        stack = self._stack
        record = [self._id(name), stack[-1] if stack else -1, rows,
                  time.perf_counter(), time.process_time(), 0.0, 0.0]
        stack.append(len(self.spans))
        self.spans.append(record)
        return record

    def _close(self, record: list) -> None:
        record[6] = time.process_time()
        record[5] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        tracer = self
        if name == "model.backward":
            namer = _backward_name
        else:
            def namer(args, kwargs):
                return name
        is_pgd = name == "attack.pgd"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_name = namer(args, kwargs)
            if is_pgd:
                tracer._fingerprint(args, kwargs)
            rows = _batch_rows(args, kwargs) if span_name in _ROWS_LAYERS else 0
            record = tracer._open(span_name, rows)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(record)

        wrapper.__perfbench_traced__ = name
        return wrapper

    def _fingerprint(self, args, kwargs) -> None:
        # Records which (checkpoint, input row) pairs PGD attacks.  A
        # checkpoint is a model object in one parameter state; a row is
        # identified by its projection on a fixed random direction.  Runs in
        # a span of its own so no layer's self time includes it.
        record = self._open(_FINGERPRINT, 0)
        try:
            model = args[0]
            x = np.asarray(args[1] if len(args) > 1 else kwargs["x"], dtype=np.float64)
            digest = hashlib.sha1()
            for _, param in model.param_items():
                digest.update(param.tobytes())
            key = (id(model), digest.hexdigest())
            probe = self._probes.get(x.shape[1])
            if probe is None:
                probe = np.random.default_rng(x.shape[1]).normal(size=x.shape[1])
                self._probes[x.shape[1]] = probe
            self._attacked.update(zip(repeat(key), (x @ probe).tolist()))
        finally:
            self._close(record)

    # -- results -------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        """Spans as columns; ``names[name]`` is each span's name."""
        table = np.array(self.spans, dtype=np.float64).reshape(-1, 7)
        return {
            "names": np.array(self.names, dtype=str),
            "name": table[:, 0].astype(np.int64),
            "parent": table[:, 1].astype(np.int64),
            "rows": table[:, 2].astype(np.int64),
            "start": table[:, 3],
            "end": table[:, 5],
            "cpu_start": table[:, 4],
            "cpu_end": table[:, 6],
        }

    def save(self, path: str) -> None:
        np.savez(path, **self.arrays())

    def metrics(self) -> dict[str, float]:
        """Every name of :func:`metric_names` with its value (0 when idle)."""
        cols = self.arrays()
        duration = cols["end"] - cols["start"]
        cpu = cols["cpu_end"] - cols["cpu_start"]
        parent = cols["parent"]
        has_parent = parent >= 0
        child_duration = np.zeros_like(duration)
        child_cpu = np.zeros_like(cpu)
        np.add.at(child_duration, parent[has_parent], duration[has_parent])
        np.add.at(child_cpu, parent[has_parent], cpu[has_parent])
        columns = {
            "rows": cols["rows"].astype(np.float64),
            "total_s": duration,
            "self_s": duration - child_duration,
            "cpu_s": cpu - child_cpu,
        }
        out: dict[str, float] = {}
        for layer, stats in LAYER_STATS.items():
            mask = cols["name"] == self._ids.get(layer, -1)
            for stat in stats:
                if stat == "calls":
                    out[f"{layer}.calls"] = float(mask.sum())
                else:
                    out[f"{layer}.{stat}"] = float(columns[stat][mask].sum())
        pgd_rows = out["attack.pgd.rows"]
        out["attack.pgd.redundancy"] = (pgd_rows / len(self._attacked)
                                        if self._attacked else 0.0)
        train_id = self._ids.get("training.train", -1)
        eval_mask = cols["name"] == self._ids.get("training.evaluate", -1)
        in_train = eval_mask & has_parent
        in_train[in_train] = cols["name"][parent[in_train]] == train_id
        train_total = out["training.train.total_s"]
        out["training.evaluate.share"] = (float(duration[in_train].sum()) / train_total
                                          if train_total > 0 else 0.0)
        return out

    def mean_duration(self, name: str, rows: int) -> float | None:
        """Mean inclusive seconds of the ``name`` spans given ``rows`` rows."""
        cols = self.arrays()
        mask = (cols["name"] == self._ids.get(name, -1)) & (cols["rows"] == rows)
        if not mask.any():
            return None
        return float((cols["end"] - cols["start"])[mask].mean())
