"""Config-driven experiment runner.

Subcommands: ``synth-verify`` (closed-form theory against its oracles),
``gen-data`` (planted dataset to disk), ``train``, ``eval``, ``attribution``,
``sweep`` (epsilon x mode x seed grid with median aggregation), and
``report`` (render a previous output directory).

Configs are JSON.  Every command checks the whole config against the schema
below, which states the rule for each value the CLI checks itself, and names
the dotted location of an unknown key or a bad value.  Results are written as
line-delimited records plus a ``summary.json``; both are deterministic for a
fixed config and seed (wall-clock metadata goes to a separate file).  The
exit status is 0 iff every embedded assertion passed.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import statistics
import sys
import time
from dataclasses import asdict, dataclass, field

from . import __version__
from .attack import AttackConfig
from .attribution import cas, instance_cas_matrix, load_matrix, save_matrix
from .data import _FORMATS, Dataset, PlantedSpec, generate_planted, load_tabular, save_tabular
from .model import Classifier, load_checkpoint
from .numerics import _MASK64, RngStream, _is_int, _is_number
from .synthetic import SyntheticParams, run_verification
from .training import (TrainConfig, _measure, detect_collapse, measuring_attack,
                       save_records, train, train_many)

__all__ = ["ConfigError", "Report", "cmd_attribution", "cmd_eval",
           "cmd_gen_data", "cmd_report", "cmd_sweep", "cmd_synth_verify",
           "cmd_train", "config_hash", "load_config", "main"]


class ConfigError(ValueError):
    """Config rejected before execution; the message names the location."""


# ---------------------------------------------------------------------------
# Config schema
# ---------------------------------------------------------------------------

def _rule(test, wanted: str):
    """A schema leaf: None for a value that passes ``test``, else the fault."""
    return lambda value: None if test(value) else f"expected {wanted}, got {value!r}"


def _at_least(minimum: int):
    # RngStream would truncate a seed of 1.5 or True to another seed, and it
    # rejects one past 2**64 - 1 without naming the key.
    low = _rule(lambda v: _is_int(v, minimum),
                f"an integer >= {minimum}" if minimum else "a non-negative integer")
    high = _rule(lambda v: v <= _MASK64, f"an integer <= {_MASK64}")
    return lambda value: low(value) or high(value)


def _list_of(wanted: str, entry=None):
    # A scalar would fail in Python's words, and a string would iterate.
    def check(value):
        if not isinstance(value, list):
            return f"expected a JSON list {wanted}"
        return next(filter(None, map(entry, value)), None) if entry else None
    return check


def _or_null(rule):
    return lambda value: None if value is None else rule(value)


_SEED = _at_least(0)
_SWITCH = _rule(lambda v: isinstance(v, bool), "true or false")  # bool("false") is True
# A number would reach open() as a file descriptor; a number or "" for out_dir
# would fail only after training.
_PATH = _rule(lambda v: isinstance(v, str) and v != "", "a path string")
_PATH_OR_NULL = _rule(lambda v: v is None or _PATH(v) is None, "a path string or null")
_BOUNDS = _or_null(_list_of("[lo, hi]"))  # null: unbounded
_ATTACK = {"norm": None, "epsilon": None, "step_size": None, "steps": None,
           "random_start": _SWITCH, "input_bounds": _BOUNDS}

# Every config key.  A leaf is the CLI's rule for its value, or None where the
# callee owns the rule.  A key left out is not passed: the callee's default holds.
_SCHEMA = {
    "out_dir": _PATH_OR_NULL,
    "seed": _SEED,
    "synthetic": {"mu": None, "sigma": None, "lam": None, "mc_samples": _at_least(1),
                  "oracle_steps": _at_least(0), "seed": _SEED},
    "data": {
        "planted": {"classes": None, "replication": None, "noise_dims": None,
                    "mu": None, "sigma": None, "rotate": _SWITCH, "n_train": None,
                    "n_test": None, "seed": _SEED},
        "train_path": _PATH, "test_path": _PATH,
        "format": _rule(lambda v: v in _FORMATS, f"one of {_FORMATS}"),
        "class_count": _or_null(_at_least(1)),  # null: read from the file
    },
    "model": {"hidden": _list_of("of integers"), "hidden_bias": _SWITCH,
              "head_bias": _SWITCH},
    "train": {"epochs": None, "batch_size": None, "lr": None,
              "decay_fractions": _list_of("of numbers"), "decay_factor": None,
              "momentum": None, "weight_decay": None, "mode": None, "beta": None,
              "lambda_mix": None, "temperature": None, "teacher": None},
    "attack": _ATTACK, "eval_attack": _ATTACK,
    "attribution": {"checkpoint": _PATH, "checkpoint_last": _PATH_OR_NULL,
                    "clean": _SWITCH},
    "eval": {"checkpoint": _PATH},
    "sweep": {"epsilons": _list_of("of numbers", _rule(_is_number, "numbers")),
              "modes": _list_of("of strings", _rule(lambda v: isinstance(v, str), "strings")),
              "seeds": _list_of("of integers", _SEED)},
}


# The sections whose null means none: no attack, or no planted data.  Any
# other null section would reach its reader as None.
_NULL_MEANS_NONE = frozenset({"attack", "eval_attack", "data.planted"})


def _check(config, schema: dict = _SCHEMA, path: str = "") -> None:
    """Walk ``config`` and ``schema`` together; raise naming the first key at fault."""
    if not isinstance(config, dict):
        found = "null" if config is None else type(config).__name__
        raise ConfigError(f"{path or 'config'}: expected an object, got {found}")
    for key, value in config.items():
        location = f"{path}.{key}" if path else key
        if key not in schema:
            raise ConfigError(f"unknown config key {location!r}")
        rule = schema[key]
        if isinstance(rule, dict):
            if value is not None or location not in _NULL_MEANS_NONE:
                _check(value, rule, location)
        elif rule is not None and (fault := rule(value)):
            raise ConfigError(f"{location}: {fault}")


_COMMANDS = {}


def _command(name: str):
    """Register a ``cmd_*`` function as ``crossfeat <name>``.  It checks the
    whole config, and a ``--seed`` override, before it runs: tests and library
    callers pass dicts straight to the ``cmd_*`` functions."""
    def register(command):
        @functools.wraps(command)
        def run(config: dict, out_dir: str | None = None, seed: int | None = None) -> Report:
            _check(config)
            if seed is not None and (fault := _SEED(seed)):
                raise ConfigError(f"--seed: {fault}")
            return command(config, out_dir, seed)
        _COMMANDS[name] = run
        return run
    return register


def load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            config = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}")
    _check(config)
    return config


def config_hash(config: dict) -> str:
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


# ---------------------------------------------------------------------------
# Section builders
# ---------------------------------------------------------------------------


def _build(section: str, ctor, kwargs: dict):
    try:
        return ctor(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{section}: {exc}") from exc


def _attack_from(config: dict, key: str = "attack") -> AttackConfig | None:
    section = config.get(key)
    if section is None:
        return None
    bounds = section.get("input_bounds")
    return _build(key, AttackConfig,
                  dict(section, input_bounds=None if bounds is None else tuple(bounds)))


def _planted_from(config: dict, seed: int | None) -> PlantedSpec | None:
    planted = config.get("data", {}).get("planted")
    if planted is None:
        return None
    return _build("data.planted", PlantedSpec,
                  dict(planted) if seed is None else dict(planted, seed=seed))


def _datasets_from(config: dict, train: bool = True) -> tuple[Dataset | None, Dataset]:
    spec = _planted_from(config, None)
    if spec is not None:
        return generate_planted(spec)
    data = config.get("data", {})
    if "train_path" not in data or "test_path" not in data:
        raise ConfigError("data: need either data.planted or train_path + test_path")
    options = {key: data[key] for key in ("format", "class_count") if key in data}
    train_set = load_tabular(data["train_path"], **options) if train else None
    test_set = load_tabular(data["test_path"], **options)
    if train_set is not None and train_set.class_count != test_set.class_count:
        raise ConfigError(f"data: train_path has {train_set.class_count} classes and "
                          f"test_path {test_set.class_count}; they must agree "
                          f"(data.class_count)")
    return train_set, test_set


def _training_job(config: dict, seed: int, out_dir: str | None,
                  train_set: Dataset) -> tuple[Classifier, TrainConfig]:
    section = config.get("model", {})
    model = _build("model", Classifier.create, dict(
        {key: section[key] for key in ("hidden_bias", "head_bias") if key in section},
        input_dim=train_set.inputs.shape[1],
        hidden_widths=section.get("hidden", [32, 32]),
        classes=train_set.class_count, rng=RngStream(seed).split(0),
    ))
    kwargs = dict(config.get("train", {}))
    if "epochs" not in kwargs:
        raise ConfigError("train.epochs is required")
    if "decay_fractions" in kwargs:
        kwargs["decay_fractions"] = tuple(kwargs["decay_fractions"])
    return model, _build("train", TrainConfig, dict(
        kwargs, attack=_attack_from(config) or AttackConfig(),
        eval_attack=_attack_from(config, "eval_attack"), seed=seed, out_dir=out_dir))


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


@dataclass
class Report:
    """Deterministic run result: metadata, records, and the overall verdict."""

    command: str
    metadata: dict
    records: list[dict] = field(default_factory=list)
    summary: dict = field(default_factory=dict)
    passed: bool = True

    def write(self, out_dir: str | None) -> None:
        if out_dir is None:
            return
        os.makedirs(out_dir, exist_ok=True)
        if self.command != "train":  # train() has written these records there
            save_records(self.records, os.path.join(out_dir, "records.jsonl"))
        payload = {
            "command": self.command,
            "metadata": self.metadata,
            "summary": self.summary,
            "passed": self.passed,
        }
        with open(os.path.join(out_dir, "summary.json"), "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        # Wall-clock data stays out of the deterministic files.
        with open(os.path.join(out_dir, "metadata.json"), "w", encoding="utf-8") as fh:
            json.dump({"wall_time": time.time()}, fh)
            fh.write("\n")

    def render(self, fmt: str) -> str:
        if fmt == "records":
            return "\n".join(json.dumps(r, sort_keys=True) for r in self.records)
        lines = [f"[{self.command}] passed={self.passed}"]
        for key, value in sorted(self.summary.items()):
            lines.append(f"  {key}: {value}")
        return "\n".join(lines)


def _report(command: str, config: dict, seed: int | None, out_dir: str | None,
            records: list[dict], summary: dict, passed: bool = True) -> Report:
    """The command's Report, written to ``out_dir`` when that is set."""
    metadata = {"command": command, "config_hash": config_hash(config),
                "version": __version__, "seed": seed}
    report = Report(command, metadata, records, summary, passed)
    report.write(out_dir)
    return report


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


@_command("synth-verify")
def cmd_synth_verify(config: dict, out_dir: str | None = None, seed: int | None = None) -> Report:
    section = dict(config.get("synthetic", {}))
    options = {key: section.pop(key) for key in ("mc_samples", "oracle_steps") if key in section}
    run_seed = section.pop("seed", 0)  # popped even when --seed overrides it
    run_seed = run_seed if seed is None else seed
    params = _build("synthetic", SyntheticParams, section)
    checks = run_verification(params, seed=run_seed, **options)
    failures = [c for c in checks if c.status == "fail"]
    counts = {status: sum(1 for c in checks if c.status == status)
              for status in ("pass", "fail", "boundary", "info")}
    return _report("synth-verify", config, run_seed, out_dir,
                   [asdict(c) for c in checks],
                   {"checks": len(checks), **counts,
                    "failed_names": sorted({c.name for c in failures})},
                   passed=not failures)


@_command("gen-data")
def cmd_gen_data(config: dict, out_dir: str | None = None, seed: int | None = None) -> Report:
    spec = _planted_from(config, seed)
    if spec is None:
        raise ConfigError("gen-data requires a data.planted section")
    if out_dir is None:
        raise ConfigError("gen-data requires an output directory")
    train_set, test_set = generate_planted(spec)
    os.makedirs(out_dir, exist_ok=True)
    save_tabular(train_set, os.path.join(out_dir, "train.csv"))
    save_tabular(test_set, os.path.join(out_dir, "test.csv"))
    return _report("gen-data", config, spec.seed, out_dir,
                   [{"split": "train", "rows": len(train_set), "dims": spec.total_dim},
                    {"split": "test", "rows": len(test_set), "dims": spec.total_dim}],
                   {"classes": spec.classes, "total_dim": spec.total_dim,
                    "spec_hash": spec.spec_hash(),
                    "train_rows": len(train_set), "test_rows": len(test_set)})


@_command("train")
def cmd_train(config: dict, out_dir: str | None = None, seed: int | None = None) -> Report:
    run_seed = config.get("seed", 0) if seed is None else seed
    train_set, test_set = _datasets_from(config)
    model, cfg = _training_job(config, run_seed, out_dir, train_set)
    record = train(model, train_set, test_set, cfg)
    summary = {"mode": cfg.mode, "epochs": cfg.epochs, "epsilon": cfg.attack.epsilon,
               **record.outcome(),
               "catastrophic_overfitting": detect_collapse(record.rows)}
    return _report("train", config, run_seed, out_dir,
                   [asdict(row) for row in record.rows], summary)


def _measured_checkpoints(command: str, config: dict, seed: int | None):
    """The run seed, the test set, whether attribution is clean, and one
    ``(path, epoch, model, metrics, points, matrix)`` for each checkpoint the
    ``command`` section names, measured as ``train`` measured the epoch it
    stores.  All come before the caller's instance-CAS products: OpenBLAS
    threads those, and its helper thread spins on through the work after them."""
    section = config.get(command, {})
    if "checkpoint" not in section:
        raise ConfigError(f"{command}.checkpoint is required")
    paths = [p for p in (section["checkpoint"], section.get("checkpoint_last")) if p is not None]
    run_seed = config.get("seed", 0) if seed is None else seed
    test_set = _datasets_from(config, train=False)[1]
    attack = measuring_attack(_attack_from(config), _attack_from(config, "eval_attack"))
    clean = section.get("clean", False) or attack is None or attack.epsilon == 0.0
    models, epochs = zip(*(load_checkpoint(path)[:2] for path in paths))
    classes = models[0].class_count
    if models[-1].class_count != classes:
        raise ConfigError(f"{command}: checkpoints have different class counts")
    if classes != test_set.class_count:
        has = "the checkpoint has" if len(paths) == 1 else "the checkpoints have"
        raise ConfigError(f"{command}: {has} {classes} classes and the test data "
                          f"{test_set.class_count} (data.class_count)")
    for path, model in zip(paths, models):
        if model.input_dim != test_set.inputs.shape[1]:
            raise ConfigError(f"{command}: the checkpoint {path} takes {model.input_dim} "
                              f"inputs and the test data has {test_set.inputs.shape[1]}")
    return run_seed, test_set, clean, [
        (path, epoch, model, *_measure(model, test_set, attack, clean, run_seed, epoch))
        for path, epoch, model in zip(paths, epochs, models)]


@_command("eval")
def cmd_eval(config: dict, out_dir: str | None = None, seed: int | None = None) -> Report:
    run_seed, _, _, [(path, epoch, _, metrics, _, _)] = _measured_checkpoints("eval", config, seed)
    return _report("eval", config, run_seed, out_dir,
                   [{"checkpoint": path, "epoch": epoch, **metrics}], dict(metrics))


@_command("attribution")
def cmd_attribution(config: dict, out_dir: str | None = None, seed: int | None = None) -> Report:
    run_seed, test_set, clean, measured = _measured_checkpoints("attribution", config, seed)
    records, matrices = [], {}
    for (path, _, model, metrics, points, matrix), suffix in zip(measured, ("", "_last")):
        icas_matrix, icas = instance_cas_matrix(model, test_set, points)
        matrices[f"attribution_matrix{suffix}.txt"] = matrix
        matrices[f"instance_matrix{suffix}.txt"] = icas_matrix
        records.append({"checkpoint": path, "cas": cas(matrix), "icas": icas,
                        "robust_acc": metrics["robust_acc"], "clean_acc": metrics["clean_acc"]})
    summary = {"cas": records[0]["cas"], "icas": records[0]["icas"],
               "robust_acc": records[0]["robust_acc"], "clean_attribution": clean}
    if len(measured) == 2:
        best, last = matrices["attribution_matrix.txt"], matrices["attribution_matrix_last.txt"]
        matrices["attribution_diff.txt"] = best - last
        summary["delta_cas"] = cas(best) - cas(last)
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        for name, m in matrices.items():
            save_matrix(m, os.path.join(out_dir, name))
    return _report("attribution", config, run_seed, out_dir, records, summary)


def _sweep_cells(section: dict) -> list[tuple[float, str, int]]:
    """The (epsilon, mode, seed) grid in row order.  Rejects a grid in which two
    cells would share a directory."""
    epsilons = section.get("epsilons")
    modes = section.get("modes")
    seeds = section.get("seeds", [1, 2, 3])
    if not (epsilons and modes and seeds):
        raise ConfigError("sweep requires nonempty JSON lists epsilons, modes, and seeds")
    cells = [(eps, mode, cell_seed) for eps in epsilons for mode in modes
             for cell_seed in seeds]
    owners: dict[str, tuple] = {}
    for cell in cells:
        name = _cell_name(*cell)
        if name in owners:
            raise ConfigError(f"sweep: cells {owners[name]} and {cell} share "
                              f"the directory cells/{name}")
        owners[name] = cell
    return cells


def _cell_name(eps: float, mode: str, cell_seed: int) -> str:
    return f"eps{eps:g}_{mode}_s{cell_seed}"


def _cell_row(eps: float, mode: str, cell_seed: int, result) -> dict:
    row = {"epsilon": eps, "mode": mode, "seed": cell_seed}
    if not isinstance(result, Exception) and result.best_epoch is None:
        result = ValueError("no epoch to report: train.epochs is 0")
    if isinstance(result, Exception):  # cell failure is recorded, sweep continues
        row["error"] = f"{type(result).__name__}: {result}"
        return row
    row.update(result.outcome())
    row["delta_cas"] = row["cas_best"] - row["cas_last"]
    row["collapse"] = detect_collapse(result.rows)["occurred"]
    return row


@_command("sweep")
def cmd_sweep(config: dict, out_dir: str | None = None, seed: int | None = None) -> Report:
    cells = _sweep_cells(config.get("sweep", {}))
    # Every cell trains on the same data: generate it once, not per cell.
    train_set, test_set = _datasets_from(config)
    jobs = []
    for eps, mode, cell_seed in cells:
        cell_dir = None
        if out_dir is not None:
            cell_dir = os.path.join(out_dir, "cells", _cell_name(eps, mode, cell_seed))
        cell_config = json.loads(json.dumps(config))
        cell_config["attack"] = dict(cell_config.get("attack") or {}, epsilon=eps)
        cell_config.setdefault("train", {})["mode"] = mode
        jobs.append(_training_job(cell_config, cell_seed, cell_dir, train_set))
    results = train_many(jobs, train_set, test_set)
    rows = [_cell_row(*cell, result) for cell, result in zip(cells, results)]
    medians = []
    for eps, mode in dict.fromkeys((eps, mode) for eps, mode, _ in cells):
        cell = [r for r in rows
                if r["epsilon"] == eps and r["mode"] == mode and "error" not in r]
        if not cell:
            continue
        medians.append({"epsilon": eps, "mode": mode, "seeds": len(cell), **{
            key: statistics.median(r[key] for r in cell)
            for key in ("ra_best", "ra_last", "cas_best", "cas_last", "delta_cas")}})
    failed = sum(1 for r in rows if "error" in r)
    report = _report("sweep", config, seed, out_dir, rows,  # --seed: metadata only
                     {"cells": len(rows), "medians": medians, "failed_cells": failed},
                     passed=not failed)
    if out_dir is not None:
        save_records(medians, os.path.join(out_dir, "medians.jsonl"))
    return report


@_command("report")
def cmd_report(config: dict, out_dir: str | None = None, seed: int | None = None) -> Report:
    """Re-render a previous run directory in human-readable form."""
    if out_dir is None:
        raise ConfigError("report requires --out pointing at a run directory")
    summary_path = os.path.join(out_dir, "summary.json")
    if not os.path.exists(summary_path):
        raise ConfigError(f"no summary.json under {out_dir}")
    with open(summary_path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    lines = [f"run: {payload.get('command')} "
             f"(config {payload.get('metadata', {}).get('config_hash')}, "
             f"passed={payload.get('passed')})"]
    for key, value in sorted(payload.get("summary", {}).items()):
        lines.append(f"  {key}: {value}")
    for name in sorted(os.listdir(out_dir)):
        if name.endswith(".txt"):
            try:
                matrix, labels = load_matrix(os.path.join(out_dir, name))
            except ValueError:
                continue
            lines.append(f"  matrix {name} (classes {labels}):")
            for row in matrix:
                lines.append("    " + " ".join(f"{v: .4f}" for v in row))
    # The rendering is not written back: out_dir holds the run it renders.
    return _report("report", config, seed, None, [payload],
                   {"rendered": "\n".join(lines)},
                   passed=bool(payload.get("passed", True)))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="crossfeat",
        description="Adversarial training experiments with cross-class "
                    "feature attribution metrics.")
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", help="path to a JSON experiment config")
    parser.add_argument("--out", help="output directory")
    parser.add_argument("--seed", type=int, help="override the config seed")
    parser.add_argument("--format", choices=("text", "records"), default="text",
                        help="stdout rendering")
    args = parser.parse_args(argv)
    try:
        config = load_config(args.config)
        report = _COMMANDS[args.command](config, out_dir=args.out or config.get("out_dir"),
                                         seed=args.seed)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # propagate context, fail loudly
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    if args.command == "report":
        print(report.summary["rendered"])
    else:
        print(report.render(args.format))
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
