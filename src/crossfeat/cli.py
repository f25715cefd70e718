"""Config-driven experiment runner.

Subcommands: ``synth-verify`` (closed-form theory against its oracles),
``gen-data`` (planted dataset to disk), ``train``, ``eval``, ``attribution``,
``sweep`` (epsilon x mode x seed grid with median aggregation), and
``report`` (render a previous output directory).

Configs are JSON.  Every key is checked against the schema below and unknown
keys are rejected with their dotted location.  Results are written as
line-delimited records plus a ``summary.json``; both are deterministic for a
fixed config and seed (wall-clock metadata goes to a separate file).  The
exit status is 0 iff every embedded assertion passed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import sys
import time
from dataclasses import asdict, dataclass, field

from . import __version__
from .attack import AttackConfig
from .attribution import (cas, class_attribution_matrix, instance_cas_matrix,
                          load_matrix, matrix_diff, save_matrix)
from .data import _FORMATS, Dataset, PlantedSpec, generate_planted, load_tabular, save_tabular
from .model import Classifier, load_checkpoint
from .numerics import _MASK64, RngStream, _is_int, _is_number
from .synthetic import SyntheticParams, run_verification
from .training import (TrainConfig, detect_collapse, evaluate, save_records, train,
                       train_many)

__all__ = ["ConfigError", "Report", "cmd_attribution", "cmd_eval",
           "cmd_gen_data", "cmd_report", "cmd_sweep", "cmd_synth_verify",
           "cmd_train", "config_hash", "load_config", "main"]


class ConfigError(ValueError):
    """Config rejected before execution; the message names the location."""


# ---------------------------------------------------------------------------
# Config schema
# ---------------------------------------------------------------------------

_SCHEMA = {
    "out_dir": None,
    "seed": None,
    "synthetic": {"mu": None, "sigma": None, "lam": None, "mc_samples": None,
                  "oracle_steps": None, "seed": None},
    "data": {
        "planted": {"classes": None, "replication": None, "noise_dims": None,
                    "mu": None, "sigma": None, "rotate": None, "n_train": None,
                    "n_test": None, "seed": None},
        "train_path": None, "test_path": None, "format": None, "class_count": None,
    },
    "model": {"hidden": None, "hidden_bias": None, "head_bias": None},
    "train": {"epochs": None, "batch_size": None, "lr": None,
              "decay_fractions": None, "decay_factor": None, "momentum": None,
              "weight_decay": None, "mode": None, "beta": None,
              "lambda_mix": None, "temperature": None, "teacher": None},
    "attack": {"norm": None, "epsilon": None, "step_size": None, "steps": None,
               "random_start": None, "input_bounds": None},
    "eval_attack": {"norm": None, "epsilon": None, "step_size": None,
                    "steps": None, "random_start": None, "input_bounds": None},
    "attribution": {"checkpoint": None, "checkpoint_last": None, "clean": None},
    "eval": {"checkpoint": None},
    "sweep": {"epsilons": None, "modes": None, "seeds": None},
}


def _validate_keys(obj, schema, path: str) -> None:
    if not isinstance(obj, dict):
        raise ConfigError(f"{path or 'config'}: expected an object, got {type(obj).__name__}")
    for key, value in obj.items():
        location = f"{path}.{key}" if path else key
        if key not in schema:
            raise ConfigError(f"unknown config key {location!r}")
        sub = schema[key]
        if isinstance(sub, dict) and isinstance(value, dict):
            _validate_keys(value, sub, location)
        elif isinstance(sub, dict) and value is not None:
            raise ConfigError(f"{location}: expected an object")


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
    _validate_keys(config, _SCHEMA, "")
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


def _integer(value, location: str, override: int | None = None, minimum: int = 0) -> int:
    """``override`` (from ``--seed``) if set, else ``value``; both are checked."""
    if override is not None:
        _integer(override, "--seed")
    # RngStream would truncate a seed of 1.5 or True to another seed, and it
    # rejects one past 2**64 - 1 without naming the key.
    if not _is_int(value, minimum):
        wanted = f"an integer >= {minimum}" if minimum else "a non-negative integer"
        raise ConfigError(f"{location}: expected {wanted}, got {value!r}")
    if value > _MASK64:
        raise ConfigError(f"{location}: expected an integer <= {_MASK64}, got {value!r}")
    return value if override is None else override


def _boolean(value, location: str) -> bool:
    # bool("false") is True: only JSON true and false are accepted.
    if not isinstance(value, bool):
        raise ConfigError(f"{location}: expected true or false, got {value!r}")
    return value


def _path(value, location: str, optional: bool = False) -> str | None:
    # A number would reach open() as a file descriptor; a number or "" for
    # out_dir would fail only after training.
    if (isinstance(value, str) and value) or (optional and value is None):
        return value
    wanted = "a path string or null" if optional else "a path string"
    raise ConfigError(f"{location}: expected {wanted}, got {value!r}")


def _json_list(value, location: str, wanted: str) -> list:
    if not isinstance(value, list):  # a scalar fails in Python's words; a string iterates
        raise ConfigError(f"{location}: expected {wanted}")
    return value


def _attack_from(config: dict, key: str = "attack") -> AttackConfig | None:
    section = config.get(key)
    if section is None:
        return None
    kwargs = dict(section)
    _boolean(kwargs.get("random_start", False), f"{key}.random_start")
    if kwargs.get("input_bounds") is not None:
        kwargs["input_bounds"] = tuple(_json_list(kwargs["input_bounds"], f"{key}.input_bounds",
                                                  "a JSON list [lo, hi]"))
    return _build(key, AttackConfig, kwargs)


def _planted_from(config: dict, seed: int | None) -> PlantedSpec | None:
    planted = config.get("data", {}).get("planted")
    if planted is None:
        return None
    kwargs = dict(planted)
    kwargs["seed"] = _integer(kwargs.get("seed", PlantedSpec.seed), "data.planted.seed", seed)
    _boolean(kwargs.get("rotate", PlantedSpec.rotate), "data.planted.rotate")
    return _build("data.planted", PlantedSpec, kwargs)


def _datasets_from(config: dict, train: bool = True) -> tuple[Dataset | None, Dataset]:
    spec = _planted_from(config, None)
    if spec is not None:
        return generate_planted(spec)
    data = config.get("data", {})
    if "train_path" not in data or "test_path" not in data:
        raise ConfigError("data: need either data.planted or train_path + test_path")
    train_path, test_path = (_path(data[key], f"data.{key}")
                             for key in ("train_path", "test_path"))
    fmt = data.get("format", "delimited-text")
    if fmt not in _FORMATS:
        raise ConfigError(f"data.format: expected one of {_FORMATS}, got {fmt!r}")
    count = data.get("class_count")
    if count is not None:  # null: raw-matrix infers it, delimited-text reads its header
        _integer(count, "data.class_count", minimum=1)
    return (load_tabular(train_path, fmt, count) if train else None,
            load_tabular(test_path, fmt, count))


def _train_cfg_from(config: dict, seed: int, out_dir: str | None) -> TrainConfig:
    section = dict(config.get("train", {}))
    if "epochs" not in section:
        raise ConfigError("train.epochs is required")
    attack = _attack_from(config) or AttackConfig()
    if "decay_fractions" in section:
        section["decay_fractions"] = tuple(_json_list(section["decay_fractions"],
                                                      "train.decay_fractions",
                                                      "a JSON list of numbers"))
    return _build("train", TrainConfig, dict(
        section, attack=attack, eval_attack=_attack_from(config, "eval_attack"),
        seed=seed, out_dir=out_dir))


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


def cmd_synth_verify(config: dict, out_dir: str | None = None,
                     seed: int | None = None) -> Report:
    section = dict(config.get("synthetic", {}))
    mc_samples = _integer(section.pop("mc_samples", 200_000), "synthetic.mc_samples",
                          minimum=1)
    oracle_steps = _integer(section.pop("oracle_steps", 10_000), "synthetic.oracle_steps")
    run_seed = _integer(section.pop("seed", 0), "synthetic.seed", seed)
    params = _build("synthetic", SyntheticParams, section)
    checks = run_verification(params, seed=run_seed, mc_samples=mc_samples,
                              oracle_steps=oracle_steps)
    failures = [c for c in checks if c.status == "fail"]
    counts = {status: sum(1 for c in checks if c.status == status)
              for status in ("pass", "fail", "boundary", "info")}
    return _report("synth-verify", config, run_seed, out_dir,
                   [asdict(c) for c in checks],
                   {"checks": len(checks), **counts,
                    "failed_names": sorted({c.name for c in failures})},
                   passed=not failures)


def cmd_gen_data(config: dict, out_dir: str | None = None,
                 seed: int | None = None) -> Report:
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


def _training_job(config: dict, seed: int, out_dir: str | None,
                  train_set: Dataset) -> tuple[Classifier, TrainConfig]:
    section = config.get("model", {})
    model = _build("model", Classifier.create, dict(
        input_dim=train_set.inputs.shape[1],
        hidden_widths=_json_list(section.get("hidden", [32, 32]), "model.hidden",
                                 "a JSON list of integers"),
        classes=train_set.class_count, rng=RngStream(seed).split(0),
        hidden_bias=_boolean(section.get("hidden_bias", True), "model.hidden_bias"),
        head_bias=_boolean(section.get("head_bias", False), "model.head_bias"),
    ))
    return model, _train_cfg_from(config, seed, out_dir)


def cmd_train(config: dict, out_dir: str | None = None,
              seed: int | None = None) -> Report:
    run_seed = _integer(config.get("seed", 0), "seed", seed)
    train_set, test_set = _datasets_from(config)
    model, cfg = _training_job(config, run_seed, out_dir, train_set)
    record = train(model, train_set, test_set, cfg)
    summary = {"mode": cfg.mode, "epochs": cfg.epochs, "epsilon": cfg.attack.epsilon,
               **record.outcome(),
               "catastrophic_overfitting": detect_collapse(record.rows)}
    return _report("train", config, run_seed, out_dir,
                   [asdict(row) for row in record.rows], summary)


def cmd_eval(config: dict, out_dir: str | None = None,
             seed: int | None = None) -> Report:
    section = config.get("eval", {})
    if "checkpoint" not in section:
        raise ConfigError("eval.checkpoint is required")
    path = _path(section["checkpoint"], "eval.checkpoint")
    run_seed = _integer(config.get("seed", 0), "seed", seed)
    model, epoch, _ = load_checkpoint(path)
    test_set = _datasets_from(config, train=False)[1]
    attack = _attack_from(config)
    metrics, _ = evaluate(model, test_set, attack, RngStream(run_seed))
    return _report("eval", config, run_seed, out_dir,
                   [{"checkpoint": path, "epoch": epoch, **metrics}],
                   dict(metrics))


def cmd_attribution(config: dict, out_dir: str | None = None,
                    seed: int | None = None) -> Report:
    section = config.get("attribution", {})
    if "checkpoint" not in section:
        raise ConfigError("attribution.checkpoint is required")
    paths = [_path(section["checkpoint"], "attribution.checkpoint")]
    last = _path(section.get("checkpoint_last"), "attribution.checkpoint_last", optional=True)
    if last is not None:
        paths.append(last)
    run_seed = _integer(config.get("seed", 0), "seed", seed)
    test_set = _datasets_from(config, train=False)[1]
    attack = _attack_from(config)
    clean = (_boolean(section.get("clean", False), "attribution.clean")
             or attack is None or attack.epsilon == 0.0)
    models = [load_checkpoint(path)[0] for path in paths]
    if models[-1].class_count != models[0].class_count:
        raise ConfigError("attribution: checkpoints have different class counts")
    records, matrices = [], {}
    for path, model, suffix in zip(paths, models, ("", "_last")):
        # One attacked pass: robust accuracy, CAS and ICAS describe the same points.
        metrics, points = evaluate(model, test_set, None if clean else attack,
                                   RngStream(run_seed).split(7))
        matrix = class_attribution_matrix(model, test_set, points)
        icas_matrix, icas = instance_cas_matrix(model, test_set, points)
        matrices[f"attribution_matrix{suffix}.txt"] = matrix
        matrices[f"instance_matrix{suffix}.txt"] = icas_matrix
        records.append({"checkpoint": path, "cas": cas(matrix), "icas": icas,
                        "robust_acc": metrics["robust_acc"],
                        "clean_acc": metrics["clean_acc"]})
    summary = {"cas": records[0]["cas"], "icas": records[0]["icas"],
               "robust_acc": records[0]["robust_acc"], "clean_attribution": clean}
    if len(models) == 2:
        diff, summary["delta_cas"] = matrix_diff(matrices["attribution_matrix.txt"],
                                                 matrices["attribution_matrix_last.txt"])
        matrices["attribution_diff.txt"] = diff
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
    if not all(isinstance(v, list) and v for v in (epsilons, modes, seeds)):
        raise ConfigError("sweep requires nonempty JSON lists epsilons, modes, and seeds")
    for eps in epsilons:
        if not _is_number(eps):
            raise ConfigError(f"sweep.epsilons: expected numbers, got {eps!r}")
    for mode in modes:
        if not isinstance(mode, str):
            raise ConfigError(f"sweep.modes: expected strings, got {mode!r}")
    for cell_seed in seeds:
        _integer(cell_seed, "sweep.seeds")
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


def cmd_sweep(config: dict, out_dir: str | None = None,
              seed: int | None = None) -> Report:
    seed = None if seed is None else _integer(seed, "--seed")  # metadata only
    cells = _sweep_cells(config.get("sweep", {}))
    # Every cell trains on the same data: generate it once, not per cell.
    train_set, test_set = _datasets_from(config)
    jobs = []
    for eps, mode, cell_seed in cells:
        cell_dir = None
        if out_dir is not None:
            cell_dir = os.path.join(out_dir, "cells", _cell_name(eps, mode, cell_seed))
        cell_config = json.loads(json.dumps(config))
        cell_config.setdefault("attack", {})["epsilon"] = eps
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
    report = _report("sweep", config, seed, out_dir, rows,
                     {"cells": len(rows), "medians": medians, "failed_cells": failed},
                     passed=not failed)
    if out_dir is not None:
        save_records(medians, os.path.join(out_dir, "medians.jsonl"))
    return report


def cmd_report(config: dict, out_dir: str | None = None,
               seed: int | None = None) -> Report:
    """Re-render a previous run directory in human-readable form."""
    seed = None if seed is None else _integer(seed, "--seed")
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


_COMMANDS = {
    "synth-verify": cmd_synth_verify,
    "gen-data": cmd_gen_data,
    "train": cmd_train,
    "eval": cmd_eval,
    "attribution": cmd_attribution,
    "sweep": cmd_sweep,
    "report": cmd_report,
}


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
        out_dir = _path(config.get("out_dir"), "out_dir", optional=True)
        report = _COMMANDS[args.command](config, out_dir=args.out or out_dir, seed=args.seed)
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
