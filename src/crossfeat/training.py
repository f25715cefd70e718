"""Training loops: standard, adversarial, label-smoothed adversarial,
distillation-guided adversarial, and single-step fast adversarial training,
with per-epoch robust evaluation, attribution tracking, and best/last
checkpointing.

Determinism contract: a run is a pure function of (model initial state,
datasets, TrainConfig).  All randomness flows through streams split from the
config seed - one for shuffling, one for attack crafting, one for evaluation
- so modes that ignore a stream leave the others untouched (e.g. an epsilon-0
adversarial run steps identically to standard training).  One measurement,
``_measure``, gives each epoch's test_* fields and CAS, and ``crossfeat eval``
and ``attribution`` measure a checkpoint through it.

Record file format: one JSON object per line with the fields ``epoch,
train_robust_loss, train_robust_acc, test_clean_acc, test_robust_acc, cas``
and sorted keys, byte for byte what ``crossfeat train`` leaves in
``records.jsonl``.  The train_* fields are recomputed at the end of
each epoch on the training set with the deterministic evaluation attack, so
they measure the epoch-end model rather than a running average over
minibatches taken while the weights were still moving.  For mode=standard
the two train_* fields hold the clean training quantities and the per-epoch
attribution is computed on clean examples.  A run that diverges leaves the
records of its finished epochs and a ``diverged.json`` marker (epoch, step,
message) in its output directory, and no checkpoints; a run that finishes
there removes the marker.

``train_many`` runs independent jobs on shared datasets, in a pool of forked
worker processes when more than one CPU is usable.  Each job's result depends
only on its own inputs, so the results are identical for any worker count.

Pipelined epochs: with more than one usable CPU, at least two epochs, and
not inside a forked worker such as a ``train_many`` cell, ``train`` hands
each epoch-end snapshot to one forked worker, which evaluates it while the
next epoch trains; otherwise it is evaluated here.  Either way an epoch
settles after the next one's steps, or before a divergence in them, so
records and checkpoints are byte-identical and an error its evaluation raised
surfaces then, winning over the divergence.  The worker is shut down before
``train`` returns or raises.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
from dataclasses import asdict, dataclass, replace

import numpy as np

from .attack import AttackConfig, fgsm, pgd
from .attribution import cas, class_attribution_matrix
from .data import Dataset
from .model import (Classifier, CrossEntropy, Distillation, backward, forward,
                    load_checkpoint, log_softmax, save_checkpoint, sgd_step)
from .numerics import (RngStream, _fork_pool, _is_int, _require_number, _run_jobs,
                       _worker_count)

__all__ = [
    "EpochRow",
    "RunRecord",
    "TrainConfig",
    "TrainingDiverged",
    "detect_collapse",
    "evaluate",
    "lr_at",
    "measuring_attack",
    "save_records",
    "train",
    "train_many",
]

MODES = ("standard", "at", "at_ls", "at_kd", "fast_at")


class TrainingDiverged(RuntimeError):
    """Raised when the training loss explodes or turns non-finite."""


@dataclass(frozen=True)
class TrainConfig:
    """Everything a run needs besides the model and the data."""

    epochs: int
    attack: AttackConfig
    mode: str = "at"
    batch_size: int = 128
    lr: float = 0.1
    decay_fractions: tuple[float, ...] = (0.5, 0.75)
    decay_factor: float = 0.1
    momentum: float = 0.9
    weight_decay: float = 5e-4
    beta: float = 0.2
    lambda_mix: float = 0.5
    temperature: float = 2.0
    teacher: Classifier | str | None = None
    eval_attack: AttackConfig | None = None
    seed: int = 0
    out_dir: str | None = None

    def __post_init__(self) -> None:
        if not _is_int(self.epochs, 0):
            raise ValueError(f"epochs must be an integer >= 0, got {self.epochs!r}")
        if not _is_int(self.batch_size, 1):
            raise ValueError(f"batch_size must be an integer >= 1, got {self.batch_size!r}")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        for name in ("lr", "decay_factor", "momentum", "weight_decay", "beta", "lambda_mix",
                     "temperature"):
            _require_number(name, getattr(self, name))
        for fraction in self.decay_fractions:
            _require_number("decay_fractions", fraction)
        fr = self.decay_fractions
        if any(not (0.0 < f < 1.0) for f in fr) or any(a >= b for a, b in zip(fr, fr[1:])):
            raise ValueError(
                f"decay_fractions must be strictly increasing within (0, 1), got {fr}")
        if not (0.0 <= self.lambda_mix <= 1.0):
            raise ValueError(f"lambda_mix must lie in [0, 1], got {self.lambda_mix}")
        CrossEntropy(self.beta)  # the one rule for beta
        if self.teacher is not None and (not isinstance(self.teacher, (Classifier, str))
                                         or self.teacher == ""):
            raise ValueError(f"teacher must be a Classifier, a checkpoint path or None, "
                             f"got {self.teacher!r}")
        if self.lr < 0 or self.decay_factor <= 0:
            raise ValueError("lr must be >= 0 and decay_factor > 0")


def measuring_attack(attack: AttackConfig | None,
                     eval_attack: AttackConfig | None) -> AttackConfig | None:
    """The attack every command measures a model under: ``eval_attack`` if
    given, else ``attack`` without its random start; None (clean) if neither."""
    if eval_attack is not None:
        return eval_attack
    return None if attack is None else replace(attack, random_start=False)


@dataclass
class EpochRow:
    epoch: int
    train_robust_loss: float
    train_robust_acc: float
    test_clean_acc: float
    test_robust_acc: float
    cas: float


@dataclass
class RunRecord:
    """Per-epoch rows plus the best (highest test robust accuracy, earliest
    tie) and final model states."""

    rows: list[EpochRow]
    best_epoch: int | None
    best_model: Classifier
    last_model: Classifier

    def outcome(self) -> dict:
        """Best against last: ``best_epoch``, ``ra_best``, ``ra_last``,
        ``cas_best`` and ``cas_last``, each None for a run with no epochs."""
        if not self.rows:
            return dict.fromkeys(("best_epoch", "ra_best", "ra_last", "cas_best", "cas_last"))
        best, last = self.rows[self.best_epoch], self.rows[-1]
        return {"best_epoch": self.best_epoch, "ra_best": best.test_robust_acc,
                "ra_last": last.test_robust_acc, "cas_best": best.cas, "cas_last": last.cas}


def lr_at(epoch: int, cfg: TrainConfig) -> float:
    """Stepwise-decayed learning rate for a zero-indexed epoch."""
    if not (0 <= epoch < max(cfg.epochs, 1)):
        raise ValueError(f"epoch {epoch} outside [0, {cfg.epochs})")
    lr = cfg.lr
    for fraction in cfg.decay_fractions:
        if epoch >= math.floor(fraction * cfg.epochs):
            lr *= cfg.decay_factor
    return lr


def _per_sample_ce(logits: np.ndarray, labels: np.ndarray) -> np.ndarray:
    logp = log_softmax(logits)
    return -logp[np.arange(len(labels)), labels]


def evaluate(model: Classifier, dataset: Dataset,
             attack: AttackConfig | None = None,
             rng: RngStream | None = None) -> tuple[dict, np.ndarray]:
    """Clean and robust accuracy plus mean loss, and the attacked points.

    A sample counts as robust only if it is classified correctly both at the
    clean point and at the attacked point: the clean point lies inside every
    attack ball, so the attack can only remove correct classifications and
    robust_acc <= clean_acc holds deterministically.  mean_loss averages the
    per-sample worse (higher) of the clean and attacked cross-entropy.
    Returns ``(metrics, points)``; without an attack the points are the clean
    inputs.  A random-start attack draws from ``rng``, which it requires.
    """
    if len(dataset) == 0:
        raise ValueError("cannot evaluate on an empty dataset")
    inputs, labels = dataset.inputs, dataset.labels
    clean_logits = forward(model, inputs)
    clean_correct = clean_logits.argmax(axis=1) == labels
    points, correct, loss = inputs, clean_correct, _per_sample_ce(clean_logits, labels)
    if attack is not None and attack.epsilon != 0.0:
        points = pgd(model, inputs, labels, attack, rng)
        adv_logits = forward(model, points)
        correct = clean_correct & (adv_logits.argmax(axis=1) == labels)
        loss = np.maximum(loss, _per_sample_ce(adv_logits, labels))
    return {
        "clean_acc": float(clean_correct.mean()),
        "robust_acc": float(correct.mean()),
        "mean_loss": float(loss.mean()),
    }, points


def _loss_spec(cfg: TrainConfig):
    if cfg.mode != "at_kd":
        return CrossEntropy(cfg.beta if cfg.mode == "at_ls" else 0.0)
    if cfg.teacher is None:
        raise ValueError("mode=at_kd requires a teacher model or checkpoint path")
    teacher = cfg.teacher
    if isinstance(teacher, str):
        teacher, _, _ = load_checkpoint(teacher)
    return Distillation(teacher, cfg.temperature, cfg.lambda_mix)


def _measure(model: Classifier, test_set: Dataset, attack: AttackConfig | None,
             clean: bool, seed: int, epoch: int) -> tuple[dict, np.ndarray, np.ndarray]:
    """``(metrics, attributed points, class matrix)`` of the model a run seeded
    ``seed`` reached at ``epoch`` (-1 if it ran none): ``evaluate`` under
    ``attack`` in the stream ``RngStream(seed).split(3).split(max(epoch, 0))``,
    attributing the attacked points or, if ``clean``, the clean inputs."""
    metrics, points = evaluate(model, test_set, attack,
                               RngStream(seed).split(3).split(max(epoch, 0)))
    points = test_set.inputs if clean else points
    return metrics, points, class_attribution_matrix(model, test_set, points)


def _evaluate_epoch(model: Classifier, train_set: Dataset, test_set: Dataset,
                    attack: AttackConfig, standard: bool, seed: int, epoch: int) -> dict:
    """The measured ``EpochRow`` fields of one epoch-end model, by name;
    standard training measures and attributes clean points."""
    train_metrics, _ = evaluate(model, train_set, None if standard else attack,
                                RngStream(seed).split(4).split(epoch))
    metrics, _, matrix = _measure(model, test_set, attack, standard, seed, epoch)
    return {"train_robust_loss": train_metrics["mean_loss"],
            "train_robust_acc": train_metrics["robust_acc"],
            "test_clean_acc": metrics["clean_acc"],
            "test_robust_acc": metrics["robust_acc"], "cas": cas(matrix)}


def train(model: Classifier, train_set: Dataset, test_set: Dataset,
          cfg: TrainConfig) -> RunRecord:
    """Run the configured training mode; see the module docstring for the
    determinism and record contracts."""
    if len(train_set) == 0 or len(test_set) == 0:
        raise ValueError("train and test sets must be nonempty")
    loss_spec = _loss_spec(cfg)
    eval_attack = measuring_attack(cfg.attack, cfg.eval_attack)
    opt_state = None
    rows: list[EpochRow] = []
    best = (-1.0, None, model.copy())  # (test robust acc, epoch, model)
    pending = []  # (epoch, snapshot, evaluation) not yet in rows
    inputs, labels = train_set.inputs, train_set.labels
    pipelined = cfg.epochs > 1 and _worker_count(2) > 1

    def settle() -> None:
        nonlocal best
        for epoch, snapshot, evaluation in pending:
            row = EpochRow(epoch, **evaluation.result())
            rows.append(row)
            if row.test_robust_acc > best[0]:
                best = (row.test_robust_acc, epoch, snapshot)
        pending.clear()

    with _fork_pool(1 if pipelined else 0, (train_set, test_set)) as pool:
        for epoch in range(cfg.epochs):
            lr = lr_at(epoch, cfg)
            order = RngStream(cfg.seed).split(1).split(epoch).generator.permutation(len(train_set))
            epoch_attack = RngStream(cfg.seed).split(2).split(epoch)
            for step, start in enumerate(range(0, len(order), cfg.batch_size)):
                idx = order[start:start + cfg.batch_size]
                x, y = inputs[idx], labels[idx]
                if cfg.mode == "standard":
                    x_in = x
                elif cfg.mode == "fast_at":
                    x_in = fgsm(model, x, y, cfg.attack, epoch_attack.split(step))
                else:
                    x_in = pgd(model, x, y, cfg.attack, epoch_attack.split(step))
                bundle = backward(model, x_in, y, loss_spec)
                if not np.isfinite(bundle.loss) or bundle.loss > 1e6:
                    exc = TrainingDiverged(
                        f"loss {bundle.loss} at epoch {epoch} step {step} "
                        f"(mode={cfg.mode}, lr={lr})")
                    # The previous epoch's evaluation, or its error, came first.
                    settle()
                    if cfg.out_dir is not None:
                        _save_divergence(cfg.out_dir, rows, epoch, step, str(exc))
                    raise exc
                opt_state = sgd_step(model, bundle.params, lr, cfg.momentum,
                                     cfg.weight_decay, opt_state)

            # With a worker, this snapshot is evaluated while the next epoch trains.
            settle()
            snapshot = model.copy()
            pending.append((epoch, snapshot, pool.submit(
                _evaluate_shared, snapshot, eval_attack, cfg.mode == "standard",
                cfg.seed, epoch)))
        settle()

    _, best_epoch, best_model = best
    record = RunRecord(rows=rows, best_epoch=best_epoch,
                       best_model=best_model, last_model=model.copy())
    if cfg.out_dir is not None:
        os.makedirs(cfg.out_dir, exist_ok=True)
        # best_epoch is None exactly when there are no rows.
        save_checkpoint(record.best_model, os.path.join(cfg.out_dir, "best.ckpt"),
                        epoch=-1 if best_epoch is None else best_epoch,
                        metrics=asdict(rows[best_epoch]) if rows else {})
        save_checkpoint(record.last_model, os.path.join(cfg.out_dir, "last.ckpt"),
                        epoch=cfg.epochs - 1, metrics=asdict(rows[-1]) if rows else {})
        save_records([asdict(row) for row in rows],
                     os.path.join(cfg.out_dir, "records.jsonl"))
        # A marker left by an earlier run that diverged here no longer holds.
        with contextlib.suppress(FileNotFoundError):
            os.remove(os.path.join(cfg.out_dir, "diverged.json"))
    return record


def _save_divergence(out_dir: str, rows: list[EpochRow], epoch: int, step: int,
                     message: str) -> None:
    """Records of the finished epochs plus a marker naming where the loss blew up."""
    os.makedirs(out_dir, exist_ok=True)
    # Checkpoints an earlier run left here would pass for this run's.
    for name in ("best.ckpt", "last.ckpt"):
        with contextlib.suppress(FileNotFoundError):
            os.remove(os.path.join(out_dir, name))
    save_records([asdict(row) for row in rows], os.path.join(out_dir, "records.jsonl"))
    save_records([{"epoch": epoch, "step": step, "message": message}],
                 os.path.join(out_dir, "diverged.json"))


def save_records(records: list[dict], path: str) -> None:
    """One JSON object per line with sorted keys: every ``.jsonl`` file a
    command writes, and ``diverged.json``."""
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record, sort_keys=True) + "\n")


def _evaluate_shared(datasets: tuple[Dataset, Dataset], model: Classifier, *job):
    return _evaluate_epoch(model, *datasets, *job)


def train_many(jobs, train_set: Dataset,
               test_set: Dataset) -> list[RunRecord | Exception]:
    """Train each ``(model, TrainConfig)`` job on the same datasets.

    Returns, in job order, each job's ``RunRecord`` or the exception it
    raised.  The callers' models are not modified.  The jobs run in a pool of
    forked processes, one per CPU this process may run on (at most one per
    job), which inherit the datasets; with one CPU or one job they run here,
    one after another.
    """
    return _run_jobs(train, [(model.copy(), train_set, test_set, cfg) for model, cfg in jobs])


def detect_collapse(rows: list[EpochRow]) -> dict:
    """The robust-accuracy collapse of fast adversarial training: test robust
    accuracy rose above 0.2, first at ``peak_epoch``, and later fell below
    0.05, first at ``collapse_epoch``; ``occurred`` says whether it did."""
    peak_epoch = collapse_epoch = None
    for row in rows:
        if peak_epoch is None:
            if row.test_robust_acc > 0.2:
                peak_epoch = row.epoch
        elif row.test_robust_acc < 0.05:
            collapse_epoch = row.epoch
            break
    return {"occurred": collapse_epoch is not None, "peak_epoch": peak_epoch,
            "collapse_epoch": collapse_epoch}
