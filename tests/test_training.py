"""Tests for the training loop, evaluation semantics, schedules, records,
and the fast-attack collapse detector."""

import json
import os
import signal
from dataclasses import asdict

import numpy as np
import pytest

import crossfeat.model
import crossfeat.numerics
import crossfeat.training
from crossfeat.attack import AttackConfig, pgd
from crossfeat.attribution import cas, class_attribution_matrix
from crossfeat.data import Dataset, PlantedSpec, generate_planted
from crossfeat.model import (Affine, Classifier, CrossEntropy, forward,
                             load_checkpoint, save_checkpoint)
from crossfeat.numerics import RngStream
from crossfeat.training import (EpochRow, RunRecord, TrainConfig,
                                TrainingDiverged, detect_collapse, evaluate,
                                lr_at, measuring_attack, save_records, train,
                                train_many)


def tiny_data():
    spec = PlantedSpec(classes=3, replication=1, noise_dims=2, mu=1.0,
                       sigma=0.3, rotate=False, n_train=30, n_test=15, seed=0)
    return generate_planted(spec)


def tiny_model(seed=0, input_dim=8, classes=3):
    return Classifier.create(input_dim, (8,), classes,
                             RngStream(seed, stream_id=50))


def tiny_cfg(**overrides):
    base = dict(epochs=3, attack=AttackConfig(norm="linf", epsilon=0.2),
                mode="at", batch_size=16, seed=0)
    base.update(overrides)
    return TrainConfig(**base)


def row(epoch, ra, cas_value=0.0):
    return EpochRow(epoch=epoch, train_robust_loss=0.1, train_robust_acc=0.9,
                    test_clean_acc=0.9, test_robust_acc=ra, cas=cas_value)


class TestTrainConfig:
    def test_validation(self):
        attack = AttackConfig(epsilon=0.1)
        with pytest.raises(ValueError, match="epochs"):
            TrainConfig(epochs=-1, attack=attack)
        with pytest.raises(ValueError, match="batch_size"):
            TrainConfig(epochs=1, attack=attack, batch_size=0)
        with pytest.raises(ValueError, match="mode"):
            TrainConfig(epochs=1, attack=attack, mode="pgd")
        with pytest.raises(ValueError, match="decay_fractions"):
            TrainConfig(epochs=1, attack=attack, decay_fractions=(0.75, 0.5))
        with pytest.raises(ValueError, match="decay_fractions"):
            TrainConfig(epochs=1, attack=attack, decay_fractions=(0.0, 0.5))
        with pytest.raises(ValueError, match="lambda_mix"):
            TrainConfig(epochs=1, attack=attack, lambda_mix=1.5)
        with pytest.raises(ValueError, match="beta"):
            TrainConfig(epochs=1, attack=attack, beta=1.0)
        with pytest.raises(ValueError, match="lr"):
            TrainConfig(epochs=1, attack=attack, lr=-0.1)

    def test_numpy_numbers_are_numbers(self):
        cfg = TrainConfig(epochs=1, attack=AttackConfig(), lr=np.float64(0.1),
                          decay_fractions=(np.float64(0.5),))
        assert cfg.lr == 0.1

    def test_beta_rule_is_the_cross_entropy_rule(self):
        attack = AttackConfig(epsilon=0.1)
        for beta in (1.0, -0.5):
            with pytest.raises(ValueError) as loss_error:
                CrossEntropy(beta)
            with pytest.raises(ValueError) as config_error:
                TrainConfig(epochs=1, attack=attack, beta=beta)
            assert str(config_error.value) == str(loss_error.value)
            assert str(config_error.value) == f"beta must lie in [0, 1), got {beta}"

    def test_eval_attack_strips_random_start_by_default(self):
        cfg = tiny_cfg(attack=AttackConfig(epsilon=0.2, random_start=True))
        resolved = measuring_attack(cfg.attack, cfg.eval_attack)
        assert resolved.random_start is False
        assert resolved.epsilon == 0.2

    def test_eval_attack_override_wins(self):
        override = AttackConfig(norm="l2", epsilon=0.5)
        cfg = tiny_cfg(eval_attack=override)
        assert measuring_attack(cfg.attack, cfg.eval_attack) == override

    def test_clean_attribution_default_tracks_mode(self):
        # Standard mode attributes the clean test points; the adversarial
        # modes attribute the points of their evaluation attack.
        train_set, test_set = tiny_data()
        for mode in ("standard", "at"):
            cfg = tiny_cfg(mode=mode, epochs=1)
            record = train(tiny_model(), train_set, test_set, cfg)
            model = record.last_model
            _, points = evaluate(model, test_set, measuring_attack(cfg.attack, cfg.eval_attack))
            clean_cas = cas(class_attribution_matrix(model, test_set))
            attacked_cas = cas(class_attribution_matrix(model, test_set, points))
            assert clean_cas != attacked_cas
            expected = clean_cas if mode == "standard" else attacked_cas
            assert record.rows[-1].cas == expected


class TestLrSchedule:
    def test_step_decay_at_half_and_three_quarters(self):
        cfg = tiny_cfg(epochs=60, lr=0.1)
        assert lr_at(0, cfg) == pytest.approx(0.1)
        assert lr_at(29, cfg) == pytest.approx(0.1)
        assert lr_at(30, cfg) == pytest.approx(0.01)
        assert lr_at(44, cfg) == pytest.approx(0.01)
        assert lr_at(45, cfg) == pytest.approx(0.001)
        assert lr_at(59, cfg) == pytest.approx(0.001)

    def test_out_of_range_epoch_raises(self):
        cfg = tiny_cfg(epochs=10)
        with pytest.raises(ValueError, match="outside"):
            lr_at(10, cfg)
        with pytest.raises(ValueError, match="outside"):
            lr_at(-1, cfg)


class TestEvaluate:
    def test_robust_never_exceeds_clean(self):
        train_set, test_set = tiny_data()
        model = tiny_model()
        metrics, _ = evaluate(model, test_set, AttackConfig(epsilon=0.3),
                              RngStream(1, stream_id=50))
        assert metrics["robust_acc"] <= metrics["clean_acc"]

    def test_no_attack_means_robust_equals_clean(self):
        _, test_set = tiny_data()
        model = tiny_model()
        metrics, _ = evaluate(model, test_set)
        assert metrics["robust_acc"] == metrics["clean_acc"]

    def test_without_an_attack_the_points_are_the_clean_inputs(self):
        _, test_set = tiny_data()
        for attack in (None, AttackConfig(epsilon=0.0)):
            _, points = evaluate(tiny_model(), test_set, attack)
            assert points is test_set.inputs

    def test_large_margin_model_is_certifiably_robust(self):
        # Head 100*I on 2-D inputs at the class corners: a 0.1-ball cannot
        # cross the decision boundary, so robust accuracy must be 1.
        model = Classifier([], Affine(100.0 * np.eye(3)))
        inputs = np.eye(3) * 2.0
        data = Dataset(inputs, np.arange(3), 3)
        metrics, _ = evaluate(model, data, AttackConfig(epsilon=0.1))
        assert metrics["robust_acc"] == 1.0

    def test_mean_loss_is_per_sample_worst_of_clean_and_attacked(self):
        train_set, test_set = tiny_data()
        model = tiny_model()
        attack = AttackConfig(epsilon=0.25)
        metrics, adv = evaluate(model, test_set, attack,
                                RngStream(2, stream_id=50))
        clean_logits = forward(model, test_set.inputs)
        adv_logits = forward(model, adv)

        def per_ce(logits):
            z = logits - logits.max(axis=1, keepdims=True)
            logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
            return -logp[np.arange(len(test_set)), test_set.labels]

        expected = np.maximum(per_ce(clean_logits), per_ce(adv_logits)).mean()
        assert metrics["mean_loss"] == pytest.approx(expected, abs=1e-12)
        assert metrics["mean_loss"] >= per_ce(clean_logits).mean() - 1e-12

    def test_empty_dataset_raises(self):
        empty = Dataset(np.zeros((0, 4)), np.zeros(0, dtype=np.int64), 3)
        with pytest.raises(ValueError, match="empty"):
            evaluate(tiny_model(input_dim=4), empty)

    def test_a_random_start_needs_a_stream(self):
        _, test_set = tiny_data()
        with pytest.raises(ValueError, match="^random_start requires an rng stream$"):
            evaluate(tiny_model(), test_set, AttackConfig(epsilon=0.2, random_start=True))

    def test_deterministic_under_random_start_attack(self):
        _, test_set = tiny_data()
        model = tiny_model()
        attack = AttackConfig(epsilon=0.2, random_start=True)
        a, a_points = evaluate(model, test_set, attack, RngStream(3, stream_id=50))
        b, b_points = evaluate(model, test_set, attack, RngStream(3, stream_id=50))
        assert a == b
        assert np.array_equal(a_points, b_points)

    def test_every_pass_runs_in_row_blocks(self, monkeypatch):
        spec = PlantedSpec(classes=3, replication=1, noise_dims=2, mu=1.0,
                           sigma=0.3, rotate=False, n_train=10, n_test=200,
                           seed=0)
        _, test = generate_planted(spec)
        seen = []
        inner = crossfeat.model._forward_cached

        def spy(model, x):
            seen.append(len(x))
            return inner(model, x)

        monkeypatch.setattr(crossfeat.model, "_forward_cached", spy)
        evaluate(tiny_model(), test, AttackConfig(norm="linf", epsilon=0.2))
        assert len(test) > crossfeat.model._BLOCK_ROWS
        assert max(seen) <= crossfeat.model._BLOCK_ROWS
        assert sum(seen) == len(test) * (2 + 10)  # clean, 10 steps, attacked


class TestTrainLoop:
    def test_record_shape_and_best_epoch_invariant(self):
        train_set, test_set = tiny_data()
        record = train(tiny_model(), train_set, test_set, tiny_cfg(epochs=4))
        assert [r.epoch for r in record.rows] == [0, 1, 2, 3]
        for r in record.rows:
            for name in ("train_robust_loss", "train_robust_acc",
                         "test_clean_acc", "test_robust_acc", "cas"):
                assert np.isfinite(getattr(r, name))
        ras = [r.test_robust_acc for r in record.rows]
        assert record.best_epoch == int(np.argmax(ras))

    def test_same_seed_reproduces_run_exactly(self):
        train_set, test_set = tiny_data()
        a = train(tiny_model(), train_set, test_set, tiny_cfg())
        b = train(tiny_model(), train_set, test_set, tiny_cfg())
        assert a.rows == b.rows
        for (_, pa), (_, pb) in zip(a.last_model.param_items(),
                                    b.last_model.param_items()):
            assert np.array_equal(pa, pb)

    def test_zero_epsilon_adversarial_equals_standard(self):
        train_set, test_set = tiny_data()
        cfg_at = tiny_cfg(attack=AttackConfig(epsilon=0.0), mode="at")
        cfg_std = tiny_cfg(attack=AttackConfig(epsilon=0.0), mode="standard")
        at_run = train(tiny_model(), train_set, test_set, cfg_at)
        std_run = train(tiny_model(), train_set, test_set, cfg_std)
        for (_, pa), (_, pb) in zip(at_run.last_model.param_items(),
                                    std_run.last_model.param_items()):
            assert np.array_equal(pa, pb)
        assert at_run.rows == std_run.rows

    def test_zero_beta_smoothing_equals_plain_adversarial(self):
        train_set, test_set = tiny_data()
        plain = train(tiny_model(), train_set, test_set, tiny_cfg(mode="at"))
        smoothed = train(tiny_model(), train_set, test_set,
                         tiny_cfg(mode="at_ls", beta=0.0))
        for (_, pa), (_, pb) in zip(plain.last_model.param_items(),
                                    smoothed.last_model.param_items()):
            assert np.array_equal(pa, pb)

    def test_zero_mix_distillation_equals_plain_adversarial(self):
        train_set, test_set = tiny_data()
        plain = train(tiny_model(), train_set, test_set, tiny_cfg(mode="at"))
        distilled = train(tiny_model(), train_set, test_set,
                          tiny_cfg(mode="at_kd", lambda_mix=0.0,
                                   teacher=tiny_model(seed=5)))
        for (_, pa), (_, pb) in zip(plain.last_model.param_items(),
                                    distilled.last_model.param_items()):
            assert np.array_equal(pa, pb)

    def test_teacher_checkpoint_path_accepted(self, tmp_path):
        train_set, test_set = tiny_data()
        teacher = tiny_model(seed=5)
        path = str(tmp_path / "teacher.ckpt")
        save_checkpoint(teacher, path)
        from_path = train(tiny_model(), train_set, test_set,
                          tiny_cfg(mode="at_kd", epochs=2, teacher=path))
        in_memory = train(tiny_model(), train_set, test_set,
                          tiny_cfg(mode="at_kd", epochs=2, teacher=teacher))
        for (_, pa), (_, pb) in zip(from_path.last_model.param_items(),
                                    in_memory.last_model.param_items()):
            assert np.array_equal(pa, pb)

    def test_distillation_requires_teacher(self):
        train_set, test_set = tiny_data()
        with pytest.raises(ValueError, match="teacher"):
            train(tiny_model(), train_set, test_set, tiny_cfg(mode="at_kd"))

    def test_fast_mode_runs_and_stays_deterministic(self):
        train_set, test_set = tiny_data()
        a = train(tiny_model(), train_set, test_set,
                  tiny_cfg(mode="fast_at", epochs=2))
        b = train(tiny_model(), train_set, test_set,
                  tiny_cfg(mode="fast_at", epochs=2))
        assert a.rows == b.rows

    def test_zero_epochs_yields_empty_record(self):
        train_set, test_set = tiny_data()
        record = train(tiny_model(), train_set, test_set, tiny_cfg(epochs=0))
        assert record.rows == []
        assert record.best_epoch is None

    def test_out_dir_persists_checkpoints_and_records(self, tmp_path):
        train_set, test_set = tiny_data()
        out = str(tmp_path / "run")
        record = train(tiny_model(), train_set, test_set,
                       tiny_cfg(out_dir=out))
        best_model, best_epoch, best_metrics = load_checkpoint(f"{out}/best.ckpt")
        assert best_epoch == record.best_epoch
        assert best_metrics == asdict(record.rows[record.best_epoch])
        last_model, last_epoch, _ = load_checkpoint(f"{out}/last.ckpt")
        assert last_epoch == len(record.rows) - 1
        x = test_set.inputs[:4]
        assert np.array_equal(forward(best_model, x),
                              forward(record.best_model, x))
        assert np.array_equal(forward(last_model, x),
                              forward(record.last_model, x))
        with open(f"{out}/records.jsonl", encoding="utf-8") as fh:
            reloaded = [json.loads(line) for line in fh]
        assert reloaded == [asdict(r) for r in record.rows]

    def test_divergence_guard_raises(self):
        train_set, test_set = tiny_data()
        with pytest.raises(TrainingDiverged):
            train(tiny_model(), train_set, test_set,
                  tiny_cfg(mode="standard", epochs=3, lr=1e5))

    def test_divergence_leaves_finished_epochs_and_a_marker(self, tmp_path, monkeypatch):
        # Epoch 0 trains at lr 0.1; the growing schedule puts epoch 1 at 1e5.
        # With two CPUs the worker is still evaluating epoch 0 when epoch 1
        # diverges, and its row must reach records.jsonl all the same.
        train_set, test_set = tiny_data()
        for cpus in (1, 2):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
            out = tmp_path / f"run{cpus}"
            train(tiny_model(), train_set, test_set, tiny_cfg(epochs=1, out_dir=str(out)))
            assert (out / "best.ckpt").exists() and (out / "last.ckpt").exists()
            with pytest.raises(TrainingDiverged) as info:
                train(tiny_model(), train_set, test_set,
                      tiny_cfg(mode="standard", epochs=2, lr=0.1, decay_factor=1e6,
                               decay_fractions=(0.5,), out_dir=str(out)))
            marker = json.loads((out / "diverged.json").read_text())
            assert marker["epoch"] == 1
            assert marker["message"] == str(info.value)
            assert f"epoch 1 step {marker['step']} " in marker["message"]
            lines = (out / "records.jsonl").read_text().splitlines()
            assert [json.loads(line)["epoch"] for line in lines] == [0]
            assert not (out / "best.ckpt").exists()
            assert not (out / "last.ckpt").exists()
            train(tiny_model(), train_set, test_set, tiny_cfg(epochs=1, out_dir=str(out)))
            assert not (out / "diverged.json").exists()

    def test_empty_dataset_rejected(self):
        train_set, test_set = tiny_data()
        empty = Dataset(np.zeros((0, 8)), np.zeros(0, dtype=np.int64), 3)
        with pytest.raises(ValueError, match="nonempty"):
            train(tiny_model(), empty, test_set, tiny_cfg())


def _bits(model):
    return [p.tobytes() for _, p in model.param_items()]


class TestTrainMany:
    @staticmethod
    def jobs():
        return [(tiny_model(seed=s), tiny_cfg(mode=mode, epochs=2, seed=s))
                for s, mode in ((0, "at"), (1, "fast_at"), (2, "at_ls"))]

    @staticmethod
    def run(monkeypatch, cpus, jobs):
        """``train_many`` as if this process could run on ``cpus`` CPUs."""
        with monkeypatch.context() as m:
            m.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
            return train_many(jobs, *tiny_data())

    def test_pool_equals_serial_and_leaves_models_alone(self, monkeypatch):
        train_set, test_set = tiny_data()
        jobs = self.jobs()
        before = [_bits(model) for model, _ in jobs]
        serial = self.run(monkeypatch, 1, jobs)
        pooled = self.run(monkeypatch, 2, jobs)
        assert [_bits(model) for model, _ in jobs] == before
        direct = train(tiny_model(seed=0), train_set, test_set, jobs[0][1])
        assert serial[0].rows == direct.rows
        for a, b in zip(serial, pooled):
            assert a.rows == b.rows
            assert a.best_epoch == b.best_epoch
            assert _bits(a.best_model) == _bits(b.best_model)
            assert _bits(a.last_model) == _bits(b.last_model)

    def test_a_failing_job_returns_its_exception(self, monkeypatch):
        jobs = [(tiny_model(), tiny_cfg(mode="at_kd", epochs=1)),  # no teacher
                (tiny_model(), tiny_cfg(epochs=1))]
        results = {cpus: self.run(monkeypatch, cpus, jobs) for cpus in (1, 2)}
        for failed, done in results.values():
            assert type(failed) is ValueError
            assert str(failed) == str(results[1][0])
            assert "teacher" in str(failed)
            assert isinstance(done, RunRecord)


class TestPipelinedEpochs:
    """With more than one CPU, train evaluates epoch e in a forked worker
    while epoch e+1 trains; nothing it returns or writes may differ."""

    @staticmethod
    def run(monkeypatch, cpus, cfg):
        """``train`` as if this process could run on ``cpus`` CPUs, and the
        number of pools it started."""
        pools = []
        real = crossfeat.training._fork_pool
        with monkeypatch.context() as m:
            m.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
            m.setattr(crossfeat.training, "_fork_pool",
                      lambda *args: pools.append(args[0]) or real(*args))
            return train(tiny_model(), *tiny_data(), cfg), pools

    @pytest.mark.parametrize("mode", ["at", "at_ls", "standard"])
    def test_two_cpus_equal_one(self, monkeypatch, tmp_path, mode):
        runs, files = {}, {}
        for cpus in (1, 2):
            out = tmp_path / str(cpus)
            runs[cpus], pools = self.run(
                monkeypatch, cpus, tiny_cfg(mode=mode, epochs=4, out_dir=str(out)))
            assert pools == ([0] if cpus == 1 else [1])
            files[cpus] = {path.name: path.read_bytes() for path in out.iterdir()}
        serial, pipelined = runs[1], runs[2]
        assert serial.rows == pipelined.rows
        assert serial.best_epoch == pipelined.best_epoch
        assert _bits(serial.best_model) == _bits(pipelined.best_model)
        assert _bits(serial.last_model) == _bits(pipelined.last_model)
        assert sorted(files[1]) == ["best.ckpt", "last.ckpt", "records.jsonl"]
        assert files[1] == files[2]

    def test_the_parent_holds_nothing_after_a_pipelined_run(self, monkeypatch):
        _, pools = self.run(monkeypatch, 2, tiny_cfg(epochs=2))
        assert pools == [1]
        assert not crossfeat.numerics._in_worker

    def test_one_epoch_runs_inline(self, monkeypatch):
        _, pools = self.run(monkeypatch, 2, tiny_cfg(epochs=1))
        assert pools == [0]

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_an_evaluation_error_wins_over_a_later_divergence(self, monkeypatch,
                                                               tmp_path, cpus):
        # Serially the failed evaluation of epoch 0 comes before epoch 1, whose
        # lr of 1e5 diverges; the pipeline must raise the same error.
        def failing(*args):
            raise FloatingPointError("injected evaluation failure")

        monkeypatch.setattr(crossfeat.training, "_evaluate_epoch", failing)
        out = tmp_path / "run"
        cfg = tiny_cfg(mode="standard", epochs=2, lr=0.1, decay_factor=1e6,
                       decay_fractions=(0.5,), out_dir=str(out))
        with pytest.raises(FloatingPointError, match="^injected evaluation failure$"):
            self.run(monkeypatch, cpus, cfg)
        assert not out.exists()

    def test_a_killed_evaluation_worker_fails_the_run(self, monkeypatch, tmp_path):
        def killed(*args):
            os.kill(os.getpid(), signal.SIGKILL)

        monkeypatch.setattr(crossfeat.training, "_evaluate_epoch", killed)
        out = tmp_path / "run"
        with pytest.raises(RuntimeError, match="^a forked worker ended with exit code -9 "
                                               "before returning its job$"):
            self.run(monkeypatch, 2, tiny_cfg(epochs=3, out_dir=str(out)))
        assert not out.exists()
        with pytest.raises(ChildProcessError):  # the worker was reaped
            os.waitpid(-1, os.WNOHANG)

    def test_a_one_job_train_many_runs_here_and_pipelines(self, monkeypatch):
        pools = []
        real = crossfeat.numerics._fork_pool

        def recording(*args):
            pools.append((os.getpid(), args[0]))
            return real(*args)

        monkeypatch.setattr(crossfeat.numerics, "_fork_pool", recording)
        monkeypatch.setattr(crossfeat.training, "_fork_pool", recording)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        [result] = train_many([(tiny_model(), tiny_cfg(epochs=3))], *tiny_data())
        assert isinstance(result, RunRecord)
        assert pools == [(os.getpid(), 0), (os.getpid(), 1)]

    def test_train_many_workers_start_no_grandchild(self, monkeypatch):
        parent = os.getpid()
        real = crossfeat.training._fork_pool

        def parent_only(*args):
            if os.getpid() != parent and args[0]:
                raise AssertionError("a train_many worker started a pool with workers")
            return real(*args)

        monkeypatch.setattr(crossfeat.training, "_fork_pool", parent_only)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        jobs = [(tiny_model(seed=s), tiny_cfg(epochs=3, seed=s)) for s in (0, 1)]
        results = train_many(jobs, *tiny_data())
        assert [type(result) for result in results] == [RunRecord, RunRecord]


def _linear_certified(model, inputs, labels, epsilon):
    """Exact l-inf robustness of a linear classifier: the worst point of the
    ball against class j moves every coordinate by epsilon against
    w_y - w_j, so a sample is certified iff min over j != y of
    (w_y - w_j).x + b_y - b_j - epsilon * ||w_y - w_j||_1 > 0.  Also returns
    that worst point for each sample's minimising j."""
    weights, bias = model.head.weights, model.head.bias
    diff = weights[labels][:, None, :] - weights[None, :, :]
    margins = (np.einsum("nkd,nd->nk", diff, inputs)
               + bias[labels][:, None] - bias[None, :]
               - epsilon * np.abs(diff).sum(axis=2))
    margins[np.arange(len(labels)), labels] = np.inf
    worst = margins.argmin(axis=1)
    corner = inputs - epsilon * np.sign(diff[np.arange(len(labels)), worst])
    return margins.min(axis=1) > 0, corner


class TestLinearRobustnessOracle:
    @pytest.mark.parametrize("seed", range(8))
    def test_pgd_never_beats_the_exact_oracle(self, seed):
        gen = RngStream(seed, stream_id=90).generator
        classes, dim, n = int(gen.integers(2, 6)), int(gen.integers(2, 9)), 200
        model = Classifier([], Affine(gen.normal(size=(classes, dim)),
                                      gen.normal(size=classes)))
        labels = gen.integers(0, classes, size=n)
        inputs = 2.0 * model.head.weights[labels] + gen.normal(size=(n, dim))
        epsilon = float(gen.uniform(0.05, 0.5))
        attack = AttackConfig(norm="linf", epsilon=epsilon, steps=10)
        certified, corner = _linear_certified(model, inputs, labels, epsilon)
        assert 0 < certified.sum() < n  # neither side of the check is empty
        # The oracle is exact: an uncertified sample is misclassified at its
        # worst corner.
        assert not (forward(model, corner).argmax(axis=1) == labels)[~certified].any()
        adv = pgd(model, inputs, labels, attack, RngStream(seed, stream_id=91))
        assert (forward(model, adv).argmax(axis=1) == labels)[certified].all()
        metrics, _ = evaluate(model, Dataset(inputs, labels, classes), attack)
        assert metrics["robust_acc"] >= certified.mean()


class TestRecordsIO:
    def test_round_trip(self, tmp_path):
        rows = [row(0, 0.5, 1.0), row(1, 0.6, 1.5)]
        path = str(tmp_path / "records.jsonl")
        save_records([asdict(r) for r in rows], path)
        with open(path, encoding="utf-8") as fh:
            loaded = [EpochRow(**json.loads(line)) for line in fh]
        assert loaded == rows


class TestDetectCollapse:
    def test_no_rise_means_no_collapse(self):
        rows = [row(i, 0.1) for i in range(5)]
        got = detect_collapse(rows)
        assert got["occurred"] is False
        assert got["peak_epoch"] is None
        assert got["collapse_epoch"] is None

    def test_rise_then_fall_is_flagged(self):
        ras = [0.1, 0.25, 0.5, 0.3, 0.04, 0.02]
        rows = [row(i, ra) for i, ra in enumerate(ras)]
        got = detect_collapse(rows)
        assert set(got) == {"occurred", "peak_epoch", "collapse_epoch"}
        assert got["occurred"] is True
        assert got["peak_epoch"] == 1  # first epoch above 0.2
        assert got["collapse_epoch"] == 4  # first epoch back below 0.05

    def test_rise_without_fall_is_not_flagged(self):
        rows = [row(i, 0.1 + 0.1 * i) for i in range(6)]
        got = detect_collapse(rows)
        assert got["occurred"] is False
        assert got["peak_epoch"] == 2  # 0.2 is not strictly above; 0.3 is
        assert got["collapse_epoch"] is None

    def test_low_from_the_start_is_not_a_collapse(self):
        rows = [row(i, 0.01) for i in range(4)]
        assert detect_collapse(rows)["occurred"] is False

    def test_empty_rows(self):
        got = detect_collapse([])
        assert got == {"occurred": False, "peak_epoch": None,
                       "collapse_epoch": None}
