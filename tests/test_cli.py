"""Tests for the config-driven command-line runner."""

import hashlib
import json
import os
import statistics
from dataclasses import asdict

import numpy as np
import pytest

import crossfeat
from crossfeat import cli, training
from crossfeat.attack import AttackConfig
from crossfeat.attribution import (cas, class_attribution_matrix,
                                   instance_cas_matrix, load_matrix)
from crossfeat.cli import (ConfigError, cmd_attribution, cmd_eval,
                           cmd_gen_data, cmd_report, cmd_sweep,
                           cmd_synth_verify, cmd_train, config_hash,
                           load_config)
from crossfeat.data import Dataset, PlantedSpec, generate_planted, load_tabular, save_tabular
from crossfeat.model import Classifier, load_checkpoint, save_checkpoint
from crossfeat.numerics import RngStream
from crossfeat.training import evaluate, save_records, train


def base_config(**overrides):
    config = {
        "data": {"planted": {"classes": 3, "replication": 1, "noise_dims": 2,
                             "mu": 1.0, "sigma": 0.3, "rotate": False,
                             "n_train": 30, "n_test": 15, "seed": 0}},
        "model": {"hidden": [8]},
        "train": {"epochs": 2},
        "attack": {"norm": "linf", "epsilon": 0.2},
    }
    config.update(overrides)
    return config


def write_config(tmp_path, config, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(config))
    return str(path)


class TestConfigValidation:
    def test_unknown_top_level_key_rejected(self, tmp_path):
        path = write_config(tmp_path, {"trian": {}})
        with pytest.raises(ConfigError, match="'trian'"):
            load_config(path)

    def test_top_level_format_key_rejected(self, tmp_path):
        # The output format is the --format flag, not a config key.
        path = write_config(tmp_path, {"format": "records"})
        with pytest.raises(ConfigError, match="'format'"):
            load_config(path)

    def test_unknown_nested_key_reports_dotted_location(self, tmp_path):
        path = write_config(tmp_path, {"train": {"epochs": 1, "lr_decay": 0.1}})
        with pytest.raises(ConfigError, match="'train.lr_decay'"):
            load_config(path)

    def test_scalar_where_object_expected(self, tmp_path):
        path = write_config(tmp_path, {"train": 5})
        with pytest.raises(ConfigError, match="expected an object"):
            load_config(path)

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="invalid JSON"):
            load_config(str(path))

    def test_missing_file_rejected(self):
        with pytest.raises(ConfigError, match="not found"):
            load_config("/nonexistent/config.json")

    def test_no_config_means_empty(self):
        assert load_config(None) == {}

    def test_config_hash_is_order_insensitive(self):
        a = config_hash({"x": 1, "y": 2})
        b = config_hash({"y": 2, "x": 1})
        assert a == b and len(a) == 16
        assert config_hash({"x": 1}) != a

    def test_bad_section_value_points_at_section(self, tmp_path):
        config = base_config()
        config["attack"]["epsilon"] = -1.0
        with pytest.raises(ConfigError, match="attack"):
            cmd_train(config)


class TestSynthVerify:
    def test_passes_with_reduced_budget(self, tmp_path):
        out = str(tmp_path / "verify")
        report = cmd_synth_verify(
            {"synthetic": {"mc_samples": 50_000, "oracle_steps": 4_000}},
            out_dir=out)
        assert report.passed is True
        assert report.summary["fail"] == 0
        assert report.summary["checks"] == len(report.records)
        payload = json.loads((tmp_path / "verify" / "summary.json").read_text())
        assert payload["passed"] is True

    def test_main_exit_zero(self, tmp_path, capsys):
        path = write_config(tmp_path, {"synthetic": {"mc_samples": 50_000,
                                                     "oracle_steps": 4_000}})
        code = cli.main(["synth-verify", "--config", path])
        assert code == 0
        assert "passed=True" in capsys.readouterr().out


class TestGenData:
    def test_writes_loadable_splits(self, tmp_path):
        out = str(tmp_path / "data")
        report = cmd_gen_data(base_config(), out_dir=out)
        assert report.passed is True
        train = load_tabular(f"{out}/train.csv")
        test = load_tabular(f"{out}/test.csv")
        assert len(train) == 90 and len(test) == 45
        assert train.class_count == 3
        assert report.summary["train_rows"] == 90

    def test_matches_direct_generation(self, tmp_path):
        out = str(tmp_path / "data")
        config = base_config()
        cmd_gen_data(config, out_dir=out)
        direct_train, _ = generate_planted(PlantedSpec(**config["data"]["planted"]))
        loaded = load_tabular(f"{out}/train.csv")
        assert np.array_equal(loaded.inputs, direct_train.inputs)
        assert np.array_equal(loaded.labels, direct_train.labels)

    def test_requires_planted_section_and_out_dir(self, tmp_path):
        with pytest.raises(ConfigError, match="planted"):
            cmd_gen_data({}, out_dir=str(tmp_path))
        with pytest.raises(ConfigError, match="output"):
            cmd_gen_data(base_config(), out_dir=None)


class TestTrainCmd:
    def test_summary_and_artifacts(self, tmp_path):
        out = str(tmp_path / "run")
        report = cmd_train(base_config(), out_dir=out)
        assert report.summary["mode"] == "at"
        assert report.summary["epochs"] == 2
        assert report.summary["epsilon"] == 0.2
        assert len(report.records) == 2
        assert report.summary["ra_last"] is not None
        assert report.summary["catastrophic_overfitting"]["occurred"] in (True, False)
        for name in ("records.jsonl", "summary.json", "metadata.json",
                     "best.ckpt", "last.ckpt"):
            assert (tmp_path / "run" / name).exists()

    def test_deterministic_summary_bytes(self, tmp_path):
        a_dir, b_dir = str(tmp_path / "a"), str(tmp_path / "b")
        cmd_train(base_config(), out_dir=a_dir)
        cmd_train(base_config(), out_dir=b_dir)
        assert (tmp_path / "a" / "summary.json").read_bytes() == \
            (tmp_path / "b" / "summary.json").read_bytes()

    def test_records_file_has_the_bytes_save_records_writes(self, tmp_path,
                                                            monkeypatch):
        # train() writes records.jsonl; Report.write leaves it as it is.
        runs = []

        def recording_train(*args):
            runs.append(train(*args))
            return runs[-1]

        monkeypatch.setattr(cli, "train", recording_train)
        cmd_train(base_config(), out_dir=str(tmp_path / "run"))
        save_records([asdict(row) for row in runs[0].rows], str(tmp_path / "direct.jsonl"))
        assert (tmp_path / "run" / "records.jsonl").read_bytes() == \
            (tmp_path / "direct.jsonl").read_bytes()

    def test_records_file_is_written_once(self, tmp_path, monkeypatch):
        written = []

        def recording_save(records, path):
            written.append(path)
            save_records(records, path)

        monkeypatch.setattr(cli, "save_records", recording_save)
        monkeypatch.setattr(training, "save_records", recording_save)
        cmd_train(base_config(), out_dir=str(tmp_path / "run"))
        path = str(tmp_path / "run" / "records.jsonl")
        assert written.count(path) == 1
        assert os.path.getsize(path) > 0

    def test_seed_override_changes_run(self, tmp_path):
        base = cmd_train(base_config(), seed=1)
        other = cmd_train(base_config(), seed=2)
        assert base.records != other.records

    def test_requires_epochs(self):
        config = base_config()
        del config["train"]["epochs"]
        with pytest.raises(ConfigError, match="epochs"):
            cmd_train(config)

    def test_trains_from_tabular_files(self, tmp_path):
        data_dir = str(tmp_path / "data")
        cmd_gen_data(base_config(), out_dir=data_dir)
        config = {
            "data": {"train_path": f"{data_dir}/train.csv",
                     "test_path": f"{data_dir}/test.csv"},
            "model": {"hidden": [8]},
            "train": {"epochs": 1},
            "attack": {"epsilon": 0.2},
        }
        report = cmd_train(config)
        assert len(report.records) == 1

    def test_needs_some_data_source(self):
        config = base_config()
        config["data"] = {}
        with pytest.raises(ConfigError, match="data"):
            cmd_train(config)


class TestTrainingBytes:
    """``crossfeat train`` on the benchmark's ``at_train`` cell, cut to 3
    epochs, writes the bytes it wrote before PGD's later steps left the
    checking backward, on the pipelined and on the one-process path."""

    CONFIG = {"seed": 2, "data": {"planted": {"seed": 0}},
              "model": {"hidden": [32, 32]}, "train": {"epochs": 3, "mode": "at"},
              "attack": {"norm": "linf", "epsilon": 0.4, "steps": 10}}
    # Seed 2 peaks at epoch 0, so best.ckpt and last.ckpt differ.
    DIGESTS = {
        "records.jsonl": "221d5eb82792dfda101e99baeb62cee985c625cc22c2292069dcf6e0eea0e25a",
        "best.ckpt": "5535321e40104f51a4a391486c469f150b158b52dd8f5d02aa48e16af0f05480",
        "last.ckpt": "2edf346bfeba95fc154d98fd6a534c0450e04a1eafdbd766b8cc65e50168b138",
        "summary.json": "88e54339bbd9fad23f43868b0a8a3e2da35b4f6248904bceb353078054395deb",
    }

    @pytest.mark.parametrize("pipelined", [True, False])
    def test_outputs_match_recorded_bytes(self, tmp_path, monkeypatch, pipelined):
        pools = []
        real = training._fork_pool
        monkeypatch.setattr(training, "_fork_pool",
                            lambda *args: pools.append(args[0]) or real(*args))
        if pipelined:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        else:
            monkeypatch.setattr(crossfeat.numerics, "_worker_count", lambda limit: 1)
            monkeypatch.setattr(training, "_worker_count", lambda limit: 1)
        out = tmp_path / "run"
        argv = ["train", "--config", write_config(tmp_path, self.CONFIG), "--out", str(out)]
        assert cli.main(argv) == 0
        assert pools == ([1] if pipelined else [0])
        for name, digest in self.DIGESTS.items():
            assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name


class TestDistilledTrainingBytes:
    """``crossfeat train`` with ``mode: at_kd``, whose teacher is the best
    checkpoint of a one-epoch ``at`` run on the same data, writes the bytes it
    wrote while the distillation loss still called a ``softmax`` helper."""

    DIGESTS = {
        "records.jsonl": "49952e447f71a8d760c371f5887f77c2c50a3c664e0904291c24f6e211115fe5",
        "best.ckpt": "12e8e72ce81d145b7b3ba679b93a6e08c2ecca2599e49d59ece437db26f385b0",
        "last.ckpt": "70723a55349c7f2b3925aae1a3e009391c1a6acce12fa959778d25cd707121c6",
    }

    def test_outputs_match_recorded_bytes(self, tmp_path):
        config = TestTrainingBytes.CONFIG
        teacher = dict(config, train={"epochs": 1, "mode": "at"})
        assert cli.main(["train", "--config", write_config(tmp_path, teacher, "teacher.json"),
                         "--out", str(tmp_path / "teacher")]) == 0
        student = dict(config, train={"epochs": 2, "mode": "at_kd",
                                      "teacher": str(tmp_path / "teacher" / "best.ckpt")})
        out = tmp_path / "student"
        assert cli.main(["train", "--config", write_config(tmp_path, student),
                         "--out", str(out)]) == 0
        for name, digest in self.DIGESTS.items():
            assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name


class TestAttributionBytes:
    """``crossfeat attribution`` on the best and the last checkpoint of
    ``TestTrainingBytes``' run, which differ, writes the bytes it wrote
    before the instance-CAS products moved behind every attacked pass.  The
    paths are relative, since records and the config hash hold them."""

    DIGESTS = {
        "records.jsonl": "895212f4374bd747f30eddf1f63e58ad9569fbfb856b3f99505cc24bd87749cb",
        "summary.json": "d1b06d6bc6abb848080fb57f5a10222f9d6c50c18912a21fcce0e7ae3ac0ac71",
        "attribution_matrix.txt":
            "d185c1d153075ae673557e377d5534d7bcef1ccc7e7e561b6a3da0c8dda2f83c",
        "attribution_matrix_last.txt":
            "777ca4578b47e5b1da2d7ff9f243f40689c11c106ccf144c43f8db466b6820c7",
        "attribution_diff.txt":
            "fb2aacf4bff265e28231f4eb520b83a369cdf9fd816a87a29f78b7b333af78a2",
        "instance_matrix.txt":
            "21fbadf0f2b62f68235e9e1e8ff25156ead60ddf7a9adb391b30861c2997a145",
        "instance_matrix_last.txt":
            "e7b87c85c284a8e654647ef3d8fc80d2ed491895ca8c0146494a011147ebd8c1",
    }

    def test_outputs_match_recorded_bytes(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        config = TestTrainingBytes.CONFIG
        assert cli.main(["train", "--config", write_config(tmp_path, config),
                         "--out", "run"]) == 0
        config = dict(config, attribution={"checkpoint": "run/best.ckpt",
                                           "checkpoint_last": "run/last.ckpt"})
        assert cli.main(["attribution", "--config", write_config(tmp_path, config),
                         "--out", "attr"]) == 0
        for name, digest in self.DIGESTS.items():
            assert hashlib.sha256((tmp_path / "attr" / name).read_bytes()).hexdigest() \
                == digest, name


class TestEvalCmd:
    def test_evaluates_checkpoint(self, tmp_path):
        out = str(tmp_path / "run")
        cmd_train(base_config(), out_dir=out)
        config = base_config(eval={"checkpoint": f"{out}/last.ckpt"})
        report = cmd_eval(config)
        assert set(report.summary) == {"clean_acc", "robust_acc", "mean_loss"}
        assert report.summary["robust_acc"] <= report.summary["clean_acc"]

    def test_requires_checkpoint(self):
        with pytest.raises(ConfigError, match="checkpoint"):
            cmd_eval(base_config())

    def test_missing_checkpoint_file_exits_one(self, tmp_path, capsys):
        config = base_config(eval={"checkpoint": str(tmp_path / "none.ckpt")})
        path = write_config(tmp_path, config)
        assert cli.main(["eval", "--config", path]) == 1


class TestTestSplitCommands:
    """eval and attribution read only the test split of tabular data."""

    def test_missing_train_file_is_not_read(self, tmp_path):
        data_dir = str(tmp_path / "data")
        cmd_gen_data(base_config(), out_dir=data_dir)
        run_dir = str(tmp_path / "run")
        cmd_train(base_config(), out_dir=run_dir)
        ckpt = f"{run_dir}/best.ckpt"
        tabular = {"train_path": str(tmp_path / "missing.csv"),
                   "test_path": f"{data_dir}/test.csv"}
        planted = base_config(eval={"checkpoint": ckpt},
                              attribution={"checkpoint": ckpt})
        config = dict(planted, data=tabular)
        assert cmd_eval(config).summary == cmd_eval(planted).summary
        assert cmd_attribution(config).summary == cmd_attribution(planted).summary
        # The train path is still required by the config check.
        for command in (cmd_eval, cmd_attribution):
            with pytest.raises(ConfigError, match="train_path"):
                command(dict(config, data={"test_path": tabular["test_path"]}))


class TestClassCounts:
    """Train and test splits, or a checkpoint and its test data, whose class
    counts differ are a config error that names both counts, raised before
    anything trains, is measured or is written.  train used to fail in
    Python's words, one of them after a whole epoch, and eval of a checkpoint
    on data with fewer classes reported a number."""

    @staticmethod
    def split(tmp_path, classes):
        labels = np.arange(4 * classes) % classes
        inputs = np.random.default_rng(classes).standard_normal((len(labels), 12))
        path = str(tmp_path / f"classes{classes}.csv")
        save_tabular(Dataset(inputs, labels, classes), path)
        return path

    @pytest.mark.parametrize("command, train_classes, test_classes, message", [
        ("train", 3, 5, "data: train_path has 3 classes and test_path 5"),
        ("train", 5, 3, "data: train_path has 5 classes and test_path 3"),
        ("sweep", 3, 5, "data: train_path has 3 classes and test_path 5"),
        ("eval", 5, 5, "eval: the checkpoint has 4 classes and the test data 5"),
        ("eval", 3, 3, "eval: the checkpoint has 4 classes and the test data 3"),
        ("attribution", 5, 5, "attribution: the checkpoints have 4 classes and the test data 5"),
        ("attribution", 3, 3, "attribution: the checkpoints have 4 classes and the test data 3"),
    ])
    def test_mismatch_exits_two_before_anything_runs(self, tmp_path, monkeypatch, capsys,
                                                     command, train_classes, test_classes,
                                                     message):
        calls = []
        for name in ("train", "train_many", "evaluate"):
            monkeypatch.setattr(cli, name, lambda *args, name=name: calls.append(name))
        checkpoint = str(tmp_path / "four.ckpt")
        save_checkpoint(Classifier.create(12, (8,), 4, RngStream(0)), checkpoint)
        config = dict(base_config(data={"train_path": self.split(tmp_path, train_classes),
                                        "test_path": self.split(tmp_path, test_classes)}),
                      eval={"checkpoint": checkpoint},
                      attribution={"checkpoint": checkpoint, "checkpoint_last": checkpoint},
                      sweep={"epsilons": [0.2], "modes": ["at"], "seeds": [0]})
        out = tmp_path / "out"
        argv = [command, "--config", write_config(tmp_path, config), "--out", str(out)]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert message in err and "(data.class_count)" in err
        assert calls == [] and not out.exists()


class TestAttributionCmd:
    @pytest.fixture()
    def run_dir(self, tmp_path):
        out = str(tmp_path / "run")
        cmd_train(base_config(), out_dir=out)
        return out

    def test_same_checkpoint_gives_zero_delta(self, run_dir, tmp_path):
        out = str(tmp_path / "attr")
        config = base_config(
            attribution={"checkpoint": f"{run_dir}/best.ckpt",
                         "checkpoint_last": f"{run_dir}/best.ckpt"})
        report = cmd_attribution(config, out_dir=out)
        assert report.summary["delta_cas"] == 0.0
        matrix, labels = load_matrix(f"{out}/attribution_matrix.txt")
        assert labels == [0, 1, 2]
        diff, _ = load_matrix(f"{out}/attribution_diff.txt")
        assert np.allclose(diff, 0.0)
        assert (tmp_path / "attr" / "instance_matrix.txt").exists()

    def test_best_vs_last_reports_gap(self, run_dir, tmp_path):
        config = base_config(
            attribution={"checkpoint": f"{run_dir}/best.ckpt",
                         "checkpoint_last": f"{run_dir}/last.ckpt"})
        out = str(tmp_path / "attr")
        report = cmd_attribution(config, out_dir=out)
        assert len(report.records) == 2
        assert report.summary["clean_attribution"] is False
        # The diff file and the gap are best minus last, elementwise and in CAS.
        best, last, diff = (load_matrix(f"{out}/attribution_{name}.txt")[0]
                            for name in ("matrix", "matrix_last", "diff"))
        assert diff.tobytes() == (best - last).tobytes()
        assert report.summary["delta_cas"] == cas(best) - cas(last)
        assert [r["cas"] for r in report.records] == [cas(best), cas(last)]

    def test_zero_epsilon_switches_to_clean_attribution(self, run_dir):
        config = base_config(
            attribution={"checkpoint": f"{run_dir}/best.ckpt"})
        config["attack"]["epsilon"] = 0.0
        report = cmd_attribution(config)
        assert report.summary["clean_attribution"] is True

    def test_metrics_describe_one_attacked_pass(self, run_dir, monkeypatch):
        # With a random start every attack pass lands on different points, so
        # CAS, ICAS and robust accuracy agree only if they share one pass.
        passes = []

        def recording_evaluate(*args, **kwargs):
            passes.append(evaluate(*args, **kwargs))
            return passes[-1]

        monkeypatch.setattr(cli, "evaluate", recording_evaluate)
        config = base_config(attribution={"checkpoint": f"{run_dir}/best.ckpt"})
        config["eval_attack"] = dict(config["attack"], random_start=True)
        report = cmd_attribution(config, seed=5)
        assert len(passes) == 1
        metrics, points = passes[0]
        model, _, _ = load_checkpoint(f"{run_dir}/best.ckpt")
        _, test_set = generate_planted(PlantedSpec(**config["data"]["planted"]))
        assert not np.array_equal(points, test_set.inputs)
        matrix = class_attribution_matrix(model, test_set, points)
        _, icas = instance_cas_matrix(model, test_set, points)
        assert report.summary["robust_acc"] == metrics["robust_acc"]
        assert report.summary["cas"] == cas(matrix)
        assert report.summary["icas"] == icas

    @pytest.mark.parametrize("last, clean", [(False, False), (True, False), (True, True)],
                             ids=["one", "two", "two-clean"])
    def test_instance_products_come_after_every_pass(self, run_dir, tmp_path, monkeypatch,
                                                     last, clean):
        # OpenBLAS threads only the instance-CAS products, and its helper
        # thread would spin through any attack that followed them.
        calls = []

        def spy(name):
            real = getattr(cli, name)
            return lambda *args, **kwargs: calls.append(name) or real(*args, **kwargs)

        for name in ("evaluate", "class_attribution_matrix", "instance_cas_matrix",
                     "save_matrix"):
            monkeypatch.setattr(cli, name, spy(name))
        section = {"checkpoint": f"{run_dir}/best.ckpt", "clean": clean}
        if last:
            section["checkpoint_last"] = f"{run_dir}/last.ckpt"
        report = cmd_attribution(base_config(attribution=section),
                                 out_dir=str(tmp_path / "attr"))
        assert report.summary["clean_attribution"] is clean
        n = 1 + last
        assert calls == (["evaluate", "class_attribution_matrix"] * n
                         + ["instance_cas_matrix"] * n + ["save_matrix"] * (3 * n - 1))

    def test_requires_checkpoint(self):
        with pytest.raises(ConfigError, match="checkpoint"):
            cmd_attribution(base_config())

    def test_class_count_mismatch_rejected(self, run_dir, tmp_path):
        other = Classifier.create(8, (8,), 4, RngStream(0))
        path = str(tmp_path / "other.ckpt")
        save_checkpoint(other, path)
        config = base_config(
            attribution={"checkpoint": f"{run_dir}/best.ckpt",
                         "checkpoint_last": path})
        with pytest.raises(ConfigError, match="class counts"):
            cmd_attribution(config)

    def test_class_count_mismatch_exits_two_before_measuring(self, run_dir, tmp_path,
                                                             monkeypatch, capsys):
        other = Classifier.create(8, (8,), 4, RngStream(0))
        path = str(tmp_path / "other.ckpt")
        save_checkpoint(other, path)
        config = base_config(
            attribution={"checkpoint": f"{run_dir}/best.ckpt",
                         "checkpoint_last": path})
        monkeypatch.setattr(cli, "evaluate", None)  # a measurement would exit 1
        out = tmp_path / "attr"
        argv = ["attribution", "--config", write_config(tmp_path, config),
                "--out", str(out)]
        assert cli.main(argv) == 2
        assert "checkpoints have different class counts" in capsys.readouterr().err
        assert not out.exists()


class TestSweep:
    def test_single_cell_matches_direct_train(self, tmp_path):
        config = base_config(sweep={"epsilons": [0.2], "modes": ["at"],
                                    "seeds": [1]})
        report = cmd_sweep(config, out_dir=str(tmp_path / "sweep"))
        assert report.passed is True
        cell = report.records[0]
        direct = cmd_train(base_config(), seed=1)
        assert cell["ra_best"] == direct.summary["ra_best"]
        assert cell["ra_last"] == direct.summary["ra_last"]
        assert cell["cas_best"] == direct.summary["cas_best"]
        assert cell["cas_last"] == direct.summary["cas_last"]
        assert cell["delta_cas"] == pytest.approx(
            direct.summary["cas_best"] - direct.summary["cas_last"], abs=1e-15)

    def test_medians_aggregate_over_seeds(self, tmp_path):
        out = str(tmp_path / "sweep")
        config = base_config(sweep={"epsilons": [0.2], "modes": ["at"],
                                    "seeds": [1, 2, 3]})
        report = cmd_sweep(config, out_dir=out)
        assert report.summary["cells"] == 3
        med = report.summary["medians"][0]
        values = [r["ra_last"] for r in report.records]
        assert med["ra_last"] == statistics.median(values)
        assert med["seeds"] == 3
        lines = (tmp_path / "sweep" / "medians.jsonl").read_text().splitlines()
        assert json.loads(lines[0])["epsilon"] == 0.2
        cell_dir = tmp_path / "sweep" / "cells" / "eps0.2_at_s1"
        assert (cell_dir / "records.jsonl").exists()

    def test_generates_the_dataset_once(self, monkeypatch):
        calls = []

        def counted(spec):
            calls.append(spec)
            return generate_planted(spec)

        monkeypatch.setattr(cli, "generate_planted", counted)
        config = base_config(sweep={"epsilons": [0.1, 0.2], "modes": ["at"],
                                    "seeds": [1, 2]})
        config["train"] = {"epochs": 1}
        report = cmd_sweep(config)
        assert report.summary["cells"] == 4
        assert len(calls) == 1

    def test_pool_and_serial_write_identical_files(self, tmp_path, monkeypatch):
        pools = []
        real = crossfeat.numerics._fork_pool
        monkeypatch.setattr(crossfeat.numerics, "_fork_pool",
                            lambda *args: pools.append(args[0]) or real(*args))
        config = base_config(sweep={"epsilons": [0.1, 0.2],
                                    "modes": ["at", "at_kd"],  # no teacher
                                    "seeds": [1, 2]})
        config["train"] = {"epochs": 2}
        files = {}
        for name, cpus in (("serial", {0}), ("pooled", {0, 1})):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: cpus)
            report = cmd_sweep(config, out_dir=str(tmp_path / name))
            assert report.summary["failed_cells"] == 4
            assert all("teacher" in r["error"] for r in report.records
                       if r["mode"] == "at_kd")
            root = tmp_path / name
            files[name] = {path.relative_to(root).as_posix(): path.read_bytes()
                           for path in sorted(root.rglob("*"))
                           if path.is_file() and path.name != "metadata.json"}
        assert pools == [0, 2]
        assert files["serial"] == files["pooled"]
        assert {"records.jsonl", "summary.json", "medians.jsonl",
                "cells/eps0.2_at_s2/best.ckpt"} <= set(files["serial"])

    @pytest.mark.parametrize("sweep", [
        {"epsilons": [0.1, 0.1000001], "modes": ["at"], "seeds": [1]},
        {"epsilons": [0.1], "modes": ["at"], "seeds": [1, 1]},
    ])
    def test_cells_sharing_a_directory_rejected_before_training(self, sweep,
                                                                monkeypatch):
        monkeypatch.setattr(cli, "train_many", None)
        with pytest.raises(ConfigError, match="share the directory cells/eps0.1_at_s1"):
            cmd_sweep(base_config(sweep=sweep))

    def test_a_config_error_stops_the_sweep_before_training(self, monkeypatch):
        monkeypatch.setattr(cli, "train_many", None)
        config = base_config(sweep={"epsilons": [0.1], "modes": ["at"], "seeds": [1]})
        config["train"] = {"epochs": 1.5}
        with pytest.raises(ConfigError, match="^train: epochs must be an integer >= 0"):
            cmd_sweep(config)

    @pytest.mark.parametrize("seed", [1.5, True, -1, "1"])
    def test_seeds_must_be_non_negative_integers(self, seed):
        with pytest.raises(ConfigError, match="sweep.seeds"):
            cmd_sweep(base_config(sweep={"epsilons": [0.1], "modes": ["at"],
                                         "seeds": [1, seed]}))

    def test_a_null_attack_sweeps_the_default_one(self, tmp_path):
        config = base_config(attack=None, sweep={"epsilons": [0.1, 0.2], "modes": ["at"],
                                                 "seeds": [1]})
        config["train"] = {"epochs": 1}
        out = tmp_path / "sweep"
        assert cli.main(["sweep", "--config", write_config(tmp_path, config),
                         "--out", str(out)]) == 0
        rows = [json.loads(line) for line in (out / "records.jsonl").read_text().splitlines()]
        assert [row["epsilon"] for row in rows] == [0.1, 0.2]
        assert rows[0]["ra_best"] == cmd_train(
            dict(config, attack={"epsilon": 0.1}), seed=1).summary["ra_best"]

    def test_zero_epochs_is_an_error_row(self):
        config = base_config(sweep={"epsilons": [0.1], "modes": ["at"],
                                    "seeds": [1]})
        config["train"] = {"epochs": 0}
        report = cmd_sweep(config)
        assert report.records == [{"epsilon": 0.1, "mode": "at", "seed": 1,
                                   "error": "ValueError: no epoch to report: "
                                            "train.epochs is 0"}]
        assert report.summary["medians"] == []

    def test_requires_grid(self):
        with pytest.raises(ConfigError, match="sweep requires"):
            cmd_sweep(base_config(sweep={"epsilons": [], "modes": ["at"]}))

    def test_failing_cell_is_recorded_not_fatal(self, tmp_path):
        config = base_config(sweep={"epsilons": [0.2],
                                    "modes": ["at", "at_kd"],  # no teacher
                                    "seeds": [1]})
        report = cmd_sweep(config)
        assert report.passed is False
        errors = [r for r in report.records if "error" in r]
        assert len(errors) == 1
        assert "teacher" in errors[0]["error"]
        assert report.summary["failed_cells"] == 1


class TestMeasuringAttack:
    """``eval`` and ``attribution`` of a run's best checkpoint measure it under
    the attack ``train`` measured its epochs under, so they read its numbers."""

    CONFIG = {"seed": 1, "data": {"planted": {"classes": 4, "n_train": 100, "n_test": 50,
                                              "seed": 3}},
              "model": {"hidden": [16]}, "train": {"epochs": 3, "mode": "at"},
              "attack": {"norm": "linf", "epsilon": 0.4, "steps": 5, "random_start": True}}

    @pytest.mark.parametrize("eval_attack", [None, {"norm": "linf", "epsilon": 0.25,
                                                    "steps": 3}],
                             ids=["random-start-attack", "eval-attack"])
    def test_eval_and_attribution_read_the_best_epoch(self, tmp_path, eval_attack):
        config = dict(self.CONFIG)
        if eval_attack is not None:
            config["eval_attack"] = eval_attack
        best = str(tmp_path / "run" / "best.ckpt")
        config.update(eval={"checkpoint": best}, attribution={"checkpoint": best})
        path = write_config(tmp_path, config)
        summaries = {}
        for command in ("train", "eval", "attribution"):
            out = tmp_path / ("run" if command == "train" else command)
            assert cli.main([command, "--config", path, "--out", str(out)]) == 0
            summaries[command] = json.loads((out / "summary.json").read_text())["summary"]
        assert summaries["eval"]["robust_acc"] == summaries["train"]["ra_best"]
        assert summaries["attribution"]["robust_acc"] == summaries["train"]["ra_best"]
        assert summaries["attribution"]["cas"] == summaries["train"]["cas_best"]


class TestBestEpochTie:
    """The best epoch is the highest test robust accuracy, the earliest epoch
    on a tie.  train() keeps that epoch's snapshot as it goes, and every
    report must agree with it."""

    def test_every_report_names_the_earliest_tied_epoch(self, tmp_path):
        config = base_config(train={"epochs": 6})
        out = tmp_path / "run"
        rows = cmd_train(config, out_dir=str(out)).records
        top = max(row["test_robust_acc"] for row in rows)
        tied = [row for row in rows if row["test_robust_acc"] == top]
        best = tied[0]
        # A real tie, and one whose epochs CAS tells apart.
        assert len(tied) == 3 and len({row["cas"] for row in tied}) == 3
        summary = json.loads((out / "summary.json").read_text())["summary"]
        assert (summary["best_epoch"], summary["cas_best"]) == (best["epoch"], best["cas"])
        cell = cmd_sweep(dict(config, sweep={"epsilons": [0.2], "modes": ["at"],
                                             "seeds": [0]})).records[0]
        assert (cell["best_epoch"], cell["cas_best"]) == (best["epoch"], best["cas"])
        model, epoch, metrics = load_checkpoint(str(out / "best.ckpt"))
        assert (epoch, metrics) == (best["epoch"], best)
        # The stored weights are that epoch's: its evaluation gives its CAS back.
        test_set = generate_planted(PlantedSpec(**config["data"]["planted"]))[1]
        attack = AttackConfig(**config["attack"])
        _, points = evaluate(model, test_set, attack, RngStream(0).split(3).split(epoch))
        assert cas(class_attribution_matrix(model, test_set, points)) == best["cas"]


class TestReportCmd:
    def test_renders_previous_run(self, tmp_path, capsys):
        out = str(tmp_path / "run")
        cmd_train(base_config(), out_dir=out)
        report = cmd_report({}, out_dir=out)
        rendered = report.summary["rendered"]
        assert "run: train" in rendered
        assert "ra_last" in rendered
        assert cli.main(["report", "--out", out]) == 0
        assert "run: train" in capsys.readouterr().out

    def test_requires_out_dir_with_summary(self, tmp_path):
        with pytest.raises(ConfigError, match="--out"):
            cmd_report({})
        with pytest.raises(ConfigError, match="summary.json"):
            cmd_report({}, out_dir=str(tmp_path))


class TestMetadata:
    """Every command records {command, config_hash, version, seed}: the run
    seed for train, eval, attribution and synth-verify, the spec seed for
    gen-data, and --seed or null for sweep and report."""

    CONFIG_SEEDS = {"synth-verify": 5, "gen-data": 0, "train": 3, "eval": 3,
                    "attribution": 3, "sweep": None, "report": None}

    @pytest.mark.parametrize("seed", [None, 4])
    @pytest.mark.parametrize("command", sorted(CONFIG_SEEDS))
    def test_metadata_block(self, tmp_path, command, seed):
        run_dir = str(tmp_path / "run")
        cmd_train(base_config(), out_dir=run_dir)
        config = base_config(
            seed=3, eval={"checkpoint": f"{run_dir}/best.ckpt"},
            attribution={"checkpoint": f"{run_dir}/best.ckpt"},
            synthetic={"mc_samples": 2_000, "oracle_steps": 100, "seed": 5},
            sweep={"epsilons": [0.2], "modes": ["at"], "seeds": [1]})
        out = run_dir if command == "report" else str(tmp_path / "out")
        report = cli._COMMANDS[command](config, out_dir=out, seed=seed)
        expected = {"command": command, "config_hash": config_hash(config),
                    "version": crossfeat.__version__,
                    "seed": self.CONFIG_SEEDS[command] if seed is None else seed}
        assert report.metadata == expected
        if command != "report":
            written = json.loads((tmp_path / "out" / "summary.json").read_text())
            assert written["metadata"] == expected


class TestIntegerSettings:
    """A seed or a count that is not an integer, or a float setting that is
    not a number, is a config error that names its key, not a truncated
    seed, a late TypeError, or true trained as 1."""

    @pytest.mark.parametrize("command, keys, value, message", [
        ("train", ("seed",), 1.5, "seed: expected a non-negative integer, got 1.5"),
        ("train", ("seed",), True, "seed: expected a non-negative integer, got True"),
        ("synth-verify", ("synthetic", "seed"), 1.5,
         "synthetic.seed: expected a non-negative integer, got 1.5"),
        ("gen-data", ("data", "planted", "seed"), 0.5,
         "data.planted.seed: expected a non-negative integer, got 0.5"),
        ("train", ("attack", "steps"), 2.5, "attack: steps must be an integer >= 1, got 2.5"),
        ("train", ("train", "epochs"), 1.5, "train: epochs must be an integer >= 0, got 1.5"),
        ("train", ("train", "batch_size"), 16.0,
         "train: batch_size must be an integer >= 1, got 16.0"),
        ("train", ("data", "planted", "classes"), 3.5,
         "data.planted: classes must be an integer >= 3, got 3.5"),
        ("gen-data", ("data", "planted", "replication"), 1.5,
         "data.planted: replication must be an integer >= 1, got 1.5"),
        ("train", ("data", "planted", "noise_dims"), 2.5,
         "data.planted: noise_dims must be an integer >= 0, got 2.5"),
        ("train", ("data", "planted", "n_train"), 10.5,
         "data.planted: n_train and n_test must be integers >= 1, got 10.5, 15"),
        ("gen-data", ("data", "planted", "n_test"), 15.5,
         "data.planted: n_train and n_test must be integers >= 1, got 30, 15.5"),
        ("train", ("model", "hidden"), [8.5],
         "model: hidden widths must be integers >= 1, got [8.5]"),
        ("synth-verify", ("synthetic", "mc_samples"), 2000.7,
         "synthetic.mc_samples: expected an integer >= 1, got 2000.7"),
        ("synth-verify", ("synthetic", "mc_samples"), 0,
         "synthetic.mc_samples: expected an integer >= 1, got 0"),
        ("synth-verify", ("synthetic", "oracle_steps"), 1.5,
         "synthetic.oracle_steps: expected a non-negative integer, got 1.5"),
        ("train", ("seed",), -1, "seed: expected a non-negative integer, got -1"),
        ("train", ("seed",), 2**64, f"seed: expected an integer <= {2**64 - 1}, got {2**64}"),
        ("synth-verify", ("synthetic", "seed"), 2**64,
         f"synthetic.seed: expected an integer <= {2**64 - 1}, got {2**64}"),
        ("gen-data", ("data", "planted", "seed"), 2**64,
         f"data.planted.seed: expected an integer <= {2**64 - 1}, got {2**64}"),
        ("sweep", ("sweep",), {"epsilons": [0.2], "modes": ["at"], "seeds": [1, 2**64]},
         f"sweep.seeds: expected an integer <= {2**64 - 1}, got {2**64}"),
        ("synth-verify", ("synthetic", "mc_samples"), 2**64,
         f"synthetic.mc_samples: expected an integer <= {2**64 - 1}, got {2**64}"),
        ("train", ("train", "lr"), True, "train: lr must be a number, got True"),
        ("train", ("train", "lr"), "0.1", "train: lr must be a number, got '0.1'"),
        ("train", ("train", "decay_factor"), None,
         "train: decay_factor must be a number, got None"),
        ("train", ("train", "momentum"), "0.9", "train: momentum must be a number, got '0.9'"),
        ("train", ("train", "weight_decay"), "5e-4",
         "train: weight_decay must be a number, got '5e-4'"),
        ("train", ("train", "beta"), "0.2", "train: beta must be a number, got '0.2'"),
        ("train", ("train", "lambda_mix"), "0.5",
         "train: lambda_mix must be a number, got '0.5'"),
        ("train", ("train", "temperature"), False,
         "train: temperature must be a number, got False"),
        ("train", ("train", "decay_fractions"), ["0.5"],
         "train: decay_fractions must be a number, got '0.5'"),
        ("train", ("train", "decay_fractions"), [0.5, True],
         "train: decay_fractions must be a number, got True"),
        ("synth-verify", ("synthetic", "mu"), "1", "synthetic: mu must be a number, got '1'"),
        ("synth-verify", ("synthetic", "sigma"), True,
         "synthetic: sigma must be a number, got True"),
        ("synth-verify", ("synthetic", "lam"), [0.1],
         "synthetic: lam must be a number, got [0.1]"),
        ("gen-data", ("data", "planted", "sigma"), "0.3",
         "data.planted: sigma must be a number, got '0.3'"),
        ("train", ("data", "planted", "mu"), True,
         "data.planted: mu must be a number, got True"),
    ])
    def test_exits_two_naming_the_key(self, tmp_path, capsys, command, keys, value,
                                      message):
        config = base_config()
        section = config
        for key in keys[:-1]:
            section = section.setdefault(key, {})
        section[keys[-1]] = value
        argv = [command, "--config", write_config(tmp_path, config),
                "--out", str(tmp_path / "out")]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["train", "gen-data", "synth-verify", "eval",
                                         "attribution", "sweep", "report"])
    @pytest.mark.parametrize("seed, message", [
        (-1, "--seed: expected a non-negative integer, got -1"),
        (2**64, f"--seed: expected an integer <= {2**64 - 1}, got {2**64}"),
    ])
    def test_a_seed_override_is_checked(self, tmp_path, capsys, command, seed, message):
        config = base_config(eval={"checkpoint": str(tmp_path / "none.ckpt")},
                             attribution={"checkpoint": str(tmp_path / "none.ckpt")})
        out = tmp_path / "out"
        argv = [command, "--config", write_config(tmp_path, config), "--out", str(out),
                "--seed", str(seed)]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not out.exists()


class TestBooleanSettings:
    """A switch that is not JSON true or false is a config error that names
    its key: bool("false") would turn it on."""

    @pytest.mark.parametrize("command, keys, value, message", [
        ("attribution", ("attribution", "clean"), "false",
         "attribution.clean: expected true or false, got 'false'"),
        ("train", ("model", "hidden_bias"), "no",
         "model.hidden_bias: expected true or false, got 'no'"),
        ("train", ("model", "head_bias"), 1,
         "model.head_bias: expected true or false, got 1"),
        ("gen-data", ("data", "planted", "rotate"), "false",
         "data.planted.rotate: expected true or false, got 'false'"),
        ("train", ("attack", "random_start"), "true",
         "attack.random_start: expected true or false, got 'true'"),
        ("train", ("eval_attack", "random_start"), 0,
         "eval_attack.random_start: expected true or false, got 0"),
    ])
    def test_exits_two_naming_the_key(self, tmp_path, capsys, command, keys, value,
                                      message):
        config = base_config(attribution={"checkpoint": str(tmp_path / "none.ckpt")})
        section = config
        for key in keys[:-1]:
            section = section.setdefault(key, {})
        section[keys[-1]] = value
        out = tmp_path / "out"
        argv = [command, "--config", write_config(tmp_path, config), "--out", str(out)]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not out.exists()


class TestListSettings:
    """A scalar where a JSON list belongs, or an attack bound or radius that
    is not a JSON number, is a config error that names its key: iterating it
    would fail or walk a string's characters, and a string or a bool would
    fail in PGD or pass for a number."""

    @pytest.mark.parametrize("command, keys, value, message", [
        ("sweep", ("sweep", "epsilons"), 0.2, "sweep.epsilons: expected a JSON list of numbers"),
        ("sweep", ("sweep", "modes"), "at", "sweep.modes: expected a JSON list of strings"),
        ("sweep", ("sweep", "seeds"), 3, "sweep.seeds: expected a JSON list of integers"),
        ("sweep", ("sweep", "epsilons"), [0.2, "0.4"], "sweep.epsilons: expected numbers, got '0.4'"),
        ("sweep", ("sweep", "modes"), ["at", 1], "sweep.modes: expected strings, got 1"),
        ("train", ("train", "decay_fractions"), 0.5,
         "train.decay_fractions: expected a JSON list of numbers"),
        ("train", ("model", "hidden"), 8, "model.hidden: expected a JSON list of integers"),
        ("train", ("model", "hidden"), "8", "model.hidden: expected a JSON list of integers"),
        ("sweep", ("model", "hidden"), 8, "model.hidden: expected a JSON list of integers"),
        ("train", ("attack", "input_bounds"), 1,
         "attack.input_bounds: expected a JSON list [lo, hi]"),
        ("train", ("eval_attack", "input_bounds"), 1,
         "eval_attack.input_bounds: expected a JSON list [lo, hi]"),
        ("train", ("attack", "input_bounds"), ["a", "b"],
         "attack: input_bounds must be two numbers lo < hi, got ('a', 'b')"),
        ("train", ("attack", "input_bounds"), [0],
         "attack: input_bounds must be two numbers lo < hi, got (0,)"),
        ("train", ("attack", "input_bounds"), [0, 1, 2],
         "attack: input_bounds must be two numbers lo < hi, got (0, 1, 2)"),
        ("train", ("attack", "input_bounds"), [True, 2],
         "attack: input_bounds must be two numbers lo < hi, got (True, 2)"),
        ("train", ("eval_attack", "input_bounds"), [0, "1"],
         "eval_attack: input_bounds must be two numbers lo < hi, got (0, '1')"),
        ("train", ("attack", "epsilon"), "0.1",
         "attack: epsilon must be a non-negative number, got '0.1'"),
        ("train", ("attack", "epsilon"), None,
         "attack: epsilon must be a non-negative number, got None"),
        ("train", ("eval_attack", "epsilon"), True,
         "eval_attack: epsilon must be a non-negative number, got True"),
        ("train", ("attack", "step_size"), "0.05",
         "attack: step_size must be a positive number, got '0.05'"),
        ("train", ("eval_attack", "step_size"), False,
         "eval_attack: step_size must be a positive number, got False"),
    ])
    def test_exits_two_naming_the_key(self, tmp_path, capsys, command, keys, value,
                                      message):
        config = base_config(sweep={"epsilons": [0.2], "modes": ["at"], "seeds": [1]})
        config.setdefault(keys[0], {})[keys[1]] = value
        out = tmp_path / "out"
        argv = [command, "--config", write_config(tmp_path, config), "--out", str(out)]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not out.exists()


class TestPathSettings:
    """A path that is not a nonempty JSON string, an unknown data format or
    a class count that is not an integer >= 1 is a config error that names
    its key, raised before anything trains or is written.  A number reached
    open() as a file descriptor, a number or "" for out_dir failed only after
    training, and a class count such as "4" failed mid-load or was ignored.
    null stays allowed where it means none."""

    FORMATS = "('delimited-text', 'raw-matrix')"
    TEACHER = "train: teacher must be a Classifier, a checkpoint path or None, got 4"

    @staticmethod
    def tabular(tmp_path, fmt):
        splits = generate_planted(PlantedSpec(**base_config()["data"]["planted"]))
        data = {"format": fmt}
        for key, dataset in zip(("train_path", "test_path"), splits):
            data[key] = str(tmp_path / f"{key}.txt")
            save_tabular(dataset, data[key], fmt)
        return data

    @pytest.mark.parametrize("command, fmt, keys, value, message", [
        ("train", None, ("out_dir",), 5, "out_dir: expected a path string or null, got 5"),
        ("train", None, ("out_dir",), "", "out_dir: expected a path string or null, got ''"),
        ("gen-data", None, ("out_dir",), ["out"],
         "out_dir: expected a path string or null, got ['out']"),
        ("eval", None, ("eval", "checkpoint"), 3,
         "eval.checkpoint: expected a path string, got 3"),
        ("eval", None, ("eval", "checkpoint"), None,
         "eval.checkpoint: expected a path string, got None"),
        ("attribution", None, ("attribution", "checkpoint"), 5,
         "attribution.checkpoint: expected a path string, got 5"),
        ("attribution", None, ("attribution", "checkpoint"), ["a.ckpt"],
         "attribution.checkpoint: expected a path string, got ['a.ckpt']"),
        ("attribution", None, ("attribution", "checkpoint_last"), 7,
         "attribution.checkpoint_last: expected a path string or null, got 7"),
        ("attribution", None, ("attribution", "checkpoint_last"), "",
         "attribution.checkpoint_last: expected a path string or null, got ''"),
        ("train", None, ("train", "teacher"), 4, TEACHER),
        ("sweep", None, ("train", "teacher"), 4, TEACHER),
        ("train", None, ("train", "teacher"), "",
         "train: teacher must be a Classifier, a checkpoint path or None, got ''"),
        ("train", "delimited-text", ("data", "format"), "csv",
         f"data.format: expected one of {FORMATS}, got 'csv'"),
        ("sweep", "raw-matrix", ("data", "format"), None,
         f"data.format: expected one of {FORMATS}, got None"),
        ("train", "raw-matrix", ("data", "class_count"), "4",
         "data.class_count: expected an integer >= 1, got '4'"),
        ("train", "raw-matrix", ("data", "class_count"), 2.5,
         "data.class_count: expected an integer >= 1, got 2.5"),
        ("train", "raw-matrix", ("data", "class_count"), 0,
         "data.class_count: expected an integer >= 1, got 0"),
        ("train", "delimited-text", ("data", "class_count"), "4",
         "data.class_count: expected an integer >= 1, got '4'"),
        ("train", "delimited-text", ("data", "class_count"), 2.5,
         "data.class_count: expected an integer >= 1, got 2.5"),
        ("train", "delimited-text", ("data", "class_count"), True,
         "data.class_count: expected an integer >= 1, got True"),
        ("train", "delimited-text", ("data", "train_path"), 5,
         "data.train_path: expected a path string, got 5"),
        ("attribution", "raw-matrix", ("data", "test_path"), None,
         "data.test_path: expected a path string, got None"),
    ])
    def test_exits_two_naming_the_key(self, tmp_path, capsys, command, fmt, keys, value,
                                      message):
        config = base_config(eval={"checkpoint": str(tmp_path / "none.ckpt")},
                             attribution={"checkpoint": str(tmp_path / "none.ckpt")},
                             sweep={"epsilons": [0.2], "modes": ["at"], "seeds": [1]})
        if fmt is not None:
            config["data"] = self.tabular(tmp_path, fmt)
        section = config
        for key in keys[:-1]:
            section = section.setdefault(key, {})
        section[keys[-1]] = value
        out = tmp_path / "out"
        argv = [command, "--config", write_config(tmp_path, config), "--out", str(out)]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not out.exists()

    def test_a_bad_out_dir_trains_no_epoch(self, tmp_path, capsys, monkeypatch):
        epochs, lr_at = [], training.lr_at
        monkeypatch.setattr(training, "lr_at",
                            lambda epoch, cfg: epochs.append(epoch) or lr_at(epoch, cfg))
        path = write_config(tmp_path, base_config(out_dir=5))
        assert cli.main(["train", "--config", path]) == 2
        assert capsys.readouterr().err == (
            "config error: out_dir: expected a path string or null, got 5\n")
        assert epochs == []

    def test_a_class_count_against_the_header_trains_no_epoch(self, tmp_path, capsys,
                                                               monkeypatch):
        epochs, lr_at = [], training.lr_at
        monkeypatch.setattr(training, "lr_at",
                            lambda epoch, cfg: epochs.append(epoch) or lr_at(epoch, cfg))
        config = base_config()
        config["data"] = {**self.tabular(tmp_path, "delimited-text"), "class_count": 7}
        out = tmp_path / "out"
        assert cli.main(["train", "--config", write_config(tmp_path, config),
                         "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"error: ValueError: {config['data']['train_path']}:1: header declares "
            f"3 classes, class_count is 7\n")
        assert epochs == []
        assert not out.exists()
        config["data"]["class_count"] = 3  # an equal count is accepted
        assert cli.main(["train", "--config", write_config(tmp_path, config),
                         "--out", str(out)]) == 0

    def test_null_means_none(self, tmp_path):
        config = base_config(out_dir=None, train={"epochs": 1, "teacher": None})
        config["data"] = {**self.tabular(tmp_path, "raw-matrix"), "class_count": None}
        out = tmp_path / "out"
        assert cli.main(["train", "--config", write_config(tmp_path, config),
                         "--out", str(out)]) == 0
        config["attribution"] = {"checkpoint": str(out / "best.ckpt"), "checkpoint_last": None}
        assert cli.main(["attribution", "--config", write_config(tmp_path, config),
                         "--out", str(tmp_path / "attribution")]) == 0
        assert (tmp_path / "attribution" / "attribution_matrix.txt").exists()
        assert not (tmp_path / "attribution" / "attribution_matrix_last.txt").exists()


class TestNullSections:
    """Null means none only for ``attack``, ``eval_attack`` and
    ``data.planted``.  Any other null section exits 2 naming it, before
    anything is written, not 1 in Python's words where it is read."""

    @pytest.mark.parametrize("command, section", [
        ("synth-verify", "synthetic"), ("train", "data"), ("train", "model"),
        ("train", "train"), ("attribution", "attribution"), ("eval", "eval"),
        ("sweep", "sweep")])
    def test_exits_two_naming_the_section(self, tmp_path, capsys, command, section):
        out = tmp_path / "out"
        argv = [command, "--config", write_config(tmp_path, base_config(**{section: None})),
                "--out", str(out)]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == (
            f"config error: {section}: expected an object, got null\n")
        assert not out.exists()

    def test_a_null_attack_means_none(self):
        absent = base_config()
        del absent["attack"]
        assert (cmd_train(base_config(attack=None, eval_attack=None)).records
                == cmd_train(absent).records)

    def test_null_planted_data_means_none(self):
        config = base_config()
        config["data"]["planted"] = None
        with pytest.raises(ConfigError, match="need either data.planted"):
            cmd_train(config)


def _number_cases():
    """One case per number key: (command, keys, place, message before
    ", got <value>"), where ``place`` puts the value where the key takes it."""
    def alone(value):
        return value
    cases = [("train", ("train", name), alone, f"train: {name} must be a number")
             for name in ("lr", "decay_factor", "momentum", "weight_decay", "beta",
                          "lambda_mix", "temperature")]
    cases.append(("train", ("train", "decay_fractions"), lambda v: [0.5, v],
                  "train: decay_fractions must be a number"))
    cases += [("synth-verify", ("synthetic", name), alone, f"synthetic: {name} must be a number")
              for name in ("mu", "sigma", "lam")]
    cases += [("gen-data", ("data", "planted", name), alone,
               f"data.planted: {name} must be a number") for name in ("mu", "sigma")]
    for section in ("attack", "eval_attack"):
        cases += [
            ("train", (section, "epsilon"), alone, f"{section}: epsilon must be a non-negative number"),
            ("train", (section, "step_size"), alone, f"{section}: step_size must be a positive number"),
            ("train", (section, "input_bounds"), lambda v: [-1, v],
             f"{section}: input_bounds must be two numbers lo < hi"),
        ]
    cases.append(("sweep", ("sweep", "epsilons"), lambda v: [0.2, v],
                  "sweep.epsilons: expected numbers"))
    return [pytest.param(*case, id=".".join(case[1])) for case in cases]


class TestNonFiniteNumbers:
    """JSON NaN, Infinity and -Infinity are not numbers to any key: each is a
    config error naming its key, raised before anything trains or is written,
    not a run that fails after its first step.  An input bound of null, not
    an infinite one, means unbounded."""

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")],
                             ids=["NaN", "Infinity", "-Infinity"])
    @pytest.mark.parametrize("command, keys, place, prefix", _number_cases())
    def test_exits_two_naming_the_key(self, tmp_path, capsys, command, keys, place, prefix,
                                      value):
        config = base_config(sweep={"epsilons": [0.2], "modes": ["at"], "seeds": [1]})
        section = config
        for key in keys[:-1]:
            section = section.setdefault(key, {})
        section[keys[-1]] = place(value)
        path = write_config(tmp_path, config)
        assert json.dumps(value) in (tmp_path / "config.json").read_text()  # JSON's own token
        shown = (-1, value) if keys[-1] == "input_bounds" else value
        out = tmp_path / "out"
        assert cli.main([command, "--config", path, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"config error: {prefix}, got {shown!r}\n"
        assert not out.exists()


def _rule_leaves(schema=cli._SCHEMA, keys=()):
    for key, rule in schema.items():
        if isinstance(rule, dict):
            yield from _rule_leaves(rule, keys + (key,))
        elif rule is not None:
            yield keys + (key,)


class TestSchemaRules:
    """Each leaf of the schema that states a rule rejects a value of the
    wrong type, naming its dotted key, so a new row cannot go unchecked.  The
    whole config is checked at load and again by each command on entry."""

    def test_the_leaves_are_the_keys_the_cli_checks(self):
        assert {".".join(keys) for keys in _rule_leaves()} == {
            "out_dir", "seed", "synthetic.mc_samples", "synthetic.oracle_steps",
            "synthetic.seed", "data.planted.rotate", "data.planted.seed", "data.train_path",
            "data.test_path", "data.format", "data.class_count", "model.hidden",
            "model.hidden_bias", "model.head_bias", "train.decay_fractions",
            "attack.random_start", "attack.input_bounds", "eval_attack.random_start",
            "eval_attack.input_bounds", "attribution.checkpoint",
            "attribution.checkpoint_last", "attribution.clean", "eval.checkpoint",
            "sweep.epsilons", "sweep.modes", "sweep.seeds"}

    @pytest.mark.parametrize("keys", list(_rule_leaves()), ids=".".join)
    def test_a_value_of_the_wrong_type_exits_two(self, tmp_path, capsys, keys):
        config = base_config()
        section = config
        for key in keys[:-1]:
            section = section.setdefault(key, {})
        section[keys[-1]] = {"wrong": "type"}
        out = tmp_path / "out"
        argv = ["train", "--config", write_config(tmp_path, config), "--out", str(out)]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err.startswith(f"config error: {'.'.join(keys)}: expected ")
        assert not out.exists()

    @pytest.mark.parametrize("command", sorted(cli._COMMANDS))
    def test_every_command_checks_the_whole_config(self, tmp_path, command, monkeypatch):
        # A key the command never reads is checked too.
        for name in ("generate_planted", "load_checkpoint", "train", "train_many",
                     "run_verification"):
            monkeypatch.setattr(cli, name, None)
        config = base_config(sweep={"epsilons": [0.2], "modes": ["at"], "seeds": 3})
        with pytest.raises(ConfigError, match=r"^sweep\.seeds: expected a JSON list of integers$"):
            cli._COMMANDS[command](config, out_dir=str(tmp_path / "out"))
        assert not (tmp_path / "out").exists()


class TestMain:
    def test_config_error_exits_two(self, tmp_path, capsys):
        path = write_config(tmp_path, {"bogus": 1})
        assert cli.main(["train", "--config", path]) == 2
        assert "config error" in capsys.readouterr().err

    def test_records_format_prints_json_lines(self, tmp_path, capsys):
        path = write_config(tmp_path, base_config())
        code = cli.main(["train", "--config", path, "--format", "records"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2
        assert json.loads(lines[0])["epoch"] == 0

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            cli.main(["frobnicate"])

    def test_out_dir_from_config(self, tmp_path, capsys):
        out = str(tmp_path / "from-config")
        path = write_config(tmp_path, base_config(out_dir=out))
        assert cli.main(["train", "--config", path]) == 0
        assert (tmp_path / "from-config" / "summary.json").exists()
