"""Tests for the planted-feature generator and tabular file IO."""

import numpy as np
import pytest

from crossfeat.data import (Dataset, PlantedSpec, generate_planted,
                            load_tabular, pair_index, save_tabular)


def small_spec(**overrides):
    base = dict(classes=3, replication=1, noise_dims=4, mu=1.0, sigma=0.2,
                rotate=False, n_train=60, n_test=30, seed=0)
    base.update(overrides)
    return PlantedSpec(**base)


class TestPlantedSpec:
    def test_validation(self):
        with pytest.raises(ValueError, match="classes"):
            PlantedSpec(classes=2)
        with pytest.raises(ValueError, match="replication"):
            PlantedSpec(replication=0)
        with pytest.raises(ValueError, match="noise_dims"):
            PlantedSpec(noise_dims=-1)
        with pytest.raises(ValueError, match="mu and sigma"):
            PlantedSpec(sigma=0.0)
        with pytest.raises(ValueError, match="n_train"):
            PlantedSpec(n_train=0)

    def test_dimension_bookkeeping(self):
        spec = PlantedSpec()  # defaults: K=4, R=2, 16 noise dims
        assert spec.group_dim == 4 + 6
        assert spec.signal_dim == 20
        assert spec.total_dim == 36

    def test_spec_hash_tracks_fields(self):
        assert PlantedSpec().spec_hash() == PlantedSpec().spec_hash()
        assert PlantedSpec().spec_hash() != PlantedSpec(seed=1).spec_hash()
        assert len(PlantedSpec().spec_hash()) == 16


class TestPairIndex:
    def test_lexicographic_layout_for_four_classes(self):
        expected = {(0, 1): 0, (0, 2): 1, (0, 3): 2, (1, 2): 3, (1, 3): 4,
                    (2, 3): 5}
        for (i, j), pos in expected.items():
            assert pair_index(4, i, j) == pos
            assert pair_index(4, j, i) == pos  # unordered

    def test_errors(self):
        with pytest.raises(ValueError, match="differ"):
            pair_index(4, 1, 1)
        with pytest.raises(ValueError, match="out of range"):
            pair_index(4, 0, 4)


class TestDataset:
    def test_validation(self):
        with pytest.raises(ValueError, match="2-D"):
            Dataset(np.zeros(3), np.zeros(3, dtype=np.int64), 2)
        with pytest.raises(ValueError, match="labels shape"):
            Dataset(np.zeros((3, 2)), np.zeros(2, dtype=np.int64), 2)
        with pytest.raises(ValueError, match="lie in"):
            Dataset(np.zeros((3, 2)), np.array([0, 1, 2]), 2)
        with pytest.raises(ValueError, match="whole numbers"):
            Dataset(np.zeros((3, 2)), np.array([0.7, 1.9, 2.5]), 3)
        assert Dataset(np.zeros((3, 2)), np.array([0.0, 1.0, 2.0]), 3).labels.dtype \
            == np.int64

    def test_class_indices(self):
        ds = Dataset(np.zeros((4, 1)), np.array([1, 0, 1, 0]), 2)
        assert np.array_equal(ds.class_indices(1), [0, 2])
        assert len(ds) == 4


class TestGeneratePlanted:
    def test_exact_class_balance(self):
        train, test = generate_planted(small_spec())
        assert np.array_equal(np.bincount(train.labels), [60, 60, 60])
        assert np.array_equal(np.bincount(test.labels), [30, 30, 30])

    def test_deterministic_given_spec(self):
        a_train, a_test = generate_planted(small_spec())
        b_train, b_test = generate_planted(small_spec())
        assert np.array_equal(a_train.inputs, b_train.inputs)
        assert np.array_equal(a_train.labels, b_train.labels)
        assert np.array_equal(a_test.inputs, b_test.inputs)

    def test_seed_changes_data(self):
        a, _ = generate_planted(small_spec())
        b, _ = generate_planted(small_spec(seed=1))
        assert not np.array_equal(a.inputs, b.inputs)

    def test_unrotated_zero_pattern(self):
        spec = small_spec(classes=4, replication=2, noise_dims=3)
        train, _ = generate_planted(spec)
        k, group = spec.classes, spec.group_dim
        for class_i in range(k):
            rows = train.inputs[train.labels == class_i]
            support = set()
            for g in range(spec.replication):
                support.add(g * group + class_i)
                for other in range(k):
                    if other != class_i:
                        support.add(g * group + k + pair_index(k, class_i, other))
            for col in range(spec.signal_dim):
                if col in support:
                    assert np.all(rows[:, col] != 0.0)
                else:
                    assert np.all(rows[:, col] == 0.0)

    def test_signal_moments(self):
        spec = small_spec(n_train=2000)
        train, _ = generate_planted(spec)
        own = np.concatenate([train.inputs[train.labels == i][:, i]
                              for i in range(spec.classes)])
        se = spec.sigma / np.sqrt(len(own))
        assert abs(own.mean() - spec.mu) <= 4.0 * se
        noise = train.inputs[:, spec.signal_dim:]
        assert abs(noise.mean()) <= 4.0 * spec.sigma / np.sqrt(noise.size)

    def test_rotation_is_an_isometry_of_the_unrotated_data(self):
        plain_train, _ = generate_planted(small_spec())
        rot_train, _ = generate_planted(small_spec(rotate=True))
        assert np.array_equal(plain_train.labels, rot_train.labels)
        # Same Gaussian draws, so the Gram matrices must agree.
        assert np.allclose(plain_train.inputs @ plain_train.inputs.T,
                           rot_train.inputs @ rot_train.inputs.T, atol=1e-9)
        assert not np.allclose(plain_train.inputs, rot_train.inputs)

    def test_train_and_test_use_disjoint_draws(self):
        spec = small_spec(n_train=30, n_test=30)
        train, test = generate_planted(spec)
        assert not np.array_equal(train.inputs, test.inputs)

    def test_metadata_records_spec(self):
        spec = small_spec()
        train, test = generate_planted(spec)
        assert train.metadata["spec_hash"] == spec.spec_hash()
        assert train.metadata["split"] == "train"
        assert test.metadata["split"] == "test"
        assert train.metadata["spec"]["classes"] == spec.classes

    def test_rotated_signal_is_linearly_recoverable(self):
        # Ridge regression on one-hot targets must separate the classes even
        # after the orthogonal mixing, since rotation preserves the geometry.
        spec = small_spec(rotate=True, n_train=300, n_test=150)
        train, test = generate_planted(spec)
        x, y = train.inputs, train.labels
        targets = np.eye(spec.classes)[y]
        gram = x.T @ x + 1e-3 * np.eye(x.shape[1])
        weights = np.linalg.solve(gram, x.T @ targets)
        pred = (test.inputs @ weights).argmax(axis=1)
        assert (pred == test.labels).mean() > 0.95


class TestTabularIO:
    @pytest.fixture()
    def dataset(self):
        train, _ = generate_planted(small_spec(n_train=8, n_test=4))
        return train

    @pytest.mark.parametrize("fmt", ["delimited-text", "raw-matrix"])
    def test_round_trip_is_exact(self, dataset, fmt, tmp_path):
        path = str(tmp_path / "data.txt")
        save_tabular(dataset, path, format=fmt)
        loaded = load_tabular(path, format=fmt,
                              class_count=None if fmt == "delimited-text"
                              else dataset.class_count)
        assert np.array_equal(loaded.inputs, dataset.inputs)
        assert np.array_equal(loaded.labels, dataset.labels)
        assert loaded.class_count == dataset.class_count

    def test_raw_matrix_infers_class_count(self, dataset, tmp_path):
        path = str(tmp_path / "data.txt")
        save_tabular(dataset, path, format="raw-matrix")
        loaded = load_tabular(path, format="raw-matrix")
        assert loaded.class_count == int(dataset.labels.max()) + 1

    def test_unknown_format_rejected(self, dataset, tmp_path):
        path = str(tmp_path / "data.txt")
        with pytest.raises(ValueError, match="format"):
            save_tabular(dataset, path, format="csv")
        save_tabular(dataset, path)
        with pytest.raises(ValueError, match="format"):
            load_tabular(path, format="csv")

    def test_empty_file_loads_as_empty_dataset(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("")
        loaded = load_tabular(str(path))
        assert len(loaded) == 0

    def test_empty_dataset_round_trips_through_its_header(self, tmp_path):
        path = str(tmp_path / "empty.csv")
        empty = Dataset(np.zeros((0, 5)), np.zeros(0, dtype=np.int64), 4)
        save_tabular(empty, path)
        loaded = load_tabular(path)
        assert loaded.inputs.shape == (0, 5)
        assert len(loaded) == 0
        assert loaded.class_count == 4

    def test_bad_header_reports_line_one(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("3,2,9\n1,2,3,0\n")
        with pytest.raises(ValueError, match=r"bad.txt:1"):
            load_tabular(str(path))
        path.write_text("three,2\n1,2,3,0\n")
        with pytest.raises(ValueError, match="non-integer header"):
            load_tabular(str(path))

    def test_wrong_feature_count_reports_offending_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2,2\n1,2,0\n1,2,3,1\n")
        with pytest.raises(ValueError, match=r"bad.txt:3: expected 2 features"):
            load_tabular(str(path))

    def test_ragged_raw_matrix_reports_offending_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1 2 0\n1 2 3 1\n")
        with pytest.raises(ValueError, match=r"bad.txt:2: ragged row"):
            load_tabular(str(path), format="raw-matrix")

    def test_unparseable_value_reports_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2,2\n1,x,0\n")
        with pytest.raises(ValueError, match=r"bad.txt:2: unparseable"):
            load_tabular(str(path))

    def test_label_out_of_declared_range(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2,2\n1,2,0\n3,4,2\n")
        with pytest.raises(ValueError, match=r"bad.txt:3: label 2 out of range"):
            load_tabular(str(path))

    def test_negative_label_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1 2 -1\n")
        with pytest.raises(ValueError, match="negative label"):
            load_tabular(str(path), format="raw-matrix")

    def test_too_few_cells_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2,2\n0\n")
        with pytest.raises(ValueError, match="at least one feature"):
            load_tabular(str(path))
