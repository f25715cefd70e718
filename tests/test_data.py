"""Tests for the planted-feature generator and tabular file IO."""

import hashlib
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from blas_kernel import PINNED
from crossfeat.cli import main
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

    def test_a_given_class_count_must_match_the_header(self, dataset, tmp_path):
        path = tmp_path / "data.txt"
        save_tabular(dataset, str(path))
        count = dataset.class_count
        assert load_tabular(str(path), class_count=count).class_count == count
        with pytest.raises(ValueError) as info:
            load_tabular(str(path), class_count=count + 3)
        assert str(info.value) == (
            f"{path}:1: header declares {count} classes, class_count is {count + 3}")
        path.write_text("\n2,2\n1,2,0\n")  # the header's own line is named
        with pytest.raises(ValueError, match=r"^.*:2: header declares 2 classes, "
                                             r"class_count is 1$"):
            load_tabular(str(path), class_count=1)
        save_tabular(dataset, str(path), format="raw-matrix")  # no header to disagree with
        assert load_tabular(str(path), "raw-matrix", count + 3).class_count == count + 3

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


def ok(inputs, shape, labels, class_count):
    return ("ok", np.array(inputs, dtype=float).reshape(shape), labels, class_count)


def err(message):
    return ("err", message)


# (id, format, class_count, file text, outcome).  The outcomes are those of
# the per-line reader that came before the one-pass parse: numpy's parser
# rejects some text that float() and int() accept (1_0, non-ASCII digits),
# and such text must still load through the per-line loop.
PARITY = [
    ('bad_header_three_fields', 'delimited-text', None, '3,2,9\n1,2,3,0\n',
     err("{path}:1: expected header '<dims>,<classes>', got '3,2,9'")),
    ('non_integer_header', 'delimited-text', None, 'three,2\n1,2,3,0\n',
     err("{path}:1: non-integer header field: invalid literal for int() with base 10: 'three'")),
    ('wrong_feature_count', 'delimited-text', None, '2,2\n1,2,0\n1,2,3,1\n',
     err('{path}:3: expected 2 features, got 3')),
    ('ragged_raw_row', 'raw-matrix', None, '1 2 0\n1 2 3 1\n',
     err('{path}:2: ragged row (3 vs 2 features)')),
    ('unparseable_feature', 'delimited-text', None, '2,2\n1,x,0\n',
     err("{path}:2: unparseable value: could not convert string to float: 'x'")),
    ('label_out_of_declared_range', 'delimited-text', None, '2,2\n1,2,0\n3,4,2\n',
     err('{path}:3: label 2 out of range for 2 classes')),
    ('label_out_of_given_range', 'raw-matrix', 2, '1 2 0\n3 4 2\n',
     err('{path}:2: label 2 out of range for 2 classes')),
    ('negative_label', 'raw-matrix', None, '1 2 -1\n',
     err('{path}:1: negative label -1')),
    ('too_few_cells', 'delimited-text', None, '2,2\n0\n',
     err('{path}:2: need at least one feature and a label')),
    ('one_column_raw', 'raw-matrix', None, '3\n4\n',
     err('{path}:1: need at least one feature and a label')),
    ('zero_dims_header', 'delimited-text', None, '0,2\n1\n',
     err('{path}:2: need at least one feature and a label')),
    ('empty_file', 'delimited-text', None, '',
     ok([], (0, 0), [], 0)),
    ('empty_file_raw_given_count', 'raw-matrix', 3, '',
     ok([], (0, 0), [], 3)),
    ('header_only', 'delimited-text', None, '3,4\n',
     ok([], (0, 3), [], 4)),
    ('underscore_feature', 'delimited-text', None, '2,2\n1_0,2,1\n',
     ok([[10.0, 2.0]], (1, 2), [1], 2)),
    ('underscore_label', 'raw-matrix', None, '1 2 1_0\n',
     ok([[1.0, 2.0]], (1, 2), [10], 11)),
    ('arabic_indic_digit_feature', 'delimited-text', None, '2,2\n١,2,1\n',
     ok([[1.0, 2.0]], (1, 2), [1], 2)),
    ('arabic_indic_digit_label', 'raw-matrix', None, '1 2 ١\n',
     ok([[1.0, 2.0]], (1, 2), [1], 2)),
    ('float_label', 'delimited-text', None, '2,2\n1,2,1.0\n',
     err("{path}:2: unparseable value: invalid literal for int() with base 10: '1.0'")),
    ('hash_inside_a_cell', 'delimited-text', None, '2,2\n1,2#3,0\n',
     err("{path}:2: unparseable value: could not convert string to float: '2#3'")),
    ('hash_comment_after_label', 'raw-matrix', None, '1 2 0 # note\n',
     err("{path}:1: unparseable value: could not convert string to float: '#'")),
    ('blank_line_mid_file', 'delimited-text', None, '2,2\n1,2,0\n\n3,4,1\n',
     ok([[1.0, 2.0], [3.0, 4.0]], (2, 2), [0, 1], 2)),
    ('whitespace_line_mid_file', 'delimited-text', None, '2,2\n1,2,0\n \t \n3,4,1\n',
     ok([[1.0, 2.0], [3.0, 4.0]], (2, 2), [0, 1], 2)),
    ('fault_after_blank_line', 'delimited-text', None, '2,2\n1,2,0\n\n3,x,1\n',
     err("{path}:4: unparseable value: could not convert string to float: 'x'")),
    ('label_out_of_range_after_blank_line', 'delimited-text', None, '2,2\n1,2,0\n\n3,4,2\n',
     err('{path}:4: label 2 out of range for 2 classes')),
    ('header_after_blank_line', 'delimited-text', None, '\n2,2,9\n1,2,0\n',
     err("{path}:2: expected header '<dims>,<classes>', got '2,2,9'")),
    ('non_integer_header_after_blank_line', 'delimited-text', None, '\n \ntwo,2\n1,2,0\n',
     err("{path}:3: non-integer header field: invalid literal for int() with base 10: 'two'")),
    ('feature_count_after_blank_header', 'delimited-text', None, '\n2,2\n1,2,3,0\n',
     err('{path}:3: expected 2 features, got 3')),
    ('label_beyond_int64', 'raw-matrix', None, '1 2 99999999999999999999\n',
     err('{path}:1: label 99999999999999999999 beyond int64')),
    ('label_beyond_int64_checking_loop', 'raw-matrix', None,
     '1 2 0\n\n1_0 2 -99999999999999999999\n',
     err('{path}:3: label -99999999999999999999 beyond int64')),
    ('label_at_int64_limits', 'raw-matrix', 9223372036854775807,
     '1 2 9223372036854775806\n3 4 -9223372036854775808\n',
     err('{path}:2: negative label -9223372036854775808')),
    ('negative_label_after_blank_line', 'raw-matrix', None, '1 2 0\n\n3 4 -2\n1 2 -5\n',
     err('{path}:3: negative label -2')),
    ('negative_label_checking_loop', 'delimited-text', None, '2,3\n1_0,2,0\n3,4,-1\n',
     err('{path}:3: negative label -1')),
    ('blank_lines_only', 'delimited-text', None, '\n \n\n',
     ok([], (0, 0), [], 0)),
    ('crlf_endings', 'delimited-text', None, '2,2\r\n1,2,0\r\n3,4,1\r\n',
     ok([[1.0, 2.0], [3.0, 4.0]], (2, 2), [0, 1], 2)),
    ('cr_endings', 'raw-matrix', None, '1 2 0\r3 4 1\r',
     ok([[1.0, 2.0], [3.0, 4.0]], (2, 2), [0, 1], 2)),
    ('padded_cells', 'delimited-text', None, '2,2\n 1 ,\t2\t, 0 \n  3,4 ,1\n',
     ok([[1.0, 2.0], [3.0, 4.0]], (2, 2), [0, 1], 2)),
    ('padded_raw_cells', 'raw-matrix', None, '  1\t2   0  \n3 4 1\t\n',
     ok([[1.0, 2.0], [3.0, 4.0]], (2, 2), [0, 1], 2)),
    ('unicode_space_padding', 'delimited-text', None, '2,2\n\xa01,2\u3000,0\n',
     ok([[1.0, 2.0]], (1, 2), [0], 2)),
    ('file_separator_padding', 'delimited-text', None, '2,2\n\x1c1,2,0\n',
     err("{path}:2: unparseable value: could not convert string to float: '\\x1c1'")),
    ('trailing_comma', 'delimited-text', None, '2,2\n1,2,0,\n',
     err("{path}:2: unparseable value: invalid literal for int() with base 10: ''")),
    ('empty_cell', 'delimited-text', None, '2,2\n1,,0\n',
     err("{path}:2: unparseable value: could not convert string to float: ''")),
    ('extreme_values', 'raw-matrix', None, '-0.0 5e-324 1e308 -1e308 2.2250738585072014e-308 0\n',
     ok([[-0.0, 5e-324, 1e+308, -1e+308, 2.2250738585072014e-308]], (1, 5), [0], 1)),
    ('signs_and_exponents', 'delimited-text', None, '3,2\n+1.5,-.25,1E-3,1\n',
     ok([[1.5, -0.25, 0.001]], (1, 3), [1], 2)),
    ('nan_feature', 'delimited-text', None, '2,2\nnan,2,0\n',
     err('inputs contains NaN or inf')),
    ('overflow_to_inf', 'raw-matrix', None, '1e400 2 0\n',
     err('inputs contains NaN or inf')),
]


class TestTabularParity:
    @pytest.mark.parametrize("name, fmt, class_count, text, outcome", PARITY,
                             ids=[row[0] for row in PARITY])
    def test_same_dataset_or_error(self, tmp_path, name, fmt, class_count, text, outcome):
        path = tmp_path / "case.txt"
        path.write_bytes(text.encode("utf-8"))
        if outcome[0] == "err":
            with pytest.raises(ValueError) as info:
                load_tabular(str(path), fmt, class_count)
            assert str(info.value) == outcome[1].format(path=path)
            return
        _, inputs, labels, count = outcome
        loaded = load_tabular(str(path), fmt, class_count)
        assert loaded.inputs.shape == inputs.shape
        assert loaded.inputs.tobytes() == inputs.tobytes()
        assert loaded.inputs.flags.c_contiguous
        assert loaded.labels.tolist() == labels
        assert loaded.class_count == count


FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def datasets(draw):
    rows = draw(st.integers(1, 6))
    cols = draw(st.integers(1, 5))
    inputs = draw(hnp.arrays(np.float64, (rows, cols), elements=FINITE))
    classes = draw(st.integers(1, 4))
    labels = draw(st.lists(st.integers(0, classes - 1), min_size=rows, max_size=rows))
    return Dataset(inputs, np.array(labels), classes)


EXTREMES = Dataset(np.array([[-0.0, 5e-324, 1e308], [-1e308, 2.2250738585072014e-308, 0.0]]),
                   np.array([0, 1]), 2)


class TestTabularRoundTrip:
    @given(datasets(), st.sampled_from(["delimited-text", "raw-matrix"]))
    @settings(max_examples=60, deadline=None)
    @example(EXTREMES, "delimited-text")
    @example(EXTREMES, "raw-matrix")
    def test_bit_exact(self, tmp_path_factory, dataset, fmt):
        path = str(tmp_path_factory.mktemp("round") / "data.txt")
        save_tabular(dataset, path, fmt)
        loaded = load_tabular(path, fmt, dataset.class_count)
        assert loaded.inputs.tobytes() == dataset.inputs.tobytes()
        assert np.array_equal(loaded.labels, dataset.labels)
        # Each row is written as the 17-digit f-string rendering of its values.
        sep = "," if fmt == "delimited-text" else " "
        header = f"{dataset.inputs.shape[1]},{dataset.class_count}\n" if sep == "," else ""
        lines = [sep.join([f"{v:.17g}" for v in row] + [str(int(label))]) + "\n"
                 for row, label in zip(dataset.inputs, dataset.labels)]
        with open(path, encoding="utf-8") as fh:
            assert fh.read() == header + "".join(lines)


class TestGenDataBytes:
    # sha256 of what gen-data and save_tabular wrote for this spec before rows
    # were written with one precompiled format.
    SPEC = {"classes": 3, "replication": 1, "noise_dims": 2, "n_train": 3, "n_test": 2,
            "seed": 11}
    DELIMITED = {
        "train.csv": "a7f144da1e299e763ed10681c93a07956b20a5655a59a493edc4a9d012a56b54",
        "test.csv": "856cde4b65175bff57fb0dfc64dbe3960ef9d995b7e34742a72a7932cef33fa6",
    }
    RAW = {
        "train": "44fe00fb6f26e1e109c7e81f0988401ebed63fe344203fbf424789ac91f1be3c",
        "test": "65a625e627351ca258ae6b70612a44e57e21c43270ea759414df3f4ded8e79bf",
    }

    def test_gen_data_files(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"data": {"planted": self.SPEC}}))
        assert main(["gen-data", "--config", str(config), "--out", str(tmp_path)]) == 0
        for name, digest in self.DELIMITED.items():
            assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, \
                f"{name}, {PINNED}"

    def test_raw_matrix_files(self, tmp_path):
        train, test = generate_planted(PlantedSpec(**self.SPEC))
        for name, dataset in (("train", train), ("test", test)):
            path = tmp_path / name
            save_tabular(dataset, str(path), "raw-matrix")
            assert hashlib.sha256(path.read_bytes()).hexdigest() == self.RAW[name], \
                f"{name}, {PINNED}"
