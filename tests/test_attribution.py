"""Tests for attribution vectors, the class similarity matrix, CAS, and the
instance-wise variant."""

import tracemalloc

import numpy as np
import pytest

from crossfeat.attack import AttackConfig, pgd
from crossfeat.attribution import (cas, class_attribution_matrix,
                                   instance_cas_matrix, load_matrix, save_matrix)
from crossfeat.data import Dataset
from crossfeat.model import Affine, Classifier, _row_blocks, features, forward
from crossfeat.numerics import RngStream, unit_rows

INV_SQRT2 = 0.7071067811865476


def linear(head_rows):
    return Classifier([], Affine(np.array(head_rows, dtype=float)))


def dataset(inputs, labels, k):
    return Dataset(np.array(inputs, dtype=float), np.array(labels), k)


def random_setup(seed=0, k=3, dim=5, n=12):
    gen = RngStream(seed, stream_id=60).generator
    model = Classifier.create(dim, (6,), k, RngStream(seed, stream_id=61))
    x = gen.normal(size=(n, dim))
    y = np.arange(n) % k
    return model, Dataset(x, y, k)


class TestAttributionVector:
    """The attribution vector ``features(model, x) * model.head.weights[i]``
    that every attribution measure is built from."""

    def test_elementwise_product_with_head_row(self):
        model = linear([[1.0, 2.0], [0.5, -1.0]])
        got = features(model, np.array([[3.0, -2.0]])) * model.head.weights[0]
        assert np.allclose(got, [[3.0, -4.0]], atol=1e-15)

    def test_entries_sum_to_logit(self):
        model, data = random_setup()
        logits = forward(model, data.inputs)
        for class_i in range(model.class_count):
            sums = (features(model, data.inputs) * model.head.weights[class_i]).sum(axis=1)
            assert np.allclose(sums, logits[:, class_i], atol=1e-10)


class TestClassAttributionMatrix:
    def test_orthogonal_class_features_give_zero_similarity(self):
        model = linear([[1.0, 0.0], [0.0, 1.0]])
        data = dataset([[1.0, 0.0], [0.0, 1.0]], [0, 1], 2)
        matrix = class_attribution_matrix(model, data)
        assert np.allclose(matrix, np.eye(2), atol=1e-15)
        assert cas(matrix) == 0.0

    def test_fully_shared_features_give_unit_similarity(self):
        model = linear([[1.0, 1.0], [1.0, 1.0]])
        data = dataset([[1.0, 1.0], [1.0, 1.0]], [0, 1], 2)
        matrix = class_attribution_matrix(model, data)
        assert np.allclose(matrix, np.ones((2, 2)), atol=1e-15)
        assert cas(matrix) == pytest.approx(2.0, abs=1e-15)

    def test_frozen_two_class_cosine(self):
        # A_0 = (1, 0), A_1 = (1, 1): cosine 1/sqrt(2).
        model = linear([[1.0, 0.0], [1.0, 1.0]])
        data = dataset([[1.0, 1.0], [1.0, 1.0]], [0, 1], 2)
        matrix = class_attribution_matrix(model, data)
        assert matrix[0, 1] == pytest.approx(INV_SQRT2, abs=1e-15)
        assert matrix[1, 0] == matrix[0, 1]

    def test_zero_mean_class_gets_zero_diagonal(self):
        model = linear([[0.0, 0.0], [0.0, 1.0]])
        data = dataset([[1.0, 1.0], [1.0, 1.0]], [0, 1], 2)
        matrix = class_attribution_matrix(model, data)
        assert matrix[0, 0] == 0.0
        assert matrix[1, 1] == 1.0
        assert matrix[0, 1] == 0.0  # zero-vector cosine convention

    def test_symmetric_and_bounded(self):
        model, data = random_setup(seed=3)
        matrix = class_attribution_matrix(model, data)
        assert np.array_equal(matrix, matrix.T)
        assert matrix.max() <= 1.0 and matrix.min() >= -1.0

    def test_missing_class_raises(self):
        model = linear([[1.0, 0.0], [0.0, 1.0]])
        data = dataset([[1.0, 0.0]], [0], 2)
        with pytest.raises(ValueError, match="missing samples"):
            class_attribution_matrix(model, data)

    def test_adversarial_inputs_shape_checked(self):
        model, data = random_setup(seed=5)
        with pytest.raises(ValueError, match="shape"):
            class_attribution_matrix(model, data, np.zeros((1, 5)))

    def test_attack_changes_the_matrix(self):
        model, data = random_setup(seed=6)
        clean = class_attribution_matrix(model, data)
        points = pgd(model, data.inputs, data.labels, AttackConfig(epsilon=0.5))
        attacked = class_attribution_matrix(model, data, points)
        assert not np.allclose(clean, attacked)

    def test_zero_epsilon_attack_equals_clean(self):
        model, data = random_setup(seed=7)
        clean = class_attribution_matrix(model, data)
        points = pgd(model, data.inputs, data.labels, AttackConfig(epsilon=0.0))
        zero = class_attribution_matrix(model, data, points)
        assert np.array_equal(clean, zero)


class TestEquivariances:
    def permuted_setup(self, perm):
        model, data = random_setup(seed=9, k=3)
        permuted_head = np.empty_like(model.head.weights)
        for old, new in enumerate(perm):
            permuted_head[new] = model.head.weights[old]
        permuted_model = Classifier(
            [Affine(l.weights.copy(), None if l.bias is None else l.bias.copy())
             for l in model.hidden],
            Affine(permuted_head))
        permuted_data = Dataset(data.inputs.copy(),
                                np.array([perm[y] for y in data.labels]), 3)
        return model, data, permuted_model, permuted_data

    def test_class_matrix_is_permutation_equivariant(self):
        perm = [2, 0, 1]
        model, data, pmodel, pdata = self.permuted_setup(perm)
        base = class_attribution_matrix(model, data)
        moved = class_attribution_matrix(pmodel, pdata)
        for i in range(3):
            for j in range(3):
                assert moved[perm[i], perm[j]] == pytest.approx(base[i, j],
                                                                abs=1e-12)

    def test_instance_matrix_is_permutation_equivariant(self):
        perm = [1, 2, 0]
        model, data, pmodel, pdata = self.permuted_setup(perm)
        base, _ = instance_cas_matrix(model, data)
        moved, _ = instance_cas_matrix(pmodel, pdata)
        for i in range(3):
            for j in range(3):
                assert moved[perm[i], perm[j]] == pytest.approx(base[i, j],
                                                                abs=1e-12)

    def test_scaling_a_head_row_leaves_cosines_unchanged(self):
        model, data = random_setup(seed=10, k=3)
        base = class_attribution_matrix(model, data)
        scaled_model = model.copy()
        scaled_model.head.weights[1] *= 7.5
        scaled = class_attribution_matrix(scaled_model, data)
        assert np.allclose(scaled, base, atol=1e-12)


class TestCas:
    def test_clips_negative_entries(self):
        c = np.array([[1.0, 0.5, -0.3], [0.5, 1.0, 0.2], [-0.3, 0.2, 1.0]])
        assert cas(c) == pytest.approx(1.4, abs=1e-15)

    def test_upper_bound_is_ordered_pair_count(self):
        assert cas(np.ones((4, 4))) == pytest.approx(12.0, abs=1e-15)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            cas(np.ones((2, 3)))


class TestInstanceCas:
    def test_singleton_classes_reduce_to_plain_cosines(self):
        model = linear([[1.0, 0.0], [1.0, 1.0]])
        data = dataset([[1.0, 1.0], [1.0, 1.0]], [0, 1], 2)
        matrix, score = instance_cas_matrix(model, data)
        assert matrix[0, 1] == pytest.approx(INV_SQRT2, abs=1e-15)
        assert matrix[1, 0] == pytest.approx(INV_SQRT2, abs=1e-15)
        assert score == pytest.approx(2.0 * INV_SQRT2, abs=1e-14)

    def test_duplicating_a_counterpart_sample_changes_nothing(self):
        model = linear([[1.0, 0.0], [1.0, 1.0]])
        base = dataset([[1.0, 1.0], [1.0, 2.0]], [0, 1], 2)
        extended = dataset([[1.0, 1.0], [1.0, 2.0], [1.0, 2.0]], [0, 1, 1], 2)
        a, _ = instance_cas_matrix(model, base)
        b, _ = instance_cas_matrix(model, extended)
        assert b[0, 1] == pytest.approx(a[0, 1], abs=1e-15)

    def test_matches_brute_force_on_toy_problem(self):
        model, data = random_setup(seed=11, k=3, dim=4, n=15)
        matrix, score = instance_cas_matrix(model, data)
        feats = features(model, data.inputs)
        expected = np.zeros((3, 3))
        for i in range(3):
            rows_i = data.class_indices(i)
            for j in range(3):
                rows_j = data.class_indices(j)
                total = 0.0
                for a in rows_i:
                    va = feats[a] * model.head.weights[i]
                    best = -np.inf
                    for b in rows_j:
                        vb = feats[b] * model.head.weights[j]
                        denom = np.linalg.norm(va) * np.linalg.norm(vb)
                        best = max(best, float(va @ vb) / denom)
                    total += best
                expected[i, j] = total / len(rows_i)
        assert np.allclose(matrix, expected, atol=1e-12)
        assert score == pytest.approx(cas(expected), abs=1e-12)

    def test_row_blocks_match_the_full_cosine_matrix(self):
        # Class sizes that are not multiples of the 256-row block.
        gen = RngStream(7, stream_id=90).generator
        sizes = (700, 300, 257)
        labels = np.concatenate([np.full(n, c) for c, n in enumerate(sizes)])
        gen.shuffle(labels)
        data = Dataset(gen.normal(size=(len(labels), 10)), labels, 3)
        model = Classifier.create(10, (32,), 3, RngStream(7, stream_id=91))
        matrix, score = instance_cas_matrix(model, data)
        feats = features(model, data.inputs)
        units = [unit_rows(feats[data.class_indices(c)] * model.head.weights[c])
                 for c in range(3)]
        expected = np.array([[(ui @ uj.T).max(axis=1).mean() for uj in units]
                             for ui in units])
        assert np.array_equal(matrix, expected)
        assert score == cas(expected)

    def test_reused_buffer_matches_a_fresh_product_per_block(self):
        # Classes below, at, just past and well past the 256-row block; the
        # 256 x 32 @ 32 x 700 products are large enough for OpenBLAS to thread.
        sizes = (1, 255, 256, 257, 700)
        k = len(sizes)
        gen = RngStream(5, stream_id=90).generator
        labels = np.repeat(np.arange(k), sizes)
        gen.shuffle(labels)
        data = Dataset(gen.normal(size=(len(labels), 10)), labels, k)
        model = Classifier.create(10, (32,), k, RngStream(5, stream_id=91))
        matrix, score = instance_cas_matrix(model, data)
        feats = features(model, data.inputs)
        units = [unit_rows(feats[data.class_indices(c)] * model.head.weights[c])
                 for c in range(k)]
        # One newly allocated product per block, then the clip.
        expected = np.array([[np.clip(np.concatenate([(ui[rows] @ uj.T).max(axis=1)
                                                      for rows in _row_blocks(len(ui))]),
                                      -1.0, 1.0).mean()
                              for uj in units] for ui in units])
        assert np.array_equal(matrix, expected)
        assert score == cas(expected)

    def test_no_entry_exceeds_one(self):
        # Unit rows can meet at a cosine one ulp above 1: unclipped, entry
        # [0, 0] here read 1.0000000000000002.
        model = Classifier.create(6, (8,), 3, RngStream(0))
        data = Dataset(np.random.default_rng(0).standard_normal((3, 6)), [0, 1, 2], 3)
        matrix, _ = instance_cas_matrix(model, data)
        assert matrix[0, 0] == 1.0
        assert np.all((matrix >= -1.0) & (matrix <= 1.0))

    def test_memory_stays_below_one_full_cosine_matrix(self):
        # One unblocked 2,000 x 2,000 cosine matrix alone is 30.5 MiB.
        k, per_class = 3, 2000
        gen = RngStream(3, stream_id=90).generator
        data = Dataset(gen.normal(size=(k * per_class, 36)),
                       np.repeat(np.arange(k), per_class), k)
        model = Classifier.create(36, (32, 32), k, RngStream(3, stream_id=91))
        tracemalloc.start()
        try:
            instance_cas_matrix(model, data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2 ** 20

    def test_matrix_is_generally_asymmetric(self):
        model = linear([[1.0, 0.0], [1.0, 1.0]])
        data = dataset([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], [0, 0, 1], 2)
        matrix, _ = instance_cas_matrix(model, data)
        assert matrix[0, 1] != matrix[1, 0]


class TestSaveLoadMatrix:
    def test_round_trip_exact(self, tmp_path):
        model, data = random_setup(seed=13)
        matrix = class_attribution_matrix(model, data)
        path = str(tmp_path / "matrix.txt")
        save_matrix(matrix, path)
        loaded, _ = load_matrix(path)
        assert np.array_equal(loaded, matrix)

    def test_default_labels(self, tmp_path):
        path = str(tmp_path / "matrix.txt")
        save_matrix(np.eye(3), path)
        _, labels = load_matrix(path)
        assert labels == [0, 1, 2]

    def test_error_paths(self, tmp_path):
        empty = tmp_path / "empty.txt"
        empty.write_text("")
        with pytest.raises(ValueError, match="empty"):
            load_matrix(str(empty))
        bad_count = tmp_path / "bad1.txt"
        bad_count.write_text("x\n0 1\n1 0\n")
        with pytest.raises(ValueError, match="class count"):
            load_matrix(str(bad_count))
        short = tmp_path / "bad2.txt"
        short.write_text("2\n0 1\n1 0\n")
        with pytest.raises(ValueError, match="expected 4 lines"):
            load_matrix(str(short))
        bad_labels = tmp_path / "bad3.txt"
        bad_labels.write_text("2\n0\n1 0\n0 1\n")
        with pytest.raises(ValueError, match="class labels"):
            load_matrix(str(bad_labels))
        ragged = tmp_path / "bad4.txt"
        ragged.write_text("2\n0 1\n1 0\n0\n")
        with pytest.raises(ValueError, match="expected 2 entries"):
            load_matrix(str(ragged))

    def test_parse_errors_name_the_file_and_line(self, tmp_path):
        # Blank lines still count, so the line number is the editor's.
        bad_label = tmp_path / "bad_label.txt"
        bad_label.write_text("2\n\n0 x\n1 0\n0 1\n")
        with pytest.raises(ValueError) as info:
            load_matrix(str(bad_label))
        assert str(info.value).startswith(f"{bad_label}:3: class labels: ")
        assert "'x'" in str(info.value)
        bad_entry = tmp_path / "bad_entry.txt"
        bad_entry.write_text("2\n0 1\n1 0\n0 oops\n")
        with pytest.raises(ValueError) as info:
            load_matrix(str(bad_entry))
        assert str(info.value).startswith(f"{bad_entry}:4: entries: ")
        assert "'oops'" in str(info.value)
        negative = tmp_path / "negative.txt"
        negative.write_text("-1\n")
        with pytest.raises(ValueError, match=":1: negative class count -1"):
            load_matrix(str(negative))
