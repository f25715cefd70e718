"""Tests for the MLP forward pass, hand-written gradients, SGD, checkpoints."""

import hashlib
import json

import numpy as np
import pytest

import crossfeat.model
from blas_kernel import PINNED
from crossfeat.model import (Affine, Classifier, CrossEntropy, Distillation,
                             _input_gradient, backward, features, forward,
                             load_checkpoint, log_softmax, save_checkpoint, sgd_step)
from crossfeat.numerics import RngStream


def tiny_model(seed=0, input_dim=3, widths=(4,), classes=3, hidden_bias=True,
               head_bias=False):
    return Classifier.create(input_dim, widths, classes,
                             RngStream(seed, stream_id=90),
                             hidden_bias=hidden_bias, head_bias=head_bias)


def tiny_batch(model, seed=1, n=5):
    gen = RngStream(seed, stream_id=91).generator
    x = gen.normal(size=(n, model.input_dim))
    y = gen.integers(0, model.class_count, size=n)
    return x, y


class TestAffine:
    def test_apply_matches_hand_computation(self):
        layer = Affine(np.array([[1.0, 2.0], [0.0, -1.0]]), np.array([10.0, 0.5]))
        out = layer.apply(np.array([[3.0, -1.0]]))
        # [3*1 + (-1)*2 + 10, 3*0 + (-1)*(-1) + 0.5] = [11, 1.5]
        assert np.allclose(out, [[11.0, 1.5]])

    def test_rejects_non_2d_weights(self):
        with pytest.raises(ValueError, match="2-D"):
            Affine(np.ones(3))

    def test_rejects_mismatched_bias(self):
        with pytest.raises(ValueError, match="bias shape"):
            Affine(np.ones((2, 3)), np.ones(3))


class TestClassifierStructure:
    def test_layer_dimension_mismatch_raises(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            Classifier([Affine(np.ones((4, 3)))], Affine(np.ones((2, 5))))

    def test_create_validates_arguments(self):
        rng = RngStream(0)
        with pytest.raises(ValueError, match="input_dim"):
            Classifier.create(0, (4,), 3, rng)
        with pytest.raises(ValueError, match="classes"):
            Classifier.create(3, (4,), 1, rng)
        with pytest.raises(ValueError, match="widths"):
            Classifier.create(3, (0,), 3, rng)

    def test_shape_properties(self):
        model = tiny_model(input_dim=7, widths=(5, 4), classes=3)
        assert model.input_dim == 7
        assert model.head.weights.shape[1] == 4
        assert model.class_count == 3

    def test_linear_model_features_are_identity(self):
        model = Classifier([], Affine(np.array([[1.0, 0.0], [0.0, 1.0]])))
        x = np.array([[3.0, -1.0]])
        assert np.array_equal(features(model, x), x)
        assert np.array_equal(forward(model, x), x)

    def test_param_items_order_and_liveness(self):
        model = tiny_model(widths=(4, 2))
        names = [name for name, _ in model.param_items()]
        assert names == ["hidden.0.weights", "hidden.0.bias",
                         "hidden.1.weights", "hidden.1.bias", "head.weights"]
        # The arrays are the live parameters, not copies.
        for name, arr in model.param_items():
            arr += 1.0
        assert np.all(model.head.weights >= model.head.weights.min())

    def test_copy_is_deep(self):
        model = tiny_model()
        clone = model.copy()
        clone.head.weights[0, 0] += 5.0
        assert model.head.weights[0, 0] != clone.head.weights[0, 0]

    def test_create_hidden_bias_flag(self):
        model = tiny_model(hidden_bias=False)
        assert model.hidden[0].bias is None
        assert model.architecture()["hidden_bias"] is False


class TestForward:
    def test_relu_network_hand_example(self):
        # hidden: identity weights, bias (0, -2); head rows (1,1) and (1,-1).
        hidden = Affine(np.eye(2), np.array([0.0, -2.0]))
        head = Affine(np.array([[1.0, 1.0], [1.0, -1.0]]))
        model = Classifier([hidden], head)
        x = np.array([[3.0, 1.0]])
        # pre-activation (3, -1) -> ReLU (3, 0) -> logits (3, 3).
        assert np.array_equal(features(model, x), [[3.0, 0.0]])
        assert np.array_equal(forward(model, x), [[3.0, 3.0]])

    def test_features_match_head_input(self):
        model = tiny_model(widths=(6, 4))
        x, _ = tiny_batch(model)
        h = features(model, x)
        assert h.shape == (x.shape[0], model.head.weights.shape[1])
        assert np.allclose(forward(model, x), model.head.apply(h))

    def test_rejects_wrong_input_rank_and_dim(self):
        model = tiny_model(input_dim=3)
        with pytest.raises(ValueError, match="2-D"):
            forward(model, np.ones(3))
        with pytest.raises(ValueError, match="does not match"):
            forward(model, np.ones((2, 4)))

    @pytest.mark.parametrize("fn", [forward, features])
    def test_output_does_not_depend_on_block_size(self, monkeypatch, fn):
        model = tiny_model(widths=(16, 16))
        x, _ = tiny_batch(model, n=600)
        outs = []
        for rows in (64, 256):
            monkeypatch.setattr(crossfeat.model, "_BLOCK_ROWS", rows)
            outs.append(fn(model, x))
        assert outs[0].shape[0] == 600
        assert np.array_equal(outs[0], outs[1])

    def test_empty_batch_keeps_its_shape(self):
        model = tiny_model(widths=(6, 4))
        empty = np.zeros((0, model.input_dim))
        assert forward(model, empty).shape == (0, model.class_count)
        assert features(model, empty).shape == (0, model.head.weights.shape[1])


class TestSoftmax:
    def test_rows_sum_to_one(self):
        gen = RngStream(2, stream_id=92).generator
        logits = gen.normal(size=(8, 5)) * 3.0
        assert np.allclose(np.exp(log_softmax(logits)).sum(axis=1), 1.0, atol=1e-12)

    def test_stable_at_extreme_logits(self):
        logits = np.array([[1000.0, 0.0, -1000.0]])
        lp = log_softmax(logits)
        assert np.all(np.isfinite(lp))
        p = np.exp(log_softmax(logits))
        assert np.isclose(p.sum(), 1.0)
        assert p[0, 0] == pytest.approx(1.0)

    def test_shift_invariance(self):
        logits = np.array([[0.3, -1.2, 2.0]])
        shifted = logits + 123.456
        assert np.allclose(log_softmax(logits), log_softmax(shifted), atol=1e-12)

    @pytest.mark.parametrize("classes", range(2, 13))
    def test_same_bits_as_the_axis_reductions(self, classes):
        # log_softmax walks short rows column by column; it must give what
        # numpy's max(axis=1) and sum(axis=1) give, ties and signed zeros
        # included.
        gen = RngStream(classes, stream_id=94).generator
        ties = gen.choice([0.0, -0.0, 1.0, -1.0, 700.0, -700.0], size=(64, classes))
        for logits in (gen.normal(size=(256, classes)) * 5.0, ties,
                       gen.uniform(-700.0, 700.0, size=(37, classes))):
            z = logits - logits.max(axis=1, keepdims=True)
            want = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
            assert log_softmax(logits).tobytes() == want.tobytes()


def numeric_grad(loss_fn, array, h=1e-5):
    """Central finite differences of a scalar function w.r.t. a live array."""
    grad = np.zeros_like(array)
    it = np.nditer(array, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        orig = array[idx]
        array[idx] = orig + h
        up = loss_fn()
        array[idx] = orig - h
        down = loss_fn()
        array[idx] = orig
        grad[idx] = (up - down) / (2.0 * h)
        it.iternext()
    return grad


def jitter(model, seed):
    """Shift parameters off their init so no ReLU input sits exactly at zero.

    Freshly created models have all-zero biases, so a sample whose entire
    previous layer is dead lands the next pre-activation exactly on the kink,
    where central finite differences disagree with the one-sided derivative.
    """
    gen = RngStream(seed, stream_id=93).generator
    for _, arr in model.param_items():
        arr += gen.normal(0.0, 0.05, size=arr.shape)
    return model


def assert_grads_close(analytic, numeric, context):
    tol = np.maximum(1e-4 * np.abs(numeric), 1e-6)
    gap = np.abs(analytic - numeric)
    assert np.all(gap <= tol), (
        f"{context}: worst gap {gap.max():.3e} exceeds tolerance "
        f"{tol.flat[np.argmax(gap)]:.3e}")


class TestGradients:
    def loss_specs(self, model):
        teacher = jitter(tiny_model(seed=17, input_dim=model.input_dim,
                                    widths=(4,), classes=model.class_count), 18)
        return [
            CrossEntropy(),
            CrossEntropy(beta=0.2),
            Distillation(teacher, temperature=2.0, mix=1.0),
            Distillation(teacher, temperature=2.0, mix=0.5),
        ]

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_parameter_gradients_match_finite_differences(self, seed):
        model = jitter(tiny_model(seed=seed, widths=(4, 3)), seed + 30)
        x, y = tiny_batch(model, seed=seed + 10)
        for spec in self.loss_specs(model):
            bundle = backward(model, x, y, spec)

            def loss_now():
                return backward(model, x, y, spec, include_params=False).loss

            for name, param in model.param_items():
                numeric = numeric_grad(loss_now, param)
                assert_grads_close(bundle.params[name], numeric,
                                   f"{type(spec).__name__} d/d {name}")

    @pytest.mark.parametrize("seed", [3, 4])
    def test_input_gradients_match_finite_differences(self, seed):
        model = jitter(tiny_model(seed=seed, widths=(5,)), seed + 40)
        x, y = tiny_batch(model, seed=seed + 20, n=4)
        for spec in self.loss_specs(model):
            bundle = backward(model, x, y, spec, include_params=False)
            numeric = numeric_grad(
                lambda: backward(model, x, y, spec, include_params=False).loss, x)
            assert_grads_close(bundle.inputs, numeric,
                               f"{type(spec).__name__} d/d inputs")

    def test_include_params_false_skips_param_grads(self):
        model = tiny_model()
        x, y = tiny_batch(model)
        bundle = backward(model, x, y, include_params=False)
        assert bundle.params is None
        assert bundle.inputs.shape == x.shape

    def test_cross_entropy_loss_matches_log_softmax(self):
        model = tiny_model()
        x, y = tiny_batch(model)
        bundle = backward(model, x, y, CrossEntropy())
        lp = log_softmax(forward(model, x))
        expected = -lp[np.arange(len(y)), y].mean()
        assert bundle.loss == pytest.approx(expected, abs=1e-12)

    def test_label_validation(self):
        model = tiny_model(classes=3)
        x, _ = tiny_batch(model)
        with pytest.raises(ValueError, match="shape"):
            backward(model, x, np.zeros(len(x) + 1, dtype=int))
        with pytest.raises(ValueError, match="integers"):
            backward(model, x, np.zeros(len(x)))
        with pytest.raises(ValueError, match="lie in"):
            backward(model, x, np.full(len(x), 3))


def sha256(*arrays):
    digest = hashlib.sha256()
    for array in arrays:
        digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


class TestInputGradientKernel:
    """The PGD kernel is backward's input gradient, bit for bit."""

    @pytest.mark.parametrize("rows", [1, 37, 128, 208, 256])
    @pytest.mark.parametrize("head_bias", [False, True])
    @pytest.mark.parametrize("widths", [(), (8,), (32, 32)])
    def test_equals_backward_inputs(self, widths, head_bias, rows):
        model = tiny_model(input_dim=36, widths=widths, classes=4, head_bias=head_bias)
        jitter(model, 3)
        x, y = tiny_batch(model, n=rows)
        want = backward(model, x, y, CrossEntropy(), include_params=False).inputs
        got = _input_gradient(model, x, np.eye(model.class_count)[y])
        assert got.tobytes() == want.tobytes()

    def test_runs_the_module_forward_pass(self, monkeypatch):
        # A spy on crossfeat.model._forward_cached sees every kernel pass.
        seen = []
        inner = crossfeat.model._forward_cached
        monkeypatch.setattr(crossfeat.model, "_forward_cached",
                            lambda model, x: seen.append(len(x)) or inner(model, x))
        model = tiny_model()
        x, y = tiny_batch(model, n=7)
        _input_gradient(model, x, np.eye(model.class_count)[y])
        assert seen == [7]


class TestLossEquivalences:
    def test_smoothed_cross_entropy_matches_recorded_bytes(self):
        # sha256 of what the separate label-smoothing loss gave for beta = 0.2
        # before it became CrossEntropy's beta field.
        model = tiny_model(widths=(4, 3), head_bias=True)
        x, y = tiny_batch(model)
        bundle = backward(model, x, y, CrossEntropy(beta=0.2))
        assert sha256(np.float64(bundle.loss)) == (
            "2c313f3d1957276214800f41dec5be4275fe3691493e83b84555745d367ac2dd"), PINNED
        assert sha256(bundle.inputs) == (
            "7eb853a1370cd94ced2bb0e5d457568b5ce9c1b1588ca26330ddf771dab65e57"), PINNED
        assert sha256(*[bundle.params[name] for name, _ in model.param_items()]) == (
            "494de6ebd5dca953525d15ed5e50bc38ea542a8102a150c1be1ffd81c0a98a5c"), PINNED

    def test_distillation_mix_zero_equals_cross_entropy(self):
        model = tiny_model()
        teacher = tiny_model(seed=17)
        x, y = tiny_batch(model)
        ce = backward(model, x, y, CrossEntropy())
        mixed = backward(model, x, y, Distillation(teacher, temperature=2.0, mix=0.0))
        assert mixed.loss == pytest.approx(ce.loss, abs=1e-14)
        for name in ce.params:
            assert np.allclose(mixed.params[name], ce.params[name], atol=1e-14)

    def test_kl_to_self_is_zero(self):
        model = tiny_model()
        x, y = tiny_batch(model)
        bundle = backward(model, x, y, Distillation(model, temperature=3.0, mix=1.0))
        assert bundle.loss == pytest.approx(0.0, abs=1e-12)
        for grad in bundle.params.values():
            assert np.allclose(grad, 0.0, atol=1e-12)

    def test_spec_validation(self):
        teacher = tiny_model()
        with pytest.raises(ValueError, match=r"beta must lie in \[0, 1\), got 1.0"):
            CrossEntropy(beta=1.0)
        with pytest.raises(ValueError, match="beta"):
            CrossEntropy(beta=-0.1)
        with pytest.raises(ValueError, match="temperature"):
            Distillation(teacher, temperature=0.0, mix=1.0)
        with pytest.raises(ValueError, match="mix"):
            Distillation(teacher, mix=1.5)

    def test_teacher_class_count_mismatch_raises(self):
        model = tiny_model(classes=3)
        teacher = tiny_model(seed=17, classes=4)
        x, y = tiny_batch(model)
        with pytest.raises(ValueError, match="class counts"):
            backward(model, x, y, Distillation(teacher, mix=1.0))


class TestSgdStep:
    def test_plain_step_is_theta_minus_lr_grad(self):
        model = tiny_model()
        before = {name: arr.copy() for name, arr in model.param_items()}
        grads = {name: np.full_like(arr, 0.5) for name, arr in model.param_items()}
        sgd_step(model, grads, lr=0.1, momentum=0.0, weight_decay=0.0)
        for name, arr in model.param_items():
            assert np.allclose(arr, before[name] - 0.05, atol=1e-15)

    def test_two_momentum_steps_match_hand_unrolled_update(self):
        # With constant gradient g and no decay: v1 = g, v2 = 1.9 g, so after
        # two steps theta = theta0 - lr*g - lr*1.9*g = theta0 - 2.9*lr*g.
        model = tiny_model()
        before = {name: arr.copy() for name, arr in model.param_items()}
        grads = {name: np.full_like(arr, 2.0) for name, arr in model.param_items()}
        state = sgd_step(model, grads, lr=0.1, momentum=0.9, weight_decay=0.0)
        sgd_step(model, grads, lr=0.1, momentum=0.9, weight_decay=0.0, state=state)
        for name, arr in model.param_items():
            assert np.allclose(arr, before[name] - 2.9 * 0.1 * 2.0, atol=1e-12)

    def test_weight_decay_adds_scaled_parameter(self):
        model = tiny_model()
        before = {name: arr.copy() for name, arr in model.param_items()}
        grads = {name: np.zeros_like(arr) for name, arr in model.param_items()}
        sgd_step(model, grads, lr=0.1, momentum=0.0, weight_decay=0.01)
        for name, arr in model.param_items():
            assert np.allclose(arr, before[name] * (1.0 - 0.1 * 0.01), atol=1e-15)

    def test_missing_gradient_raises(self):
        model = tiny_model()
        with pytest.raises(KeyError, match="missing gradient"):
            sgd_step(model, {}, lr=0.1)

    def test_negative_lr_raises(self):
        model = tiny_model()
        grads = {name: np.zeros_like(arr) for name, arr in model.param_items()}
        with pytest.raises(ValueError, match="lr"):
            sgd_step(model, grads, lr=-0.1)

    def test_state_reuse_is_the_momentum_buffer(self):
        model = tiny_model()
        grads = {name: np.ones_like(arr) for name, arr in model.param_items()}
        state = sgd_step(model, grads, lr=0.0, momentum=0.9, weight_decay=0.0)
        assert list(state) == [name for name, _ in model.param_items()]
        assert np.allclose(state["head.weights"], 1.0)
        again = sgd_step(model, grads, lr=0.0, momentum=0.9, weight_decay=0.0, state=state)
        assert again is state
        assert np.allclose(state["head.weights"], 1.9)


class TestCheckpoints:
    def test_file_matches_recorded_bytes(self, tmp_path):
        # sha256 of the file save_checkpoint wrote for this model when it
        # first built the archive in memory.
        model = tiny_model(widths=(4, 3), head_bias=True)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, str(path), epoch=3, metrics={"test_robust_acc": 0.5})
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "a4b48acf66b1086e7c7b93b605d1ef40a4224c53d58c5796e75e588c44cd53b6"), PINNED
        assert not (tmp_path / "model.ckpt.tmp").exists()

    def test_round_trip_is_bit_exact(self, tmp_path):
        model = tiny_model(widths=(4, 3), head_bias=True)
        path = str(tmp_path / "model.npz")
        save_checkpoint(model, path, epoch=12, metrics={"test_robust_acc": 0.5})
        loaded, epoch, metrics = load_checkpoint(path)
        assert epoch == 12
        assert metrics == {"test_robust_acc": 0.5}
        assert loaded.architecture() == model.architecture()
        for (name_a, a), (name_b, b) in zip(model.param_items(),
                                            loaded.param_items()):
            assert name_a == name_b
            assert np.array_equal(a, b)

    def test_loaded_model_predicts_identically(self, tmp_path):
        model = tiny_model(widths=(6,))
        x, _ = tiny_batch(model)
        path = str(tmp_path / "model.npz")
        save_checkpoint(model, path)
        loaded, _, _ = load_checkpoint(path)
        assert np.array_equal(forward(model, x), forward(loaded, x))

    def test_missing_meta_rejected(self, tmp_path):
        path = str(tmp_path / "junk.npz")
        np.savez(path, weights=np.ones((2, 2)))
        with pytest.raises(ValueError, match="missing meta"):
            load_checkpoint(path)

    def test_unsupported_version_rejected(self, tmp_path):
        meta = {"format_version": 99, "architecture": {}, "epoch": 0, "metrics": {}}
        path = str(tmp_path / "future.npz")
        np.savez(path, meta=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8))
        with pytest.raises(ValueError, match="version"):
            load_checkpoint(path)
