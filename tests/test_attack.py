"""Tests for epsilon-ball projection, multi-step ascent, and the fast attack."""

from dataclasses import replace

import numpy as np
import pytest

import crossfeat.attack
import crossfeat.model
from crossfeat.attack import AttackConfig, fgsm, pgd, project
from crossfeat.model import _BLOCK_ROWS, Affine, Classifier, CrossEntropy, backward
from crossfeat.numerics import RngStream


def mlp(seed=0, input_dim=4, widths=(8,), classes=3):
    return Classifier.create(input_dim, widths, classes,
                             RngStream(seed, stream_id=80))


def batch(model, seed=1, n=6):
    gen = RngStream(seed, stream_id=81).generator
    x = gen.normal(size=(n, model.input_dim))
    y = gen.integers(0, model.class_count, size=n)
    return x, y


# Linear two-class model whose cross-entropy gradient direction is constant:
# d loss / d x is always a positive multiple of (w_1 - w_0), so the optimal
# linf perturbation for label 0 is the corner x + eps * sign(w_1 - w_0).
LINEAR_W = np.array([[1.0, 2.0], [-1.0, 0.0]])


def linear_model():
    return Classifier([], Affine(LINEAR_W.copy()))


class TestAttackConfig:
    def test_validation(self):
        with pytest.raises(ValueError, match="norm"):
            AttackConfig(norm="l1")
        with pytest.raises(ValueError, match="epsilon"):
            AttackConfig(epsilon=-0.1)
        with pytest.raises(ValueError, match="steps"):
            AttackConfig(steps=0)
        with pytest.raises(ValueError, match="step_size"):
            AttackConfig(step_size=0.0)
        with pytest.raises(ValueError, match="input_bounds"):
            AttackConfig(input_bounds=(1.0, 1.0))

    def test_default_step_sizes(self):
        assert AttackConfig(norm="linf", epsilon=0.4).resolved_step() == 0.1
        assert AttackConfig(norm="l2", epsilon=0.4).resolved_step() == 0.05
        assert AttackConfig(epsilon=0.4, step_size=0.07).resolved_step() == 0.07


class TestProject:
    def test_linf_clamps_each_coordinate(self):
        x0 = np.zeros((1, 3))
        x = np.array([[0.5, -0.3, 0.1]])
        cfg = AttackConfig(norm="linf", epsilon=0.2)
        assert np.allclose(project(x0, x, cfg), [[0.2, -0.2, 0.1]])

    def test_l2_rescales_long_offsets(self):
        x0 = np.zeros((1, 2))
        x = np.array([[3.0, 4.0]])  # norm 5 -> rescaled to the unit sphere
        cfg = AttackConfig(norm="l2", epsilon=1.0)
        assert np.allclose(project(x0, x, cfg), [[0.6, 0.8]])

    def test_interior_points_are_unchanged(self):
        x0 = np.zeros((2, 3))
        x = np.full((2, 3), 0.05)
        for norm in ("linf", "l2"):
            cfg = AttackConfig(norm=norm, epsilon=1.0)
            assert np.array_equal(project(x0, x, cfg), x)

    def test_input_bounds_clip_after_ball(self):
        x0 = np.array([[0.9, 0.1]])
        x = np.array([[1.5, -0.5]])
        cfg = AttackConfig(norm="linf", epsilon=0.3, input_bounds=(0.0, 1.0))
        assert np.allclose(project(x0, x, cfg), [[1.0, 0.0]])

    def test_shape_mismatch_raises(self):
        cfg = AttackConfig(epsilon=0.1)
        with pytest.raises(ValueError, match="shape mismatch"):
            project(np.zeros((1, 2)), np.zeros((1, 3)), cfg)

    @pytest.mark.parametrize("norm", ["linf", "l2"])
    def test_projection_lands_inside_ball(self, norm):
        gen = RngStream(4, stream_id=82).generator
        x0 = gen.normal(size=(1000, 5))
        x = x0 + gen.normal(size=(1000, 5)) * 3.0
        cfg = AttackConfig(norm=norm, epsilon=0.7)
        delta = project(x0, x, cfg) - x0
        if norm == "linf":
            assert np.abs(delta).max() <= 0.7 + 1e-12
        else:
            assert np.linalg.norm(delta, axis=1).max() <= 0.7 + 1e-12


class TestPgd:
    def test_zero_epsilon_is_identity(self):
        model = mlp()
        x, y = batch(model)
        out = pgd(model, x, y, AttackConfig(epsilon=0.0))
        assert np.array_equal(out, x)
        assert out is not x  # a defensive copy, not the caller's array

    def test_empty_batch_keeps_its_shape(self):
        model = mlp()
        x = np.zeros((0, model.input_dim))
        y = np.zeros(0, dtype=np.int64)
        cfg = AttackConfig(epsilon=0.1)
        for out in (pgd(model, x, y, cfg), fgsm(model, x, y, cfg, RngStream(0))):
            assert out.shape == x.shape

    @pytest.mark.parametrize("norm", ["linf", "l2"])
    def test_output_stays_inside_ball(self, norm):
        model = mlp()
        x, y = batch(model, n=40)
        cfg = AttackConfig(norm=norm, epsilon=0.3, random_start=True)
        out = pgd(model, x, y, cfg, RngStream(9, stream_id=83))
        delta = out - x
        if norm == "linf":
            assert np.abs(delta).max() <= 0.3 + 1e-12
        else:
            assert np.linalg.norm(delta, axis=1).max() <= 0.3 + 1e-12

    def test_linf_reaches_analytic_corner_on_linear_model(self):
        model = linear_model()
        x = np.array([[0.3, -0.2]])
        y = np.array([0])
        cfg = AttackConfig(norm="linf", epsilon=0.1, steps=10)
        out = pgd(model, x, y, cfg)
        corner = x + 0.1 * np.sign(LINEAR_W[1] - LINEAR_W[0])
        assert np.allclose(out, corner, atol=1e-6)

    def test_l2_reaches_analytic_optimum_on_linear_model(self):
        model = linear_model()
        x = np.array([[0.3, -0.2]])
        y = np.array([0])
        cfg = AttackConfig(norm="l2", epsilon=0.1, steps=16)
        out = pgd(model, x, y, cfg)
        direction = LINEAR_W[1] - LINEAR_W[0]
        optimum = x + 0.1 * direction / np.linalg.norm(direction)
        assert np.allclose(out, optimum, atol=1e-9)

    def test_ascent_increases_loss_on_linear_model(self):
        model = linear_model()
        x = np.array([[0.3, -0.2], [-1.0, 0.5]])
        y = np.array([0, 1])
        cfg = AttackConfig(norm="linf", epsilon=0.2)
        out = pgd(model, x, y, cfg)
        before = backward(model, x, y, CrossEntropy(), include_params=False).loss
        after = backward(model, out, y, CrossEntropy(), include_params=False).loss
        assert after > before

    def test_zero_gradient_means_no_motion(self):
        # All-zero weights give uniform softmax everywhere: the input gradient
        # vanishes and sign(0) = 0 must keep the iterate at the start point.
        model = Classifier([], Affine(np.zeros((3, 2))))
        x = np.array([[0.4, -0.7]])
        out = pgd(model, x, np.array([1]), AttackConfig(norm="linf", epsilon=0.5))
        assert np.array_equal(out, x)

    def test_random_start_requires_rng(self):
        model = mlp()
        x, y = batch(model)
        cfg = AttackConfig(epsilon=0.1, random_start=True)
        with pytest.raises(ValueError, match="rng"):
            pgd(model, x, y, cfg)

    def test_random_start_is_deterministic_given_stream(self):
        model = mlp()
        x, y = batch(model)
        cfg = AttackConfig(epsilon=0.2, random_start=True)
        a = pgd(model, x, y, cfg, RngStream(5, stream_id=84))
        b = pgd(model, x, y, cfg, RngStream(5, stream_id=84))
        assert np.array_equal(a, b)

    def test_no_random_start_is_deterministic_without_rng(self):
        model = mlp()
        x, y = batch(model)
        cfg = AttackConfig(epsilon=0.2)
        assert np.array_equal(pgd(model, x, y, cfg), pgd(model, x, y, cfg))

    def test_input_bounds_respected_end_to_end(self):
        model = mlp(input_dim=3)
        gen = RngStream(6, stream_id=85).generator
        x = gen.uniform(0.0, 1.0, size=(12, 3))
        y = gen.integers(0, model.class_count, size=12)
        cfg = AttackConfig(epsilon=0.4, input_bounds=(0.0, 1.0), random_start=True)
        out = pgd(model, x, y, cfg, RngStream(7, stream_id=85))
        assert out.min() >= 0.0 and out.max() <= 1.0

    def test_steps_override_takes_precedence(self):
        model = linear_model()
        x = np.array([[0.3, -0.2]])
        y = np.array([0])
        cfg = AttackConfig(norm="linf", epsilon=0.1, steps=10)
        one = pgd(model, x, y, replace(cfg, steps=1))
        # One step of size eps/4 moves exactly eps/4 along the sign direction.
        assert np.allclose(one, x + 0.025 * np.sign(LINEAR_W[1] - LINEAR_W[0]),
                           atol=1e-12)


class TestPgdChecks:
    def test_one_label_too_many_is_rejected(self):
        # Blocks slice the labels, so with len(x) == _BLOCK_ROWS an extra
        # label would reach no per-block check.
        model = mlp()
        x, _ = batch(model, n=_BLOCK_ROWS)
        y = np.zeros(_BLOCK_ROWS + 1, dtype=np.int64)
        with pytest.raises(ValueError, match="one label per row"):
            pgd(model, x, y, AttackConfig(epsilon=0.1))

    def test_overflowing_gradient_is_rejected(self):
        # Finite logits, but the input gradient overflows to inf and the l2
        # step normalizes it to NaN on the last (here the only) step.
        model = mlp()
        model.hidden[0].weights *= 1e160
        model.head.weights *= 1e150
        x, y = batch(model)
        with np.errstate(all="ignore"), pytest.raises(ValueError, match="NaN or inf"):
            pgd(model, x * 1e-200, y, AttackConfig(norm="l2", epsilon=1e-200, steps=1))


class TestPgdBlocks:
    @pytest.mark.parametrize("random_start", [False, True])
    def test_linf_output_does_not_depend_on_block_size(self, monkeypatch,
                                                       random_start):
        model = mlp(widths=(16, 16))
        x, y = batch(model, n=600)
        cfg = AttackConfig(norm="linf", epsilon=0.3, random_start=random_start)
        outs = []
        for rows in (64, 256):
            monkeypatch.setattr(crossfeat.model, "_BLOCK_ROWS", rows)
            outs.append(pgd(model, x, y, cfg, RngStream(3, stream_id=87)))
        assert np.array_equal(outs[0], outs[1])
        assert not np.array_equal(outs[0], x)


class TestFgsm:
    def test_matches_single_fast_pgd_step_bit_for_bit(self):
        model = mlp()
        x, y = batch(model)
        cfg = AttackConfig(norm="linf", epsilon=0.25)
        rs_cfg = AttackConfig(norm="linf", epsilon=0.25, random_start=True)
        a = fgsm(model, x, y, cfg, RngStream(11, stream_id=86))
        b = pgd(model, x, y, replace(rs_cfg, steps=1, step_size=0.25),
                RngStream(11, stream_id=86))
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("step_size, expected", [(None, 0.4), (0.07, 0.07)])
    def test_single_step_of_epsilon_unless_overridden(self, monkeypatch,
                                                      step_size, expected):
        seen = []
        monkeypatch.setattr(crossfeat.attack, "pgd",
                            lambda model, x, y, cfg, rng: seen.append(cfg))
        cfg = AttackConfig(norm="linf", epsilon=0.4, step_size=step_size)
        fgsm(None, None, None, cfg)
        assert seen[0].steps == 1 and seen[0].random_start
        assert seen[0].resolved_step() == expected

    def test_output_stays_inside_ball(self):
        model = mlp()
        x, y = batch(model, n=30)
        cfg = AttackConfig(norm="linf", epsilon=0.15)
        out = fgsm(model, x, y, cfg, RngStream(12, stream_id=86))
        assert np.abs(out - x).max() <= 0.15 + 1e-12

    def test_zero_epsilon_is_identity_without_rng(self):
        model = mlp()
        x, y = batch(model)
        out = fgsm(model, x, y, AttackConfig(epsilon=0.0))
        assert np.array_equal(out, x)

    def test_requires_rng_when_epsilon_positive(self):
        model = mlp()
        x, y = batch(model)
        with pytest.raises(ValueError, match="rng"):
            fgsm(model, x, y, AttackConfig(epsilon=0.1))
