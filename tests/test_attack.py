"""Tests for epsilon-ball projection, multi-step ascent, and the fast attack."""

import hashlib
from dataclasses import replace

import numpy as np
import pytest

import crossfeat.attack
import crossfeat.model
from blas_kernel import PINNED
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


class TestPgdFastPath:
    """Each block's first step runs the checking backward, the others the
    private kernel; the points are those of a checking call on every step."""

    # sha256 of the attacked points of mlp(input_dim=36, widths=(32, 32),
    # classes=4) on batch(model, seed=2, n=rows), with RngStream(13, 88),
    # recorded when every PGD step still called the public backward.
    CASES = {
        "linf": AttackConfig(norm="linf", epsilon=0.3),
        "linf_random_start": AttackConfig(norm="linf", epsilon=0.3, random_start=True),
        "l2": AttackConfig(norm="l2", epsilon=0.8),
        "input_bounds": AttackConfig(norm="linf", epsilon=0.3, random_start=True,
                                     input_bounds=(-1.0, 1.0)),
        "fgsm": AttackConfig(norm="linf", epsilon=0.3),
    }
    DIGESTS = {
        ("linf", 1): "ca34deec33d4777ec98129800dd12c6a11b8ad68c854bc457b9c04c9f3920596",
        ("linf", 256): "3245cf49a0588be2a021c30e5c4543c05d82a1bc55036928c6a68de20bdf338a",
        ("linf", 257): "f03c3a2a405e1ad5d92c30942f3ca156227e3b5e0e603a6292987a49d76cd0b1",
        ("linf", 2000): "a8233be0b4c0f604f6344d76e298f50292241756488b64a1f44dc127e50ca6b0",
        ("linf_random_start", 1):
            "2862f047b6b3e2b26c8d31cf805e0c0ecadb9de5e769e560de472be69cda907c",
        ("linf_random_start", 256):
            "0e76464d3a2e4778229c970663871a185fa677d17c4524d1478e36a12f46fc29",
        ("linf_random_start", 257):
            "26cc8a14e4714f95d270e2c342f5bac2800265efd98223a64cac5d34084f478c",
        ("linf_random_start", 2000):
            "5ffc65c43e121ed71d403bcb8ae05b8d33746faf6515682d86139e5dd53bedc0",
        ("l2", 1): "21f40f1ff69a32b5f194e763af2f3588c88eeb5ce533d7db24f4ff6afdab632c",
        ("l2", 256): "22f459e2984bc0716c177754000f2c9bb0bedf16881f96bc482c2f1eaaef16b4",
        ("l2", 257): "5e7890f78ddc1b4ac9d73630eb16af49c27432e764cf814f1b725807299455e9",
        ("l2", 2000): "b15c39557d2bb001850cc54cf284c49e61bcf1f5563c56c1685345ed02817b6a",
        ("input_bounds", 1): "5e48dc12a2af75605b8e7bbfb076328f5a00253aa7af83bdb4edb22b9b59d357",
        ("input_bounds", 256): "b26332fc4b6001c42b1a264aded1b180202059434f1aea1932d23bde47533e44",
        ("input_bounds", 257): "5199995d79a3defd951436aea2cdcba9c3b1a1421410cb87286cff0075056027",
        ("input_bounds", 2000):
            "68f51638530c60d72858ea47fcc41bc496a1654cf2f69498f3ec2f34cbe3f555",
        ("fgsm", 1): "9d5103ba9e8f83e82b0a83e24aa73b7242033bf51f7f0f9b165924c46da7b7d4",
        ("fgsm", 256): "7c24dd0b4de68ba008439d46150cf778f8eff629b9b62bff108be7bb01643bcd",
        ("fgsm", 257): "149f9e61513eaad4a27c7a15be397687cb4d5684bfa239d1d0fa1a0a9687d968",
        ("fgsm", 2000): "637c021fb2f467bd0a1255161e4e470af15d200ed31266633fc916ac3f153d70",
    }

    @pytest.mark.parametrize("name, rows", sorted(DIGESTS))
    def test_points_match_recorded_bytes(self, name, rows):
        model = mlp(input_dim=36, widths=(32, 32), classes=4)
        x, y = batch(model, seed=2, n=rows)
        attack = fgsm if name == "fgsm" else pgd
        out = attack(model, x, y, self.CASES[name], RngStream(13, stream_id=88))
        assert hashlib.sha256(out.tobytes()).hexdigest() == self.DIGESTS[name, rows], PINNED

    @pytest.mark.parametrize("rows, blocks", [(1, 1), (256, 1), (257, 2), (600, 3)])
    @pytest.mark.parametrize("steps", [1, 10])
    def test_public_backward_runs_once_per_block(self, monkeypatch, rows, blocks, steps):
        calls = []
        inner = crossfeat.attack.backward
        monkeypatch.setattr(crossfeat.attack, "backward",
                            lambda *args, **kwargs: calls.append(len(args[1]))
                            or inner(*args, **kwargs))
        model = mlp()
        x, y = batch(model, n=rows)
        pgd(model, x, y, AttackConfig(epsilon=0.2, steps=steps))
        assert len(calls) == blocks
        assert sum(calls) == rows

    @pytest.mark.parametrize("layer", ["hidden", "head"])
    @pytest.mark.parametrize("norm", ["linf", "l2"])
    def test_nan_weight_is_rejected(self, layer, norm):
        # The iterate turns NaN after the checked first step; the output
        # check catches it.
        model = mlp()
        (model.hidden[0] if layer == "hidden" else model.head).weights[0, 0] = np.nan
        x, y = batch(model)
        with np.errstate(all="ignore"), pytest.raises(ValueError, match="NaN or inf"):
            pgd(model, x, y, AttackConfig(norm=norm, epsilon=0.2))

    def test_clip_has_np_clip_bits(self):
        values = np.array([0.0, -0.0, 0.5, -0.5, 1.0, -1.0, 2.0, -2.0, np.nan, -np.nan,
                           np.inf, -np.inf, 5e-324, -5e-324] * 20)
        for lo, hi in [(0.0, 1.0), (-1.0, 0.0), (-0.0, 0.0), (-0.0, 1.0), (-1.0, -0.0),
                       (0.0, 0.0), (-0.5, 0.5), (-np.inf, np.inf)]:
            for block in (values, values.reshape(-1, 7)):
                want = np.clip(block, lo, hi)
                assert crossfeat.attack._clip(block, lo, hi).tobytes() == want.tobytes()


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
