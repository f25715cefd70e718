"""Tests for the three-class planted model: closed forms vs independent oracles."""

import hashlib
import json
import math
import os
from dataclasses import asdict, replace

import numpy as np
import pytest

from blas_kernel import PINNED
from crossfeat import synthetic
from crossfeat.cli import main
from crossfeat.numerics import RngStream, _row_reduce, std_normal_cdf
from crossfeat.synthetic import (CLASSES, CheckRecord, GroupVerification,
                                 LinearHypothesis, SyntheticBatch, SyntheticParams,
                                 adversarial_batch, collapse_radius,
                                 frozen_linear_coefficients, linear_classifier,
                                 linear_logits, ls_margin_samples, margin_loss,
                                 max_gauss_mean_mc, optimal_weights,
                                 pair_margin_mc, pair_margin_prob, projected_gd_oracle,
                                 replicate_groups, robust_loss_closed,
                                 robust_margin_samples,
                                 run_verification, sample, sample_mixed,
                                 worst_case_delta)
from crossfeat.model import forward

DEFAULTS = dict(mu=1.0, sigma=math.sqrt(math.pi) / 2.0, lam=1.0)


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError, match="mu"):
            SyntheticParams(mu=0.0)
        with pytest.raises(ValueError, match="sigma"):
            SyntheticParams(sigma=-1.0)
        with pytest.raises(ValueError, match="sigma"):
            SyntheticParams(mu=1.0, sigma=math.sqrt(math.pi))
        with pytest.raises(ValueError, match="eps"):
            SyntheticParams(eps=0.5)
        with pytest.raises(ValueError, match="lam"):
            SyntheticParams(lam=0.0)
        with pytest.raises(ValueError, match="beta"):
            SyntheticParams(beta=1.0 / 3.0)

    # mu, sigma and lam are config keys, checked in test_cli; eps and beta are not.
    @pytest.mark.parametrize("name", ["eps", "beta"])
    @pytest.mark.parametrize("value", ["0.1", True])
    def test_a_non_number_is_named(self, name, value):
        with pytest.raises(ValueError) as info:
            SyntheticParams(**{name: value})
        assert str(info.value) == f"{name} must be a number, got {value!r}"

    def test_numpy_numbers_are_numbers(self):
        assert SyntheticParams(mu=np.float64(1.0), lam=np.int64(1)).lam == 1

    def test_sigma_term_is_sigma_over_sqrt_pi(self):
        assert SyntheticParams(**DEFAULTS).sigma_term == pytest.approx(0.5, abs=1e-15)
        assert SyntheticParams(sigma=0.35).sigma_term == pytest.approx(
            0.35 / math.sqrt(math.pi), abs=1e-15)

    def test_hypothesis_rejects_negative_weights(self):
        with pytest.raises(ValueError, match="non-negative"):
            LinearHypothesis(-0.1, 0.0)


class TestSampling:
    def test_zero_pattern_and_labels(self):
        p = SyntheticParams(**DEFAULTS)
        batch = sample(p, 2, 100, RngStream(0, stream_id=70))
        assert batch.x_e.shape == (100, 3) and batch.x_c.shape == (100, 3)
        assert np.all(batch.labels == 2)
        # Class 2 populates x_E2 and the shared coords of classes 1 and 3.
        assert np.all(batch.x_e[:, 0] == 0.0) and np.all(batch.x_e[:, 2] == 0.0)
        assert np.all(batch.x_c[:, 1] == 0.0)
        assert np.all(batch.x_e[:, 1] != 0.0)
        assert np.all(batch.x_c[:, 0] != 0.0) and np.all(batch.x_c[:, 2] != 0.0)

    def test_populated_moments(self):
        p = SyntheticParams(**DEFAULTS)
        n = 50_000
        batch = sample(p, 1, n, RngStream(1, stream_id=70))
        populated = np.concatenate([batch.x_e[:, 0], batch.x_c[:, 1], batch.x_c[:, 2]])
        se = p.sigma / math.sqrt(len(populated))
        assert abs(populated.mean() - p.mu) <= 4.0 * se
        assert abs(populated.std(ddof=1) - p.sigma) <= 4.0 * se

    def test_inputs_order_is_evidence_then_shared(self):
        p = SyntheticParams(**DEFAULTS)
        batch = sample(p, 1, 5, RngStream(2, stream_id=70))
        flat = batch.inputs()
        assert flat.shape == (5, 6)
        assert np.array_equal(flat[:, :3], batch.x_e)
        assert np.array_equal(flat[:, 3:], batch.x_c)

    def test_mixed_labels_roughly_uniform_and_deterministic(self):
        p = SyntheticParams(**DEFAULTS)
        a = sample_mixed(p, 9_000, RngStream(3, stream_id=70))
        b = sample_mixed(p, 9_000, RngStream(3, stream_id=70))
        assert np.array_equal(a.inputs(), b.inputs())
        counts = np.bincount(a.labels, minlength=4)[1:]
        assert counts.sum() == 9_000
        assert np.all(np.abs(counts - 3_000) < 5.0 * math.sqrt(9_000 * (1 / 3) * (2 / 3)))

    def test_mixed_rows_are_the_per_class_draws(self):
        p = SyntheticParams(eps=0.1, **DEFAULTS)
        rng = RngStream(3, stream_id=70)
        batch = sample_mixed(p, 500, rng)
        assert np.array_equal(batch.labels,
                              rng.split(0).generator.integers(1, 4, size=500))
        for class_i in CLASSES:
            rows = batch.labels == class_i
            part = sample(p, class_i, int(rows.sum()), rng.split(class_i))
            assert np.array_equal(batch.x_e[rows], part.x_e)
            assert np.array_equal(batch.x_c[rows], part.x_c)

    def test_invalid_arguments(self):
        p = SyntheticParams(**DEFAULTS)
        with pytest.raises(ValueError, match="class"):
            sample(p, 4, 10, RngStream(0))
        with pytest.raises(ValueError, match="non-negative"):
            sample(p, 1, -1, RngStream(0))


class TestLinearScorer:
    def test_logits_hand_example(self):
        h = LinearHypothesis(2.0, 0.5)
        x_e = np.array([[1.0, 0.0, 0.0]])
        x_c = np.array([[0.0, 3.0, 4.0]])
        # f_i = w1 x_Ei + w2 * sum_{j != i} x_Cj
        expected = [[2.0 * 1 + 0.5 * 7, 0.5 * 4, 0.5 * 3]]
        assert np.allclose(linear_logits(h, x_e, x_c), expected, atol=1e-15)

    def test_linear_classifier_agrees_with_linear_logits(self):
        h = LinearHypothesis(1.3, 0.4)
        p = SyntheticParams(**DEFAULTS)
        batch = sample_mixed(p, 64, RngStream(4, stream_id=70))
        direct = linear_logits(h, batch.x_e, batch.x_c)
        as_model = forward(linear_classifier(h), batch.inputs())
        assert np.allclose(direct, as_model, atol=1e-12)

    def test_margin_loss_hand_example(self):
        h = LinearHypothesis(1.0, 0.0)
        x_e = np.array([[2.0, 0.5, -1.0]])
        x_c = np.zeros((1, 3))
        # logits (2, 0.5, -1); label 1 -> best other minus own = 0.5 - 2.
        got = margin_loss(h, x_e, x_c, np.array([1]))
        assert got[0] == pytest.approx(-1.5, abs=1e-15)


class TestWorstCaseDelta:
    def test_class_one_pattern(self):
        p = SyntheticParams(eps=0.25, **DEFAULTS)
        delta = worst_case_delta(p, class_i=1)
        assert np.allclose(delta, [-0.25, 0.25, 0.25, 0.25, -0.25, -0.25],
                           atol=1e-15)

    def test_class_two_pattern(self):
        p = SyntheticParams(eps=0.1, **DEFAULTS)
        delta = worst_case_delta(p, class_i=2)
        assert np.allclose(delta, [0.1, -0.1, 0.1, -0.1, 0.1, -0.1], atol=1e-15)

    def test_invalid_class(self):
        with pytest.raises(ValueError, match="class"):
            worst_case_delta(SyntheticParams(**DEFAULTS), class_i=0)

    def test_dominates_random_perturbations(self):
        gen = RngStream(5, stream_id=70).generator
        p = SyntheticParams(eps=0.2, **DEFAULTS)
        for trial in range(10):
            h = LinearHypothesis(float(gen.uniform(0, 2)), float(gen.uniform(0, 2)))
            class_i = int(gen.integers(1, 4))
            one = sample(p, class_i, 1, RngStream(6, stream_id=70 + trial))
            delta = worst_case_delta(p, class_i=class_i)
            best = margin_loss(h, one.x_e + delta[:3], one.x_c + delta[3:],
                               one.labels)[0]
            rand = gen.uniform(-p.eps, p.eps, size=(2_000, 6))
            vals = margin_loss(h, one.x_e + rand[:, :3], one.x_c + rand[:, 3:],
                               np.full(2_000, class_i, dtype=np.int64))
            assert vals.max() <= best + 1e-12

    def test_adversarial_batch_applies_per_class_delta(self):
        # Bit for bit: each row is the sample plus its class's delta.
        p = SyntheticParams(eps=0.3, **DEFAULTS)
        batch = sample_mixed(p, 200, RngStream(7, stream_id=70))
        adv = adversarial_batch(p, batch)
        assert np.array_equal(adv.labels, batch.labels)
        for row, label in enumerate(batch.labels):
            delta = worst_case_delta(p, class_i=int(label))
            assert np.array_equal(adv.x_e[row], batch.x_e[row] + delta[:3])
            assert np.array_equal(adv.x_c[row], batch.x_c[row] + delta[3:])
        assert not np.shares_memory(adv.x_e, batch.x_e)

    def test_delta_signs_of_zero_radius(self):
        # eps = 0 keeps the signed zeros of the -eps / +eps pattern.
        delta = worst_case_delta(SyntheticParams(**DEFAULTS), class_i=2)
        assert np.signbit(delta).tolist() == [False, True, False, True, False, True]


class TestRobustLoss:
    def test_frozen_spot_value(self):
        # c1 = 2*0.25 - 1 = -0.5, c2 = -0.5 + 0.5 = 0, reg = 1 -> loss 0.5.
        p = SyntheticParams(eps=0.25, **DEFAULTS)
        assert robust_loss_closed(p, LinearHypothesis(1.0, 1.0)) == pytest.approx(
            0.5, abs=1e-15)

    def test_closed_matches_mc_within_three_se(self):
        p = SyntheticParams(eps=0.15, **DEFAULTS)
        h = LinearHypothesis(0.9, 0.4)
        margins = robust_margin_samples(p, h, 200_000, RngStream(8, stream_id=70))
        reg = 0.5 * p.lam * (h.w1 ** 2 + h.w2 ** 2)
        se = margins.std(ddof=1) / math.sqrt(len(margins))
        assert abs(margins.mean() + reg - robust_loss_closed(p, h)) <= 3.0 * se

    def test_smoothed_closed_matches_mc_within_three_se(self):
        p = SyntheticParams(eps=0.2, beta=0.2, **DEFAULTS)
        h = LinearHypothesis(1.0, 0.5)
        samples = ls_margin_samples(p, h, 200_000, RngStream(10, stream_id=70))
        reg = 0.5 * p.lam * (h.w1 ** 2 + h.w2 ** 2)
        se = samples.std(ddof=1) / math.sqrt(len(samples))
        assert abs(samples.mean() + reg - robust_loss_closed(p, h)) <= 3.0 * se


class TestOptimalWeights:
    def test_frozen_minimizers(self):
        low = optimal_weights(SyntheticParams(eps=0.1, **DEFAULTS))
        assert low.w1 == pytest.approx(0.8, abs=1e-15)
        assert low.w2 == pytest.approx(0.3, abs=1e-15)
        high = optimal_weights(SyntheticParams(eps=0.3, **DEFAULTS))
        assert high.w1 == pytest.approx(0.4, abs=1e-15)
        assert high.w2 == 0.0

    @pytest.mark.parametrize("beta, radius", [(0.0, 0.25), (0.2, 0.375)],
                             ids=["0.0", "0.2"])
    def test_collapse_radius(self, beta, radius):
        # (mu / (1 - beta) - sigma/sqrt(pi)) / 2 with mu = 1, sigma/sqrt(pi) = 0.5.
        p = SyntheticParams(beta=beta, **DEFAULTS)
        assert collapse_radius(p) == pytest.approx(radius, abs=1e-15)
        for eps in (radius + 0.01, radius + 0.05, 0.49):
            assert optimal_weights(replace(p, eps=eps)).w2 == 0.0
        for eps in (0.05, radius - 0.05, radius - 0.01):
            assert optimal_weights(replace(p, eps=eps)).w2 > 0.0

    def test_frozen_smoothed_minimizer(self):
        h = optimal_weights(SyntheticParams(eps=0.1, beta=0.2, **DEFAULTS))
        assert h.w1 == pytest.approx(0.66, abs=1e-15)
        assert h.w2 == pytest.approx(0.44, abs=1e-15)

    @pytest.mark.parametrize("beta", [0.1, 0.2, 0.3])
    def test_smoothed_surplus_identity(self, beta):
        p = SyntheticParams(eps=0.1, beta=beta, **DEFAULTS)
        plain = optimal_weights(SyntheticParams(eps=0.1, **DEFAULTS))
        surplus = beta * (2.0 * p.eps + p.sigma_term) / p.lam
        assert optimal_weights(p).w2 - plain.w2 == pytest.approx(surplus,
                                                                 abs=1e-12)

    @pytest.mark.parametrize("beta", [0.1, 0.2, 0.3])
    def test_smoothed_collapse_radius_exceeds_plain(self, beta):
        p = SyntheticParams(beta=beta, **DEFAULTS)
        assert collapse_radius(p) > collapse_radius(replace(p, beta=0.0))

    @pytest.mark.parametrize("beta", [0.0, 0.2])
    def test_minimizer_beats_neighbors(self, beta):
        p = SyntheticParams(eps=0.1, beta=beta, **DEFAULTS)
        best = optimal_weights(p)
        base = robust_loss_closed(p, best)
        for dw1, dw2 in ((0.01, 0), (-0.01, 0), (0, 0.01), (0, -0.01)):
            w1 = max(0.0, best.w1 + dw1)
            w2 = max(0.0, best.w2 + dw2)
            assert robust_loss_closed(p, LinearHypothesis(w1, w2)) >= base


class TestProjectedGdOracle:
    def test_recovers_analytic_minimum_of_quadratic(self):
        # minimize c.w + lam/2 |w|^2 over w >= 0 has solution max(0, -c/lam).
        got = projected_gd_oracle(np.array([[-1.0, -1.0]]), lam=1.0)
        assert got.w1 == pytest.approx(1.0, abs=1e-9)
        assert got.w2 == pytest.approx(1.0, abs=1e-9)

    def test_projection_pins_negative_directions_at_zero(self):
        got = projected_gd_oracle(np.array([[-0.5, 0.7]]), lam=1.0)
        assert got.w1 == pytest.approx(0.5, abs=1e-9)
        assert got.w2 == 0.0

    def test_lam_validation(self):
        with pytest.raises(ValueError, match="lam"):
            projected_gd_oracle(np.zeros((1, 2)), lam=0.0)

    @pytest.mark.parametrize("coefficients", [np.zeros((0, 2)), np.zeros(2),
                                              np.zeros((3, 3)),
                                              np.array([[np.nan, 0.0]]),
                                              np.array([[0.0, np.inf]])])
    def test_rejects_empty_misshapen_or_non_finite_coefficients(self, coefficients):
        with pytest.raises(ValueError, match="coefficients"):
            projected_gd_oracle(coefficients, lam=0.1)

    def test_rejects_negative_steps(self):
        with pytest.raises(ValueError, match="steps"):
            projected_gd_oracle(np.zeros((1, 2)), lam=0.1, steps=-1)
        assert projected_gd_oracle(np.array([[-1.0, 1.0]]), lam=1.0,
                                   steps=0) == LinearHypothesis(0.0, 0.0)

    @staticmethod
    def numpy_reference(coefficients, lam, steps):
        # Every step of the iteration on the whole weight vector, in numpy.
        mean_c = np.asarray(coefficients, dtype=np.float64).mean(axis=0)
        eta = 0.01 / lam
        w = np.zeros(2)
        for _ in range(steps):
            w = np.maximum(0.0, w - eta * (mean_c + lam * w))
        return LinearHypothesis(float(w[0]), float(w[1]))

    @pytest.mark.parametrize("steps", [100, 3_000, 10_000])
    def test_equals_the_numpy_iteration_bit_for_bit(self, steps):
        cases = [(frozen_linear_coefficients(SyntheticParams(eps=eps, **DEFAULTS),
                                             5_000, RngStream(11, stream_id=70)), lam)
                 for eps in (0.05, 0.2, 0.35) for lam in (1.0, 0.1)]
        cases.append((RngStream(12, stream_id=70).generator.normal(size=(7, 2)), 0.3))
        for coefficients, lam in cases:
            got = projected_gd_oracle(coefficients, lam, steps=steps)
            want = self.numpy_reference(coefficients, lam, steps)
            assert (got.w1.hex(), got.w2.hex()) == (want.w1.hex(), want.w2.hex())

    def test_frozen_coefficients_need_a_sample(self):
        with pytest.raises(ValueError, match="n_samples"):
            frozen_linear_coefficients(SyntheticParams(**DEFAULTS), 0, RngStream(0))

    def test_recovers_closed_form_from_frozen_mc_samples(self):
        p = SyntheticParams(eps=0.1, **DEFAULTS)
        coeff = frozen_linear_coefficients(p, 200_000, RngStream(12, stream_id=70))
        got = projected_gd_oracle(coeff, p.lam)
        best = optimal_weights(p)
        assert abs(got.w1 - best.w1) <= 0.05 * best.w1
        assert abs(got.w2 - best.w2) <= 0.05 * best.w2

    def test_collapsed_regime_oracle_stays_near_zero(self):
        p = SyntheticParams(eps=0.35, **DEFAULTS)
        coeff = frozen_linear_coefficients(p, 200_000, RngStream(13, stream_id=70))
        got = projected_gd_oracle(coeff, p.lam)
        assert got.w2 < 0.02 * (p.mu / p.lam)


class TestPairMarginProb:
    P = SyntheticParams(mu=1.0, sigma=0.5, lam=1.0, eps=0.25)

    def test_frozen_spot_values(self):
        assert pair_margin_prob(self.P, LinearHypothesis(1.0, 0.0)) == \
            pytest.approx(std_normal_cdf(1.0), abs=1e-12)
        assert pair_margin_prob(self.P, LinearHypothesis(1.0, 1.0)) == \
            pytest.approx(std_normal_cdf(math.sqrt(2.0)), abs=1e-12)

    def test_monotone_in_weight_ratio(self):
        probs = [pair_margin_prob(self.P, LinearHypothesis(1.0, t))
                 for t in np.linspace(0.0, 1.0, 11)]
        assert all(b >= a for a, b in zip(probs, probs[1:]))

    def test_mc_agrees_with_exact_convention(self):
        h = LinearHypothesis(1.0, 0.7)
        closed = pair_margin_prob(self.P, h)
        n = 200_000
        mc = pair_margin_mc(self.P, h, n, RngStream(14, stream_id=70))
        se = math.sqrt(closed * (1 - closed) / n)
        assert abs(mc - closed) <= 3.0 * se

    @pytest.mark.parametrize("w2", [0.0, 0.7, 2.5])
    def test_mc_compares_the_first_two_columns_of_linear_logits(self, w2):
        # The MC method computes logits 0 and 1 alone; they must be the
        # columns linear_logits gives for the same perturbed batch.
        h = LinearHypothesis(1.3, w2)
        n = 50_000
        batch = sample(self.P, 1, n, RngStream(15, stream_id=70))
        batch.x_e[:, 0] -= self.P.eps
        batch.x_e[:, 1] += self.P.eps
        batch.x_c[:, 0] += self.P.eps
        batch.x_c[:, 1] -= self.P.eps
        logits = linear_logits(h, batch.x_e, batch.x_c)
        expected = float(np.mean(logits[:, 0] > logits[:, 1]))
        assert pair_margin_mc(self.P, h, n, RngStream(15, stream_id=70)) == expected

    def test_paper_convention_widens_the_noise(self):
        h = LinearHypothesis(1.0, 0.7)
        exact = pair_margin_prob(self.P, h)
        paper = pair_margin_prob(self.P, h, convention="paper")
        assert paper < exact  # positive mean, larger sd -> smaller probability

    def test_error_paths(self):
        with pytest.raises(ValueError, match="w1"):
            pair_margin_prob(self.P, LinearHypothesis(0.0, 0.5))
        with pytest.raises(ValueError, match="convention"):
            pair_margin_prob(self.P, LinearHypothesis(1.0, 0.5), convention="x")
        with pytest.raises(TypeError):  # the closed form has no Monte-Carlo method
            pair_margin_prob(self.P, LinearHypothesis(1.0, 0.5), method="mc")
        with pytest.raises(ValueError, match="w1"):
            pair_margin_mc(self.P, LinearHypothesis(0.0, 0.5), 10, RngStream(0))
        with pytest.raises(TypeError):
            pair_margin_mc(self.P, LinearHypothesis(1.0, 0.5), 10)
        with pytest.raises(ValueError, match="n_samples"):
            pair_margin_mc(self.P, LinearHypothesis(1.0, 0.5), 0, RngStream(0))


class TestMaxGaussMean:
    def test_matches_one_over_sqrt_pi(self):
        value, se = max_gauss_mean_mc(200_000, RngStream(15, stream_id=70))
        assert se > 0
        assert abs(value - 1.0 / math.sqrt(math.pi)) <= 3.0 * se

    def test_needs_two_samples_for_a_standard_error(self):
        with pytest.raises(ValueError, match="n_samples"):
            max_gauss_mean_mc(1, RngStream(0))


class TestReplicateGroups:
    def test_two_groups_decouple(self):
        groups = [SyntheticParams(eps=0.1, **DEFAULTS),
                  SyntheticParams(eps=0.4, **DEFAULTS)]
        gv = replicate_groups(groups, n_samples=50_000,
                              rng=RngStream(16, stream_id=70), steps=3_000)
        assert isinstance(gv, GroupVerification)
        scale = 1.0  # mu / lam
        assert gv.max_abs_err <= 0.05 * scale
        # Group below the collapse radius keeps w2; group above collapses.
        assert gv.joint_oracle[0].w2 > 0.05 * scale
        assert gv.joint_oracle[1].w2 < 0.02 * scale

    def test_argument_validation(self):
        with pytest.raises(ValueError, match="at least one"):
            replicate_groups([], 10, RngStream(0), 1)
        with pytest.raises(TypeError):
            replicate_groups([SyntheticParams(eps=0.1, **DEFAULTS)])


@pytest.fixture(scope="module")
def records():
    return run_verification(seed=0, mc_samples=50_000, oracle_steps=4_000)


class TestRunVerification:
    def test_no_failures(self, records):
        failing = [r for r in records if r.status == "fail"]
        assert not failing, [r.name for r in failing]

    def test_covers_every_check_family(self, records):
        names = {r.name for r in records}
        for expected in ("max_gauss_mean", "threshold_sign", "oracle_w1",
                         "loss_mc_vs_closed", "ls_loss_mc_vs_closed",
                         "ls_threshold_above", "ls_w2_surplus_identity",
                         "delta_dominance", "pair_margin_spot",
                         "pair_margin_monotone", "pair_margin_mc",
                         "group_decoupling"):
            assert expected in names

    def test_records_are_json_serializable(self, records):
        blob = json.dumps([asdict(r) for r in records])
        assert json.loads(blob)[0]["name"] == records[0].name

    def test_radius_past_mu_half_is_reported_not_clamped(self):
        # sigma = 0.5 puts the beta = 0.3 radius at about 0.573 >= mu/2.
        records = run_verification(SyntheticParams(sigma=0.5), mc_samples=2_000,
                                   oracle_steps=100)
        above = [r for r in records if r.name == "ls_threshold_above"]
        assert above[-1].params == {"beta": 0.3}
        assert above[-1].observed == pytest.approx(0.573, abs=1e-3)
        assert "exceeds mu/2" in above[-1].detail
        assert not any("clamped" in r.detail for r in records)

    def test_convention_records_are_informational(self, records):
        conventions = [r for r in records
                       if r.name in ("ls_w1_coefficient_convention",
                                     "pair_margin_variance_convention")]
        assert len(conventions) == 2
        assert all(r.status == "info" for r in conventions)


class TestParallelChecks:
    """With more than one CPU the check groups run in forked workers; the
    records, and the error of a failing group, are those of the inline run."""

    @staticmethod
    def run(monkeypatch, cpus, **kwargs):
        with monkeypatch.context() as m:
            m.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
            return run_verification(**kwargs)

    def test_one_and_two_cpus_give_equal_records(self, monkeypatch):
        kwargs = dict(base=SyntheticParams(mu=1.5, sigma=1.0, lam=0.5), seed=4,
                      mc_samples=3_000, oracle_steps=300)
        inline = [asdict(r) for r in self.run(monkeypatch, 1, **kwargs)]
        pooled = [asdict(r) for r in self.run(monkeypatch, 2, **kwargs)]
        assert pooled == inline
        assert len(inline) == 49

    def test_a_group_error_surfaces_unchanged(self, monkeypatch):
        errors = []
        for cpus in (1, 2):
            with pytest.raises(ValueError) as info:
                self.run(monkeypatch, cpus, mc_samples=0, oracle_steps=10)
            errors.append((type(info.value), str(info.value)))
        assert errors[0] == errors[1] == (ValueError, "n_samples must be at least 1, got 0")


class TestSynthVerifyBytes:
    # sha256 of what the default ``crossfeat synth-verify`` wrote while the
    # one-hot and smoothed checks of each quantity were separate groups.  A
    # record that moves, is renamed or is drawn again changes them.
    DIGESTS = {
        "records.jsonl": "9c42782f3875139b83142852a2d0a97261c9d1060fb0b06332659f41d15b3d35",
        "summary.json": "5c2d5f86f879abac77a32969e8e2cf48c138028bfb4bde0c0897755173832a77",
    }

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_default_files(self, tmp_path, monkeypatch, cpus):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        assert main(["synth-verify", "--out", str(tmp_path)]) == 0
        for name, digest in self.DIGESTS.items():
            assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, \
                f"{name}, {PINNED}"


class TestBatchValidation:
    """A batch holds (n, 3) blocks and labels in {1, 2, 3}; anything else is
    rejected with an error that names the field."""

    @staticmethod
    def blocks(n=2):
        return np.ones((n, 3)), np.ones((n, 3))

    @pytest.mark.parametrize("labels", [[0, 1], [4], [1, 2, 3, 4], [-1, 2]])
    def test_labels_outside_the_classes(self, labels):
        # adversarial_batch gave label 0 class 3's delta and label 4 an
        # IndexError; margin_loss wrapped both around silently.
        x_e, x_c = self.blocks(len(labels))
        with pytest.raises(ValueError, match="^labels must"):
            SyntheticBatch(x_e, x_c, np.array(labels))
        with pytest.raises(ValueError, match="^labels must"):
            margin_loss(LinearHypothesis(1.0, 0.5), x_e, x_c, np.array(labels))

    @pytest.mark.parametrize("labels", [np.array([1.0, 2.0]), np.array([[1, 2]]),
                                        np.array(["1", "2"])])
    def test_labels_that_are_not_a_vector_of_integers(self, labels):
        x_e, x_c = self.blocks()
        with pytest.raises(ValueError, match="^labels must"):
            SyntheticBatch(x_e, x_c, labels)

    @pytest.mark.parametrize("field, shape", [("x_e", (2, 2)), ("x_e", (3, 3)),
                                              ("x_c", (2,)), ("x_c", (2, 3, 1))])
    def test_blocks_of_the_wrong_shape(self, field, shape):
        blocks = dict(zip(("x_e", "x_c"), self.blocks()))
        blocks[field] = np.ones(shape)
        with pytest.raises(ValueError, match=f"^{field} must have shape \\(2, 3\\)"):
            SyntheticBatch(labels=np.array([1, 3]), **blocks)

    def test_margin_loss_needs_one_label_per_row(self):
        x_e, x_c = self.blocks(3)
        with pytest.raises(ValueError, match="^x_e must have shape \\(2, 3\\)"):
            margin_loss(LinearHypothesis(1.0, 0.5), x_e, x_c, np.array([1, 2]))

    def test_blocks_are_stored_c_ordered_without_changing_a_value(self):
        rows = RngStream(1).generator.normal(size=(4, 6))
        batch = SyntheticBatch(rows[:, :3], np.asfortranarray(rows[:, 3:]),
                               np.array([1, 2, 3, 1], dtype=np.int32))
        assert batch.x_e.flags.c_contiguous and batch.x_c.flags.c_contiguous
        assert np.array_equal(batch.inputs(), rows)
        owned = sample(SyntheticParams(**DEFAULTS), 2, 3, RngStream(2))
        assert SyntheticBatch(owned.x_e, owned.x_c, owned.labels).x_e is owned.x_e

    def test_an_empty_batch_is_valid(self):
        batch = SyntheticBatch(np.zeros((0, 3)), np.zeros((0, 3)), np.zeros(0, dtype=int))
        assert len(batch) == 0
        assert margin_loss(LinearHypothesis(1.0, 0.5), batch.x_e, batch.x_c,
                           batch.labels).shape == (0,)


# The formulations that exact column selection replaced, kept verbatim: a
# masked copy reduced along the row, and numpy's row sum.

def _old_linear_logits(h, x_e, x_c):
    totals = x_c.sum(axis=1, keepdims=True)
    return h.w1 * x_e + h.w2 * (totals - x_c)


def _old_margin_loss(h, x_e, x_c, labels):
    logits = _old_linear_logits(h, x_e, x_c)
    idx = np.asarray(labels, dtype=np.int64) - 1
    n = len(idx)
    own = logits[np.arange(n), idx]
    masked = logits.copy()
    masked[np.arange(n), idx] = -np.inf
    return masked.max(axis=1) - own


def _old_adversarial_batch(params, batch):
    deltas = np.array([worst_case_delta(params, class_i) for class_i in CLASSES])
    rows = deltas[batch.labels - 1]
    return SyntheticBatch(batch.x_e + rows[:, :3], batch.x_c + rows[:, 3:],
                          batch.labels.copy())


def _old_ls_margin_samples(params, h, n_samples, rng):
    adv = _old_adversarial_batch(params, synthetic.sample_mixed(params, n_samples, rng))
    margins = _old_margin_loss(h, adv.x_e, adv.x_c, adv.labels)
    logits = _old_linear_logits(h, adv.x_e, adv.x_c)
    off_sum = logits.sum(axis=1) - logits[np.arange(len(adv)), adv.labels - 1]
    return (1.0 - params.beta) * margins - 0.5 * params.beta * off_sum


def _old_frozen_linear_coefficients(params, n_samples, rng):
    beta = params.beta
    adv = _old_adversarial_batch(params, synthetic.sample_mixed(params, n_samples, rng))
    idx = adv.labels - 1
    rows = np.arange(len(adv))
    own_e = adv.x_e[rows, idx]
    own_c = adv.x_c[rows, idx]
    other_c = adv.x_c.copy()
    other_c[rows, idx] = np.inf
    min_other = other_c.min(axis=1)
    c1 = params.eps - own_e
    c2 = own_c - min_other
    if beta:
        off_w2 = adv.x_c.sum(axis=1) + own_c
        c1 = (1.0 - beta) * c1 - beta * params.eps
        c2 = (1.0 - beta) * c2 - 0.5 * beta * off_w2
    return np.column_stack([c1, c2])


def _tied_batch(n, seed):
    """Entries from a few values, signed zeros included, so that rows tie and
    logits come out as -0.0 and +0.0; every label occurs."""
    gen = RngStream(seed, stream_id=80).generator
    values = np.array([-1.0, -0.0, 0.0, 0.5, 1.0])
    labels = np.resize(np.array(CLASSES), n)
    gen.shuffle(labels)
    return (values[gen.integers(0, 5, size=(n, 3))], values[gen.integers(0, 5, size=(n, 3))],
            labels)


HYPOTHESES = [LinearHypothesis(1.0, 0.0), LinearHypothesis(0.0, 0.0),
              LinearHypothesis(0.0, 1.0), LinearHypothesis(0.5, 0.5),
              LinearHypothesis(1.3, 0.7)]


def _bits(array):
    return np.ascontiguousarray(array).tobytes()


class TestExactColumnSelection:
    """Selecting each row's own and other columns gives the bits of the
    masked-copy reductions it replaced, ties and signed zeros included."""

    @pytest.mark.parametrize("seed", range(4))
    def test_margin_loss_on_tied_rows(self, seed):
        x_e, x_c, labels = _tied_batch(600, seed)
        for h in HYPOTHESES:
            got = margin_loss(h, x_e, x_c, labels)
            assert _bits(got) == _bits(_old_margin_loss(h, x_e, x_c, labels))

    @staticmethod
    def next_then_previous(logits, labels):
        # Other columns taken as (own + 1, own + 2) mod 3: label 2 compares
        # column 2 before column 0, unlike the reduction.
        idx = labels - 1
        pick = [np.take_along_axis(logits, ((idx + k) % 3)[:, None], axis=1)[:, 0]
                for k in range(3)]
        return np.maximum(pick[1], pick[2]) - pick[0]

    def test_every_signed_zero_tie_of_the_two_other_logits(self):
        # With w = 0 and x_C = -1 each logit is 0 * x_E (plus -0.0), so the
        # logits take the signs of x_E: every pattern of signed zeros, for
        # every label.
        rows = [(a, b, c) for a in (-0.0, 0.0) for b in (-0.0, 0.0) for c in (-0.0, 0.0)]
        x_e = np.array(rows * 3)
        x_c = -np.ones_like(x_e)
        labels = np.repeat(np.array(CLASSES), len(rows))
        h = LinearHypothesis(0.0, 0.0)
        logits = linear_logits(h, x_e, x_c)
        assert np.array_equal(np.signbit(logits), np.signbit(x_e))
        want = _old_margin_loss(h, x_e, x_c, labels)
        assert _bits(margin_loss(h, x_e, x_c, labels)) == _bits(want)
        # The sign of a tie is visible: another column order gives other bits.
        assert np.signbit(want).any()
        assert _bits(self.next_then_previous(logits, labels)) != _bits(want)

    @pytest.mark.parametrize("seed", range(3))
    def test_linear_logits_and_row_sums(self, seed):
        x_e, x_c, _ = _tied_batch(500, seed)
        normal = RngStream(seed, stream_id=81).generator.normal(size=(500, 3))
        scaled = normal * 10.0 ** RngStream(seed, stream_id=82).generator.integers(
            -8, 8, size=(500, 3))
        for block in (x_c, normal, scaled):
            assert _bits(_row_reduce(np.add, block)) == _bits(block.sum(axis=1))
            for h in HYPOTHESES:
                assert (_bits(linear_logits(h, x_e, block))
                        == _bits(_old_linear_logits(h, x_e, block)))

    @pytest.mark.parametrize("eps", [0.0, 0.2, 0.45])
    def test_adversarial_batch_on_tied_rows(self, eps):
        x_e, x_c, labels = _tied_batch(300, 5)
        batch = SyntheticBatch(x_e, x_c, labels)
        p = SyntheticParams(eps=eps, **DEFAULTS)
        got, want = adversarial_batch(p, batch), _old_adversarial_batch(p, batch)
        assert _bits(got.x_e) == _bits(want.x_e) and _bits(got.x_c) == _bits(want.x_c)

    @pytest.mark.parametrize("eps, beta", [(0.0, 0.0), (0.0, 0.2), (0.15, 0.0),
                                           (0.2, 0.1), (0.3, 0.3)])
    def test_sampled_objectives_and_coefficients(self, eps, beta):
        p = SyntheticParams(eps=eps, beta=beta, **DEFAULTS)
        stream = RngStream(9, stream_id=83)
        for h in HYPOTHESES:
            assert (_bits(ls_margin_samples(p, h, 3_000, stream))
                    == _bits(_old_ls_margin_samples(p, h, 3_000, stream)))
        assert (_bits(frozen_linear_coefficients(p, 3_000, stream))
                == _bits(_old_frozen_linear_coefficients(p, 3_000, stream)))

    def test_sampled_objectives_on_tied_rows(self, monkeypatch):
        # The sampled helpers fed a tied batch in place of a fresh draw.
        x_e, x_c, labels = _tied_batch(900, 6)
        monkeypatch.setattr(synthetic, "sample_mixed",
                            lambda params, n, rng: SyntheticBatch(x_e, x_c, labels))
        for eps, beta in ((0.0, 0.0), (0.0, 0.25), (0.2, 0.1)):
            p = SyntheticParams(eps=eps, beta=beta, **DEFAULTS)
            for h in HYPOTHESES:
                assert (_bits(ls_margin_samples(p, h, 900, RngStream(0)))
                        == _bits(_old_ls_margin_samples(p, h, 900, RngStream(0))))
            assert (_bits(frozen_linear_coefficients(p, 900, RngStream(0)))
                    == _bits(_old_frozen_linear_coefficients(p, 900, RngStream(0))))


class TestOracleGroupDrawsOnce:
    """The oracle check group draws its frozen sample set once and derives
    every radius's coefficients from it."""

    BASE = SyntheticParams(mu=1.2, sigma=0.9, lam=0.4)
    ONE_HOT = next(case for check, case in synthetic._CHECK_GROUPS
                   if check is synthetic._oracle_minimizers)

    def run_group(self, monkeypatch, seed, n):
        draws, coefficients = [], []
        real_sample_mixed = synthetic.sample_mixed
        real_oracle = synthetic.projected_gd_oracle

        def counted(*args):
            draws.append(args)
            return real_sample_mixed(*args)

        def recorded(coeff, lam, steps):
            coefficients.append(coeff)
            return real_oracle(coeff, lam, steps=steps)

        monkeypatch.setattr(synthetic, "sample_mixed", counted)
        monkeypatch.setattr(synthetic, "projected_gd_oracle", recorded)
        records = list(synthetic._oracle_minimizers(self.BASE, seed, n, 50, self.ONE_HOT))
        monkeypatch.undo()
        return records, draws, coefficients

    def test_one_sample_mixed_call(self, monkeypatch):
        records, draws, coefficients = self.run_group(monkeypatch, 3, 2_000)
        assert len(draws) == 1 and len(coefficients) == 6
        assert len({r.params["eps"] for r in records}) == 6

    @pytest.mark.parametrize("seed", [0, 3])
    def test_each_radius_gets_the_frozen_coefficients_of_the_group_stream(
            self, monkeypatch, seed):
        records, _, coefficients = self.run_group(monkeypatch, seed, 2_000)
        radii = [r.params["eps"] for r in records if r.name == "oracle_w1"]
        assert len(radii) == 6
        for eps, coeff in zip(radii, coefficients):
            p = SyntheticParams(mu=self.BASE.mu, sigma=self.BASE.sigma,
                                lam=self.BASE.lam, eps=eps)
            want = frozen_linear_coefficients(p, 2_000, RngStream(seed).split(2))
            assert _bits(coeff) == _bits(want)

    def test_an_empty_sample_set_raises_the_draw_error(self, monkeypatch):
        with pytest.raises(ValueError, match="^n_samples must be at least 1, got 0$"):
            self.run_group(monkeypatch, 0, 0)
