"""End-to-end acceptance checks.

Eleven numbered criteria gate a release.  Each criterion is one test that
prints a single ``criterion NN ...: PASS``/``FAIL`` line (and asserts the
same condition), so a verbose test run doubles as the acceptance report.

Criteria 7, 8, 9 and 11 share one module-scoped training grid: twelve
60-epoch adversarial runs on the default planted dataset (three radii and
three seeds for plain adversarial training, three seeds for the smoothed
variant at the largest radius) plus one single-step-attack run.  The grid
takes roughly two minutes of CPU, spread by ``train_many`` over the usable
cores; everything else in this file is fast.

Criterion 9 is a known-failing check at this scale; see README.md
("Known failing acceptance check") for the measurements behind it.  The
test states the requirement faithfully and is expected to fail.
"""

import math
import statistics
import time
from dataclasses import replace

import numpy as np
import pytest

from crossfeat.attack import AttackConfig, pgd
from crossfeat.attribution import cas, class_attribution_matrix, instance_cas_matrix
from crossfeat.data import Dataset, PlantedSpec, generate_planted
from crossfeat.model import (Classifier, CrossEntropy, Distillation, backward, features,
                             forward)
from crossfeat.numerics import RngStream
from crossfeat.synthetic import (LinearHypothesis, SyntheticParams, collapse_radius,
                                 frozen_linear_coefficients, linear_classifier,
                                 margin_loss, max_gauss_mean_mc,
                                 optimal_weights, pair_margin_mc, pair_margin_prob,
                                 projected_gd_oracle, sample, worst_case_delta)
from crossfeat.training import EpochRow, TrainConfig, detect_collapse, train_many


def _report(number: int, label: str, ok: bool, detail: str = "") -> None:
    line = f"criterion {number:02d} ({label}): {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" -- {detail}"
    print(line)
    assert ok, line


def _jitter(model: Classifier, rng: RngStream, scale: float = 0.05) -> None:
    """Perturb every parameter so no preactivation sits exactly on the ReLU
    kink (zero-initialized biases put dead samples there, where central
    differences and the one-sided analytic gradient legitimately disagree)."""
    gen = rng.generator
    for _, arr in model.param_items():
        arr += gen.normal(0.0, scale, size=arr.shape)


# ---------------------------------------------------------------------------
# Criterion 1: the frozen-sample projected-GD oracle recovers the closed-form
# optimal weights of the regularized worst-case objective at every radius.
# ---------------------------------------------------------------------------


class TestCriterion01:
    EPS_GRID = (0.05, 0.10, 0.15, 0.20, 0.30, 0.40)

    def test_criterion_01_oracle_recovers_closed_form_weights(self):
        t0 = time.monotonic()
        lam = 0.1
        root = RngStream(101)
        problems = []
        for k, eps in enumerate(self.EPS_GRID):
            params = SyntheticParams(mu=1.0, sigma=math.sqrt(math.pi) / 2.0,
                                     lam=lam, eps=eps)
            coeff = frozen_linear_coefficients(params, 200_000, root.split(k))
            est = projected_gd_oracle(coeff, lam)
            w1_star = (params.mu - 2.0 * eps) / lam
            if abs(est.w1 - w1_star) > 0.05 * w1_star:
                problems.append(f"eps={eps}: w1 {est.w1:.4f} vs {w1_star:.4f}")
            if eps < 0.25:
                w2_star = (params.mu - 2.0 * eps - params.sigma_term) / lam
                if abs(est.w2 - w2_star) > 0.05 * w2_star:
                    problems.append(f"eps={eps}: w2 {est.w2:.4f} vs {w2_star:.4f}")
            else:
                if not est.w2 < 0.02 * params.mu / lam:
                    problems.append(f"eps={eps}: w2 {est.w2:.4f} not collapsed")
        elapsed = time.monotonic() - t0
        if elapsed >= 120.0:
            problems.append(f"took {elapsed:.0f}s (budget 120s)")
        _report(1, "projected-GD oracle vs closed-form weights",
                not problems, "; ".join(problems) or f"{elapsed:.1f}s")


# ---------------------------------------------------------------------------
# Criterion 2: the pairwise margin probability is nondecreasing in the
# cross-class weight ratio, matches Monte Carlo, and hits two spot values.
# ---------------------------------------------------------------------------


class TestCriterion02:
    # mu - 2 eps = 0.5 and sigma = 0.5, so w = (1, 0) gives Phi(1) and
    # w = (1, 1) gives Phi(sqrt(2)).
    PARAMS = SyntheticParams(mu=1.0, sigma=0.5, lam=1.0, eps=0.25)
    RATIOS = tuple(i / 10.0 for i in range(11))

    def test_criterion_02_pair_margin_monotone_and_matches_mc(self):
        closed = [pair_margin_prob(self.PARAMS, LinearHypothesis(1.0, t))
                  for t in self.RATIOS]
        problems = []
        for a, b in zip(closed, closed[1:]):
            if b < a:  # zero tolerance
                problems.append(f"not monotone: {a!r} > {b!r}")
        if abs(closed[0] - 0.841345) > 1e-6:
            problems.append(f"spot Phi(1): {closed[0]:.8f}")
        if abs(closed[-1] - 0.921350) > 1e-6:
            problems.append(f"spot Phi(sqrt(2)): {closed[-1]:.8f}")
        root = RngStream(202)
        n = 1_000_000
        for k, (t, p) in enumerate(zip(self.RATIOS, closed)):
            mc = pair_margin_mc(self.PARAMS, LinearHypothesis(1.0, t), n, root.split(k))
            se = math.sqrt(p * (1.0 - p) / n)
            if abs(mc - p) > 3.0 * se:
                problems.append(f"mc at ratio {t}: {mc:.6f} vs {p:.6f} (3se={3 * se:.2g})")
        _report(2, "pair margin probability: monotone, spot values, MC",
                not problems, "; ".join(problems))


# ---------------------------------------------------------------------------
# Criterion 3: label smoothing raises the collapse radius and shifts the
# cross-class weight by exactly beta * (2 eps + sigma/sqrt(pi)) / lam.
# ---------------------------------------------------------------------------


class TestCriterion03:
    BETAS = (0.1, 0.2, 0.3)

    def test_criterion_03_smoothing_raises_collapse_radius(self):
        base = SyntheticParams()
        e0 = collapse_radius(base)
        problems = []
        for beta in self.BETAS:
            e1 = collapse_radius(SyntheticParams(beta=beta))
            if not e1 > e0:
                problems.append(f"beta={beta}: eps1 {e1:.4f} <= eps0 {e0:.4f}")
        for beta in self.BETAS:
            for eps in (0.05, 0.10, 0.15, 0.20):
                params = SyntheticParams(eps=eps, beta=beta)
                w2_plain = optimal_weights(replace(params, beta=0.0)).w2
                w2_smooth = optimal_weights(params).w2
                if w2_plain <= 0 or w2_smooth <= 0:
                    continue
                surplus = beta * (2.0 * eps + params.sigma_term) / params.lam
                if abs((w2_smooth - w2_plain) - surplus) > 1e-12:
                    problems.append(f"beta={beta} eps={eps}: surplus identity off")
        root = RngStream(303)
        for k, beta in enumerate(self.BETAS):
            params = SyntheticParams(eps=0.2, beta=beta)
            coeff = frozen_linear_coefficients(params, 200_000, root.split(k))
            est = projected_gd_oracle(coeff, params.lam)
            target = optimal_weights(params).w2
            if abs(est.w2 - target) > 0.05 * target:
                problems.append(f"beta={beta}: oracle w2 {est.w2:.4f} vs {target:.4f}")
        _report(3, "smoothed objective: radius shift, weight surplus, oracle",
                not problems, "; ".join(problems))


# ---------------------------------------------------------------------------
# Criterion 4: E[max(X, Y)] for independent standard normals is 1/sqrt(pi).
# ---------------------------------------------------------------------------


class TestCriterion04:
    def test_criterion_04_max_gaussian_mean(self):
        mean, se = max_gauss_mean_mc(1_000_000, RngStream(404))
        target = 1.0 / math.sqrt(math.pi)
        gap = abs(mean - target)
        _report(4, "E[max of two standard normals] = 1/sqrt(pi)",
                gap <= 3.0 * se, f"{mean:.6f} vs {target:.6f}, 3se={3 * se:.2g}")


# ---------------------------------------------------------------------------
# Criterion 5: the analytic worst-case perturbation dominates random search,
# and 10-step projected gradient ascent reaches its loss value.
# ---------------------------------------------------------------------------


class TestCriterion05:
    def test_criterion_05_analytic_delta_dominates_and_pgd_matches(self):
        root = RngStream(505)
        gen = root.split(0).generator
        violations = 0
        worst_gap = 0.0
        for k in range(100):
            eps = float(gen.uniform(0.02, 0.48))
            params = SyntheticParams(eps=eps)
            hyp = LinearHypothesis(float(gen.uniform(0.05, 2.0)),
                                   float(gen.uniform(0.0, 2.0)))
            class_i = int(gen.integers(1, 4))
            batch = sample(params, class_i, 1, root.split(k + 1))
            delta = worst_case_delta(params, class_i=class_i)
            analytic = float(margin_loss(hyp, batch.x_e + delta[:3],
                                         batch.x_c + delta[3:], batch.labels)[0])
            rand = gen.uniform(-eps, eps, size=(10_000, 6))
            rand_vals = margin_loss(hyp, batch.x_e + rand[:, :3],
                                    batch.x_c + rand[:, 3:],
                                    np.full(10_000, class_i))
            if float(rand_vals.max()) > analytic + 1e-12:
                violations += 1
            adv = pgd(linear_classifier(hyp), batch.inputs(),
                      np.array([class_i - 1]),
                      AttackConfig(norm="linf", epsilon=eps, steps=10))
            attacked = float(margin_loss(hyp, adv[:, :3], adv[:, 3:],
                                         batch.labels)[0])
            worst_gap = max(worst_gap, abs(attacked - analytic))
        ok = violations == 0 and worst_gap <= 1e-6
        _report(5, "analytic perturbation dominates; PGD reaches its value",
                ok, f"violations={violations}, worst pgd gap={worst_gap:.2e}")


# ---------------------------------------------------------------------------
# Criterion 6: gradients agree with finite differences on random small MLPs,
# and attribution entries sum to the class logit for bias-free heads.
# ---------------------------------------------------------------------------


class TestCriterion06:
    @staticmethod
    def _numeric_entry(loss_fn, arr: np.ndarray, flat_index: int,
                       h: float = 1e-5) -> float:
        flat = arr.reshape(-1)
        orig = flat[flat_index]
        flat[flat_index] = orig + h
        up = loss_fn()
        flat[flat_index] = orig - h
        down = loss_fn()
        flat[flat_index] = orig
        return (up - down) / (2.0 * h)

    def test_criterion_06_finite_differences_and_attribution_sums(self):
        problems = []
        for k in range(100):
            stream = RngStream(600 + k)
            gen = stream.split(0).generator
            in_dim = int(gen.integers(2, 6))
            classes = int(gen.integers(2, 5))
            widths = tuple(int(gen.integers(3, 7))
                           for _ in range(int(gen.integers(1, 3))))
            model = Classifier.create(in_dim, widths, classes, stream.split(1))
            _jitter(model, stream.split(2))
            n = int(gen.integers(1, 5))
            x = stream.split(3).generator.normal(size=(n, in_dim))
            y = stream.split(4).generator.integers(0, classes, size=n)
            if k % 4 == 0:
                spec = CrossEntropy()
            elif k % 4 == 1:
                spec = CrossEntropy(beta=0.2)
            else:
                teacher = Classifier.create(in_dim, widths, classes, stream.split(5))
                _jitter(teacher, stream.split(6))
                spec = (Distillation(teacher, temperature=2.0, mix=1.0) if k % 4 == 2
                        else Distillation(teacher, temperature=3.0, mix=0.3))
            bundle = backward(model, x, y, spec)
            arrays = dict(model.param_items())
            arrays["inputs"] = x
            names = sorted(arrays)
            name = names[int(gen.integers(len(names)))]
            arr = arrays[name]
            idx = int(gen.integers(arr.size))
            analytic = (bundle.inputs if name == "inputs"
                        else bundle.params[name]).reshape(-1)[idx]
            numeric = self._numeric_entry(
                lambda: backward(model, x, y, spec, include_params=False).loss,
                arr, idx)
            tol = max(1e-4 * abs(analytic), 1e-6)
            if abs(numeric - analytic) > tol:
                problems.append(f"check {k} ({name}[{idx}]): "
                                f"{numeric:.3e} vs {analytic:.3e}")
        stream = RngStream(606)
        model = Classifier.create(7, (6, 5), 4, stream.split(0))
        _jitter(model, stream.split(1))
        x = stream.split(2).generator.normal(size=(9, 7))
        logits = forward(model, x)
        for c in range(4):
            sums = (features(model, x) * model.head.weights[c]).sum(axis=1)
            gap = float(np.abs(sums - logits[:, c]).max())
            if gap > 1e-10:
                problems.append(f"attribution sum, class {c}: gap {gap:.2e}")
        _report(6, "finite-difference gradients; attributions sum to logit",
                not problems, "; ".join(problems[:4]))


# ---------------------------------------------------------------------------
# Shared training grid for criteria 7, 8, 9 and 11.
# ---------------------------------------------------------------------------

GRID_EPS = (0.2, 0.3, 0.4)
GRID_SEEDS = (1, 2, 3)


@pytest.fixture(scope="module")
def grid():
    spec = PlantedSpec()
    train_set, test_set = generate_planted(spec)
    keys, jobs = [], []

    def add(mode: str, eps: float, seed: int, beta: float = 0.0) -> None:
        model = Classifier.create(spec.total_dim, (32, 32), 4,
                                  RngStream(seed).split(0))
        cfg = TrainConfig(epochs=60,
                          attack=AttackConfig(norm="linf", epsilon=eps, steps=10),
                          mode=mode, beta=beta, seed=seed)
        keys.append((mode, eps, seed))
        jobs.append((model, cfg))

    for eps in GRID_EPS:
        for seed in GRID_SEEDS:
            add("at", eps, seed, beta=0.2)
    for seed in GRID_SEEDS:
        add("at_ls", 0.4, seed, beta=0.2)
    add("fast_at", 0.4, 1)
    t0 = time.monotonic()
    records = train_many(jobs, train_set, test_set)
    # The runs share the pool, so each one took at most the whole call.
    secs = time.monotonic() - t0
    runs = {}
    for key, record in zip(keys, records):
        if isinstance(record, Exception):
            raise record
        runs[key] = {
            "record": record,
            "secs": secs,
            "best": record.rows[record.best_epoch],
            "last": record.rows[-1],
        }
    return runs


def _median_diff(runs, mode, eps, field, flip=False):
    diffs = []
    for seed in GRID_SEEDS:
        best = runs[(mode, eps, seed)]["best"]
        last = runs[(mode, eps, seed)]["last"]
        d = getattr(best, field) - getattr(last, field)
        diffs.append(-d if flip else d)
    return statistics.median(diffs)


class TestCriterion07:
    def test_criterion_07_early_stopping_beats_final_epoch(self, grid):
        ra = _median_diff(grid, "at", 0.4, "test_robust_acc")
        cs = _median_diff(grid, "at", 0.4, "cas")
        # last-minus-best: overfitting would drive this above zero even as
        # the training objective keeps falling.
        loss = _median_diff(grid, "at", 0.4, "train_robust_loss", flip=True)
        secs = [grid[("at", 0.4, seed)]["secs"] for seed in GRID_SEEDS]
        ok = ra > 0 and cs > 0 and loss <= 0 and all(s < 600 for s in secs)
        _report(7, "per-seed medians: best checkpoint beats final epoch",
                ok, f"median diffs: robust acc {ra:+.4f}, similarity {cs:+.4f}, "
                    f"train loss (last-best) {loss:+.4f}; "
                    f"grid wall {max(secs):.0f}s, an upper bound per seed")


class TestCriterion08:
    def test_criterion_08_similarity_drop_grows_with_radius(self, grid):
        meds = [_median_diff(grid, "at", eps, "cas") for eps in GRID_EPS]
        ok = meds[0] <= meds[1] <= meds[2]
        _report(8, "median similarity drop nondecreasing in radius",
                ok, "medians " + ", ".join(f"{m:.4f}" for m in meds))


class TestCriterion09:
    def test_criterion_09_smoothing_preserves_similarity_and_accuracy(self, grid):
        cas_ls = statistics.median(
            grid[("at_ls", 0.4, s)]["last"].cas for s in GRID_SEEDS)
        cas_at = statistics.median(
            grid[("at", 0.4, s)]["last"].cas for s in GRID_SEEDS)
        ra_ls = statistics.median(
            grid[("at_ls", 0.4, s)]["last"].test_robust_acc for s in GRID_SEEDS)
        ra_at = statistics.median(
            grid[("at", 0.4, s)]["last"].test_robust_acc for s in GRID_SEEDS)
        ok = cas_ls > cas_at and ra_ls >= ra_at
        _report(9, "label smoothing keeps similarity and robust accuracy",
                ok, f"final similarity: smoothed {cas_ls:.4f} vs plain {cas_at:.4f}; "
                    f"final robust acc: smoothed {ra_ls:.4f} vs plain {ra_at:.4f}. "
                    "At this scale uniform off-class smoothing prunes the "
                    "shared-feature weights instead of preserving them; see "
                    "README.md, 'Known failing acceptance check'.")


# ---------------------------------------------------------------------------
# Criterion 10: attribution matrices are permutation-equivariant and scale-
# invariant, and the instance-level score matches an exhaustive oracle.
# ---------------------------------------------------------------------------


def _cosine(a, b) -> float:
    """The oracle's own cosine, in Python floats: 0.0 if either vector is zero."""
    norm_a, norm_b = math.hypot(*a), math.hypot(*b)
    if norm_a == 0.0 or norm_b == 0.0:
        return 0.0
    return math.fsum(x * y for x, y in zip(a, b, strict=True)) / (norm_a * norm_b)


class TestCriterion10:
    @staticmethod
    def _toy(seed: int, classes: int, dim: int, per_class: int,
             widths=(8,)) -> tuple[Classifier, Dataset]:
        stream = RngStream(seed)
        model = Classifier.create(dim, widths, classes, stream.split(0))
        _jitter(model, stream.split(1))
        inputs = stream.split(2).generator.normal(size=(classes * per_class, dim))
        labels = np.repeat(np.arange(classes), per_class)
        return model, Dataset(inputs, labels, classes)

    def test_criterion_10_equivariance_and_instance_oracle(self):
        problems = []
        model, ds = self._toy(1010, classes=4, dim=9, per_class=10)
        base = class_attribution_matrix(model, ds)
        perm = np.array([2, 0, 3, 1])
        permuted = model.copy()
        permuted.head.weights[perm] = model.head.weights
        moved = class_attribution_matrix(permuted, Dataset(ds.inputs,
                                                           perm[ds.labels], 4))
        gap = float(np.abs(moved[np.ix_(perm, perm)] - base).max())
        if gap > 1e-12:
            problems.append(f"permutation gap {gap:.2e}")
        scaled = model.copy()
        scaled.head.weights[1] *= 7.5
        gap = float(np.abs(class_attribution_matrix(scaled, ds) - base).max())
        if gap > 1e-12:
            problems.append(f"row-scale gap {gap:.2e}")
        scaled_all = model.copy()
        scaled_all.head.weights *= 0.3
        mat_all = class_attribution_matrix(scaled_all, ds)
        gap = float(np.abs(mat_all - base).max())
        if gap > 1e-12:
            problems.append(f"global-scale gap {gap:.2e}")
        if abs(cas(mat_all) - cas(base)) > 1e-12:
            problems.append("score not scale-invariant")

        model, ds = self._toy(1011, classes=3, dim=6, per_class=5, widths=(5,))
        mat, score = instance_cas_matrix(model, ds)
        vecs = {c: features(model, ds.inputs[ds.labels == c]) * model.head.weights[c]
                for c in range(3)}
        oracle = np.zeros((3, 3))
        for i in range(3):
            for j in range(3):
                per_sample = []
                for a in vecs[i]:
                    per_sample.append(max(_cosine(a, b) for b in vecs[j]))
                oracle[i, j] = float(np.mean(per_sample))
        gap = float(np.abs(mat - oracle).max())
        if gap > 1e-12:
            problems.append(f"instance-matrix gap {gap:.2e}")
        if abs(score - cas(oracle)) > 1e-12:
            problems.append(f"instance score {score:.12f} vs {cas(oracle):.12f}")
        _report(10, "attribution equivariances and instance-level oracle",
                not problems, "; ".join(problems))


# ---------------------------------------------------------------------------
# Criterion 11: single-step adversarial training runs end to end, and the
# robust-accuracy collapse signature is detected and reported when present.
# ---------------------------------------------------------------------------


class TestCriterion11:
    def test_criterion_11_fast_training_and_collapse_detection(self, grid):
        record = grid[("fast_at", 0.4, 1)]["record"]
        rows = record.rows
        problems = []
        if len(rows) != 60:
            problems.append(f"run did not complete: {len(rows)} epochs")
        info = detect_collapse(rows)
        # Recompute the signature independently: robust accuracy exceeded
        # 0.2 at some epoch and later fell below 0.05.
        exceeded = None
        collapsed = None
        for row in rows:
            if exceeded is None:
                if row.test_robust_acc > 0.2:
                    exceeded = row.epoch
            elif row.test_robust_acc < 0.05:
                collapsed = row.epoch
                break
        if info["occurred"] != (collapsed is not None):
            problems.append(f"detector disagrees with trajectory: {info}")
        if info["peak_epoch"] != exceeded or info["collapse_epoch"] != collapsed:
            problems.append(f"detector epochs {info} vs ({exceeded}, {collapsed})")
        outcome = record.outcome()
        if info["occurred"] and not outcome["cas_last"] < outcome["cas_best"]:
            problems.append("collapse flagged but similarity did not drop")
        # Detection itself must be correct when the signature does occur:
        # a constructed trajectory that rises past 0.2 and falls below 0.05.
        path = [(0.10, 0.5), (0.30, 1.4), (0.55, 1.9),
                (0.30, 1.2), (0.04, 0.6), (0.02, 0.4)]
        fake = [EpochRow(epoch=e, train_robust_loss=0.5, train_robust_acc=0.5,
                         test_clean_acc=0.9, test_robust_acc=ra, cas=c)
                for e, (ra, c) in enumerate(path)]
        finfo = detect_collapse(fake)
        expected = {"occurred": True, "peak_epoch": 1, "collapse_epoch": 4}
        if finfo != expected:
            problems.append(f"constructed signature misreported: {finfo}")
        occurred = "occurred" if info["occurred"] else "did not occur"
        _report(11, "single-step training and collapse reporting",
                not problems,
                "; ".join(problems) or f"collapse {occurred} in this run")
