"""Three-class planted-feature model: closed-form robust training theory plus
Monte-Carlo oracles that check every formula against direct simulation.

The data model lives in R^6, written (x_E | x_C).  A sample of class
i in {1, 2, 3} has x_{E,i} ~ N(mu, sigma^2) and x_{C,j} ~ N(mu, sigma^2) for
the two j != i; every other coordinate is exactly zero.  The x_E block
carries class-specific evidence, the x_C block carries evidence shared
between the other two classes (coordinate j of x_C is populated by both
classes other than j).

The hypothesis class is linear with two tied nonnegative weights:

    f_w(x)_i = w1 * x_{E,i} + w2 * (x_{C,j1} + x_{C,j2}),   {j1, j2} = {1,2,3} \\ {i}

Training objective (label smoothing beta, l-inf adversary of radius eps,
ridge penalty lam/2 * ||w||^2):

    L(w) = E_i E_x [ (1 - beta) * max_{|delta|_inf <= eps} ( max_{j != i} f(x+delta)_j
                                                             - f(x+delta)_i )
                     - beta/2 * sum_{j != i} f(x+delta)_j ]
           + lam/2 * (w1^2 + w2^2)

with the smoothing term taken at the margin-maximizing delta.  For w >= 0
that delta is an explicit corner of the cube (:func:`worst_case_delta`),
which makes the objective linear in w with closed-form coefficients.  One
family of formulas in beta follows: the loss, its minimizer, the radius
where the cross-class weight collapses to zero, and pairwise margin
probabilities.  beta = 0 is one-hot training; every formula then reduces to
its one-hot form.  Each has an MC oracle here that estimates the same
quantity from raw samples without using the formula under test;
:func:`run_verification` runs the independent check groups in parallel.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, replace

import numpy as np

from .model import Affine, Classifier
from .numerics import (RngStream, _require_number, _row_reduce, _run_jobs, as_array,
                       std_normal_cdf)

__all__ = [
    "CheckRecord",
    "GroupVerification",
    "LinearHypothesis",
    "SyntheticBatch",
    "SyntheticParams",
    "adversarial_batch",
    "collapse_radius",
    "frozen_linear_coefficients",
    "linear_classifier",
    "linear_logits",
    "ls_margin_samples",
    "margin_loss",
    "max_gauss_mean_mc",
    "optimal_weights",
    "pair_margin_prob",
    "projected_gd_oracle",
    "replicate_groups",
    "robust_loss_closed",
    "robust_margin_samples",
    "run_verification",
    "sample",
    "sample_mixed",
    "worst_case_delta",
]

CLASSES = (1, 2, 3)


@dataclass(frozen=True)
class SyntheticParams:
    """Parameters of the planted three-class model.

    Constraints enforced here: mu > 0, 0 < sigma < sqrt(pi) * mu,
    lam > 0, 0 <= eps < mu / 2, 0 <= beta < 1/3.
    """

    mu: float = 1.0
    sigma: float = math.sqrt(math.pi) / 2.0
    lam: float = 0.1
    eps: float = 0.0
    beta: float = 0.0

    def __post_init__(self) -> None:
        for name in ("mu", "sigma", "lam", "eps", "beta"):
            _require_number(name, getattr(self, name))
        if self.mu <= 0:
            raise ValueError(f"mu must be positive, got {self.mu}")
        if self.sigma <= 0:
            raise ValueError(f"sigma must be positive, got {self.sigma}")
        if self.sigma >= math.sqrt(math.pi) * self.mu:
            raise ValueError(
                f"sigma must be below sqrt(pi)*mu = {math.sqrt(math.pi) * self.mu:.6g}, "
                f"got {self.sigma}"
            )
        if not (0.0 <= self.eps < self.mu / 2.0):
            raise ValueError(f"eps must lie in [0, mu/2) = [0, {self.mu / 2}), got {self.eps}")
        if self.lam <= 0:
            raise ValueError(f"lam must be positive, got {self.lam}")
        if not (0.0 <= self.beta < 1.0 / 3.0):
            raise ValueError(f"beta must lie in [0, 1/3), got {self.beta}")

    @property
    def sigma_term(self) -> float:
        """sigma / sqrt(pi): the mean of the larger of two N(0, sigma^2) draws."""
        return self.sigma / math.sqrt(math.pi)


@dataclass(frozen=True)
class LinearHypothesis:
    """Tied-weight linear scorer: w1 on own-class evidence, w2 on shared."""

    w1: float
    w2: float

    def __post_init__(self) -> None:
        if self.w1 < 0 or self.w2 < 0:
            raise ValueError(f"weights must be non-negative, got ({self.w1}, {self.w2})")


@dataclass
class SyntheticBatch:
    """A batch of samples stored columnwise: x_e, x_c are (n, 3), labels in {1,2,3}.

    Construction rejects any other shape or label, and holds x_e and x_c as
    C-ordered float64 arrays (the given ones when they already are).
    """

    x_e: np.ndarray
    x_c: np.ndarray
    labels: np.ndarray

    def __post_init__(self) -> None:
        labels = self.labels = np.asarray(self.labels)
        if labels.ndim != 1 or labels.dtype.kind not in "iu" or (
                len(labels) and not (labels.min() >= 1 and labels.max() <= 3)):
            raise ValueError(f"labels must be a 1-D integer array with entries in {CLASSES}")
        for name in ("x_e", "x_c"):
            block = np.ascontiguousarray(getattr(self, name), dtype=np.float64)
            if block.shape != (len(labels), 3):
                raise ValueError(f"{name} must have shape ({len(labels)}, 3), got {block.shape}")
            setattr(self, name, block)

    def __len__(self) -> int:
        return len(self.labels)

    def inputs(self) -> np.ndarray:
        """Samples as (n, 6) rows in (x_E | x_C) coordinate order."""
        return np.hstack([self.x_e, self.x_c])


def _positions(labels: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # Flat positions, in a C-ordered (n, 3) array, of each row's own column
    # and of its two other columns, the lower one first.  np.maximum and
    # np.minimum of the two others, in this order, select what a reduction
    # along the row selects, signed zeros included.
    idx = labels - 1
    start = np.arange(0, 3 * len(idx), 3)
    return start + idx, start + (idx == 0), start + 2 - (idx == 2)


def _fill_class(params: SyntheticParams, class_i: int, rng: RngStream, rows, n: int,
                x_e: np.ndarray, x_c: np.ndarray) -> None:
    # Draws the populated coordinates of the n ``rows``, all of class
    # ``class_i``, in place: x_E,own first, then the other two x_C in order.
    gen = rng.generator
    x_e[rows, class_i - 1] = gen.normal(params.mu, params.sigma, size=n)
    for j in range(3):
        if j != class_i - 1:
            x_c[rows, j] = gen.normal(params.mu, params.sigma, size=n)


def sample(params: SyntheticParams, class_i: int, n: int, rng: RngStream) -> SyntheticBatch:
    """Draw n samples of one class; off-pattern coordinates are exactly zero."""
    if class_i not in CLASSES:
        raise ValueError(f"class must be one of {CLASSES}, got {class_i}")
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    x_e = np.zeros((n, 3))
    x_c = np.zeros((n, 3))
    _fill_class(params, class_i, rng, slice(None), n, x_e, x_c)
    return SyntheticBatch(x_e, x_c, np.full(n, class_i, dtype=np.int64))


def sample_mixed(params: SyntheticParams, n: int, rng: RngStream) -> SyntheticBatch:
    """Draw n samples with uniformly random labels (one stream per class).

    The rows of class i hold, in order, what ``sample(params, i, count,
    rng.split(i))`` would draw; they are filled in place."""
    labels = rng.split(0).generator.integers(1, 4, size=n)
    x_e = np.zeros((n, 3))
    x_c = np.zeros((n, 3))
    for class_i in CLASSES:
        rows = np.flatnonzero(labels == class_i)
        _fill_class(params, class_i, rng.split(class_i), rows, len(rows), x_e, x_c)
    return SyntheticBatch(x_e, x_c, labels.astype(np.int64))


def linear_logits(hypothesis: LinearHypothesis, x_e: np.ndarray, x_c: np.ndarray) -> np.ndarray:
    """All three logits for a batch, shape (n, 3)."""
    return hypothesis.w1 * x_e + hypothesis.w2 * (_row_reduce(np.add, x_c)[:, None] - x_c)


def linear_classifier(hypothesis: LinearHypothesis) -> Classifier:
    """The same scorer as a bias-free linear Classifier over (x_E | x_C) in R^6."""
    own = np.eye(3, dtype=bool)
    head = np.hstack([np.where(own, hypothesis.w1, 0.0), np.where(own, 0.0, hypothesis.w2)])
    return Classifier(hidden=[], head=Affine(head, None))


def worst_case_delta(params: SyntheticParams, class_i: int = 1) -> np.ndarray:
    """Margin-maximizing l-inf perturbation for a class-``class_i`` sample.

    In (delta_E | delta_C) order: -eps on the own-class evidence coordinate,
    +eps on the other classes' evidence coordinates, +eps on the shared
    coordinate indexed by the own class, -eps on the other shared
    coordinates.  For class 1: (-eps, eps, eps, eps, -eps, -eps).  Optimal
    for every nonnegative hypothesis.
    """
    if class_i not in CLASSES:
        raise ValueError(f"class must be one of {CLASSES}, got {class_i}")
    delta_e = np.where(np.arange(3) == class_i - 1, -params.eps, params.eps)
    return np.concatenate([delta_e, -delta_e])


def margin_loss(hypothesis: LinearHypothesis, x_e: np.ndarray, x_c: np.ndarray,
                labels: np.ndarray) -> np.ndarray:
    """Per-sample margin loss max_{j != label} f_j - f_label, shape (n,).

    The arguments must form a :class:`SyntheticBatch`."""
    return _margins(hypothesis, SyntheticBatch(x_e, x_c, labels))[0]


def _margins(hypothesis: LinearHypothesis, batch: SyntheticBatch):
    # The batch's margin losses, its logits and each sample's own logit.
    logits = linear_logits(hypothesis, batch.x_e, batch.x_c)
    own, lower, upper = _positions(batch.labels)
    own_logit = np.take(logits, own)
    return (np.maximum(np.take(logits, lower), np.take(logits, upper)) - own_logit,
            logits, own_logit)


def adversarial_batch(params: SyntheticParams, batch: SyntheticBatch) -> SyntheticBatch:
    """Apply each sample's analytic worst-case perturbation in place of delta search.

    Row for row this is the sample plus ``worst_case_delta`` of its class:
    the own column moves by -eps in x_E and +eps in x_C, every other column
    the opposite way (x - eps is x + (-eps) bit for bit)."""
    own = _positions(batch.labels)[0]
    x_e = batch.x_e + params.eps
    x_e.ravel()[own] = np.take(batch.x_e, own) - params.eps
    x_c = batch.x_c - params.eps
    x_c.ravel()[own] = np.take(batch.x_c, own) + params.eps
    return SyntheticBatch(x_e, x_c, batch.labels.copy())


# ---------------------------------------------------------------------------
# Robust loss: Monte-Carlo and closed form
# ---------------------------------------------------------------------------


def robust_margin_samples(params: SyntheticParams, hypothesis: LinearHypothesis,
                          n_samples: int, rng: RngStream) -> np.ndarray:
    """Per-sample worst-case margin losses for uniformly-labeled draws."""
    return _margins(hypothesis, adversarial_batch(params, _draw(params, n_samples, rng)))[0]


def ls_margin_samples(params: SyntheticParams, hypothesis: LinearHypothesis,
                      n_samples: int, rng: RngStream) -> np.ndarray:
    """Per-sample smoothed objective: (1-beta) * worst-case margin minus
    beta/2 * sum of the off-class logits, both at the margin-maximizing delta."""
    margins, logits, own_logit = _margins(
        hypothesis, adversarial_batch(params, _draw(params, n_samples, rng)))
    off_sum = _row_reduce(np.add, logits) - own_logit
    return (1.0 - params.beta) * margins - 0.5 * params.beta * off_sum


def _draw(params: SyntheticParams, n_samples: int, rng: RngStream) -> SyntheticBatch:
    # A sample set for the Monte-Carlo oracles, which need at least one sample.
    if n_samples < 1:
        raise ValueError(f"n_samples must be at least 1, got {n_samples}")
    return sample_mixed(params, n_samples, rng)


def robust_loss_closed(params: SyntheticParams, hypothesis: LinearHypothesis) -> float:
    """Closed form of the smoothed robust objective.

    Linear coefficients (derived by expanding the objective at the
    worst-case delta; the off-class logits there have means 2*eps*w1 + ...):

        c1 = (1 - beta) * (2 eps - mu) - beta * eps
        c2 = (2 eps - mu + sigma/sqrt(pi)) - beta * (2 eps + sigma/sqrt(pi))

    The terms are ordered so that at beta = 0 this is the one-hot robust loss
    (2eps - mu) w1 + (2eps - mu + sigma/sqrt(pi)) w2 + lam/2 ||w||^2, bit for bit.
    """
    c1, c2 = _closed_coefficients(params)
    reg = 0.5 * params.lam * (hypothesis.w1 ** 2 + hypothesis.w2 ** 2)
    return c1 * hypothesis.w1 + c2 * hypothesis.w2 + reg


def _closed_coefficients(params: SyntheticParams) -> tuple[float, float]:
    """``(c1, c2)`` of :func:`robust_loss_closed`."""
    beta = params.beta
    return ((1.0 - beta) * (2.0 * params.eps - params.mu) - beta * params.eps,
            (2.0 * params.eps - params.mu + params.sigma_term)
            - beta * (2.0 * params.eps + params.sigma_term))


def optimal_weights(params: SyntheticParams) -> LinearHypothesis:
    """Minimizer of :func:`robust_loss_closed` over w >= 0, max(0, -c / lam)."""
    return LinearHypothesis(*(max(0.0, -c / params.lam) for c in _closed_coefficients(params)))


def collapse_radius(params: SyntheticParams) -> float:
    """Perturbation radius above which the optimal cross-class weight is zero.

    Formula: (mu / (1 - beta) - sigma/sqrt(pi)) / 2, so smoothing moves the
    one-hot radius (mu - sigma/sqrt(pi)) / 2 outward.  For large beta it can
    exceed mu/2, the edge of the admissible radius range: the cross-class
    weight then stays positive throughout that range.
    """
    return 0.5 * (params.mu / (1.0 - params.beta) - params.sigma_term)


# ---------------------------------------------------------------------------
# Projected-gradient-descent oracle on a frozen MC sample set
# ---------------------------------------------------------------------------


def frozen_linear_coefficients(params: SyntheticParams, n_samples: int,
                               rng: RngStream) -> np.ndarray:
    """Per-sample (c1, c2) with objective_s = c1 * w1 + c2 * w2, shape (n, 2).

    At the analytic worst-case delta every off-class logit carries the same
    w1 coefficient (eps), so for any w >= 0 the per-sample worst-case margin
    is linear in w with coefficients independent of w; the same holds for the
    smoothed objective.  This lets a frozen sample set define a deterministic
    convex problem for :func:`projected_gd_oracle`.  The draw reads only mu
    and sigma, so one stream gives the same samples at every eps and beta.
    """
    return _coefficients(params, _draw(params, n_samples, rng))


def _coefficients(params: SyntheticParams, batch: SyntheticBatch) -> np.ndarray:
    # frozen_linear_coefficients of an unattacked batch drawn at params' mu, sigma.
    beta = params.beta
    adv = adversarial_batch(params, batch)
    own, lower, upper = _positions(adv.labels)
    own_c = np.take(adv.x_c, own)
    # Margin coefficients: own-class evidence enters with eps - x_E,own; the
    # shared block contributes x_C,own - min over the other shared coords.
    c1 = params.eps - np.take(adv.x_e, own)
    c2 = own_c - np.minimum(np.take(adv.x_c, lower), np.take(adv.x_c, upper))
    if beta:
        # Off-class logits sum to 2*eps*w1 + (sum(x_C) + x_C,own)*w2: coordinate
        # j != own appears in exactly one off-class logit, own in both.
        off_w2 = _row_reduce(np.add, adv.x_c) + own_c
        c1 = (1.0 - beta) * c1 - beta * params.eps
        c2 = (1.0 - beta) * c2 - 0.5 * beta * off_w2
    return np.column_stack([c1, c2])


def projected_gd_oracle(coefficients: np.ndarray, lam: float,
                        steps: int = 10_000) -> LinearHypothesis:
    """Projected gradient descent on mean(c @ w) + lam/2 ||w||^2 over w >= 0.

    The frozen coefficients make the objective an explicit strongly convex
    quadratic; the iteration is w <- max(0, w - eta * (mean(c) + lam * w))
    from w = 0 with eta = 0.01 / lam.  It acts on each coordinate alone, and
    it stops at an exact fixed point, which every later step would repeat.
    """
    coefficients = as_array(coefficients, name="coefficients")
    if coefficients.ndim != 2 or coefficients.shape[1] != 2 or not len(coefficients):
        raise ValueError(f"coefficients must have shape (n >= 1, 2), got {coefficients.shape}")
    if lam <= 0:
        raise ValueError(f"lam must be positive, got {lam}")
    if steps < 0:
        raise ValueError(f"steps must be non-negative, got {steps}")
    eta = 0.01 / lam
    weights = []
    for mean in coefficients.mean(axis=0).tolist():
        w = 0.0
        for _ in range(steps):
            w_next = max(0.0, w - eta * (mean + lam * w))
            if w_next == w:
                break
            w = w_next
        weights.append(w)
    return LinearHypothesis(*weights)


# ---------------------------------------------------------------------------
# Pairwise margin probability
# ---------------------------------------------------------------------------


def pair_margin_prob(params: SyntheticParams, hypothesis: LinearHypothesis,
                     convention: str = "exact", method: str = "closed",
                     n_samples: int = 1_000_000,
                     rng: RngStream | None = None) -> float:
    """Probability that a class-1 sample's logit beats class 2's under the
    pairwise worst-case perturbation.

    That perturbation shifts x_{E,1} and x_{C,2} by -eps and x_{E,2} and
    x_{C,1} by +eps; the resulting margin is (w1 + w2)(mu - 2 eps) plus
    zero-mean noise.  ``exact`` uses the noise sd implied by the perturbed
    distribution, sigma * sqrt(w1^2 + w2^2); ``paper`` doubles the variance
    of each coordinate difference (noise sd sigma * sqrt(2) * sqrt(...)),
    matching a derivation that treats the perturbed off-class coordinate as
    still stochastic.  The MC method simulates raw samples and arbitrates:
    it matches ``exact``.
    """
    if hypothesis.w1 <= 0:
        raise ValueError(f"pair margin probability requires w1 > 0, got {hypothesis.w1}")
    if convention not in ("exact", "paper"):
        raise ValueError(f"convention must be 'exact' or 'paper', got {convention!r}")
    if method == "closed":
        sd = params.sigma * math.sqrt(hypothesis.w1 ** 2 + hypothesis.w2 ** 2)
        if convention == "paper":
            sd *= math.sqrt(2.0)
        mean = (hypothesis.w1 + hypothesis.w2) * (params.mu - 2.0 * params.eps)
        return std_normal_cdf(mean / sd)
    if method != "mc":
        raise ValueError(f"method must be 'closed' or 'mc', got {method!r}")
    if rng is None:
        raise ValueError("mc method requires an rng stream")
    if n_samples < 1:
        raise ValueError(f"n_samples must be at least 1, got {n_samples}")
    batch = sample(params, 1, n_samples, rng)
    batch.x_e[:, 0] -= params.eps
    batch.x_e[:, 1] += params.eps
    batch.x_c[:, 0] += params.eps
    batch.x_c[:, 1] -= params.eps
    # Columns 0 and 1 of linear_logits, computed alone with the same operations.
    total = _row_reduce(np.add, batch.x_c)
    own, other = (hypothesis.w1 * batch.x_e[:, k] + hypothesis.w2 * (total - batch.x_c[:, k])
                  for k in (0, 1))
    return float(np.mean(own > other))


def max_gauss_mean_mc(n_samples: int, rng: RngStream) -> tuple[float, float]:
    """MC estimate (value, standard error) of E[max(X, Y)], X, Y iid N(0,1).

    The exact value is 1/sqrt(pi)."""
    if n_samples < 2:
        raise ValueError(f"n_samples must be at least 2, got {n_samples}")
    gen = rng.generator
    draws = np.maximum(gen.normal(size=n_samples), gen.normal(size=n_samples))
    return float(draws.mean()), float(draws.std(ddof=1) / math.sqrt(n_samples))


# ---------------------------------------------------------------------------
# Replicated feature groups
# ---------------------------------------------------------------------------


@dataclass
class GroupVerification:
    """Result of checking that the replicated-group objective decouples."""

    joint_oracle: list[LinearHypothesis]
    max_abs_err: float


def replicate_groups(params_list: list[SyntheticParams], n_samples: int = 200_000,
                     rng: RngStream | None = None,
                     steps: int = 10_000) -> GroupVerification:
    """Verify the K-group replicated model optimizes group by group.

    The replicated model concatenates K independent copies of the feature
    block, each with its own (w1^k, w2^k) and its own parameters; the
    extended objective is the sum of per-group regularized margin losses.
    Its gradient in one group's weights involves only that group, so
    projected GD over all 2K weights, with each group's own step size, is
    :func:`projected_gd_oracle` run on each group's frozen MC coefficients.  The check reports the largest
    deviation of those weights from the per-group closed-form optimum.
    """
    params_list = list(params_list)
    if not params_list:
        raise ValueError("need at least one group")
    if rng is None:
        rng = RngStream(0)
    joint = [
        projected_gd_oracle(frozen_linear_coefficients(p, n_samples, rng.split(k)),
                            p.lam, steps=steps)
        for k, p in enumerate(params_list)
    ]
    closed = [optimal_weights(p) for p in params_list]
    max_abs = max(max(abs(h.w1 - c.w1), abs(h.w2 - c.w2)) for h, c in zip(joint, closed))
    return GroupVerification(joint, max_abs)


# ---------------------------------------------------------------------------
# Verification report
# ---------------------------------------------------------------------------


@dataclass
class CheckRecord:
    """One verification record: a named claim, the numbers, and the outcome."""

    name: str
    params: dict
    expected: float | None
    observed: float | None
    tolerance: float | None
    status: str  # pass | fail | boundary | info
    detail: str = ""


def _check(name, params, expected, observed, tolerance, detail="") -> CheckRecord:
    ok = abs(observed - expected) <= tolerance
    return CheckRecord(name, params, float(expected), float(observed),
                       float(tolerance), "pass" if ok else "fail", detail)


def _at(base: SyntheticParams, **kwargs) -> SyntheticParams:
    # The base model's mu, sigma and lam at the radius and smoothing given.
    return SyntheticParams(mu=base.mu, sigma=base.sigma, lam=base.lam, **kwargs)


# Each check yields its records in order for one case and draws only from its
# own ``RngStream(seed).split(k)``, so the (check, case) jobs may run in any
# process.  A check with a single case ignores ``case``.


def _max_gauss_mean(base, seed, mc_samples, oracle_steps, case) -> Iterator[CheckRecord]:
    # E[max of two standard normals] = 1/sqrt(pi).
    value, se = max_gauss_mean_mc(1_000_000, RngStream(seed).split(1))
    yield _check(
        "max_gauss_mean", {"n": 1_000_000}, 1.0 / math.sqrt(math.pi), value,
        3.0 * se, "MC mean of max(X, Y) for X, Y iid N(0,1) vs 1/sqrt(pi)")


def _thresholds(base, seed, mc_samples, oracle_steps, betas) -> Iterator[CheckRecord]:
    # Cross-class weight collapse radius.  At beta = 0, sign(w2*) ==
    # sign(radius - eps) over a radius grid; smoothing at eps = 0.1 mu moves
    # the radius above the one-hot one and adds a surplus to w2*.
    e0 = collapse_radius(_at(base))
    points = ([_at(base, eps=0.1 * base.mu, beta=beta) for beta in betas] if betas[0] else
              [_at(base, eps=(k + 1) / 10.0 * (base.mu / 2.0)) for k in range(9)])
    for p in points:
        w2 = optimal_weights(p).w2
        if p.beta:
            e1 = collapse_radius(p)
            yield CheckRecord(
                "ls_threshold_above", {"beta": p.beta}, e0, e1, None,
                "pass" if e1 > e0 else "fail",
                f"smoothed collapse radius {e1:.6g} vs one-hot {e0:.6g}"
                + (" (exceeds mu/2)" if e1 >= base.mu / 2 else ""))
            surplus = p.beta * (2.0 * p.eps + p.sigma_term) / p.lam
            diff = w2 - optimal_weights(replace(p, beta=0.0)).w2
            yield _check(
                "ls_w2_surplus_identity", {"beta": p.beta, "eps": p.eps},
                surplus, diff, 1e-12,
                "smoothed-minus-plain cross-class weight vs beta(2eps+sigma/sqrt(pi))/lam")
            continue
        gap = e0 - p.eps
        if abs(gap) <= 1e-12:
            yield CheckRecord(
                "threshold_sign", {"eps": p.eps}, 0.0, w2, None, "boundary",
                "probed exactly at the collapse radius")
            continue
        ok = (w2 > 0) == (gap > 0)
        yield CheckRecord(
            "threshold_sign", {"eps": p.eps}, float(gap > 0), float(w2 > 0),
            None, "pass" if ok else "fail",
            f"w2*={w2:.6g}, collapse radius {e0:.6g}")


def _oracle_minimizers(base, seed, mc_samples, oracle_steps, case) -> Iterator[CheckRecord]:
    # Closed-form minimizers vs projected GD on frozen MC samples at one beta
    # and radii in units of mu: the frozen_linear_coefficients of one stream,
    # so one draw serves every radius.
    beta, split, radii = case
    batch = _draw(base, mc_samples, RngStream(seed).split(split))
    scale = base.mu / base.lam
    for eps_val in [f * base.mu for f in radii]:
        p = _at(base, eps=eps_val, beta=beta)
        best = optimal_weights(p)
        got = projected_gd_oracle(_coefficients(p, batch), p.lam, steps=oracle_steps)
        params = {"beta": beta, "eps": eps_val} if beta else {"eps": eps_val}
        detail = ("projected-GD on frozen smoothed MC loss" if beta
                  else "projected-GD on frozen MC loss vs closed form")
        if not beta:  # the smoothed case checks the cross-class weight only
            yield _check("oracle_w1", params, best.w1, got.w1, 0.05 * max(best.w1, 1e-12), detail)
        if beta or best.w2 > 0.05 * scale:
            yield _check("ls_oracle_w2" if beta else "oracle_w2", params, best.w2, got.w2,
                         0.05 * best.w2, detail)
        else:
            ok = got.w2 < 0.02 * scale
            yield CheckRecord(
                "oracle_w2_collapsed", {"eps": eps_val}, 0.0, got.w2,
                0.02 * scale, "pass" if ok else "fail",
                "oracle cross-class weight stays near zero past the collapse radius")


def _loss_values(base, seed, mc_samples, oracle_steps, case) -> Iterator[CheckRecord]:
    # Loss values, closed form vs straight MC, one point per beta and stream
    # split + k: at beta = 0 a random (eps, w), with smoothing eps = 0.2 mu
    # and w = (1, 0.5).  The convention case documents the smoothed w1
    # coefficient: the implemented c1 = (1-b)(2e-mu) - b*e agrees with MC;
    # the variant that flips the sign of the mu term does not.
    betas, split, convention = case
    root = RngStream(seed)
    gen = root.split(3).generator
    for k, beta in enumerate(betas):
        p = _at(base, eps=(0.2 if beta else float(gen.uniform(0.02, 0.48))) * base.mu,
                beta=beta)
        h = (LinearHypothesis(1.0, 0.5) if beta else
             LinearHypothesis(float(gen.uniform(0.0, 2.0)), float(gen.uniform(0.0, 2.0))))
        sampler = ls_margin_samples if beta else robust_margin_samples
        values = sampler(p, h, mc_samples, root.split(split + k))
        mc_val = float(values.mean()) + 0.5 * p.lam * (h.w1 ** 2 + h.w2 ** 2)
        closed = robust_loss_closed(p, h)
        if convention:
            alt = closed + 2.0 * (1.0 - beta) * p.mu * h.w1
            yield CheckRecord(
                "ls_w1_coefficient_convention", {"beta": beta, "eps": p.eps},
                closed, mc_val, None, "info",
                f"|implemented - mc| = {abs(closed - mc_val):.2e}; a sign-flipped "
                f"mu term gives |alt - mc| = {abs(alt - mc_val):.2e}")
            continue
        se = float(values.std(ddof=1) / math.sqrt(len(values)))
        yield _check(
            "ls_loss_mc_vs_closed" if beta else "loss_mc_vs_closed",
            {"beta": beta, "eps": p.eps} if beta else {"eps": p.eps, "w1": h.w1, "w2": h.w2},
            closed, mc_val, 3.0 * se + 1e-12,
            f"closed-form {'smoothed' if beta else 'robust'} loss vs direct MC")


def _delta_dominance(base, seed, mc_samples, oracle_steps, case) -> Iterator[CheckRecord]:
    # Analytic worst-case perturbation dominates random search.
    gen = RngStream(seed).split(4).generator
    violations = 0
    for _ in range(100):
        eps_val = float(gen.uniform(0.02, 0.48)) * base.mu
        p = _at(base, eps=eps_val)
        h = LinearHypothesis(float(gen.uniform(0.0, 2.0)), float(gen.uniform(0.0, 2.0)))
        class_i = int(gen.integers(1, 4))
        one = sample(p, class_i, 1, RngStream(seed, int(gen.integers(0, 2 ** 32))))
        delta = worst_case_delta(p, class_i=class_i)
        best_val = margin_loss(h, one.x_e + delta[:3], one.x_c + delta[3:], one.labels)[0]
        trial = gen.uniform(-p.eps, p.eps, size=(10_000, 6))
        vals = margin_loss(h, one.x_e + trial[:, :3], one.x_c + trial[:, 3:],
                           np.full(10_000, class_i, dtype=np.int64))
        violations += int((vals > best_val + 1e-12).sum())
    yield CheckRecord(
        "delta_dominance", {"instances": 100, "trials": 10_000}, 0.0,
        float(violations), 0.0, "pass" if violations == 0 else "fail",
        "random-search perturbations never beat the analytic worst case")


def _adversarial_distribution(base, seed, mc_samples, oracle_steps, case) -> Iterator[CheckRecord]:
    # Perturbed-sample distribution: deterministic coords exactly eps,
    # stochastic coords match N(mu - eps, sigma^2) moments.
    p_dist = _at(base, eps=0.2 * base.mu)
    batch = sample(p_dist, 1, 200_000, RngStream(seed).split(5))
    adv = adversarial_batch(p_dist, batch)
    det_err = max(
        float(np.abs(adv.x_e[:, 1] - p_dist.eps).max()),
        float(np.abs(adv.x_e[:, 2] - p_dist.eps).max()),
        float(np.abs(adv.x_c[:, 0] - p_dist.eps).max()),
    )
    yield _check(
        "adv_distribution_deterministic", {"eps": p_dist.eps}, 0.0, det_err, 1e-12,
        "attacked zero-pattern coordinates sit exactly at eps")
    stoch = np.concatenate([adv.x_e[:, 0], adv.x_c[:, 1], adv.x_c[:, 2]])
    se_mean = p_dist.sigma / math.sqrt(len(stoch))
    yield _check(
        "adv_distribution_mean", {"eps": p_dist.eps}, p_dist.mu - p_dist.eps,
        float(stoch.mean()), 4.0 * se_mean,
        "attacked populated coordinates keep mean mu - eps")
    var_se = p_dist.sigma ** 2 * math.sqrt(2.0 / (len(stoch) - 1))
    yield _check(
        "adv_distribution_var", {"eps": p_dist.eps}, p_dist.sigma ** 2,
        float(stoch.var(ddof=1)), 4.0 * var_se,
        "attacked populated coordinates keep variance sigma^2")


def _pair_margins(base, seed, mc_samples, oracle_steps, case) -> Iterator[CheckRecord]:
    # Pairwise margin probability: spot values, monotonicity, MC agreement.
    p_pm = SyntheticParams(mu=1.0, sigma=0.5, lam=base.lam, eps=0.25)
    yield _check(
        "pair_margin_spot", {"w": (1, 0)}, std_normal_cdf(1.0),
        pair_margin_prob(p_pm, LinearHypothesis(1.0, 0.0)), 1e-12,
        "single-weight spot value")
    yield _check(
        "pair_margin_spot", {"w": (1, 1)}, std_normal_cdf(math.sqrt(2.0)),
        pair_margin_prob(p_pm, LinearHypothesis(1.0, 1.0)), 1e-12,
        "equal-weight spot value")
    probs = [pair_margin_prob(p_pm, LinearHypothesis(1.0, float(t)))
             for t in np.linspace(0.0, 1.0, 11)]
    monotone = all(b >= a - 1e-15 for a, b in zip([-1.0] + probs, probs))
    yield CheckRecord(
        "pair_margin_monotone", {"t_grid": "0..1 step 0.1"}, None, None, None,
        "pass" if monotone else "fail",
        "probability nondecreasing in the cross-class weight ratio")
    mc_n = 1_000_000
    h_pm = LinearHypothesis(1.0, 0.7)
    closed_val = pair_margin_prob(p_pm, h_pm)
    mc_prob = pair_margin_prob(p_pm, h_pm, method="mc", n_samples=mc_n,
                               rng=RngStream(seed).split(6))
    se = math.sqrt(max(closed_val * (1 - closed_val), 1e-12) / mc_n)
    yield _check(
        "pair_margin_mc", {"w2": 0.7, "n": mc_n}, closed_val, mc_prob, 3.0 * se,
        "closed form (exact convention) vs MC simulation")
    paper_val = pair_margin_prob(p_pm, h_pm, convention="paper")
    yield CheckRecord(
        "pair_margin_variance_convention", {"w2": 0.7}, closed_val, paper_val, None,
        "info",
        f"exact-convention {closed_val:.6f} (matches MC {mc_prob:.6f}); "
        f"doubled-variance convention gives {paper_val:.6f}")


def _replicated_groups(base, seed, mc_samples, oracle_steps, case) -> Iterator[CheckRecord]:
    # Replicated groups decouple.
    group_params = [_at(base, eps=0.1 * base.mu), _at(base, eps=0.4 * base.mu)]
    gv = replicate_groups(group_params, n_samples=mc_samples, rng=RngStream(seed).split(7),
                          steps=oracle_steps)
    scale = base.mu / base.lam
    yield _check(
        "group_decoupling", {"groups": 2, "eps": [p.eps for p in group_params]},
        0.0, gv.max_abs_err, 0.05 * scale,
        "joint projected GD over all group weights vs per-group closed forms")
    w2_signs_ok = gv.joint_oracle[0].w2 > 0.05 * scale and gv.joint_oracle[1].w2 < 0.02 * scale
    yield CheckRecord(
        "group_threshold_split", {"eps": [p.eps for p in group_params]},
        None, None, None, "pass" if w2_signs_ok else "fail",
        "group below the collapse radius keeps w2 > 0; group above collapses")


# The jobs in record order, (check, case) pairs, each run through
# ``_group_records``, as a generator does not pickle.
_CHECK_GROUPS = (
    (_max_gauss_mean, None), (_thresholds, (0.0,)),
    (_oracle_minimizers, (0.0, 2, (0.05, 0.10, 0.15, 0.20, 0.30, 0.40))),
    (_loss_values, ((0.0,) * 5, 10, False)), (_loss_values, ((0.1, 0.2, 0.3), 20, False)),
    (_loss_values, ((0.2,), 29, True)), (_thresholds, (0.1, 0.2, 0.3)),
    (_oracle_minimizers, (0.2, 31, (0.2,))), (_delta_dominance, None),
    (_adversarial_distribution, None), (_pair_margins, None), (_replicated_groups, None))


def run_verification(base: SyntheticParams | None = None, seed: int = 0,
                     mc_samples: int = 200_000,
                     oracle_steps: int = 10_000) -> list[CheckRecord]:
    """Run the full closed-form-versus-oracle check suite.

    Returns one record per check.  A record with status ``boundary`` marks a
    threshold probed exactly at its collapse radius (sign test undefined
    there); ``info`` records document convention choices with numbers but do
    not gate success.  The (check, case) jobs run in a pool of forked processes,
    one per CPU this process may run on; with one CPU they run here.  Either
    way the records are the same, in the same order.
    """
    if base is None:
        base = SyntheticParams()
    parts = _run_jobs(_group_records, [(check, case, base, seed, mc_samples, oracle_steps)
                                       for check, case in _CHECK_GROUPS])
    for part in parts:
        if isinstance(part, Exception):
            raise part
    return [record for part in parts for record in part]


def _group_records(check, case, *args) -> list[CheckRecord]:
    return list(check(*args, case))
