"""Gradient-based adversarial perturbations under l-inf and l2 constraints.

Both attacks maximize untargeted cross-entropy on the true label inside the
epsilon-ball around each input.  The multi-step variant iterates a projected
ascent step; the fast variant is a single step from a random point in the
ball.  sign(0) = 0, so flat coordinates do not drift; with a zero gradient an
iterate simply stays put for that step.  epsilon = 0, or an empty batch,
degenerates to the identity attack.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .model import Classifier, CrossEntropy, _input_gradient, _row_blocks, backward
from .numerics import RngStream, _is_int, _is_number, as_array

__all__ = ["AttackConfig", "fgsm", "pgd", "project"]


@dataclass(frozen=True)
class AttackConfig:
    """Perturbation budget and ascent schedule for one attack.

    ``step_size=None`` picks the conventional default for the norm:
    epsilon/4 for linf and epsilon/8 for l2 (10-step training attack).
    """

    norm: str = "linf"
    epsilon: float = 0.0
    step_size: float | None = None
    steps: int = 10
    random_start: bool = False
    input_bounds: tuple[float, float] | None = None

    def __post_init__(self) -> None:
        if self.norm not in ("linf", "l2"):
            raise ValueError(f"norm must be 'linf' or 'l2', got {self.norm!r}")
        if not (_is_number(self.epsilon) and self.epsilon >= 0):
            raise ValueError(f"epsilon must be a non-negative number, got {self.epsilon!r}")
        if not _is_int(self.steps, 1):
            raise ValueError(f"steps must be an integer >= 1, got {self.steps!r}")
        if self.step_size is not None and not (_is_number(self.step_size)
                                               and self.step_size > 0):
            raise ValueError(f"step_size must be a positive number, got {self.step_size!r}")
        bounds = self.input_bounds
        if bounds is not None and not (len(bounds) == 2 and all(map(_is_number, bounds))
                                       and bounds[0] < bounds[1]):
            raise ValueError(f"input_bounds must be two numbers lo < hi, got {bounds!r}")

    def resolved_step(self) -> float:
        if self.step_size is not None:
            return self.step_size
        return self.epsilon / 4.0 if self.norm == "linf" else self.epsilon / 8.0


def project(x0, x, cfg: AttackConfig) -> np.ndarray:
    """Project ``x`` onto the epsilon-ball around ``x0`` (and the input box).

    linf clamps coordinates into [x0 - eps, x0 + eps]; l2 rescales the offset
    when its norm exceeds eps.  Row-wise over 2-D batches.
    """
    base = as_array(x0, name="x0")
    point = as_array(x, name="x")
    if base.shape != point.shape:
        raise ValueError(f"shape mismatch: {base.shape} vs {point.shape}")
    return _project(base, point, cfg)


def _project(base: np.ndarray, point: np.ndarray, cfg: AttackConfig) -> np.ndarray:
    # project() without the checks, for the PGD loop's already-validated rows.
    delta = point - base
    if cfg.norm == "linf":
        delta = _clip(delta, -cfg.epsilon, cfg.epsilon)
    else:
        flat = delta.reshape(len(delta), -1) if delta.ndim > 1 else delta.reshape(1, -1)
        norms = np.linalg.norm(flat, axis=1)
        scale = np.ones_like(norms)
        over = norms > cfg.epsilon
        scale[over] = cfg.epsilon / norms[over]
        delta = (flat * scale[:, None]).reshape(delta.shape)
    out = base + delta
    if cfg.input_bounds is not None:
        out = _clip(out, cfg.input_bounds[0], cfg.input_bounds[1])
    return out


def _clip(values: np.ndarray, lo: float, hi: float) -> np.ndarray:
    return np.minimum(hi, np.maximum(lo, values))  # np.clip's bits: a tie keeps the value


def _random_start(x: np.ndarray, cfg: AttackConfig, rng: RngStream) -> np.ndarray:
    gen = rng.generator
    if cfg.norm == "linf":
        return x + gen.uniform(-cfg.epsilon, cfg.epsilon, size=x.shape)
    # Uniform direction scaled by a uniform radius fraction, then projected.
    noise = gen.normal(0.0, 1.0, size=x.shape)
    flat = noise.reshape(len(noise), -1)
    norms = np.linalg.norm(flat, axis=1)
    norms[norms == 0.0] = 1.0
    radii = gen.uniform(0.0, cfg.epsilon, size=len(flat))
    return x + (flat * (radii / norms)[:, None]).reshape(x.shape)


def _ascent_direction(grad: np.ndarray, norm: str) -> np.ndarray:
    if norm == "linf":
        return np.sign(grad)
    flat = grad.reshape(len(grad), -1)
    norms = np.linalg.norm(flat, axis=1)
    safe = np.where(norms == 0.0, 1.0, norms)
    return (flat / safe[:, None]).reshape(grad.shape)


def pgd(
    model: Classifier,
    x,
    y,
    cfg: AttackConfig,
    rng: RngStream | None = None,
) -> np.ndarray:
    """Multi-step projected gradient ascent on cross-entropy at label ``y``.

    Returns a point inside the epsilon-ball (and input box) around ``x``.
    ``random_start`` draws the initial point uniformly from the ball using
    ``rng``, once for the whole batch; without it the ascent starts at ``x``
    itself.  The rows are attacked in 256-row blocks, each through all its
    steps before the next, so a block stays in cache.  With l2 the
    cross-entropy gradient is a block mean, which can move the last ulp of
    the normalized step.  Only a block's first step runs the checking
    :func:`backward`; a later non-finite iterate fails the output check.
    """
    arr = as_array(x, name="x")
    labels = np.asarray(y)
    if arr.ndim != 2 or labels.shape != arr.shape[:1]:
        raise ValueError(f"need 2-D inputs and one label per row, got shapes "
                         f"{arr.shape} and {labels.shape}")
    if cfg.epsilon == 0.0 or len(arr) == 0:
        return arr.copy()
    if cfg.random_start:
        if rng is None:
            raise ValueError("random_start requires an rng stream")
        start = _project(arr, _random_start(arr, cfg, rng), cfg)
    else:
        start = arr
    alpha = cfg.resolved_step()
    out = np.empty_like(arr)
    for rows in _row_blocks(len(arr)):
        base, current, y_block = arr[rows], start[rows], labels[rows]
        grad = backward(model, current, y_block, CrossEntropy(), include_params=False).inputs
        target = np.eye(model.class_count)[y_block]
        for step in range(cfg.steps):
            if step:
                grad = _input_gradient(model, current, target)
            current = _project(base, current + alpha * _ascent_direction(grad, cfg.norm), cfg)
        out[rows] = current
    if not np.all(np.isfinite(out)):
        raise ValueError("pgd produced NaN or inf points")
    return out


def fgsm(model: Classifier, x, y, cfg: AttackConfig, rng: RngStream | None = None) -> np.ndarray:
    """Single ascent step from a random point in the ball (step size alpha = eps
    unless the config overrides it)."""
    step_size = cfg.step_size or cfg.epsilon or None
    return pgd(model, x, y, replace(cfg, random_start=True, steps=1, step_size=step_size), rng)
