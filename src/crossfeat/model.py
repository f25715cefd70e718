"""Small ReLU MLP classifiers with exact reverse-mode gradients.

The network is a stack of affine layers with ReLU between them, followed by a
final affine head.  ``features`` exposes the penultimate activation ``g(x)``;
``forward`` returns ``head(g(x))``.  With no hidden layers the feature
extractor is the identity and the model is linear, which is exactly the shape
the closed-form analysis in :mod:`crossfeat.synthetic` assumes.

Gradients are computed by hand (no autodiff dependency) so they can be
checked against finite differences to tight tolerances.  All losses use mean
reduction over the batch.

Checkpoint format (``save_checkpoint``): a single ``.npz`` container, format
version 1, holding one array per parameter under its canonical name (see
``Classifier.param_items``) plus a ``meta`` entry: UTF-8 JSON bytes with the
architecture descriptor, epoch number, and a metric snapshot.  float64 buffers
round-trip bit-exactly.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

from .numerics import RngStream, _is_int, _row_reduce, as_array

__all__ = ["Affine", "Classifier", "CrossEntropy", "Distillation", "GradientBundle",
           "backward", "forward", "features", "load_checkpoint", "log_softmax",
           "save_checkpoint", "sgd_step"]

CHECKPOINT_FORMAT_VERSION = 1

# Whole-dataset passes walk their rows in blocks of this many.  A 256-row
# block keeps a 2x32 MLP's activations in cache and keeps every matmul below
# OpenBLAS's threading threshold, so a pass uses one core; larger blocks wake
# worker threads that spin on the second core without cutting wall time.
_BLOCK_ROWS = 256


@dataclass
class Affine:
    """One affine layer: ``x @ weights.T + bias``; weights has shape (out, in)."""

    weights: np.ndarray
    bias: np.ndarray | None = None

    def __post_init__(self) -> None:
        self.weights = as_array(self.weights, name="weights")
        if self.weights.ndim != 2:
            raise ValueError(f"weights must be 2-D, got shape {self.weights.shape}")
        if self.bias is not None:
            self.bias = as_array(self.bias, name="bias")
            if self.bias.shape != (self.weights.shape[0],):
                raise ValueError(f"bias shape {self.bias.shape} does not match "
                                 f"{self.weights.shape[0]} outputs")

    def apply(self, x: np.ndarray) -> np.ndarray:
        out = x @ self.weights.T
        if self.bias is not None:
            out = out + self.bias
        return out


@dataclass
class Classifier:
    """ReLU MLP: ``hidden`` affine+ReLU blocks, then an affine ``head``."""

    hidden: list[Affine]
    head: Affine

    def __post_init__(self) -> None:
        dims = [layer.weights.shape for layer in self.hidden] + [self.head.weights.shape]
        for (out_prev, _), (_, in_next) in zip(dims, dims[1:]):
            if out_prev != in_next:
                raise ValueError(f"layer dimension mismatch: {out_prev} -> {in_next}")

    @property
    def input_dim(self) -> int:
        first = self.hidden[0] if self.hidden else self.head
        return first.weights.shape[1]

    @property
    def class_count(self) -> int:
        return self.head.weights.shape[0]

    @classmethod
    def create(
        cls,
        input_dim: int,
        hidden_widths: tuple[int, ...],
        classes: int,
        rng: RngStream,
        hidden_bias: bool = True,
        head_bias: bool = False,
    ) -> "Classifier":
        """He-initialized MLP; biases start at zero, head has no bias by default."""
        if not _is_int(input_dim, 1):
            raise ValueError(f"input_dim must be an integer >= 1, got {input_dim!r}")
        if not _is_int(classes, 2):
            raise ValueError(f"classes must be an integer >= 2, got {classes!r}")
        if not all(_is_int(w, 1) for w in hidden_widths):
            raise ValueError(f"hidden widths must be integers >= 1, got {hidden_widths!r}")
        gen = rng.generator
        hidden: list[Affine] = []
        fan_in = input_dim
        for width in hidden_widths:
            scale = np.sqrt(2.0 / fan_in)
            w = gen.normal(0.0, scale, size=(width, fan_in))
            b = np.zeros(width) if hidden_bias else None
            hidden.append(Affine(w, b))
            fan_in = width
        head_w = gen.normal(0.0, np.sqrt(1.0 / fan_in), size=(classes, fan_in))
        head_b = np.zeros(classes) if head_bias else None
        return cls(hidden, Affine(head_w, head_b))

    def param_items(self) -> list[tuple[str, np.ndarray]]:
        """Parameters as (canonical name, live array) pairs, in fixed order."""
        items: list[tuple[str, np.ndarray]] = []
        for i, layer in enumerate(self.hidden):
            items.append((f"hidden.{i}.weights", layer.weights))
            if layer.bias is not None:
                items.append((f"hidden.{i}.bias", layer.bias))
        items.append(("head.weights", self.head.weights))
        if self.head.bias is not None:
            items.append(("head.bias", self.head.bias))
        return items

    def architecture(self) -> dict:
        return {
            "input_dim": self.input_dim,
            "hidden_widths": [layer.weights.shape[0] for layer in self.hidden],
            "classes": self.class_count,
            "hidden_bias": bool(self.hidden and self.hidden[0].bias is not None),
            "head_bias": self.head.bias is not None,
        }

    def copy(self) -> "Classifier":
        def dup(layer: Affine) -> Affine:
            return Affine(layer.weights.copy(), None if layer.bias is None else layer.bias.copy())
        return Classifier([dup(layer) for layer in self.hidden], dup(self.head))


# ---------------------------------------------------------------------------
# Loss specifications
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CrossEntropy:
    """Mean cross-entropy against (1 - beta) * onehot + beta / (K - 1)
    off-class mass; beta = 0 is the one-hot target."""

    beta: float = 0.0

    def __post_init__(self) -> None:
        if not (0.0 <= self.beta < 1.0):
            raise ValueError(f"beta must lie in [0, 1), got {self.beta}")


@dataclass(frozen=True)
class Distillation:
    """(1 - mix) * cross-entropy + mix * T^2 * KL(teacher || student).

    The reference distribution is the frozen teacher's softened softmax;
    ``mix=1`` is pure distillation.
    """

    teacher: Classifier
    temperature: float = 1.0
    mix: float = 0.5

    def __post_init__(self) -> None:
        if self.temperature <= 0:
            raise ValueError(f"temperature must be positive, got {self.temperature}")
        if not (0.0 <= self.mix <= 1.0):
            raise ValueError(f"mix must lie in [0, 1], got {self.mix}")


LossSpec = CrossEntropy | Distillation


@dataclass
class GradientBundle:
    """Gradients of a mean-reduced loss: one entry per parameter, plus inputs."""

    params: dict[str, np.ndarray] | None
    inputs: np.ndarray
    loss: float


# ---------------------------------------------------------------------------
# Forward / backward
# ---------------------------------------------------------------------------


def _check_batch(model: Classifier, x) -> np.ndarray:
    arr = as_array(x, name="inputs")
    if arr.ndim != 2:
        raise ValueError(f"inputs must be 2-D (batch, dim), got shape {arr.shape}")
    if arr.shape[1] != model.input_dim:
        raise ValueError(f"input dim {arr.shape[1]} does not match model dim "
                         f"{model.input_dim}")
    return arr


def _forward_cached(model: Classifier, x: np.ndarray):
    # Returns (logits, activations) where activations[k] is the input to
    # hidden layer k and activations[-1] is the input to the head.
    acts = [x]
    h = x
    for layer in model.hidden:
        h = np.maximum(layer.apply(h), 0.0)
        acts.append(h)
    return model.head.apply(h), acts


def _row_blocks(n: int) -> list[slice]:
    """Slices covering rows [0, n) in blocks of ``_BLOCK_ROWS``; one empty
    slice when n is 0, so an empty batch keeps its shape."""
    return [slice(start, start + _BLOCK_ROWS)
            for start in range(0, max(n, 1), _BLOCK_ROWS)]


def forward(model: Classifier, x) -> np.ndarray:
    """Logits for a batch, shape (batch, classes)."""
    arr = _check_batch(model, x)
    return np.concatenate([_forward_cached(model, arr[rows])[0]
                           for rows in _row_blocks(len(arr))])


def features(model: Classifier, x) -> np.ndarray:
    """Feature-extractor output g(x): the activation the head consumes."""
    arr = _check_batch(model, x)
    return np.concatenate([_forward_cached(model, arr[rows])[1][-1]
                           for rows in _row_blocks(len(arr))])


def log_softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - _row_reduce(np.maximum, logits)[:, None]
    return z - np.log(_row_reduce(np.add, np.exp(z)))[:, None]


def _check_labels(y, batch: int, classes: int) -> np.ndarray:
    labels = np.asarray(y)
    if labels.shape != (batch,):
        raise ValueError(f"labels must have shape ({batch},), got {labels.shape}")
    if not np.issubdtype(labels.dtype, np.integer):
        raise ValueError(f"labels must be integers, got dtype {labels.dtype}")
    if labels.min() < 0 or labels.max() >= classes:
        raise ValueError(f"labels must lie in [0, {classes}), got range "
                         f"[{labels.min()}, {labels.max()}]")
    return labels.astype(np.int64)


def _backprop(model: Classifier, acts: list[np.ndarray], dlogits: np.ndarray,
              params: dict[str, np.ndarray] | None = None) -> np.ndarray:
    """Propagates d loss/d logits back to d loss/d inputs; when ``params`` is
    a dict, it also receives the parameter gradients."""
    if params is not None:
        params["head.weights"] = dlogits.T @ acts[-1]
        if model.head.bias is not None:
            params["head.bias"] = dlogits.sum(axis=0)
    dh = dlogits @ model.head.weights
    for i in range(len(model.hidden) - 1, -1, -1):
        layer = model.hidden[i]
        dpre = dh * (acts[i + 1] > 0.0)
        if params is not None:
            params[f"hidden.{i}.weights"] = dpre.T @ acts[i]
            if layer.bias is not None:
                params[f"hidden.{i}.bias"] = dpre.sum(axis=0)
        dh = dpre @ layer.weights
    return dh


def _input_gradient(model: Classifier, x: np.ndarray, target: np.ndarray) -> np.ndarray:
    """``backward(model, x, y, CrossEntropy(), include_params=False).inputs``
    for already-checked rows ``x`` and their one-hot ``target``, with the same
    float operations and none of the checks."""
    logits, acts = _forward_cached(model, x)
    return _backprop(model, acts, (np.exp(log_softmax(logits)) - target) / len(x))


def _loss_and_logit_grad(spec: LossSpec, logits: np.ndarray, labels: np.ndarray,
                         x: np.ndarray) -> tuple[float, np.ndarray, np.ndarray | None]:
    """Returns (loss, d loss/d student logits, extra d loss/d inputs).

    The extra input term carries the path through a frozen teacher's own
    forward pass (its logits are still a function of x), so input gradients
    stay exact for the distillation losses; it is None for teacher-free specs.
    """
    batch, classes = logits.shape
    if not isinstance(spec, (CrossEntropy, Distillation)):
        raise TypeError(f"unknown loss spec: {spec!r}")
    target = np.eye(classes)[labels]
    if isinstance(spec, CrossEntropy) and spec.beta > 0.0:
        if classes < 2:
            raise ValueError("label smoothing needs at least 2 classes")
        target = (1.0 - spec.beta) * target + (spec.beta / (classes - 1)) * (1.0 - target)
    logp = log_softmax(logits)
    loss = float(-(target * logp).sum() / batch)
    grad = (np.exp(logp) - target) / batch
    if isinstance(spec, CrossEntropy):
        return loss, grad, None
    temp = spec.temperature
    teacher_logits, teacher_acts = _forward_cached(spec.teacher, x)
    if teacher_logits.shape != logits.shape:
        raise ValueError("teacher and student class counts differ")
    q_t = np.exp(log_softmax(teacher_logits / temp))
    log_q_s = log_softmax(logits / temp)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_q_t = np.where(q_t > 0.0, np.log(q_t), 0.0)
    gap = log_q_t - log_q_s
    kl_loss = temp * temp * float((q_t * gap).sum() / batch)
    kl_grad = temp * (np.exp(log_q_s) - q_t) / batch
    # d KL / d teacher logits = (diag(q_t) - q_t q_t^T)(log q_t - log q_s) / T.
    d_teacher = q_t * (gap - (q_t * gap).sum(axis=1, keepdims=True)) * (temp / batch)
    kl_dx = _backprop(spec.teacher, teacher_acts, d_teacher)
    return ((1.0 - spec.mix) * loss + spec.mix * kl_loss,
            (1.0 - spec.mix) * grad + spec.mix * kl_grad, spec.mix * kl_dx)


def backward(
    model: Classifier,
    x,
    y,
    loss_spec: LossSpec = CrossEntropy(),
    include_params: bool = True,
) -> GradientBundle:
    """Exact gradients of the mean batch loss w.r.t. parameters and inputs.

    Set ``include_params=False`` to skip parameter gradients (attack inner
    loops only need the input gradient).
    """
    arr = _check_batch(model, x)
    logits, acts = _forward_cached(model, arr)
    labels = _check_labels(y, arr.shape[0], model.class_count)
    loss, dlogits, extra_dx = _loss_and_logit_grad(loss_spec, logits, labels, arr)

    params: dict[str, np.ndarray] | None = {} if include_params else None
    dh = _backprop(model, acts, dlogits, params)
    if extra_dx is not None:
        dh = dh + extra_dx
    return GradientBundle(params=params, inputs=dh, loss=loss)


# ---------------------------------------------------------------------------
# Optimizer
# ---------------------------------------------------------------------------


def sgd_step(
    model: Classifier,
    grads: dict[str, np.ndarray],
    lr: float,
    momentum: float = 0.9,
    weight_decay: float = 5e-4,
    state: dict[str, np.ndarray] | None = None,
) -> dict[str, np.ndarray]:
    """One SGD step: v <- momentum*v + (grad + wd*theta); theta <- theta - lr*v.

    Mutates the model parameters in place and returns the momentum buffers
    ``{parameter name: velocity}``, keyed like ``Classifier.param_items``;
    ``state=None`` starts new ones.  Weight decay applies to every parameter.
    """
    if lr < 0:
        raise ValueError(f"lr must be non-negative, got {lr}")
    if state is None:
        state = {}
    for name, param in model.param_items():
        if name not in grads:
            raise KeyError(f"missing gradient for parameter {name!r}")
        g = grads[name] + weight_decay * param
        if name not in state:
            state[name] = np.zeros_like(param)
        v = state[name]
        v *= momentum
        v += g
        param -= lr * v
    return state


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------


def save_checkpoint(model: Classifier, path: str, epoch: int = 0,
                    metrics: dict | None = None) -> None:
    """Write a version-1 checkpoint; see module docstring for the layout."""
    meta = {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "architecture": model.architecture(),
        "epoch": int(epoch),
        "metrics": metrics or {},
    }
    tmp = f"{path}.tmp"
    with open(tmp, "wb") as fh:
        np.savez(fh, meta=np.frombuffer(json.dumps(meta, sort_keys=True).encode("utf-8"),
                                        dtype=np.uint8), **dict(model.param_items()))
    os.replace(tmp, path)


def load_checkpoint(path: str) -> tuple[Classifier, int, dict]:
    """Read a checkpoint written by :func:`save_checkpoint`."""
    with np.load(path) as bundle:
        if "meta" not in bundle:
            raise ValueError(f"{path}: not a checkpoint (missing meta entry)")
        meta = json.loads(bytes(bundle["meta"].tobytes()).decode("utf-8"))
        version = meta.get("format_version")
        if version != CHECKPOINT_FORMAT_VERSION:
            raise ValueError(f"{path}: unsupported checkpoint version {version}")
        arch = meta["architecture"]

        def layer(name: str, bias: bool) -> Affine:
            return Affine(bundle[f"{name}.weights"], bundle[f"{name}.bias"] if bias else None)
        model = Classifier([layer(f"hidden.{i}", arch["hidden_bias"])
                            for i in range(len(arch["hidden_widths"]))],
                           layer("head", arch["head_bias"]))
    got = model.architecture()
    if got != arch:
        raise ValueError(f"{path}: architecture mismatch ({got} vs {arch})")
    return model, int(meta["epoch"]), meta["metrics"]
