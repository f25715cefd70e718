"""Feature-attribution measurements: per-sample attribution vectors, the
K x K class attribution correlation matrix, the class attribution similarity
score (CAS), an instance-wise variant, and best-vs-last matrix differences.

The attribution vector of sample x for class i is the elementwise product of
the feature activation g(x) with head row W[i]; with a bias-free head its
entries sum to the class-i logit.  The class matrix averages attribution
vectors of attacked test samples per true class (clean samples when the
attack is absent or has zero radius) and takes pairwise cosines.  CAS sums
positive off-diagonal entries over ordered pairs, so it lives in
[0, K(K-1)].  The instance-wise matrix replaces the class mean by a
best-counterpart search: entry [i, j] averages, over class-i samples, the
maximum cosine against any class-j sample; it is deliberately not
symmetrized.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .attack import AttackConfig, pgd
from .data import Dataset
from .model import Classifier, features
from .numerics import RngStream, as_array, unit_rows

__all__ = [
    "AttributionMatrix",
    "attribution_vectors",
    "cas",
    "class_attribution_matrix",
    "instance_cas_matrix",
    "load_matrix",
    "matrix_diff",
    "save_matrix",
]


@dataclass
class AttributionMatrix:
    """Pairwise attribution-similarity matrix plus the vectors behind it."""

    C: np.ndarray
    per_class_vectors: np.ndarray
    sample_counts: np.ndarray
    provenance: dict = field(default_factory=dict)

    @property
    def class_count(self) -> int:
        return self.C.shape[0]


def attribution_vectors(model: Classifier, x, class_i: int) -> np.ndarray:
    """Row-wise A_i(x) = g(x) * W[i] (elementwise), shape (batch, feature_dim)."""
    if not (0 <= class_i < model.class_count):
        raise ValueError(f"class {class_i} out of range for {model.class_count} classes")
    return features(model, x) * model.head.weights[class_i]


def _class_features(model: Classifier, dataset: Dataset,
                    attack: AttackConfig | None, rng: RngStream | None,
                    adversarial_inputs: np.ndarray | None, provenance: dict | None,
                    variant: str) -> tuple[np.ndarray, list[np.ndarray], np.ndarray, dict]:
    """Features of the attacked (or supplied, or clean) points, the row
    indices and size of each class, and the filled-in provenance."""
    class_rows = [dataset.class_indices(c) for c in range(model.class_count)]
    missing = [c for c, rows in enumerate(class_rows) if len(rows) == 0]
    if missing:
        raise ValueError(f"dataset is missing samples for classes {missing}")
    if adversarial_inputs is not None:
        inputs = as_array(adversarial_inputs, name="adversarial_inputs")
        if inputs.shape != dataset.inputs.shape:
            raise ValueError("adversarial_inputs shape does not match the dataset")
    elif attack is None or attack.epsilon == 0.0:
        inputs = dataset.inputs
    else:
        inputs = pgd(model, dataset.inputs, dataset.labels, attack, rng)
    prov = dict(provenance or {})
    prov.setdefault("attack", None if attack is None else vars(attack).copy())
    prov.setdefault("dataset", dataset.metadata.get("spec_hash",
                                                    dataset.metadata.get("path")))
    prov.setdefault("variant", variant)
    counts = np.array([len(rows) for rows in class_rows], dtype=np.int64)
    return features(model, inputs), class_rows, counts, prov


def class_attribution_matrix(
    model: Classifier,
    dataset: Dataset,
    attack: AttackConfig | None = None,
    rng: RngStream | None = None,
    adversarial_inputs: np.ndarray | None = None,
    provenance: dict | None = None,
) -> AttributionMatrix:
    """Class-mean attribution similarity matrix.

    Each test sample is first perturbed by the untargeted attack on its true
    label (pass ``attack=None`` or epsilon 0 for the clean-example mode, or
    supply precomputed ``adversarial_inputs`` to reuse an evaluation pass).
    Per class, attribution vectors at the class's own head row are averaged;
    C is their pairwise cosine matrix, with the zero-vector convention
    C[i, i] = 0 for an all-zero class mean.
    """
    feats, class_rows, counts, prov = _class_features(
        model, dataset, attack, rng, adversarial_inputs, provenance, "class-mean")
    means = np.array([feats[rows].mean(axis=0) * w
                      for rows, w in zip(class_rows, model.head.weights)])
    unit = unit_rows(means)
    c = unit @ unit.T
    c = np.clip((c + c.T) / 2.0, -1.0, 1.0)
    nonzero = np.linalg.norm(means, axis=1) > 0.0
    np.fill_diagonal(c, np.where(nonzero, 1.0, 0.0))
    return AttributionMatrix(c, means, counts, prov)


def cas(matrix: AttributionMatrix | np.ndarray) -> float:
    """Sum of max(C[i, j], 0) over ordered pairs i != j."""
    c = matrix.C if isinstance(matrix, AttributionMatrix) else as_array(matrix, name="C")
    if c.ndim != 2 or c.shape[0] != c.shape[1]:
        raise ValueError(f"C must be square, got shape {c.shape}")
    off = c.copy()
    np.fill_diagonal(off, 0.0)
    return float(np.maximum(off, 0.0).sum())


def instance_cas_matrix(
    model: Classifier,
    dataset: Dataset,
    attack: AttackConfig | None = None,
    rng: RngStream | None = None,
    adversarial_inputs: np.ndarray | None = None,
    provenance: dict | None = None,
) -> tuple[AttributionMatrix, float]:
    """Best-counterpart attribution similarity and its summary score.

    entry[i, j] = mean over class-i samples of the maximum cosine between
    that sample's attribution vector (at head row i) and any class-j
    sample's attribution vector (at head row j).  The search is exhaustive.
    Returns the (generally asymmetric) matrix and the score
    sum_{i != j} max(entry, 0).
    """
    feats, class_rows, counts, prov = _class_features(
        model, dataset, attack, rng, adversarial_inputs, provenance, "instance-max")
    vectors = [feats[rows] * w for rows, w in zip(class_rows, model.head.weights)]
    means = np.array([v.mean(axis=0) for v in vectors])
    units = [unit_rows(v) for v in vectors]
    entries = np.array([[(ui @ uj.T).max(axis=1).mean() for uj in units]
                        for ui in units])
    matrix = AttributionMatrix(entries, means, counts, prov)
    return matrix, cas(entries)


def matrix_diff(best: AttributionMatrix | np.ndarray,
                last: AttributionMatrix | np.ndarray) -> tuple[np.ndarray, float]:
    """Elementwise best-minus-last difference and the CAS gap."""
    b = best.C if isinstance(best, AttributionMatrix) else as_array(best, name="best")
    l = last.C if isinstance(last, AttributionMatrix) else as_array(last, name="last")
    if b.shape != l.shape:
        raise ValueError(f"matrix shapes differ: {b.shape} vs {l.shape}")
    return b - l, cas(b) - cas(l)


# ---------------------------------------------------------------------------
# Text export
# ---------------------------------------------------------------------------


def save_matrix(matrix: AttributionMatrix | np.ndarray, path: str,
                labels: list[int] | None = None) -> None:
    """Write a matrix as text: class count, class labels, then K rows at full
    precision."""
    c = matrix.C if isinstance(matrix, AttributionMatrix) else as_array(matrix)
    k = c.shape[0]
    if labels is None:
        labels = list(range(k))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{k}\n")
        fh.write(" ".join(str(int(v)) for v in labels) + "\n")
        for row in c:
            fh.write(" ".join(f"{v:.17g}" for v in row) + "\n")


def load_matrix(path: str) -> tuple[np.ndarray, list[int]]:
    """Read a matrix written by :func:`save_matrix`."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines:
        raise ValueError(f"{path}: empty matrix file")
    try:
        k = int(lines[0])
    except ValueError as exc:
        raise ValueError(f"{path}:1: expected the class count: {exc}") from exc
    if len(lines) != k + 2:
        raise ValueError(f"{path}: expected {k + 2} lines, found {len(lines)}")
    labels = [int(v) for v in lines[1].split()]
    if len(labels) != k:
        raise ValueError(f"{path}:2: expected {k} class labels, got {len(labels)}")
    rows = []
    for offset, line in enumerate(lines[2:], start=3):
        row = [float(v) for v in line.split()]
        if len(row) != k:
            raise ValueError(f"{path}:{offset}: expected {k} entries, got {len(row)}")
        rows.append(row)
    return np.array(rows), labels
