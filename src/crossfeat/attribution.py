"""Feature-attribution measurements: the K x K class attribution correlation
matrix, the class attribution similarity score (CAS), an instance-wise
variant, and the text format the matrices are saved in.

The attribution vector of sample x for class i is the elementwise product
``features(model, x) * model.head.weights[i]`` of the feature activation
g(x) with head row W[i]; with a bias-free head its entries sum to the
class-i logit.  The class matrix averages attribution
vectors of the given points per true class (the clean dataset inputs when no
points are given; callers pass the attacked test points of their evaluation
pass) and takes pairwise cosines.  CAS sums positive off-diagonal entries
over ordered pairs, so it lives in [0, K(K-1)].  The instance-wise matrix
replaces the class mean by a best-counterpart search: entry [i, j] averages,
over class-i samples, the maximum cosine against any class-j sample; it is
deliberately not symmetrized.
"""

from __future__ import annotations

import numpy as np

from .data import Dataset
from .model import _BLOCK_ROWS, Classifier, _row_blocks, features
from .numerics import as_array, unit_rows

__all__ = [
    "cas",
    "class_attribution_matrix",
    "instance_cas_matrix",
    "load_matrix",
    "save_matrix",
]


def _class_features(model: Classifier, dataset: Dataset,
                    points: np.ndarray | None) -> tuple[np.ndarray, list[np.ndarray]]:
    """Features of ``points`` (the clean dataset inputs when None) and the
    row indices of each class."""
    class_rows = [dataset.class_indices(c) for c in range(model.class_count)]
    missing = [c for c, rows in enumerate(class_rows) if len(rows) == 0]
    if missing:
        raise ValueError(f"dataset is missing samples for classes {missing}")
    if points is None:
        inputs = dataset.inputs
    else:
        inputs = as_array(points, name="points")
        if inputs.shape != dataset.inputs.shape:
            raise ValueError("points shape does not match the dataset")
    return features(model, inputs), class_rows


def class_attribution_matrix(model: Classifier, dataset: Dataset,
                             points: np.ndarray | None = None) -> np.ndarray:
    """Class-mean attribution similarity matrix C, shape (K, K).

    ``points`` holds one row per dataset row, labelled by ``dataset.labels``
    (typically the attacked points of an evaluation pass); None measures the
    clean ``dataset.inputs``.  Per class, attribution vectors at the class's
    own head row are averaged; C is their pairwise cosine matrix, with the
    zero-vector convention C[i, i] = 0 for an all-zero class mean.
    """
    feats, class_rows = _class_features(model, dataset, points)
    means = np.array([feats[rows].mean(axis=0) * w
                      for rows, w in zip(class_rows, model.head.weights)])
    unit = unit_rows(means)
    c = unit @ unit.T
    c = np.clip((c + c.T) / 2.0, -1.0, 1.0)
    nonzero = np.linalg.norm(means, axis=1) > 0.0
    np.fill_diagonal(c, np.where(nonzero, 1.0, 0.0))
    return c


def cas(matrix: np.ndarray) -> float:
    """Sum of max(C[i, j], 0) over ordered pairs i != j."""
    c = as_array(matrix, name="C")
    if c.ndim != 2 or c.shape[0] != c.shape[1]:
        raise ValueError(f"C must be square, got shape {c.shape}")
    off = c.copy()
    np.fill_diagonal(off, 0.0)
    return float(np.maximum(off, 0.0).sum())


def instance_cas_matrix(model: Classifier, dataset: Dataset,
                        points: np.ndarray | None = None) -> tuple[np.ndarray, float]:
    """Best-counterpart attribution similarity and its summary score.

    Measures ``points`` as :func:`class_attribution_matrix` does.
    entry[i, j] = mean over class-i samples of the maximum cosine between
    that sample's attribution vector (at head row i) and any class-j
    sample's attribution vector (at head row j).  The search is exhaustive
    but runs over 256-row blocks of class i, each written into one reused
    256 x max(n_j) buffer, not the n_i x n_j matrix.  Row maxima are clipped
    to [-1, 1] before the mean, as C is.  Returns the (generally asymmetric)
    matrix and the score sum_{i != j} max(entry, 0).
    """
    feats, class_rows = _class_features(model, dataset, points)
    units = [unit_rows(feats[rows] * w) for rows, w in zip(class_rows, model.head.weights)]
    del feats  # the search reads only the unit rows
    largest = max(len(u) for u in units)
    buffer = np.empty(min(largest, _BLOCK_ROWS) * largest)  # every block's product
    entries = np.empty((len(units), len(units)))
    for i, ui in enumerate(units):
        maxima = np.empty(len(ui))
        for j, uj in enumerate(units):
            for rows in _row_blocks(len(ui)):
                block = ui[rows]
                cosines = buffer[:len(block) * len(uj)].reshape(len(block), len(uj))
                np.matmul(block, uj.T, out=cosines)
                np.max(cosines, axis=1, out=maxima[rows])
            # Unit rows can meet at a cosine an ulp above 1.
            entries[i, j] = np.clip(maxima, -1.0, 1.0).mean()
    return entries, cas(entries)


# ---------------------------------------------------------------------------
# Text export
# ---------------------------------------------------------------------------


def save_matrix(matrix: np.ndarray, path: str) -> None:
    """Write a matrix as text: class count, class labels 0..K-1, then K rows
    at full precision."""
    c = as_array(matrix)
    k = c.shape[0]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{k}\n")
        fh.write(" ".join(str(v) for v in range(k)) + "\n")
        for row in c:
            fh.write(" ".join(f"{v:.17g}" for v in row) + "\n")


def load_matrix(path: str) -> tuple[np.ndarray, list[int]]:
    """Read a matrix written by :func:`save_matrix`."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [(n, ln.split()) for n, ln in enumerate(fh, start=1) if ln.strip()]
    if not lines:
        raise ValueError(f"{path}: empty matrix file")

    def parse(index: int, kind, count: int, what: str) -> list:
        number, tokens = lines[index]
        try:
            values = [kind(v) for v in tokens]
        except ValueError as exc:
            raise ValueError(f"{path}:{number}: {what}: {exc}") from exc
        if len(values) != count:
            raise ValueError(f"{path}:{number}: expected {count} {what}, "
                             f"got {len(values)}")
        return values

    k = parse(0, int, 1, "class count")[0]
    if k < 0:
        raise ValueError(f"{path}:{lines[0][0]}: negative class count {k}")
    if len(lines) != k + 2:
        raise ValueError(f"{path}: expected {k + 2} lines, found {len(lines)}")
    labels = parse(1, int, k, "class labels")
    rows = [parse(index, float, k, "entries") for index in range(2, k + 2)]
    return np.array(rows), labels
