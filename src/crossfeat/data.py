"""Desk-scale datasets: a planted-feature generator that extends the
three-class analytic model to K classes, plus plain tabular file IO.

Planted layout
--------------
Signal coordinates come in ``replication`` groups.  Each group holds K
class-specific coordinates followed by K(K-1)/2 cross-class coordinates
indexed by unordered class pairs {i, j} in lexicographic order.  A sample of
class i draws N(mu, sigma^2) in its own coordinate and in each of its K-1
pair coordinates, leaves every other signal coordinate at exactly zero, and
appends ``noise_dims`` pure-noise coordinates ~ N(0, sigma^2).  With
``rotate`` a fixed random orthogonal map (same for train and test) mixes all
coordinates so no single input dimension is class-aligned.

File formats
------------
``delimited-text``: first line ``<feature_dims>,<class_count>``, then one
comma-separated row per sample, features first, integer label last.
``raw-matrix``: whitespace-separated numeric rows, label in the final column,
no header (class count inferred unless supplied).  Values are written with
17 significant digits, so save -> load round-trips exactly.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass

import numpy as np

from .numerics import RngStream, _is_int, _require_number, as_array

__all__ = [
    "Dataset",
    "PlantedSpec",
    "generate_planted",
    "load_tabular",
    "pair_index",
    "save_tabular",
]


@dataclass(frozen=True)
class PlantedSpec:
    """Recipe for one planted dataset (both splits share everything but size)."""

    classes: int = 4
    replication: int = 2
    noise_dims: int = 16
    mu: float = 1.0
    sigma: float = 0.35
    rotate: bool = True
    n_train: int = 1000
    n_test: int = 500
    seed: int = 0

    def __post_init__(self) -> None:
        if not _is_int(self.classes, 3):
            raise ValueError(f"classes must be an integer >= 3, got {self.classes!r}")
        if not _is_int(self.replication, 1):
            raise ValueError(f"replication must be an integer >= 1, got {self.replication!r}")
        if not _is_int(self.noise_dims, 0):
            raise ValueError(f"noise_dims must be an integer >= 0, got {self.noise_dims!r}")
        for name in ("mu", "sigma"):
            _require_number(name, getattr(self, name))
        if self.mu <= 0 or self.sigma <= 0:
            raise ValueError(f"mu and sigma must be positive, got {self.mu}, {self.sigma}")
        if not (_is_int(self.n_train, 1) and _is_int(self.n_test, 1)):
            raise ValueError("n_train and n_test must be integers >= 1, got "
                             f"{self.n_train!r}, {self.n_test!r}")

    @property
    def group_dim(self) -> int:
        return self.classes + self.classes * (self.classes - 1) // 2

    @property
    def signal_dim(self) -> int:
        return self.replication * self.group_dim

    @property
    def total_dim(self) -> int:
        return self.signal_dim + self.noise_dims

    def spec_hash(self) -> str:
        payload = json.dumps(asdict(self), sort_keys=True).encode("utf-8")
        return hashlib.sha256(payload).hexdigest()[:16]


def pair_index(classes: int, i: int, j: int) -> int:
    """Position of unordered pair {i, j} within a group's pair block."""
    if i == j:
        raise ValueError("pair indices must differ")
    a, b = (i, j) if i < j else (j, i)
    if a < 0 or b >= classes:
        raise ValueError(f"pair ({i}, {j}) out of range for {classes} classes")
    # Pairs (0,1), (0,2), ..., (0,K-1), (1,2), ... in lexicographic order.
    return a * classes - a * (a + 1) // 2 + (b - a - 1)


@dataclass
class Dataset:
    """Rows of float64 features with integer class labels."""

    inputs: np.ndarray
    labels: np.ndarray
    class_count: int

    def __post_init__(self) -> None:
        self.inputs = as_array(self.inputs, name="inputs")
        labels = np.asarray(self.labels)
        if labels.dtype.kind == "f" and not np.all(np.mod(labels, 1.0) == 0.0):
            raise ValueError("labels must be whole numbers")
        self.labels = np.asarray(labels, dtype=np.int64)
        if self.inputs.ndim != 2:
            raise ValueError(f"inputs must be 2-D, got shape {self.inputs.shape}")
        if self.labels.shape != (len(self.inputs),):
            raise ValueError(
                f"labels shape {self.labels.shape} does not match {len(self.inputs)} rows")
        if len(self.labels) and (self.labels.min() < 0
                                 or self.labels.max() >= self.class_count):
            raise ValueError(
                f"labels must lie in [0, {self.class_count}), got range "
                f"[{self.labels.min()}, {self.labels.max()}]")

    def __len__(self) -> int:
        return len(self.labels)

    def class_indices(self, label: int) -> np.ndarray:
        return np.flatnonzero(self.labels == label)


def _planted_split(spec: PlantedSpec, per_class: int, rng: RngStream,
                   rotation: np.ndarray | None) -> Dataset:
    k, r = spec.classes, spec.replication
    n = per_class * k
    inputs = np.zeros((n, spec.total_dim))
    labels = np.repeat(np.arange(k, dtype=np.int64), per_class)
    gen = rng.split(0).generator
    for class_i in range(k):
        rows = slice(class_i * per_class, (class_i + 1) * per_class)
        for group in range(r):
            base = group * spec.group_dim
            inputs[rows, base + class_i] = gen.normal(spec.mu, spec.sigma, size=per_class)
            for other in range(k):
                if other == class_i:
                    continue
                col = base + k + pair_index(k, class_i, other)
                inputs[rows, col] = gen.normal(spec.mu, spec.sigma, size=per_class)
    if spec.noise_dims:
        inputs[:, spec.signal_dim:] = gen.normal(
            0.0, spec.sigma, size=(n, spec.noise_dims))
    if rotation is not None:
        inputs = inputs @ rotation
    order = rng.split(1).generator.permutation(n)
    return Dataset(inputs[order], labels[order], k)


def _rotation_matrix(dim: int, rng: RngStream) -> np.ndarray:
    raw = rng.generator.normal(size=(dim, dim))
    q, r = np.linalg.qr(raw)
    # Fix the sign convention so the factorization (hence the dataset) is a
    # pure function of the drawn Gaussian matrix.
    return q * np.sign(np.diag(r))


def generate_planted(spec: PlantedSpec) -> tuple[Dataset, Dataset]:
    """Generate (train, test) with exactly n_train / n_test rows per class."""
    root = RngStream(spec.seed)
    rotation = _rotation_matrix(spec.total_dim, root.split(2)) if spec.rotate else None
    train = _planted_split(spec, spec.n_train, root.split(0), rotation)
    test = _planted_split(spec, spec.n_test, root.split(1), rotation)
    return train, test


# ---------------------------------------------------------------------------
# Tabular IO
# ---------------------------------------------------------------------------

_FORMATS = ("delimited-text", "raw-matrix")


def save_tabular(dataset: Dataset, path: str, format: str = "delimited-text") -> None:
    """Write a dataset to disk; see module docstring for the layouts."""
    if format not in _FORMATS:
        raise ValueError(f"format must be one of {_FORMATS}, got {format!r}")
    sep = "," if format == "delimited-text" else " "
    # "%.17g" % v writes the same digits as f"{v:.17g}", one row at a time.
    row_format = sep.join(["%.17g"] * dataset.inputs.shape[1] + ["%d"]) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        if format == "delimited-text":
            fh.write(f"{dataset.inputs.shape[1]},{dataset.class_count}\n")
        for row, label in zip(dataset.inputs, dataset.labels.tolist()):
            fh.write(row_format % (*row.tolist(), label))


def load_tabular(path: str, format: str = "delimited-text",
                 class_count: int | None = None) -> Dataset:
    """Read a dataset written by :func:`save_tabular` (or any conforming file).

    Labels sit in the final column.  For ``raw-matrix`` the class count is
    inferred as max label + 1 unless supplied; for ``delimited-text`` a
    supplied count must equal the header's.  Malformed content raises with
    the offending line number.
    """
    if format not in _FORMATS:
        raise ValueError(f"format must be one of {_FORMATS}, got {format!r}")
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.rstrip("\n") for ln in fh]
    numbers = range(1, len(lines) + 1)
    if not all(map(str.strip, lines)):  # blank lines drop out, so keep each line's number
        numbers = [n for n, ln in zip(numbers, lines) if ln.strip()]
        lines = [ln for ln in lines if ln.strip()]
    start, dims, declared = 0, None, class_count
    if format == "delimited-text" and lines:
        number, text = numbers[0], lines[0]
        header = text.split(",")
        if len(header) != 2:
            raise ValueError(f"{path}:{number}: expected header '<dims>,<classes>', got {text!r}")
        try:
            dims, declared = int(header[0]), int(header[1])
        except ValueError as exc:
            raise ValueError(f"{path}:{number}: non-integer header field: {exc}") from exc
        if class_count is not None and class_count != declared:
            raise ValueError(f"{path}:{number}: header declares {declared} classes, "
                             f"class_count is {class_count}")
        start = 1
    numbers, body = numbers[start:], lines[start:]
    if not body:  # an empty file, or the header save_tabular writes for no rows
        return Dataset(np.zeros((0, dims or 0)), np.zeros(0, dtype=np.int64), declared or 0)
    sep = "," if format == "delimited-text" else None
    inputs = None
    # One C-level pass.  numpy also strips \x1c-\x1f around a number, which
    # float() rejects, so such text takes the checking loop below.
    if not any(c in line for line in body for c in "\x1c\x1d\x1e\x1f"):
        try:
            table = np.loadtxt(body, delimiter=sep, comments=None, ndmin=2)
            labels = [int(line.rsplit(sep, 1)[-1]) for line in body]
        except ValueError:
            table = np.zeros((0, 0))
        if (len(table) == len(body) and table.shape[1] >= 2
                and (dims is None or dims == table.shape[1] - 1)):
            inputs = np.ascontiguousarray(table[:, :-1])
    if inputs is None:  # names the file and line of the first fault
        rows, labels = [], []
        for number, line in zip(numbers, body):
            cells = line.split(sep)
            if len(cells) < 2:
                raise ValueError(f"{path}:{number}: need at least one feature and a label")
            try:
                rows.append([float(c) for c in cells[:-1]])
                labels.append(int(cells[-1]))
            except ValueError as exc:
                raise ValueError(f"{path}:{number}: unparseable value: {exc}") from exc
            if dims is not None and len(rows[-1]) != dims:
                raise ValueError(
                    f"{path}:{number}: expected {dims} features, got {len(rows[-1])}")
            if len(rows[-1]) != len(rows[0]):
                raise ValueError(
                    f"{path}:{number}: ragged row ({len(rows[-1])} vs {len(rows[0])} features)")
        inputs = np.array(rows)
    try:
        label_arr = np.array(labels, dtype=np.int64)
    except OverflowError:
        bad = next(i for i, label in enumerate(labels) if not -2**63 <= label < 2**63)
        raise ValueError(f"{path}:{numbers[bad]}: label {labels[bad]} beyond int64") from None
    if label_arr.min() < 0:
        bad = int(np.argmax(label_arr < 0))
        raise ValueError(f"{path}:{numbers[bad]}: negative label {label_arr[bad]}")
    if declared is None:
        declared = int(label_arr.max()) + 1
    if label_arr.max() >= declared:
        bad = int(np.argmax(label_arr >= declared))
        raise ValueError(
            f"{path}:{numbers[bad]}: label {label_arr[bad]} out of range "
            f"for {declared} classes")
    return Dataset(inputs, label_arr, declared)
