"""Validation and digests of the outputs one timed CLI call leaves on disk.

The checks read the files the program wrote, with parsers of their own, and
test the invariants every correct run satisfies:

* training rows: robust accuracy <= clean accuracy <= 1, CAS in [0, K(K-1)];
* sweeps: ``failed_cells == 0`` and every cell recorded;
* attribution: the class matrix C is symmetric with diagonal entries in
  {0, 1}, every entry lies in [-1, 1], and the saved diff is exactly
  best minus last;
* synth-verify: no check has status ``fail``.

The deterministic outputs (``summary.json``, ``records.jsonl``,
``medians.jsonl`` and matrix ``.txt`` files, at any depth) are digested with
sha256 so runs of one workload can be compared byte for byte.
"""

from __future__ import annotations

import hashlib
import json
import os

DETERMINISTIC = ("summary.json", "records.jsonl", "medians.jsonl")


def digests(out_dir: str) -> dict[str, str]:
    """sha256 of every deterministic output file, keyed by relative path."""
    found = {}
    for folder, _, files in os.walk(out_dir):
        for name in files:
            if name in DETERMINISTIC or name.endswith(".txt"):
                path = os.path.join(folder, name)
                with open(path, "rb") as fh:
                    found[os.path.relpath(path, out_dir)] = hashlib.sha256(fh.read()).hexdigest()
    return dict(sorted(found.items()))


def combined_digest(file_digests: dict[str, str]) -> str:
    """One sha256 over the sorted (path, digest) pairs."""
    text = "".join(f"{path} {digest}\n" for path, digest in sorted(file_digests.items()))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class Validation:
    """Checks made on one call's outputs, plus the work items it finished.

    ``items`` counts finished work (epochs, sweep cells, checkpoints or
    verification checks).  ``item_operations`` and ``item_failures`` count
    the parts the program reports as individually failed: sweep cells and
    synth-verify checks.
    """

    def __init__(self) -> None:
        self.results: list[tuple[str, bool, str]] = []
        self.items = 0
        self.item_operations = 0
        self.item_failures = 0

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.results.append((name, bool(ok), detail))

    @property
    def operations(self) -> int:
        return len(self.results) + self.item_operations

    @property
    def failures(self) -> int:
        return sum(1 for _, ok, _ in self.results if not ok) + self.item_failures

    @property
    def problems(self) -> list[str]:
        return [f"{name}: {detail}" for name, ok, detail in self.results if not ok]


def _read_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _read_jsonl(path: str) -> list[dict]:
    with open(path, "r", encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _read_matrix(path: str) -> list[list[float]]:
    with open(path, "r", encoding="utf-8") as fh:
        lines = [line.split() for line in fh if line.strip()]
    k = int(lines[0][0])
    rows = [[float(v) for v in line] for line in lines[2:]]
    if len(rows) != k or any(len(row) != k for row in rows):
        raise ValueError(f"{path}: not a {k}x{k} matrix")
    return rows


def _cas_bound(classes: int) -> float:
    return float(classes * (classes - 1))


def _check_epoch_rows(v: Validation, rows: list[dict], classes: int, where: str) -> None:
    bad_acc = [r["epoch"] for r in rows
               if not (0.0 <= r["test_robust_acc"] <= r["test_clean_acc"] <= 1.0
                       and 0.0 <= r["train_robust_acc"] <= 1.0)]
    v.check(f"{where}: robust <= clean <= 1", not bad_acc, f"epochs {bad_acc}")
    bad_cas = [r["epoch"] for r in rows if not 0.0 <= r["cas"] <= _cas_bound(classes)]
    v.check(f"{where}: CAS in [0, K(K-1)]", not bad_cas, f"epochs {bad_cas}")


def _validate_at_train(v: Validation, workload, out_dir: str) -> None:
    summary = _read_json(os.path.join(out_dir, "summary.json"))
    rows = _read_jsonl(os.path.join(out_dir, "records.jsonl"))
    v.check("summary passed", summary["passed"] is True, f"passed={summary['passed']}")
    v.check("one record per epoch", len(rows) == workload.epochs,
            f"{len(rows)} records for {workload.epochs} epochs")
    _check_epoch_rows(v, rows, workload.classes, "records.jsonl")
    v.items = len(rows)


def _validate_sweep_grid(v: Validation, workload, out_dir: str) -> None:
    summary = _read_json(os.path.join(out_dir, "summary.json"))["summary"]
    rows = _read_jsonl(os.path.join(out_dir, "records.jsonl"))
    failed = [r for r in rows if "error" in r]
    v.item_operations = len(rows)
    v.item_failures = len(failed)
    v.check("failed_cells == 0", summary["failed_cells"] == 0,
            f"failed_cells={summary['failed_cells']}: {[r['error'] for r in failed]}")
    v.check("every cell recorded", summary["cells"] == len(rows) == workload.cells,
            f"{summary['cells']} cells in summary, {len(rows)} records, "
            f"{workload.cells} expected")
    ok_rows = [r for r in rows if "error" not in r]
    bound = _cas_bound(workload.classes)
    v.check("cell robust accuracy in [0, 1]",
            all(0.0 <= r[key] <= 1.0 for r in ok_rows for key in ("ra_best", "ra_last")))
    v.check("cell CAS in [0, K(K-1)]",
            all(0.0 <= r[key] <= bound for r in ok_rows for key in ("cas_best", "cas_last")))
    cells_dir = os.path.join(out_dir, "cells")
    cell_names = sorted(os.listdir(cells_dir))
    v.check("one directory per cell", len(cell_names) == workload.cells,
            f"{len(cell_names)} directories")
    epoch_rows = []
    for name in cell_names:
        cell_rows = _read_jsonl(os.path.join(cells_dir, name, "records.jsonl"))
        v.check(f"cells/{name}: one record per epoch", len(cell_rows) == workload.epochs,
                f"{len(cell_rows)} records")
        epoch_rows.extend(cell_rows)
    _check_epoch_rows(v, epoch_rows, workload.classes, "cells/*/records.jsonl")
    v.items = len(ok_rows)


def _validate_attribution(v: Validation, workload, out_dir: str) -> None:
    records = _read_jsonl(os.path.join(out_dir, "records.jsonl"))
    bound = _cas_bound(workload.classes)
    v.check("best and last checkpoints attributed", len(records) == 2,
            f"{len(records)} records")
    v.check("robust <= clean <= 1",
            all(0.0 <= r["robust_acc"] <= r["clean_acc"] <= 1.0 for r in records))
    v.check("CAS and instance CAS in [0, K(K-1)]",
            all(0.0 <= r[key] <= bound for r in records for key in ("cas", "icas")))
    matrices = {}
    for name in ("attribution_matrix", "attribution_matrix_last",
                 "instance_matrix", "instance_matrix_last", "attribution_diff"):
        matrices[name] = _read_matrix(os.path.join(out_dir, f"{name}.txt"))
    k = workload.classes
    for name in ("attribution_matrix", "attribution_matrix_last"):
        c = matrices[name]
        v.check(f"{name}: symmetric",
                all(c[i][j] == c[j][i] for i in range(k) for j in range(k)))
        v.check(f"{name}: diagonal in {{0, 1}}",
                all(c[i][i] in (0.0, 1.0) for i in range(k)),
                f"diagonal {[c[i][i] for i in range(k)]}")
    for name in ("attribution_matrix", "attribution_matrix_last",
                 "instance_matrix", "instance_matrix_last"):
        v.check(f"{name}: entries in [-1, 1]",
                all(-1.0 <= value <= 1.0 for row in matrices[name] for value in row))
    best, last, diff = (matrices["attribution_matrix"],
                        matrices["attribution_matrix_last"], matrices["attribution_diff"])
    v.check("attribution_diff == best - last",
            all(diff[i][j] == best[i][j] - last[i][j] for i in range(k) for j in range(k)))
    v.items = len(records)


def _validate_synth_verify(v: Validation, workload, out_dir: str) -> None:
    summary = _read_json(os.path.join(out_dir, "summary.json"))["summary"]
    records = _read_jsonl(os.path.join(out_dir, "records.jsonl"))
    failed = sorted(r["name"] for r in records if r["status"] == "fail")
    v.item_operations = len(records)
    v.item_failures = len(failed)
    v.check("no fail checks", not failed and summary["fail"] == 0, f"failed: {failed}")
    v.check("summary counts every check", summary["checks"] == len(records),
            f"{summary['checks']} in summary, {len(records)} records")
    v.items = len(records)


_VALIDATORS = {
    "at_train": _validate_at_train,
    "sweep_grid": _validate_sweep_grid,
    "attribution": _validate_attribution,
    "synth_verify": _validate_synth_verify,
}


def validate(workload, out_dir: str, exit_code: int | None) -> Validation:
    """Check one call's exit code and outputs against the invariants above."""
    v = Validation()
    v.check("exit code 0", exit_code == 0, f"exit code {exit_code}")
    try:
        _VALIDATORS[workload.name](v, workload, out_dir)
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        v.check("outputs readable", False, f"{type(exc).__name__}: {exc}")
    return v
