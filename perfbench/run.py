"""crossfeat benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a crossfeat source tree.  The workloads are closed
loop: one client, one process, one request in flight.  Each repetition is a
fresh child process (``perfbench/child.py``) that sets up its workload and
times one call of the public ``crossfeat.cli.main`` entry point, so import
cost, BLAS start-up and peak memory count the same way on every commit.
The first repetition is a warm-up and is validated but not measured.
Repetitions then run while one more still fits in ``S`` seconds, and at
least ``MIN_REPS`` are measured.  ``setup_s`` and ``peak_rss_mb`` are
medians over the measured repetitions.  ``wall_s`` and ``cpu_s`` are the
mean of the faster half of them: on a shared host, interference only ever
adds time, and this estimate spreads less from run to run than the median.
``items_per_s`` is the items of one call over that ``wall_s``.
BLAS threading is left at the program's default.

Every repetition's outputs are validated and digested; the digests must be
identical across the repetitions of one run.  With ``--trace 1`` one more
child repeats the timed call under the span tracer (``perfbench/tracer.py``)
and the run reports the per-layer metrics instead of the end-to-end ones,
plus the tracing overhead: traced ``wall_s`` minus the median untraced one.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines before it
give the environment, the output digests, every end-to-end metric with its
unit (``fail_ratio`` included) and any validation problem.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

import checks
import tracer
import workloads

WARMUP_REPS = 1
MIN_REPS = 3
# A run must end within 180 s: no repetition starts after RUN_BUDGET_S, and a
# child still running at CHILD_DEADLINE_S is killed.
RUN_BUDGET_S = 120.0
CHILD_DEADLINE_S = 170.0

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK_DIR = os.path.join(ROOT, ".perfbench_work")

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MiB",
    "items_per_s": "items/s",
}


def layer_units() -> dict[str, str]:
    """Unit of every per-layer metric, the tracing overhead included."""
    units = {}
    for name in tracer.metric_names():
        stat = name.rsplit(".", 1)[1]
        units[name] = {"calls": "count", "rows": "count"}.get(
            stat, "s" if stat.endswith("_s") else "1")
    units["trace.overhead_s"] = "s"
    units["trace.spans"] = "count"
    return units


@dataclass
class Rep:
    """One child process: its measurements, validation and output digests."""

    result: dict | None
    validation: checks.Validation
    digests: dict[str, str] = field(default_factory=dict)
    seconds: float = 0.0

    @property
    def measured(self) -> bool:
        return self.result is not None and "wall_s" in self.result

    @property
    def digest(self) -> str:
        return checks.combined_digest(self.digests)


def run_child(workload: workloads.Workload, rep_dir: str, timeout: float,
              spans_path: str | None = None) -> Rep:
    """Run one child in ``rep_dir``, wait for it, validate what it wrote."""
    os.makedirs(rep_dir)
    cmd = [sys.executable, os.path.join(HERE, "child.py"),
           "--workload", workload.name, "--seed", str(workload.seed)]
    if spans_path is not None:
        cmd += ["--spans", spans_path]
    log_path = os.path.join(rep_dir, "child.log")
    with open(log_path, "wb") as log:
        t0 = time.monotonic()
        proc = subprocess.Popen(cmd + ["--t0", repr(t0)], cwd=rep_dir,
                                stdin=subprocess.DEVNULL, stdout=log,
                                stderr=subprocess.STDOUT)
        try:
            proc.wait(timeout=max(timeout, 1.0))
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    seconds = time.monotonic() - t0
    result = None
    result_path = os.path.join(rep_dir, "child_result.json")
    if os.path.exists(result_path):
        with open(result_path, "r", encoding="utf-8") as fh:
            result = json.load(fh)
    if result is None or "exit_code" not in result:
        validation = checks.Validation()
        with open(log_path, "r", encoding="utf-8", errors="replace") as fh:
            tail = fh.read()[-2000:]
        reason = (result or {}).get("setup_error", f"child exited {proc.returncode}")
        validation.check("child finished", False, f"{reason}\n{tail}")
        return Rep(result, validation, seconds=seconds)
    out_dir = os.path.join(rep_dir, workload.timed.out)
    validation = checks.validate(workload, out_dir, result["exit_code"])
    digests = checks.digests(out_dir) if os.path.isdir(out_dir) else {}
    return Rep(result, validation, digests, seconds)


def environment(child_result: dict | None) -> dict:
    """Git revision, source digest, interpreter, numpy, BLAS and cores."""
    import numpy as np

    revision = None
    if os.path.isdir(os.path.join(ROOT, ".git")) and shutil.which("git"):
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        revision = proc.stdout.strip() or None
    source = hashlib.sha256()
    package = os.path.join(ROOT, "src", "crossfeat")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as fh:
                source.update(name.encode("utf-8") + b"\0" + fh.read())
    blas = (child_result or {}).get("blas", {})
    return {
        "git_revision": revision,
        "source_sha256": source.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_vendor": blas.get("vendor"),
        "blas_version": blas.get("version"),
        "blas_threads": blas.get("threads"),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def fast_half_mean(values: list[float]) -> float:
    """Mean of the lower half of ``values``, the middle one included."""
    ordered = sorted(values)
    return statistics.fmean(ordered[:(len(ordered) + 1) // 2])


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def measure(workload: workloads.Workload, seconds: float, trace: bool, work: str) -> int:
    start = time.monotonic()
    reps: list[Rep] = []
    while True:
        elapsed = time.monotonic() - start
        if len(reps) >= WARMUP_REPS + MIN_REPS:
            # Stop when a typical repetition would end after ``seconds``.
            if elapsed + statistics.median(rep.seconds for rep in reps) > seconds:
                break
        if reps and elapsed + reps[-1].seconds > RUN_BUDGET_S:
            break
        reps.append(run_child(workload, os.path.join(work, f"rep{len(reps)}"),
                              CHILD_DEADLINE_S - elapsed))
    traced = None
    if trace:
        os.makedirs(WORK_DIR, exist_ok=True)
        traced = run_child(workload, os.path.join(work, "traced"),
                           CHILD_DEADLINE_S - (time.monotonic() - start),
                           spans_path=os.path.join(WORK_DIR, f"spans-{workload.name}.npz"))

    measured = [rep for rep in reps[WARMUP_REPS:] if rep.measured]
    everything = reps + ([traced] if traced is not None else [])
    reference = measured[0].digest if measured else None
    for rep in everything:
        if rep.measured:
            rep.validation.check("digests identical across the run's calls",
                                 rep.digest == reference,
                                 f"{rep.digest} vs {reference}")
    attempted = sum(rep.validation.operations for rep in everything)
    failed = sum(rep.validation.failures for rep in everything)

    print(f"perfbench workload={workload.name} seed={workload.seed} "
          f"seconds={seconds:g} trace={int(trace)} reps={len(reps)} measured={len(measured)}")
    print("env " + json.dumps(environment(measured[0].result if measured else None),
                              sort_keys=True))
    for i, rep in enumerate(everything):
        label = "traced" if rep is traced else f"rep{i}"
        for problem in rep.validation.problems:
            print(f"FAIL {label}: {problem}")
    if not measured or (trace and not traced.measured):
        print("perfbench: no completed measurement; see the FAIL lines above",
              file=sys.stderr)
        return 1
    print("digests " + json.dumps({"combined": reference, **measured[0].digests}))

    samples = {name: [rep.result[name] for rep in measured]
               for name in ("setup_s", "wall_s", "cpu_s", "peak_rss_mb")}
    samples["items_per_s"] = [rep.validation.items / rep.result["wall_s"]
                              for rep in measured]
    end_to_end = {
        "setup_s": statistics.median(samples["setup_s"]),
        "wall_s": fast_half_mean(samples["wall_s"]),
        "cpu_s": fast_half_mean(samples["cpu_s"]),
        "peak_rss_mb": statistics.median(samples["peak_rss_mb"]),
    }
    items = statistics.median(rep.validation.items for rep in measured)
    end_to_end["items_per_s"] = items / end_to_end["wall_s"]
    print(f"end_to_end ({len(measured)} calls after {WARMUP_REPS} warm-up; wall_s and cpu_s "
          f"mean of the faster half, others median; min .. max):")
    for name, unit in END_TO_END.items():
        values = samples[name]
        print(f"  {name:<12} {_fmt(end_to_end[name]):>12} {unit:<8} "
              f"({_fmt(min(values))} .. {_fmt(max(values))})")
    print(f"  {'fail_ratio':<12} {_fmt(failed / attempted):>12} {'1':<8} "
          f"({failed} failed of {attempted} operations)")
    print("samples " + json.dumps({name: [float(_fmt(v)) for v in values]
                                   for name, values in samples.items()}))

    if trace:
        layers = dict(traced.result["layers"])
        layers["trace.overhead_s"] = (traced.result["wall_s"]
                                      - statistics.median(samples["wall_s"]))
        layers["trace.spans"] = traced.result["spans"]
        units = layer_units()
        print(f"per_layer (traced call: wall_s {_fmt(traced.result['wall_s'])} s):")
        for name, unit in units.items():
            print(f"  {name:<48} {_fmt(layers[name]):>12} {unit}")
        b128 = traced.result.get("backward_input_b128_s")
        print("roadmap-baseline " + json.dumps({
            "backward_input_b128_us": None if b128 is None else b128 * 1e6,
            "evaluate_share_of_train": layers["training.evaluate.share"],
            "synth_verify_checks": measured[0].validation.items
            if workload.name == "synth_verify" else None,
        }))
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in units.items()}
    else:
        metrics = {name: {"value": end_to_end[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="crossfeat benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "crossfeat", "__init__.py")):
        print(f"perfbench: no crossfeat sources under {ROOT}/src", file=sys.stderr)
        return 2
    workload = workloads.generate(args.workload, args.seed)
    work = os.path.join(WORK_DIR, f"{workload.name}-s{workload.seed}-p{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    try:
        return measure(workload, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
