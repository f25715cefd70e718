"""One repetition of a benchmark workload, in a fresh process.

    python3 perfbench/child.py --workload NAME --seed N --t0 T [--spans PATH]

Runs in an empty working directory.  The child puts the ``src`` directory
beside ``perfbench/`` first on ``sys.path``, imports ``crossfeat``, writes the
workload's configs, runs its set-up steps, then times one call of ``crossfeat.cli.main``.  ``T`` is the
parent's ``time.monotonic()`` just before it started this process, so
``setup_s`` covers interpreter start, imports, config generation and set-up.
With ``--spans`` the timed call runs under the tracer, which writes its spans
to ``PATH``.  The result goes to ``child_result.json`` in the working
directory.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _cpu_seconds(usage) -> float:
    return usage.ru_utime + usage.ru_stime


def blas_info() -> dict:
    """BLAS vendor and version from numpy's build, and the thread count the
    loaded library reports."""
    import ctypes

    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    info = {"vendor": blas.get("name"), "version": blas.get("version"), "threads": None}
    libs_dir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs_dir, "*openblas*"))):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                getter.argtypes = []
                info["threads"] = int(getter())
                return info
    return info


def _write_config(step, name: str) -> str:
    path = f"{name}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(step.config, fh, indent=1, sort_keys=True)
    return path


def _argv(step, config_path: str) -> list[str]:
    return [step.command, "--config", config_path, "--out", step.out]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--spans")
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import crossfeat
    import crossfeat.cli as cli

    if os.path.dirname(os.path.abspath(crossfeat.__file__)) != os.path.join(src, "crossfeat"):
        raise RuntimeError(f"crossfeat imported from {crossfeat.__file__}, not {src}")
    import workloads

    workload = workloads.generate(args.workload, args.seed)
    result: dict = {"workload": workload.name, "seed": workload.seed}
    for i, step in enumerate(workload.setup):
        code = cli.main(_argv(step, _write_config(step, f"setup{i}")))
        if code != 0:
            result["setup_error"] = f"set-up step {step.command} exited {code}"
            break
    else:
        timed_argv = _argv(workload.timed, _write_config(workload.timed, "timed"))
        trace = None
        if args.spans:
            from tracer import Tracer

            trace = Tracer()
            trace.install()
        usage0 = resource.getrusage(resource.RUSAGE_SELF)
        setup_s = time.monotonic() - args.t0
        start = time.perf_counter()
        try:
            code = cli.main(timed_argv)
        finally:
            wall_s = time.perf_counter() - start
            usage1 = resource.getrusage(resource.RUSAGE_SELF)
            if trace is not None:
                trace.uninstall()
        result.update(
            exit_code=code,
            setup_s=setup_s,
            wall_s=wall_s,
            cpu_s=_cpu_seconds(usage1) - _cpu_seconds(usage0),
            # ru_maxrss is in KiB on Linux.
            peak_rss_mb=usage1.ru_maxrss / 1024.0,
        )
        if trace is not None:
            trace.save(args.spans)
            result["layers"] = trace.metrics()
            result["spans"] = len(trace.spans)
            result["backward_input_b128_s"] = trace.mean_duration("model.backward.input", 128)
    result["blas"] = blas_info()
    with open("child_result.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
