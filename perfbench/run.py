#!/usr/bin/env python3
"""Benchmark of the stabreg pipeline, driven from outside the package.

    python3 perfbench/run.py --workload heat-report --seed 1234 --seconds 28 --trace 0
    python3 perfbench/run.py --workload all       # every workload, one table

With ``--trace 0`` the run measures end-to-end metrics, each a median over
fresh processes:

* ``wall_s``: wall time of one workload run (``stabreg report`` for the two
  report workloads, the grid-study script for ``grid-study``);
* ``cpu_s``: user + system time of that process, BLAS helper threads included;
* ``peak_rss_mb``: its peak resident set size;
* ``setup_s``: wall time of a fresh process that only imports, parses the
  config, builds the model and synthesizes the closed loop
  (``stabreg synthesize``; for ``grid-study`` the smallest model of each
  study).

Runs repeat until ``--seconds`` have passed, and at least ``MIN_RUNS``
times; the last one may end up to one run time later.  With ``--trace 1`` the same measurement is followed by one traced run
in a fresh process (see ``tracer.py``); the per-layer metrics come from its
spans, and ``trace.overhead_s`` is its wall time minus the untraced median.

Every run is checked (``checks.py``): exit code, verification rows, verdicts,
regularity constants, achieved poles, the heat spectrum against its closed
form, the grid-study criteria, and identical CSV digests across all runs of
one invocation.  The last line of standard output is one JSON object with
``correct``, ``attempted`` (checks made), ``failed`` (checks failed) and
``metrics``.  BLAS threading is left as the user gets it; the environment line
records it.  Scratch output goes to ``.perfbench_work/`` in the checkout.
"""

import argparse
import ctypes
import glob
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

import checks
import workloads
from tracer import aggregate
from workloads import NAMES, ROOT, SRC

MIN_RUNS = 3
SETUP_PROBES = 5
CHILD_TIMEOUT_S = 90.0
DEADLINE_S = 165.0
WORK = os.path.join(ROOT, ".perfbench_work")


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(argv, log_path, deadline):
    """Run one fresh process; returns (exit code, wall s, cpu s, peak rss MB).

    A child still running at the ``deadline`` (a ``perf_counter`` value), or
    after ``CHILD_TIMEOUT_S``, is killed and reported with exit code -9.
    """
    timeout = max(1.0, min(CHILD_TIMEOUT_S, deadline - time.perf_counter()))
    with open(log_path, "w") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=log,
                                stderr=subprocess.STDOUT)
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (proc.returncode, wall, usage.ru_utime + usage.ru_stime,
            usage.ru_maxrss / 1024.0)


def workload_argv(name, out_dir, seed, setup_only=False, trace_file=None):
    if name != "grid-study" and trace_file is None:
        config = workloads.write_config(name, seed, os.path.join(out_dir, "input.ini"))
        command = "synthesize" if setup_only else "report"
        return [sys.executable, "-m", "stabreg.cli",
                *workloads.cli_argv(command, config, out_dir, seed)]
    argv = [sys.executable, os.path.join(workloads.HERE, "workloads.py"),
            "--workload", name, "--out", out_dir, "--seed", str(seed)]
    if setup_only:
        argv.append("--setup-only")
    if trace_file:
        argv += ["--trace-file", trace_file]
    return argv


def output_checks(name, out_dir, code):
    result = [("exit_code=0", code == 0)]
    if code != 0:
        return result
    try:
        if name == "grid-study":
            result += checks.check_grid(out_dir)
        else:
            heat_model = workloads.HEAT if name == "heat-report" else None
            result += checks.check_report(out_dir, heat_model)
    except (OSError, KeyError, ValueError) as exc:
        result.append((f"outputs readable ({exc})", False))
    return result


def blas_threads():
    """OpenBLAS thread count of the bundled library, or None if unknown."""
    import numpy as np
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment():
    import numpy as np
    import scipy
    sys.path.insert(0, SRC)
    try:
        from stabreg import _kernels
        backend = getattr(_kernels, "BACKEND", None)
    except ImportError:
        backend = None
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        vendor = "unknown"
    return {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "python": sys.version.split()[0],
            "numpy": np.__version__, "scipy": scipy.__version__,
            "blas": vendor, "blas_threads": blas_threads(),
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
            "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
            "kernel_backend": backend}


def measure(name, seed, seconds, trace):
    """One invocation of one workload; returns (checks, metrics)."""
    deadline = time.perf_counter() + DEADLINE_S
    work = os.path.join(WORK, name)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    made = []

    def probe(tag, **kw):
        out_dir = os.path.join(work, tag)
        os.makedirs(out_dir)
        return run_child(workload_argv(name, out_dir, seed, **kw),
                         os.path.join(work, f"{tag}.log"), deadline), out_dir

    setups = []
    for k in range(SETUP_PROBES):
        (code, wall, _, _), _ = probe(f"setup{k}", setup_only=True)
        made.append((f"setup{k}:exit_code=0", code == 0))
        setups.append(wall)

    runs, digests = [], []
    t0 = time.perf_counter()
    while time.perf_counter() < deadline and (
            len(runs) < MIN_RUNS or time.perf_counter() - t0 < seconds):
        (code, wall, cpu, rss), out_dir = probe(f"run{len(runs)}")
        runs.append((code, wall, cpu, rss))
        made += [(f"run{len(runs) - 1}:{c}", ok) for c, ok in output_checks(name, out_dir, code)]
        digests.append(checks.digests(out_dir))
    made += [(f"run{k}:digests=run0", d == digests[0]) for k, d in enumerate(digests[1:], 1)]

    print(f"[{name}] {len(runs)} runs, wall s: {' '.join(f'{r[1]:.3f}' for r in runs)}; "
          f"cpu s: {' '.join(f'{r[2]:.3f}' for r in runs)}; "
          f"{len(setups)} set-ups, wall s: {' '.join(f'{s:.3f}' for s in setups)}")
    metrics = {
        "wall_s": statistics.median(r[1] for r in runs),
        "setup_s": statistics.median(setups),
        "cpu_s": statistics.median(r[2] for r in runs),
        "peak_rss_mb": statistics.median(r[3] for r in runs),
    }
    if trace:
        spans_path = os.path.join(work, "spans.json")
        (code, wall, _, _), out_dir = probe("traced", trace_file=spans_path)
        made += [(f"traced:{c}", ok) for c, ok in output_checks(name, out_dir, code)]
        made.append(("traced:digests=run0", checks.digests(out_dir) == digests[0]))
        layer = {}
        if code == 0:
            with open(spans_path) as fh:
                dump = json.load(fh)
            layer = aggregate(dump["spans"])
            for entry in workloads.EXPECTED[name]:
                made.append((f"traced:{entry} called",
                             entry not in dump["missing"] and layer.get(f"{entry}.calls", 0) > 0))
        layer["trace.overhead_s"] = wall - metrics["wall_s"]
        metrics = layer
    return made, metrics


def result(name, made, metrics, trace, bench):
    kind = "per_layer" if trace else "end_to_end"
    out = {m["name"]: {"value": metrics.get(m["name"], 0), "unit": m["unit"]}
           for m in bench[kind]}
    failed = sum(1 for _, ok in made if not ok)
    for check, ok in made:
        if not ok:
            print(f"FAILED check [{name}]: {check}", file=sys.stderr)
    return {"correct": failed == 0, "attempted": len(made), "failed": failed,
            "metrics": out}


def print_table(name, res):
    frac = res["failed"] / res["attempted"]
    print(f"[{name}] failed_frac = {frac:g} ({res['failed']} of {res['attempted']} checks)")
    for metric, v in res["metrics"].items():
        print(f"[{name}] {metric} = {v['value']:.6g} {v['unit']}")


def main(argv=None):
    ap = argparse.ArgumentParser(description="stabreg end-to-end and per-layer benchmark")
    ap.add_argument("--workload", required=True, choices=NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=1234)
    ap.add_argument("--seconds", type=float, default=28.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "stabreg", "cli.py")):
        print(f"stabreg sources not found under {SRC}", file=sys.stderr)
        return 2
    bench = spec()
    env = environment()
    print("env: " + json.dumps(env, sort_keys=True))
    names = NAMES if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        made, metrics = measure(name, args.seed, args.seconds, args.trace)
        results[name] = result(name, made, metrics, args.trace, bench)
        print_table(name, results[name])
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
