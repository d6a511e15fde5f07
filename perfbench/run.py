"""Benchmark of the semistable package: one workload per run.

    python3 perfbench/run.py --workload petersburg_mc --seed 7 --seconds 25 --trace 0

Run from the root of a source checkout (the package is imported from
./src; nothing is installed).  The last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.  --trace 0 reports the
end-to-end metrics; --trace 1 reports the per-layer metrics from a traced
run plus the untraced operation metrics.  The lines before it print every
metric with its unit, failed_ops and the run context.  See
perfbench/README.md for the metrics and the workloads.

Every measurement happens in a fresh child process, as a CLI user would
start one, so in-process caches (the limit-table cache) start cold.  The
set-up time is the median of several child starts.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

DEFAULT_SEED = 20261017
SETUP_PROBES = 4          # plus the measuring child: 5 set-up samples
DEADLINE_S = 170.0        # the whole invocation, children included

E2E_UNITS = {"setup_s": "s", "run_s": "s", "peak_rss_mib": "MiB"}
# Per-layer metrics of the traced child (from its spans, plus the timed
# far-tail calls of its records), then the untraced operation metrics the
# same invocation reports beside them.
PER_LAYER_UNITS = {
    "sampling.stream_opens": "count",
    "sampling.stream_open_s": "s",
    "sampling.stream_open_us": "us",
    "sampling.petersburg_draws": "count",
    "sampling.petersburg_transform_s": "s",
    "sampling.poisson_batch_s": "s",
    "sampling.lepage_batch_s": "s",
    "charfn.exponent_points": "count",
    "charfn.exponent_s": "s",
    "charfn.exponent_points_per_s": "points/s",
    "charfn.cdf_from_cf_points": "count",
    "charfn.inversion_self_s": "s",
    "charfn.exponent_points_per_cdf_point": "ratio",
    "charfn.tables": "count",
    "charfn.table_points": "count",
    "charfn.tabulate_s": "s",
    "charfn.tabulate_s_per_law": "s",
    "tailmodel.quantile_points": "count",
    "tailmodel.quantile_s": "s",
    "tailmodel.grid_quantile_us": "us",
    "coupling.pairs": "count",
    "coupling.self_s": "s",
    "empirics.experiments": "count",
    "empirics.self_s": "s",
    "empirics.ks_points": "count",
    "empirics.ks_s": "s",
    "empirics.ks_ns_per_point": "ns",
    "cli.self_s": "s",
    "charfn.cdf_from_cf_1e2_s": "s",
    "charfn.cdf_from_cf_1e3_s": "s",
    "trace.overhead_frac": "fraction",
    "replicates_per_s": "replicates/s",
    "large_n_s": "s",
    "table_s": "s",
    "cdf_points_per_s": "points/s",
    "far_tail_s": "s",
    "grid_sample_s": "s",
}


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("petersburg_mc", "limit_tables", "poisson_constructions"))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--role", choices=("main", "setup", "measure"), default="main",
                    help=argparse.SUPPRESS)
    return ap.parse_args(argv)


# -- child roles ---------------------------------------------------------------------


def _child(args) -> int:
    """Set up (import + inputs), say 'ready', then run the plan if measuring."""
    import resource

    sys.path.insert(0, SRC)
    import numpy as np
    import scipy

    import semistable
    import workloads

    if os.path.dirname(os.path.abspath(semistable.__file__)) != os.path.join(SRC, "semistable"):
        print("semistable was not imported from %s" % SRC, file=sys.stderr)
        return 2
    plan = workloads.PLANS[args.workload](args.seed, args.seconds)
    tracer = None
    if args.trace:
        import tracer as tracing
        tracer = tracing.Tracer()
        tracer.install()
    print("ready", flush=True)
    if args.role == "setup":
        return 0

    records, run_s = workloads.execute(plan)
    doc = {
        "run_s": run_s,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": len(records),
        "failures": [(r.kind, r.failure) for r in records if r.failure],
        "op_metrics": workloads.op_metrics(records),
        "versions": {"python": platform.python_version(), "numpy": np.__version__,
                     "scipy": scipy.__version__},
    }
    if tracer is not None:
        tracer.uninstall()
        doc["layers"] = {**tracing.layer_metrics(tracer.spans),
                         **workloads.far_tail_rows(records)}
        os.makedirs(OUT_DIR, exist_ok=True)
        path = os.path.join(OUT_DIR, "spans-%s-seed%d.csv" % (args.workload, args.seed))
        tracer.write(path, json.dumps({"workload": args.workload, "seed": args.seed,
                                       "seconds": args.seconds, "run_s": run_s}))
        doc["spans_file"] = os.path.relpath(path, ROOT)
    print(json.dumps(doc), flush=True)
    return 0


# -- orchestration -----------------------------------------------------------------


class ChildFailed(RuntimeError):
    pass


def _spawn(args, role, trace, deadline):
    """Run one child; returns (seconds from start to 'ready', last stdout line).

    A watchdog kills the child at the deadline; the child is always waited for."""
    cmd = [sys.executable, os.path.abspath(__file__), "--role", role,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(max(0.0, deadline - t0), proc.kill)
    watchdog.start()
    ready, last = None, None
    try:
        for line in proc.stdout:
            if ready is None and line.strip() == "ready":
                ready = time.perf_counter() - t0
            elif line.strip():
                last = line
    finally:
        proc.stdout.close()
        proc.wait()
        watchdog.cancel()
    if proc.returncode != 0 or ready is None:
        raise ChildFailed("%s child exited with code %s" % (role, proc.returncode))
    return ready, last


def _context(args, versions):
    commit = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                    capture_output=True, text=True, timeout=10,
                                    check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = "unknown (git failed)"
    blas = {k: os.environ.get(k, "unset") for k in ("OPENBLAS_NUM_THREADS",
                                                    "OMP_NUM_THREADS")}
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "nproc": len(os.sched_getaffinity(0)),
            **versions, "blas_threads": blas, "commit": commit}


def main(argv=None) -> int:
    args = _parse(argv)
    if args.role != "main":
        return _child(args)
    if not os.path.isfile(os.path.join(SRC, "semistable", "__init__.py")):
        print("no package source at %s: run from the root of a semistable checkout"
              % SRC, file=sys.stderr)
        return 2
    deadline = time.perf_counter() + DEADLINE_S
    try:
        setups = [_spawn(args, "setup", 0, deadline)[0]
                  for _ in range(SETUP_PROBES)]
        ready, line = _spawn(args, "measure", 0, deadline)
        setups.append(ready)
        plain = json.loads(line)
        runs = [plain]
        if args.trace:
            _, line = _spawn(args, "measure", 1, deadline)
            traced = json.loads(line)
            runs.append(traced)
    except (ChildFailed, TypeError, ValueError) as exc:  # no or bad result line
        print("benchmark failed: %s" % exc, file=sys.stderr)
        return 1

    attempted = sum(r["attempted"] for r in runs)
    failures = [f for r in runs for f in r["failures"]]
    print("context: " + json.dumps(_context(args, plain["versions"]), sort_keys=True))
    for kind, why in failures:
        print("FAILED %s: %s" % (kind, why))
    e2e = {"setup_s": statistics.median(setups), "run_s": plain["run_s"],
           "peak_rss_mib": plain["peak_rss_mib"]}
    print("%-36s %14d %s" % ("failed_ops", len(failures), "count"))
    print("%-36s %14d %s" % ("ops", attempted, "count"))
    for name, unit in E2E_UNITS.items():
        print("%-36s %14.6g %s" % (name, e2e[name], unit))
    for name, value in plain["op_metrics"].items():
        print("%-36s %14.6g %s" % (name, value, PER_LAYER_UNITS[name]))

    if args.trace:
        layers = dict(traced["layers"])
        layers["trace.overhead_frac"] = traced["run_s"] / plain["run_s"] - 1.0
        layers.update(plain["op_metrics"])
        metrics = {k: {"value": v, "unit": PER_LAYER_UNITS[k]} for k, v in layers.items()}
        print("note: quantile work reached through sampling._quantile_batch is "
              "charged to the calling span (sampling.sample_tail_model, "
              "coupling.coupled_pair) until tracing inside the package lands")
        print("spans: " + traced["spans_file"])
        for name, m in metrics.items():
            if name not in plain["op_metrics"]:
                print("%-36s %14.6g %s" % (name, m["value"], m["unit"]))
    else:
        metrics = {name: {"value": e2e[name], "unit": unit}
                   for name, unit in E2E_UNITS.items()}
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
