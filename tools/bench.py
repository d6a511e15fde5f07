"""Paired benchmark runs of this checkout's HEAD against a parent commit.

    python3 tools/bench.py --pr 37 --parent HEAD~1

The committed files of the parent and of HEAD are each extracted (git
archive) into a temporary directory (not a git worktree: nothing is left to
prune in .git), so that neither tree starts with bytecode caches the other
lacks (a checkout's __pycache__ read 0.3-0.7 MiB lower peak RSS on every
workload), and perfbench/run.py, unchanged, runs on both trees for every
workload in BENCHMARK.json: 10 pairs per workload, the fewest the gain rule
below counts on, the order alternating (parent first in even pairs, the
head first in odd ones), all at seed 4242 and the benchmark's run_seconds.
This checkout must have no uncommitted change to a tracked file, so that
the tree measured as the head is the one checked out.
Each tree also runs Tier-1 once, under CI's flags (parent first), for its
wall seconds, its summary line and the eleven "ACCEPTANCE ... runtime=" lines
that tests/test_acceptance.py prints (shown by -rP).  The record also holds
each tree's src/ line count, the `wc -l` total of src/semistable/*.py, and
under "host" both os.cpu_count() and "usable_cpus", the CPUs this process
may run on (null where the platform has no affinity mask): a pooled phase
starts a helper per usable CPU past the first.

BENCH_<pr>.json, written at the root, holds every pair, each side's median
and quartiles per end-to-end metric, and the spread rule's verdict:
  - "worse": the head's median is worse than the parent's by more than the
    metric's bound (a fraction of the parent's median);
  - "unresolved": otherwise, but either side's quartile spread passes the
    bound, so the runs spread too widely to tell;
  - "gain": otherwise, the head is better in at least 9 of every 10 pairs
    and its median beats the parent's by more than the parent's quartile
    spread (the rule a claimed gain must meet);
  - "no worse": the rest.
Failed operations are listed per side.  The temporary trees are removed on
exit, and every child is waited for, so no process outlives the script.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_TIMEOUT_S = 600.0  # one perfbench invocation; run.py itself stops at 170 s
TIER1_TIMEOUT_S = 1800.0  # one Tier-1 run, about 85 s on 2 CPUs
TIER1 = [sys.executable, "-m", "pytest", "-q", "-rP", "-p", "no:cacheprovider",
         "--continue-on-collection-errors", "-W", "error::RuntimeWarning"]
SEED = 4242
PAIRS = 10  # per workload; "gain" needs 9 of every 10 pairs better


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--pr", type=int, required=True, help="names BENCH_<pr>.json")
    ap.add_argument("--parent", required=True, help="the parent commit (any git ref)")
    return ap.parse_args(argv)


def _git(*args):
    return subprocess.run(["git", "-C", ROOT, *args], check=True, capture_output=True).stdout


def _extract(ref, tree):
    """Unpack the committed files of ref into the directory tree."""
    data = _git("archive", "--format=tar", ref)
    with tarfile.open(fileobj=io.BytesIO(data)) as tar:
        if hasattr(tarfile, "data_filter"):
            tar.extractall(tree, filter="data")
        else:  # an older Python has no extraction filters
            tar.extractall(tree)


def _child(cmd, tree, timeout, env=None):
    """(exit code, stdout, stderr) of cmd run in tree."""
    # its own session, so a timeout stops the child's children with it
    proc = subprocess.Popen(cmd, cwd=tree, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=timeout)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
    return proc.returncode, stdout, stderr


def _run(tree, workload, seconds):
    """One perfbench invocation: its end-to-end metrics and operation counts."""
    code, stdout, stderr = _child(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", str(seconds), "--trace", "0"], tree, RUN_TIMEOUT_S)
    lines = stdout.strip().splitlines()
    if code != 0 or not lines:
        raise RuntimeError("perfbench failed in %s on %s (exit %d): %s"
                           % (tree, workload, code, stderr.strip()[-400:]))
    doc = json.loads(lines[-1])
    return {"metrics": {k: m["value"] for k, m in doc["metrics"].items()},
            "attempted": doc["attempted"], "failed": doc["failed"],
            "failures": [line for line in lines if line.startswith("FAILED ")]}


def _tier1(tree):
    """One Tier-1 run of tree: wall seconds, exit code, summary line and the
    ACCEPTANCE lines."""
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    started = time.perf_counter()
    code, stdout, _ = _child(TIER1, tree, TIER1_TIMEOUT_S, env)
    lines = stdout.strip().splitlines()
    return {"wall_s": time.perf_counter() - started, "exit": code,
            "summary": lines[-1].strip("= ") if lines else "",
            "acceptance": sorted({line[line.index("ACCEPTANCE "):] for line in lines
                                  if "ACCEPTANCE " in line and "runtime=" in line})}


def _src_lines(tree):
    """The `wc -l` total (newline count) of src/semistable/*.py in tree."""
    src = os.path.join(tree, "src", "semistable")
    total = 0
    for name in os.listdir(src):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as f:
                total += f.read().count(b"\n")
    return total


def _summary(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def _verdict(spec, parent, head, pairs):
    """The spread rule for one end-to-end metric (see the module docstring)."""
    sign = 1.0 if spec["better"] == "lower" else -1.0
    p, h = _summary(parent), _summary(head)
    worse_by = sign * (h["median"] - p["median"]) / p["median"]
    spreads = [(s["q3"] - s["q1"]) / s["median"] for s in (p, h)]
    better_pairs = sum(sign * (b - a) < 0.0 for a, b in pairs)
    if worse_by > spec["bound"]:
        verdict = "worse"
    elif max(spreads) > spec["bound"]:
        verdict = "unresolved"
    elif (10 * better_pairs >= 9 * len(pairs)
          and -sign * (h["median"] - p["median"]) > p["q3"] - p["q1"]):
        verdict = "gain"
    else:
        verdict = "no worse"
    return {"unit": spec["unit"], "better": spec["better"], "bound": spec["bound"],
            "parent": p, "head": h, "head_worse_by": worse_by,
            "quartile_spreads": {"parent": spreads[0], "head": spreads[1]},
            "head_better_pairs": better_pairs, "verdict": verdict}


def main(argv=None) -> int:
    args = _parse(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    out = os.path.join(ROOT, "BENCH_%d.json" % args.pr)
    parent_sha = _git("rev-parse", args.parent).decode().strip()
    head_sha = _git("rev-parse", "HEAD").decode().strip()
    dirty = _git("status", "--porcelain", "--untracked-files=no").decode()
    if dirty:
        sys.exit("bench: commit or stash these changes first, the record names the "
                 "head by its commit:\n" + dirty)
    scratch = tempfile.mkdtemp(prefix="semistable-bench-")
    try:
        trees = {side: os.path.join(scratch, side) for side in ("parent", "head")}
        for side, sha in (("parent", parent_sha), ("head", head_sha)):
            _extract(sha, trees[side])
        doc = {"pr": args.pr, "parent": parent_sha, "head": head_sha,
               "command": bench["command"], "seed": SEED,
               "seconds": bench["run_seconds"], "pairs_per_workload": PAIRS,
               "host": {"machine": platform.machine(), "cpus": os.cpu_count(),
                        "usable_cpus": (len(os.sched_getaffinity(0))
                                        if hasattr(os, "sched_getaffinity") else None),
                        "python": platform.python_version()},
               "workloads": {}}
        doc["src_lines"] = {side: _src_lines(trees[side]) for side in ("parent", "head")}
        print("src lines: parent %(parent)d, head %(head)d" % doc["src_lines"], flush=True)
        doc["tier1"] = {side: _tier1(trees[side]) for side in ("parent", "head")}
        for side, run in doc["tier1"].items():
            print("tier1 %s: %.1f s, %s" % (side, run["wall_s"], run["summary"]), flush=True)
        for name in [w["name"] for w in bench["workloads"]]:
            pairs = []
            for i in range(PAIRS):
                order = ("parent", "head") if i % 2 == 0 else ("head", "parent")
                runs = {}
                for side in order:
                    runs[side] = _run(trees[side], name, bench["run_seconds"])
                    print("%s pair %d %s: %s" % (name, i, side, json.dumps(runs[side]["metrics"])),
                          flush=True)
                pairs.append({"first": order[0], **runs})
            metrics = {}
            for spec in bench["end_to_end"]:
                m = spec["name"]
                values = [(pr["parent"]["metrics"][m], pr["head"]["metrics"][m]) for pr in pairs]
                metrics[m] = _verdict(spec, [a for a, _ in values], [b for _, b in values], values)
            doc["workloads"][name] = {
                "pairs": pairs, "metrics": metrics,
                "failed_ops": {side: sum(pr[side]["failed"] for pr in pairs)
                               for side in ("parent", "head")}}
        with open(out, "w") as f:
            json.dump(doc, f, indent=1, sort_keys=True)
            f.write("\n")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    for name, w in doc["workloads"].items():
        for m, v in w["metrics"].items():  # with the two numbers the gain rule reads
            print("%-22s %-13s parent %.4g head %.4g (%+.1f %%), head better in %d/%d pairs, "
                  "parent q3 - q1 %.4g: %s"
                  % (name, m, v["parent"]["median"], v["head"]["median"],
                     100.0 * v["head_worse_by"] * (1 if v["better"] == "lower" else -1),
                     v["head_better_pairs"], len(w["pairs"]),
                     v["parent"]["q3"] - v["parent"]["q1"], v["verdict"]))
    print("wrote " + out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
