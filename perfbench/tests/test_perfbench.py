"""Tests of the benchmark itself: the check helpers reject known-wrong results,
and tiny runs of every workload emit every named metric with failed == 0.

Run from the repository root:  python3 -m pytest perfbench/tests -q
(about three minutes: each tiny run still runs one sweep at 5e4 reps).
"""

import json
import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import run  # noqa: E402

WORKLOADS = ("petersburg_mc", "limit_tables", "poisson_constructions")
COUNTS = ("sampling.stream_opens", "sampling.petersburg_draws",
          "charfn.exponent_points", "charfn.table_points",
          "tailmodel.quantile_points", "coupling.pairs", "empirics.ks_points")


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _bench(workload, trace, seed=5, cwd=ROOT):
    out = subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600)
    return out


_RUNS = {}


def tiny(workload, trace):
    key = (workload, trace)
    if key not in _RUNS:
        out = _bench(workload, trace)
        assert out.returncode == 0, out.stderr
        _RUNS[key] = json.loads(out.stdout.strip().splitlines()[-1])
    return _RUNS[key]


# -- check helpers reject known-wrong results -------------------------------------


def _levy_sample(n, seed):
    # erfc(sqrt(c / (2x))) is the law of c / Z^2; here c = pi / 2
    z = np.random.default_rng(seed).standard_normal(n)
    return (math.pi / 2.0) / z ** 2


def test_ks_check_accepts_the_law_and_rejects_wrong_alpha():
    from semistable.sampling import lepage_batch

    assert checks.check_ks(_levy_sample(5000, 1), checks.levy_cdf) is None
    wrong = lepage_batch(0.6, 2000, seed=3, n_terms=2000)
    assert checks.check_ks(wrong, checks.levy_cdf) is not None
    assert checks.check_ks(_levy_sample(5000, 2) * 1.2, checks.levy_cdf) is not None


def test_two_sample_check_rejects_different_laws():
    from semistable.sampling import lepage_batch

    a, b = _levy_sample(2000, 3), _levy_sample(2000, 4)
    assert checks.check_ks_two(a, b) is None
    wrong = lepage_batch(0.6, 2000, seed=5, n_terms=2000)
    assert checks.check_ks_two(a, wrong) is not None


def test_oracle_check_rejects_shifted_cdf():
    xs = np.linspace(-10.0, 10.0, 201)
    exact = 0.5 + np.arctan(xs) / math.pi
    assert checks.check_close(exact + 1e-9, exact, 1e-6, "cauchy") is None
    assert checks.check_close(exact + 0.01, exact, 1e-6, "cauchy") is not None


def test_cdf_value_check_rejects_bad_grids():
    f = np.linspace(0.0, 1.0, 201)
    assert checks.check_cdf_values(f, expected_size=201) is None
    assert checks.check_cdf_values(f[:-1], expected_size=201) is not None
    assert checks.check_cdf_values(f + 0.01) is not None           # leaves [0, 1]
    assert checks.check_cdf_values(f[::-1]) is not None            # not monotone
    assert checks.check_cdf_values(np.r_[f[:-1], np.nan]) is not None


def test_closure_check_rejects_gap_above_twice_tol():
    f1 = np.linspace(0.0, 0.9, 201)
    assert checks.check_close(f1 + 1e-8, f1, 2e-8, "closure") is None
    assert checks.check_close(f1 + 1e-7, f1, 2e-8, "closure") is not None


def test_far_tail_check_rejects_shifted_tail():
    xs = (101.0, 297.0, 1004.0)
    tail = np.array([checks.dyadic_levy_tail(1.5, x) for x in xs])
    assert checks.check_far_tail(xs, 1.0 - tail, 1.5) is None
    assert checks.check_far_tail(xs, 1.0 - tail - 0.01, 1.5) is not None
    assert checks.check_far_tail(xs, 1.0 - tail + 0.01, 1.5) is not None


def test_dyadic_levy_tail_counts_atoms_above_x():
    # atoms of gamma = 1 at 2, 4, 8, ... with masses 1/2, 1/4, 1/8, ...
    assert checks.dyadic_levy_tail(1.0, 3.0) == 0.5
    assert checks.dyadic_levy_tail(1.0, 4.0) == 0.25
    assert checks.dyadic_levy_tail(1.5, 100.0) == 1.5 * 2.0 ** -7


# -- the benchmark contract ------------------------------------------------------------


def test_benchmark_json_matches_the_emitted_names():
    spec = _spec()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_tiny_run_emits_every_metric(workload, trace):
    spec = _spec()
    res = tiny(workload, trace)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 1
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    assert {k: m["unit"] for k, m in res["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    if not trace:
        assert all(m["value"] > 0 for m in res["metrics"].values())


@pytest.mark.parametrize("workload", ("limit_tables", "poisson_constructions"))
def test_traced_counts_repeat(workload):
    first = tiny(workload, 1)["metrics"]
    again = _bench(workload, 1)
    assert again.returncode == 0, again.stderr
    second = json.loads(again.stdout.strip().splitlines()[-1])["metrics"]
    assert {k: first[k]["value"] for k in COUNTS} == {k: second[k]["value"] for k in COUNTS}


def test_fails_without_package_source(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    out = _bench("limit_tables", 0, cwd=str(tmp_path))
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
