"""Command-line surface: samplers, CDF tables and the experiment suite.

Every run is reproducible: the seed defaults to a fixed constant (override
with --seed or the SEMISTABLE_SEED environment variable; the flag wins,
but a SEMISTABLE_SEED that is not an integer is a parameter error either
way), and each artifact embeds its full run configuration.  Exit codes: 0 on
success, 1 when stdout closes early (a broken pipe, e.g. into head), 2 on
parse/parameter errors, 3 when an experiment reports pass = false, 4 on
numeric failure (no decay, a work bound, float overflow).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys

import numpy as np

from . import charfn, coupling, empirics, sampling, tailmodel
from ._arrays import ResourceLimitError, _check_budget

DEFAULT_SEED = 0xC5D00B5E55AA1234
SEED_ENV = "SEMISTABLE_SEED"

__all__ = ["main", "run_selftest", "DEFAULT_SEED", "SEED_ENV"]


def _seed_default() -> int:
    env = os.environ.get(SEED_ENV)
    if env is None:
        return DEFAULT_SEED
    try:
        return int(env, 0)
    except ValueError:
        raise ValueError("%s=%r is not an integer" % (SEED_ENV, env)) from None


def _parse_grid(spec: str) -> np.ndarray:
    """Grid 'lo:hi:step' with exactly floor((hi - lo)/step) + 1 rows, at most 10^6."""
    try:
        lo, hi, step = (float(p) for p in spec.split(":"))
    except Exception:
        raise ValueError("grid must be lo:hi:step") from None
    if not all(map(math.isfinite, (lo, hi, step))):
        raise ValueError("grid bounds and step must be finite")
    if step <= 0.0 or hi < lo:
        raise ValueError("grid needs hi >= lo and step > 0")
    rows = np.floor((hi - lo) / step + 1e-9) + 1.0
    _check_budget(rows, 10 ** 6, "grid rows")
    return lo + step * np.arange(int(rows))


def _parse_counts(spec: str):
    return [int(p) for p in spec.split(",") if p]


def _parse_reals(spec: str):
    return [float(p) for p in spec.split(",") if p]


def _fmt(v: float) -> str:
    return "%.17g" % v


def _write_lines(path, lines):
    """lines to the file at path, or to stdout when path is None."""
    if path is None:
        print("\n".join(lines))
        return
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _write_csv(path, config, header, rows):
    lines = ["# config: " + json.dumps(config, sort_keys=True), ",".join(header)]
    lines += [",".join(_fmt(c) if isinstance(c, float) else str(c) for c in row)
              for row in rows]
    _write_lines(path, lines)


def _emit_summary(report_dict, config, args):
    doc = dict(report_dict, config=config)
    text = json.dumps(doc, sort_keys=True)
    if args.out and args.format == "jsonl":
        with open(args.out, "a", newline="\n") as fh:
            fh.write(text + "\n")
    elif args.out:
        _write_lines(args.out, [json.dumps(doc, sort_keys=True, indent=2)])
    else:
        print(text)


def _config(args, **params) -> dict:
    return {
        "subcommand": args.command,
        "seed": args.seed,
        "params": params,
        "out": args.out,
        "format": args.format or "json",
    }


def _build_model(args) -> tailmodel.TailModel:
    if args.model_json:
        try:
            with open(args.model_json) as fh:
                return tailmodel.model_from_json(fh.read())
        except OSError as exc:
            raise ValueError("cannot read --model-json: %s" % exc) from None
    if args.model == "petersburg":
        return tailmodel.make_petersburg(x0=args.x0)
    return tailmodel.make_pareto(args.alpha, c=args.c, x0=args.x0)


_LAWS = {
    "g": lambda a: charfn.petersburg_law(),
    "g-gamma": lambda a: charfn.g_gamma_law(a.gamma),
    "cauchy": lambda a: charfn.cauchy_law(),
    "gaussian": lambda a: charfn.gaussian_law(),
    "stable": lambda a: charfn.one_sided_stable_exponent(a.alpha, a.c),
}


_REQUIRED_INT = {"type": int, "required": True}


def _finite(spec: str) -> float:
    """A float option value; NaN and +-inf are parse errors (exit 2)."""
    v = float(spec)
    if not math.isfinite(v):
        raise argparse.ArgumentTypeError("not a finite number: %r" % spec)
    return v


def _real(default):
    return {"type": _finite, "default": default}


# name: (help, run(args, rng) -> ExperimentReport, flags, default --reps);
# the artifact config records every flag of the row plus --reps
_EXPERIMENTS = {
    "merging": (
        "sup distance of S_n/n - log2 n to the family law at gamma_n",
        lambda a, rng: empirics.merging_experiment(a.n, a.reps, rng,
                                                   tolerance=a.tolerance),
        [("--n", _REQUIRED_INT), ("--tolerance", _real(0.03))], 200000),
    "mlof": (
        "dyadic-subsequence limit: KS at n = 2^k",
        lambda a, rng: empirics.martin_lof_experiment(a.k, a.reps, rng,
                                                      tolerance=a.tolerance),
        [("--k", _REQUIRED_INT), ("--tolerance", _real(0.02))], 200000),
    "feller": (
        "weak-law exceedance vs the limit prediction",
        lambda a, rng: empirics.feller_experiment(a.n, a.reps, rng),
        [("--n", _REQUIRED_INT)], 2000),
    "coupling": (
        "gap curve of the Poisson-count coupling",
        lambda a, rng: coupling.coupling_gap_curve(tailmodel.make_pareto(a.alpha),
                                                   a.n_list, a.reps, rng),
        [("--alpha", _real(0.5)),
         ("--n-list", {"type": _parse_counts, "default": "100,1000,10000"})], 10000),
    "lepage": (
        "LePage series vs normalized block sums",
        lambda a, rng: empirics.lepage_limit_experiment(
            a.alpha, a.k, a.reps, rng, symmetric=a.symmetric,
            n_terms=None if a.n_terms in (None, "auto") else int(a.n_terms),
            tolerance=a.tolerance),
        [("--alpha", _real(0.5)), ("--k", {"type": int, "default": 14}),
         ("--symmetric", {"action": "store_true"}),
         ("--n-terms", {"default": None,
                        "help": "series truncation (integer or 'auto')"}),
         ("--tolerance", _real(0.015))], 100000),
    "orderstats": (
        "uniform order statistics vs the Gamma limit",
        lambda a, rng: empirics.order_statistics_experiment(
            a.p, a.n, a.reps, rng, ks_tolerance=a.tolerance),
        [("--p", _REQUIRED_INT), ("--n", _REQUIRED_INT), ("--tolerance", _real(0.012))], 100000),
    "negligibility": (
        "max-to-sum ratio across tail exponents",
        lambda a, rng: empirics.negligibility_experiment(a.alphas, a.n, a.reps, rng),
        [("--alphas", {"type": _parse_reals, "default": "0.5,2.5"}),
         ("--n", {"type": int, "default": 10000})], 1000),
    "sweep": (
        "merging walk across one dyadic octave",
        lambda a, rng: empirics.merging_sweep(a.k, a.points, a.reps, rng,
                                              tol_max=a.tol_max,
                                              tol_two_sample=a.tol_two_sample),
        [("--k", _REQUIRED_INT), ("--points", {"type": int, "default": 8}),
         ("--tol-max", _real(0.04)), ("--tol-two-sample", _real(0.015))], 100000),
}


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="semistable",
        description="St. Petersburg / semistable limit laws: samplers, CDF "
                    "inversion and Monte Carlo experiments.")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, reps_default=None):
        p.add_argument("--seed", type=lambda s: int(s, 0), default=_seed_default(),
                       help="PRNG seed (default fixed; env %s overrides)" % SEED_ENV)
        p.add_argument("--out", default=None, help="artifact path (default: stdout)")
        p.add_argument("--format", choices=("csv", "json", "jsonl"), default=None,
                       help="artifact format; without it cdf and sample --out "
                            "write csv, the rest json")
        p.add_argument("--threads", type=int, default=1,
                       help="accepted and ignored; outputs do not depend on it")
        if reps_default is not None:
            p.add_argument("--reps", type=int, default=reps_default)

    p = sub.add_parser("sample", help="draw a sample batch (CSV + JSON sidecar)")
    p.add_argument("--model", choices=("petersburg", "pareto"), default="petersburg")
    p.add_argument("--model-json", default=None, help="TailModel JSON document path")
    p.add_argument("--alpha", type=_finite, default=0.5)
    p.add_argument("--c", type=_finite, default=1.0)
    p.add_argument("--x0", type=_finite, default=None)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--symmetrize", action="store_true")
    p.add_argument("--stream", type=int, default=0)
    common(p)

    p = sub.add_parser("cdf", help="tabulate an inverted CDF on a grid")
    # let grid specs like -5:15:0.1 pass as values rather than option strings
    p._negative_number_matcher = re.compile(r"^-\d")
    p.add_argument("--law", choices=_LAWS, required=True)
    p.add_argument("--gamma", type=_finite, default=1.0)
    p.add_argument("--alpha", type=_finite, default=0.5)
    p.add_argument("--c", type=_finite, default=1.0)
    p.add_argument("--grid", required=True, help="lo:hi:step")
    p.add_argument("--tol", type=_finite, default=1e-8)
    common(p)

    for name, (help_, _, flags, reps) in _EXPERIMENTS.items():
        p = sub.add_parser(name, help=help_)
        for flag, kwargs in flags:
            p.add_argument(flag, **kwargs)
        common(p, reps_default=reps)

    p = sub.add_parser("selftest", help="fast subset of the acceptance checks")
    common(p)

    return ap


# -- subcommand bodies ---------------------------------------------------------


def _cmd_sample(args) -> int:
    rng = sampling.RngStream(args.seed, args.stream)
    if args.model == "petersburg" and args.model_json is None and args.x0 is None:
        # the game itself; with --x0 the model draws X | X > x0
        batch = sampling._uniform_batch(sampling.petersburg_from_uniform, args.n,
                                        rng, "petersburg", args.symmetrize)
    else:
        batch = sampling.sample_tail_model(_build_model(args), args.n, rng,
                                           symmetrize=args.symmetrize)
    config = _config(args, model=args.model, n=args.n, stream=args.stream,
                     symmetrize=bool(args.symmetrize))
    csv = args.format == "csv" or (args.format is None and args.out)
    if csv and args.out:  # with its JSON sidecar
        sampling.write_batch(batch, args.out, config)
    elif csv:
        _write_lines(None, sampling._csv_lines(batch))
    else:
        _emit_summary({"values": list(batch.values), "metadata": batch.metadata()},
                      config, args)
    return 0


def _cmd_cdf(args) -> int:
    law = _LAWS[args.law](args)
    xs = _parse_grid(args.grid)
    f = charfn.cdf_from_cf(law, xs, tol=args.tol)
    config = _config(args, law=args.law, gamma=args.gamma, alpha=args.alpha,
                     c=args.c, grid=args.grid, tol=args.tol)
    rows = [(float(x), float(v), args.tol) for x, v in zip(xs, f)]
    if args.format in ("json", "jsonl"):
        _emit_summary({"x": xs.tolist(), "F": f.tolist(), "tol": args.tol}, config, args)
    elif args.out:
        _write_csv(args.out, config, ("x", "F", "tol"), rows)
    else:
        for row in rows:
            print(",".join(_fmt(v) for v in row))
    return 0


def _cmd_experiment(args) -> int:
    _, run, flags, _ = _EXPERIMENTS[args.command]
    if args.format == "csv" and args.command != "coupling":
        raise ValueError("--format csv is the coupling curve's format; use json or jsonl")
    keys = [flag[2:].replace("-", "_") for flag, _ in flags] + ["reps"]
    config = _config(args, **{k: getattr(args, k) for k in keys})
    report = run(args, sampling.RngStream(args.seed))
    if args.format == "csv":  # the coupling curve
        rows = [(r["n"], r["median_gap"], r["q90_gap"], r["ks"])
                for r in report.statistic["rows"]]
        _write_csv(args.out, config, ("n", "median_gap", "q90_gap", "ks"), rows)
    else:
        _emit_summary(report.to_dict(), config, args)
    return 0 if report.passed else 3


# -- selftest -------------------------------------------------------------------


def run_selftest(seed: int):
    """Fast subset of the acceptance checks; returns (exit_code, report lines)."""
    from scipy.special import ndtr

    checks = []

    def check(name, stat, tol, ok=None):
        ok = bool(stat <= tol) if ok is None else bool(ok)
        checks.append((name, stat, tol, ok))

    ts = np.linspace(-50.0, 50.0, 1001)
    ts = ts[ts != 0.0]
    ident = np.max(np.abs(charfn.g_exponent(ts)
                          - (2.0 * charfn.g_exponent(ts / 2.0) - 1j * ts)))
    check("cf-telescoping-identity", float(ident), 1e-10)

    xs = np.linspace(-10.0, 10.0, 81)
    err = np.max(np.abs(charfn.cdf_from_cf(charfn.cauchy_law(), xs)
                        - (0.5 + np.arctan(xs) / math.pi)))
    check("inversion-cauchy", float(err), 1e-6)
    pts = np.array([0.0, 1.0, -1.0, 1.959964])
    err = np.max(np.abs(charfn.cdf_from_cf(charfn.gaussian_law(), pts) - ndtr(pts)))
    check("inversion-gaussian", float(err), 1e-6)
    xs = np.geomspace(0.1, 100.0, 41)
    law = charfn.one_sided_stable_exponent(0.5, 1.0)
    err = np.max(np.abs(charfn.cdf_from_cf(law, xs) - charfn.levy_cdf(xs)))
    check("inversion-one-sided-stable", float(err), 1e-6)

    gam_ok = (empirics.gamma_n(1536) == 1.5 and empirics.gamma_n(1024) == 1.0
              and all(1.0 <= empirics.gamma_n(n) < 2.0 for n in range(1, 400))
              and all(empirics.gamma_n(2 * n) == empirics.gamma_n(n)
                      for n in range(1, 200)))
    check("gamma-n-dyadic-position", 0.0 if gam_ok else 1.0, 0.5, ok=gam_ok)

    model = tailmodel.make_pareto(0.5)
    sums = sampling.poisson_sum_batch(model, 1e-6, 20000, seed=seed)
    ks = empirics.ks_distance(empirics.Ecdf.from_sample(sums), charfn.levy_cdf)
    check("poisson-sum-vs-levy", float(ks), 0.015)

    lp = sampling.lepage_batch(0.5, 20000, seed=seed + 1, n_terms=3000)
    ks = empirics.ks_distance(empirics.Ecdf.from_sample(lp), charfn.levy_cdf)
    check("lepage-vs-levy", float(ks), 0.015)
    check("lepage-vs-poisson-two-sample", float(empirics.ks_two_sample(sums, lp)),
          0.015)

    rep = empirics.order_statistics_experiment(3, 9, 20000,
                                               sampling.RngStream(seed, 50))
    check("orderstats-exact-moments",
          float(max(rep.statistic["mean_err"] / rep.tolerance["mean_err"],
                    rep.statistic["var_err"] / rep.tolerance["var_err"])),
          1.0)

    b1 = sampling.sample_petersburg(64, sampling.RngStream(seed, 7))
    b2 = sampling.sample_petersburg(64, sampling.RngStream(seed, 7))
    det = bool(np.all(b1.values == b2.values))
    check("determinism-reruns", 0.0 if det else 1.0, 0.5, ok=det)

    lines = ["selftest %-32s statistic=%-12.4g tolerance=%-8.3g %s"
             % (name, stat, tol, "PASS" if ok else "FAIL")
             for name, stat, tol, ok in checks]
    return (0 if all(ok for *_, ok in checks) else 3), lines


def _cmd_selftest(args) -> int:
    code, lines = run_selftest(args.seed)
    for line in lines:
        print(line)
    if args.out:
        _write_lines(args.out, ["# config: " + json.dumps(
            _config(args), sort_keys=True)] + lines)
    return code


_DISPATCH = {"sample": _cmd_sample, "cdf": _cmd_cdf, "selftest": _cmd_selftest,
             **dict.fromkeys(_EXPERIMENTS, _cmd_experiment)}


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        code = _DISPATCH[args.command](args)
        sys.stdout.flush()  # a closed pipe raises here, not at exit
        return code
    except SystemExit as exc:  # from argparse
        return int(exc.code) if exc.code else 0
    except BrokenPipeError:  # the Python docs' recipe: flush at exit to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (charfn.InversionError, ResourceLimitError, OverflowError) as exc:
        print("numeric failure: %s" % exc, file=sys.stderr)
        return 4
    except ValueError as exc:
        print("parameter error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
