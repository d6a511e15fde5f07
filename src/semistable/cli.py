"""Command-line surface: samplers, CDF tables and the experiment suite.

Every subcommand is one row of _COMMANDS, and each artifact records that
row's flags (plus --reps where it has one) as its run configuration.
Every run is reproducible: the seed defaults to a fixed constant (override
with --seed or the SEMISTABLE_SEED environment variable; the flag wins,
but a SEMISTABLE_SEED that is not an integer is a parameter error either
way).  Exit codes: 0 on success, 1 when stdout closes early (a broken
pipe, e.g. into head), 2 on parse/parameter errors and an --out that
cannot be written (refused before the run; a run that fails leaves no new
--out file), 3 when an experiment reports pass = false, 4 on numeric
failure (no decay, a work bound, float overflow).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import sys

import numpy as np

from . import charfn, coupling, empirics, sampling, tailmodel
from ._arrays import ResourceLimitError, _check_budget, _check_real

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
    lo = _check_real(lo, "grid lo")
    hi, step = _check_real(hi, "grid hi", lo, ends="[)"), _check_real(step, "grid step", 0.0)
    rows = np.floor((hi - lo) / step + 1e-9) + 1.0
    _check_budget(rows, 10 ** 6, "grid rows")
    return lo + step * np.arange(int(rows))


def _parse_counts(spec: str):
    return [int(p) for p in spec.split(",") if p]


def _parse_reals(spec: str):
    return [float(p) for p in spec.split(",") if p]


def _config(args) -> dict:
    """The run configuration: every flag of the subcommand's row, plus --reps."""
    _, _, flags, reps = _COMMANDS[args.command]
    keys = [flag[2:].replace("-", "_") for flag, _ in flags] + (["reps"] if reps else [])
    return {
        "subcommand": args.command,
        "seed": args.seed,
        "params": {k: getattr(args, k) for k in keys},
        "out": args.out,
        "format": args.format,
    }


def _write_lines(path, lines):
    """lines to the file at path, or to stdout when path is None."""
    if path is None:
        print("\n".join(lines))
        return
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _write_commented(args, lines):
    """lines under a '# config:' comment, to --out or stdout."""
    _write_lines(args.out, ["# config: " + json.dumps(_config(args), sort_keys=True,
                                                      allow_nan=False)] + lines)


def _csv_rows(rows):
    return [",".join("%.17g" % c if isinstance(c, float) else str(c) for c in row)
            for row in rows]


def _emit_summary(report_dict, args):  # strict JSON: a NaN or an infinity raises ValueError
    doc = dict(report_dict, config=_config(args))
    text = json.dumps(doc, sort_keys=True, allow_nan=False)
    if args.out and args.format == "jsonl":
        with open(args.out, "a", newline="\n") as fh:
            fh.write(text + "\n")
    elif args.out:
        _write_lines(args.out, [json.dumps(doc, sort_keys=True, indent=2)])
    else:
        print(text)


def _build_model(args) -> tailmodel.TailModel:
    if args.model_json:
        try:
            with open(args.model_json) as fh:
                return tailmodel.model_from_json(fh.read())
        except OSError as exc:
            raise ValueError("cannot read --model-json: %s" % exc) from None
    if args.model == "petersburg":  # the game itself unless --x0 conditions it
        return tailmodel.make_petersburg(x0=1.0 if args.x0 is None else args.x0)
    return tailmodel.make_pareto(args.alpha, c=args.c, x0=args.x0)


_LAWS = {
    "g": lambda a: charfn.petersburg_law(),
    "g-gamma": lambda a: charfn.g_gamma_law(a.gamma),
    "cauchy": lambda a: charfn.cauchy_law(),
    "gaussian": lambda a: charfn.gaussian_law(),
    "stable": lambda a: charfn.one_sided_stable_exponent(a.alpha, a.c),
}


# -- subcommand bodies ---------------------------------------------------------


def _cmd_sample(args) -> int:
    rng = sampling.RngStream(args.seed, args.stream)
    batch = sampling.sample_tail_model(_build_model(args), args.n, rng, args.symmetrize)
    if args.format == "csv" and args.out:  # with its JSON sidecar
        sampling.write_batch(batch, args.out, _config(args))
    elif args.format == "csv":
        _write_lines(None, sampling._csv_lines(batch))
    else:
        _emit_summary({"values": list(batch.values), "metadata": batch.metadata()},
                      args)
    return 0


def _cmd_cdf(args) -> int:
    law = _LAWS[args.law](args)
    xs = _parse_grid(args.grid)
    f = charfn.cdf_from_cf(law, xs, tol=args.tol)
    rows = [(float(x), float(v), args.tol) for x, v in zip(xs, f)]
    if args.format in ("json", "jsonl"):
        _emit_summary({"x": xs.tolist(), "F": f.tolist(), "tol": args.tol}, args)
    elif args.out:
        _write_commented(args, ["x,F,tol"] + _csv_rows(rows))
    else:  # bare rows, for piping
        _write_lines(None, _csv_rows(rows))
    return 0


def _cmd_experiment(args, run) -> int:
    if args.format == "csv" and args.command != "coupling":
        raise ValueError("--format csv is the coupling curve's format; use json or jsonl")
    report = run(args, sampling.RngStream(args.seed))
    if args.format == "csv":  # the coupling curve
        rows = [(r["n"], r["median_gap"], r["q90_gap"], r["ks"])
                for r in report.statistic["rows"]]
        _write_commented(args, ["n,median_gap,q90_gap,ks"] + _csv_rows(rows))
    else:
        _emit_summary(report.to_dict(), args)
    return 0 if report.passed else 3


def _experiment(run):
    """The handler of an experiment row; run(args, rng) -> ExperimentReport."""
    return functools.partial(_cmd_experiment, run=run)


def _cmd_selftest(args) -> int:
    code, lines = run_selftest(args.seed)
    if args.format != "csv":  # the text report is the csv form
        _emit_summary({"lines": lines, "pass": code == 0}, args)
        return code
    _write_lines(None, lines)
    if args.out:
        _write_commented(args, lines)
    return code


# -- the subcommand table ---------------------------------------------------------


_REQUIRED_INT = {"type": int, "required": True}


def _finite(spec: str) -> float:
    """A float option value; NaN and +-inf are parse errors (exit 2)."""
    v = float(spec)
    if not math.isfinite(v):
        raise argparse.ArgumentTypeError("not a finite number: %r" % spec)
    return v


def _real(default):
    return {"type": _finite, "default": default}


# name: (help, handler(args) -> exit code, flags, default --reps or None);
# the artifact config records every flag of the row plus --reps
_COMMANDS = {
    "sample": (
        "draw a sample batch (CSV + JSON sidecar)", _cmd_sample,
        [("--model", {"choices": ("petersburg", "pareto"), "default": "petersburg"}),
         ("--model-json", {"default": None, "help": "TailModel JSON document path"}),
         ("--alpha", _real(0.5)), ("--c", _real(1.0)), ("--x0", _real(None)),
         ("--n", _REQUIRED_INT), ("--symmetrize", {"action": "store_true"}),
         ("--stream", {"type": int, "default": 0})], None),
    "cdf": (
        "tabulate an inverted CDF on a grid", _cmd_cdf,
        [("--law", {"choices": _LAWS, "required": True}), ("--gamma", _real(1.0)),
         ("--alpha", _real(0.5)), ("--c", _real(1.0)),
         ("--grid", {"required": True, "help": "lo:hi:step"}), ("--tol", _real(1e-8))],
        None),
    "merging": (
        "sup distance of S_n/n - log2 n to the family law at gamma_n",
        _experiment(lambda a, rng: empirics.merging_experiment(
            a.n, a.reps, rng, tolerance=a.tolerance)),
        [("--n", _REQUIRED_INT), ("--tolerance", _real(0.03))], 200000),
    "mlof": (
        "dyadic-subsequence limit: KS at n = 2^k",
        _experiment(lambda a, rng: empirics.martin_lof_experiment(
            a.k, a.reps, rng, tolerance=a.tolerance)),
        [("--k", _REQUIRED_INT), ("--tolerance", _real(0.02))], 200000),
    "feller": (
        "weak-law exceedance vs the limit prediction",
        _experiment(lambda a, rng: empirics.feller_experiment(a.n, a.reps, rng)),
        [("--n", _REQUIRED_INT)], 2000),
    "coupling": (
        "gap curve of the Poisson-count coupling",
        _experiment(lambda a, rng: coupling.coupling_gap_curve(
            tailmodel.make_pareto(a.alpha), a.n_list, a.reps, rng)),
        [("--alpha", _real(0.5)),
         ("--n-list", {"type": _parse_counts, "default": "100,1000,10000"})], 10000),
    "lepage": (
        "LePage series vs normalized block sums",
        _experiment(lambda a, rng: empirics.lepage_limit_experiment(
            a.alpha, a.k, a.reps, rng, symmetric=a.symmetric,
            n_terms=None if a.n_terms in (None, "auto") else float(a.n_terms),
            tolerance=a.tolerance)),
        [("--alpha", _real(0.5)), ("--k", {"type": int, "default": 14}),
         ("--symmetric", {"action": "store_true"}),
         ("--n-terms", {"default": None,
                        "help": "series truncation (integer or 'auto')"}),
         ("--tolerance", _real(0.015))], 100000),
    "orderstats": (
        "uniform order statistics vs the Gamma limit",
        _experiment(lambda a, rng: empirics.order_statistics_experiment(
            a.p, a.n, a.reps, rng, ks_tolerance=a.tolerance)),
        [("--p", _REQUIRED_INT), ("--n", _REQUIRED_INT), ("--tolerance", _real(0.012))], 100000),
    "negligibility": (
        "max-to-sum ratio across tail exponents",
        _experiment(lambda a, rng: empirics.negligibility_experiment(
            a.alphas, a.n, a.reps, rng)),
        [("--alphas", {"type": _parse_reals, "default": "0.5,2.5"}),
         ("--n", {"type": int, "default": 10000})], 1000),
    "sweep": (
        "merging walk across one dyadic octave",
        _experiment(lambda a, rng: empirics.merging_sweep(
            a.k, a.points, a.reps, rng, tol_max=a.tol_max,
            tol_two_sample=a.tol_two_sample)),
        [("--k", _REQUIRED_INT), ("--points", {"type": int, "default": 8}),
         ("--tol-max", _real(0.04)), ("--tol-two-sample", _real(0.015))], 100000),
    "selftest": ("fast subset of the acceptance checks", _cmd_selftest, [], None),
}


@functools.lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    """The parser of every _COMMANDS row, built once per process on first use."""
    ap = argparse.ArgumentParser(
        prog="semistable",
        description="St. Petersburg / semistable limit laws: samplers, CDF "
                    "inversion and Monte Carlo experiments.")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (help_, _, flags, reps) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_)
        # let values like the grid -5:15:0.1 pass as values, not option strings
        p._negative_number_matcher = re.compile(r"^-\d")
        for flag, kwargs in flags:
            p.add_argument(flag, **kwargs)
        p.add_argument("--seed", type=lambda s: int(s, 0), default=None,
                       help="PRNG seed (default fixed; env %s overrides)" % SEED_ENV)
        p.add_argument("--out", default=None, help="artifact path (default: stdout)")
        p.add_argument("--format", choices=("csv", "json", "jsonl"), default=None,
                       help="artifact format; without it cdf, selftest and "
                            "sample --out write csv, the rest json")
        p.add_argument("--threads", type=int, default=1,
                       help="accepted and ignored; outputs do not depend on it")
        if reps is not None:
            p.add_argument("--reps", type=int, default=reps)
    return ap


# -- selftest -------------------------------------------------------------------


def run_selftest(seed: int):
    """Fast subset of the acceptance checks; returns (exit_code, report lines)."""
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
    phi = [0.5 * math.erfc(-x / math.sqrt(2.0)) for x in pts]  # the standard normal CDF
    err = np.max(np.abs(charfn.cdf_from_cf(charfn.gaussian_law(), pts) - phi))
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


def main(argv=None) -> int:
    fresh = None  # an --out this call made; removed if the run then fails
    try:
        seed = _seed_default()  # the one read of the environment
        args = _build_parser().parse_args(argv)
        if args.seed is None:
            args.seed = seed
        csv = args.command in ("cdf", "selftest") or args.command == "sample" and args.out
        args.format = args.format or ("csv" if csv else "json")  # written and recorded
        if args.out:  # an --out that cannot be written is refused before the run
            fresh = None if os.path.exists(args.out) else args.out
            open(args.out, "a").close()
        code = _COMMANDS[args.command][1](args)
        fresh = None
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
    except (ValueError, OSError) as exc:  # OSError: an --out that cannot be written
        print("parameter error: %s" % exc, file=sys.stderr)
        return 2
    finally:
        if fresh and os.path.exists(fresh):
            os.remove(fresh)


if __name__ == "__main__":
    sys.exit(main())
