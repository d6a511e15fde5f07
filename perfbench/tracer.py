"""Span tracing of the semistable package from the outside, for traced runs only.

install() replaces every public function named in a module's __all__ with a
timing wrapper, in every package module that binds that function (so
``from .charfn import tabulate_cdf`` in empirics is traced too), and wraps
RngStream.generator.  Each call records one span: id, parent id, name,
start, end and a work count.  Spans stay in memory until the run ends.

Package-internal calls to private helpers are not spans: their time is
charged to the nearest traced caller.  In particular quantile work reached
through sampling._quantile_batch shows up as self time of
sampling.sample_tail_model or of coupling.coupled_pair.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import sys
import threading
import time

import numpy as np

LAYERS = ("cli", "empirics", "sampling", "charfn", "tailmodel", "coupling")


def _size(x) -> int:
    return int(np.size(x))


# Work count recorded per call, by qualified name; unlisted spans count 0.
_COUNTS = {
    "charfn.g_exponent": lambda a, k: _size(a[0]),
    "charfn.cdf_from_cf": lambda a, k: _size(a[1] if len(a) > 1 else k["x"]),
    "charfn.tabulate_cdf": lambda a, k: 1,
    "sampling.RngStream.generator": lambda a, k: 1,
    "sampling.petersburg_from_uniform": lambda a, k: _size(a[0]),
    "sampling.sample_tail_model": lambda a, k: int(a[1] if len(a) > 1 else k["n"]),
    "tailmodel.tail_quantile": lambda a, k: _size(a[1] if len(a) > 1 else k["u"]),
    "tailmodel.intensity_quantile": lambda a, k: _size(a[1] if len(a) > 1 else k["u"]),
    "tailmodel.tail_eval": lambda a, k: _size(a[1] if len(a) > 1 else k["x"]),
    "coupling.coupled_pair": lambda a, k: 1,
    "coupling.coupling_gap_curve": lambda a, k: (
        len(a[1] if len(a) > 1 else k["n_list"]) * int(a[2] if len(a) > 2 else k["reps"])),
    "empirics.ks_distance": lambda a, k: int((a[0] if a else k["e"]).n),
    "empirics.ks_two_sample": lambda a, k: (_size(a[0] if a else k["a"])
                                            + _size(a[1] if len(a) > 1 else k["b"])),
}


class Tracer:
    """In-memory span recorder; one per traced run."""

    def __init__(self):
        self.spans = []          # (id, parent, name, start_ns, end_ns, count)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main = threading.main_thread()
        self._main_stack = []
        self._restore = []

    def _stack(self):
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn, name):
        count = _COUNTS.get(name)
        spans, ids, main_stack = self.spans, self._ids, self._main_stack

        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                # A pool worker's first span belongs to the span the main
                # thread is blocked in (map_replicate_blocks waits inside it).
                try:
                    parent = main_stack[-1] if stack is not main_stack else 0
                except IndexError:
                    parent = 0
            n = count(args, kwargs) if count else 0
            sid = next(ids)  # itertools.count and list.append are atomic
            stack.append(sid)
            t0 = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter_ns()
                stack.pop()
                spans.append((sid, parent, name, t0, t1, n))

        return functools.update_wrapper(traced, fn)

    def install(self):
        """Wrap every public function of the package's layers in place."""
        from semistable import sampling

        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules["semistable." + layer]
            for attr in mod.__all__:
                obj = getattr(mod, attr)
                if inspect.isfunction(obj) and id(obj) not in wrappers:
                    wrappers[id(obj)] = self.wrap(obj, layer + "." + attr)
        mods = [m for n, m in list(sys.modules.items())
                if n == "semistable" or n.startswith("semistable.")]
        for mod in mods:
            for attr, obj in list(vars(mod).items()):
                w = wrappers.get(id(obj))
                if w is not None:
                    self._restore.append((mod, attr, obj))
                    setattr(mod, attr, w)
        gen = sampling.RngStream.generator
        self._restore.append((sampling.RngStream, "generator", gen))
        sampling.RngStream.generator = self.wrap(gen, "sampling.RngStream.generator")

    def uninstall(self):
        for owner, attr, obj in reversed(self._restore):
            setattr(owner, attr, obj)
        self._restore.clear()

    def write(self, path, header: str):
        """Spans as CSV, one per line, after a '# ' header line."""
        with open(path, "w", newline="\n") as fh:
            fh.write("# " + header + "\n")
            fh.write("id,parent,name,start_ns,end_ns,count\n")
            for s in sorted(self.spans):
                fh.write("%d,%d,%s,%d,%d,%d\n" % s)


# -- per-layer metrics from spans ------------------------------------------------


def _union_ns(intervals, lo, hi) -> int:
    """Length of the union of [a, b] intervals clipped to [lo, hi]."""
    total, cur_a, cur_b = 0, None, None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def span_stats(spans):
    """Per-name totals: calls, count, inclusive ns, self ns; plus table points.

    Self time is the span's duration minus the part of it covered by its
    child spans (children run on up to two threads, hence the union).
    """
    children = {}
    by_id = {}
    for s in spans:
        by_id[s[0]] = s
        children.setdefault(s[1], []).append(s)
    stats = {}
    table_points = 0
    for sid, parent, name, t0, t1, n in spans:
        kids = children.get(sid, ())
        covered = _union_ns([(k[3], k[4]) for k in kids], t0, t1) if kids else 0
        st = stats.setdefault(name, {"calls": 0, "count": 0, "incl_ns": 0, "self_ns": 0})
        st["calls"] += 1
        st["count"] += n
        st["incl_ns"] += t1 - t0
        st["self_ns"] += t1 - t0 - covered
        if name == "charfn.cdf_from_cf" and parent in by_id \
                and by_id[parent][2] == "charfn.tabulate_cdf":
            table_points += n
    return stats, table_points


def layer_metrics(spans) -> dict:
    """The per-layer metrics named in BENCHMARK.json, from one run's spans."""
    stats, table_points = span_stats(spans)

    def get(name, key):
        return stats.get(name, {}).get(key, 0)

    def sec(ns):
        return ns / 1e9

    def ratio(a, b):
        return a / b if b else 0.0

    def module_self(layer):
        return sec(sum(st["self_ns"] for n, st in stats.items()
                       if n.startswith(layer + ".")))

    opens = get("sampling.RngStream.generator", "calls")
    open_s = sec(get("sampling.RngStream.generator", "incl_ns"))
    exp_points = get("charfn.g_exponent", "count")
    exp_s = sec(get("charfn.g_exponent", "incl_ns"))
    cdf_points = get("charfn.cdf_from_cf", "count")
    tables = get("charfn.tabulate_cdf", "calls")
    tab_s = sec(get("charfn.tabulate_cdf", "incl_ns"))
    q_names = ("tailmodel.tail_quantile", "tailmodel.intensity_quantile",
               "tailmodel.tail_eval")
    ks_names = ("empirics.ks_distance", "empirics.ks_two_sample")
    ks_points = sum(get(n, "count") for n in ks_names)
    ks_s = sec(sum(get(n, "incl_ns") for n in ks_names))
    grid_draws = get("sampling.sample_tail_model", "count")
    return {
        "sampling.stream_opens": opens,
        "sampling.stream_open_s": open_s,
        "sampling.stream_open_us": 1e6 * ratio(open_s, opens),
        "sampling.petersburg_draws": get("sampling.petersburg_from_uniform", "count"),
        "sampling.petersburg_transform_s": sec(get("sampling.petersburg_from_uniform",
                                                   "incl_ns")),
        "sampling.poisson_batch_s": sec(get("sampling.poisson_sum_batch", "self_ns")),
        "sampling.lepage_batch_s": sec(get("sampling.lepage_batch", "self_ns")),
        "charfn.exponent_points": exp_points,
        "charfn.exponent_s": exp_s,
        "charfn.exponent_points_per_s": ratio(exp_points, exp_s),
        "charfn.cdf_from_cf_points": cdf_points,
        "charfn.inversion_self_s": sec(get("charfn.cdf_from_cf", "self_ns")),
        "charfn.exponent_points_per_cdf_point": ratio(exp_points, cdf_points),
        "charfn.tables": tables,
        "charfn.table_points": table_points,
        "charfn.tabulate_s": tab_s,
        "charfn.tabulate_s_per_law": ratio(tab_s, tables),
        "tailmodel.quantile_points": sum(get(n, "count") for n in q_names),
        "tailmodel.quantile_s": sec(sum(get(n, "incl_ns") for n in q_names)),
        "tailmodel.grid_quantile_us": 1e6 * ratio(
            sec(get("sampling.sample_tail_model", "incl_ns")), grid_draws),
        "coupling.pairs": (get("coupling.coupled_pair", "count")
                           + get("coupling.coupling_gap_curve", "count")),
        "coupling.self_s": module_self("coupling"),
        "empirics.experiments": sum(st["calls"] for n, st in stats.items()
                                    if n.endswith("_experiment")
                                    or n == "empirics.merging_sweep"),
        "empirics.self_s": module_self("empirics"),
        "empirics.ks_points": ks_points,
        "empirics.ks_s": ks_s,
        "empirics.ks_ns_per_point": 1e9 * ratio(ks_s, ks_points),
        "cli.self_s": module_self("cli"),
    }
