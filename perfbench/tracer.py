"""Outside-in span tracer for petrace.

The tracer replaces names in petrace's module namespaces with timing
wrappers, so each call one module makes into another across a layer
boundary becomes a span: name, id, parent id, start, end.  No package code
changes; the names wrapped are listed in ``PATCHES`` and ``KERNELS``.  A
name that no longer exists is skipped and its metrics read 0.

Spans live in memory and are reduced to per-layer metrics once the traced
iteration ends.  Each thread keeps its own span stack; a span opened on a
thread whose stack is empty takes the innermost span open on the main
thread as its parent, so the sub-runs of a threaded sweep hang under the
sweep span.  A span's self time is its duration minus the union of its
children's intervals, which stays correct when children overlap in time.

Install the tracer in a process of its own: the wrappers stay in place
until the process exits.
"""
from __future__ import annotations

import itertools
import os
import threading
from collections import defaultdict
from time import perf_counter

ROOT = "iteration"

# grid kernels: one wrapper each, installed in every module that imported
# the kernel, including grid itself (so definite -> cumulative shows)
KERNELS = ("cumulative", "definite", "d1", "d2", "d1_at_lo")
KERNEL_HOMES = ("grid", "trace", "selfsim", "diagnostics", "initial_data")


def _step_taken(out, args):
    return 0 if out.blowup else 1


def _csv_bytes(out, args):
    return os.path.getsize(args[1])


def _config_bytes(out, args):
    return os.path.getsize(os.path.join(args[1], "resolved.config"))


# (module, attribute or (attribute, key) for a dict entry, span name, note)
# A note maps (result, args) to a number summed per span name.
PATCHES = (
    ("trace", "step", "trace.step", _step_taken),
    ("trace", "stable_dt", "trace.stable_dt", None),
    ("trace", "solve_banded", "trace.diffusion", None),
    ("selfsim", "step_selfsim", "selfsim.step_selfsim", None),
    ("selfsim", "stable_ds", "selfsim.stable_ds", None),
    ("selfsim", "CubicSpline", "selfsim.spline", None),
    ("selfsim", "solve_banded", "selfsim.diffusion", None),
    ("diagnostics", "energy_report", "diagnostics.energy_report", None),
    ("diagnostics", "check_trapped", "diagnostics.check_trapped", None),
    ("fitting", "estimate_T", "fitting.estimate_T", None),
    ("fitting", "fit_rates", "fitting.fit_rates", None),
    ("cli", ("_DISPATCH", "sweep"), "cli.sweep", None),
    ("cli", ("_DISPATCH", "simulate"), "cli.simulate", None),
    ("cli", "write_resolved", "cli.output", _config_bytes),
    ("trace", ("Trajectory", "to_csv"), "cli.output", _csv_bytes),
)


class Tracer:
    def __init__(self):
        self.spans = []        # (name, id, parent id, start, end, note)
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_thread = threading.current_thread()
        self._main_stack = self._local.stack = []

    def _stack(self):
        try:
            return self._local.stack
        except AttributeError:
            stack = self._local.stack = []
            return stack

    def _outer_parent(self):
        if threading.current_thread() is self._main_thread:
            return None
        main = self._main_stack
        return main[-1] if main else None

    def wrap(self, name, fn, note=None):
        spans, ids = self.spans, self._ids

        def traced(*args, **kwargs):
            stack = self._stack()
            sid = next(ids)
            parent = stack[-1] if stack else self._outer_parent()
            stack.append(sid)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
            spans.append((name, sid, parent, t0, t1,
                          note(out, args) if note is not None else 0))
            return out

        traced.__wrapped__ = fn
        return traced

    def install(self, package):
        """Wrap the names of ``KERNELS`` and ``PATCHES`` found in ``package``."""
        for kernel in KERNELS:
            original = getattr(package.grid, kernel, None)
            if original is None:
                continue
            traced = self.wrap(f"grid.{kernel}", original)
            for home in KERNEL_HOMES:
                mod = getattr(package, home, None)
                if mod is not None and getattr(mod, kernel, None) is original:
                    setattr(mod, kernel, traced)
        for home, attr, name, note in PATCHES:
            owner = getattr(package, home, None)
            if isinstance(attr, tuple):
                attr, key = attr
                owner = getattr(owner, attr, None)
                attr = key
            if isinstance(owner, dict):
                if attr in owner:
                    owner[attr] = self.wrap(name, owner[attr], note)
            elif owner is not None and hasattr(owner, attr):
                setattr(owner, attr, self.wrap(name, getattr(owner, attr), note))

    def root(self, fn, *args):
        """Run fn(*args) as the root span of one iteration."""
        return self.wrap(ROOT, fn)(*args)

    def totals(self):
        """Per span name under the root: calls, duration, self time, note sum,
        plus the number of calls made from inside each other span name."""
        children = defaultdict(list)
        by_id = {}
        root = None
        for span in self.spans:
            by_id[span[1]] = span
            children[span[2]].append(span)
            if span[0] == ROOT:
                root = span
        calls = defaultdict(int)
        dur = defaultdict(float)
        self_time = defaultdict(float)
        notes = defaultdict(float)
        called_from = defaultdict(int)
        if root is None:
            return calls, dur, self_time, notes, called_from, 0.0
        todo = [root]
        while todo:
            span = todo.pop()
            name, sid, parent, t0, t1, note = span
            kids = children.get(sid, [])
            todo.extend(kids)
            calls[name] += 1
            dur[name] += t1 - t0
            self_time[name] += (t1 - t0) - _covered(kids, t0, t1)
            notes[name] += note
            if parent is not None:
                called_from[(name, by_id[parent][0])] += 1
        return calls, dur, self_time, notes, called_from, root[4] - root[3]


def _covered(kids, lo, hi):
    """Length of [lo, hi] covered by the union of the kids' intervals."""
    total = 0.0
    end = lo
    for _, _, _, t0, t1, _ in sorted(kids, key=lambda s: s[3]):
        t0, t1 = max(t0, end), min(t1, hi)
        if t1 > t0:
            total += t1 - t0
            end = t1
    return total


def layer_metrics(tracer):
    """The per-layer metrics of one traced iteration (see run.py)."""
    calls, dur, self_time, notes, called_from, wall = tracer.totals()

    def share(name):
        return self_time[name] / wall

    def ratio(a, b):
        return a / b if b else 0.0

    trace_steps = int(notes["trace.step"])
    selfsim_steps = calls["selfsim.step_selfsim"]
    steps = trace_steps + selfsim_steps
    m = {}
    for kernel in KERNELS:
        name = f"grid.{kernel}"
        m[f"{name}.calls_per_step"] = ratio(calls[name], steps)
        if kernel != "d2":
            m[f"{name}.us_per_call"] = 1e6 * ratio(dur[name], calls[name])
            m[f"{name}.self_share"] = share(name)
    m["grid.cumulative.discarded_frac"] = ratio(
        called_from[("grid.cumulative", "grid.definite")], calls["grid.cumulative"])
    m["step.us_per_call"] = 1e6 * ratio(dur["trace.step"] + dur["selfsim.step_selfsim"], steps)
    m["trace.steps"] = trace_steps
    m["trace.step.self_share"] = share("trace.step")
    m["trace.stable_dt.self_share"] = share("trace.stable_dt")
    m["trace.diffusion.calls_per_step"] = ratio(calls["trace.diffusion"], trace_steps)
    m["trace.diffusion.self_share"] = share("trace.diffusion")
    m["selfsim.steps"] = selfsim_steps
    m["selfsim.step_selfsim.self_share"] = share("selfsim.step_selfsim")
    m["selfsim.spline.builds_per_step"] = ratio(
        called_from[("selfsim.spline", "selfsim.step_selfsim")], selfsim_steps)
    m["selfsim.spline.self_share"] = share("selfsim.spline")
    m["selfsim.diffusion.self_share"] = share("selfsim.diffusion")
    m["selfsim.stable_ds.self_share"] = share("selfsim.stable_ds")
    m["diagnostics.energy_report.calls"] = calls["diagnostics.energy_report"]
    m["diagnostics.energy_report.self_share"] = share("diagnostics.energy_report")
    m["diagnostics.check_trapped.self_share"] = share("diagnostics.check_trapped")
    m["fitting.estimate_T.self_share"] = share("fitting.estimate_T")
    m["fitting.fit_rates.self_share"] = share("fitting.fit_rates")
    m["cli.sweep.self_share"] = share("cli.sweep")
    m["cli.sweep.concurrency"] = ratio(dur["cli.simulate"], dur["cli.sweep"])
    m["cli.output.self_share"] = share("cli.output")
    m["cli.output.bytes"] = notes["cli.output"]
    return m
