"""Spans around the calls into each layer, recorded from outside the package.

The benchmark wraps, for the length of a traced pass,

* the public functions ``run_scenario`` looks up in ``qcoupler.cli``
  (found from its code object, so names a later version adds or removes
  are followed without edits here),
* ``qcoupler.gaussian_stats.moments_and_distribution``, which
  ``stats_report`` calls,
* ``qcoupler.cli.ThreadPoolExecutor``, to read the pool size,

and it wraps its own calls to ``run_scenario`` and ``emit_csv``.  Each
span is ``(id, name, start, end, parent, thread, sweep)``; spans stay in
memory until the benchmark writes them out.  A span opened on a pool
thread has no parent on its own thread, so its parent is the
``run_scenario`` span that is open at the time.
"""

from __future__ import annotations

import inspect
import itertools
import json
import threading
import time
from collections import defaultdict

ROOT = "run_scenario"
EMIT = "emit_csv"


def _layer(fn) -> str:
    return getattr(fn, "__module__", "").rpartition(".")[2] or "unknown"


def _looked_up_names(code) -> set:
    names = set(code.co_names)
    for const in code.co_consts:
        if inspect.iscode(const):
            names |= _looked_up_names(const)
    return names


def _arguments(sig, args, kwargs, *names):
    """Values of the named parameters in one call (None where absent)."""
    if not args[2:] and all(n in kwargs for n in names):
        return tuple(kwargs[n] for n in names)  # the common call shape, cheaply
    try:
        bound = sig.bind(*args, **kwargs)
    except TypeError:
        return (None,) * len(names)
    bound.apply_defaults()
    return tuple(bound.arguments.get(n) for n in names)


class Recorder:
    """Collects spans and argument-derived counts for traced passes."""

    def __init__(self):
        self.spans = []
        self.layers = {ROOT: "cli", EMIT: "cli"}
        self.sweep = 0
        self.pool_threads = 0
        self.jet_order_sum = 0
        self.pn_calls = 0
        self.captured_states = None  # a list while a replay wants them
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._root = None
        self._patched = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, on_call=None, on_return=None):
        """``fn`` with a span named ``name`` around every call."""
        is_root = name == ROOT

        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(args, kwargs)
            stack = self._stack()
            parent = stack[-1] if stack else self._root
            sid = next(self._ids)
            stack.append(sid)
            if is_root:
                self._root = sid
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                if is_root:
                    self._root = None
                self.spans.append((sid, name, start, end, parent,
                                   threading.get_ident(), self.sweep))
            if on_return is not None:
                on_return(args, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def next_sweep(self, args=None, kwargs=None):
        """Start the spans of the next sweep (an ``on_call`` hook)."""
        self.sweep += 1

    # -- argument-derived counts -------------------------------------------

    def _count_jet_orders(self, fn):
        sig = inspect.signature(fn)

        def on_call(args, kwargs):
            k_max, n_max = _arguments(sig, args, kwargs, "k_max", "n_max")
            if isinstance(k_max, int) and isinstance(n_max, int):
                self.jet_order_sum += max(k_max, 2) + n_max
        return on_call

    def _count_pn(self, fn):
        sig = inspect.signature(fn)

        def on_call(args, kwargs):
            (include_pn,) = _arguments(sig, args, kwargs, "include_pn")
            if include_pn:
                self.pn_calls += 1
        return on_call

    def _capture_state(self, args, state):
        if self.captured_states is not None:
            self.captured_states.append(state)

    # -- installing wrappers ------------------------------------------------

    def _patch(self, module, name, replacement):
        self._patched.append((module, name, getattr(module, name)))
        setattr(module, name, replacement)

    def install(self, qc):
        """Wrap the program's layer boundaries; ``uninstall`` restores them."""
        cli = qc.cli
        for name in sorted(_looked_up_names(cli.run_scenario.__code__)):
            fn = getattr(cli, name, None)
            if (name.startswith("_") or not inspect.isfunction(fn)
                    or not fn.__module__.startswith("qcoupler.")):
                continue
            self.layers[name] = _layer(fn)
            hooks = {}
            if name == "stats_report":
                hooks["on_call"] = self._count_pn(fn)
            if name == "evolve_state":
                hooks["on_return"] = self._capture_state
            self._patch(cli, name, self.wrap(name, fn, **hooks))
        stats = qc.gaussian_stats
        fn = getattr(stats, "moments_and_distribution", None)
        if fn is not None:
            self.layers["moments_and_distribution"] = "gaussian_stats"
            self._patch(stats, "moments_and_distribution",
                        self.wrap("moments_and_distribution", fn,
                                  on_call=self._count_jet_orders(fn)))
        pool_cls = getattr(cli, "ThreadPoolExecutor", None)
        if pool_cls is not None:
            recorder = self

            class CountingPool(pool_cls):
                def __init__(self, *args, **kwargs):
                    super().__init__(*args, **kwargs)
                    recorder.pool_threads = max(recorder.pool_threads, self._max_workers)

            self._patch(cli, "ThreadPoolExecutor", CountingPool)

    def uninstall(self):
        while self._patched:
            module, name, original = self._patched.pop()
            setattr(module, name, original)

    def reset_counts(self):
        self.spans = []
        self.pool_threads = 0
        self.jet_order_sum = 0
        self.pn_calls = 0

    def dump(self, path: str, pass_index: int):
        with open(path, "a") as fh:
            for sid, name, start, end, parent, thread, sweep in self.spans:
                fh.write(json.dumps({"pass": pass_index, "id": sid, "name": name,
                                     "layer": self.layers.get(name, "unknown"),
                                     "start": start, "end": end, "parent": parent,
                                     "thread": thread, "sweep": sweep}) + "\n")


def attributed_time(spans, layers) -> dict:
    """Wall time per layer, from the innermost open span of every thread.

    Where spans on several threads are open at once, each gets an equal
    share of the interval.  ``run_scenario`` gets only the intervals in
    which no other span is open on any thread: its span minus the union
    of its children's spans.  ``emit_csv`` is reported on its own.
    """
    events = [(span[2], 1, span) for span in spans] + [(span[3], 0, span) for span in spans]
    events.sort(key=lambda e: (e[0], e[1]))  # at equal times, ends first
    stacks = defaultdict(list)
    out = defaultdict(float)
    prev = None
    for t, is_start, span in events:
        if prev is not None and t > prev:
            tops = [stack[-1] for stack in stacks.values() if stack]
            busy = [s for s in tops if s[1] != ROOT]
            if busy:
                share = (t - prev) / len(busy)
                for s in busy:
                    out[EMIT if s[1] == EMIT else layers.get(s[1], "unknown")] += share
            elif tops:
                out[ROOT] += t - prev
        prev = t
        stack = stacks[span[5]]
        if is_start:
            stack.append(span)
        else:
            stack.remove(span)
    return dict(out)


def pass_metrics(rec: Recorder) -> dict:
    """Per-layer numbers of one traced pass, from its spans and counts."""
    total = defaultdict(float)
    calls = defaultdict(int)
    for _, name, start, end, *_ in rec.spans:
        total[name] += end - start
        calls[name] += 1
    attributed = attributed_time(rec.spans, rec.layers)
    emit_s = total[EMIT]
    return {
        "dynamics.build_drift_matrix_s": total["build_drift_matrix"],
        "dynamics.propagator_s": total["propagator"],
        "dynamics.propagator_calls": calls["propagator"],
        "dynamics.evolve_state_s": total["evolve_state"],
        "dynamics.evolve_state_calls": calls["evolve_state"],
        "dynamics.residuals_s": total["symplectic_residual"] + total["conservation_residual"],
        "gaussian_stats.stats_report_s": total["stats_report"],
        "gaussian_stats.stats_report_calls": calls["stats_report"],
        "gaussian_stats.moments_and_distribution_s": total["moments_and_distribution"],
        "gaussian_stats.jet_order_sum": rec.jet_order_sum,
        "gaussian_stats.pn_useful_ratio": (rec.pn_calls / calls["stats_report"]
                                           if calls["stats_report"] else 0.0),
        "cli.run_scenario_s": total[ROOT],
        "cli.run_scenario.self_s": attributed.get(ROOT, 0.0),
        "cli.pool_threads": rec.pool_threads,
        "cli.emit_csv_s": emit_s,
        "model.self_s": attributed.get("model", 0.0),
        "dynamics.self_s": attributed.get("dynamics", 0.0),
        "gaussian_stats.self_s": attributed.get("gaussian_stats", 0.0),
        "attributed_total_s": sum(attributed.values()),
    }
