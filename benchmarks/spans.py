"""Spans recorded from outside the program, by wrapping layer functions.

A ``Tracer`` replaces public functions of ``wqed`` under the names their
callers bind them to (``fields.e1_scaled`` is the E1 that the field
kernels call, ``cli.collective_rates`` the one the CLI calls, and so on),
so a call nested inside a layer is recorded once, at the boundary it
crosses.  Every wrapper is put back by ``Tracer.restore``.

Spans are kept in memory: name, thread, start, end, parent, plus the
argument count for special functions, grid points and branch for field
slices, and rows and bytes for CSV writes.  The field thread pool calls
``e1_scaled`` from worker threads, so each thread keeps its own span
stack; a span opened on a worker with an empty stack takes the innermost
open span of the main thread as its parent.  ``layer_metrics`` turns the
spans into the per-layer figures, where a span's self time is its
duration minus the part of that interval its child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import os
import threading
import time

import numpy as np

# field functions that return a FieldSlice, by the direction they assemble
FIELD_FUNCTIONS = {"forward_field": "forward", "backward_field": "backward",
                   "interqubit_field": "interqubit"}
SI_CI = ("specfun.si_lower", "specfun.cosine_integral")
FIGURE_SPANS = ("fig2", "fig3", "fig7", "fig8", "fig6", "fig9", "fig10",
                "fig11")


class Span:
    """One recorded call: times, parent index and what the call did."""

    __slots__ = ("name", "thread", "start", "end", "parent", "args",
                 "points", "branch", "rows", "bytes")

    def __init__(self, name, thread, parent):
        self.name = name
        self.thread = thread
        self.parent = parent
        self.start = self.end = 0.0
        self.args = self.points = self.rows = self.bytes = 0
        self.branch = None


def _arg_count(args, kwargs):
    first = args[0] if args else next(iter(kwargs.values()), None)
    return int(np.size(first))


def _slice_info(span, args, kwargs, result):
    grid = getattr(result, "grid", None)
    if grid is not None:
        span.points = int(np.size(grid.x) * np.size(grid.t))
    branch = getattr(result, "branch", None)
    if branch is not None:
        span.branch = str(getattr(branch, "value", branch))


def _write_info(span, args, kwargs, result):
    path, rows = args[0], args[3]
    span.rows = len(rows)
    with contextlib.suppress(OSError):
        span.bytes = os.path.getsize(path)


def bindings():
    """(module name, attribute, span name, result hook) of every wrapper.

    Layer functions are wrapped where their caller looks them up: the
    special functions under the names ``fields`` binds (and the ones the
    CLI reaches through the ``specfun`` module), the model under the names
    ``cli`` binds, and the public functions of ``fields``, ``amplitudes``
    and ``oracle`` as module attributes.  Special-function spans also
    record how many arguments the call evaluated.
    """
    table = [
        ("wqed.fields", "e1_scaled", "specfun.e1_scaled", None),
        ("wqed.fields", "si_lower", "specfun.si_lower", None),
        ("wqed.fields", "cosine_integral", "specfun.cosine_integral", None),
        ("wqed.specfun", "si_lower", "specfun.si_lower", None),
        ("wqed.specfun", "cosine_integral", "specfun.cosine_integral", None),
        ("wqed.specfun", "exp_integral_e1", "specfun.exp_integral_e1", None),
        ("wqed.cli", "collective_rates", "model.collective_rates", None),
        ("wqed.cli", "classify_regime", "model.classify_regime", None),
        ("wqed.model", "collective_rates", "model.collective_rates", None),
        ("wqed.oracle", "qubit_amplitudes", "amplitudes.qubit_amplitudes",
         None),
        ("wqed.cli", "build_parser", "cli.parse", None),
        ("wqed.cli", "build_scenario", "cli.parse", None),
        ("wqed.cli", "write_csv", "cli.write", _write_info),
        ("wqed.cli", "write_json", "cli.write", None),
    ]
    for layer in ("fields", "amplitudes", "oracle"):
        module = importlib.import_module(f"wqed.{layer}")
        for attr, obj in vars(module).items():
            if (attr.startswith("_") or not inspect.isfunction(obj)
                    or obj.__module__ != module.__name__):
                continue
            hook = _slice_info if attr in FIELD_FUNCTIONS else None
            table.append((module.__name__, attr, f"{layer}.{attr}", hook))
    return table


class Tracer:
    """Span recorder; create one per traced run and ``restore`` it after."""

    def __init__(self):
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main = threading.get_ident()
        self._main_stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = (self._main_stack if threading.get_ident() == self._main
                     else [])
            self._local.stack = stack
        return stack

    def _open(self, name):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            # a pool worker: the caller blocks on the main thread meanwhile
            parent = self._main_stack[-1] if self._main_stack else None
        span = Span(name, threading.get_ident(), parent)
        with self._lock:
            index = len(self.spans)
            self.spans.append(span)
        stack.append(index)
        span.start = time.perf_counter()
        return span

    def _close(self, span):
        span.end = time.perf_counter()
        self._stack().pop()

    @contextlib.contextmanager
    def span(self, name):
        """Record a span around a block of the benchmark's own code."""
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, fn, name, hook):
        count_args = name.startswith("specfun.")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open(name)
            if count_args:
                span.args = _arg_count(args, kwargs)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if hook is not None:
                hook(span, args, kwargs, result)
            return result
        wrapper.traced_wrapper = True
        return wrapper

    def install(self):
        """Wrap every binding that exists; record the ones that do not."""
        for module_name, attr, name, hook in bindings():
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            self._patches.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name, hook))

    def restore(self):
        """Put every wrapped function back, last wrapped first."""
        while self._patches:
            module, attr, fn = self._patches.pop()
            setattr(module, attr, fn)

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.restore()


def wrapped_names():
    """Bindings that currently hold a tracer wrapper (empty when clean)."""
    found = []
    for module_name, attr, *_ in bindings():
        module = importlib.import_module(module_name)
        if getattr(getattr(module, attr, None), "traced_wrapper",
                   False):
            found.append(f"{module_name}.{attr}")
    return found


# ---------------------------------------------------------------------------
# per-layer figures

def _union_length(intervals):
    total, cur_lo, cur_hi = 0.0, None, None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans):
    """Duration of each span minus the union of its children's intervals."""
    children = [[] for _ in spans]
    for span in spans:
        if span.parent is not None:
            parent = spans[span.parent]
            children[span.parent].append((max(span.start, parent.start),
                                          min(span.end, parent.end)))
    return [span.end - span.start - _union_length(kids)
            for span, kids in zip(spans, children)]


def _field_ancestor(spans, index):
    """Index of the nearest enclosing field-slice span, or None."""
    index = spans[index].parent
    while index is not None:
        if spans[index].name.split(".", 1)[1] in FIELD_FUNCTIONS:
            return index
        index = spans[index].parent
    return None


def layer_metrics(spans, passes):
    """Per-layer figures per pass, keyed by metric name."""
    own = self_times(spans)
    per = 1.0 / passes

    def pick(pred):
        return [i for i, s in enumerate(spans) if pred(s.name)]

    def calls(idx):
        return len(idx) * per

    def args(idx):
        return sum(spans[i].args for i in idx) * per

    def self_s(idx):
        return sum(own[i] for i in idx) * per

    def ratio(num, den):
        return num / den if den else 0.0

    def entries(idx):
        """Spans whose caller sits outside their layer."""
        def layer_of(i):
            return spans[i].name.split(".", 1)[0]
        return [i for i in idx if spans[i].parent is None
                or layer_of(spans[i].parent) != layer_of(i)]

    layer = {name: pick(lambda n, p=name: n.startswith(p + "."))
             for name in ("specfun", "model", "fields", "amplitudes",
                          "oracle", "cli")}
    e1 = pick(lambda n: n == "specfun.e1_scaled")
    sici = pick(lambda n: n in SI_CI)
    field = [i for i in layer["fields"]
             if spans[i].name.split(".", 1)[1] in FIELD_FUNCTIONS]
    m = {}
    m["specfun.e1_scaled.calls"] = calls(e1)
    m["specfun.e1_scaled.args"] = args(e1)
    m["specfun.e1_scaled.self_s"] = self_s(e1)
    m["specfun.si_ci.calls"] = calls(sici)
    m["specfun.si_ci.args"] = args(sici)
    m["specfun.si_ci.self_s"] = self_s(sici)
    m["specfun.args_per_call"] = ratio(args(layer["specfun"]),
                                       calls(layer["specfun"]))
    m["specfun.us_per_arg"] = 1e6 * ratio(self_s(layer["specfun"]),
                                          args(layer["specfun"]))
    m["model.collective_rates.calls"] = calls(
        pick(lambda n: n == "model.collective_rates"))
    m["model.self_s"] = self_s(layer["model"])

    e1_under = {}
    for i in e1:
        owner = _field_ancestor(spans, i)
        if owner is not None:
            e1_under[owner] = e1_under.get(owner, 0) + spans[i].args
    transient = [i for i in field if spans[i].branch == "transient"]
    points = sum(spans[i].points for i in field)
    m["fields.grid.calls"] = calls(pick(lambda n: n == "fields.space_time_grid"))
    m["fields.grid.self_s"] = self_s(pick(lambda n: n == "fields.space_time_grid"))
    m["fields.field.calls"] = calls(field)
    m["fields.field.points"] = points * per
    m["fields.self_s"] = self_s(layer["fields"])
    m["fields.us_per_point"] = 1e6 * ratio(
        sum(spans[i].end - spans[i].start for i in field), points)
    m["fields.e1_args_per_point"] = ratio(
        sum(e1_under.get(i, 0) for i in transient),
        sum(spans[i].points for i in transient))
    for fn, direction in FIELD_FUNCTIONS.items():
        idx = [i for i in transient if spans[i].name == f"fields.{fn}"]
        m[f"fields.e1_args_per_point.{direction}"] = ratio(
            sum(e1_under.get(i, 0) for i in idx),
            sum(spans[i].points for i in idx))
    for branch in ("transient", "steady"):
        m[f"fields.branch.{branch}"] = calls(
            [i for i in field if spans[i].branch == branch])
    m["amplitudes.calls"] = calls(entries(layer["amplitudes"]))
    m["amplitudes.self_s"] = self_s(layer["amplitudes"])
    quad = pick(lambda n: n == "oracle.quad_kernel")
    m["oracle.quad_kernel.calls"] = calls(quad)
    m["oracle.quad_kernel.self_s"] = self_s(quad)
    m["oracle.markov_ode.self_s"] = self_s(
        pick(lambda n: n == "oracle.markov_ode"))
    m["oracle.self_s"] = self_s(layer["oracle"])
    m["cli.parse_s"] = self_s(pick(lambda n: n == "cli.parse"))
    writes = pick(lambda n: n == "cli.write")
    m["cli.write_s"] = self_s(writes)
    m["cli.write_bytes"] = sum(spans[i].bytes for i in writes) * per
    m["cli.rows"] = sum(spans[i].rows for i in writes) * per
    for name in FIGURE_SPANS + ("oracle_check",):
        idx = pick(lambda n, key=f"cli.{name}": n == key)
        m[f"cli.{name}.s"] = sum(spans[i].end - spans[i].start
                                 for i in idx) * per
    return m


def figure_breakdown(spans):
    """Per figure preset: specfun args per call, E1 and model calls.

    Spans are attributed to the ``cli.<preset>`` span that encloses them.
    """
    owner = {}
    for index, span in enumerate(spans):
        if span.name.startswith("cli.fig"):
            owner[index] = span.name[len("cli."):]
        elif span.parent is not None and span.parent in owner:
            owner[index] = owner[span.parent]
    table = {}
    for preset in sorted(set(owner.values())):
        mine = [spans[i] for i, p in owner.items() if p == preset]
        special = [s for s in mine if s.name.startswith("specfun.")]
        table[preset] = {
            "specfun.args_per_call": (sum(s.args for s in special)
                                      / len(special) if special else 0.0),
            "specfun.e1_scaled.calls": sum(s.name == "specfun.e1_scaled"
                                           for s in mine),
            "model.collective_rates.calls": sum(
                s.name == "model.collective_rates" for s in mine),
        }
    return table

