"""Span tracer that wraps symreg's public functions from outside the package.

Each wrapped function records one span per call (name, start, end, parent
span, run id) on a thread-local stack. Spans stay in memory until the caller
aggregates them. Counts come from the functions' own public record
arguments (`info=` of the GLM solvers, `trace=` of `prox_update_B`) and
from their return values; nothing under `src/` is edited.

A function is wrapped at every module name where a caller looks it up, for
example `fit_glm_lasso` in `symreg.solvers`, which imports it by name.
"""

import functools
import inspect
import itertools
import math
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path


class Span:
    __slots__ = ("sid", "name", "start", "end", "parent", "run_id", "counts", "path")

    def __init__(self, sid, name, parent, run_id):
        self.sid = sid
        self.name = name
        self.parent = parent
        self.run_id = run_id
        self.start = self.end = None
        self.counts = {}
        self.path = None

    @property
    def duration(self):
        return self.end - self.start


def covered_length(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of the given (start, end) pairs."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans):
    """Map span id -> duration minus the part its child spans cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {
        s.sid: s.duration - covered_length(children[s.sid], s.start, s.end)
        for s in spans
    }


def dir_bytes(path):
    return sum(f.stat().st_size for f in Path(path).rglob("*") if f.is_file())


class Tracer:
    """Collects spans; `install` wraps targets, `uninstall` restores them."""

    def __init__(self):
        self.spans = []
        self.run_id = "setup"
        self._ids = itertools.count()
        self._local = threading.local()
        self._patches = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name):
        stack = self._stack()
        s = Span(next(self._ids), name, stack[-1].sid if stack else None, self.run_id)
        self.spans.append(s)
        stack.append(s)
        s.start = time.perf_counter()
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            stack.pop()

    def install(self, targets):
        """Wrap each target: (name, [(module, attr), ...], around or None).

        Every site of one target must hold the same function, so a caller
        that stops importing it by name is noticed instead of going untraced.
        """
        for name, sites, around in targets:
            fn = getattr(*sites[0])
            for module, attr in sites:
                if getattr(module, attr) is not fn:
                    raise RuntimeError(f"{module.__name__}.{attr} is not {name}")
            wrapper = self._wrapper(name, fn, around)
            for module, attr in sites:
                self._patches.append((module, attr, fn))
                setattr(module, attr, wrapper)

    def uninstall(self):
        while self._patches:
            module, attr, fn = self._patches.pop()
            setattr(module, attr, fn)

    def _wrapper(self, name, fn, around):
        def traced(*args, **kwargs):
            with self.span(name) as s:
                if around is None:
                    return fn(*args, **kwargs)
                return around(s, fn, args, kwargs)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def settle(self):
        """Measure the directories that spans recorded; call before they go."""
        for s in self.spans:
            if s.path is not None and "bytes" not in s.counts:
                s.counts["bytes"] = dir_bytes(s.path)

    def aggregate(self, run_ids):
        """Per-name totals over spans of the given runs: calls, self_s, counts."""
        run_ids = set(run_ids)
        selected = [s for s in self.spans if s.run_id in run_ids]
        own = self_times(selected)
        out = defaultdict(lambda: defaultdict(float))
        for s in selected:
            row = out[s.name]
            row["calls"] += 1
            row["self_s"] += own[s.sid]
            for key, value in s.counts.items():
                row[key] += value
        return out, own


# ---------------------------------------------------------------- around hooks
# Each hook calls the real function and records counts on the span. A record
# argument the caller already passed is replaced by a fresh one whose entries
# are copied back afterwards; the functions only write to it, so the caller
# ends with the same contents.


@functools.cache
def _signature(fn):
    return inspect.signature(fn)


def _call_with_record(fn, args, kwargs, key, fresh, merge):
    """Call fn with a fresh record argument `key`.

    Returns the result, the record, and the bound arguments with defaults.
    """
    bound = _signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    caller = bound.arguments[key]
    record = bound.arguments[key] = fresh()
    try:
        return fn(*bound.args, **bound.kwargs), record, bound.arguments
    finally:
        if caller is not None:
            merge(caller, record)


def around_fit_glm_lasso(span, fn, args, kwargs):
    result, info, bound = _call_with_record(fn, args, kwargs, "info", dict, dict.update)
    iters = info.get("iterations", 0)
    span.counts["iters"] = iters
    span.counts["capped"] = int(iters >= bound["max_iter"])
    return result


def around_fit_glm(span, fn, args, kwargs):
    result, info, _ = _call_with_record(fn, args, kwargs, "info", dict, dict.update)
    span.counts["irls_iters"] = info.get("iterations", 0)
    span.counts["ridged"] = int(bool(info.get("ridged", False)))
    return result


def around_prox_update_B(span, fn, args, kwargs):
    result, steps, bound = _call_with_record(
        fn, args, kwargs, "trace", list, list.extend
    )
    data, config = bound["data"], bound["config"]
    halvings = candidates = rejected = 0
    for step in steps:
        if step["accepted"]:
            h = round(math.log2(config.delta0 / step["delta"]))
            candidates += h + 1
        else:
            h = config.line_search_max_halvings + 1
            candidates += h
            rejected += 1
        halvings += h
    # one X pass for the starting eta, one per gradient, one per candidate
    x_passes = 1 + len(steps) + candidates
    span.counts.update(
        steps=len(steps),
        halvings=halvings,
        rejected=rejected,
        x_passes=x_passes,
        x_gb=x_passes * data.n * data.p * data.p * 8 / 1e9,
    )
    return result


def around_fit_result(span, fn, args, kwargs):
    result = fn(*args, **kwargs)
    span.counts["outer_iters"] = result.iterations
    span.counts["capped"] = int(not result.converged)
    span.counts["objective"] = float(result.objective_trace[-1])
    return result


def around_dataset_dir(arg):
    """Hook that records the dataset directory named by argument `arg`."""

    def around(span, fn, args, kwargs):
        result = fn(*args, **kwargs)
        span.path = _signature(fn).bind(*args, **kwargs).arguments[arg]
        return result

    return around


def around_cli_main(span, fn, args, kwargs):
    code = fn(*args, **kwargs)
    span.counts["exit4"] = int(code == 4)
    return code


def symreg_targets(symreg):
    """Every traced function of symreg, at each name a caller looks it up by."""
    glm, solvers, tensor_ops = symreg.glm, symreg.solvers, symreg.tensor_ops
    simulate, evaluate, io, cli = symreg.simulate, symreg.evaluate, symreg.io, symreg.cli
    return [
        ("glm.fit_glm_lasso", [(solvers, "fit_glm_lasso"), (glm, "fit_glm_lasso")],
         around_fit_glm_lasso),
        ("glm.fit_glm", [(solvers, "fit_glm"), (glm, "fit_glm")], around_fit_glm),
        ("tensor_ops.symcp_to_full",
         [(solvers, "symcp_to_full"), (tensor_ops, "symcp_to_full")], None),
        ("tensor_ops.khatri_rao",
         [(solvers, "khatri_rao"), (tensor_ops, "khatri_rao")], None),
        ("solvers.fit_cp", [(solvers, "fit_cp"), (evaluate, "fit_cp")],
         around_fit_result),
        ("solvers.fit_sym_tensor", [(solvers, "fit_sym_tensor")], around_fit_result),
        ("solvers.prox_update_B", [(solvers, "prox_update_B")], around_prox_update_B),
        ("solvers.objective", [(solvers, "objective")], None),
        ("solvers.construct_init", [(solvers, "construct_init")], None),
        ("simulate.synth_dataset",
         [(simulate, "synth_dataset"), (evaluate, "synth_dataset")], None),
        ("evaluate.replicate_experiment", [(evaluate, "replicate_experiment")], None),
        ("evaluate.predict_mean", [(evaluate, "predict_mean")], None),
        ("io.write_dataset", [(io, "write_dataset")], around_dataset_dir("outdir")),
        ("io.write_matrix_csv", [(io, "write_matrix_csv")], None),
        ("io.read_dataset", [(io, "read_dataset")], around_dataset_dir("path")),
        ("cli.main", [(cli, "main")], around_cli_main),
    ]
