"""Per-module spans for the traced benchmark run, recorded from outside the library.

Each hook wraps a public name that one module of `sampledlq` looks up in the
next one at call time (for example `blocks.propagate_interval`, which
`compute_all_blocks` calls), so the library itself is not changed.  A wrapper
records one span (name, start, end, parent span, op id); spans nest through a
stack because ops run one at a time in one thread.  Spans stay in memory
until `write` saves them.

A layer's self time is its span's duration minus the durations of its direct
children.  Counts marked "computed" below are derived from argument shapes at
the hooked boundary (steps = 2M per interval, controls = rows of the batch),
not counted inside the library.
"""

from __future__ import annotations

import importlib
import inspect
import json
from bisect import bisect_right
from collections import defaultdict
from time import perf_counter

import numpy as np


# computed counts: (counter name, function of the hooked call's bound arguments)
_PROPAGATE_STEPS = (("transition.rk4_steps", lambda a: 2 * a["M"]),)
_STATE_STEPS = (("simulate.rk4_steps", lambda a: 2 * a["M"] * a["u"].grid.N),)
_COSTATE_STEPS = (("simulate.rk4_steps", lambda a: 2 * a["M"] * a["traj"].grid.N),)
_BATCH_CONTROLS = (
    ("simulate.batch_controls", lambda a: np.shape(a["Us"])[0]),
    ("oracle.unknowns_plus_one", lambda a: np.shape(a["Us"])[1] * np.shape(a["Us"])[2] + 1),
)

# (module, attribute looked up by the caller, span name, computed counts)
HOOKS = (
    ("sampledlq.cli", "main", "cli.main", ()),
    ("sampledlq.cli", "riccati_solve", "riccati.solve", ()),
    ("sampledlq.cli", "simulate_state", "simulate.state", _STATE_STEPS),
    ("sampledlq.cli", "evaluate_cost", "simulate.cost", ()),
    ("sampledlq.cli", "simulate_costate", "simulate.costate", _COSTATE_STEPS),
    ("sampledlq.cli", "pmp_residual_sampled", "simulate.residual", ()),
    ("sampledlq.cli", "cross_check", "oracle.cross_check", ()),
    ("sampledlq.registry", "random_problem", "registry.random_problem", ()),
    ("sampledlq.riccati", "compute_all_blocks", "blocks.compute_all", ()),
    ("sampledlq.riccati", "backward_sweep", "riccati.sweep", ()),
    ("sampledlq.riccati", "forward_synthesis", "riccati.synthesis", ()),
    ("sampledlq.blocks", "propagate_interval", "transition.propagate", _PROPAGATE_STEPS),
    ("sampledlq.blocks", "compute_blocks", "blocks.compute", ()),
    ("sampledlq.oracle", "riccati_solve", "riccati.solve", ()),
    ("sampledlq.oracle", "assemble_qp", "oracle.assemble", ()),
    ("sampledlq.oracle", "solve_qp", "oracle.solve_qp", ()),
    ("sampledlq.oracle", "costs_of_control_batch", "simulate.batch_cost", _BATCH_CONTROLS),
    ("sampledlq.problem", "CoefficientFunction.eval_many", "problem.eval_many", ()),
)

EVAL_SPAN = "problem.eval_many"

# per-layer metric -> (span names and counters it needs)
NEEDS = {
    "problem.eval_calls": (EVAL_SPAN,),
    "problem.eval_points": (EVAL_SPAN,),
    "problem.eval_s": (EVAL_SPAN,),
    "problem.eval_distinct_ratio": (EVAL_SPAN,),
    "registry.random_problem_s": ("registry.random_problem",),
    "transition.propagate_s": ("transition.propagate",),
    "transition.rk4_steps": ("transition.propagate", "transition.rk4_steps"),
    "transition.ns_per_step": ("transition.propagate", "transition.rk4_steps"),
    "blocks.compute_s": ("blocks.compute",),
    "blocks.intervals": ("blocks.compute",),
    "riccati.sweep_s": ("riccati.sweep",),
    "riccati.synthesis_s": ("riccati.synthesis",),
    "simulate.state_s": ("simulate.state",),
    "simulate.cost_s": ("simulate.cost",),
    "simulate.costate_s": ("simulate.costate",),
    "simulate.residual_s": ("simulate.residual",),
    "simulate.rk4_steps": ("simulate.state", "simulate.costate", "simulate.rk4_steps"),
    "simulate.ns_per_step": ("simulate.state", "simulate.costate", "simulate.rk4_steps"),
    "simulate.batch_cost_s": ("simulate.batch_cost",),
    "simulate.batch_controls": ("simulate.batch_cost", "simulate.batch_controls"),
    "oracle.assemble_self_s": ("oracle.assemble",),
    "oracle.solve_qp_s": ("oracle.solve_qp",),
    "oracle.controls_per_unknown": ("simulate.batch_cost", "simulate.batch_controls"),
    "cli.self_s": ("cli.main",),
}

SELF_TIME = {
    "problem.eval_s": EVAL_SPAN,
    "registry.random_problem_s": "registry.random_problem",
    "transition.propagate_s": "transition.propagate",
    "blocks.compute_s": "blocks.compute",
    "riccati.sweep_s": "riccati.sweep",
    "riccati.synthesis_s": "riccati.synthesis",
    "simulate.state_s": "simulate.state",
    "simulate.cost_s": "simulate.cost",
    "simulate.costate_s": "simulate.costate",
    "simulate.residual_s": "simulate.residual",
    "simulate.batch_cost_s": "simulate.batch_cost",
    "oracle.assemble_self_s": "oracle.assemble",
    "oracle.solve_qp_s": "oracle.solve_qp",
    "cli.self_s": "cli.main",
}


def _ratio(num, den) -> float:
    """num / den, or 0.0 where the workload does no such work (den == 0)."""
    return num / den if den else 0.0


class Tracer:
    """Span recorder; `install` wraps the hooked names, `uninstall` restores them."""

    ROOT = "op"
    # metrics derived from argument shapes, not counted inside the library
    COMPUTED = ("transition.rk4_steps", "simulate.rk4_steps", "simulate.batch_controls",
                "oracle.controls_per_unknown")

    def __init__(self, hooks=HOOKS):
        self.hooks = hooks
        self.spans = []      # (name, start, end, parent index or -1, op id)
        self.counts = []     # per op: {counter: value}
        self.missing = set()  # span names and counters that could not be recorded
        self._stack = []
        self._saved = []
        self._op = None
        self._op_counts = None
        self._root_start = 0.0
        self._evals = []     # (coefficient, times) of the current op

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        for module_name, attr, name, counters in self.hooks:
            owner = importlib.import_module(module_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = owner.__dict__.get(leaf) if owner is not None else None
            if original is None:
                self.missing.add(name)
                continue
            self._saved.append((owner, leaf, original))
            setattr(owner, leaf, self._wrap(original, name, counters))

    def uninstall(self) -> None:
        while self._saved:
            owner, leaf, original = self._saved.pop()
            setattr(owner, leaf, original)

    def _wrap(self, fn, name, counters):
        spans, stack = self.spans, self._stack
        signature = inspect.signature(fn) if counters else None
        is_eval = name == EVAL_SPAN

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, self._op)
                if is_eval:
                    ts = args[1] if len(args) > 1 else kwargs["ts"]
                    self._evals.append((args[0], np.array(ts, dtype=float)))
                elif counters:
                    self._count(counters, signature, args, kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _count(self, counters, signature, args, kwargs) -> None:
        try:
            bound = signature.bind(*args, **kwargs)
        except TypeError:
            self.missing.update(key for key, _ in counters)
            return
        bound.apply_defaults()
        for key, count in counters:
            try:
                self._op_counts[key] += int(count(bound.arguments))
            except (KeyError, IndexError, TypeError, AttributeError):
                self.missing.add(key)

    # -- ops --------------------------------------------------------------

    def begin_op(self, op_id) -> int:
        """Open the root span of one op; returns its index."""
        self._op = op_id
        self._op_counts = defaultdict(int)
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        self._root_start = perf_counter()
        return idx

    def end_op(self, idx) -> None:
        end = perf_counter()
        self._stack.pop()
        self.spans[idx] = (self.ROOT, self._root_start, end, -1, self._op)
        by_coefficient = defaultdict(list)
        points = 0
        for coefficient, ts in self._evals:
            by_coefficient[id(coefficient)].append(ts.ravel())
            points += ts.size
        distinct = sum(np.unique(np.concatenate(arrs)).size for arrs in by_coefficient.values())
        self._op_counts["problem.eval_points"] += points
        self._op_counts["problem.eval_distinct"] += distinct
        self.counts.append(dict(self._op_counts))
        self._evals = []
        self._op = None

    # -- analysis ---------------------------------------------------------

    def mark(self) -> tuple:
        """Position to pass to `layer_metrics` for the spans recorded after it."""
        return len(self.spans), len(self.counts)

    def layer_metrics(self, since: tuple, sampler=None) -> dict:
        """Per-layer metrics over the ops recorded since `since`; absent hooks are left out.

        Host-speed kernel samples taken by `sampler` ran inside whichever span
        was innermost at the time; their time is taken out of that span.
        """
        spans = self.spans[since[0]:]
        base = since[0]
        child = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent - base] += end - start
        excluded = [0.0] * len(spans)
        if sampler is not None:
            starts = [s[1] for s in spans]
            for t, kernel in zip(sampler.starts, sampler.kernels):
                j = bisect_right(starts, t) - 1
                while j >= 0 and spans[j][2] < t:
                    j = spans[j][3] - base if spans[j][3] >= 0 else -1
                if j >= 0:
                    excluded[j] += kernel
        self_time = defaultdict(float)
        calls = defaultdict(int)
        op_time = -sum(excluded)
        for k, (name, start, end, parent, _) in enumerate(spans):
            if name == self.ROOT:
                op_time += end - start
            else:
                self_time[name] += end - start - child[k] - excluded[k]
                calls[name] += 1
        counts = defaultdict(int)
        for op_counts in self.counts[since[1]:]:
            for key, value in op_counts.items():
                counts[key] += value

        out = {metric: self_time[span] for metric, span in SELF_TIME.items()}
        out["problem.eval_calls"] = calls[EVAL_SPAN]
        out["problem.eval_points"] = counts["problem.eval_points"]
        out["problem.eval_distinct_ratio"] = _ratio(counts["problem.eval_distinct"], counts["problem.eval_points"])
        out["transition.rk4_steps"] = counts["transition.rk4_steps"]
        out["transition.ns_per_step"] = 1e9 * _ratio(out["transition.propagate_s"], counts["transition.rk4_steps"])
        out["blocks.intervals"] = calls["blocks.compute"]
        out["simulate.rk4_steps"] = counts["simulate.rk4_steps"]
        out["simulate.ns_per_step"] = 1e9 * _ratio(
            out["simulate.state_s"] + out["simulate.costate_s"], counts["simulate.rk4_steps"]
        )
        out["simulate.batch_controls"] = counts["simulate.batch_controls"]
        out["oracle.controls_per_unknown"] = _ratio(
            counts["simulate.batch_controls"], counts["oracle.unknowns_plus_one"]
        )
        # every hooked span lies inside cli.main, so the layers' self times sum to its total
        out["trace.accounted_frac"] = _ratio(sum(self_time.values()), op_time)
        return {k: v for k, v in out.items() if not self.missing.intersection(NEEDS.get(k, ()))}

    def write(self, path) -> None:
        """Save every span recorded so far as JSON."""
        names = sorted({s[0] for s in self.spans})
        doc = {
            "fields": ["name", "start_s", "end_s", "parent", "op"],
            "spans": [list(s) for s in self.spans],
            "span_names": names,
            "missing_hooks": sorted(self.missing),
        }
        with open(path, "w") as f:
            json.dump(doc, f)
