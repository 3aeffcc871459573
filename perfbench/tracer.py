"""Span tracer for the traced benchmark run.

``Tracer.installed()`` wraps the public functions of each npghm layer where
their callers look them up (``npghm.algorithms.sample_trajectory`` as well as
``npghm.envs.sample_trajectory``), records one span per call (name, start,
end, parent) in compact in-memory arrays, and restores every original on
exit. Wrappers only read the clock, so a traced run draws exactly the random
numbers an untraced run draws.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
from array import array

import numpy as np

# span name -> (module, attribute): module-level functions, patched in every
# loaded npghm module that holds the same object.
FUNCTIONS = {
    "envs.sample_trajectory": ("npghm.envs", "sample_trajectory"),
    "envs.sample_state_action": ("npghm.envs", "sample_state_action"),
    "estimators.truncated_grad": ("npghm.estimators", "truncated_grad"),
    "estimators.hessian_vector_product": ("npghm.estimators", "hessian_vector_product"),
    "estimators.momentum_update_hessian": ("npghm.estimators", "momentum_update_hessian"),
    "estimators.momentum_update_is": ("npghm.estimators", "momentum_update_is"),
    "estimators.importance_weight": ("npghm.estimators", "importance_weight"),
    "natural_gradient.exact_npg_direction": ("npghm.natural_gradient", "exact_npg_direction"),
    "natural_gradient.npg_sgd": ("npghm.natural_gradient", "npg_sgd"),
    "oracles.exact_fim": ("npghm.oracles", "exact_fim"),
    "oracles.exact_return": ("npghm.oracles", "exact_return"),
    "oracles.optimal_return": ("npghm.oracles", "optimal_return"),
    "harness.build_train_spec": ("npghm.harness", "build_train_spec"),
    "harness.train_experiment": ("npghm.harness", "train_experiment"),
}

_POLICY_CLASSES = ("TabularSoftmaxPolicy", "TruncatedLinearGaussianPolicy")

# span name -> (module, classes, method): methods, patched on each class.
METHODS = {
    "envs.step": ("npghm.envs", ("TabularMdp", "PointMassEnv"), "step"),
    **{
        f"policies.{m}": ("npghm.policies", _POLICY_CLASSES, m)
        for m in ("sample_action", "score", "with_params", "score_sum", "hvp_sum")
    },
}

# The training loops, called through the ``npghm.algorithms.ALGORITHMS`` table.
RUN_SPAN = "algorithms.run"

SPAN_NAMES = tuple(FUNCTIONS) + tuple(METHODS) + (RUN_SPAN,)


class Tracer:
    """Records spans in memory; one instance per traced run."""

    def __init__(self):
        self.names = list(SPAN_NAMES)
        self._ids = {n: i for i, n in enumerate(self.names)}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]

    def wrap(self, span_name: str, fn):
        nid = self._ids[span_name]
        add_name, add_parent = self.name.append, self.parent.append
        add_start, add_end = self.start.append, self.end.append
        end, stack, clock = self.end, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(end)
            add_name(nid)
            add_parent(stack[-1])
            add_end(0.0)
            stack.append(i)
            add_start(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Patch every traced function and method; restore them on exit."""
        undo = []
        try:
            for span, (mod_name, attr) in FUNCTIONS.items():
                original = getattr(importlib.import_module(mod_name), attr)
                wrapped = self.wrap(span, original)
                for mod in list(sys.modules.values()):
                    name = getattr(mod, "__name__", "")
                    if (name == "npghm" or name.startswith("npghm.")) and mod.__dict__.get(attr) is original:
                        setattr(mod, attr, wrapped)
                        undo.append((mod, attr, original))
            for span, (mod_name, classes, attr) in METHODS.items():
                mod = importlib.import_module(mod_name)
                for cls_name in classes:
                    cls = getattr(mod, cls_name)
                    original = cls.__dict__[attr]
                    setattr(cls, attr, self.wrap(span, original))
                    undo.append((cls, attr, original))
            table = importlib.import_module("npghm.algorithms").ALGORITHMS
            originals = dict(table)
            table.update({k: self.wrap(RUN_SPAN, fn) for k, fn in originals.items()})
            undo.append((None, table, originals))
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                if owner is None:
                    attr.update(original)
                else:
                    setattr(owner, attr, original)

    def arrays(self) -> dict:
        """Spans as numpy arrays plus each span's self time."""
        name = np.frombuffer(self.name, dtype=np.int32).copy()
        parent = np.frombuffer(self.parent, dtype=np.int32).copy()
        start = np.frombuffer(self.start, dtype=np.float64).copy()
        end = np.frombuffer(self.end, dtype=np.float64).copy()
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
        return {"name": name, "parent": parent, "start": start, "end": end, "self": dur - child}

    def totals(self) -> dict:
        """span name -> (calls, self seconds, total seconds). A traced
        function never calls itself, so total seconds count no time twice."""
        spans = self.arrays()
        k = len(self.names)
        calls = np.bincount(spans["name"], minlength=k)
        self_s = np.bincount(spans["name"], weights=spans["self"], minlength=k)
        total_s = np.bincount(spans["name"], weights=spans["end"] - spans["start"], minlength=k)
        return {n: (int(calls[i]), float(self_s[i]), float(total_s[i])) for i, n in enumerate(self.names)}

    def save(self, path) -> None:
        """Write all spans (times relative to the first span) as ``.npz``."""
        spans = self.arrays()
        t0 = spans["start"][0] if spans["start"].size else 0.0
        np.savez(
            path,
            names=np.array(self.names),
            name=spans["name"],
            parent=spans["parent"],
            start=spans["start"] - t0,
            end=spans["end"] - t0,
        )
