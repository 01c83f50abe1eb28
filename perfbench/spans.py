"""In-memory span recorder and the timing wrappers of the traced run.

Wrappers are installed only during the traced run (its set-up and traced
rounds), from this file, at the module attribute each caller looks up
(``gnbg.core.evaluate`` for the evaluator, the names ``gnbg.cli`` imported
for the command line), so no file of the package changes.  Spans are
(name, start, end, parent) rows kept in flat arrays and written out once,
when the benchmark ends.

Spans inside process-pool workers are not collected: a forked worker turns
its copy of the recorder off, so its calls pass straight through.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import weakref
from array import array
from time import perf_counter

import numpy as np

import gnbg
import gnbg.cli
import gnbg.core
import gnbg.instance_io

from stats import self_times

# Each element of a non-identity transform costs log, exp, two sines and
# five multiply/adds; a transcendental counts as one operation.
TRANSFORM_OPS_PER_ELEMENT = 9

NO_WORKER_SPANS = "spans inside process-pool workers are not collected"


def evaluate_flops(instance) -> int:
    """Arithmetic operations of one ``evaluate`` call, computed from the
    instance description (not measured)."""
    d = instance.dim
    total = len(instance.components) - 1  # min over components
    for comp in instance.components:
        total += d  # x - m
        if comp.rotation is not None:
            total += 2 * d * d  # R z
        if not comp.transform.is_identity:
            total += TRANSFORM_OPS_PER_ELEMENT * d
        total += 3 * d + 2  # (t * h) . t, ** lambda, + sigma
    return total


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.enabled = True
        self.identity_transforms = 0
        self.flops = 0
        self._flops_of = weakref.WeakKeyDictionary()
        os.register_at_fork(after_in_child=self._disable)

    def _disable(self):
        self.enabled = False

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def begin(self, nid: int) -> int:
        i = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(perf_counter())
        return i

    def finish(self, i: int) -> None:
        self.end[i] = perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        i = self.begin(self.name_id(name))
        try:
            yield
        finally:
            self.finish(i)

    def _count_evaluate(self, instance, *_):
        flops = self._flops_of.get(instance)
        if flops is None:
            flops = self._flops_of[instance] = evaluate_flops(instance)
        self.flops += flops

    def _count_transform(self, _, params, *__):
        self.identity_transforms += params.is_identity

    def _wrap(self, name, fn, count=None):
        nid = self.name_id(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            if count is not None:
                count(*args)
            i = self.begin(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                self.finish(i)

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Patch the timing wrappers in for the duration of the block."""
        patches = [
            (gnbg.core, "evaluate", "core.evaluate", self._count_evaluate),
            (gnbg.core, "apply_transform", "transform.apply_transform", self._count_transform),
            (gnbg.core, "rotation_from_theta", "rotation.rotation_from_theta", None),
            (gnbg.cli, "evaluate", "core.evaluate", self._count_evaluate),
            (gnbg.cli, "suite_instance", "generators.suite_instance", None),
            (gnbg.cli, "dump_instance", "instance_io.dump_instance", None),
            (gnbg.cli, "load_instance", "instance_io.load_instance", None),
            (gnbg.cli, "export_grid", "instance_io.export_grid", None),
            (gnbg.cli, "sweep", "harness.sweep", None),
            (gnbg.instance_io, "write_csv_report", "instance_io.write_csv_report", None),
        ]
        originals = [(module, attr, getattr(module, attr)) for module, attr, _, _ in patches]
        for module, attr, name, count in patches:
            setattr(module, attr, self._wrap(name, getattr(module, attr), count))
        try:
            yield
        finally:
            for module, attr, fn in originals:
                setattr(module, attr, fn)

    def evaluator_class(self):
        """A BudgetedEvaluator whose FE calls and best-error lookups are spans."""
        call_id = self.name_id("core.BudgetedEvaluator.__call__")
        best_id = self.name_id("core.BudgetedEvaluator.best_error")
        tracer = self
        base_best_error = gnbg.BudgetedEvaluator.best_error.fget

        class TracedEvaluator(gnbg.BudgetedEvaluator):
            def __call__(self, x):
                i = tracer.begin(call_id)
                try:
                    return super().__call__(x)
                finally:
                    tracer.finish(i)

            @property
            def best_error(self):
                i = tracer.begin(best_id)
                try:
                    return base_best_error(self)
                finally:
                    tracer.finish(i)

        return TracedEvaluator

    def arrays(self):
        return (
            np.array(self.name, dtype=np.int64),
            np.array(self.parent, dtype=np.int64),
            np.array(self.start, dtype=float),
            np.array(self.end, dtype=float),
        )

    def summary(self) -> dict:
        """Per span name: calls, inclusive seconds, self seconds, and the
        inclusive seconds of its direct children by child name."""
        name, parent, start, end = self.arrays()
        n = len(self.names)
        dur = end - start
        own = self_times(start, end, parent)
        calls = np.bincount(name, minlength=n)
        total = np.bincount(name, weights=dur, minlength=n)
        self_s = np.bincount(name, weights=own, minlength=n)
        nested = parent >= 0
        pairs = name[parent[nested]] * n + name[nested]
        child = np.bincount(pairs, weights=dur[nested], minlength=n * n).reshape(n, n)
        out = {}
        for k, key in enumerate(self.names):
            out[key] = {
                "calls": int(calls[k]),
                "total_s": float(total[k]),
                "self_s": float(self_s[k]),
                "children_s": {self.names[c]: float(child[k, c]) for c in np.nonzero(child[k])[0]},
            }
        return out

    def write(self, path, meta: dict) -> None:
        name, parent, start, end = self.arrays()
        meta = dict(meta, names=self.names, note=NO_WORKER_SPANS)
        np.savez_compressed(
            path, name=name, parent=parent, start=start, end=end, meta=np.array(json.dumps(meta))
        )
