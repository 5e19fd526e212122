"""Span tracing installed from outside the library.

The traced run wraps public functions and methods of ``cardsketch.*``
(module attributes and class methods) so that each call records a span:
name, start, end, parent span, the job it ran in, and whether it raised.
Spans stay in memory and are written out once, at the end of the run.
Counters (hash words, items offered, bytes written, ...) are recorded at the
same boundaries.  Nothing under ``src/`` is touched: uninstalling restores
every original attribute.
"""

from __future__ import annotations

import functools
import sys
from collections import defaultdict
from time import perf_counter

NAME, START, END, PARENT, JOB, ERROR = range(6)

_TYPE_LABELS = {
    "GeometricMaxSketch": "max-geom",
    "KthOrderSketch": "kth",
    "BernoulliSketch": "bernoulli",
    "ProjectionSketch": "projection",
    "LogLogSketch": "loglog",
    "HyperLogLogSketch": "hll",
    "MinCountSketch": "mincount",
}


def sketch_label(sk) -> str:
    """The benchmark's name for a sketch instance's type."""
    name = type(sk).__name__
    if name == "ContinuousMaxSketch":
        return "max-uniform" if sk.kind == "uniform" else "max-exp"
    return _TYPE_LABELS.get(name, name)


class Tracer:
    def __init__(self):
        self.spans = []                     # [name, start, end, parent, job, error]
        self.counts = defaultdict(float)    # (counter, job) -> total
        self.job = "init"
        self._stack = []
        self._undo = []

    def count(self, name: str, amount: float = 1.0) -> None:
        self.counts[name, self.job] += amount

    def wrap(self, fn, label, on_call=None, on_result=None, span=True):
        """A wrapper around fn recording one span per call.

        label(args) names the span; on_call(tracer, args) and
        on_result(tracer, args, result) record counters.  With span=False
        only the counters are recorded.
        """
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if on_call is not None:
                on_call(tracer, args)
            if not span:
                return fn(*args, **kwargs)
            stack = tracer._stack
            rec = [label(args), 0.0, 0.0, stack[-1] if stack else -1, tracer.job, False]
            stack.append(len(tracer.spans))
            tracer.spans.append(rec)
            rec[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                rec[ERROR] = True
                raise
            finally:
                rec[END] = perf_counter()
                stack.pop()
            if on_result is not None:
                on_result(tracer, args, result)
            return result

        return wrapper

    def install(self, package: str, targets) -> list:
        """Wrap each target; a target is (module, attribute, label, on_call,
        on_result, span) where attribute is "func" or "Class.method".

        A function is replaced in every loaded module of the package that
        bound it by name, so ``from .x import f`` call sites are traced too.
        An inherited method is wrapped once, on the class that defines it.
        Targets in modules the run never imported, or that the library no
        longer has, are skipped and returned.
        """
        modules = [mod for name, mod in list(sys.modules.items())
                   if mod is not None and (name == package or name.startswith(package + "."))]
        done = set()
        skipped = []
        for module_name, attr, label, on_call, on_result, span in targets:
            module = sys.modules.get(f"{package}.{module_name}")
            cls_name, _, meth = attr.rpartition(".")
            holder = getattr(module, cls_name, None) if cls_name else module
            if holder is None or not hasattr(holder, meth):
                skipped.append(f"{module_name}.{attr}")
                continue
            if cls_name:
                owner = next(k for k in holder.__mro__ if meth in vars(k))
                if (owner, meth) in done:
                    continue
                done.add((owner, meth))
                original = vars(owner)[meth]
                setattr(owner, meth, self.wrap(original, label, on_call, on_result, span))
                self._undo.append((owner, meth, original))
                continue
            original = getattr(module, meth)
            wrapper = self.wrap(original, label, on_call, on_result, span)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._undo.append((mod, key, original))
        return skipped

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name,start,end,parent,job,error\n")
            for name, start, end, parent, job, error in self.spans:
                fh.write(f"{name},{start!r},{end!r},{parent},{job},{int(error)}\n")


def self_times(spans) -> list:
    """Each span's duration minus the durations of its direct children."""
    out = [rec[END] - rec[START] for rec in spans]
    for rec in spans:
        if rec[PARENT] >= 0:
            out[rec[PARENT]] -= rec[END] - rec[START]
    return out
