"""Span recording around permlin's layers, installed from outside the package.

Every public function of the permlin modules (plus `cli._emit`, the output
boundary) and the numpy/scipy LAPACK entry points that permlin calls are
replaced by recorders on *every* name binding that holds them: a function
imported by name into another module (``optimize.numeric_rank``) is wrapped
there too, and so is numpy's internal ``svd`` binding that
``np.linalg.norm(m, 2)`` calls.  Generator functions are timed inside each
``next()``, not at the call that creates the generator.

A span is ``[name, start_ns, end_ns, parent_index]``; spans live in memory
until the run writes them out.  Times are integer nanoseconds, so a span's
self time (its duration minus its children's) is exact and never negative.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

LAYERS = ("cli", "matio", "datasets", "perms", "spectral", "linalg",
          "equivariant", "invariant", "optimize", "oracles")

# kernel span name -> (module, attribute) of the LAPACK entry points
KERNELS = {
    "kernel.svd": (("numpy.linalg", "svd"), ("scipy.linalg", "svd")),
    "kernel.eigh": (("numpy.linalg", "eigh"), ("scipy.linalg", "eigh")),
    "kernel.solve": (("numpy.linalg", "solve"), ("scipy.linalg", "solve")),
}
# namespaces besides permlin's own that may hold another binding of a kernel
KERNEL_NAMESPACES = ("numpy.linalg", "numpy.linalg._linalg", "scipy.linalg",
                     "scipy.linalg._basic", "scipy.linalg._decomp", "scipy.linalg._decomp_svd")

FIT_SPAN = "optimize.fit_equivariant"
ENUM_SPAN = "equivariant.enumerate_components"
BASE_CHANGE_SPANS = ("spectral.real_base_change", "spectral.complex_base_change")


class Recorder:
    """Spans and counters of one operation."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, int] = {}

    def open(self, name: str) -> int:
        i = len(self.spans)
        self.spans.append([name, time.perf_counter_ns(), 0, self.stack[-1] if self.stack else -1])
        self.stack.append(i)
        return i

    def close(self, i: int) -> None:
        self.spans[i][2] = time.perf_counter_ns()
        self.stack.pop()

    def count(self, name: str, k: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + k

    def inside(self, name: str) -> bool:
        return any(self.spans[j][0] == name for j in self.stack)


def _q_bytes(result) -> int:
    """Bytes of the dense n x n arrays a base change holds."""
    n = result.spectrum.n
    return sum(v.nbytes for v in vars(result).values()
               if getattr(v, "shape", None) == (n, n))


class Tracer:
    """Installs recorders on every binding and restores the originals."""

    def __init__(self):
        self.rec = Recorder()
        self._patches: list[tuple[object, str, object]] = []
        self._targets = self._collect()

    @staticmethod
    def _collect() -> list[tuple[str, object]]:
        targets = []
        for layer in LAYERS:
            mod = importlib.import_module(f"permlin.{layer}")
            for attr, obj in vars(mod).items():
                if attr.startswith("_") and (layer, attr) != ("cli", "_emit"):
                    continue
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                name = f"{layer}.{attr.lstrip('_')}"
                if inspect.isfunction(obj):
                    targets.append((name, obj))
                elif inspect.isclass(obj):
                    for mname, meth in vars(obj).items():
                        if inspect.isfunction(meth) and not mname.startswith("_"):
                            targets.append((f"{name}.{mname}", (obj, mname, meth)))
        for name, entries in KERNELS.items():
            for modname, attr in entries:
                targets.append((name, getattr(importlib.import_module(modname), attr)))
        return targets

    def _wrap(self, name: str, fn):
        tracer = self
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                inner = fn(*args, **kwargs)

                def traced():
                    while True:
                        rec = tracer.rec
                        i = rec.open(name)
                        try:
                            item = next(inner)
                        except StopIteration:
                            return
                        finally:
                            rec.close(i)
                        rec.count(f"{name}.yielded")
                        if name == ENUM_SPAN and rec.inside(FIT_SPAN):
                            rec.count("optimize.candidates_scored")
                        yield item
                return traced()
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = tracer.rec
            i = rec.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec.close(i)
            if name in BASE_CHANGE_SPANS:
                rec.count("spectral.q_bytes", _q_bytes(result))
            return result
        return wrapper

    def install(self) -> None:
        namespaces = [m for k, m in sys.modules.items()
                      if m is not None and (k == "permlin" or k.startswith("permlin."))]
        namespaces += [importlib.import_module(k) for k in KERNEL_NAMESPACES if k in sys.modules]
        for name, target in self._targets:
            if isinstance(target, tuple):
                cls, mname, meth = target
                self._patch(cls, mname, meth, self._wrap(name, meth))
                continue
            wrapper = self._wrap(name, target)
            for ns in namespaces:
                for attr, obj in list(vars(ns).items()):
                    if obj is target:
                        self._patch(ns, attr, obj, wrapper)

    def _patch(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def take(self) -> Recorder:
        """Return the finished operation's recorder and start a fresh one."""
        done, self.rec = self.rec, Recorder()
        return done


def self_times(rec: Recorder) -> tuple[dict[str, int], dict[str, int], set[str]]:
    """Per span name: total self time in ns and the number of spans; and the
    names of spans whose own self time is negative (a broken nesting)."""
    child_ns = [0] * len(rec.spans)
    for name, start, end, parent in rec.spans:
        if parent >= 0:
            child_ns[parent] += end - start
    self_ns: dict[str, int] = {}
    calls: dict[str, int] = {}
    negative: set[str] = set()
    for (name, start, end, _), inner in zip(rec.spans, child_ns):
        own = end - start - inner
        if own < 0:
            negative.add(name)
        self_ns[name] = self_ns.get(name, 0) + own
        calls[name] = calls.get(name, 0) + 1
    return self_ns, calls, negative
