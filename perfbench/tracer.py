"""In-memory span tracer that times calls into a package from outside it.

Each listed function is wrapped, and the wrapper is bound in place of the
original under every name that a module of the package holds it by, so
calls made through `from .x import f` bindings are timed too.  The package's
own files are not changed.  A listed function that does not exist is
reported as missing, never as zero.

Spans (name, start, end, parent, run id) are kept in flat arrays and
written out once, when the traced run ends.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from collections import Counter

import numpy as np


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self.name_ids = array("l")
        self.parents = array("l")
        self.runs = array("l")
        self.starts = array("d")
        self.ends = array("d")
        self.failed = array("b")
        self.run_id = 0
        self.counters: Counter = Counter()
        self.missing: list[str] = []
        self.broken_observers: set[str] = set()
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def wrap(self, name: str, fn, observe=None):
        """A traced version of fn.  observe(counters, args, kwargs, result)
        runs after each successful call to count what the call produced."""
        nid = len(self.names)
        self.names.append(name)
        clock, stack = self.clock, self._stack
        name_ids, parents, runs = self.name_ids, self.parents, self.runs
        starts, ends, failed = self.starts, self.ends, self.failed

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1] if stack else -1)
            runs.append(self.run_id)
            failed.append(0)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                failed[idx] = 1
                raise
            finally:
                ends[idx] = clock()
                stack.pop()
            if observe is not None and name not in self.broken_observers:
                try:
                    observe(self.counters, args, kwargs, result)
                except Exception:
                    # A changed signature or return type must not abort the
                    # run; the metrics this observer feeds become missing.
                    self.broken_observers.add(name)
            return result

        return traced

    def install(self, package: str, layers, observers=None) -> None:
        """Wrap every `module.function` or `module.Class.method` in layers.

        Functions are rebound in every loaded module of the package that
        holds them; methods are replaced on their class.  Layers that
        cannot be found are appended to self.missing.
        """
        observers = observers or {}
        for layer in layers:
            mod_name, *path = layer.split(".")
            try:
                module = importlib.import_module(f"{package}.{mod_name}")
            except ImportError:
                self.missing.append(layer)
                continue
            owner = module
            for part in path[:-1]:
                owner = getattr(owner, part, None)
            attr = path[-1]
            raw = vars(owner).get(attr) if owner is not None else None
            if raw is None:
                self.missing.append(layer)
                continue
            if isinstance(owner, type):
                kind = type(raw) if isinstance(raw, (staticmethod, classmethod)) else None
                fn = raw.__func__ if kind else raw
                traced = self.wrap(layer, fn, observers.get(layer))
                self._rebind(owner, attr, raw, kind(traced) if kind else traced)
                continue
            traced = self.wrap(layer, raw, observers.get(layer))
            for mod in list(sys.modules.values()):
                loaded = getattr(mod, "__name__", "")
                if loaded != package and not loaded.startswith(package + "."):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is raw:
                        self._rebind(mod, key, raw, traced)

    def _rebind(self, owner, attr, original, replacement) -> None:
        self._restore.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def write(self, path) -> None:
        """Write every span to an .npz file; names index the `names` array."""
        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.array(self.name_ids, dtype=np.int64),
            parent=np.array(self.parents, dtype=np.int64),
            run=np.array(self.runs, dtype=np.int64),
            start=np.array(self.starts, dtype=np.float64),
            end=np.array(self.ends, dtype=np.float64),
            failed=np.array(self.failed, dtype=np.int8),
        )

    def self_times(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-span duration and self time (duration minus direct children).

        Spans on one stack nest and do not overlap, so the part of a span
        that its children cover is the sum of their durations.
        """
        parent = np.array(self.parents, dtype=np.int64)
        dur = np.array(self.ends, dtype=np.float64) - np.array(self.starts, dtype=np.float64)
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=dur[has_parent],
                              minlength=dur.shape[0])
        return dur, dur - covered

    def summary(self) -> dict:
        """Per name: calls, failed calls, total and self seconds."""
        ids = np.array(self.name_ids, dtype=np.int64)
        dur, own = self.self_times()
        n = len(self.names)
        calls = np.bincount(ids, minlength=n)
        failed = np.bincount(ids, weights=np.array(self.failed, dtype=np.float64), minlength=n)
        total = np.bincount(ids, weights=dur, minlength=n)
        self_s = np.bincount(ids, weights=own, minlength=n)
        return {name: {"calls": int(calls[i]), "failed": int(failed[i]),
                       "total_s": float(total[i]), "self_s": float(self_s[i])}
                for i, name in enumerate(self.names)}

    def coverage(self, name: str) -> list[float]:
        """For each span of `name`, the share of it that child spans cover."""
        if name not in self.names:
            return []
        ids = np.array(self.name_ids, dtype=np.int64)
        dur, own = self.self_times()
        mask = (ids == self.names.index(name)) & (dur > 0)
        return [float(x) for x in 1.0 - own[mask] / dur[mask]]
