"""In-memory span tracer that wraps ionlab functions from outside the package.

A probe replaces one function at every place it is bound: on the object
that defines it and in every loaded ``ionlab`` module that imported it by
name.  ``tf``, ``tfw`` and ``hartree`` bind ``newton_potential`` with
``from .radial import ...``, so wrapping ``ionlab.radial.newton_potential``
alone would count none of their calls.

Span probes time their call and nest: a span's self time is its duration
minus the durations of the spans it called.  Count probes only count, and
their time stays in the enclosing span.  Every call is also counted on the
edge from the nearest open span (or ``None``), which is how measured solve
counts are attributed to the solver that asked for them.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Probe:
    name: str                 # metric prefix, e.g. "radial.newton_potential"
    module: str               # module that defines the function
    attr: str                 # attribute path inside it, e.g. "_TFWModel.implicit_flow"
    span: bool = True         # False: count calls only, no timing, no nesting
    iterations: Callable | None = None  # result -> iterations the solver reports
    converged: Callable | None = None   # result -> bool the solver reports


class Tracer:
    def __init__(self, probes):
        self.probes = tuple(probes)
        self.missing = []             # probe names whose function was not found
        self.reset()

    def reset(self):
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.edges = Counter()        # (parent span name or None, probe name) -> calls
        self.iterations = Counter()
        self.converged = Counter()
        self._stack = []              # open spans: [name, time spent in child spans]

    def _record_result(self, probe, out):
        if probe.iterations is not None:
            self.iterations[probe.name] += int(probe.iterations(out))
        if probe.converged is not None:
            self.converged[probe.name] += int(bool(probe.converged(out)))

    def _wrap(self, probe: Probe, fn):
        name = probe.name

        def counted(*args, **kwargs):
            parent = self._stack[-1][0] if self._stack else None
            self.calls[name] += 1
            self.edges[(parent, name)] += 1
            out = fn(*args, **kwargs)
            self._record_result(probe, out)
            return out

        def spanned(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            self.calls[name] += 1
            self.edges[(parent[0] if parent else None, name)] += 1
            frame = [name, 0.0]
            self._stack.append(frame)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                self._stack.pop()
                self.self_s[name] += dt - frame[1]
                if parent is not None:
                    parent[1] += dt
            self._record_result(probe, out)
            return out

        return functools.wraps(fn)(spanned if probe.span else counted)

    @contextmanager
    def installed(self):
        """Wrap every probe at every binding; restore all of them on exit.

        A probe whose function no longer exists is skipped and listed in
        ``missing``; its counts read 0.
        """
        patches = []
        try:
            self.missing = []
            for probe in self.probes:
                owner = importlib.import_module(probe.module)
                *path, attr = probe.attr.split(".")
                try:
                    for part in path:
                        owner = getattr(owner, part)
                    orig = getattr(owner, attr)
                except AttributeError:
                    self.missing.append(probe.name)
                    continue
                wrapper = self._wrap(probe, orig)
                targets = {id(owner): owner}
                for mod_name, mod in list(sys.modules.items()):
                    if mod_name == "ionlab" or mod_name.startswith("ionlab."):
                        targets[id(mod)] = mod
                for target in targets.values():
                    for key, value in list(vars(target).items()):
                        if value is orig:
                            patches.append((target, key, orig))
                            setattr(target, key, wrapper)
            yield self
        finally:
            for target, key, orig in reversed(patches):
                setattr(target, key, orig)

    def totals(self) -> dict:
        """Calls per probe and, as "<probe>.iterations", iterations reported."""
        out = dict(self.calls)
        out.update({f"{k}.iterations": v for k, v in self.iterations.items()})
        return out

    def snapshot(self) -> dict:
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "edges": dict(self.edges),
            "iterations": dict(self.iterations),
            "converged": dict(self.converged),
        }
