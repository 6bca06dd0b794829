"""Span tracer that wraps opalg functions from outside the package.

Each wrapped callable opens a span on entry and closes it on exit.  A
span's self time is its duration minus the durations of the wrapped
calls made inside it.  Spans are aggregated per name as they close
(calls, self seconds) together with named counters, so a traced run
costs memory in proportion to the number of span names, not calls.

``Tracer.install`` patches every namespace that binds a wrapped object:
each ``opalg`` module dict (a name imported with ``from x import f``
lives in several) and the class dict for methods, including aliases
such as ``Matrix.__rmul__ = __mul__``.  ``Tracer.remove`` puts every
original object back.
"""
from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict


def opalg_namespaces():
    """(owner, dict) for every loaded opalg module and every class they define."""
    out = []
    classes = set()
    for name, module in sorted(sys.modules.items()):
        if module is None or not (name == "opalg" or name.startswith("opalg.")):
            continue
        out.append((module, vars(module)))
        for value in vars(module).values():
            if isinstance(value, type) and value.__module__.startswith("opalg"):
                classes.add(value)
    out.extend((cls, vars(cls)) for cls in sorted(classes, key=lambda c: (c.__module__, c.__qualname__)))
    return out


def snapshot():
    """Identity snapshot of every opalg namespace, for restore checks."""
    return {(id(owner), key): value for owner, ns in opalg_namespaces() for key, value in ns.items()}


class Tracer:
    """Aggregating span tracer.  ``clock`` is injectable for tests."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.counts = Counter()
        self.maxima = Counter()
        # one accumulator per open span: seconds covered by its wrapped children
        self._stack = [[0.0]]
        self._patches = []

    def reset(self):
        self.calls.clear()
        self.self_s.clear()
        self.counts.clear()
        self.maxima.clear()

    def wrap(self, fn, name, after=None):
        """Return a traced version of ``fn``.

        ``name`` is a span name or a callable mapping the call's
        arguments to one.  ``after(name, args, result)`` runs once the
        span has closed; its cost is charged to no span's self time.
        """
        stack = self._stack
        clock = self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name(*args) if callable(name) else name
            frame = [0.0]
            stack.append(frame)
            start = clock()
            returned = False
            try:
                result = fn(*args, **kwargs)
                returned = True
            finally:
                end = clock()
                stack.pop()
                self.calls[label] += 1
                self.self_s[label] += end - start - frame[0]
                if returned and after is not None:
                    after(label, args, result)
                stack[-1][0] += clock() - start
            return result

        return traced

    def install(self, owner, attr, name, after=None):
        """Wrap ``owner.attr`` and rebind every opalg namespace entry
        that holds the same object."""
        original = vars(owner)[attr]
        if isinstance(original, classmethod):
            replacement = classmethod(self.wrap(original.__func__, name, after))
        else:
            replacement = self.wrap(original, name, after)
        bound = 0
        for target, ns in opalg_namespaces():
            for key, value in list(ns.items()):
                if value is original:
                    self._patches.append((target, key, original))
                    setattr(target, key, replacement)
                    bound += 1
        if bound == 0:
            raise LookupError(f"{owner!r}.{attr} is bound in no opalg namespace")

    def remove(self):
        """Restore every patched attribute, last patch first."""
        while self._patches:
            target, key, original = self._patches.pop()
            setattr(target, key, original)
