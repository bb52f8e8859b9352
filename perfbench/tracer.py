"""Span tracer that wraps dcgrid's public functions from outside the program.

`Tracer.install()` replaces every function in the `__all__` of each traced
module, and every public method of each class listed there, with a wrapper
that records a span: name, start, end and parent. The replacement is made in
the module that defines the function and in every loaded `dcgrid` module that
imported it by name (for example `cli.certify` and `stability.build_admittance`),
so calls between modules are seen too. `uninstall()` puts the originals back.

Parents come from a per-thread stack. A thread whose stack is empty, such as
the worker thread behind `sweep --jobs`, takes the innermost span open on the
installing thread, which is the enclosing command.
"""

from __future__ import annotations

import contextlib
import inspect
import itertools
import json
import sys
import threading
import time
from collections import defaultdict

LAYERS = ("network", "linalg", "existence", "stability", "simulate", "cli")


def layer_modules():
    # sys.modules, because the package attribute `dcgrid.simulate` is the function
    return {name: sys.modules[f"dcgrid.{name}"] for name in LAYERS}


class Tracer:
    def __init__(self):
        self.spans = {}          # id -> (name, start, end, parent, returned_none)
        self._ids = itertools.count()
        self._local = threading.local()
        self._home_stack = None
        self._patches = []       # (owner, attribute, original)

    # ------------------------------------------------------------ wrapping

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name, fn):
        spans, ids, clock, tracer = self.spans, self._ids, time.perf_counter, self

        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:
                home = tracer._home_stack
                parent = home[-1] if home else None
            sid = next(ids)
            stack.append(sid)
            start = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (name, start, end, parent, result is None)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = fn.__doc__
        return traced

    @contextlib.contextmanager
    def span(self, name):
        """A span opened by the benchmark itself; yields its id."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        sid = next(self._ids)
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield sid
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans[sid] = (name, start, end, parent, False)

    def install(self):
        self._home_stack = self._stack()
        originals = {}
        for layer, module in layer_modules().items():
            for attr in module.__all__:
                obj = getattr(module, attr)
                if inspect.isclass(obj) and obj.__module__ == module.__name__:
                    for meth, fn in vars(obj).items():
                        if not meth.startswith("_") and inspect.isfunction(fn):
                            self._patch(obj, meth, self._wrap(f"{layer}.{obj.__name__}.{meth}", fn))
                elif inspect.isfunction(obj) and obj.__module__ == module.__name__:
                    originals[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
        for modname, module in list(sys.modules.items()):
            if modname != "dcgrid" and not modname.startswith("dcgrid."):
                continue
            for attr, value in list(vars(module).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(module, attr, hit[1])

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------ analysis

    def summarize(self, roots):
        """Per root span: {name: [calls, inclusive_s, self_s, returned_none]}.

        A span's self time is its duration minus the union of its children's
        intervals, so overlapping children from worker threads count once.
        """
        children = defaultdict(list)
        for sid, (_, start, end, parent, _) in self.spans.items():
            if parent is not None:
                children[parent].append((start, end))
        root_of = {}

        def root(sid):
            path = []
            while sid is not None and sid not in root_of and sid not in roots:
                path.append(sid)
                sid = self.spans[sid][3] if sid in self.spans else None
            top = sid if sid in roots else root_of.get(sid)
            for p in path:
                root_of[p] = top
            return top

        out = {r: defaultdict(lambda: [0, 0.0, 0.0, 0]) for r in roots}
        for sid, (name, start, end, _, none) in self.spans.items():
            top = root(sid)
            if top is None or sid in roots:
                continue
            covered, last = 0.0, start
            for c0, c1 in sorted(children.get(sid, ())):
                c0, c1 = max(c0, last), min(c1, end)
                if c1 > c0:
                    covered += c1 - c0
                    last = c1
            rec = out[top][name]
            rec[0] += 1
            rec[1] += end - start
            rec[2] += end - start - covered
            rec[3] += int(none)
        return {r: dict(v) for r, v in out.items()}

    def dump(self, path):
        """Write every span as [id, name, start, end, parent] (JSON lines)."""
        with open(path, "w") as fh:
            for sid in sorted(self.spans):
                name, start, end, parent, _ = self.spans[sid]
                fh.write(json.dumps([sid, name, start, end, parent]) + "\n")

