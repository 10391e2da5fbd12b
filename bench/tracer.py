"""In-memory spans around the public functions of jmokit's layers.

Tracing happens from outside the program: ``Tracer.install`` replaces each
public function at the module attribute its callers look it up through
(``gcdperfect.factorize`` as well as ``kernel.factorize``), and the public
methods of ``svg.Scene``.  A span is named after the layer that defines the
function, so ``gcdperfect.factorize`` is recorded as ``kernel.factorize``.
Functions are wrapped, not bytecode, so the arithmetic of ``kernel.Sqrt3``
(operators, called thousands of times per packing check) is not a span:
its time is part of the ``tripack`` spans that call it.

Each span records its op, its parent span, its start and end, and whether
it is the outermost open span of its name and of its layer; ``summary``
turns the spans into busy time (union of a name's or a layer's spans),
self time (duration minus child spans) and call counts.  The benchmark is
one thread, so there is one span stack and no waiting between layers.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import time
from collections import Counter, defaultdict

LAYERS = ("cli", "tripack", "kernel", "scan", "pinopt", "gcdperfect",
          "funceq", "cyclic", "rectconcur", "svg")


class Tracer:
    def __init__(self):
        self.op = -1
        self.spans: list[tuple] = []   # (op, id, parent, name, t0, t1, outer_name, outer_layer)
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._ids = itertools.count()
        self._open: Counter = Counter()  # open spans per name and per layer
        self._patched: list[tuple] = []

    # -- wrapping ---------------------------------------------------------------

    def wrap(self, name: str, fn, observe=None):
        layer = name.split(".", 1)[0]
        spans, stack, open_, ids = self.spans, self._stack, self._open, self._ids
        clock = time.perf_counter
        signature = inspect.signature(fn) if observe is not None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = next(ids)
            parent = stack[-1] if stack else None
            outer_name, outer_layer = not open_[name], not open_[layer]
            open_[name] += 1
            open_[layer] += 1
            stack.append(span_id)
            result = exc = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as err:
                exc = err
                raise
            finally:
                t1 = clock()
                stack.pop()
                open_[name] -= 1
                open_[layer] -= 1
                spans.append((self.op, span_id, parent, name, t0, t1, outer_name, outer_layer))
                if observe is not None:
                    observe(self, signature.bind(*args, **kwargs).arguments, result, exc)
        return traced

    def install(self, modules: dict, observers: dict) -> None:
        """Wrap every public function of the traced layers wherever it is bound."""
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                owner = getattr(obj, "__module__", "").rpartition(".")[2]
                if attr.startswith("_") or not inspect.isfunction(obj) or owner not in LAYERS:
                    continue
                name = f"{owner}.{attr}"
                self._patch(mod, attr, self.wrap(name, obj, observers.get(name)))
        scene = modules["svg"].Scene
        for attr, obj in list(vars(scene).items()):
            if not attr.startswith("_") and inspect.isfunction(obj):
                name = f"svg.{attr}"
                self._patch(scene, attr, self.wrap(name, obj, observers.get(name)))

    def _patch(self, owner, attr, value) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def active(self, name: str) -> bool:
        return self._open[name] > 0

    # -- aggregation ------------------------------------------------------------

    def summary(self) -> dict:
        """Busy and self seconds and calls per span name and per layer."""
        child = defaultdict(float)
        for _, _, parent, _, t0, t1, _, _ in self.spans:
            if parent is not None:
                child[parent] += t1 - t0
        calls, busy, self_s = Counter(), defaultdict(float), defaultdict(float)
        for _, span_id, _, name, t0, t1, outer_name, outer_layer in self.spans:
            layer = name.split(".", 1)[0]
            calls[name] += 1
            own = t1 - t0 - child[span_id]
            self_s[name] += own
            self_s[layer] += own
            if outer_name:
                busy[name] += t1 - t0
            if outer_layer:
                busy[layer] += t1 - t0
        return {"calls": calls, "busy": busy, "self": self_s}
