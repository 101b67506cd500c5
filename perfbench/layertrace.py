"""Layer tracer for the benchmark's traced runs.

A layer is one module of the library.  Tracing wraps every public
function of each layer module, and every public method and property
of the classes it defines, then rebinds each name that points at an
original in any ``branchlab.*`` namespace (modules import functions by
name) and in the namespaces the caller names.  Constructors are not
wrapped: building a table or a dataclass runs on the caller's clock,
as do the ``strings`` helpers, which belong to no layer.

A call that enters a layer from outside it opens a span (id, parent
id, case, layer, function, start, end), timed on the process CPU clock
like the cases.  Calls inside the layer only bump the function's
counter.  A layer's self time is its spans' time minus the time of the
spans they caused.  Spans stay in memory, up to ``max_spans`` of them,
until ``write_spans``; the originals come back on ``restore``.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from types import FunctionType

LAYERS = ("trees", "colorings", "functionals", "cupping", "traceable",
          "smc", "gen")


class Tracer:
    """Spans and call counts for the layers, while installed."""

    def __init__(self, extra_namespaces=(), max_spans: int = 100_000):
        self.extra_namespaces = tuple(extra_namespaces)
        self.max_spans = max_spans
        self.case = -1
        self.layer_calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.fn_calls: dict[tuple[str, str], list[int]] = {}
        self.spans: list[tuple] = []
        self.dropped_spans = 0
        self.tree_hashes: set[int] = set()
        self.tree_calls = 0
        self.tree_members = 0
        self._stack: list[list] = []  # [layer, child seconds, span id]
        self._next_id = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, layer: str, name: str, fn):
        cell = self.fn_calls.setdefault((layer, name), [0])
        stack = self._stack
        self_s = self.self_s
        layer_calls = self.layer_calls
        spans = self.spans
        clock = time.process_time
        is_trees = layer == "trees"

        def traced(*args, **kwargs):
            cell[0] += 1
            if stack and stack[-1][0] == layer:
                return fn(*args, **kwargs)
            layer_calls[layer] += 1
            if is_trees and args:
                self._note_tree(args[0])
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][2] if stack else None
            frame = [layer, 0.0, span_id]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                took = end - start
                self_s[layer] += took - frame[1]
                if stack:
                    stack[-1][1] += took
                if len(spans) < self.max_spans:
                    spans.append((span_id, parent, self.case, layer, name,
                                  start, end))
                else:
                    self.dropped_spans += 1

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def _note_tree(self, t) -> None:
        if isinstance(t, (set, frozenset)):
            t = frozenset(t)
            self.tree_hashes.add(hash(t))
            self.tree_calls += 1
            self.tree_members += len(t)

    def install(self) -> None:
        """Wrap every layer and rebind the names that point at originals."""
        wrapped: dict[int, object] = {}
        for layer in LAYERS:
            mod = sys.modules[f"branchlab.{layer}"]
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__",
                                                   None) != mod.__name__:
                    continue
                if isinstance(obj, type):
                    self._wrap_class(layer, obj)
                elif callable(obj):
                    wrapped[id(obj)] = self._wrap(layer, name, obj)
        namespaces = [m for n, m in sorted(sys.modules.items())
                      if n == "branchlab" or n.startswith("branchlab.")]
        namespaces.extend(self.extra_namespaces)
        for ns in namespaces:
            for name, obj in list(vars(ns).items()):
                new = wrapped.get(id(obj))
                if new is not None:
                    self._patches.append((ns, name, obj))
                    setattr(ns, name, new)

    def _wrap_class(self, layer: str, cls: type) -> None:
        for name, attr in list(vars(cls).items()):
            if name.startswith("_"):
                continue
            if isinstance(attr, FunctionType):
                new = self._wrap(layer, name, attr)
            elif isinstance(attr, property) and attr.fget is not None:
                new = property(self._wrap(layer, name, attr.fget),
                               attr.fset, attr.fdel, attr.__doc__)
            else:
                continue
            self._patches.append((cls, name, attr))
            setattr(cls, name, new)

    def restore(self) -> None:
        """Put every original back, in reverse order of patching."""
        while self._patches:
            owner, name, orig = self._patches.pop()
            setattr(owner, name, orig)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    # -- results ---------------------------------------------------------------

    def write_spans(self, path) -> None:
        fields = ("id", "parent", "case", "layer", "fn", "start", "end")
        with open(path, "w") as fh:
            json.dump({"fields": fields, "dropped": self.dropped_spans},
                      fh)
            fh.write("\n")
            for span in self.spans:
                fh.write(json.dumps(span))
                fh.write("\n")
