"""Span tracer that wraps a package's public functions from the outside.

``Tracer.install`` replaces every public function of the given layer modules
by a wrapper, in the namespace of every module that holds a reference to it:
``stack.solve_single_sheet`` (imported from ``surface``) is wrapped as well as
``surface.solve_single_sheet`` itself, and ``cli``'s ``stack_mod.*`` calls go
through the wrapped module attributes.  ``uninstall`` restores the originals.

A span records its name, start, end, parent span and command id.  Spans are
kept in memory in typed arrays and written out by ``write``.  Spans opened in
a worker thread with no open span of their own take the innermost open span
of the command's thread as parent, so the ``--jobs`` pool's work nests under
the command that started it.  Self time is a span's duration minus the union
of its children's intervals (children from two threads may overlap).
"""

from __future__ import annotations

import functools
import inspect
import json
import threading
from array import array
from collections import Counter
from time import perf_counter


class Tracer:
    def __init__(self, hooks: dict | None = None, on_error=None):
        # hooks: span name -> fn(counters, args, result) run after the span ends
        self.hooks = hooks or {}
        self.on_error = on_error
        self.names: list[str] = []
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.cmd = array("i")
        self.counters: Counter = Counter()
        self._cmd = -1
        self._local = threading.local()
        self._command_stack: list[int] = []
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []

    # -- span bookkeeping ---------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin_command(self, cmd_id: int) -> None:
        """Mark the calling thread as the one running command ``cmd_id``."""
        self._cmd = cmd_id
        self._command_stack = self._stack()

    def _begin(self, name_id: int) -> int:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            outer = self._command_stack
            parent = outer[-1] if outer else -1
        with self._lock:
            idx = len(self.start)
            self.name.append(name_id)
            self.parent.append(parent)
            self.cmd.append(self._cmd)
            self.end.append(0.0)
            self.start.append(perf_counter())
        stack.append(idx)
        return idx

    def _end(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack().pop()

    def _wrap(self, fn, span_name: str):
        self.names.append(span_name)
        name_id = len(self.names) - 1
        begin, end = self._begin, self._end
        hook = self.hooks.get(span_name)
        on_error = self.on_error
        counters = self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = begin(name_id)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                end(idx)
                if on_error is not None:
                    on_error(counters, span_name, exc)
                raise
            end(idx)
            if hook is not None:
                hook(counters, args, result)
            return result

        return traced

    # -- installation -------------------------------------------------------

    def install(self, layers: dict, namespaces, skip=frozenset()) -> None:
        """Wrap the public functions of ``layers`` (layer name -> module)
        wherever a module in ``namespaces`` refers to them."""
        wrappers = {}
        for layer, module in layers.items():
            for attr, obj in sorted(vars(module).items()):
                name = f"{layer}.{attr}"
                if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                        and not attr.startswith("_") and name not in skip):
                    wrappers[obj] = self._wrap(obj, name)
        for module in namespaces:
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(module, attr, wrappers[obj])
                    self._patches.append((module, attr, obj))

    def uninstall(self) -> None:
        for module, attr, obj in reversed(self._patches):
            setattr(module, attr, obj)
        self._patches.clear()

    # -- analysis -----------------------------------------------------------

    def self_times(self) -> list[float]:
        """Each span's duration minus the union of its children's intervals."""
        start, end = self.start, self.end
        children: dict[int, list[int]] = {}
        for i, p in enumerate(self.parent):
            if p >= 0:
                children.setdefault(p, []).append(i)
        own = [e - s for s, e in zip(start, end)]
        for p, kids in children.items():
            spans = sorted((start[c], end[c]) for c in kids)
            covered = 0.0
            lo, hi = spans[0]
            for s, e in spans[1:]:
                if s > hi:
                    covered += hi - lo
                    lo, hi = s, e
                elif e > hi:
                    hi = e
            own[p] -= covered + (hi - lo)
        return own

    def root_time(self) -> float:
        """Summed duration of the spans that have no parent."""
        return sum(e - s for s, e, p in zip(self.start, self.end, self.parent) if p < 0)

    def summary(self) -> dict:
        """Per span name: call count, total duration and total self time."""
        own = self.self_times()
        out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in self.names}
        for i, name_id in enumerate(self.name):
            row = out[self.names[name_id]]
            row["calls"] += 1
            row["total_s"] += self.end[i] - self.start[i]
            row["self_s"] += own[i]
        return out

    def count_children(self, child: str, parent: str) -> int:
        c, p = self.names.index(child), self.names.index(parent)
        return sum(1 for n, q in zip(self.name, self.parent) if n == c and q >= 0
                   and self.name[q] == p)

    def write(self, path: str) -> None:
        """JSON Lines: a header with the span names and counters, then one
        ``[name, start_s, end_s, parent, cmd]`` array per span."""
        t0 = self.start[0] if len(self.start) else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"names": self.names, "counters": dict(self.counters),
                                 "columns": ["name", "start_s", "end_s", "parent", "cmd"]}))
            fh.write("\n")
            for n, s, e, p, c in zip(self.name, self.start, self.end, self.parent, self.cmd):
                fh.write(f"[{n},{s - t0:.9f},{e - t0:.9f},{p},{c}]\n")
