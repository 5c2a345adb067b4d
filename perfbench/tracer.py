"""Outside-in span tracer for poolal's public functions.

The tracer wraps functions from outside the library: for each target it
finds every ``poolal`` module that holds a binding to the original
function (``from .core import label_marginals`` makes one binding per
importing module) and swaps each binding for a recorder.  Nothing under
``src/`` knows it is traced.

A span is ``(name, start_ns, end_ns, parent, unit)``.  ``end_ns`` closes
the timed call; the counting hook that runs afterwards is charged to
nobody, so hooks never inflate a parent's self time.  Spans stay in
memory until :meth:`Tracer.write_spans`.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import defaultdict
from typing import Callable

Hook = Callable[["Tracer", tuple, dict, object], None]


class Tracer:
    """Records spans and counters for a fixed list of ``(module, function, hook)``."""

    def __init__(self, targets: list[tuple[str, str, Hook | None]]):
        self.names: list[str] = []
        self.wrappers: list[Callable] = []
        self.sites: list[tuple[object, str, object, object]] = []
        self.spans: list[tuple[int, int, int, int, int] | None] = []
        self.counters: dict[str, int] = defaultdict(int)
        self.scratch: dict = {}  # per-unit state a hook needs (cleared by the caller)
        self.unit = -1
        self._stack: list[int] = []
        self._hook_ns: dict[int, int] = {}
        modules = [
            m for n, m in sorted(sys.modules.items()) if n == "poolal" or n.startswith("poolal.")
        ]
        for module_name, func_name, hook in targets:
            original = getattr(importlib.import_module(f"poolal.{module_name}"), func_name)
            wrapper = self._wrap(len(self.names), original, hook)
            self.names.append(f"{module_name}.{func_name}")
            self.wrappers.append(wrapper)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        self.sites.append((m, attr, original, wrapper))

    def _wrap(self, name_id: int, original, hook: Hook | None):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            start = clock()
            try:
                return_value = original(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name_id, start, end, parent, self.unit)
            if hook is not None:
                hook(self, args, kwargs, return_value)
                self._hook_ns[idx] = clock() - end
            return return_value

        traced.__wrapped__ = original
        return traced

    def enable(self) -> None:
        for module, attr, _, wrapper in self.sites:
            setattr(module, attr, wrapper)

    def disable(self) -> None:
        for module, attr, original, _ in self.sites:
            setattr(module, attr, original)

    def bound_modules(self, qualified: str) -> list[str]:
        """Names of the modules whose binding of ``qualified`` the tracer swaps."""
        wrapper = self.wrappers[self.names.index(qualified)]
        return sorted({m.__name__ for m, _, _, w in self.sites if w is wrapper})

    def aggregate(self, first_span: int = 0) -> dict[str, list[int]]:
        """Per name: ``[calls, self_ns, inclusive_ns]`` over spans from ``first_span`` on.

        Self time is a span's duration minus the full extent (duration
        plus hook) of its direct children.
        """
        spans = self.spans
        child_ns: dict[int, int] = defaultdict(int)
        for idx in range(first_span, len(spans)):
            _, start, end, parent, _ = spans[idx]
            if parent >= first_span:
                child_ns[parent] += end - start + self._hook_ns.get(idx, 0)
        totals: dict[str, list[int]] = {}
        for idx in range(first_span, len(spans)):
            name_id, start, end, _, _ = spans[idx]
            row = totals.setdefault(self.names[name_id], [0, 0, 0])
            row[0] += 1
            row[1] += end - start - child_ns.get(idx, 0)
            row[2] += end - start
        return totals

    def drop_spans(self, first_span: int) -> None:
        """Forget spans from ``first_span`` on, once they have been aggregated."""
        del self.spans[first_span:]
        for idx in [i for i in self._hook_ns if i >= first_span]:
            del self._hook_ns[idx]

    def write_spans(self, path) -> int:
        """Write the retained spans as JSON lines after a header; returns how many.

        Each line is ``[id, name, start_ns, end_ns, parent_id, unit]``;
        a parent of -1 marks a root span and unit -1 the set-up.
        """
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"fields": ["id", "name", "start_ns", "end_ns", "parent", "unit"]}) + "\n")
            for idx, (name_id, start, end, parent, unit) in enumerate(self.spans):
                fh.write(json.dumps([idx, self.names[name_id], start, end, parent, unit]) + "\n")
        return len(self.spans)
