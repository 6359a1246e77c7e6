"""In-memory span tracer that wraps smoothbench functions where they are called.

smoothbench modules import their collaborators by name (``from .numkit import
ridge_solve``), so a function is traced by replacing that name in the *calling*
module's namespace, e.g. ``smoothbench.erbf.ridge_solve``. Each call records a
span ``[name, start_ns, end_ns, parent]`` in a list; parents come from a stack,
so a layer's self time is its duration minus the time covered by its direct
children. Hooks run after the call, outside the span, and add counters (work
sizes, iteration counts, input hashes).

A target that a later version of the package no longer has is recorded in
``absent`` and skipped, so the benchmark keeps running across refactors.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Union

Hook = Callable[["Tracer", tuple, dict, Any], None]
SpanName = Union[str, Callable[[tuple, dict], str]]


class Tracer:
    """Patches targets on ``__enter__`` and restores them on ``__exit__``."""

    def __init__(self, targets):
        self.targets = targets
        self.spans: List[list] = []
        self.counters: Dict[str, float] = defaultdict(float)
        self.distinct: Dict[str, set] = defaultdict(set)
        self.absent: List[str] = []
        self._stack: List[int] = []
        self._saved: List[tuple] = []

    def __enter__(self) -> "Tracer":
        for module_name, attr, name, hook in self.targets:
            where = f"{module_name}.{attr}"
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.absent.append(where)
                continue
            fn = getattr(module, attr, None)
            if not callable(fn):
                self.absent.append(where)
                continue
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name, hook))
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def _wrap(self, fn: Callable, name: SpanName, hook: Optional[Hook]) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            idx = len(spans)
            span = [label, 0, 0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(idx)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return traced

    def add(self, key: str, value: float) -> None:
        self.counters[key] += value

    def note_input(self, key: str, args: tuple, kwargs: dict) -> None:
        """Remember a digest of one call's arguments (arrays by shape and bytes)."""
        h = hashlib.blake2b(digest_size=16)
        for part in args + tuple(x for kv in sorted(kwargs.items()) for x in kv):
            if hasattr(part, "tobytes"):
                h.update(repr(part.shape).encode() + part.tobytes())
            else:
                h.update(repr(part).encode())
            h.update(b"|")
        self.distinct[key].add(h.digest())

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: Dict[str, Dict[str, float]] = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += (end - start) * 1e-9
            row["self_s"] += (end - start - child_ns[i]) * 1e-9
        return out
