"""In-memory spans around calls into delta-lab's public functions.

The tracer replaces a function by a wrapper in every ``delta_lab`` module
namespace that binds it, so calls made through ``from .x import f`` are seen
too, and puts the originals back on ``restore``.  Each call becomes one span:
name, start, end, the index of the enclosing span and the query id.  A
generator function gets one span per item it yields.  ``on_return`` hooks see
the arguments and result at the same boundary and add to ``counts``.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from collections import defaultdict
from typing import Any, Callable

perf_counter = time.perf_counter


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int, int] | None] = []
        self.stack: list[tuple[int, str]] = []
        self.query = -1
        self.counts: dict[str, int] = defaultdict(int)
        self._patched: list[tuple[Any, str, Any]] = []

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> tuple[int, int]:
        parent = self.stack[-1][0] if self.stack else -1
        index = len(self.spans)
        self.spans.append(None)
        self.stack.append((index, name))
        return index, parent

    def _close(self, name: str, index: int, parent: int, start: float) -> None:
        end = perf_counter()
        self.stack.pop()
        self.spans[index] = (name, start, end, parent, self.query)

    def wrap(self, name: str, fn: Callable,
             on_return: Callable[..., None] | None = None) -> Callable:
        """``on_return(tracer, result, *args)`` gets the call's arguments in
        parameter order, however the caller passed them."""
        signature = inspect.signature(fn)

        def traced(*args, **kwargs):
            index, parent = self._open(name)
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(name, index, parent, start)
            if on_return is not None:
                on_return(self, out, *signature.bind(*args, **kwargs).args)
            return out
        traced.__wrapped__ = fn
        return traced

    def wrap_generator(self, name: str, fn: Callable) -> Callable:
        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)

            def items():
                while True:
                    index, parent = self._open(name)
                    start = perf_counter()
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        self._close(name, index, parent, start)
                    self.counts[name + ".items"] += 1
                    yield item
            return items()
        traced.__wrapped__ = fn
        return traced

    def inside(self, prefix: str) -> bool:
        """Whether a span whose name starts with ``prefix`` is open."""
        return any(name.startswith(prefix) for _, name in self.stack)

    # -- patching ----------------------------------------------------------

    def trace(self, module: Any, attr: str, on_return: Callable | None = None,
              generator: bool = False) -> None:
        """Wrap ``module.attr`` in a span named ``<module>.<attr>`` wherever a
        delta_lab module binds the same function."""
        original = getattr(module, attr)
        name = f"{module.__name__.rpartition('.')[2]}.{attr}"
        wrapped = (self.wrap_generator(name, original) if generator
                   else self.wrap(name, original, on_return))
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] != "delta_lab":
                continue
            if getattr(mod, attr, None) is original:
                self._patched.append((mod, attr, original))
                setattr(mod, attr, wrapped)

    def restore(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    # -- reading -----------------------------------------------------------

    def layer_times(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total duration and self time (duration
        minus the part covered by child spans), in seconds."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            name, start, end, parent, _ = span
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total": 0.0, "self": 0.0})
        for i, (name, start, end, _, _) in enumerate(self.spans):
            row = out[name]
            row["calls"] += 1
            row["total"] += end - start
            row["self"] += end - start - child[i]
        return out

    def write(self, fh, label: str) -> None:
        """One JSON array per span: label, index, name, start, end, parent
        index, query id."""
        for i, (name, start, end, parent, query) in enumerate(self.spans):
            fh.write(json.dumps([label, i, name, round(start, 7), round(end, 7),
                                 parent, query]) + "\n")
