"""Layer tracing from outside the program.

The tracer replaces public entry points, looked up by module attribute,
with wrappers that time each call as a span and keep counts. A span's self
time is its duration minus the time covered by spans opened inside it, so
the self times of all layers add up to the traced time without double
counting. Only aggregates are kept in memory: per wrapper, the calls, the
total and self seconds, and the counters its results feed.

An entry point the program no longer has, or one that is installed but
never called, is reported as missing, never as zero.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field


@dataclass
class WrapperStats:
    layer: str
    installed: bool = True
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


@dataclass
class Tracer:
    wrappers: dict[str, WrapperStats] = field(default_factory=dict)
    counters: dict[str, float] = field(default_factory=dict)
    _stack: list[list[float]] = field(default_factory=list)
    _restore: list[tuple[object, str, object]] = field(default_factory=list)

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def maximum(self, name: str, value: float) -> None:
        self.counters[name] = max(self.counters.get(name, value), value)

    def install(self, module, attr: str, layer: str, on_result=None, generator=False) -> None:
        """Wrap ``module.attr``; ``on_result(tracer, result)`` sees each return value.

        With ``generator``, every ``next()`` on the returned iterator is a span
        of its own (the time between items belongs to the consumer) and
        ``on_result`` sees each item.
        """
        name = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"
        original = getattr(module, attr, None)
        if original is None:
            self.wrappers[name] = WrapperStats(layer, installed=False)
            return
        stats = self.wrappers[name] = WrapperStats(layer)

        def timed(fn, *args, **kwargs):
            inner = [0.0]  # time covered by spans opened inside this one
            self._stack.append(inner)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self._stack.pop()
                if self._stack:
                    self._stack[-1][0] += elapsed
                stats.calls += 1
                stats.total_s += elapsed
                stats.self_s += elapsed - inner[0]

        if generator:
            def items(it):
                while True:
                    try:
                        item = timed(next, it)
                    except StopIteration:
                        return
                    if on_result is not None:
                        on_result(self, item)
                    yield item

            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                return items(iter(original(*args, **kwargs)))
        else:
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                result = timed(original, *args, **kwargs)
                if on_result is not None:
                    on_result(self, result)
                return result

        setattr(module, attr, wrapper)
        self._restore.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def layer(self, layer: str) -> tuple[int, float] | None:
        """(calls, self seconds) over the layer's wrappers; None when none was reached."""
        reached = [w for w in self.wrappers.values() if w.layer == layer and w.calls]
        if not reached:
            return None
        return sum(w.calls for w in reached), sum(w.self_s for w in reached)

    def snapshot(self) -> dict[str, tuple[int, float]]:
        return {name: (w.calls, w.self_s) for name, w in self.wrappers.items()}

    def wrapper_table(self) -> dict[str, dict | str]:
        out: dict[str, dict | str] = {}
        for name, w in sorted(self.wrappers.items()):
            if not w.installed:
                out[name] = "missing (not in the program)"
            elif not w.calls:
                out[name] = "missing (never reached)"
            else:
                out[name] = {"layer": w.layer, "calls": w.calls,
                             "total_s": w.total_s, "self_s": w.self_s}
        return out
