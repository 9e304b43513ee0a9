"""Outside-in layer tracer: wraps public entry points of ``repro``.

The benchmark measures layers without adding spans to the program: it
replaces each layer's public entry point (a module function, the copy
of it a caller bound with ``from ... import``, or a class method) with
a timing wrapper, and restores the originals afterwards.

Each wrapped call is a span ``(id, parent, layer, thread, start, end)``.
Self time is the span's duration minus the time of wrapped calls
nested inside it on the same thread, so the self times of all layers
add up to at most the traced wall time per thread. Spans stay in memory
and are written out by :meth:`Tracer.dump` when the run ends.

Coroutine entry points (the service's admission and coalescing waits)
interleave on the event loop, so they are timed as waits: their
duration is recorded, but they take no part in self-time accounting.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple


class BlindTrace(RuntimeError):
    """A layer that the workload should exercise recorded no call."""


@dataclass
class LayerStats:
    """Counters of one traced layer."""

    calls: int = 0
    self_s: float = 0.0


@dataclass
class Hooks:
    """Per-layer observations the wrappers make on arguments/results."""

    shrink_in: int = 0
    shrink_kept: int = 0
    migrate_carried: int = 0
    migrate_dropped: int = 0
    member_sets: set = field(default_factory=set)
    evaluators: list = field(default_factory=list)
    coalesce_roles: Dict[str, int] = field(default_factory=dict)
    coalesce_wait_s: float = 0.0
    admission_wait_s: float = 0.0


class Tracer:
    """Installs timing wrappers and accumulates per-layer statistics.

    Wrappers are installed once with :meth:`install` and are inert
    until :attr:`enabled` is set, so an untraced phase pays one
    attribute test per call. :meth:`reset` clears the counters between
    phases; :meth:`uninstall` puts every original back.
    """

    def __init__(self) -> None:
        self.enabled = False
        self.stats: Dict[str, LayerStats] = {}
        self.hooks = Hooks()
        self.spans: List[Tuple[int, int, str, int, float, float]] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patched: List[Tuple[Any, str, Any]] = []
        self.instances: List[Any] = []

    # -- bookkeeping -----------------------------------------------------

    def reset(self) -> None:
        """Drop counters, hooks and spans (wrappers stay installed)."""
        with self._lock:
            self.stats = {}
            self.hooks = Hooks()
            self.spans = []
            self.instances = []

    def _stack(self) -> List[List[float]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _enter(self) -> Tuple[List, List[Any], float]:
        stack = self._stack()
        parent = stack[-1][1] if stack else 0
        frame: List[Any] = [0.0, next(self._ids), parent]
        stack.append(frame)
        return stack, frame, time.perf_counter()

    def _exit(
        self, layer: str, stack: List, frame: List[Any], start: float
    ) -> None:
        end = time.perf_counter()
        stack.pop()
        duration = end - start
        if stack:
            stack[-1][0] += duration
        with self._lock:
            stats = self.stats.get(layer)
            if stats is None:
                stats = self.stats[layer] = LayerStats()
            stats.calls += 1
            stats.self_s += duration - frame[0]
            self.spans.append(
                (frame[1], frame[2], layer, threading.get_ident(), start, end)
            )

    def _count(self, layer: str) -> None:
        with self._lock:
            stats = self.stats.get(layer)
            if stats is None:
                stats = self.stats[layer] = LayerStats()
            stats.calls += 1

    # -- wrappers --------------------------------------------------------

    def _sync(
        self,
        layer: str,
        original: Callable,
        observe: Optional[Callable] = None,
    ) -> Callable:
        tracer = self

        @functools.wraps(original)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not tracer.enabled:
                return original(*args, **kwargs)
            stack, frame, start = tracer._enter()
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._exit(layer, stack, frame, start)
            if observe is not None:
                with tracer._lock:
                    observe(tracer.hooks, args, result)
            return result

        return wrapper

    def _iterating(self, layer: str, original: Callable) -> Callable:
        """For functions returning lazy iterators: time every resume."""
        tracer = self

        def timed(iterator: Any):
            while True:
                stack, frame, start = tracer._enter()
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    tracer._exit(layer, stack, frame, start)
                yield item

        @functools.wraps(original)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not tracer.enabled:
                return original(*args, **kwargs)
            stack, frame, start = tracer._enter()
            try:
                iterator = iter(original(*args, **kwargs))
            finally:
                tracer._exit(layer, stack, frame, start)
            return timed(iterator)

        return wrapper

    def _waiting(
        self, layer: str, original: Callable, observe: Callable
    ) -> Callable:
        tracer = self

        @functools.wraps(original)
        async def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not tracer.enabled:
                return await original(*args, **kwargs)
            start = time.perf_counter()
            result = await original(*args, **kwargs)
            waited = time.perf_counter() - start
            tracer._count(layer)
            with tracer._lock:
                observe(tracer.hooks, waited, result)
            return result

        return wrapper

    def _patch(self, owner: Any, attr: str, wrapper: Callable) -> None:
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def wrap(
        self,
        layer: str,
        targets: List[Tuple[Any, str]],
        kind: str = "sync",
        observe: Optional[Callable] = None,
    ) -> None:
        """Wrap every ``(owner, attribute)`` target under ``layer``.

        All targets must hold the *same* original callable (a module
        function and the copies callers imported), so renaming or
        re-binding it in the program fails here, loudly, instead of
        silently blinding the trace.
        """
        first_owner, first_attr = targets[0]
        original = _lookup(first_owner, first_attr)
        if kind == "sync":
            wrapper = self._sync(layer, original, observe)
        elif kind == "iter":
            wrapper = self._iterating(layer, original)
        elif kind == "wait":
            assert observe is not None
            wrapper = self._waiting(layer, original, observe)
        else:
            raise ValueError(f"unknown wrapper kind {kind!r}")
        for owner, attr in targets:
            bound = _lookup(owner, attr)
            if bound is not original:
                raise RuntimeError(
                    f"{_name(owner)}.{attr} is not the same object as "
                    f"{_name(first_owner)}.{first_attr}; cannot trace "
                    f"layer {layer!r}"
                )
            self._patch(owner, attr, wrapper)

    def register_instances(self, cls: type) -> None:
        """Keep every instance of ``cls`` built while tracing is on."""
        original = _lookup(cls, "__init__")
        tracer = self

        @functools.wraps(original)
        def init(obj: Any, *args: Any, **kwargs: Any) -> None:
            original(obj, *args, **kwargs)
            if tracer.enabled:
                with tracer._lock:
                    tracer.instances.append(obj)

        self._patch(cls, "__init__", init)

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- output ----------------------------------------------------------

    def dump(self, path: str, header: Dict[str, Any]) -> None:
        """Write the header and every span as JSON lines."""
        with open(path, "w", encoding="utf-8") as out:
            out.write(json.dumps(header) + "\n")
            for span in self.spans:
                out.write(json.dumps(span) + "\n")


def _lookup(owner: Any, attr: str) -> Any:
    namespace = owner.__dict__
    if attr not in namespace:
        raise RuntimeError(
            f"{_name(owner)} has no attribute {attr!r}; the traced layer "
            "was renamed or moved"
        )
    return namespace[attr]


def _name(owner: Any) -> str:
    return getattr(owner, "__name__", repr(owner))
