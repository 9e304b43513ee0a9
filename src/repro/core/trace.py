"""Zero-dependency query tracing: nested spans with wall/CPU timings.

The engine's query paths cross four evaluation methods, parallel
shards, MCMC chains, and a shared computation cache; when a query is
slow or degrades, ``elapsed`` alone cannot say *where* the time went.
This module provides the span tree every query path emits into:

- :class:`Span` — one timed region with a name, structured attributes,
  monotonic wall-clock (``time.perf_counter``) and process CPU
  (``time.process_time``) timings, and thread-safe child spans, so
  parallel shards and MCMC chains can attach children concurrently.
- A **contextvar-carried active span**: :func:`span` opens a child of
  whatever span is active in the current context and makes it active
  for the duration, so instrumented code below the engine needs no
  signature changes. When no span is active every helper is a no-op,
  which is what keeps the cost of disabled tracing at roughly one
  contextvar read per call site.
- **Cross-thread propagation**: contextvars do not flow into worker
  threads, so dispatching code captures :func:`current_span` *before*
  handing work to a pool and opens children with :func:`span_under`
  (or :func:`activate`) inside the worker.
- **JSON export** (:meth:`Span.to_dict`) rendered by
  :func:`render_trace` and the ``python -m repro.trace`` CLI.

Span CPU timings use the *process* CPU clock: for spans whose work runs
concurrently with other spans (shards, chains) the CPU delta includes
their neighbours' work and is best read as "process CPU burned while
this span was open".
"""

from __future__ import annotations

import contextvars
import threading
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional

__all__ = [
    "Span",
    "accumulate",
    "activate",
    "annotate",
    "current_span",
    "render_trace",
    "set_span_start_hook",
    "span",
    "span_under",
    "stage_durations",
    "walk_spans",
]

# Called (with the new span) at every span start when installed. The
# determinism sanitizer (``python -m repro.lint.sanitize``) uses this to
# inject scheduling jitter at span boundaries — the natural preemption
# points between evaluation stages — without instrumenting call sites.
_SPAN_START_HOOK: Optional[Any] = None


def set_span_start_hook(hook: Optional[Any]) -> Optional[Any]:
    """Install (or clear, with ``None``) the global span-start hook.

    Returns the previously installed hook so callers can restore it.
    The hook runs inside ``Span.__init__`` on whatever thread opens the
    span; it must be cheap, thread-safe, and must not raise.
    """
    global _SPAN_START_HOOK
    previous = _SPAN_START_HOOK
    _SPAN_START_HOOK = hook
    return previous


class Span:
    """One timed region of query evaluation, with children.

    Starts its clocks at construction; :meth:`end` (idempotent) stops
    them. Children are appended under a per-span lock so concurrent
    workers can attach spans to a shared parent; attributes are plain
    JSON-able values updated via :meth:`set` / :meth:`add`.
    """

    __slots__ = (
        "name",
        "attributes",
        "children",
        "_lock",
        "_start_wall",
        "_start_cpu",
        "_end_wall",
        "_end_cpu",
    )

    def __init__(self, name: str, **attributes: Any) -> None:
        self.name = name
        self.attributes: Dict[str, Any] = dict(attributes)
        self.children: List["Span"] = []
        self._lock = threading.Lock()
        hook = _SPAN_START_HOOK
        if hook is not None:
            # Before the clocks start, so injected jitter perturbs the
            # schedule without inflating this span's own timings.
            hook(self)
        self._start_wall = time.perf_counter()
        self._start_cpu = time.process_time()
        self._end_wall: Optional[float] = None
        self._end_cpu: Optional[float] = None

    # -- lifecycle -----------------------------------------------------

    def end(self) -> None:
        """Stop the clocks (idempotent: the first call wins)."""
        with self._lock:
            if self._end_wall is None:
                self._end_wall = time.perf_counter()
                self._end_cpu = time.process_time()

    @property
    def ended(self) -> bool:
        """Whether :meth:`end` has been called."""
        return self._end_wall is not None

    @property
    def wall(self) -> float:
        """Wall-clock seconds covered (live value while still open)."""
        end = self._end_wall
        return (end if end is not None else time.perf_counter()) - (
            self._start_wall
        )

    @property
    def cpu(self) -> float:
        """Process CPU seconds burned while the span was open."""
        end = self._end_cpu
        return (end if end is not None else time.process_time()) - (
            self._start_cpu
        )

    # -- structure -----------------------------------------------------

    def child(self, name: str, **attributes: Any) -> "Span":
        """Open (and attach) a child span; safe from any thread."""
        node = Span(name, **attributes)
        with self._lock:
            self.children.append(node)
        return node

    def set(self, **attributes: Any) -> None:
        """Merge attributes into the span (last write wins per key)."""
        with self._lock:
            self.attributes.update(attributes)

    def add(self, key: str, amount: float = 1.0) -> None:
        """Accumulate a numeric attribute (creating it at zero)."""
        with self._lock:
            current = self.attributes.get(key, 0)
            self.attributes[key] = current + amount

    # -- export --------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable span tree (see ``python -m repro.trace``).

        Schema, per node: ``name`` (str), ``wall_seconds`` /
        ``cpu_seconds`` (floats), ``attributes`` (flat dict), and
        ``children`` (list of nodes).
        """
        with self._lock:
            children = list(self.children)
            attributes = dict(self.attributes)
        return {
            "name": self.name,
            "wall_seconds": self.wall,
            "cpu_seconds": self.cpu,
            "attributes": attributes,
            "children": [node.to_dict() for node in children],
        }

    def __repr__(self) -> str:
        state = "ended" if self.ended else "open"
        return (
            f"Span({self.name!r}, {state}, wall={self.wall:.6f}s, "
            f"children={len(self.children)})"
        )


# ----------------------------------------------------------------------
# active-span plumbing
# ----------------------------------------------------------------------

_ACTIVE_SPAN: "contextvars.ContextVar[Optional[Span]]" = (
    contextvars.ContextVar("repro_active_span", default=None)
)


def current_span() -> Optional[Span]:
    """The span active in this context, or ``None`` when tracing is off.

    Worker threads start with a fresh context: capture this value in
    the dispatching thread and pass it to :func:`span_under` /
    :func:`activate` inside the worker.
    """
    return _ACTIVE_SPAN.get()


@contextmanager
def activate(root: Optional[Span]) -> Iterator[Optional[Span]]:
    """Make ``root`` the active span for the duration (no-op on ``None``).

    Does *not* end the span on exit — use this to install a root span
    (or re-install a captured parent inside a worker thread) whose
    lifetime is managed by the caller.
    """
    if root is None:
        yield None
        return
    token = _ACTIVE_SPAN.set(root)
    try:
        yield root
    finally:
        _ACTIVE_SPAN.reset(token)


@contextmanager
def span_under(
    parent: Optional[Span], name: str, **attributes: Any
) -> Iterator[Optional[Span]]:
    """A child span under an explicitly captured parent.

    The cross-thread form of :func:`span`: the dispatching thread
    captures :func:`current_span` and the worker opens its child here.
    No-ops (yields ``None``) when ``parent`` is ``None``; otherwise the
    child is active within the block and ended on exit.
    """
    if parent is None:
        yield None
        return
    child = parent.child(name, **attributes)
    token = _ACTIVE_SPAN.set(child)
    try:
        yield child
    finally:
        _ACTIVE_SPAN.reset(token)
        child.end()


@contextmanager
def span(name: str, **attributes: Any) -> Iterator[Optional[Span]]:
    """A child span of the currently active span (no-op when inactive).

    The workhorse instrumentation point: wraps one evaluation stage,
    yielding the new :class:`Span` (or ``None`` when tracing is off) and
    ending it on exit.
    """
    with span_under(current_span(), name, **attributes) as child:
        yield child


def annotate(**attributes: Any) -> None:
    """Set attributes on the active span, if any (no-op otherwise)."""
    active = _ACTIVE_SPAN.get()
    if active is not None:
        active.set(**attributes)


def accumulate(key: str, amount: float = 1.0) -> None:
    """Add to a numeric attribute of the active span, if any."""
    active = _ACTIVE_SPAN.get()
    if active is not None:
        active.add(key, amount)


# ----------------------------------------------------------------------
# span-tree feature extraction
# ----------------------------------------------------------------------

def walk_spans(node: Dict[str, Any]) -> Iterator[Dict[str, Any]]:
    """Depth-first iterator over an exported span tree.

    Accepts the :meth:`Span.to_dict` shape (``name`` / ``wall_seconds``
    / ``children``) and yields every node, root first. The cost-model
    fitter and the ``python -m repro.trace --stats`` aggregation both
    consume this walk so they stay byte-for-byte in agreement about
    which spans exist.
    """
    yield node
    for child in node.get("children") or []:
        yield from walk_spans(child)


def stage_durations(node: Dict[str, Any]) -> Dict[str, List[float]]:
    """Per-stage wall-clock durations across one exported span tree.

    Groups every span's ``wall_seconds`` by span name, preserving
    encounter order within a name. This is the raw material both for
    ``python -m repro.trace --stats`` and for the empirical cost model
    (:mod:`repro.core.costmodel`), which fits per-stage rates from the
    same aggregation.
    """
    grouped: Dict[str, List[float]] = {}
    for current in walk_spans(node):
        name = str(current.get("name", "?"))
        grouped.setdefault(name, []).append(
            float(current.get("wall_seconds") or 0.0)
        )
    return grouped


# ----------------------------------------------------------------------
# rendering
# ----------------------------------------------------------------------

def render_trace(node: Dict[str, Any], indent: str = "  ") -> str:
    """Pretty-print an exported span tree (:meth:`Span.to_dict`).

    One line per span: name, wall milliseconds, share of the root's
    wall time, CPU milliseconds, and compact ``key=value`` attributes.
    """
    root_wall = float(node.get("wall_seconds") or 0.0)
    lines: List[str] = []

    def fmt_attrs(attributes: Dict[str, Any]) -> str:
        if not attributes:
            return ""
        parts = []
        for key in sorted(attributes):
            value = attributes[key]
            if isinstance(value, float):
                parts.append(f"{key}={value:.4g}")
            else:
                parts.append(f"{key}={value}")
        return "  [" + " ".join(parts) + "]"

    def walk(current: Dict[str, Any], depth: int) -> None:
        wall = float(current.get("wall_seconds") or 0.0)
        cpu = float(current.get("cpu_seconds") or 0.0)
        share = (
            f"{100.0 * wall / root_wall:5.1f}%"
            if root_wall > 0
            else "    -"
        )
        lines.append(
            f"{indent * depth}{current.get('name', '?')}"
            f"  {wall * 1000.0:9.3f} ms  {share}"
            f"  cpu {cpu * 1000.0:8.3f} ms"
            + fmt_attrs(dict(current.get("attributes") or {}))
        )
        for node_child in current.get("children") or []:
            walk(node_child, depth + 1)

    walk(node, 0)
    return "\n".join(lines)
