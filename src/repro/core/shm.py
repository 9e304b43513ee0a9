"""Shared-memory segment lifecycle and bookkeeping.

The MCMC process backend (:mod:`repro.core.mcmc`) ships the compiled
:class:`~repro.core.distributions.SamplingPlan` arrays and the state
oracle's descriptor to chain workers through POSIX shared memory.
Segments are named kernel objects that outlive the process that forgot
to unlink them, so every segment created by this package goes through
this module: creation registers the name in a process-local registry,
unlinking removes it, and :func:`live_segments` exposes the registry so
tests can assert nothing leaked after an engine close or a worker crash.

Attaching from a worker uses :func:`attach_segment`, which immediately
unregisters the mapping from :mod:`multiprocessing.resource_tracker`.
On Python < 3.13 ``SharedMemory(name=...)`` re-registers the segment
with the attaching process's resource tracker, which would otherwise
unlink it when the *worker* exits even though the parent still owns it.
Ownership here is explicit: the creating process unlinks, everyone else
only closes.
"""

from __future__ import annotations

import logging
import threading
from multiprocessing import resource_tracker, shared_memory
from typing import FrozenSet, Optional, Union

__all__ = [
    "attach_segment",
    "create_segment",
    "live_segments",
    "unlink_segment",
]

logger = logging.getLogger(__name__)

_LOCK = threading.Lock()
_LIVE: set = set()


def create_segment(nbytes: int) -> shared_memory.SharedMemory:
    """Create a shared-memory segment and record its name as live."""
    segment = shared_memory.SharedMemory(create=True, size=max(1, int(nbytes)))
    with _LOCK:
        _LIVE.add(segment.name)
    return segment


def attach_segment(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing segment without adopting ownership.

    On Python 3.11 ``SharedMemory(name=...)`` registers the segment
    with the attaching process's resource tracker unconditionally.
    Whether that registration must be dropped depends on whose tracker
    received it:

    - A *spawned* worker starts its own tracker; leaving the
      registration would unlink the segment when the worker exits even
      though the parent still owns it, so it is removed.
    - A *forked* worker inherits the parent's tracker; removing the
      registration there would delete the parent's own entry from the
      shared tracker. It is left alone (a duplicate register in the
      tracker's name set is a no-op).
    - The creating process keeps its entry; the eventual
      :func:`unlink_segment` balances it.

    The distinction is made once per process, before the first attach:
    a tracker connection already open at that point was started by this
    process's own creations or inherited across ``fork`` — both cases
    where entries must stay.
    """
    shared = _tracker_shared()
    segment = shared_memory.SharedMemory(name=name)
    with _LOCK:
        own = segment.name in _LIVE
    if not own and not shared:
        try:
            resource_tracker.unregister(segment._name, "shared_memory")
        except Exception as exc:  # pragma: no cover - tracker internals vary
            logger.debug(
                "could not unregister %s from the resource tracker (%s); "
                "worst case the tracker unlinks it at worker exit",
                name,
                exc,
            )
    return segment


_TRACKER_SHARED: Optional[bool] = None


def _tracker_shared() -> bool:
    """Whether this process's resource tracker serves other processes.

    Evaluated lazily and cached; creations in this process force it to
    ``True`` (our own tracker holds entries we must keep balanced).
    """
    global _TRACKER_SHARED
    if _TRACKER_SHARED is None:
        with _LOCK:
            if _LIVE:
                _TRACKER_SHARED = True
        if _TRACKER_SHARED is None:
            tracker = getattr(resource_tracker, "_resource_tracker", None)
            _TRACKER_SHARED = getattr(tracker, "_fd", None) is not None  # reprolint: disable=CON001 -- idempotent memo: racing writers compute the same value, and the answer is fixed for the life of the process
    return _TRACKER_SHARED


def unlink_segment(
    segment: Union[shared_memory.SharedMemory, str, None],
) -> None:
    """Close and unlink a segment owned by this process. Idempotent."""
    if segment is None:
        return
    if isinstance(segment, str):
        name = segment
        try:
            segment = attach_segment(name)
        except FileNotFoundError:
            with _LOCK:
                _LIVE.discard(name)
            return
    name = segment.name
    try:
        segment.close()
    except Exception as exc:  # pragma: no cover - double close is harmless
        logger.debug("double close of segment %s ignored (%s)", name, exc)
    try:
        segment.unlink()
    except FileNotFoundError:
        # Already unlinked (idempotent call); only the registry entry
        # remains to clean up.
        logger.debug("segment %s was already unlinked", name)
    with _LOCK:
        _LIVE.discard(name)


def live_segments() -> FrozenSet[str]:
    """Names of segments created by this process and not yet unlinked."""
    with _LOCK:
        return frozenset(_LIVE)
