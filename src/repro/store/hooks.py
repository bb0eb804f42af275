"""Instrumentation points for the concurrent store stack.

The chaos harness (:mod:`repro.chaos`) needs to *force* thread
interleavings that normal scheduling only produces rarely: a thread
preempted between its cache probe and the shard locks, two fills racing
an eviction, a drain racing an in-flight decode.  Rather than sprinkle
``time.sleep`` into tests, the serving layer exposes named **yield
points** around its lock acquisitions; a registered hook can sleep,
yield, block on an event, or count at each one.

With no hook registered (the default, and the production state) a
yield point is one global read and a ``None`` check -- measured noise
next to a record decode or an mmap read.

The hook is process-global on purpose: the whole point is to reach
code paths deep inside :class:`~repro.store.server.PulseServer` and
:class:`~repro.store.cache.PulseCache` without threading a parameter
through every layer.  Use :func:`preempt_hook` as a context manager so
a crashed harness never leaves the hook installed.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Iterator, Optional

__all__ = ["set_preempt_hook", "preempt", "preempt_hook"]

_PreemptHook = Callable[[str], None]

_hook: Optional[_PreemptHook] = None


def set_preempt_hook(hook: Optional[_PreemptHook]) -> Optional[_PreemptHook]:
    """Install (or clear, with ``None``) the global yield-point hook.

    Returns the previously installed hook so callers can restore it.
    """
    global _hook
    previous = _hook
    _hook = hook
    return previous


def preempt(point: str) -> None:
    """Run the installed hook (if any) at one named yield point.

    Called by the serving stack around lock acquisitions.  The hook
    must be thread-safe: yield points fire concurrently from every
    thread that fills -- callers of ``fetch`` / ``fetch_batch`` and the
    network tier's executor threads.
    """
    hook = _hook
    if hook is not None:
        hook(point)


@contextlib.contextmanager
def preempt_hook(hook: _PreemptHook) -> Iterator[_PreemptHook]:
    """Context manager: install ``hook``, always restore on exit."""
    previous = set_preempt_hook(hook)
    try:
        yield hook
    finally:
        set_preempt_hook(previous)
