"""Continuously-checkable invariants for the serving stack under chaos.

The harness does not assert "no errors" -- injected faults *should*
error.  It asserts the properties that must hold anyway:

* **Bit identity.**  Every successfully served waveform equals the
  scalar oracle (``decompress_waveform`` over the clean store record)
  sample for sample.  A fault may fail a read; it may never corrupt
  one.
* **Typed failure.**  Everything an injected fault surfaces is a
  :class:`~repro.errors.ReproError` subclass (``StoreError`` /
  ``CompressionError`` / ``ProtocolError`` / overload).  A bare
  ``OSError`` or ``KeyError`` escaping the stack is a violation.
* **Cache counter laws.**  ``size <= capacity`` and
  ``insertions - evictions == size`` (no ``clear()`` in the workload).
* **Single-flight insert-once.**  With capacity >= the key universe,
  every key is decoded and inserted at most once: each fill holds the
  server's one fill lock, so concurrent fills dedupe, including
  concurrent network fetches of one cold key.
* **Net accounting.**  After quiesce, every admitted fetch resolved
  exactly one way: ``fetches == fetches_ok + request_errors``
  (overload sheds are refused *before* admission and counted apart),
  and no connection is left open once every client has closed its
  socket.

The counter laws read the plain dicts the ``stats()`` methods return.
There is no registry-versus-stats check, because each ``stats()`` reads
the registry's own ``Counter`` objects, and no negativity check,
because ``Counter.inc`` rejects a negative amount: neither could fail.

Violations accumulate (thread-safely) as human-readable strings;
:meth:`InvariantChecker.raise_if_violated` turns them into one
:class:`~repro.errors.ChaosError`.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Mapping, Tuple

import numpy as np

from repro.errors import (
    ChaosError,
    ReproError,
    ServerOverloadedError,
)
from repro.pulses.waveform import Waveform

__all__ = ["InvariantChecker"]

_Key = Tuple[str, Tuple[int, ...]]


class InvariantChecker:
    """Accumulating invariant monitor shared by all workload threads."""

    def __init__(self, reference: Mapping[_Key, np.ndarray]) -> None:
        self.reference: Dict[_Key, np.ndarray] = dict(reference)
        self._lock = threading.Lock()
        self.violations: List[str] = []
        self.checks = 0
        self.identity_checks = 0
        self.typed_errors = 0
        self.overloads = 0
        self.untyped_errors = 0

    # -- recording -----------------------------------------------------------

    def _fail(self, message: str) -> None:
        with self._lock:
            self.violations.append(message)

    def _pass(self) -> None:
        with self._lock:
            self.checks += 1

    # -- the invariants --------------------------------------------------------

    def check_identity(self, key: _Key, waveform: Waveform) -> bool:
        """A served waveform must be bit-identical to the scalar oracle."""
        with self._lock:
            self.identity_checks += 1
        expected = self.reference.get(key)
        if expected is None:
            self._fail(f"identity: served unknown key {key}")
            return False
        got = waveform.samples
        if got.shape != expected.shape or not np.array_equal(got, expected):
            self._fail(
                f"identity: key {key} diverges from the scalar oracle "
                f"(served {got.shape}, expected {expected.shape})"
            )
            return False
        self._pass()
        return True

    def check_versioned_identity(
        self, key: _Key, waveform: Waveform, candidates: List[np.ndarray]
    ) -> bool:
        """Under live writes, a served waveform must be *some committed version*.

        Snapshot-consistent readers may legitimately serve any version
        that was ever durably committed for ``key`` (a reader pinned to
        an older generation serves older samples); what they may never
        serve is a hybrid, a torn record, or bytes from an aborted
        commit.  ``candidates`` is the committed-version history the
        write storm maintains for ``key``.
        """
        with self._lock:
            self.identity_checks += 1
        if not candidates:
            self._fail(f"versioned-identity: served unknown key {key}")
            return False
        got = waveform.samples
        for expected in candidates:
            if got.shape == expected.shape and np.array_equal(got, expected):
                self._pass()
                return True
        self._fail(
            f"versioned-identity: key {key} matches none of "
            f"{len(candidates)} committed version(s)"
        )
        return False

    def note_error(self, key, exc: BaseException) -> None:
        """Classify a workload exception: typed is fine, anything else is not."""
        with self._lock:
            if isinstance(exc, ServerOverloadedError):
                self.overloads += 1
            elif isinstance(exc, ReproError):
                self.typed_errors += 1
            else:
                self.untyped_errors += 1
                self.violations.append(
                    f"typed-failure: {type(exc).__name__} escaped the stack "
                    f"for {key}: {exc}"
                )

    def check_cache(self, stats: Mapping) -> None:
        """The counter laws every ``PulseCache.stats()`` dict must satisfy."""
        if stats["size"] > stats["capacity"]:
            self._fail(
                f"cache: size {stats['size']} exceeds capacity {stats['capacity']}"
            )
        elif stats["insertions"] - stats["evictions"] != stats["size"]:
            self._fail(
                f"cache: insertions {stats['insertions']} - evictions "
                f"{stats['evictions']} != size {stats['size']}"
            )
        else:
            self._pass()

    def check_single_flight(self, stats: Mapping, n_keys: int) -> None:
        """With capacity >= the key universe, each key decodes at most once.

        ``stats`` is a ``PulseServer.stats()`` dict.
        """
        cache = stats["cache"]
        if cache["capacity"] < n_keys:
            return  # evictions legitimately force re-decodes
        if cache["evictions"] != 0:
            self._fail(
                f"single-flight: {cache['evictions']} evictions with capacity "
                f"{cache['capacity']} >= {n_keys} keys"
            )
        elif cache["insertions"] > n_keys:
            self._fail(
                f"single-flight: {cache['insertions']} insertions for "
                f"{n_keys} distinct keys"
            )
        else:
            self._pass()

    def check_net(self, stats: Mapping) -> None:
        """Post-quiesce accounting over a ``NetPulseServer.stats()`` dict:
        every admitted fetch resolved exactly once, and every client's
        connection is closed on the server's side too."""
        if stats["fetches"] != stats["fetches_ok"] + stats["request_errors"]:
            self._fail(
                f"net: fetches {stats['fetches']} != fetches_ok "
                f"{stats['fetches_ok']} + request_errors {stats['request_errors']}"
            )
        elif stats["connections_open"]:
            self._fail(
                f"net: {stats['connections_open']} connection(s) still open "
                "after every client closed"
            )
        else:
            self._pass()

    # -- reporting -----------------------------------------------------------

    def raise_if_violated(self) -> None:
        with self._lock:
            if self.violations:
                summary = "; ".join(self.violations[:8])
                extra = len(self.violations) - 8
                if extra > 0:
                    summary += f"; ... {extra} more"
                raise ChaosError(
                    f"{len(self.violations)} invariant violation(s): {summary}"
                )
