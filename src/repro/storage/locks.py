"""A hierarchical lock manager with deadlock detection.

Granularities follow the paper's §4.3 concurrency argument: slices "form
a natural new granularity, coarser than messages, but orthogonal to
queues.  By locking just the affected slices, full serializability of the
individual message-processing transactions can be guaranteed without
locking whole queues."

Resources are tuples, e.g. ``("queue", "crm")``,
``("slice", "requestMsgs", "r-17")``, ``("message", 42)``.  Intention
modes (IS/IX) are taken on ancestors by the callers that use the
hierarchy; the manager itself is granularity-agnostic.

Deadlocks are detected eagerly with a waits-for graph cycle check; the
*requesting* transaction gets :class:`DeadlockError` and is expected to
abort (the rule executor retries the message).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Hashable

from .errors import DeadlockError, LockTimeoutError

# Modes
IS = "IS"
IX = "IX"
S = "S"
X = "X"

_COMPATIBLE: dict[tuple[str, str], bool] = {
    (IS, IS): True, (IS, IX): True, (IS, S): True, (IS, X): False,
    (IX, IS): True, (IX, IX): True, (IX, S): False, (IX, X): False,
    (S, IS): True, (S, IX): False, (S, S): True, (S, X): False,
    (X, IS): False, (X, IX): False, (X, S): False, (X, X): False,
}

#: Mode strength for upgrades: taking a stronger lock subsumes a weaker.
_STRENGTH = {IS: 0, IX: 1, S: 1, X: 2}

_UPGRADE = {
    (IS, IX): IX, (IS, S): S, (IS, X): X,
    (IX, S): X, (IX, X): X, (S, IX): X, (S, X): X,
}


def compatible(held: str, requested: str) -> bool:
    return _COMPATIBLE[(held, requested)]


@dataclass
class _ResourceState:
    holders: dict[int, str] = field(default_factory=dict)   # txn -> mode


class LockManager:
    """Blocking lock acquisition with cycle-based deadlock detection."""

    def __init__(self, default_timeout: float = 10.0):
        self.default_timeout = default_timeout
        self._mutex = threading.Lock()
        self._condition = threading.Condition(self._mutex)
        self._resources: dict[Hashable, _ResourceState] = {}
        self._held_by_txn: dict[int, set[Hashable]] = {}
        self._waits_for: dict[int, set[int]] = {}
        self.acquisitions = 0
        self.waits = 0
        self.deadlocks = 0
        #: Optional histogram observing blocked-acquisition wait time
        #: (including waits ending in deadlock/timeout); set by the
        #: server when observability is enabled, None otherwise.
        self.wait_timer = None

    # -- public API -----------------------------------------------------------

    def acquire(self, txn: int, resource: Hashable, mode: str,
                timeout: float | None = None) -> None:
        """Acquire (or upgrade to) *mode* on *resource* for *txn*."""
        if mode not in _STRENGTH:
            raise ValueError(f"unknown lock mode {mode!r}")
        deadline = None
        waited_since = None
        with self._condition:
            state = self._resources.setdefault(resource, _ResourceState())
            held = state.holders.get(txn)
            if held is not None:
                mode = self._effective_mode(held, mode)
                if mode == held:
                    return
            while not self._grantable(state, txn, mode):
                self.waits += 1
                if waited_since is None:
                    waited_since = _now()
                blockers = {other for other, other_mode in
                            state.holders.items()
                            if other != txn
                            and not compatible(other_mode, mode)}
                self._waits_for[txn] = blockers
                if self._creates_cycle(txn):
                    self._waits_for.pop(txn, None)
                    self.deadlocks += 1
                    self._observe_wait(waited_since)
                    raise DeadlockError(
                        f"txn {txn} would deadlock waiting for {resource!r}")
                if deadline is None:
                    wait_budget = (timeout if timeout is not None
                                   else self.default_timeout)
                    deadline = _now() + wait_budget
                remaining = deadline - _now()
                if remaining <= 0 or not self._condition.wait(remaining):
                    self._waits_for.pop(txn, None)
                    self._observe_wait(waited_since)
                    raise LockTimeoutError(
                        f"txn {txn} timed out waiting for {resource!r}")
                # release_all drops the entry of a resource nobody holds
                # any more; granting on the stale object would be a grant
                # no later release ever clears.  Re-fetch it every wake.
                state = self._resources.setdefault(resource, _ResourceState())
            self._waits_for.pop(txn, None)
            self._observe_wait(waited_since)
            state.holders[txn] = mode
            self._held_by_txn.setdefault(txn, set()).add(resource)
            self.acquisitions += 1

    def _observe_wait(self, waited_since: float | None) -> None:
        if waited_since is not None and self.wait_timer is not None:
            self.wait_timer.observe(_now() - waited_since)

    def release_all(self, txn: int) -> None:
        """Release every lock held by *txn* (end of transaction)."""
        with self._condition:
            for resource in self._held_by_txn.pop(txn, set()):
                state = self._resources.get(resource)
                if state is not None:
                    state.holders.pop(txn, None)
                    if not state.holders:
                        del self._resources[resource]
            self._waits_for.pop(txn, None)
            self._condition.notify_all()

    def held(self, txn: int) -> set[Hashable]:
        with self._mutex:
            return set(self._held_by_txn.get(txn, set()))

    def mode_of(self, txn: int, resource: Hashable) -> str | None:
        with self._mutex:
            state = self._resources.get(resource)
            return state.holders.get(txn) if state else None

    # -- internals ---------------------------------------------------------------

    def _effective_mode(self, held: str, requested: str) -> str:
        if held == requested:
            return held
        upgraded = _UPGRADE.get((held, requested))
        if upgraded is not None:
            return upgraded
        # requested is weaker than held
        if _STRENGTH[requested] <= _STRENGTH[held]:
            return held
        return requested

    def _grantable(self, state: _ResourceState, txn: int, mode: str) -> bool:
        return all(other == txn or compatible(other_mode, mode)
                   for other, other_mode in state.holders.items())

    def _creates_cycle(self, start: int) -> bool:
        """DFS over the waits-for graph looking for a cycle through start."""
        stack = list(self._waits_for.get(start, ()))
        seen: set[int] = set()
        while stack:
            txn = stack.pop()
            if txn == start:
                return True
            if txn in seen:
                continue
            seen.add(txn)
            stack.extend(self._waits_for.get(txn, ()))
        return False


def _now() -> float:
    import time
    return time.monotonic()
