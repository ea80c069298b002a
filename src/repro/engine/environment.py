"""The rule-evaluation environment: glue between qs: functions and the
engine state, with lock acquisition on every read the rule performs.

All environments of one message share a *read memo*: within a message
the rules see one snapshot (MVCC) or hold their read locks to the end
(2PL), and nothing the message does is applied before its last rule ran,
so ``qs:queue(q)`` and ``qs:slice()`` read the store once per queue or
slice key and every later call returns the same list.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from ..xquery import Environment
from ..xquery.atomics import XSDateTime
from ..xquery.errors import DynamicError
from ..xquery.sequence import document_order

if TYPE_CHECKING:  # pragma: no cover
    from ..queues import Message
    from .server import DemaqServer


class RuleEnvironment(Environment):
    """Environment for evaluating one rule against one message."""

    def __init__(self, server: "DemaqServer", message: "Message",
                 txn_id: int,
                 slicing: str | None = None,
                 slice_key: object | None = None,
                 snapshot: int | None = None,
                 reads: dict | None = None):
        self.server = server
        self.msg = message
        self.txn_id = txn_id
        self.slicing = slicing
        self._slice_key = slice_key
        #: MVCC snapshot LSN every qs: read runs at (None under 2PL,
        #: where the read locks below provide isolation instead).
        self.snapshot = snapshot
        #: The message's read memo, shared by all its environments:
        #: ("queue", name) / ("slice", slicing, key) -> bodies in
        #: document order.  Callers must not mutate the lists.
        self.reads = {} if reads is None else reads

    # -- qs: hooks ---------------------------------------------------------------

    def message(self):
        return self.msg.body

    def queue(self, name: Optional[str]):
        if name is None:
            name = self.msg.queue
        memo = ("queue", name)
        bodies = self.reads.get(memo)
        if bodies is None:
            if name not in self.server.app.queues:
                raise DynamicError(f"qs:queue(): unknown queue {name!r}")
            self.server.locking.lock_queue_read(self.txn_id, name)
            bodies = self.reads[memo] = document_order(
                [m.body for m in
                 self.server.live_messages(name, snapshot=self.snapshot)])
        return bodies

    def queue_lookup(self, name: str, prop: str, values):
        """Index-backed equality read over one queue's messages.

        Takes the same read lock as a full ``qs:queue()`` scan — the
        index is an access path, not a weaker isolation level.
        """
        if name not in self.server.app.queues:
            raise DynamicError(f"qs:queue-index(): unknown queue {name!r}")
        if not self.server.store.has_property_index(name, prop):
            # A hand-written qs:queue-index() on an unindexed pair is a
            # dynamic error like any other, routed to the error queue —
            # not a storage fault that kills the processing loop.
            raise DynamicError(
                f"qs:queue-index(): no index on queue {name!r} "
                f"property {prop!r}")
        self.server.locking.lock_queue_read(self.txn_id, name)
        return [m.body for m in
                self.server.indexed_live_messages(name, prop, values,
                                                  snapshot=self.snapshot)]

    def slice_messages(self):
        if self.slicing is None:
            raise DynamicError(
                "qs:slice() is only available in rules defined on slicings")
        memo = ("slice", self.slicing, self._slice_key)
        bodies = self.reads.get(memo)
        if bodies is None:
            self.server.locking.lock_slice_read(self.txn_id, self.slicing,
                                                self._slice_key)
            bodies = self.reads[memo] = document_order(
                [m.body for m in
                 self.server.slice_live_messages(self.slicing,
                                                 self._slice_key,
                                                 snapshot=self.snapshot)])
        return bodies

    def slice_key(self):
        if self.slicing is None:
            raise DynamicError(
                "qs:slicekey() is only available in rules defined on "
                "slicings")
        return self._slice_key

    def property(self, name: str):
        return self.msg.property(name)

    def collection(self, name: str):
        return self.server.collection_documents(name)

    def current_datetime(self) -> XSDateTime:
        return self.server.clock.now_datetime()
