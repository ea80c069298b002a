"""Transactions over the message store.

Demaq's execution model maps the processing of one message — evaluation
of all its rules plus execution of the resulting update list — onto one
transaction (paper §3.1).  Because the language's update primitives are
*pending* (snapshot semantics), transactions here are deferred-update:
an in-flight transaction buffers operations and never touches shared
state, so

* isolation comes from 2PL via the :class:`~repro.storage.locks.LockManager`
  (readers take S locks on queues/slices, commit takes X locks),
* abort is trivial (drop the buffer — nothing was written), and
* the WAL protocol is BEGIN + ops + COMMIT appended and flushed
  atomically at commit, which recovery treats as all-or-nothing.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass, field
from enum import Enum

from .errors import TransactionError

_TXN_IDS = itertools.count(1)


def advance_txn_ids(minimum: int) -> None:
    """Ensure future txn ids start at or above *minimum*.

    Txn ids are process-local and restart at 1, but WAL records key
    redo analysis by txn id: after recovery (or replica promotion) a
    fresh process appending COMMIT with a recycled id would resurrect
    an old loser transaction's records on the next replay.  Recovery
    calls this with (max txn id seen in the log) + 1.
    """
    global _TXN_IDS
    current = next(_TXN_IDS)
    _TXN_IDS = itertools.count(max(current, minimum))


def next_txn_id_hint() -> int:
    """The next txn id that would be handed out (checkpoint metadata).

    Peeking consumes one id and re-creates the counter — checkpoints
    record this so bounded recovery can advance the id space without
    scanning the truncated log prefix.
    """
    global _TXN_IDS
    current = next(_TXN_IDS)
    _TXN_IDS = itertools.count(current)
    return current


class TxnState(Enum):
    ACTIVE = "active"
    COMMITTED = "committed"
    ABORTED = "aborted"


@dataclass
class InsertOp:
    queue: str
    payload: bytes                     # serialized message body
    properties: dict[str, object]
    slices: list[tuple[str, object]]   # (slicing, key)
    persistent: bool = True
    msg_id: int | None = None          # assigned at commit
    #: The tree *payload* was serialized from, when the caller owns it
    #: exclusively and it equals ``parse(payload)``: the store seeds its
    #: parse cache with it once the op is applied.
    document: object | None = field(default=None, repr=False,
                                    compare=False)


@dataclass
class MarkProcessedOp:
    msg_id: int


@dataclass
class SliceResetOp:
    slicing: str
    key: object


@dataclass
class DeleteOp:
    msg_id: int


@dataclass
class SavepointOp:
    """Journal marker: a rollback point (one batch member's start)."""

    sp_id: int


@dataclass
class RollbackToOp:
    """Journal marker: everything since the savepoint is dead.

    The dead span stays in the journal — the store logs it faithfully
    (SAVEPOINT … ROLLBACK_SP in the WAL) and recovery skips it — so a
    batch member that aborts alone leaves an auditable trace instead of
    silently vanishing from the log.
    """

    sp_id: int


@dataclass
class Transaction:
    """A buffered unit of work against the message store.

    ``ops`` is a *journal*: data operations interleaved with
    savepoint/rollback markers.  ``live_ops()`` replays the journal to
    the operations that survive rollbacks; ``published_through`` is the
    store's cursor over the journal for chained (batched) commits —
    entries before it are already logged and applied, so rolling back
    across it is forbidden.
    """

    txn_id: int = field(default_factory=lambda: next(_TXN_IDS))
    state: TxnState = TxnState.ACTIVE
    ops: list = field(default_factory=list)
    published_through: int = 0
    logged_begin: bool = False
    #: MVCC read position, taken at begin (None with MVCC off).  Reads
    #: through this snapshot are lock-free; the store refreshes it at
    #: each chained-publish boundary so batch members see batch-mates.
    snapshot_lsn: int | None = None
    #: Set when a publish died midway (e.g. a WAL I/O error): the log
    #: may hold a partial suffix, so re-publishing would duplicate
    #: records — the transaction can only be dropped.
    poisoned: bool = False

    def __post_init__(self):
        self._sp_counter = itertools.count(1)
        self._savepoints: dict[int, int] = {}   # sp_id -> journal index

    def _require_active(self) -> None:
        if self.state is not TxnState.ACTIVE:
            raise TransactionError(
                f"txn {self.txn_id} is {self.state.value}, not active")

    # -- savepoints --------------------------------------------------------------

    def savepoint(self) -> int:
        """Mark a rollback point; returns its id."""
        self._require_active()
        sp_id = next(self._sp_counter)
        self._savepoints[sp_id] = len(self.ops)
        self.ops.append(SavepointOp(sp_id))
        return sp_id

    def rollback_to_savepoint(self, sp_id: int) -> None:
        """Abandon every operation buffered since *sp_id*.

        The savepoint stays usable afterwards (SQL semantics); inner
        savepoints created after it are discarded.  Rolling back work
        the store has already published is impossible by construction.
        """
        self._require_active()
        index = self._savepoints.get(sp_id)
        if index is None:
            raise TransactionError(
                f"txn {self.txn_id} has no active savepoint {sp_id}")
        if index < self.published_through:
            raise TransactionError(
                f"savepoint {sp_id} of txn {self.txn_id} was already "
                f"published; published work cannot be rolled back")
        for inner, inner_index in list(self._savepoints.items()):
            if inner_index > index:
                del self._savepoints[inner]
        self.ops.append(RollbackToOp(sp_id))

    def live_ops(self) -> list:
        """The data operations that survive every rollback, in order."""
        return _replay(self.ops)[0]

    def insert_message(self, queue: str, payload: bytes,
                       properties: dict[str, object],
                       slices: list[tuple[str, object]],
                       persistent: bool = True,
                       document: object | None = None) -> InsertOp:
        self._require_active()
        op = InsertOp(queue, payload, dict(properties), list(slices),
                      persistent, document=document)
        self.ops.append(op)
        return op

    def mark_processed(self, msg_id: int) -> None:
        self._require_active()
        self.ops.append(MarkProcessedOp(msg_id))

    def reset_slice(self, slicing: str, key: object) -> None:
        self._require_active()
        self.ops.append(SliceResetOp(slicing, key))

    def delete_message(self, msg_id: int) -> None:
        self._require_active()
        self.ops.append(DeleteOp(msg_id))

    @property
    def touches_persistent_state(self) -> bool:
        return any(
            not isinstance(op, InsertOp) or op.persistent
            for op in self.live_ops())


def _replay(journal: list) -> tuple[list, list[bool]]:
    """Replay a journal: (live data ops, per-entry liveness flags).

    Rollback markers truncate the live list back to their savepoint's
    mark; the flags say, for every journal entry, whether it survived
    (markers themselves are flagged True — they are never "applied").
    """
    live: list = []
    live_indexes: list[int] = []
    flags = [True] * len(journal)
    marks: dict[int, int] = {}
    for index, entry in enumerate(journal):
        if isinstance(entry, SavepointOp):
            marks[entry.sp_id] = len(live)
        elif isinstance(entry, RollbackToOp):
            mark = marks[entry.sp_id]
            for dead in live_indexes[mark:]:
                flags[dead] = False
            del live[mark:]
            del live_indexes[mark:]
        else:
            live.append(entry)
            live_indexes.append(index)
    return live, flags


class TransactionManager:
    """Creates transactions and funnels commits into the store."""

    def __init__(self, store):
        self.store = store
        self._lock = threading.Lock()
        self.begun = 0
        self.committed = 0
        self.aborted = 0

    def begin(self) -> Transaction:
        with self._lock:
            self.begun += 1
        txn = Transaction()
        if getattr(self.store, "mvcc", False):
            # Snapshot registration goes through the store latch only
            # (never this manager's lock) so a caller already inside
            # the latch — e.g. collect_garbage — cannot deadlock.
            txn.snapshot_lsn = self.store.acquire_snapshot(txn.txn_id)
        return txn

    def commit(self, txn: Transaction) -> None:
        txn._require_active()
        try:
            self.store.apply_transaction(txn)
        finally:
            self._drop_snapshot(txn)
        txn.state = TxnState.COMMITTED
        with self._lock:
            self.committed += 1

    def abort(self, txn: Transaction) -> None:
        txn._require_active()
        if txn.published_through:
            # A chained transaction's published prefix is already logged
            # and applied; only commit can end it consistently.
            raise TransactionError(
                f"txn {txn.txn_id} has published operations and can no "
                f"longer abort")
        self._drop_snapshot(txn)
        txn.ops.clear()
        txn.state = TxnState.ABORTED
        with self._lock:
            self.aborted += 1

    def _drop_snapshot(self, txn: Transaction) -> None:
        if txn.snapshot_lsn is not None:
            self.store.release_snapshot(txn.txn_id)
            txn.snapshot_lsn = None
