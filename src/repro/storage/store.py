"""The transactional XML message store (the Natix-substitute facade).

Owns the heap (message bodies on slotted pages through the buffer
manager), the write-ahead log, the per-queue message index, the
materialized slice index (a B+-tree keyed by slice key, §4.3), the
property-value secondary indexes (B+-trees keyed by
``(queue, property, encoded value)``, the §4.3 materialized-access idea
applied to property predicates), slice lifetimes, and the
retention-driven garbage collector (§2.3.3).

Two deletion-logging modes reproduce the paper's §4.1 claim:

* ``log_deletes=True`` — every physical message deletion is logged
  (the conventional design);
* ``log_deletes=False`` — deletions are *derived*: recovery recomputes
  deletability from slice membership and lifetimes, so the log carries
  no per-message delete records ("frees the system from the need to
  fully log message deletions").

Multiversioning (``DEMAQ_MVCC``, default on): every catalog entry is
tagged with a create LSN and (on retention deletion) a delete LSN, and
every transaction takes a *snapshot LSN* at begin.  Readers filter index
scans by visibility — ``created_lsn <= snapshot < deleted_lsn`` — so
scans see a consistent cut of the store without read locks; physically
removing a dead version waits until it is below the *version horizon*
(the minimum active snapshot).  Messages are append-only and deletion is
retention-driven (§2.3.3), so a "version chain" is never longer than
one: created once, deleted at most once.  With MVCC off, deletion stays
physical-immediate and 2PL read locks provide the reference semantics.
"""

from __future__ import annotations

import base64
import json
import os
import threading
import time
from bisect import bisect_right
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass, field
from decimal import Decimal
from typing import Iterable, Optional

from ..config import read_field
from ..obs import MetricsRegistry
from ..xmldm import Document, parse as parse_xml
from ..xquery.atomics import XSDateTime
from .buffer import BufferManager
from .disk import FileDiskManager, InMemoryDiskManager
from .errors import StorageError, TransactionError
from .groupcommit import GroupCommitCoordinator
from .heap import RID, RecordHeap
from .transactions import (DeleteOp, InsertOp, MarkProcessedOp, RollbackToOp,
                           SavepointOp, SliceResetOp, Transaction,
                           TransactionManager, _replay, advance_txn_ids,
                           next_txn_id_hint)
from .btree import BPlusTree
from . import wal as walmod
from .wal import WriteAheadLog


# -- typed property value (de)serialization -------------------------------------

def encode_value(value: object) -> list:
    """Encode a property value as a JSON-safe [tag, lexical] pair."""
    if isinstance(value, bool):
        return ["b", value]
    if isinstance(value, int):
        return ["i", value]
    if isinstance(value, float):
        return ["f", value]
    if isinstance(value, Decimal):
        # Normalized so numerically equal decimals (1.5 vs 1.50, -0 vs
        # 0) share one lexical form — index keys and scan comparisons
        # agree.
        if value == 0:
            value = abs(value)
        return ["dec", format(value.normalize(), "f")]
    if isinstance(value, XSDateTime):
        return ["dt", str(value)]
    if isinstance(value, str):
        return ["s", str(value)]
    raise StorageError(f"unsupported property value type {type(value).__name__}")


def decode_value(encoded: list) -> object:
    tag, raw = encoded
    if tag == "b":
        return bool(raw)
    if tag == "i":
        return int(raw)
    if tag == "f":
        return float(raw)
    if tag == "dec":
        return Decimal(raw)
    if tag == "dt":
        return XSDateTime.parse(raw)
    if tag == "s":
        return str(raw)
    raise StorageError(f"unknown property value tag {tag!r}")


def _encode_key(key: object) -> object:
    """Slice keys inside index tuples: keep ints, stringify the rest."""
    if isinstance(key, bool):
        return int(key)
    if isinstance(key, (int, str)):
        return key
    if isinstance(key, float):
        return key
    return str(key)


@dataclass
class StoredMessage:
    """Catalog entry for one message."""

    msg_id: int
    queue: str
    seqno: int
    rid: tuple[int, int]
    properties: dict[str, object]
    slices: list[tuple[str, object, int]]   # (slicing, key, lifetime)
    processed: bool = False
    persistent: bool = True
    #: Version tags (MVCC): the entry exists for snapshots in
    #: [created_lsn, deleted_lsn).  ``deleted_lsn is None`` = live.
    created_lsn: int = 0
    deleted_lsn: int | None = None

    def property(self, name: str) -> object | None:
        return self.properties.get(name)


@dataclass
class StoreStatistics:
    """Counters the benchmarks report."""

    inserts: int = 0
    processed_marks: int = 0
    deletes: int = 0
    slice_resets: int = 0
    gc_runs: int = 0
    gc_deleted: int = 0
    recoveries: int = 0
    last_recovery_seconds: float = 0.0
    replayed_records: int = 0
    body_parses: int = 0
    parse_cache_hits: int = 0
    purged_versions: int = 0
    checkpoints: int = 0
    checkpoints_deferred: int = 0
    wal_truncations: int = 0
    wal_truncated_bytes: int = 0


class MessageStore:
    """Transactional message store; one per Demaq server."""

    def __init__(self, directory: str | None = None,
                 buffer_capacity: int = 256,
                 sync_commits: bool = True,
                 log_deletes: bool = True,
                 recover: bool = True,
                 parse_cache_capacity: int = 1024,
                 durability: str | None = None,
                 group_commit_max_wait: float = 0.05,
                 metrics: MetricsRegistry | None = None,
                 mvcc: bool | None = None,
                 wal: WriteAheadLog | None = None):
        self.directory = directory
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.sync_commits = sync_commits
        self.log_deletes = log_deletes
        self.parse_cache_capacity = parse_cache_capacity
        self._mutex = threading.RLock()

        # Multiversion reads: explicit argument, then the runtime config
        # (DEMAQ_MVCC — how CI runs the suite per mode), default on.
        if mvcc is None:
            mvcc = read_field("mvcc")
        self.mvcc = bool(mvcc)

        # Durability policy resolution: explicit argument, then the
        # runtime config (DEMAQ_DURABILITY — how CI runs the whole suite
        # per policy), then the legacy sync_commits flag (False always
        # meant "acknowledge before force").  The coordinator validates
        # it.
        if durability is None:
            durability = read_field("durability") or \
                ("sync" if sync_commits else "async")
        self.durability = durability
        self._group_commit_max_wait = group_commit_max_wait

        if directory is None:
            self._disk = InMemoryDiskManager()
            self.wal = WriteAheadLog(None)
        else:
            os.makedirs(directory, exist_ok=True)
            self._disk = FileDiskManager(os.path.join(directory, "pages.dat"))
            self.wal = WriteAheadLog(os.path.join(directory, "wal.log"))
        if wal is not None:
            # Replication standby: the store adopts a WAL that already
            # holds shipped bytes, so a promoted server keeps appending
            # to the same byte stream the primary's replicas hold a
            # prefix of (offsets never restart — DESIGN.md §9).
            self.wal.close()
            self.wal = wal
        self.group_commit = GroupCommitCoordinator(
            self.wal, durability, max_wait=group_commit_max_wait)
        self.buffer = BufferManager(self._disk, buffer_capacity,
                                    flush_to_lsn=self.wal.flush_to)
        self.heap = RecordHeap(self.buffer)
        self.transactions = TransactionManager(self)
        self.stats = StoreStatistics()

        self._catalog: dict[int, StoredMessage] = {}
        self._queue_index = BPlusTree()        # (queue, seqno) -> msg_id
        self._slice_index = BPlusTree()        # (slicing, key, lifetime, seqno) -> msg_id
        #: (queue, property) -> B+-tree of (tag, raw, seqno) -> msg_id.
        #: Derived state like the queue/slice indexes: maintained by the
        #: same committed operations, rebuilt (not logged) on recovery.
        self._property_indexes: dict[tuple[str, str], BPlusTree] = {}
        self._lifetimes: dict[tuple[str, object], int] = {}
        #: msg_id -> [decoded text, parsed Document | None]: bodies are
        #: append-only, so every reader of a message can share one
        #: decode and one parse.  LRU-bounded; invalidated on delete.
        self._parse_cache: OrderedDict[int, list] = OrderedDict()
        #: Chained transactions that have published but not committed;
        #: a checkpoint must not snapshot their in-flight state.
        self._published_open: set[int] = set()
        #: LSN of the last published commit span: what a snapshot taken
        #: right now would see.  Every publish raises it monotonically.
        self._visible_lsn = 0
        #: Active snapshots, token (txn id or read token) -> snapshot
        #: LSN.  The minimum is the version horizon.
        self._snapshots: dict[object, int] = {}
        #: Dead versions awaiting purge: msg_id -> delete LSN.
        self._dead: dict[int, int] = {}
        #: Reset LSN history per slice key, ascending — how a snapshot
        #: reader recovers the slice lifetime as of its snapshot.
        #: Trimmed below the horizon.
        self._reset_lsns: dict[tuple[str, object], list[int]] = {}
        self._next_read_token = 1
        self._next_msg_id = 1
        self._next_seqno = 1
        #: Serializes whole checkpoints (scheduler vs. ctl op).
        self._checkpoint_lock = threading.Lock()
        #: While a fuzzy checkpoint's page flush is in flight, the purge
        #: horizon is capped here so no RID the snapshot catalog
        #: references is physically freed before the checkpoint lands.
        self._checkpoint_pin: int | None = None

        self._commit_timer = self.metrics.histogram(
            "demaq_store_commit_seconds",
            "Transaction commit latency including the durability wait")
        if self.metrics.enabled:
            self.wal.fsync_timer = self.metrics.histogram(
                "demaq_wal_fsync_seconds", "WAL force (fsync) latency")
        self._register_collectors()

        if recover and directory is not None:
            self.recover()

    def _register_collectors(self) -> None:
        """Expose the storage counter bags as pull metrics."""
        registry = self.metrics
        for attr, name, help_ in (
                ("inserts", "demaq_store_inserts_total",
                 "Messages inserted"),
                ("processed_marks", "demaq_store_processed_marks_total",
                 "Processed-marks applied"),
                ("deletes", "demaq_store_deletes_total",
                 "Messages deleted"),
                ("slice_resets", "demaq_store_slice_resets_total",
                 "Slice resets applied"),
                ("gc_runs", "demaq_store_gc_runs_total",
                 "Garbage-collection passes"),
                ("gc_deleted", "demaq_store_gc_deleted_total",
                 "Messages reclaimed by GC"),
                ("recoveries", "demaq_store_recoveries_total",
                 "Recovery passes run"),
                ("replayed_records", "demaq_store_replayed_records_total",
                 "WAL records replayed during recovery"),
                ("body_parses", "demaq_store_body_parses_total",
                 "Message bodies parsed from storage"),
                ("parse_cache_hits", "demaq_store_parse_cache_hits_total",
                 "Body reads served from the parse cache"),
                ("purged_versions", "demaq_store_purged_versions_total",
                 "Dead versions physically removed below the horizon"),
                ("checkpoints", "demaq_checkpoint_total",
                 "Checkpoints completed"),
                ("checkpoints_deferred", "demaq_checkpoint_deferred_total",
                 "Checkpoints deferred by an open chained batch"),
                ("wal_truncations", "demaq_wal_truncations_total",
                 "WAL prefix truncations applied"),
                ("wal_truncated_bytes", "demaq_wal_truncated_bytes_total",
                 "WAL bytes physically dropped by truncation")):
            registry.collect(name, lambda a=attr: getattr(self.stats, a),
                             help=help_)
        registry.collect("demaq_wal_appended_records_total",
                         lambda: self.wal.appended_records,
                         help="WAL records appended")
        registry.collect("demaq_wal_forces_total",
                         lambda: self.wal.flushes,
                         help="WAL forces (fsyncs); the group-commit "
                              "coalescing ratio is commits/forces")
        registry.collect("demaq_groupcommit_commits_total",
                         lambda: self.group_commit.stats.commits,
                         help="Commits passing the coordinator")
        registry.collect("demaq_groupcommit_group_waits_total",
                         lambda: self.group_commit.stats.group_waits,
                         help="Commits that waited on another's force")
        registry.collect("demaq_groupcommit_leader_forces_total",
                         lambda: self.group_commit.stats.leader_forces,
                         help="Forces issued as group leader")
        registry.collect("demaq_buffer_hits_total",
                         lambda: self.buffer.hits,
                         help="Buffer-pool page hits")
        registry.collect("demaq_buffer_misses_total",
                         lambda: self.buffer.misses,
                         help="Buffer-pool page misses")
        registry.collect("demaq_buffer_evictions_total",
                         lambda: self.buffer.evictions,
                         help="Buffer-pool evictions")
        registry.collect("demaq_store_visible_lsn",
                         lambda: self._visible_lsn, kind="gauge",
                         help="LSN a fresh snapshot would read at")
        registry.collect("demaq_store_snapshot_horizon",
                         lambda: self.snapshot_horizon(), kind="gauge",
                         help="Version horizon (minimum active snapshot)")
        registry.collect("demaq_store_active_snapshots",
                         lambda: len(self._snapshots), kind="gauge",
                         help="Registered reader snapshots")
        registry.collect("demaq_store_dead_versions",
                         lambda: len(self._dead), kind="gauge",
                         help="Deleted versions awaiting purge")
        registry.collect("demaq_wal_size_bytes",
                         lambda: self.wal.size_bytes(), kind="gauge",
                         help="WAL bytes physically retained "
                              "(end LSN minus truncation base)")
        registry.collect("demaq_wal_start_lsn",
                         lambda: self.wal.start_lsn(), kind="gauge",
                         help="First LSN still present in the log")
        registry.collect("demaq_store_last_recovery_seconds",
                         lambda: self.stats.last_recovery_seconds,
                         kind="gauge",
                         help="Duration of the most recent recovery pass")

    # -- snapshots (MVCC) --------------------------------------------------------

    def visible_lsn(self) -> int:
        with self._mutex:
            return self._visible_lsn

    def acquire_snapshot(self, token: object) -> int:
        """Register *token* as a reader at the current visible LSN."""
        with self._mutex:
            snapshot = self._visible_lsn
            self._snapshots[token] = snapshot
            return snapshot

    def release_snapshot(self, token: object) -> None:
        with self._mutex:
            self._snapshots.pop(token, None)

    def snapshot_horizon(self) -> int:
        """The version horizon: no active snapshot reads below it, so
        versions deleted at or below it are physically reclaimable."""
        with self._mutex:
            if not self._snapshots:
                return self._visible_lsn
            return min(self._snapshots.values())

    @contextmanager
    def read_snapshot(self):
        """A registered snapshot for a non-transactional reader.

        Registration pins every version visible at the snapshot against
        the purge horizon for the duration of the block.
        """
        with self._mutex:
            token = ("read", self._next_read_token)
            self._next_read_token += 1
            snapshot = self._visible_lsn
            self._snapshots[token] = snapshot
        try:
            yield snapshot
        finally:
            self.release_snapshot(token)

    @staticmethod
    def _visible(meta: StoredMessage, snapshot: int | None) -> bool:
        """Is this version in the read set of *snapshot*?

        ``snapshot=None`` is a current-state read: live versions only.
        """
        if snapshot is None:
            return meta.deleted_lsn is None
        return meta.created_lsn <= snapshot and \
            (meta.deleted_lsn is None or meta.deleted_lsn > snapshot)

    def _lifetime_at(self, slicing: str, key: object,
                     snapshot: int | None) -> int:
        """The slice lifetime as of *snapshot* (current when None)."""
        current = self._lifetimes.get((slicing, key), 0)
        if snapshot is None:
            return current
        resets = self._reset_lsns.get((slicing, key))
        if not resets:
            return current
        happened_after = len(resets) - bisect_right(resets, snapshot)
        return current - happened_after

    # -- transactions ------------------------------------------------------------

    def begin(self) -> Transaction:
        return self.transactions.begin()

    def commit(self, txn: Transaction) -> None:
        self.transactions.commit(txn)

    def abort(self, txn: Transaction) -> None:
        self.transactions.abort(txn)

    def apply_transaction(self, txn: Transaction) -> None:
        """Commit: publish the journal tail, log COMMIT, await durability.

        The durability wait happens *outside* the store latch — that is
        what lets the group-commit coordinator coalesce forces across
        concurrently committing transactions.  Applied-but-unforced
        state is safe to expose early: WAL forces are prefix-closed, so
        any later commit's force covers this one too.
        """
        timing = self.metrics.enabled
        started = time.perf_counter() if timing else 0.0
        commit_lsn = None
        with self._mutex:
            self._publish(txn)
            self._published_open.discard(txn.txn_id)
            if txn.logged_begin:
                self.wal.append(walmod.COMMIT, txn.txn_id)
                commit_lsn = self.wal.end_lsn()
            # The committing transaction stops reading here; dropping
            # its snapshot before the purge check keeps it from pinning
            # its own deletions past its commit.
            self._snapshots.pop(txn.txn_id, None)
            if self.mvcc and self._dead:
                # Opportunistic version GC on the commit path: with no
                # active snapshot pinning them, dead versions go
                # physical immediately — identical net state to 2PL's
                # in-place delete; under concurrency the horizon defers
                # exactly the versions some reader still needs.
                self.purge_dead_versions()
        if commit_lsn is not None:
            self.group_commit.commit(commit_lsn)
        if timing:
            self._commit_timer.observe(time.perf_counter() - started)

    def publish(self, txn: Transaction) -> None:
        """Chained-transaction boundary: log + apply the journal tail.

        The batch executor calls this after each batch member succeeds,
        making the member's effects visible to its batch-mates exactly
        as a per-message commit would — without forcing the log.  Once
        published, a span can no longer be rolled back, and the
        transaction *must* end in commit.
        """
        with self._mutex:
            self._publish(txn)
            if txn.published_through:
                self._published_open.add(txn.txn_id)
            if self.mvcc and txn.txn_id in self._snapshots:
                # A chained transaction reads each batch member at the
                # batch's current snapshot: refresh it past the member
                # just published so batch-mates observe its effects
                # exactly as per-message commits would (§3.1).
                txn.snapshot_lsn = self._visible_lsn
                self._snapshots[txn.txn_id] = self._visible_lsn

    def _publish(self, txn: Transaction) -> None:
        """Log and apply journal entries past the published cursor."""
        if txn.poisoned:
            raise TransactionError(
                f"txn {txn.txn_id} had a failed publish; its log suffix "
                f"is indeterminate and cannot be retried")
        suffix = txn.ops[txn.published_through:]
        if not suffix:
            return
        try:
            self._publish_suffix(txn, suffix)
        except BaseException:
            # The WAL may hold part of the suffix; a retry would append
            # it again (with fresh msg_ids) and recovery would
            # materialize duplicates.  The transaction is dead — drop it
            # from the open-chain set so checkpoints are not wedged
            # forever.  Members published before the failure stay
            # applied (each is a complete, consistent unit); without a
            # COMMIT record they survive only through a later
            # checkpoint, never through log replay.
            txn.poisoned = True
            self._published_open.discard(txn.txn_id)
            # A poisoned transaction never reaches commit/abort, so its
            # snapshot would pin the horizon forever — drop it here.
            self._snapshots.pop(txn.txn_id, None)
            raise

    def _publish_suffix(self, txn: Transaction, suffix: list) -> None:
        live, flags = _replay(suffix)
        rolled_back_sps = {entry.sp_id for entry in suffix
                           if isinstance(entry, RollbackToOp)}
        # A suffix with no surviving persistent work logs nothing at all
        # (the old no-persistent-effect rule) — dead spans are logged
        # faithfully only when they ride along with live work, which is
        # exactly the batch-with-one-failed-member shape.
        log_suffix = any(not isinstance(op, InsertOp) or op.persistent
                         for op in live)
        # Assign ids to every insert (even dead or non-persistent ones)
        # so log records and callers see stable ids.
        for entry in suffix:
            if isinstance(entry, InsertOp):
                entry.msg_id = self._next_msg_id
                self._next_msg_id += 1
        # Logging pass.  SAVEPOINT records are only needed when a
        # ROLLBACK_SP will reference them (rollbacks never cross publish
        # boundaries), and only once the span logs a real record.
        pending_sps: list[SavepointOp] = []
        appended_sps: set[int] = set()
        for entry in suffix:
            if not log_suffix:
                break
            if isinstance(entry, SavepointOp):
                if entry.sp_id in rolled_back_sps:
                    pending_sps.append(entry)
            elif isinstance(entry, RollbackToOp):
                pending_sps = [sp for sp in pending_sps
                               if sp.sp_id != entry.sp_id]
                if entry.sp_id in appended_sps:
                    self.wal.append(walmod.ROLLBACK_SP, txn.txn_id,
                                    sp=entry.sp_id)
            elif not isinstance(entry, InsertOp) or entry.persistent:
                if not txn.logged_begin:
                    self.wal.append(walmod.BEGIN, txn.txn_id)
                    txn.logged_begin = True
                for marker in pending_sps:
                    self.wal.append(walmod.SAVEPOINT, txn.txn_id,
                                    sp=marker.sp_id)
                    appended_sps.add(marker.sp_id)
                pending_sps.clear()
                self._log_op(txn.txn_id, entry)
        # Apply pass: surviving data ops only, after all records are
        # appended so page LSNs respect WAL-before-data.  The whole
        # suffix shares one version LSN — the span becomes visible
        # atomically under the latch, so snapshot readers see a commit
        # span entirely or not at all.  max() keeps the tag monotonic
        # when the suffix logged nothing (transient-only work).
        span_lsn = max(self._visible_lsn + 1, self.wal.end_lsn())
        for entry, live in zip(suffix, flags):
            if live and not isinstance(entry, (SavepointOp, RollbackToOp)):
                self._apply_op(entry, span_lsn)
        txn.published_through = len(txn.ops)
        self._visible_lsn = span_lsn

    def _log_op(self, txn_id: int, op) -> None:
        if isinstance(op, InsertOp):
            self.wal.append(
                walmod.MSG_INSERT, txn_id,
                msg_id=op.msg_id, queue=op.queue,
                payload=op.payload.decode("utf-8"),
                properties={k: encode_value(v)
                            for k, v in op.properties.items()},
                slices=[[s, _encode_key(k)] for s, k in op.slices])
        elif isinstance(op, MarkProcessedOp):
            self.wal.append(walmod.MSG_PROCESSED, txn_id, msg_id=op.msg_id)
        elif isinstance(op, SliceResetOp):
            self.wal.append(walmod.SLICE_RESET, txn_id,
                            slicing=op.slicing, key=_encode_key(op.key))
        elif isinstance(op, DeleteOp):
            if self.log_deletes:
                self.wal.append(walmod.MSG_DELETE, txn_id, msg_id=op.msg_id)
        else:
            raise StorageError(f"unknown operation {op!r}")

    def _apply_op(self, op, lsn: int) -> None:
        if isinstance(op, InsertOp):
            self._apply_insert(op.msg_id, op.queue, op.payload,
                               op.properties, op.slices, op.persistent,
                               created_lsn=lsn)
            if op.document is not None:
                # The tree the body was serialized from goes to the parse
                # cache only here, when the op is applied (publish or
                # commit): a member rolled back to its savepoint seeds
                # nothing.  Recovery, redo and cache misses still parse
                # the text, so writers hand over only trees equal to
                # ``parse(payload)``.
                self._cache_body(op.msg_id, [op.payload.decode("utf-8"),
                                             op.document])
        elif isinstance(op, MarkProcessedOp):
            self._apply_processed(op.msg_id)
        elif isinstance(op, SliceResetOp):
            self._apply_reset(op.slicing, op.key, lsn=lsn)
        elif isinstance(op, DeleteOp):
            self._apply_delete(op.msg_id, lsn=lsn)

    def _cache_body(self, msg_id: int, entry: list) -> None:
        """Insert a parse-cache entry, evicting least recently used ones
        — caller holds the latch."""
        if self.parse_cache_capacity <= 0:
            return
        self._parse_cache[msg_id] = entry
        while len(self._parse_cache) > self.parse_cache_capacity:
            self._parse_cache.popitem(last=False)

    # -- operation application (shared by commit and recovery redo) ----------------

    def _apply_insert(self, msg_id: int, queue: str, payload: bytes,
                      properties: dict[str, object],
                      slices: Iterable[tuple[str, object]],
                      persistent: bool = True,
                      created_lsn: int = 0) -> StoredMessage:
        seqno = self._next_seqno
        self._next_seqno += 1
        rid = self.heap.store(payload, lsn=self.wal.end_lsn())
        memberships = []
        for slicing, key in slices:
            key = _encode_key(key)
            lifetime = self._lifetimes.get((slicing, key), 0)
            memberships.append((slicing, key, lifetime))
            self._slice_index.insert((slicing, key, lifetime, seqno), msg_id)
        meta = StoredMessage(msg_id, queue, seqno, rid.as_tuple(),
                             dict(properties), memberships,
                             persistent=persistent,
                             created_lsn=created_lsn)
        self._catalog[msg_id] = meta
        self._queue_index.insert((queue, seqno), msg_id)
        self._index_properties(meta)
        self.stats.inserts += 1
        return meta

    def _index_properties(self, meta: StoredMessage) -> None:
        for (queue, prop), tree in self._property_indexes.items():
            if queue != meta.queue:
                continue
            value = meta.properties.get(prop)
            if value is None:
                continue
            tag, raw = encode_value(value)
            tree.insert((tag, raw, meta.seqno), meta.msg_id)

    def _unindex_properties(self, meta: StoredMessage) -> None:
        for (queue, prop), tree in self._property_indexes.items():
            if queue != meta.queue:
                continue
            value = meta.properties.get(prop)
            if value is None:
                continue
            tag, raw = encode_value(value)
            tree.delete((tag, raw, meta.seqno))

    def _apply_processed(self, msg_id: int) -> None:
        meta = self._catalog.get(msg_id)
        if meta is not None:
            meta.processed = True
            self.stats.processed_marks += 1

    def _apply_reset(self, slicing: str, key: object,
                     lsn: int = 0) -> None:
        key = _encode_key(key)
        self._lifetimes[(slicing, key)] = \
            self._lifetimes.get((slicing, key), 0) + 1
        if self.mvcc:
            self._reset_lsns.setdefault((slicing, key), []).append(lsn)
        self.stats.slice_resets += 1

    def _apply_delete(self, msg_id: int, lsn: int = 0) -> None:
        if self.mvcc:
            # Logical delete: the version stays scannable by snapshots
            # below *lsn* until the horizon passes it (then purged).
            meta = self._catalog.get(msg_id)
            if meta is None or meta.deleted_lsn is not None:
                return
            meta.deleted_lsn = lsn
            self._dead[msg_id] = lsn
            self.stats.deletes += 1
            return
        meta = self._catalog.pop(msg_id, None)
        if meta is None:
            return
        self.heap.delete(RID(*meta.rid), lsn=lsn)
        self._parse_cache.pop(msg_id, None)
        self._queue_index.delete((meta.queue, meta.seqno))
        for slicing, key, lifetime in meta.slices:
            self._slice_index.delete((slicing, key, lifetime, meta.seqno))
        self._unindex_properties(meta)
        self.stats.deletes += 1

    # -- reads ------------------------------------------------------------------------

    def get(self, msg_id: int,
            snapshot: int | None = None) -> Optional[StoredMessage]:
        with self._mutex:
            meta = self._catalog.get(msg_id)
            if meta is None or not self._visible(meta, snapshot):
                return None
            return meta

    def body_bytes(self, msg_id: int) -> bytes:
        with self._mutex:
            meta = self._catalog.get(msg_id)
            if meta is None:
                raise StorageError(f"no message {msg_id}")
            return self.heap.fetch(RID(*meta.rid))

    def body_text(self, msg_id: int) -> str:
        """The message body decoded once, shared through the cache."""
        return self._body_entry(msg_id)[0]

    def parsed_body(self, msg_id: int) -> Document:
        """The message body parsed once, shared by every reader.

        Messages are append-only (§4.1), so the parsed tree never goes
        stale while the message lives; deletion invalidates the entry.
        """
        entry = self._body_entry(msg_id)
        if entry[1] is not None:
            return entry[1]
        # Parse outside the latch: bodies are immutable, so a racing
        # duplicate parse is benign — the first published tree wins.
        document = parse_xml(entry[0])
        with self._mutex:
            if entry[1] is None:
                entry[1] = document
                self.stats.body_parses += 1
            return entry[1]

    def _body_entry(self, msg_id: int) -> list:
        """The cache entry [text, document|None] for a live message.

        Decoding (like parsing) happens outside the store latch so
        concurrent readers and writers are never serialized on it.
        """
        with self._mutex:
            entry = self._parse_cache.get(msg_id)
            if entry is not None:
                self.stats.parse_cache_hits += 1
                self._parse_cache.move_to_end(msg_id)
                return entry
            meta = self._catalog.get(msg_id)
            if meta is None:
                raise StorageError(f"no message {msg_id}")
            raw = self.heap.fetch(RID(*meta.rid))
        text = raw.decode("utf-8")
        with self._mutex:
            entry = self._parse_cache.get(msg_id)
            if entry is not None:
                # another reader published while we decoded
                self._parse_cache.move_to_end(msg_id)
                return entry
            entry = [text, None]
            if msg_id in self._catalog:
                # the catalog re-check keeps a concurrent delete from
                # being resurrected into the cache
                self._cache_body(msg_id, entry)
            return entry

    def queue_messages(self, queue: str,
                       snapshot: int | None = None) -> list[StoredMessage]:
        """Messages of a queue visible at *snapshot* (live when None),
        in arrival order."""
        with self._mutex:
            out = []
            for _, msg_id in self._queue_index.prefix_items((queue,)):
                meta = self._catalog.get(msg_id)
                if meta is not None and self._visible(meta, snapshot):
                    out.append(meta)
            return out

    def queue_depth(self, queue: str, snapshot: int | None = None) -> int:
        """Visible-message count of a queue.

        Counts straight off the queue index under the latch instead of
        materializing the full catalog-entry list.
        """
        with self._mutex:
            count = 0
            for _, msg_id in self._queue_index.prefix_items((queue,)):
                meta = self._catalog.get(msg_id)
                if meta is not None and self._visible(meta, snapshot):
                    count += 1
            return count

    def slice_lifetime(self, slicing: str, key: object) -> int:
        with self._mutex:
            return self._lifetimes.get((slicing, _encode_key(key)), 0)

    def slice_messages(self, slicing: str, key: object,
                       snapshot: int | None = None) -> list[StoredMessage]:
        """Messages of the slice's lifetime *as of the snapshot* (current
        when None), in arrival order.

        Uses the materialized B+-tree slice index (one range scan) — the
        §4.3 optimization.  ``slice_messages_scan`` is the unmaterialized
        baseline.
        """
        key = _encode_key(key)
        with self._mutex:
            lifetime = self._lifetime_at(slicing, key, snapshot)
            out = []
            for _, msg_id in self._slice_index.prefix_items(
                    (slicing, key, lifetime)):
                meta = self._catalog.get(msg_id)
                if meta is not None and self._visible(meta, snapshot):
                    out.append(meta)
            return out

    def slice_messages_scan(self, slicing: str, key: object,
                            snapshot: int | None = None
                            ) -> list[StoredMessage]:
        """Baseline slice access: full catalog scan (merged-query plan)."""
        key = _encode_key(key)
        with self._mutex:
            lifetime = self._lifetime_at(slicing, key, snapshot)
            out = [meta for meta in self._catalog.values()
                   if (slicing, key, lifetime) in meta.slices
                   and self._visible(meta, snapshot)]
            out.sort(key=lambda m: m.seqno)
            return out

    # -- property-value secondary indexes -------------------------------------------

    def create_property_index(self, queue: str, prop: str) -> None:
        """Register and build a ``(queue, property, value)`` index.

        Registration survives crashes of the in-memory structures
        (:meth:`recover` rebuilds registered indexes from the replayed
        catalog); creating an existing index is a no-op.
        """
        with self._mutex:
            if (queue, prop) in self._property_indexes:
                return
            tree = BPlusTree()
            self._property_indexes[(queue, prop)] = tree
            for _, msg_id in self._queue_index.prefix_items((queue,)):
                meta = self._catalog.get(msg_id)
                if meta is None:
                    continue
                value = meta.properties.get(prop)
                if value is None:
                    continue
                tag, raw = encode_value(value)
                tree.insert((tag, raw, meta.seqno), msg_id)

    def drop_property_index(self, queue: str, prop: str) -> None:
        with self._mutex:
            self._property_indexes.pop((queue, prop), None)

    def has_property_index(self, queue: str, prop: str) -> bool:
        with self._mutex:
            return (queue, prop) in self._property_indexes

    def property_indexes(self) -> list[tuple[str, str]]:
        with self._mutex:
            return sorted(self._property_indexes)

    def property_index_entries(self, queue: str, prop: str
                               ) -> list[tuple[tuple, int]]:
        """Dump one index's (normalized key, msg_id) pairs (tests/rebuild
        comparisons)."""
        with self._mutex:
            tree = self._property_indexes.get((queue, prop))
            if tree is None:
                raise StorageError(f"no index on ({queue!r}, {prop!r})")
            return tree.dump()

    def property_lookup(self, queue: str, prop: str, value: object,
                        snapshot: int | None = None
                        ) -> list[StoredMessage]:
        """Equality lookup through the secondary index: one range scan
        over ``(tag, raw)``, results in arrival order."""
        tag, raw = encode_value(value)
        with self._mutex:
            tree = self._property_indexes.get((queue, prop))
            if tree is None:
                raise StorageError(f"no index on ({queue!r}, {prop!r})")
            out = []
            for _, msg_id in tree.prefix_items((tag, raw)):
                meta = self._catalog.get(msg_id)
                if meta is not None and self._visible(meta, snapshot):
                    out.append(meta)
            return out

    def property_lookup_scan(self, queue: str, prop: str, value: object,
                             snapshot: int | None = None
                             ) -> list[StoredMessage]:
        """Baseline for :meth:`property_lookup`: full queue scan with a
        per-message property comparison (same typed-value encoding as the
        index, so both sides agree on e.g. ``1`` vs ``1.0`` vs ``true``)."""
        encoded = encode_value(value)
        with self._mutex:
            out = []
            for _, msg_id in self._queue_index.prefix_items((queue,)):
                meta = self._catalog.get(msg_id)
                if meta is None or not self._visible(meta, snapshot):
                    continue
                stored = meta.properties.get(prop)
                if stored is not None and encode_value(stored) == encoded:
                    out.append(meta)
            return out

    def export_queue_messages(self, queue: str
                              ) -> list[tuple[StoredMessage, bytes]]:
        """Handoff read for rebalancing: (catalog entry, body bytes) of
        every live message of *queue*, in arrival order.

        Under MVCC this reads a registered snapshot: the latch is held
        only briefly per message (the snapshot pins each visible version
        against purge), so a migrator no longer quiesces readers for the
        whole export.  Without MVCC it keeps the one-latch consistent
        cut.
        """
        if not self.mvcc:
            with self._mutex:
                out = []
                for _, msg_id in self._queue_index.prefix_items((queue,)):
                    meta = self._catalog.get(msg_id)
                    if meta is not None:
                        out.append((meta, self.heap.fetch(RID(*meta.rid))))
                return out
        with self.read_snapshot() as snapshot:
            metas = self.queue_messages(queue, snapshot=snapshot)
            out = []
            for meta in metas:
                with self._mutex:
                    if meta.msg_id in self._catalog:
                        out.append((meta, self.heap.fetch(RID(*meta.rid))))
            return out

    def unprocessed_messages(self) -> list[StoredMessage]:
        with self._mutex:
            out = [m for m in self._catalog.values()
                   if not m.processed and m.deleted_lsn is None]
            out.sort(key=lambda m: m.seqno)
            return out

    def message_count(self) -> int:
        """Live (visible-now) messages; dead versions awaiting purge do
        not count."""
        with self._mutex:
            return len(self._catalog) - len(self._dead)

    # -- retention / garbage collection -------------------------------------------------

    def is_retained(self, meta: StoredMessage) -> bool:
        """A processed message is retained while any membership is live."""
        for slicing, key, lifetime in meta.slices:
            if self._lifetimes.get((slicing, key), 0) == lifetime:
                return True
        return False

    def collect_garbage(self) -> int:
        """Delete processed, unretained messages (paper §2.3.3).

        Decoupled from processing: the engine calls this in the
        background or under low load.
        """
        with self._mutex:
            victims = [m for m in self._catalog.values()
                       if m.processed and m.deleted_lsn is None
                       and not self.is_retained(m)]
            if not victims:
                self.stats.gc_runs += 1
                if self.mvcc:
                    self.purge_dead_versions()
                return 0
            txn = self.begin()
            for meta in victims:
                txn.delete_message(meta.msg_id)
            self.commit(txn)
            if self.mvcc:
                # The retention-deletion commit is the version-GC hook:
                # everything below the horizon goes physical right here.
                self.purge_dead_versions()
            self.stats.gc_runs += 1
            self.stats.gc_deleted += len(victims)
            return len(victims)

    def purge_dead_versions(self, horizon: int | None = None) -> int:
        """Physically remove dead versions at or below the horizon.

        A version deleted at LSN *d* is unreachable once no active
        snapshot reads below *d*; then its catalog entry, heap record,
        and index entries can go.  Reset-LSN histories are trimmed the
        same way.  Returns the number of versions purged.
        """
        with self._mutex:
            if horizon is None:
                horizon = self.snapshot_horizon()
            if self._checkpoint_pin is not None:
                # A fuzzy checkpoint captured the catalog and is still
                # flushing pages: versions live in that snapshot must
                # keep their heap records until the checkpoint lands.
                horizon = min(horizon, self._checkpoint_pin)
            purged = 0
            if self._dead:
                victims = [msg_id for msg_id, lsn in self._dead.items()
                           if lsn <= horizon]
                for msg_id in victims:
                    self._purge_one(msg_id)
                purged = len(victims)
                self.stats.purged_versions += purged
            for key, resets in list(self._reset_lsns.items()):
                keep = [lsn for lsn in resets if lsn > horizon]
                if keep:
                    self._reset_lsns[key] = keep
                else:
                    del self._reset_lsns[key]
            return purged

    def _purge_one(self, msg_id: int) -> None:
        meta = self._catalog.pop(msg_id, None)
        deleted_lsn = self._dead.pop(msg_id, None)
        if meta is None:
            return
        self.heap.delete(RID(*meta.rid), lsn=deleted_lsn or 0)
        self._parse_cache.pop(msg_id, None)
        self._queue_index.delete((meta.queue, meta.seqno))
        for slicing, key, lifetime in meta.slices:
            self._slice_index.delete((slicing, key, lifetime, meta.seqno))
        self._unindex_properties(meta)

    # -- checkpoints and recovery ----------------------------------------------------------

    def _checkpoint_path(self) -> str:
        assert self.directory is not None
        return os.path.join(self.directory, "checkpoint.json")

    def _snapshot_state(self) -> dict:
        """The catalog snapshot dict — caller holds the latch."""
        return {
            "next_msg_id": self._next_msg_id,
            "next_seqno": self._next_seqno,
            "next_txn": next_txn_id_hint(),
            "visible_lsn": self._visible_lsn,
            "lifetimes": [[s, k, v] for (s, k), v
                          in self._lifetimes.items()],
            "messages": [
                {
                    "msg_id": m.msg_id,
                    "queue": m.queue,
                    "seqno": m.seqno,
                    "rid": list(m.rid),
                    "properties": {k: encode_value(v)
                                   for k, v in m.properties.items()},
                    "slices": [[s, k, lt] for s, k, lt in m.slices],
                    "processed": m.processed,
                    "created_lsn": m.created_lsn,
                    "deleted_lsn": m.deleted_lsn,
                }
                for m in self._catalog.values() if m.persistent
            ],
        }

    def checkpoint(self) -> str:
        """Fuzzy checkpoint: snapshot under the latch, flush pages
        incrementally, then log CHECKPOINT.

        Returns ``"completed"``, ``"deferred"`` (a chained transaction
        has published uncommitted work — the scheduler retries), or
        ``"skipped"`` (in-memory store, nothing to checkpoint against).

        The snapshot and its LSN are captured in one latch acquisition
        (phase 1); dirty pages are then flushed one short latch
        acquisition at a time, so commits interleave with the page sweep
        instead of stalling behind one long ``flush_all`` (phase 2).
        Records appended during phase 2 land *after* the snapshot LSN
        and are replayed on recovery — replay is idempotent (inserts
        keyed by msg_id, processed/delete marks absorb repeats, heap
        deletes tolerate already-freed slots), so the fuzziness is
        invisible.  The CHECKPOINT record's ``wal_end`` is the snapshot
        LSN, not the append-time LSN: recovery must replay everything
        the snapshot did not see.
        """
        if self.directory is None:
            return "skipped"
        with self._checkpoint_lock:
            with self._mutex:
                if self._published_open:
                    self.stats.checkpoints_deferred += 1
                    return "deferred"
                if self.mvcc:
                    # Reclaim what the horizon allows first; versions
                    # still pinned by an active snapshot are
                    # checkpointed *with* their delete LSN so a restart
                    # keeps them dead (no snapshot survives a restart,
                    # so recovery purges them).
                    self.purge_dead_versions()
                checkpoint_lsn = self.wal.end_lsn()
                snapshot = self._snapshot_state()
                dirty = self.buffer.dirty_page_ids()
                self._checkpoint_pin = checkpoint_lsn
            try:
                for page_id in dirty:
                    # Brief per-page latch: a page image must not be
                    # copied mid-mutation, but commits may run between
                    # pages — that is the incremental part.
                    with self._mutex:
                        self.buffer.flush_page(page_id)
                self._disk.sync()
                tmp = self._checkpoint_path() + ".tmp"
                with open(tmp, "w", encoding="utf-8") as fh:
                    json.dump(snapshot, fh)
                    fh.flush()
                    os.fsync(fh.fileno())
                os.replace(tmp, self._checkpoint_path())
            finally:
                with self._mutex:
                    self._checkpoint_pin = None
            with self._mutex:
                self.wal.append(walmod.CHECKPOINT, None,
                                wal_end=checkpoint_lsn,
                                visible_lsn=snapshot["visible_lsn"])
                self.wal.flush()
                self.stats.checkpoints += 1
        return "completed"

    def truncate_wal(self, force: bool = False) -> int:
        """Physically drop the WAL prefix no longer needed; returns
        bytes dropped.

        The truncation point is ``min(checkpoint wal_end, version
        horizon, replica ack horizon)`` — everything below it is (a)
        reconstructible from the checkpoint, (b) invisible to every
        active snapshot, and (c) already held by every replica.  With
        ``force=True`` the replica constraint is dropped (the WAL
        ceiling breach case): a replica still needing the dropped prefix
        re-seeds from checkpoint state instead of holding the log
        hostage (DESIGN.md §10).
        """
        with self._mutex:
            checkpoint = self.wal.last_checkpoint()
            if checkpoint is None:
                return 0
            target = min(checkpoint.data["wal_end"],
                         self.snapshot_horizon())
            shipper = getattr(self.group_commit, "shipper", None)
            if shipper is not None and not force:
                acked = shipper.min_acked()
                if acked is not None:
                    target = min(target, acked)
            dropped = self.wal.truncate_prefix(target)
            if dropped:
                self.stats.wal_truncations += 1
                self.stats.wal_truncated_bytes += dropped
            return dropped

    # -- replica re-seed (truncated-past-the-horizon standby) -----------------------

    def export_reseed_state(self) -> tuple[int, dict]:
        """Capture ``(wal_end, state)`` for re-seeding a lagging replica.

        Unlike the checkpoint snapshot, the state carries message
        *bodies* (the replica has no pages.dat to read them from).
        Shipped bytes resume exactly at the returned LSN.
        """
        with self._mutex:
            state = self._snapshot_state()
            for raw in state["messages"]:
                body = self.heap.fetch(RID(*raw.pop("rid")))
                raw["body"] = base64.b64encode(body).decode("ascii")
            return self.wal.end_lsn(), state

    def install_state(self, state: dict) -> None:
        """Replace all store contents with re-seed *state* (standby)."""
        with self._mutex:
            self.buffer.drop_all()
            self._catalog.clear()
            self._parse_cache.clear()
            self._queue_index = BPlusTree()
            self._slice_index = BPlusTree()
            for pair in self._property_indexes:
                self._property_indexes[pair] = BPlusTree()
            self._lifetimes.clear()
            self._snapshots.clear()
            self._dead.clear()
            self._reset_lsns.clear()
            self.heap.reset_hints()
            self._next_msg_id = state["next_msg_id"]
            self._next_seqno = state["next_seqno"]
            self._visible_lsn = state["visible_lsn"]
            advance_txn_ids(state["next_txn"])
            for slicing, key, lifetime in state["lifetimes"]:
                self._lifetimes[(slicing, key)] = lifetime
            for raw in state["messages"]:
                body = base64.b64decode(raw["body"])
                rid = self.heap.store(body, lsn=self.wal.end_lsn())
                meta = StoredMessage(
                    msg_id=raw["msg_id"], queue=raw["queue"],
                    seqno=raw["seqno"], rid=rid.as_tuple(),
                    properties={k: decode_value(v)
                                for k, v in raw["properties"].items()},
                    slices=[(s, k, lt) for s, k, lt in raw["slices"]],
                    processed=raw["processed"],
                    created_lsn=raw.get("created_lsn", 0),
                    deleted_lsn=raw.get("deleted_lsn"))
                if meta.deleted_lsn is not None:
                    self._dead[meta.msg_id] = meta.deleted_lsn
                self._catalog[meta.msg_id] = meta
                self._queue_index.insert((meta.queue, meta.seqno),
                                         meta.msg_id)
                for slicing, key, lifetime in meta.slices:
                    self._slice_index.insert(
                        (slicing, key, lifetime, meta.seqno), meta.msg_id)
                self._index_properties(meta)

    def simulate_crash(self, lose_unflushed: bool = False) -> None:
        """Drop all volatile state (buffer pool + in-memory structures).

        Index *registrations* model the durable catalog (they come from
        the application definition), so they survive; contents rebuild
        in :meth:`recover`.

        ``lose_unflushed=True`` also discards the appended-but-unforced
        WAL tail, modelling a power cut under the ``async`` (and, for
        in-flight commits, ``group``) durability policies.  The flusher
        is halted *without* a final force first, so a background fsync
        cannot race the cut.
        """
        self.group_commit.close(flush=not lose_unflushed)
        if lose_unflushed:
            self.wal.discard_unflushed()
        self.group_commit = GroupCommitCoordinator(
            self.wal, self.durability,
            max_wait=self._group_commit_max_wait)
        with self._mutex:
            self.buffer.drop_all()
            self.heap.reset_hints()
            self._catalog.clear()
            self._parse_cache.clear()
            self._queue_index = BPlusTree()
            self._slice_index = BPlusTree()
            for pair in self._property_indexes:
                self._property_indexes[pair] = BPlusTree()
            self._lifetimes.clear()
            self._snapshots.clear()
            self._dead.clear()
            self._reset_lsns.clear()
            self._visible_lsn = 0

    def recover(self) -> None:
        """Restore state from the checkpoint (if any) plus the WAL tail."""
        started = time.perf_counter()
        with self._mutex:
            # Drop any torn tail physically: appends after recovery must
            # extend the valid log, not hide behind garbage.
            self.wal.truncate_torn_tail()
            self._published_open.clear()
            self.heap.reset_hints()
            self._catalog.clear()
            self._parse_cache.clear()
            self._queue_index = BPlusTree()
            self._slice_index = BPlusTree()
            for pair in self._property_indexes:
                self._property_indexes[pair] = BPlusTree()
            self._lifetimes.clear()
            self._snapshots.clear()
            self._dead.clear()
            self._reset_lsns.clear()
            self._visible_lsn = 0
            self._next_msg_id = 1
            self._next_seqno = 1

            replay_from = 0
            next_txn_floor = 1
            checkpoint = self.wal.last_checkpoint()
            if checkpoint is not None and os.path.exists(
                    self._checkpoint_path()):
                with open(self._checkpoint_path(), encoding="utf-8") as fh:
                    snapshot = json.load(fh)
                self._load_snapshot(snapshot)
                replay_from = checkpoint.data["wal_end"]
                next_txn_floor = snapshot.get("next_txn", 1)

            # Txn ids restart at 1 per process; move the counter past
            # every id in the log so a new COMMIT cannot recycle an old
            # loser's id and resurrect its records on the next replay.
            # Bounded: the checkpoint snapshot carries the id watermark
            # for everything below ``replay_from``, so only the tail is
            # scanned — recovery cost tracks the checkpoint interval,
            # not total log history.
            max_txn = 0
            for record in self.wal.records(replay_from):
                if record.txn is not None and record.txn > max_txn:
                    max_txn = record.txn
            if max_txn or next_txn_floor > 1:
                advance_txn_ids(max(max_txn + 1, next_txn_floor))

            analysis = walmod.analyze_records(self.wal.records(replay_from))
            replayed = 0
            for record in self.wal.records(replay_from):
                if record.txn is not None \
                        and record.txn not in analysis.committed:
                    continue
                if analysis.is_rolled_back(record):
                    # The span between SAVEPOINT and ROLLBACK_SP is a
                    # batch member that aborted alone: logged, dead.
                    continue
                replayed += 1
                self._redo(record)
            self.stats.recoveries += 1
            self.stats.replayed_records = replayed
            # No snapshot outlives a restart: everything that was dead
            # at the crash is below the (fresh) horizon — purge it now
            # so recovery lands on a fully compacted store.
            self._visible_lsn = max(self._visible_lsn, self.wal.end_lsn())
            if not self.log_deletes:
                # Derived deletion: recompute deletability instead of
                # replaying delete records (there are none).
                self.collect_garbage()
            if self.mvcc:
                self.purge_dead_versions()
            self.stats.last_recovery_seconds = time.perf_counter() - started

    def _load_snapshot(self, snapshot: dict) -> None:
        self._next_msg_id = snapshot["next_msg_id"]
        self._next_seqno = snapshot["next_seqno"]
        self._visible_lsn = snapshot.get("visible_lsn", 0)
        for slicing, key, lifetime in snapshot["lifetimes"]:
            self._lifetimes[(slicing, key)] = lifetime
        for raw in snapshot["messages"]:
            meta = StoredMessage(
                msg_id=raw["msg_id"], queue=raw["queue"], seqno=raw["seqno"],
                rid=tuple(raw["rid"]),
                properties={k: decode_value(v)
                            for k, v in raw["properties"].items()},
                slices=[(s, k, lt) for s, k, lt in raw["slices"]],
                processed=raw["processed"],
                created_lsn=raw.get("created_lsn", 0),
                deleted_lsn=raw.get("deleted_lsn"))
            if meta.deleted_lsn is not None:
                # Dead-but-pinned at checkpoint time; indexed below so
                # the post-replay purge can unhook it normally.
                self._dead[meta.msg_id] = meta.deleted_lsn
            self._catalog[meta.msg_id] = meta
            self._queue_index.insert((meta.queue, meta.seqno), meta.msg_id)
            for slicing, key, lifetime in meta.slices:
                self._slice_index.insert(
                    (slicing, key, lifetime, meta.seqno), meta.msg_id)
            self._index_properties(meta)

    def redo_record(self, record) -> None:
        """Apply one committed WAL record — replica continuous redo.

        The applier feeds records of committed transactions (minus
        rolled-back savepoint spans, which it analyzes itself) in log
        order; idempotence comes from the same guards recovery relies
        on (inserts keyed by msg_id, processed/delete marks absorbing
        repeats).
        """
        with self._mutex:
            self._redo(record)

    def finish_redo(self) -> None:
        """Seal a continuous-redo standby store for live service.

        Mirrors the tail of :meth:`recover`: snapshot visibility moves
        to the log end and anything dead below the fresh horizon is
        purged, so a promoted replica starts from a compacted store.
        """
        with self._mutex:
            self._visible_lsn = max(self._visible_lsn, self.wal.end_lsn())
            if not self.log_deletes:
                self.collect_garbage()
            if self.mvcc:
                self.purge_dead_versions()

    def _redo(self, record) -> None:
        # Version tags replay from the record's own LSN — that is what
        # makes versioned index entries identical across crash recovery
        # and torn-tail truncation (a truncated record simply never
        # created or deleted its version).
        if record.type == walmod.MSG_INSERT:
            data = record.data
            if data["msg_id"] in self._catalog:
                return  # idempotent redo
            self._apply_insert(
                data["msg_id"], data["queue"],
                data["payload"].encode("utf-8"),
                {k: decode_value(v) for k, v in data["properties"].items()},
                [(s, k) for s, k in data["slices"]],
                created_lsn=record.lsn)
            self._next_msg_id = max(self._next_msg_id, data["msg_id"] + 1)
        elif record.type == walmod.MSG_PROCESSED:
            self._apply_processed(record.data["msg_id"])
        elif record.type == walmod.SLICE_RESET:
            self._apply_reset(record.data["slicing"], record.data["key"],
                              lsn=record.lsn)
        elif record.type == walmod.MSG_DELETE:
            self._apply_delete(record.data["msg_id"], lsn=record.lsn)
        # BEGIN/COMMIT/ABORT/CHECKPOINT/SAVEPOINT/ROLLBACK_SP carry no
        # redo work of their own.

    def close(self) -> None:
        # Quiesce the flusher before the latch: a background force must
        # not race the final buffer flush / file close.
        self.group_commit.close()
        with self._mutex:
            self.buffer.flush_all()
            self.wal.close()
            self._disk.close()
