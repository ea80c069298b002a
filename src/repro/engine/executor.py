"""The rule executor: one message, one transaction (paper §3.1).

Processing a message means evaluating every rule attached to its queue
(and to every slice it belongs to), collecting all pending updates, and
executing them together with the processed-mark in a single transaction
against the message store.  Evaluation never observes its own updates —
snapshot semantics — and concurrency control is 2PL through the
:class:`~repro.engine.locking.LockingPolicy`; a deadlock aborts the
transaction and the message is retried (after a jittered backoff so the
conflicting pair does not immediately re-collide).  Under MVCC
(``DEMAQ_MVCC``, default on) every rule read runs at the transaction's
snapshot LSN instead of taking read locks, so reader/writer deadlocks
cannot form and only write/write conflicts ever retry.
"""

from __future__ import annotations

import os
import sys
from time import perf_counter, sleep
from typing import TYPE_CHECKING

from ..backoff import BackoffPolicy
from ..config import read_field
from ..obs import COUNT_BUCKETS, TRACE_PROPERTY, MetricsRegistry
from ..qdl.model import QueueKind
from ..queues import Message, PropertyError
from ..storage.errors import DeadlockError, LockTimeoutError
from ..storage.transactions import TxnState
from ..xmldm import Document, XMLError, serialize
from ..xquery import DynamicContext, PendingUpdateList
from ..xquery.errors import XQueryError
from ..xquery.updates import EnqueuePrimitive, ResetPrimitive
from . import errors as err
from .compiler import CompiledRule, element_names
from .environment import RuleEnvironment

if TYPE_CHECKING:  # pragma: no cover
    from .server import DemaqServer


class ExecutionStatistics:
    """Per-server counters the benchmarks read.

    Since the telemetry plane landed these are *views* over the metrics
    registry: each attribute reads a live registry counter, so the same
    numbers show up under ``demaq_executor_*`` on ``/metrics``.
    Counters stay live with ``DEMAQ_OBS=0`` (they are semantic engine
    statistics, not optional telemetry).
    """

    _COUNTERS = {
        "messages_processed": ("demaq_executor_messages_processed_total",
                               "Messages fully processed"),
        "rules_evaluated": ("demaq_executor_rules_evaluated_total",
                            "Rule bodies evaluated"),
        "rules_skipped_by_prefilter": (
            "demaq_executor_rules_skipped_by_prefilter_total",
            "Rule evaluations skipped by the element-name prefilter"),
        "rule_errors": ("demaq_executor_rule_errors_total",
                        "Rule evaluations escalated per §3.6"),
        "deadlock_retries": ("demaq_executor_deadlock_retries_total",
                             "Members retried after deadlock/lock timeout"),
        "retry_backoffs": ("demaq_executor_retry_backoffs_total",
                           "Backoff sleeps taken before requeueing "
                           "deadlocked/timed-out members"),
        "enqueues": ("demaq_executor_enqueues_total",
                     "Messages inserted by rules or producers"),
        "resets": ("demaq_executor_slice_resets_total",
                   "Slice resets executed"),
        "batches_committed": ("demaq_executor_batches_committed_total",
                              "Multi-member batches committed"),
        "batch_members_rolled_back": (
            "demaq_executor_batch_members_rolled_back_total",
            "Batch members rolled back to their savepoint"),
    }

    def __init__(self, registry: MetricsRegistry | None = None) -> None:
        if registry is None:
            registry = MetricsRegistry(enabled=False)
        self._counters = {attr: registry.counter(name, help_)
                          for attr, (name, help_) in self._COUNTERS.items()}

    def add(self, name: str, amount: int = 1) -> None:
        self._counters[name].inc(amount)

    def __getattr__(self, name: str):
        counters = self.__dict__.get("_counters")
        if counters is not None and name in counters:
            return counters[name].value
        raise AttributeError(name)


class RuleExecutor:
    """Executes the compiled plans against arriving messages."""

    def __init__(self, server: "DemaqServer"):
        self.server = server
        registry = getattr(server, "metrics", None)
        if registry is None:
            registry = MetricsRegistry(enabled=False)
        self.metrics = registry
        self.stats = ExecutionStatistics(registry)
        self._batch_fill = registry.histogram(
            "demaq_executor_batch_fill", "Members per committed batch",
            buckets=COUNT_BUCKETS)
        self._rule_timers: dict[str, object] = {}
        # Jittered exponential backoff before deadlock/timeout requeues:
        # without it, the conflicting pair re-collides on the very next
        # pick.  Full jitter, base doubling per consecutive failure of
        # the same message, capped; DEMAQ_RETRY_BACKOFF=0 disables.
        self.retry_backoff = BackoffPolicy(
            base=read_field("retry_backoff"), cap=0.05)
        self._retry_attempts: dict[int, int] = {}

    @property
    def retry_backoff_base(self) -> float:
        return self.retry_backoff.base

    @property
    def retry_backoff_cap(self) -> float:
        return self.retry_backoff.cap

    def _rule_timer(self, rule_name: str):
        timer = self._rule_timers.get(rule_name)
        if timer is None:
            timer = self.metrics.histogram(
                "demaq_rule_seconds", "Per-rule evaluation time",
                rule=rule_name)
            self._rule_timers[rule_name] = timer
        return timer

    # -- main entry ---------------------------------------------------------------

    def process_message(self, msg_id: int) -> bool:
        """Process one message; False means "aborted, retry later"."""
        return not self.process_batch([msg_id])

    def process_batch(self, msg_ids: list[int]) -> list[int]:
        """Process several messages inside one chained transaction.

        Every batch member gets a savepoint before its rules run; after
        a member succeeds its buffered operations are *published* —
        logged and applied without forcing the WAL — so batch-mates
        observe its effects exactly as they would under one-message-one-
        transaction execution (snapshot semantics per member, paper
        §3.1).  A member that aborts (deadlock, lock timeout) rolls back
        to its own savepoint and is returned for retry; its batch-mates
        are unaffected.  The single commit at the end forces the log
        once for the whole batch — with the ``group`` durability policy
        that force is further coalesced across concurrently committing
        shards.

        Returns the message ids that must be rescheduled.
        """
        server = self.server
        store = server.store
        tracer = server.tracer if server.tracer.enabled else None
        retry: list[int] = []
        abandoned: list[int] = []
        traced: list[str] = []
        processed = 0
        stranded = 0
        txn = store.begin()
        try:
            for position, msg_id in enumerate(msg_ids):
                meta = store.get(msg_id)
                if meta is None or meta.processed:
                    continue
                trace = (meta.properties.get(TRACE_PROPERTY)
                         if tracer is not None else None)
                if trace is not None:
                    tracer.record(trace, "scheduled", queue=meta.queue,
                                  msg_id=msg_id)
                message = Message(meta, store)
                sp = txn.savepoint()
                try:
                    normal = self._process_into_txn(txn, meta, message)
                    store.publish(txn)
                except (DeadlockError, LockTimeoutError):
                    txn.rollback_to_savepoint(sp)
                    self.stats.add("deadlock_retries")
                    self.stats.add("batch_members_rolled_back")
                    self._retry_attempts[msg_id] = \
                        self._retry_attempts.get(msg_id, 0) + 1
                    retry.append(msg_id)
                    continue
                except BaseException:
                    # An engine bug must not strand this member or its
                    # unreached batch-mates — next_batch already popped
                    # them all from the scheduler.  Reschedule them,
                    # commit the completed prefix, re-raise.
                    if not txn.poisoned:
                        txn.rollback_to_savepoint(sp)
                    abandoned.extend(msg_ids[position:])
                    raise
                self._retry_attempts.pop(msg_id, None)
                if normal:
                    processed += 1
                else:
                    stranded += 1
                if trace is not None:
                    tracer.record(trace, "executed", queue=meta.queue,
                                  msg_id=msg_id)
                    traced.append(trace)
        finally:
            try:
                if txn.state is TxnState.ACTIVE and not txn.poisoned:
                    if txn.published_through:
                        store.commit(txn)
                    else:
                        store.abort(txn)
                if txn.state is TxnState.COMMITTED:
                    self.stats.add("messages_processed", processed)
                    self.stats.add("rule_errors", stranded)
                    if len(msg_ids) > 1:
                        self.stats.add("batches_committed")
                    if processed or stranded:
                        self._batch_fill.observe(processed + stranded)
                    for trace in traced:
                        tracer.record(trace, "committed")
                    server.after_commit(txn)
            finally:
                server.locking.release(txn.txn_id)
                if sys.exc_info()[0] is not None:
                    # Exception path (member bug, commit I/O failure):
                    # the caller never sees the retry list, and every
                    # unfinished member was already popped from the
                    # scheduler by next_batch — reschedule them all.
                    for msg_id in abandoned + retry:
                        meta = store.get(msg_id)
                        if meta is not None and not meta.processed:
                            server.scheduler.requeue(msg_id, meta.queue,
                                                     meta.seqno)
                    if txn.state is not TxnState.COMMITTED \
                            and txn.published_through:
                        # Published members' enqueues are applied in the
                        # store even though COMMIT failed; register them
                        # so they are scheduled, not stranded.
                        server.after_commit(txn)
        # Backoff *after* the finally released this batch's locks:
        # sleeping while holding them would widen the very collision
        # window the backoff is meant to shrink.
        self._backoff_before_retry(retry)
        return retry

    def _backoff_before_retry(self, retry: list[int]) -> None:
        """Jittered exponential backoff before requeueing aborted members."""
        if not retry or self.retry_backoff.base <= 0:
            return
        attempt = max(self._retry_attempts.get(m, 1) for m in retry)
        self.stats.add("retry_backoffs")
        self.retry_backoff.sleep(attempt, sleeper=sleep)

    def _process_into_txn(self, txn, meta, message: Message) -> bool:
        """Buffer the full processing of one message into *txn*.

        Returns True for normal rule processing, False when the message
        was stranded on an undefined queue and escalated per §3.6 (the
        error document goes to the resolved error queue — or
        ``server.unhandled_errors`` — and the message is marked
        processed so it can be garbage-collected instead of sitting in
        the store forever).
        """
        server = self.server
        queue_def = server.app.queues.get(meta.queue)
        if queue_def is None:
            document = err.build_error_message(
                err.SYSTEM,
                f"message {meta.msg_id} arrived on undefined queue "
                f"{meta.queue!r}",
                queue=meta.queue, initial_message=message)
            self._route_error(txn, document, None, meta.queue,
                              trace=message.property(TRACE_PROPERTY))
            txn.mark_processed(meta.msg_id)
            return False

        plan = server.compiled.plan_for(meta.queue)
        pending: list[tuple[CompiledRule | None, object]] = []
        body_names = None
        reads: dict = {}    # one read memo per member (environment.py)
        for compiled in plan.rules:
            body_names = self._evaluate_rule(
                compiled, message, txn, pending, body_names, reads)
        for compiled in plan.slice_rules:
            body_names = self._evaluate_slice_rule(
                compiled, message, txn, pending, body_names, reads)

        for compiled, primitive in pending:
            self._apply_primitive(txn, compiled, message, primitive)

        # Echo and outgoing-gateway messages stay unprocessed until
        # their delivery completes (see server pumps); rule-triggered
        # processing must not let GC take them first.
        if queue_def.kind in (QueueKind.BASIC, QueueKind.INCOMING_GATEWAY):
            txn.mark_processed(meta.msg_id)
            server.locking.lock_queue_write(txn.txn_id, meta.queue)
        return True

    # -- rule evaluation -------------------------------------------------------------

    def _evaluate_rule(self, compiled: CompiledRule, message: Message,
                       txn, pending, body_names, reads: dict,
                       slicing: str | None = None,
                       slice_key: object | None = None):
        if compiled.required_elements is not None:
            if body_names is None:
                body_names = element_names(message.body)
            if not (compiled.required_elements & body_names):
                self.stats.add("rules_skipped_by_prefilter")
                return body_names

        environment = RuleEnvironment(self.server, message, txn.txn_id,
                                      slicing, slice_key,
                                      snapshot=txn.snapshot_lsn,
                                      reads=reads)
        pul = PendingUpdateList()
        ctx = DynamicContext(item=message.body, environment=environment,
                             updates=pul)
        self.stats.add("rules_evaluated")
        timing = self.metrics.enabled
        started = perf_counter() if timing else 0.0
        try:
            compiled.evaluator()(ctx)
        except (DeadlockError, LockTimeoutError):
            raise
        except (XQueryError, XMLError, PropertyError) as exc:
            self._handle_rule_error(txn, compiled, message, exc, pending)
            return body_names
        if timing:
            self._rule_timer(compiled.name).observe(perf_counter() - started)
        pending.extend((compiled, primitive) for primitive in pul)
        return body_names

    def _evaluate_slice_rule(self, compiled: CompiledRule, message: Message,
                             txn, pending, body_names, reads: dict):
        slicing = compiled.slicing
        assert slicing is not None
        prop_name = slicing.property_name
        key = message.property(prop_name)
        if key is None:
            return body_names   # message carries no key: not in any slice
        return self._evaluate_rule(compiled, message, txn, pending,
                                   body_names, reads, slicing=slicing.name,
                                   slice_key=key)

    # -- pending update application ------------------------------------------------------

    def _apply_primitive(self, txn, compiled: CompiledRule | None,
                         message: Message, primitive) -> None:
        if isinstance(primitive, EnqueuePrimitive):
            rule_name = compiled.name if compiled else None
            try:
                self.enqueue_in_txn(
                    txn, primitive.queue, primitive.body,
                    explicit=primitive.property_dict(),
                    trigger=message, creating_rule=rule_name,
                    hand_off=True)
            except (DeadlockError, LockTimeoutError):
                raise
            except (PropertyError, XMLError) as exc:
                self._route_error(
                    txn, err.build_error_message(
                        err.MESSAGE, str(exc), rule=rule_name,
                        queue=message.queue, initial_message=message),
                    rule_name, message.queue,
                    trace=message.property(TRACE_PROPERTY))
        elif isinstance(primitive, ResetPrimitive):
            self._apply_reset(txn, compiled, message, primitive)
        else:  # pragma: no cover - defensive
            raise err.EngineError(f"unknown primitive {primitive!r}")

    def _apply_reset(self, txn, compiled: CompiledRule | None,
                     message: Message, primitive: ResetPrimitive) -> None:
        slicing = primitive.slicing
        key = primitive.key
        if slicing is None:
            assert compiled is not None and compiled.slicing is not None
            slicing = compiled.slicing.name
        if key is None:
            slicing_def = self.server.app.slicings[slicing]
            key = message.property(slicing_def.property_name)
            if key is None:
                return
        self.server.locking.lock_slice_write(txn.txn_id, slicing, key)
        txn.reset_slice(slicing, key)
        self.stats.add("resets")

    def enqueue_in_txn(self, txn, queue_name: str, body: Document,
                       explicit: dict[str, object] | None = None,
                       trigger: Message | None = None,
                       creating_rule: str | None = None,
                       system_extra: dict[str, object] | None = None,
                       hand_off: bool = False) -> None:
        """Insert one new message into *queue_name* within *txn*.

        Validates against the queue schema, resolves properties, derives
        slice memberships, and takes the write locks.  Raises
        :class:`PropertyError`/:class:`XMLError` for message-level
        problems (callers route those to error queues).

        ``hand_off=True`` gives *body* itself to the store's parse cache
        once the insert is applied, so readers skip re-parsing the text
        just serialized.  Only for trees nobody else holds and that equal
        ``parse(serialize(body))``: rule-built bodies
        (:func:`~repro.xmldm.copy_as_document`) and freshly parsed input.
        """
        server = self.server
        queue_def = server.app.queues.get(queue_name)
        if queue_def is None:
            raise err.EngineError(f"enqueue into unknown queue {queue_name!r}")
        if queue_def.schema is not None:
            failures = queue_def.schema.validate(body)
            if failures:
                raise XMLError(
                    f"message rejected by schema of queue {queue_name!r}: "
                    + "; ".join(str(f) for f in failures[:3]))

        system: dict[str, object] = {
            "creationTime": server.clock.now_datetime(),
        }
        if creating_rule:
            system["creatingRule"] = creating_rule
        if trigger is not None:
            system["sourceQueue"] = trigger.queue
            # Connection handles "automatically propagate with the
            # messages" (§2.2) so synchronous replies can be correlated.
            handle = trigger.property("connectionHandle")
            if handle is not None and (explicit is None
                                       or "connectionHandle" not in explicit):
                system["connectionHandle"] = handle
            # The correlation id rides the same rails: every message a
            # rule derives belongs to the trace of the one that fired it.
            trace = trigger.property(TRACE_PROPERTY)
            if trace is not None and (explicit is None
                                      or TRACE_PROPERTY not in explicit):
                system[TRACE_PROPERTY] = trace
        if system_extra:
            system.update(system_extra)

        trigger_properties = trigger.properties if trigger is not None else {}
        properties = server.resolver.resolve(
            queue_name, body, explicit=explicit,
            trigger_properties=trigger_properties, system=system)

        slices = []
        for slicing in server.app.slicings.values():
            prop = server.app.properties.get(slicing.property_name)
            if prop is None or not prop.defined_on(queue_name):
                continue
            key = properties.get(slicing.property_name)
            if key is not None:
                slices.append((slicing.name, key))

        server.locking.lock_queue_write(txn.txn_id, queue_name)
        for slicing_name, key in slices:
            server.locking.lock_slice_write(txn.txn_id, slicing_name, key)

        payload = serialize(body).encode("utf-8")
        txn.insert_message(queue_name, payload, properties, slices,
                           persistent=queue_def.persistent,
                           document=body if hand_off else None)
        self.stats.add("enqueues")

    # -- error routing -----------------------------------------------------------------------

    def _handle_rule_error(self, txn, compiled: CompiledRule,
                           message: Message, exc: Exception,
                           pending) -> None:
        self.stats.add("rule_errors")
        kind = err.MESSAGE if isinstance(exc, XMLError) else err.APPLICATION
        code = getattr(exc, "code", None)
        document = err.build_error_message(
            kind, str(exc), rule=compiled.name, queue=message.queue,
            code=code, initial_message=message)
        self._route_error(txn, document, compiled.name, message.queue,
                          trace=message.property(TRACE_PROPERTY))

    def _route_error(self, txn, document: Document,
                     rule_name: str | None, queue_name: str | None,
                     trace: object | None = None) -> None:
        target = err.resolve_error_queue(self.server.app, rule_name,
                                         queue_name)
        if target is None:
            self.server.unhandled_errors.append(document)
            return
        # Escalated errors keep the triggering message's correlation id
        # so an operator can follow a request into the error queue.
        explicit = {TRACE_PROPERTY: trace} if trace is not None else None
        self.enqueue_in_txn(txn, target, document, explicit=explicit,
                            creating_rule=rule_name)
