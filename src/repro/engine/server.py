"""The Demaq server (paper Fig. 1, §4).

Wires every subsystem together: compiled application, message store,
lock manager, scheduler, rule executor, echo timers, gateway
communication, collections, and garbage collection.  One instance is one
Active Web node; several instances connected through a
:class:`~repro.network.Network` form a distributed application.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Optional

from ..config import read_field
from ..network import (Network, build_envelope, is_reserved_endpoint,
                       parse_envelope, parse_wsdl)
from ..obs import TRACE_PROPERTY, MetricsRegistry, Tracer
from ..qdl import Application, compile_application
from ..qdl.model import QueueDef, QueueKind
from ..queues import (Clock, EchoService, Message, PropertyError,
                      PropertyResolver, VirtualClock)
from ..storage import CheckpointScheduler, LockManager, MessageStore
from ..storage.transactions import InsertOp
from ..xmldm import Document, XMLError, parse
from ..xquery.atomics import (UntypedAtomic, XSDateTime, cast_atomic,
                              cast_to_double, is_numeric)
from ..xquery.errors import DynamicError, XQueryError
from . import errors as err
from .compiler import compile_rules
from .executor import RuleExecutor
from .locking import LockingPolicy
from .scheduler import Scheduler

_HANDLE_COUNTER = itertools.count(1)

#: Properties consumed by the system; not forwarded by echo/gateway relays.
_INTERNAL_PROPERTIES = frozenset(
    {"timeout", "target", "creationTime", "creatingRule", "sourceQueue"})

_MAX_RELIABLE_ATTEMPTS = 16


class DemaqServer:
    """One Demaq node executing a declarative application."""

    def __init__(self, app: Application | str,
                 data_dir: str | None = None,
                 clock: Clock | None = None,
                 network: Network | None = None,
                 name: str = "demaq",
                 lock_granularity: str = "slice",
                 optimize_rules: bool = True,
                 sync_commits: bool = True,
                 log_deletes: bool = True,
                 buffer_capacity: int = 256,
                 lock_timeout: float | None = None,
                 register_gateways: bool = True,
                 durability: str | None = None,
                 batch_size: int | None = None,
                 metrics: MetricsRegistry | None = None,
                 tracer: Tracer | None = None,
                 mvcc: bool | None = None,
                 store: MessageStore | None = None):
        if isinstance(app, str):
            app = compile_application(app)
        self.app = app
        self.name = name
        self.clock = clock or VirtualClock()
        self.network = network
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.tracer = tracer if tracer is not None else Tracer(node=name)
        if batch_size is None:
            batch_size = read_field("batch_size")
        if batch_size < 1:
            raise err.EngineError(f"batch_size must be >= 1, got {batch_size}")
        #: How many scheduler picks one execution step may run inside a
        #: single chained, group-committed transaction (§3.1 batching).
        self.batch_size = batch_size
        if lock_timeout is None:
            # DEMAQ_LOCK_TIMEOUT replaces the old hard-coded 10s: how
            # long a blocked lock request waits before the member is
            # rolled back and retried.
            lock_timeout = read_field("lock_timeout")
        if store is not None:
            # Replica promotion hands in a standby store whose state
            # was built by continuous redo — adopt it instead of
            # constructing (and recovering) a fresh one.
            self.store = store
        else:
            self.store = MessageStore(data_dir,
                                      buffer_capacity=buffer_capacity,
                                      sync_commits=sync_commits,
                                      log_deletes=log_deletes,
                                      durability=durability,
                                      metrics=self.metrics,
                                      mvcc=mvcc)
        #: Epoch fencing (DESIGN.md §9): a zombie primary whose shard
        #: was promoted elsewhere refuses every ingest once fenced.
        self.fenced = False
        #: Endurance operation (DESIGN.md §10): ticked from the work
        #: loop; inert unless a checkpoint knob is configured.
        self.checkpoints = CheckpointScheduler(
            self.store,
            interval_bytes=read_field("checkpoint_interval_bytes"),
            interval_seconds=read_field("checkpoint_interval_seconds"),
            wal_ceiling_bytes=read_field("wal_ceiling_bytes"),
            truncate=read_field("wal_truncate"))
        self.locks = LockManager(lock_timeout)
        self.locking = LockingPolicy(self.locks, lock_granularity,
                                     lock_timeout, mvcc=self.store.mvcc)
        if self.metrics.enabled:
            self.locks.wait_timer = self.metrics.histogram(
                "demaq_lock_wait_seconds",
                "Blocked lock-acquisition wait time")
        self.resolver = PropertyResolver(app)
        for index in app.indexes.values():
            self.store.create_property_index(index.queue,
                                             index.property_name)
        self.compiled = compile_rules(app, optimize=optimize_rules)
        self.scheduler = Scheduler(app)
        self.executor = RuleExecutor(self)
        self.echo = EchoService(self.clock)
        self.collections: dict[str, list[Document]] = {
            name: [] for name in app.collections}
        self.unhandled_errors: list[Document] = []
        self._pending_sends: list[int] = []
        self._send_attempts: dict[int, int] = {}
        self._wsdl_sources: dict[str, str] = {}
        self._register_collectors()
        self._bootstrap()
        if network is not None and register_gateways:
            self._register_incoming_gateways()

    def _register_collectors(self) -> None:
        """Expose scheduler/lock/server state as pull metrics.

        Collectors read through ``self`` so they survive
        ``crash_and_recover`` rebuilding the scheduler underneath them.
        """
        registry = self.metrics
        registry.collect("demaq_scheduler_scheduled_total",
                         lambda: self.scheduler.scheduled,
                         help="Messages handed to the scheduler")
        registry.collect("demaq_scheduler_dispatched_total",
                         lambda: self.scheduler.dispatched,
                         help="Messages popped for execution")
        registry.collect("demaq_scheduler_requeues_total",
                         lambda: self.scheduler.requeues,
                         help="Messages put back after an abort")
        registry.collect("demaq_scheduler_backlog",
                         lambda: self.scheduler.backlog(), kind="gauge",
                         help="Unprocessed messages awaiting dispatch")
        for queue in self.app.queues:
            registry.collect(
                "demaq_scheduler_queue_backlog",
                lambda q=queue: self.scheduler.backlog_for(q),
                kind="gauge", help="Per-queue scheduler backlog",
                queue=queue)
        registry.collect("demaq_locks_acquisitions_total",
                         lambda: self.locks.acquisitions,
                         help="Lock acquisitions granted")
        registry.collect("demaq_locks_waits_total",
                         lambda: self.locks.waits,
                         help="Lock requests that had to wait")
        registry.collect("demaq_locks_deadlocks_total",
                         lambda: self.locks.deadlocks,
                         help="Deadlocks detected and broken")
        registry.collect("demaq_server_pending_sends",
                         lambda: len(self._pending_sends), kind="gauge",
                         help="Outgoing-gateway sends awaiting initiation")
        registry.collect("demaq_server_unhandled_errors",
                         lambda: len(self.unhandled_errors), kind="gauge",
                         help="Error documents with no resolvable queue")

    # -- deployment helpers --------------------------------------------------------

    def register_wsdl(self, file_name: str, source: str) -> None:
        """Supply the content of a WSDL file referenced by a gateway."""
        parse_wsdl(source)   # validate eagerly
        self._wsdl_sources[file_name] = source

    def load_collection(self, name: str,
                        documents: Iterable[str | Document]) -> None:
        """Load master data accessed via ``fn:collection`` (§3.5.2)."""
        docs = [parse(d) if isinstance(d, str) else d for d in documents]
        self.collections.setdefault(name, []).extend(docs)

    def collection_documents(self, name: str) -> list[Document]:
        if name not in self.collections:
            raise DynamicError(f"no collection {name!r} is available")
        return list(self.collections[name])

    # -- external message injection ----------------------------------------------------

    def enqueue(self, queue: str, body: str | Document,
                properties: dict[str, object] | None = None) -> int:
        """Inject a message from outside (tests, examples, drivers).

        Schema violations raise synchronously — an external producer gets
        the error directly rather than via an error queue.
        """
        # A tree parsed here is ours alone and equals the parse of its
        # serialization, so the store may keep it; a caller's Document
        # may be reused (or be namespace-incomplete) and is not handed on.
        parsed = isinstance(body, str)
        document = parse(body) if parsed else body
        txn = self.store.begin()
        try:
            self.executor.enqueue_in_txn(txn, queue, document,
                                         explicit=properties,
                                         hand_off=parsed)
            self.store.commit(txn)
        except Exception:
            if txn.state.value == "active":
                self.store.abort(txn)
            raise
        finally:
            self.locking.release(txn.txn_id)
        self.after_commit(txn)
        return next(op.msg_id for op in txn.ops if isinstance(op, InsertOp))

    def request(self, queue: str, body: str | Document,
                properties: dict[str, object] | None = None
                ) -> Optional[Document]:
        """Synchronous request/response via connection handles (§2.2).

        Enqueues the request with a fresh ``connectionHandle``, runs the
        server to quiescence, and returns the first reply carrying the
        same handle in an outgoing gateway queue.
        """
        handle = f"conn-{next(_HANDLE_COUNTER)}"
        merged = dict(properties or {})
        merged["connectionHandle"] = handle
        self.enqueue(queue, body, merged)
        self.run_until_idle()
        for queue_def in self.app.queues.values():
            if queue_def.kind is not QueueKind.OUTGOING_GATEWAY:
                continue
            for message in self.live_messages(queue_def.name):
                if message.property("connectionHandle") == handle:
                    return message.body
        return None

    # -- post-commit dispatch -------------------------------------------------------------

    def after_commit(self, txn) -> None:
        """Register every inserted message with the right subsystem."""
        tracer = self.tracer if self.tracer.enabled else None
        for op in txn.ops:
            if not isinstance(op, InsertOp) or op.msg_id is None:
                continue
            meta = self.store.get(op.msg_id)
            if meta is None:
                continue
            if tracer is not None:
                tracer.record(meta.properties.get(TRACE_PROPERTY),
                              "enqueued", queue=meta.queue,
                              msg_id=meta.msg_id)
            queue_def = self.app.queues.get(op.queue)
            if queue_def is None:
                continue
            if queue_def.kind is QueueKind.ECHO:
                self._schedule_echo(meta)
            elif queue_def.kind is QueueKind.OUTGOING_GATEWAY:
                self._pending_sends.append(meta.msg_id)
            self.scheduler.notify(meta.msg_id, meta.queue, meta.seqno)

    def _schedule_echo(self, meta) -> None:
        target = meta.properties.get("target")
        if not isinstance(target, str) or target not in self.app.queues:
            self._report_error(err.build_error_message(
                err.MESSAGE,
                f"echo message {meta.msg_id} has no valid 'target' property",
                queue=meta.queue,
                initial_message=Message(meta, self.store)),
                None, meta.queue,
                trace=meta.properties.get(TRACE_PROPERTY))
            return
        timeout = meta.properties.get("timeout", 0)
        try:
            seconds = cast_to_double(timeout)
        except Exception:
            seconds = 0.0
        self.echo.schedule(meta.msg_id, seconds, target)

    # -- the execution loop ------------------------------------------------------------------

    def step_local(self) -> bool:
        """One unit of *node-local* work; False when locally idle.

        Everything but the shared network pump: rule processing, echo
        deliveries, and gateway send initiation.  The cluster driver
        runs this concurrently per node and pumps the network itself at
        a barrier, so node threads never touch each other's stores.
        """
        batch = self.scheduler.next_batch(self.batch_size)
        if batch:
            for msg_id in self.executor.process_batch(batch):
                meta = self.store.get(msg_id)
                if meta is not None:
                    self.scheduler.requeue(msg_id, meta.queue, meta.seqno)
            return True
        due = self.echo.due_deliveries()
        if due:
            for msg_id, target in due:
                self._deliver_echo(msg_id, target)
            return True
        if self._pending_sends:
            self._initiate_sends()
            return True
        return False

    def step(self) -> bool:
        """Do one unit of work; False when idle."""
        if self.step_local():
            return True
        if self.network is not None and self.network.pump():
            return True
        return False

    def run_until_idle(self, max_steps: int = 1_000_000) -> int:
        """Process work until quiescent; returns the number of steps."""
        steps = 0
        while steps < max_steps and self.step():
            steps += 1
            self.checkpoints.maybe_run()
        # One idle tick so the clock trigger fires on a quiet node too.
        self.checkpoints.maybe_run()
        return steps

    def advance_time(self, seconds: float) -> int:
        """Advance the virtual clock, then drain newly due work."""
        if isinstance(self.clock, VirtualClock):
            self.clock.advance(seconds)
        return self.run_until_idle()

    # -- echo delivery ----------------------------------------------------------------------

    def _deliver_echo(self, msg_id: int, target: str) -> None:
        meta = self.store.get(msg_id)
        if meta is None:
            return
        message = Message(meta, self.store)
        txn = self.store.begin()
        try:
            explicit = self._forwardable_properties(target,
                                                    message.properties)
            self.executor.enqueue_in_txn(txn, target, message.body,
                                         explicit=explicit, trigger=message)
            txn.mark_processed(msg_id)
            self.store.commit(txn)
        except (PropertyError, XMLError) as exc:
            self.store.abort(txn)
            self.locking.release(txn.txn_id)
            self._report_error(err.build_error_message(
                err.MESSAGE, str(exc), queue=meta.queue,
                initial_message=message), None, meta.queue,
                trace=meta.properties.get(TRACE_PROPERTY))
            return
        finally:
            if txn.state.value == "active":
                self.store.abort(txn)
            self.locking.release(txn.txn_id)
        self.after_commit(txn)

    def _forwardable_properties(self, queue: str,
                                properties: dict[str, object]
                                ) -> dict[str, object]:
        """Ad-hoc properties a relay passes along (fixed ones recompute)."""
        out = {}
        for name, value in properties.items():
            if name in _INTERNAL_PROPERTIES:
                continue
            declared = self.app.properties.get(name)
            if declared is not None and declared.fixed:
                continue
            out[name] = value
        return out

    # -- gateway sending ------------------------------------------------------------------------

    def _endpoint_for(self, queue_def: QueueDef) -> str | None:
        if queue_def.endpoint:
            return queue_def.endpoint
        if queue_def.interface and queue_def.interface in self._wsdl_sources:
            interface = parse_wsdl(self._wsdl_sources[queue_def.interface])
            if queue_def.port:
                return interface.port(queue_def.port).address
        return None

    def _initiate_sends(self) -> None:
        pending, self._pending_sends = self._pending_sends, []
        for msg_id in pending:
            self._send_one(msg_id)

    def _send_one(self, msg_id: int) -> None:
        meta = self.store.get(msg_id)
        if meta is None or meta.processed:
            return
        message = Message(meta, self.store)
        queue_def = self.app.queues[meta.queue]
        endpoint = self._endpoint_for(queue_def)
        if self.network is None or endpoint is None:
            self._send_failed(msg_id, err.DISCONNECTED)
            return
        if queue_def.interface in self._wsdl_sources and queue_def.port:
            interface = parse_wsdl(self._wsdl_sources[queue_def.interface])
            root = message.body.root_element
            if root is not None and not interface.port(
                    queue_def.port).accepts(root.name.local_name):
                self._report_error(err.build_error_message(
                    err.MESSAGE,
                    f"<{root.name.local_name}> matches no operation of "
                    f"port {queue_def.port!r}", queue=meta.queue,
                    initial_message=message), None, meta.queue,
                    trace=meta.properties.get(TRACE_PROPERTY))
                self._mark_processed(msg_id)
                return
        envelope = build_envelope(message.body, message.properties)
        self.network.send(
            endpoint, envelope, source=f"demaq://{self.name}",
            on_delivered=lambda: self._delivered(msg_id),
            on_failed=lambda marker: self._send_failed(msg_id, marker))

    def _delivered(self, msg_id: int) -> None:
        if self.tracer.enabled:
            meta = self.store.get(msg_id)
            if meta is not None:
                self.tracer.record(meta.properties.get(TRACE_PROPERTY),
                                   "delivered", queue=meta.queue,
                                   msg_id=msg_id)
        self._mark_processed(msg_id)

    def _mark_processed(self, msg_id: int) -> None:
        meta = self.store.get(msg_id)
        if meta is None or meta.processed:
            return
        txn = self.store.begin()
        txn.mark_processed(msg_id)
        self.store.commit(txn)
        self.locking.release(txn.txn_id)

    def _send_failed(self, msg_id: int, marker: str) -> None:
        meta = self.store.get(msg_id)
        if meta is None:
            return
        queue_def = self.app.queues[meta.queue]
        if self.tracer.enabled:
            self.tracer.record(meta.properties.get(TRACE_PROPERTY),
                               "failed", queue=meta.queue, marker=marker,
                               msg_id=msg_id)
        attempts = self._send_attempts.get(msg_id, 0) + 1
        self._send_attempts[msg_id] = attempts
        if queue_def.uses_extension("WS-ReliableMessaging") \
                and attempts < _MAX_RELIABLE_ATTEMPTS:
            self._pending_sends.append(msg_id)   # retry on the next pump
            return
        message = Message(meta, self.store)
        self._report_error(err.build_error_message(
            err.NETWORK, f"delivery to remote endpoint failed ({marker})",
            queue=meta.queue, marker=marker, initial_message=message),
            None, meta.queue,
            trace=meta.properties.get(TRACE_PROPERTY))
        self._mark_processed(msg_id)

    def _register_incoming_gateways(self) -> None:
        for queue_def in self.app.queues.values():
            if queue_def.kind is QueueKind.INCOMING_GATEWAY:
                self.register_incoming_gateway(queue_def.name)

    def gateway_endpoint(self, queue: str) -> str:
        """The transport address of an incoming gateway on this node."""
        queue_def = self.app.queues[queue]
        return queue_def.endpoint or f"demaq://{self.name}/{queue_def.name}"

    def register_incoming_gateway(self, queue: str) -> None:
        """Attach one incoming gateway's endpoint to this node.

        Standalone servers do this for every gateway at startup; in a
        sharded cluster only the queue's ring owner holds the endpoint,
        and rebalancing moves it by unregister/register.
        """
        endpoint = self.gateway_endpoint(queue)
        if is_reserved_endpoint(endpoint):
            raise err.EngineError(
                f"gateway queue {queue!r} declares endpoint {endpoint!r} "
                f"inside the runtime-reserved '!' namespace (cluster "
                f"ingest / control addresses); pick another address")
        self.network.register(
            endpoint,
            lambda envelope, source, q=queue:
                self._receive(q, envelope, source))

    def unregister_incoming_gateway(self, queue: str) -> None:
        self.network.unregister(self.gateway_endpoint(queue))

    def register_ingest(self, endpoint: str, queue: str) -> None:
        """Expose *queue* for envelope ingest at *endpoint*.

        The cluster router uses this to address any queue of a node —
        not just declared incoming gateways — when forwarding enqueues
        to the partition owner.
        """
        if self.network is None:
            raise err.EngineError(
                f"server {self.name!r} has no network to register on")
        if queue not in self.app.queues:
            raise err.EngineError(f"no queue {queue!r} to expose as ingest")
        self.network.register(
            endpoint,
            lambda envelope, source, q=queue:
                self.ingest(q, envelope, source))

    def ingest(self, queue: str, envelope: Document, source: str) -> None:
        """Accept one router envelope into *queue* (public hook).

        Unlike a gateway relay, a router forward is an *original*
        enqueue on behalf of an external producer, so explicit
        properties (``timeout``, ``target``, …) pass through intact
        instead of being stripped as internal relay state.
        """
        self._receive(queue, envelope, source, relay=False)

    def _receive(self, queue: str, envelope: Document, source: str,
                 relay: bool = True) -> None:
        if self.fenced:
            # A fenced zombie must not accept writes: the raised error
            # fails the transport delivery, so the sender's failure
            # marker (§3.6) routes the message elsewhere.
            raise err.EngineError(
                f"server {self.name!r} is fenced (shard promoted "
                f"at a newer epoch)")
        body, properties = parse_envelope(envelope)
        if self.tracer.enabled:
            self.tracer.record(properties.get(TRACE_PROPERTY), "received",
                               queue=queue, source=source)
        explicit = self._forwardable_properties(queue, properties) \
            if relay else dict(properties)
        txn = self.store.begin()
        try:
            self.executor.enqueue_in_txn(
                txn, queue, body, explicit=explicit,
                system_extra={"Sender": source})
            self.store.commit(txn)
        except (PropertyError, XMLError) as exc:
            self.store.abort(txn)
            self.locking.release(txn.txn_id)
            self._report_error(err.build_error_message(
                err.MESSAGE, str(exc), queue=queue, initial_message=body),
                None, queue, trace=properties.get(TRACE_PROPERTY))
            return
        finally:
            if txn.state.value == "active":
                self.store.abort(txn)
            self.locking.release(txn.txn_id)
        self.after_commit(txn)

    # -- error reporting outside a rule transaction ------------------------------------------------

    def _report_error(self, document: Document, rule_name: str | None,
                      queue_name: str | None,
                      trace: str | None = None) -> None:
        target = err.resolve_error_queue(self.app, rule_name, queue_name)
        if target is None:
            self.unhandled_errors.append(document)
            return
        explicit = {TRACE_PROPERTY: trace} if trace is not None else None
        txn = self.store.begin()
        try:
            self.executor.enqueue_in_txn(txn, target, document,
                                         explicit=explicit)
            self.store.commit(txn)
        finally:
            if txn.state.value == "active":
                self.store.abort(txn)
            self.locking.release(txn.txn_id)
        self.after_commit(txn)

    # -- accessors --------------------------------------------------------------------------------------

    def live_messages(self, queue: str,
                      snapshot: int | None = None) -> list[Message]:
        """All retained messages of a queue (processed and not), in
        order — at *snapshot* when given (MVCC), else current state."""
        return [Message(meta, self.store)
                for meta in self.store.queue_messages(queue,
                                                      snapshot=snapshot)]

    def slice_live_messages(self, slicing: str, key: object,
                            snapshot: int | None = None) -> list[Message]:
        return [Message(meta, self.store)
                for meta in self.store.slice_messages(slicing, key,
                                                      snapshot=snapshot)]

    def indexed_live_messages(self, queue: str, prop: str,
                              values: Iterable[object],
                              snapshot: int | None = None) -> list[Message]:
        """Messages of *queue* whose *prop* equals any probe value.

        Probes are coerced to the property's declared type before the
        index read — the stored value was resolved under that type at
        enqueue time, so both sides of the equality agree.  Uncastable
        probes match nothing (the scan-side comparison could not have
        produced a typed match either), and so do probes the cast
        cannot represent exactly (1.5 against an xs:integer property
        must not match stored 1 the way a truncating cast would).
        """
        prop_def = self.app.properties.get(prop)
        by_id: dict[int, object] = {}
        for value in values:
            if isinstance(value, UntypedAtomic):
                value = str(value)
            if prop_def is not None:
                try:
                    typed = cast_atomic(value, prop_def.type_name)
                except XQueryError:
                    continue
                # For xs:double properties the scan plan compares at
                # double precision anyway, so the cast *is* the scan's
                # coercion; elsewhere a lossy cast must not match.
                if prop_def.type_name != "xs:double" \
                        and not _cast_preserves_value(value, typed):
                    continue
                value = typed
            for meta in self.store.property_lookup(queue, prop, value,
                                                   snapshot=snapshot):
                by_id[meta.msg_id] = meta
        metas = sorted(by_id.values(), key=lambda m: m.seqno)
        return [Message(meta, self.store) for meta in metas]

    def queue_documents(self, queue: str) -> list[Document]:
        return [m.body for m in self.live_messages(queue)]

    def queue_texts(self, queue: str) -> list[str]:
        return [m.body_text() for m in self.live_messages(queue)]

    # -- maintenance -------------------------------------------------------------------------------------

    def collect_garbage(self) -> int:
        return self.store.collect_garbage()

    def checkpoint(self) -> str:
        return self.store.checkpoint()

    def truncate_wal(self, force: bool = False) -> int:
        return self.store.truncate_wal(force=force)

    def crash_and_recover(self) -> None:
        """Test/bench hook: lose volatile state, then run recovery."""
        self.store.simulate_crash()
        self.store.recover()
        self.scheduler = Scheduler(self.app)
        self.echo = EchoService(self.clock)
        self._pending_sends.clear()
        self._send_attempts.clear()
        self._bootstrap()

    def _bootstrap(self) -> None:
        """Register every unprocessed message after startup/recovery."""
        for meta in self.store.unprocessed_messages():
            self.register_unprocessed(meta)

    def register_unprocessed(self, meta) -> None:
        """Hand one pre-existing unprocessed message to its subsystem.

        Shared by startup, recovery, and cluster rebalancing (a migrated
        message is recovered state, not a fresh enqueue): echo timers
        resume with their *remaining* timeout rather than restarting.
        """
        queue_def = self.app.queues.get(meta.queue)
        if queue_def is None:
            # Undefined queue (the application dropped it since this
            # message was stored): schedule it anyway so the executor
            # escalates per §3.6 instead of stranding it forever.
            self.scheduler.notify(meta.msg_id, meta.queue, meta.seqno)
            return
        if queue_def.kind is QueueKind.ECHO:
            self._reschedule_recovered_echo(meta)
        elif queue_def.kind is QueueKind.OUTGOING_GATEWAY:
            # at-least-once resend across failures (WS-RM semantics)
            self._pending_sends.append(meta.msg_id)
        else:
            self.scheduler.notify(meta.msg_id, meta.queue, meta.seqno)

    def _reschedule_recovered_echo(self, meta) -> None:
        target = meta.properties.get("target")
        if not isinstance(target, str):
            return
        created = meta.properties.get("creationTime")
        timeout = meta.properties.get("timeout", 0)
        try:
            seconds = cast_to_double(timeout)
        except Exception:
            seconds = 0.0
        if isinstance(created, XSDateTime):
            remaining = created.epoch() + seconds - self.clock.now()
        else:
            remaining = seconds
        self.echo.schedule(meta.msg_id, max(0.0, remaining), target)

    def close(self) -> None:
        """Close the store, leaving an image behind when the close is
        clean.

        With no chained batch holding published work, the store writes
        a checkpoint image (and, with ``DEMAQ_WAL_TRUNCATE`` on, drops
        the log prefix it covers), so the next open loads the image
        instead of replaying the whole log — the shutdown checkpoint of
        ARIES-style systems.  Otherwise ``checkpoint()`` defers, no
        image is written, and the next open replays the log.
        """
        try:
            if self.store.checkpoint() == "completed" \
                    and self.checkpoints.truncate:
                self.store.truncate_wal()
        finally:
            self.store.close()


def _cast_preserves_value(original: object, cast_value: object) -> bool:
    """Did casting a probe to the property type keep its value?

    Guards the index access path against lossy numeric casts: under the
    scan plan ``1.5 = <stored xs:integer 1>`` is false, so the index
    plan must not match either after the cast truncates 1.5 to 1.
    """
    if isinstance(original, bool) or isinstance(cast_value, bool):
        return True     # boolean casts follow the xs:boolean lexical rules
    numeric_cast = is_numeric(cast_value)
    if is_numeric(original) and numeric_cast:
        # Python's mixed int/float/Decimal == is mathematically exact
        # (no lossy conversion), unlike comparing via float().
        return original == cast_value
    if isinstance(original, str) and numeric_cast:
        # untyped lexical probe: coerced through double, as the scan
        # plan's general comparison would coerce it
        try:
            return float(original) == cast_value
        except (OverflowError, ValueError):
            return False
    return True


def run_cluster(servers: Iterable[DemaqServer], max_rounds: int = 10_000
                ) -> None:
    """Run several connected servers until the whole system is idle."""
    servers = list(servers)
    for _ in range(max_rounds):
        if not any(server.step() for server in servers):
            return
    raise err.EngineError("cluster did not quiesce")
