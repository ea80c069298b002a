"""Per-layer measurements, taken from outside through public entry points.

A layer is a module under ``src/repro/``.  After a traced run the runner
replays that workload's own corpus — the generated inputs plus the
messages the run produced, read back with ``queue_texts`` — through each
layer's public functions, single-threaded, and times the calls.  Nothing
here reaches into the program: spans inside it are a later change.

Every timing is a median per call.  Set-ups (building a store of a
given depth, opening sockets) are outside the timed calls.
"""

from __future__ import annotations

import os
import shutil
import time

import loadgen
from common import median

from repro import compile_application, compile_expression
from repro.cluster.membership import ClusterMembership
from repro.cluster.router import ClusterRouter
from repro.netio import HttpGateway, SocketTransport
from repro.network import build_envelope, parse_envelope
from repro.storage import MessageStore
from repro.xmldm import parse, serialize
from repro.xquery import DynamicContext, ast, make_evaluator

SAMPLE = 300              # corpus messages replayed per layer
COMMITS = 150             # one-message transactions per flush policy
LOOKUP_DEPTH = 10_000     # storage.lookup_us is taken at this queue depth
LOOKUP_KEYS = 1000
SCAN_DEPTH = 200          # storage.scan_us_per_msg at this queue depth
ROUND_TRIPS = 200
POSTS = 25
SPACING_S = 0.05


def _us(call, *args) -> float:
    started = time.perf_counter_ns()
    call(*args)
    return (time.perf_counter_ns() - started) / 1000.0


def _sample(corpus: dict[str, list[str]],
            inputs: list[tuple[str, str]]) -> list[tuple[str, str]]:
    """(queue, text) pairs: inputs and produced messages, thinned
    evenly so every queue of the run is represented."""
    pairs = list(inputs)
    for queue, texts in corpus.items():
        pairs.extend((queue, text) for text in texts)
    step = max(1, len(pairs) // SAMPLE)
    return pairs[::step][:SAMPLE]


def xmldm(pairs: list[tuple[str, str]]) -> tuple[dict, list]:
    docs = [(queue, parse(text)) for queue, text in pairs]      # warm-up
    return ({"xmldm.parse_us": median([_us(parse, text)
                                       for _, text in pairs]),
             "xmldm.serialize_us": median([_us(serialize, doc)
                                           for _, doc in docs])},
            docs)


def _uses_queue_state(expr) -> bool:
    return any(isinstance(node, ast.FunctionCall)
               and node.name.startswith("qs:") for node in ast.walk(expr))


def compile_and_eval(app_source: str, docs: list) -> dict:
    """Compile times, and evaluation of what the engine evaluates per
    message that needs no queue state: rule conditions and property
    value expressions, held as closures exactly as the engine holds
    them (``make_evaluator``, compiled backend)."""
    compile_ms = []
    for _ in range(5):
        started = time.perf_counter()
        app = compile_application(app_source)
        compile_ms.append((time.perf_counter() - started) * 1000.0)
    rule_ms = []
    for rule in app.rules:
        started = time.perf_counter()
        compile_expression(rule.body_source)
        rule_ms.append((time.perf_counter() - started) * 1000.0)

    by_queue: dict[str, list] = {}
    for queue, doc in docs:
        by_queue.setdefault(queue, []).append(doc)
    evaluators = []
    for rule in app.rules:
        if isinstance(rule.body, ast.IfExpr) and rule.target in by_queue \
                and not _uses_queue_state(rule.body.condition):
            evaluators.append((rule.target, make_evaluator(
                rule.body.condition, backend="compiled")))
    for prop in app.properties.values():
        for binding in prop.bindings:
            if _uses_queue_state(binding.value):
                continue
            run = make_evaluator(binding.value, backend="compiled")
            evaluators.extend((queue, run) for queue in binding.queues
                              if queue in by_queue)
    eval_us = [_us(run, DynamicContext(item=doc))
               for queue, run in evaluators for doc in by_queue[queue]]
    return {"qdl.compile_ms": median(compile_ms),
            "xquery.compile_ms": median(rule_ms),
            "xquery.eval_us": median(eval_us) if eval_us else 0.0}


def storage_commits(payload: bytes, workdir: str) -> dict:
    """One-message ``begin / insert_message / commit`` on a bare store:
    once without a directory (``mem``) and once per flush policy."""
    out = {}
    for policy in ("mem", "sync", "group", "async"):
        directory = None if policy == "mem" \
            else os.path.join(workdir, f"layer-store-{policy}")
        store = MessageStore(directory,
                             durability="sync" if policy == "mem" else policy)
        try:
            def one_commit() -> None:
                txn = store.begin()
                txn.insert_message("replay", payload, {}, [])
                store.commit(txn)
            out[f"storage.commit_us.{policy}"] = median(
                [_us(one_commit) for _ in range(COMMITS)])
        finally:
            store.close()
            if directory is not None:
                shutil.rmtree(directory, ignore_errors=True)
    return out


def storage_reads(payload: bytes) -> dict:
    deep = MessageStore()
    deep.create_property_index("state", "key")
    for index in range(LOOKUP_DEPTH):
        txn = deep.begin()
        txn.insert_message("state", payload,
                           {"key": f"k{index % LOOKUP_KEYS}"}, [])
        deep.commit(txn)
    lookup_us = [_us(lambda k=key: len(deep.property_lookup(
        "state", "key", f"k{k}"))) for key in range(0, LOOKUP_KEYS, 5)]
    deep.close()

    shallow = MessageStore()
    for _ in range(SCAN_DEPTH):
        txn = shallow.begin()
        txn.insert_message("scanned", payload, {}, [])
        shallow.commit(txn)

    def scan() -> None:
        for meta in shallow.queue_messages("scanned"):
            shallow.parsed_body(meta.msg_id)
    scan_us = [_us(scan) / SCAN_DEPTH for _ in range(20)]
    shallow.close()
    return {"storage.lookup_us": median(lookup_us),
            "storage.scan_us_per_msg": median(scan_us)}


def routing(app, docs: list) -> dict:
    membership = ClusterMembership(app, ["node0", "node1"])
    router = ClusterRouter(app, membership, network=None)
    route_us = [_us(router.owner_of, queue, doc) for queue, doc in docs]

    def envelope_round_trip(doc) -> None:
        parse_envelope(build_envelope(doc, {"traceId": "0123456789abcdef"}))
    return {"cluster.route_us": median(route_us),
            "network.envelope_us": median([_us(envelope_round_trip, doc)
                                           for _, doc in docs])}


def transport_rtt(doc) -> dict:
    """send -> delivery acknowledgement between two loopback transports."""
    receiver = SocketTransport("b", {"b": ("127.0.0.1", 0)})
    sender = SocketTransport("a", {"a": ("127.0.0.1", 0),
                                   "b": (receiver.host, receiver.port)})
    try:
        receiver.register("demaq://b/echo", lambda envelope, source: None)
        envelope = build_envelope(doc, {})
        samples = []
        for _ in range(ROUND_TRIPS):
            outcome: list[str] = []
            started = time.perf_counter_ns()
            sender.send("demaq://b/echo", envelope, source="demaq://a",
                        on_delivered=lambda: outcome.append("ok"),
                        on_failed=outcome.append)
            deadline = time.monotonic() + 5.0
            while not outcome and time.monotonic() < deadline:
                receiver.pump()
                sender.pump()
                time.sleep(0)       # let the transports' reader threads run
            if outcome != ["ok"]:
                raise RuntimeError(f"loopback send failed: {outcome}")
            samples.append((time.perf_counter_ns() - started) / 1000.0)
    finally:
        sender.close()
        receiver.close()
    return {"netio.transport_rtt_us": median(samples)}


class _StubTarget:
    """The least an ``HttpGateway`` wraps: ``app`` + ``enqueue``."""

    def __init__(self, app):
        self.app = app

    def enqueue(self, queue, body, properties=None):
        return "stub"


def gateway_post(app, entry_queue: str, body: bytes) -> dict:
    """POST -> 202 against a gateway whose target does nothing: the
    front door alone, spaced out and back to back."""
    gateway = HttpGateway(_StubTarget(app))
    connection = loadgen.Connection(gateway.host, gateway.port,
                                    f"/enqueue/{entry_queue}")
    try:
        def post_ms() -> float:
            started = time.perf_counter_ns()
            status = connection.post(body)
            if status != 202:
                raise RuntimeError(f"stub gateway answered {status}")
            return (time.perf_counter_ns() - started) / 1e6
        post_ms()                                    # connection warm-up
        spaced = []
        for _ in range(POSTS):
            time.sleep(SPACING_S)
            spaced.append(post_ms())
        back_to_back = [post_ms() for _ in range(POSTS)]
    finally:
        connection.close()
        gateway.close()
    return {"netio.gateway_post_ms.spaced": median(spaced),
            "netio.gateway_post_ms.backtoback": median(back_to_back)}


def replay(app_source: str, corpus: dict[str, list[str]],
           inputs: list[tuple[str, str]], workdir: str) -> dict:
    """Every replayed per-layer timing for one workload's corpus;
    *inputs* are the (queue, body) pairs the run was fed."""
    pairs = _sample(corpus, inputs)
    metrics, docs = xmldm(pairs)
    entry_queue, first = pairs[0]
    payload = first.encode("utf-8")
    metrics.update(compile_and_eval(app_source, docs))
    metrics.update(storage_commits(payload, workdir))
    metrics.update(storage_reads(payload))
    app = compile_application(app_source)
    metrics.update(routing(app, docs))
    metrics.update(transport_rtt(docs[0][1]))
    metrics.update(gateway_post(app, entry_queue, payload))
    return metrics
