"""SUT process for the closed-batch workloads: one in-process DemaqServer.

Run as ``python sut_batch.py <spec.json>`` by ``run.py``.  The spec
names a benchmark-owned QDL app, the explicit server kwargs (flush
policy, batch size, data dir) and the generated inputs; this process
knows nothing about procurement or correlation — it enqueues waves,
runs the server to quiescence, hands back what a named queue holds, and
times only its own calls into the public ``DemaqServer`` surface
(``enqueue / step / run_until_idle / collect_garbage / close``).

Protocol on stdout: ``READY`` once the server is constructed and its
state preloaded (the parent times process start → READY as ``setup_s``),
``DONE`` after the result JSON is written.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time

from common import APPS, SRC, SpanLog, scrub_demaq_env

scrub_demaq_env()
sys.path.insert(0, SRC)

from repro import DemaqServer  # noqa: E402


def build_server(app_source: str, spec: dict, preload: bool) -> DemaqServer:
    server = DemaqServer(app_source, **spec["server"])
    if preload:
        for queue, body in spec["preload"]:
            server.enqueue(queue, body)
        server.run_until_idle()
    return server


def run_wave(server: DemaqServer, wave: list, enqueue_ns: list[int]) -> None:
    for queue, body, _ in wave:
        started = time.perf_counter_ns()
        server.enqueue(queue, body)
        enqueue_ns.append(time.perf_counter_ns() - started)
    server.run_until_idle()


def run_wave_traced(server: DemaqServer, wave: list, enqueue_ns: list[int],
                    log: SpanLog) -> None:
    """The same wave with a span around every call this process makes;
    ``step()`` is looped by hand so each step gets its own span."""
    wave_span = log.add("wave", time.monotonic_ns(), 0)
    request_spans = []
    for queue, body, request_id in wave:
        started = time.monotonic_ns()
        server.enqueue(queue, body)
        ended = time.monotonic_ns()
        enqueue_ns.append(ended - started)
        request = log.add("gen.request", started, 0, wave_span, request_id)
        log.add("engine.enqueue", started, ended, request, request_id)
        request_spans.append(request)
    while True:
        started = time.monotonic_ns()
        worked = server.step()
        if not worked:
            break
        log.add("engine.step", started, time.monotonic_ns(), wave_span)
    ended = time.monotonic_ns()
    for request in request_spans:       # a request ends with its wave
        log.spans[request][2] = ended
    log.spans[wave_span][2] = ended


def main(spec_path: str) -> int:
    with open(spec_path) as handle:
        spec = json.load(handle)
    with open(os.path.join(APPS, spec["app"])) as handle:
        app_source = handle.read()
    durable = spec["server"].get("data_dir") is not None
    server = build_server(app_source, spec, preload=True)
    print("READY", flush=True)
    if spec.get("setup_only"):
        server.close()
        return 0

    result = measure(server, app_source, spec, durable)
    with open(spec["result_file"], "w") as handle:
        json.dump(result, handle)
    print("DONE", flush=True)
    return 0


def measure(server: DemaqServer, app_source: str, spec: dict,
            durable: bool) -> dict:
    with open(spec["waves_file"]) as handle:
        waves = json.load(handle)
    traced = bool(spec.get("trace"))
    log = SpanLog()
    harvest_queue = spec["harvest"]
    harvested: list[str] = []
    enqueue_ns: list[int] = []
    wave_ns: list[int] = []
    gc_ns: list[int] = []
    budget_ns = int(spec["seconds"] * 1e9)
    timed_ns = 0
    requests = since_gc = waves_done = 0

    # Caches fill and lazy set-up finishes on the first wave(s): they
    # are run and their answers checked like any other, but not timed.
    warmup = spec["warmup_waves"]
    for wave in waves[:warmup]:
        run_wave(server, wave, [])
        since_gc += len(wave)

    before = server.metrics.values()
    for wave in waves[warmup:]:
        if timed_ns >= budget_ns:
            break
        started = time.perf_counter_ns()
        if traced:
            run_wave_traced(server, wave, enqueue_ns, log)
        else:
            run_wave(server, wave, enqueue_ns)
        elapsed = time.perf_counter_ns() - started
        wave_ns.append(elapsed)
        timed_ns += elapsed
        waves_done += 1
        requests += len(wave)
        since_gc += len(wave)
        if since_gc >= spec["gc_every"]:
            # Reading the answers out is the consumer's work, not the
            # system's: untimed.  Reclaiming them is the system's.
            harvested.extend(server.queue_texts(harvest_queue))
            started = time.perf_counter_ns()
            span_start = time.monotonic_ns()
            server.collect_garbage()
            elapsed = time.perf_counter_ns() - started
            if traced:
                log.add("engine.gc", span_start, time.monotonic_ns())
            gc_ns.append(elapsed)
            timed_ns += elapsed
            since_gc = 0
    after = server.metrics.values()

    harvested.extend(server.queue_texts(harvest_queue))
    corpus = {}
    if traced:
        limit = spec.get("corpus_limit", 400)
        corpus = {queue: server.queue_texts(queue)[-limit:]
                  for queue in server.app.queues}
        if not gc_ns:
            # A short traced run may end before its first collection
            # is due; engine.gc_ms still needs one sample.
            started = time.monotonic_ns()
            server.collect_garbage()
            gc_ns.append(time.monotonic_ns() - started)
            timed_ns += gc_ns[-1]
            log.add("engine.gc", started, started + gc_ns[-1])
    tail = server.queue_texts(harvest_queue)

    # Restart on the run's own state: close() -> constructed and ready.
    recover_s: list[float] = []
    identical = True
    replayed = 0
    while len(recover_s) < spec["recover_repeats"] \
            and sum(recover_s) < spec["recover_budget_s"]:
        span_start = time.monotonic_ns()
        started = time.perf_counter()
        server.close()
        server = build_server(app_source, spec, preload=not durable)
        recover_s.append(time.perf_counter() - started)
        if traced:
            log.add("storage.recover", span_start, time.monotonic_ns())
        replayed = server.metrics.values().get(
            "demaq_store_replayed_records_total", 0)
        if durable and server.queue_texts(harvest_queue) != tail:
            identical = False

    checkpoint_ms = None
    if traced:
        started = time.perf_counter()
        server.checkpoint()
        checkpoint_ms = (time.perf_counter() - started) * 1000.0
        log.write(spec["spans_file"])
    server.close()

    return {"requests": requests, "waves": waves_done, "warmup_waves": warmup,
            "timed_s": timed_ns / 1e9,
            "wave_ns": wave_ns, "enqueue_ns": enqueue_ns, "gc_ns": gc_ns,
            "harvested": harvested,
            "metrics_before": before, "metrics_after": after,
            "recover_s": recover_s, "recover_identical": identical,
            "replayed_records": replayed,
            "checkpoint_ms": checkpoint_ms,
            "step_us": log.durations_us("engine.step"),
            "corpus": corpus,
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0}


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
