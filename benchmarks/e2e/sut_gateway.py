"""SUT process for the gateway workloads: a 2-process cluster behind HTTP.

Run as ``python sut_gateway.py <spec.json>`` by ``run.py``.  Boots a
``ProcessCluster`` on the benchmark-owned ``procurement_gateway.qdl``
(default durability, per-node data dirs), puts an ``HttpGateway`` in
front, and registers the reply endpoint ``demaq://gate/loadgen`` that
the app's outgoing ``customer`` gateway delivers to; every decision is
stamped on arrival with ``time.monotonic_ns()`` — a host-wide clock, so
the load generator (another process) can subtract its own send times.

Protocol: prints ``READY <port>`` once ``/health`` answers 200, then
``ARMED`` once the before-run counters are read; on the stdin line
``REPORT`` waits for outstanding decisions, collects counts
and queue contents, restarts the whole cluster on the same data dir
(``recover_s``), shuts down, writes the result JSON and prints ``DONE``.
Workers are always drained or killed on the way out.
"""

from __future__ import annotations

import json
import os
import resource
import signal
import sys
import time
import urllib.request

from common import APPS, SRC, scrub_demaq_env

scrub_demaq_env()
sys.path.insert(0, SRC)

from repro.netio import HttpGateway, ProcessCluster  # noqa: E402
from repro.network import (build_envelope, node_endpoint,  # noqa: E402
                           parse_envelope)
from repro.obs import flatten_snapshot  # noqa: E402
from repro.xmldm import parse, serialize  # noqa: E402

REPLY_ENDPOINT = "demaq://gate/loadgen"
DECISION_WAIT_S = 5.0


class Deployment:
    """The cluster, its front door, and the decisions that came back."""

    def __init__(self, app_source: str, spec: dict, preload: bool):
        self.decisions: list[tuple[int, str]] = []   # (stamp_ns, body text)
        self.closed = False
        self.cluster = ProcessCluster(app_source, nodes=spec["nodes"],
                                      data_dir=spec["data_dir"])
        try:
            self.cluster.transport.register(REPLY_ENDPOINT, self._on_decision)
            self.gateway = HttpGateway(self.cluster)
            if preload:
                self._preload(spec["preload"])
            url = f"{self.gateway.base_url}/health"
            with urllib.request.urlopen(url, timeout=10) as response:
                if response.status != 200:
                    raise RuntimeError(f"/health answered {response.status}")
        except BaseException:
            self.shutdown(graceful=False)
            raise

    def _on_decision(self, envelope, source: str) -> None:
        stamp = time.monotonic_ns()
        body, _ = parse_envelope(envelope)
        self.decisions.append((stamp, serialize(body)))

    def _preload(self, bodies: list[str]) -> None:
        """A full copy of the debtor list on every shard: a request is
        checked on whichever node its requestID hashes to."""
        failures: list[str] = []
        for node in self.cluster.node_names:
            for body in bodies:
                self.cluster.transport.send(
                    node_endpoint(node, "invoices"),
                    build_envelope(parse(body), {}),
                    source="demaq://gate/preload",
                    on_failed=failures.append)
        self.cluster.wait_idle()
        if failures:
            raise RuntimeError(f"preload failed: {failures[:3]}")

    def peak_rss_mb(self) -> float:
        """Coordinator + every worker, each at its own high-water mark."""
        total = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        for worker in self.cluster.workers.values():
            try:
                with open(f"/proc/{worker.proc.pid}/status") as handle:
                    for line in handle:
                        if line.startswith("VmHWM:"):
                            total += int(line.split()[1]) / 1024.0
            except OSError:
                pass
        return total

    def shutdown(self, graceful: bool = True) -> None:
        if self.closed:
            return
        self.closed = True
        gateway = getattr(self, "gateway", None)
        if gateway is not None:
            gateway.close()
        try:
            if graceful:
                self.cluster.drain()
        finally:
            self.cluster.close()


def report(deployment: Deployment, app_source: str, spec: dict) -> dict:
    cluster, gateway = deployment.cluster, deployment.gateway
    deadline = time.monotonic() + DECISION_WAIT_S
    while len(deployment.decisions) < gateway.accepted \
            and time.monotonic() < deadline:
        time.sleep(0.01)
    cluster.wait_idle()
    after = flatten_snapshot(cluster.metrics_snapshot())
    decisions = list(deployment.decisions)
    customer = cluster.queue_texts("customer")
    corpus = {}
    if spec.get("trace"):
        limit = spec.get("corpus_limit", 400)
        corpus = {queue: cluster.queue_texts(queue)[-limit:]
                  for queue in cluster.app.queues}
    rss = deployment.peak_rss_mb()
    accepted, rejected = gateway.accepted, gateway.rejected
    deployment.shutdown()

    # Restart on the run's own state: all workers down -> /health 200.
    started = time.perf_counter()
    reborn = Deployment(app_source, spec, preload=False)
    recover_s = time.perf_counter() - started
    try:
        replayed = flatten_snapshot(reborn.cluster.metrics_snapshot()).get(
            "demaq_store_replayed_records_total", 0)
        identical = sorted(reborn.cluster.queue_texts("customer")) \
            == sorted(customer)
        redelivered = len(reborn.decisions)
    finally:
        reborn.shutdown()
    return {"decisions": decisions, "accepted": accepted,
            "rejected": rejected, "metrics_after": after,
            "customer_depth": len(customer), "corpus": corpus,
            "peak_rss_mb": rss, "recover_s": recover_s,
            "recover_identical": identical and redelivered == 0,
            "replayed_records": replayed}


def main(spec_path: str) -> int:
    with open(spec_path) as handle:
        spec = json.load(handle)
    with open(os.path.join(APPS, spec["app"])) as handle:
        app_source = handle.read()
    # A terminated SUT must still stop its workers: turn SIGTERM into
    # an exception so the shutdown below runs.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    deployment = Deployment(app_source, spec, preload=True)
    try:
        print(f"READY {deployment.gateway.port}", flush=True)
        if spec.get("setup_only"):
            deployment.shutdown()
            return 0
        before = flatten_snapshot(deployment.cluster.metrics_snapshot())
        print("ARMED", flush=True)
        if sys.stdin.readline().strip() != "REPORT":
            deployment.shutdown(graceful=False)
            return 1
        result = report(deployment, app_source, spec)
    except BaseException:
        deployment.shutdown(graceful=False)
        raise
    result["metrics_before"] = before
    with open(spec["result_file"], "w") as handle:
        json.dump(result, handle)
    print("DONE", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
