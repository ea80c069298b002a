"""Parent side of the two gateway workloads: this process is the load
generator; the system under test is ``sut_gateway.py`` in a process of
its own (which in turn owns the worker processes)."""

from __future__ import annotations

import json
import math
import os
import shutil

import gen
import loadgen
import oracle
from common import (HERE, SpanLog, SutProcess, flat_delta, median,
                    percentile, time_setup_only)
from workloads import GATEWAY, SETUP_REPEATS, WARMUP_POSTS

SUT = os.path.join(HERE, "sut_gateway.py")
HOST = "127.0.0.1"
PATH = "/enqueue/crm"
#: An open-loop run whose generator ran later than this (p95) measured
#: the generator, not the system: it is reported as invalid.
MAX_LATE_P95_MS = 5.0
#: Share of ``--seconds`` the untraced / traced phase of a traced run gets.
REFERENCE_SHARE, TRACED_SHARE = 0.3, 0.4


def drive(config: dict, port: int, payload: list[tuple[str, bytes]],
          seconds: float) -> tuple[list[loadgen.Sent], int]:
    if config["loop"] == "open":
        count = int(config["rate"] * seconds)
        return loadgen.open_loop(HOST, port, PATH, payload[:count],
                                 config["rate"], config["connections"])
    return loadgen.closed_loop(HOST, port, PATH, payload, seconds,
                               config["connections"])


def spans_of(records: list[loadgen.Sent], stamps: dict[str, int],
             log: SpanLog) -> None:
    """``netio.post`` ▸ ``decision`` per request, from the timestamps the
    generator and the reply endpoint took anyway."""
    for record in records:
        post = log.add("netio.post", record.sent_ns, record.replied_ns,
                       None, record.request_id)
        stamp = stamps.get(record.request_id)
        if stamp is not None:
            log.add("decision", record.due_ns, stamp, post,
                    record.request_id)


def run(name: str, seed: int, seconds: float, trace: bool,
        workdir: str, setup_repeats: int = SETUP_REPEATS) -> dict:
    config = GATEWAY[name]
    per_s = config["rate"] if config["loop"] == "open" \
        else config["inputs_per_s"]
    requests = gen.requests(seed, WARMUP_POSTS + math.ceil(per_s * seconds))
    payload = [(r.request_id, r.body().encode("utf-8")) for r in requests]
    by_id = {r.request_id: r for r in requests}

    def spec_for(tag: str, **extra) -> dict:
        return dict({"app": config["app"], "nodes": config["nodes"],
                     "data_dir": os.path.join(workdir, f"store-{tag}"),
                     "preload": gen.debtor_invoices(),
                     "result_file": os.path.join(workdir,
                                                 f"result-{tag}.json")},
                    **extra)

    setups = []
    for index in range(0 if trace else setup_repeats - 1):
        spec = spec_for(f"setup{index}")
        setups.append(time_setup_only(SUT, spec, workdir, f"setup{index}"))
        shutil.rmtree(spec["data_dir"], ignore_errors=True)

    spec = spec_for("run", trace=trace)
    sut = SutProcess(SUT, spec, workdir, "run")
    try:
        setups.append(sut.setup_s)
        port = int(sut.ready[1])
        sut.expect("ARMED")
        # Cold workers answer their first requests several times slower:
        # those POSTs are sent and checked like the rest, but not timed.
        warmup, _ = loadgen.closed_loop(HOST, port, PATH,
                                        payload[:WARMUP_POSTS], 60.0,
                                        config["connections"])
        payload = payload[WARMUP_POSTS:]
        reference = []
        if trace:
            # Reference phase first; the traced phase continues on the
            # same deployment with the next slice of the same inputs.
            reference, ref_start = drive(config, port, payload,
                                         seconds * REFERENCE_SHARE)
            payload = payload[len(reference):]
            seconds *= TRACED_SHARE
        records, start_ns = drive(config, port, payload, seconds)
        sut.tell("REPORT")
        sut.expect("DONE")
        sut.wait()
    finally:
        sut.kill()
    with open(spec["result_file"]) as handle:
        result = json.load(handle)

    all_records = warmup + reference + records
    decisions = oracle.parse_decisions([text for _, text
                                        in result["decisions"]])
    stamps: dict[str, int] = {}
    for (stamp, _), (request_id, _) in zip(result["decisions"], decisions):
        stamps.setdefault(request_id, stamp)
    accepted = [r for r in all_records if r.status == 202]
    tally = oracle.check_decisions([by_id[r.request_id] for r in accepted],
                                   decisions)
    tally.attempted = len(all_records)
    refused = len(all_records) - len(accepted)

    counts = flat_delta(result["metrics_before"], result["metrics_after"])
    processed = counts["demaq_executor_messages_processed_total"]
    expected = oracle.MESSAGES_PER_REQUEST * len(accepted)
    problems = []
    if processed != expected:
        problems.append(f"processed {processed} messages, "
                        f"oracle expects {expected}")
    if not result["recover_identical"]:
        problems.append("customer queue differs after restart")
    late_ms = [r.late_ns / 1e6 for r in records]
    late_p95 = percentile(late_ms, 95) if late_ms else 0.0
    if config["loop"] == "open" and late_p95 > MAX_LATE_P95_MS:
        problems.append(f"invalid run: generator lateness p95 "
                        f"{late_p95:.2f} ms > {MAX_LATE_P95_MS} ms")

    def rates(phase: list[loadgen.Sent], phase_start: int) -> dict:
        """Throughput of one load phase: first send -> last decision."""
        done = [stamps[r.request_id] for r in phase
                if r.request_id in stamps]
        span_s = (max(done) - phase_start) / 1e9 if done else float("nan")
        return {"decisions_per_s": len(done) / span_s,
                "msgs_per_s": oracle.MESSAGES_PER_REQUEST * len(done)
                / span_s}

    out = {"workload": name, "attempted": tally.attempted,
           "failed": tally.failed + refused + len(problems),
           "problems": problems, "tally": dict(vars(tally), not_202=refused),
           "samples": {"requests": len(records),
                       "decisions": len(stamps),
                       "connections": config["connections"],
                       "gen_late_p95_ms": late_p95,
                       "setups": len(setups)}}
    if not trace:
        decision_ms = [(stamps[r.request_id] - r.due_ns) / 1e6
                       for r in records if r.request_id in stamps]
        post_ms = [(r.replied_ns - r.sent_ns) / 1e6
                   for r in records if r.status]
        out["end_to_end"] = dict(
            rates(records, start_ns),
            decision_p50_ms=median(decision_ms),
            decision_p95_ms=percentile(decision_ms, 95),
            post_p50_ms=median(post_ms),
            recover_s=result["recover_s"],
            peak_rss_mb=result["peak_rss_mb"],
            setup_s=median(setups))
    else:
        log = SpanLog()
        spans_of(records, stamps, log)
        log.write(os.path.join(os.path.dirname(workdir),
                               f"trace_{name}.json"))
        out["traced"] = {
            "result": result, "counts": counts,
            "untraced_msgs_per_s": rates(reference, ref_start)["msgs_per_s"],
            "traced_msgs_per_s": rates(records, start_ns)["msgs_per_s"],
            "decisions": len(stamps),
            "posts": len(all_records), "connections": config["connections"],
            "post_kind": "spaced" if config["loop"] == "open"
            else "backtoback",
            "inputs": [("crm", body.decode("utf-8")) for _, body
                       in payload[:len(records)]],
        }
    return out
