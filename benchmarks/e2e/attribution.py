"""From one traced run to the per-layer metrics and the attribution table.

Inputs are what the traced run left behind: the spans the benchmark
recorded around its own calls (already reduced to per-call lists by the
SUT process), the deltas of the public ``MetricsRegistry`` counters over
the run, and the replayed per-call timings from ``layers.py``.

The attribution table estimates, per layer, ``time per call x number of
such calls / timed wall-clock`` — an estimate built from outside, not a
profile.  ``engine`` is what remains of the time spent inside
``enqueue / step / collect_garbage`` once the layers below it are
subtracted (its self time); whatever wall-clock lies outside every
attributed call is ``unattributed_share``.  On the gateway workloads the
layers run in several processes at once, so their shares can sum past 1
and ``unattributed_share`` go negative: that is overlap, not an error.
"""

from __future__ import annotations

from common import median

LAYERS = ("xmldm", "xquery", "engine", "storage", "cluster", "network",
          "netio")


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _inner_seconds(counts: dict, external: int, replayed: dict,
                   policy: str) -> dict[str, float]:
    """Estimated seconds inside xmldm, xquery and storage for a run with
    the given registry deltas; *external* enqueues are parsed on entry."""
    parses = counts.get("demaq_store_body_parses_total", 0) + external
    inserts = counts.get("demaq_store_inserts_total", 0)
    return {
        "xmldm": (replayed["xmldm.parse_us"] * parses
                  + replayed["xmldm.serialize_us"] * inserts) / 1e6,
        "xquery": replayed["xquery.eval_us"]
        * counts.get("demaq_executor_rules_evaluated_total", 0) / 1e6,
        "storage": replayed[f"storage.commit_us.{policy}"]
        * counts.get("demaq_groupcommit_commits_total", 0) / 1e6,
    }


def per_layer(traced: dict, replayed: dict, policy: str) -> dict:
    """Every per-layer metric of one traced run, by name."""
    counts, result = traced["counts"], traced["result"]
    engine, engine_counts = traced["engine"], traced["engine_counts"]
    messages = counts.get("demaq_executor_messages_processed_total", 0)
    commits = counts.get("demaq_groupcommit_commits_total", 0)
    frames = counts.get("demaq_net_frames_sent_total", 0)
    hits = counts.get("demaq_buffer_hits_total", 0)
    cache_hits = counts.get("demaq_store_parse_cache_hits_total", 0)
    wal_bytes = (counts.get("demaq_wal_size_bytes", 0)
                 + counts.get("demaq_wal_truncated_bytes_total", 0))
    recover_s = result["recover_s"]
    if isinstance(recover_s, list):
        recover_s = median(recover_s)

    metrics = dict(replayed)
    metrics.update({
        "engine.enqueue_us": median(engine["enqueue_ns"]) / 1000.0,
        "engine.step_us": median(engine["step_us"]),
        "engine.gc_ms": median(engine["gc_ns"]) / 1e6,
        "engine.rules_evaluated_per_msg": _ratio(
            counts.get("demaq_executor_rules_evaluated_total", 0), messages),
        "engine.rules_skipped_per_msg": _ratio(
            counts.get("demaq_executor_rules_skipped_by_prefilter_total", 0),
            messages),
        "engine.requeues": counts.get("demaq_scheduler_requeues_total", 0),
        "engine.deadlock_retries": counts.get(
            "demaq_executor_deadlock_retries_total", 0),
        "engine.batch_fill_mean": _ratio(
            counts.get("demaq_executor_batch_fill_sum", 0),
            counts.get("demaq_executor_batch_fill_count", 0)),
        "storage.wal_forces_per_commit": _ratio(
            counts.get("demaq_wal_forces_total", 0), commits),
        "storage.wal_bytes_per_msg": _ratio(wal_bytes, messages),
        "storage.buffer_hit_ratio": _ratio(
            hits, hits + counts.get("demaq_buffer_misses_total", 0)),
        "storage.parse_cache_hit_ratio": _ratio(
            cache_hits,
            cache_hits + counts.get("demaq_store_body_parses_total", 0)),
        "storage.replay_us_per_record": _ratio(
            recover_s * 1e6, result["replayed_records"]),
        "storage.checkpoint_ms": engine["checkpoint_ms"],
        "netio.frames_per_decision": _ratio(frames, traced["decisions"]),
    })

    # -- attribution: estimated share of the timed wall-clock per layer ------
    run_s = _ratio(messages, traced["traced_msgs_per_s"])
    seconds = _inner_seconds(counts, len(traced["inputs"]), replayed, policy)
    # engine self time per message, from the spans around enqueue / step /
    # collect_garbage of the in-process run the engine numbers came from
    engine_inner = _inner_seconds(engine_counts, engine["requests"],
                                  replayed, policy)
    covered_s = (sum(engine["step_us"]) / 1e6 + sum(engine["enqueue_ns"]) / 1e9
                 + sum(engine["gc_ns"]) / 1e9)
    engine_self_s = max(0.0, covered_s - sum(engine_inner.values()))
    seconds["engine"] = engine_self_s * _ratio(
        messages,
        engine_counts.get("demaq_executor_messages_processed_total", 0))
    posts = traced["posts"]
    seconds["cluster"] = replayed["cluster.route_us"] * posts / 1e6
    seconds["network"] = replayed["network.envelope_us"] * frames / 1e6
    # A POST blocks its connection for the spaced or the back-to-back
    # time, whichever way the workload sends; connections wait in parallel.
    post_ms = replayed[f"netio.gateway_post_ms.{traced['post_kind']}"]
    seconds["netio"] = (post_ms * posts / 1e3 / traced["connections"]
                        + replayed["netio.transport_rtt_us"] * frames / 1e6)
    shares = {f"share.{layer}": _ratio(seconds[layer], run_s)
              for layer in LAYERS}
    metrics.update(shares)
    metrics["unattributed_share"] = 1.0 - sum(shares.values())
    metrics["trace_overhead_share"] = 1.0 - _ratio(
        traced["traced_msgs_per_s"], traced["untraced_msgs_per_s"])
    return metrics


def table(metrics: dict) -> str:
    """The printed "where the time goes" table of one workload."""
    rows = [f"  {layer:<12}{metrics['share.' + layer]:>8.1%}"
            for layer in LAYERS]
    rows.append(f"  {'unattributed':<12}{metrics['unattributed_share']:>8.1%}")
    rows.append(f"  {'(tracing overhead':<12} "
                f"{metrics['trace_overhead_share']:.1%} of untraced rate)")
    return "\n".join(rows)
