"""Parent side of the four closed-batch workloads.

Generates the inputs, spawns ``sut_batch.py`` on a fresh temp dir
(several times for set-up alone, once for the measured run), checks
what came back against the oracle and turns it into metrics.
"""

from __future__ import annotations

import json
import math
import os
import shutil

import gen
import oracle
from common import (HERE, SutProcess, flat_delta, median, percentile,
                    time_setup_only)
from workloads import (BATCH, RECOVER_BUDGET_S, RECOVER_REPEATS,
                       SETUP_REPEATS, WARMUP_WAVES, WAVE)

SUT = os.path.join(HERE, "sut_batch.py")


def build_inputs(config: dict, seed: int, seconds: float):
    """(preload, waves of generator objects) for one workload."""
    count = WAVE * (WARMUP_WAVES
                    + math.ceil(config["inputs_per_s"] * seconds / WAVE))
    if config["stream"] == "procurement":
        preload = [["invoices", body] for body in gen.debtor_invoices()]
        return preload, gen.waves(gen.requests(seed, count), WAVE)
    preload = [["invoices", body] for _, body in gen.corr_preload_invoices()]
    preload += [["disputes", body] for _, body in gen.corr_disputes()]
    return preload, gen.waves(gen.probes(seed, count), WAVE)


def wire_wave(stream: str, wave: list) -> list:
    """[queue, body, id] triples: all the SUT process ever sees."""
    if stream == "procurement":
        return [["crm", r.body(), r.request_id] for r in wave]
    return [[p.queue, p.body(), p.probe_id] for p in wave]


def fresh_store(spec: dict, workdir: str, tag: str) -> dict:
    """A copy of *spec* whose data dir is a new directory of its own."""
    spec = dict(spec, server=dict(spec["server"]))
    if spec["server"]["data_dir"] is not None:
        spec["server"]["data_dir"] = os.path.join(workdir, f"store-{tag}")
    return spec


def run_child(base_spec: dict, workdir: str, tag: str, seconds: float,
              trace: bool, **overrides) -> tuple[dict, float]:
    """One measured SUT run; returns its result JSON and its set-up time."""
    spec = fresh_store(base_spec, workdir, tag)
    spec.update(overrides, seconds=seconds, trace=trace,
                result_file=os.path.join(workdir, f"result-{tag}.json"),
                spans_file=base_spec.get("spans_file"))
    sut = SutProcess(SUT, spec, workdir, tag)
    try:
        sut.wait()
    finally:
        sut.kill()
    with open(spec["result_file"]) as handle:
        return json.load(handle), sut.setup_s


def measure_setups(base_spec: dict, workdir: str, repeats: int) -> list[float]:
    """Boot-to-ready of set-up-only SUT processes, each on a fresh dir."""
    samples = []
    for index in range(repeats):
        spec = fresh_store(base_spec, workdir, f"setup{index}")
        samples.append(time_setup_only(SUT, spec, workdir, f"setup{index}"))
        if spec["server"]["data_dir"] is not None:
            shutil.rmtree(spec["server"]["data_dir"], ignore_errors=True)
    return samples


def verify(config: dict, waves: list, result: dict) -> tuple[oracle.Tally, int]:
    """Oracle check of one child result: the tally over every wave it
    ran, and the message count expected of the timed waves."""
    done = waves[:WARMUP_WAVES + result["waves"]]
    timed = done[WARMUP_WAVES:]
    if config["stream"] == "procurement":
        tally = oracle.check_decisions(
            [request for wave in done for request in wave],
            oracle.parse_decisions(result["harvested"]))
        return tally, oracle.MESSAGES_PER_REQUEST * sum(map(len, timed))
    tally = oracle.tally(oracle.expected_probe_answers(done),
                         oracle.parse_probe_answers(result["harvested"]))
    tally.attempted = sum(map(len, done))
    return tally, oracle.expected_probe_messages(timed)


def end_to_end(result: dict, tally: oracle.Tally, setups: list[float],
               counts: dict) -> dict:
    wave_ms = [ns / 1e6 for ns in result["wave_ns"]]
    waves = result["waves"]
    # Seconds one wave costs: the median wave (a disturbed wave or two
    # do not move it) plus its share of the garbage collections.
    wave_s = median(wave_ms) / 1e3 + sum(result["gc_ns"]) / 1e9 / waves
    answered = tally.attempted - tally.missing - tally.wrong
    return {
        "msgs_per_s": counts["demaq_executor_messages_processed_total"]
        / waves / wave_s,
        # the tally covers the warm-up waves too; a wave is a wave
        "decisions_per_s": answered / (WARMUP_WAVES + waves) / wave_s,
        # what a caller of a batch waits: submit a wave -> all answered
        "decision_p50_ms": median(wave_ms),
        "decision_p95_ms": percentile(wave_ms, 95),
        # the submit acknowledgement: one enqueue() call
        "post_p50_ms": median(result["enqueue_ns"]) / 1e6,
        "recover_s": median(result["recover_s"]),
        "peak_rss_mb": result["peak_rss_mb"],
        "setup_s": median(setups),
    }


def run(name: str, seed: int, seconds: float, trace: bool,
        workdir: str, setup_repeats: int = SETUP_REPEATS) -> dict:
    config = BATCH[name]
    preload, waves = build_inputs(config, seed, seconds)
    wired = [wire_wave(config["stream"], wave) for wave in waves]
    waves_file = os.path.join(workdir, "waves.json")
    with open(waves_file, "w") as handle:
        json.dump(wired, handle)
    base_spec = {"app": config["app"], "server": config["server"],
                 "preload": preload, "waves_file": waves_file,
                 "harvest": config["harvest"], "gc_every": config["gc_every"],
                 "warmup_waves": WARMUP_WAVES,
                 "recover_repeats": RECOVER_REPEATS,
                 "recover_budget_s": RECOVER_BUDGET_S,
                 "spans_file": os.path.join(
                     os.path.dirname(workdir), f"trace_{name}.json")}

    if not trace:
        setups = measure_setups(base_spec, workdir, setup_repeats - 1)
        result, setup_s = run_child(base_spec, workdir, "run", seconds, False)
        setups.append(setup_s)
        traced = None
    else:
        # Reference rate first (tracing off), then the traced run on
        # the same inputs; their ratio is the tracing overhead.
        result, setup_s = run_child(base_spec, workdir, "ref",
                                    seconds * 0.3, False, recover_repeats=0)
        traced, _ = run_child(base_spec, workdir, "traced",
                              seconds * 0.4, True)
        setups = [setup_s]

    checked = traced if traced is not None else result
    tally, expected_messages = verify(config, waves, checked)
    counts = flat_delta(checked["metrics_before"], checked["metrics_after"])
    processed = counts["demaq_executor_messages_processed_total"]
    problems = []
    if processed != expected_messages:
        problems.append(f"processed {processed} messages, "
                        f"oracle expects {expected_messages}")
    if not checked["recover_identical"]:
        problems.append(f"{config['harvest']} queue differs after reopen")
    out = {"workload": name, "attempted": tally.attempted,
           "failed": tally.failed + len(problems), "problems": problems,
           "tally": vars(tally),
           "samples": {"waves": checked["waves"],
                       "requests": checked["requests"],
                       "timed_s": checked["timed_s"],
                       "setups": len(setups),
                       "recoveries": len(checked["recover_s"])}}
    if traced is None:
        out["end_to_end"] = end_to_end(result, tally, setups, counts)
    else:
        ref_counts = flat_delta(result["metrics_before"],
                                result["metrics_after"])
        out["traced"] = {
            "result": traced, "counts": counts,
            "untraced_msgs_per_s":
                ref_counts["demaq_executor_messages_processed_total"]
                / result["timed_s"],
            "engine": traced, "engine_counts": counts,
            "traced_msgs_per_s": processed / traced["timed_s"],
            "decisions": tally.attempted - tally.missing,
            "posts": 0, "connections": 1, "post_kind": "spaced",
            "inputs": [(queue, body) for wave
                       in wired[WARMUP_WAVES:WARMUP_WAVES + traced["waves"]]
                       for queue, body, _ in wave],
        }
    return out


def engine_replay(bodies: list[str], seconds: float, workdir: str
                  ) -> tuple[dict, dict]:
    """The gateway workloads' engine-level numbers: their own requests,
    traced through one in-process server under the cluster's per-node
    defaults (durable, sync, batch_size 1).  Returns the child result
    and its registry deltas."""
    waves_file = os.path.join(workdir, "replay-waves.json")
    with open(waves_file, "w") as handle:
        json.dump(gen.waves([["crm", body, None] for body in bodies], WAVE),
                  handle)
    spec = {"app": "procurement.qdl",
            "server": dict(BATCH["procure_sync"]["server"]),
            "preload": [["invoices", body]
                        for body in gen.debtor_invoices()],
            "waves_file": waves_file, "harvest": "customer",
            "gc_every": BATCH["procure_sync"]["gc_every"],
            "warmup_waves": 0, "recover_repeats": 1, "recover_budget_s": RECOVER_BUDGET_S,
            "spans_file": os.path.join(workdir, "replay-spans.json")}
    result, _ = run_child(spec, workdir, "replay", seconds, True)
    return result, flat_delta(result["metrics_before"],
                              result["metrics_after"])
