"""demaq-e2e: the repository's one benchmark.

One workload, as the benchmark driver runs it (the last line printed is
the result object ``{"correct", "attempted", "failed", "metrics"}``)::

    python3 benchmarks/e2e/run.py --workload procure_sync --seed 1 \\
        --seconds 10 --trace 0

Every workload, each in a fresh process on a fresh temp dir, with a
summary table (add ``--trace 1`` for the per-layer run, ``--repeat K``
for K sets with medians and quartiles, ``--quick`` for a harness smoke
test, ``--json FILE`` to keep the result for ``compare.py``)::

    python3 benchmarks/e2e/run.py --seed 1

The names, units, directions and bounds of all metrics live in
``BENCHMARK.json`` at the repository root; this runner refuses to report
a metric set that differs from it.  See ``README.md`` beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys

from common import APPS, OUT, REPO_ROOT, SRC, clean_env, scrub_demaq_env

scrub_demaq_env()
sys.path.insert(0, SRC)

import attribution  # noqa: E402
import batch  # noqa: E402
import gateway  # noqa: E402
import layers  # noqa: E402  (imports repro: fails where src/ is absent)
from workloads import BATCH, GATEWAY, NAMES, SETUP_REPEATS  # noqa: E402

QUICK_DIVISOR = 20


def load_contract() -> dict:
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


# -- one workload ---------------------------------------------------------------

def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 setup_repeats: int) -> dict:
    workdir = os.path.join(OUT, f"run-{name}-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    try:
        if name in BATCH:
            outcome = batch.run(name, seed, seconds, trace, workdir,
                                setup_repeats)
            app_file = BATCH[name]["app"]
            server = BATCH[name]["server"]
            policy = server["durability"] if server["data_dir"] else "mem"
        else:
            outcome = gateway.run(name, seed, seconds, trace, workdir,
                                  setup_repeats)
            app_file = "procurement.qdl"
            policy = "sync"         # the cluster's per-node default
        if trace:
            traced = outcome.pop("traced")
            if name in GATEWAY:
                traced["engine"], traced["engine_counts"] = \
                    batch.engine_replay(
                        [body for _, body in traced["inputs"]],
                        seconds * 0.15, workdir)
            with open(os.path.join(APPS, app_file)) as handle:
                app_source = handle.read()
            replayed = layers.replay(app_source, traced["result"]["corpus"],
                                     traced["inputs"], workdir)
            outcome["per_layer"] = attribution.per_layer(traced, replayed,
                                                         policy)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return outcome


def result_line(outcome: dict, contract: dict, trace: bool) -> dict:
    """The driver-facing result object; metric names and units must be
    exactly those ``BENCHMARK.json`` declares for this kind of run."""
    declared = contract["per_layer" if trace else "end_to_end"]
    measured = outcome["per_layer" if trace else "end_to_end"]
    if set(measured) != {metric["name"] for metric in declared}:
        raise SystemExit(
            "metric set differs from BENCHMARK.json: "
            f"{sorted(set(measured) ^ {m['name'] for m in declared})}")
    return {"correct": outcome["failed"] == 0,
            "attempted": outcome["attempted"], "failed": outcome["failed"],
            "metrics": {metric["name"]: {"value": measured[metric["name"]],
                                         "unit": metric["unit"]}
                        for metric in declared}}


def fingerprint(seed: int, seconds: float) -> dict:
    """Where and on what a result was measured."""
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    fs_type, best = "unknown", -1
    try:
        with open("/proc/mounts") as handle:
            for line in handle:
                _, mount, kind = line.split()[:3]
                if OUT.startswith(mount) and len(mount) > best:
                    fs_type, best = kind, len(mount)
    except OSError:
        pass
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=REPO_ROOT,
                             capture_output=True, text=True,
                             timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    return {"cores": os.cpu_count(), "cpu": cpu,
            "python": f"{platform.python_implementation()} "
                      f"{sys.version.split()[0]} ({platform.python_compiler()})",
            "fs_type": fs_type, "git_sha": sha, "seed": seed,
            "seconds": seconds}


def main_one(args, contract: dict) -> int:
    trace = bool(args.trace)
    outcome = run_workload(args.workload, args.seed, args.seconds, trace,
                           args.setup_repeats)
    line = result_line(outcome, contract, trace)
    print(f"# {args.workload}  seed={args.seed}  seconds={args.seconds}  "
          f"trace={int(trace)}")
    for name, metric in line["metrics"].items():
        print(f"{name:<34}{metric['value']:>16.4f} {metric['unit']}")
    if trace:
        print("attribution (estimated share of timed wall-clock):")
        print(attribution.table(outcome["per_layer"]))
    print(f"attempted={line['attempted']} failed={line['failed']} "
          f"failed_share={line['failed'] / max(1, line['attempted']):.6f}")
    for problem in outcome["problems"]:
        print(f"PROBLEM: {problem}")
    print("DETAIL " + json.dumps({"samples": outcome["samples"],
                                  "tally": outcome["tally"],
                                  "problems": outcome["problems"]}))
    print(json.dumps(line))
    return 0 if line["correct"] else 1


# -- every workload -------------------------------------------------------------

def run_set(args, names: list[str]) -> tuple[dict, bool]:
    """One set: every workload once, each in a process of its own."""
    results, ok = {}, True
    for name in names:
        command = [sys.executable, os.path.abspath(__file__),
                   "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds),
                   "--trace", str(args.trace),
                   "--setup-repeats", str(args.setup_repeats)]
        done = subprocess.run(command, env=clean_env(), capture_output=True,
                              text=True, timeout=600)
        lines = done.stdout.strip().splitlines()
        sys.stdout.write("\n".join(lines[:-2]) + "\n\n")
        if done.returncode != 0 or len(lines) < 2:
            sys.stdout.write(done.stderr)
            ok = False
        if len(lines) >= 2 and lines[-2].startswith("DETAIL "):
            results[name] = dict(json.loads(lines[-1]),
                                 detail=json.loads(lines[-2][7:]))
    return results, ok


def summarise(sets: list[dict], contract: dict, trace: bool) -> dict:
    """Median and quartiles per (metric, workload) over the sets."""
    summary = {}
    for metric in contract["per_layer" if trace else "end_to_end"]:
        for workload in sets[0]:
            values = [s[workload]["metrics"][metric["name"]]["value"]
                      for s in sets if workload in s]
            entry = {"unit": metric["unit"], "n": len(values),
                     "median": statistics.median(values)}
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
                entry.update(q1=q1, q3=q3)
            summary.setdefault(metric["name"], {})[workload] = entry
    return summary


def main_all(args, contract: dict) -> int:
    names = [args.workload] if args.workload else NAMES
    sets, ok = [], True
    for index in range(args.repeat):
        print(f"=== set {index + 1} of {args.repeat} ===")
        results, set_ok = run_set(args, names)
        sets.append(results)
        ok = ok and set_ok
    summary = summarise(sets, contract, bool(args.trace))
    print("=== summary: median [q1 .. q3] per metric and workload ===")
    for metric, per_workload in summary.items():
        for workload, entry in per_workload.items():
            spread = (f"  [{entry['q1']:.4f} .. {entry['q3']:.4f}]"
                      if "q1" in entry else "")
            print(f"{metric:<34}{workload:<18}{entry['median']:>14.4f} "
                  f"{entry['unit']}{spread}")
    failed = sum(r["failed"] for s in sets for r in s.values())
    attempted = sum(r["attempted"] for s in sets for r in s.values())
    document = {"benchmark": "demaq-e2e",
                "host": fingerprint(args.seed, args.seconds),
                "trace": int(args.trace), "quick": args.quick,
                "sets": sets, "summary": summary,
                "failed_share": failed / max(1, attempted),
                "claim": None}
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(document, handle, indent=1)
    print(json.dumps({"host": document["host"], "sets": len(sets),
                      "failed_share": document["failed_share"],
                      "claim": None}))
    return 0 if ok and failed == 0 else 1


def main() -> int:
    # Terminated from outside, still unwind: the finally blocks on the
    # way up stop the SUT processes and remove the temp dir.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    contract = load_contract()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=float(contract["run_seconds"]),
                        help="timed window per workload")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="1: the traced run (per-layer metrics)")
    parser.add_argument("--repeat", type=int, default=0,
                        help="run K sets and report medians and quartiles")
    parser.add_argument("--quick", action="store_true",
                        help="1/20 of the window, one set-up: harness smoke")
    parser.add_argument("--json", help="write the full result here")
    parser.add_argument("--setup-repeats", type=int, default=SETUP_REPEATS,
                        help="set-ups measured per run (median reported)")
    args = parser.parse_args()
    if args.quick:
        args.seconds = args.seconds / QUICK_DIVISOR
        args.setup_repeats = 1
    if args.workload and not args.repeat and not args.json:
        return main_one(args, contract)
    args.repeat = max(1, args.repeat)
    return main_all(args, contract)


if __name__ == "__main__":
    sys.exit(main())
