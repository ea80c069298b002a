"""Compare two demaq-e2e results under the bounds of ``BENCHMARK.json``.

    python3 benchmarks/e2e/compare.py a.json b.json

Both files come from ``run.py --repeat K --json FILE``.  One row per
(end-to-end metric, workload): the median of each side, how much worse
*b* is than *a* in the metric's own direction, the widest run-to-run
spread of either side (distance between the quartiles over the median),
and a verdict:

* ``ok`` — *b* is not worse than *a* by more than the metric's bound;
* ``worse`` — it is;
* ``unresolved`` — the spread is wider than the bound, so the bound
  cannot be checked on these runs: run longer or more sets.

A difference smaller than the metric's absolute floor is ``ok`` whatever
its share: millisecond-scale values do not flap.  Exits non-zero unless
every row is ``ok``.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

from common import REPO_ROOT

#: Absolute floors, in the metric's unit, below which a difference is noise.
FLOORS = {"setup_s": 0.05, "recover_s": 0.05, "post_p50_ms": 0.5}


def values(document: dict, metric: str, workload: str) -> list[float]:
    return [result["metrics"][metric]["value"]
            for results in document["sets"]
            for name, result in results.items() if name == workload]


def spread(samples: list[float]) -> float:
    if len(samples) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(samples, n=4)
    return (q3 - q1) / statistics.median(samples)


def rows(a: dict, b: dict, contract: dict):
    for metric in contract["end_to_end"]:
        for workload in (w["name"] for w in contract["workloads"]):
            side_a = values(a, metric["name"], workload)
            side_b = values(b, metric["name"], workload)
            if not side_a or not side_b:
                continue
            median_a = statistics.median(side_a)
            median_b = statistics.median(side_b)
            change = (median_b - median_a) / median_a
            worse_by = change if metric["better"] == "lower" else -change
            widest = max(spread(side_a), spread(side_b))
            if abs(median_b - median_a) < FLOORS.get(metric["name"], 0.0):
                verdict = "ok"
            elif widest > metric["bound"]:
                verdict = "unresolved"
            elif worse_by > metric["bound"]:
                verdict = "worse"
            else:
                verdict = "ok"
            yield (metric["name"], workload, metric["unit"], median_a,
                   median_b, worse_by, widest, metric["bound"], verdict)


def main(path_a: str, path_b: str) -> int:
    with open(path_a) as handle:
        a = json.load(handle)
    with open(path_b) as handle:
        b = json.load(handle)
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json")) as handle:
        contract = json.load(handle)
    print(f"{'metric':<18}{'workload':<18}{'a':>12}{'b':>12} unit  "
          f"{'worse by':>9}{'spread':>8}{'bound':>7}  verdict")
    bad = 0
    for (metric, workload, unit, median_a, median_b, worse_by, widest,
         bound, verdict) in rows(a, b, contract):
        bad += verdict != "ok"
        print(f"{metric:<18}{workload:<18}{median_a:>12.4f}{median_b:>12.4f} "
              f"{unit:<5}{worse_by:>+9.1%}{widest:>8.1%}{bound:>7.0%}  "
              f"{verdict}")
    print(f"{bad} row(s) not ok")
    return 1 if bad else 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1], sys.argv[2]))
