"""The six workloads of demaq-e2e: what each one runs and why.

Names are final (``BENCHMARK.json`` lists the same six, each with the
one-line reason it exists).  A workload is
a system configuration plus a loop; the flush policy of each is spelled
out as explicit constructor kwargs — the benchmark never configures the
system through ``DEMAQ_*`` variables.
"""

from __future__ import annotations

from gen import BLOCK

#: Requests per closed-batch wave: enqueue them all, then run to idle.
#: One wave is one stratified block of the generator.
WAVE = BLOCK
#: Untimed waves before the timed ones (answers still checked).
WARMUP_WAVES = 1
#: Untimed POSTs before a gateway window opens (answers still checked).
WARMUP_POSTS = 40
#: Set-ups measured per run (their median is ``setup_s``).
SETUP_REPEATS = 3
#: close() -> ready restarts measured per run (median is ``recover_s``).
RECOVER_REPEATS = 9
#: ... but no further restart once this many seconds went into them: a
#: multi-second replay is steady enough measured once.
RECOVER_BUDGET_S = 4.0

BATCH = {
    "procure_mem": {
        "app": "procurement.qdl", "stream": "procurement",
        "server": {"data_dir": None, "durability": "sync", "batch_size": 1},
        "harvest": "customer", "gc_every": 1000,
        # inputs generated per second of run: ~3x today's rate, so a
        # faster system still finds work for the whole window
        "inputs_per_s": 800,
    },
    "procure_sync": {
        "app": "procurement.qdl", "stream": "procurement",
        "server": {"data_dir": "store", "durability": "sync",
                   "batch_size": 1},
        "harvest": "customer", "gc_every": 1000, "inputs_per_s": 500,
    },
    "procure_group8": {
        "app": "procurement.qdl", "stream": "procurement",
        "server": {"data_dir": "store", "durability": "group",
                   "batch_size": 8},
        "harvest": "customer", "gc_every": 1000, "inputs_per_s": 800,
    },
    "correlate_state": {
        "app": "correlate.qdl", "stream": "correlate",
        "server": {"data_dir": "store", "durability": "async",
                   "batch_size": 1},
        "harvest": "out", "gc_every": 1000, "inputs_per_s": 2500,
    },
}

GATEWAY = {
    "gateway_open32": {
        "app": "procurement_gateway.qdl", "nodes": 2,
        "loop": "open", "rate": 32, "connections": 2,
    },
    "gateway_closed2": {
        "app": "procurement_gateway.qdl", "nodes": 2,
        "loop": "closed", "connections": 2,
        # closed-loop requests generated per second of run (the front
        # door does ~45/s today; the cluster behind it ~350/s)
        "inputs_per_s": 500,
    },
}

NAMES = list(BATCH) + list(GATEWAY)
