"""Pure-Python oracle: what the system must answer, from generator fields.

The expected decision for a request depends only on the request's own
fields and the rank-fixed debtor set (``gen.is_debtor``); the expected
answer for a correlation probe only on the preloaded state and the
invoice inserts of the waves up to and including the probe's own (an
insert is committed by ``enqueue`` before the wave is processed, so
every probe of the wave sees it).

Outputs are compared as (id, answer) pairs and every disagreement is
*counted* — missing, duplicate, wrong, unexpected — rather than raised:
the runner turns the counts into ``failed`` and exits non-zero itself.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass

import gen

#: request + three checks + three results + the decision
MESSAGES_PER_REQUEST = 8

_DECISION = re.compile(
    r"<(offer|refusal)>\s*<requestID>\s*([^<\s]+)\s*</requestID>")
_PROBE_ANSWER = re.compile(
    r'<(open|disputed) probe="([^"]+)">\s*(\d+)\s*</')


@dataclass
class Tally:
    """Exactly-once accounting of one run's outputs."""

    attempted: int = 0
    missing: int = 0
    duplicate: int = 0
    wrong: int = 0
    unexpected: int = 0

    @property
    def failed(self) -> int:
        return self.missing + self.duplicate + self.wrong + self.unexpected


def tally(expected: dict[str, str], got: list[tuple[str, str]]) -> Tally:
    """Compare (id, answer) outputs with the expected answer per id."""
    seen = Counter(key for key, _ in got)
    result = Tally(attempted=len(expected))
    result.missing = sum(1 for key in expected if key not in seen)
    result.duplicate = sum(n - 1 for key, n in seen.items()
                           if key in expected)
    result.unexpected = sum(n for key, n in seen.items()
                            if key not in expected)
    result.wrong = sum(1 for key, answer in got
                       if key in expected and answer != expected[key])
    return result


# -- procurement ---------------------------------------------------------------

def expected_decision(request: gen.Request) -> str:
    refused = (gen.is_debtor(request.customer_rank)
               or request.items > gen.PLANT_CAPACITY
               or request.restricted)
    return "refusal" if refused else "offer"


def parse_decisions(texts: list[str]) -> list[tuple[str, str]]:
    """(requestID, offer|refusal) per decision message; a text that is
    no decision at all keeps its place as an unexpected output."""
    out = []
    for text in texts:
        match = _DECISION.search(text)
        out.append((match.group(2), match.group(1)) if match
                   else (f"?{text[:40]}", "?"))
    return out


def check_decisions(requests: list[gen.Request],
                    decisions: list[tuple[str, str]]) -> Tally:
    return tally({r.request_id: expected_decision(r) for r in requests},
                 decisions)


# -- correlation ---------------------------------------------------------------

def expected_probe_answers(waves: list[list[gen.Probe]]) -> dict[str, str]:
    """probe id -> ``open=<n>`` / ``disputed=<n>`` for completed waves."""
    invoices = Counter(rank for rank, _ in gen.corr_preload_invoices())
    disputed = Counter(rank for rank, _ in gen.corr_disputes())
    expected = {}
    for wave in waves:
        invoices.update(p.customer_rank for p in wave if p.kind == "invoice")
        for probe in wave:
            if probe.kind == "credit":
                expected[probe.probe_id] = \
                    f"open={invoices[probe.customer_rank]}"
            elif probe.kind == "dispute":
                expected[probe.probe_id] = \
                    f"disputed={disputed[probe.customer_rank]}"
    return expected


def parse_probe_answers(texts: list[str]) -> list[tuple[str, str]]:
    out = []
    for text in texts:
        match = _PROBE_ANSWER.search(text)
        out.append((match.group(2), f"{match.group(1)}={match.group(3)}")
                   if match else (f"?{text[:40]}", "?"))
    return out


def expected_probe_messages(waves: list[list[gen.Probe]]) -> int:
    """A probe and its answer are two messages, an inserted invoice one."""
    return sum(1 if probe.kind == "invoice" else 2
               for wave in waves for probe in wave)
