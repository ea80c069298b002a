"""Seeded input generator for the demaq-e2e benchmark.

Everything a workload feeds the system comes from here, built from the
seed alone and fully materialised before any timer starts.  The module
is pure Python (it never imports ``repro``): the system under test only
ever receives the generated XML strings.

Two families of inputs:

* procurement offer requests (Fig. 3/4 of the paper) for the
  ``procure_*`` and ``gateway_*`` workloads;
* correlation state and probes for ``correlate_state``.

Which customers are debtors, and what the preloaded state looks like, is
fixed by rank rather than drawn per seed, and the request kinds are
stratified: every block of 100 consecutive inputs holds exactly the
stated share of each kind, in a seeded order.  A seed changes which
requests arrive and when, not how much work a block is, so runs on
different seeds measure the same mix.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

# -- procurement ---------------------------------------------------------------

#: Inputs are stratified per block of this many (also the wave size).
BLOCK = 100

CUSTOMERS = 500
ZIPF_S = 1.1
RESTRICTED_PER_BLOCK = 5
LARGE_PER_BLOCK = 10
MAX_ITEMS = 5          # 1..5 items, each count equally often per block
#: Orders above this many items exceed plant capacity (Fig. 3).
PLANT_CAPACITY = 3
#: ~1.5 KiB of notes: the record-size dimension.
NOTES = "<notes>" + "lorem ipsum dolor sit amet " * 56 + "</notes>"


def customer_id(rank: int) -> str:
    return f"c{rank:04d}"


def is_debtor(rank: int) -> bool:
    """Ranks 5, 15, 25, ...: 10 % of customers, ~9 % of Zipf traffic."""
    return rank % 10 == 5


def _zipf_cumulative(population: int, s: float) -> list[float]:
    return list(itertools.accumulate(rank ** -s
                                     for rank in range(1, population + 1)))


@dataclass(frozen=True)
class Request:
    """One offer request; the oracle decides from these fields alone."""

    request_id: str
    customer_rank: int
    items: int
    restricted: bool
    large: bool

    def body(self) -> str:
        items = "".join(
            "<item%s>substance-%d</item>"
            % (' restricted="true"' if self.restricted and k == 0 else "", k)
            for k in range(self.items))
        return (f"<offerRequest><requestID>{self.request_id}</requestID>"
                f"<customerID>{customer_id(self.customer_rank)}</customerID>"
                f"<items>{items}</items>"
                f"{NOTES if self.large else ''}</offerRequest>")


def _shuffled_blocks(rng: random.Random, block: list, count: int) -> list:
    """*count* values: *block* reshuffled as often as needed."""
    out: list = []
    while len(out) < count:
        out.extend(rng.sample(block, len(block)))
    return out[:count]


def _flags(per_block: int) -> list[bool]:
    return [True] * per_block + [False] * (BLOCK - per_block)


def requests(seed: int, count: int) -> list[Request]:
    rng = random.Random(seed)
    ranks = rng.choices(range(1, CUSTOMERS + 1),
                        cum_weights=_zipf_cumulative(CUSTOMERS, ZIPF_S),
                        k=count)
    items = _shuffled_blocks(
        rng, [1 + k % MAX_ITEMS for k in range(BLOCK)], count)
    restricted = _shuffled_blocks(rng, _flags(RESTRICTED_PER_BLOCK), count)
    large = _shuffled_blocks(rng, _flags(LARGE_PER_BLOCK), count)
    return [Request(f"r{seed}-{index}", *fields)
            for index, fields in enumerate(zip(ranks, items, restricted,
                                               large))]


def debtor_invoices() -> list[str]:
    """One unpaid invoice per debtor (the Example 3.2 refusal path)."""
    return [f"<invoice><requestID>old-{rank}</requestID>"
            f"<customerID>{customer_id(rank)}</customerID></invoice>"
            for rank in range(1, CUSTOMERS + 1) if is_debtor(rank)]


# -- correlation ---------------------------------------------------------------

CORR_CUSTOMERS = 1000
CORR_INVOICES = 10_000
CORR_DISPUTES = 200
CREDIT_PER_BLOCK = 80
DISPUTE_PER_BLOCK = 10      # the remaining 10 are new-invoice inserts


def corr_customer(rank: int) -> str:
    return f"k{rank:04d}"


def corr_invoice(invoice_id: str, rank: int) -> str:
    return (f"<invoice><invoiceID>{invoice_id}</invoiceID>"
            f"<customerID>{corr_customer(rank)}</customerID>"
            f"<amount>{rank % 97}.50</amount><due>2007-01-07</due></invoice>")


def corr_preload_invoices() -> list[tuple[int, str]]:
    """(customer rank, body): ten invoices for each of 1000 customers."""
    return [(1 + index % CORR_CUSTOMERS,
             corr_invoice(f"i-{index}", 1 + index % CORR_CUSTOMERS))
            for index in range(CORR_INVOICES)]


def corr_disputes() -> list[tuple[int, str]]:
    """(customer rank, body): one dispute for every fifth customer."""
    return [(rank, f"<dispute><disputeID>d-{rank}</disputeID>"
                   f"<customerID>{corr_customer(rank)}</customerID></dispute>")
            for rank in range(5, CORR_CUSTOMERS + 1, 5)]


@dataclass(frozen=True)
class Probe:
    """One stream element: ``credit`` (rule A), ``dispute`` (rule B) or
    ``invoice`` (a write beside the reads)."""

    probe_id: str
    kind: str
    customer_rank: int

    @property
    def queue(self) -> str:
        return "invoices" if self.kind == "invoice" else "probes"

    def body(self) -> str:
        if self.kind == "invoice":
            return corr_invoice(self.probe_id, self.customer_rank)
        return (f"<{self.kind}Probe><probeID>{self.probe_id}</probeID>"
                f"<customerID>{corr_customer(self.customer_rank)}</customerID>"
                f"</{self.kind}Probe>")


def probes(seed: int, count: int) -> list[Probe]:
    rng = random.Random(seed)
    ranks = rng.choices(range(1, CORR_CUSTOMERS + 1),
                        cum_weights=_zipf_cumulative(CORR_CUSTOMERS, ZIPF_S),
                        k=count)
    kinds = _shuffled_blocks(
        rng, ["credit"] * CREDIT_PER_BLOCK + ["dispute"] * DISPUTE_PER_BLOCK
        + ["invoice"] * (BLOCK - CREDIT_PER_BLOCK - DISPUTE_PER_BLOCK), count)
    return [Probe(f"p{seed}-{index}", kind, rank)
            for index, (kind, rank) in enumerate(zip(kinds, ranks))]


def waves(items: list, size: int) -> list[list]:
    return [items[start:start + size] for start in range(0, len(items), size)]
