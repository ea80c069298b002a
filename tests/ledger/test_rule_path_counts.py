"""Exact work counts on the rule path (a ledger that needs no quiet host).

300 procurement requests — the paper's Fig. 3/4 case study, the same
QDL the end-to-end benchmark runs — go through an in-memory server in
waves of 100, with a garbage collection after every wave so the heap
reuses the pages it freed.  Wall-clock numbers drift with the host;
these counts do not:

* no stored body is parsed: every body the rules read is a tree the
  store was handed when it was enqueued (parsed input or rule-built);
* each batch member that runs slice rules reads its slice from the
  store once, however many ``qs:slice()`` calls its rules make;
* the heap compacts at most one page per ten stored bodies.
"""

import os

import pytest

from repro import DemaqServer
from repro.storage import pages
from repro.storage.store import MessageStore

APP = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir,
                   "benchmarks", "e2e", "apps", "procurement.qdl")

REQUESTS = 300
WAVE = 100
#: Members that evaluate the requestMsgs slice rules, per request: the
#: offer request and the three check results in crm, the answer in
#: customer.
SLICE_MEMBERS_PER_REQUEST = 5


def _offer_request(index: int) -> str:
    items = 1 + index % 5
    restricted = index % 20 == 0
    body = "".join(
        "<item%s>substance-%d</item>"
        % (' restricted="true"' if restricted and k == 0 else "", k)
        for k in range(items))
    notes = "<notes>%s</notes>" % ("n" * 1500) if index % 10 == 3 else ""
    return (f"<offerRequest><requestID>r-{index}</requestID>"
            f"<customerID>c-{index % 50}</customerID>"
            f"<items>{body}</items>{notes}</offerRequest>")


@pytest.fixture
def counted(monkeypatch):
    counts = {"compactions": 0, "slice_reads": 0}
    compact = pages.SlottedPage.compact
    slice_messages = MessageStore.slice_messages

    def counting_compact(self):
        counts["compactions"] += 1
        return compact(self)

    def counting_slice_messages(self, *args, **kwargs):
        counts["slice_reads"] += 1
        return slice_messages(self, *args, **kwargs)

    monkeypatch.setattr(pages.SlottedPage, "compact", counting_compact)
    monkeypatch.setattr(MessageStore, "slice_messages",
                        counting_slice_messages)
    return counts


def test_rule_path_counts(counted):
    with open(APP, encoding="utf-8") as handle:
        server = DemaqServer(handle.read())
    for rank in range(0, 50, 10):     # every tenth customer owes money
        server.enqueue("invoices",
                       f"<invoice><requestID>old-{rank}</requestID>"
                       f"<customerID>c-{rank}</customerID></invoice>")
    server.run_until_idle()
    inserts_before = server.store.stats.inserts
    counted["slice_reads"] = 0

    for start in range(0, REQUESTS, WAVE):
        for index in range(start, start + WAVE):
            server.enqueue("crm", _offer_request(index))
        server.run_until_idle()
        server.collect_garbage()

    # request, three checks, three results, one answer
    stored = server.store.stats.inserts - inserts_before
    assert stored == 8 * REQUESTS
    values = server.metrics.values()
    assert values["demaq_store_body_parses_total"] == 0
    assert counted["slice_reads"] == SLICE_MEMBERS_PER_REQUEST * REQUESTS
    assert counted["compactions"] <= 0.1 * stored
