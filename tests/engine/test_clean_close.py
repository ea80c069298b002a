"""A clean close leaves a checkpoint image behind.

``DemaqServer.close()`` checkpoints (and truncates the covered log
prefix) unless a chained batch holds published, uncommitted work, so a
restart loads the image instead of replaying the whole log.  The image
must be invisible to everything but the replay count: after more work
and a crash, the recovered state equals the one reached without it.
"""

import os

from repro import DemaqServer
from repro.storage import wal as walmod
from repro.workloads import procurement_application, request_stream

APP = procurement_application()


def _work(server, start, count):
    for index, (_, _, body) in enumerate(request_stream(start + count)):
        if index >= start:
            server.enqueue("crm", body)
    server.run_until_idle()


def _state(server):
    store = server.store
    queues = {name: [(m.msg_id, m.seqno, store.body_text(m.msg_id),
                      m.processed, sorted(m.properties.items(), key=str),
                      m.slices)
                     for m in store.queue_messages(name)]
              for name in server.app.queues}
    lifetimes = {key: store.slice_lifetime(*key)
                 for m in store.queue_messages("crm")
                 for key in [(s, k) for s, k, _ in m.slices]}
    return queues, lifetimes, store._next_msg_id, store._next_seqno


def _replayed(server):
    return server.metrics.values()["demaq_store_replayed_records_total"]


def test_clean_reopen_replays_at_most_one_record(tmp_path):
    directory = str(tmp_path / "node")
    server = DemaqServer(APP, data_dir=directory)
    _work(server, 0, 30)
    before = server.queue_texts("customer")
    server.close()
    assert os.path.exists(os.path.join(directory, "checkpoint.json"))

    reopened = DemaqServer(APP, data_dir=directory)
    assert _replayed(reopened) <= 1
    assert reopened.queue_texts("customer") == before
    reopened.close()


def test_image_then_crash_recovers_the_state_of_the_path_without_it(
        tmp_path):
    def run(directory, clean_close):
        server = DemaqServer(APP, data_dir=directory)
        _work(server, 0, 20)
        if clean_close:
            server.close()
        else:
            server.store.close()         # the pre-image close: no image
        server = DemaqServer(APP, data_dir=directory)
        _work(server, 20, 15)
        server.store.simulate_crash()
        server.store.recover()
        state = _state(server)
        server.store.close()
        return state

    with_image = run(str(tmp_path / "image"), clean_close=True)
    without = run(str(tmp_path / "plain"), clean_close=False)
    assert with_image == without
    assert len(with_image[0]["customer"]) == 35


def test_close_with_an_open_chained_batch_writes_no_image(tmp_path):
    directory = str(tmp_path / "node")
    server = DemaqServer(APP, data_dir=directory)
    _work(server, 0, 5)
    txn = server.store.begin()
    txn.insert_message("crm", b"<offerRequest/>", {}, [])
    server.store.publish(txn)            # a batch member, never committed
    records_before = len(list(server.store.wal.records()))
    server.close()

    assert not os.path.exists(os.path.join(directory, "checkpoint.json"))
    reopened = DemaqServer(APP, data_dir=directory)
    assert reopened.store.wal.last_checkpoint() is None
    types = [r.type for r in reopened.store.wal.records()]
    assert len(types) == records_before
    assert walmod.CHECKPOINT not in types
    assert _replayed(reopened) > 1
    reopened.close()
