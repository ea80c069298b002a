"""Tests for the record heap (incl. overflow chains)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage import (BufferManager, InMemoryDiskManager, PAGE_SIZE,
                           RecordHeap, StorageError)
from repro.storage.pages import PageError


def make(capacity=16):
    disk = InMemoryDiskManager()
    buffer = BufferManager(disk, capacity)
    return disk, buffer, RecordHeap(buffer)


def test_store_and_fetch_small():
    _, _, heap = make()
    rid = heap.store(b"hello world")
    assert heap.fetch(rid) == b"hello world"


def test_store_many_records_share_pages():
    disk, _, heap = make()
    rids = [heap.store(f"record-{i}".encode()) for i in range(100)]
    assert disk.page_count < 10    # far fewer pages than records
    for i, rid in enumerate(rids):
        assert heap.fetch(rid) == f"record-{i}".encode()


def test_large_record_spans_pages():
    disk, _, heap = make()
    big = bytes(range(256)) * 64    # 16 KiB > 4 KiB page
    rid = heap.store(big)
    assert disk.page_count >= 4
    assert heap.fetch(rid) == big


def test_empty_record():
    _, _, heap = make()
    rid = heap.store(b"")
    assert heap.fetch(rid) == b""


def test_delete_frees_all_chunks():
    _, buffer, heap = make()
    big = b"z" * (3 * PAGE_SIZE)
    rid = heap.store(big)
    heap.delete(rid)
    with pytest.raises((StorageError, PageError)):
        heap.fetch(rid)


def test_space_reuse_after_delete():
    disk, _, heap = make()
    rids = [heap.store(b"a" * 1000) for _ in range(20)]
    pages_before = disk.page_count
    for rid in rids:
        heap.delete(rid)
    # new inserts reuse the open page's compacted space
    for _ in range(3):
        heap.store(b"b" * 1000)
    assert disk.page_count <= pages_before + 1


def test_fetch_survives_eviction():
    _, buffer, heap = make(capacity=2)
    rids = [heap.store(f"rec{i}".encode() * 50) for i in range(30)]
    for i, rid in enumerate(rids):
        assert heap.fetch(rid) == f"rec{i}".encode() * 50


@settings(max_examples=30, deadline=None)
@given(st.lists(st.binary(min_size=0, max_size=10_000), min_size=1,
                max_size=12))
def test_round_trip_property(payloads):
    _, _, heap = make(capacity=8)
    rids = [heap.store(p) for p in payloads]
    for rid, payload in zip(rids, payloads):
        assert heap.fetch(rid) == payload


@settings(max_examples=15, deadline=None)
@given(st.lists(st.tuples(st.binary(max_size=5000), st.booleans()),
                min_size=1, max_size=15))
def test_interleaved_store_delete(cases):
    _, _, heap = make(capacity=8)
    live = {}
    for index, (payload, delete_it) in enumerate(cases):
        rid = heap.store(payload)
        if delete_it:
            heap.delete(rid)
        else:
            live[index] = (rid, payload)
    for rid, payload in live.values():
        assert heap.fetch(rid) == payload


def _count_compactions(monkeypatch):
    from repro.storage import pages
    calls = []
    compact = pages.SlottedPage.compact

    def counting(self):
        calls.append(1)
        return compact(self)

    monkeypatch.setattr(pages.SlottedPage, "compact", counting)
    return calls


def test_full_page_without_holes_is_never_compacted(monkeypatch):
    calls = _count_compactions(monkeypatch)
    disk, _, heap = make()
    for i in range(200):
        heap.store(b"r" * 300)
    assert disk.page_count > 10
    assert calls == []


def test_a_free_page_that_takes_a_record_becomes_the_open_page(monkeypatch):
    calls = _count_compactions(monkeypatch)
    disk, _, heap = make()
    rids = [heap.store(b"a" * 1000) for _ in range(12)]
    for rid in rids[:4]:                 # holes on the first pages
        heap.delete(rid)
    pages_before = disk.page_count
    placed = [heap.store(b"b" * 1000) for _ in range(4)]
    assert disk.page_count == pages_before
    # The refused open page was retired and the reused page kept open:
    # the later inserts went straight to it, so compaction ran once per
    # reused page, not once per insert.
    assert len({rid.page_id for rid in placed}) <= 2
    assert len(calls) <= 2
