"""Tests for the hierarchical lock manager."""

import threading
import time

import pytest

from repro.storage import (IS, IX, DeadlockError, LockManager,
                           LockTimeoutError, S, X, compatible)


def test_compatibility_matrix_symmetry_of_shared():
    assert compatible(S, S)
    assert compatible(IS, IX)
    assert not compatible(S, X)
    assert not compatible(X, X)
    assert not compatible(IX, S)
    assert compatible(IX, IX)


def test_same_txn_reacquires_freely():
    lm = LockManager()
    lm.acquire(1, ("queue", "crm"), S)
    lm.acquire(1, ("queue", "crm"), S)
    assert lm.mode_of(1, ("queue", "crm")) == S


def test_upgrade_s_to_x():
    lm = LockManager()
    lm.acquire(1, ("queue", "crm"), S)
    lm.acquire(1, ("queue", "crm"), X)
    assert lm.mode_of(1, ("queue", "crm")) == X


def test_weaker_request_keeps_stronger_mode():
    lm = LockManager()
    lm.acquire(1, ("m", 1), X)
    lm.acquire(1, ("m", 1), S)
    assert lm.mode_of(1, ("m", 1)) == X


def test_shared_lock_by_many_txns():
    lm = LockManager()
    lm.acquire(1, ("queue", "crm"), S)
    lm.acquire(2, ("queue", "crm"), S)
    assert lm.mode_of(1, ("queue", "crm")) == S
    assert lm.mode_of(2, ("queue", "crm")) == S


def test_conflicting_lock_blocks_until_release():
    lm = LockManager()
    lm.acquire(1, ("queue", "crm"), X)
    acquired = threading.Event()

    def taker():
        lm.acquire(2, ("queue", "crm"), X, timeout=5)
        acquired.set()

    thread = threading.Thread(target=taker)
    thread.start()
    time.sleep(0.05)
    assert not acquired.is_set()
    lm.release_all(1)
    thread.join(timeout=5)
    assert acquired.is_set()
    lm.release_all(2)


def test_timeout():
    lm = LockManager()
    lm.acquire(1, ("q", "a"), X)
    with pytest.raises(LockTimeoutError):
        lm.acquire(2, ("q", "a"), X, timeout=0.05)
    lm.release_all(1)


def test_deadlock_detected():
    lm = LockManager()
    lm.acquire(1, ("r", "a"), X)
    lm.acquire(2, ("r", "b"), X)
    errors = []

    def t1():
        try:
            lm.acquire(1, ("r", "b"), X, timeout=5)
        except DeadlockError as exc:
            errors.append(exc)
            lm.release_all(1)

    def t2():
        try:
            lm.acquire(2, ("r", "a"), X, timeout=5)
        except DeadlockError as exc:
            errors.append(exc)
            lm.release_all(2)

    threads = [threading.Thread(target=t1), threading.Thread(target=t2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
    assert len(errors) >= 1          # at least one side must abort
    assert lm.deadlocks >= 1
    lm.release_all(1)
    lm.release_all(2)


def test_release_all_wakes_waiters():
    lm = LockManager()
    lm.acquire(1, ("q", "a"), X)
    lm.acquire(1, ("q", "b"), X)
    done = []

    def taker(resource):
        lm.acquire(2, resource, S, timeout=5)
        done.append(resource)

    threads = [threading.Thread(target=taker, args=(("q", "a"),)),
               threading.Thread(target=taker, args=(("q", "b"),))]
    for t in threads:
        t.start()
    lm.release_all(1)
    for t in threads:
        t.join(timeout=5)
    assert len(done) == 2
    lm.release_all(2)


def test_held_tracking():
    lm = LockManager()
    lm.acquire(1, ("q", "a"), S)
    lm.acquire(1, ("slice", "s", "k"), X)
    assert lm.held(1) == {("q", "a"), ("slice", "s", "k")}
    lm.release_all(1)
    assert lm.held(1) == set()


def test_intention_locks_allow_disjoint_slice_writers():
    # The §4.3 scenario: two txns write different slices of one queue.
    lm = LockManager()
    lm.acquire(1, ("queue", "orders"), IX)
    lm.acquire(2, ("queue", "orders"), IX)     # compatible
    lm.acquire(1, ("slice", "orders", "k1"), X)
    lm.acquire(2, ("slice", "orders", "k2"), X)  # no conflict
    assert lm.mode_of(2, ("slice", "orders", "k2")) == X
    lm.release_all(1)
    lm.release_all(2)


def test_queue_level_writer_blocks_slice_writers():
    lm = LockManager()
    lm.acquire(1, ("queue", "orders"), X)
    with pytest.raises(LockTimeoutError):
        lm.acquire(2, ("queue", "orders"), IX, timeout=0.05)
    lm.release_all(1)


def test_unknown_mode_rejected():
    lm = LockManager()
    with pytest.raises(ValueError):
        lm.acquire(1, ("q",), "Z")


def test_concurrent_stress_no_lost_updates():
    lm = LockManager()
    counter = {"value": 0}

    def worker(txn_base):
        for i in range(50):
            txn = txn_base * 1000 + i
            lm.acquire(txn, ("counter",), X, timeout=10)
            value = counter["value"]
            counter["value"] = value + 1
            lm.release_all(txn)

    threads = [threading.Thread(target=worker, args=(n,)) for n in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
    assert counter["value"] == 200


def test_released_holder_hands_the_lock_to_one_waiter_then_the_next():
    """One X holder, two X waiters: releasing the holder must grant the
    lock to exactly one waiter, and that waiter's release must grant it
    to the other — no double grant, no waiter sleeping to its timeout."""
    lm = LockManager()
    resource = ("queue", "crm")
    lm.acquire(1, resource, X)
    inside: list[int] = []
    overlap: list[tuple[int, int]] = []
    guard = threading.Lock()
    timed_out: list[int] = []

    def waiter(txn):
        try:
            lm.acquire(txn, resource, X, timeout=5)
        except LockTimeoutError:
            timed_out.append(txn)
            return
        with guard:
            if inside:
                overlap.append((inside[0], txn))
            inside.append(txn)
        time.sleep(0.05)
        with guard:
            inside.remove(txn)
        lm.release_all(txn)

    threads = [threading.Thread(target=waiter, args=(txn,)) for txn in (2, 3)]
    for thread in threads:
        thread.start()
    time.sleep(0.1)     # both waiters are blocked on the holder
    started = time.monotonic()
    lm.release_all(1)
    for thread in threads:
        thread.join(timeout=10)
    assert not timed_out
    assert not overlap
    assert time.monotonic() - started < 2.0
    assert lm.mode_of(2, resource) is None and lm.mode_of(3, resource) is None
    # Nobody holds anything, so the entry is gone: a fresh txn is granted
    # at once.
    lm.acquire(4, resource, X, timeout=0.5)
