"""A record heap: variable-length records over slotted pages.

Records larger than one page are chained across *overflow chunks*; the
record id (RID) is the (page, slot) of the first chunk.  Message bodies —
serialized XML plus properties — are stored here; indexes hold RIDs.

Chunk layout: ``[u32 next_page][u16 next_slot][payload]`` with
``0xFFFFFFFF`` marking the end of the chain.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from .buffer import BufferManager
from .errors import PageError, StorageError
from .pages import MAX_RECORD

_CHUNK_HEADER = struct.Struct("<IH")
_NO_PAGE = 0xFFFFFFFF
_CHUNK_CAPACITY = MAX_RECORD - _CHUNK_HEADER.size


@dataclass(frozen=True)
class RID:
    """A record id: first chunk's (page, slot)."""

    page_id: int
    slot: int

    def as_tuple(self) -> tuple[int, int]:
        return (self.page_id, self.slot)


class RecordHeap:
    """Store/fetch/delete byte records through a buffer manager."""

    def __init__(self, buffer: BufferManager):
        self.buffer = buffer
        self._open_page: int | None = None
        #: Pages where deletes freed space — candidates for reuse so
        #: retention deletion returns storage instead of only growing.
        self._free_pages: set[int] = set()

    def reset_hints(self) -> None:
        """Forget placement hints (after recovery/crash simulation)."""
        self._open_page = None
        self._free_pages.clear()

    def store(self, record: bytes, lsn: int = 0) -> RID:
        """Write *record*, returning its RID.

        Chunks are written back-to-front so each chunk knows its
        successor's address.
        """
        chunks = [record[i:i + _CHUNK_CAPACITY]
                  for i in range(0, len(record), _CHUNK_CAPACITY)] or [b""]
        next_page, next_slot = _NO_PAGE, 0
        rid = None
        for chunk in reversed(chunks):
            payload = _CHUNK_HEADER.pack(next_page, next_slot) + chunk
            page_id, slot = self._insert_chunk(payload, lsn)
            next_page, next_slot = page_id, slot
            rid = RID(page_id, slot)
        assert rid is not None
        return rid

    def _insert_chunk(self, payload: bytes, lsn: int) -> tuple[int, int]:
        if self._open_page is not None:
            page_id = self._open_page
            page = self.buffer.pin(page_id)
            try:
                slot = page.insert(payload)
                page.raise_lsn(lsn)
                return page_id, slot
            except PageError:
                # Full even after compaction: retire it, or every later
                # insert would pay for refusing (and compacting) it again.
                # A delete on it makes it a free-page candidate again.
                self._open_page = None
                self._free_pages.discard(page_id)
            finally:
                self.buffer.unpin(page_id, dirty=True)
        # Deletes left holes behind: probe a bounded number of candidate
        # pages before extending the heap (compaction-by-reuse, §4.1
        # retention reclaims space, not just messages).  The first one
        # that takes the chunk becomes the open page.
        for page_id in sorted(self._free_pages)[:8]:
            page = self.buffer.pin(page_id)
            try:
                slot = page.insert(payload)
                page.raise_lsn(lsn)
            except PageError:
                self._free_pages.discard(page_id)
                self.buffer.unpin(page_id)
            else:
                self.buffer.unpin(page_id, dirty=True)
                self._free_pages.discard(page_id)
                self._open_page = page_id
                return page_id, slot
        page_id, page = self.buffer.new_page()
        try:
            slot = page.insert(payload)
            page.raise_lsn(lsn)
        finally:
            self.buffer.unpin(page_id, dirty=True)
        self._open_page = page_id
        return page_id, slot

    def fetch(self, rid: RID) -> bytes:
        """Read a full record, following the overflow chain."""
        parts: list[bytes] = []
        page_id, slot = rid.page_id, rid.slot
        hops = 0
        while page_id != _NO_PAGE:
            if hops > 1_000_000:
                raise StorageError("overflow chain cycle detected")
            page = self.buffer.pin(page_id)
            try:
                raw = page.read(slot)
            finally:
                self.buffer.unpin(page_id)
            next_page, next_slot = _CHUNK_HEADER.unpack_from(raw, 0)
            parts.append(raw[_CHUNK_HEADER.size:])
            page_id, slot = next_page, next_slot
            hops += 1
        return b"".join(parts)

    def delete(self, rid: RID, lsn: int = 0) -> None:
        """Free every chunk of a record.  Idempotent: an already-freed
        slot ends the walk (a record's chunks are freed together, so a
        freed head means the whole chain is gone — redo may replay a
        delete whose effect a fuzzy checkpoint already captured)."""
        page_id, slot = rid.page_id, rid.slot
        while page_id != _NO_PAGE:
            page = self.buffer.pin(page_id)
            try:
                try:
                    raw = page.read(slot)
                except PageError:
                    break  # slot already freed — chain is gone
                next_page, next_slot = _CHUNK_HEADER.unpack_from(raw, 0)
                page.delete(slot)
                page.lsn = max(page.lsn, lsn)
                self._free_pages.add(page_id)
            finally:
                self.buffer.unpin(page_id, dirty=True)
            page_id, slot = next_page, next_slot
