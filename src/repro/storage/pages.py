"""Slotted pages: variable-length records inside a fixed-size page.

Layout (little-endian)::

    offset 0   u64  page LSN (recovery: last log record applied)
    offset 8   u16  slot count
    offset 10  u16  free-space pointer (offset of the lowest record byte)
    offset 12  slot directory: per slot u16 offset, u16 length
    ...        free space (grows down from `free-space pointer`)
    ...        record payloads (packed at the end of the page)

A deleted slot keeps its directory entry with offset 0 so record ids
(page_id, slot) stay stable; page compaction slides live records without
renumbering slots.
"""

from __future__ import annotations

import struct

from .disk import PAGE_SIZE
from .errors import PageError

_HEADER = struct.Struct("<QHH")
_SLOT = struct.Struct("<HH")
HEADER_SIZE = _HEADER.size          # 12
SLOT_SIZE = _SLOT.size              # 4

#: Largest record that fits on a fresh page.
MAX_RECORD = PAGE_SIZE - HEADER_SIZE - SLOT_SIZE


class SlottedPage:
    """A view over one page buffer, offering record operations."""

    __slots__ = ("data",)

    def __init__(self, data: bytearray | None = None):
        if data is None:
            data = bytearray(PAGE_SIZE)
            _HEADER.pack_into(data, 0, 0, 0, PAGE_SIZE)
        if len(data) != PAGE_SIZE:
            raise PageError(f"slotted page needs {PAGE_SIZE} bytes")
        self.data = data

    # -- header ---------------------------------------------------------------

    @property
    def lsn(self) -> int:
        return _HEADER.unpack_from(self.data, 0)[0]

    @lsn.setter
    def lsn(self, value: int) -> None:
        count, free = _HEADER.unpack_from(self.data, 0)[1:]
        _HEADER.pack_into(self.data, 0, value, count, free)

    @property
    def slot_count(self) -> int:
        return _HEADER.unpack_from(self.data, 0)[1]

    @property
    def _free_pointer(self) -> int:
        return _HEADER.unpack_from(self.data, 0)[2]

    def _set_header(self, count: int, free: int) -> None:
        _HEADER.pack_into(self.data, 0, self.lsn, count, free)

    def _slot(self, index: int) -> tuple[int, int]:
        if not 0 <= index < self.slot_count:
            raise PageError(f"slot {index} out of range")
        return _SLOT.unpack_from(self.data, HEADER_SIZE + index * SLOT_SIZE)

    def _set_slot(self, index: int, offset: int, length: int) -> None:
        _SLOT.pack_into(self.data, HEADER_SIZE + index * SLOT_SIZE,
                        offset, length)

    # -- record operations -------------------------------------------------------

    def free_space(self) -> int:
        """Bytes available for one more record (including its slot entry)."""
        directory_end = HEADER_SIZE + self.slot_count * SLOT_SIZE
        gap = self._free_pointer - directory_end
        return max(0, gap - SLOT_SIZE)

    def insert(self, record: bytes) -> int:
        """Store *record*, returning its slot number."""
        if len(record) > MAX_RECORD:
            raise PageError(
                f"record of {len(record)} bytes exceeds page capacity")
        # One header read serves the space check and the update — this
        # is the hottest page operation (every message body lands here).
        lsn, count, free = _HEADER.unpack_from(self.data, 0)
        if len(record) > free - (HEADER_SIZE + count * SLOT_SIZE) - SLOT_SIZE:
            # Deleted records leave holes (zero-length slots); compact
            # only when closing them makes room, never just to refuse.
            directory = self.data[HEADER_SIZE:HEADER_SIZE + count * SLOT_SIZE]
            live = sum(length for _, length in _SLOT.iter_unpack(directory))
            if len(record) > PAGE_SIZE - live - HEADER_SIZE \
                    - (count + 1) * SLOT_SIZE:
                raise PageError("page full")
            self.compact()
            lsn, count, free = _HEADER.unpack_from(self.data, 0)
        offset = free - len(record)
        self.data[offset:free] = record
        _HEADER.pack_into(self.data, 0, lsn, count + 1, offset)
        _SLOT.pack_into(self.data, HEADER_SIZE + count * SLOT_SIZE,
                        offset, len(record))
        return count

    def raise_lsn(self, lsn: int) -> None:
        """``page.lsn = max(page.lsn, lsn)`` in one header read."""
        current, count, free = _HEADER.unpack_from(self.data, 0)
        if lsn > current:
            _HEADER.pack_into(self.data, 0, lsn, count, free)

    def read(self, slot: int) -> bytes:
        offset, length = self._slot(slot)
        if offset == 0:
            raise PageError(f"slot {slot} was deleted")
        return bytes(self.data[offset:offset + length])

    def delete(self, slot: int) -> None:
        offset, _ = self._slot(slot)
        if offset == 0:
            raise PageError(f"slot {slot} already deleted")
        self._set_slot(slot, 0, 0)

    def is_live(self, slot: int) -> bool:
        offset, _ = self._slot(slot)
        return offset != 0

    def live_slots(self) -> list[int]:
        return [s for s in range(self.slot_count) if self.is_live(s)]

    def compact(self) -> None:
        """Slide live records to the end of the page, closing holes."""
        records = []
        for slot in range(self.slot_count):
            offset, length = self._slot(slot)
            if offset:
                records.append((slot, bytes(self.data[offset:offset + length])))
        free = PAGE_SIZE
        for slot, payload in records:
            free -= len(payload)
            self.data[free:free + len(payload)] = payload
            self._set_slot(slot, free, len(payload))
        self._set_header(self.slot_count, free)

    def used_bytes(self) -> int:
        return sum(self._slot(s)[1] for s in range(self.slot_count)
                   if self.is_live(s))
