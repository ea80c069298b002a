"""Pending update lists and the Demaq update primitives.

QML rules never mutate state while they evaluate.  Following the XQuery
Update Facility (paper §3.2), ``do enqueue`` and ``do reset`` produce
*pending update primitives*; the rule executor applies the collected list
only after the whole rule set for a message has been evaluated.  That is
the snapshot semantics §3.1 relies on for optimization and transactional
mapping.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..xmldm import Document, Node, copy_as_document


@dataclass(frozen=True)
class EnqueuePrimitive:
    """Create a message with *body* (already copied) in *queue*."""

    queue: str
    body: Document
    properties: tuple[tuple[str, object], ...] = ()

    def property_dict(self) -> dict[str, object]:
        return dict(self.properties)


@dataclass(frozen=True)
class ResetPrimitive:
    """Reset a slice.  ``slicing``/``key`` of ``None`` mean "current"."""

    slicing: str | None = None
    key: object | None = None


UpdatePrimitive = object  # EnqueuePrimitive | ResetPrimitive


@dataclass
class PendingUpdateList:
    """An ordered list of pending update primitives."""

    primitives: list = field(default_factory=list)

    def add(self, primitive: UpdatePrimitive) -> None:
        self.primitives.append(primitive)

    def merge(self, other: "PendingUpdateList") -> None:
        self.primitives.extend(other.primitives)

    def enqueues(self) -> list[EnqueuePrimitive]:
        return [p for p in self.primitives if isinstance(p, EnqueuePrimitive)]

    def resets(self) -> list[ResetPrimitive]:
        return [p for p in self.primitives if isinstance(p, ResetPrimitive)]

    def __len__(self) -> int:
        return len(self.primitives)

    def __iter__(self):
        return iter(self.primitives)


def as_message_body(items: list) -> Document:
    """Coerce the result of an enqueue expression into a message body.

    The paper's examples enqueue a single constructed element (or a node
    picked from another message).  We accept one element or document node
    and copy it into a fresh document, so stored messages never alias
    live trees — and the copy is namespace-complete, so the tree the
    store is handed equals what re-parsing its serialization yields
    (:func:`~repro.xmldm.copy_as_document`).
    """
    from .errors import UpdateError
    from .sequence import Sequence

    nodes = [item for item in items if isinstance(item, Node)]
    if len(items) != 1 or len(nodes) != 1:
        raise UpdateError(
            f"do enqueue requires exactly one node, got {len(items)} item(s)")
    return copy_as_document(nodes[0])
