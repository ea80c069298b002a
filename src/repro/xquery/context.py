"""Static and dynamic evaluation contexts.

The *environment* is the bridge between the language and the Demaq
engine: the ``qs:`` function library (``qs:message()``, ``qs:queue()``,
``qs:slice()``, ``qs:slicekey()``, ``qs:property()``) and
``fn:collection()`` delegate to it.  Stand-alone expression evaluation
uses the default :class:`Environment`, whose hooks raise — exactly the
behaviour the paper implies for e.g. ``qs:slice()`` outside a slicing
rule (§3.5.2: "only available to rules defined on slicings").
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Optional

from ..xmldm import Node
from .atomics import XSDateTime
from .errors import DynamicError

if TYPE_CHECKING:  # pragma: no cover
    from .updates import PendingUpdateList


class Environment:
    """Host hooks available to an evaluation.

    The rule executor subclasses this; the defaults make every hook an
    explicit dynamic error so stand-alone queries fail loudly rather
    than silently returning nothing.  ``queue`` and ``slice_messages``
    return their nodes in document order (the qs: functions do not
    re-sort) and the caller must not mutate the returned list.
    """

    def message(self) -> Node:
        raise DynamicError("qs:message() is only available inside a rule")

    def queue(self, name: str | None) -> list[Node]:
        raise DynamicError("qs:queue() is only available inside a rule")

    def queue_lookup(self, name: str, prop: str,
                     values: list[object]) -> list[Node]:
        raise DynamicError(
            "qs:queue-index() is only available inside a rule")

    def slice_messages(self) -> list[Node]:
        raise DynamicError(
            "qs:slice() is only available in rules defined on slicings")

    def slice_key(self) -> object:
        raise DynamicError(
            "qs:slicekey() is only available in rules defined on slicings")

    def property(self, name: str) -> object:
        raise DynamicError("qs:property() is only available inside a rule")

    def collection(self, name: str) -> list[Node]:
        raise DynamicError(f"no collection {name!r} is available")

    def current_datetime(self) -> XSDateTime:
        return XSDateTime.from_epoch(time.time())


class DynamicContext:
    """The focus (item, position, size), variables, and host environment."""

    __slots__ = ("item", "position", "size", "variables", "environment",
                 "namespaces", "updates")

    def __init__(self, item: object = None, position: int = 1, size: int = 1,
                 variables: dict[str, list] | None = None,
                 environment: Environment | None = None,
                 namespaces: dict[str, str] | None = None,
                 updates: Optional["PendingUpdateList"] = None):
        from .updates import PendingUpdateList
        self.item = item
        self.position = position
        self.size = size
        self.variables = variables if variables is not None else {}
        self.environment = environment or Environment()
        self.namespaces = namespaces or {}
        self.updates = updates if updates is not None else PendingUpdateList()

    def focus(self, item: object, position: int, size: int) -> "DynamicContext":
        """A new context with a different focus, sharing everything else."""
        ctx = DynamicContext.__new__(DynamicContext)
        ctx.item = item
        ctx.position = position
        ctx.size = size
        ctx.variables = self.variables
        ctx.environment = self.environment
        ctx.namespaces = self.namespaces
        ctx.updates = self.updates
        return ctx

    def bind(self, name: str, value: list) -> "DynamicContext":
        """A new context with one extra variable binding."""
        ctx = DynamicContext.__new__(DynamicContext)
        ctx.item = self.item
        ctx.position = self.position
        ctx.size = self.size
        ctx.variables = dict(self.variables)
        ctx.variables[name] = value
        ctx.environment = self.environment
        ctx.namespaces = self.namespaces
        ctx.updates = self.updates
        return ctx

    def require_context_item(self) -> object:
        if self.item is None:
            raise DynamicError("the context item is undefined", "XPDY0002")
        return self.item
