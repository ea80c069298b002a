"""XML data model node classes.

This is the tree model every other subsystem builds on: the XQuery engine
navigates it, the message store serializes it, and queue schemas validate
it.  The model is deliberately close to the XQuery/XPath Data Model (XDM):

* seven node kinds, of which we implement the six that can occur in
  messages (document, element, attribute, text, comment,
  processing-instruction — namespace nodes are folded into elements);
* every node knows its parent, so reverse axes work;
* nodes are ordered by *document order*, maintained lazily per document
  so construction stays O(1) amortized.

Demaq messages are append-only — trees are built once and then only read —
so the model favours cheap construction and fast navigation over in-place
mutation (mutators exist for tree *construction* but are not part of the
public message API).
"""

from __future__ import annotations

import itertools
from typing import Iterator, Optional

from .qname import QName, XML_NAMESPACE

_DOC_COUNTER = itertools.count(1)


class XMLError(Exception):
    """Base class for XML data model errors."""


class Node:
    """Abstract base of all node kinds."""

    __slots__ = ("parent", "_ord")

    kind: str = "node"

    def __init__(self) -> None:
        self.parent: Optional[Node] = None
        self._ord: int = -1

    # -- tree navigation ------------------------------------------------

    @property
    def children(self) -> list["Node"]:
        """Child nodes (empty for leaf kinds)."""
        return []

    @property
    def root(self) -> "Node":
        """The root of the containing tree (a Document for parsed messages)."""
        node: Node = self
        while node.parent is not None:
            node = node.parent
        return node

    @property
    def document(self) -> Optional["Document"]:
        """The owning document, or ``None`` for parentless fragments."""
        root = self.root
        return root if isinstance(root, Document) else None

    def ancestors(self) -> Iterator["Node"]:
        """Ancestors, nearest first."""
        node = self.parent
        while node is not None:
            yield node
            node = node.parent

    def descendants(self) -> Iterator["Node"]:
        """Descendants in document order (attributes excluded, per XDM)."""
        for child in self.children:
            yield child
            yield from child.descendants()

    def descendants_or_self(self) -> Iterator["Node"]:
        yield self
        yield from self.descendants()

    def following_siblings(self) -> Iterator["Node"]:
        if self.parent is None:
            return
        siblings = self.parent.children
        try:
            idx = siblings.index(self)
        except ValueError:
            return
        yield from siblings[idx + 1:]

    def preceding_siblings(self) -> Iterator["Node"]:
        """Preceding siblings in *reverse* document order (axis order)."""
        if self.parent is None:
            return
        siblings = self.parent.children
        try:
            idx = siblings.index(self)
        except ValueError:
            return
        yield from reversed(siblings[:idx])

    # -- document order ---------------------------------------------------

    def order_key(self) -> tuple[int, int]:
        """A sortable key implementing document order across documents.

        Nodes from different trees compare by tree identity (creation
        order of their root), nodes within a tree by pre-order position.
        """
        root = self.root
        if isinstance(root, Document):
            root.ensure_order()
            return (root.doc_id, self._ord)
        # Parentless fragment: give it a stable per-tree numbering.
        _number_tree(root)
        return (id(root), self._ord)

    # -- values -----------------------------------------------------------

    @property
    def string_value(self) -> str:
        raise NotImplementedError

    @property
    def node_name(self) -> Optional[QName]:
        """The node's expanded name, or ``None`` for unnamed kinds."""
        return None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{self.kind} {self.node_name or ''}>"


def _number_tree(root: Node) -> None:
    """Assign pre-order positions to every node under *root*."""
    counter = itertools.count(0)
    stack = [root]
    while stack:
        node = stack.pop()
        node._ord = next(counter)
        if isinstance(node, Element):
            for attr in node.attributes:
                attr._ord = next(counter)
        stack.extend(reversed(node.children))


class Document(Node):
    """A document node: the root of every parsed message."""

    __slots__ = ("_children", "doc_id", "base_uri", "_order_clean",
                 "_names")

    kind = "document"

    def __init__(self, children: list[Node] | None = None, base_uri: str | None = None):
        super().__init__()
        self._children: list[Node] = []
        self.doc_id = next(_DOC_COUNTER)
        self.base_uri = base_uri
        self._order_clean = False
        #: (namespace, local name) -> elements in document order; built
        #: by the first name_index() call, dropped with the order cache.
        self._names: dict[tuple[str | None, str], list[Element]] | None = None
        for child in children or []:
            self.append(child)

    @property
    def children(self) -> list[Node]:
        return self._children

    def append(self, child: Node) -> None:
        if isinstance(child, (Attribute, Document)):
            raise XMLError(f"cannot append {child.kind} node to a document")
        child.parent = self
        self._children.append(child)
        self._order_clean = False
        self._names = None

    @property
    def root_element(self) -> Optional["Element"]:
        """The single element child, or ``None`` for element-less documents."""
        for child in self._children:
            if isinstance(child, Element):
                return child
        return None

    @property
    def string_value(self) -> str:
        return "".join(c.string_value for c in self._children
                       if isinstance(c, (Element, Text)))

    def ensure_order(self) -> None:
        if not self._order_clean:
            _number_tree(self)
            self._order_clean = True

    def invalidate_order(self) -> None:
        self._order_clean = False
        self._names = None

    def name_index(self) -> dict[tuple[str | None, str], list["Element"]]:
        """Every element of the document keyed by ``(namespace URI, local
        name)``, each list in document order.

        Built by one walk on first use and kept until the tree changes
        (any append below the document drops it, like the order cache),
        so repeated ``//name`` steps over a message body cost a lookup.
        The dict and its lists are shared: callers must not mutate them.
        """
        names = self._names
        if names is None:
            names = {}
            stack = list(reversed(self._children))
            while stack:
                node = stack.pop()
                if isinstance(node, Element):
                    name = node.name
                    key = (name.namespace_uri, name.local_name)
                    bucket = names.get(key)
                    if bucket is None:
                        names[key] = [node]
                    else:
                        bucket.append(node)
                    children = node._children
                    if children:
                        stack.extend(reversed(children))
            self._names = names
        return names


class Element(Node):
    """An element node with attributes and children."""

    __slots__ = ("name", "attributes", "_children", "namespaces")

    kind = "element"

    def __init__(self, name: QName | str,
                 attributes: list["Attribute"] | None = None,
                 children: list[Node] | None = None,
                 namespaces: dict[str, str] | None = None):
        super().__init__()
        self.name = QName(name) if isinstance(name, str) else name
        self.attributes: list[Attribute] = []
        self._children: list[Node] = []
        #: In-scope namespace declarations made *on this element*.
        self.namespaces: dict[str, str] = dict(namespaces or {})
        for attr in attributes or []:
            self.set_attribute(attr)
        for child in children or []:
            self.append(child)

    @property
    def children(self) -> list[Node]:
        return self._children

    @property
    def node_name(self) -> QName:
        return self.name

    def append(self, child: Node) -> None:
        if isinstance(child, Document):
            # Appending a document node splices in its children (XQuery
            # constructor semantics).
            for sub in list(child.children):
                self.append(sub)
            return
        if isinstance(child, Attribute):
            self.set_attribute(child)
            return
        child.parent = self
        self._children.append(child)
        self._invalidate()

    def set_attribute(self, attr: "Attribute") -> None:
        if any(existing.name == attr.name for existing in self.attributes):
            raise XMLError(f"duplicate attribute {attr.name} on <{self.name}>")
        attr.parent = self
        self.attributes.append(attr)
        self._invalidate()

    def _invalidate(self) -> None:
        doc = self.document
        if doc is not None:
            doc.invalidate_order()

    # -- convenience accessors used throughout the code base ------------

    def attribute_value(self, name: str | QName) -> Optional[str]:
        """The value of the named attribute, or ``None``."""
        want = QName(name) if isinstance(name, str) else name
        for attr in self.attributes:
            if attr.name == want:
                return attr.value
        return None

    def child_elements(self, name: str | QName | None = None) -> list["Element"]:
        """Element children, optionally filtered by name."""
        want = QName(name) if isinstance(name, str) else name
        return [c for c in self._children
                if isinstance(c, Element) and (want is None or c.name == want)]

    def first_child(self, name: str | QName) -> Optional["Element"]:
        elements = self.child_elements(name)
        return elements[0] if elements else None

    @property
    def text(self) -> str:
        """Concatenated text of *direct* text-node children."""
        return "".join(c.value for c in self._children if isinstance(c, Text))

    @property
    def string_value(self) -> str:
        return "".join(c.string_value for c in self._children
                       if isinstance(c, (Element, Text)))

    def in_scope_namespaces(self) -> dict[str, str]:
        """Prefix→URI bindings visible at this element."""
        scopes: list[dict[str, str]] = [self.namespaces]
        for ancestor in self.ancestors():
            if isinstance(ancestor, Element):
                scopes.append(ancestor.namespaces)
        result: dict[str, str] = {}
        for scope in reversed(scopes):
            result.update(scope)
        return result


class Attribute(Node):
    """An attribute node.  Not a child of its element, per XDM."""

    __slots__ = ("name", "value")

    kind = "attribute"

    def __init__(self, name: QName | str, value: str):
        super().__init__()
        self.name = QName(name) if isinstance(name, str) else name
        self.value = str(value)

    @property
    def node_name(self) -> QName:
        return self.name

    @property
    def string_value(self) -> str:
        return self.value


class Text(Node):
    """A text node."""

    __slots__ = ("value",)

    kind = "text"

    def __init__(self, value: str):
        super().__init__()
        self.value = str(value)

    @property
    def string_value(self) -> str:
        return self.value


class Comment(Node):
    """A comment node."""

    __slots__ = ("value",)

    kind = "comment"

    def __init__(self, value: str):
        super().__init__()
        self.value = value

    @property
    def string_value(self) -> str:
        return self.value


class ProcessingInstruction(Node):
    """A processing-instruction node."""

    __slots__ = ("target", "data")

    kind = "processing-instruction"

    def __init__(self, target: str, data: str = ""):
        super().__init__()
        self.target = target
        self.data = data

    @property
    def node_name(self) -> QName:
        return QName(self.target)

    @property
    def string_value(self) -> str:
        return self.data


def deep_copy(node: Node) -> Node:
    """Structurally copy a node (new identity, fresh document order).

    XQuery constructors copy their content; enqueue copies message bodies
    into the store.  Parents are not copied — the copy is parentless.
    """
    if isinstance(node, Document):
        return Document([deep_copy(c) for c in node.children],
                        base_uri=node.base_uri)
    if isinstance(node, Element):
        return Element(
            node.name,
            attributes=[Attribute(a.name, a.value) for a in node.attributes],
            children=[deep_copy(c) for c in node.children],
            namespaces=dict(node.namespaces),
        )
    if isinstance(node, Attribute):
        return Attribute(node.name, node.value)
    if isinstance(node, Text):
        return Text(node.value)
    if isinstance(node, Comment):
        return Comment(node.value)
    if isinstance(node, ProcessingInstruction):
        return ProcessingInstruction(node.target, node.data)
    raise XMLError(f"cannot copy node kind {node.kind!r}")


def copy_as_document(node: Node) -> Document:
    """Copy an element (or a single-rooted document) into a fresh
    document that serializes to markup which parses back to an equal
    tree.

    Rule-built content loses its ancestors when it is copied, and with
    them the namespace declarations its names rely on: ``<out>{/*/*}</out>``
    over ``<p:root xmlns:p="urn:p"><p:x/></p:root>`` would otherwise
    store ``<out><p:x/></out>``, which no parser accepts.  The copy
    declares every namespace its element and attribute names use where
    the copy's own scope does not already bind it, merges adjacent text
    nodes and drops empty ones (a parser never produces either).  What
    no markup can express — a document without exactly one root
    element, ``--`` in a comment, ``?>`` in a processing instruction —
    raises :class:`XMLError`.
    """
    if isinstance(node, Element):
        return Document([_copy_element(node, {})])
    if not isinstance(node, Document):
        raise XMLError(
            f"a message body must be an element or a document, "
            f"not a {node.kind} node")
    children: list[Node] = []
    roots = 0
    for child in node.children:
        if isinstance(child, Text):
            if child.value.strip(" \t\r\n"):
                raise XMLError("a message body cannot have top-level text")
            continue
        if isinstance(child, Element):
            roots += 1
            children.append(_copy_element(child, {}))
        else:
            children.append(_copy_leaf(child))
    if roots != 1:
        raise XMLError(
            f"a message body needs exactly one root element, got {roots}")
    return Document(children, base_uri=node.base_uri)


def _copy_leaf(node: Node) -> Node:
    if isinstance(node, Comment):
        if "--" in node.value or node.value.endswith("-"):
            raise XMLError("a comment cannot contain '--' or end in '-'")
        return Comment(node.value)
    if isinstance(node, ProcessingInstruction):
        if "?>" in node.data:
            raise XMLError("a processing instruction cannot contain '?>'")
        return ProcessingInstruction(node.target, node.data)
    raise XMLError(f"cannot copy node kind {node.kind!r} into a message")


def _copy_element(element: Element, scope: dict[str, str]) -> Element:
    """Copy *element* under the in-scope bindings *scope* of the copy
    (prefix -> URI, ``""`` for the default namespace, ``""`` as a URI
    for "no namespace")."""
    own = {prefix: uri for prefix, uri in element.namespaces.items()
           if uri or not prefix}
    if own:
        scope = {**scope, **own}
    name = element.name
    prefix, uri = name.prefix or "", name.namespace_uri or ""
    if prefix and not uri:
        # A prefix bound to no namespace cannot be declared in markup.
        name, prefix = QName(name.local_name), ""
    if prefix != "xml" and scope.get(prefix, "") != uri:
        own[prefix] = uri
        scope = {**scope, prefix: uri}
    #: prefixes this element's own names rely on: never rebound here
    used = {prefix: uri}

    copy = Element.__new__(Element)
    copy.parent = None
    copy._ord = -1
    copy.name = name
    copy.namespaces = own
    attributes: list[Attribute] = []
    for attr in element.attributes:
        attr_name = attr.name
        attr_uri = attr_name.namespace_uri or ""
        attr_prefix = attr_name.prefix or ""
        if not attr_uri:
            if attr_prefix:
                attr_name = QName(attr_name.local_name)
        elif attr_prefix != "xml" or attr_uri != XML_NAMESPACE:
            if not attr_prefix or attr_prefix == "xml" \
                    or used.get(attr_prefix, attr_uri) != attr_uri:
                # Unprefixed attributes are in no namespace, and a
                # prefix this element's names already use cannot be
                # bound to another URI here: pick another.
                attr_prefix = _prefix_for(attr_uri, scope)
                attr_name = QName(attr_name.local_name, attr_uri,
                                  attr_prefix)
            used[attr_prefix] = attr_uri
            if scope.get(attr_prefix) != attr_uri:
                own[attr_prefix] = attr_uri
                scope = {**scope, attr_prefix: attr_uri}
        copied = Attribute(attr_name, attr.value)
        copied.parent = copy
        attributes.append(copied)
    copy.attributes = attributes

    children: list[Node] = []
    text: list[str] = []
    for child in element._children:
        if isinstance(child, Text):
            if child.value:
                text.append(child.value)
            continue
        if text:
            children.append(Text("".join(text)))
            text.clear()
        if isinstance(child, Element):
            children.append(_copy_element(child, scope))
        else:
            children.append(_copy_leaf(child))
    if text:
        children.append(Text("".join(text)))
    for child in children:
        child.parent = copy
    copy._children = children
    return copy


def _prefix_for(uri: str, scope: dict[str, str]) -> str:
    """A prefix already bound to *uri* in *scope*, else a fresh one."""
    for prefix, bound in scope.items():
        if prefix and prefix != "xml" and bound == uri:
            return prefix
    counter = 0
    while f"ns{counter}" in scope:
        counter += 1
    return f"ns{counter}"
