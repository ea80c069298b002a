"""A hand-written, namespace-aware XML parser.

Produces :mod:`repro.xmldm.nodes` trees.  Supports the XML subset that
matters for message processing: elements, attributes, character data with
the five predefined entities and numeric character references, CDATA
sections, comments, processing instructions, an optional XML declaration,
and namespace declarations (``xmlns``/``xmlns:p``).

DTDs are intentionally rejected: messages come from untrusted remote
peers, and DTD processing (entity expansion, external subsets) is the
classic XML attack surface.  A truncated or malformed message raises
:class:`XMLParseError` carrying line/column information — the rule engine
turns these into error-queue messages (paper §3.6, "message related
errors").
"""

from __future__ import annotations

from .nodes import (Attribute, Comment, Document, Element, Node,
                    ProcessingInstruction, Text, XMLError)
from .qname import XMLNS_NAMESPACE, QName

_PREDEFINED_ENTITIES = {
    "lt": "<",
    "gt": ">",
    "amp": "&",
    "quot": '"',
    "apos": "'",
}

_NAME_START = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_:")
_NAME_CHARS = _NAME_START | set("0123456789.-")


class XMLParseError(XMLError):
    """Raised on malformed input; carries 1-based line and column."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


class _Scanner:
    """Cursor over the input with line/column tracking."""

    __slots__ = ("text", "pos", "length")

    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.length = len(text)

    def location(self, pos: int | None = None) -> tuple[int, int]:
        pos = self.pos if pos is None else pos
        line = self.text.count("\n", 0, pos) + 1
        last_nl = self.text.rfind("\n", 0, pos)
        column = pos - last_nl
        return line, column

    def error(self, message: str, pos: int | None = None) -> XMLParseError:
        line, column = self.location(pos)
        return XMLParseError(message, line, column)

    def at_end(self) -> bool:
        return self.pos >= self.length

    def peek(self, offset: int = 0) -> str:
        idx = self.pos + offset
        return self.text[idx] if idx < self.length else ""

    def startswith(self, token: str) -> bool:
        return self.text.startswith(token, self.pos)

    def advance(self, count: int = 1) -> None:
        self.pos += count

    def expect(self, token: str) -> None:
        if not self.startswith(token):
            raise self.error(f"expected {token!r}")
        self.pos += len(token)

    def skip_whitespace(self) -> None:
        while self.pos < self.length and self.text[self.pos] in " \t\r\n":
            self.pos += 1

    def read_name(self) -> str:
        start = self.pos
        if self.at_end() or self.text[self.pos] not in _NAME_START:
            raise self.error("expected an XML name")
        self.pos += 1
        while self.pos < self.length and self.text[self.pos] in _NAME_CHARS:
            self.pos += 1
        return self.text[start:self.pos]

    def read_until(self, token: str, what: str) -> str:
        end = self.text.find(token, self.pos)
        if end < 0:
            raise self.error(f"unterminated {what}")
        value = self.text[self.pos:end]
        self.pos = end + len(token)
        return value


def _decode_entity(scanner: _Scanner) -> str:
    """Decode an entity/char reference; scanner sits just past the ``&``."""
    if scanner.peek() == "#":
        scanner.advance()
        if scanner.peek() in ("x", "X"):
            scanner.advance()
            digits = scanner.read_until(";", "character reference")
            try:
                return chr(int(digits, 16))
            except (ValueError, OverflowError):
                raise scanner.error(f"bad hex character reference &#x{digits};")
        digits = scanner.read_until(";", "character reference")
        try:
            return chr(int(digits, 10))
        except (ValueError, OverflowError):
            raise scanner.error(f"bad character reference &#{digits};")
    name = scanner.read_until(";", "entity reference")
    try:
        return _PREDEFINED_ENTITIES[name]
    except KeyError:
        raise scanner.error(f"unknown entity &{name};") from None


def _decode_text(scanner: _Scanner, stop_char: str,
                 forbid_lt: bool = False) -> str:
    """Read character data until *stop_char*, decoding references.

    With *forbid_lt*, a literal ``<`` is a well-formedness error (attribute
    values); a ``&lt;`` reference is still fine.
    """
    parts: list[str] = []
    while not scanner.at_end():
        char = scanner.peek()
        if char == stop_char:
            break
        if char == "<" and forbid_lt:
            raise scanner.error("'<' not allowed in attribute values")
        scanner.advance()
        if char == "&":
            parts.append(_decode_entity(scanner))
        else:
            parts.append(char)
    return "".join(parts)


class XMLParser:
    """Parses a complete document (or fragment) into a :class:`Document`."""

    def __init__(self, text: str, base_uri: str | None = None):
        self._scanner = _Scanner(text)
        self._base_uri = base_uri

    def parse_document(self) -> Document:
        scanner = self._scanner
        document = Document(base_uri=self._base_uri)
        self._parse_prolog(document)
        scanner.skip_whitespace()
        if scanner.at_end() or scanner.peek() != "<":
            raise scanner.error("expected a root element")
        root = self._parse_element(parent_namespaces={})
        document.append(root)
        # Trailing misc: comments / PIs / whitespace only.
        while not scanner.at_end():
            scanner.skip_whitespace()
            if scanner.at_end():
                break
            if scanner.startswith("<!--"):
                document.append(self._parse_comment())
            elif scanner.startswith("<?"):
                document.append(self._parse_pi())
            else:
                raise scanner.error("content after the root element")
        document.ensure_order()
        return document

    # -- pieces ----------------------------------------------------------

    def _parse_prolog(self, document: Document) -> None:
        scanner = self._scanner
        scanner.skip_whitespace()
        if scanner.startswith("<?xml"):
            scanner.read_until("?>", "XML declaration")
        while True:
            scanner.skip_whitespace()
            if scanner.startswith("<!--"):
                document.append(self._parse_comment())
            elif scanner.startswith("<!DOCTYPE"):
                raise scanner.error("DTDs are not accepted in messages")
            elif scanner.startswith("<?"):
                document.append(self._parse_pi())
            else:
                return

    def _parse_comment(self) -> Comment:
        scanner = self._scanner
        scanner.expect("<!--")
        value = scanner.read_until("-->", "comment")
        if "--" in value:
            raise scanner.error("'--' not allowed inside a comment")
        return Comment(value)

    def _parse_pi(self) -> ProcessingInstruction:
        scanner = self._scanner
        scanner.expect("<?")
        target = scanner.read_name()
        if target.lower() == "xml":
            raise scanner.error("reserved processing-instruction target 'xml'")
        scanner.skip_whitespace()
        data = scanner.read_until("?>", "processing instruction")
        return ProcessingInstruction(target, data)

    def _parse_element(self, parent_namespaces: dict[str, str]) -> Element:
        scanner = self._scanner
        open_pos = scanner.pos
        scanner.expect("<")
        raw_name = scanner.read_name()

        raw_attributes: list[tuple[str, str]] = []
        declared: dict[str, str] = {}
        default_ns_declared: str | None = None
        has_default_decl = False

        while True:
            had_space = scanner.peek() in " \t\r\n"
            scanner.skip_whitespace()
            char = scanner.peek()
            if char == ">" or scanner.startswith("/>"):
                break
            if scanner.at_end():
                raise scanner.error("unterminated start tag", open_pos)
            if not had_space:
                raise scanner.error("expected whitespace before attribute")
            attr_name = scanner.read_name()
            scanner.skip_whitespace()
            scanner.expect("=")
            scanner.skip_whitespace()
            quote = scanner.peek()
            if quote not in ("'", '"'):
                raise scanner.error("attribute value must be quoted")
            scanner.advance()
            value = _decode_text(scanner, quote, forbid_lt=True)
            scanner.expect(quote)
            if attr_name == "xmlns":
                has_default_decl = True
                default_ns_declared = value or None
            elif attr_name.startswith("xmlns:"):
                prefix = attr_name[len("xmlns:"):]
                if not value:
                    raise scanner.error(f"cannot undeclare prefix {prefix!r}")
                declared[prefix] = value
            else:
                raw_attributes.append((attr_name, value))

        namespaces = dict(parent_namespaces)
        namespaces.update(declared)
        if has_default_decl:
            if default_ns_declared is None:
                namespaces.pop("", None)
            else:
                namespaces[""] = default_ns_declared

        default_uri = namespaces.get("")
        try:
            name = QName.parse(raw_name, namespaces, default_uri)
        except ValueError as exc:
            raise scanner.error(str(exc), open_pos) from None

        own_decls = dict(declared)
        if has_default_decl:
            own_decls[""] = default_ns_declared or ""
        element = Element(name, namespaces=own_decls)

        for attr_name, value in raw_attributes:
            try:
                # Unprefixed attributes are in *no* namespace, never the default.
                attr_qname = QName.parse(attr_name, namespaces, None)
            except ValueError as exc:
                raise scanner.error(str(exc), open_pos) from None
            try:
                element.set_attribute(Attribute(attr_qname, value))
            except XMLError as exc:
                raise scanner.error(str(exc), open_pos) from None

        if scanner.startswith("/>"):
            scanner.advance(2)
            return element

        scanner.expect(">")
        self._parse_content(element, namespaces)
        scanner.expect("</")
        close_name = scanner.read_name()
        if close_name != raw_name:
            raise scanner.error(
                f"mismatched end tag: expected </{raw_name}>, got </{close_name}>")
        scanner.skip_whitespace()
        scanner.expect(">")
        return element

    def _parse_content(self, element: Element, namespaces: dict[str, str]) -> None:
        scanner = self._scanner
        pending_text: list[str] = []

        def flush_text() -> None:
            if pending_text:
                text = "".join(pending_text)
                if text:    # an empty CDATA section makes no text node
                    element.append(Text(text))
                pending_text.clear()

        while True:
            if scanner.at_end():
                raise scanner.error(f"unterminated element <{element.name}>")
            if scanner.startswith("</"):
                flush_text()
                return
            if scanner.startswith("<![CDATA["):
                scanner.advance(len("<![CDATA["))
                pending_text.append(scanner.read_until("]]>", "CDATA section"))
            elif scanner.startswith("<!--"):
                flush_text()
                element.append(self._parse_comment())
            elif scanner.startswith("<?"):
                flush_text()
                element.append(self._parse_pi())
            elif scanner.peek() == "<":
                flush_text()
                element.append(self._parse_element(namespaces))
            else:
                start = scanner.pos
                text = _decode_text(scanner, "<")
                # The ban is on the literal markup; "]]&gt;" is fine.
                if "]]>" in text and \
                        "]]>" in scanner.text[start:scanner.pos]:
                    raise scanner.error("']]>' not allowed in character data")
                pending_text.append(text)


def parse(text: str, base_uri: str | None = None) -> Document:
    """Parse an XML document string into a :class:`Document`.

    >>> doc = parse("<order><id>7</id></order>")
    >>> doc.root_element.first_child("id").text
    '7'
    """
    if not isinstance(text, str):
        raise TypeError(f"parse() needs str, got {type(text).__name__}")
    return XMLParser(text, base_uri).parse_document()


def parse_fragment(text: str) -> list[Node]:
    """Parse mixed content (no single-root requirement) into a node list."""
    wrapped = parse(f"<fragment-wrapper>{text}</fragment-wrapper>")
    children = list(wrapped.root_element.children)
    for child in children:
        child.parent = None
    return children
