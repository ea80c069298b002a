"""XML data model: nodes, parser, serializer, schema validation.

This package is the Natix-style "native XML" substrate every other layer
builds on.  See DESIGN.md §3.
"""

from .nodes import (Attribute, Comment, Document, Element, Node,
                    ProcessingInstruction, Text, XMLError, copy_as_document,
                    deep_copy)
from .parser import XMLParseError, parse, parse_fragment
from .qname import QName
from .schema import (Schema, SchemaError, ValidationError, check_simple_type,
                     compile_schema)
from .serializer import escape_attribute, escape_text, serialize

__all__ = [
    "Attribute", "Comment", "Document", "Element", "Node",
    "ProcessingInstruction", "Text", "XMLError", "copy_as_document",
    "deep_copy",
    "XMLParseError", "parse", "parse_fragment",
    "QName",
    "Schema", "SchemaError", "ValidationError", "check_simple_type",
    "compile_schema",
    "escape_attribute", "escape_text", "serialize",
]
