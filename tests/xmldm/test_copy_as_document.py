"""Rule-built message bodies must re-parse to the tree they came from.

The store keeps the tree a rule built (or a producer's parsed input) in
its parse cache and persists only its serialization; recovery, replicas
and cache misses parse that text.  Both must agree node for node, or a
live read and a read after restart see different messages — or the
restart cannot read the message at all.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import DemaqServer
from repro.xmldm import (Attribute, Comment, Document, Element,
                         ProcessingInstruction, QName, Text, XMLError,
                         copy_as_document, parse, serialize)
from repro.xquery.updates import as_message_body


def _same(a, b, path="/"):
    """Node-for-node equality, prefixes and declarations included."""
    assert type(a) is type(b), f"{path}: {type(a).__name__} vs {type(b).__name__}"
    if isinstance(a, Element):
        assert a.name == b.name and (a.name.prefix or "") == \
            (b.name.prefix or ""), f"{path}: {a.name!r} vs {b.name!r}"
        assert a.namespaces == b.namespaces, path
        assert [(x.name, x.name.prefix or "", x.value)
                for x in a.attributes] == \
            [(x.name, x.name.prefix or "", x.value)
             for x in b.attributes], path
    elif isinstance(a, (Text, Comment)):
        assert a.value == b.value, path
    elif isinstance(a, ProcessingInstruction):
        assert (a.target, a.data) == (b.target, b.data), path
    assert len(a.children) == len(b.children), f"{path}: child count"
    for index, (x, y) in enumerate(zip(a.children, b.children)):
        _same(x, y, f"{path}{index}/")


def _round_trips(document):
    _same(document, parse(serialize(document)))


# -- the reported case ---------------------------------------------------------

APP = """
create queue a kind basic mode persistent;
create queue b kind basic mode persistent;
create rule r for a do enqueue <out>{/*/*}</out> into b;
"""


def test_rule_copy_of_a_prefixed_child_keeps_its_namespace(tmp_path):
    server = DemaqServer(APP, data_dir=str(tmp_path))
    server.enqueue("a", '<p:root xmlns:p="urn:p"><p:x n="1">t</p:x></p:root>')
    server.run_until_idle()
    [text] = server.queue_texts("b")
    [live] = server.queue_documents("b")
    _same(live, parse(text))
    x = live.root_element.children[0]
    assert x.name == QName("x", "urn:p")
    server.store.simulate_crash()
    server.store.recover()
    [recovered] = server.queue_documents("b")
    _same(live, recovered)
    server.close()


# -- random rule-built documents ---------------------------------------------------

_NAMES = st.sampled_from([
    QName("a"), QName("b"),
    QName("x", "urn:p", "p"), QName("y", "urn:p", "p"),
    QName("x", "urn:q", "q"), QName("z", "urn:q", "p"),   # p rebound
    QName("d", "urn:d"),                                   # default ns
])
_ATTR_NAMES = st.sampled_from([
    QName("n"), QName("m"), QName("k", "urn:p", "p"),
    QName("k", "urn:q", "p"), QName("j", "urn:r"),         # unprefixed, ns
    QName("lang", "http://www.w3.org/XML/1998/namespace", "xml"),
])
_DECLS = st.dictionaries(st.sampled_from(["", "p", "q"]),
                         st.sampled_from(["urn:p", "urn:q", "urn:d", ""]),
                         max_size=2)
_TEXT = st.text(alphabet="ab <>&\"'\t\n]", max_size=6)


@st.composite
def _element(draw, depth=0):
    attributes = {}
    for name, value in draw(st.lists(st.tuples(_ATTR_NAMES, _TEXT),
                                     max_size=3)):
        attributes.setdefault(name, Attribute(name, value))
    children = []
    if depth < 3:
        for kind in draw(st.lists(st.sampled_from(
                ["element", "text", "empty", "comment"]), max_size=4)):
            if kind == "element":
                children.append(draw(_element(depth + 1)))
            elif kind == "text":
                children.append(Text(draw(_TEXT)))
            elif kind == "empty":
                children.append(Text(""))
            else:
                children.append(Comment(draw(st.text(alphabet="ab c",
                                                      max_size=5))))
    return Element(draw(_NAMES), attributes=list(attributes.values()),
                   children=children, namespaces=draw(_DECLS))


@settings(max_examples=150, deadline=None)
@given(_element(), st.data())
def test_rule_built_bodies_equal_their_reparse(root, data):
    # A rule picks any element of a (possibly namespaced) tree — often
    # deep inside it, away from the declarations its names rely on —
    # and enqueues it, alone or inside a constructed wrapper.
    Document([root])
    elements = [root] + [n for n in root.descendants()
                         if isinstance(n, Element)]
    picked = data.draw(st.sampled_from(elements))
    if data.draw(st.booleans()):
        wrapper = Element(data.draw(_NAMES))
        wrapper.append(Text(data.draw(_TEXT)))
        wrapper.append(picked)
        wrapper.append(Text(data.draw(_TEXT)))
        picked = wrapper
    body = as_message_body([picked])
    _round_trips(body)


def test_adjacent_and_empty_text_merge_like_the_parser():
    element = Element("m", children=[Text("a"), Text(""), Text("b"),
                                     Comment("c"), Text("")])
    copy = copy_as_document(element)
    _round_trips(copy)
    assert [type(c).__name__ for c in copy.root_element.children] == \
        ["Text", "Comment"]


@pytest.mark.parametrize("node", [
    Text("loose"),
    Document([Element("a"), Element("b")]),
    Document([Text("x"), Element("a")]),
    Element("a", children=[Comment("a--b")]),
    Element("a", children=[ProcessingInstruction("t", "x?>y")]),
])
def test_what_markup_cannot_express_is_refused(node):
    with pytest.raises(XMLError):
        copy_as_document(node)


def test_empty_cdata_makes_no_text_node():
    assert parse("<a><![CDATA[]]></a>").root_element.children == []


def test_escaped_cdata_close_in_text_round_trips():
    element = Element("m", children=[Text("]]"), Text(">")])
    _round_trips(copy_as_document(element))
    assert parse("<m>]]&gt;</m>").root_element.text == "]]>"
    with pytest.raises(XMLError):
        parse("<m>]]></m>")
