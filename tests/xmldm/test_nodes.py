"""Tests for the XML node model."""

import pytest

from repro.xmldm import (Attribute, Comment, Document, Element, QName, Text,
                         XMLError, deep_copy, parse)


def build_order():
    return Element("order", children=[
        Element("id", children=[Text("42")]),
        Element("items", children=[
            Element("item", [Attribute("sku", "A")], [Text("widget")]),
            Element("item", [Attribute("sku", "B")], [Text("gadget")]),
        ]),
    ])


def test_string_value_concatenates_descendant_text():
    order = build_order()
    assert order.string_value == "42widgetgadget"


def test_attribute_not_in_children():
    item = Element("item", [Attribute("sku", "A")], [Text("x")])
    assert all(not isinstance(c, Attribute) for c in item.children)
    assert item.attribute_value("sku") == "A"


def test_duplicate_attribute_rejected():
    with pytest.raises(XMLError):
        Element("e", [Attribute("a", "1"), Attribute("a", "2")])


def test_parent_links():
    order = build_order()
    items = order.first_child("items")
    assert items.parent is order
    assert items.children[0].parent is items
    assert items.attributes == []


def test_ancestors_nearest_first():
    order = build_order()
    item = order.first_child("items").child_elements("item")[0]
    names = [a.name.local_name for a in item.ancestors()]
    assert names == ["items", "order"]


def test_descendants_in_document_order():
    doc = parse("<a><b><c/></b><d/></a>")
    names = [n.name.local_name for n in doc.root_element.descendants()
             if isinstance(n, Element)]
    assert names == ["b", "c", "d"]


def test_descendants_or_self_starts_with_self():
    doc = parse("<a><b/></a>")
    nodes = list(doc.root_element.descendants_or_self())
    assert nodes[0] is doc.root_element


def test_sibling_axes():
    doc = parse("<r><a/><b/><c/><d/></r>")
    a, b, c, d = doc.root_element.child_elements()
    assert [n.name.local_name for n in b.following_siblings()] == ["c", "d"]
    assert [n.name.local_name for n in c.preceding_siblings()] == ["b", "a"]
    assert list(a.preceding_siblings()) == []
    assert list(d.following_siblings()) == []


def test_document_order_keys_sort_preorder():
    doc = parse("<a><b><c/></b><d/></a>")
    a = doc.root_element
    b = a.child_elements()[0]
    c = b.child_elements()[0]
    d = a.child_elements()[1]
    keys = [n.order_key() for n in (doc, a, b, c, d)]
    assert keys == sorted(keys)
    assert len(set(keys)) == 5


def test_document_order_across_documents_is_stable():
    doc1 = parse("<a/>")
    doc2 = parse("<b/>")
    assert doc1.root_element.order_key() < doc2.root_element.order_key()


def test_order_recomputed_after_append():
    doc = parse("<a><b/></a>")
    b = doc.root_element.child_elements()[0]
    key_before = b.order_key()
    doc.root_element.append(Element("c"))
    c = doc.root_element.child_elements()[1]
    assert key_before == b.order_key()
    assert b.order_key() < c.order_key()


def test_fragment_order_key_without_document():
    frag = Element("x", children=[Element("y")])
    y = frag.child_elements()[0]
    assert frag.order_key() < y.order_key()


def test_document_rejects_attribute_child():
    doc = Document()
    with pytest.raises(XMLError):
        doc.append(Attribute("a", "1"))


def test_document_root_element():
    doc = Document([Comment("lead"), Element("root")])
    assert doc.root_element.name == QName("root")
    assert Document().root_element is None


def test_element_append_document_splices_children():
    inner = Document([Element("payload", children=[Text("hi")])])
    outer = Element("envelope")
    outer.append(inner)
    assert [c.name.local_name for c in outer.child_elements()] == ["payload"]
    assert outer.child_elements()[0].parent is outer


def test_element_text_only_direct_children():
    doc = parse("<a>x<b>y</b>z</a>")
    assert doc.root_element.text == "xz"
    assert doc.root_element.string_value == "xyz"


def test_in_scope_namespaces_accumulate():
    doc = parse('<a xmlns:p="urn:p"><b xmlns:q="urn:q"><c/></b></a>')
    c = doc.root_element.child_elements()[0].child_elements()[0]
    scope = c.in_scope_namespaces()
    assert scope == {"p": "urn:p", "q": "urn:q"}


def test_in_scope_namespaces_inner_wins():
    doc = parse('<a xmlns:p="urn:1"><b xmlns:p="urn:2"/></a>')
    b = doc.root_element.child_elements()[0]
    assert b.in_scope_namespaces()["p"] == "urn:2"


def test_deep_copy_is_structural_not_identical():
    order = build_order()
    copy = deep_copy(order)
    assert copy is not order
    assert copy.string_value == order.string_value
    assert copy.parent is None
    assert copy.child_elements("items")[0].attributes == []
    sku = copy.first_child("items").child_elements("item")[0].attribute_value("sku")
    assert sku == "A"


def test_deep_copy_document_gets_new_doc_id():
    doc = parse("<a/>")
    copy = deep_copy(doc)
    assert isinstance(copy, Document)
    assert copy.doc_id != doc.doc_id


def test_comment_and_pi_string_values():
    doc = parse("<a><!--note--><?pi data?></a>")
    comment, pi = doc.root_element.children
    assert comment.string_value == "note"
    assert pi.string_value == "data"
    assert pi.node_name.local_name == "pi"


def test_name_index_lists_elements_in_document_order():
    document = Document([build_order()])
    index = document.name_index()
    items = index[(None, "item")]
    assert [e.attribute_value("sku") for e in items] == ["A", "B"]
    assert items == [n for n in document.descendants()
                     if isinstance(n, Element) and n.name.local_name == "item"]
    assert document.name_index() is index      # built once


def test_name_index_keys_on_namespace():
    document = parse('<r xmlns:p="urn:p"><p:a/><a/></r>')
    index = document.name_index()
    assert len(index[("urn:p", "a")]) == 1
    assert len(index[(None, "a")]) == 1


def test_name_index_dropped_when_the_tree_grows():
    document = Document([build_order()])
    before = document.name_index()
    items = document.root_element.child_elements("items")[0]
    items.append(Element("item", [Attribute("sku", "C")]))
    after = document.name_index()
    assert after is not before
    assert [e.attribute_value("sku") for e in after[(None, "item")]] == \
        ["A", "B", "C"]
    document.append(Comment("tail"))
    assert document.name_index() is not after
