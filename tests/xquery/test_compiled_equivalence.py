"""Differential tests: the closure-compiled backend must be
observationally identical to the reference interpreter.

Three layers of evidence:

* a curated corner-case expression list (operator edge cases, axis
  order, errors, update primitives);
* hypothesis-generated random expressions over random documents,
  comparing results, raised errors (type and code), and pending update
  lists;
* every workload-generator scenario executed end-to-end on a
  ``DemaqServer`` under each backend, comparing queue contents and
  executor statistics.

Node-constructor operands are kept out of the set-operation templates:
document order across freshly constructed fragments is identity-based
and therefore unspecified, so both backends are "right" with different
answers there.
"""

import os

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro import DemaqServer
from repro.xmldm import parse, serialize
from repro.xquery import (BACKEND_ENV_VAR, DynamicContext, compile_expr,
                          compile_expression, evaluate)
from repro.xquery.errors import StaticError
from repro.xquery.updates import EnqueuePrimitive, PendingUpdateList
from repro.workloads import (offer_request, order_message,
                             payment_confirmation, procurement_application,
                             request_stream)

# -- outcome normalization ----------------------------------------------------

def _norm_item(item):
    if hasattr(item, "string_value"):      # Node
        return ("node", type(item).__name__, serialize(item))
    return (type(item).__name__, str(item))


def _norm_updates(pul):
    out = []
    for primitive in pul:
        if isinstance(primitive, EnqueuePrimitive):
            out.append(("enqueue", primitive.queue, serialize(primitive.body),
                        tuple((name, type(value).__name__, str(value))
                              for name, value in primitive.properties)))
        else:
            out.append(("reset", primitive.slicing,
                        None if primitive.key is None else str(primitive.key)))
    return out


def outcome(run, doc, variables=None):
    """(tag, …) fingerprint of an evaluation: result, error, updates."""
    pul = PendingUpdateList()
    ctx = DynamicContext(item=doc, variables=dict(variables or {}),
                         updates=pul)
    try:
        result = run(ctx)
    except Exception as exc:
        return ("error", type(exc).__name__, getattr(exc, "code", None))
    return ("ok", [_norm_item(item) for item in result], _norm_updates(pul))


def assert_equivalent(source, doc, variables=None):
    expr = compile_expression(source)
    interpreted = outcome(lambda ctx: evaluate(expr, ctx), doc, variables)
    compiled = outcome(compile_expr(expr), doc, variables)
    assert interpreted == compiled, (
        f"backends disagree on {source!r}:\n"
        f"  interp:   {interpreted}\n  compiled: {compiled}")


# -- shared fixtures ----------------------------------------------------------

ORDER_DOC = """\
<order priority="high"><id>42</id><customer vip="true">acme</customer>
<items><item sku="A" qty="2"><price>10.5</price></item>
<item sku="B" qty="1"><price>20</price></item>
<item sku="C" qty="5"><price>3</price></item></items>
<note>rush</note><note>fragile</note></order>"""


@pytest.fixture(scope="module")
def order():
    return parse(ORDER_DOC)


# -- curated corner cases -----------------------------------------------------

CURATED = [
    # paths, axes, document order
    "//item", "//item/price", "//item[1]", "//item[last()]", "//item[2.5]",
    "//item[0]", "//item[3][1]", "//item[price][2]", "//item[price > 5]",
    "//item/@sku", "/order/items/item/price", "/", "/order", "//note",
    "//item/ancestor::*", "//item/ancestor-or-self::*",
    "//price/..", "//price/../@qty", "//item/self::item",
    "//item/preceding-sibling::item", "//item/following-sibling::*",
    "//price/preceding::*", "//price/following::*",
    "//item/descendant-or-self::node()", "//text()", "//comment()",
    "/descendant-or-self::node()/child::price", "//*[self::note]",
    "//items//price", "//item/ancestor-or-self::*/descendant::price",
    "child::*", "attribute::*", "@priority", ".",
    # set operations over shared-tree nodes
    "//item union //note", "//item intersect //items/*",
    "//item except //item[2]", "//item[1] is //item[1]",
    "//item[1] << //item[2]", "//item[2] >> //note[1]",
    # operators and comparisons
    "1 + 2.5", "7 idiv 2", "-7 idiv 2", "7.5 mod 2", "-3.2 mod 2",
    "1 div 0", "1.0 div 0", "1e0 div 0", "-1e0 div 0", "0e0 div 0",
    "5 to 8", "8 to 5", "() + 3", "3 + ()", "'a' + 1",
    "//id = 42", "//id eq 42", "//id = '42'", "//id eq '42'",
    "//item/@qty > 1", "//item/@qty = (1, 5)", "'b' gt 'a'",
    "//customer/@vip = 'true'", "() = ()", "1 = (1, 2)", "(1, 2) = (2, 3)",
    "not(//missing)", "//id != 41", "//price < 100",
    # EBV, conditionals, quantifiers, FLWOR
    "if (//note) then 1 else 2", "if (//missing) then 1 else ()",
    "if (0) then 1 else 2", "if ('x') then 1 else 2",
    "some $i in //item satisfies $i/price > 15",
    "every $i in //item satisfies $i/price > 1",
    "some $i in //item, $j in //note satisfies $i/@sku = 'A'",
    "for $i in //item return $i/price",
    "for $i at $p in //item return $p * 10",
    "for $i in //item where $i/@qty >= 2 return string($i/@sku)",
    "for $i in //item order by xs:double($i/price) return string($i/@sku)",
    "for $i in //item order by xs:double($i/price) descending return $i/@sku",
    "for $i in //item order by string($i/@sku) descending return $i/price",
    "let $p := //price return (max($p), min($p), avg($p))",
    "for $i in //item for $n in //note return concat($i/@sku, $n)",
    # functions
    "count(//item)", "sum(//price)", "string-join(//item/@sku, '-')",
    "distinct-values((1, 1.0, '1', 1))", "reverse(//item)/@sku",
    "subsequence(//item, 2)", "subsequence(//item, 2, 1)",
    "index-of((1, 2, 1), 1)", "deep-equal(//item[1], //item[1])",
    "string(//customer)", "normalize-space(' a  b ')",
    "contains(//customer, 'cm')", "substring(//customer, 2, 3)",
    "translate('abc', 'ab', 'x')", "tokenize('a,b,,c', ',')",
    "number(//id)", "number(//note)", "abs(-2.5)", "floor(2.5)",
    "ceiling(-2.5)", "round(2.5)", "round(-2.5)", "name(//item[1])",
    "local-name(//item[1]/@sku)", "root(//price[1]) is /",
    "string-length(//customer)", "exists(//note)", "empty(//note)",
    "boolean(//note)", "data(//item[1])", "zero-or-one(//missing)",
    # errors
    "1 div 'a'", "//item + 1", "unknown-fn()", "count()",
    "fn:error()", "fn:error('X', 'boom')", "exactly-one(//item)",
    "zero-or-one(//item)", "one-or-more(//missing)",
    "//item lt //note", "('a', 'b') and 1", "$unbound",
    "sum(//note)", "avg((1, 'x'))",
    # constructors
    "<r/>", "<r a='1' b='{1+1}'/>", "<r>{//item[1]}</r>",
    "<r>{//item/@sku}</r>", "<r>{1, 2, 'x'}</r>",
    "<out>{//note/text()}</out>", "element foo {//note[1]}",
    "element {concat('a', 'b')} {1}", "attribute q {//id}",
    "text {'a', 1}", "text {()}", "<a><b>{string(//id)}</b></a>",
    # update primitives
    "do enqueue <m>{string(//id)}</m> into target",
    "do enqueue <m/> into q with k value //id with n value 7",
    "do enqueue //item[1] into q", "do enqueue (//item) into q",
    "do enqueue 'atom' into q", "do reset", "do reset(s, //id)",
    "do reset(s, 'key')",
    "if (//note) then do enqueue <m/> into q else do reset",
]


@pytest.mark.parametrize("source", CURATED)
def test_curated_equivalence(source, order):
    assert_equivalent(source, order,
                      variables={"x": [order], "n": [5]})


# -- hypothesis: random expressions over random documents ---------------------

TAGS = ["a", "b", "item", "price", "note"]


@st.composite
def xml_documents(draw):
    def build(depth: int) -> str:
        tag = draw(st.sampled_from(TAGS))
        attrs = ""
        if draw(st.booleans()):
            attrs += f' id="{draw(st.integers(0, 9))}"'
        if draw(st.booleans()):
            attrs += f' sku="S{draw(st.integers(0, 4))}"'
        if depth >= 2:
            children = []
        else:
            children = [build(depth + 1)
                        for _ in range(draw(st.integers(0, 3)))]
        if children:
            content = "".join(children)
        elif draw(st.booleans()):
            content = str(draw(st.integers(0, 99)))
        else:
            content = draw(st.sampled_from(["", "x", "y z", "7.5"]))
        return f"<{tag}{attrs}>{content}</{tag}>"

    body = "".join(build(0) for _ in range(draw(st.integers(1, 3))))
    return parse(f"<doc>{body}</doc>")


ATOM_SOURCES = [
    "1", "2", "0", "3.5", "1.5e0", "'ab'", "''", ".", "position()", "last()",
    "//a", "//b", "//item", "//price", "//item/@sku", "/doc", "child::*",
    "@*", "@id", "//a/text()", "$x", "$n", "()", "xs:integer('7')",
    "true()", "false()",
]

PATH_SOURCES = ["//a", "//b", "//item", "//price", "//item/@sku",
                "child::*", "/doc/*", "//a/..", "//b/ancestor::*"]

BINARY_OPS = ["+", "-", "*", "div", "idiv", "mod", "=", "!=", "<", "<=",
              ">", ">=", "eq", "ne", "lt", "gt", "and", "or"]


def _extend(children):
    paths = st.sampled_from(PATH_SOURCES)
    return st.one_of(
        st.builds(lambda a, b: f"({a}, {b})", children, children),
        st.builds(lambda a, op, b: f"({a} {op} {b})",
                  children, st.sampled_from(BINARY_OPS), children),
        st.builds(lambda p, a: f"{p}[{a}]", paths, children),
        st.builds(lambda a: f"({a})[1]", children),
        st.builds(lambda a, f: f"{f}({a})", children,
                  st.sampled_from(["count", "string", "number", "data",
                                   "not", "exists", "empty", "reverse",
                                   "distinct-values", "sum"])),
        st.builds(lambda a, b: f"if ({a}) then {b} else {a}",
                  children, children),
        st.builds(lambda a: f"for $v in {a} return string($v)", children),
        st.builds(lambda a, b: f"for $v at $p in {a} return ($p, {b})",
                  children, children),
        st.builds(lambda a, b: f"let $v := {a} return ($v, {b})",
                  children, children),
        st.builds(lambda a, b: f"some $v in {a} satisfies {b}",
                  children, children),
        st.builds(lambda p, q, op: f"({p} {op} {q})",
                  paths, paths,
                  st.sampled_from(["union", "intersect", "except"])),
        st.builds(lambda a, b: f"<e x='{{{a}}}'>{{{b}}}</e>",
                  children, children),
        st.builds(lambda a: f"do enqueue <m>{{{a}}}</m> into q1", children),
        st.builds(lambda a: f"1 to count({a})", children),
        st.builds(lambda p, a: f"{p}[{a}]/@sku", paths, children),
    )


EXPRESSIONS = st.recursive(st.sampled_from(ATOM_SOURCES), _extend,
                           max_leaves=6)


@given(source=EXPRESSIONS, doc=xml_documents())
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_random_equivalence(source, doc):
    try:
        compile_expression(source)
    except StaticError:
        # Both backends share the parser; nothing to compare.
        assume(False)
    assert_equivalent(source, doc, variables={"x": [doc], "n": [5]})


# -- workload scenarios -------------------------------------------------------

def _drive_requests(server):
    for _, _, body in request_stream(8):
        server.enqueue("crm", body)
    server.run_until_idle()


def _drive_mixed(server):
    for index, (request_id, customer, body) in enumerate(request_stream(6)):
        server.enqueue("crm", body)
        if index % 2 == 0:
            server.enqueue("crm", order_message(index, customer))
        if index % 3 == 0:
            server.enqueue("crm", payment_confirmation(request_id))
    server.run_until_idle()


def _drive_restricted(server):
    for index in range(5):
        server.enqueue("crm", offer_request(
            f"req-{index}", f"cust-{index % 2}", items=4,
            restricted=index % 2 == 0))
    server.run_until_idle()


SCENARIOS = [
    ("requests", lambda: procurement_application(), _drive_requests),
    ("priority", lambda: procurement_application(priority_crm=3),
     _drive_requests),
    ("mixed", lambda: procurement_application(), _drive_mixed),
    ("restricted", lambda: procurement_application(), _drive_restricted),
]


def _run_scenario(backend, app_factory, drive, monkeypatch):
    monkeypatch.setenv(BACKEND_ENV_VAR, backend)
    server = DemaqServer(app_factory())
    drive(server)
    stats = server.executor.stats
    snapshot = {
        "queues": {name: server.queue_texts(name)
                   for name in server.app.queues},
        "processed": stats.messages_processed,
        "evaluated": stats.rules_evaluated,
        "prefiltered": stats.rules_skipped_by_prefilter,
        "errors": stats.rule_errors,
        "enqueues": stats.enqueues,
        "resets": stats.resets,
        "resolver_evaluations": server.resolver.evaluations,
        "unhandled": [serialize(doc) for doc in server.unhandled_errors],
    }
    server.close()
    return snapshot


@pytest.mark.parametrize("name,app_factory,drive", SCENARIOS)
def test_workload_scenario_equivalence(name, app_factory, drive, monkeypatch):
    interp = _run_scenario("interp", app_factory, drive, monkeypatch)
    compiled = _run_scenario("compiled", app_factory, drive, monkeypatch)
    assert interp == compiled


def test_backend_switch_defaults_to_compiled(monkeypatch):
    monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
    from repro.xquery import active_backend
    assert active_backend() == "compiled"
    monkeypatch.setenv(BACKEND_ENV_VAR, "interp")
    assert active_backend() == "interp"
    monkeypatch.setenv(BACKEND_ENV_VAR, "bogus")
    with pytest.raises(ValueError):
        active_backend()


def test_make_evaluator_rejects_unknown_backend(order):
    from repro.xquery import evaluate_expression, make_evaluator
    expr = compile_expression("1 + 1")
    with pytest.raises(ValueError):
        make_evaluator(expr, backend="bogus")
    # aliases accepted by the env var work as explicit arguments too
    for alias in ("interpreter", "interpreted", "closures"):
        assert make_evaluator(expr, backend=alias)(
            DynamicContext(item=order)) == [2]
    with pytest.raises(ValueError):
        evaluate_expression("1", backend="bogus")


def test_long_boolean_chains_compile_linearly(order):
    # Exponential recompilation of and/or operands would hang here.
    source = " and ".join(f"(//item/@qty = {i})" for i in range(60))
    assert_equivalent(source, order)


@pytest.mark.parametrize("source", [
    "//item", "count(//item)", "//item[@sku = 'B']", "//items//item",
    "if (//item) then 1 else 0", "//p:x", "//*:x", "//x", "//node()",
])
def test_name_index_answers_like_the_walk_across_mutation(source):
    """The compiled ``//name`` paths read a document's name index; the
    interpreter walks.  They must agree before and after the tree
    grows (growth drops the index)."""
    from repro.xmldm import Attribute, Element
    expr = compile_expression(source, {"p": "urn:p"})
    compiled = compile_expr(expr)
    doc = parse('<order xmlns:p="urn:p"><items><item sku="A"/>'
                '<p:x/><item sku="B"><x/></item></items></order>')
    for grow in (False, True):
        if grow:
            items = doc.root_element.child_elements("items")[0]
            items.append(Element("item", [Attribute("sku", "B")]))
        expected = outcome(lambda ctx: evaluate(expr, ctx), doc)
        assert expected[0] == "ok"
        assert outcome(compiled, doc) == expected
