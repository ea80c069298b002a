"""The built-in function library: ``fn:`` core, ``xs:`` constructors, and
the Demaq ``qs:`` queue-system functions (paper §3.4/§3.5).

Every function takes the dynamic context plus already-evaluated argument
sequences and returns a sequence.  ``qs:`` functions delegate to the
context's :class:`~repro.xquery.context.Environment`, which is how the
rule executor injects the current message, queue, and slice.
"""

from __future__ import annotations

import math
import re
from decimal import Decimal

from ..xmldm import Attribute, Document, Element, Node
from .atomics import (UntypedAtomic, XSDateTime, atomic_to_string,
                      cast_atomic, cast_to_double, is_numeric, numeric_pair,
                      type_name)
from .context import DynamicContext
from .errors import DynamicError, FunctionError, TypeError_
from .sequence import (Sequence, atomize, atomize_item, deep_equal_items,
                       document_order, effective_boolean_value,
                       optional_singleton, string_value)

Registry = dict  # name -> {arity | VARIADIC: callable}

VARIADIC = -1

_REGISTRY: Registry = {}


def register(name: str, arity: int):
    """Class-less registration decorator for builtin functions."""

    def wrap(fn):
        _REGISTRY.setdefault(name, {})[arity] = fn
        return fn

    return wrap


def lookup(name: str, arity: int):
    """Resolve a function by lexical name and argument count.

    The default function namespace is ``fn:``, so both ``count`` and
    ``fn:count`` resolve; ``qs:`` and ``xs:`` must be prefixed.
    """
    candidates = []
    if name.startswith("fn:"):
        candidates.append(name[3:])
    candidates.append(name)
    for candidate in candidates:
        by_arity = _REGISTRY.get(candidate)
        if by_arity:
            fn = by_arity.get(arity) or by_arity.get(VARIADIC)
            if fn is not None:
                return fn
            arities = sorted(a for a in by_arity if a != VARIADIC)
            raise TypeError_(
                f"function {name}() exists but not with {arity} argument(s) "
                f"(expected {arities})", "XPST0017")
    raise DynamicError(f"unknown function {name}()", "XPST0017")


def _single_string(args: Sequence, what: str) -> str:
    item = optional_singleton(atomize(args), what)
    if item is None:
        return ""
    return atomic_to_string(item)


def _context_node(ctx: DynamicContext, args: list[Sequence],
                  what: str) -> Node | None:
    if args:
        item = optional_singleton(args[0], what)
    else:
        item = ctx.require_context_item()
    if item is None:
        return None
    if not isinstance(item, Node):
        raise TypeError_(f"{what} requires a node")
    return item


# --- sequences ---------------------------------------------------------------

@register("count", 1)
def fn_count(ctx, args):
    return [len(args[0])]


@register("empty", 1)
def fn_empty(ctx, args):
    return [not args[0]]


@register("exists", 1)
def fn_exists(ctx, args):
    return [bool(args[0])]


@register("not", 1)
def fn_not(ctx, args):
    return [not effective_boolean_value(args[0])]


@register("boolean", 1)
def fn_boolean(ctx, args):
    return [effective_boolean_value(args[0])]


@register("true", 0)
def fn_true(ctx, args):
    return [True]


@register("false", 0)
def fn_false(ctx, args):
    return [False]


@register("data", 1)
def fn_data(ctx, args):
    return atomize(args[0])


@register("distinct-values", 1)
def fn_distinct_values(ctx, args):
    seen: list = []
    for value in atomize(args[0]):
        if not any(deep_equal_items(value, other) for other in seen):
            seen.append(value)
    return seen


@register("reverse", 1)
def fn_reverse(ctx, args):
    return list(reversed(args[0]))


@register("subsequence", 2)
@register("subsequence", 3)
def fn_subsequence(ctx, args):
    source = args[0]
    start = round(cast_to_double(optional_singleton(atomize(args[1]), "start") or 0))
    if len(args) == 3:
        length = round(cast_to_double(
            optional_singleton(atomize(args[2]), "length") or 0))
        end = start + length
    else:
        end = len(source) + 1
    return [item for pos, item in enumerate(source, 1) if start <= pos < end]


@register("index-of", 2)
def fn_index_of(ctx, args):
    target = optional_singleton(atomize(args[1]), "fn:index-of target")
    out = []
    for pos, value in enumerate(atomize(args[0]), 1):
        if target is not None and deep_equal_items(value, target):
            out.append(pos)
    return out


@register("insert-before", 3)
def fn_insert_before(ctx, args):
    source, inserts = args[0], args[2]
    pos = optional_singleton(atomize(args[1]), "fn:insert-before position")
    index = max(1, min(int(pos), len(source) + 1)) if pos is not None else 1
    return source[:index - 1] + inserts + source[index - 1:]


@register("remove", 2)
def fn_remove(ctx, args):
    pos = optional_singleton(atomize(args[1]), "fn:remove position")
    if pos is None:
        return args[0]
    index = int(pos)
    return [item for p, item in enumerate(args[0], 1) if p != index]


@register("exactly-one", 1)
def fn_exactly_one(ctx, args):
    if len(args[0]) != 1:
        raise FunctionError(
            f"fn:exactly-one got {len(args[0])} items", "FORG0005")
    return args[0]


@register("zero-or-one", 1)
def fn_zero_or_one(ctx, args):
    if len(args[0]) > 1:
        raise FunctionError(
            f"fn:zero-or-one got {len(args[0])} items", "FORG0003")
    return args[0]


@register("one-or-more", 1)
def fn_one_or_more(ctx, args):
    if not args[0]:
        raise FunctionError("fn:one-or-more got an empty sequence", "FORG0004")
    return args[0]


@register("deep-equal", 2)
def fn_deep_equal(ctx, args):
    left, right = args
    if len(left) != len(right):
        return [False]
    return [all(deep_equal_items(a, b) for a, b in zip(left, right))]


# --- strings -----------------------------------------------------------------

@register("string", 0)
@register("string", 1)
def fn_string(ctx, args):
    if args:
        item = optional_singleton(args[0], "fn:string")
        if item is None:
            return [""]
    else:
        item = ctx.require_context_item()
    return [string_value(item)]


@register("string-length", 0)
@register("string-length", 1)
def fn_string_length(ctx, args):
    if args:
        return [len(_single_string(args[0], "fn:string-length"))]
    return [len(string_value(ctx.require_context_item()))]


@register("concat", VARIADIC)
def fn_concat(ctx, args):
    if len(args) < 2:
        raise TypeError_("fn:concat requires at least two arguments",
                         "XPST0017")
    return ["".join(_single_string(a, "fn:concat") for a in args)]


@register("string-join", 1)
@register("string-join", 2)
def fn_string_join(ctx, args):
    separator = _single_string(args[1], "separator") if len(args) == 2 else ""
    return [separator.join(atomic_to_string(v) for v in atomize(args[0]))]


@register("contains", 2)
def fn_contains(ctx, args):
    return [_single_string(args[1], "needle") in
            _single_string(args[0], "haystack")]


@register("starts-with", 2)
def fn_starts_with(ctx, args):
    return [_single_string(args[0], "s").startswith(
        _single_string(args[1], "prefix"))]


@register("ends-with", 2)
def fn_ends_with(ctx, args):
    return [_single_string(args[0], "s").endswith(
        _single_string(args[1], "suffix"))]


@register("substring", 2)
@register("substring", 3)
def fn_substring(ctx, args):
    source = _single_string(args[0], "fn:substring")
    start_raw = optional_singleton(atomize(args[1]), "start")
    start = cast_to_double(start_raw) if start_raw is not None else math.nan
    if math.isnan(start):
        return [""]
    begin = round(start)
    if len(args) == 3:
        length_raw = optional_singleton(atomize(args[2]), "length")
        length = cast_to_double(length_raw) if length_raw is not None else math.nan
        if math.isnan(length):
            return [""]
        end = begin + round(length)
    else:
        end = len(source) + 1
    return ["".join(ch for pos, ch in enumerate(source, 1)
                    if begin <= pos < end)]


@register("substring-before", 2)
def fn_substring_before(ctx, args):
    source = _single_string(args[0], "s")
    needle = _single_string(args[1], "needle")
    index = source.find(needle) if needle else -1
    return [source[:index] if index >= 0 else ""]


@register("substring-after", 2)
def fn_substring_after(ctx, args):
    source = _single_string(args[0], "s")
    needle = _single_string(args[1], "needle")
    if not needle:
        return [source]
    index = source.find(needle)
    return [source[index + len(needle):] if index >= 0 else ""]


@register("upper-case", 1)
def fn_upper_case(ctx, args):
    return [_single_string(args[0], "fn:upper-case").upper()]


@register("lower-case", 1)
def fn_lower_case(ctx, args):
    return [_single_string(args[0], "fn:lower-case").lower()]


@register("normalize-space", 0)
@register("normalize-space", 1)
def fn_normalize_space(ctx, args):
    if args:
        text = _single_string(args[0], "fn:normalize-space")
    else:
        text = string_value(ctx.require_context_item())
    return [" ".join(text.split())]


@register("translate", 3)
def fn_translate(ctx, args):
    source = _single_string(args[0], "source")
    from_chars = _single_string(args[1], "map")
    to_chars = _single_string(args[2], "trans")
    table = {}
    for index, char in enumerate(from_chars):
        if char not in table:
            table[char] = to_chars[index] if index < len(to_chars) else None
    return ["".join(table.get(c, c) for c in source
                    if table.get(c, c) is not None)]


def _compile_pattern(pattern: str) -> "re.Pattern[str]":
    try:
        return re.compile(pattern)
    except re.error as exc:
        raise FunctionError(f"invalid regular expression: {exc}", "FORX0002")


@register("matches", 2)
def fn_matches(ctx, args):
    source = _single_string(args[0], "source")
    return [_compile_pattern(_single_string(args[1], "pattern"))
            .search(source) is not None]


@register("replace", 3)
def fn_replace(ctx, args):
    source = _single_string(args[0], "source")
    pattern = _compile_pattern(_single_string(args[1], "pattern"))
    replacement = _single_string(args[2], "replacement")
    return [pattern.sub(replacement.replace("\\$", "$"), source)]


@register("tokenize", 2)
def fn_tokenize(ctx, args):
    source = _single_string(args[0], "source")
    pattern = _compile_pattern(_single_string(args[1], "pattern"))
    if not source:
        return []
    return list(pattern.split(source))


# --- numbers -----------------------------------------------------------------

@register("number", 0)
@register("number", 1)
def fn_number(ctx, args):
    if args:
        item = optional_singleton(atomize(args[0]), "fn:number")
    else:
        item = atomize_item(ctx.require_context_item())
    if item is None:
        return [math.nan]
    try:
        return [cast_to_double(item)]
    except (FunctionError, TypeError_):
        return [math.nan]


def _numeric_aggregate(args, what):
    values = atomize(args[0])
    out = []
    for value in values:
        if isinstance(value, UntypedAtomic):
            value = cast_to_double(value)
        elif not (is_numeric(value) or isinstance(value, XSDateTime)):
            raise FunctionError(
                f"{what} over non-numeric {type_name(value)}", "FORG0006")
        out.append(value)
    return out


@register("sum", 1)
@register("sum", 2)
def fn_sum(ctx, args):
    values = _numeric_aggregate(args, "fn:sum")
    if not values:
        return atomize(args[1]) if len(args) == 2 else [0]
    total = values[0]
    for value in values[1:]:
        left, right = numeric_pair(total, value)
        total = left + right
    return [total]


@register("avg", 1)
def fn_avg(ctx, args):
    values = _numeric_aggregate(args, "fn:avg")
    if not values:
        return []
    total = fn_sum(ctx, [values])[0]
    left, right = numeric_pair(total, len(values))
    if isinstance(left, int):
        left = Decimal(left)
        right = Decimal(right)
    return [left / right]


@register("max", 1)
def fn_max(ctx, args):
    values = _numeric_aggregate(args, "fn:max")
    if not values:
        return []
    best = values[0]
    for value in values[1:]:
        if _order_lt(best, value):
            best = value
    return [best]


@register("min", 1)
def fn_min(ctx, args):
    values = _numeric_aggregate(args, "fn:min")
    if not values:
        return []
    best = values[0]
    for value in values[1:]:
        if _order_lt(value, best):
            best = value
    return [best]


def _order_lt(a, b) -> bool:
    if isinstance(a, XSDateTime) or isinstance(b, XSDateTime):
        if not (isinstance(a, XSDateTime) and isinstance(b, XSDateTime)):
            raise TypeError_("cannot mix xs:dateTime with numbers")
        return a < b
    left, right = numeric_pair(a, b)
    return left < right


@register("abs", 1)
def fn_abs(ctx, args):
    value = optional_singleton(atomize(args[0]), "fn:abs")
    if value is None:
        return []
    if isinstance(value, UntypedAtomic):
        value = cast_to_double(value)
    if not is_numeric(value):
        raise TypeError_(f"fn:abs on {type_name(value)}")
    return [abs(value)]


def _rounding(args, what, rounder):
    value = optional_singleton(atomize(args[0]), what)
    if value is None:
        return []
    if isinstance(value, UntypedAtomic):
        value = cast_to_double(value)
    if not is_numeric(value):
        raise TypeError_(f"{what} on {type_name(value)}")
    if isinstance(value, float) and (math.isnan(value) or math.isinf(value)):
        return [value]
    result = rounder(value)
    if isinstance(value, float):
        return [float(result)]
    if isinstance(value, Decimal):
        return [Decimal(result)]
    return [int(result)]


@register("floor", 1)
def fn_floor(ctx, args):
    return _rounding(args, "fn:floor", math.floor)


@register("ceiling", 1)
def fn_ceiling(ctx, args):
    return _rounding(args, "fn:ceiling", math.ceil)


@register("round", 1)
def fn_round(ctx, args):
    return _rounding(args, "fn:round", lambda v: math.floor(float(v) + 0.5))


# --- nodes -------------------------------------------------------------------

@register("name", 0)
@register("name", 1)
def fn_name(ctx, args):
    node = _context_node(ctx, args, "fn:name")
    if node is None or node.node_name is None:
        return [""]
    return [node.node_name.lexical]


@register("local-name", 0)
@register("local-name", 1)
def fn_local_name(ctx, args):
    node = _context_node(ctx, args, "fn:local-name")
    if node is None or node.node_name is None:
        return [""]
    return [node.node_name.local_name]


@register("namespace-uri", 0)
@register("namespace-uri", 1)
def fn_namespace_uri(ctx, args):
    node = _context_node(ctx, args, "fn:namespace-uri")
    if node is None or node.node_name is None:
        return [""]
    return [node.node_name.namespace_uri or ""]


@register("root", 0)
@register("root", 1)
def fn_root(ctx, args):
    node = _context_node(ctx, args, "fn:root")
    if node is None:
        return []
    return [node.root]


# --- position / focus ----------------------------------------------------------

@register("position", 0)
def fn_position(ctx, args):
    ctx.require_context_item()
    return [ctx.position]


@register("last", 0)
def fn_last(ctx, args):
    ctx.require_context_item()
    return [ctx.size]


# --- dates, errors, documents ----------------------------------------------------

@register("current-dateTime", 0)
def fn_current_datetime(ctx, args):
    return [ctx.environment.current_datetime()]


@register("error", 0)
@register("error", 1)
@register("error", 2)
def fn_error(ctx, args):
    code = _single_string(args[0], "code") if args else "FOER0000"
    message = (_single_string(args[1], "description")
               if len(args) >= 2 else "error raised by fn:error()")
    raise FunctionError(message, code or "FOER0000")


@register("collection", 1)
def fn_collection(ctx, args):
    name = _single_string(args[0], "fn:collection")
    return list(ctx.environment.collection(name))


# --- Demaq queue-system functions (qs:) -----------------------------------------

@register("qs:message", 0)
def qs_message(ctx, args):
    return [ctx.environment.message()]


@register("qs:queue", 0)
@register("qs:queue", 1)
def qs_queue(ctx, args):
    name = _single_string(args[0], "qs:queue") if args else None
    return list(ctx.environment.queue(name))


@register("qs:queue-index", 3)
def qs_queue_index(ctx, args):
    """Index-backed queue access (compiler-generated, paper §4.3).

    ``qs:queue-index(queue, property, probe)`` returns the messages of
    *queue* whose *property* equals any atomized probe value — the
    access path the rule compiler emits for indexable equality
    predicates over ``qs:queue()``.
    """
    queue = _single_string(args[0], "qs:queue-index")
    prop = _single_string(args[1], "qs:queue-index")
    probes = atomize(args[2])
    if not probes:
        return []
    return document_order(
        list(ctx.environment.queue_lookup(queue, prop, probes)))


@register("qs:slice", 0)
def qs_slice(ctx, args):
    return list(ctx.environment.slice_messages())


@register("qs:slicekey", 0)
def qs_slicekey(ctx, args):
    return [ctx.environment.slice_key()]


@register("qs:property", 1)
def qs_property(ctx, args):
    name = _single_string(args[0], "qs:property")
    value = ctx.environment.property(name)
    return [] if value is None else [value]


# --- xs: constructor functions ----------------------------------------------------

def _xs_constructor(target: str):
    def construct(ctx, args):
        item = optional_singleton(atomize(args[0]), target)
        if item is None:
            return []
        return [cast_atomic(item, target)]

    return construct


for _type in ("xs:string", "xs:boolean", "xs:integer", "xs:int", "xs:long",
              "xs:decimal", "xs:double", "xs:dateTime", "xs:untypedAtomic"):
    _REGISTRY.setdefault(_type, {})[1] = _xs_constructor(_type)
