"""The closure-compilation backend for the XQuery subset.

:func:`compile_expr` lowers an AST **once** into nested Python closures
(``Callable[[DynamicContext], Sequence]``).  Where the tree-walking
interpreter (:mod:`repro.xquery.evaluator`) re-dispatches on node type,
re-resolves functions, operators and axes, and re-materializes axis
candidate lists on every evaluation, the compiled form resolves all of
that at compile time:

* literals fold to constant sequences (comment markers excepted — they
  construct a fresh node per evaluation, like the interpreter);
* function bindings, comparison operators and arithmetic ops are looked
  up once; unknown functions become closures that *defer* the error to
  evaluation time, preserving the interpreter's behaviour for branches
  that never run;
* path steps lower to specialized per-axis/per-test step functions that
  never build intermediate focus contexts (an axis step only reads the
  context *item*; predicates establish their own foci), with early exit
  for literal positional predicates (``[1]``) and a static document-order
  analysis that skips re-sorting when a step provably preserves order;
* FLWOR clauses pre-plan into a list of tuple-stream transformers.

The interpreter remains the *reference semantics*: every leaf-level
semantic helper (value/general comparison, numeric promotion, order-by
keys, axis candidate generation, predicate truth) is imported from
:mod:`repro.xquery.evaluator` so the two backends cannot drift apart on
the subtle rules.  ``tests/xquery/test_compiled_equivalence.py`` asserts
equivalence (results, errors, and pending update lists) on generated
expressions and on the workload scenarios; ``benchmarks/bench_eval.py``
measures the speedup (E11 in DESIGN.md §5).

Backend selection is the ``DEMAQ_XQUERY_BACKEND`` environment variable
(``compiled`` is the default, ``interp`` selects the interpreter); see
:func:`repro.xquery.active_backend`.
"""

from __future__ import annotations

import math
from decimal import Decimal, DivisionByZero, InvalidOperation
from typing import Callable

from ..xmldm import (Attribute, Comment, Document, Element, Node,
                     ProcessingInstruction, QName, Text)
from . import ast
from .atomics import (UntypedAtomic, atomic_to_string, cast_to_double,
                      is_numeric, numeric_pair, type_name)
from .context import DynamicContext
from .errors import DynamicError, TypeError_, XQueryError
from .evaluator import (_OrderKey, _append_content, _axis_candidates,
                        _predicate_truth, _require_integer, _REVERSE_AXES,
                        _trunc_div, _value_compare, _general_compare,
                        _xquery_mod)
from .functions import lookup
from .parser import _CommentMarker
from .sequence import (Sequence, atomize, document_order,
                       effective_boolean_value, optional_singleton,
                       string_value)
from .updates import EnqueuePrimitive, ResetPrimitive, as_message_body

CompiledExpr = Callable[[DynamicContext], Sequence]


def compile_expr(expr: ast.Expr) -> CompiledExpr:
    """Lower *expr* into a closure evaluating it against a context."""
    compiler = _COMPILERS.get(type(expr))
    if compiler is None:
        # Mirror the interpreter, which fails only when the node is hit.
        return _raiser(DynamicError(f"no evaluator for {type(expr).__name__}"))
    return compiler(expr)


def _raiser(exc: Exception) -> CompiledExpr:
    """A closure deferring a compile-time-detected error to evaluation."""

    def run(ctx: DynamicContext) -> Sequence:
        raise exc

    return run


# -- literals, variables, sequences ------------------------------------------

def _compile_literal(expr: ast.Literal) -> CompiledExpr:
    value = expr.value
    if isinstance(value, _CommentMarker):
        text = value.value
        return lambda ctx: [Comment(text)]
    return lambda ctx: [value]


def _compile_sequence(expr: ast.SequenceExpr) -> CompiledExpr:
    item_fns = [compile_expr(item) for item in expr.items]

    def run(ctx):
        out: Sequence = []
        for fn in item_fns:
            out.extend(fn(ctx))
        return out

    return run


def _compile_var(expr: ast.VarRef) -> CompiledExpr:
    name = expr.name

    def run(ctx):
        try:
            return list(ctx.variables[name])
        except KeyError:
            raise DynamicError(f"unbound variable ${name}", "XPST0008")

    return run


def _compile_context_item(expr: ast.ContextItem) -> CompiledExpr:
    return lambda ctx: [ctx.require_context_item()]


def _compile_function_call(expr: ast.FunctionCall) -> CompiledExpr:
    arg_fns = [compile_expr(arg) for arg in expr.args]
    try:
        fn = lookup(expr.name, len(expr.args))
    except XQueryError as exc:
        # Unknown function / wrong arity: raise only if the call runs.
        return _raiser(exc)
    if not arg_fns:
        return lambda ctx: fn(ctx, [])
    if len(arg_fns) == 1:
        arg0 = arg_fns[0]
        return lambda ctx: fn(ctx, [arg0(ctx)])

    def run(ctx):
        return fn(ctx, [arg(ctx) for arg in arg_fns])

    return run


# -- control flow ----------------------------------------------------------------

def _compile_if(expr: ast.IfExpr) -> CompiledExpr:
    cond_fn = _compile_ebv(expr.condition)
    then_fn = compile_expr(expr.then_branch)
    else_fn = None if expr.else_branch is None \
        else compile_expr(expr.else_branch)

    def run(ctx):
        if cond_fn(ctx):
            return then_fn(ctx)
        if else_fn is None:
            return []
        return else_fn(ctx)

    return run


def _compile_ebv(expr: ast.Expr) -> Callable[[DynamicContext], bool]:
    """Compile *expr* for its effective boolean value.

    A predicate-free forward-axis path used as a condition (``if
    (//offerRequest)``, ``where $m/confirmed`` …) only needs
    *existence*: the traversal stops at the first matching node instead
    of materializing the whole result.  Pure axis traversals have no
    side effects and no per-node failure modes, so stopping early is
    observationally identical; everything else falls back to the
    general EBV over the compiled expression.
    """
    target = expr
    absolute = False
    if isinstance(target, ast.PathExpr):
        steps = _fuse_descendant_steps(target.steps)
        if len(steps) == 1 and isinstance(steps[0], ast.AxisStep):
            absolute = target.absolute
            target = steps[0]
    if isinstance(target, ast.AxisStep) and not target.predicates \
            and target.axis in _ITER_CANDIDATE_FNS \
            and target.axis not in _REVERSE_AXES:
        candidates = _ITER_CANDIDATE_FNS[target.axis]
        match = _compile_test(target.test, target.axis)
        name_key = _name_key(target.test, target.axis)
        if absolute:
            def cond(ctx):
                item = ctx.require_context_item()
                if not isinstance(item, Node):
                    raise TypeError_("'/' requires a node context item",
                                     "XPTY0020")
                root = item.root
                if name_key is not None and isinstance(root, Document):
                    return name_key in root.name_index()
                return any(match(node) for node in candidates(root))
        else:
            def cond(ctx):
                item = ctx.require_context_item()
                if not isinstance(item, Node):
                    raise TypeError_(
                        f"axis step on a {type_name(item)} context item",
                        "XPTY0020")
                return any(match(node) for node in candidates(item))
        return cond
    fn = compile_expr(expr)
    return lambda ctx: effective_boolean_value(fn(ctx))


def _compile_flwor(expr: ast.FLWORExpr) -> CompiledExpr:
    clause_fns = []
    for clause in expr.clauses:
        if isinstance(clause, ast.LetClause):
            clause_fns.append(_compile_let(clause))
        else:
            clause_fns.append(_compile_for(clause))
    where_fn = None if expr.where is None else _compile_ebv(expr.where)
    order_fns = [(compile_expr(spec.key), spec) for spec in expr.order_by]
    return_fn = compile_expr(expr.return_expr)

    def run(ctx):
        tuples = [ctx]
        for clause_fn in clause_fns:
            tuples = clause_fn(tuples)
        if where_fn is not None:
            tuples = [t for t in tuples if where_fn(t)]
        if order_fns:
            decorated = []
            for index, t in enumerate(tuples):
                keys = [_OrderKey(optional_singleton(
                    atomize(key_fn(t)), "order by key"), spec)
                    for key_fn, spec in order_fns]
                decorated.append((keys, index, t))
            decorated.sort(key=lambda entry: (entry[0], entry[1]))
            tuples = [t for _, _, t in decorated]
        out: Sequence = []
        for t in tuples:
            out.extend(return_fn(t))
        return out

    return run


def _compile_let(clause: ast.LetClause):
    var = clause.var
    value_fn = compile_expr(clause.value)

    def apply(tuples):
        return [t.bind(var, value_fn(t)) for t in tuples]

    return apply


def _compile_for(clause: ast.ForClause):
    var = clause.var
    position_var = clause.position_var
    source_fn = compile_expr(clause.source)

    def apply(tuples):
        expanded = []
        for t in tuples:
            source = source_fn(t)
            for position, item in enumerate(source, 1):
                bound = t.bind(var, [item])
                if position_var:
                    bound = bound.bind(position_var, [position])
                expanded.append(bound)
        return expanded

    return apply


def _compile_quantified(expr: ast.QuantifiedExpr) -> CompiledExpr:
    bindings = [(var, compile_expr(source))
                for var, source in expr.bindings]
    satisfies_fn = _compile_ebv(expr.satisfies)
    is_some = expr.quantifier == "some"
    count = len(bindings)

    def run(ctx):
        def recurse(index: int, current: DynamicContext) -> bool:
            if index == count:
                return satisfies_fn(current)
            var, source_fn = bindings[index]
            source = source_fn(current)
            if is_some:
                return any(recurse(index + 1, current.bind(var, [item]))
                           for item in source)
            return all(recurse(index + 1, current.bind(var, [item]))
                       for item in source)

        return [recurse(0, ctx)]

    return run


# -- operators ---------------------------------------------------------------------

def _compile_unary(expr: ast.UnaryOp) -> CompiledExpr:
    operand_fn = compile_expr(expr.operand)
    op = expr.op
    negate = op == "-"

    def run(ctx):
        value = optional_singleton(atomize(operand_fn(ctx)),
                                   "unary arithmetic")
        if value is None:
            return []
        if isinstance(value, UntypedAtomic):
            value = cast_to_double(value)
        if not is_numeric(value):
            raise TypeError_(f"unary {op} on {type_name(value)}")
        return [-value] if negate else [value]

    return run


def _compile_binary(expr: ast.BinaryOp) -> CompiledExpr:
    op = expr.op

    if op in ("and", "or"):
        # Compile the operands via the EBV path only: lowering them
        # with compile_expr here as well would recurse twice per
        # operand, going exponential on long boolean chains.
        left_ebv = _compile_ebv(expr.left)
        right_ebv = _compile_ebv(expr.right)
        if op == "and":
            def run(ctx):
                if not left_ebv(ctx):
                    return [False]
                return [right_ebv(ctx)]
        else:
            def run(ctx):
                if left_ebv(ctx):
                    return [True]
                return [right_ebv(ctx)]
        return run

    left_fn = compile_expr(expr.left)
    right_fn = compile_expr(expr.right)
    if op in ("union", "intersect", "except"):
        return _compile_set_op(op, left_fn, right_fn)

    what = f"'{op}'"
    if op == "to":
        def run(ctx):
            left = optional_singleton(atomize(left_fn(ctx)), what)
            right = optional_singleton(atomize(right_fn(ctx)), what)
            if left is None or right is None:
                return []
            start = _require_integer(left, "to")
            end = _require_integer(right, "to")
            return list(range(start, end + 1))
        return run

    apply = _ARITHMETIC.get(op)
    if apply is not None:
        def run(ctx):
            left = optional_singleton(atomize(left_fn(ctx)), what)
            right = optional_singleton(atomize(right_fn(ctx)), what)
            if left is None or right is None:
                return []
            return apply(*numeric_pair(left, right))
        return run

    # Parser never emits other operators; mirror the interpreter, which
    # evaluates both operands before failing.
    def run(ctx):
        left = optional_singleton(atomize(left_fn(ctx)), what)
        right = optional_singleton(atomize(right_fn(ctx)), what)
        if left is None or right is None:
            return []
        numeric_pair(left, right)
        raise DynamicError(f"unknown operator {op!r}")

    return run


def _arith_add(left, right):
    return [left + right]


def _arith_sub(left, right):
    return [left - right]


def _arith_mul(left, right):
    return [left * right]


def _arith_div(left, right):
    try:
        if isinstance(left, int):
            left, right = Decimal(left), Decimal(right)
        return [left / right]
    except (ZeroDivisionError, DivisionByZero, InvalidOperation):
        if isinstance(left, float):
            if left == 0:
                return [math.nan]
            return [math.inf if (left > 0) == (right >= 0) else -math.inf]
        raise DynamicError("division by zero", "FOAR0001")


def _arith_idiv(left, right):
    try:
        return [int(_trunc_div(left, right))]
    except (ZeroDivisionError, DivisionByZero, InvalidOperation):
        raise DynamicError("division by zero", "FOAR0001")


def _arith_mod(left, right):
    try:
        return [_xquery_mod(left, right)]
    except (ZeroDivisionError, DivisionByZero, InvalidOperation):
        raise DynamicError("division by zero", "FOAR0001")


_ARITHMETIC = {
    "+": _arith_add, "-": _arith_sub, "*": _arith_mul,
    "div": _arith_div, "idiv": _arith_idiv, "mod": _arith_mod,
}


def _compile_set_op(op: str, left_fn: CompiledExpr,
                    right_fn: CompiledExpr) -> CompiledExpr:
    def run(ctx):
        left = left_fn(ctx)
        right = right_fn(ctx)
        for item in (*left, *right):
            if not isinstance(item, Node):
                raise TypeError_(f"{op} requires node sequences")
        right_ids = {id(n) for n in right}
        if op == "union":
            return document_order([*left, *right])
        if op == "intersect":
            return document_order([n for n in left if id(n) in right_ids])
        return document_order([n for n in left if id(n) not in right_ids])

    return run


# -- comparisons --------------------------------------------------------------------

_GENERAL_TO_VALUE = {"=": "eq", "!=": "ne", "<": "lt", "<=": "le",
                     ">": "gt", ">=": "ge"}


def _literal_atom(expr: ast.Expr):
    """``[value]`` when *expr* is an atomic literal, else None."""
    if isinstance(expr, ast.Literal) \
            and not isinstance(expr.value, _CommentMarker):
        return [expr.value]
    return None


_COMPARE_OPS = {
    "eq": lambda a, b: a == b, "ne": lambda a, b: a != b,
    "lt": lambda a, b: a < b, "le": lambda a, b: a <= b,
    "gt": lambda a, b: a > b, "ge": lambda a, b: a >= b,
}


def _probe_comparator(value_op: str, probe):
    """``item -> bool`` specializing general comparison against a
    constant probe, pre-resolving the coercion the interpreter's
    ``_general_compare``/``_apply_compare`` re-derive per item."""
    apply_op = _COMPARE_OPS[value_op]
    if is_numeric(probe) and not isinstance(probe, bool):
        probe_double = cast_to_double(probe)

        def compare(a):
            if isinstance(a, UntypedAtomic):
                # numeric_pair casts both sides to double whenever one
                # side is (the coerced untyped value always is).
                return apply_op(cast_to_double(a), probe_double)
            if isinstance(a, bool) or not is_numeric(a):
                raise TypeError_(
                    f"cannot compare {type_name(a)} with {type_name(probe)}")
            return apply_op(*numeric_pair(a, probe))

        return compare
    if isinstance(probe, str):
        def compare(a):
            if isinstance(a, UntypedAtomic):
                return apply_op(str(a), probe)
            if not isinstance(a, str):
                raise TypeError_(
                    f"cannot compare {type_name(a)} with xs:string")
            return apply_op(a, probe)

        return compare
    return lambda a: _general_compare(value_op, a, probe)


def _compile_comparison(expr: ast.Comparison) -> CompiledExpr:
    op = expr.op
    left_fn = compile_expr(expr.left)
    right_fn = compile_expr(expr.right)

    if op in ("is", "<<", ">>"):
        return _compile_node_comparison(op, left_fn, right_fn)

    # A literal operand folds to its (already atomic) constant: literal
    # evaluation has no side effects or failure modes, so skipping the
    # per-evaluation sequence round trip is unobservable.
    right_const = _literal_atom(expr.right)

    if op in ("eq", "ne", "lt", "le", "gt", "ge"):
        what = f"'{op}'"
        if right_const is not None:
            right_value = right_const[0]

            def run(ctx):
                left = optional_singleton(atomize(left_fn(ctx)), what)
                if left is None:
                    return []
                return [_value_compare(op, left, right_value)]

            return run

        def run(ctx):
            left_seq = left_fn(ctx)
            right_seq = right_fn(ctx)
            left = optional_singleton(atomize(left_seq), what)
            right = optional_singleton(atomize(right_seq), what)
            if left is None or right is None:
                return []
            return [_value_compare(op, left, right)]

        return run

    value_op = _GENERAL_TO_VALUE[op]
    if right_const is not None:
        right_value = right_const[0]
        compare = _probe_comparator(value_op, right_value)

        def run(ctx):
            for a in atomize(left_fn(ctx)):
                if compare(a):
                    return [True]
            return [False]

        return run

    def run(ctx):
        left_atoms = atomize(left_fn(ctx))
        right_atoms = atomize(right_fn(ctx))
        for a in left_atoms:
            for b in right_atoms:
                if _general_compare(value_op, a, b):
                    return [True]
        return [False]

    return run


def _compile_node_comparison(op: str, left_fn: CompiledExpr,
                             right_fn: CompiledExpr) -> CompiledExpr:
    def run(ctx):
        left = optional_singleton(left_fn(ctx), op)
        right = optional_singleton(right_fn(ctx), op)
        if left is None or right is None:
            return []
        if not isinstance(left, Node) or not isinstance(right, Node):
            raise TypeError_(f"'{op}' requires nodes")
        if op == "is":
            return [left is right]
        if op == "<<":
            return [left.order_key() < right.order_key()]
        return [left.order_key() > right.order_key()]

    return run


# -- paths ---------------------------------------------------------------------------
#
# A path is compiled into a chain of *step runners*
# ``(ctx, current) -> next`` plus a static document-order analysis.  The
# interpreter re-sorts (and dedupes) after every node-producing step;
# re-sorting an already sorted, duplicate-free list is the identity, so
# a step whose output is *provably* sorted and unique may skip it.  The
# proof tracks one flag through the chain — whether the current node set
# can contain a node together with one of its own descendants
# ("overlapping").  Starting from a singleton focus:
#
# * ``child``/``attribute``/``self`` preserve sortedness and
#   non-overlap when the input is non-overlapping;
# * ``descendant``/``descendant-or-self`` keep the output sorted for
#   non-overlapping input but make it overlapping;
# * every other axis, and any non-axis step, falls back to the runtime
#   sort (which a runner still skips when it ran over a single focus
#   item, where a single axis traversal is already in axis-sorted,
#   duplicate-free form).

def _descendant_list(node: Node) -> list[Node]:
    """Descendants in document order, iteratively (the recursive
    generators in the data model cost O(depth) per yielded node)."""
    out: list[Node] = []
    stack = list(node.children)
    stack.reverse()
    while stack:
        current = stack.pop()
        out.append(current)
        children = current.children
        if children:
            stack.extend(reversed(children))
    return out


def _descendant_or_self_list(node: Node) -> list[Node]:
    out = [node]
    out.extend(_descendant_list(node))
    return out


def _matching_descendants(node: Node, match) -> list[Node]:
    """Document-order descendants passing *match*, in one fused walk."""
    out: list[Node] = []
    stack = list(node.children)
    stack.reverse()
    while stack:
        current = stack.pop()
        if match(current):
            out.append(current)
        children = current.children
        if children:
            stack.extend(reversed(children))
    return out


def _name_key(test, axis: str):
    """``(namespace, local name)`` when a descendant step's test is a
    plain QName — answerable from a document's name index — else None
    (wildcards and kind tests keep the walk)."""
    if axis != "descendant" or isinstance(test, ast.KindTest) \
            or not test.local_name or test.any_namespace:
        return None
    return (test.namespace, test.local_name)


def _descendants_named(node: Node, match, name_key) -> list[Node]:
    """``_matching_descendants``, read off the name index when *node* is
    a document and the test is a plain QName."""
    if name_key is not None and isinstance(node, Document):
        return list(node.name_index().get(name_key, ()))
    return _matching_descendants(node, match)


def _iter_descendants(node: Node):
    """Lazy document-order descendants for early-exit existence scans."""
    stack = list(node.children)
    stack.reverse()
    while stack:
        current = stack.pop()
        yield current
        children = current.children
        if children:
            stack.extend(reversed(children))


def _iter_descendants_or_self(node: Node):
    yield node
    yield from _iter_descendants(node)


_CANDIDATE_FNS = {
    "child": lambda node: node.children,
    "descendant": _descendant_list,
    "descendant-or-self": _descendant_or_self_list,
    "self": lambda node: (node,),
    "attribute": lambda node: node.attributes
        if isinstance(node, Element) else (),
    "parent": lambda node: (node.parent,)
        if node.parent is not None else (),
    "ancestor": lambda node: node.ancestors(),
    "ancestor-or-self": lambda node: (node, *node.ancestors()),
    "following-sibling": lambda node: node.following_siblings(),
    "preceding-sibling": lambda node: node.preceding_siblings(),
    "following": lambda node: _axis_candidates(node, "following"),
    "preceding": lambda node: _axis_candidates(node, "preceding"),
}

#: Candidate generators for existence scans: like ``_CANDIDATE_FNS``
#: but lazy on the descendant axes, so ``any()`` stops at a match.
_ITER_CANDIDATE_FNS = dict(_CANDIDATE_FNS)
_ITER_CANDIDATE_FNS["descendant"] = _iter_descendants
_ITER_CANDIDATE_FNS["descendant-or-self"] = _iter_descendants_or_self

#: Axes whose output from non-overlapping input is sorted and unique
#: but may itself overlap (a node together with its own descendant).
_SORTED_AXES = frozenset({"descendant", "descendant-or-self"})
#: Axes whose output from a *single* focus item cannot contain a node
#: together with one of its descendants.
_SINGLETON_OVERLAP_FREE = frozenset(
    {"child", "attribute", "self", "parent",
     "following-sibling", "preceding-sibling"})


def _compile_test(test, axis: str) -> Callable[[Node], bool]:
    """A ``node -> bool`` matcher specialized for *test* on *axis*."""
    if isinstance(test, ast.KindTest):
        return _compile_kind_test(test)
    principal = Attribute if axis == "attribute" else Element
    local = test.local_name
    namespace = test.namespace
    if local is not None and not test.any_namespace:
        def match(node):
            if not isinstance(node, principal):
                return False
            name = node.name
            return name.local_name == local \
                and name.namespace_uri == namespace
    elif local is not None:
        def match(node):
            return isinstance(node, principal) \
                and node.name.local_name == local
    elif test.any_namespace:
        def match(node):
            return isinstance(node, principal)
    else:
        def match(node):
            return isinstance(node, principal) \
                and node.name.namespace_uri == namespace
    return match


def _compile_kind_test(test: ast.KindTest) -> Callable[[Node], bool]:
    kind = test.kind
    if kind == "node":
        return lambda node: True
    if kind == "text":
        return lambda node: isinstance(node, Text)
    if kind == "comment":
        return lambda node: isinstance(node, Comment)
    if kind == "document-node":
        return lambda node: isinstance(node, Document)
    if kind in ("element", "attribute"):
        principal = Element if kind == "element" else Attribute
        if test.name is None:
            return lambda node: isinstance(node, principal)
        name_match = _compile_test(
            test.name, "attribute" if kind == "attribute" else "child")
        return name_match
    if kind == "processing-instruction":
        target = None if test.name is None else test.name.local_name

        def match(node):
            if not isinstance(node, ProcessingInstruction):
                return False
            return target is None or node.target == target
        return match

    def unsupported(node):
        raise DynamicError(f"unsupported kind test {kind!r}")
    return unsupported


def _positional_literal(predicate: ast.Expr):
    """The literal position of a ``[<number>]`` predicate, else None."""
    if isinstance(predicate, ast.Literal) and is_numeric(predicate.value) \
            and not isinstance(predicate.value, bool):
        return predicate.value
    return None


_BOOLEAN_FUNCTIONS = frozenset({
    "not", "exists", "empty", "boolean", "contains", "starts-with",
    "ends-with", "matches", "true", "false", "deep-equal"})


def _never_numeric_singleton(expr: ast.Expr) -> bool:
    """Can *expr*'s value never be a single number?

    For such predicates, predicate truth is exactly the effective
    boolean value (positional selection needs a numeric singleton), so
    the compiled predicate can use the early-exit EBV form.
    """
    if isinstance(expr, ast.Comparison):
        return True
    if isinstance(expr, ast.BinaryOp):
        return expr.op in ("and", "or")
    if isinstance(expr, ast.QuantifiedExpr):
        return True
    if isinstance(expr, ast.AxisStep):
        return True     # node sequences are never numeric
    if isinstance(expr, ast.PathExpr):
        return bool(expr.steps) \
            and isinstance(expr.steps[-1], ast.AxisStep)
    if isinstance(expr, ast.FilterExpr):
        return _never_numeric_singleton(expr.base)
    if isinstance(expr, ast.FunctionCall):
        name = expr.name[3:] if expr.name.startswith("fn:") else expr.name
        return name in _BOOLEAN_FUNCTIONS
    return False


def _compile_predicates(predicates: list[ast.Expr]):
    """Compile predicates into ``(items, ctx) -> items`` appliers."""
    appliers = []
    for predicate in predicates:
        position_value = _positional_literal(predicate)
        if position_value is not None:
            appliers.append(_positional_applier(position_value))
        elif _never_numeric_singleton(predicate):
            appliers.append(_boolean_predicate_applier(
                _compile_ebv(predicate)))
        else:
            appliers.append(_predicate_applier(compile_expr(predicate)))
    return appliers


def _boolean_predicate_applier(ebv_fn):
    def apply(items, ctx):
        size = len(items)
        kept = []
        for position, item in enumerate(items, 1):
            if ebv_fn(ctx.focus(item, position, size)):
                kept.append(item)
        return kept

    return apply


def _positional_applier(value):
    as_float = float(value)
    target = int(as_float) if as_float == int(as_float) else None

    def apply(items, ctx):
        if target is None or not 1 <= target <= len(items):
            return []
        return [items[target - 1]]

    return apply


def _predicate_applier(fn: CompiledExpr):
    def apply(items, ctx):
        size = len(items)
        kept = []
        for position, item in enumerate(items, 1):
            result = fn(ctx.focus(item, position, size))
            if _predicate_truth(result, position):
                kept.append(item)
        return kept

    return apply


def _compile_axis_function(step: ast.AxisStep):
    """``(ctx, items) -> nodes`` applying one axis step to a node set.

    Matches the interpreter's per-item behaviour: candidates in axis
    order, name/kind test, predicates over axis order, reverse-axis
    results returned in document order.  No focus contexts are built for
    the traversal itself — an axis step only reads the context *item*;
    predicates establish their own foci from ``ctx``.
    """
    axis = step.axis
    candidates = _CANDIDATE_FNS.get(axis)
    if candidates is None:
        message = f"unsupported axis {axis!r}"

        def unsupported(ctx, items):
            for item in items:
                if not isinstance(item, Node):
                    raise TypeError_(
                        f"axis step on a {type_name(item)} context item",
                        "XPTY0020")
                raise DynamicError(message)
            return []
        return unsupported

    match = _compile_test(step.test, axis)
    name_key = _name_key(step.test, axis)
    reverse = axis in _REVERSE_AXES
    appliers = _compile_predicates(step.predicates)

    # ``step[<k>]`` early exit: stop scanning candidates at the k-th
    # match instead of materializing the whole axis first.
    first_position = _positional_literal(step.predicates[0]) \
        if step.predicates else None
    if first_position is not None:
        as_float = float(first_position)
        target = int(as_float) if as_float == int(as_float) else None
        rest = appliers[1:]

        def run(ctx, items):
            out = []
            for item in items:
                if not isinstance(item, Node):
                    raise TypeError_(
                        f"axis step on a {type_name(item)} context item",
                        "XPTY0020")
                matched: list = []
                if target is not None and target >= 1:
                    seen = 0
                    for node in candidates(item):
                        if match(node):
                            seen += 1
                            if seen == target:
                                matched.append(node)
                                break
                for applier in rest:
                    matched = applier(matched, ctx)
                if reverse:
                    matched = document_order(matched)
                out.extend(matched)
            return out

        return run

    if not appliers and not reverse:
        if axis == "descendant":
            def run(ctx, items):
                out = []
                for item in items:
                    if not isinstance(item, Node):
                        raise TypeError_(
                            f"axis step on a {type_name(item)} context item",
                            "XPTY0020")
                    out.extend(_descendants_named(item, match, name_key))
                return out

            return run

        if axis == "descendant-or-self":
            def run(ctx, items):
                out = []
                for item in items:
                    if not isinstance(item, Node):
                        raise TypeError_(
                            f"axis step on a {type_name(item)} context item",
                            "XPTY0020")
                    if match(item):
                        out.append(item)
                    out.extend(_matching_descendants(item, match))
                return out

            return run

        def run(ctx, items):
            out = []
            for item in items:
                if not isinstance(item, Node):
                    raise TypeError_(
                        f"axis step on a {type_name(item)} context item",
                        "XPTY0020")
                out.extend(node for node in candidates(item)
                           if match(node))
            return out

        return run

    def run(ctx, items):
        out = []
        for item in items:
            if not isinstance(item, Node):
                raise TypeError_(
                    f"axis step on a {type_name(item)} context item",
                    "XPTY0020")
            if axis == "descendant":
                matched = _descendants_named(item, match, name_key)
            else:
                matched = [node for node in candidates(item) if match(node)]
            if matched:
                for applier in appliers:
                    matched = applier(matched, ctx)
                if reverse:
                    matched = document_order(matched)
                out.extend(matched)
        return out

    return run


def _compile_axis_step(expr: ast.AxisStep) -> CompiledExpr:
    """A bare axis step used as an expression (outside a path)."""
    axis = expr.axis
    candidates = _CANDIDATE_FNS.get(axis)
    if candidates is not None and not expr.predicates \
            and axis not in _REVERSE_AXES:
        # The hottest shapes (``price``, ``@sku``, fused ``//name``):
        # one forward traversal from the context item, no per-step
        # list wrapper.
        match = _compile_test(expr.test, axis)
        if axis == "descendant":
            def run(ctx):
                item = ctx.require_context_item()
                if not isinstance(item, Node):
                    raise TypeError_(
                        f"axis step on a {type_name(item)} context item",
                        "XPTY0020")
                return _matching_descendants(item, match)

            return run

        def run(ctx):
            item = ctx.require_context_item()
            if not isinstance(item, Node):
                raise TypeError_(
                    f"axis step on a {type_name(item)} context item",
                    "XPTY0020")
            return [node for node in candidates(item) if match(node)]

        return run
    axis_fn = _compile_axis_function(expr)
    return lambda ctx: axis_fn(ctx, [ctx.require_context_item()])


def _fuse_descendant_steps(steps: list) -> list:
    """Rewrite ``descendant-or-self::node()/child::T`` (the ``//T``
    expansion) into a single ``descendant::T`` step.

    Sound only when neither step carries predicates: every child of a
    node in the subtree is a descendant (and vice versa), but child-step
    predicates see per-parent positions that the fused step would lose.
    """
    out: list = []
    index = 0
    while index < len(steps):
        step = steps[index]
        if index + 1 < len(steps) \
                and isinstance(step, ast.AxisStep) \
                and step.axis == "descendant-or-self" \
                and isinstance(step.test, ast.KindTest) \
                and step.test.kind == "node" \
                and not step.predicates:
            successor = steps[index + 1]
            if isinstance(successor, ast.AxisStep) \
                    and successor.axis == "child" \
                    and not successor.predicates:
                out.append(ast.AxisStep("descendant", successor.test, []))
                index += 2
                continue
        out.append(step)
        index += 1
    return out


def _generic_step_runner(fn: CompiledExpr, first_relative: bool):
    """A step that is an arbitrary expression: interpreter semantics
    (focus per input item, node/atomic mixing check, document order)."""

    def run_step(ctx, current):
        if first_relative:
            contexts = [ctx]
        else:
            size = len(current)
            contexts = [ctx.focus(item, position, size)
                        for position, item in enumerate(current, 1)]
        results: Sequence = []
        any_nodes = False
        any_atomics = False
        for sub_ctx in contexts:
            for item in fn(sub_ctx):
                if isinstance(item, Node):
                    any_nodes = True
                else:
                    any_atomics = True
                results.append(item)
        if any_nodes and any_atomics:
            raise TypeError_(
                "path step mixes nodes and atomic values", "XPTY0018")
        if any_nodes and len(results) > 1:
            # A singleton is already sorted and duplicate-free.
            results = document_order(results)
        return results

    return run_step


def _compile_path(expr: ast.PathExpr) -> CompiledExpr:
    absolute = expr.absolute

    if absolute and not expr.steps:
        def run_root(ctx):
            item = ctx.require_context_item()
            if not isinstance(item, Node):
                raise TypeError_("'/' requires a node context item",
                                 "XPTY0020")
            return [item.root]
        return run_root

    steps = _fuse_descendant_steps(expr.steps)
    if not absolute and len(steps) == 1 \
            and isinstance(steps[0], ast.AxisStep):
        # A one-step relative path is exactly a bare axis step: the
        # interpreter's per-step ordering is the identity here.
        return _compile_axis_step(steps[0])
    if absolute and len(steps) == 1 \
            and isinstance(steps[0], ast.AxisStep) \
            and steps[0].axis == "descendant" \
            and not steps[0].predicates:
        # ``//name`` after fusion — the single most common rule-body
        # path: one fused walk from the root, or for a plain QName test
        # over a document a lookup in its lazily built name index.
        match = _compile_test(steps[0].test, "descendant")
        name_key = _name_key(steps[0].test, "descendant")

        def run_descendants(ctx):
            item = ctx.require_context_item()
            if not isinstance(item, Node):
                raise TypeError_("'/' requires a node context item",
                                 "XPTY0020")
            return _descendants_named(item.root, match, name_key)

        return run_descendants

    runners = []
    overlap_free = True     # the current set starts as a singleton focus
    for index, step in enumerate(steps):
        first_relative = index == 0 and not absolute
        if not isinstance(step, ast.AxisStep):
            runners.append(_generic_step_runner(compile_expr(step),
                                                first_relative))
            overlap_free = False
            continue
        axis_fn = _compile_axis_function(step)
        axis = step.axis
        if first_relative:
            # One traversal from the outer focus item: already in
            # sorted, duplicate-free form — never re-sort.
            def runner(ctx, current, fn=axis_fn):
                return fn(ctx, [ctx.require_context_item()])
            runners.append(runner)
            overlap_free = axis in _SINGLETON_OVERLAP_FREE
            continue
        # Transition for a multi-item input set.  The input is always
        # sorted and unique (the invariant every runner re-establishes).
        if axis == "self":
            sorted_out = True
        elif axis == "attribute":
            sorted_out = True
            overlap_free = True     # attributes have no descendants
        elif axis == "child":
            sorted_out = overlap_free
        elif axis in _SORTED_AXES:
            sorted_out = overlap_free
            overlap_free = False
        else:
            sorted_out = False
            overlap_free = False
        if sorted_out:
            def runner(ctx, current, fn=axis_fn):
                return fn(ctx, current)
        else:
            # Runtime sort — skipped over a single focus item, where
            # one axis traversal is already ordered and unique.
            def runner(ctx, current, fn=axis_fn):
                single = len(current) <= 1
                out = fn(ctx, current)
                return out if single else document_order(out)
        runners.append(runner)

    def run(ctx):
        if absolute:
            item = ctx.require_context_item()
            if not isinstance(item, Node):
                raise TypeError_("'/' requires a node context item",
                                 "XPTY0020")
            current: Sequence = [item.root]
        else:
            current = []    # replaced by the first (relative) runner
        for runner in runners:
            current = runner(ctx, current)
            if not current:
                return []
        return current

    return run


def _compile_filter(expr: ast.FilterExpr) -> CompiledExpr:
    base_fn = compile_expr(expr.base)
    appliers = _compile_predicates(expr.predicates)

    def run(ctx):
        items = base_fn(ctx)
        for applier in appliers:
            items = applier(items, ctx)
        return items

    return run


# -- constructors -------------------------------------------------------------------

def _compile_template_parts(parts: list):
    """Attribute value template: literal strings and compiled closures."""
    compiled = [part if isinstance(part, str) else compile_expr(part)
                for part in parts]

    def run(ctx) -> str:
        out = []
        for part in compiled:
            if isinstance(part, str):
                out.append(part)
            else:
                values = atomize(part(ctx))
                out.append(" ".join(atomic_to_string(v) for v in values))
        return "".join(out)

    return run


def _compile_direct_constructor(expr: ast.DirectElementConstructor
                                ) -> CompiledExpr:
    name = expr.name
    namespaces = dict(expr.namespaces)
    attr_fns = [(attr.name, _compile_template_parts(attr.parts))
                for attr in expr.attributes]
    content = [part if isinstance(part, str) else compile_expr(part)
               for part in expr.content]

    def run(ctx):
        element = Element(name, namespaces=dict(namespaces))
        for attr_name, template_fn in attr_fns:
            element.set_attribute(Attribute(attr_name, template_fn(ctx)))
        for part in content:
            if isinstance(part, str):
                element.append(Text(part))
            else:
                _append_content(element, part(ctx))
        return [element]

    return run


def _compile_computed_element(expr: ast.ComputedElementConstructor
                              ) -> CompiledExpr:
    fixed_name = expr.name_expr if isinstance(expr.name_expr, QName) else None
    name_fn = None if fixed_name is not None else compile_expr(expr.name_expr)
    content_fn = None if expr.content is None else compile_expr(expr.content)

    def run(ctx):
        if fixed_name is not None:
            name = fixed_name
        else:
            raw = string_value(optional_singleton(
                name_fn(ctx), "element name") or "")
            name = QName.parse(raw, ctx.namespaces)
        element = Element(name)
        if content_fn is not None:
            _append_content(element, content_fn(ctx))
        return [element]

    return run


def _compile_computed_attribute(expr: ast.ComputedAttributeConstructor
                                ) -> CompiledExpr:
    fixed_name = expr.name_expr if isinstance(expr.name_expr, QName) else None
    name_fn = None if fixed_name is not None else compile_expr(expr.name_expr)
    content_fn = None if expr.content is None else compile_expr(expr.content)

    def run(ctx):
        if fixed_name is not None:
            name = fixed_name
        else:
            raw = string_value(optional_singleton(
                name_fn(ctx), "attribute name") or "")
            name = QName.parse(raw, ctx.namespaces)
        value = ""
        if content_fn is not None:
            values = atomize(content_fn(ctx))
            value = " ".join(atomic_to_string(v) for v in values)
        return [Attribute(name, value)]

    return run


def _compile_text_constructor(expr: ast.TextConstructor) -> CompiledExpr:
    if expr.content is None:
        return lambda ctx: []
    content_fn = compile_expr(expr.content)

    def run(ctx):
        values = atomize(content_fn(ctx))
        if not values:
            return []
        return [Text(" ".join(atomic_to_string(v) for v in values))]

    return run


# -- Demaq update primitives -----------------------------------------------------

def _compile_enqueue(expr: ast.EnqueueExpr) -> CompiledExpr:
    queue = expr.queue
    message_fn = compile_expr(expr.message)
    property_fns = [(name, compile_expr(value))
                    for name, value in expr.properties]

    def run(ctx):
        body = as_message_body(message_fn(ctx))
        properties = []
        for name, value_fn in property_fns:
            value = optional_singleton(atomize(value_fn(ctx)),
                                       f"property {name}")
            if isinstance(value, UntypedAtomic):
                value = str(value)
            properties.append((name, value))
        ctx.updates.add(EnqueuePrimitive(queue, body, tuple(properties)))
        return []

    return run


def _compile_reset(expr: ast.ResetExpr) -> CompiledExpr:
    slicing = expr.slicing
    key_fn = None if expr.key is None else compile_expr(expr.key)

    def run(ctx):
        key = None
        if key_fn is not None:
            key = optional_singleton(atomize(key_fn(ctx)), "slice key")
            if isinstance(key, UntypedAtomic):
                key = str(key)
        ctx.updates.add(ResetPrimitive(slicing, key))
        return []

    return run


_COMPILERS = {
    ast.Literal: _compile_literal,
    ast.SequenceExpr: _compile_sequence,
    ast.VarRef: _compile_var,
    ast.ContextItem: _compile_context_item,
    ast.FunctionCall: _compile_function_call,
    ast.IfExpr: _compile_if,
    ast.FLWORExpr: _compile_flwor,
    ast.QuantifiedExpr: _compile_quantified,
    ast.UnaryOp: _compile_unary,
    ast.BinaryOp: _compile_binary,
    ast.Comparison: _compile_comparison,
    ast.PathExpr: _compile_path,
    ast.AxisStep: _compile_axis_step,
    ast.FilterExpr: _compile_filter,
    ast.DirectElementConstructor: _compile_direct_constructor,
    ast.ComputedElementConstructor: _compile_computed_element,
    ast.ComputedAttributeConstructor: _compile_computed_attribute,
    ast.TextConstructor: _compile_text_constructor,
    ast.EnqueueExpr: _compile_enqueue,
    ast.ResetExpr: _compile_reset,
}
