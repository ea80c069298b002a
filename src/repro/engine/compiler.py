"""The rule compiler (paper §4.4.1).

On deployment, rules are compiled into per-queue execution plans:

* **default-argument rewriting** — ``qs:queue()`` becomes
  ``qs:queue("<queue>")`` for rules attached to a queue ("supplying
  default parameters to functions which depend on the current queue");
* **fixed-property inlining** — ``qs:property("p")`` for a *fixed*
  computed property is replaced by the property's value expression,
  evaluated against the current message ("similar to conventional view
  merging, fixed properties are inlined");
* **condition prefilters** — for each rule, the compiler extracts the set
  of element names the rule's condition requires (the XML-filtering idea
  of [Diao & Franklin]); at runtime a one-pass scan of the message body
  skips rules that cannot fire;
* **index predicate pushdown** — an equality predicate over
  ``qs:queue("<q>")`` whose compared expression structurally matches the
  value expression of a *fixed* property with a declared index on ``<q>``
  (``create index on queue q property p``) is rewritten into an
  index-lookup access path ``qs:queue-index(q, p, <probe>)``: the
  evaluator answers it with one B+-tree range read instead of scanning
  and re-evaluating the predicate across the whole queue (the paper's
  §4.3 materialization idea applied to property predicates).  Both the
  postfix form ``qs:queue("q")[<path> = <probe>]`` and the FLWOR form
  ``for $m in qs:queue("q") … where $m/<path> = <probe>`` are
  recognized.  Three conditions keep the rewrite semantics-preserving:
  the property must be fixed (otherwise explicit/inherited values can
  diverge from the body path the predicate tests), the probe's static
  type class must equal the property's declared class (the scan
  compares the raw node value under the probe's type), and the probe
  must be evaluable at the access path's position (focus-independent
  in the postfix form, FLWOR-variable-free in the for/where form).

``benchmarks/bench_rule_compile.py`` measures the first three against
the naive plan (re-parse + evaluate every rule on every message);
``benchmarks/bench_indexing.py`` (E10) measures the pushdown.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Callable, Optional

from ..qdl.model import Application, RuleDef, SlicingDef
from ..xmldm import Document
from ..xquery import active_backend, ast, make_evaluator


@dataclass
class CompiledRule:
    """One rule, rewritten and analyzed, ready for evaluation."""

    rule: RuleDef
    body: ast.Expr
    #: Element names the condition requires (None → always evaluate).
    required_elements: Optional[frozenset[str]]
    #: Set when the rule is attached to a slicing.
    slicing: Optional[SlicingDef] = None
    #: (queue, property) pairs whose equality predicates were pushed
    #: down to secondary-index lookups.
    index_lookups: list[tuple[str, str]] = field(default_factory=list)
    #: Per-backend evaluation callables for *body*, built lazily: the
    #: closure-compiled form is lowered once per rule, not once per
    #: message (the §3.1 hot path).
    _evaluators: dict[str, Callable] = field(
        default_factory=dict, repr=False, compare=False)

    @property
    def name(self) -> str:
        return self.rule.name

    def evaluator(self) -> Callable:
        """The body's evaluation callable under the active backend."""
        backend = active_backend()
        fn = self._evaluators.get(backend)
        if fn is None:
            fn = make_evaluator(self.body, backend)
            self._evaluators[backend] = fn
        return fn


@dataclass
class QueuePlan:
    """Everything that runs when a message arrives in one queue."""

    queue: str
    #: Rules attached directly to the queue.
    rules: list[CompiledRule] = field(default_factory=list)
    #: Rules attached to slicings whose property covers this queue.
    slice_rules: list[CompiledRule] = field(default_factory=list)

    def all_rules(self) -> list[CompiledRule]:
        return [*self.rules, *self.slice_rules]


@dataclass
class CompiledApplication:
    app: Application
    plans: dict[str, QueuePlan]

    def plan_for(self, queue: str) -> QueuePlan:
        return self.plans.get(queue) or QueuePlan(queue)


def compile_rules(app: Application, optimize: bool = True
                  ) -> CompiledApplication:
    """Build per-queue plans; *optimize=False* keeps the canonical plan
    (no rewriting, no prefilters) as the baseline for E4."""
    plans: dict[str, QueuePlan] = {
        name: QueuePlan(name) for name in app.queues}

    for rule in app.rules:
        if rule.target in app.slicings:
            slicing = app.slicings[rule.target]
            compiled = _compile_one(rule, app, queue=None, optimize=optimize,
                                    slicing=slicing)
            prop = app.properties[slicing.property_name]
            for binding in prop.bindings:
                for queue in binding.queues:
                    if queue in plans:
                        plans[queue].slice_rules.append(compiled)
        else:
            compiled = _compile_one(rule, app, queue=rule.target,
                                    optimize=optimize)
            plans[rule.target].rules.append(compiled)

    return CompiledApplication(app, plans)


def _compile_one(rule: RuleDef, app: Application, queue: str | None,
                 optimize: bool, slicing: SlicingDef | None = None
                 ) -> CompiledRule:
    body = rule.body
    required = None
    index_lookups: list[tuple[str, str]] = []
    if optimize:
        body = copy.deepcopy(body)
        if queue is not None:
            _supply_default_queue(body, queue)
            _inline_fixed_properties(body, app, queue)
        if app.indexes:
            index_lookups = _push_down_index_predicates(body, app)
        required = _required_elements(body)
    return CompiledRule(rule, body, required, slicing, index_lookups)


# -- rewrites ---------------------------------------------------------------------

def _supply_default_queue(expr: ast.Expr, queue: str) -> None:
    for node in ast.walk(expr):
        if isinstance(node, ast.FunctionCall) and node.name == "qs:queue" \
                and not node.args:
            node.args.append(ast.Literal(queue))


def _inline_fixed_properties(expr: ast.Expr, app: Application,
                             queue: str) -> None:
    """Replace qs:property('p') with p's value expression (view merging)."""
    _rewrite_children(expr, app, queue)


def _rewrite_children(expr: ast.Expr, app: Application, queue: str) -> None:
    for name in getattr(expr, "__dataclass_fields__", {}):
        value = getattr(expr, name)
        if isinstance(value, ast.Expr):
            replacement = _maybe_inline(value, app, queue)
            if replacement is not None:
                setattr(expr, name, replacement)
            else:
                _rewrite_children(value, app, queue)
        elif isinstance(value, list):
            for index, item in enumerate(value):
                if isinstance(item, ast.Expr):
                    replacement = _maybe_inline(item, app, queue)
                    if replacement is not None:
                        value[index] = replacement
                    else:
                        _rewrite_children(item, app, queue)
                elif isinstance(item, tuple) and len(item) == 2 \
                        and isinstance(item[1], ast.Expr):
                    replacement = _maybe_inline(item[1], app, queue)
                    if replacement is not None:
                        value[index] = (item[0], replacement)
                    else:
                        _rewrite_children(item[1], app, queue)
                elif type(item).__name__ in ("ForClause", "LetClause"):
                    _rewrite_children_of_clause(item, app, queue)
                elif type(item).__name__ == "OrderSpec":
                    replacement = _maybe_inline(item.key, app, queue)
                    if replacement is not None:
                        item.key = replacement
                    else:
                        _rewrite_children(item.key, app, queue)


def _rewrite_children_of_clause(clause, app, queue) -> None:
    attr = "source" if hasattr(clause, "source") else "value"
    child = getattr(clause, attr)
    replacement = _maybe_inline(child, app, queue)
    if replacement is not None:
        setattr(clause, attr, replacement)
    else:
        _rewrite_children(child, app, queue)


def _maybe_inline(expr: ast.Expr, app: Application,
                  queue: str) -> ast.Expr | None:
    if not (isinstance(expr, ast.FunctionCall)
            and expr.name == "qs:property" and len(expr.args) == 1):
        return None
    arg = expr.args[0]
    if not isinstance(arg, ast.Literal) or not isinstance(arg.value, str):
        return None
    prop = app.properties.get(arg.value)
    if prop is None or not prop.fixed:
        return None
    binding = prop.binding_for(queue)
    if binding is None:
        return None
    # Wrap in the xs constructor so inlining preserves the property type.
    inlined = copy.deepcopy(binding.value)
    return ast.FunctionCall(prop.type_name, [inlined])


# -- index predicate pushdown ---------------------------------------------------

def _push_down_index_predicates(body: ast.Expr,
                                app: Application) -> list[tuple[str, str]]:
    """Rewrite indexable equality predicates into index lookups.

    Mutates *body* in place; returns the (queue, property) pairs that
    got an index access path.
    """
    pushed: list[tuple[str, str]] = []
    for node in list(ast.walk(body)):
        if isinstance(node, ast.FilterExpr):
            _try_filter_pushdown(node, app, pushed)
        elif isinstance(node, ast.FLWORExpr):
            _try_flwor_pushdown(node, app, pushed)
    return pushed


def _index_lookup_call(queue: str, prop: str, probe: ast.Expr
                       ) -> ast.FunctionCall:
    return ast.FunctionCall("qs:queue-index",
                            [ast.Literal(queue), ast.Literal(prop), probe])


def _try_filter_pushdown(node: ast.FilterExpr, app: Application,
                         pushed: list[tuple[str, str]]) -> None:
    """``qs:queue("q")[<path> = <probe>]`` → index lookup.

    Only the *first* predicate may be pushed: later predicates then see
    exactly the sequence the removed one produced, so chained
    (including positional) predicates keep their semantics.
    """
    queue = _literal_queue_call(node.base)
    if queue is None or not node.predicates:
        return
    match = _match_indexed_equality(node.predicates[0], app, queue, var=None)
    if match is None:
        return
    prop, probe = match
    node.base = _index_lookup_call(queue, prop, probe)
    del node.predicates[0]
    pushed.append((queue, prop))


def _try_flwor_pushdown(node: ast.FLWORExpr, app: Application,
                        pushed: list[tuple[str, str]]) -> None:
    """``for $m in qs:queue("q") … where … $m/<path> = <probe> …``.

    The matched conjunct moves out of the where clause and into the
    for-clause source as an index lookup.  The probe must not reference
    any variable bound by this FLWOR (it is hoisted to the source
    position), and clauses with a positional variable are skipped
    (positions observe the unfiltered source).
    """
    if node.where is None:
        return
    flwor_vars = set()
    for clause in node.clauses:
        flwor_vars.add(clause.var)
        if isinstance(clause, ast.ForClause) and clause.position_var:
            flwor_vars.add(clause.position_var)
    for position, clause in enumerate(node.clauses):
        if not isinstance(clause, ast.ForClause) \
                or clause.position_var is not None:
            continue
        if any(later.var == clause.var
               for later in node.clauses[position + 1:]):
            # shadowed: in the where clause, $var means the later
            # binding, not this one
            continue
        queue = _literal_queue_call(clause.source)
        if queue is None:
            continue
        conjuncts = _split_conjuncts(node.where)
        for index, conjunct in enumerate(conjuncts):
            match = _match_indexed_equality(conjunct, app, queue,
                                            var=clause.var,
                                            forbidden_vars=flwor_vars)
            if match is None:
                continue
            prop, probe = match
            clause.source = _index_lookup_call(queue, prop, probe)
            del conjuncts[index]
            node.where = _join_conjuncts(conjuncts)
            pushed.append((queue, prop))
            return


def _literal_queue_call(expr: ast.Expr) -> Optional[str]:
    """The queue name iff *expr* is ``qs:queue("<literal>")``."""
    if isinstance(expr, ast.FunctionCall) and expr.name == "qs:queue" \
            and len(expr.args) == 1:
        arg = expr.args[0]
        if isinstance(arg, ast.Literal) and isinstance(arg.value, str):
            return arg.value
    return None


def _split_conjuncts(expr: ast.Expr) -> list[ast.Expr]:
    if isinstance(expr, ast.BinaryOp) and expr.op == "and":
        return [*_split_conjuncts(expr.left), *_split_conjuncts(expr.right)]
    return [expr]


def _join_conjuncts(conjuncts: list[ast.Expr]) -> Optional[ast.Expr]:
    if not conjuncts:
        return None
    joined = conjuncts[0]
    for conjunct in conjuncts[1:]:
        joined = ast.BinaryOp("and", joined, conjunct)
    return joined


def _match_indexed_equality(pred: ast.Expr, app: Application, queue: str,
                            var: str | None,
                            forbidden_vars: set[str] | None = None
                            ) -> Optional[tuple[str, ast.Expr]]:
    """(property, probe expression) when *pred* is an indexable equality.

    One comparison side must structurally equal an indexed property's
    value expression for *queue* (evaluated against the scanned message,
    as the property was at enqueue time); the other side — the probe —
    must be evaluable at the access path's position: focus-independent
    in the postfix form (predicates re-focus on each scanned message),
    free of this FLWOR's variables in the for/where form.

    The probe's *static type class* must equal the property's declared
    class: the scan plan compares the raw node value as untypedAtomic
    (coerced by the probe's type under the general-comparison rules),
    so a string probe against a numeric property compares lexically
    while the index compares typed values — only same-class probes are
    semantics-preserving.  ``eq`` treats untypedAtomic as xs:string, so
    value comparisons push down only for string-typed properties.
    """
    if not isinstance(pred, ast.Comparison) or pred.op not in ("=", "eq"):
        return None
    for side, probe in ((pred.left, pred.right), (pred.right, pred.left)):
        prop_name = _matching_indexed_property(side, app, queue, var)
        if prop_name is None:
            continue
        decl_class = _TYPE_CLASSES.get(app.properties[prop_name].type_name)
        if decl_class is None:
            continue
        if pred.op == "eq" and decl_class != "string":
            continue
        if _probe_class(probe, app) != decl_class:
            continue
        if var is None:
            if _uses_focus(probe):
                continue
        elif _references_vars(probe, forbidden_vars or {var}):
            continue
        return prop_name, probe
    return None


def _matching_indexed_property(side: ast.Expr, app: Application, queue: str,
                               var: str | None) -> Optional[str]:
    for prop_name in app.indexed_properties(queue):
        prop = app.properties.get(prop_name)
        if prop is None or not prop.fixed:
            # Only *fixed* properties always carry their computed value
            # (explicit/inherited values may diverge from the body path
            # the predicate tests) — same condition as property
            # inlining in _maybe_inline.
            continue
        binding = prop.binding_for(queue)
        if binding is None:
            continue
        if var is None:
            # Postfix predicate: focus is the scanned message, the same
            # context the binding expression was resolved in.
            if _ast_equal(side, binding.value):
                return prop_name
        else:
            steps = _var_relative_steps(side, var)
            if steps is not None \
                    and _steps_match_binding(steps, binding.value):
                return prop_name
    return None


def _var_relative_steps(expr: ast.Expr, var: str) -> Optional[list]:
    """``$var/s1/s2…`` → [s1, s2, …]; None when not of that shape."""
    if not isinstance(expr, ast.PathExpr) or expr.absolute \
            or not expr.steps:
        return None
    head = expr.steps[0]
    if not (isinstance(head, ast.VarRef) and head.name == var):
        return None
    rest = expr.steps[1:]
    if not all(isinstance(step, ast.AxisStep) for step in rest):
        return None
    return rest


def _steps_match_binding(steps: list, binding_value: ast.Expr) -> bool:
    """Does ``$m/<steps>`` equal the binding path over message $m?

    The binding is evaluated with the message document as context item,
    so both its relative and absolute forms resolve against the same
    root as ``$m/…``.
    """
    if isinstance(binding_value, ast.PathExpr):
        if not all(isinstance(s, ast.AxisStep)
                   for s in binding_value.steps):
            return False
        return _ast_equal(steps, binding_value.steps)
    if isinstance(binding_value, ast.AxisStep):
        return _ast_equal(steps, [binding_value])
    return False


#: Property type → comparison class (dateTime is excluded: equal
#: instants can have distinct lexical index keys).
_TYPE_CLASSES = {
    "xs:string": "string", "xs:untypedAtomic": "string",
    "xs:boolean": "boolean",
    "xs:integer": "numeric", "xs:int": "numeric", "xs:long": "numeric",
    "xs:decimal": "numeric", "xs:double": "numeric",
}

_STRING_FUNCTIONS = frozenset({
    "string", "concat", "substring", "string-join", "upper-case",
    "lower-case", "normalize-space", "translate", "replace",
    "substring-before", "substring-after", "name", "local-name",
    "namespace-uri",
})
_NUMERIC_FUNCTIONS = frozenset({
    "count", "abs", "floor", "ceiling", "round", "number",
    "string-length", "position", "last",
})
_BOOLEAN_FUNCTIONS = frozenset({
    "true", "false", "not", "boolean", "exists", "empty", "contains",
    "starts-with", "ends-with", "matches", "deep-equal",
})


def _probe_class(probe: ast.Expr, app: Application) -> Optional[str]:
    """The probe's statically known comparison class (None → unknown)."""
    if isinstance(probe, ast.Literal):
        if isinstance(probe.value, bool):
            return "boolean"
        if isinstance(probe.value, str):
            return "string"
        return "numeric"
    if isinstance(probe, ast.FunctionCall):
        name = probe.name[3:] if probe.name.startswith("fn:") else probe.name
        if name in _TYPE_CLASSES:                   # xs: constructors
            return _TYPE_CLASSES[name]
        if name in _STRING_FUNCTIONS:
            return "string"
        if name in _NUMERIC_FUNCTIONS:
            return "numeric"
        if name in _BOOLEAN_FUNCTIONS:
            return "boolean"
        if name == "qs:property" and len(probe.args) == 1:
            arg = probe.args[0]
            if isinstance(arg, ast.Literal) and isinstance(arg.value, str):
                declared = app.properties.get(arg.value)
                if declared is not None:
                    return _TYPE_CLASSES.get(declared.type_name)
    return None


def _ast_equal(a: object, b: object) -> bool:
    """Structural equality over AST nodes (and their field values).

    Deliberately not the dataclass ``==``: literal values compare
    type-strictly here (``Literal(1)`` is not ``Literal(True)`` or
    ``Literal(1.0)``), where Python equality would conflate them.
    """
    if type(a) is not type(b):
        return False
    fields = getattr(a, "__dataclass_fields__", None)
    if fields is not None:
        return all(_ast_equal(getattr(a, name), getattr(b, name))
                   for name in fields)
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and \
            all(_ast_equal(x, y) for x, y in zip(a, b))
    return a == b


#: Functions that read the focus even without arguments.
_FOCUS_FUNCTIONS = frozenset({"position", "last"})
_ZERO_ARG_FOCUS_FUNCTIONS = frozenset({
    "string", "string-length", "normalize-space", "number",
    "name", "local-name", "namespace-uri", "root",
})


def _uses_focus(expr: ast.Expr) -> bool:
    """Conservatively: can *expr*'s value depend on the context item?

    Sub-expressions that establish their own focus (predicates, path
    tails) do not count against the enclosing expression.
    """
    if isinstance(expr, ast.ContextItem):
        return True
    if isinstance(expr, ast.AxisStep):
        return True
    if isinstance(expr, ast.PathExpr):
        if expr.absolute:
            return True
        return bool(expr.steps) and _uses_focus(expr.steps[0])
    if isinstance(expr, ast.FilterExpr):
        return _uses_focus(expr.base)
    if isinstance(expr, ast.FunctionCall):
        name = expr.name[3:] if expr.name.startswith("fn:") else expr.name
        if name in _FOCUS_FUNCTIONS:
            return True
        if not expr.args and name in _ZERO_ARG_FOCUS_FUNCTIONS:
            return True
        return any(_uses_focus(arg) for arg in expr.args)
    return any(_uses_focus(child) for child in expr.children())


def _references_vars(expr: ast.Expr, names: set[str]) -> bool:
    return any(isinstance(node, ast.VarRef) and node.name in names
               for node in ast.walk(expr))


# -- prefilter analysis --------------------------------------------------------------

def _required_elements(body: ast.Expr) -> Optional[frozenset[str]]:
    """Names such that the rule can only fire if one occurs in the body.

    Analyzes the rule's top-level condition.  ``None`` means "cannot
    tell, always evaluate".
    """
    if not isinstance(body, ast.IfExpr):
        return None
    if body.else_branch is not None:
        # an else branch fires even when the condition is false
        return None
    return _condition_names(body.condition)


def _condition_names(expr: ast.Expr) -> Optional[frozenset[str]]:
    if isinstance(expr, ast.PathExpr) and expr.absolute:
        name = _leading_name(expr)
        return frozenset([name]) if name else None
    if isinstance(expr, ast.AxisStep):
        if isinstance(expr.test, ast.NameTest) and expr.test.local_name:
            return frozenset([expr.test.local_name])
        return None
    if isinstance(expr, ast.BinaryOp):
        if expr.op == "and":
            # either conjunct's requirement is necessary; prefer the
            # more selective (non-None) one
            left = _condition_names(expr.left)
            right = _condition_names(expr.right)
            return left or right
        if expr.op == "or":
            left = _condition_names(expr.left)
            right = _condition_names(expr.right)
            if left is None or right is None:
                return None
            return left | right
    if isinstance(expr, ast.Comparison):
        return _condition_names(expr.left) or _condition_names(expr.right)
    if isinstance(expr, ast.FilterExpr):
        return _condition_names(expr.base)
    if isinstance(expr, ast.FunctionCall) and expr.name in (
            "exists", "fn:exists", "boolean", "fn:boolean") and expr.args:
        return _condition_names(expr.args[0])
    return None


def _leading_name(path: ast.PathExpr) -> Optional[str]:
    """The first concrete name test in an absolute path."""
    for step in path.steps:
        if not isinstance(step, ast.AxisStep):
            return None
        if isinstance(step.test, ast.KindTest):
            continue  # e.g. the descendant-or-self::node() of //
        if step.test.local_name:
            return step.test.local_name
        return None
    return None


def element_names(document: Document) -> frozenset[str]:
    """The set of element local names in a message body, read off the
    document's name index (which the rule's ``//name`` steps reuse)."""
    return frozenset(local for _, local in document.name_index())
