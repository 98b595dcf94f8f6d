"""Reaction compilation: per-shape codegen, per-reaction bindings.

The interpreted pipeline pays a fixed interpretive tax on every candidate
probe: :meth:`ElementPattern.match` copies a binding dict per candidate,
guards and productions tree-walk the :class:`~repro.gamma.expr.Expr` AST per
evaluation, and every field access re-dispatches on ``Var``/``Const``.  A
reaction, however, is *static* for the lifetime of a run while being probed
millions of times — the classic staging opportunity.  And the reactions of one
program are rarely structurally distinct: Algorithm 1 turns a 512-operator DAG
into 519 reactions drawn from five *shapes* that differ only in edge labels
and literals.  The compiler is therefore staged twice:

**Stage 1, shape -> code** (once per structural key, cached).
:func:`_canonicalise` reduces a reaction to a :class:`ReactionShape` — arity,
per-pattern field kinds (constant slot or variable, for value/label/tag),
which pattern pairs could bind equal elements, and the guard and branch-
condition ASTs with every constant and comparison helper *lifted to a
parameter position*.  No label, literal or ``id()`` is part of the key.  From
the key alone the compiler derives

* a **match plan** — the replace-list patterns reordered by selectivity
  (patterns whose label/tag are already known — constants or variables bound
  by an earlier pattern — come first, with stable tie-breaks on declaration
  order), with fixed labels/tags and shared-variable joins resolved at
  compile time;
* **slot-based matching** — every reaction variable gets a fixed slot; the
  generated matcher keeps the slot vector in local variables of one stack
  frame (the compiled form of a flat slot list), so candidate probes bind and
  compare scalars instead of copying dicts;
* **codegenned matcher factories** — deterministic and seeded variants of
  ``find`` (first enabled match) and ``iterate`` (all enabled matches), plus
  the two lazy superstep collectors, each emitted as
  ``def make(C, H): def matcher(...): ...; return matcher`` and
  ``compile()``d/``exec``'d once into a bounded module-level
  :class:`~repro.gamma.codecache.CodeCache`.  The nested candidate loops are
  unrolled per pattern, bucket lookups are inlined against the
  :class:`~repro.multiset.index.LabelTagIndex` raw buckets, and the
  consumed-multiplicity check is an O(1) comparison against the elements
  already chosen by the enclosing loops (no ``sum(...)``/``multiset.count``
  rescan per candidate).  A seed only reorders candidates, at a cost
  proportional to what is visited: ``find_rng``/``iter_rng`` scan each level
  through :func:`~repro.gamma.matching.lazy_shuffle` (one draw per candidate
  visited), and ``collect_rng`` is ``collect_det``'s body with one extra
  line — the per-superstep bucket snapshot is shuffled when its view is
  built (one permutation per bucket per superstep).  The collectors claim,
  produce and count in one pass, straight into a
  :class:`~repro.gamma.matching.SuperstepBatch`.

Guards and productions evaluated outside the matcher (``lambda E: ...``
closures over a binding dict), the per-reaction *production functions*
(keyed by :class:`ProductionKey`, so productions never split a
:class:`ReactionShape`; counted over slot values for the collectors,
count-free over a binding for single firings) and the columnar mask
programs of :mod:`repro.gamma.vectorized` go through caches of the same
kind, keyed by their own constant-lifted ASTs.

**Stage 2, reaction -> bindings** (once per reaction, cheap).
``CompiledReaction(reaction)`` collects the reaction's ``C`` (labels, tags,
literals) and ``H`` (comparison wrappers that preserve the interpreter's
``EvaluationError`` semantics, late-registered operators, and closure-
composition fallbacks for user-defined :class:`Expr` subclasses) tuples in the
same walk that builds the key, looks the shape up, and calls the cached
factories.  A shape hit involves no source emission, no ``compile()`` and no
``exec``.  :func:`compile_cache_info` reports shapes, hits, misses and
evictions; generated sources are registered with :mod:`linecache` under
``<compiled-shape N:variant>``, and every matcher's ``__qualname__`` carries
its reaction's name.

Equivalence contract
--------------------

Sharing is invisible: two reactions of one shape run the *same source* over
their own bindings — exactly the source a per-reaction compile would emit —
so enumeration order, RNG consumption and raised exceptions cannot depend on
whether the shape was already cached.

For reactions whose match plan is the identity permutation — which includes
every reaction of the paper's listings and of Algorithm 1's output that the
engines' seeded-trace tests pin — the compiled matcher enumerates exactly the
same matches in exactly the same order as the interpreted
:class:`~repro.gamma.matching.Matcher`, consumes the RNG identically in
seeded mode (draw for draw, also when a probe stops early), and raises the
same exceptions from guard/production evaluation.  When the plan genuinely reorders patterns the *set* of matches
is unchanged but the enumeration order may differ (the same latitude the
scheduler's parking already takes for seeded engines).  The property tests in
``tests/properties/test_compiled_properties.py`` pin both halves of this
contract.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from ..multiset.element import Element
from ..multiset.index import LabelTagIndex
from ..multiset.multiset import Multiset
from .codecache import CodeCache, CodeUnit
from .expr import (
    ARITHMETIC_OPS,
    COMPARISON_OPS,
    BinOp,
    BoolOp,
    Compare,
    Const,
    EvaluationError,
    Expr,
    Not,
    Var,
    _safe_div,
)
from .matching import Match, SuperstepBatch, lazy_shuffle
from .pattern import Binding, ElementPattern, ElementTemplate
from .reaction import Reaction

__all__ = [
    "CompilationError",
    "CompileCacheInfo",
    "CompiledMatch",
    "CompiledReaction",
    "MatchPlan",
    "ProductionKey",
    "ReactionShape",
    "compile_cache_info",
    "compile_expr",
    "compile_reaction",
]


class CompilationError(Exception):
    """Raised when a reaction cannot be compiled (callers fall back to the
    interpreted matcher)."""


class _Unsupported(Exception):
    """Internal: expression node the code generator cannot lower."""


# ---------------------------------------------------------------------------
# Canonicalisation: Expr -> structural key + lifted (C, H) bindings
# ---------------------------------------------------------------------------

def _make_cmp(fn: Callable[[Any, Any], bool], node: Compare) -> Callable[[Any, Any], bool]:
    """Comparison wrapper preserving ``Compare.evaluate``'s error semantics."""

    def compare(a, b):
        """Apply the comparison, mapping ``TypeError`` to ``EvaluationError``."""
        try:
            return bool(fn(a, b))
        except TypeError as exc:
            raise EvaluationError(f"incomparable operands in {node!r}: {exc}") from exc

    return compare


#: Arithmetic operators rendered inline; any other ``ARITHMETIC_OPS`` entry
#: (registered after this module was written) is called through ``H``,
#: exactly like ``BinOp.evaluate`` does.
_INLINE_OPS = frozenset(("+", "-", "*", "%", "/", "min", "max"))


class _Canon:
    """One canonicalisation pass: structural keys out, bindings aside.

    Keys are nested tuples holding operators, variable names and *positions*
    only — ``("v", name)``, ``("c", i)`` for ``C[i]``, ``("h", j, l, r)`` for
    ``H[j](l, r)``, ``(op, l, r)``, ``("not", x)`` and ``("env", j, names)``
    for a whole expression delegated to the composed closure ``H[j]``.  What
    was lifted out lands in ``consts`` (``C``: labels, tags, literals) and
    ``helpers`` (``H``: comparison wrappers, late-registered operators,
    composed fallbacks), in walk order, so reactions with equal keys run the
    same code over their own ``(C, H)``.
    """

    __slots__ = ("consts", "helpers")

    def __init__(self) -> None:
        self.consts: List[Any] = []
        self.helpers: List[Callable] = []

    def const(self, value: Any) -> Tuple:
        """Intern ``value`` in the constant pool; returns its key."""
        self.consts.append(value)
        return ("c", len(self.consts) - 1)

    def helper(self, fn: Callable) -> int:
        """Intern ``fn`` in the helper table; returns its position."""
        self.helpers.append(fn)
        return len(self.helpers) - 1

    def field(self, field_expr: Expr) -> Tuple:
        """Key of a pattern field (``ElementPattern`` admits Var/Const only)."""
        if isinstance(field_expr, Const):
            return self.const(field_expr.value)
        return ("v", field_expr.name)  # type: ignore[attr-defined]

    def expr(self, expr: Expr) -> Tuple:
        """Key of ``expr``; raises :class:`_Unsupported` for unknown nodes."""
        if isinstance(expr, Var):
            return ("v", expr.name)
        if isinstance(expr, Const):
            return self.const(expr.value)
        if isinstance(expr, BinOp):
            left, right = self.expr(expr.left), self.expr(expr.right)
            if expr.op in _INLINE_OPS:
                return (expr.op, left, right)
            return ("h", self.helper(ARITHMETIC_OPS[expr.op]), left, right)
        if isinstance(expr, Compare):
            left, right = self.expr(expr.left), self.expr(expr.right)
            return ("h", self.helper(_make_cmp(COMPARISON_OPS[expr.op], expr)), left, right)
        if isinstance(expr, BoolOp):
            return (expr.op, self.expr(expr.left), self.expr(expr.right))
        if isinstance(expr, Not):
            return ("not", self.expr(expr.operand))
        raise _Unsupported(f"cannot lower {type(expr).__name__}")

    def condition(self, expr: Expr) -> Tuple:
        """Key of a matcher condition, with the closure-composition fallback."""
        n_consts, n_helpers = len(self.consts), len(self.helpers)
        try:
            return self.expr(expr)
        except _Unsupported:
            del self.consts[n_consts:]
            del self.helpers[n_helpers:]
            return ("env", self.helper(_compose(expr)), tuple(sorted(expr.variables())))


def _render(key: Tuple, ref: Callable[[str], str]) -> str:
    """Render an expression key as a Python source fragment.

    ``ref`` renders a variable reference (a slot local for the matcher, an
    ``E[...]`` lookup for env closures).
    """
    tag = key[0]
    if tag == "v":
        return ref(key[1])
    if tag == "c":
        return f"C[{key[1]}]"
    if tag == "h":
        return f"H[{key[1]}]({_render(key[2], ref)}, {_render(key[3], ref)})"
    if tag == "not":
        return f"(not bool({_render(key[1], ref)}))"
    if tag == "env":
        env = ", ".join(f"{name!r}: {ref(name)}" for name in key[2])
        return f"H[{key[1]}]({{{env}}})"
    left, right = _render(key[1], ref), _render(key[2], ref)
    if tag in ("and", "or"):
        return f"(bool({left}) {tag} bool({right}))"
    if tag == "/":
        return f"_div({left}, {right})"
    if tag in ("min", "max"):
        return f"{tag}({left}, {right})"
    return f"({left} {tag} {right})"


def _compose(expr: Expr) -> Callable[[Binding], Any]:
    """Closure-composition fallback for non-codegennable expressions.

    Known node kinds compose child closures with their operator functions
    (resolving dispatch once, at compile time); unknown node kinds delegate to
    the node's own ``evaluate``, which *defines* their semantics.
    """
    if isinstance(expr, (Var, Const)):
        return expr.evaluate
    if isinstance(expr, BinOp):
        fn = ARITHMETIC_OPS[expr.op]
        left, right = _compose(expr.left), _compose(expr.right)
        return lambda env: fn(left(env), right(env))
    if isinstance(expr, Compare):
        fn = _make_cmp(COMPARISON_OPS[expr.op], expr)
        left, right = _compose(expr.left), _compose(expr.right)
        return lambda env: fn(left(env), right(env))
    if isinstance(expr, BoolOp):
        left, right = _compose(expr.left), _compose(expr.right)
        if expr.op == "and":
            return lambda env: bool(left(env)) and bool(right(env))
        return lambda env: bool(left(env)) or bool(right(env))
    if isinstance(expr, Not):
        operand = _compose(expr.operand)
        return lambda env: not bool(operand(env))
    return expr.evaluate


def _checked_label(label: Any) -> str:
    """A produced element's label, validated like ``ElementTemplate.instantiate``."""
    if not isinstance(label, str):
        raise TypeError(f"produced label must be a string, got {label!r}")
    return label


def _checked_tag(tag: Any) -> int:
    """A produced element's tag, validated like ``ElementTemplate.instantiate``."""
    if isinstance(tag, bool) or not isinstance(tag, int):
        raise TypeError(f"produced tag must be an int, got {tag!r}")
    return tag


#: Globals of every generated module (builtins pinned to one dict lookup).
_NAMESPACE: Dict[str, Any] = {
    "_div": _safe_div,
    "bool": bool,
    "list": list,
    "min": min,
    "max": max,
    "id": id,
    "len": len,
    "range": range,
    "lazy_shuffle": lazy_shuffle,
    "Element": Element,
    "_checked_label": _checked_label,
    "_checked_tag": _checked_tag,
}

#: Stage-1 cache of ``lambda E: ...`` closure factories, keyed by expression key.
_EXPRS = CodeCache("compiled-expr", _NAMESPACE)


def _compile_env_expr(expr: Expr) -> Callable[[Binding], Any]:
    """Compile ``expr`` to a closure over a binding dict, without the unbound-
    variable guard.

    Internal building block: the reaction pipeline only evaluates expressions
    under bindings whose completeness ``Reaction._validate_variables`` already
    proved, so the per-call guard would be dead weight on the firing path.
    """
    canon = _Canon()
    try:
        key = canon.expr(expr)
    except _Unsupported:
        return _compose(expr)
    make, _ = _EXPRS.get(key).factory(
        "lambda",
        lambda: (
            "def make(C, H):\n"
            f"    return lambda E: {_render(key, lambda name: f'E[{name!r}]')}\n"
        ),
    )
    return make(tuple(canon.consts), tuple(canon.helpers))


def compile_expr(expr: Expr) -> Callable[[Binding], Any]:
    """Compile ``expr`` into a callable taking a variable-binding mapping.

    Uses :func:`compile`-based code generation when every node is understood
    and the closure-composition fallback otherwise; either way the returned
    callable evaluates exactly like ``expr.evaluate`` (same values, same
    exceptions — including :class:`EvaluationError` for unbound variables).
    """
    fn = _compile_env_expr(expr)

    def evaluate(env: Binding) -> Any:
        """Evaluate under ``env``, surfacing unbound variables uniformly."""
        try:
            return fn(env)
        except KeyError as exc:
            raise EvaluationError(f"unbound reaction variable {exc.args[0]!r}") from exc

    return evaluate


# ---------------------------------------------------------------------------
# Reaction shape + match plan
# ---------------------------------------------------------------------------

def _fields_could_collide(a: ElementPattern, b: ElementPattern) -> bool:
    """Could the two patterns ever match equal elements?

    Used to prune the consumed-multiplicity check at compile time: two
    patterns with different constant fields can never bind equal elements, so
    no runtime occurrence counting is needed between them.
    """
    for fa, fb in ((a.value, b.value), (a.label, b.label), (a.tag, b.tag)):
        if isinstance(fa, Const) and isinstance(fb, Const) and not (fa.value == fb.value):
            return False
    return True


class ReactionShape(NamedTuple):
    """Structural key of a reaction: everything codegen reads, nothing else.

    ``patterns[p]`` holds the ``(value, label, tag)`` field keys of replace-
    list pattern ``p`` — ``("c", i)`` for the constant ``C[i]``, ``("v",
    name)`` for a variable.  ``collide[p][q]`` (``q < p``) says whether
    patterns ``q`` and ``p`` could bind equal elements (the one place where
    constant *values* shape the code: distinct constants prune the
    multiplicity check).  ``guard`` is the guard's expression key or ``None``;
    ``conditions`` are the branch-condition keys in declaration order up to
    and including the first unconditional branch (``None``).  Labels, tags and
    literals are absent: they are the reaction's ``C`` tuple.
    """

    patterns: Tuple[Tuple[Tuple, Tuple, Tuple], ...]
    collide: Tuple[Tuple[bool, ...], ...]
    guard: Optional[Tuple]
    conditions: Tuple[Optional[Tuple], ...]


def _canonicalise(reaction: Reaction) -> Tuple[ReactionShape, Tuple[Any, ...], Tuple[Callable, ...]]:
    """Split ``reaction`` into its shape and its ``(C, H)`` bindings."""
    canon = _Canon()
    replace = reaction.replace
    patterns = tuple(
        (canon.field(pat.value), canon.field(pat.label), canon.field(pat.tag))
        for pat in replace
    )
    collide = tuple(
        tuple(_fields_could_collide(replace[q], pat) for q in range(p))
        for p, pat in enumerate(replace)
    )
    guard = None if reaction.guard is None else canon.condition(reaction.guard)
    # Branch conditions are or-ed in declaration order, mirroring
    # ``enabled_branch``'s first-true scan: conditions after the first
    # unconditional branch are never evaluated, conditions before it are
    # (they may raise, and the interpreter would evaluate them too).
    conditions: List[Optional[Tuple]] = []
    for branch in reaction.branches:
        if branch.condition is None:
            conditions.append(None)
            break
        conditions.append(canon.condition(branch.condition))
    shape = ReactionShape(patterns, collide, guard, tuple(conditions))
    return shape, tuple(canon.consts), tuple(canon.helpers)


@dataclass(frozen=True)
class MatchPlan:
    """The compile-time search strategy for one reaction shape.

    ``order[k]`` is the original replace-list index probed at plan position
    ``k``; ``selectivity[k]`` records ``(label_known, tag_known)`` at the
    moment position ``k`` was chosen (constants or variables bound by earlier
    plan positions).  ``slots`` maps slot index -> variable name in
    first-encounter order over the *original* pattern order, which is also
    the key order of the binding dicts the compiled matcher emits.
    """

    order: Tuple[int, ...]
    slots: Tuple[str, ...]
    selectivity: Tuple[Tuple[bool, bool], ...]

    @property
    def is_identity(self) -> bool:
        """True when the plan preserves declaration order (and therefore the
        interpreted matcher's exact enumeration order)."""
        return self.order == tuple(range(len(self.order)))

    @property
    def slot_of(self) -> Dict[str, int]:
        """Mapping from variable name to its fixed slot index."""
        return {name: i for i, name in enumerate(self.slots)}


def _plan(patterns: Sequence[Tuple[Tuple, Tuple, Tuple]]) -> MatchPlan:
    """Greedy selectivity ordering with bound-variable propagation.

    At each step the pattern with the most index leverage is chosen:
    known-label patterns before variable-label ones, known-tag before unknown
    within a label class, original position as the stable tie-break.  Binding
    propagation means a pattern whose tag variable is bound by an earlier
    choice counts as known-tag — the shared-``v``-tag reactions produced by
    Algorithm 1 resolve their tag join at compile time this way.
    """
    slots: List[str] = []
    for fields in patterns:
        for kind, name in fields:
            if kind == "v" and name not in slots:
                slots.append(name)

    remaining = list(range(len(patterns)))
    bound: set = set()
    order: List[int] = []
    selectivity: List[Tuple[bool, bool]] = []

    def rank(i: int) -> Tuple[int, int, int]:
        """Selectivity key: known-label, then known-tag, then declaration order."""
        _, label, tag = patterns[i]
        label_known = label[0] == "c" or label[1] in bound
        tag_known = tag[0] == "c" or tag[1] in bound
        return (0 if label_known else 1, 0 if tag_known else 1, i)

    while remaining:
        best = min(remaining, key=rank)
        key = rank(best)
        order.append(best)
        selectivity.append((key[0] == 0, key[1] == 0))
        remaining.remove(best)
        bound.update(name for kind, name in patterns[best] if kind == "v")

    return MatchPlan(order=tuple(order), slots=tuple(slots), selectivity=tuple(selectivity))


# ---------------------------------------------------------------------------
# Matcher code generation (shape -> factory source)
# ---------------------------------------------------------------------------

class _SourceWriter:
    """Indentation-aware line accumulator for generated matcher source."""

    def __init__(self) -> None:
        self.lines: List[str] = []
        self.indent = 0

    def w(self, line: str) -> None:
        """Append ``line`` at the current indentation level."""
        self.lines.append("    " * self.indent + line)


class _MatcherEmitter:
    """Shared pieces of the matcher variants emitted for one shape.

    Reads the :class:`ReactionShape` and its plan only, so the source is a
    function of the cache key by construction.
    """

    def __init__(self, shape: ReactionShape, plan: MatchPlan) -> None:
        self.shape = shape
        self.plan = plan
        self.writer = _SourceWriter()
        self.bound: set = set()
        self._slot_of = plan.slot_of

    def slot_ref(self, name: str) -> str:
        """Local-variable name of the slot holding reaction variable ``name``."""
        return f"s{self._slot_of[name]}"

    def known(self, field: Tuple) -> Optional[str]:
        """Source of a field whose value is known before the candidate loop
        (a constant, or a variable bound by an earlier plan position)."""
        kind, ref = field
        if kind == "c":
            return f"C[{ref}]"
        if ref in self.bound:
            return self.slot_ref(ref)
        return None

    def partners(self, k: int) -> List[int]:
        """Other plan positions whose pattern could bind an equal element."""
        order = self.plan.order
        collide = self.shape.collide
        return [
            j for j in range(len(order))
            if j != k and collide[max(order[j], order[k])][min(order[j], order[k])]
        ]

    def colliders(self, k: int) -> List[int]:
        """Earlier plan positions whose pattern could bind an equal element."""
        return [j for j in self.partners(k) if j < k]

    def field_checks(self, k: int, label_known: bool, tag_known: bool) -> None:
        """Field checks / slot binds of plan position ``k`` (value, label,
        tag — pattern order); fields that selected the bucket are not
        re-checked."""
        writer = self.writer
        value, label, tag = self.shape.patterns[self.plan.order[k]]
        for field, attr, source_known in (
            (value, "value", False),
            (label, "label", label_known),
            (tag, "tag", tag_known),
        ):
            kind, ref = field
            if kind == "c":
                if not source_known:
                    writer.w(f"if C[{ref}] != e{k}.{attr}:")
                    writer.w("    continue")
            elif ref in self.bound:
                if not source_known:
                    writer.w(f"if {self.slot_ref(ref)} != e{k}.{attr}:")
                    writer.w("    continue")
            else:
                writer.w(f"{self.slot_ref(ref)} = e{k}.{attr}")
                self.bound.add(ref)

    def enabled_checks(self) -> None:
        """Enabledness: the guard, then the ordered branch conditions."""
        writer = self.writer
        shape = self.shape
        if shape.guard is not None:
            writer.w(f"if not ({_render(shape.guard, self.slot_ref)}):")
            writer.w("    continue")
        if shape.conditions != (None,):
            alternatives = " or ".join(
                "True" if condition is None else f"({_render(condition, self.slot_ref)})"
                for condition in shape.conditions
            )
            writer.w(f"if not ({alternatives}):")
            writer.w("    continue")

    def consumed_elements(self) -> List[str]:
        """The consumed-element locals in declaration order."""
        return [f"e{self.plan.order.index(p)}" for p in range(len(self.shape.patterns))]

    def match_source(self) -> str:
        """The match tuple ``(consumed, binding)`` — declaration-order
        consumed elements, slot-order binding dict."""
        consumed = _tuple_source(self.consumed_elements())
        binding = ", ".join(f"{name!r}: {self.slot_ref(name)}" for name in self.plan.slots)
        return f"({consumed}, {{{binding}}})"


def _tuple_source(items: Sequence[str]) -> str:
    """Source of a tuple display of ``items`` (one-tuples included)."""
    return f"({', '.join(items)}{',' if len(items) == 1 else ''})"


def _emit_matcher_body(emitter: _MatcherEmitter, shuffled: bool, emit: str) -> None:
    """Emit the nested candidate loops for one matcher variant.

    ``emit`` is ``"return"`` (find variant: first enabled match) or
    ``"yield"`` (iterate variant: all enabled matches, interpreted order).
    """
    writer = emitter.writer
    for k, position in enumerate(emitter.plan.order):
        _, label, tag = emitter.shape.patterns[position]
        label_frag = emitter.known(label)
        tag_frag = emitter.known(tag)

        # -- candidate source (mirrors Matcher._candidates exactly) ---------
        # Shuffled variants pool the same candidates the deterministic loops
        # visit and scan them through ``lazy_shuffle``: draws are paid per
        # candidate visited, not per bucket element.
        if label_frag is not None:
            if tag_frag is not None:
                writer.w(f"t{k} = _idx.get({label_frag})")
                writer.w(f"b{k} = t{k}.get({tag_frag}) if t{k} is not None else None")
            else:
                writer.w(f"b{k} = _flat.get({label_frag})")
            if shuffled:
                writer.w(f"c{k} = list(b{k}) if b{k} else []")
            else:
                writer.w(f"if b{k}:")
                writer.indent += 1
                writer.w(f"for e{k} in b{k}:")
        elif tag_frag is not None:
            if shuffled:
                writer.w(f"c{k} = []")
                writer.w(f"for t{k} in _idx.values():")
                writer.w(f"    b{k} = t{k}.get({tag_frag})")
                writer.w(f"    if b{k}:")
                writer.w(f"        c{k}.extend(b{k})")
            else:
                writer.w(f"for t{k} in _idx.values():")
                writer.indent += 1
                writer.w(f"b{k} = t{k}.get({tag_frag})")
                writer.w(f"if b{k}:")
                writer.indent += 1
                writer.w(f"for e{k} in b{k}:")
        else:
            if shuffled:
                writer.w(f"c{k} = []")
                writer.w(f"for b{k} in _flat.values():")
                writer.w(f"    c{k}.extend(b{k})")
            else:
                writer.w(f"for b{k} in _flat.values():")
                writer.indent += 1
                writer.w(f"for e{k} in b{k}:")
        if shuffled:
            writer.w(f"for e{k} in lazy_shuffle(c{k}, rng):")
        writer.indent += 1

        # -- consumed-multiplicity check (O(1), against enclosing loops) ----
        # Identity only, as in the collectors: candidates are bucket keys,
        # one instance per distinct element.
        colliders = emitter.colliders(k)
        if colliders:
            terms = " + ".join(f"(e{k} is e{j})" for j in colliders)
            writer.w(f"n{k} = {terms}")
            writer.w(f"if n{k} and mcount(e{k}) <= n{k}:")
            writer.w("    continue")

        emitter.field_checks(k, label_frag is not None, tag_frag is not None)

    emitter.enabled_checks()
    writer.w(f"{emit} {emitter.match_source()}")


def _emit_collect_body(emitter: _MatcherEmitter, shuffled: bool) -> None:
    """Emit the superstep *collector*: a greedy disjoint set of ``(tuple, k)``,
    claimed, produced and counted in one pass.

    The collector visits tuples like the iterate variant but threads a shared
    ``rem`` map (element -> copies still unclaimed this superstep, lazily
    initialized, shared across all reactions) through the candidate checks.
    A tuple ``e_0..e_{n-1}`` that passed the guard and branch conditions is
    fired *with multiplicity*: with ``a_i`` the unclaimed copies of ``e_i``
    and ``m_i`` the number of slots holding that same object, it is claimed
    ``k = min_i(a_i // m_i)`` times — every firing of this tuple the
    superstep can still afford, ``k >= 1`` by the candidate checks — clipped
    to the firings left in ``room`` (``None``: unbounded).  The claim goes
    straight into the :class:`~repro.gamma.matching.SuperstepBatch`: ``k``
    copies per slot into ``removed`` (declaration order), the reaction's
    production function ``_P`` — called on the slot values — counts one
    firing's elements ``k`` times into ``added``, and one flat decision
    record is appended; no match or binding dict is built.  Collection
    returns the firings claimed as soon as ``room`` is used up.  So each
    distinct combination is visited once *and* left with nothing more to
    give, matching cost scales with distinct elements rather than copies,
    and the set is maximal: no visited tuple could fire again.  After each
    claim the loops break back out to the shallowest level whose element is
    exhausted instead of rescanning consumed candidates, so one call runs in
    near-linear time and the per-firing probe restart of the sequential
    engines disappears — which is where the parallel backend's throughput
    comes from.

    Only generated for plans whose every position has a known label (constant
    or bound by an earlier position): each level is then exactly one bucket
    loop, which the break/continue cascade below requires.  Unknown-label
    plans fall back to the interpreted twin, :meth:`Matcher.collect
    <repro.gamma.matching.Matcher.collect>`.
    """
    writer = emitter.writer
    order = emitter.plan.order
    arity = len(order)

    writer.w("removed = batch.removed")
    writer.w("added = batch.added")
    writer.w("rec = batch.records.append")
    writer.w("_fired = 0")
    if arity > 1:
        writer.w("_stop = -1")

    for k, position in enumerate(order):
        _, label, tag = emitter.shape.patterns[position]
        # supports_collect guarantees the label is known here.
        label_frag = emitter.known(label)
        tag_frag = emitter.known(tag)

        # -- candidate source: exactly one loop per level -------------------
        # Scans run over a per-superstep *view* of the bucket — a materialized
        # snapshot plus a head pointer shared (via ``views``) by every scan of
        # that bucket this superstep.  Greedy claiming exhausts candidates
        # mostly front-to-back, so each rescan would otherwise re-skip an
        # ever-growing exhausted prefix (quadratic for guard-free folds); the
        # head pointer advances past that prefix permanently, which is sound
        # because claims only accumulate while the batch is being collected.
        # The seeded collector differs in one line: it shuffles the snapshot
        # when the view is built — one permutation per bucket per superstep.
        if tag_frag is not None:
            writer.w(f"t{k} = _idx.get({label_frag})")
            writer.w(f"b{k} = t{k}.get({tag_frag}) if t{k} is not None else None")
        else:
            writer.w(f"b{k} = _flat.get({label_frag})")
        writer.w(f"if b{k}:")
        writer.w(f"    v{k} = views.get(id(b{k}))")
        writer.w(f"    if v{k} is None:")
        writer.w(f"        v{k} = views[id(b{k})] = [list(b{k}), 0]")
        if shuffled:
            writer.w(f"        rng.shuffle(v{k}[0])")
        writer.w(f"    l{k} = v{k}[0]")
        writer.w(f"    h{k} = v{k}[1]")
        writer.w("else:")
        writer.w(f"    l{k} = ()")
        writer.w(f"    h{k} = 0")
        writer.w(f"a{k} = True")
        writer.w(f"for j{k} in range(h{k}, len(l{k})):")
        writer.indent += 1
        writer.w(f"e{k} = l{k}[j{k}]")

        # -- availability: superstep consumption + within-match collisions --
        # ``rem`` maps element -> remaining copies, initialized lazily on the
        # first claim; an untouched element always has >= 1 copy (it came out
        # of a live bucket), so the common case costs one dict probe and no
        # multiset lookup.  Collision terms use identity only: bucket keys
        # hold exactly one instance per distinct element.  Only the
        # *unconditionally* exhausted case may advance the view head —
        # within-match collision skips are local to the current partial match.
        colliders = emitter.colliders(k)
        if colliders:
            terms = " + ".join(f"(e{k} is e{j})" for j in colliders)
            writer.w(f"n{k} = {terms}")
            writer.w(f"r{k} = rem.get(e{k})")
            writer.w(f"if r{k} is None:")
            writer.w(f"    if n{k} and mcount(e{k}) <= n{k}:")
            writer.w(f"        a{k} = False")
            writer.w("        continue")
            writer.w(f"elif r{k} <= 0:")
            writer.w(f"    if a{k}:")
            writer.w(f"        v{k}[1] = j{k} + 1")
            writer.w("    continue")
            writer.w(f"elif r{k} <= n{k}:")
            writer.w(f"    a{k} = False")
            writer.w("    continue")
        else:
            writer.w(f"r{k} = rem.get(e{k})")
            writer.w(f"if r{k} is not None and r{k} <= 0:")
            writer.w(f"    if a{k}:")
            writer.w(f"        v{k}[1] = j{k} + 1")
            writer.w("    continue")
        writer.w(f"a{k} = False")

        emitter.field_checks(k, True, tag_frag is not None)

    emitter.enabled_checks()

    # -- multiplicity: k = min_i(a_i // m_i), claimed k times per slot ------
    # ``m_i`` counts the slots holding e_i's object; identity terms are only
    # emitted for slot pairs the shape lets collide, so the common case is a
    # plain min over the a_i.  Slots sharing one object compute the same
    # (a, m), hence the same idempotent ``rem`` store below.
    # The innermost level read its ``rem`` entry after every enclosing
    # claim, so ``r`` is still current there; outer levels re-read.
    partners = [emitter.partners(k) for k in range(arity)]
    for k in range(arity):
        writer.w(f"x{k} = r{k}" if k == arity - 1 else f"x{k} = rem.get(e{k})")
        writer.w(f"if x{k} is None:")
        writer.w(f"    x{k} = mcount(e{k})")
        quota = f"x{k}"
        if partners[k]:
            terms = " + ".join(f"(e{k} is e{j})" for j in partners[k])
            writer.w(f"m{k} = 1 + {terms}")
            writer.w(f"q{k} = x{k} // m{k}")
            quota = f"q{k}"
        if k == 0:
            writer.w(f"_k = {quota}")
        else:
            writer.w(f"if {quota} < _k:")
            writer.w(f"    _k = {quota}")
    writer.w("if room is not None and _k > room - _fired:")
    writer.w("    _k = room - _fired")
    for k in range(arity):
        claimed = f"_k * m{k}" if partners[k] else "_k"
        writer.w(f"rem[e{k}] = y{k} = x{k} - {claimed}")

    # -- the claim, counted into the batch ----------------------------------
    consumed = emitter.consumed_elements()
    for element in consumed:
        writer.w(f"removed[{element}] = removed.get({element}, 0) + _k")
    slots = [f"s{i}" for i in range(len(emitter.plan.slots))]
    produce = f"_P(added, _k, {', '.join(slots + consumed)})"
    writer.w(f"rec((_owner, {_tuple_source(consumed)}, {produce}, _k))")
    writer.w("_fired += _k")
    writer.w("if _fired == room:")
    writer.w("    batch.firings += _fired")
    writer.w("    return _fired")

    # -- advance the shallowest exhausted loop ------------------------------
    if arity > 1:
        # Keeping the held prefix e_0..e_j alive requires every object in it
        # to retain one copy *per slot it fills*, so level j's threshold
        # counts its identity collisions with shallower held slots — not
        # just its own copy (one object spread over two held slots with one
        # copy left must break, or the next inner yield over-consumes it).
        for j in range(arity - 1):
            keyword = "if" if j == 0 else "elif"
            prior = emitter.colliders(j)
            if prior:
                need = " + ".join(f"(e{j} is e{i})" for i in prior)
                writer.w(f"{keyword} y{j} < 1 + {need}:")
            else:
                writer.w(f"{keyword} y{j} <= 0:")
            writer.w(f"    _stop = {j}")
        writer.w("if _stop != -1:")
        writer.w("    break")
        # Unwind: each enclosing level either resumes (its element still has
        # copies) or forwards the break outward.  The handler for the loop of
        # level ``k + 1`` lives in level ``k``'s body (indent ``k + 2``).
        for k in range(arity - 2, -1, -1):
            writer.indent = k + 2
            writer.w("if _stop != -1:")
            writer.w(f"    if _stop == {k}:")
            writer.w("        _stop = -1")
            writer.w("    else:")
            writer.w("        break")


#: Matcher variant name -> (mode, shuffled).
_VARIANTS: Dict[str, Tuple[str, bool]] = {
    "find_det": ("find", False),
    "find_rng": ("find", True),
    "iter_det": ("iterate", False),
    "iter_rng": ("iterate", True),
    "collect_det": ("collect", False),
    "collect_rng": ("collect", True),
}


def _matcher_source(shape: ReactionShape, plan: MatchPlan, variant: str) -> str:
    """Source of one matcher variant's factory, ``def make(C, H): ...``."""
    mode, shuffled = _VARIANTS[variant]
    emitter = _MatcherEmitter(shape, plan)
    writer = emitter.writer
    args = "_idx, _flat, rng, mcount" if shuffled else "_idx, _flat, mcount"
    if mode == "collect":
        args += ", rem, views, batch, _P, _owner, room"
    writer.w(f"def matcher({args}):")
    writer.indent = 1
    if mode == "collect":
        _emit_collect_body(emitter, shuffled)
    else:
        _emit_matcher_body(emitter, shuffled, emit="return" if mode == "find" else "yield")
    writer.indent = 1
    if mode == "find":
        writer.w("return None")
    elif mode == "collect":
        writer.w("batch.firings += _fired")
        writer.w("return _fired")
    body = "\n".join("    " + line for line in writer.lines)
    return f"def make(C, H):\n{body}\n    return matcher\n"


class _ShapeCode(CodeUnit):
    """Stage-1 output for one reaction shape: its plan and matcher factories."""

    __slots__ = ("plan",)

    def __init__(self, cache: CodeCache, key: ReactionShape, serial: int) -> None:
        super().__init__(cache, key, serial)
        self.plan = _plan(key.patterns)

    def matcher(self, variant: str) -> Tuple[Callable, str]:
        """``(make, source)`` of one matcher variant, generated on first use."""
        return self.factory(variant, lambda: _matcher_source(self.key, self.plan, variant))


#: Stage-1 cache of matcher factories, keyed by :class:`ReactionShape`.
_SHAPES = CodeCache("compiled-shape", _NAMESPACE, unit=_ShapeCode)


class CompileCacheInfo(NamedTuple):
    """Snapshot of the reaction-shape cache (see :func:`compile_cache_info`)."""

    shapes: int
    hits: int
    misses: int
    evictions: int


def compile_cache_info() -> CompileCacheInfo:
    """Distinct shapes cached, and the hit/miss/eviction counts so far.

    One lookup per :func:`compile_reaction` call: ``misses`` counts the
    reactions that paid for code generation, ``hits`` the ones that only
    bound their ``(C, H)`` tuples to existing factories.
    """
    with _SHAPES.lock:
        return CompileCacheInfo(len(_SHAPES), _SHAPES.hits, _SHAPES.misses, _SHAPES.evictions)


# ---------------------------------------------------------------------------
# Compiled productions
# ---------------------------------------------------------------------------

def _constant_element(template: ElementTemplate) -> Optional[Element]:
    """The element an all-constant template always produces, or ``None``.

    ``None`` also when a constant is invalid: that template must fail at
    firing time, like ``instantiate`` does.
    """
    if not (_constant_site(template) and isinstance(template.value, Const)):
        return None
    try:
        return Element(value=template.value.value, label=template.label.value, tag=template.tag.value)
    except (TypeError, ValueError):
        return None


def _constant_site(template: ElementTemplate) -> bool:
    """True when the template's label and tag are valid constants (their
    per-firing type checks are discharged at compile time)."""
    label, tag = template.label, template.tag
    return (
        isinstance(label, Const)
        and isinstance(tag, Const)
        and isinstance(label.value, str)
        and isinstance(tag.value, int)
        and not isinstance(tag.value, bool)
    )


def _compile_template(template: ElementTemplate) -> Callable[[Binding], Element]:
    """Compile one production template, preserving ``instantiate`` semantics.

    Templates whose label and tag are valid constants skip the per-firing
    type checks (they are discharged here, at compile time); an all-constant
    template becomes a single shared immutable element.
    """
    element = _constant_element(template)
    if element is not None:
        return lambda env: element
    if _constant_site(template):
        label = template.label.value
        tag = template.tag.value
        value_of = _compile_env_expr(template.value)
        return lambda env: Element(value=value_of(env), label=label, tag=tag)

    value_fn = _compile_env_expr(template.value)
    label_fn = _compile_env_expr(template.label)
    tag_fn = _compile_env_expr(template.tag)

    def produce(env: Binding) -> Element:
        """Instantiate the template under ``env`` (validated label/tag)."""
        label = _checked_label(label_fn(env))
        tag = _checked_tag(tag_fn(env))
        return Element(value=value_fn(env), label=label, tag=tag)

    return produce


def _slot_sites(shape: ReactionShape, plan: MatchPlan) -> Dict[str, Tuple[int, str]]:
    """Where each variable's slot value comes from: ``(p, attr)`` for the
    declaration-order pattern ``p`` and field the compiled matcher binds it
    from (its first occurrence in plan order)."""
    sites: Dict[str, Tuple[int, str]] = {}
    for position in plan.order:
        for (kind, name), attr in zip(shape.patterns[position], ("value", "label", "tag")):
            if kind == "v" and name not in sites:
                sites[name] = (position, attr)
    return sites


def _template_key(
    canon: _Canon,
    template: ElementTemplate,
    replace: Sequence[ElementPattern],
    sites: Dict[str, Tuple[int, str]],
) -> Tuple:
    """Key of one production template of a production function.

    ``("pass", p, tag)`` hands back consumed element ``p``: the template
    re-emits the pattern that binds its value variable — value bound from
    pattern ``p``, and pattern ``p``'s label (the same constant, or the same
    variable bound from ``p``) — so the element it would build equals
    element ``p`` field for field, value object included.  ``tag`` is
    ``None`` when the template's tag is the tag variable bound from ``p``;
    for a valid constant tag it is that constant's position, and element
    ``p`` is handed back only when its tag *is* that constant (else the
    element is built, as under ``"fixed"``).  ``("elem", c)`` is an
    all-constant template's prebuilt element ``C[c]``; ``("fixed", value,
    label, tag)`` builds an element with valid constant label and tag;
    ``("checked", value, label, tag)`` validates label and tag per firing,
    in ``instantiate``'s order (label, tag, then value).
    """
    value, label, tag = template.value, template.label, template.tag
    site = sites.get(value.name) if isinstance(value, Var) else None
    if site is not None and site[1] == "value":
        p = site[0]
        bound = replace[p].label
        same_label = (isinstance(label, Var) and sites.get(label.name) == (p, "label")) or (
            isinstance(label, Const)
            and isinstance(label.value, str)
            and isinstance(bound, Const)
            and bound.value == label.value
        )
        if same_label and isinstance(tag, Var) and sites.get(tag.name) == (p, "tag"):
            return ("pass", p, None)
        if same_label and _constant_site(template):
            return ("pass", p, canon.const(tag.value), canon.condition(value), canon.condition(label))
    element = _constant_element(template)
    if element is not None:
        return ("elem", canon.const(element))
    if _constant_site(template):
        return ("fixed", canon.condition(value), canon.const(label.value), canon.const(tag.value))
    return ("checked", canon.condition(value), canon.condition(label), canon.condition(tag))


class ProductionKey(NamedTuple):
    """Structural key of a reaction's production function.

    ``slots`` are the function's slot parameters (names, slot order) and
    ``arity`` its consumed-element parameters; ``branches`` holds ``(condition,
    templates)`` per branch up to and including the first unconditional one
    (later branches are unreachable); ``name`` is the constant position of the
    reaction's name, for the no-branch-enabled error.  Like
    :class:`ReactionShape` it carries positions, never labels or literals.
    """

    slots: Tuple[str, ...]
    arity: int
    branches: Tuple[Tuple[Optional[Tuple], Tuple[Tuple, ...]], ...]
    name: Tuple


def _production_key(
    reaction: Reaction, plan: MatchPlan, sites: Dict[str, Tuple[int, str]]
) -> Tuple[ProductionKey, Tuple[Any, ...], Tuple[Callable, ...]]:
    """Split ``reaction``'s productions into their key and ``(C, H)`` bindings."""
    canon = _Canon()
    branches = []
    for branch in reaction.branches:
        condition = None if branch.condition is None else canon.condition(branch.condition)
        templates = tuple(
            _template_key(canon, template, reaction.replace, sites)
            for template in branch.productions
        )
        branches.append((condition, templates))
        if condition is None:
            break
    key = ProductionKey(plan.slots, len(reaction.replace), tuple(branches), canon.const(reaction.name))
    return key, tuple(canon.consts), tuple(canon.helpers)


def _production_source(key: ProductionKey, counted: bool = True) -> str:
    """Source of a production function's factory, ``def make(C, H): ...``.

    Counted (the collectors' variant), ``produce(added, k, s0.., e0..)`` runs
    the first enabled branch over the slot values (and, for pass-through
    templates, the consumed elements in declaration order), counts its
    elements ``k`` times into ``added`` in template order and returns them as
    a tuple.  Count-free (the single-firing variant), ``produce(E, e0..)``
    reads the slots it needs from the binding dict ``E`` by name and returns
    the same elements as a list.
    """
    slot_of = {name: i for i, name in enumerate(key.slots)}
    used: Dict[str, None] = {}

    def ref(name: str) -> str:
        used[name] = None
        return f"s{slot_of[name]}"

    writer = _SourceWriter()
    writer.indent = 1
    for condition, templates in key.branches:
        if condition is not None:
            writer.w(f"if {_render(condition, ref)}:")
            writer.indent += 1
        for i, template in enumerate(templates):
            kind = template[0]
            if kind == "pass" and template[2] is None:
                writer.w(f"p{i} = e{template[1]}")
            elif kind == "pass":
                # Hand back the consumed element when it already carries the
                # constant tag (identity: equal is not enough, ``IntEnum``
                # tags compare equal to ints), else build the element.
                element, tag = f"e{template[1]}", _render(template[2], ref)
                value, label = (_render(part, ref) for part in template[3:])
                writer.w(
                    f"p{i} = {element} if {element}.tag is {tag} "
                    f"else Element(value={value}, label={label}, tag={tag})"
                )
            elif kind == "elem":
                writer.w(f"p{i} = {_render(template[1], ref)}")
            elif kind == "fixed":
                value, label, tag = (_render(part, ref) for part in template[1:])
                writer.w(f"p{i} = Element(value={value}, label={label}, tag={tag})")
            else:
                value, label, tag = (_render(part, ref) for part in template[1:])
                writer.w(f"l{i} = _checked_label({label})")
                writer.w(f"t{i} = _checked_tag({tag})")
                writer.w(f"p{i} = Element(value={value}, label=l{i}, tag=t{i})")
        produced = [f"p{i}" for i in range(len(templates))]
        if counted:
            for element in produced:
                writer.w(f"added[{element}] = added.get({element}, 0) + k")
            writer.w(f"return {_tuple_source(produced)}")
        else:
            writer.w(f"return [{', '.join(produced)}]")
        if condition is not None:
            writer.indent -= 1
    if not key.branches or key.branches[-1][0] is not None:
        name = _render(key.name, ref)
        writer.w(f'raise ValueError(f"reaction {{{name}!r}} has no enabled branch")')
    consumed = [f"e{p}" for p in range(key.arity)]
    if counted:
        params = ["added", "k"] + [f"s{i}" for i in range(len(key.slots))] + consumed
        reads = []
    else:
        params = ["E"] + consumed
        reads = [f"    s{slot_of[name]} = E[{name!r}]" for name in used]
    lines = [f"def produce({', '.join(params)}):"] + reads + writer.lines
    body = "\n".join("    " + line for line in lines)
    return f"def make(C, H):\n{body}\n    return produce\n"


#: Stage-1 cache of production-function factories, keyed by :class:`ProductionKey`.
_PRODUCTIONS = CodeCache("compiled-production", _NAMESPACE)


# ---------------------------------------------------------------------------
# Compiled reaction + matches
# ---------------------------------------------------------------------------

@dataclass(frozen=True, repr=False)
class CompiledMatch(Match):
    """A match found by the compiled matcher.

    Identical observable content to an interpreted :class:`Match` (same
    reaction, consumed tuple in declaration order, same binding dict, same
    ``times`` and repr); :meth:`produced` runs the reaction's codegenned
    production function instead of re-walking the template ASTs.  Probe
    hits are built through :func:`_compiled_match`, not the dataclass
    constructor.
    """

    compiled: Optional["CompiledReaction"] = None

    def produced(self) -> List[Element]:
        """The elements inserted when this match fires: the count-free
        production function over the binding's slots, so a template that
        re-emits a consumed element hands that element back."""
        compiled = self.compiled
        emit = compiled._emit
        if emit is None:
            emit = compiled._bind_emit()
        return emit(self.binding, *self.consumed)


_new_object = object.__new__
_set_attribute = object.__setattr__


def _compiled_match(
    compiled: "CompiledReaction", consumed: Tuple[Element, ...], binding: Binding
) -> CompiledMatch:
    """A probe hit's :class:`CompiledMatch` (``times == 1``) without the
    frozen dataclass's ``__init__``: one attribute store instead of five
    ``object.__setattr__`` calls."""
    match = _new_object(CompiledMatch)
    _set_attribute(match, "__dict__", {
        "reaction": compiled.reaction,
        "consumed": consumed,
        "binding": binding,
        "times": 1,
        "compiled": compiled,
    })
    return match


class CompiledReaction:
    """One reaction specialized for repeated probing.

    Built by :func:`compile_reaction`; probed through :meth:`find` /
    :meth:`iter_matches` against a
    :class:`~repro.multiset.index.LabelTagIndex` view of the multiset.
    """

    __slots__ = (
        "reaction",
        "shape",
        "plan",
        "footprint",
        "wildcard",
        "sources",
        "_code",
        "_bindings",
        "_find_det",
        "_find_rng",
        "_iter_det",
        "_iter_rng",
        "_collect_supported",
        "_collect_det",
        "_collect_rng",
        "_produce",
        "_emit",
        "_sites",
        "_branches",
        "_vectorized",
    )

    def __init__(self, reaction: Reaction) -> None:
        self.reaction = reaction
        #: Structural key shared by every isomorphic reaction (stage 1's cache
        #: key): hashable, free of labels, literals and identities.
        self.shape, consts, helpers = _canonicalise(reaction)
        self._code: _ShapeCode = _SHAPES.get(self.shape)  # type: ignore[assignment]
        self._bindings = (consts, helpers)
        self.plan = self._code.plan
        # Scheduler footprint, resolved once at compile time.
        self.footprint: FrozenSet[str] = reaction.consumed_labels()
        self.wildcard: bool = reaction.has_variable_label()
        #: Generated sources (the shape's factories), keyed for
        #: inspection/debugging and tests.
        self.sources: Dict[str, str] = {}
        self._find_det = self._bind("find_det")
        self._find_rng = self._bind("find_rng")
        self._iter_det = self._bind("iter_det")
        self._iter_rng = self._bind("iter_rng")
        # Superstep collectors need every plan position label-known (one
        # bucket loop per level); unknown-label plans probe through the
        # scheduler's accounting fallback instead.  Binding is *lazy* (on
        # the first :meth:`collect`): only the parallel backend uses the
        # collectors, and the sequential engines must not pay their codegen
        # at setup — the small-size scheduler benchmarks gate this.
        self._collect_supported: bool = all(
            label_known for label_known, _ in self.plan.selectivity
        )
        self._collect_det: Optional[Callable] = None
        self._collect_rng: Optional[Callable] = None
        # The production function over slot values (counted, for the
        # collectors) and its count-free twin over a binding (for single
        # firings), and where each slot's value comes from: all bound lazily,
        # by the first claim or firing that needs them.
        self._produce: Optional[Callable] = None
        self._emit: Optional[Callable] = None
        self._sites: Optional[Tuple[Tuple[int, str], ...]] = None
        # Fifth matcher variant (columnar mask program), built lazily like the
        # collectors: only columnar runs pay the lowering.  ``False`` is the
        # not-yet-attempted sentinel (``None`` means "tried, not lowerable").
        self._vectorized: Any = False
        # Per-template closures over a binding dict, for :meth:`apply` and
        # the columnar lowering only: built on first use by
        # :meth:`_branch_table`, since firings go through the production
        # functions.
        self._branches: Optional[Tuple[Tuple[Optional[Callable], Tuple[Callable, ...]], ...]] = None

    def _bind(self, variant: str) -> Callable:
        """Instantiate one matcher variant: the shape's factory closed over
        this reaction's ``(C, H)``."""
        make, source = self._code.matcher(variant)
        matcher = make(*self._bindings)
        matcher.__qualname__ = f"{self.reaction.name}.{variant}"
        self.sources[variant] = source
        return matcher

    # -- probing ---------------------------------------------------------------
    def find(
        self,
        index: LabelTagIndex,
        multiset: Multiset,
        rng: Optional[random.Random] = None,
    ) -> Optional[Match]:
        """First enabled match against the indexed multiset, or ``None``."""
        # Raw counter access, as in :meth:`collect`: candidates come from live
        # buckets, so Multiset.count's coercion is dead weight per probe.
        if rng is None:
            got = self._find_det(
                index.label_tag_buckets(), index.label_buckets(), multiset._counts.get
            )
        else:
            got = self._find_rng(
                index.label_tag_buckets(), index.label_buckets(), rng, multiset._counts.get
            )
        if got is None:
            return None
        return _compiled_match(self, *got)

    def iter_matches(
        self,
        index: LabelTagIndex,
        multiset: Multiset,
        rng: Optional[random.Random] = None,
        limit: Optional[int] = None,
    ) -> Iterator[Match]:
        """All enabled matches (up to ``limit``), interpreted-matcher order."""
        if rng is None:
            raw = self._iter_det(
                index.label_tag_buckets(), index.label_buckets(), multiset._counts.get
            )
        else:
            raw = self._iter_rng(
                index.label_tag_buckets(), index.label_buckets(), rng, multiset._counts.get
            )
        produced = 0
        for consumed, binding in raw:
            yield _compiled_match(self, consumed, binding)
            produced += 1
            if limit is not None and produced >= limit:
                return

    @property
    def supports_collect(self) -> bool:
        """True when a codegenned superstep collector exists for this plan."""
        return self._collect_supported

    def vectorized(self):
        """The reaction's columnar mask program, or ``None``.

        Fifth matcher variant (see :mod:`repro.gamma.vectorized`): constant
        fields, cross-pattern equalities and the guard fused into one boolean
        mask evaluated bucket-at-a-time over a
        :class:`~repro.multiset.columnar.ColumnarStore`.  Lowered lazily on
        first call and cached; reactions outside the vectorizable fragment
        cache (and return) ``None``, which callers treat as "stay on the
        object path".  The generated mask source is published under
        ``sources["vector_mask"]`` for inspection, next to the other four
        variants.
        """
        if self._vectorized is False:
            from .vectorized import vectorized_for

            self._vectorized = vectorized_for(self)
            if self._vectorized is not None:
                self.sources["vector_mask"] = self._vectorized.source
        return self._vectorized

    def collect(
        self,
        index: LabelTagIndex,
        multiset: Multiset,
        remaining: Dict[Element, int],
        rng: Optional[random.Random] = None,
        views: Optional[Dict[int, list]] = None,
    ) -> Iterator[Match]:
        """Greedy disjoint ``(tuple, k)`` matches for one superstep.

        A thin iterator over :meth:`collect_into` with a fresh
        :class:`~repro.gamma.matching.SuperstepBatch` and no budget: each
        yielded match carries ``times = k``, the number of firings of its
        tuple the unclaimed copies still afford, all claimed at once.
        ``remaining`` and ``views`` are as there.  Raises ``TypeError`` when
        :attr:`supports_collect` is false.
        """
        batch = SuperstepBatch()
        self.collect_into(index, multiset, remaining, batch, rng, views)
        yield from batch

    def collect_into(
        self,
        index: LabelTagIndex,
        multiset: Multiset,
        remaining: Dict[Element, int],
        batch: SuperstepBatch,
        rng: Optional[random.Random] = None,
        views: Optional[Dict[int, list]] = None,
        room: Optional[int] = None,
    ) -> int:
        """Claim one superstep's greedy disjoint ``(tuple, k)`` decisions into
        ``batch``; returns the firings claimed.

        Each decision fires its tuple ``k`` times: the minimum over held
        objects of unclaimed copies // slots the object fills, clipped to
        what is left of ``room`` (the superstep's firing budget, ``None``:
        unbounded) — collection stops once ``room`` is used up.  The
        generated collector counts the claim into ``batch`` as it makes it:
        consumed copies into ``batch.removed``, the reaction's productions,
        run once over the slot values, into ``batch.added``, and one decision
        record; no :class:`Match` is built.  ``remaining`` maps elements to
        copies still unclaimed this superstep; entries are created lazily (an
        absent element still has its full multiset count) and reduced by
        every claim, so one map can be shared across all of a superstep's
        reactions.  ``views`` is the scan's per-superstep bucket-view cache
        (snapshot list + exhausted-prefix head pointer, keyed by bucket
        identity); share one dict across a superstep's reactions for
        amortized prefix skipping.  With ``rng`` each snapshot is shuffled
        once, when its view is built: the seeded order is one permutation per
        bucket per ``views`` dict, so sharing the dict is also what makes a
        seeded superstep cost O(bucket) draws.  The multiset must not be
        mutated while a batch is being collected.  Raises ``TypeError`` when
        :attr:`supports_collect` is false.
        """
        if not self._collect_supported:
            raise TypeError(
                f"reaction {self.reaction.name!r} has no superstep collector "
                f"(unknown-label match plan); use Matcher.collect"
            )
        produce = self._produce
        if produce is None:
            produce = self._bind_productions()
        # Raw counter access (same package): candidates always come from live
        # buckets, so the coercion/default handling of Multiset.count is dead
        # weight on this, the hottest loop of the parallel backend.
        mcount = multiset._counts.get
        args = (index.label_tag_buckets(), index.label_buckets())
        views = {} if views is None else views
        if rng is None:
            if self._collect_det is None:
                self._collect_det = self._bind("collect_det")
            return self._collect_det(
                *args, mcount, remaining, views, batch, produce, self.match_of, room
            )
        if self._collect_rng is None:
            self._collect_rng = self._bind("collect_rng")
        return self._collect_rng(
            *args, rng, mcount, remaining, views, batch, produce, self.match_of, room
        )

    def _bind_production(self, variant: str) -> Callable:
        """Bind one production-function variant (codegenned per production
        key): ``"produce"`` (counted) or ``"emit"`` (count-free)."""
        sites = _slot_sites(self.shape, self.plan)
        key, consts, helpers = _production_key(self.reaction, self.plan, sites)
        make, _ = _PRODUCTIONS.get(key).factory(
            variant, lambda: _production_source(key, counted=variant == "produce")
        )
        produce = make(consts, helpers)
        produce.__qualname__ = f"{self.reaction.name}.{variant}"
        self._sites = tuple(sites[name] for name in self.plan.slots)
        return produce

    def _bind_productions(self) -> Callable:
        """Bind the collectors' counted production function."""
        self._produce = self._bind_production("produce")
        return self._produce

    def _bind_emit(self) -> Callable:
        """Bind the single-firing path's count-free production function."""
        self._emit = self._bind_production("emit")
        return self._emit

    def _slot_values(self, consumed: Sequence[Element]) -> List[Any]:
        """The slot values the compiled matcher binds from ``consumed``
        (declaration order), in slot order."""
        if self._sites is None:
            self._bind_productions()
        return [getattr(consumed[p], attr) for p, attr in self._sites]

    def match_of(self, consumed: Tuple[Element, ...], times: int) -> Match:
        """The :class:`CompiledMatch` of one collected decision."""
        binding = dict(zip(self.plan.slots, self._slot_values(consumed)))
        return CompiledMatch(
            reaction=self.reaction, consumed=consumed, binding=binding, times=times, compiled=self
        )

    def produced_for(self, consumed: Tuple[Element, ...]) -> Tuple[Element, ...]:
        """One firing's productions for the decision ``consumed``, through the
        production function the generated collectors call — for collectors
        written in Python (:func:`repro.gamma.vectorized.columnar_collect`)."""
        produce = self._produce
        if produce is None:
            produce = self._bind_productions()
        return produce({}, 1, *self._slot_values(consumed), *consumed)

    # -- firing ----------------------------------------------------------------
    def apply(self, binding: Binding) -> List[Element]:
        """Compiled reaction action: productions of the first enabled branch.

        The guard is not re-evaluated — matches handed out by the compiled
        matcher already passed it, and guards are pure functions of the
        binding.  An all-branches-disabled binding raises the same
        ``ValueError`` as :meth:`Reaction.apply`.
        """
        for condition, produce_fns in self._branch_table():
            if condition is None or condition(binding):
                return [fn(binding) for fn in produce_fns]
        raise ValueError(
            f"reaction {self.reaction.name!r} is not enabled under binding {binding!r}"
        )

    def _branch_table(self) -> Tuple[Tuple[Optional[Callable], Tuple[Callable, ...]], ...]:
        """``(condition, template closures)`` per branch, built on first use."""
        if self._branches is None:
            self._branches = tuple(
                (
                    None if branch.condition is None else _compile_env_expr(branch.condition),
                    tuple(_compile_template(tmpl) for tmpl in branch.productions),
                )
                for branch in self.reaction.branches
            )
        return self._branches

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CompiledReaction({self.reaction.name!r}, order={self.plan.order}, "
            f"slots={self.plan.slots})"
        )


def compile_reaction(reaction: Reaction) -> CompiledReaction:
    """Compile ``reaction``; raises :class:`CompilationError` on failure.

    Failure is always recoverable — callers (the :class:`Matcher`) fall back
    to the interpreted search, so an exotic reaction degrades in speed, never
    in semantics.
    """
    try:
        return CompiledReaction(reaction)
    except Exception as exc:
        raise CompilationError(f"cannot compile reaction {reaction.name!r}: {exc}") from exc
