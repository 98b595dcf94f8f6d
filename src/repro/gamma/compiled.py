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
  built (one permutation per bucket per superstep).

Guards and productions evaluated outside the matcher (``lambda E: ...``
closures over a binding dict) and the columnar mask programs of
:mod:`repro.gamma.vectorized` go through caches of the same kind, keyed by
their own constant-lifted ASTs.

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
from .matching import Match, lazy_shuffle
from .pattern import Binding, ElementPattern, ElementTemplate
from .reaction import Reaction

__all__ = [
    "CompilationError",
    "CompileCacheInfo",
    "CompiledMatch",
    "CompiledReaction",
    "MatchPlan",
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

    def match_source(self, times: str = "") -> str:
        """The match tuple ``(consumed, binding)`` — declaration-order
        consumed elements, slot-order binding dict — with ``times`` appended
        as a third item when given (the collectors' multiplicity)."""
        arity = len(self.shape.patterns)
        consumed = ", ".join(f"e{self.plan.order.index(p)}" for p in range(arity))
        binding = ", ".join(f"{name!r}: {self.slot_ref(name)}" for name in self.plan.slots)
        suffix = "," if arity == 1 else ""
        extra = f", {times}" if times else ""
        return f"(({consumed}{suffix}), {{{binding}}}{extra})"


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
    """Emit the superstep *collector*: a greedy disjoint set of ``(tuple, k)``.

    The collector visits tuples like the iterate variant but threads a shared
    ``rem`` map (element -> copies still unclaimed this superstep, lazily
    initialized, shared across all reactions) through the candidate checks.
    A tuple ``e_0..e_{n-1}`` that passed the guard and branch conditions is
    fired *with multiplicity*: with ``a_i`` the unclaimed copies of ``e_i``
    and ``m_i`` the number of slots holding that same object, it yields
    ``(consumed, binding, k)`` for ``k = min_i(a_i // m_i)`` — every firing
    of this tuple the superstep can still afford, ``k >= 1`` by the candidate
    checks — and claims ``k`` copies per slot.  So each distinct combination
    is visited once *and* left with nothing more to give, matching cost
    scales with distinct elements rather than copies, and the set is maximal:
    no visited tuple could fire again.  After each yield the loops break back
    out to the shallowest level whose element is exhausted instead of
    rescanning consumed candidates, so one call runs in near-linear time and
    the per-firing probe restart of the sequential engines disappears — which
    is where the parallel backend's throughput comes from.

    Only generated for plans whose every position has a known label (constant
    or bound by an earlier position): each level is then exactly one bucket
    loop, which the break/continue cascade below requires.  Unknown-label
    plans fall back to the interpreted twin, :meth:`Matcher.collect
    <repro.gamma.matching.Matcher.collect>`.
    """
    writer = emitter.writer
    order = emitter.plan.order
    arity = len(order)

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
    partners = [emitter.partners(k) for k in range(arity)]
    for k in range(arity):
        writer.w(f"x{k} = rem.get(e{k})")
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
    for k in range(arity):
        claimed = f"_k * m{k}" if partners[k] else "_k"
        writer.w(f"rem[e{k}] = x{k} - {claimed}")
    writer.w(f"yield {emitter.match_source(times='_k')}")

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
                writer.w(f"{keyword} rem[e{j}] < 1 + {need}:")
            else:
                writer.w(f"{keyword} rem[e{j}] <= 0:")
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
        args += ", rem, views"
    writer.w(f"def matcher({args}):")
    writer.indent = 1
    if mode == "collect":
        _emit_collect_body(emitter, shuffled)
    else:
        _emit_matcher_body(emitter, shuffled, emit="return" if mode == "find" else "yield")
    writer.indent = 1
    if mode == "find":
        writer.w("return None")
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

def _compile_template(template: ElementTemplate) -> Callable[[Binding], Element]:
    """Compile one production template, preserving ``instantiate`` semantics.

    Templates whose label and tag are valid constants skip the per-firing
    type checks (they are discharged here, at compile time); an all-constant
    template becomes a single shared immutable element.
    """
    if isinstance(template.label, Const) and isinstance(template.tag, Const):
        label = template.label.value
        tag = template.tag.value
        if isinstance(label, str) and isinstance(tag, int) and not isinstance(tag, bool):
            if isinstance(template.value, Const):
                try:
                    element = Element(value=template.value.value, label=label, tag=tag)
                except (TypeError, ValueError):
                    pass  # invalid constant: fail at firing time, like instantiate
                else:
                    return lambda env: element
            else:
                value_of = _compile_env_expr(template.value)
                return lambda env: Element(value=value_of(env), label=label, tag=tag)

    value_fn = _compile_env_expr(template.value)
    label_fn = _compile_env_expr(template.label)
    tag_fn = _compile_env_expr(template.tag)

    def produce(env: Binding) -> Element:
        """Instantiate the template under ``env`` (validated label/tag)."""
        label = label_fn(env)
        if not isinstance(label, str):
            raise TypeError(f"produced label must be a string, got {label!r}")
        tag = tag_fn(env)
        if isinstance(tag, bool) or not isinstance(tag, int):
            raise TypeError(f"produced tag must be an int, got {tag!r}")
        return Element(value=value_fn(env), label=label, tag=tag)

    return produce


# ---------------------------------------------------------------------------
# Compiled reaction + matches
# ---------------------------------------------------------------------------

@dataclass(frozen=True, repr=False)
class CompiledMatch(Match):
    """A match found by the compiled matcher.

    Identical observable content to an interpreted :class:`Match` (same
    reaction, consumed tuple in declaration order, same binding dict, same
    ``times`` and repr); :meth:`produced` runs the compiled productions
    instead of re-walking the template ASTs.
    """

    compiled: Optional["CompiledReaction"] = None

    def produced(self) -> List[Element]:
        """The elements inserted when this match fires (compiled productions)."""
        return self.compiled.apply(self.binding)


class CompiledReaction:
    """One reaction specialized for repeated probing.

    Built by :func:`compile_reaction`; probed through :meth:`find` /
    :meth:`iter_matches` against an attached
    :class:`~repro.multiset.index.LabelTagIndex`.
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
        # Fifth matcher variant (columnar mask program), built lazily like the
        # collectors: only columnar runs pay the lowering.  ``False`` is the
        # not-yet-attempted sentinel (``None`` means "tried, not lowerable").
        self._vectorized: Any = False
        self._branches: Tuple[Tuple[Optional[Callable], Tuple[Callable, ...]], ...] = tuple(
            (
                None if branch.condition is None else _compile_env_expr(branch.condition),
                tuple(_compile_template(tmpl) for tmpl in branch.productions),
            )
            for branch in reaction.branches
        )

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
        consumed, binding = got
        return CompiledMatch(
            reaction=self.reaction, consumed=consumed, binding=binding, compiled=self
        )

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
            yield CompiledMatch(
                reaction=self.reaction, consumed=consumed, binding=binding, compiled=self
            )
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

        Each yielded match carries ``times = k``: the number of firings of
        its tuple the unclaimed copies still afford (the minimum over held
        objects of unclaimed copies // slots the object fills), all claimed
        at once.  ``remaining`` maps elements to copies still unclaimed this
        superstep; entries are created lazily (an absent element still has
        its full multiset count) and reduced by every claim, so one map can
        be shared across all of a superstep's reactions.  ``views`` is the
        scan's per-superstep bucket-view cache (snapshot list + exhausted-
        prefix head pointer, keyed by bucket identity); share one dict across
        a superstep's reactions for amortized prefix skipping.  With ``rng``
        each snapshot is shuffled once, when its view is built: the seeded
        order is one permutation per bucket per ``views`` dict, so sharing
        the dict is also what makes a seeded superstep cost O(bucket) draws.
        The multiset must not be mutated while the iterator is live — callers
        collect the whole batch first and fire afterwards.  Raises
        ``TypeError`` when :attr:`supports_collect` is false.
        """
        if not self._collect_supported:
            raise TypeError(
                f"reaction {self.reaction.name!r} has no superstep collector "
                f"(unknown-label match plan); use Matcher.collect"
            )
        # Raw counter access (same package): candidates always come from live
        # buckets, so the coercion/default handling of Multiset.count is dead
        # weight on this, the hottest loop of the parallel backend.
        mcount = multiset._counts.get
        args = (index.label_tag_buckets(), index.label_buckets())
        views = {} if views is None else views
        if rng is None:
            if self._collect_det is None:
                self._collect_det = self._bind("collect_det")
            raw = self._collect_det(*args, mcount, remaining, views)
        else:
            if self._collect_rng is None:
                self._collect_rng = self._bind("collect_rng")
            raw = self._collect_rng(*args, rng, mcount, remaining, views)
        for consumed, binding, times in raw:
            yield CompiledMatch(
                reaction=self.reaction,
                consumed=consumed,
                binding=binding,
                times=times,
                compiled=self,
            )

    # -- firing ----------------------------------------------------------------
    def apply(self, binding: Binding) -> List[Element]:
        """Compiled reaction action: productions of the first enabled branch.

        The guard is not re-evaluated — matches handed out by the compiled
        matcher already passed it, and guards are pure functions of the
        binding.  An all-branches-disabled binding raises the same
        ``ValueError`` as :meth:`Reaction.apply`.
        """
        for condition, produce_fns in self._branches:
            if condition is None or condition(binding):
                return [fn(binding) for fn in produce_fns]
        raise ValueError(
            f"reaction {self.reaction.name!r} is not enabled under binding {binding!r}"
        )

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
