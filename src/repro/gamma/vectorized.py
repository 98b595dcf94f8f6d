"""Vectorized execution over columnar storage: the fifth matcher variant.

:mod:`repro.gamma.compiled` generates four matcher variants per reaction
(find/iterate x deterministic/seeded).  This module adds the **fifth**: a
*mask program* that evaluates a reaction's constant fields, cross-pattern
equalities and guard as one boolean sweep over a whole
:class:`~repro.multiset.columnar.ColumnarBucket` — ``numpy`` elementwise
kernels over the bucket's int64 columns when numpy is available, a codegenned
scalar closure otherwise.  Three consumers sit on top of it:

* :func:`vectorized_for` / :meth:`CompiledReaction.vectorized` — lower a
  compiled reaction to a :class:`VectorizedReaction` (or ``None`` when the
  reaction is outside the vectorizable fragment; callers then stay on the
  object path, a per-reaction fallback that never changes semantics).
* :class:`ColumnarKernel` — a whole-drain sequential engine core.  It mirrors
  the multiset into a detached :class:`ColumnarStore`, replays the
  sequential engine's first-match/fire loop entirely against the columns
  (guard probes become chunked mask sweeps with memoized candidate queues;
  extremum/sum fold *candidates* come from single vector compares per sweep),
  and writes the exact object state back with
  :meth:`~repro.multiset.columnar.ColumnarStore.sync_into` when it finishes
  or bails.  Traces are **bit-identical** to the object engine: the kernel
  enumerates candidates in the same stable slot order the compiled find
  matcher scans buckets in, and the store replicates ``Counter`` key
  insertion/tombstone order exactly.
* :func:`columnar_collect` — a columnar superstep collector with the same
  claim-accounting contract as
  :meth:`~repro.gamma.compiled.CompiledReaction.collect`, yielding the same
  matches in the same order, used by the parallel backend when
  ``columnar=True``.

Vectorizable fragment (everything else falls back per reaction):

* arity 1 or 2, identity match plan, no variable labels, no conditional
  ``by`` branches (the first branch must be unconditional);
* pattern fields are variables or int/bool constants;
* the guard uses ``+ - * % min max`` arithmetic, comparisons and boolean
  connectives over bound variables and int constants — no ``/`` (trunc-div
  diverges from floor semantics on arrays) and no value whose static bound
  can overflow int64;
* ``%`` guards carry a *hazard* pre-check: any reachable zero divisor makes
  the kernel bail to the object path, which then raises (or not) exactly as
  the compiled guard would.

The kernel additionally bails whenever a firing produces an element that
demotes a tracked bucket from vectorizable (non-int payloads, out-of-bound
magnitudes), so heterogeneous solutions degrade in speed, never in meaning.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..multiset.columnar import (
    VECTOR_INT_BOUND,
    ColumnarBucket,
    ColumnarStore,
    numpy_or_none,
)
from ..multiset.element import Element
from ..multiset.multiset import Multiset
from .codecache import CodeCache
from .expr import BinOp, BoolOp, Compare, Const, Expr, Not, Var
from .reaction import Reaction

__all__ = [
    "VectorizedReaction",
    "vectorized_for",
    "ColumnarKernel",
    "columnar_collect",
    "SWEEP_CHUNK",
]

#: Slots swept per lazy mask-evaluation chunk of the sequential kernel.
SWEEP_CHUNK = 4096

#: Static magnitude bound above which mask arithmetic could leave int64.
_OVERFLOW_BOUND = 2**62

_REFS = ("v0", "t0", "v1", "t1")


class _Unsupported(Exception):
    """Internal: the expression/reaction is outside the vectorizable fragment."""


class _Bail(Exception):
    """Internal: the kernel must hand this drain back to the object path."""


# ---------------------------------------------------------------------------
# Guard lowering: Expr -> (numpy mask source, scalar source)
# ---------------------------------------------------------------------------

class _Lowered:
    """One lowered subexpression: twin sources plus static metadata."""

    __slots__ = ("vec", "sca", "kind", "maxabs", "vars")

    def __init__(self, vec: str, sca: str, kind: str, maxabs: int, vars_: frozenset):
        self.vec = vec
        self.sca = sca
        self.kind = kind  # "int" | "bool"
        self.maxabs = maxabs
        self.vars = vars_


def _lift(value: int, kind: str, consts: List[int]) -> _Lowered:
    """Lift ``value`` to the next ``C`` position (literals stay out of the
    source, so isomorphic masks share one code object)."""
    consts.append(value)
    src = f"C[{len(consts) - 1}]"
    return _Lowered(src, src, kind, abs(value), frozenset())


def _fold_const(expr: Expr, consts: List[int]) -> _Lowered:
    """Lower a variable-free subexpression by evaluating it once."""
    try:
        value = expr.evaluate({})
    except Exception as exc:  # evaluation faults stay on the object path
        raise _Unsupported("constant subexpression faults") from exc
    if isinstance(value, bool):
        return _lift(value, "bool", consts)
    if isinstance(value, int):
        if abs(value) > _OVERFLOW_BOUND:
            raise _Unsupported("constant exceeds the int64 mask bound")
        return _lift(value, "int", consts)
    raise _Unsupported(f"non-int constant {value!r}")


def _lower(
    expr: Expr,
    refs: Dict[str, str],
    hazards: List[Tuple[str, str, frozenset]],
    consts: List[int],
) -> _Lowered:
    """Lower ``expr`` to twin (vector, scalar) sources over ``v0,t0,v1,t1``.

    ``refs`` maps reaction variables to the four positional refs; constants
    are lifted into ``consts`` (the mask's ``C`` tuple); ``%`` with a
    non-constant divisor appends a ``(vec, sca, vars)`` hazard term (divisor
    may be zero) to ``hazards``.  Raises :class:`_Unsupported` outside the
    fragment.
    """
    if not expr.variables():
        return _fold_const(expr, consts)
    if isinstance(expr, Var):
        ref = refs[expr.name]
        return _Lowered(ref, ref, "int", VECTOR_INT_BOUND, frozenset((ref,)))
    if isinstance(expr, Const):  # pragma: no cover - consts have no variables
        return _fold_const(expr, consts)
    if isinstance(expr, BinOp):
        if expr.op == "/":
            raise _Unsupported("division guards stay on the object path")
        left = _lower(expr.left, refs, hazards, consts)
        right = _lower(expr.right, refs, hazards, consts)
        if left.kind != "int" or right.kind != "int":
            raise _Unsupported("arithmetic over boolean subexpressions")
        vars_ = left.vars | right.vars
        if expr.op in ("+", "-"):
            maxabs = left.maxabs + right.maxabs
            vec = sca = f"(({left.vec}) {expr.op} ({right.vec}))"
            sca = f"(({left.sca}) {expr.op} ({right.sca}))"
        elif expr.op == "*":
            maxabs = left.maxabs * right.maxabs
            vec = f"(({left.vec}) * ({right.vec}))"
            sca = f"(({left.sca}) * ({right.sca}))"
        elif expr.op == "%":
            if isinstance(expr.right, Const) and expr.right.value == 0:
                raise _Unsupported("guard always divides by zero")
            if not isinstance(expr.right, Const):
                hazards.append((f"(({right.vec}) == 0)", f"(({right.sca}) == 0)", right.vars))
            maxabs = right.maxabs
            vec = f"(({left.vec}) % ({right.vec}))"
            sca = f"(({left.sca}) % ({right.sca}))"
        elif expr.op in ("min", "max"):
            maxabs = max(left.maxabs, right.maxabs)
            helper = "_minimum" if expr.op == "min" else "_maximum"
            vec = f"{helper}(({left.vec}), ({right.vec}))"
            sca = f"{expr.op}(({left.sca}), ({right.sca}))"
        else:  # pragma: no cover - grammar closed by expr.py
            raise _Unsupported(f"operator {expr.op!r}")
        if maxabs > _OVERFLOW_BOUND:
            raise _Unsupported("static bound exceeds int64")
        return _Lowered(vec, sca, "int", maxabs, vars_)
    if isinstance(expr, Compare):
        left = _lower(expr.left, refs, hazards, consts)
        right = _lower(expr.right, refs, hazards, consts)
        if left.kind != "int" or right.kind != "int":
            raise _Unsupported("comparison over boolean subexpressions")
        vec = f"(({left.vec}) {expr.op} ({right.vec}))"
        sca = f"(({left.sca}) {expr.op} ({right.sca}))"
        return _Lowered(vec, sca, "bool", 1, left.vars | right.vars)
    if isinstance(expr, BoolOp):
        left = _lower(expr.left, refs, hazards, consts)
        right = _lower(expr.right, refs, hazards, consts)
        if left.kind != "bool" or right.kind != "bool":
            raise _Unsupported("boolean connective over non-boolean operands")
        vop = "&" if expr.op == "and" else "|"
        vec = f"(({left.vec}) {vop} ({right.vec}))"
        sca = f"(({left.sca}) {expr.op} ({right.sca}))"
        return _Lowered(vec, sca, "bool", 1, left.vars | right.vars)
    if isinstance(expr, Not):
        operand = _lower(expr.operand, refs, hazards, consts)
        if operand.kind != "bool":
            raise _Unsupported("negation of a non-boolean operand")
        return _Lowered(f"(~({operand.vec}))", f"(not ({operand.sca}))", "bool", 1, operand.vars)
    raise _Unsupported(f"unsupported expression node {type(expr).__name__}")


#: Stage-1 cache of mask-function factories.  The lowering above must run per
#: reaction anyway (constant magnitudes gate eligibility), so the key is its
#: literal-free result: the ``(args, body)`` source pair.
_MASKS = CodeCache("vector-mask", {})


def _mask_fn(body: str, args: str, consts: Tuple[int, ...] = ()) -> Callable:
    """The mask/hazard/bind function ``lambda args: body`` over ``consts``.

    Generated and ``exec``'d once per distinct ``(args, body)``; each reaction
    only closes the cached factory over its own constants.
    """
    make, _ = _MASKS.get((args, body)).factory(
        "mask",
        lambda: (
            "def make(C, _minimum, _maximum):\n"
            f"    def _mask({args}):\n"
            f"        return {body}\n"
            "    return _mask\n"
        ),
    )
    np_ = numpy_or_none()
    if np_ is not None:
        return make(consts, np_.minimum, np_.maximum)
    return make(consts, min, max)


# ---------------------------------------------------------------------------
# Reaction lowering
# ---------------------------------------------------------------------------

def _pattern_refs(reaction: Reaction) -> Dict[str, str]:
    """Map each pattern variable to its first-binding positional ref."""
    refs: Dict[str, str] = {}
    for k, pat in enumerate(reaction.replace):
        for field_expr, ref in ((pat.value, f"v{k}"), (pat.tag, f"t{k}")):
            if isinstance(field_expr, Var) and field_expr.name not in refs:
                refs[field_expr.name] = ref
    return refs


def _const_int(expr: Expr) -> int:
    """The int value of a Const field (bools canonicalize to ints)."""
    value = expr.value  # type: ignore[attr-defined]
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, int) and abs(value) <= VECTOR_INT_BOUND:
        return value
    raise _Unsupported(f"non-int pattern constant {value!r}")


class VectorizedReaction:
    """A reaction lowered to columnar mask programs (the fifth variant).

    Holds the twin codegenned mask functions (numpy-elementwise and scalar
    short-circuit), the divisor-hazard pre-checks, and the compiled
    binding/production specs the columnar kernel and collector execute.
    Construction is via :func:`vectorized_for` only.
    """

    __slots__ = (
        "compiled",
        "reaction",
        "arity",
        "labels",
        "tag_consts",
        "outer_sca",
        "pair_vec",
        "pair_sca",
        "uses_outer",
        "hazard_vec",
        "hazard_terms",
        "collect_safe",
        "collide",
        "binding_spec",
        "bind",
        "productions",
        "source",
    )

    def __init__(self, compiled: "Any") -> None:
        reaction: Reaction = compiled.reaction
        plan = compiled.plan
        if compiled.wildcard or not plan.is_identity:
            raise _Unsupported("wildcard or reordered plans stay on the object path")
        if reaction.arity not in (1, 2):
            raise _Unsupported("only unary/binary reactions are vectorized")
        if reaction.branches[0].condition is not None:
            raise _Unsupported("conditional by-branches stay on the object path")
        self.compiled = compiled
        self.reaction = reaction
        self.arity = reaction.arity

        refs = _pattern_refs(reaction)
        labels: List[str] = []
        tag_consts: List[Optional[int]] = []
        constraints: List[Tuple[_Lowered, bool]] = []  # (term, outer_only)
        hazards: List[Tuple[str, str, frozenset]] = []
        lifted: List[int] = []  # the masks' shared C tuple
        bound: Dict[str, str] = {}
        for k, pat in enumerate(reaction.replace):
            if not isinstance(pat.label, Const) or not isinstance(pat.label.value, str):
                raise _Unsupported("variable/non-string labels stay on the object path")
            labels.append(pat.label.value)
            for field_expr, ref in ((pat.value, f"v{k}"), (pat.tag, f"t{k}")):
                if isinstance(field_expr, Const):
                    if ref.startswith("t") and isinstance(field_expr.value, bool):
                        # A bool tag constant can never match (tags are ints
                        # with bool excluded at construction) — but equality
                        # against the int column would claim otherwise.
                        raise _Unsupported("boolean tag constant")
                    const = _lift(_const_int(field_expr), "int", lifted)
                    term = _Lowered(
                        f"({ref} == {const.vec})", f"({ref} == {const.sca})", "bool", 1,
                        frozenset((ref,)),
                    )
                    constraints.append((term, k == 0))
                elif isinstance(field_expr, Var):
                    first = bound.get(field_expr.name)
                    if first is None:
                        bound[field_expr.name] = ref
                    else:
                        term = _Lowered(
                            f"({ref} == {first})", f"({ref} == {first})", "bool", 1,
                            frozenset((ref, first)),
                        )
                        constraints.append((term, k == 0))
                else:
                    raise _Unsupported("computed pattern fields stay on the object path")
            tag_consts.append(
                _const_int(pat.tag) if isinstance(pat.tag, Const) else None
            )
        self.labels = tuple(labels)
        self.tag_consts = tuple(tag_consts)

        guard_term: Optional[_Lowered] = None
        if reaction.guard is not None:
            guard_term = _lower(reaction.guard, refs, hazards, lifted)
            if guard_term.kind != "bool":
                raise _Unsupported("non-boolean guard")

        outer_terms = [t for t, outer_only in constraints if outer_only]
        pair_terms = [t for t, _ in constraints]
        if guard_term is not None:
            pair_terms.append(guard_term)
        if self.arity == 1 and guard_term is not None:
            outer_terms.append(guard_term)

        def conjoin(terms: List[_Lowered], vec: bool) -> Optional[str]:
            if not terms:
                return None
            glue = " & " if vec else " and "
            return glue.join(t.vec if vec else t.sca for t in terms)

        args = "v0, t0, v1, t1" if self.arity == 2 else "v0, t0"
        consts = tuple(lifted)
        outer_src = conjoin(outer_terms, vec=False)
        self.outer_sca = _mask_fn(outer_src, "v0, t0", consts) if outer_src else None
        if self.arity == 2:
            pair_vec_src = conjoin(pair_terms, vec=True)
            pair_sca_src = conjoin(pair_terms, vec=False)
            self.pair_vec = _mask_fn(pair_vec_src, args, consts) if pair_vec_src else None
            self.pair_sca = _mask_fn(pair_sca_src, args, consts) if pair_sca_src else None
            pair_vars = frozenset().union(*(t.vars for t in pair_terms)) if pair_terms else frozenset()
            self.uses_outer = bool(pair_vars & {"v0", "t0"})
        else:
            self.pair_vec = None
            self.pair_sca = None
            self.uses_outer = True

        # Divisor hazards: classified by which pattern's fields they read, so
        # the superstep collector can pre-check a whole snapshot per side.
        self.hazard_terms: List[Tuple[str, Callable]] = []
        collect_safe = True
        for vec_src, _sca_src, vars_ in hazards:
            outer_vars = vars_ & {"v0", "t0"}
            inner_vars = vars_ & {"v1", "t1"}
            if outer_vars and inner_vars:
                side = "mixed"
                collect_safe = False
            elif inner_vars:
                side = "inner"
            else:
                side = "outer"
            self.hazard_terms.append((side, _mask_fn(vec_src, args, consts)))
        if hazards:
            any_src = " | ".join(vec for vec, _, _ in hazards)
            self.hazard_vec = _mask_fn(f"({any_src})", args, consts)
        else:
            self.hazard_vec = None
        self.collect_safe = collect_safe
        self.collide = self.arity == 2 and labels[0] == labels[1]

        # Binding extraction: plan slot order, first-encounter field —
        # codegenned to one dict display so firing pays no getattr loop.
        spec: List[Tuple[str, int, str]] = []
        sites: Dict[str, Tuple[int, str]] = {}
        for k, pat in enumerate(reaction.replace):
            for field_expr, attr in ((pat.value, "value"), (pat.label, "label"), (pat.tag, "tag")):
                if isinstance(field_expr, Var) and field_expr.name not in sites:
                    sites[field_expr.name] = (k, attr)
        for name in plan.slots:
            k, attr = sites[name]
            spec.append((name, k, attr))
        self.binding_spec = tuple(spec)
        items = ", ".join(f"{name!r}: es[{k}].{attr}" for name, k, attr in spec)
        self.bind = _mask_fn(f"{{{items}}}", "es")

        # Productions of the (unconditional) first branch: constant-shaped
        # templates are *interned* against the store's live slots so repeated
        # firings reuse the existing element objects; everything else runs
        # the compiled template closure.
        from .compiled import _compile_env_expr  # local import: avoid cycle at module load

        prods: List[Tuple] = []
        for i, tmpl in enumerate(reaction.branches[0].productions):
            if (
                isinstance(tmpl.label, Const)
                and isinstance(tmpl.label.value, str)
                and isinstance(tmpl.tag, Const)
                and isinstance(tmpl.tag.value, int)
                and not isinstance(tmpl.tag.value, bool)
            ):
                prods.append(
                    ("intern", tmpl.label.value, tmpl.tag.value, _compile_env_expr(tmpl.value))
                )
            else:
                prods.append(("call", compiled._branches[0][1][i]))
        self.productions = tuple(prods)

        parts = []
        if self.arity == 2:
            parts.append(f"# vector mask ({args})\n{pair_vec_src or 'True'}")
            parts.append(f"# scalar mask ({args})\n{pair_sca_src or 'True'}")
        if outer_src:
            parts.append(f"# outer mask (v0, t0)\n{outer_src}")
        if hazards:
            parts.append("# hazard (any divisor zero)\n" + " | ".join(v for v, _, _ in hazards))
        self.source = "\n".join(parts) or "# unconditional mask\nTrue"

    # -- firing -----------------------------------------------------------------
    def binding_for(self, elements: Tuple[Element, ...]) -> Dict[str, Any]:
        """The match binding dict, in the compiled matcher's slot key order."""
        return self.bind(elements)


def vectorized_for(compiled: "Any") -> Optional[VectorizedReaction]:
    """Lower ``compiled`` to its mask program, or ``None`` outside the fragment.

    Prefer :meth:`~repro.gamma.compiled.CompiledReaction.vectorized`, which
    caches the result (and the generated mask source) on the reaction.
    """
    try:
        return VectorizedReaction(compiled)
    except _Unsupported:
        return None


# ---------------------------------------------------------------------------
# Sequential whole-drain kernel
# ---------------------------------------------------------------------------

class _InnerQueue:
    """Memoized inner-candidate queue for one (reaction, outer-key) pair.

    The pair mask depends on the outer only through ``(v0, t0)``, so one
    queue serves *every* outer slot carrying that key — outer values repeat
    heavily in the paper workloads, which is what amortizes the sweeps.
    ``q`` holds mask-true slot indexes of the lazily chunk-swept prefix
    ``[0, sweep_pos)`` of the inner bucket (``sweep_pos`` is pushed to the
    bucket's current length each time the queue is used, so later appends
    are swept in exactly once).  ``fh`` is a monotone dead-prefix head:
    entries are only ever *passed* permanently when their slot dies — a
    global property, which keeps the front of the queue equal to the first
    live candidate the object matcher's scan-from-head would find, for any
    outer.
    """

    __slots__ = ("q", "fh", "sweep_pos", "v0", "t0")

    def __init__(self, sweep_start: int, v0: int, t0: int) -> None:
        self.q: List[int] = []
        self.fh = 0
        self.sweep_pos = sweep_start
        self.v0 = v0
        self.t0 = t0


class _ReactionState:
    """Persistent per-reaction probe state of the sequential kernel."""

    __slots__ = (
        "vec",
        "b0",
        "b1",
        "selfable",
        "cur",
        "outer_cursor",
        "queue",
        "queues",
        "failed",
        "appends_seen",
        "merges_seen",
        "self_blocked",
        "last_slots",
        "producers",
    )

    def __init__(self, vec: VectorizedReaction, store: ColumnarStore) -> None:
        self.vec = vec
        self.b0 = store.bucket_for(vec.labels[0])
        self.b1 = store.bucket_for(vec.labels[1]) if vec.arity == 2 else None
        self.selfable = self.b1 is self.b0
        self.cur = -1
        self.outer_cursor = 0
        self.queue: Optional[_InnerQueue] = None
        # Queues memoized by outer key; outer-independent masks collapse to
        # the single key ``None``.
        self.queues: Dict[Any, _InnerQueue] = {}
        self.failed: Dict[int, bool] = {}  # outer slot -> blocked-on-self-count
        self.appends_seen = len(self.b1.elements) if self.b1 is not None else 0
        self.merges_seen = len(self.b0.merge_log) if self.selfable else 0
        self.self_blocked = False
        #: Slots of the last probe's consumed tuple (kernel removes by slot).
        self.last_slots: Tuple[int, ...] = ()
        # Productions with their target buckets pre-bound (bucket objects are
        # stable for a store's lifetime, so the per-firing label lookup of
        # the generic path is dead weight here).
        self.producers: Tuple = tuple(
            ("intern", store.bucket_for(entry[1]), entry[1], entry[2], entry[3])
            if entry[0] == "intern"
            else entry
            for entry in vec.productions
        )

    # -- event ingestion ---------------------------------------------------------
    def _pair_ok(self, v0: int, t0: int, v1: Any, t1: int) -> bool:
        vec = self.vec
        if vec.pair_sca is None:
            return True
        try:
            return bool(vec.pair_sca(v0, t0, v1, t1))
        except ZeroDivisionError as exc:
            raise _Bail("divisor hazard") from exc

    def _revive_for_append(self, vj: int, tj: int) -> List[int]:
        """Failed outer slots for which a newly appended inner is a partner."""
        b0 = self.b0
        failed = self.failed
        vec = self.vec
        np_ = numpy_or_none()
        revived: List[int] = []
        if np_ is not None and len(failed) >= 32 and vec.pair_vec is not None:
            slots = np_.fromiter(failed.keys(), dtype=np_.int64, count=len(failed))
            values, tags, counts = b0.values_view()
            if vec.hazard_vec is not None and bool(
                vec.hazard_vec(values[slots], tags[slots], vj, tj).any()
            ):
                raise _Bail("divisor hazard")
            mask = vec.pair_vec(values[slots], tags[slots], vj, tj) & (counts[slots] > 0)
            for f in slots[mask].tolist():
                revived.append(f)
                del failed[f]
            return revived
        for f in list(failed):
            if b0.counts[f] <= 0:
                del failed[f]
            elif self._pair_ok(b0.values[f], b0.tags[f], vj, tj):
                revived.append(f)
                del failed[f]
        return revived

    def _process_events(self) -> None:
        """Catch up on inner-bucket appends and self-count merges.

        Appends may create matches for *failed* outers (revival); merges can
        only revive outers that failed while blocked on their own
        multiplicity (a self-pair needs two copies).  Any revival rewinds
        the outer cursor to the earliest revived slot — the object matcher
        would find that outer first.  (Appends reach the candidate queues
        lazily, through each queue's sweep watermark, not here.)
        """
        revived: List[int] = []
        b1 = self.b1
        if b1 is not None:
            end = len(b1.elements)
            if end > self.appends_seen:
                values = b1.values
                tags = b1.tags
                counts = b1.counts
                for j in range(self.appends_seen, end):
                    if counts[j] <= 0 or not self.failed:
                        continue
                    revived.extend(self._revive_for_append(values[j], tags[j]))
                self.appends_seen = end
        if self.selfable:
            log = self.b0.merge_log
            end = len(log)
            if end > self.merges_seen:
                counts = self.b0.counts
                for idx in range(self.merges_seen, end):
                    slot = log[idx]
                    if self.failed.get(slot) is True and counts[slot] >= 2:
                        revived.append(slot)
                        del self.failed[slot]
                self.merges_seen = end
        if revived:
            self.outer_cursor = min(self.outer_cursor, min(revived))
            self.cur = -1
            self.queue = None

    # -- outer scan ---------------------------------------------------------------
    def _next_outer(self) -> int:
        """Advance to the next viable outer slot (-1 when the scan is dry)."""
        b0 = self.b0
        counts = b0.counts
        values = b0.values
        tags = b0.tags
        failed = self.failed
        vec = self.vec
        outer_sca = vec.outer_sca
        end = len(b0.elements)
        slot = self.outer_cursor
        while slot < end:
            if counts[slot] > 0 and slot not in failed:
                if outer_sca is None:
                    break
                try:
                    ok = outer_sca(values[slot], tags[slot])
                except ZeroDivisionError as exc:
                    raise _Bail("divisor hazard") from exc
                if ok:
                    break
                if vec.arity == 1:
                    failed[slot] = False  # unary guards are immutable per slot
            slot += 1
        if slot >= end:
            self.outer_cursor = slot
            return -1
        self.cur = slot
        self.outer_cursor = slot + 1
        if vec.arity == 2:
            key = (values[slot], tags[slot]) if vec.uses_outer else None
            queue = self.queues.get(key)
            if queue is None:
                queue = self.queues[key] = _InnerQueue(
                    self.b1.live_head, values[slot], tags[slot]
                )
            self.queue = queue
        return slot

    # -- inner sweep --------------------------------------------------------------
    def _sweep_some(self, queue: _InnerQueue, sweep_end: int) -> bool:
        """Mask-evaluate chunks of the inner bucket until a hit lands in ``q``.

        One numpy elementwise compare per chunk covers guard, constant fields
        and liveness at once; without numpy the same codegenned predicate
        runs as a scalar short-circuit loop.  Returns False when the sweep
        region ``[queue.sweep_pos, sweep_end)`` is exhausted without a hit.
        """
        b1 = self.b1
        vec = self.vec
        np_ = numpy_or_none()
        grew = False
        while queue.sweep_pos < sweep_end and not grew:
            lo = queue.sweep_pos
            hi = min(lo + SWEEP_CHUNK, sweep_end)
            queue.sweep_pos = hi
            if np_ is not None:
                views = b1.values_view()
                vs, ts, cs = views[0][lo:hi], views[1][lo:hi], views[2][lo:hi]
                if vec.hazard_vec is not None:
                    if bool(vec.hazard_vec(queue.v0, queue.t0, vs, ts).any()):
                        raise _Bail("divisor hazard in sweep")
                if vec.pair_vec is None:
                    mask = cs > 0
                else:
                    mask = vec.pair_vec(queue.v0, queue.t0, vs, ts) & (cs > 0)
                hits = mask.nonzero()[0]
                if hits.size:
                    queue.q.extend((hits + lo).tolist())
                    grew = True
            else:
                counts = b1.counts
                values = b1.values
                tags = b1.tags
                for s in range(lo, hi):
                    if counts[s] > 0 and self._pair_ok(
                        queue.v0, queue.t0, values[s], tags[s]
                    ):
                        queue.q.append(s)
                        grew = True
        return grew

    def _scan_inner(self) -> int:
        """First live inner partner for the current outer; -1 when exhausted.

        Walks the queue's memoized candidates from its dead-prefix head,
        retiring entries permanently only when their slot died (sound for
        every outer sharing the queue); a live candidate that is the outer
        itself without a second copy is skipped non-destructively.  When the
        memoized list runs dry, more of the bucket — including slots
        appended since the last use — is mask-swept in.
        """
        queue = self.queue
        b1 = self.b1
        counts = b1.counts
        cur = self.cur if self.selfable else -1
        self.self_blocked = False
        entries = queue.q
        k = queue.fh
        while True:
            while k < len(entries):
                s = entries[k]
                if counts[s] <= 0:
                    if k == queue.fh:
                        queue.fh = k + 1
                    k += 1
                    continue
                if s == cur:
                    if counts[s] >= 2:
                        return s
                    self.self_blocked = True
                    k += 1
                    continue
                return s
            if queue.sweep_pos < len(b1.elements):
                if not self._sweep_some(queue, len(b1.elements)):
                    return -1
                continue
            return -1

    # -- probe --------------------------------------------------------------------
    def probe(self) -> Optional[Tuple[Element, ...]]:
        """The reaction's first match against the store, or ``None``.

        Equivalent by construction to the compiled find matcher's result on
        the mirrored multiset: same first outer (bucket slot order, skipping
        proven-dead outers), same first inner (candidate queues enumerate
        mask-true slots in slot order and only retire them on death).
        """
        self._process_events()
        b0 = self.b0
        while True:
            if self.cur < 0 and self._next_outer() < 0:
                return None
            cur = self.cur
            if b0.counts[cur] <= 0:
                self.cur = -1
                self.queue = None
                continue
            if self.vec.arity == 1:
                self.last_slots = (cur,)
                return (b0.elements[cur],)
            partner = self._scan_inner()
            if partner >= 0:
                self.last_slots = (cur, partner)
                return (b0.elements[cur], self.b1.elements[partner])
            self.failed[cur] = self.self_blocked
            self.cur = -1
            self.queue = None


class ColumnarKernel:
    """Whole-drain columnar core for the sequential engine.

    Built against a live :class:`~repro.gamma.scheduler.ReactionScheduler`
    (deterministic, compiled); mirrors the multiset into a
    detached :class:`ColumnarStore`, runs the first-match/fire loop against
    the columns, and on every exit path — stable, budget, bail, or a raising
    production — writes the exact object state back and re-arms the
    scheduler, so the object engine can always pick up mid-run.
    """

    def __init__(self, scheduler: "Any", store: ColumnarStore, states: List[_ReactionState]) -> None:
        self.scheduler = scheduler
        self.store = store
        self.states = states
        self._tracked = {id(state.b0) for state in states} | {
            id(state.b1) for state in states if state.b1 is not None
        }

    @classmethod
    def build(cls, scheduler: "Any") -> Optional["ColumnarKernel"]:
        """A kernel for ``scheduler``'s run, or ``None`` outside the fragment.

        Requires a deterministic (unseeded) scheduler carrying
        an attached columnar store (``columnar=True``); every reaction must
        lower to a mask program and every footprint bucket must be
        int-shaped.  The kernel drives the scheduler's own attached store —
        mutating it directly while the drain runs, then writing the multiset
        back — so the mirror stays coherent for any object-path work that
        follows a bail.  Ineligibility is never an error: the caller simply
        stays on the object drain.
        """
        store = scheduler.columnar_store
        if store is None or scheduler.rng is not None:
            return None
        vecs: List[VectorizedReaction] = []
        for compiled in scheduler._compiled:
            if compiled is None:
                return None
            vec = compiled.vectorized()
            if vec is None:
                return None
            vecs.append(vec)
        if not vecs:
            return None
        for vec in vecs:
            for label in vec.labels:
                if not store.bucket_for(label).vectorizable:
                    return None
        states = [_ReactionState(vec, store) for vec in vecs]
        return cls(scheduler, store, states)

    # -- drain --------------------------------------------------------------------
    def drain(
        self,
        trace: "Any",
        max_steps: int,
        profiler: Optional["Any"] = None,
    ) -> Tuple[int, int, str]:
        """Fire first matches until stable, budget, or a bail condition.

        Returns ``(steps, firings, outcome)`` with ``outcome`` one of
        ``"stable"``, ``"budget"`` (budget handling — raising or returning a
        partial result — is the engine's job, so messages stay uniform) or
        ``"bail"`` (the object path must finish this drain: a divisor
        hazard, or a produced element demoted a tracked bucket).  The trace
        records written here are bit-identical to the object engine's; the
        multiset is resynchronized on every exit, including raising
        production evaluation.
        """
        steps = 0
        firings = 0
        outcome = "stable"
        store = self.store
        states = self.states
        tracked = self._tracked
        begin_step = trace.begin_step
        record = trace.record
        timer = None
        if profiler is not None:
            from time import perf_counter as timer  # noqa: F811
        try:
            while True:
                if steps >= max_steps:
                    outcome = "budget"
                    break
                t0 = timer() if timer else 0.0
                found = None
                vec = None
                for state in states:
                    consumed = state.probe()
                    if consumed is not None:
                        found = consumed
                        vec = state.vec
                        break
                if timer:
                    profiler.add("guard", timer() - t0)
                if found is None:
                    break
                t0 = timer() if timer else 0.0
                # The step opens *before* the productions run — the object
                # drain calls ``begin_step`` first too, so a raising
                # production leaves the same empty step behind on both paths.
                step = begin_step()
                binding = vec.bind(found)
                produced = []
                for entry in state.producers:
                    if entry[0] == "intern":
                        _, bucket, label, tag, value_fn = entry
                        value = value_fn(binding)
                        try:
                            slot = bucket.slot_of.get((value, tag))
                        except TypeError:
                            slot = None  # unhashable: Element() raises canonically
                        if slot is not None:
                            produced.append(bucket.elements[slot])
                        else:
                            produced.append(Element(value=value, label=label, tag=tag))
                    else:
                        produced.append(entry[1](binding))
                slots = state.last_slots
                store.remove_slot(state.b0, slots[0])
                if len(slots) == 2:
                    store.remove_slot(state.b1, slots[1])
                demoted = False
                for element in produced:
                    bucket, _slot, appended = store.add(element)
                    if appended and not bucket.vectorizable and id(bucket) in tracked:
                        demoted = True
                record(step, vec.reaction.name, found, produced, binding)
                firings += 1
                steps += 1
                if timer:
                    profiler.add("fire", timer() - t0)
                if demoted:
                    outcome = "bail"
                    break
        except _Bail:
            outcome = "bail"
        finally:
            t0 = timer() if timer else 0.0
            self._resync()
            if timer:
                profiler.add("notify", timer() - t0)
        return steps, firings, outcome

    def _resync(self) -> None:
        """Write the store back into the multiset and re-arm the scheduler."""
        scheduler = self.scheduler
        self.store.sync_into(scheduler.multiset)
        scheduler.index.rebuild(scheduler.multiset)
        scheduler._parked.clear()
        scheduler._dirty.clear()


# ---------------------------------------------------------------------------
# Columnar superstep collection (parallel backend)
# ---------------------------------------------------------------------------

class _Snapshot:
    """One superstep's frozen view of a (label, tag-filter) bucket slice."""

    __slots__ = ("elements", "values", "tags", "head")

    def __init__(self, elements: List[Element], values: Any, tags: Any) -> None:
        self.elements = elements
        self.values = values
        self.tags = tags
        self.head = 0


def _snapshot(store: ColumnarStore, label: str, tag: Optional[int], cache: Dict) -> _Snapshot:
    """The cached live-slot snapshot for one pattern's bucket slice."""
    key = ("snap", label, tag)
    snap = cache.get(key)
    if snap is not None:
        return snap
    bucket = store.buckets.get(label)
    np_ = numpy_or_none()
    if bucket is None or not bucket.elements:
        empty = np_.empty(0, dtype=np_.int64) if np_ is not None else []
        snap = _Snapshot([], empty, empty)
    elif np_ is not None:
        values, tags, counts = bucket.values_view()
        mask = counts > 0
        if tag is not None:
            mask = mask & (tags == tag)
        idx = mask.nonzero()[0]
        elements = [bucket.elements[i] for i in idx.tolist()]
        snap = _Snapshot(elements, values[idx], tags[idx])
    else:
        counts = bucket.counts
        tags_col = bucket.tags
        keep = [
            i
            for i in range(len(bucket.elements))
            if counts[i] > 0 and (tag is None or tags_col[i] == tag)
        ]
        snap = _Snapshot(
            [bucket.elements[i] for i in keep],
            [bucket.values[i] for i in keep],
            [tags_col[i] for i in keep],
        )
    cache[key] = snap
    return snap


def _hazard_clear(vec: VectorizedReaction, snaps: List[_Snapshot]) -> bool:
    """True when no divisor hazard is reachable anywhere in the snapshots."""
    np_ = numpy_or_none()
    for side, fn in vec.hazard_terms:
        snap = snaps[0] if side == "outer" else snaps[-1]
        if np_ is not None:
            hz = fn(snap.values, snap.tags, snap.values, snap.tags)
            if bool(np_.asarray(hz).any()):
                return False
        else:
            for v, t in zip(snap.values, snap.tags):
                try:
                    if fn(v, t, v, t):
                        return False
                except ZeroDivisionError:
                    return False
    return True


def _candidates(vec: VectorizedReaction, snap: _Snapshot, v0: int, t0: int, cache: Dict) -> List[int]:
    """Mask-true positions of the inner snapshot for outer key ``(v0, t0)``.

    Cached per superstep: outer-independent masks share one entry, and
    repeated outer keys (equal-value elements) re-use theirs.
    """
    key = ("cand", id(vec), v0, t0) if vec.uses_outer else ("cand", id(vec))
    cands = cache.get(key)
    if cands is not None:
        return cands
    np_ = numpy_or_none()
    if vec.pair_vec is None:
        cands = list(range(len(snap.elements)))
    elif np_ is not None:
        mask = vec.pair_vec(v0, t0, snap.values, snap.tags)
        cands = np_.asarray(mask).nonzero()[0].tolist()
    else:
        cands = [
            p
            for p in range(len(snap.elements))
            if vec.pair_sca(v0, t0, snap.values[p], snap.tags[p])
        ]
    cache[key] = cands
    return cands


def columnar_collect(
    compiled: "Any",
    store: ColumnarStore,
    multiset: Multiset,
    remaining: Dict[Element, int],
    cache: Dict,
):
    """Columnar variant of :meth:`CompiledReaction.collect`, or ``None``.

    Yields the *same* ``(tuple, k)`` *matches in the same order* as the
    deterministic codegenned collector — same multiplicity rule (``times`` =
    the minimum over held objects of unclaimed copies // slots the object
    fills, claimed at once), same claim accounting against the shared
    ``remaining`` map, same exhausted-prefix head advance (kept in ``cache``
    so it persists across one superstep's reactions), same stable tie-break
    order — but enumerates guard-true partners from one cached mask sweep
    per outer key instead of re-evaluating the guard per pair.  Returns
    ``None`` when the reaction (or a divisor hazard reachable this
    superstep) requires the object path; the caller then falls back for this
    reaction only.
    """
    vec = compiled.vectorized()
    if vec is None or not vec.collect_safe:
        return None
    for label in vec.labels:
        bucket = store.buckets.get(label)
        if bucket is not None and not bucket.vectorizable:
            return None
    snaps = [
        _snapshot(store, vec.labels[k], vec.tag_consts[k], cache)
        for k in range(vec.arity)
    ]
    if vec.hazard_terms and not _hazard_clear(vec, snaps):
        return None
    return _collect_iter(compiled, vec, snaps, multiset, remaining, cache)


def _collect_iter(
    compiled: "Any",
    vec: VectorizedReaction,
    snaps: List[_Snapshot],
    multiset: Multiset,
    remaining: Dict[Element, int],
    cache: Dict,
):
    """Generator behind :func:`columnar_collect` (hazards already cleared)."""
    from .compiled import CompiledMatch

    mcount = multiset._counts.get
    snap0 = snaps[0]
    outer_sca = vec.outer_sca
    unary = vec.arity == 1
    snap1 = None if unary else snaps[-1]
    collide = vec.collide
    elems0 = snap0.elements
    j0 = snap0.head
    prefix = True
    while j0 < len(elems0):
        e0 = elems0[j0]
        r0 = remaining.get(e0)
        if r0 is not None and r0 <= 0:
            if prefix:
                snap0.head = j0 + 1
            j0 += 1
            continue
        prefix = False
        v0 = snap0.values[j0]
        t0 = snap0.tags[j0]
        if outer_sca is not None and not outer_sca(v0, t0):
            j0 += 1
            continue
        if unary:
            # One slot: every unclaimed copy of e0 fires.
            yield CompiledMatch(
                reaction=vec.reaction,
                consumed=(e0,),
                binding=vec.binding_for((e0,)),
                times=mcount(e0) if r0 is None else r0,
                compiled=compiled,
            )
            remaining[e0] = 0
            j0 += 1
            continue
        # Advance the inner exhausted-prefix head, then walk the cached
        # mask-true candidate positions from it.
        elems1 = snap1.elements
        head1 = snap1.head
        while head1 < len(elems1):
            r = remaining.get(elems1[head1])
            if r is None or r > 0:
                break
            head1 += 1
        snap1.head = head1
        cands = _candidates(vec, snap1, int(v0), int(t0), cache)
        for p in cands[bisect_left(cands, head1):]:
            e1 = elems1[p]
            n1 = 1 if (collide and e1 is e0) else 0
            r1 = remaining.get(e1)
            if r1 is None:
                if n1 and mcount(e1) <= n1:
                    continue
            elif r1 <= 0:
                continue
            elif r1 <= n1:
                continue
            # Multiplicity: fire the pair as often as both sides afford (one
            # object in both slots needs two copies per firing).
            x0 = remaining.get(e0)
            if x0 is None:
                x0 = mcount(e0)
            if n1:
                times = x0 // 2
                left0 = remaining[e0] = x0 - 2 * times
            else:
                x1 = mcount(e1) if r1 is None else r1
                times = x0 if x0 < x1 else x1
                left0 = remaining[e0] = x0 - times
                remaining[e1] = x1 - times
            yield CompiledMatch(
                reaction=vec.reaction,
                consumed=(e0, e1),
                binding=vec.binding_for((e0, e1)),
                times=times,
                compiled=compiled,
            )
            if left0 <= 0:
                break
        j0 += 1
