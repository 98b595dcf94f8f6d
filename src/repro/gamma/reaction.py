"""Reactions: the (condition, action) pairs of the Gamma model.

A reaction corresponds to one ``(R_i, A_i)`` pair of Eq. 1 in the paper.  We
represent it with:

* a *replace list* of :class:`~repro.gamma.pattern.ElementPattern` — the
  elements consumed and the variables they bind;
* an optional *guard* expression — the ``where`` clause of Eq. 2 (e.g.
  ``x < y`` for the minimum-element reaction) and the single-branch ``if``
  clauses of reactions R11–R13 (the label-discrimination idiom);
* an ordered list of :class:`Branch` values — the ``by ... if ... by ... else``
  alternatives of the paper's steer translations (R14–R17).  A branch with
  ``condition=None`` is the ``else`` arm.  A branch with an empty production
  list is the paper's ``by 0`` (consume and produce nothing).

Enabledness (the reaction condition ``R_i``): a binding of the replace list
such that the guard holds **and** at least one branch condition holds.  Firing
(the action ``A_i``): the productions of the *first* branch whose condition
holds are instantiated and inserted while the matched elements are removed.
This single formulation covers every listing in the paper:

* Eq. 2 (``where x < y``)           -> guard, one unconditional branch.
* R1–R3, R18, R19 (no conditions)   -> no guard, one unconditional branch.
* R11–R13 (``if`` without ``else``) -> guard (otherwise unmatched labels would
  be consumed and silently deleted, which is not what the paper intends).
* R14–R17 (``if``/``else`` pairs)   -> two branches; the ``else`` arm of the
  steer translations is ``by 0`` (empty production).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from ..multiset.element import Element
from .expr import BoolOp, Compare, Const, Expr, Var
from .pattern import Binding, ElementPattern, ElementTemplate

__all__ = ["Branch", "Reaction"]


@dataclass(frozen=True)
class Branch:
    """One ``by`` alternative: productions guarded by an optional condition."""

    productions: Tuple[ElementTemplate, ...]
    condition: Optional[Expr] = None

    def __init__(
        self,
        productions: Sequence[ElementTemplate],
        condition: Optional[Expr] = None,
    ) -> None:
        object.__setattr__(self, "productions", tuple(productions))
        object.__setattr__(self, "condition", condition)

    def is_enabled(self, binding: Binding) -> bool:
        """True when this branch's condition holds (or it has no condition)."""
        if self.condition is None:
            return True
        return bool(self.condition.evaluate(binding))

    def produce(self, binding: Binding) -> List[Element]:
        """Instantiate the branch's productions under ``binding``."""
        return [tmpl.instantiate(binding) for tmpl in self.productions]

    def variables(self) -> FrozenSet[str]:
        """Variables the branch's condition and productions read."""
        names: set = set()
        if self.condition is not None:
            names |= self.condition.variables()
        for tmpl in self.productions:
            names |= tmpl.variables()
        return frozenset(names)


@dataclass(frozen=True)
class Reaction:
    """A Gamma reaction ``(R_i, A_i)``.

    Attributes
    ----------
    name:
        Identifier used in traces, the DSL and conversion bookkeeping
        (``"R1"``, ``"R16"``, ...).
    replace:
        The patterns of the consumed elements (the ``replace`` list).
    branches:
        The ordered ``by`` alternatives.
    guard:
        Optional global enabledness condition (``where`` clause).
    """

    name: str
    replace: Tuple[ElementPattern, ...]
    branches: Tuple[Branch, ...]
    guard: Optional[Expr] = None

    def __init__(
        self,
        name: str,
        replace: Sequence[ElementPattern],
        branches: Sequence[Branch],
        guard: Optional[Expr] = None,
    ) -> None:
        if not name:
            raise ValueError("reaction name must be non-empty")
        replace = tuple(replace)
        branches = tuple(branches)
        if not replace:
            raise ValueError(f"reaction {name!r} must consume at least one element")
        if not branches:
            raise ValueError(f"reaction {name!r} must have at least one 'by' branch")
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "replace", replace)
        object.__setattr__(self, "branches", branches)
        object.__setattr__(self, "guard", guard)
        self._validate_variables()

    # -- validation -----------------------------------------------------------
    def _validate_variables(self) -> None:
        bound: set = set()
        for pat in self.replace:
            bound |= pat.variables()
        used: set = set()
        if self.guard is not None:
            used |= self.guard.variables()
        for branch in self.branches:
            used |= branch.variables()
        unbound = used - bound
        if unbound:
            raise ValueError(
                f"reaction {self.name!r} uses variables {sorted(unbound)} "
                f"that are not bound by its replace list"
            )

    # -- properties -----------------------------------------------------------
    @property
    def arity(self) -> int:
        """Number of elements consumed per firing."""
        return len(self.replace)

    def consumed_labels(self) -> FrozenSet[str]:
        """Literal labels required by the replace list (variable labels excluded)."""
        labels = set()
        for pat in self.replace:
            fixed = pat.fixed_label()
            if fixed is not None:
                labels.add(fixed)
        return frozenset(labels)

    def has_variable_label(self) -> bool:
        """True when some consumed element's label is a pattern variable."""
        return any(pat.fixed_label() is None for pat in self.replace)

    def label_domain(self) -> Optional[FrozenSet[str]]:
        """Every label a match can consume, or ``None`` when that is any label.

        Literal pattern labels count as themselves.  A variable label counts
        as the literals the guard restricts it to: an OR-tree of ``x == 'L'``
        comparisons, alone or as one conjunct of a top-level ``and`` — the
        form Algorithm 1 gives a node with several input arcs
        (``where x == 'E0' or x == 'E10'``).  One unrestricted variable label
        makes the domain unbounded (``None``).
        """
        labels = set(self.consumed_labels())
        variables = {pat.label.name for pat in self.replace if isinstance(pat.label, Var)}
        choices: Dict[str, FrozenSet[str]] = {}
        for conjunct in _conjuncts(self.guard):
            restriction = _label_choices(conjunct)
            if restriction is not None:
                name, allowed = restriction
                choices[name] = choices[name] & allowed if name in choices else allowed
        if not variables <= choices.keys():
            return None
        for name in variables:
            labels |= choices[name]
        return frozenset(labels)

    def produced_labels(self) -> FrozenSet[str]:
        """Literal labels that can be produced by any branch (best effort).

        Productions whose label is a non-constant expression contribute
        nothing; the callers that rely on this (reduction, analysis) only need
        the constant case, which is what Algorithm 1 generates.
        """
        from .expr import Const

        labels = set()
        for branch in self.branches:
            for tmpl in branch.productions:
                if isinstance(tmpl.label, Const):
                    labels.add(tmpl.label.value)
        return frozenset(labels)

    def variables(self) -> FrozenSet[str]:
        """All variables bound by the replace list."""
        names: set = set()
        for pat in self.replace:
            names |= pat.variables()
        return frozenset(names)

    def tag_variables(self) -> FrozenSet[str]:
        """Variables used in tag position by the replace list."""
        names = set()
        for pat in self.replace:
            tag_var = pat.tag_variable()
            if tag_var is not None:
                names.add(tag_var)
        return frozenset(names)

    # -- semantics --------------------------------------------------------------
    def check_guard(self, binding: Binding) -> bool:
        """Evaluate the guard (``where`` clause) under ``binding``."""
        if self.guard is None:
            return True
        return bool(self.guard.evaluate(binding))

    def enabled_branch(self, binding: Binding) -> Optional[Branch]:
        """The first branch whose condition holds, or ``None``."""
        if not self.check_guard(binding):
            return None
        for branch in self.branches:
            if branch.is_enabled(binding):
                return branch
        return None

    def is_enabled(self, binding: Binding) -> bool:
        """Reaction condition ``R_i``: guard plus at least one branch condition."""
        return self.enabled_branch(binding) is not None

    def apply(self, binding: Binding) -> List[Element]:
        """Reaction action ``A_i``: the elements produced for ``binding``.

        Raises ``ValueError`` if the reaction is not enabled under ``binding``;
        schedulers must only apply matches the matcher reported as enabled.
        """
        branch = self.enabled_branch(binding)
        if branch is None:
            raise ValueError(f"reaction {self.name!r} is not enabled under binding {binding!r}")
        return branch.produce(binding)

    # -- misc ---------------------------------------------------------------------
    def renamed(self, name: str) -> "Reaction":
        """Copy of this reaction under a new name."""
        return Reaction(name=name, replace=self.replace, branches=self.branches, guard=self.guard)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Reaction({self.name!r}, arity={self.arity}, branches={len(self.branches)})"


def _conjuncts(guard: Optional[Expr]) -> List[Expr]:
    """The terms of ``guard``'s top-level ``and`` chain (itself if none)."""
    if guard is None:
        return []
    if isinstance(guard, BoolOp) and guard.op == "and":
        return _conjuncts(guard.left) + _conjuncts(guard.right)
    return [guard]


def _label_choices(expr: Expr) -> Optional[Tuple[str, FrozenSet[str]]]:
    """``(x, {'L', ...})`` when ``expr`` is an OR-tree of ``x == 'L'`` over one
    variable ``x`` and string literals; ``None`` for anything else."""
    if isinstance(expr, BoolOp):
        if expr.op != "or":
            return None
        left, right = _label_choices(expr.left), _label_choices(expr.right)
        if left is None or right is None or left[0] != right[0]:
            return None
        return left[0], left[1] | right[1]
    if isinstance(expr, Compare) and expr.op == "==":
        for name, literal in ((expr.left, expr.right), (expr.right, expr.left)):
            if isinstance(name, Var) and isinstance(literal, Const):
                if isinstance(literal.value, str):
                    return name.name, frozenset((literal.value,))
    return None
