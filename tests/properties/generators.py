"""Hypothesis strategies generating random well-formed Gamma programs.

The conformance fuzz suite (`test_conformance_fuzz.py`) needs programs whose
stable multiset is *schedule-independent*, because the backends under test
(sequential, parallel supersteps, sharded in-process/multiprocessing) follow
wildly different schedules by design.  Arbitrary reaction soups are not
confluent, so the generator composes programs from **confluent-by-construction
reaction families** over int elements — each family drawn with random arity,
guards, productions, and constants:

* ``fold`` (arity 2) — combine two elements with an associative-commutative
  operator (``+``/``*``), or keep one of a comparable pair under a random
  total-order guard (``<``/``<=``/``>``/``>=`` — min/max folds).  Any firing
  order reaches the same single-element (op-fold) or extremum normal form.
* ``descent`` (arity 1, guarded) — rewrite ``x`` to ``x - d`` (``d >= 1``)
  while ``x > c``.  Unary rules rewrite each element independently and the
  value strictly decreases, so termination and the final multiset are
  schedule-independent.
* ``filter`` (arity 1, guarded) — delete every element satisfying a random
  comparison guard (optionally emitting one constant token per deletion to
  an inert sink label).  Unary again: confluent for any predicate.
* ``dedupe`` (arity 2, guarded ``==``) — collapse equal-valued pairs to one
  copy; the normal form keeps exactly the distinct values.
* ``absorb`` (arity 2, two labels) — an element of label A consumes one
  element of label B and re-emits itself (optionally emitting a constant
  token to an inert sink per absorbed element).  Any maximal schedule
  drains B completely whenever A is non-empty and leaves A untouched, so
  the normal form is unique even though individual pairings differ — and
  the joined ``{A, B}`` footprint forces cross-shard exchanges.

Each reaction instance is assigned a **fresh label block**: reactions never
share consumable labels, so the program is a disjoint union of confluent
subsystems — confluent as a whole — while still exercising multi-reaction
scheduling, footprint routing (multiple label groups with distinct home
shards; ``absorb`` produces *joined* footprints that force cross-shard
exchanges), parked-reaction wakeups, and work stealing.

`initial_for` / `injection_schedules` build random initial multisets and
streamed injection batches over a program's consumable labels, so the same
cases drive both the batch conformance property and the streaming-vs-batch
differential property.

The reaction-network workload pack adds two deliberately **non-confluent**
strategies whose oracle is a conserved quantity instead of the stable
multiset: `chemistry_soups` (seeded soups whose total mass is invariant) and
`stoichiometric_cases` (condensation networks whose molecular-weight vector
is the left null space of the stoichiometric matrix).  Backends may disagree
on the exact final multiset for these; they must all preserve the invariant.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from hypothesis import strategies as st

from repro.gamma.expr import BinOp, Compare, Const, Var
from repro.gamma.pattern import pattern, template
from repro.gamma.program import GammaProgram
from repro.gamma.reaction import Branch, Reaction
from repro.multiset import Element, Multiset

__all__ = [
    "ConformanceCase",
    "chemistry_soups",
    "conformance_cases",
    "initial_for",
    "injection_schedules",
    "random_programs",
    "stoichiometric_cases",
    "BACKENDS",
    "SHARD_COUNTS",
]

#: Backends the conformance suite sweeps (multiprocessing is swept separately
#: with a smaller example budget — process startup dominates).
BACKENDS = ("sequential", "chaotic", "parallel", "inprocess")

#: Shard counts the sharded backends are fuzzed at.
SHARD_COUNTS = (1, 2, 3)

#: Values elements draw from (small ints keep folds readable and fast).
_values = st.integers(min_value=-8, max_value=20)


def _fold_reaction(draw, index: int, label: str) -> Reaction:
    """AC-operator fold or guarded extremum fold over one label."""
    kind = draw(st.sampled_from(["op", "select"]))
    if kind == "op":
        op = draw(st.sampled_from(["+", "*"]))
        production = template(BinOp(op, Var("a"), Var("b")), label, Const(0))
        guard = None
    else:
        comparator = draw(st.sampled_from(["<", "<=", ">", ">="]))
        production = template("a", label, Const(0))
        guard = Compare(comparator, Var("a"), Var("b"))
    return Reaction(
        name=f"Rfold{index}",
        replace=[pattern("a", label, "t1"), pattern("b", label, "t2")],
        branches=[Branch(productions=[production])],
        guard=guard,
    )


def _descent_reaction(draw, index: int, label: str) -> Reaction:
    """Guarded unary descent: ``x > c -> x - d`` (strictly decreasing)."""
    floor = draw(st.integers(min_value=-4, max_value=6))
    step = draw(st.integers(min_value=1, max_value=5))
    return Reaction(
        name=f"Rdescent{index}",
        replace=[pattern("a", label, "t")],
        branches=[
            Branch(productions=[template(BinOp("-", Var("a"), Const(step)), label, Const(0))])
        ],
        guard=Compare(">", Var("a"), Const(floor)),
    )


def _filter_reaction(draw, index: int, label: str, sink: str) -> Reaction:
    """Guarded unary deletion, optionally emitting a token to an inert sink."""
    comparator = draw(st.sampled_from(["<", "<=", ">", ">=", "==", "!="]))
    threshold = draw(st.integers(min_value=-4, max_value=10))
    emit_token = draw(st.booleans())
    productions = [template(Const(1), sink, Const(0))] if emit_token else []
    return Reaction(
        name=f"Rfilter{index}",
        replace=[pattern("a", label, "t")],
        branches=[Branch(productions=productions)],
        guard=Compare(comparator, Var("a"), Const(threshold)),
    )


def _dedupe_reaction(draw, index: int, label: str) -> Reaction:
    """Collapse equal-valued pairs to one copy (remove-duplicates shape)."""
    return Reaction(
        name=f"Rdedupe{index}",
        replace=[pattern("a", label, "t1"), pattern("b", label, "t2")],
        branches=[Branch(productions=[template("a", label, Const(0))])],
        guard=Compare("==", Var("a"), Var("b")),
    )


def _absorb_reaction(draw, index: int, left: str, right: str, sink: str) -> Reaction:
    """Cross-label absorption (joined footprint; unique normal form).

    ``a@left`` re-emits itself and deletes one ``b@right`` per firing: any
    maximal schedule drains ``right`` completely whenever ``left`` is
    non-empty, regardless of pairing order.
    """
    emit_token = draw(st.booleans())
    productions = [template("a", left, Const(0))]
    if emit_token:
        productions.append(template(Const(1), sink, Const(0)))
    return Reaction(
        name=f"Rabsorb{index}",
        replace=[pattern("a", left, "t1"), pattern("b", right, "t2")],
        branches=[Branch(productions=productions)],
    )


_FAMILIES = ("fold", "descent", "filter", "dedupe", "absorb")


@dataclass(frozen=True)
class ConformanceCase:
    """One fuzz case: a random confluent program plus its random multisets."""

    program: GammaProgram
    initial: Multiset
    #: Streamed injection batches (lists of elements) for the streaming
    #: differential property; empty for pure batch cases.
    schedule: tuple

    def injected_elements(self) -> List[Element]:
        """All elements of the schedule, flattened."""
        return [element for batch in self.schedule for element in batch]

    def batch_union(self) -> Multiset:
        """``initial`` plus every scheduled element (the batch reference input)."""
        combined = self.initial.copy()
        for element in self.injected_elements():
            combined.add(element)
        return combined


@st.composite
def random_programs(draw, min_reactions: int = 1, max_reactions: int = 4) -> GammaProgram:
    """A random confluent program: 1–4 family instances on disjoint labels.

    Returns a :class:`GammaProgram` whose ``metadata``-free reaction list
    spans one fresh label block per reaction (``L0``, ``L1``, ... plus
    ``L<i>b`` for annihilation partners and inert ``sink<i>`` labels).
    """
    count = draw(st.integers(min_value=min_reactions, max_value=max_reactions))
    reactions = []
    for index in range(count):
        family = draw(st.sampled_from(_FAMILIES))
        label = f"L{index}"
        sink = f"sink{index}"
        if family == "fold":
            reactions.append(_fold_reaction(draw, index, label))
        elif family == "descent":
            reactions.append(_descent_reaction(draw, index, label))
        elif family == "filter":
            reactions.append(_filter_reaction(draw, index, label, sink))
        elif family == "dedupe":
            reactions.append(_dedupe_reaction(draw, index, label))
        else:
            reactions.append(
                _absorb_reaction(draw, index, label, f"L{index}b", sink)
            )
    return GammaProgram(reactions, name="fuzz")


def _consumable_labels(program: GammaProgram) -> List[str]:
    labels: List[str] = []
    for reaction in program.reactions:
        for label in sorted(reaction.consumed_labels()):
            if label not in labels:
                labels.append(label)
    return labels


@st.composite
def _elements_for(draw, labels: Sequence[str], min_size: int, max_size: int) -> List[Element]:
    """Random int elements spread over ``labels`` (tag 0, like the workloads)."""
    size = draw(st.integers(min_value=min_size, max_value=max_size))
    out: List[Element] = []
    for _ in range(size):
        label = draw(st.sampled_from(list(labels)))
        out.append(Element(draw(_values), label, 0))
    return out


@st.composite
def initial_for(draw, program: GammaProgram, min_size: int = 0, max_size: int = 16) -> Multiset:
    """A random initial multiset over the program's consumable labels."""
    labels = _consumable_labels(program) or ["inert"]
    return Multiset(draw(_elements_for(labels, min_size, max_size)))


@st.composite
def injection_schedules(
    draw, program: GammaProgram, max_batches: int = 3, max_batch_size: int = 6
) -> tuple:
    """Random streamed batches over the program's consumable labels."""
    labels = _consumable_labels(program) or ["inert"]
    batches = draw(st.integers(min_value=0, max_value=max_batches))
    return tuple(
        tuple(draw(_elements_for(labels, 1, max_batch_size)))
        for _ in range(batches)
    )


@st.composite
def conformance_cases(draw, with_schedule: bool = False) -> ConformanceCase:
    """A full fuzz case: program + initial multiset (+ injection schedule)."""
    program = draw(random_programs())
    initial = draw(initial_for(program))
    schedule = draw(injection_schedules(program)) if with_schedule else ()
    return ConformanceCase(program=program, initial=initial, schedule=schedule)


# -- reaction-network strategies (invariant oracle, non-confluent programs) ----------

@st.composite
def chemistry_soups(draw, max_molecules: int = 14):
    """A seeded chemistry soup (terminating, mass-conserving, non-confluent).

    Returns a :class:`repro.workloads.ChemistryWorkload`; the conformance
    property asserts ``workload.mass(final) == workload.initial_mass`` on
    every backend rather than comparing stable multisets.
    """
    from repro.workloads import make_soup

    return make_soup(
        blocks=draw(st.integers(min_value=1, max_value=2)),
        species_per_block=draw(st.integers(min_value=2, max_value=4)),
        molecules=draw(st.integers(min_value=4, max_value=max_molecules)),
        seed=draw(st.integers(min_value=0, max_value=10_000)),
        skew=draw(st.sampled_from([0.0, 0.5, 0.9])),
    )


@st.composite
def stoichiometric_cases(draw, max_weight: int = 5):
    """A condensation network plus a random species pool.

    Returns ``(network, initial)``; the property asserts the network's
    conserved quantities (the molecular-weight vector) are equal before and
    after execution on every backend.
    """
    from repro.workloads import condensation_network, species_multiset

    size = draw(st.integers(min_value=2, max_value=max_weight))
    network = condensation_network(size)
    counts = {
        species: draw(st.integers(min_value=0, max_value=5))
        for species in network.species
    }
    if not any(counts.values()):
        counts[network.species[0]] = 2
    return network, species_multiset(counts)
