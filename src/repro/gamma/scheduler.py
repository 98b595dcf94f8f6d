"""Incremental reaction scheduling: persistent indexes + dirty-label rematching.

Rebuilding a :class:`~repro.gamma.matching.Matcher` (and its
:class:`~repro.multiset.index.LabelTagIndex`) from the full multiset on every
step makes a run of S steps over an N-element solution O(S·N) in index
construction alone.  Real chemical-machine implementations — the Connection
Machine / GPU lineage the paper cites — keep a persistent reaction/species
index and only re-examine reactions whose reactant pools changed.  This module
ports that architecture:

* the :class:`~repro.multiset.multiset.Multiset` keeps its elements in
  label and tag buckets, and one :class:`LabelTagIndex` is attached per run
  as a view of those buckets — attaching costs O(1) and nothing has to be
  kept in sync; the multiset's change notifications only feed the
  scheduler's dirty-label set;
* each reaction's *consumed-label footprint* is precomputed
  (:meth:`~repro.gamma.reaction.Reaction.consumed_labels`); a variable label
  the guard restricts to literals is watched on those literals
  (:meth:`~repro.gamma.reaction.Reaction.label_domain`), and a reaction with
  any other variable label depends on every label and is treated as a
  wildcard;
* the scheduler keeps a worklist of "possibly enabled" reactions.  A reaction
  probed without success is *parked*; after a firing, only parked reactions
  whose footprint intersects the labels touched by the rewrite are woken.
  Reactions proven dead stay parked until a relevant label changes, so stable
  sub-programs cost nothing per step.

Parking is sound because a reaction's enabledness depends only on the multiset
restricted to its footprint labels (the matcher draws candidates exclusively
from those buckets; guards and branch conditions see only bound variables).
If no element count under a footprint label changed, the match search space is
unchanged and a previously dead reaction is still dead.

With ``compiled=True`` (default) each reaction is specialized once through
:mod:`repro.gamma.compiled` and probes run the generated slot-based matchers;
``compiled=False`` probes through the interpreted :class:`Matcher` search.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..multiset.columnar import ColumnarStore
from ..multiset.element import Element
from ..multiset.index import LabelTagIndex
from ..multiset.multiset import Multiset
from .matching import Match, Matcher, SuperstepBatch
from .reaction import Reaction
from .vectorized import columnar_collect

__all__ = ["ReactionScheduler", "greedy_disjoint_matches", "reaction_footprints"]


def reaction_footprints(
    reactions: Sequence[Reaction],
) -> List[Tuple[frozenset, bool]]:
    """Consumed-label footprint of each reaction, as ``(labels, wildcard)``.

    For every reaction returns the frozen set of labels its replace list can
    consume plus a *wildcard* flag: ``True`` when the reaction binds a
    variable label and therefore depends on every label in the multiset (its
    ``labels`` set is then only the statically known part).  This is the same
    footprint the scheduler uses for parked-reaction wakeups; the sharded
    runtime derives its migration routing tables from it
    (:class:`repro.runtime.sharding.RoutingTable`), so scheduling and routing
    always agree on which labels a reaction can touch.  Footprints match what
    compilation resolves (:attr:`~repro.gamma.compiled.CompiledReaction.footprint`
    is ``reaction.consumed_labels()`` computed at compile time), so the
    result is valid for compiled and interpreted probing alike.
    """
    return [
        (reaction.consumed_labels(), reaction.has_variable_label())
        for reaction in reactions
    ]


class ReactionScheduler:
    """Persistent, change-driven scheduler for one Gamma run.

    One scheduler is bound to one (reactions, multiset) pair for the duration
    of a run; call :meth:`detach` afterwards to unhook the change listener
    and release the index (engines do this in a ``finally`` block).  The multiset may only be
    mutated *between* probe calls — exactly the discipline of all engines,
    which collect matches first and fire afterwards.

    ``columnar=True`` additionally attaches a
    :class:`~repro.multiset.columnar.ColumnarStore` mirror (maintained
    through the multiset's change notifications) and lets the
    deterministic superstep collector run each eligible reaction's probe as
    a vectorized mask sweep (:func:`repro.gamma.vectorized.columnar_collect`)
    instead of an element-at-a-time bucket scan.  Reactions outside the
    vectorizable fragment — and every seeded (RNG-ordered) probe — fall back
    to the object path per reaction, so results and traces are identical
    either way.
    """

    def __init__(
        self,
        reactions: Sequence[Reaction],
        multiset: Multiset,
        rng: Optional[random.Random] = None,
        compiled: bool = True,
        columnar: bool = False,
    ) -> None:
        self.reactions: Tuple[Reaction, ...] = tuple(reactions)
        self.multiset = multiset
        self.rng = rng
        self.compiled = compiled
        self.columnar = columnar
        self.columnar_store: Optional[ColumnarStore] = None
        if columnar and compiled:
            self.columnar_store = ColumnarStore()
            self.columnar_store.attach(multiset)
        self.index = LabelTagIndex()
        self.index.attach(multiset)
        self.matcher = Matcher(multiset, index=self.index, rng=rng, compiled=compiled)
        # Footprints: which labels each reaction consumes.  A variable label
        # the guard restricts to literals (Algorithm 1's merge reactions,
        # ``where x == 'E0' or x == 'E10'``) is watched on those literals;
        # any other variable-label reaction depends on everything and is
        # woken by any change.  With ``compiled=True`` the reactions are
        # specialized eagerly (so the first probe pays no compile latency)
        # and the footprints come from the compiled form, which resolved
        # them at compile time.
        self._wildcards: Set[int] = set()
        self._watchers: Dict[str, List[int]] = {}
        # Per-reaction compiled forms (None entries probe interpretively),
        # resolved eagerly so probes skip the matcher's cache lookup.
        self._compiled: List[Optional[object]] = []
        for i, reaction in enumerate(self.reactions):
            compiled_reaction = self.matcher.compiled_for(reaction)
            self._compiled.append(compiled_reaction)
            if compiled_reaction is not None:
                wildcard = compiled_reaction.wildcard
                footprint = compiled_reaction.footprint
            else:
                wildcard = reaction.has_variable_label()
                footprint = reaction.consumed_labels()
            if wildcard:
                domain = reaction.label_domain()
                if domain is None:
                    self._wildcards.add(i)
                else:
                    footprint = domain
            for label in footprint:
                self._watchers.setdefault(label, []).append(i)
        self._det_order: List[int] = list(range(len(self.reactions)))
        self._parked: Set[int] = set()
        self._dirty: Set[str] = set()
        # The listener closes over the dirty set's ``add``, not over ``self``:
        # a bound method stored on the scheduler would make every run a
        # reference cycle that only the cyclic collector can free.
        note_dirty = self._dirty.add

        def note_change(element: Element, delta: int) -> None:
            note_dirty(element.label)

        self._listener = multiset.subscribe(note_change)
        self._attached = True

    # -- lifecycle ----------------------------------------------------------------
    def detach(self) -> None:
        """Unhook the dirty-label listener and detach the index (idempotent)."""
        if self._attached:
            self.multiset.unsubscribe(self._listener)
            self.index.detach()
            if self.columnar_store is not None:
                self.columnar_store.detach()
            self._attached = False

    # -- worklist maintenance --------------------------------------------------------
    def refresh(self) -> None:
        """Re-arm reactions affected by mutations since the last probe round."""
        if not self._dirty:
            return
        if self._parked:
            self._parked -= self._wildcards
            for label in self._dirty:
                watchers = self._watchers.get(label)
                if watchers:
                    self._parked.difference_update(watchers)
        self._dirty.clear()

    @property
    def parked(self) -> frozenset:
        """Indices of reactions currently proven dead (for tests/inspection)."""
        return frozenset(self._parked)

    # -- streaming ingestion ---------------------------------------------------------
    def inject(self, pairs: Sequence[Tuple[Element, int]]) -> int:
        """Admit streamed ``(element, count)`` pairs into the live run.

        The ingestion hook of :class:`repro.runtime.streaming.StreamingGammaRuntime`:
        elements arriving mid-run are ordinary multiset insertions, so the
        index sees them at once, every touched label lands in the dirty set
        and the next :meth:`refresh` re-wakes exactly the parked reactions whose
        footprints the injected elements intersect — a stable sub-program
        stays parked, a reaction starved for one of the injected labels is
        re-armed without any index rebuild.  Like every mutation, injection
        must happen *between* probe rounds (the discipline all engines and
        the streaming runtime follow: elements become visible at superstep
        boundaries).  Returns the number of element copies admitted.
        """
        return self.multiset.add_counts(pairs)

    def _probe_order(self, shuffled: bool) -> List[int]:
        if not shuffled:
            return self._det_order
        if self.rng is None:
            raise ValueError("shuffled probing requires a scheduler rng")
        # Shuffle the full list (not just the active one), so the draws a
        # probe round takes do not depend on which reactions are parked.
        order = list(self._det_order)
        self.rng.shuffle(order)
        return order

    # -- probing -------------------------------------------------------------------
    def find_first(self, shuffled: bool = False) -> Optional[Match]:
        """First enabled match over the active worklist.

        ``shuffled=False`` probes in declaration order (sequential engine);
        ``shuffled=True`` probes in RNG order (chaotic engine).  Reactions
        probed without a match are parked.
        """
        parked = self._parked
        compiled = self._compiled
        for i in self._probe_order(shuffled):
            if i in parked:
                continue
            compiled_reaction = compiled[i]
            if compiled_reaction is not None:
                match = compiled_reaction.find(self.index, self.multiset, self.rng)
            else:
                match = self.matcher.find(self.reactions[i])
            if match is None:
                parked.add(i)
            else:
                return match
        return None

    def collect_superstep_matches(self, budget: Optional[int] = None) -> SuperstepBatch:
        """Greedy disjoint ``(tuple, k)`` decisions for one parallel *superstep*.

        The repo's one definition of a parallel step: a greedy maximal set of
        firings no two of which consume the same element occurrence.  The
        parallel engine, the PE-bounded simulator, Fig. 4 instancing and the
        shard workers all call it.  Each decision stands for ``k`` firings of
        its tuple: once a tuple is enabled it is fired as often as the copies
        still unclaimed this superstep afford (the minimum, over the objects
        it holds, of unclaimed copies // slots the object fills), so a
        solution with many copies of few values costs one decision per
        distinct combination, not one per copy.

        The result is a :class:`~repro.gamma.matching.SuperstepBatch`,
        filled in one pass: the compiled superstep collectors
        (:meth:`~repro.gamma.compiled.CompiledReaction.collect_into`) scan
        each reaction's buckets once with a shared consumed-occurrence map,
        skip candidates claimed earlier in the batch, and count every claim
        straight into the batch's ``removed`` / ``added`` maps — productions
        run once per decision, over the slot values — so
        :func:`~repro.gamma.matching.fire_batch` only applies the two maps,
        and :class:`~repro.gamma.matching.Match` objects are built only if
        someone iterates the batch.  ``len()`` counts decisions; iterating
        yields one match per decision with ``times = k``.  Reactions the
        codegen cannot handle (no compiled form, or an unknown-label match
        plan) go through its interpreted twin, :meth:`Matcher.collect
        <repro.gamma.matching.Matcher.collect>`, which scans the same bucket
        views — so a seeded superstep draws one permutation per bucket on
        either path, and ``compiled=True/False`` runs of identity-plan
        programs take the same seeded schedule.

        ``budget`` caps the superstep's *firings* — the sum of ``times``, not
        the number of decisions: the decision that would cross it has its
        ``k`` clipped to the remainder before it is claimed, and collection
        stops.  It must be positive or ``None`` (unbounded); anything else
        raises ``ValueError``.

        An empty result proves the multiset stable: with nothing consumed the
        collectors degenerate to plain first-match probes, so any enabled
        reaction would have contributed.  Reactions that claim nothing *and*
        competed against an empty batch are parked; reactions merely starved
        by earlier claims are left armed (the batch's own firings dirty every
        label they would need, so parking them would only churn the worklist).
        """
        if budget is not None and budget <= 0:
            raise ValueError(f"superstep budget must be positive or None, got {budget!r}")
        batch = SuperstepBatch()
        remaining: Dict[Element, int] = {}
        views: Dict[object, list] = {}
        # Per-superstep cache of the columnar collectors (bucket snapshots,
        # exhausted-prefix heads, mask-true candidate lists) — the columnar
        # analogue of ``views``, shared across this superstep's reactions.
        cviews: Dict = {}
        store = self.columnar_store if self.rng is None else None
        room = budget  # firings still allowed this superstep (None: unbounded)
        compiled = self._compiled
        for i in self._probe_order(shuffled=self.rng is not None):
            if i in self._parked:
                continue
            if room == 0:
                break
            park_if_idle = not remaining
            compiled_reaction = compiled[i]
            if compiled_reaction is not None and compiled_reaction.supports_collect:
                fired = None
                if store is not None:
                    fired = columnar_collect(
                        compiled_reaction, store, self.multiset, remaining, cviews, batch, room
                    )
                if fired is None:
                    fired = compiled_reaction.collect_into(
                        self.index, self.multiset, remaining, batch, self.rng, views, room
                    )
            else:
                fired = self.matcher.collect(self.reactions[i], remaining, views, batch, room)
            if fired:
                if room is not None:
                    room -= fired
            elif park_if_idle:
                self._parked.add(i)
        return batch


def greedy_disjoint_matches(
    program_reactions: Sequence[Reaction],
    multiset: Multiset,
    rng: Optional[random.Random] = None,
    budget: Optional[int] = None,
) -> SuperstepBatch:
    """One-shot superstep: :meth:`ReactionScheduler.collect_superstep_matches`
    against a snapshot, without a persistent scheduler.

    Convenience for callers that only need a single parallel step
    (conversion instancing, ad-hoc analyses); long-running loops should hold
    a :class:`ReactionScheduler` instead.  Decisions carry multiplicity
    (``match.times``), and ``budget`` caps firings, not decisions.
    """
    scheduler = ReactionScheduler(program_reactions, multiset, rng=rng)
    try:
        return scheduler.collect_superstep_matches(budget=budget)
    finally:
        scheduler.detach()
