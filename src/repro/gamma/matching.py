"""Reaction matching engine.

Matching answers the question at the heart of the Γ operator (Eq. 1): *does
there exist a tuple of elements* ``x1..xn`` *in the multiset such that the
reaction condition holds?*  The engine performs a backtracking search over the
replace-list patterns, using the label/tag index to prune candidates (the
reactions produced by Algorithm 1 always fix the labels they consume, and loop
programs additionally require equal tags on every consumed element).

Multiplicities are respected: a reaction consuming two elements may bind both
patterns to the *same* element value only if that element occurs at least
twice in the multiset.

A parallel superstep is a :class:`SuperstepBatch`: the collectors (the
codegenned ones of :mod:`repro.gamma.compiled`, ``columnar_collect`` and
:meth:`Matcher.collect` here) count every claim into it as they make it, and
:func:`fire_batch` applies its two count maps in one rewrite.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from ..multiset.element import Element
from ..multiset.index import LabelTagIndex
from ..multiset.multiset import Multiset
from .pattern import Binding, ElementPattern
from .reaction import Reaction

__all__ = [
    "Match",
    "Matcher",
    "SuperstepBatch",
    "fire_batch",
    "find_match",
    "iter_matches",
    "lazy_shuffle",
]


def lazy_shuffle(pool: List[Element], rng: random.Random) -> Iterator[Element]:
    """Yield ``pool`` in uniform random order, one RNG draw per element yielded.

    A Fisher-Yates shuffle that swaps *as the scan proceeds* (``pool`` is the
    caller's scratch list, consumed in place): a probe that stops after ``t``
    candidates has paid ``t`` draws, not ``len(pool)``.  Every seeded
    ``find``/``iter`` probe — interpreted (:meth:`Matcher._candidates`) and
    compiled (``find_rng``/``iter_rng``) — orders its candidates through this
    one helper, which is what keeps their RNG consumption identical draw for
    draw.
    """
    randrange = rng.randrange
    for n in range(len(pool), 1, -1):
        j = randrange(n)
        element = pool[j]
        pool[j] = pool[n - 1]
        yield element
    if pool:
        yield pool[0]


@dataclass(frozen=True)
class Match:
    """A successful match of a reaction against the multiset.

    ``times`` is the match's *multiplicity*: the superstep collectors hand
    out ``(tuple, k)`` decisions — fire this tuple ``k`` times at once — so a
    multiset holding many copies of few values costs one match per distinct
    combination, not one per copy.  Single-firing probes (``find``,
    ``iter_matches``) always carry ``times == 1``.  Productions are pure
    functions of the binding, so :meth:`produced` is evaluated once and the
    consumer multiplies.
    """

    reaction: Reaction
    consumed: Tuple[Element, ...]
    binding: Dict[str, object]
    times: int = 1

    def produced(self) -> List[Element]:
        """The elements *one* firing of this match inserts."""
        return self.reaction.apply(dict(self.binding))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        times = f" ×{self.times}" if self.times > 1 else ""
        return f"Match({self.reaction.name}, consumed={list(self.consumed)!r}{times})"


class SuperstepBatch(Sequence[Match]):
    """One superstep's ``(tuple, k)`` decisions, counted as they are claimed.

    What :meth:`ReactionScheduler.collect_superstep_matches
    <repro.gamma.scheduler.ReactionScheduler.collect_superstep_matches>`
    returns.  The collectors fill it in one pass: every claim appends one flat
    decision record ``(match_of, consumed, produced, times)`` — ``match_of``
    rebuilds the claim's :class:`Match`, ``consumed`` is the tuple in
    declaration order, ``produced`` the elements *one* firing inserts — and
    adds its copies to two ``{element: copies}`` maps, :attr:`removed` (per
    consumed slot, in declaration order) and :attr:`added` (per production,
    in template order), whose keys keep first-occurrence order across the
    batch.  :attr:`firings` is the sum of the ``times``.

    As a read-only sequence it holds the decisions' :class:`Match` objects:
    ``len()`` counts decisions, and iteration, indexing and comparison with
    a list build the matches on first access (same reaction, consumed tuple,
    binding dict and ``times`` as a match-per-decision collector would have
    handed out).  :func:`fire_batch` reads only the two maps, so firing a
    batch nobody iterated builds no match at all.
    """

    __slots__ = ("removed", "added", "records", "firings", "_matches")

    def __init__(self) -> None:
        self.removed: Dict[Element, int] = {}
        self.added: Dict[Element, int] = {}
        self.records: List[Tuple[Callable, Tuple[Element, ...], Sequence[Element], int]] = []
        self.firings = 0
        self._matches: Optional[List[Match]] = None

    def claim(
        self,
        match_of: Callable[[Tuple[Element, ...], int], Match],
        consumed: Tuple[Element, ...],
        produced: Sequence[Element],
        times: int,
    ) -> None:
        """Count one decision: ``consumed`` fires ``times`` times, each firing
        inserting ``produced``.  (The codegenned collectors inline this.)"""
        removed = self.removed
        for element in consumed:
            removed[element] = removed.get(element, 0) + times
        added = self.added
        for element in produced:
            added[element] = added.get(element, 0) + times
        self.records.append((match_of, consumed, produced, times))
        self.firings += times

    def matches(self) -> List[Match]:
        """The decisions as :class:`Match` objects (built once, on first call)."""
        if self._matches is None:
            self._matches = [
                match_of(consumed, times) for match_of, consumed, _, times in self.records
            ]
        return self._matches

    def __len__(self) -> int:
        return len(self.records)

    def __getitem__(self, index):
        return self.matches()[index]

    def __iter__(self) -> Iterator[Match]:
        return iter(self.matches())

    def __eq__(self, other: object) -> bool:
        if isinstance(other, SuperstepBatch):
            return self.matches() == other.matches()
        if isinstance(other, (list, tuple)):
            return self.matches() == list(other)
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SuperstepBatch({len(self)} decisions, {self.firings} firings)"


def fire_batch(multiset: Multiset, batch: SuperstepBatch, validate: bool = False) -> int:
    """Fire one superstep batch; returns its firing count, ``batch.firings``.

    The collectors already multiplied every decision into the batch's
    ``{element: copies}`` maps while claiming it, so firing is one counted
    two-phase :meth:`Multiset.rewrite_batch_unchecked` of
    ``(batch.removed, batch.added)`` — O(distinct elements), not O(copies),
    and no match is built.  ``validate=True`` (the interpreted baseline)
    first checks every removal against the multiset, like
    :meth:`Multiset.replace`, so a bad batch raises ``KeyError`` with
    nothing mutated.
    """
    removed = batch.removed
    if validate:
        for element, copies in removed.items():
            have = multiset.count(element)
            if have < copies:
                raise KeyError(
                    f"batch would consume {copies} x {element!r} but only {have} present"
                )
    multiset.rewrite_batch_unchecked(removed, batch.added)
    return batch.firings


def _interpreted_match_of(reaction: Reaction) -> Callable[[Tuple[Element, ...], int], Match]:
    """Match builder for decisions of the interpreted collector.

    The binding is re-derived the way the search built it — each pattern
    matched against its consumed element in declaration order — so it
    equals the search's binding key for key.
    """

    def match_of(consumed: Tuple[Element, ...], times: int) -> Match:
        binding: Binding = {}
        for pat, element in zip(reaction.replace, consumed):
            binding = pat.match(element, binding)
        return Match(reaction=reaction, consumed=consumed, binding=binding, times=times)

    return match_of


class Matcher:
    """Backtracking matcher bound to one multiset snapshot.

    Without an ``index`` the matcher views a snapshot copy of the multiset
    (:class:`LabelTagIndex`); callers that already hold an attached index
    (the scheduler) pass it in to avoid the copy.

    With ``compiled=True`` each probed reaction is specialized once through
    :func:`repro.gamma.compiled.compile_reaction` and subsequent probes run
    the compiled matcher (slot-based search, codegenned guards/productions)
    instead of this class's interpretive search.  The interpreted path is the
    semantic baseline; the compiled path reproduces its matches exactly for
    identity match plans, and the same match *set* otherwise (see
    :mod:`repro.gamma.compiled`).
    """

    def __init__(
        self,
        multiset: Multiset,
        index: Optional[LabelTagIndex] = None,
        rng: Optional[random.Random] = None,
        compiled: bool = False,
    ) -> None:
        self.multiset = multiset
        self.index = index if index is not None else LabelTagIndex(multiset)
        self.rng = rng
        self.compiled = compiled
        # reaction -> CompiledReaction | None, keyed on the frozen (hashable,
        # value-compared) Reaction itself; ``None`` marks a reaction the
        # compiler refused (probed interpretively).
        self._compiled_cache: Dict[Reaction, Optional[object]] = {}
        # Reactions that cannot be hashed (e.g. a list-valued ``Const``) are
        # cached per instance instead: id(reaction) -> (compiled, reaction),
        # the reaction held alongside so the id stays valid while cached.
        self._compiled_unhashable: Dict[int, Tuple[Optional[object], Reaction]] = {}

    # -- compilation -----------------------------------------------------------
    def compiled_for(self, reaction: Reaction):
        """The :class:`~repro.gamma.compiled.CompiledReaction` for ``reaction``.

        Returns ``None`` when ``compiled=False`` or the reaction defeats the
        compiler (the probe then falls back to the interpreted search).
        """
        if not self.compiled:
            return None
        try:
            return self._compiled_cache[reaction]
        except KeyError:
            hashable = True
        except TypeError:
            hashable = False
            entry = self._compiled_unhashable.get(id(reaction))
            if entry is not None:
                return entry[0]
        from .compiled import CompilationError, compile_reaction

        try:
            compiled = compile_reaction(reaction)
        except CompilationError:
            compiled = None
        if hashable:
            self._compiled_cache[reaction] = compiled
        else:
            self._compiled_unhashable[id(reaction)] = (compiled, reaction)
        return compiled

    # -- public API ------------------------------------------------------------
    def find(self, reaction: Reaction) -> Optional[Match]:
        """Return one enabled match for ``reaction`` or ``None``."""
        compiled = self.compiled_for(reaction)
        if compiled is not None:
            return compiled.find(self.index, self.multiset, self.rng)
        for match in self.iter_matches(reaction):
            return match
        return None

    def iter_matches(self, reaction: Reaction, limit: Optional[int] = None) -> Iterator[Match]:
        """Yield enabled matches for ``reaction`` (up to ``limit`` when given).

        Matches that bind the same multiset of consumed elements through a
        different pattern ordering are all yielded; deduplication, when
        needed, is the caller's concern (the chaotic scheduler only takes the
        first match, the parallel scheduler deduplicates by consumed
        elements).
        """
        compiled = self.compiled_for(reaction)
        if compiled is not None:
            yield from compiled.iter_matches(self.index, self.multiset, self.rng, limit=limit)
            return
        produced = 0
        for consumed, binding in self._search(reaction.replace, {}, [], Counter()):
            if not reaction.is_enabled(binding):
                continue
            yield Match(reaction=reaction, consumed=tuple(consumed), binding=dict(binding))
            produced += 1
            if limit is not None and produced >= limit:
                return

    def is_enabled(self, reaction: Reaction) -> bool:
        """True when ``reaction`` has at least one enabled match."""
        return self.find(reaction) is not None

    def collect(
        self,
        reaction: Reaction,
        remaining: Dict[Element, int],
        views: Dict[object, list],
        batch: SuperstepBatch,
        room: Optional[int] = None,
    ) -> int:
        """Interpreted twin of :meth:`CompiledReaction.collect_into
        <repro.gamma.compiled.CompiledReaction.collect_into>`.

        Claims greedy disjoint ``(tuple, k)`` decisions for one superstep
        into ``batch`` and returns the firings claimed, at most ``room``
        (``None``: unbounded) — the decision that would cross it has its
        ``k`` clipped before it is claimed, and collection stops.  Tuples
        are searched in declaration order over the same per-superstep bucket
        views (``views`` is shared with the compiled collectors; with an RNG
        each snapshot is shuffled once, when its view is built).  A
        candidate whose unclaimed copies (``remaining``, else its multiset
        count) do not cover the slots it would fill is skipped, and a held
        element left without enough copies ends its level's scan — the
        compiled collector's break cascade.  So for identity-plan reactions
        the two collectors visit, claim, record and draw identically.
        Productions come from :meth:`Reaction.apply`, once per decision.
        This is the collector for reactions without a codegenned one
        (interpreted runs, unknown-label plans).
        """
        count = self.multiset.count

        def available(element: Element) -> int:
            avail = remaining.get(element)
            return count(element) if avail is None else avail

        def search(patterns, binding, consumed):
            if not patterns:
                if reaction.is_enabled(binding):
                    yield consumed, binding
                return
            pat, rest = patterns[0], patterns[1:]
            view = self._view(pat, binding, views)
            candidates = view[0]
            exhausted_prefix = True
            for j in range(view[1], len(candidates)):
                element = candidates[j]
                avail = available(element)
                if avail <= 0:
                    # Claims only accumulate within a superstep: skip an
                    # exhausted prefix for good, as the compiled head does.
                    if exhausted_prefix:
                        view[1] = j + 1
                    continue
                exhausted_prefix = False
                # Slots this element fills at this level and shallower.
                held = consumed.count(element) + 1
                if avail < held:
                    continue
                new_binding = pat.match(element, binding)
                if new_binding is None:
                    continue
                for found in search(rest, new_binding, consumed + (element,)):
                    yield found
                    if available(element) < held:
                        break

        match_of = _interpreted_match_of(reaction)
        fired = 0
        for consumed, binding in search(tuple(reaction.replace), {}, ()):
            slots = Counter(consumed)
            times = min(available(element) // n for element, n in slots.items())
            if room is not None and times > room - fired:
                times = room - fired
            for element, n in slots.items():
                remaining[element] = available(element) - times * n
            batch.claim(match_of, consumed, reaction.apply(binding), times)
            fired += times
            if fired == room:
                break
        return fired

    def _view(self, pat: ElementPattern, binding: Binding, views: Dict[object, list]) -> list:
        """``pat``'s candidates as this superstep's ``[snapshot, head]`` view.

        Views are keyed like the compiled collectors' — by the identity of
        the index bucket the candidates come from — so both collectors scan
        one (with an RNG, shuffled) snapshot per bucket per superstep.  An
        unbound variable label pools every label's candidates under a
        ``(None, tag)`` key.
        """
        label, tag = self._resolve(pat, binding)
        if label is None:
            key: object = (None, tag)
            source: Iterable[Element] = self._iter_all_labels(tag)
        else:
            if tag is None:
                bucket = self.index.label_buckets().get(label)
            else:
                tags = self.index.label_tag_buckets().get(label)
                bucket = tags.get(tag) if tags is not None else None
            if not bucket:
                return [(), 0]
            key = id(bucket)
            source = bucket
        view = views.get(key)
        if view is None:
            view = views[key] = [list(source), 0]
            if self.rng is not None:
                self.rng.shuffle(view[0])
        return view

    # -- search -----------------------------------------------------------------
    @staticmethod
    def _resolve(pat: ElementPattern, binding: Binding) -> Tuple[Optional[str], Optional[int]]:
        """``pat``'s label and tag, where a constant or a bound variable fixes them."""
        from .expr import Const, Var

        label = pat.fixed_label()
        # When the label is a bound variable we can still use the index.
        if label is None and isinstance(pat.label, Var) and pat.label.name in binding:
            label = binding[pat.label.name]
        tag: Optional[int] = None
        tag_var = pat.tag_variable()
        if tag_var is not None and tag_var in binding:
            tag = binding[tag_var]
        elif isinstance(pat.tag, Const):
            tag = pat.tag.value
        return label, tag

    def _candidates(self, pat: ElementPattern, binding: Binding) -> Iterable[Element]:
        """Candidate elements for ``pat`` given the variables bound so far.

        Candidates come lazily from the index — an enabled probe touches
        O(arity) elements instead of whole label buckets.  Randomized matching
        (the chaotic/parallel schedulers) visits the same candidates in a
        lazily drawn uniform order: see :func:`lazy_shuffle`.
        """
        label, tag = self._resolve(pat, binding)
        if label is not None:
            candidates = self.index.iter_candidates(label, tag)
        else:
            # Variable label not yet bound: consider every distinct element,
            # restricted by tag when it is known.
            candidates = self._iter_all_labels(tag)
        if self.rng is None:
            return candidates
        return lazy_shuffle(list(candidates), self.rng)

    def _iter_all_labels(self, tag_value: Optional[int]) -> Iterator[Element]:
        for label in self.index.labels():
            yield from self.index.iter_candidates(label, tag_value)

    def _search(
        self,
        patterns: Sequence[ElementPattern],
        binding: Binding,
        consumed: List[Element],
        consumed_counts: Counter,
    ) -> Iterator[Tuple[List[Element], Binding]]:
        """Backtracking search assigning elements to patterns in order.

        ``consumed_counts`` is a running multiset of the elements consumed so
        far, threaded through the recursion so the multiplicity check is O(1)
        per candidate instead of a linear rescan of ``consumed``.
        """
        if not patterns:
            yield list(consumed), dict(binding)
            return
        pat, rest = patterns[0], patterns[1:]
        for element in self._candidates(pat, binding):
            # Respect multiplicities: the same element value can only be
            # consumed as many times as it occurs in the multiset.
            already = consumed_counts[element]
            if already and self.multiset.count(element) <= already:
                continue
            new_binding = pat.match(element, binding)
            if new_binding is None:
                continue
            consumed.append(element)
            consumed_counts[element] += 1
            yield from self._search(rest, new_binding, consumed, consumed_counts)
            consumed.pop()
            consumed_counts[element] -= 1


def find_match(
    reaction: Reaction,
    multiset: Multiset,
    rng: Optional[random.Random] = None,
) -> Optional[Match]:
    """Convenience wrapper: one enabled match of ``reaction`` in ``multiset``."""
    return Matcher(multiset, rng=rng).find(reaction)


def iter_matches(
    reaction: Reaction,
    multiset: Multiset,
    limit: Optional[int] = None,
) -> Iterator[Match]:
    """Convenience wrapper: iterate enabled matches of ``reaction`` in ``multiset``."""
    return Matcher(multiset).iter_matches(reaction, limit=limit)
