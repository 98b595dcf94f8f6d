"""Tagged-token matching store (the dynamic dataflow waiting-matching unit).

Dynamic dataflow machines keep arriving operands in a matching store keyed by
``(instruction, tag)``; an instruction becomes *ready* when operands for all
of its input ports with one common tag are present.  :class:`TokenStore`
implements exactly that rule and is shared by the sequential interpreter and
the multi-PE simulator.

Tokens arriving on a port that already holds a value for the same tag are
queued (FIFO): this happens on merged ports such as the inctag input of
Fig. 2, which receives both the initial value and every loop-back value.

Readiness is *counted*: each waiting ``(node, tag)`` entry keeps the number of
its input ports holding at least one operand, so a deposit or a consume
updates the ready set in O(1) — a port turning non-empty bumps the count, and
the entry is ready exactly when the count reaches the node's arity.  The
store *is* the dataflow side's persistent scheduling index, the exact analog
of the Gamma side's attached :class:`~repro.multiset.index.LabelTagIndex`:
neither runtime rescans its pool between steps.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Dict, List, Set, Tuple

from .graph import DataflowGraph
from .token import Token

__all__ = ["TokenStore", "ReadyEntry"]

#: A ready entry: (node id, tag).
ReadyEntry = Tuple[str, int]


class TokenStore:
    """Waiting-matching store for one graph execution.

    :meth:`deposit` / :meth:`consume` are the checked public surface.  The run
    loops use :meth:`put` and :meth:`take`, which skip the checks their
    callers have already made (ports come from the graph's validated edges,
    entries from :attr:`ready_set`), and read :attr:`ready_set` directly.
    """

    def __init__(self, graph: DataflowGraph) -> None:
        self.graph = graph
        # node id -> its input ports, in positional order (resolved once).
        self._ports: Dict[str, Tuple[str, ...]] = {
            node.node_id: tuple(node.input_ports()) for node in graph.nodes
        }
        self._arity: Dict[str, int] = {node_id: len(p) for node_id, p in self._ports.items()}
        #: (node id, tag) -> [non-empty port count, {port: FIFO of values}].
        self._waiting: Dict[ReadyEntry, List[Any]] = {}
        #: The live set of entries whose firing rule holds.  Read it, never
        #: mutate it: deposits and consumes keep it current.
        self.ready_set: Set[ReadyEntry] = set()

    # -- deposits -----------------------------------------------------------------
    def deposit(self, node_id: str, port: str, token: Token) -> None:
        """Deliver ``token`` to ``node_id``'s input ``port``."""
        ports = self._ports.get(node_id)
        if ports is None:
            self.graph.node(node_id)  # raises GraphError for an unknown node
        if port not in (ports or ()):
            raise ValueError(f"node {node_id!r} has no input port {port!r}")
        self.put(node_id, port, token.value, token.tag)

    def put(self, node_id: str, port: str, value: Any, tag: int) -> None:
        """Deposit ``value`` at ``tag`` without a :class:`Token` or a port check.

        ``port`` must be one of ``node_id``'s input ports and ``tag`` a
        non-negative int (:meth:`put_checked` validates the tag).
        """
        key = (node_id, tag)
        entry = self._waiting.get(key)
        if entry is None:
            self._waiting[key] = [1, {port: deque((value,))}]
            if self._arity[node_id] == 1:
                self.ready_set.add(key)
            return
        queues = entry[1]
        queue = queues.get(port)
        if queue:
            queue.append(value)
            return
        if queue is None:
            queues[port] = deque((value,))
        else:
            queue.append(value)
        entry[0] += 1
        if entry[0] == self._arity[node_id]:
            self.ready_set.add(key)

    def put_checked(self, node_id: str, port: str, value: Any, tag: int) -> None:
        """:meth:`put` after validating ``tag`` as a :class:`Token` would."""
        Token(value, tag)
        self.put(node_id, port, value, tag)

    # -- readiness ------------------------------------------------------------------
    def ready(self) -> List[ReadyEntry]:
        """The (node, tag) pairs whose firing rule is satisfied, sorted."""
        return sorted(self.ready_set)

    def has_ready(self) -> bool:
        """True when at least one (node, tag) pair can fire."""
        return bool(self.ready_set)

    def is_ready(self, node_id: str, tag: int) -> bool:
        """True when ``node_id`` holds an operand on every input port at ``tag``."""
        return (node_id, tag) in self.ready_set

    # -- consumption ------------------------------------------------------------------
    def consume(self, node_id: str, tag: int) -> Dict[str, object]:
        """Pop one operand per input port for ``(node_id, tag)``.

        Returns the mapping ``port -> value`` the node fires with.  Raises
        ``KeyError`` if the entry is not ready.
        """
        key = (node_id, tag)
        if key not in self.ready_set:
            raise KeyError(f"({node_id!r}, tag={tag}) is not ready")
        return self.take(key)

    def take(self, key: ReadyEntry) -> Dict[str, Any]:
        """:meth:`consume` for an entry known to be in :attr:`ready_set`."""
        entry = self._waiting[key]
        queues = entry[1]
        inputs: Dict[str, Any] = {}
        emptied = 0
        for port in self._ports[key[0]]:
            queue = queues[port]
            inputs[port] = queue.popleft()
            if not queue:
                emptied += 1
        if emptied:
            # Every port was non-empty before; one that drained ends readiness.
            self.ready_set.discard(key)
            entry[0] -= emptied
            if not entry[0]:
                del self._waiting[key]
        return inputs

    # -- inspection -----------------------------------------------------------------
    def pending_tokens(self) -> int:
        """Number of operands currently waiting (unmatched or partially matched)."""
        return sum(len(q) for entry in self._waiting.values() for q in entry[1].values())

    def waiting_tags(self, node_id: str) -> List[int]:
        """Tags for which ``node_id`` holds at least one operand."""
        return sorted(tag for (nid, tag) in self._waiting if nid == node_id)

    def snapshot(self) -> Dict[ReadyEntry, Dict[str, List]]:
        """A copy of the waiting store (for debugging and tests)."""
        return {
            key: {port: list(queue) for port, queue in entry[1].items()}
            for key, entry in self._waiting.items()
        }
