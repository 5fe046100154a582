"""Transitive reduction of task graphs (derivation step 5).

The transitive reduction of a DAG is the unique minimal edge set with the
same reachability relation; the derivation uses it to drop redundant
precedence edges (e.g. the ``InputA[1] -> NormA[1]`` edge of Fig. 3, implied
by the path through ``FilterA[1]``).

The implementation processes nodes in reverse topological order and keeps a
reachability bitset per node (Python big-ints as bitsets), giving
``O(V * E / wordsize)`` time — comfortably fast for the paper's graphs
(812 jobs / ~2k edges for the FMS case) and for the 40 s hyperperiod
scalability benchmark (~3.2k jobs).

``networkx.transitive_reduction`` is deliberately **not** used here; it
serves as an independent oracle in the test suite.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Set, Tuple

from .graph import TaskGraph


def reduce_edge_list(n: int, edges: Iterable[Tuple[int, int]]) -> List[Tuple[int, int]]:
    """Transitive reduction of a raw, topologically indexed edge list.

    Nodes are ``0..n-1`` and every edge ``(u, v)`` satisfies ``u < v`` (the
    ``<J`` invariant the derivation guarantees), so the node indices are a
    topological order.  An edge ``(u, v)`` is redundant iff some other
    direct successor ``w`` of ``u`` reaches ``v``; each node's reachability
    set is the union of its successors' sets, computed in one reverse sweep
    over big-int bitsets.

    This is the derivation's step-5 entry point: reducing the integer edge
    list *before* the :class:`TaskGraph` is materialised means only one
    graph (name index, adjacency) is ever built per derivation.
    """
    succ: List[List[int]] = [[] for _ in range(n)]
    for u, v in edges:
        succ[u].append(v)
    reach = _reach_bits(succ)
    kept: List[Tuple[int, int]] = []
    for u in range(n):
        succs = succ[u]
        # Union of what is reachable *through* each direct successor.
        indirect = 0
        for w in succs:
            indirect |= reach[w]
        for v in succs:
            if not (indirect >> v) & 1:
                kept.append((u, v))
    return kept


def _reach_bits(succ: Sequence[Sequence[int]]) -> List[int]:
    """Per node, the bitset of nodes it reaches by a path of length >= 1."""
    reach: List[int] = [0] * len(succ)
    for v in range(len(succ) - 1, -1, -1):
        acc = 0
        for w in succ[v]:
            acc |= (1 << w) | reach[w]
        reach[v] = acc
    return reach


def transitive_reduction(graph: TaskGraph) -> TaskGraph:
    """Return a new :class:`TaskGraph` with redundant edges removed.

    Graph-level wrapper around :func:`reduce_edge_list` (the derivation
    calls the edge-list form directly, before any graph exists).
    """
    return TaskGraph(
        graph.jobs,
        reduce_edge_list(len(graph), graph.edges()),
        graph.hyperperiod,
    )


def transitive_closure_sets(graph: TaskGraph) -> List[Set[int]]:
    """Reachability sets (path length >= 1) for every node.

    Exposed for tests and for schedule-feasibility checking: two schedules
    are order-equivalent iff they agree on the closure, not on the raw edge
    set.
    """
    return [
        {w for w in range(bits.bit_length()) if bits >> w & 1}
        for bits in _reach_bits(graph.successor_table())
    ]
