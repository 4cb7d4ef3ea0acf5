"""Edge coverage accumulation and frontier-branch classification.

A node is visited once any recorded edge touches it.  A frontier branch is a
visited guard node with at least one unexercised outgoing edge; those are the
only places where new coverage can be unlocked next, so they form the
scheduler's control space.  ``CoverageMap`` maintains the frontier
incrementally while traces are absorbed.
"""

from __future__ import annotations

from .target import ExecutionTrace, GuardProgram

__all__ = ["CoverageMap"]


class CoverageMap:
    """Monotone record of exercised edges for one program, and its frontier.

    Edge ``2 * n`` is node ``n``'s taken edge and ``2 * n + 1`` its not-taken
    edge, so ``edge >> 1`` is an edge's source node and ``edge ^ 1`` its
    sibling.  A walk steps through every guard it enters, so a guard is
    visited exactly when one of its edges is hit, and ``frontier`` is the set
    of guards with exactly one edge hit.
    """

    def __init__(self, program: GuardProgram):
        self.program = program
        self.edge_hits: set[int] = set()
        self.frontier: set[int] = set()

    @property
    def complete(self) -> bool:
        """True once every edge of the program has been exercised."""
        return len(self.edge_hits) == self.program.total_edges

    def absorb_trace(self, trace: ExecutionTrace) -> int:
        """Fold one trace into the map; returns the number of new edges."""
        all_edges = self.program.all_edges
        edge_hits = self.edge_hits
        frontier = self.frontier
        new_edges = 0
        for edge in trace.edges:
            if edge in edge_hits:
                continue
            if edge not in all_edges:
                raise ValueError(f"unknown edge id {edge}")
            edge_hits.add(edge)
            new_edges += 1
            if edge ^ 1 in edge_hits:
                frontier.discard(edge >> 1)
            else:
                frontier.add(edge >> 1)
        return new_edges
