"""Edge coverage accumulation and frontier-branch classification.

A node is visited once any recorded edge touches it.  A frontier branch is a
visited guard node with at least one unexercised outgoing edge; those are the
only places where new coverage can be unlocked next, so they form the
scheduler's control space.

``CoverageMap`` maintains the frontier incrementally while traces are
absorbed; :func:`recompute_frontier` derives the same set from scratch as a
pure function of the recorded bits and is used as the oracle for the
incremental path.
"""

from __future__ import annotations

from .target import ExecutionTrace, GuardProgram

__all__ = ["CoverageMap", "recompute_frontier"]


class CoverageMap:
    """Monotone record of exercised edges and visited nodes for one program.

    Edge ``2 * n`` is node ``n``'s taken edge and ``2 * n + 1`` its not-taken
    edge, so ``edge >> 1`` is an edge's source node.  ``frontier`` is
    maintained incrementally and always consistent with the recorded bits.
    """

    def __init__(self, program: GuardProgram):
        self.program = program
        self.edge_hits: set[int] = set()
        self.node_visited: set[int] = set()
        self.frontier: set[int] = set()

    @property
    def complete(self) -> bool:
        """True once every edge of the program has been exercised."""
        return len(self.edge_hits) == self.program.total_edges

    def absorb_trace(self, trace: ExecutionTrace) -> int:
        """Fold one trace into the map; returns the number of new edges."""
        program = self.program
        all_edges = program.all_edges
        edge_hits = self.edge_hits
        visited = self.node_visited
        new_edges = 0
        for edge in trace.edges:
            if edge in edge_hits:
                continue
            if edge not in all_edges:
                raise ValueError(f"unknown edge id {edge}")
            edge_hits.add(edge)
            new_edges += 1
            src = edge // 2
            dst = program.node(src).taken if edge % 2 == 0 else program.node(src).nottaken
            for nid in (src, dst):
                if nid is not None:
                    visited.add(nid)
            self._refresh_node(src)
            if dst is not None and dst in program.guard_ids:
                self._refresh_node(dst)
        return new_edges

    def _refresh_node(self, nid: int) -> None:
        """Re-derive the frontier membership of one visited guard node."""
        if nid not in self.node_visited or nid not in self.program.guard_ids:
            return
        if 2 * nid in self.edge_hits and 2 * nid + 1 in self.edge_hits:
            self.frontier.discard(nid)
        else:
            self.frontier.add(nid)


def recompute_frontier(cov: CoverageMap, program: GuardProgram | None = None) -> frozenset[int]:
    """Frontier derived from scratch: visited guard nodes missing an edge."""
    program = program or cov.program
    hits = cov.edge_hits
    return frozenset(
        nid
        for nid in program.guard_ids
        if nid in cov.node_visited and (2 * nid not in hits or 2 * nid + 1 not in hits)
    )
