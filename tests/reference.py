"""Reference oracles the tests check the engine against.

None of these is on a fuzzing run's path: each restates, from the
definitions, a fact the engine keeps another way, so that a test can compare
the two.

* ``holds``, ``distance`` and ``string_distance`` validate raw comparison
  feedback and apply its distance row; a harness observation is already the
  key they compute.
* ``guard_ids``, ``edge_endpoints`` and ``recompute_frontier`` derive the
  frontier from scratch from a coverage map's hit edges; ``CoverageMap``
  keeps it incrementally.
* ``convexity_probe`` and ``ConvexityStats`` check a branch's distance for
  midpoint convexity over an input pair on a real harness.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field

from frontierfuzz.coverage import CoverageMap
from frontierfuzz.distance import observation_distance, row_function
from frontierfuzz.target import GuardKind, GuardProgram, Harness, Relation


def holds(relation: Relation, value: int) -> bool:
    """Whether ``value R 0`` is true for the relation, by the ``operator``
    function its value names."""
    return getattr(operator, relation.value)(value, 0)


def distance(outcome: bool, relation: Relation, f: int) -> int:
    """Row value of a consistent (outcome, relation, f) observation."""
    if holds(relation, f) != outcome:
        raise ValueError(
            f"inconsistent observation: outcome={outcome} but f={f} under {relation.value}"
        )
    return row_function(outcome, relation)(f)


def string_distance(outcome: bool, relation: Relation,
                    byte_diffs) -> tuple[int, tuple[int, ...]]:
    """``(L1, values)`` key of a string comparison: the scalar rule applied
    to each compared position."""
    diffs = tuple(byte_diffs)
    if not diffs:
        raise ValueError("byte_diffs must be nonempty")
    row = row_function(outcome, relation)
    values = tuple(row(f) for f in diffs)
    return sum(abs(v) for v in values), values


def guard_ids(program: GuardProgram) -> frozenset[int]:
    """The ids of the program's guard nodes: every node but the bug markers."""
    return frozenset(n.node_id for n in program.nodes if n.kind is not GuardKind.BUG)


def edge_endpoints(program: GuardProgram, edge_id: int) -> tuple[int, int | None]:
    """(source node, destination node or None for a terminal edge)."""
    if edge_id not in program.all_edges:
        raise ValueError(f"unknown edge id {edge_id}")
    node = program.nodes[edge_id >> 1]
    return node.node_id, (node.taken if edge_id % 2 == 0 else node.nottaken)


def recompute_frontier(cov: CoverageMap) -> frozenset[int]:
    """Frontier derived from scratch: visited guard nodes missing an edge,
    where a node is visited once a hit edge starts or ends at it."""
    program = cov.program
    hits = cov.edge_hits
    visited = {nid for edge in hits for nid in edge_endpoints(program, edge)}
    return frozenset(
        nid
        for nid in guard_ids(program)
        if nid in visited and (2 * nid not in hits or 2 * nid + 1 not in hits)
    )


@dataclass
class ConvexityStats:
    """Per-site tallies of midpoint probes: passes / fails / non-probes."""

    passes: dict[int, int] = field(default_factory=dict)
    fails: dict[int, int] = field(default_factory=dict)
    non_probes: dict[int, int] = field(default_factory=dict)

    def ratio(self, site: int) -> float:
        p = self.passes.get(site, 0)
        f = self.fails.get(site, 0)
        return p / (p + f) if p + f else 0.0

    def _bump(self, bucket: dict[int, int], site: int) -> None:
        bucket[site] = bucket.get(site, 0) + 1


def convexity_probe(harness: Harness, site: int, x1: bytes, x2: bytes,
                    stats: ConvexityStats | None = None) -> bool | None:
    """Midpoint convexity check for one branch and one input pair.

    Executes both inputs and their byte-wise floor midpoint with the site
    active; passes when the midpoint's distance is at most the average of the
    endpoint distances (L1 for vectors, compared exactly).  Returns None when
    any of the three runs misses the site (a non-probe).
    """
    if len(x1) != len(x2):
        raise ValueError("convexity probe requires equal-length inputs")
    saved = set(harness.active_sites)
    harness.set_active_sites({site})
    try:
        midpoint = bytes((a + b) // 2 for a, b in zip(x1, x2))
        values = []
        for data in (x1, x2, midpoint):
            key = harness.execute(data).observations.get(site)
            if key is None:
                if stats is not None:
                    stats._bump(stats.non_probes, site)
                return None
            values.append(observation_distance(key))
        d1, d2, dm = values[0], values[1], values[2]
        passed = 2 * dm <= d1 + d2
        if stats is not None:
            stats._bump(stats.passes if passed else stats.fails, site)
        return passed
    finally:
        harness.set_active_sites(saved)
