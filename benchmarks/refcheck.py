"""Reference evaluator and output check for benchmark campaigns.

The evaluator walks a target document's decoded JSON directly.  It shares
no code with ``frontierfuzz.target`` (no ``GuardProgram``, no ``Harness``),
so replaying a campaign's outputs through it checks the engine against an
independent reading of the document format.
"""

from __future__ import annotations

import base64
import json
import operator

_RELATIONS = {
    "lt": operator.lt,
    "le": operator.le,
    "gt": operator.gt,
    "ge": operator.ge,
    "eq": operator.eq,
    "ne": operator.ne,
}


def guard_outcome(node: dict, data: bytes, constant=None) -> bool:
    """Whether the guard ``node`` takes its taken edge on ``data``.

    Windows that run past the end of ``data`` read as zero bytes.  A string
    guard compares its window and its constant, both zero-padded to the
    longer of the two, as byte strings; integer and xor guards compare
    numbers.  ``constant`` may carry an already decoded string constant.
    """
    kind = node["kind"]
    offset = node["offset"]
    if kind == "int":
        width = node["width"]
        window = data[offset:offset + width].ljust(width, b"\0")
        order = "little" if node["endian"] == "le" else "big"
        lhs = int.from_bytes(window, order, signed=node["signed"])
        rhs = node["constant"]
    elif kind == "xor":
        lhs = 0
        for byte in data[offset:offset + node["length"]]:
            lhs ^= byte
        rhs = node["constant"]
    elif kind == "str":
        if constant is None:
            constant = base64.b64decode(node["constant"])
        length = node["length"]
        padded = max(length, len(constant))
        lhs = data[offset:offset + length].ljust(padded, b"\0")
        rhs = constant.ljust(padded, b"\0")
    else:
        raise ValueError(f"node {node['id']}: kind {kind!r} is not a guard")
    return _RELATIONS[node["relation"]](lhs, rhs)


class Reference:
    """Executes inputs on one target document."""

    def __init__(self, document: bytes):
        doc = json.loads(document)
        self.entry = doc["entry"]
        self.nodes = {node["id"]: node for node in doc["nodes"]}
        self.total_edges = 2 * sum(1 for n in doc["nodes"] if n["kind"] != "bug")
        self._strings = {
            nid: base64.b64decode(n["constant"])
            for nid, n in self.nodes.items() if n["kind"] == "str"
        }

    def run(self, data: bytes) -> tuple[list[int], int | None]:
        """Edges exercised by ``data`` in path order, and the bug node it
        stops at (None when the walk leaves the program normally)."""
        edges = []
        nid = self.entry
        while nid is not None:
            node = self.nodes[nid]
            if node["kind"] == "bug":
                return edges, nid
            taken = guard_outcome(node, data, self._strings.get(nid))
            edges.append(2 * nid if taken else 2 * nid + 1)
            nid = node.get("taken") if taken else node.get("nottaken")
        return edges, None


def check_campaign(ref: Reference, campaign) -> tuple[list[str], set[int]]:
    """Replay a finished campaign's outputs through the reference.

    Returns the list of problems found (empty when the outputs are right)
    and the set of bug nodes its findings reach.
    """
    problems = []
    covered: set[int] = set()
    for entry in campaign.corpus.entries:
        edges = set(ref.run(entry.data)[0])
        # Every coverage-increasing execution enters the corpus, so the
        # edges covered before an entry are those of the entries before it.
        if entry.new_edges != edges - covered:
            problems.append(
                f"corpus entry {entry.exec_index}: recorded new edges "
                f"{sorted(entry.new_edges)}, replay gives {sorted(edges - covered)}"
            )
        covered |= edges
    for seed in campaign.seeds:
        covered |= set(ref.run(seed)[0])
    if covered != campaign.coverage.edge_hits:
        problems.append(
            f"corpus and seeds replay to {len(covered)} edges, "
            f"coverage map holds {len(campaign.coverage.edge_hits)}"
        )
    final = campaign.log.records[-1].edges_covered
    if final != len(campaign.coverage.edge_hits):
        problems.append(
            f"final log record has {final} edges, "
            f"coverage map holds {len(campaign.coverage.edge_hits)}"
        )
    bugs: set[int] = set()
    for exec_index, data in campaign.findings:
        bug = ref.run(data)[1]
        if bug is None:
            problems.append(f"finding {exec_index} reaches no bug node")
        else:
            bugs.add(bug)
    return problems, bugs
