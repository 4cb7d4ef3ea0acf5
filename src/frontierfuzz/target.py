"""Guard-tree target programs and the in-process execution harness.

A target is a small tree (or DAG) of comparison guards compiled from a JSON
document.  Executing an input walks the guards from the entry node: each guard
reads an operand window out of the input, compares it against a constant, and
transfers control along its taken or not-taken edge.  The walk records the
exercised edges plus, for explicitly activated guard sites, the raw comparison
feedback (outcome, relation, operand difference) that the rest of the engine
consumes.

Edge ids are fixed as ``2 * node_id`` for the taken edge and
``2 * node_id + 1`` for the not-taken edge.
"""

from __future__ import annotations

import base64
import json
import time
from dataclasses import dataclass
from enum import Enum

__all__ = [
    "DocumentError",
    "Relation",
    "GuardKind",
    "GuardNode",
    "GuardProgram",
    "BranchObservation",
    "ExecutionTrace",
    "Harness",
    "load_program",
    "program_from_dict",
]


class DocumentError(ValueError):
    """A target document failed to parse or validate."""


class Relation(Enum):
    """Comparison relation applied to the operand difference against zero."""

    LT = "lt"
    LE = "le"
    GT = "gt"
    GE = "ge"
    EQ = "eq"
    NE = "ne"

    def holds(self, value: int) -> bool:
        """Whether ``value R 0`` is true for this relation."""
        code = _REL_CODE[self]
        return _rel_holds(code, value)


# Integer codes keep the execution loop free of Enum dispatch overhead.
_REL_CODE = {
    Relation.LT: 0,
    Relation.LE: 1,
    Relation.GT: 2,
    Relation.GE: 3,
    Relation.EQ: 4,
    Relation.NE: 5,
}


def _rel_holds(code: int, v: int) -> bool:
    if code == 4:
        return v == 0
    if code == 5:
        return v != 0
    if code == 0:
        return v < 0
    if code == 1:
        return v <= 0
    if code == 2:
        return v > 0
    return v >= 0


class GuardKind(Enum):
    INT = "int"
    STR = "str"
    XOR = "xor"
    BUG = "bug"


@dataclass(frozen=True)
class GuardNode:
    """One comparison guard (or terminal bug marker) in a target program.

    ``size`` is the operand width in bytes for integer guards and the input
    window length for string and xor guards.  ``constant`` is an int for
    integer/xor guards and a byte string for string guards.
    """

    node_id: int
    kind: GuardKind
    offset: int = 0
    size: int = 1
    endian: str = "le"
    signed: bool = False
    relation: Relation | None = None
    constant: int | bytes | None = None
    taken: int | None = None
    nottaken: int | None = None


@dataclass(frozen=True, slots=True)
class BranchObservation:
    """Comparison feedback emitted by one active guard site during a run.

    Integer and xor guards report the signed operand difference ``f_value``;
    string guards report signed per-byte differences over the zero-padded
    comparison window instead.
    """

    site: int
    outcome: bool
    relation: Relation
    f_value: int | None = None
    byte_diffs: tuple[int, ...] | None = None
    compared_length: int | None = None


@dataclass(frozen=True, slots=True)
class ExecutionTrace:
    """Record of one input execution: exercised edges in path order,
    observations for active sites, execution time in nanoseconds, and any
    reached bug nodes."""

    edges: tuple[int, ...]
    observations: tuple[BranchObservation, ...]
    exec_time: int
    bug_hits: tuple[int, ...] = ()


class GuardProgram:
    """Validated, immutable guard-tree program.

    Safe to share between harness handles; all mutable execution state lives
    in :class:`Harness`.
    """

    def __init__(self, nodes: list[GuardNode], entry: int, max_input_len: int):
        self.nodes = list(nodes)
        self.entry = entry
        self.max_input_len = max_input_len
        self.node_ids = frozenset(n.node_id for n in self.nodes)
        self.guard_ids = frozenset(
            n.node_id for n in self.nodes if n.kind is not GuardKind.BUG
        )
        # Every guard node owns exactly its two outgoing edge ids.
        self.all_edges = frozenset(
            e for nid in self.guard_ids for e in (2 * nid, 2 * nid + 1)
        )
        self._by_id = {n.node_id: n for n in self.nodes}
        self._rows = [self._compile(self._by_id[i]) for i in range(len(self.nodes))]

    def node(self, node_id: int) -> GuardNode:
        return self._by_id[node_id]

    def edge_endpoints(self, edge_id: int) -> tuple[int, int | None]:
        """(source node, destination node or None for a terminal edge)."""
        if edge_id not in self.all_edges:
            raise ValueError(f"unknown edge id {edge_id}")
        node = self._by_id[edge_id // 2]
        return node.node_id, (node.taken if edge_id % 2 == 0 else node.nottaken)

    @property
    def total_edges(self) -> int:
        return len(self.all_edges)

    @staticmethod
    def _compile(n: GuardNode):
        kind = {GuardKind.INT: 0, GuardKind.STR: 1, GuardKind.XOR: 2, GuardKind.BUG: 3}[n.kind]
        if kind == 3:
            return (3, 0, 0, "little", False, None, 0, None, None, None, None)
        rel_code = _REL_CODE[n.relation]
        extra = None
        if kind == 1:
            cmplen = max(n.size, len(n.constant))
            extra = (bytes(n.constant).ljust(cmplen, b"\0"), cmplen)
        return (
            kind,
            n.offset,
            n.size,
            "little" if n.endian == "le" else "big",
            n.signed,
            n.constant,
            rel_code,
            n.taken,
            n.nottaken,
            n.relation,
            extra,
        )


class Harness:
    """Mutable execution handle over a shared :class:`GuardProgram`.

    The active-site switch controls which guard sites emit observations;
    distinct handles over the same program are independent.
    """

    def __init__(self, program: GuardProgram, synthetic_time: bool = False):
        self.program = program
        self.synthetic_time = synthetic_time
        self._active: frozenset[int] = frozenset()

    @property
    def active_sites(self) -> frozenset[int]:
        return self._active

    def set_active_sites(self, sites) -> None:
        sites = frozenset(sites)
        unknown = sites - self.program.node_ids
        if unknown:
            raise ValueError(f"unknown node ids in active set: {sorted(unknown)}")
        self._active = sites

    def execute(self, data: bytes) -> ExecutionTrace:
        program = self.program
        if len(data) > program.max_input_len:
            raise ValueError(
                f"input length {len(data)} exceeds max_input_len {program.max_input_len}"
            )
        synthetic = self.synthetic_time
        t0 = 0 if synthetic else time.perf_counter_ns()
        rows = program._rows
        active = self._active
        edges: list[int] = []
        observations: list[BranchObservation] = []
        bug_hits: tuple[int, ...] = ()
        nid = program.entry
        while nid is not None:
            kind, off, size, byteorder, signed, const, rel_code, tk, ntk, rel, extra = rows[nid]
            if kind == 3:
                bug_hits = (nid,)
                break
            chunk = data[off : off + size]
            if len(chunk) < size:
                chunk = chunk.ljust(size, b"\0")
            if kind == 0:
                f = int.from_bytes(chunk, byteorder, signed=signed) - const
                outcome = _rel_holds(rel_code, f)
                diffs = None
                cmplen = None
            elif kind == 1:
                op2, cmplen = extra
                op1 = chunk.ljust(cmplen, b"\0")
                cmp = 0 if op1 == op2 else (-1 if op1 < op2 else 1)
                outcome = _rel_holds(rel_code, cmp)
                f = None
                diffs = tuple(a - b for a, b in zip(op1, op2))
            else:
                x = 0
                for b in chunk:
                    x ^= b
                f = x - const
                outcome = _rel_holds(rel_code, f)
                diffs = None
                cmplen = None
            edges.append(nid + nid if outcome else nid + nid + 1)
            if nid in active:
                observations.append(
                    BranchObservation(
                        site=nid,
                        outcome=outcome,
                        relation=rel,
                        f_value=f,
                        byte_diffs=diffs,
                        compared_length=cmplen,
                    )
                )
            nid = tk if outcome else ntk
        # At least 1 ns: a zero reading would divide by zero in the scheduler's clocks.
        exec_time = 1 if synthetic else max(1, time.perf_counter_ns() - t0)
        return ExecutionTrace(tuple(edges), tuple(observations), exec_time, bug_hits)


_VALID_INT_WIDTHS = (1, 2, 4, 8)
_RELATIONS = {r.value: r for r in Relation}


def _field(raw: dict, node_ref: str, name: str, types, required: bool = True, default=None):
    value = raw.get(name)
    if value is None:
        if required:
            raise DocumentError(f"{node_ref}: missing field '{name}'")
        return default
    if not isinstance(value, types) or (isinstance(value, bool) and types is int):
        raise DocumentError(f"{node_ref}: field '{name}' has invalid type")
    return value


def program_from_dict(doc: dict) -> GuardProgram:
    """Build and validate a :class:`GuardProgram` from a decoded document."""
    if not isinstance(doc, dict):
        raise DocumentError("document root must be an object")
    max_input_len = _field(doc, "document", "max_input_len", int)
    if max_input_len < 1:
        raise DocumentError("document: max_input_len must be >= 1")
    entry = _field(doc, "document", "entry", int)
    raw_nodes = _field(doc, "document", "nodes", list)
    if not raw_nodes:
        raise DocumentError("document: nodes must be nonempty")

    nodes: dict[int, GuardNode] = {}
    for raw in raw_nodes:
        if not isinstance(raw, dict):
            raise DocumentError("document: each node must be an object")
        nid = _field(raw, "node", "id", int)
        ref = f"node {nid}"
        if nid in nodes:
            raise DocumentError(f"{ref}: duplicate node id")
        kind_token = _field(raw, ref, "kind", str)
        try:
            kind = GuardKind(kind_token)
        except ValueError:
            raise DocumentError(f"{ref}: unknown kind '{kind_token}'") from None

        if kind is GuardKind.BUG:
            if raw.get("taken") is not None or raw.get("nottaken") is not None:
                raise DocumentError(f"{ref}: bug nodes are terminal and take no children")
            nodes[nid] = GuardNode(node_id=nid, kind=kind)
            continue

        offset = _field(raw, ref, "offset", int)
        if offset < 0:
            raise DocumentError(f"{ref}: offset must be >= 0")
        relation_token = _field(raw, ref, "relation", str)
        if relation_token not in _RELATIONS:
            raise DocumentError(f"{ref}: unknown relation '{relation_token}'")
        relation = _RELATIONS[relation_token]
        taken = _field(raw, ref, "taken", int, required=False)
        nottaken = _field(raw, ref, "nottaken", int, required=False)

        if kind is GuardKind.INT:
            size = _field(raw, ref, "width", int)
            if size not in _VALID_INT_WIDTHS:
                raise DocumentError(f"{ref}: width must be one of {_VALID_INT_WIDTHS}")
            endian = _field(raw, ref, "endian", str)
            if endian not in ("le", "be"):
                raise DocumentError(f"{ref}: endian must be 'le' or 'be'")
            signed = _field(raw, ref, "signed", bool)
            constant = _field(raw, ref, "constant", int)
            bits = 8 * size
            lo, hi = (-(1 << (bits - 1)), (1 << (bits - 1)) - 1) if signed else (0, (1 << bits) - 1)
            if not lo <= constant <= hi:
                raise DocumentError(f"{ref}: constant {constant} does not fit width {size}")
        elif kind is GuardKind.XOR:
            size = _field(raw, ref, "length", int)
            if size < 1:
                raise DocumentError(f"{ref}: length must be >= 1")
            endian = "le"
            signed = False
            constant = _field(raw, ref, "constant", int)
            if not 0 <= constant <= 0xFF:
                raise DocumentError(f"{ref}: xor constant must fit one byte")
        else:
            size = _field(raw, ref, "length", int)
            if size < 1:
                raise DocumentError(f"{ref}: length must be >= 1")
            endian = "le"
            signed = False
            encoded = _field(raw, ref, "constant", str)
            try:
                constant = base64.b64decode(encoded, validate=True)
            except Exception:
                raise DocumentError(f"{ref}: constant is not valid base64") from None
            if not constant:
                raise DocumentError(f"{ref}: string constant must be nonempty")

        if offset + size > max_input_len:
            raise DocumentError(
                f"{ref}: operand window [{offset}, {offset + size}) exceeds "
                f"max_input_len {max_input_len}"
            )
        nodes[nid] = GuardNode(
            node_id=nid,
            kind=kind,
            offset=offset,
            size=size,
            endian=endian,
            signed=signed,
            relation=relation,
            constant=constant,
            taken=taken,
            nottaken=nottaken,
        )

    ids = set(nodes)
    if ids != set(range(len(nodes))):
        raise DocumentError("document: node ids must be dense 0..n-1")
    if entry not in ids:
        raise DocumentError(f"document: entry {entry} is not a node id")
    if nodes[entry].kind is GuardKind.BUG:
        raise DocumentError("document: entry node may not be a bug node")
    for node in nodes.values():
        for child in (node.taken, node.nottaken):
            if child is not None and child not in ids:
                raise DocumentError(f"node {node.node_id}: child {child} does not exist")

    # Child references must be acyclic.
    WHITE, GREY, BLACK = 0, 1, 2
    color = {nid: WHITE for nid in ids}
    for start in sorted(ids):
        if color[start] != WHITE:
            continue
        stack: list[tuple[int, bool]] = [(start, False)]
        while stack:
            nid, done = stack.pop()
            if done:
                color[nid] = BLACK
                continue
            if color[nid] == BLACK:
                continue
            if color[nid] == GREY:
                raise DocumentError(f"node {nid}: child references form a cycle")
            color[nid] = GREY
            stack.append((nid, True))
            node = nodes[nid]
            for child in (node.taken, node.nottaken):
                if child is None:
                    continue
                if color[child] == GREY:
                    raise DocumentError(f"node {child}: child references form a cycle")
                if color[child] == WHITE:
                    stack.append((child, False))

    ordered = [nodes[i] for i in range(len(nodes))]
    return GuardProgram(ordered, entry, max_input_len)


def load_program(document: bytes) -> GuardProgram:
    """Parse a UTF-8 JSON target document and return a validated program."""
    try:
        doc = json.loads(document.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise DocumentError(f"document is not UTF-8: {exc}") from None
    except json.JSONDecodeError as exc:
        raise DocumentError(f"document is not valid JSON: line {exc.lineno}: {exc.msg}") from None
    return program_from_dict(doc)
