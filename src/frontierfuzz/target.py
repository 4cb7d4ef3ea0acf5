"""Guard-tree target programs and the in-process execution harness.

A target is a small tree (or DAG) of comparison guards compiled from a JSON
document.  Executing an input walks the guards from the entry node: each guard
reads an operand window out of the input, compares it against a constant, and
transfers control along its taken or not-taken edge.  The walk records the
exercised edges plus, for explicitly activated guard sites, a site-keyed map
of comparison feedback (outcome, operand difference or per-byte differences)
and the branch distance as an order key, the one map every layer reads as is.

Each guard is compiled once per program into a step function with its
operands bound in; integer operands are read through ``struct`` readers built
at import.  A harness swaps in an observing step, which also applies the
guard's distance row, for each active site.  An input shorter than the
furthest operand window is zero-extended up to it before the walk; loading
rejects a window that ends past ``MAX_WINDOW_END`` bytes.

Edge ids are fixed as ``2 * node_id`` for the taken edge and
``2 * node_id + 1`` for the not-taken edge.
"""

from __future__ import annotations

import base64
import json
import operator
import struct
import time
from dataclasses import dataclass
from enum import Enum
from functools import reduce
from typing import NamedTuple

__all__ = [
    "DocumentError",
    "MAX_WINDOW_END",
    "Relation",
    "GuardKind",
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

    # Members are singletons: hash by identity in C, not by name in Python.
    __hash__ = object.__hash__

    def holds(self, value: int) -> bool:
        """Whether ``value R 0`` is true for this relation."""
        return _OPS[self](value, 0)


_OPS = {
    Relation.LT: operator.lt,
    Relation.LE: operator.le,
    Relation.GT: operator.gt,
    Relation.GE: operator.ge,
    Relation.EQ: operator.eq,
    Relation.NE: operator.ne,
}


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


class BranchObservation(NamedTuple):
    """Comparison feedback of one active guard site, stored under the site.

    Integer and xor guards report the signed operand difference ``f_value``;
    string guards report signed per-byte differences over the zero-padded
    comparison window instead, one per compared position.  ``key`` is the
    branch distance, the only one the engine keeps, as an order key: the row
    value for a scalar, ``(L1, values)`` for a vector.  The relation is the
    site's ``GuardNode``'s.
    """

    outcome: bool
    f_value: int | None
    byte_diffs: tuple[int, ...] | None
    key: int | tuple[int, tuple[int, ...]]


class ExecutionTrace(NamedTuple):
    """Record of one input execution: exercised edges in path order, active
    sites' observations keyed by site in path order (the walk is acyclic, so
    each at most once), execution time in nanoseconds, and any bug hits."""

    edges: tuple[int, ...]
    observations: dict[int, BranchObservation]
    exec_time: int
    bug_hits: tuple[int, ...] = ()


# Distance rows keyed by (outcome, relation): how far the operand difference f
# is from flipping the comparison.  Pairs sharing a formula share a function.
_ROWS = {
    (False, Relation.LT): lambda f: f - 1,
    (True, Relation.GE): lambda f: f - 1,
    (False, Relation.LE): lambda f: f,
    (True, Relation.GT): lambda f: f,
    (False, Relation.GT): lambda f: 1 - f,
    (True, Relation.LE): lambda f: 1 - f,
    (False, Relation.GE): lambda f: -f,
    (True, Relation.LT): lambda f: -f,
    (False, Relation.EQ): lambda f: abs(f),
    (True, Relation.NE): lambda f: abs(f),
    (False, Relation.NE): lambda f: 1 - abs(f),
    (True, Relation.EQ): lambda f: 1 - abs(f),
}

# Integer operand readers keyed by (endian, width, signed): ``read(data, off)[0]``.
_READERS = {
    (endian, width, signed): struct.Struct(prefix + (code.lower() if signed else code)).unpack_from
    for endian, prefix in (("le", "<"), ("be", ">"))
    for width, code in ((1, "B"), (2, "H"), (4, "I"), (8, "Q"))
    for signed in (False, True)
}

# Step functions.  ``step(data, edges, obs)`` evaluates one guard on ``data``
# (already zero-extended past every operand window, so no read comes up short),
# appends the edge it takes to ``edges`` (an observing step also sets ``obs[site]``,
# with the distance key from its bound rows ``rt``/``rf``) and returns the next node
# id, or None at a terminal edge.  Operands are bound as default arguments: closures
# over cells made loading a program slower.  Observing steps use ``tuple.__new__``,
# skipping the NamedTuple's Python-level ``__new__``.


def _int_step(n: GuardNode, observe: bool):
    off, signed, const = n.offset, n.signed, n.constant
    read = _READERS[n.endian, n.size, signed]
    cmp, tk, ntk = _OPS[n.relation], n.taken, n.nottaken
    te, ne = 2 * n.node_id, 2 * n.node_id + 1
    if observe:
        def step(data, edges, obs, off=off, read=read, const=const, cmp=cmp, te=te, ne=ne,
                 tk=tk, ntk=ntk, site=n.node_id, rt=_ROWS[True, n.relation],
                 rf=_ROWS[False, n.relation], new=tuple.__new__, cls=BranchObservation):
            f = read(data, off)[0] - const
            outcome = cmp(f, 0)
            edges.append(te if outcome else ne)
            obs[site] = new(cls, (outcome, f, None, (rt if outcome else rf)(f)))
            return tk if outcome else ntk
    elif n.size == 1 and not signed:
        def step(data, edges, obs, off=off, const=const, cmp=cmp, te=te, ne=ne, tk=tk, ntk=ntk):
            if cmp(data[off], const):
                edges.append(te)
                return tk
            edges.append(ne)
            return ntk
    else:
        def step(data, edges, obs, off=off, read=read, const=const, cmp=cmp, te=te, ne=ne,
                 tk=tk, ntk=ntk):
            if cmp(read(data, off)[0], const):
                edges.append(te)
                return tk
            edges.append(ne)
            return ntk
    return step


def _str_step(n: GuardNode, observe: bool):
    # Window and constant are both zero-padded to the longer of the two and
    # compared as byte strings.
    cmplen = max(n.size, len(n.constant))
    off, end, pad = n.offset, n.offset + n.size, bytes(cmplen - n.size)
    const = n.constant.ljust(cmplen, b"\0")
    cmp, tk, ntk = _OPS[n.relation], n.taken, n.nottaken
    te, ne = 2 * n.node_id, 2 * n.node_id + 1
    if observe:
        def step(data, edges, obs, off=off, end=end, pad=pad, const=const, cmp=cmp,
                 te=te, ne=ne, tk=tk, ntk=ntk, site=n.node_id, rt=_ROWS[True, n.relation],
                 rf=_ROWS[False, n.relation], sub=operator.sub, new=tuple.__new__,
                 cls=BranchObservation):
            window = data[off:end] + pad
            outcome = cmp(window, const)
            edges.append(te if outcome else ne)
            diffs = tuple(map(sub, window, const))
            values = tuple(map(rt if outcome else rf, diffs))
            obs[site] = new(cls, (outcome, None, diffs, (sum(map(abs, values)), values)))
            return tk if outcome else ntk
    else:
        def step(data, edges, obs, off=off, end=end, pad=pad, const=const, cmp=cmp,
                 te=te, ne=ne, tk=tk, ntk=ntk):
            if cmp(data[off:end] + pad, const):
                edges.append(te)
                return tk
            edges.append(ne)
            return ntk
    return step


def _xor_step(n: GuardNode, observe: bool):
    off, end, const = n.offset, n.offset + n.size, n.constant
    cmp, tk, ntk = _OPS[n.relation], n.taken, n.nottaken
    te, ne = 2 * n.node_id, 2 * n.node_id + 1
    if observe:
        def step(data, edges, obs, off=off, end=end, const=const, cmp=cmp, te=te, ne=ne,
                 tk=tk, ntk=ntk, site=n.node_id, rt=_ROWS[True, n.relation],
                 rf=_ROWS[False, n.relation], xor=operator.xor, new=tuple.__new__,
                 cls=BranchObservation):
            f = reduce(xor, data[off:end], 0) - const
            outcome = cmp(f, 0)
            edges.append(te if outcome else ne)
            obs[site] = new(cls, (outcome, f, None, (rt if outcome else rf)(f)))
            return tk if outcome else ntk
    else:
        def step(data, edges, obs, off=off, end=end, const=const, cmp=cmp, te=te, ne=ne,
                 tk=tk, ntk=ntk, xor=operator.xor):
            if cmp(reduce(xor, data[off:end], 0), const):
                edges.append(te)
                return tk
            edges.append(ne)
            return ntk
    return step


_STEP_FACTORIES = {GuardKind.INT: _int_step, GuardKind.STR: _str_step, GuardKind.XOR: _xor_step}


def _step(node: GuardNode, observe: bool):
    """The step function of ``node``; None for a bug node."""
    if node.kind is GuardKind.BUG:
        return None
    return _STEP_FACTORIES[node.kind](node, observe)


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
        # Ids are dense and ordered (``program_from_dict`` checks), so a node's
        # id is its index.
        self._steps = [_step(n, observe=False) for n in self.nodes]
        # Inputs are zero-extended to here: the furthest operand window end.
        self._window_end = max(
            (n.offset + n.size for n in self.nodes if n.kind is not GuardKind.BUG), default=0
        )

    def node(self, node_id: int) -> GuardNode:
        return self.nodes[node_id]

    def edge_endpoints(self, edge_id: int) -> tuple[int, int | None]:
        """(source node, destination node or None for a terminal edge)."""
        if edge_id not in self.all_edges:
            raise ValueError(f"unknown edge id {edge_id}")
        node = self.nodes[edge_id >> 1]
        return node.node_id, (node.taken if edge_id % 2 == 0 else node.nottaken)

    @property
    def total_edges(self) -> int:
        return len(self.all_edges)


class Harness:
    """Mutable execution handle over a shared :class:`GuardProgram`.

    The active-site switch controls which guard sites emit observations;
    distinct handles over the same program are independent.
    """

    def __init__(self, program: GuardProgram, synthetic_time: bool = False):
        self.program = program
        self.synthetic_time = synthetic_time
        self._active: frozenset[int] = frozenset()
        # The program's steps, with the observing step of each active site.
        self._steps = program._steps
        self._observing: dict[int, object] = {}

    @property
    def active_sites(self) -> frozenset[int]:
        return self._active

    def set_active_sites(self, sites) -> None:
        sites = frozenset(sites)
        program = self.program
        unknown = sites - program.node_ids
        if unknown:
            raise ValueError(f"unknown node ids in active set: {sorted(unknown)}")
        steps = list(program._steps)
        observing = self._observing
        for nid in sites & program.guard_ids:
            step = observing.get(nid)
            if step is None:
                step = observing[nid] = _step(program.node(nid), observe=True)
            steps[nid] = step
        self._active = sites
        self._steps = steps

    def execute(self, data: bytes) -> ExecutionTrace:
        program = self.program
        if len(data) > program.max_input_len:
            raise ValueError(
                f"input length {len(data)} exceeds max_input_len {program.max_input_len}"
            )
        synthetic = self.synthetic_time
        t0 = 0 if synthetic else time.perf_counter_ns()
        data = data.ljust(program._window_end, b"\0")
        steps = self._steps
        edges: list[int] = []
        observations: dict[int, BranchObservation] = {}
        bug_hits: tuple[int, ...] = ()
        nid = program.entry
        while nid is not None:
            step = steps[nid]
            if step is None:
                bug_hits = (nid,)
                break
            nid = step(data, edges, observations)
        # At least 1 ns: a zero reading would divide by zero in the scheduler's clocks.
        exec_time = 1 if synthetic else max(1, time.perf_counter_ns() - t0)
        return ExecutionTrace(tuple(edges), observations, exec_time, bug_hits)


_VALID_INT_WIDTHS = (1, 2, 4, 8)
# Inputs are zero-extended to the furthest operand window end: bound it.
MAX_WINDOW_END = 1 << 24
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
        if offset + size > MAX_WINDOW_END:
            raise DocumentError(f"{ref}: operand window ends past the {MAX_WINDOW_END}-byte limit")
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
    except RecursionError:
        raise DocumentError("document nests too deeply to parse") from None
    return program_from_dict(doc)
