"""Guard-tree target programs and the in-process execution harness.

A target is a small tree (or DAG) of comparison guards compiled from a JSON
document.  Executing an input walks the guards from the entry node: each guard
reads an operand window out of the input, compares it against a constant, and
transfers control along its taken or not-taken edge.  The walk records the
exercised edges plus, for explicitly activated guard sites, a site-keyed map
of branch distances as order keys, the one map every layer reads as is; the
root solvers recompute the raw feedback behind a key with ``guard_feedback``.

Each guard is compiled once per program into a step function with its
operands bound in; integer operands are read through ``struct`` readers built
at import.  A harness swaps in an observing step, which also applies the
guard's distance row, for each active site.  An input shorter than the
furthest operand window is zero-extended up to it before the walk; loading
rejects a window that ends past ``MAX_WINDOW_END`` bytes.

Loading checks and builds each node in one pass over its fields, in a fixed
order, so a document with several faults always reports the same first one;
the cycle check runs only when some child id is not above its parent's.
Edge ids are fixed as ``2 * node_id`` for the taken edge and
``2 * node_id + 1`` for the not-taken edge.
"""

from __future__ import annotations

import base64
import json
import operator
import struct
import time
from collections.abc import Iterable
from enum import Enum
from functools import reduce
from typing import NamedTuple

__all__ = [
    "DocumentError",
    "MAX_WINDOW_END",
    "Relation",
    "GuardKind",
    "GuardProgram",
    "ExecutionTrace",
    "Harness",
    "guard_feedback",
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


# Each relation's value names its comparison in ``operator``.
_OPS = {r: getattr(operator, r.value) for r in Relation}


class GuardKind(Enum):
    INT = "int"
    STR = "str"
    XOR = "xor"
    BUG = "bug"

    __hash__ = object.__hash__


class GuardNode(NamedTuple):
    """One comparison guard (or terminal bug marker) in a target program.

    ``size`` is the operand width in bytes for integer guards and the input
    window length for string and xor guards.  ``constant`` is an int for
    integer/xor guards and a byte string for string guards.  The loader
    builds nodes with ``tuple.__new__``.
    """

    node_id: int
    kind: GuardKind
    offset: int
    size: int
    endian: str
    signed: bool
    relation: Relation | None
    constant: int | bytes | None
    taken: int | None
    nottaken: int | None


class ExecutionTrace(NamedTuple):
    """Record of one input execution: exercised edges in path order, active
    sites' distance order keys (see ``distance``) by site in path order (the
    walk is acyclic, so each at most once), exec time in ns, and bug hits."""

    edges: tuple[int, ...]
    observations: dict[int, int | tuple[int, tuple[int, ...]]]
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
# appends the edge it takes to ``edges`` (an observing step also sets ``obs[site]``
# to the distance key from its bound rows ``rt``/``rf``) and returns the next node
# id, or None at a terminal edge.  Operands are bound as default arguments: closures
# over cells made loading a program slower.


def _int_step(n: GuardNode, observe: bool):
    nid, _, off, size, endian, signed, rel, const, tk, ntk = n
    read = _READERS[endian, size, signed]
    cmp, te, ne = _OPS[rel], 2 * nid, 2 * nid + 1
    if observe:
        def step(data, edges, obs, off=off, read=read, const=const, cmp=cmp, te=te, ne=ne,
                 tk=tk, ntk=ntk, site=nid, rt=_ROWS[True, rel], rf=_ROWS[False, rel]):
            f = read(data, off)[0] - const
            outcome = cmp(f, 0)
            edges.append(te if outcome else ne)
            obs[site] = (rt if outcome else rf)(f)
            return tk if outcome else ntk
    elif size == 1 and not signed:
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
    nid, _, off, size, _, _, rel, const, tk, ntk = n
    cmplen = max(size, len(const))
    end, pad, const = off + size, bytes(cmplen - size), const.ljust(cmplen, b"\0")
    cmp, te, ne = _OPS[rel], 2 * nid, 2 * nid + 1
    if observe:
        def step(data, edges, obs, off=off, end=end, pad=pad, const=const, cmp=cmp,
                 te=te, ne=ne, tk=tk, ntk=ntk, site=nid, rt=_ROWS[True, rel],
                 rf=_ROWS[False, rel], sub=operator.sub):
            window = data[off:end] + pad
            outcome = cmp(window, const)
            edges.append(te if outcome else ne)
            values = tuple(map(rt if outcome else rf, map(sub, window, const)))
            obs[site] = (sum(map(abs, values)), values)
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
    nid, _, off, size, _, _, rel, const, tk, ntk = n
    end, cmp, te, ne = off + size, _OPS[rel], 2 * nid, 2 * nid + 1
    if observe:
        def step(data, edges, obs, off=off, end=end, const=const, cmp=cmp, te=te, ne=ne,
                 tk=tk, ntk=ntk, site=nid, rt=_ROWS[True, rel], rf=_ROWS[False, rel],
                 xor=operator.xor):
            f = reduce(xor, data[off:end], 0) - const
            outcome = cmp(f, 0)
            edges.append(te if outcome else ne)
            obs[site] = (rt if outcome else rf)(f)
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


# A guard kind's step factory, ``factory(node, observe)``; bug nodes have none.
_STEP_FACTORIES = {GuardKind.INT: _int_step, GuardKind.STR: _str_step, GuardKind.XOR: _xor_step}


def guard_feedback(node: GuardNode, data: bytes):
    """The raw comparison feedback of guard ``node`` on ``data``, zero-extended
    as the walk does: ``(outcome, f)`` with the signed operand difference for
    an integer or xor guard, ``(outcome, diffs)`` with the signed per-byte
    differences over the zero-padded window for a string guard."""
    kind, off, size, const = node.kind, node.offset, node.size, node.constant
    window, cmp = data[off:off + size].ljust(size, b"\0"), _OPS[node.relation]
    if kind is GuardKind.STR:
        window, const = window.ljust(len(const), b"\0"), const.ljust(size, b"\0")
        return cmp(window, const), tuple(map(operator.sub, window, const))
    if kind is GuardKind.INT:
        f = _READERS[node.endian, size, node.signed](window, 0)[0] - const
    else:
        f = reduce(operator.xor, window, 0) - const
    return cmp(f, 0), f


class GuardProgram:
    """Validated, immutable guard-tree program.

    Safe to share between harness handles; all mutable execution state lives
    in :class:`Harness`.
    """

    def __init__(self, nodes: Iterable[GuardNode], entry: int, max_input_len: int):
        # Ids are dense and ordered (``program_from_dict`` checks), so a node's
        # id is its index; a bug node's step is None.
        self.nodes = nodes = tuple(nodes)
        self.entry = entry
        self.max_input_len = max_input_len
        self.node_ids = frozenset(range(len(nodes)))
        self._steps = steps = []
        bugs = []
        # Inputs are zero-extended to here: the furthest operand window end.
        window_end = 0
        factories, BUG = _STEP_FACTORIES, GuardKind.BUG
        for n in nodes:
            if n.kind is BUG:
                bugs.append(n.node_id)
                steps.append(None)
            else:
                steps.append(factories[n.kind](n, False))
                window_end = max(window_end, n.offset + n.size)
        self._window_end = window_end
        # Every guard node owns exactly its two outgoing edge ids.
        self.all_edges = frozenset(range(2 * len(nodes))).difference(
            e for nid in bugs for e in (2 * nid, 2 * nid + 1)
        )

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
        self.active_sites: set[int] = set()  # switch_off changes it in place
        # The program's steps, with the observing step of each active site.
        self._steps = list(program._steps)
        self._observing: dict[int, object] = {}

    def set_active_sites(self, sites) -> None:
        sites = set(sites)
        program = self.program
        unknown = sites - program.node_ids
        if unknown:
            raise ValueError(f"unknown node ids in active set: {sorted(unknown)}")
        # Swap only the sites that enter or leave (a bug node's step stays None).
        plain, steps, observing = program._steps, self._steps, self._observing
        for nid in self.active_sites - sites:
            steps[nid] = plain[nid]
        for nid in sites - self.active_sites:
            if (step := observing.get(nid)) is None and plain[nid] is not None:
                node = program.nodes[nid]
                step = observing[nid] = _STEP_FACTORIES[node.kind](node, True)
            steps[nid] = step
        self.active_sites = sites

    def switch_off(self, sites) -> None:
        """Switch off each of ``sites`` that is active, in O(len(sites))."""
        active, steps, plain = self.active_sites, self._steps, self.program._steps
        for nid in sites:
            if nid in active:
                active.remove(nid)
                steps[nid] = plain[nid]

    def execute(self, data: bytes, new=tuple.__new__, cls=ExecutionTrace) -> ExecutionTrace:
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
        observations: dict = {}
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
        return new(cls, (tuple(edges), observations, exec_time, bug_hits))


_VALID_INT_WIDTHS = (1, 2, 4, 8)
# Inputs are zero-extended to the furthest operand window end: bound it.
MAX_WINDOW_END = 1 << 24
_RELATIONS = {r.value: r for r in Relation}
_KINDS = {k.value: k for k in GuardKind}


def _bad_field(raw: dict, ref: str, name: str):
    """Raise the error for a field that failed its type test: missing or invalid."""
    if raw.get(name) is None:
        raise DocumentError(f"{ref}: missing field '{name}'")
    raise DocumentError(f"{ref}: field '{name}' has invalid type")


def program_from_dict(doc: dict) -> GuardProgram:
    """Build and validate a :class:`GuardProgram` from a decoded document,
    checking each field once, in a fixed order, for exactly its JSON type
    (``true`` is not an int); the first fault found is the one reported."""
    if not isinstance(doc, dict):
        raise DocumentError("document root must be an object")
    if (max_input_len := doc.get("max_input_len")).__class__ is not int:
        _bad_field(doc, "document", "max_input_len")
    if max_input_len < 1:
        raise DocumentError("document: max_input_len must be >= 1")
    if (entry := doc.get("entry")).__class__ is not int:
        _bad_field(doc, "document", "entry")
    if not isinstance(raw_nodes := doc.get("nodes"), list):
        _bad_field(doc, "document", "nodes")
    if not raw_nodes:
        raise DocumentError("document: nodes must be nonempty")

    n = len(raw_nodes)
    nodes: dict[int, GuardNode] = {}
    # Whether every child id lies between its parent's id and n; once the ids
    # are dense, such children all exist and cannot close a cycle.
    forward = True
    new, BUG, INT, XOR = tuple.__new__, GuardKind.BUG, GuardKind.INT, GuardKind.XOR
    for raw in raw_nodes:
        if not isinstance(raw, dict):
            raise DocumentError("document: each node must be an object")
        get = raw.get
        if (nid := get("id")).__class__ is not int:
            _bad_field(raw, "node", "id")
        if nid in nodes:
            raise DocumentError(f"node {nid}: duplicate node id")
        if (token := get("kind")).__class__ is not str:
            _bad_field(raw, f"node {nid}", "kind")
        if (kind := _KINDS.get(token)) is None:
            raise DocumentError(f"node {nid}: unknown kind '{token}'")

        if kind is BUG:
            if get("taken") is not None or get("nottaken") is not None:
                raise DocumentError(f"node {nid}: bug nodes are terminal and take no children")
            nodes[nid] = new(GuardNode, (nid, kind, 0, 1, "le", False, None, None, None, None))
            continue

        if (offset := get("offset")).__class__ is not int:
            _bad_field(raw, f"node {nid}", "offset")
        if offset < 0:
            raise DocumentError(f"node {nid}: offset must be >= 0")
        if (token := get("relation")).__class__ is not str:
            _bad_field(raw, f"node {nid}", "relation")
        if (relation := _RELATIONS.get(token)) is None:
            raise DocumentError(f"node {nid}: unknown relation '{token}'")
        if (taken := get("taken")) is not None and taken.__class__ is not int:
            _bad_field(raw, f"node {nid}", "taken")
        if (nottaken := get("nottaken")) is not None and nottaken.__class__ is not int:
            _bad_field(raw, f"node {nid}", "nottaken")
        if not (taken is None or nid < taken < n) or not (nottaken is None or nid < nottaken < n):
            forward = False

        if kind is INT:
            if (size := get("width")).__class__ is not int:
                _bad_field(raw, f"node {nid}", "width")
            if size not in _VALID_INT_WIDTHS:
                raise DocumentError(f"node {nid}: width must be one of {_VALID_INT_WIDTHS}")
            if (endian := get("endian")).__class__ is not str:
                _bad_field(raw, f"node {nid}", "endian")
            if endian != "le" and endian != "be":
                raise DocumentError(f"node {nid}: endian must be 'le' or 'be'")
            if (signed := get("signed")).__class__ is not bool:
                _bad_field(raw, f"node {nid}", "signed")
            if (constant := get("constant")).__class__ is not int:
                _bad_field(raw, f"node {nid}", "constant")
            bits = 8 * size
            lo, hi = (-(1 << (bits - 1)), (1 << (bits - 1)) - 1) if signed else (0, (1 << bits) - 1)
            if not lo <= constant <= hi:
                raise DocumentError(f"node {nid}: constant {constant} does not fit width {size}")
        else:
            if (size := get("length")).__class__ is not int:
                _bad_field(raw, f"node {nid}", "length")
            if size < 1:
                raise DocumentError(f"node {nid}: length must be >= 1")
            endian, signed = "le", False
            if (constant := get("constant")).__class__ is not (int if kind is XOR else str):
                _bad_field(raw, f"node {nid}", "constant")
            if kind is XOR:
                if not 0 <= constant <= 0xFF:
                    raise DocumentError(f"node {nid}: xor constant must fit one byte")
            else:
                try:
                    constant = base64.b64decode(constant, validate=True)
                except Exception:
                    raise DocumentError(f"node {nid}: constant is not valid base64") from None
                if not constant:
                    raise DocumentError(f"node {nid}: string constant must be nonempty")

        if (end := offset + size) > max_input_len:
            raise DocumentError(f"node {nid}: operand window [{offset}, {end}) exceeds "
                                f"max_input_len {max_input_len}")
        if end > MAX_WINDOW_END:
            raise DocumentError(f"node {nid}: operand window ends past the "
                                f"{MAX_WINDOW_END}-byte limit")
        nodes[nid] = new(GuardNode, (nid, kind, offset, size, endian, signed, relation,
                                     constant, taken, nottaken))

    # The ids are distinct, so they are dense when each lies in 0..n-1.
    if min(nodes) < 0 or max(nodes) >= n:
        raise DocumentError("document: node ids must be dense 0..n-1")
    if not 0 <= entry < n:
        raise DocumentError(f"document: entry {entry} is not a node id")
    if nodes[entry].kind is BUG:
        raise DocumentError("document: entry node may not be a bug node")
    if not forward:
        _check_children(nodes)
    return GuardProgram(map(nodes.__getitem__, range(n)), entry, max_input_len)


def _check_children(nodes: dict[int, GuardNode]) -> None:
    """Reject the first dangling child in document order, then any cycle."""
    n = len(nodes)
    for node in nodes.values():
        for child in (node.taken, node.nottaken):
            if child is not None and not 0 <= child < n:
                raise DocumentError(f"node {node.node_id}: child {child} does not exist")

    # An iterative DFS: a child on the current path (grey) closes a cycle.  A
    # node's other stack entries lie below its done marker, so they pop once
    # it is black; a popped node is never grey.
    WHITE, GREY, BLACK = 0, 1, 2
    color = [WHITE] * n
    for start in range(n):
        if color[start] != WHITE:
            continue
        stack: list[tuple[int, bool]] = [(start, False)]
        while stack:
            nid, done = stack.pop()
            if done:
                color[nid] = BLACK
            elif color[nid] == WHITE:
                color[nid] = GREY
                stack.append((nid, True))
                node = nodes[nid]
                for child in (node.taken, node.nottaken):
                    if child is not None and color[child] == GREY:
                        raise DocumentError(f"node {child}: child references form a cycle")
                    if child is not None and color[child] == WHITE:
                        stack.append((child, False))


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
    except ValueError as exc:
        # CPython's limit on int literal digits (4,300 by default).
        raise DocumentError(f"document cannot be parsed: {exc}") from None
    return program_from_dict(doc)
