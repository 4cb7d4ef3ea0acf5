"""Guard-tree target programs and the in-process execution harness.

A target is a small tree (or DAG) of comparison guards compiled from a JSON
document.  Executing an input walks the guards from the entry node: each guard
reads an operand window out of the input, compares it against a constant, and
transfers control along its taken or not-taken edge.  The walk records the
exercised edges plus, for explicitly activated guard sites, a site-keyed map
of branch distances as order keys, the one map every layer reads as is.

Each node's step function binds its operands into a template compiled once at
import, one per guard variant, relation and plain or observing step, with the
comparison and the distance row written inline; loading a program compiles
nothing.  Lone bytes and xor windows of up to four bytes are read by indexing
the input, longer xor windows are folded with ``reduce``, and other integer
operands are read through ``struct`` readers built at import.  A harness
copies the program's step list when it is made; its ``switch_on`` builds an
observing step, which also stores the guard's distance key, for each site it
turns on, and ``switch_off`` puts the plain step back.  A string guard's
observing step keeps its last window, key, edge and next node, and reuses them
when the same window comes back, as it mostly does where havoc mutates a long
input around a short window; ``switch_on`` builds a fresh step, so a
site's memo starts empty each time it is turned on, and no two harnesses share
one.  A step returns the next node id, or a negative number where the walk
ends, so the walk loop tests nothing per node.  An input shorter than the
furthest operand window is zero-extended up to it before the walk; loading
rejects a window that ends past ``MAX_WINDOW_END`` bytes.

Loading checks and builds each node in one pass over its fields, in a fixed
order, so a document with several faults always reports the same first one.
Every child id must lie above its parent's and below the node count, so node
ids increase along every path, and dense ids leave no dangling child and no
cycle.  A string guard's constant is zero-padded to its window's length, and
one longer than the window is rejected, so a string step compares the window
as it is.  Edge ids are fixed as ``2 * node_id`` for the taken edge and
``2 * node_id + 1`` for the not-taken edge.
"""

from __future__ import annotations

import binascii
import json
import operator
import struct
import time
from collections.abc import Iterable
from enum import Enum
from functools import reduce
from types import FunctionType
from typing import NamedTuple

__all__ = [
    "DocumentError",
    "MAX_WINDOW_END",
    "Relation",
    "GuardKind",
    "GuardProgram",
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
    integer/xor guards and a byte string of ``size`` bytes for string guards.
    The loader builds nodes with ``tuple.__new__``.
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


# Each relation's comparison, as the symbol its steps are written with.
_SYMBOLS = {Relation.LT: "<", Relation.LE: "<=", Relation.GT: ">", Relation.GE: ">=",
            Relation.EQ: "==", Relation.NE: "!="}

# Distance rows keyed by (outcome, relation): how far the operand difference f
# is from flipping the comparison, as a formula in f.
_FORMULAS = {
    (False, Relation.LT): "f - 1", (True, Relation.GE): "f - 1",
    (False, Relation.LE): "f", (True, Relation.GT): "f",
    (False, Relation.GT): "1 - f", (True, Relation.LE): "1 - f",
    (False, Relation.GE): "-f", (True, Relation.LT): "-f",
    (False, Relation.EQ): "abs(f)", (True, Relation.NE): "abs(f)",
    (False, Relation.NE): "1 - abs(f)", (True, Relation.EQ): "1 - abs(f)",
}

# Each row formula over a string guard's window ``w``, a value per byte, as a
# chain of C-level maps: ``cp1`` holds the constant's bytes plus one, and
# ``ones`` a 1 per byte.
_STRING_ROWS = {
    "f - 1": "map(sub, w, cp1)",
    "f": "map(sub, w, const)",
    "1 - f": "map(sub, cp1, w)",
    "-f": "map(sub, const, w)",
    "abs(f)": "map(abs, map(sub, w, const))",
    "1 - abs(f)": "map(sub, ones, map(abs, map(sub, w, const)))",
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
# to the distance key) and returns the next node id, or -1 at a terminal edge; a
# bug node's step returns ``-2 - node_id``, so the walk ends at any negative id.
#
# Each step is the code of a template built at import, one per (variant,
# relation, observing), with the guard's operands bound in as default arguments:
# closures over cells made loading a program slower, and compiling per program
# cost more than the walks it saved.  A variant is the operand expression and the
# parameters it reads: an int guard reads a lone byte straight (less 256 past
# 127 if signed) and any other operand through a reader; an xor window of up to
# four bytes xors its bytes by index, in parentheses since ``^`` binds looser
# than ``_SCALAR``'s ``-``, and a longer one folds its slice with ``reduce``; a
# string window is compared as its slice, which the loader sized its constant to.
_VARIANTS = {
    "byte": ("data[off]", "off"),
    "sbyte": ("(data[off] ^ 128) - 128", "off"),
    "int": ("read(data, off)[0]", "off, read"),
    "xor2": ("(data[off] ^ data[o1])", "off, o1"),
    "xor3": ("(data[off] ^ data[o1] ^ data[o2])", "off, o1, o2"),
    "xor4": ("(data[off] ^ data[o1] ^ data[o2] ^ data[o3])", "off, o1, o2, o3"),
    "xor": ("reduce(xor, data[off:end], 0)", "off, end"),
    "str": ("data[off:end]", "off, end"),
}
_PLAIN = """def step(data, edges, obs, {params}, const, te, ne, tk, ntk):
    if {operand} {sym} const:
        edges.append(te)
        return tk
    edges.append(ne)
    return ntk"""
_SCALAR = """def step(data, edges, obs, {params}, const, te, ne, tk, ntk, site):
    f = {operand} - const
    if f {sym} 0:
        edges.append(te)
        obs[site] = {rt}
        return tk
    edges.append(ne)
    obs[site] = {rf}
    return ntk"""
# ``memo`` holds the last window seen, its key, edge and next node id; each
# step bound here gets a fresh one, and a repeated window reuses them.
_STRING = """def step(data, edges, obs, off, end, const, te, ne, tk, ntk, site, cp1, ones, memo):
    w = data[off:end]
    if w != memo[0]:
        if w {sym} const:
            values = tuple({rt})
            memo[:] = w, (sum(map(abs, values)), values), te, tk
        else:
            values = tuple({rf})
            memo[:] = w, (sum(map(abs, values)), values), ne, ntk
    _, obs[site], edge, nid = memo
    edges.append(edge)
    return nid"""
_NAMESPACE = {"reduce": reduce, "xor": operator.xor, "sub": operator.sub}


def _templates() -> dict:
    """Every step template's code, keyed by (variant, relation, observing),
    and the bug node's by ``GuardKind.BUG``."""
    def code(source):
        exec(source, _NAMESPACE)
        return _NAMESPACE.pop("step").__code__

    templates = {GuardKind.BUG: code("def step(data, edges, obs, ret):\n    return ret")}
    for rel, sym in _SYMBOLS.items():
        rt, rf = _FORMULAS[True, rel], _FORMULAS[False, rel]
        for variant, (operand, params) in _VARIANTS.items():
            fill = dict(operand=operand, params=params, sym=sym)
            templates[variant, rel, False] = code(_PLAIN.format(**fill))
            if variant == "str":
                rt_w, rf_w = _STRING_ROWS[rt], _STRING_ROWS[rf]
                templates[variant, rel, True] = code(_STRING.format(sym=sym, rt=rt_w, rf=rf_w))
            else:
                templates[variant, rel, True] = code(_SCALAR.format(rt=rt, rf=rf, **fill))
    return templates


_TEMPLATES = _templates()


def _step(n: GuardNode, observe=False, BUG=GuardKind.BUG, INT=GuardKind.INT, STR=GuardKind.STR):
    """Node ``n``'s step: its template's code with the operands bound in as the
    argument tuple its branch builds (an observing step's binds its site too)."""
    nid, kind, off, size, endian, signed, rel, const, tk, ntk = n
    if kind is BUG:
        return FunctionType(_TEMPLATES[BUG], _NAMESPACE, None, (-2 - nid,))
    te, ne, end = 2 * nid, 2 * nid + 1, off + size
    tk, ntk = -1 if tk is None else tk, -1 if ntk is None else ntk
    if kind is STR:  # the constant has the window's length (the loader pads it)
        variant, args = "str", (off, end, const, te, ne, tk, ntk)
        if observe:
            args += (nid, tuple(map((1).__add__, const)), (1,) * size, [None] * 4)
    elif kind is INT and size > 1:
        variant, args = "int", (off, _READERS[endian, size, signed], const, te, ne, tk, ntk)
    elif size == 1:  # an int or xor guard on one byte
        variant, args = "sbyte" if signed else "byte", (off, const, te, ne, tk, ntk)
    elif size > 4:
        variant, args = "xor", (off, end, const, te, ne, tk, ntk)
    else:
        variant = ("xor2", "xor3", "xor4")[size - 2]
        args = (*range(off, end), const, te, ne, tk, ntk)
    if observe and kind is not STR:
        args += (nid,)  # ``site``, ``_SCALAR``'s last parameter
    return FunctionType(_TEMPLATES[variant, rel, observe], _NAMESPACE, None, args)


class GuardProgram:
    """Validated, immutable guard-tree program.

    Safe to share between harness handles; all mutable execution state lives
    in :class:`Harness`.  ``window_end`` (the furthest operand window end, to
    which inputs are zero-extended) and ``bugs`` (the bug node ids) come from
    ``program_from_dict``'s one pass: the program walks its nodes only to build
    their plain steps.
    """

    def __init__(self, nodes: Iterable[GuardNode], entry: int, max_input_len: int,
                 window_end: int, bugs: Iterable[int]):
        # Ids are dense and ordered (``program_from_dict`` checks), so a node's
        # id is its index.
        self.nodes = nodes = tuple(nodes)
        self.entry = entry
        self.max_input_len = max_input_len
        self.node_ids = frozenset(range(len(nodes)))
        self._steps = list(map(_step, nodes))
        self._window_end = window_end
        # Every guard node owns exactly its two outgoing edge ids.
        self.all_edges = frozenset(range(2 * len(nodes))).difference(
            e for nid in bugs for e in (2 * nid, 2 * nid + 1))
        self.total_edges = len(self.all_edges)


class Harness:
    """Mutable execution handle over a shared :class:`GuardProgram`.

    ``switch_on`` and ``switch_off`` control which guard sites emit
    observations; distinct handles over the same program are independent.
    """

    def __init__(self, program: GuardProgram, synthetic_time: bool):
        self.program = program
        self.synthetic_time = synthetic_time
        self.active_sites: set[int] = set()  # the two switches change it in place
        # The program's steps, with the observing step of each active site.
        self._steps = list(program._steps)

    def switch_on(self, sites) -> None:
        """Switch on each of ``sites`` that is off, building a fresh
        observing step (a string step's memo starts empty); an unknown id
        raises before any site changes."""
        program, active, steps = self.program, self.active_sites, self._steps
        new = {nid for nid in sites if nid not in active}
        if not new <= program.node_ids:
            raise ValueError(f"unknown node ids in active set: {sorted(new - program.node_ids)}")
        for nid in new:  # a bug node's step observes nothing either way
            steps[nid] = _step(program.nodes[nid], True)
        active |= new

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
        while nid >= 0:
            nid = steps[nid](data, edges, observations)
        if nid < -1:
            bug_hits = (-2 - nid,)
        # At least 1 ns: a zero reading would divide by zero in the scheduler's clocks.
        exec_time = 1 if synthetic else max(1, time.perf_counter_ns() - t0)
        return new(cls, (tuple(edges), observations, exec_time, bug_hits))


_VALID_INT_WIDTHS = (1, 2, 4, 8)
# Each integer operand's (least, greatest) value, keyed by (width, signed).
_INT_BOUNDS = {(w, s): (-(1 << 8 * w - 1), (1 << 8 * w - 1) - 1) if s else (0, (1 << 8 * w) - 1)
               for w in _VALID_INT_WIDTHS for s in (False, True)}
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
    """Build and validate a :class:`GuardProgram` from a decoded document in
    one pass over its nodes, checking each field once, in a fixed order, for
    exactly its JSON type (``true`` is not an int); the first fault found is
    the one reported.  The pass also keeps the window end and bug ids."""
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
    window_end, bugs = 0, []
    new, BUG, INT, XOR, STR = (tuple.__new__, GuardKind.BUG, GuardKind.INT, GuardKind.XOR,
                               GuardKind.STR)
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
            bugs.append(nid)
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
            child = taken if taken is not None and not nid < taken < n else nottaken
            raise DocumentError(f"node {nid}: child {child} is not a node id above {nid}")

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
            lo, hi = _INT_BOUNDS[size, signed]
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
                # Whole groups of four, at most two pads: binascii's strict
                # mode alone takes "QUJD=" on 3.11 and 3.12, not on 3.13.
                try:
                    if len(constant) % 4 or constant.endswith("==="):
                        raise ValueError
                    constant = binascii.a2b_base64(constant.encode("ascii"), strict_mode=True)
                except ValueError:
                    raise DocumentError(f"node {nid}: constant is not valid base64") from None
                if not constant:
                    raise DocumentError(f"node {nid}: string constant must be nonempty")
                if len(constant) > size:
                    raise DocumentError(f"node {nid}: string constant of {len(constant)} "
                                        f"bytes does not fit length {size}")

        if (end := offset + size) > max_input_len:
            raise DocumentError(f"node {nid}: operand window [{offset}, {end}) exceeds "
                                f"max_input_len {max_input_len}")
        if end > MAX_WINDOW_END:
            raise DocumentError(f"node {nid}: operand window ends past the "
                                f"{MAX_WINDOW_END}-byte limit")
        if end > window_end:
            window_end = end
        if kind is STR:  # zero-padded once the window checks have bounded its length
            constant = constant.ljust(size, b"\0")
        nodes[nid] = new(GuardNode, (nid, kind, offset, size, endian, signed, relation,
                                     constant, taken, nottaken))

    # The ids are distinct, so they are dense when each lies in 0..n-1.
    if min(nodes) < 0 or max(nodes) >= n:
        raise DocumentError("document: node ids must be dense 0..n-1")
    if not 0 <= entry < n:
        raise DocumentError(f"document: entry {entry} is not a node id")
    if nodes[entry].kind is BUG:
        raise DocumentError("document: entry node may not be a bug node")
    return GuardProgram(map(nodes.__getitem__, range(n)), entry, max_input_len, window_end, bugs)


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
