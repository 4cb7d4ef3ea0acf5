"""The tests' one reference per engine layer, each written from the layer's
documented contract, not from a past version of the engine, and none on a
fuzzing run's path.  Layer -> its reference -> the test that compares them:

* guard reading -> ``_ROWS`` and ``holds`` (the distance rows and the
  relations, transcribed by hand), ``guard_feedback`` (a guard's raw
  feedback on an input) and ``distance_key`` (the key an observing step
  stores; ``distance`` and ``string_distance`` validate it first) ->
  test_distance.py, and ``compare_steps``, every step template at the edges
  of its comparison -> test_target.py ``TestStepsAtBoundaries`` and CI;
* loader -> ``program_from_dict``, with ``b64_constant`` -> test_target.py
  ``TestLoaderAgainstReference``; ``constant_table`` -> CI's decoder pin;
* walk -> ``execute`` -> test_target.py ``TestDifferentialAgainstInterpreter``;
* frontier -> ``recompute_frontier`` (with ``guard_ids`` and
  ``edge_endpoints``) -> test_coverage.py and test_campaign.py;
* scheduler fold -> ``fold`` -> test_scheduling.py
  ``TestFoldAgainstPerSiteReference``;
* havoc -> ``havoc`` and ``word_width`` -> ``compare_havoc``, local
  search's planned loop included -> test_mutation.py
  ``TestHavoc.test_matches_reference`` and CI;
* local search -> ``local_search`` -> ``TestLocalSearchAgainstReference``;
* locator -> ``locate`` -> ``compare_locator`` -> ``TestHotBytes`` and CI;
* root solver -> ``flip_root`` and ``solve`` ->
  ``TestOperandSolverAgainstReference``;
* stage -> ``stage``, composed of the references above only ->
  ``TestMutateStageAgainstReference``.

Beside them: ``convexity_probe`` (test_oracle.py, test_acceptance.py), and
criterion 2's byte-space Newton step, ``fraction_newton_step`` (with
``row_slope`` and ``round_half_away``), which the stage's candidate must meet.
``compare_steps``, ``compare_locator``, ``compare_havoc`` and
``constant_table`` need only the standard library and the engine:

    PYTHONPATH=src:tests python -c "import reference; reference.compare_havoc([600], 5, 1)"
    PYTHONPATH=src:tests python -c "import reference; reference.compare_steps()"
    PYTHONPATH=src:tests python -c "import reference; reference.compare_locator(2000, 1)"
    PYTHONPATH=src:tests python -c "import reference; print(*reference.constant_table(), sep='\\n')"
"""

from __future__ import annotations

import base64
import random
from dataclasses import dataclass, field
from fractions import Fraction
from types import SimpleNamespace

from frontierfuzz import target
from frontierfuzz.coverage import CoverageMap
from frontierfuzz.distance import observation_distance
from frontierfuzz.mutation import (
    _ARITH_MAX, _BATCH_STACK, _INTERESTING, _SEARCH_CHUNK, _SEARCH_STACK, Mutator, havoc_mutate,
    infer_hot_bytes,
)
from frontierfuzz.scheduling import BranchStats
from frontierfuzz.target import (
    MAX_WINDOW_END, DocumentError, ExecutionTrace, GuardKind, GuardNode, GuardProgram, Harness,
    Relation,
)

# The distance rows, transcribed from the definitions rather than taken from
# the engine: how far a comparison with operand difference f is from
# flipping, by (outcome, relation).
_ROWS = {
    (False, Relation.LT): lambda f: f - 1, (True, Relation.GE): lambda f: f - 1,
    (False, Relation.LE): lambda f: f, (True, Relation.GT): lambda f: f,
    (False, Relation.GT): lambda f: 1 - f, (True, Relation.LE): lambda f: 1 - f,
    (False, Relation.GE): lambda f: -f, (True, Relation.LT): lambda f: -f,
    (False, Relation.EQ): lambda f: abs(f), (True, Relation.NE): lambda f: abs(f),
    (False, Relation.NE): lambda f: 1 - abs(f), (True, Relation.EQ): lambda f: 1 - abs(f),
}
# Each relation's predicate on a value compared with 0.
_HOLDS = {Relation.LT: lambda v: v < 0, Relation.LE: lambda v: v <= 0,
          Relation.GT: lambda v: v > 0, Relation.GE: lambda v: v >= 0,
          Relation.EQ: lambda v: v == 0, Relation.NE: lambda v: v != 0}


def holds(relation: Relation, value: int) -> bool:
    """Whether ``value R 0`` is true for the relation."""
    return _HOLDS[relation](value)


def distance_key(outcome: bool, relation: Relation, feedback):
    """The distance key of raw comparison feedback: the (outcome, relation)
    row applied to f, or for a string's per-byte differences ``(L1,
    values)`` with the row applied to each."""
    row = _ROWS[outcome, relation]
    if feedback.__class__ is not tuple:
        return row(feedback)
    values = tuple(map(row, feedback))
    return sum(map(abs, values)), values


def distance(outcome: bool, relation: Relation, f: int) -> int:
    """Row value of a consistent (outcome, relation, f) observation."""
    if holds(relation, f) != outcome:
        raise ValueError(
            f"inconsistent observation: outcome={outcome} but f={f} under {relation.value}"
        )
    return distance_key(outcome, relation, f)


def string_distance(outcome: bool, relation: Relation,
                    byte_diffs) -> tuple[int, tuple[int, ...]]:
    """``(L1, values)`` key of a string comparison: the scalar rule applied
    to each compared position."""
    diffs = tuple(byte_diffs)
    if not diffs:
        raise ValueError("byte_diffs must be nonempty")
    return distance_key(outcome, relation, diffs)


def row_slope(outcome: bool, relation: Relation, f: int) -> int:
    """Derivative of the distance row with respect to the operand difference:
    the forward difference, which is +/-1 for every row at every integer."""
    row = _ROWS[outcome, relation]
    return row(f + 1) - row(f)


def round_half_away(x) -> int:
    """Round to nearest integer, halves away from zero."""
    frac = Fraction(x)
    n, d = frac.numerator, frac.denominator
    if n >= 0:
        return (2 * n + d) // (2 * d)
    return -((-2 * n + d) // (2 * d))


def fraction_newton_step(witness: bytes, d: int, g) -> bytes:
    """The byte-space Newton step in ``Fraction`` arithmetic: each byte with
    a nonzero slope below the witness's length becomes ``w - d / slope``,
    rounded half away from zero and clamped to the byte range."""
    out = bytearray(witness)
    for j, slope in g.items():
        if slope != 0 and j < len(out):
            out[j] = max(0, min(255, round_half_away(witness[j] - Fraction(d) / slope)))
    return bytes(out)


def guard_feedback(node: GuardNode, data: bytes):
    """The raw comparison feedback of guard ``node`` on ``data``, zero-extended
    as the walk does: ``(outcome, f)`` with the signed operand difference for
    an integer or xor guard, ``(outcome, diffs)`` with the signed per-byte
    differences over the window for a string guard, whose constant has the
    window's length.  Operands are read with ``int.from_bytes`` and outcomes
    decided by ``holds``."""
    off, size, const = node.offset, node.size, node.constant
    window = data[off:off + size].ljust(size, b"\0")
    if node.kind is GuardKind.STR:
        # ``window R const`` holds exactly when ``sign R 0`` does.
        sign = (window > const) - (window < const)
        return holds(node.relation, sign), tuple(a - b for a, b in zip(window, const))
    if node.kind is GuardKind.INT:
        order = "little" if node.endian == "le" else "big"
        f = int.from_bytes(window, order, signed=node.signed) - const
    else:
        folded = 0
        for byte in window:
            folded ^= byte
        f = folded - const
    return holds(node.relation, f), f


def execute(program: GuardProgram, active, data: bytes) -> ExecutionTrace:
    """The trace of ``data`` under synthetic time with the sites in
    ``active`` observing, walked node by node from the entry: each guard's
    edge from ``guard_feedback`` and its key from ``distance_key``."""
    edges, observations = [], {}
    nid = program.entry
    while nid is not None:
        node = program.nodes[nid]
        if node.kind is GuardKind.BUG:
            return ExecutionTrace(tuple(edges), observations, 1, (nid,))
        outcome, feedback = guard_feedback(node, data)
        edges.append(2 * nid if outcome else 2 * nid + 1)
        if nid in active:
            observations[nid] = distance_key(outcome, node.relation, feedback)
        nid = node.taken if outcome else node.nottaken
    return ExecutionTrace(tuple(edges), observations, 1)


def step_cases():
    """``compare_steps``' cases: ``(node, windows)``, a guard document
    without id, offset, relation or children, and the operand windows to run
    it on, where f is -2..2 around the constant and at each type's extremes,
    which drawn programs rarely reach.  Xor windows run from 1 to 8 bytes, so
    both the windows xored by index and the folded ones come up."""
    for width in (1, 2, 4, 8):
        for endian in ("le", "be"):
            order = "little" if endian == "le" else "big"
            for signed in (False, True):
                bits = 8 * width
                lo, hi = ((-(1 << (bits - 1)), (1 << (bits - 1)) - 1) if signed
                          else (0, (1 << bits) - 1))
                for const in (lo, lo + 1, 0, 1, hi - 1, hi):
                    values = {const + f for f in range(-2, 3)} | {lo, hi}
                    yield ({"kind": "int", "width": width, "endian": endian, "signed": signed,
                            "constant": const},
                           [v.to_bytes(width, order, signed=signed)
                            for v in sorted(values) if lo <= v <= hi])
    for length in range(1, 9):
        # ``length - 1`` distinct bytes xor to ``rest``; the last byte brings
        # the window's xor to ``x``.
        head = bytes(range(0x31, 0x30 + length))
        rest = 0
        for byte in head:
            rest ^= byte
        for const in (0, 1, 0x7F, 0x80, 0xFE, 0xFF):
            values = {const + f for f in range(-2, 3)} | {0, 0xFF}
            yield ({"kind": "xor", "length": length, "constant": const},
                   [head + bytes([x ^ rest]) for x in sorted(values) if 0 <= x <= 0xFF])
    for length in (2, 3):
        # Constants of the window's length, as the loader pads a shorter one,
        # some with a zero tail.
        for const in (bytes(length), b"\xff" * (length - 1) + b"\0", b"\xff" * length,
                      b"\x01\x80\xfe"[:length], b"\x01\x02\x00"[:length]):
            windows = {bytes(length), b"\xff" * length}
            for i in range(length):
                for f in range(-2, 3):
                    if 0 <= const[i] + f <= 0xFF:
                        windows.add(const[:i] + bytes([const[i] + f]) + const[i + 1:])
            yield ({"kind": "str", "length": length,
                    "constant": base64.b64encode(const).decode()}, sorted(windows))


def compare_steps() -> int:
    """Run every step template on ``step_cases`` under each relation.  On
    each window the plain and the observing step take the edge of
    ``guard_feedback``'s outcome and return the same next id, and the
    observing step stores ``distance_key`` of the feedback, twice (a string
    step's second call is a memo hit).  Every (kind, relation, outcome) must
    come up.  Raises AssertionError at the first difference; returns the
    number of windows run."""
    seen = set()
    count = 0
    for node, windows in step_cases():
        # The taken edge leads to a bug node, the other is terminal.
        node = dict(node, id=0, offset=1, taken=1, nottaken=None)
        for rel in Relation:
            node["relation"] = rel.value
            program = target.program_from_dict({"max_input_len": 16, "entry": 0,
                                                "nodes": [node, {"id": 1, "kind": "bug"}]})
            harness = Harness(program, synthetic_time=True)
            harness.switch_on({0})
            guard, plain, observing = program.nodes[0], program._steps[0], harness._steps[0]
            for window in windows:
                # Bytes on both sides of the window, which no step may read.
                data = b"\xaa" + window + b"\x55"
                outcome, feedback = guard_feedback(guard, data)
                key = distance_key(outcome, rel, feedback)
                edge, nxt = (0, 1) if outcome else (1, -1)
                for step, want in ((plain, {}), (observing, {0: key}), (observing, {0: key})):
                    edges, obs = [], {}
                    if step(data, edges, obs) != nxt or edges != [edge] or obs != want:
                        raise AssertionError(f"{guard.kind.value} step of size {guard.size} under "
                                             f"{rel.value} differs from its reference on "
                                             f"window {window.hex()}")
                seen.add((guard.kind, rel, outcome))
                count += 1
    missing = {(kind, rel, outcome) for kind in (GuardKind.INT, GuardKind.XOR, GuardKind.STR)
               for rel in Relation for outcome in (False, True)} - seen
    if missing:
        raise AssertionError(f"no case reached {len(missing)} (kind, relation, outcome) triples")
    return count


_B64 = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"


def b64_constant(text: str) -> bytes | None:
    """A string constant's bytes, or None when it is not strict base64: the
    standard alphabet in whole groups of four characters, the last of which
    may end in one or two ``=`` pads (whose bits need not be zero)."""
    digits = text.removesuffix("=").removesuffix("=")
    if len(text) % 4 or not set(digits) <= set(_B64):
        return None
    value, nbytes = 0, len(digits) * 6 // 8
    for c in digits:
        value = value << 6 | _B64.index(c)
    return (value >> len(digits) * 6 - 8 * nbytes).to_bytes(nbytes, "big")


def _check(ok: bool, message: str) -> None:
    if not ok:
        raise DocumentError(message)


def _field(raw: dict, ref: str, name: str, kind, required=True):
    """Field ``name`` of ``raw``, of exactly JSON type ``kind`` (``true`` is
    no int); absent or null, it is missing, a fault only if ``required``."""
    value = raw.get(name)
    _check(value is not None or not required, f"{ref}: missing field '{name}'")
    _check(value is None or type(value) is kind, f"{ref}: field '{name}' has invalid type")
    return value


def program_from_dict(doc) -> SimpleNamespace:
    """The loader's contract, as README's "Target documents" states it: the
    root object, then ``max_input_len``, ``entry`` and ``nodes``; node by
    node in document order, ``id`` (and duplicates), ``kind``, a bug node's
    missing children, a guard's ``offset``, ``relation``, ``taken`` and
    ``nottaken`` (each child an id above the node's and below the node
    count), its kind's fields (a string constant no longer than its window),
    and its window against ``max_input_len`` and ``MAX_WINDOW_END``; then
    dense ids and the entry.  The first fault raises ``DocumentError``; else
    the nodes, in id order, a shorter string constant zero-padded to its
    window, with the facts derived from them."""
    _check(type(doc) is dict, "document root must be an object")
    max_input_len = _field(doc, "document", "max_input_len", int)
    _check(max_input_len >= 1, "document: max_input_len must be >= 1")
    entry = _field(doc, "document", "entry", int)
    _check(_field(doc, "document", "nodes", list), "document: nodes must be nonempty")
    nodes = {}
    for raw in doc["nodes"]:
        _check(type(raw) is dict, "document: each node must be an object")
        nid = _field(raw, "node", "id", int)
        ref = f"node {nid}"
        _check(nid not in nodes, f"{ref}: duplicate node id")
        kind = _field(raw, ref, "kind", str)
        _check(kind in [k.value for k in GuardKind], f"{ref}: unknown kind '{kind}'")
        if kind == "bug":
            _check(raw.get("taken") is None and raw.get("nottaken") is None,
                   f"{ref}: bug nodes are terminal and take no children")
            nodes[nid] = GuardNode(nid, GuardKind.BUG, 0, 1, "le", False, None, None, None, None)
            continue
        offset = _field(raw, ref, "offset", int)
        _check(offset >= 0, f"{ref}: offset must be >= 0")
        relation = _field(raw, ref, "relation", str)
        _check(relation in [r.value for r in Relation], f"{ref}: unknown relation '{relation}'")
        taken = _field(raw, ref, "taken", int, required=False)
        nottaken = _field(raw, ref, "nottaken", int, required=False)
        for child in (taken, nottaken):
            _check(child is None or nid < child < len(doc["nodes"]),
                   f"{ref}: child {child} is not a node id above {nid}")
        endian, signed = "le", False
        if kind == "int":
            size = _field(raw, ref, "width", int)
            _check(size in (1, 2, 4, 8), f"{ref}: width must be one of (1, 2, 4, 8)")
            endian = _field(raw, ref, "endian", str)
            _check(endian in ("le", "be"), f"{ref}: endian must be 'le' or 'be'")
            signed = _field(raw, ref, "signed", bool)
            constant = _field(raw, ref, "constant", int)
            half = 1 << 8 * size - 1
            _check((-half if signed else 0) <= constant < (half if signed else 2 * half),
                   f"{ref}: constant {constant} does not fit width {size}")
        else:
            size = _field(raw, ref, "length", int)
            _check(size >= 1, f"{ref}: length must be >= 1")
            if kind == "xor":
                constant = _field(raw, ref, "constant", int)
                _check(0 <= constant <= 255, f"{ref}: xor constant must fit one byte")
            else:
                constant = b64_constant(_field(raw, ref, "constant", str))
                _check(constant is not None, f"{ref}: constant is not valid base64")
                _check(constant != b"", f"{ref}: string constant must be nonempty")
                _check(len(constant) <= size, f"{ref}: string constant of {len(constant)} "
                       f"bytes does not fit length {size}")
        _check(offset + size <= max_input_len, f"{ref}: operand window [{offset}, "
               f"{offset + size}) exceeds max_input_len {max_input_len}")
        _check(offset + size <= MAX_WINDOW_END,
               f"{ref}: operand window ends past the {MAX_WINDOW_END}-byte limit")
        if kind == "str":  # padded only once the window checks bound ``size``
            constant += bytes(size - len(constant))
        nodes[nid] = GuardNode(nid, GuardKind(kind), offset, size, endian, signed,
                               Relation(relation), constant, taken, nottaken)
    _check(set(nodes) == set(range(len(nodes))), "document: node ids must be dense 0..n-1")
    _check(entry in nodes, f"document: entry {entry} is not a node id")
    _check(nodes[entry].kind is not GuardKind.BUG, "document: entry node may not be a bug node")
    guards = [n for n in nodes.values() if n.kind is not GuardKind.BUG]
    return SimpleNamespace(
        nodes=[nodes[nid] for nid in sorted(nodes)], entry=entry, max_input_len=max_input_len,
        node_ids=frozenset(nodes), guard_ids=frozenset(n.node_id for n in guards),
        all_edges=frozenset(e for n in guards for e in (2 * n.node_id, 2 * n.node_id + 1)),
        _window_end=max(n.offset + n.size for n in guards))


# Constants whose acceptance differed between Pythons without the strict
# rule, beside ones that every Python rejects or decodes alike.
_CONSTANTS = ["", "====", "QUJD", "QUJD=", "QUJD==", "QUJD===", "QUJD====", "QUJDRA==",
              "QUJDRA=", "QUJDRA", "QUJDREU=", "QQ==", "QR==", "QQ=", "Q===", "QQ=A", "QUJ=",
              "QUI=", "QUI", "=QUJ", "QU=D", "QQ==QQ==", "QU JD", "QUJD\n", " QUJD", "-_-_",
              "QUJD-_8=", "+/+/", "AAAA", "QUJDé"]


def constant_table() -> list[str]:
    """One line per ``_CONSTANTS`` entry as the engine's loader takes it as
    the constant of a string guard on an 8-byte window: its bytes, zero-padded
    to the window, in hex, or "reject"."""
    lines = []
    for text in _CONSTANTS:
        doc = {"max_input_len": 8, "entry": 0,
               "nodes": [{"id": 0, "kind": "str", "offset": 0, "length": 8,
                          "relation": "eq", "constant": text}]}
        try:
            lines.append(f"{ascii(text)} {target.program_from_dict(doc).nodes[0].constant.hex()}")
        except DocumentError:
            lines.append(f"{ascii(text)} reject")
    return lines


def locate(node: GuardNode, outcome: bool, seed: bytes, witness: bytes, key,
           max_input_len: int) -> list[tuple[int, ...]]:
    """Every placement of guard ``node``'s operand in ``witness``, by brute
    force: each start whose window ends at or below ``max_input_len`` and
    holds a byte the witness changed from the seed, in each byte order for
    an integer, is tried by moving the guard there (``node._replace``) and
    reading its feedback off the witness; it places the operand when the
    (outcome, relation) row gives ``key`` there.  A placement lists the
    window's offsets in compare order, least significant byte first for an
    integer, and for an xor the window's first changed byte and then the
    rest in order; by start, the little-endian one first."""
    changed = {j for j, (a, b) in enumerate(zip(seed, witness)) if a != b}
    endians = ("le", "be") if node.kind is GuardKind.INT else ("le",)
    placements = []
    for start in range(max_input_len - node.size + 1):
        offsets = tuple(range(start, start + node.size))
        if changed.isdisjoint(offsets):
            continue
        for endian in endians:
            moved = node._replace(offset=start, endian=endian)
            placement = offsets if endian == "le" else offsets[::-1]
            if node.kind is GuardKind.XOR:
                first = min(changed.intersection(offsets))
                placement = (first,) + tuple(o for o in offsets if o != first)
            if (distance_key(outcome, node.relation, guard_feedback(moved, witness)[1]) == key
                    and placement not in placements):
                placements.append(placement)
    return placements


def _locator_case(pick: random.Random):
    """One ``compare_locator`` case: a string, integer or xor guard, a seed
    and a witness of the same length, and the guard's outcome and key on the
    witness.  Bytes come from a small alphabet and the operand's encoding is
    copied around the witness (an xor window's bytes reversed as its twin),
    so that placements besides the guard's own come up."""
    max_input_len = pick.randint(1, 20)
    kind = pick.random()
    if kind < 0.4:
        width = pick.choice([w for w in (1, 2, 4, 8) if w <= max_input_len])
        signed = pick.random() < 0.5
        bits = 8 * width
        lo, hi = (-(1 << (bits - 1)), (1 << (bits - 1)) - 1) if signed else (0, (1 << bits) - 1)
        const = pick.choice([lo, lo + 1, 0, 1, hi - 1, hi, pick.randint(lo, hi)])
        endian = pick.choice(["le", "be"])
        value = min(hi, max(lo, const + pick.randint(-2, 2)))
        order = "little" if endian == "le" else "big"
        operand = value.to_bytes(width, order, signed=signed)
        twin = value.to_bytes(width, "big" if endian == "le" else "little", signed=signed)
        node = GuardNode(0, GuardKind.INT, 0, width, endian, signed, None, const, None, None)
    elif kind < 0.7:
        # Up to 8 bytes: the walk xors up to four by index and folds longer ones.
        width = pick.randint(1, min(8, max_input_len))
        const = pick.choice([0, 1, 0xFE, 0xFF, pick.randint(0, 0xFF)])
        head = bytes(pick.choice(b"\x00\x01\x5a\xff") for _ in range(width - 1))
        value = min(0xFF, max(0, const + pick.randint(-2, 2)))
        for byte in head:
            value ^= byte
        operand = head + bytes([value])
        twin = operand[::-1]
        node = GuardNode(0, GuardKind.XOR, 0, width, "le", False, None, const, None, None)
    else:
        width = pick.randint(1, min(4, max_input_len))
        const = bytes(pick.choice(b"\x00\x01AZ\xff") for _ in range(width))
        operand = bytes(min(255, max(0, c + pick.randint(-1, 1))) for c in const)
        twin = const
        node = GuardNode(0, GuardKind.STR, 0, width, "le", False, None, const, None, None)
    node = node._replace(offset=pick.randint(0, max_input_len - width),
                         relation=pick.choice(list(Relation)))
    length = pick.randint(1, max_input_len)
    alphabet = bytes({0, 1, 0x7F, 0x80, 0xFF, *operand})
    seed = bytes(pick.choice(alphabet) for _ in range(length))
    witness = bytearray(seed.ljust(max_input_len, b"\0"))
    for chunk in (operand, twin):  # copies elsewhere, which may place the operand too
        start = pick.randint(0, max_input_len - width)
        witness[start:start + width] = chunk
    witness[node.offset:node.offset + width] = operand
    for _ in range(pick.randint(0, 3)):
        witness[pick.randrange(max_input_len)] = pick.choice(alphabet)
    if pick.random() < 0.3:
        witness[length - 1] ^= pick.randint(1, 255)
    witness = bytes(witness[:length])
    outcome, feedback = guard_feedback(node, witness)
    key = distance_key(outcome, node.relation, feedback)
    return node, outcome, seed, witness, key, max_input_len


def compare_locator(cases: int, stream: int) -> int:
    """Check ``infer_hot_bytes`` against ``locate`` on ``cases`` drawn guards
    and witnesses (``stream`` seeds the draws): the same placements in the
    same order.  Every (kind, relation, outcome) must come up, as must each
    integer width, signed operands, both byte orders, xor windows of at
    most and of more than four bytes, witnesses that change their last
    byte, and cases with more than one placement.  Raises AssertionError at
    the first difference; returns the number of placements compared."""
    pick = random.Random(stream)
    seen = set()
    count = 0
    for _ in range(cases):
        node, outcome, seed, witness, key, max_input_len = _locator_case(pick)
        got = infer_hot_bytes(node, outcome, seed, witness, key, max_input_len)
        want = locate(node, outcome, seed, witness, key, max_input_len)
        if got != want:
            raise AssertionError(f"the locator gives {got}, its reference {want}, for a "
                                 f"{node.kind.value} guard of size {node.size} under "
                                 f"{node.relation.value} on witness {witness.hex()} "
                                 f"(seed {seed.hex()})")
        count += len(want)
        seen.add((node.kind, node.relation, outcome))
        if node.kind is GuardKind.INT:
            seen |= {("width", node.size), ("signed", node.signed), ("endian", node.endian)}
        elif node.kind is GuardKind.XOR:
            seen.add(("xor folded", node.size > 4))
        seen |= {("last byte", seed[-1] != witness[-1]), ("several", len(want) > 1)}
    wanted = ({(kind, rel, outcome) for kind in (GuardKind.INT, GuardKind.STR, GuardKind.XOR)
               for rel in Relation for outcome in (False, True)}
              | {("xor folded", False), ("xor folded", True)}
              | {("width", w) for w in (1, 2, 4, 8)} | {("signed", True), ("endian", "be")}
              | {("last byte", True), ("several", True)})
    if not wanted <= seen:
        raise AssertionError(f"no case reached {sorted(map(str, wanted - seen))}")
    return count


def flip_root(outcome: bool, relation: Relation, f: int) -> int:
    """The Newton step from the difference ``f`` to its row's zero (every
    row's slope is +/-1), then on down the row while the comparison still
    gives the outcome."""
    root = f - _ROWS[outcome, relation](f) * row_slope(outcome, relation, f)
    while holds(relation, root) == outcome:
        root -= row_slope(outcome, relation, root)
    return root


def solve(node: GuardNode, witness: bytes, offsets, outcome: bool) -> bytes:
    """The root step's candidate at the placement ``offsets`` of a witness
    with ``outcome``: the operand there, read by ``guard_feedback`` on the
    guard moved to it, goes to ``constant + flip_root`` of its difference.
    An integer is clamped to its range and written least significant byte
    first, each string byte (its own difference) clamped to a byte, both
    into the witness zero-extended through the placement; an xor window's
    first byte changes alone, so that the window folds to the target
    clamped to a byte, and the input keeps its length."""
    start, relation, const = min(offsets), node.relation, node.constant
    f = guard_feedback(node._replace(offset=start, endian="le" if offsets[0] == start else "be"),
                       witness)[1]
    if node.kind is GuardKind.XOR:
        buf = bytearray(witness)
        buf[offsets[0]] ^= (const + f) ^ max(0, min(255, const + flip_root(outcome, relation, f)))
        return bytes(buf)
    buf = bytearray(witness.ljust(max(offsets) + 1, b"\0"))
    if node.kind is GuardKind.STR:
        solved = [max(0, min(255, c + flip_root(outcome, relation, d)))
                  for c, d in zip(const, f)]
    else:
        half = 1 << 8 * node.size - 1
        lo, hi = (-half, half - 1) if node.signed else (0, 2 * half - 1)
        operand = max(lo, min(hi, const + flip_root(outcome, relation, f)))
        solved = (operand % (2 * half)).to_bytes(node.size, "little")
    for offset, byte in zip(offsets, solved):
        buf[offset] = byte
    return bytes(buf)


def local_search(seed: bytes, frontier, executor, rng, sample_size: int) -> dict:
    """``Mutator.local_search``'s contract: the seed, then mutants of
    ``havoc(seed, rng, _SEARCH_STACK)``, run one at a time, ``sample_size``
    samples at most, in chunks of ``_SEARCH_CHUNK`` (the first holding the
    seed).  At each site of ``frontier`` that the seed reached, a sample's
    ``g`` is Δd/Δbyte at each byte it changed, Δd from the scalarized keys;
    the site's record is the first sample whose ``g`` has the largest L1
    norm, if that is above 0.  The search stops after a chunk at whose end
    no sample of it raised the best norm of a site on the executor's
    frontier, or every such site the seed reached has a record.  Returns
    ``{site: (witness, key, g)}``."""
    base = {site: observation_distance(key) for site, key in executor.run(seed).observations.items()
            if site in frontier}
    best, records, raised = dict.fromkeys(base, 0), {}, set()
    for i in range(1, sample_size):
        data = havoc(seed, rng, _SEARCH_STACK)
        steps = None  # Δbyte at each changed byte, and Σ 1/|Δbyte|: the L1 norm over |Δd|
        for site, key in executor.run(data).observations.items():
            if site in base and (delta := observation_distance(key) - base[site]):
                if steps is None:
                    steps = {j: b - a for j, (a, b) in enumerate(zip(seed, data)) if a != b}
                    inv = sum(Fraction(1, abs(step)) for step in steps.values())
                if abs(delta) * inv > best[site]:
                    best[site] = abs(delta) * inv
                    records[site] = data, key, {j: Fraction(delta, d) for j, d in steps.items()}
                    raised.add(site)
        if (i + 1) % _SEARCH_CHUNK == 0:
            live = executor.coverage.frontier
            if not raised & live or all(site in records for site in base if site in live):
                break
            raised = set()
    return records


def stage(program: GuardProgram, sample_size: int, seed: bytes, frontier, executor, rng) -> None:
    """``Mutator.mutate_stage``'s contract, from the references above only:
    the seed zero-extended to the furthest end of a guard's window, then
    ``local_search``; then, in site order, for each record of a site still
    on the executor's frontier, one ``solve`` candidate per ``locate``
    placement, from the witness's outcome (``guard_feedback``), run unless
    it is the witness, while the site stays on the frontier."""
    seed = seed.ljust(max(n.offset + n.size for n in program.nodes if n.kind is not GuardKind.BUG),
                      b"\0")
    records = local_search(seed, frontier, executor, rng, sample_size)
    for site, (witness, key, _) in sorted(records.items()):
        node = program.nodes[site]
        outcome = guard_feedback(node, witness)[0]
        for offsets in locate(node, outcome, seed, witness, key, program.max_input_len):
            if site not in executor.coverage.frontier:
                break
            if (candidate := solve(node, witness, offsets, outcome)) != witness:
                executor.run(candidate)


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


def fold(stats: dict, data: bytes, observations, exec_time: int, frontier) -> int:
    """``SchedulerState.record_execution``'s contract on its ``{site:
    BranchStats}`` map: each observed site on ``frontier``, in map order,
    gets stats with both clocks at ``exec_time`` on a first reach; later,
    ``exec_time`` goes to its total clock, and to its productive clock too
    when the key is strictly below the minimum, which the key and ``data``
    then replace.  A key of the other form raises ``ValueError`` before the
    site's clocks move.  Returns how many minima fell, first reaches
    included."""
    lowered = 0
    for site, key in observations.items():
        if site not in frontier:
            continue
        if site not in stats:
            stats[site] = BranchStats(key, data, exec_time, exec_time)
            lowered += 1
            continue
        entry = stats[site]
        if type(key) is not type(entry.best):
            raise ValueError(f"distance form mismatch for site {site}")
        entry.tt += exec_time
        if key < entry.best:
            entry.best, entry.best_input, entry.pt = key, data, entry.pt + exec_time
            lowered += 1
    return lowered


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
    harness.switch_off(saved)
    harness.switch_on({site})
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
        harness.switch_off({site})
        harness.switch_on(saved)


class _Word:
    """One operator's ``width``-bit draw, read one field at a time."""

    def __init__(self, rng, width):
        self.rest = rng.getrandbits(width)
        self.span = 1  # product of the ranges read so far

    def field(self, m):
        self.span *= m
        value = self.rest % m
        self.rest //= m
        return value


def word_width(length, max_len):
    """The width of ``havoc_mutate``'s operator word on a seed of ``length``
    bytes: 10 bits more than the largest product of ranges an operator can
    carve at the longest input the call can reach (the byte set's or the
    swap's, with the operator index), and at least 30."""
    n_ops = 6 if max_len is None else 8
    top = length if max_len is None else max(length, min(length + 4, max_len))
    return max(30, 10 + (n_ops * max(256 * top, top * top) - 1).bit_length())


def havoc(seed, rng, stack_max, max_len=None):
    """``havoc_mutate``'s draw contract, one field at a time and with no
    tables: the oracle for its carving order, ranges and word width.  With
    no ``max_len`` nothing resizes: the six operators that keep the seed's
    length, as local search draws them."""
    if not seed:
        raise ValueError("seed must be nonempty")
    budget = 4
    ops = [0, 1, 2, 3, 4, 5]
    if max_len is not None:
        ops.extend((6, 7))
    buf = bytearray(seed)
    orig_len = len(seed)
    width = word_width(orig_len, max_len)
    for _ in range(rng.getrandbits(30) % stack_max + 1):
        word = _Word(rng, width)
        op = ops[word.field(len(ops))]
        n = len(buf)
        if op == 0:  # bit flip
            bit = word.field(8)
            buf[word.field(n)] ^= 1 << bit
        elif op == 1:  # byte set
            value = word.field(256)
            buf[word.field(n)] = value
        elif op == 2:  # byte add/sub
            sign = word.field(2)
            delta = word.field(_ARITH_MAX) + 1
            pos = word.field(n)
            buf[pos] = (buf[pos] + (delta if sign else -delta)) & 0xFF
        elif op == 3:  # interesting value substitution
            widths = [w for w in (1, 2, 4) if w <= n and w <= budget]
            w = widths[word.field(len(widths))]
            order = ("little", "big")[word.field(2)]
            value = _INTERESTING[w][word.field(len(_INTERESTING[w]))]
            pos = word.field(n - w + 1)
            buf[pos:pos + w] = (value & ((1 << (8 * w)) - 1)).to_bytes(w, order)
        elif op == 4:  # block overwrite
            blen = word.field(min(budget, n)) + 1
            pos = word.field(n - blen + 1)
            buf[pos:pos + blen] = rng.getrandbits(8 * blen).to_bytes(blen, "little")
        elif op == 5:  # byte swap
            if n >= 2:
                i = word.field(n)
                j = word.field(n)
                buf[i], buf[j] = buf[j], buf[i]
        elif op == 6:  # delete block
            m = min(budget + (n - orig_len), n - 1, budget)
            if m >= 1:
                blen = word.field(m) + 1
                pos = word.field(n - blen + 1)
                del buf[pos:pos + blen]
        else:  # insert block
            m = budget - (n - orig_len)
            if max_len is not None:
                m = min(m, max_len - n)
            if m >= 1:
                blen = word.field(m) + 1
                pos = word.field(n + 1)
                buf[pos:pos] = rng.getrandbits(8 * blen).to_bytes(blen, "little")
        if word.span > 2 ** (width - 10):
            raise AssertionError(f"operator {op} carved a product of {word.span} "
                                 f"from a {width}-bit word")
    return bytes(buf)


class _SearchDraws:
    """An executor for ``Mutator.local_search`` that runs nothing and checks
    each sample the search pulls against ``havoc(seed, twin,
    _SEARCH_STACK)`` with no ``max_len``: the same bytes and the same rng
    state.  The seed reaches no site, so every search ends after its first
    chunk."""

    def __init__(self, rng, twin):
        self.rng, self.twin = rng, twin
        self.coverage = SimpleNamespace(frontier=set())
        self.seed, self.count = None, 0

    def run(self, data):
        self.seed = data  # a search runs its seed first
        return SimpleNamespace(observations={})

    def run_batch(self, inputs, ran):
        for data in inputs:
            if (data != havoc(self.seed, self.twin, _SEARCH_STACK)
                    or self.rng.getstate() != self.twin.getstate()):
                raise AssertionError(f"local search's havoc differs from its reference "
                                     f"at length {len(self.seed)}")
            self.count += 1
        return ran


def compare_havoc(lengths, calls: int, stream: int) -> int:
    """Check ``havoc_mutate`` against ``havoc``, ``calls`` times for each
    seed length, stack depth (1, 4, 16) and resize cap (the seed's length,
    its length + 2, 64), and ``calls`` samples for each seed length
    of local search's planned havoc loop against ``havoc`` at stack 4 with
    no cap, over searches of one chunk each: each call and each sample must
    give the same bytes and leave the same rng state.  ``stream`` seeds the
    seed bytes and the draws.  Raises AssertionError at the first
    difference; returns the count of calls and samples checked."""
    pick = random.Random(stream)
    fast, slow = random.Random(7 * stream), random.Random(7 * stream)
    count = 0
    for stack_max in (1, _SEARCH_STACK, _BATCH_STACK):
        for cap in ("len", "len+2", "64"):
            for length in lengths:
                max_len = {"len": length, "len+2": length + 2, "64": 64}[cap]
                for _ in range(calls):
                    seed = pick.randbytes(length)
                    got = havoc_mutate(seed, fast, stack_max, max_len)
                    want = havoc(seed, slow, stack_max, max_len)
                    if got != want or fast.getstate() != slow.getstate():
                        raise AssertionError(f"havoc_mutate differs from its reference at "
                                             f"stack {stack_max}, cap {cap}, length {length}")
                    count += 1
    for length in lengths:
        draws = _SearchDraws(fast, slow)
        while draws.count < calls:
            # Sample size k + 1: the seed and k samples, in one chunk.  Local
            # search reads no program.
            k = min(calls - draws.count, _SEARCH_CHUNK - 1)
            Mutator(None, k + 1).local_search(pick.randbytes(length), set(), draws, fast)
        count += draws.count
    return count
