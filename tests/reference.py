"""Reference oracles the tests check the engine against.

None of these is on a fuzzing run's path: each restates, from the
definitions, a fact the engine keeps another way, so that a test can compare
the two.

* The one reading of what a guard does, shared by every test.  ``_ROWS``
  and ``holds`` transcribe the twelve distance rows and the six relations
  by hand, sharing nothing with the step templates.  ``guard_feedback``
  reads a guard's raw comparison feedback off an input, ``distance_key``
  turns it into the key an observing step stores (``distance`` and
  ``string_distance`` validate it first), and ``execute`` walks a program
  with them, giving the trace a harness must give.  ``row_slope`` gives a
  row's slope, from which a Newton step finds the row's zero; the root
  solvers' closed form lands where the comparison flips.
  ``fraction_newton_step`` is the byte-space Newton step along a record's
  slopes, in ``Fraction`` arithmetic with ``round_half_away``: the tests'
  one Newton step, which criterion 2's worked example checks the stage's
  closed-form candidate against (the engine takes no byte-space step).
  ``compare_steps`` runs every step template on the operands of
  ``step_cases``, at the edges of its comparison, and checks its edge and
  key against ``guard_feedback`` and ``distance_key``.
* ``guard_ids``, ``edge_endpoints`` and ``recompute_frontier`` derive the
  frontier from scratch from a coverage map's hit edges; ``CoverageMap``
  keeps it incrementally.
* ``convexity_probe`` and ``ConvexityStats`` check a branch's distance for
  midpoint convexity over an input pair on a real harness.
* ``locate`` places a guard's operand in a witness by brute force, at every
  start, and in both byte orders for an integer, through ``guard_feedback``
  and ``distance_key``; ``compare_locator`` checks ``infer_hot_bytes``
  against it.
* ``havoc`` restates ``havoc_mutate``'s draw contract one field at a time,
  with ``word_width`` giving the width of each operator's word, and
  ``compare_havoc`` checks the two against each other, and against the
  havoc loop that ``Mutator.local_search`` plans once per stage.

``compare_steps``, ``compare_locator`` and ``compare_havoc`` need nothing
beyond the standard library and the engine, so they run without pytest:

    PYTHONPATH=src:tests python -c "import reference; reference.compare_havoc([600], 5, 1)"
    PYTHONPATH=src:tests python -c "import reference; reference.compare_steps()"
    PYTHONPATH=src:tests python -c "import reference; reference.compare_locator(2000, 1)"
"""

from __future__ import annotations

import base64
import random
from dataclasses import dataclass, field
from fractions import Fraction
from types import SimpleNamespace

from frontierfuzz.coverage import CoverageMap
from frontierfuzz.distance import observation_distance
from frontierfuzz.mutation import (
    _ARITH_MAX, _BATCH_STACK, _INTERESTING, _SEARCH_CHUNK, _SEARCH_STACK, Mutator, havoc_mutate,
    infer_hot_bytes,
)
from frontierfuzz.target import (
    ExecutionTrace, GuardKind, GuardNode, GuardProgram, Harness, Relation, program_from_dict,
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
    differences over the zero-padded window for a string guard.  Operands
    are read with ``int.from_bytes`` and outcomes decided by ``holds``."""
    off, size, const = node.offset, node.size, node.constant
    window = data[off:off + size].ljust(size, b"\0")
    if node.kind is GuardKind.STR:
        window, const = window.ljust(len(const), b"\0"), const.ljust(size, b"\0")
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
        # Constants shorter than, as long as and longer than the window, one
        # with a zero tail that a padded window can equal.
        for const in (b"\x00" * (length - 1), b"\xff" * (length - 1), bytes(length),
                      b"\xff" * length, b"\x01\x80\xfe"[:length],
                      b"\x01\x02\x00\x00"[:length + 1], b"\xff" * (length + 1)):
            base = const.ljust(length, b"\0")[:length]
            windows = {bytes(length), b"\xff" * length}
            for i in range(length):
                for f in range(-2, 3):
                    if 0 <= base[i] + f <= 0xFF:
                        windows.add(base[:i] + bytes([base[i] + f]) + base[i + 1:])
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
            program = program_from_dict({"max_input_len": 16, "entry": 0,
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
        const = bytes(pick.choice(b"\x00\x01AZ\xff") for _ in range(pick.randint(1, width + 2)))
        base = const.ljust(width, b"\0")[:width]
        operand = bytes(min(255, max(0, c + pick.randint(-1, 1))) for c in base)
        twin = base
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
    integer width, signed operands, both byte orders, string constants
    shorter and longer than their window, xor windows of at most and of more
    than four bytes, witnesses that change their last byte, and cases with
    more than one placement.  Raises AssertionError at
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
        else:
            longer = len(node.constant) - node.size
            seen.add(("constant", (longer > 0) - (longer < 0)))
        seen |= {("last byte", seed[-1] != witness[-1]), ("several", len(want) > 1)}
    wanted = ({(kind, rel, outcome) for kind in (GuardKind.INT, GuardKind.STR, GuardKind.XOR)
               for rel in Relation for outcome in (False, True)}
              | {("xor folded", False), ("xor folded", True)}
              | {("width", w) for w in (1, 2, 4, 8)} | {("signed", True), ("endian", "be")}
              | {("constant", -1), ("constant", 1), ("last byte", True), ("several", True)})
    if not wanted <= seen:
        raise AssertionError(f"no case reached {sorted(map(str, wanted - seen))}")
    return count


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
    tables: the oracle for its carving order, ranges and word width."""
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
    _SEARCH_STACK)``: the same bytes and the same rng state.  The seed
    reaches no site, so every search ends after its first chunk."""

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
    seed length, stack depth (1, 4, 16) and resize cap (none, the seed's
    length, its length + 2, 64), and ``calls`` samples for each seed length
    of local search's planned havoc loop against ``havoc`` at stack 4 with
    no cap, over searches of one chunk each: each call and each sample must
    give the same bytes and leave the same rng state.  ``stream`` seeds the
    seed bytes and the draws.  Raises AssertionError at the first
    difference; returns the count of calls and samples checked."""
    pick = random.Random(stream)
    fast, slow = random.Random(7 * stream), random.Random(7 * stream)
    count = 0
    for stack_max in (1, _SEARCH_STACK, _BATCH_STACK):
        for cap in ("none", "len", "len+2", "64"):
            for length in lengths:
                max_len = {"none": None, "len": length, "len+2": length + 2, "64": 64}[cap]
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
